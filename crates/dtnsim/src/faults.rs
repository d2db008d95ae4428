//! Deterministic fault injection for the simulator.
//!
//! Disaster-scenario DTNs treat damaged, lossy, churning networks as the
//! *normal* operating regime, so every scheme must be stressable under
//! controlled failures. This module models four fault families:
//!
//! * **mid-contact interruption** — a contact's usable byte budget is cut
//!   at a uniformly random point, exercising the §III-D property that
//!   transmitting in selection order makes early termination graceful;
//! * **transfer loss / corruption** — individual photo transmissions are
//!   dropped or corrupted in flight; receivers detect corruption and
//!   discard, so a corrupt photo is never stored or counted as delivered,
//!   but the bandwidth it burned is gone;
//! * **node churn** — nodes crash (wiping their photo buffer, and
//!   optionally their PROPHET state) and later reboot empty, stressing
//!   the §III-B metadata-invalidation rule with genuinely stale state;
//! * **degraded uplinks** — upload windows are dropped outright or shrunk
//!   to a random fraction of their bandwidth budget.
//!
//! Everything is derived deterministically from `(config, seed)`:
//! the crash/reboot schedule is a [`FaultPlan`] sampled up front from a
//! dedicated RNG stream, and per-event coin flips come from a second
//! dedicated stream consumed in event order. Neither stream is shared
//! with world generation or scheme decisions, so **a zero-rate
//! [`FaultConfig`] is provably inert**: the same `(config, trace, seed)`
//! produces bit-identical results with the subsystem present or absent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use photodtn_contacts::NodeId;
use photodtn_core::transmission::TransferFate;

/// Fault-injection rates. The default is all-zero: no faults.
///
/// All probabilities are per-event (`0..=1`); `crashes_per_node_hour` is
/// the rate of a per-node Poisson crash process.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultConfig {
    /// Probability that a contact is interrupted mid-way; an interrupted
    /// contact keeps only a uniform random fraction of its byte budget.
    pub contact_interrupt_prob: f64,
    /// Probability that an individual photo transmission is lost in
    /// flight (bytes spent, nothing arrives).
    pub transfer_loss_prob: f64,
    /// Probability that an individual photo transmission arrives
    /// corrupted; the receiver detects and discards it.
    pub transfer_corrupt_prob: f64,
    /// Expected crashes per node per hour (Poisson). A crash wipes the
    /// node's photo buffer; the node stays down for
    /// [`reboot_delay`](Self::reboot_delay) seconds and reboots empty.
    pub crashes_per_node_hour: f64,
    /// Downtime after a crash, seconds.
    pub reboot_delay: f64,
    /// Whether a crash also erases the node's PROPHET delivery-
    /// predictability table (its protocol state lived in RAM).
    pub wipe_routing_state: bool,
    /// Probability that an uplink window is dropped entirely (the
    /// satellite/cellular link was unavailable).
    pub uplink_drop_prob: f64,
    /// Probability that a surviving uplink window is degraded to a
    /// uniform random fraction of its byte budget.
    pub uplink_degrade_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            contact_interrupt_prob: 0.0,
            transfer_loss_prob: 0.0,
            transfer_corrupt_prob: 0.0,
            crashes_per_node_hour: 0.0,
            reboot_delay: 1800.0,
            wipe_routing_state: true,
            uplink_drop_prob: 0.0,
            uplink_degrade_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// Whether every fault channel is disabled (the default).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.contact_interrupt_prob == 0.0
            && self.transfer_loss_prob == 0.0
            && self.transfer_corrupt_prob == 0.0
            && self.crashes_per_node_hour == 0.0
            && self.uplink_drop_prob == 0.0
            && self.uplink_degrade_prob == 0.0
    }

    /// A preset that turns on *every* fault family, scaled by
    /// `intensity ∈ [0, 1]` — the knob the chaos harness sweeps.
    ///
    /// At intensity 1 roughly half of all contacts are interrupted, a
    /// fifth of transfers are lost or corrupted, each node crashes about
    /// once every ten hours, and a third of uplink windows are degraded.
    #[must_use]
    pub fn chaos(intensity: f64) -> Self {
        let k = intensity.clamp(0.0, 1.0);
        FaultConfig {
            contact_interrupt_prob: 0.5 * k,
            transfer_loss_prob: 0.1 * k,
            transfer_corrupt_prob: 0.1 * k,
            crashes_per_node_hour: 0.1 * k,
            reboot_delay: 1800.0,
            wipe_routing_state: true,
            uplink_drop_prob: 0.15 * k,
            uplink_degrade_prob: 0.2 * k,
        }
    }

    /// Sets the mid-contact interruption probability (builder-style),
    /// clamped to `[0, 1]`.
    #[must_use]
    pub fn with_contact_interrupt_prob(mut self, p: f64) -> Self {
        self.contact_interrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-transfer loss probability (builder-style), clamped.
    #[must_use]
    pub fn with_transfer_loss_prob(mut self, p: f64) -> Self {
        self.transfer_loss_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-transfer corruption probability (builder-style),
    /// clamped.
    #[must_use]
    pub fn with_transfer_corrupt_prob(mut self, p: f64) -> Self {
        self.transfer_corrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the crash rate and downtime (builder-style).
    #[must_use]
    pub fn with_churn(mut self, crashes_per_node_hour: f64, reboot_delay: f64) -> Self {
        self.crashes_per_node_hour = crashes_per_node_hour.max(0.0);
        self.reboot_delay = reboot_delay.max(0.0);
        self
    }

    /// Sets the uplink drop / degrade probabilities (builder-style),
    /// clamped.
    #[must_use]
    pub fn with_uplink_faults(mut self, drop_prob: f64, degrade_prob: f64) -> Self {
        self.uplink_drop_prob = drop_prob.clamp(0.0, 1.0);
        self.uplink_degrade_prob = degrade_prob.clamp(0.0, 1.0);
        self
    }
}

/// The precomputed churn schedule of one world: per node, the sorted,
/// disjoint `[crash, reboot)` outage intervals sampled from
/// `(config, seed)`.
///
/// Built by [`FaultPlan::build`]; empty (and allocation-free) when churn
/// is disabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    outages: Vec<Vec<(f64, f64)>>,
}

impl FaultPlan {
    /// Samples the churn schedule for `num_nodes` nodes over `duration`
    /// seconds. `exclude` (the command-center trace node, if any) never
    /// crashes — the command center is assumed hardened.
    #[must_use]
    pub fn build(
        config: &FaultConfig,
        num_nodes: u32,
        exclude: Option<NodeId>,
        duration: f64,
        seed: u64,
    ) -> Self {
        if config.crashes_per_node_hour <= 0.0 || duration <= 0.0 {
            return FaultPlan::default();
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_0C4A_5445_0003);
        let rate = config.crashes_per_node_hour / 3600.0;
        let down = config.reboot_delay.max(0.0);
        let mut outages = Vec::with_capacity(num_nodes as usize);
        for n in 0..num_nodes {
            let mut intervals = Vec::new();
            if Some(NodeId(n)) != exclude {
                let mut t = sample_exp(&mut rng, rate);
                while t < duration {
                    let up = t + down;
                    intervals.push((t, up));
                    t = up + sample_exp(&mut rng, rate);
                }
            }
            outages.push(intervals);
        }
        FaultPlan { outages }
    }

    /// Whether the plan schedules no outages at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outages.iter().all(Vec::is_empty)
    }

    /// The outage intervals of one node (empty slice when none).
    #[must_use]
    pub fn outages(&self, node: NodeId) -> &[(f64, f64)] {
        self.outages.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// Iterates over every `(node, crash_time, reboot_time)` triple.
    pub fn crashes(&self) -> impl Iterator<Item = (NodeId, f64, f64)> + '_ {
        self.outages.iter().enumerate().flat_map(|(n, intervals)| {
            intervals
                .iter()
                .map(move |&(crash, reboot)| (NodeId(n as u32), crash, reboot))
        })
    }

    /// Total number of scheduled crashes.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.outages.iter().map(Vec::len).sum()
    }
}

/// Counters of injected faults, sampled into
/// [`MetricSample`](crate::MetricSample) alongside the coverage series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Contacts whose budget was cut mid-way.
    pub contacts_interrupted: u64,
    /// Contacts skipped entirely because an endpoint was down.
    pub contacts_skipped_down: u64,
    /// Photo transmissions lost in flight.
    pub transfers_lost: u64,
    /// Photo transmissions that arrived corrupted and were discarded.
    pub transfers_corrupt: u64,
    /// Node crashes executed.
    pub node_crashes: u64,
    /// Uplink windows dropped or degraded.
    pub uplinks_degraded: u64,
}

/// The per-run mutable fault state: the injector's RNG stream, each
/// node's up/down status, and the running [`FaultStats`].
///
/// Lives in [`SimCtx`](crate::SimCtx). Schemes read it through
/// [`SimCtx::faults`](crate::SimCtx::faults); only
/// [`SimCtx::send`](crate::SimCtx::send) and
/// [`SimCtx::upload`](crate::SimCtx::upload) roll transfer fates.
#[derive(Debug)]
pub struct FaultState {
    config: FaultConfig,
    base_seed: u64,
    rng: SmallRng,
    down: Vec<bool>,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(config: FaultConfig, num_nodes: u32, seed: u64) -> Self {
        let base_seed = seed ^ 0xFA17_D1CE_0000_0004;
        FaultState {
            config,
            base_seed,
            rng: SmallRng::seed_from_u64(base_seed),
            down: vec![false; num_nodes as usize],
            stats: FaultStats::default(),
        }
    }

    /// Rekeys the coin-flip stream to one event, identified by its queue
    /// push sequence number (unique per run).
    ///
    /// The engine calls this at the top of every event *only when faults
    /// are active* (`!config.is_noop()`), so fault-free runs consume no
    /// randomness at all. With per-event keys, the draws an event makes
    /// depend only on `(base_seed, seq)` and the within-event draw order
    /// — never on how many draws earlier events made — so a checkpoint
    /// needs no fault-RNG state: snapshots are cut at event boundaries,
    /// and the next event rekeys the stream from scratch.
    pub(crate) fn begin_event(&mut self, seq: u64) {
        self.rng = SmallRng::seed_from_u64(splitmix64(
            self.base_seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
    }

    /// The active fault configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counters of faults injected so far in this run.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether `node` is currently crashed.
    #[must_use]
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.get(node.index()).copied().unwrap_or(false)
    }

    pub(crate) fn set_down(&mut self, node: NodeId, down: bool) {
        self.down[node.index()] = down;
    }

    /// The full up/down mask, for checkpointing. The coin-flip RNG needs
    /// no snapshot: [`begin_event`](Self::begin_event) rekeys it from the
    /// event sequence number, and checkpoints are only cut at event
    /// boundaries.
    pub(crate) fn down_snapshot(&self) -> Vec<bool> {
        self.down.clone()
    }

    /// Restores the up/down mask and counters from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `down` has the wrong node count — the caller validates
    /// snapshot shape before restoring.
    pub(crate) fn restore(&mut self, down: Vec<bool>, stats: FaultStats) {
        assert_eq!(
            down.len(),
            self.down.len(),
            "fault mask node count mismatch"
        );
        self.down = down;
        self.stats = stats;
    }

    /// Rolls the fate of one in-flight photo transmission and counts it.
    ///
    /// Consumes no randomness — and always returns
    /// [`TransferFate::Intact`] — while both transfer-fault rates are
    /// zero, so fault-free runs are bit-identical to a build without the
    /// injector.
    pub(crate) fn roll_transfer(&mut self) -> TransferFate {
        let loss = self.config.transfer_loss_prob;
        let corrupt = self.config.transfer_corrupt_prob;
        if loss <= 0.0 && corrupt <= 0.0 {
            return TransferFate::Intact;
        }
        let u: f64 = self.rng.gen();
        if u < loss {
            self.stats.transfers_lost += 1;
            TransferFate::Lost
        } else if u < loss + corrupt {
            self.stats.transfers_corrupt += 1;
            TransferFate::Corrupt
        } else {
            TransferFate::Intact
        }
    }

    /// Applies mid-contact interruption to a contact's byte budget.
    pub(crate) fn roll_contact_budget(&mut self, budget: u64) -> u64 {
        if self.config.contact_interrupt_prob <= 0.0 {
            return budget;
        }
        if self.rng.gen::<f64>() < self.config.contact_interrupt_prob {
            self.stats.contacts_interrupted += 1;
            let fraction: f64 = self.rng.gen();
            (budget as f64 * fraction) as u64
        } else {
            budget
        }
    }

    /// Applies uplink degradation; `None` means the window was dropped.
    pub(crate) fn roll_uplink_budget(&mut self, budget: u64) -> Option<u64> {
        if self.config.uplink_drop_prob > 0.0
            && self.rng.gen::<f64>() < self.config.uplink_drop_prob
        {
            self.stats.uplinks_degraded += 1;
            return None;
        }
        if self.config.uplink_degrade_prob > 0.0
            && self.rng.gen::<f64>() < self.config.uplink_degrade_prob
        {
            self.stats.uplinks_degraded += 1;
            let fraction: f64 = self.rng.gen();
            return Some((budget as f64 * fraction) as u64);
        }
        Some(budget)
    }
}

fn sample_exp<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / rate
}

/// The splitmix64 finalizer: a cheap bijective mixer so per-event seeds
/// derived from consecutive sequence numbers land far apart.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        let c = FaultConfig::default();
        assert!(c.is_noop());
        assert!(FaultPlan::build(&c, 10, None, 1e6, 1).is_empty());
        let mut state = FaultState::new(c, 10, 1);
        assert_eq!(state.roll_transfer(), TransferFate::Intact);
        assert_eq!(state.roll_contact_budget(1000), 1000);
        assert_eq!(state.roll_uplink_budget(1000), Some(1000));
        assert_eq!(state.stats, FaultStats::default());
    }

    #[test]
    fn chaos_preset_scales_with_intensity() {
        assert!(FaultConfig::chaos(0.0).is_noop());
        let half = FaultConfig::chaos(0.5);
        let full = FaultConfig::chaos(1.0);
        assert!(!half.is_noop());
        assert!(half.transfer_loss_prob < full.transfer_loss_prob);
        assert!(half.crashes_per_node_hour < full.crashes_per_node_hour);
        // out-of-range intensities are clamped
        assert_eq!(FaultConfig::chaos(7.0), full);
        assert!(FaultConfig::chaos(-1.0).is_noop());
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let c = FaultConfig::default().with_churn(0.5, 600.0);
        let p1 = FaultPlan::build(&c, 20, None, 50.0 * 3600.0, 9);
        let p2 = FaultPlan::build(&c, 20, None, 50.0 * 3600.0, 9);
        assert_eq!(p1, p2);
        assert!(p1.crash_count() > 0);
        let p3 = FaultPlan::build(&c, 20, None, 50.0 * 3600.0, 10);
        assert_ne!(p1, p3, "different seeds must give different schedules");
        for n in 0..20 {
            let outages = p1.outages(NodeId(n));
            for w in outages.windows(2) {
                assert!(w[0].1 <= w[1].0, "outages overlap: {w:?}");
            }
            for &(crash, reboot) in outages {
                assert!((reboot - crash - 600.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn excluded_node_never_crashes() {
        let c = FaultConfig::default().with_churn(2.0, 60.0);
        let p = FaultPlan::build(&c, 8, Some(NodeId(3)), 100.0 * 3600.0, 4);
        assert!(p.outages(NodeId(3)).is_empty());
        assert!(p.crash_count() > 0);
        assert!(p.crashes().all(|(n, _, _)| n != NodeId(3)));
    }

    #[test]
    fn transfer_fates_approach_configured_rates() {
        let c = FaultConfig::default()
            .with_transfer_loss_prob(0.3)
            .with_transfer_corrupt_prob(0.2);
        let mut state = FaultState::new(c, 1, 7);
        let (mut lost, mut corrupt, mut intact) = (0u32, 0u32, 0u32);
        for _ in 0..20_000 {
            match state.roll_transfer() {
                TransferFate::Lost => lost += 1,
                TransferFate::Corrupt => corrupt += 1,
                TransferFate::Intact => intact += 1,
            }
        }
        assert!((0.27..0.33).contains(&(f64::from(lost) / 20_000.0)));
        assert!((0.17..0.23).contains(&(f64::from(corrupt) / 20_000.0)));
        assert!(intact > 0);
        assert_eq!(state.stats().transfers_lost, u64::from(lost));
        assert_eq!(state.stats().transfers_corrupt, u64::from(corrupt));
    }

    #[test]
    fn interruption_only_shrinks_budgets() {
        let c = FaultConfig::default().with_contact_interrupt_prob(1.0);
        let mut state = FaultState::new(c, 1, 3);
        for _ in 0..100 {
            assert!(state.roll_contact_budget(10_000) <= 10_000);
        }
        assert_eq!(state.stats().contacts_interrupted, 100);
    }

    #[test]
    fn builders_clamp() {
        let c = FaultConfig::default()
            .with_contact_interrupt_prob(2.0)
            .with_transfer_loss_prob(-0.5)
            .with_uplink_faults(1.5, -2.0)
            .with_churn(-1.0, -5.0);
        assert_eq!(c.contact_interrupt_prob, 1.0);
        assert_eq!(c.transfer_loss_prob, 0.0);
        assert_eq!(c.uplink_drop_prob, 1.0);
        assert_eq!(c.uplink_degrade_prob, 0.0);
        assert_eq!(c.crashes_per_node_hour, 0.0);
        assert_eq!(c.reboot_delay, 0.0);
    }

    #[test]
    fn begin_event_makes_draws_position_independent() {
        let c = FaultConfig::default()
            .with_transfer_loss_prob(0.3)
            .with_transfer_corrupt_prob(0.2);
        // In-order replay: key each event, record its draws.
        let mut a = FaultState::new(c, 1, 11);
        let mut in_order = Vec::new();
        for seq in 0..200u64 {
            a.begin_event(seq);
            in_order.push((a.roll_transfer(), a.roll_transfer()));
        }
        // Out-of-order replay (reversed) must reproduce each event's
        // draws exactly — prior events' consumption is irrelevant.
        let mut b = FaultState::new(c, 1, 11);
        for seq in (0..200u64).rev() {
            b.begin_event(seq);
            let draws = (b.roll_transfer(), b.roll_transfer());
            assert_eq!(draws, in_order[seq as usize], "event {seq}");
        }
        // Distinct events see distinct streams.
        assert!(in_order.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn uplink_faults_drop_and_degrade() {
        let drop_all = FaultConfig::default().with_uplink_faults(1.0, 0.0);
        let mut state = FaultState::new(drop_all, 1, 5);
        assert_eq!(state.roll_uplink_budget(1000), None);
        assert_eq!(state.stats().uplinks_degraded, 1);

        let degrade_all = FaultConfig::default().with_uplink_faults(0.0, 1.0);
        let mut state = FaultState::new(degrade_all, 1, 5);
        for _ in 0..50 {
            let b = state
                .roll_uplink_budget(1000)
                .expect("degraded, not dropped");
            assert!(b <= 1000);
        }
        assert_eq!(state.stats().uplinks_degraded, 50);
    }
}
