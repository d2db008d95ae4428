//! A scheme wrapper that validates global invariants after every hook —
//! the simulator's built-in failure detector for scheme implementations.

use std::collections::BTreeSet;

use photodtn_contacts::NodeId;
use photodtn_coverage::{Photo, PhotoId};

use crate::faults::FaultStats;
use crate::{Scheme, SimCtx};

/// Wraps any scheme and asserts, after every event it handles:
///
/// * every participant's storage is within capacity (when the scheme
///   [`respects_storage`](Scheme::respects_storage)) — including under
///   crash/reboot churn;
/// * the command center's collection only grows;
/// * time never runs backwards between hooks;
/// * fault counters never decrease;
/// * no photo that existed *only* in a crashed node's wiped buffer is
///   ever delivered afterwards — delivery from beyond the grave would
///   mean a scheme (or the engine) resurrected destroyed data. Corrupt
///   uploads are discarded inside [`SimCtx::upload`], so the growth check
///   also guarantees no corrupt photo enters the command center's
///   collection.
///
/// # Panics
///
/// All hooks panic when the wrapped scheme violates an invariant, which
/// makes `Checked` a test harness: run the full simulation under
/// `Checked(scheme)` and any storage leak or delivery rollback becomes a
/// loud failure at the exact event that caused it.
///
/// # Example
///
/// ```
/// use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
/// use photodtn_sim::{schemes_api::FloodScheme, Checked, SimConfig, Simulation};
///
/// let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
///     .with_num_nodes(8).with_duration_hours(10.0).generate(1);
/// let config = SimConfig::mit_default().with_photos_per_hour(10.0);
/// let mut checked = Checked::new(FloodScheme);
/// let result = Simulation::new(&config, &trace, 1).run(&mut checked);
/// assert!(result.final_sample().delivered_photos > 0);
/// ```
#[derive(Debug)]
pub struct Checked<S> {
    inner: S,
    last_now: f64,
    last_delivered: usize,
    last_stats: FaultStats,
    /// Photos destroyed by crashes before reaching anyone else: they can
    /// never legitimately appear at the command center.
    lost_forever: BTreeSet<PhotoId>,
}

impl<S: Scheme> Checked<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Checked {
            inner,
            last_now: f64::NEG_INFINITY,
            last_delivered: 0,
            last_stats: FaultStats::default(),
            lost_forever: BTreeSet::new(),
        }
    }

    /// Unwraps the inner scheme.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn verify(&mut self, ctx: &SimCtx, hook: &str) {
        assert!(
            ctx.now() >= self.last_now,
            "{}: time ran backwards ({} after {}) in {hook}",
            self.inner.name(),
            ctx.now(),
            self.last_now
        );
        self.last_now = ctx.now();

        if self.inner.respects_storage() {
            for n in 0..ctx.num_nodes() {
                let used = ctx.collection(NodeId(n)).total_size();
                assert!(
                    used <= ctx.storage_bytes(),
                    "{}: node n{n} holds {used} B > capacity {} B after {hook}",
                    self.inner.name(),
                    ctx.storage_bytes()
                );
            }
        }

        let delivered = ctx.cc_collection().len();
        assert!(
            delivered >= self.last_delivered,
            "{}: command center lost photos ({} -> {delivered}) after {hook}",
            self.inner.name(),
            self.last_delivered
        );
        self.last_delivered = delivered;

        let stats = *ctx.faults().stats();
        for (name, before, after) in [
            (
                "contacts_interrupted",
                self.last_stats.contacts_interrupted,
                stats.contacts_interrupted,
            ),
            (
                "transfers_lost",
                self.last_stats.transfers_lost,
                stats.transfers_lost,
            ),
            (
                "transfers_corrupt",
                self.last_stats.transfers_corrupt,
                stats.transfers_corrupt,
            ),
            (
                "node_crashes",
                self.last_stats.node_crashes,
                stats.node_crashes,
            ),
            (
                "uplinks_degraded",
                self.last_stats.uplinks_degraded,
                stats.uplinks_degraded,
            ),
        ] {
            assert!(
                after >= before,
                "{}: fault counter {name} decreased ({before} -> {after}) after {hook}",
                self.inner.name()
            );
        }
        self.last_stats = stats;

        for &id in &self.lost_forever {
            assert!(
                !ctx.cc_collection().contains(id),
                "{}: photo {id:?} was wiped by a crash before reaching anyone, \
                 yet the command center holds it after {hook}",
                self.inner.name()
            );
        }
    }
}

impl<S: Scheme> Scheme for Checked<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn respects_storage(&self) -> bool {
        self.inner.respects_storage()
    }

    fn on_init(&mut self, ctx: &mut SimCtx) {
        self.inner.on_init(ctx);
        self.verify(ctx, "on_init");
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        self.inner.on_photo_generated(ctx, node, photo);
        self.verify(ctx, "on_photo_generated");
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64) {
        self.inner.on_contact(ctx, a, b, budget);
        self.verify(ctx, "on_contact");
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, budget: u64) {
        self.inner.on_upload(ctx, node, budget);
        self.verify(ctx, "on_upload");
    }

    fn on_node_crashed(&mut self, ctx: &mut SimCtx, node: NodeId) {
        // The buffer is still intact here (the engine wipes it right
        // after this hook): record which photos exist *only* on the
        // crashing node — if any of them ever shows up at the command
        // center, someone resurrected destroyed data.
        for id in ctx.collection(node).ids() {
            let replicated_elsewhere = ctx.cc_collection().contains(id)
                || (0..ctx.num_nodes())
                    .map(NodeId)
                    .any(|n| n != node && ctx.collection(n).contains(id));
            if !replicated_elsewhere {
                self.lost_forever.insert(id);
            }
        }
        self.inner.on_node_crashed(ctx, node);
        self.verify(ctx, "on_node_crashed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes_api::FloodScheme;
    use crate::{SimConfig, Simulation};
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};

    #[test]
    fn checked_flood_runs_clean() {
        let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(10)
            .with_duration_hours(20.0)
            .generate(1);
        let config = SimConfig::mit_default().with_photos_per_hour(20.0);
        let mut checked = Checked::new(FloodScheme);
        let result = Simulation::new(&config, &trace, 1).run(&mut checked);
        assert!(result.final_sample().delivered_photos > 0);
        let _ = checked.into_inner();
    }

    #[test]
    #[should_panic(expected = "holds")]
    fn checked_catches_storage_violation() {
        /// A buggy scheme that hoards without evicting.
        struct Hoarder;
        impl Scheme for Hoarder {
            fn name(&self) -> &'static str {
                "hoarder"
            }
            fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
                // Bypasses the link, which would refuse: never evicts.
                ctx.collections[node.index()].insert(photo);
            }
            fn on_contact(&mut self, _: &mut SimCtx, _: NodeId, _: NodeId, _: u64) {}
            fn on_upload(&mut self, _: &mut SimCtx, _: NodeId, _: u64) {}
        }
        let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(6)
            .with_duration_hours(40.0)
            .generate(1);
        // storage of 2 photos overflows quickly at 40 photos/h
        let config = SimConfig::mit_default()
            .with_photos_per_hour(40.0)
            .with_storage_bytes(2 * 4 * 1024 * 1024);
        let _ = Simulation::new(&config, &trace, 1).run(&mut Checked::new(Hoarder));
    }
}
