//! Chaos harness: every concrete scheme, run under [`Checked`] across a
//! grid of fault intensities and seeds.
//!
//! The point is not the coverage numbers — it is that **no** combination
//! of contact interruption, transfer loss/corruption, node churn and
//! degraded uplinks can make any scheme violate a simulator invariant
//! (storage bounds, monotone delivery, no resurrection of wiped photos,
//! monotone fault counters). `Checked` turns each violation into a panic
//! at the offending event, so a green run is the proof.
//!
//! Run in CI with debug assertions enabled:
//! `RUSTFLAGS="-C debug-assertions" cargo test --release -p photodtn-sim --test chaos`

use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
use photodtn_contacts::ContactTrace;
use photodtn_schemes::{
    BestPossible, CentralizedOracle, DirectDelivery, Epidemic, ModifiedSpray, OurScheme, PhotoNet,
    ProphetRouting, SprayAndWait,
};
use photodtn_sim::{Checked, FaultConfig, Scheme, SimConfig, Simulation};

/// Every concrete scheme in `photodtn-schemes`, freshly constructed.
fn lineup() -> Vec<Box<dyn Scheme + Send>> {
    vec![
        Box::new(BestPossible),
        Box::new(OurScheme::new()),
        Box::new(OurScheme::no_metadata()),
        Box::new(ModifiedSpray::new()),
        Box::new(SprayAndWait::new()),
        Box::new(PhotoNet::new()),
        Box::new(Epidemic::new()),
        Box::new(DirectDelivery::new()),
        Box::new(CentralizedOracle::new()),
        Box::new(ProphetRouting::new()),
    ]
}

fn small_trace(seed: u64) -> ContactTrace {
    // MIT-like traces are sparse: fewer than ~16 nodes or ~30 hours
    // leaves too few contacts for anything to be delivered at all.
    CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_num_nodes(16)
        .with_duration_hours(36.0)
        .generate(seed)
}

/// A world small enough that the full grid stays fast in debug builds.
/// The tight 40-photo storage cap keeps collections small (PhotoNet's
/// novelty scan is quadratic in them) and keeps every eviction path hot.
fn small_config() -> SimConfig {
    let mut config = SimConfig::mit_default()
        .with_photos_per_hour(30.0)
        .with_storage_bytes(40 * 4 * 1024 * 1024);
    config.num_pois = 60;
    config
}

/// The tentpole grid: every scheme × ≥3 intensities × ≥3 seeds, all under
/// `Checked`. Also asserts graceful degradation: injecting faults must
/// never *improve* mean coverage beyond noise, and must never crash.
#[test]
fn every_scheme_survives_the_chaos_grid() {
    const INTENSITIES: [f64; 3] = [0.0, 0.3, 0.7];
    const SEEDS: [u64; 3] = [11, 22, 33];
    let trace = small_trace(4);

    // mean final point coverage per (scheme index, intensity index)
    let mut mean_cov = vec![[0.0f64; INTENSITIES.len()]; lineup().len()];
    for (ii, &intensity) in INTENSITIES.iter().enumerate() {
        let config = small_config().with_faults(FaultConfig::chaos(intensity));
        for &seed in &SEEDS {
            for (si, scheme) in lineup().into_iter().enumerate() {
                let name = scheme.name();
                let mut checked = Checked::new(scheme);
                let result = Simulation::new(&config, &trace, seed).run(&mut checked);
                let f = result.final_sample();
                assert!(
                    (0.0..=1.0).contains(&f.point_coverage),
                    "{name} i={intensity} seed={seed}: coverage {} out of range",
                    f.point_coverage
                );
                let injected = f.contacts_interrupted
                    + f.transfers_lost
                    + f.transfers_corrupt
                    + f.node_crashes
                    + f.uplinks_degraded;
                if intensity == 0.0 {
                    assert_eq!(injected, 0, "{name} seed={seed}: faults at zero intensity");
                }
                mean_cov[si][ii] += f.point_coverage / SEEDS.len() as f64;
            }
        }
        if intensity > 0.0 {
            // At these rates the engine must actually be injecting faults
            // somewhere in the grid — a silent no-op injector would pass
            // every invariant check vacuously.
            let probe =
                Simulation::new(&config, &trace, SEEDS[0]).run(&mut Checked::new(BestPossible));
            let f = probe.final_sample();
            assert!(
                f.contacts_interrupted + f.transfers_lost + f.transfers_corrupt + f.node_crashes
                    > 0,
                "intensity {intensity} injected nothing"
            );
        }
    }

    // Graceful degradation: per scheme, heavy faults may cost coverage but
    // never gain it beyond small-world noise.
    for (si, scheme) in lineup().into_iter().enumerate() {
        let (clean, heavy) = (mean_cov[si][0], mean_cov[si][2]);
        assert!(
            heavy <= clean + 0.10,
            "{}: mean coverage rose under heavy faults ({clean:.3} -> {heavy:.3})",
            scheme.name()
        );
    }
}

/// Full-intensity chaos: every rate at its preset maximum. Nothing may
/// panic, and the invariants must still hold.
#[test]
fn maximum_intensity_is_survivable() {
    let trace = small_trace(7);
    let config = small_config().with_faults(FaultConfig::chaos(1.0));
    for scheme in [
        Box::new(BestPossible) as Box<dyn Scheme + Send>,
        Box::new(OurScheme::new()),
        Box::new(SprayAndWait::new()),
    ] {
        let name = scheme.name();
        let result = Simulation::new(&config, &trace, 1).run(&mut Checked::new(scheme));
        let f = result.final_sample();
        assert!(
            f.node_crashes > 0 && f.contacts_interrupted > 0,
            "{name}: full chaos injected too little \
             (crashes {}, interrupted {})",
            f.node_crashes,
            f.contacts_interrupted
        );
    }
}

/// §III-D prefix property at the core layer: under any byte budget, the
/// realized transfers are exactly the longest affordable *prefix* of the
/// transmission schedule — "any unfinished transmission is discarded",
/// and nothing later in the plan jumps the queue.
#[test]
fn budget_cut_realizes_exactly_a_plan_prefix() {
    use photodtn_core::selection::{SelectionResult, SelectionStats};
    use photodtn_core::transmission::{execute_plan, plan_transfers, PairLink};
    use photodtn_coverage::{Coverage, Photo, PhotoCollection, PhotoId, PhotoMeta};
    use photodtn_geo::{Angle, Point};

    let photo = |id: u64| {
        let meta = PhotoMeta::new(
            Point::new(0.0, 0.0),
            100.0,
            Angle::from_degrees(45.0),
            Angle::ZERO,
        );
        Photo::new(id, meta, 0.0).with_size(10)
    };
    let b_full: PhotoCollection = (1u64..=5).map(photo).collect();
    let selection = SelectionResult {
        a_selected: (1u64..=5).map(PhotoId).collect(),
        b_selected: Vec::new(),
        a_first: true,
        expected: Coverage::ZERO,
        stats: SelectionStats::default(),
    };
    let plan = plan_transfers(&selection, &PhotoCollection::new(), &b_full);
    assert_eq!(plan.steps.len(), 5);

    // Sweep every possible interruption point (mid-contact budget cut).
    for budget in 0u64..=55 {
        let mut a = PhotoCollection::new();
        let mut b = b_full.clone();
        let out = execute_plan(
            &plan,
            &selection,
            &mut PairLink::new(&mut a, 1000, &mut b, 1000, budget),
        );
        let prefix_len = (budget / 10).min(5) as usize;
        assert_eq!(a.len(), prefix_len, "budget {budget}");
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(
                a.contains(step.photo),
                i < prefix_len,
                "budget {budget}: plan step {i} violates the prefix property"
            );
        }
        assert_eq!(
            out.truncated,
            prefix_len < plan.steps.len(),
            "budget {budget}"
        );
    }
}

/// The same property end-to-end: with interruption-only faults every
/// contact budget is cut mid-transfer, and the planner/executor pair must
/// keep every invariant while the engine counts the interruptions.
#[test]
fn contact_interruption_end_to_end() {
    let trace = small_trace(5);
    let faulted =
        small_config().with_faults(FaultConfig::default().with_contact_interrupt_prob(1.0));
    let result = Simulation::new(&faulted, &trace, 9).run(&mut Checked::new(OurScheme::new()));
    let f = result.final_sample();
    assert!(f.contacts_interrupted > 0, "no contact was interrupted");
    assert_eq!(f.transfers_lost, 0);
    assert_eq!(f.transfers_corrupt, 0);
    assert_eq!(f.node_crashes, 0);
    assert!(
        f.delivered_photos > 0,
        "prefix realization should still deliver something"
    );
}

/// Churn-only faults: crashes wipe buffers and (with `wipe_routing_state`)
/// PROPHET tables; `Checked`'s graveyard invariant proves no wiped-only
/// photo is ever delivered afterwards.
#[test]
fn churn_wipes_buffers_without_resurrection() {
    let trace = small_trace(6);
    let config = small_config().with_faults(FaultConfig::default().with_churn(0.25, 1800.0));
    for scheme in lineup() {
        let name = scheme.name();
        let result = Simulation::new(&config, &trace, 13).run(&mut Checked::new(scheme));
        let f = result.final_sample();
        assert!(f.node_crashes > 0, "{name}: churn rate injected no crashes");
    }
}
