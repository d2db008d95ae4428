//! Robustness under adverse conditions: every scheme runs inside the
//! [`Checked`](photodtn::sim::Checked) invariant wrapper while nodes fail
//! mid-run and the crowdsourcing deadline cuts the event short.

use photodtn::contacts::synth::{CommunityTraceGenerator, TraceStyle};
use photodtn::schemes::{
    BestPossible, CentralizedOracle, DirectDelivery, Epidemic, ModifiedSpray, OurScheme, PhotoNet,
    ProphetRouting, SprayAndWait,
};
use photodtn::sim::{Checked, Scheme, SimConfig, Simulation};

fn trace() -> photodtn::contacts::ContactTrace {
    CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_num_nodes(14)
        .with_duration_hours(30.0)
        .generate(21)
}

#[test]
fn every_scheme_survives_churn_under_invariant_checks() {
    let config = SimConfig::mit_default()
        .with_photos_per_hour(40.0)
        .with_failure_fraction(0.3)
        .with_deadline_hours(24.0);
    let trace = trace();
    let mut schemes: Vec<Box<dyn Scheme>> = vec![
        Box::new(Checked::new(BestPossible)),
        Box::new(Checked::new(OurScheme::new())),
        Box::new(Checked::new(OurScheme::no_metadata())),
        Box::new(Checked::new(ModifiedSpray::new())),
        Box::new(Checked::new(SprayAndWait::new())),
        Box::new(Checked::new(PhotoNet::new())),
        Box::new(Checked::new(Epidemic::new())),
        Box::new(Checked::new(DirectDelivery::new())),
        Box::new(Checked::new(CentralizedOracle::new())),
        Box::new(Checked::new(ProphetRouting::new())),
    ];
    for scheme in &mut schemes {
        let result = Simulation::new(&config, &trace, 4).run(scheme.as_mut());
        assert!(
            result.final_sample().t_hours <= 24.0 + 1e-9,
            "{}",
            result.scheme
        );
        // the world is dense enough that even with 30 % churn something
        // gets through for every replicating scheme
        if result.scheme != "direct" {
            assert!(
                result.final_sample().delivered_photos > 0,
                "{} delivered nothing under churn",
                result.scheme
            );
        }
    }
}

#[test]
fn churn_degrades_ours_gracefully() {
    let trace = trace();
    let healthy = SimConfig::mit_default().with_photos_per_hour(40.0);
    let coverage_at = |failures: f64| {
        let config = healthy.clone().with_failure_fraction(failures);
        Simulation::new(&config, &trace, 9)
            .run(&mut Checked::new(OurScheme::new()))
            .final_sample()
            .point_coverage
    };
    let none = coverage_at(0.0);
    let some = coverage_at(0.3);
    let most = coverage_at(0.8);
    assert!(
        none >= some - 0.02,
        "30% churn should not beat a healthy network"
    );
    assert!(some >= most - 0.02, "80% churn should not beat 30%");
    assert!(none > 0.0);
}

#[test]
fn deadline_monotone_in_time() {
    let trace = trace();
    let config = SimConfig::mit_default().with_photos_per_hour(40.0);
    let coverage_at = |deadline: f64| {
        Simulation::new(&config.clone().with_deadline_hours(deadline), &trace, 5)
            .run(&mut OurScheme::new())
            .final_sample()
            .point_coverage
    };
    let early = coverage_at(8.0);
    let late = coverage_at(24.0);
    assert!(
        late >= early - 1e-9,
        "more time cannot reduce coverage: {early} vs {late}"
    );
}
