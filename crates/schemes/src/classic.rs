//! Two further classic DTN baselines from the routing literature the
//! paper surveys (§VI: "early works in DTN routing assume that packets
//! are equally important"). They bracket Spray&Wait: Epidemic replicates
//! maximally under the resource limits; DirectDelivery never relays.

use photodtn_contacts::NodeId;
use photodtn_coverage::{Photo, PhotoId};
use photodtn_sim::{Scheme, SimCtx};

use crate::rules::{evict_oldest, relay_missing, upload_in_order};

/// Storage- and bandwidth-constrained epidemic routing: at every contact,
/// both nodes copy everything the other lacks (photo-id order) while the
/// byte budget and the receiver's free space last; storage is FIFO.
///
/// Unlike [`BestPossible`](crate::BestPossible) this honors the resource
/// constraints, so it shows what unrestricted *replication* buys when
/// storage/bandwidth are real.
#[derive(Clone, Debug, Default)]
pub struct Epidemic;

impl Epidemic {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        Epidemic
    }
}

impl Scheme for Epidemic {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        evict_oldest(ctx, node, photo.size, |_| {});
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, _budget: u64) {
        // A full receiver is skipped: epidemic does not evict for peers.
        relay_missing(ctx, [(a, b), (b, a)]);
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, _budget: u64) {
        let photos: Vec<PhotoId> = ctx.collection(node).ids().collect();
        upload_in_order(ctx, node, photos, |_| {});
    }

    fn export_global_state(&self) -> Option<String> {
        // Stateless: the photo collections the engine checkpoints are the
        // protocol's entire state.
        Some("{}".to_string())
    }

    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}

/// Direct delivery: a photo is only ever carried by the node that took it
/// and handed over during that node's own uplink windows. The floor of
/// DTN routing — zero replication cost, minimal delivery.
#[derive(Clone, Debug, Default)]
pub struct DirectDelivery;

impl DirectDelivery {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        DirectDelivery
    }
}

impl Scheme for DirectDelivery {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        evict_oldest(ctx, node, photo.size, |_| {});
    }

    fn on_contact(&mut self, _ctx: &mut SimCtx, _a: NodeId, _b: NodeId, _budget: u64) {
        // never relays
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, _budget: u64) {
        let photos: Vec<PhotoId> = ctx.collection(node).ids().collect();
        upload_in_order(ctx, node, photos, |_| {});
    }

    fn export_global_state(&self) -> Option<String> {
        // Stateless: the photo collections the engine checkpoints are the
        // protocol's entire state.
        Some("{}".to_string())
    }

    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BestPossible, SprayAndWait};
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    use photodtn_sim::{SimConfig, Simulation};

    fn trace() -> photodtn_contacts::ContactTrace {
        CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(14)
            .with_duration_hours(36.0)
            .generate(6)
    }

    fn config() -> SimConfig {
        SimConfig::mit_default().with_photos_per_hour(40.0)
    }

    #[test]
    fn epidemic_runs_between_spray_and_best() {
        let trace = trace();
        let best = Simulation::new(&config(), &trace, 1).run(&mut BestPossible);
        let epi = Simulation::new(&config(), &trace, 1).run(&mut Epidemic::new());
        let spray = Simulation::new(&config(), &trace, 1).run(&mut SprayAndWait::new());
        let (b, e, s) = (
            best.final_sample().point_coverage,
            epi.final_sample().point_coverage,
            spray.final_sample().point_coverage,
        );
        assert!(
            e <= b + 1e-9,
            "epidemic {e} beat unconstrained flooding {b}"
        );
        assert!(e + 0.05 >= s, "epidemic {e} clearly below spray {s}");
    }

    #[test]
    fn direct_delivery_is_the_floor() {
        let trace = trace();
        let direct = Simulation::new(&config(), &trace, 1).run(&mut DirectDelivery::new());
        let epi = Simulation::new(&config(), &trace, 1).run(&mut Epidemic::new());
        assert!(
            direct.final_sample().delivered_photos <= epi.final_sample().delivered_photos,
            "direct delivered more than epidemic"
        );
        // invariants hold
        for w in direct.samples.windows(2) {
            assert!(w[1].delivered_photos >= w[0].delivered_photos);
        }
    }

    #[test]
    fn both_deterministic() {
        let trace = trace();
        let a = Simulation::new(&config(), &trace, 2).run(&mut Epidemic::new());
        let b = Simulation::new(&config(), &trace, 2).run(&mut Epidemic::new());
        assert_eq!(a, b);
        let c = Simulation::new(&config(), &trace, 2).run(&mut DirectDelivery::new());
        let d = Simulation::new(&config(), &trace, 2).run(&mut DirectDelivery::new());
        assert_eq!(c, d);
    }
}
