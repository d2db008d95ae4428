use std::collections::HashMap;

use photodtn_contacts::NodeId;
use photodtn_core::transmission::TransferFate;
use photodtn_coverage::{Photo, PhotoId};
use photodtn_sim::{Refusal, Scheme, SimCtx};

use crate::rules::{evict_oldest, upload_in_order};
use crate::value::PhotoValueCache;

/// Number of copies each new photo is allowed (§V-B: "binary spray and
/// wait protocol with four allowed copies").
pub const SPRAY_COPIES: u32 = 4;

/// Logical copies held by a spray scheme: `(node, photo) → copies`.
type Copies = HashMap<(u32, u64), u32>;

fn copies_of(copies: &Copies, node: NodeId, photo: PhotoId) -> u32 {
    copies.get(&(node.0, photo.0)).copied().unwrap_or(0)
}

/// Binary spray: `src` hands half its copies of `photo` to `dst`, which
/// just received it.
fn hand_over(copies: &mut Copies, src: NodeId, dst: NodeId, photo: PhotoId) {
    let c = copies_of(copies, src, photo);
    let give = c / 2;
    copies.insert((dst.0, photo.0), give);
    copies.insert((src.0, photo.0), c - give);
}

/// Binary Spray&Wait (Spyropoulos et al.) — the content-oblivious DTN
/// routing baseline.
///
/// Each photo starts with [`SPRAY_COPIES`] (4) logical copies at its
/// source.
/// In the *spray* phase, a node holding `c > 1` copies hands `⌊c/2⌋` to a
/// peer that lacks the photo; with `c = 1` the node *waits* and delivers
/// only directly to the command center. Photos are transmitted in photo-id
/// (i.e. creation) order. Buffers are FIFO at photo generation and
/// drop-tail on reception.
#[derive(Debug, Default)]
pub struct SprayAndWait {
    copies: Copies,
}

impl SprayAndWait {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        SprayAndWait::default()
    }
}

impl Scheme for SprayAndWait {
    fn name(&self) -> &'static str {
        "spray-wait"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        let copies = &mut self.copies;
        if evict_oldest(ctx, node, photo.size, |id| {
            copies.remove(&(node.0, id.0));
        }) {
            copies.insert((node.0, photo.id.0), SPRAY_COPIES);
        }
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, _budget: u64) {
        // Spray in both directions, photo-id order, while budget lasts; a
        // full receiver refuses the photo.
        for (src, dst) in [(a, b), (b, a)] {
            let sprayable: Vec<PhotoId> = ctx
                .collection(src)
                .ids()
                .filter(|&id| copies_of(&self.copies, src, id) > 1)
                .filter(|&id| !ctx.collection(dst).contains(id))
                .collect();
            for id in sprayable {
                // The handoff consumes budget even if the link eats it;
                // a failed handoff moves no copies.
                match ctx.send(src, dst, id) {
                    Err(Refusal::NoBudget) => break,
                    Ok(fate) if fate.arrived() => hand_over(&mut self.copies, src, dst, id),
                    _ => {}
                }
            }
        }
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, _budget: u64) {
        let photos: Vec<PhotoId> = ctx.collection(node).ids().collect();
        upload_in_order(ctx, node, photos, |id| {
            self.copies.remove(&(node.0, id.0));
        });
    }

    fn on_node_crashed(&mut self, _ctx: &mut SimCtx, node: NodeId) {
        // Copy counters live on the node; the wipe takes them too.
        self.copies.retain(|&(n, _), _| n != node.0);
    }

    fn export_global_state(&self) -> Option<String> {
        export_spray_copies(&self.copies)
    }

    fn import_global_state(&mut self, state: &str) -> Result<(), String> {
        self.copies = import_spray_copies(state)?;
        Ok(())
    }
}

/// The serialized copy-counter table of a spray scheme: `(node, photo,
/// copies)` triples, sorted so equal tables encode to identical bytes.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SprayGlobalState {
    copies: Vec<(u32, u64, u32)>,
}

fn export_spray_copies(copies: &Copies) -> Option<String> {
    let mut flat: Vec<(u32, u64, u32)> = copies
        .iter()
        .map(|(&(node, photo), &c)| (node, photo, c))
        .collect();
    flat.sort_unstable();
    serde_json::to_string(&SprayGlobalState { copies: flat }).ok()
}

fn import_spray_copies(state: &str) -> Result<Copies, String> {
    let state: SprayGlobalState = serde_json::from_str(state).map_err(|e| e.to_string())?;
    Ok(state
        .copies
        .into_iter()
        .map(|(node, photo, c)| ((node, photo), c))
        .collect())
}

/// Spray&Wait with coverage-aware prioritization (§V-B *ModifiedSpray*):
/// photos are transmitted highest-individual-coverage first, and when a
/// receiver's storage is full it evicts the photo with the least
/// individual coverage.
///
/// This represents classic utility-driven DTN routing: utility is
/// per-photo, so redundancy between photos is ignored — the property our
/// scheme exploits to beat it.
#[derive(Debug, Default)]
pub struct ModifiedSpray {
    copies: Copies,
    values: PhotoValueCache,
}

impl ModifiedSpray {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        ModifiedSpray::default()
    }

    /// Least-value eviction on `node` for `photo`, dropping every
    /// victim's copy counter. Returns whether `photo` then fits.
    fn make_room(&mut self, ctx: &mut SimCtx, node: NodeId, photo: &Photo) -> bool {
        let copies = &mut self.copies;
        self.values.evict_below(ctx, node, photo, |id| {
            copies.remove(&(node.0, id.0));
        })
    }
}

/// `node`'s photos that pass `keep`, highest individual coverage first
/// (ties by id): ModifiedSpray's transmission order.
fn by_value(
    values: &mut PhotoValueCache,
    ctx: &SimCtx,
    node: NodeId,
    keep: impl Fn(&Photo) -> bool,
) -> Vec<Photo> {
    let (pois, params) = (ctx.pois(), ctx.coverage_params());
    let mut ranked: Vec<((i64, i64), Photo)> = ctx
        .collection(node)
        .iter()
        .filter(|p| keep(p))
        .map(|p| (values.value(p, pois, params), *p))
        .collect();
    ranked.sort_by(|(va, pa), (vb, pb)| vb.cmp(va).then(pa.id.cmp(&pb.id)));
    ranked.into_iter().map(|(_, p)| p).collect()
}

impl Scheme for ModifiedSpray {
    fn name(&self) -> &'static str {
        "modified-spray"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        if self.make_room(ctx, node, &photo) {
            self.copies.insert((node.0, photo.id.0), SPRAY_COPIES);
        }
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, _budget: u64) {
        for (src, dst) in [(a, b), (b, a)] {
            let sprayable = by_value(&mut self.values, ctx, src, |p| {
                copies_of(&self.copies, src, p.id) > 1 && !ctx.collection(dst).contains(p.id)
            });
            for photo in sprayable {
                if photo.size > ctx.bytes_left() {
                    break;
                }
                if !self.make_room(ctx, dst, &photo) {
                    continue;
                }
                if ctx
                    .send(src, dst, photo.id)
                    .is_ok_and(TransferFate::arrived)
                {
                    hand_over(&mut self.copies, src, dst, photo.id);
                }
            }
        }
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, _budget: u64) {
        let photos = by_value(&mut self.values, ctx, node, |_| true);
        upload_in_order(ctx, node, photos.iter().map(|p| p.id), |id| {
            self.copies.remove(&(node.0, id.0));
        });
    }

    fn on_node_crashed(&mut self, _ctx: &mut SimCtx, node: NodeId) {
        self.copies.retain(|&(n, _), _| n != node.0);
    }

    fn export_global_state(&self) -> Option<String> {
        export_spray_copies(&self.copies)
    }

    fn import_global_state(&mut self, state: &str) -> Result<(), String> {
        self.copies = import_spray_copies(state)?;
        self.values = PhotoValueCache::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    use photodtn_sim::{SimConfig, Simulation};

    fn trace() -> photodtn_contacts::ContactTrace {
        CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(15)
            .with_duration_hours(40.0)
            .generate(3)
    }

    fn config() -> SimConfig {
        SimConfig::mit_default().with_photos_per_hour(30.0)
    }

    #[test]
    fn spray_wait_runs_and_delivers() {
        let result = Simulation::new(&config(), &trace(), 1).run(&mut SprayAndWait::new());
        assert_eq!(result.scheme, "spray-wait");
        assert!(result.final_sample().delivered_photos > 0);
    }

    #[test]
    fn modified_spray_runs_and_delivers() {
        let result = Simulation::new(&config(), &trace(), 1).run(&mut ModifiedSpray::new());
        assert_eq!(result.scheme, "modified-spray");
        assert!(result.final_sample().delivered_photos > 0);
    }

    #[test]
    fn both_deterministic() {
        let r1 = Simulation::new(&config(), &trace(), 2).run(&mut SprayAndWait::new());
        let r2 = Simulation::new(&config(), &trace(), 2).run(&mut SprayAndWait::new());
        assert_eq!(r1, r2);
        let m1 = Simulation::new(&config(), &trace(), 2).run(&mut ModifiedSpray::new());
        let m2 = Simulation::new(&config(), &trace(), 2).run(&mut ModifiedSpray::new());
        assert_eq!(m1, m2);
    }

    #[test]
    fn modified_spray_beats_plain_on_coverage() {
        // Coverage-aware prioritization must not hurt: over a real
        // scenario ModifiedSpray ≥ Spray&Wait in point coverage (the
        // paper's Fig. 5 ordering).
        let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(20)
            .with_duration_hours(60.0)
            .generate(7);
        let config = config().with_storage_bytes(40 * 1024 * 1024); // tight: 10 photos
        let plain = Simulation::new(&config, &trace, 3).run(&mut SprayAndWait::new());
        let modified = Simulation::new(&config, &trace, 3).run(&mut ModifiedSpray::new());
        assert!(
            modified.final_sample().point_coverage >= plain.final_sample().point_coverage,
            "modified {} < plain {}",
            modified.final_sample().point_coverage,
            plain.final_sample().point_coverage
        );
    }

    #[test]
    fn spray_respects_copy_limit() {
        // With L = 4 copies, a photo can live on at most 4 nodes at once
        // (before any delivery). Verify via internal copy accounting.
        let mut s = SprayAndWait::new();
        s.copies.insert((0, 1), 4);
        assert_eq!(copies_of(&s.copies, NodeId(0), PhotoId(1)), 4);
        assert_eq!(copies_of(&s.copies, NodeId(1), PhotoId(1)), 0);
        hand_over(&mut s.copies, NodeId(0), NodeId(1), PhotoId(1));
        assert_eq!(copies_of(&s.copies, NodeId(0), PhotoId(1)), 2);
        assert_eq!(copies_of(&s.copies, NodeId(1), PhotoId(1)), 2);
    }
}
