//! Unit tests for [`SimCtx`](crate::SimCtx), constructed through a
//! minimal simulation world.

use photodtn_contacts::{ContactEvent, ContactTrace, NodeId};
use photodtn_coverage::{Photo, PhotoId, PhotoMeta};
use photodtn_geo::{Angle, Point};

use crate::schemes_api::FloodScheme;
use crate::Refusal::{self, AlreadyHeld, NoBudget, NoRoom, NotHeld, OffLink};
use crate::{CommandCenterMode, FaultConfig, Scheme, SimConfig, SimCtx, Simulation};

fn photo(id: u64, taken_at: f64) -> Photo {
    let meta = PhotoMeta::new(
        Point::new(0.0, 0.0),
        100.0,
        Angle::from_degrees(45.0),
        Angle::ZERO,
    );
    Photo::new(id, meta, taken_at).with_size(1)
}

/// A probe scheme that runs assertions against the live context.
struct Probe {
    checked: bool,
}

impl Scheme for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, _b: NodeId, _budget: u64) {
        if self.checked {
            return; // run the one-shot assertions only once
        }
        self.checked = true;

        // delivery dedupes and tracks latency
        let before = ctx.cc_collection().len();
        assert!(ctx.deliver(photo(999, ctx.now() - 7200.0)));
        assert!(!ctx.deliver(photo(999, 0.0)));
        assert_eq!(ctx.cc_collection().len(), before + 1);
        assert!(ctx.mean_delivery_latency() > 0.0);

        // probabilities are probabilities; cc id is outside participants
        let p = ctx.delivery_prob(a);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(ctx.command_center_id().0, ctx.num_nodes());

        // gateway bookkeeping is consistent
        for gw in ctx.gateways().to_vec() {
            assert!(ctx.is_gateway(gw));
        }

        // the deterministic rng is usable
        let _: u32 = rand::Rng::gen_range(ctx.rng(), 0..10);
    }
    fn on_upload(&mut self, _ctx: &mut SimCtx, _node: NodeId, _budget: u64) {}
}

fn tiny_world() -> (SimConfig, ContactTrace) {
    let trace = ContactTrace::new(
        3,
        vec![
            ContactEvent::new(NodeId(0), NodeId(1), 100.0, 200.0),
            ContactEvent::new(NodeId(1), NodeId(2), 300.0, 400.0),
        ],
    );
    let config = SimConfig::mit_default().with_photos_per_hour(0.0);
    (config, trace)
}

#[test]
fn probe_assertions_run() {
    let (config, trace) = tiny_world();
    let mut probe = Probe { checked: false };
    let _ = Simulation::new(&config, &trace, 1).run(&mut probe);
    assert!(probe.checked, "probe never saw a contact");
}

/// One move a hook attempts over its link.
#[derive(Clone, Copy, Debug)]
enum Move {
    Send(u32, u32, u64),
    Upload(u32, u64),
    Evict(u32, u64),
}

/// What the link must answer to a move, for a constrained scheme and for
/// one that opts out of the resource limits.
type Row = (Move, Result<(), Refusal>, Result<(), Refusal>);

/// During generation at node 1 (node 0 already holds photos 1–3).
const GENERATE: &[Row] = &[
    (Move::Send(0, 1, 1), Err(OffLink), Err(OffLink)),
    (Move::Upload(0, 1), Err(OffLink), Err(OffLink)),
    (Move::Evict(0, 1), Err(OffLink), Err(OffLink)),
];

/// During the 15-byte contact between node 0 (photos 1, 2, 3) and node 1
/// (photos 1, 10, 11): both are full at 30 bytes of 10-byte photos.
const CONTACT: &[Row] = &[
    (Move::Send(0, 2, 2), Err(OffLink), Err(OffLink)),
    (Move::Send(1, 1, 10), Err(OffLink), Err(OffLink)),
    (Move::Upload(0, 2), Err(OffLink), Err(OffLink)),
    (Move::Evict(2, 1), Err(OffLink), Err(OffLink)),
    (Move::Send(0, 1, 99), Err(NotHeld), Err(NotHeld)),
    (Move::Send(0, 1, 1), Err(AlreadyHeld), Err(AlreadyHeld)),
    (Move::Send(0, 1, 2), Err(NoRoom), Ok(())),
    (Move::Evict(1, 10), Ok(()), Ok(())),
    (Move::Send(0, 1, 2), Ok(()), Ok(())),
    (Move::Send(0, 1, 3), Err(NoBudget), Ok(())),
];

/// During node 0's 15-byte uplink window.
const UPLOAD: &[Row] = &[
    (Move::Upload(1, 11), Err(OffLink), Err(OffLink)),
    (Move::Send(0, 1, 2), Err(OffLink), Err(OffLink)),
    (Move::Upload(0, 99), Err(NotHeld), Err(NotHeld)),
    (Move::Upload(0, 2), Ok(()), Ok(())),
    (Move::Upload(0, 3), Err(NoBudget), Ok(())),
];

/// Plays the link-contract table from inside the hooks.
struct Contract {
    constrained: bool,
    rows_played: usize,
}

impl Contract {
    fn play(&mut self, ctx: &mut SimCtx, rows: &[Row]) {
        for &(mv, constrained, unconstrained) in rows {
            let expected = if self.constrained {
                constrained
            } else {
                unconstrained
            };
            let stats = *ctx.faults().stats();
            let (left, uploaded) = (ctx.bytes_left(), ctx.uploaded_bytes());
            let held: Vec<Vec<PhotoId>> = (0..ctx.num_nodes())
                .map(|n| ctx.collection(NodeId(n)).ids().collect())
                .collect();
            let got = match mv {
                Move::Send(src, dst, id) => {
                    ctx.send(NodeId(src), NodeId(dst), PhotoId(id)).map(drop)
                }
                Move::Upload(node, id) => ctx.upload(NodeId(node), PhotoId(id)).map(drop),
                Move::Evict(node, id) => {
                    if ctx.evict(NodeId(node), PhotoId(id)) {
                        Ok(())
                    } else {
                        Err(OffLink)
                    }
                }
            };
            assert_eq!(got, expected, "{mv:?} (constrained: {})", self.constrained);
            self.rows_played += 1;
            let charged = match (mv, got) {
                (Move::Send(..) | Move::Upload(..), Ok(())) => 10,
                _ => 0,
            };
            // Every transmission is lost (loss probability 1), so a roll
            // shows up as one more lost transfer and never as a stored
            // copy; only an evict changes a collection.
            assert_eq!(ctx.bytes_left(), left - charged, "{mv:?}");
            assert_eq!(
                ctx.faults().stats().transfers_lost,
                stats.transfers_lost + u64::from(charged > 0),
                "{mv:?}"
            );
            let upload_charge = if matches!(mv, Move::Upload(..)) {
                charged
            } else {
                0
            };
            assert_eq!(ctx.uploaded_bytes(), uploaded + upload_charge, "{mv:?}");
            for (n, before) in held.iter().enumerate() {
                let mut now: Vec<PhotoId> = ctx.collection(NodeId(n as u32)).ids().collect();
                if let (Move::Evict(node, id), Ok(())) = (mv, got) {
                    if node as usize == n {
                        now.push(PhotoId(id));
                        now.sort();
                    }
                }
                assert_eq!(&now, before, "{mv:?} changed node {n}");
            }
        }
    }
}

impl Scheme for Contract {
    fn name(&self) -> &'static str {
        "contract"
    }
    fn respects_storage(&self) -> bool {
        self.constrained
    }
    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, _photo: Photo) {
        if node == NodeId(1) && ctx.collection(node).is_empty() {
            self.play(ctx, GENERATE);
        }
    }
    fn on_contact(&mut self, ctx: &mut SimCtx, _a: NodeId, _b: NodeId, budget: u64) {
        assert_eq!(budget, 15);
        self.play(ctx, CONTACT);
    }
    fn on_upload(&mut self, ctx: &mut SimCtx, _node: NodeId, budget: u64) {
        assert_eq!(budget, 15);
        self.play(ctx, UPLOAD);
    }
}

/// The link contract: every move past a budget, off the link, of a photo
/// the sender lacks, or into a full receiver is refused, charging no
/// bytes, rolling no fault and changing no collection. A scheme that opts
/// out of the resource limits is refused only the moves that make no
/// sense without them.
#[test]
fn link_refuses_without_side_effects() {
    let trace = ContactTrace::new(
        3,
        vec![
            ContactEvent::new(NodeId(0), NodeId(1), 100.0, 115.0),
            ContactEvent::new(NodeId(0), NodeId(2), 200.0, 215.0),
        ],
    );
    let mut config = SimConfig::mit_default()
        .with_photos_per_hour(0.0)
        .with_storage_bytes(30)
        .with_command_center(CommandCenterMode::TraceNode(NodeId(2)))
        .with_faults(FaultConfig::default().with_transfer_loss_prob(1.0));
    config.bandwidth = 1;
    let seeds = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 10), (1, 11)]
        .map(|(node, id)| (NodeId(node), photo(id, 0.0).with_size(10)));
    for constrained in [true, false] {
        let mut contract = Contract {
            constrained,
            rows_played: 0,
        };
        let result = Simulation::new(&config, &trace, 1)
            .with_seeded_photos(seeds, 0.0)
            .run(&mut contract);
        assert_eq!(
            contract.rows_played,
            GENERATE.len() + CONTACT.len() + UPLOAD.len()
        );
        assert_eq!(result.final_sample().delivered_photos, 0);
    }
}

#[test]
fn coverage_accessors_track_deliveries() {
    struct Deliverer;
    impl Scheme for Deliverer {
        fn name(&self) -> &'static str {
            "deliverer"
        }
        fn on_contact(&mut self, ctx: &mut SimCtx, _: NodeId, _: NodeId, _: u64) {
            // a photo pointed at some PoI, if any exists near the origin
            let poi = ctx.pois().iter().next().map(|p| p.location);
            if let Some(target) = poi {
                let dir = Angle::from_degrees(45.0);
                let meta = PhotoMeta::new(
                    target.offset(dir, 50.0),
                    100.0,
                    Angle::from_degrees(60.0),
                    dir + Angle::PI,
                );
                ctx.deliver(Photo::new(1, meta, 0.0));
            }
        }
        fn on_upload(&mut self, _: &mut SimCtx, _: NodeId, _: u64) {}
    }
    let (config, trace) = tiny_world();
    let (result, delivered) = Simulation::new(&config, &trace, 1).run_detailed(&mut Deliverer);
    assert_eq!(delivered.len(), 1);
    assert!(result.final_sample().point_coverage > 0.0);
    assert!(result.final_sample().aspect_coverage_deg > 0.0);
}

#[test]
fn flood_latency_metric_positive() {
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_num_nodes(10)
        .with_duration_hours(20.0)
        .generate(1);
    let config = SimConfig::mit_default().with_photos_per_hour(20.0);
    let result = Simulation::new(&config, &trace, 1).run(&mut FloodScheme);
    let f = result.final_sample();
    assert!(f.delivered_photos > 0);
    assert!(
        f.mean_latency_hours > 0.0,
        "delivered photos must have positive latency"
    );
    assert!(f.mean_latency_hours < 20.0);
}
