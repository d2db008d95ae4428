//! The storage and transfer rules several schemes share. Photos move only
//! through [`SimCtx::send`], [`SimCtx::upload`] and [`SimCtx::evict`];
//! these helpers decide which photos, and in what order.

use photodtn_contacts::NodeId;
use photodtn_coverage::PhotoId;
use photodtn_sim::{Refusal, SimCtx};

/// Evicts `pick`'s victims from `node` until `size` more bytes fit there;
/// `pick` returning `None` gives up. Returns whether the bytes fit.
pub(crate) fn make_room(
    ctx: &mut SimCtx,
    node: NodeId,
    size: u64,
    mut pick: impl FnMut(&SimCtx) -> Option<PhotoId>,
) -> bool {
    while !ctx.has_room(node, size) {
        let Some(victim) = pick(ctx) else {
            return false;
        };
        ctx.evict(node, victim);
    }
    true
}

/// FIFO eviction: drops `node`'s oldest photos (smallest id) until `size`
/// more bytes fit, telling `on_evict` about each. Returns whether they fit.
pub(crate) fn evict_oldest(
    ctx: &mut SimCtx,
    node: NodeId,
    size: u64,
    mut on_evict: impl FnMut(PhotoId),
) -> bool {
    make_room(ctx, node, size, |ctx| {
        let oldest = ctx.collection(node).ids().next()?;
        on_evict(oldest);
        Some(oldest)
    })
}

/// Budgeted relay: for each `(src, dst)` in turn, sends every photo `src`
/// holds and `dst` lacks, in id order. A full receiver is skipped; the
/// relay ends as soon as the link's bytes run short.
pub(crate) fn relay_missing(
    ctx: &mut SimCtx,
    directions: impl IntoIterator<Item = (NodeId, NodeId)>,
) {
    for (src, dst) in directions {
        // Both collections iterate in id order, so one merge walk finds
        // the missing photos without a lookup per photo.
        let missing: Vec<PhotoId> = {
            let mut held = ctx.collection(dst).ids().peekable();
            ctx.collection(src)
                .ids()
                .filter(|id| {
                    while held.next_if(|h| h < id).is_some() {}
                    held.peek() != Some(id)
                })
                .collect()
        };
        for id in missing {
            if ctx.send(src, dst, id) == Err(Refusal::NoBudget) {
                return;
            }
        }
    }
}

/// Ordered upload: uploads `order` from `node` until a photo no longer
/// fits the window's bytes, dropping each acknowledged photo from `node`
/// and telling `on_ack` about it.
pub(crate) fn upload_in_order(
    ctx: &mut SimCtx,
    node: NodeId,
    order: impl IntoIterator<Item = PhotoId>,
    mut on_ack: impl FnMut(PhotoId),
) {
    for id in order {
        let Ok(outcome) = ctx.upload(node, id) else {
            break;
        };
        if outcome.acked() {
            ctx.evict(node, id);
            on_ack(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::PhotoValueCache;
    use photodtn_contacts::{ContactEvent, ContactTrace};
    use photodtn_coverage::{Photo, PhotoMeta};
    use photodtn_geo::{Angle, Point};
    use photodtn_sim::{Scheme, SimConfig, Simulation};

    /// A 1-byte photo aimed at the PoI at `covering`, or at no PoI.
    fn shot(id: u64, covering: Option<Point>) -> Photo {
        let meta = match covering {
            Some(target) => {
                let dir = Angle::from_degrees(45.0);
                PhotoMeta::new(
                    target.offset(dir, 50.0),
                    100.0,
                    Angle::from_degrees(60.0),
                    dir + Angle::PI,
                )
            }
            None => PhotoMeta::new(
                Point::new(-9000.0, -9000.0),
                50.0,
                Angle::from_degrees(40.0),
                Angle::ZERO,
            ),
        };
        Photo::new(id, meta, 0.0).with_size(1)
    }

    /// Applies one eviction rule at every generation on a 2-photo node
    /// and records what it said and what the node held afterwards.
    struct Rule {
        least_value: bool,
        values: PhotoValueCache,
        log: Vec<(bool, Vec<u64>)>,
    }

    impl Scheme for Rule {
        fn name(&self) -> &'static str {
            "rule"
        }
        fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
            let fits = if self.least_value {
                self.values.evict_below(ctx, node, &photo, |_| {})
            } else {
                evict_oldest(ctx, node, photo.size, |_| {})
            };
            let held = ctx.collection(node).ids().map(|id| id.0).collect();
            self.log.push((fits, held));
        }
        fn on_contact(&mut self, _: &mut SimCtx, _: NodeId, _: NodeId, _: u64) {}
        fn on_upload(&mut self, _: &mut SimCtx, _: NodeId, _: u64) {}
    }

    /// Generates `photos` in order at node 0 under a rule; the closure
    /// receives the world's first PoI so callers can aim photos at it.
    fn run(least_value: bool, photos: impl Fn(Point) -> Vec<Photo>) -> Vec<(bool, Vec<u64>)> {
        let trace = ContactTrace::new(
            2,
            vec![ContactEvent::new(NodeId(0), NodeId(1), 100.0, 200.0)],
        );
        let config = SimConfig::mit_default()
            .with_photos_per_hour(0.0)
            .with_storage_bytes(2);
        let sim = Simulation::new(&config, &trace, 1);
        let poi = sim.pois().iter().next().expect("a PoI").location;
        let seeds: Vec<(NodeId, Photo)> = photos(poi).into_iter().map(|p| (NodeId(0), p)).collect();
        let mut rule = Rule {
            least_value,
            values: PhotoValueCache::default(),
            log: Vec::new(),
        };
        sim.with_seeded_photos(seeds, 0.0).run(&mut rule);
        rule.log
    }

    #[test]
    fn room_available_evicts_nothing() {
        for least_value in [false, true] {
            let log = run(least_value, |_| vec![shot(1, None), shot(2, None)]);
            assert_eq!(log[1], (true, vec![1]), "least value: {least_value}");
        }
    }

    #[test]
    fn fifo_evicts_smallest_id() {
        let log = run(false, |poi| {
            vec![shot(1, Some(poi)), shot(2, None), shot(3, None)]
        });
        assert_eq!(log[2], (true, vec![2]));
    }

    #[test]
    fn oversized_photo_is_never_stored() {
        let log = run(false, |_| vec![shot(1, None), shot(9, None).with_size(10)]);
        assert!(!log[1].0);
    }

    /// Relays at the one contact and records both nodes' photos after.
    struct Relay(Vec<Vec<u64>>);

    impl Scheme for Relay {
        fn name(&self) -> &'static str {
            "relay"
        }
        fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, _: u64) {
            relay_missing(ctx, [(a, b), (b, a)]);
            self.0 = [a, b]
                .map(|n| ctx.collection(n).ids().map(|id| id.0).collect())
                .to_vec();
        }
        fn on_upload(&mut self, _: &mut SimCtx, _: NodeId, _: u64) {}
    }

    #[test]
    fn relay_copies_exactly_the_missing_photos() {
        let trace = ContactTrace::new(
            2,
            vec![ContactEvent::new(NodeId(0), NodeId(1), 100.0, 200.0)],
        );
        let config = SimConfig::mit_default().with_photos_per_hour(0.0);
        let seeds = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 5),
            (1, 2),
            (1, 4),
            (1, 5),
            (1, 6),
        ]
        .map(|(node, id)| (NodeId(node), shot(id, None)));
        let mut relay = Relay(Vec::new());
        Simulation::new(&config, &trace, 1)
            .with_seeded_photos(seeds, 0.0)
            .run(&mut relay);
        let all: Vec<u64> = (1..=6).collect();
        assert_eq!(relay.0, vec![all.clone(), all]);
    }

    #[test]
    fn least_value_protects_covering_photos() {
        // A covering photo displaces junk ...
        let log = run(true, |poi| {
            vec![shot(1, None), shot(2, Some(poi)), shot(3, Some(poi))]
        });
        assert_eq!(log[2], (true, vec![2]));
        // ... junk cannot displace covering photos ...
        let log = run(true, |poi| {
            vec![shot(1, Some(poi)), shot(2, Some(poi)), shot(3, None)]
        });
        assert_eq!(log[2], (false, vec![1, 2]));
        // ... and between equals the smaller id goes first.
        let log = run(true, |_| vec![shot(1, None), shot(2, None), shot(3, None)]);
        assert_eq!(log[2], (true, vec![2]));
    }
}
