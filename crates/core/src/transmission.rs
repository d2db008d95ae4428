//! Executing a reallocation under bandwidth limits (§III-D, last part).
//!
//! The selection algorithm assumes the contact lasts long enough to move
//! every photo. When it may not, the two nodes transmit photos **in
//! selection order** — first everything the higher-probability node
//! selected, then the other's — so that if the contact ends early, the
//! most valuable prefix of the plan has already been realized and "any
//! unfinished transmission is discarded".
//!
//! Storage is reconciled lazily: a receiver evicts photos *outside its
//! selection* only when it actually needs the space for an incoming
//! photo. This never loses a photo the plan wanted kept somewhere: a photo
//! is evicted from a node only if the plan excluded it from that node.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use photodtn_coverage::{PhotoCollection, PhotoId};

use crate::selection::SelectionResult;

/// One planned photo transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// The photo to move.
    pub photo: PhotoId,
    /// `true` → into node `a`; `false` → into node `b`.
    pub to_a: bool,
    /// Payload size, bytes.
    pub size: u64,
}

/// The ordered transmission schedule realizing a [`SelectionResult`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferPlan {
    /// Transfers in transmission order.
    pub steps: Vec<Transfer>,
}

impl TransferPlan {
    /// Total bytes the full plan would move.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|t| t.size).sum()
    }
}

/// Fate of one in-flight photo transmission over a (possibly faulty)
/// link. The default, [`TransferFate::Intact`], is a perfect link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferFate {
    /// The photo arrived intact.
    #[default]
    Intact,
    /// The photo was lost in flight; the bytes were spent but nothing
    /// arrived.
    Lost,
    /// The photo arrived corrupted; the receiver detects this (checksum)
    /// and discards it without storing it.
    Corrupt,
}

impl TransferFate {
    /// Whether the photo arrived and was kept.
    #[must_use]
    pub fn arrived(self) -> bool {
        self == TransferFate::Intact
    }
}

/// Outcome of executing a plan under a byte budget.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ContactOutcome {
    /// Bytes actually transmitted — including bytes burned on lost or
    /// corrupt transmissions.
    pub bytes_transferred: u64,
    /// Photos transmitted *and stored* by their receiver.
    pub photos_transferred: u32,
    /// Photos evicted to make room.
    pub photos_evicted: u32,
    /// Transmissions lost in flight (bytes spent, nothing arrived).
    pub photos_lost: u32,
    /// Transmissions that arrived corrupted and were discarded.
    pub photos_corrupt: u32,
    /// Whether the budget truncated the plan.
    pub truncated: bool,
}

/// Builds the transmission schedule for a contact: photos of the first
/// selector's solution the first selector lacks, then the second's, each
/// in selection order.
#[must_use]
pub fn plan_transfers(
    result: &SelectionResult,
    a_photos: &PhotoCollection,
    b_photos: &PhotoCollection,
) -> TransferPlan {
    let (first_is_a, first_sel, second_sel) = result.phases();
    let mut steps = Vec::new();
    let mut push_phase = |selection: &[PhotoId], to_a: bool| {
        let (receiver, sender) = if to_a {
            (a_photos, b_photos)
        } else {
            (b_photos, a_photos)
        };
        for &id in selection {
            if receiver.contains(id) {
                continue;
            }
            // The pool is F_a ∪ F_b, so the other node must hold it.
            if let Some(p) = sender.get(id) {
                steps.push(Transfer {
                    photo: id,
                    to_a,
                    size: p.size,
                });
            }
        }
    };
    push_phase(first_sel, first_is_a);
    push_phase(second_sel, !first_is_a);
    TransferPlan { steps }
}

/// The two ends of a contact as [`execute_plan`] drives them: side `true`
/// is node `a`, side `false` node `b`. The link owns the byte budget,
/// the storage rule and the fate of every transmission.
pub trait ContactLink {
    /// The photos one side holds.
    fn photos(&self, a: bool) -> &PhotoCollection;
    /// Whether one side can store `size` more bytes.
    fn has_room(&self, a: bool, size: u64) -> bool;
    /// Bytes the link can still carry.
    fn bytes_left(&self) -> u64;
    /// Drops a photo from one side.
    fn evict(&mut self, a: bool, id: PhotoId);
    /// Transmits one planned photo: charges its bytes, decides its fate
    /// and stores it at the receiver if it arrived intact. `None` when the
    /// link refused it, charging nothing.
    fn transmit(&mut self, t: &Transfer) -> Option<TransferFate>;
}

/// A perfect [`ContactLink`] between two local collections with fixed
/// capacities and a byte budget: the executor on its own, without a
/// simulated world around it.
#[derive(Debug)]
pub struct PairLink<'a> {
    sides: [(&'a mut PhotoCollection, u64); 2],
    budget: u64,
}

impl<'a> PairLink<'a> {
    /// Links `a` and `b` (with their storage capacities) for `budget`
    /// bytes.
    pub fn new(
        a: &'a mut PhotoCollection,
        a_capacity: u64,
        b: &'a mut PhotoCollection,
        b_capacity: u64,
        budget: u64,
    ) -> Self {
        PairLink {
            sides: [(b, b_capacity), (a, a_capacity)],
            budget,
        }
    }
}

impl ContactLink for PairLink<'_> {
    fn photos(&self, a: bool) -> &PhotoCollection {
        self.sides[usize::from(a)].0
    }

    fn has_room(&self, a: bool, size: u64) -> bool {
        let (photos, capacity) = &self.sides[usize::from(a)];
        photos.total_size() + size <= *capacity
    }

    fn bytes_left(&self) -> u64 {
        self.budget
    }

    fn evict(&mut self, a: bool, id: PhotoId) {
        self.sides[usize::from(a)].0.remove(id);
    }

    fn transmit(&mut self, t: &Transfer) -> Option<TransferFate> {
        let photo = *self.photos(!t.to_a).get(t.photo)?;
        self.budget = self.budget.checked_sub(photo.size)?;
        self.sides[usize::from(t.to_a)].0.insert(photo);
        Some(TransferFate::Intact)
    }
}

/// Executes a plan in order over `link`, stopping at the first transfer
/// that exceeds the bytes the link has left (the contact ended). Evicts
/// unselected photos from a receiver when space is needed.
///
/// A receiver never evicts the **last copy** of a photo the peer's
/// selection still needs — such transfers are deferred and retried after
/// the rest of the plan has run (by then the blocking photo has usually
/// been copied across, making it evictable). A mutual-swap deadlock with
/// both storages exactly full can still leave a transfer unrealized; the
/// outcome's counters reflect what actually moved.
///
/// The link decides each transmission's [`TransferFate`], once per attempt
/// (after the receiver has secured storage), in transmission order. Lost
/// and corrupt transmissions consume budget — the bytes went over the
/// air — but the photo is not stored, and the transfer is not retried.
pub fn execute_plan(
    plan: &TransferPlan,
    result: &SelectionResult,
    link: &mut impl ContactLink,
) -> ContactOutcome {
    let a_keep: BTreeSet<PhotoId> = result.a_selected.iter().copied().collect();
    let b_keep: BTreeSet<PhotoId> = result.b_selected.iter().copied().collect();
    let mut out = ContactOutcome::default();

    let mut pending: Vec<Transfer> = plan.steps.clone();
    loop {
        let mut deferred: Vec<Transfer> = Vec::new();
        let mut progressed = false;
        for t in &pending {
            if t.size > link.bytes_left() {
                out.truncated = true;
                break;
            }
            let (to, from) = (t.to_a, !t.to_a);
            let (keep, peer_keep) = if t.to_a {
                (&a_keep, &b_keep)
            } else {
                (&b_keep, &a_keep)
            };
            if !link.photos(from).contains(t.photo) || link.photos(to).contains(t.photo) {
                continue;
            }
            // Make room by evicting photos this node's selection
            // excluded, highest id first (deterministic). A photo the
            // *peer's* selection wants is spared unless the peer already
            // holds a copy.
            while !link.has_room(to, t.size) {
                let sender = link.photos(from);
                let victim = link.photos(to).ids().rev().find(|id| {
                    !keep.contains(id) && (!peer_keep.contains(id) || sender.contains(*id))
                });
                match victim {
                    Some(v) => {
                        link.evict(to, v);
                        out.photos_evicted += 1;
                    }
                    None => break,
                }
            }
            if !link.has_room(to, t.size) {
                // Blocked on a spared photo (or on the receiver's own
                // selected set): retry after the rest of the plan.
                deferred.push(*t);
                continue;
            }
            let Some(fate) = link.transmit(t) else {
                continue;
            };
            out.bytes_transferred += t.size;
            match fate {
                TransferFate::Intact => {
                    out.photos_transferred += 1;
                    progressed = true;
                }
                TransferFate::Lost => out.photos_lost += 1,
                TransferFate::Corrupt => out.photos_corrupt += 1,
            }
        }
        if out.truncated || deferred.is_empty() || !progressed {
            break;
        }
        pending = deferred;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_coverage::{Photo, PhotoMeta};
    use photodtn_geo::{Angle, Point};

    fn photo(id: u64, size: u64) -> Photo {
        let meta = PhotoMeta::new(
            Point::new(0.0, 0.0),
            100.0,
            Angle::from_degrees(45.0),
            Angle::ZERO,
        );
        Photo::new(id, meta, 0.0).with_size(size)
    }

    fn collection(ids: &[(u64, u64)]) -> PhotoCollection {
        ids.iter().map(|&(id, s)| photo(id, s)).collect()
    }

    fn result(a: &[u64], b: &[u64], a_first: bool) -> SelectionResult {
        SelectionResult {
            a_selected: a.iter().map(|&i| PhotoId(i)).collect(),
            b_selected: b.iter().map(|&i| PhotoId(i)).collect(),
            a_first,
            expected: photodtn_coverage::Coverage::ZERO,
            stats: Default::default(),
        }
    }

    #[test]
    fn plan_skips_already_held() {
        let a = collection(&[(1, 10), (2, 10)]);
        let b = collection(&[(3, 10)]);
        let r = result(&[1, 3], &[2], true);
        let plan = plan_transfers(&r, &a, &b);
        // a lacks only 3; b lacks 2.
        assert_eq!(
            plan.steps,
            vec![
                Transfer {
                    photo: PhotoId(3),
                    to_a: true,
                    size: 10
                },
                Transfer {
                    photo: PhotoId(2),
                    to_a: false,
                    size: 10
                },
            ]
        );
        assert_eq!(plan.total_bytes(), 20);
    }

    #[test]
    fn phase_order_follows_first_selector() {
        let a = collection(&[(1, 10)]);
        let b = collection(&[(2, 10)]);
        let r = result(&[2], &[1], false); // b selects first
        let plan = plan_transfers(&r, &a, &b);
        assert!(!plan.steps[0].to_a);
        assert_eq!(plan.steps[0].photo, PhotoId(1));
        assert_eq!(plan.steps[1].photo, PhotoId(2));
    }

    #[test]
    fn execute_moves_photos() {
        let mut a = collection(&[(1, 10)]);
        let mut b = collection(&[(2, 10)]);
        let r = result(&[1, 2], &[1], true);
        let plan = plan_transfers(&r, &a, &b);
        let out = execute_plan(
            &plan,
            &r,
            &mut PairLink::new(&mut a, 100, &mut b, 100, 1000),
        );
        assert!(a.contains(PhotoId(2)));
        assert!(b.contains(PhotoId(1)));
        assert_eq!(out.photos_transferred, 2);
        assert_eq!(out.bytes_transferred, 20);
        assert!(!out.truncated);
    }

    #[test]
    fn budget_truncates_in_order() {
        let mut a = collection(&[]);
        let mut b = collection(&[(1, 10), (2, 10), (3, 10)]);
        let r = result(&[1, 2, 3], &[], true);
        let plan = plan_transfers(&r, &a, &b);
        let out = execute_plan(&plan, &r, &mut PairLink::new(&mut a, 100, &mut b, 100, 25));
        // Only the first two fit the 25-byte budget.
        assert!(a.contains(PhotoId(1)) && a.contains(PhotoId(2)));
        assert!(!a.contains(PhotoId(3)));
        assert!(out.truncated);
        assert_eq!(out.bytes_transferred, 20);
    }

    #[test]
    fn eviction_frees_space_for_selected() {
        // a holds an unselected photo filling its storage; the incoming
        // selected photo must evict it.
        let mut a = collection(&[(9, 10)]);
        let mut b = collection(&[(1, 10)]);
        let r = result(&[1], &[], true);
        let plan = plan_transfers(&r, &a, &b);
        let out = execute_plan(&plan, &r, &mut PairLink::new(&mut a, 10, &mut b, 100, 1000));
        assert!(a.contains(PhotoId(1)));
        assert!(!a.contains(PhotoId(9)));
        assert_eq!(out.photos_evicted, 1);
    }

    #[test]
    fn never_evicts_selected_photos() {
        // a's storage is exactly filled by a selected photo; the second
        // transfer cannot fit and must not displace it.
        let mut a = collection(&[(1, 10)]);
        let mut b = collection(&[(2, 10)]);
        let r = result(&[1, 2], &[], true);
        let plan = plan_transfers(&r, &a, &b);
        let out = execute_plan(&plan, &r, &mut PairLink::new(&mut a, 10, &mut b, 100, 1000));
        assert!(a.contains(PhotoId(1)));
        assert!(!a.contains(PhotoId(2)));
        assert_eq!(out.photos_evicted, 0);
        assert_eq!(out.photos_transferred, 0);
    }

    #[test]
    fn missing_source_skipped() {
        let mut a = collection(&[]);
        let mut b = collection(&[]);
        // plan references a photo neither holds (should not happen, but
        // must not panic)
        let r = result(&[42], &[], true);
        let plan = plan_transfers(&r, &a, &b);
        assert!(plan.steps.is_empty());
        let out = execute_plan(&plan, &r, &mut PairLink::new(&mut a, 10, &mut b, 10, 10));
        assert_eq!(out, ContactOutcome::default());
    }

    /// A link whose fates come from a script; lost and corrupt
    /// transmissions still burn their bytes.
    struct Scripted<'a> {
        link: PairLink<'a>,
        fates: Vec<TransferFate>,
        budget: u64,
    }

    impl ContactLink for Scripted<'_> {
        fn photos(&self, a: bool) -> &PhotoCollection {
            self.link.photos(a)
        }
        fn has_room(&self, a: bool, size: u64) -> bool {
            self.link.has_room(a, size)
        }
        fn bytes_left(&self) -> u64 {
            self.budget
        }
        fn evict(&mut self, a: bool, id: PhotoId) {
            self.link.evict(a, id);
        }
        fn transmit(&mut self, t: &Transfer) -> Option<TransferFate> {
            self.budget = self.budget.checked_sub(t.size)?;
            let fate = self.fates.remove(0);
            if fate.arrived() {
                self.link.transmit(t)?;
            }
            Some(fate)
        }
    }

    #[test]
    fn lost_transfers_burn_budget_without_storing() {
        let mut a = collection(&[]);
        let mut b = collection(&[(1, 10), (2, 10), (3, 10)]);
        let r = result(&[1, 2, 3], &[], true);
        let plan = plan_transfers(&r, &a, &b);
        // Lose the first transfer, corrupt the second, let the third pass.
        let mut link = Scripted {
            link: PairLink::new(&mut a, 100, &mut b, 100, u64::MAX),
            fates: vec![
                TransferFate::Lost,
                TransferFate::Corrupt,
                TransferFate::Intact,
            ],
            budget: 25,
        };
        let out = execute_plan(&plan, &r, &mut link);
        // 25-byte budget: two failed 10-byte sends leave room for nothing
        // more — the clean third transfer no longer fits.
        assert_eq!(out.photos_lost, 1);
        assert_eq!(out.photos_corrupt, 1);
        assert_eq!(out.photos_transferred, 0);
        assert_eq!(out.bytes_transferred, 20);
        assert!(out.truncated);
        assert!(a.is_empty());
    }

    #[test]
    fn perfect_link_matches_execute_plan() {
        let build = || (collection(&[(1, 10)]), collection(&[(2, 10)]));
        let r = result(&[1, 2], &[1], true);
        let (mut a1, mut b1) = build();
        let plan = plan_transfers(&r, &a1, &b1);
        let plain = execute_plan(
            &plan,
            &r,
            &mut PairLink::new(&mut a1, 100, &mut b1, 100, 1000),
        );
        let (mut a2, mut b2) = build();
        let mut scripted = Scripted {
            link: PairLink::new(&mut a2, 100, &mut b2, 100, u64::MAX),
            fates: vec![TransferFate::Intact; plan.steps.len()],
            budget: 1000,
        };
        let with = execute_plan(&plan, &r, &mut scripted);
        assert_eq!(plain, with);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn zero_budget_transfers_nothing() {
        let mut a = collection(&[]);
        let mut b = collection(&[(1, 10)]);
        let r = result(&[1], &[], true);
        let plan = plan_transfers(&r, &a, &b);
        let out = execute_plan(&plan, &r, &mut PairLink::new(&mut a, 100, &mut b, 100, 0));
        assert_eq!(out.photos_transferred, 0);
        assert!(out.truncated);
        assert!(b.contains(PhotoId(1)));
    }
}
