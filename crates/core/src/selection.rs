//! The photo selection algorithm (§III-D).
//!
//! When nodes `n_a` and `n_b` meet, they re-allocate the photo pool
//! `F_a ∪ F_b` between their storages to maximize the expected coverage
//! `C_ex(F_a, F_b)` — an NP-hard, non-convex problem (it embeds 0-1
//! knapsack). The paper's greedy heuristic:
//!
//! 1. the node with the higher delivery probability selects first,
//!    greedily picking the photo with the largest marginal expected
//!    coverage until its storage is full or no photo adds value;
//! 2. the other node then does the same against the *updated* state (so
//!    it avoids duplicating what the strong relay already took) but from
//!    the *original* pool (a very valuable photo may be replicated to
//!    both).
//!
//! [`reallocate`] implements this with *indexed* lazy greedy evaluation:
//! each pooled photo's `(PoI, aspect arc)` coverage list is precomputed
//! once per contact through the spatial grid ([`PhotoCoverage`]), gains
//! are previewed through the engine's allocation-free fast path, the
//! previewed gain is committed without recomputation, and staleness is
//! tracked per PoI with a generation counter so a committed photo only
//! invalidates candidates that share a PoI with it. Lazy evaluation is
//! valid because marginal gains only shrink as photos are committed
//! (submodularity).
//!
//! Two reference implementations are kept for validation and benchmarks:
//! [`reallocate_naive`] recomputes every candidate's gain at every step
//! (O(pool²·gain)), and [`reallocate_lazy_linear`] is the pre-index lazy
//! greedy that rescans the PoI list per evaluation and marks the whole
//! heap stale after each commit. All three produce identical
//! [`SelectionResult`]s.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::sync::Arc;

use photodtn_contacts::NodeId;
use photodtn_coverage::{
    AspectWeightMap, Coverage, CoverageParams, Photo, PhotoCoverage, PhotoId, PoiList,
};

use crate::expected::{DeliveryNode, ExpectedEngine};

/// One side of the contact, as seen by the selection algorithm.
#[derive(Clone, Debug)]
pub struct PeerState {
    /// The node's identity (used only for deterministic tie-breaking).
    pub node: NodeId,
    /// PROPHET delivery probability towards the command center.
    pub delivery_prob: f64,
    /// Storage capacity, bytes.
    pub capacity: u64,
    /// The node's current photo collection.
    pub photos: Vec<Photo>,
}

/// Everything the reallocation of one contact depends on.
#[derive(Clone, Debug)]
pub struct SelectionInput<'a> {
    /// The PoI list issued by the command center.
    pub pois: &'a PoiList,
    /// Coverage-model parameters.
    pub params: CoverageParams,
    /// First contacting node.
    pub a: PeerState,
    /// Second contacting node.
    pub b: PeerState,
    /// Valid third-party metadata: one [`DeliveryNode`] per node whose
    /// cached metadata passed the validity check, **including the command
    /// center** (delivery probability 1). Empty for the NoMetadata
    /// ablation.
    pub others: Vec<DeliveryNode>,
}

/// Work counters of one reallocation, for performance regression tests
/// and benchmark reporting.
///
/// Excluded from [`SelectionResult`] equality: two runs that select the
/// same photos are "equal" even if one worked harder to get there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Engine gain evaluations (initial heap fill + refreshes, or every
    /// scan probe of the naive path).
    pub evaluations: u64,
    /// Re-evaluations of candidates that had gone stale (lazy paths
    /// only).
    pub refreshes: u64,
    /// Photos committed across both peers.
    pub commits: u64,
}

/// The solution of the photo reallocation problem for one contact.
#[derive(Clone, Debug, Default)]
pub struct SelectionResult {
    /// Photos selected into `a`'s storage, in selection order.
    pub a_selected: Vec<PhotoId>,
    /// Photos selected into `b`'s storage, in selection order.
    pub b_selected: Vec<PhotoId>,
    /// Whether `a` selected first (i.e. had the higher delivery
    /// probability).
    pub a_first: bool,
    /// The expected coverage of the final allocation, including the
    /// third-party nodes.
    pub expected: Coverage,
    /// How much work the run performed (not part of equality).
    pub stats: SelectionStats,
}

impl PartialEq for SelectionResult {
    fn eq(&self, other: &Self) -> bool {
        self.a_selected == other.a_selected
            && self.b_selected == other.b_selected
            && self.a_first == other.a_first
            && self.expected == other.expected
    }
}

impl SelectionResult {
    /// Selections in execution order: `(first receiver is a?, first
    /// selection, second selection)`.
    #[must_use]
    pub fn phases(&self) -> (bool, &[PhotoId], &[PhotoId]) {
        if self.a_first {
            (true, &self.a_selected, &self.b_selected)
        } else {
            (false, &self.b_selected, &self.a_selected)
        }
    }
}

/// Which greedy implementation [`run_with`] drives. All strategies
/// produce identical [`SelectionResult`]s; they differ only in how much
/// work they perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Strategy {
    /// Full rescan of the pool at every step — the correctness reference.
    Naive,
    /// Lazy greedy over per-photo metadata: every evaluation rescans the
    /// PoI grid and every commit marks the whole heap stale.
    LazyLinear,
    /// Lazy greedy over precomputed [`PhotoCoverage`] lists with per-PoI
    /// generation tracking — the production path.
    LazyIndexed,
    /// [`Strategy::LazyIndexed`] with coverage tables built through the
    /// scalar reference path ([`PhotoCoverage::build_scalar`]) — the
    /// pre-SIMD data path, kept as a benchmark baseline.
    LazyIndexedScalar,
}

/// Runs the greedy reallocation with indexed lazy gain evaluation.
#[must_use]
pub fn reallocate(input: &SelectionInput<'_>) -> SelectionResult {
    run(input, Strategy::LazyIndexed)
}

/// Runs the greedy reallocation recomputing every candidate's gain at
/// every step (reference implementation).
#[must_use]
pub fn reallocate_naive(input: &SelectionInput<'_>) -> SelectionResult {
    run(input, Strategy::Naive)
}

/// Runs the pre-index lazy greedy: per-metadata gain evaluation and
/// whole-heap invalidation after each commit. Kept as a benchmark
/// baseline and equivalence witness for [`reallocate`].
#[must_use]
pub fn reallocate_lazy_linear(input: &SelectionInput<'_>) -> SelectionResult {
    run(input, Strategy::LazyLinear)
}

/// Runs the indexed lazy greedy with coverage tables built through the
/// scalar reference path ([`PhotoCoverage::build_scalar`]) instead of the
/// batched prefilter — i.e. the full pre-SIMD data path. Kept as the
/// benchmark baseline the batched/incremental speedups are gated against;
/// bit-identical to [`reallocate`].
#[must_use]
pub fn reallocate_indexed_scalar(input: &SelectionInput<'_>) -> SelectionResult {
    run(input, Strategy::LazyIndexedScalar)
}

/// Runs the greedy reallocation with per-PoI aspect weights (§II-C:
/// "photos covering more important PoIs will have higher coverage, and
/// thus will be prioritized in routing" — here extended to important
/// *aspects*).
#[must_use]
pub fn reallocate_weighted(
    input: &SelectionInput<'_>,
    weights: &AspectWeightMap,
) -> SelectionResult {
    run_with(input, Strategy::LazyIndexed, Some(weights))
}

fn run(input: &SelectionInput<'_>, strategy: Strategy) -> SelectionResult {
    run_with(input, strategy, None)
}

fn run_with(
    input: &SelectionInput<'_>,
    strategy: Strategy,
    weights: Option<&AspectWeightMap>,
) -> SelectionResult {
    let mut engine = ExpectedEngine::new(input.pois, input.params);
    if let Some(w) = weights {
        engine = engine.with_aspect_weights(w.clone());
    }
    for other in &input.others {
        let n = engine.add_node(other.delivery_prob);
        engine.add_collection(n, other.metas.iter());
    }

    // Shared selection pool F_a ∪ F_b, deduplicated by id.
    let pool: BTreeMap<PhotoId, Photo> = input
        .a
        .photos
        .iter()
        .chain(input.b.photos.iter())
        .map(|p| (p.id, *p))
        .collect();

    // The contact-scoped coverage index: each pooled photo's (PoI, arc)
    // list, computed once through the spatial grid and reused across both
    // peers' selection phases and every gain evaluation within them.
    let items: Vec<(Photo, PhotoCoverage)> = match strategy {
        Strategy::LazyIndexed => pool
            .values()
            .map(|p| (*p, PhotoCoverage::build(&p.meta, input.pois, input.params)))
            .collect(),
        Strategy::LazyIndexedScalar => pool
            .values()
            .map(|p| {
                (
                    *p,
                    PhotoCoverage::build_scalar(&p.meta, input.pois, input.params),
                )
            })
            .collect(),
        Strategy::Naive | Strategy::LazyLinear => Vec::new(),
    };
    // Per-PoI "last changed at commit #" stamps, reused across phases.
    let mut poi_gen = vec![0u32; input.pois.len()];
    let mut stats = SelectionStats::default();

    // Higher delivery probability selects first; ties break on node id so
    // both endpoints compute the identical plan independently.
    let a_first = match input.a.delivery_prob.total_cmp(&input.b.delivery_prob) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => input.a.node <= input.b.node,
    };
    let (first, second) = if a_first {
        (&input.a, &input.b)
    } else {
        (&input.b, &input.a)
    };

    let mut select = |engine: &mut ExpectedEngine, peer: &PeerState, stats: &mut SelectionStats| {
        match strategy {
            Strategy::Naive => select_naive(engine, peer, &pool, stats),
            Strategy::LazyLinear => select_lazy_linear(engine, peer, &pool, stats),
            Strategy::LazyIndexed | Strategy::LazyIndexedScalar => {
                select_lazy_indexed(engine, peer, &items, &mut poi_gen, stats)
            }
        }
    };
    let first_sel = select(&mut engine, first, &mut stats);
    let second_sel = select(&mut engine, second, &mut stats);

    let (a_selected, b_selected) = if a_first {
        (first_sel, second_sel)
    } else {
        (second_sel, first_sel)
    };
    SelectionResult {
        a_selected,
        b_selected,
        a_first,
        expected: engine.total(),
        stats,
    }
}

/// A reusable reallocation context for one simulated world.
///
/// [`reallocate`] constructs a fresh [`ExpectedEngine`] (cloning the PoI
/// list), a fresh generation array, and a fresh item table on **every**
/// contact. A `SelectionSession` hoists all three to per-run lifetime:
/// the engine is [`reset`](ExpectedEngine::reset) instead of rebuilt
/// (keeping its scratch buffers warm, preserving the zero-allocation
/// preview property across contacts), and photo coverage tables are
/// supplied by the caller — typically from a per-run
/// [`CoverageTableCache`](photodtn_coverage::CoverageTableCache) — so
/// each table is built once per run instead of once per contact.
///
/// [`reallocate_with`](Self::reallocate_with) is bit-identical to
/// [`reallocate`] on the same input (equivalence-tested below): it runs
/// the identical indexed lazy greedy; only the provenance of the
/// allocations differs.
#[derive(Debug)]
pub struct SelectionSession {
    engine: ExpectedEngine,
    poi_gen: Vec<u32>,
    items: Vec<(Photo, Arc<PhotoCoverage>)>,
    /// Signature of the checkpointed third-party base: `(delivery-prob
    /// bits, photo ids)` per other node, in commit order. Empty when no
    /// base is checkpointed (first contact, or id-less records).
    base_sig: Vec<(u64, Vec<PhotoId>)>,
}

impl SelectionSession {
    /// Creates a session over a shared PoI list.
    #[must_use]
    pub fn new(pois: Arc<PoiList>, params: CoverageParams) -> Self {
        let poi_gen = vec![0u32; pois.len()];
        SelectionSession {
            engine: ExpectedEngine::new_shared(pois, params),
            poi_gen,
            items: Vec::new(),
            base_sig: Vec::new(),
        }
    }

    /// Whether the checkpointed third-party base can serve this contact:
    /// same nodes, same probabilities, same photo id sequences. Ids
    /// determine coverage (metadata is immutable), so an exact signature
    /// match makes rollback bit-identical to a rebuild.
    fn base_matches(&self, others: &[DeliveryNode]) -> bool {
        self.engine.has_checkpoint()
            && self.base_sig.len() == others.len()
            && self.base_sig.iter().zip(others).all(|((prob, ids), o)| {
                o.delivery_prob.to_bits() == *prob && o.ids.as_deref() == Some(ids.as_slice())
            })
    }

    /// The shared handle to the session's PoI list, for callers that must
    /// check (via [`Arc::ptr_eq`]) that a long-lived session still matches
    /// the world it is used in.
    #[must_use]
    pub fn pois_shared(&self) -> &Arc<PoiList> {
        self.engine.pois_shared()
    }

    /// Runs the indexed greedy reallocation, resolving coverage tables
    /// through `coverage` (called once per distinct pooled or third-party
    /// photo).
    ///
    /// `coverage(id, meta)` must return the photo's [`PhotoCoverage`]
    /// against the session's PoI list — either freshly built or from a
    /// cache; the two are interchangeable because `PhotoCoverage::build`
    /// is deterministic and metadata is immutable.
    ///
    /// `input.pois` must be the session's own PoI list.
    pub fn reallocate_with<F>(
        &mut self,
        input: &SelectionInput<'_>,
        mut coverage: F,
    ) -> SelectionResult
    where
        F: FnMut(PhotoId, &photodtn_coverage::PhotoMeta) -> Arc<PhotoCoverage>,
    {
        debug_assert_eq!(
            input.pois.len(),
            self.poi_gen.len(),
            "session used with a different world"
        );
        // The committed third-party base is kept behind an engine
        // checkpoint. When this contact's `others` exactly match the
        // checkpointed base (nodes, probabilities, id sequences),
        // rollback discards the previous contact's peer commits and
        // reuses the base bitwise; otherwise rebuild and re-checkpoint.
        if self.base_matches(&input.others) {
            self.engine.rollback();
        } else {
            self.engine.reset();
            self.base_sig.clear();
            let mut id_complete = true;
            for other in &input.others {
                let n = self.engine.add_node(other.delivery_prob);
                match &other.ids {
                    // Ids known: commit through the indexed path on cached
                    // tables (bit-identical to the metadata scan).
                    Some(ids) => {
                        for (id, meta) in ids.iter().zip(&other.metas) {
                            let cov = coverage(*id, meta);
                            self.engine.add_photo_indexed(n, &cov);
                        }
                        self.base_sig
                            .push((other.delivery_prob.to_bits(), ids.clone()));
                    }
                    None => {
                        self.engine.add_collection(n, other.metas.iter());
                        id_complete = false;
                    }
                }
            }
            // Id-less records cannot be signature-checked, so such a base
            // is never reused.
            if id_complete {
                self.engine.checkpoint();
            } else {
                self.base_sig.clear();
            }
        }

        let pool: BTreeMap<PhotoId, Photo> = input
            .a
            .photos
            .iter()
            .chain(input.b.photos.iter())
            .map(|p| (p.id, *p))
            .collect();
        self.items.clear();
        self.items
            .extend(pool.values().map(|p| (*p, coverage(p.id, &p.meta))));

        let mut stats = SelectionStats::default();
        let a_first = match input.a.delivery_prob.total_cmp(&input.b.delivery_prob) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => input.a.node <= input.b.node,
        };
        let (first, second) = if a_first {
            (&input.a, &input.b)
        } else {
            (&input.b, &input.a)
        };
        let first_sel = select_lazy_indexed(
            &mut self.engine,
            first,
            &self.items,
            &mut self.poi_gen,
            &mut stats,
        );
        let second_sel = select_lazy_indexed(
            &mut self.engine,
            second,
            &self.items,
            &mut self.poi_gen,
            &mut stats,
        );
        let (a_selected, b_selected) = if a_first {
            (first_sel, second_sel)
        } else {
            (second_sel, first_sel)
        };
        SelectionResult {
            a_selected,
            b_selected,
            a_first,
            expected: self.engine.total(),
            stats,
        }
    }
}

/// Indexed lazy greedy fill of one peer's storage (problem (3) of the
/// paper) — the production hot path.
///
/// Differences from [`select_lazy_linear`]:
///
/// * gains are previewed through [`ExpectedEngine::gain_of_indexed`] on
///   the precomputed coverage lists (no PoI-grid rescans, no steady-state
///   allocation);
/// * the previewed gain is committed as-is via
///   [`ExpectedEngine::commit_indexed`] instead of being recomputed;
/// * staleness is per PoI: committing a photo bumps a generation counter
///   and stamps only the PoIs that photo touches, so a popped candidate
///   needs a refresh only if it shares a PoI with a later commit. A gain
///   depends solely on the states of the PoIs the photo covers, so an
///   entry whose PoIs are unstamped since its evaluation is exact — this
///   replaces the O(pool) whole-heap invalidation sweep after every
///   commit.
fn select_lazy_indexed<C: Borrow<PhotoCoverage>>(
    engine: &mut ExpectedEngine,
    peer: &PeerState,
    items: &[(Photo, C)],
    poi_gen: &mut [u32],
    stats: &mut SelectionStats,
) -> Vec<PhotoId> {
    let node = engine.add_node(peer.delivery_prob);
    let mut remaining = peer.capacity;
    let mut selected = Vec::new();
    poi_gen.fill(0);
    let mut cur_gen: u32 = 0;
    let mut heap: BinaryHeap<IndexedEntry> = items
        .iter()
        .enumerate()
        .map(|(i, (p, cov))| {
            stats.evaluations += 1;
            let raw = engine.gain_of_indexed(node, cov.borrow());
            IndexedEntry {
                gain: rank(raw),
                raw,
                id: p.id,
                idx: i as u32,
                gen: 0,
            }
        })
        .collect();
    while let Some(mut top) = heap.pop() {
        if top.gain <= (0, 0) {
            break;
        }
        let (photo, cov) = &items[top.idx as usize];
        let cov = cov.borrow();
        if photo.size > remaining {
            continue; // cannot fit now or ever (remaining only shrinks)
        }
        // Fresh iff no PoI this photo touches changed after the entry's
        // gain was computed.
        let fresh = top.gen == cur_gen || cov.pois().all(|pid| poi_gen[pid.index()] <= top.gen);
        if !fresh {
            stats.evaluations += 1;
            stats.refreshes += 1;
            top.raw = engine.gain_of_indexed(node, cov);
            top.gain = rank(top.raw);
            top.gen = cur_gen;
            // Still at least as good as the next candidate's bound?
            if let Some(next) = heap.peek() {
                if next.key() > top.key() {
                    heap.push(top);
                    continue;
                }
            }
            if top.gain <= (0, 0) {
                continue;
            }
        }
        engine.commit_indexed(node, cov, top.raw);
        stats.commits += 1;
        cur_gen += 1;
        for pid in cov.pois() {
            poi_gen[pid.index()] = cur_gen;
        }
        remaining -= photo.size;
        selected.push(top.id);
    }
    selected
}

/// Pre-index lazy greedy (kept as baseline): per-metadata evaluation and
/// whole-heap invalidation after each commit.
fn select_lazy_linear(
    engine: &mut ExpectedEngine,
    peer: &PeerState,
    pool: &BTreeMap<PhotoId, Photo>,
    stats: &mut SelectionStats,
) -> Vec<PhotoId> {
    let node = engine.add_node(peer.delivery_prob);
    let mut remaining = peer.capacity;
    let mut selected = Vec::new();
    // Lazy greedy: gains only shrink as the engine state grows, so a
    // heap of stale upper bounds is safe — pop, refresh, and commit
    // only if the refreshed gain still tops the heap.
    let mut heap: BinaryHeap<HeapEntry> = pool
        .values()
        .map(|p| {
            stats.evaluations += 1;
            HeapEntry {
                gain: rank(engine.gain_of(node, &p.meta)),
                id: p.id,
                fresh: true,
            }
        })
        .collect();
    while let Some(mut top) = heap.pop() {
        if top.gain <= (0, 0) {
            break;
        }
        let photo = &pool[&top.id];
        if photo.size > remaining {
            continue; // cannot fit now or ever (remaining only shrinks)
        }
        if !top.fresh {
            stats.evaluations += 1;
            stats.refreshes += 1;
            top.gain = rank(engine.gain_of(node, &photo.meta));
            top.fresh = true;
            // Still at least as good as the next candidate's bound?
            if let Some(next) = heap.peek() {
                if next.key() > top.key() {
                    heap.push(top);
                    continue;
                }
            }
            if top.gain <= (0, 0) {
                continue;
            }
        }
        engine.add_photo(node, &photo.meta);
        stats.commits += 1;
        remaining -= photo.size;
        selected.push(top.id);
        // Every other bound is now stale.
        let drained: Vec<HeapEntry> = heap.drain().collect();
        heap.extend(drained.into_iter().map(|mut e| {
            e.fresh = false;
            e
        }));
    }
    selected
}

/// Exhaustive greedy fill (correctness reference): rescans the whole pool
/// at every step.
fn select_naive(
    engine: &mut ExpectedEngine,
    peer: &PeerState,
    pool: &BTreeMap<PhotoId, Photo>,
    stats: &mut SelectionStats,
) -> Vec<PhotoId> {
    let node = engine.add_node(peer.delivery_prob);
    let mut remaining = peer.capacity;
    let mut selected = Vec::new();
    loop {
        let mut best: Option<((i64, i64), PhotoId)> = None;
        for p in pool.values() {
            if p.size > remaining || selected.contains(&p.id) {
                continue;
            }
            stats.evaluations += 1;
            let g = rank(engine.gain_of(node, &p.meta));
            if g <= (0, 0) {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bg, bid)) => g > *bg || (g == *bg && p.id < *bid),
            };
            if better {
                best = Some((g, p.id));
            }
        }
        let Some((_, id)) = best else { break };
        let photo = &pool[&id];
        engine.add_photo(node, &photo.meta);
        stats.commits += 1;
        remaining -= photo.size;
        selected.push(id);
    }
    selected
}

/// Gains are compared at a fixed 1e-9 resolution so that floating-point
/// noise cannot make the lazy and naive paths break ties differently.
fn rank(c: Coverage) -> (i64, i64) {
    const SCALE: f64 = 1e9;
    (
        (c.point * SCALE).round() as i64,
        (c.aspect * SCALE).round() as i64,
    )
}

/// Heap entry ordered by quantized (point, aspect) descending with
/// ascending-id tie-break, so the heap pops the best candidate
/// deterministically.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    gain: (i64, i64),
    id: PhotoId,
    fresh: bool,
}

impl HeapEntry {
    fn key(&self) -> ((i64, i64), std::cmp::Reverse<PhotoId>) {
        (self.gain, std::cmp::Reverse(self.id))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Heap entry of the indexed lazy path. Carries the raw previewed
/// [`Coverage`] (so a commit needs no re-evaluation) and the commit
/// generation at which the gain was computed (so freshness is decided per
/// PoI instead of by a whole-heap stale flag).
#[derive(Clone, Copy, Debug)]
struct IndexedEntry {
    gain: (i64, i64),
    raw: Coverage,
    id: PhotoId,
    /// Index into the contact's `items` table.
    idx: u32,
    /// `cur_gen` at the time `raw` was computed.
    gen: u32,
}

impl IndexedEntry {
    fn key(&self) -> ((i64, i64), std::cmp::Reverse<PhotoId>) {
        (self.gain, std::cmp::Reverse(self.id))
    }
}

impl PartialEq for IndexedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for IndexedEntry {}
impl PartialOrd for IndexedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IndexedEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_coverage::{PhotoMeta, Poi};
    use photodtn_geo::{Angle, Point};

    fn pois() -> PoiList {
        PoiList::new(vec![
            Poi::new(0, Point::new(0.0, 0.0)),
            Poi::new(1, Point::new(600.0, 0.0)),
        ])
    }

    fn shot(id: u64, target: Point, deg: f64) -> Photo {
        let dir = Angle::from_degrees(deg);
        let meta = PhotoMeta::new(
            target.offset(dir, 50.0),
            80.0,
            Angle::from_degrees(40.0),
            dir + Angle::PI,
        );
        Photo::new(id, meta, 0.0).with_size(1)
    }

    fn peer(node: u32, p: f64, cap: u64, photos: Vec<Photo>) -> PeerState {
        PeerState {
            node: NodeId(node),
            delivery_prob: p,
            capacity: cap,
            photos,
        }
    }

    #[test]
    fn strong_relay_selects_first_and_takes_best() {
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(600.0, 0.0);
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.9, 2, vec![shot(1, t0, 0.0), shot(2, t0, 5.0)]),
            b: peer(1, 0.1, 2, vec![shot(3, t1, 90.0)]),
            others: vec![],
        };
        let r = reallocate(&input);
        assert!(r.a_first);
        // a takes one photo of each PoI (point coverage dominates), not
        // the two nearly-identical shots of t0.
        assert_eq!(r.a_selected.len(), 2);
        assert!(r.a_selected.contains(&PhotoId(3)));
        assert!(r.a_selected.contains(&PhotoId(1)) || r.a_selected.contains(&PhotoId(2)));
    }

    #[test]
    fn lazy_and_naive_agree() {
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(600.0, 0.0);
        let mk = |caps: (u64, u64), pa: f64, pb: f64| SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(
                0,
                pa,
                caps.0,
                vec![
                    shot(1, t0, 0.0),
                    shot(2, t0, 120.0),
                    shot(3, t1, 10.0),
                    shot(4, t1, 15.0),
                ],
            ),
            b: peer(
                1,
                pb,
                caps.1,
                vec![shot(5, t0, 240.0), shot(6, t1, 200.0), shot(7, t0, 0.0)],
            ),
            others: vec![DeliveryNode::new(1.0, vec![shot(8, t0, 60.0).meta])],
        };
        for caps in [(2, 2), (3, 1), (7, 7), (0, 3)] {
            for (pa, pb) in [(0.9, 0.2), (0.2, 0.9), (0.5, 0.5)] {
                let input = mk(caps, pa, pb);
                let lazy = reallocate(&input);
                let naive = reallocate_naive(&input);
                let linear = reallocate_lazy_linear(&input);
                assert_eq!(
                    lazy, naive,
                    "indexed/naive divergence at caps {caps:?} p=({pa},{pb})"
                );
                assert_eq!(
                    lazy, linear,
                    "indexed/linear divergence at caps {caps:?} p=({pa},{pb})"
                );
            }
        }
    }

    #[test]
    fn zero_gain_duplicates_need_linear_refreshes() {
        // A pool of identical photos is the worst case for lazy greedy:
        // after the first commit every other candidate's gain collapses to
        // zero, so each gets refreshed exactly once and dropped. The
        // indexed path must do O(pool) refreshes — not O(pool²)
        // evaluations like the naive scan — and the duplicate-aware
        // generation tracking must not regress that.
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let n = 64u64;
        let photos: Vec<Photo> = (0..n).map(|i| shot(i, t0, 0.0)).collect();
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.8, n, photos),
            b: peer(1, 0.3, n, vec![]),
            others: vec![],
        };
        let r = reallocate(&input);
        // Each peer commits exactly one copy (second copies add nothing on
        // the same node).
        assert_eq!(r.stats.commits, 2);
        // Initial heap fills: one evaluation per pooled photo per peer.
        // Refreshes: bounded by one per non-committed candidate per peer.
        assert!(
            r.stats.refreshes <= 2 * n,
            "refreshes {} exceeded O(pool) bound {}",
            r.stats.refreshes,
            2 * n
        );
        assert!(
            r.stats.evaluations <= 4 * n,
            "evaluations {} exceeded initial fill + O(pool) refreshes",
            r.stats.evaluations
        );
        // Same allocation as the reference, never more evaluations. (In
        // this degenerate single-commit case naive also stops after two
        // scans, so the counts tie; the asymptotic gap opens with the
        // number of commits — see the selection benches.)
        let naive = reallocate_naive(&input);
        assert_eq!(naive, r);
        assert!(naive.stats.evaluations >= r.stats.evaluations);
    }

    #[test]
    fn respects_capacity() {
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let photos: Vec<Photo> = (0..6).map(|i| shot(i, t0, i as f64 * 60.0)).collect();
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.8, 3, photos.clone()),
            b: peer(1, 0.3, 2, vec![]),
            others: vec![],
        };
        let r = reallocate(&input);
        assert!(r.a_selected.len() <= 3);
        assert!(r.b_selected.len() <= 2);
    }

    #[test]
    fn redundant_photos_not_selected() {
        // 5 identical shots: only one carries value per node.
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let photos: Vec<Photo> = (0..5).map(|i| shot(i, t0, 0.0)).collect();
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.8, 10, photos),
            b: peer(1, 0.3, 10, vec![]),
            others: vec![],
        };
        let r = reallocate(&input);
        assert_eq!(r.a_selected.len(), 1);
        // b replicates it once more (its copy still adds delivery odds)
        assert_eq!(r.b_selected.len(), 1);
        assert_eq!(r.a_selected[0], r.b_selected[0]);
    }

    #[test]
    fn command_center_acks_prevent_reselection() {
        // The command center already has the photo → no one stores it.
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let delivered = shot(1, t0, 0.0);
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.8, 10, vec![delivered]),
            b: peer(1, 0.3, 10, vec![]),
            others: vec![DeliveryNode::new(1.0, vec![delivered.meta])],
        };
        let r = reallocate(&input);
        assert!(r.a_selected.is_empty());
        assert!(r.b_selected.is_empty());
    }

    #[test]
    fn second_selector_complements_first() {
        // b should prefer the photo a could not deliver reliably… here a
        // takes both angles; b (same pool) replicates them rather than
        // sitting idle.
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.6, 2, vec![shot(1, t0, 0.0), shot(2, t0, 180.0)]),
            b: peer(1, 0.5, 2, vec![]),
            others: vec![],
        };
        let r = reallocate(&input);
        assert_eq!(r.a_selected.len(), 2);
        assert_eq!(r.b_selected.len(), 2);
    }

    #[test]
    fn oversized_photo_skipped() {
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let big = shot(1, t0, 0.0).with_size(100);
        let small = shot(2, t0, 180.0).with_size(1);
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.8, 10, vec![big, small]),
            b: peer(1, 0.3, 10, vec![]),
            others: vec![],
        };
        let r = reallocate(&input);
        assert_eq!(r.a_selected, vec![PhotoId(2)]);
    }

    #[test]
    fn empty_pool_selects_nothing() {
        let pois = pois();
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: peer(0, 0.8, 10, vec![]),
            b: peer(1, 0.3, 10, vec![]),
            others: vec![],
        };
        let r = reallocate(&input);
        assert!(r.a_selected.is_empty() && r.b_selected.is_empty());
        assert!(r.expected.is_zero());
    }

    #[test]
    fn session_matches_reallocate_across_reuse() {
        // A reused session (reset engine, cached coverage tables,
        // id-tagged third parties) must be bit-identical to the fresh
        // per-contact path, on every contact it serves.
        let pois = Arc::new(pois());
        let params = CoverageParams::default();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(600.0, 0.0);
        let mut session = SelectionSession::new(Arc::clone(&pois), params);
        let mut cache = photodtn_coverage::CoverageTableCache::new(4); // tiny: forces evictions
        let cc = shot(8, t0, 60.0);
        let contacts = [
            ((2u64, 2u64), (0.9, 0.2)),
            ((3, 1), (0.2, 0.9)),
            ((7, 7), (0.5, 0.5)),
            ((0, 3), (0.5, 0.5)),
        ];
        for (caps, (pa, pb)) in contacts {
            let a = peer(
                0,
                pa,
                caps.0,
                vec![
                    shot(1, t0, 0.0),
                    shot(2, t0, 120.0),
                    shot(3, t1, 10.0),
                    shot(4, t1, 15.0),
                ],
            );
            let b = peer(
                1,
                pb,
                caps.1,
                vec![shot(5, t0, 240.0), shot(6, t1, 200.0), shot(7, t0, 0.0)],
            );
            let fresh_input = SelectionInput {
                pois: &pois,
                params,
                a: a.clone(),
                b: b.clone(),
                others: vec![DeliveryNode::new(1.0, vec![cc.meta])],
            };
            let session_input = SelectionInput {
                pois: &pois,
                params,
                a,
                b,
                others: vec![DeliveryNode::with_ids(1.0, vec![(cc.id, cc.meta)])],
            };
            let reference = reallocate(&fresh_input);
            let reused = session.reallocate_with(&session_input, |id, meta| {
                cache.get_or_build(id, meta, &pois, params)
            });
            assert_eq!(reference, reused, "divergence at caps {caps:?}");
            assert_eq!(
                reference.expected.point.to_bits(),
                reused.expected.point.to_bits()
            );
            assert_eq!(
                reference.expected.aspect.to_bits(),
                reused.expected.aspect.to_bits()
            );
        }
        // 8 distinct photos cycling through 4 slots: the cache thrashes
        // (every lookup rebuilds) yet results stayed bit-identical.
        assert!(cache.stats().evictions > 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn phases_order() {
        let r = SelectionResult {
            a_selected: vec![PhotoId(1)],
            b_selected: vec![PhotoId(2)],
            a_first: false,
            expected: Coverage::ZERO,
            stats: SelectionStats::default(),
        };
        let (first_is_a, first, second) = r.phases();
        assert!(!first_is_a);
        assert_eq!(first, &[PhotoId(2)]);
        assert_eq!(second, &[PhotoId(1)]);
    }
}
