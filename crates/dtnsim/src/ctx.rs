use std::cell::RefCell;
use std::sync::Arc;

use rand::rngs::SmallRng;

use photodtn_contacts::NodeId;
use photodtn_core::transmission::TransferFate;
use photodtn_coverage::{
    CacheStats, Coverage, CoverageParams, CoverageProfile, CoverageTableCache, Photo,
    PhotoCollection, PhotoCoverage, PhotoId, PhotoMeta, PoiList,
};
use photodtn_prophet::ProphetRouter;

use crate::faults::FaultState;
use crate::trace::{TraceEvent, Tracer};

/// The scheme-visible random source: a [`SmallRng`] that counts how many
/// 64-bit words it has produced.
///
/// The stream is a pure function of the run seed, so a checkpoint needs
/// only the *draw count* — restore re-seeds from scratch and fast-forwards
/// that many words, reproducing the exact generator state without
/// serializing it. The counter is one integer increment per draw; the
/// underlying xoshiro state transition dwarfs it.
#[derive(Clone, Debug)]
pub struct SchemeRng {
    inner: SmallRng,
    words: u64,
}

impl SchemeRng {
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        use rand::SeedableRng;
        SchemeRng {
            inner: SmallRng::seed_from_u64(seed),
            words: 0,
        }
    }

    /// 64-bit words drawn so far (the checkpointed quantity).
    #[must_use]
    pub fn words_drawn(&self) -> u64 {
        self.words
    }

    /// Advances a freshly seeded generator by `words` draws, restoring
    /// the state a checkpointed run had at capture time.
    pub(crate) fn fast_forward(&mut self, words: u64) {
        use rand::RngCore;
        for _ in 0..words {
            self.inner.next_u64();
        }
        self.words = words;
    }
}

impl rand::RngCore for SchemeRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += (dest.len() as u64).div_ceil(8);
        self.inner.fill_bytes(dest);
    }
}

/// The mutable world state a [`Scheme`](crate::Scheme) operates on.
///
/// The context owns everything global: participant photo collections, the
/// command center's received collection (with an incrementally maintained
/// coverage profile), PROPHET state, and the simulation clock. Schemes
/// keep their protocol-specific state (metadata caches, spray counters,
/// …) on their side, keyed by [`NodeId`].
///
/// Photos move only through [`send`](Self::send), [`upload`](Self::upload)
/// and [`evict`](Self::evict), over the link the engine opens around the
/// running hook. The link owns the hook's remaining bytes, so budgets,
/// storage limits and fault rolls hold by construction.
#[derive(Debug)]
pub struct SimCtx {
    pub(crate) pois: Arc<PoiList>,
    /// Per-run coverage-table cache: each photo's [`PhotoCoverage`] is
    /// built at most once per run and shared by `Arc` thereafter.
    /// `RefCell` so schemes can look tables up through `&SimCtx` while
    /// holding other immutable borrows of the context.
    pub(crate) cov_cache: RefCell<CoverageTableCache>,
    pub(crate) coverage_params: CoverageParams,
    pub(crate) storage_bytes: u64,
    pub(crate) collections: Vec<PhotoCollection>,
    pub(crate) cc_received: PhotoCollection,
    pub(crate) cc_profile: CoverageProfile,
    pub(crate) prophet: ProphetRouter,
    pub(crate) cc_prophet_id: NodeId,
    pub(crate) gateways: Vec<NodeId>,
    pub(crate) rng: SchemeRng,
    pub(crate) now: f64,
    pub(crate) uploaded_bytes: u64,
    /// Sum of (delivery time − capture time) over delivered photos.
    pub(crate) latency_sum: f64,
    /// Bytes spent exchanging metadata (not photo payloads).
    pub(crate) metadata_bytes: u64,
    /// Per-run fault-injection state (inert when faults are disabled).
    pub(crate) faults: FaultState,
    /// Per-run trace emission front end (inert without a sink).
    pub(crate) tracer: Tracer,
    /// Whether links enforce byte budgets and storage limits: the running
    /// scheme's [`respects_storage`](crate::Scheme::respects_storage).
    pub(crate) constrained: bool,
    /// The link of the running hook ([`Link::Closed`] between hooks).
    pub(crate) link: Link,
}

/// The nodes the running hook may move photos between, and the bytes its
/// link has left. The engine opens one around each hook and closes it
/// afterwards; it never outlives an event, so snapshots never hold one.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Link {
    /// No hook that moves photos is running.
    Closed,
    /// `on_photo_generated` at this node: it may only evict.
    Generate(NodeId),
    /// `on_contact` between `a` and `b`.
    Contact { a: NodeId, b: NodeId, left: u64 },
    /// `on_upload` from `node` to the command center.
    Uplink { node: NodeId, left: u64 },
}

/// Why [`SimCtx::send`] or [`SimCtx::upload`] moved nothing. A refusal
/// charges no bytes, rolls no fault and changes no collection. The
/// variants are listed in the order the checks run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The nodes are not the running hook's link (or none is open).
    OffLink,
    /// The sender does not hold the photo.
    NotHeld,
    /// The receiving node already holds the photo.
    AlreadyHeld,
    /// The link has fewer bytes left than the photo's size.
    NoBudget,
    /// The receiving node's storage has no room for the photo.
    NoRoom,
}

/// What happened to one photo uploaded through [`SimCtx::upload`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum UploadOutcome {
    /// The photo arrived and was new to the command center.
    Delivered,
    /// The photo arrived but had already been delivered earlier.
    Duplicate,
    /// The transmission was lost on the uplink.
    Lost,
    /// The photo arrived corrupted; the command center discarded it.
    Corrupt,
}

impl UploadOutcome {
    /// Whether the sender received an acknowledgement — i.e. the command
    /// center now holds the photo (freshly or from before), so the local
    /// copy may safely be dropped.
    #[must_use]
    pub fn acked(self) -> bool {
        matches!(self, UploadOutcome::Delivered | UploadOutcome::Duplicate)
    }
}

impl SimCtx {
    /// Current simulation time, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The PoI list of this run.
    #[must_use]
    pub fn pois(&self) -> &PoiList {
        &self.pois
    }

    /// A shared handle to the PoI list, for schemes that need to keep a
    /// reference across calls (e.g. inside a persistent
    /// [`ExpectedEngine`](photodtn_core::expected::ExpectedEngine))
    /// without cloning the list itself.
    #[must_use]
    pub fn pois_shared(&self) -> Arc<PoiList> {
        Arc::clone(&self.pois)
    }

    /// The coverage table of one photo, built at most once per run.
    ///
    /// The first lookup of a [`PhotoId`] builds the table from `meta`;
    /// later lookups return the cached [`Arc`]. Callers must pass the
    /// photo's true metadata — tables are keyed by id alone.
    #[must_use]
    pub fn photo_coverage(&self, id: PhotoId, meta: &PhotoMeta) -> Arc<PhotoCoverage> {
        self.cov_cache
            .borrow_mut()
            .get_or_build(id, meta, &self.pois, self.coverage_params)
    }

    /// Hit/miss/eviction counters of the per-run coverage-table cache.
    #[must_use]
    pub fn coverage_cache_stats(&self) -> CacheStats {
        self.cov_cache.borrow().stats()
    }

    /// Coverage-model parameters.
    #[must_use]
    pub fn coverage_params(&self) -> CoverageParams {
        self.coverage_params
    }

    /// Per-node storage capacity, bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }

    /// Number of participant nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.collections.len() as u32
    }

    /// A participant's photo collection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn collection(&self, node: NodeId) -> &PhotoCollection {
        &self.collections[node.index()]
    }

    /// Whether `node` can store `size` more bytes (always, for a scheme
    /// that does not [`respects_storage`](crate::Scheme::respects_storage)).
    #[must_use]
    pub fn has_room(&self, node: NodeId, size: u64) -> bool {
        !self.constrained
            || self.collections[node.index()].total_size() + size <= self.storage_bytes
    }

    /// Photos the command center has received so far.
    #[must_use]
    pub fn cc_collection(&self) -> &PhotoCollection {
        &self.cc_received
    }

    /// The photo coverage obtained by the command center so far.
    #[must_use]
    pub fn cc_coverage(&self) -> Coverage {
        self.cc_profile.total()
    }

    /// Number of PoIs the command center has point-covered.
    #[must_use]
    pub fn cc_covered_pois(&self) -> usize {
        self.cc_profile.covered_count()
    }

    /// The fault-injection state of this run (for inspecting the active
    /// [`FaultConfig`](crate::FaultConfig) and the running counters).
    #[must_use]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Bytes the running hook's link can still carry (0 when none is
    /// open).
    #[must_use]
    pub fn bytes_left(&self) -> u64 {
        match self.link {
            Link::Contact { left, .. } | Link::Uplink { left, .. } => left,
            Link::Closed | Link::Generate(_) => 0,
        }
    }

    /// Transmits photo `id` from `src` to `dst` over the running contact.
    ///
    /// Refuses, in this order, when `(src, dst)` is not the contact's pair,
    /// `src` lacks the photo, `dst` already holds it, the link has too few
    /// bytes left, or `dst` has no room. Otherwise charges the photo's
    /// bytes, rolls its fate once, and stores it at `dst` if it arrived
    /// intact; lost and corrupt transmissions burn the bytes and store
    /// nothing.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that stopped the transmission.
    pub fn send(&mut self, src: NodeId, dst: NodeId, id: PhotoId) -> Result<TransferFate, Refusal> {
        let Link::Contact { a, b, left } = self.link else {
            return Err(Refusal::OffLink);
        };
        if (src, dst) != (a, b) && (src, dst) != (b, a) {
            return Err(Refusal::OffLink);
        }
        let photo = *self.collections[src.index()]
            .get(id)
            .ok_or(Refusal::NotHeld)?;
        if self.collections[dst.index()].contains(id) {
            return Err(Refusal::AlreadyHeld);
        }
        if photo.size > left {
            return Err(Refusal::NoBudget);
        }
        if !self.has_room(dst, photo.size) {
            return Err(Refusal::NoRoom);
        }
        self.link = Link::Contact {
            a,
            b,
            left: left - photo.size,
        };
        let fate = self.faults.roll_transfer();
        if fate.arrived() {
            self.collections[dst.index()].insert(photo);
        }
        Ok(fate)
    }

    /// Uploads photo `id` from `node` over the running uplink window.
    ///
    /// Refuses, in this order, when `node` is not the window's node, lacks
    /// the photo, or the window has too few bytes left. Otherwise charges
    /// the photo's bytes (to the window and to
    /// [`uploaded_bytes`](Self::uploaded_bytes)), rolls its fate once, and
    /// delivers it if it arrived intact. A photo the command center already
    /// holds is sent all the same — the node cannot know — and comes back
    /// [`Duplicate`](UploadOutcome::Duplicate). The local copy stays; drop
    /// it with [`evict`](Self::evict) once the outcome is
    /// [`acked`](UploadOutcome::acked).
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that stopped the upload.
    pub fn upload(&mut self, node: NodeId, id: PhotoId) -> Result<UploadOutcome, Refusal> {
        let Link::Uplink { node: up, left } = self.link else {
            return Err(Refusal::OffLink);
        };
        if node != up {
            return Err(Refusal::OffLink);
        }
        let photo = *self.collections[node.index()]
            .get(id)
            .ok_or(Refusal::NotHeld)?;
        if photo.size > left {
            return Err(Refusal::NoBudget);
        }
        self.link = Link::Uplink {
            node,
            left: left - photo.size,
        };
        self.uploaded_bytes += photo.size;
        Ok(match self.faults.roll_transfer() {
            TransferFate::Lost => UploadOutcome::Lost,
            TransferFate::Corrupt => UploadOutcome::Corrupt,
            TransferFate::Intact => {
                if self.deliver(photo) {
                    UploadOutcome::Delivered
                } else {
                    UploadOutcome::Duplicate
                }
            }
        })
    }

    /// Drops photo `id` from `node`'s storage. Returns `false`, changing
    /// nothing, when `node` is not one of the running hook's nodes or does
    /// not hold the photo.
    pub fn evict(&mut self, node: NodeId, id: PhotoId) -> bool {
        let on_link = match self.link {
            Link::Closed => false,
            Link::Generate(n) | Link::Uplink { node: n, .. } => n == node,
            Link::Contact { a, b, .. } => node == a || node == b,
        };
        on_link && self.collections[node.index()].remove(id).is_some()
    }

    /// Delivers a photo to the command center. Returns `false` if it was
    /// already delivered.
    pub(crate) fn deliver(&mut self, photo: Photo) -> bool {
        if self.cc_received.insert(photo) {
            self.cc_profile.add(&photo.meta);
            let latency = (self.now - photo.taken_at).max(0.0);
            self.latency_sum += latency;
            let t = self.now;
            self.tracer.emit_with(|| TraceEvent::Delivered {
                t,
                photo: photo.id.0,
                latency_hours: latency / 3600.0,
            });
            true
        } else {
            false
        }
    }

    /// Mean capture-to-delivery latency of delivered photos, seconds
    /// (0 when nothing has been delivered).
    #[must_use]
    pub fn mean_delivery_latency(&self) -> f64 {
        let n = self.cc_received.len();
        if n == 0 {
            0.0
        } else {
            self.latency_sum / n as f64
        }
    }

    /// PROPHET delivery predictability of `node` towards the command
    /// center at the current time.
    #[must_use]
    pub fn delivery_prob(&self, node: NodeId) -> f64 {
        self.prophet
            .predictability(node, self.cc_prophet_id, self.now)
    }

    /// The PROPHET node id representing the command center.
    #[must_use]
    pub fn command_center_id(&self) -> NodeId {
        self.cc_prophet_id
    }

    /// Whether `node` has a direct uplink to the command center.
    #[must_use]
    pub fn is_gateway(&self, node: NodeId) -> bool {
        self.gateways.contains(&node)
    }

    /// The gateway set.
    #[must_use]
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// Total bytes sent over uplinks so far: every
    /// [`upload`](Self::upload) that was not refused, lost and duplicate
    /// ones included.
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }

    /// Accounts bytes spent exchanging *metadata* — the paper argues
    /// metadata is "easy to transmit, store, and analyze"; this counter
    /// lets experiments verify that the overhead stays negligible next to
    /// photo payloads.
    pub fn note_metadata_bytes(&mut self, bytes: u64) {
        self.metadata_bytes += bytes;
    }

    /// Total metadata bytes exchanged so far.
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        self.metadata_bytes
    }

    /// Deterministic per-run random source for scheme decisions.
    pub fn rng(&mut self) -> &mut SchemeRng {
        &mut self.rng
    }

    /// Whether a [`TraceSink`](crate::TraceSink) is attached to this run.
    ///
    /// Schemes should guard any non-trivial event construction (cloning
    /// photo-id lists, …) behind this so untraced runs pay nothing.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records one trace event (dropped silently when no sink is
    /// attached — pair with [`trace_enabled`](Self::trace_enabled) to
    /// skip construction entirely).
    ///
    /// Emission must stay *read-only*: build events from observed state,
    /// never consume [`rng`](Self::rng) or mutate the world for one —
    /// the determinism contract requires byte-identical results with
    /// tracing on or off.
    pub fn trace(&mut self, event: TraceEvent) {
        self.tracer.emit_with(|| event);
    }
}
