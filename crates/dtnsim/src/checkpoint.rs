//! Mid-run checkpoint/restore: crash-consistent snapshots of a single
//! long simulation, resumable to a byte-identical
//! [`SimResult`](crate::SimResult).
//!
//! PR 6 made the *sweep grid* crash-tolerant at cell granularity; this
//! module makes one big cell durable *within* the run. A snapshot
//! captures exactly the state that cannot be re-derived from
//! `(config, trace, seed)`:
//!
//! * the run cursor: next event index, simulated clock, sample schedule;
//! * per-node photo buffers and the command center's collection/profile;
//! * the live PROPHET tables;
//! * fault-injection state (`down` mask + counters — the fault RNG
//!   itself needs nothing, because `FaultState::begin_event` re-keys
//!   it from the event sequence number at every event boundary, and
//!   snapshots are only ever cut at event boundaries);
//! * the scheme-visible RNG position (a draw count; the stream is a
//!   pure function of the run seed);
//! * metric samples and accumulators (serialized bit-exact rather than
//!   recomputed, so `f64` accumulation order cannot drift);
//! * the trace sequence position, so a resumed `--trace-out` run can
//!   truncate-and-append into the same JSONL file;
//! * the scheme's global protocol state
//!   ([`Scheme::export_global_state`]).
//!
//! Everything *derived* — the coverage-table cache, selection engines,
//! upload bases, the spatial grid — is deliberately rebuilt, not
//! serialized (DESIGN.md decision #14): those structures carry
//! byte-identity contracts ("cold caches must not influence results")
//! that the cache determinism suites already pin.
//!
//! # On-disk format
//!
//! One snapshot is one file, written with the journal's
//! write-temp-fsync-rename discipline ([`journal::write_atomic`]):
//!
//! ```text
//! photodtn-ckpt v3 fp=<fnv64 hex> crc=<fnv64 hex> len=<payload bytes>
//! <one-line JSON payload>
//! ```
//!
//! `fp` fingerprints the world — `(config, trace, seed, scheme)` — so a
//! snapshot can never silently resume into a different run; `crc` and
//! `len` detect torn tails and bit flips. Rotation keeps the last K
//! snapshots (`ckpt-<event index>.snap`); the loader walks newest-first
//! and falls back on any corrupt file. Every load failure is a typed
//! [`CheckpointError`] — corrupted snapshots must never panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};

use photodtn_contacts::ContactTrace;
use photodtn_coverage::{CoverageProfile, PhotoCollection};
use photodtn_prophet::ProphetRouter;

use crate::faults::FaultStats;
use crate::supervisor::journal;
use crate::{MetricSample, RunStats, Scheme, SimConfig, SimCtx};

/// Snapshot format version; bumped on any change to the layout or to
/// what [`run_fingerprint`] hashes, so old readers reject new files (and
/// vice versa) with a typed [`CheckpointError::UnsupportedVersion`]
/// rather than a fingerprint mismatch that would call them a different
/// run (v2: the serialized config no longer has `shards`; v3: a PROPHET
/// table is a sequence of `[destination, entry]` pairs sorted by
/// destination, no longer a map).
pub const FORMAT_VERSION: u64 = 3;

const MAGIC: &str = "photodtn-ckpt";

/// How often a checkpointed run snapshots, where, and how many rotations
/// it keeps.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Snapshot directory (created on first write).
    pub dir: PathBuf,
    /// Snapshot cadence in *simulated* seconds. Non-positive or
    /// non-finite disables periodic snapshots; a stop request still
    /// writes a final one.
    pub every: f64,
    /// Rotation depth: how many snapshots to keep (at least 1).
    pub keep: usize,
    /// World fingerprint from [`run_fingerprint`]; stamped into every
    /// snapshot header and verified on load.
    pub fingerprint: u64,
    /// Human-readable run description, embedded in the payload so a
    /// fingerprint mismatch can tell the user what the snapshot was
    /// actually written for.
    pub world: String,
    /// Test hook: stop the run (after writing a snapshot) at the first
    /// event at or past this simulated time — a deterministic stand-in
    /// for a crash or kill.
    pub halt_after: Option<f64>,
}

impl CheckpointPolicy {
    /// A policy with the default rotation depth (3) and no halt hook.
    #[must_use]
    pub fn new(
        dir: impl Into<PathBuf>,
        every_sim_secs: f64,
        fingerprint: u64,
        world: impl Into<String>,
    ) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every: every_sim_secs,
            keep: 3,
            fingerprint,
            world: world.into(),
            halt_after: None,
        }
    }

    /// Sets the rotation depth (clamped to at least 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Sets the crash-simulation halt time (see
    /// [`halt_after`](Self::halt_after)).
    #[must_use]
    pub fn with_halt_after(mut self, t_sim_secs: f64) -> Self {
        self.halt_after = Some(t_sim_secs);
        self
    }
}

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure reading or writing `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file does not start with a well-formed snapshot header.
    BadHeader {
        /// The snapshot file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The header is well-formed but names a format version this build
    /// does not read.
    UnsupportedVersion {
        /// The snapshot file.
        path: PathBuf,
        /// The version the file claims.
        version: u64,
    },
    /// Torn tail, bit flip, or truncation: length/checksum mismatch or
    /// undecodable payload.
    Corrupt {
        /// The snapshot file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The snapshot was written for a different `(config, trace, seed,
    /// scheme)` world.
    FingerprintMismatch {
        /// The snapshot file.
        path: PathBuf,
        /// The fingerprint of the run attempting to resume.
        expected: u64,
        /// The fingerprint stamped in the snapshot.
        found: u64,
        /// The snapshot's own description of the world it belongs to.
        world: String,
    },
    /// The payload does not fit the world it is being restored into
    /// (wrong node count, event index past the schedule, wrong scheme).
    StateShape {
        /// What does not fit.
        detail: String,
    },
    /// The directory holds no loadable snapshot.
    NothingToResume {
        /// The directory searched.
        dir: PathBuf,
        /// Why the newest candidate (if any) was rejected.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CheckpointError::BadHeader { path, detail } => {
                write!(f, "{}: bad snapshot header: {detail}", path.display())
            }
            CheckpointError::UnsupportedVersion { path, version } => write!(
                f,
                "{}: snapshot format v{version} (this build reads v{FORMAT_VERSION})",
                path.display()
            ),
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "{}: corrupt snapshot: {detail}", path.display())
            }
            CheckpointError::FingerprintMismatch {
                path,
                expected,
                found,
                world,
            } => write!(
                f,
                "{}: snapshot belongs to a different run (fingerprint \
                 {found:016x}, this invocation is {expected:016x}); it was \
                 written for: {world}. Did you mean to rerun with those \
                 flags? (or drop --resume-from for a fresh run)",
                path.display()
            ),
            CheckpointError::StateShape { detail } => {
                write!(f, "snapshot does not fit this world: {detail}")
            }
            CheckpointError::NothingToResume { dir, detail } => {
                write!(f, "{}: nothing to resume: {detail}", dir.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The serialized state of a paused run — everything
/// [`Simulation::run_instrumented`](crate::Simulation::run_instrumented)
/// needs to continue from an event boundary, and nothing it can rebuild
/// from `(config, trace, seed)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckpointPayload {
    /// Index of the next unprocessed event in the ordered queue
    /// (events `0..next_event_idx` are fully applied).
    pub next_event_idx: u64,
    /// Simulated clock after the last processed event.
    pub now: f64,
    /// The next sample threshold (bit-exact, so the resumed sample
    /// schedule cannot drift).
    pub next_sample: f64,
    /// Samples collected so far.
    pub samples: Vec<MetricSample>,
    /// Per-participant photo buffers.
    pub collections: Vec<PhotoCollection>,
    /// The command center's delivered-photo collection.
    pub cc_received: PhotoCollection,
    /// The command center's incremental coverage profile (serialized
    /// rather than rebuilt: its `f64` accumulators must keep their exact
    /// accumulation history).
    pub cc_profile: CoverageProfile,
    /// The live PROPHET router (tables for every participant plus the
    /// command center).
    pub prophet: ProphetRouter,
    /// Total uplink bytes so far.
    pub uploaded_bytes: u64,
    /// Capture-to-delivery latency accumulator (seconds).
    pub latency_sum: f64,
    /// Metadata bytes exchanged so far.
    pub metadata_bytes: u64,
    /// 64-bit words drawn from the scheme-visible RNG so far; restore
    /// re-derives the stream from the seed and fast-forwards.
    pub rng_words: u64,
    /// Which participants are currently crashed.
    pub fault_down: Vec<bool>,
    /// Fault counters so far.
    pub fault_stats: FaultStats,
    /// Trace events emitted so far (JSONL line count for resume-append).
    pub trace_seq: u64,
    /// Events processed so far (side-channel stats continuity).
    pub events_done: u64,
    /// Contact events processed so far.
    pub contacts_done: u64,
    /// Uplink windows processed so far.
    pub uploads_done: u64,
    /// Name of the scheme that wrote the snapshot.
    pub scheme: String,
    /// The scheme's global protocol state
    /// ([`Scheme::export_global_state`]), as a nested JSON blob.
    pub scheme_state: String,
    /// Human-readable description of the run (for error messages).
    pub world: String,
}

/// Fingerprints one run identity — `(config, trace, seed, scheme)` — so
/// snapshots refuse to resume into a different world. Uses the sweep
/// journal's FNV-1a over the serialized config and trace; computed once
/// per invocation, not per snapshot.
#[must_use]
pub fn run_fingerprint(config: &SimConfig, trace: &ContactTrace, seed: u64, scheme: &str) -> u64 {
    // The cache capacity doesn't shape the simulated world — differently
    // cached runs are byte-identical by contract — so it is normalized
    // out and snapshots stay portable across cache sizes.
    let mut config = config.clone();
    config.coverage_cache_capacity = SimConfig::mit_default().coverage_cache_capacity;
    let config = &config;
    let config_json = serde_json::to_string(config).expect("SimConfig serialization is infallible");
    let trace_json =
        serde_json::to_string(trace).expect("ContactTrace serialization is infallible");
    journal::fingerprint(&format!(
        "{MAGIC}-v{FORMAT_VERSION}|{scheme}|{seed}|{config_json}|{trace_json}"
    ))
}

/// Writes one snapshot atomically into `dir` and prunes rotations beyond
/// `keep`.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the directory cannot be created or the
/// atomic write fails. Rotation pruning failures are ignored (stale
/// snapshots are harmless; the next write retries).
pub fn save(
    dir: &Path,
    fingerprint: u64,
    payload: &CheckpointPayload,
    keep: usize,
) -> Result<PathBuf, CheckpointError> {
    std::fs::create_dir_all(dir).map_err(|source| CheckpointError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let json =
        serde_json::to_string(payload).expect("snapshot payload serialization is infallible");
    let crc = journal::fingerprint(&json);
    let content = format!(
        "{MAGIC} v{FORMAT_VERSION} fp={fingerprint:016x} crc={crc:016x} len={}\n{json}\n",
        json.len()
    );
    let path = dir.join(format!("ckpt-{:012}.snap", payload.next_event_idx));
    journal::write_atomic(&path, &content).map_err(|source| CheckpointError::Io {
        path: path.clone(),
        source,
    })?;
    if let Ok(mut files) = snapshot_files(dir) {
        while files.len() > keep.max(1) {
            let _ = std::fs::remove_file(files.remove(0));
        }
    }
    Ok(path)
}

/// The `ckpt-*.snap` files in `dir`, oldest first (the zero-padded event
/// index makes lexicographic order chronological).
fn snapshot_files(dir: &Path) -> Result<Vec<PathBuf>, CheckpointError> {
    let entries = std::fs::read_dir(dir).map_err(|source| CheckpointError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".snap"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Loads and verifies one snapshot file.
///
/// # Errors
///
/// Every failure mode is typed — I/O, bad header, unsupported version,
/// corruption (length/checksum/decode), fingerprint mismatch. This
/// function must never panic on untrusted bytes; the corruption property
/// test feeds it every possible truncation and random bit flips.
pub fn load_file(
    path: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<CheckpointPayload, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let bad = |detail: &str| CheckpointError::BadHeader {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let Some((header, rest)) = text.split_once('\n') else {
        return Err(bad("missing header line"));
    };
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(MAGIC) {
        return Err(bad("not a photodtn snapshot"));
    }
    let version: u64 = tokens
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("missing version token"))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let mut field = |name: &str| -> Result<u64, CheckpointError> {
        let token = tokens.next().ok_or_else(|| bad("truncated header"))?;
        let value = token
            .strip_prefix(name)
            .and_then(|v| v.strip_prefix('='))
            .ok_or_else(|| bad(&format!("expected {name}= token, got {token:?}")))?;
        let radix = if name == "len" { 10 } else { 16 };
        u64::from_str_radix(value, radix).map_err(|_| bad(&format!("unparseable {name}= value")))
    };
    let fp = field("fp")?;
    let crc = field("crc")?;
    let len = field("len")? as usize;
    // The payload is exactly `len` bytes followed by a newline; anything
    // shorter is a torn tail, anything longer is foreign bytes.
    if rest.len() < len {
        return Err(corrupt(format!(
            "payload truncated ({} of {len} bytes)",
            rest.len()
        )));
    }
    let payload_text = &rest[..len];
    if rest[len..] != *"\n" {
        return Err(corrupt("trailing bytes after payload".to_string()));
    }
    if journal::fingerprint(payload_text) != crc {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    let payload: CheckpointPayload =
        serde_json::from_str(payload_text).map_err(|e| corrupt(format!("undecodable: {e}")))?;
    if let Some(expected) = expected_fingerprint {
        if fp != expected {
            return Err(CheckpointError::FingerprintMismatch {
                path: path.to_path_buf(),
                expected,
                found: fp,
                world: payload.world,
            });
        }
    }
    Ok(payload)
}

/// Loads the newest loadable snapshot in `dir`, falling back through the
/// rotation on corruption.
///
/// A fingerprint mismatch does **not** fall back: every rotation in a
/// directory belongs to the same world, so an older snapshot would
/// mismatch too — and silently resuming "some other run" is exactly what
/// the fingerprint exists to prevent.
///
/// # Errors
///
/// [`CheckpointError::NothingToResume`] when no file loads;
/// [`CheckpointError::FingerprintMismatch`] as described above.
pub fn load_latest(
    dir: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<(CheckpointPayload, PathBuf), CheckpointError> {
    let files = snapshot_files(dir)?;
    let mut last_error: Option<CheckpointError> = None;
    for path in files.iter().rev() {
        match load_file(path, expected_fingerprint) {
            Ok(payload) => return Ok((payload, path.clone())),
            Err(e @ CheckpointError::FingerprintMismatch { .. }) => return Err(e),
            Err(e) => last_error = last_error.or(Some(e)),
        }
    }
    Err(CheckpointError::NothingToResume {
        dir: dir.to_path_buf(),
        detail: match last_error {
            Some(e) => format!("newest candidate rejected: {e}"),
            None => "no snapshot files".to_string(),
        },
    })
}

// ---------------------------------------------------------------------
// Graceful-stop flag
// ---------------------------------------------------------------------

static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Requests a graceful stop of the running checkpointed simulation: at
/// the next event boundary it writes a final snapshot and returns with
/// [`RunStats::interrupted`](crate::RunStats::interrupted) set.
///
/// Only a relaxed atomic store — safe to call from a signal handler.
/// Runs without a checkpoint policy never consult the flag (the disabled
/// hot path stays untouched).
pub fn request_stop() {
    STOP_REQUESTED.store(true, Ordering::Release);
}

/// Whether a graceful stop has been requested.
#[must_use]
pub fn stop_requested() -> bool {
    STOP_REQUESTED.load(Ordering::Acquire)
}

/// Clears a pending stop request (call before starting a new run).
pub fn reset_stop() {
    STOP_REQUESTED.store(false, Ordering::Release);
}

// ---------------------------------------------------------------------
// Engine-side capture and periodic writer
// ---------------------------------------------------------------------

/// Captures the full resumable state at an event boundary: events
/// `0..next_event_idx` applied, sample thresholds `< next_sample`
/// drained.
#[allow(clippy::too_many_arguments)]
pub(crate) fn capture(
    ctx: &SimCtx,
    scheme_name: &str,
    scheme_state: String,
    next_event_idx: usize,
    samples: &[MetricSample],
    next_sample: f64,
    stats: &RunStats,
    world: &str,
) -> CheckpointPayload {
    CheckpointPayload {
        next_event_idx: next_event_idx as u64,
        now: ctx.now,
        next_sample,
        samples: samples.to_vec(),
        collections: ctx.collections.clone(),
        cc_received: ctx.cc_received.clone(),
        cc_profile: ctx.cc_profile.clone(),
        prophet: ctx.prophet.clone(),
        uploaded_bytes: ctx.uploaded_bytes,
        latency_sum: ctx.latency_sum,
        metadata_bytes: ctx.metadata_bytes,
        rng_words: ctx.rng.words_drawn(),
        fault_down: ctx.faults.down_snapshot(),
        fault_stats: *ctx.faults.stats(),
        trace_seq: ctx.tracer.seq(),
        events_done: stats.events,
        contacts_done: stats.contacts,
        uploads_done: stats.uploads,
        scheme: scheme_name.to_string(),
        scheme_state,
        world: world.to_string(),
    }
}

/// The engine's per-run checkpoint driver: decides at each event
/// boundary whether to snapshot and whether the run should stop.
pub(crate) struct Writer {
    policy: CheckpointPolicy,
    next_at: f64,
    /// Set once after warning that the scheme has no global-state
    /// export, so a long run does not spam stderr.
    disabled: bool,
}

impl Writer {
    /// `resumed_at` is the restored clock of a resumed run (0 for a
    /// fresh one): periodic snapshots continue from the next cadence
    /// boundary after it instead of rewriting history.
    pub(crate) fn new(policy: CheckpointPolicy, resumed_at: f64) -> Self {
        let mut next_at = if policy.every > 0.0 && policy.every.is_finite() {
            policy.every
        } else {
            f64::INFINITY
        };
        while next_at <= resumed_at {
            next_at += policy.every;
        }
        Writer {
            policy,
            next_at,
            disabled: false,
        }
    }

    /// Called at the top of the event loop, *before* the sample drain
    /// for the event at `idx`/`t`. Writes a snapshot when the cadence or
    /// a stop condition fires; returns `true` when the run should stop
    /// (graceful-stop request or the policy's halt hook).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe<S: Scheme + ?Sized>(
        &mut self,
        idx: usize,
        t: f64,
        ctx: &mut SimCtx,
        scheme: &S,
        samples: &[MetricSample],
        next_sample: f64,
        stats: &RunStats,
    ) -> bool {
        let stop = stop_requested() || self.policy.halt_after.is_some_and(|h| t >= h);
        if stop || t >= self.next_at {
            if !self.disabled {
                match scheme.export_global_state() {
                    Some(state) => {
                        let payload = capture(
                            ctx,
                            scheme.name(),
                            state,
                            idx,
                            samples,
                            next_sample,
                            stats,
                            &self.policy.world,
                        );
                        if let Err(e) = save(
                            &self.policy.dir,
                            self.policy.fingerprint,
                            &payload,
                            self.policy.keep,
                        ) {
                            eprintln!("checkpoint: write failed: {e}");
                        }
                        // Align trace durability with snapshot cadence: a
                        // kill right after this boundary must find every
                        // line the snapshot's trace_seq counts.
                        ctx.tracer.flush_sink();
                    }
                    None => {
                        eprintln!(
                            "checkpoint: scheme {:?} has no global-state export; \
                             checkpointing disabled for this run",
                            scheme.name()
                        );
                        self.disabled = true;
                    }
                }
            }
            if self.next_at.is_finite() {
                while self.next_at <= t {
                    self.next_at += self.policy.every;
                }
            }
        }
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> CheckpointPayload {
        CheckpointPayload {
            next_event_idx: 42,
            now: 1234.5,
            next_sample: 1800.0,
            samples: vec![MetricSample {
                t_hours: 0.5,
                point_coverage: 0.25,
                ..MetricSample::default()
            }],
            collections: vec![PhotoCollection::new(); 3],
            cc_received: PhotoCollection::new(),
            cc_profile: CoverageProfile::new(
                &photodtn_coverage::PoiList::new(vec![]),
                photodtn_coverage::CoverageParams::default(),
            ),
            prophet: ProphetRouter::new(4, photodtn_prophet::ProphetParams::paper_default()),
            uploaded_bytes: 99,
            latency_sum: 3.75,
            metadata_bytes: 12,
            rng_words: 0,
            fault_down: vec![false, true, false],
            fault_stats: FaultStats::default(),
            trace_seq: 7,
            events_done: 42,
            contacts_done: 11,
            uploads_done: 3,
            scheme: "ours".into(),
            scheme_state: "{}".into(),
            world: "test world".into(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("photodtn-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp("roundtrip");
        let p = payload();
        let path = save(&dir, 0xABCD, &p, 3).unwrap();
        let loaded = load_file(&path, Some(0xABCD)).unwrap();
        assert_eq!(loaded.next_event_idx, p.next_event_idx);
        assert_eq!(loaded.now, p.now);
        assert_eq!(loaded.samples, p.samples);
        assert_eq!(loaded.fault_down, p.fault_down);
        assert_eq!(loaded.scheme, "ours");
        let (latest, latest_path) = load_latest(&dir, Some(0xABCD)).unwrap();
        assert_eq!(latest.next_event_idx, 42);
        assert_eq!(latest_path, path);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_keeps_last_k() {
        let dir = tmp("rotation");
        for idx in [10u64, 20, 30, 40] {
            let mut p = payload();
            p.next_event_idx = idx;
            save(&dir, 1, &p, 2).unwrap();
        }
        let files = snapshot_files(&dir).unwrap();
        assert_eq!(files.len(), 2);
        let (latest, _) = load_latest(&dir, Some(1)).unwrap();
        assert_eq!(latest.next_event_idx, 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_ignores_execution_mechanics() {
        use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
        let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(6)
            .with_duration_hours(2.0)
            .generate(1);
        let base = SimConfig::mit_default();
        let fp = run_fingerprint(&base, &trace, 1, "ours");
        // Cache sizing never changes results, so snapshots written under
        // one capacity must resume under another.
        assert_eq!(
            fp,
            run_fingerprint(
                &base.clone().with_coverage_cache_capacity(7),
                &trace,
                1,
                "ours"
            )
        );
        // World-shaping knobs still bind.
        assert_ne!(
            fp,
            run_fingerprint(&base.clone().with_photos_per_hour(99.0), &trace, 1, "ours")
        );
    }

    #[test]
    fn fingerprint_mismatch_is_typed_and_does_not_fall_back() {
        let dir = tmp("fp");
        save(&dir, 7, &payload(), 3).unwrap();
        let err = load_latest(&dir, Some(8)).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::FingerprintMismatch {
                    expected: 8,
                    found: 7,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("test world"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_and_missing_dir_are_typed_errors() {
        let dir = tmp("empty");
        assert!(matches!(
            load_latest(&dir, None),
            Err(CheckpointError::Io { .. })
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            load_latest(&dir, None),
            Err(CheckpointError::NothingToResume { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_rotation_falls_back_to_older_snapshot() {
        let dir = tmp("fallback");
        let mut old = payload();
        old.next_event_idx = 10;
        save(&dir, 1, &old, 3).unwrap();
        let mut new = payload();
        new.next_event_idx = 20;
        let newest = save(&dir, 1, &new, 3).unwrap();
        // Tear the newest file's tail.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (loaded, path) = load_latest(&dir, Some(1)).unwrap();
        assert_eq!(loaded.next_event_idx, 10);
        assert!(path.to_str().unwrap().contains("ckpt-000000000010"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_is_rejected_cleanly() {
        let dir = tmp("version");
        let path = save(&dir, 1, &payload(), 3).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let older = FORMAT_VERSION - 1;
        let current = format!("{MAGIC} v{FORMAT_VERSION} ");
        assert!(text.starts_with(&current), "{text}");
        let downgraded = text.replacen(&current, &format!("{MAGIC} v{older} "), 1);
        std::fs::write(&path, downgraded).unwrap();
        assert!(matches!(
            load_file(&path, Some(1)),
            Err(CheckpointError::UnsupportedVersion { version, .. }) if version == older
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_flag_roundtrip() {
        reset_stop();
        assert!(!stop_requested());
        request_stop();
        assert!(stop_requested());
        reset_stop();
        assert!(!stop_requested());
    }
}
