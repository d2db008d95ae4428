//! Crash-consistent sweep journal: an append-only JSONL manifest that
//! survives `SIGKILL` mid-batch.
//!
//! The write protocol keeps the journal recoverable after a crash at any
//! byte position:
//!
//! * One self-contained JSON object per line; the first line is a
//!   [`Header`](JournalLine::Header) carrying the spec fingerprint, so a
//!   resume against an edited spec is rejected instead of silently
//!   merging incompatible results.
//! * Every line is flushed (and `sync_all`ed when durability is
//!   requested) before the supervisor schedules more work, so a killed
//!   process loses **at most the line being written**.
//! * On resume, a torn final line (no trailing newline, or an incomplete
//!   JSON object) is detected and dropped; a torn line anywhere *else* is
//!   real corruption and rejected. The repaired journal is rewritten via
//!   write-to-temp + atomic rename before new entries are appended, so a
//!   second crash during resume cannot compound the damage.
//!
//! Completed cells store their full [`SimResult`], which makes resume
//! trivially byte-identical: the merged report is assembled from journal
//! results plus freshly run cells, and determinism guarantees a rerun
//! cell would have produced exactly the journaled bytes anyway. Failed
//! cells are journaled for attribution but **not** skipped on resume — a
//! crash environment may have caused them, and deterministic failures
//! simply fail identically again.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use super::{CellFailure, CellId, CellState};
use crate::SimResult;

/// Journal format version (bumped on incompatible changes).
pub const JOURNAL_VERSION: u32 = 1;

/// One line of the journal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalLine {
    /// First line of every journal.
    Header {
        /// Format version.
        version: u32,
        /// Fingerprint of the sweep file this journal belongs to.
        fingerprint: u64,
        /// Total cells in the sweep grid.
        cells: u64,
    },
    /// A cell completed with this result.
    Done {
        /// Which cell.
        cell: CellId,
        /// Its full deterministic result.
        result: SimResult,
    },
    /// A cell failed (attribution only; failed cells rerun on resume).
    Failed {
        /// The failure record.
        failure: CellFailure,
    },
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A non-final line did not parse — the journal is corrupt beyond
    /// torn-tail recovery.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The first line is not a [`JournalLine::Header`].
    MissingHeader,
    /// The journal's fingerprint does not match the spec being resumed.
    FingerprintMismatch {
        /// Fingerprint stored in the journal.
        journal: u64,
        /// Fingerprint of the spec on disk.
        spec: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal IO: {e}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::MissingHeader => write!(f, "journal has no header line"),
            JournalError::FingerprintMismatch { journal, spec } => write!(
                f,
                "journal was written for a different spec \
                 (journal fingerprint {journal:#018x}, spec {spec:#018x}); \
                 delete the journal or restore the original spec"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What a loaded journal knows about a previous (possibly killed) run.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Spec fingerprint from the header.
    pub fingerprint: u64,
    /// Total cells recorded in the header.
    pub cells: u64,
    /// Completed cells with their journaled results (these are skipped
    /// on resume).
    pub done: BTreeMap<CellId, SimResult>,
    /// Failure records from the previous run (rerun on resume).
    pub failed: Vec<CellFailure>,
    /// Whether a torn final line was detected and dropped.
    pub torn_tail: bool,
}

/// Parses journal text, tolerating (and flagging) a torn final line.
fn parse_lines(text: &str) -> Result<(Vec<JournalLine>, bool), JournalError> {
    let mut lines = Vec::new();
    let mut torn_tail = false;
    // A crash can cut the file anywhere, so only a *final* unterminated
    // or unparsable fragment is recoverable.
    let ends_complete = text.is_empty() || text.ends_with('\n');
    let raw: Vec<&str> = text.lines().collect();
    for (i, line) in raw.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let is_last = i + 1 == raw.len();
        match serde_json::from_str::<JournalLine>(line) {
            Ok(parsed) => {
                if is_last && !ends_complete {
                    // Parses but was never newline-terminated: the write
                    // may still have been cut inside a value that happens
                    // to parse (e.g. a truncated number). Drop it — the
                    // cell reruns deterministically.
                    torn_tail = true;
                } else {
                    lines.push(parsed);
                }
            }
            Err(e) if is_last => {
                torn_tail = true;
                let _ = e;
            }
            Err(e) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    message: e.to_string(),
                })
            }
        }
    }
    Ok((lines, torn_tail))
}

/// Loads a journal for resume, verifying it belongs to `spec_fingerprint`.
pub fn load(path: &Path, spec_fingerprint: u64) -> Result<ResumeState, JournalError> {
    let text = std::fs::read_to_string(path)?;
    let (lines, torn_tail) = parse_lines(&text)?;
    let mut it = lines.into_iter();
    let Some(JournalLine::Header {
        version: _,
        fingerprint,
        cells,
    }) = it.next()
    else {
        return Err(JournalError::MissingHeader);
    };
    if fingerprint != spec_fingerprint {
        return Err(JournalError::FingerprintMismatch {
            journal: fingerprint,
            spec: spec_fingerprint,
        });
    }
    let mut state = ResumeState {
        fingerprint,
        cells,
        torn_tail,
        ..ResumeState::default()
    };
    for line in it {
        match line {
            JournalLine::Header { .. } => {
                // A second header means two runs were interleaved into one
                // file — treat as corruption.
                return Err(JournalError::Corrupt {
                    line: 0,
                    message: "duplicate header".into(),
                });
            }
            JournalLine::Done { cell, result } => {
                state.done.insert(cell, result);
            }
            JournalLine::Failed { failure } => state.failed.push(failure),
        }
    }
    Ok(state)
}

/// The append-side handle: writes one line per resolved cell, flushed
/// (and optionally fsynced) immediately.
#[derive(Debug)]
pub struct Journal {
    out: BufWriter<std::fs::File>,
    sync: bool,
}

impl Journal {
    /// Creates a fresh journal (truncating any previous one) and writes
    /// the header.
    pub fn create(
        path: &Path,
        spec_fingerprint: u64,
        cells: u64,
        sync: bool,
    ) -> std::io::Result<Self> {
        let mut journal = Journal {
            out: BufWriter::new(std::fs::File::create(path)?),
            sync,
        };
        journal.write_line(&JournalLine::Header {
            version: JOURNAL_VERSION,
            fingerprint: spec_fingerprint,
            cells,
        })?;
        Ok(journal)
    }

    /// Reopens a journal for resume: rewrites the repaired content
    /// (header + surviving lines from `state`) to a temp file, atomically
    /// renames it over `path`, and returns an append handle.
    ///
    /// The rewrite heals a torn tail in place — after a second crash the
    /// journal is still either the old repaired file or the new one,
    /// never a mix.
    pub fn resume(path: &Path, state: &ResumeState, sync: bool) -> std::io::Result<Self> {
        let tmp = tmp_sibling(path);
        {
            let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
            let mut write = |line: &JournalLine| -> std::io::Result<()> {
                let text =
                    serde_json::to_string(line).expect("journal line serialization is infallible");
                writeln!(out, "{text}")
            };
            write(&JournalLine::Header {
                version: JOURNAL_VERSION,
                fingerprint: state.fingerprint,
                cells: state.cells,
            })?;
            for (cell, result) in &state.done {
                write(&JournalLine::Done {
                    cell: cell.clone(),
                    result: result.clone(),
                })?;
            }
            // Failure records are dropped on purpose: their cells rerun
            // now, and stale attribution would shadow the fresh outcome.
            out.flush()?;
            if sync {
                out.get_ref().sync_all()?;
            }
        }
        std::fs::rename(&tmp, path)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            out: BufWriter::new(file),
            sync,
        })
    }

    fn write_line(&mut self, line: &JournalLine) -> std::io::Result<()> {
        let text = serde_json::to_string(line).expect("journal line serialization is infallible");
        writeln!(self.out, "{text}")?;
        self.out.flush()?;
        if self.sync {
            self.out.get_ref().sync_all()?;
        }
        Ok(())
    }

    /// Records one resolved cell.
    pub fn record(&mut self, cell: &CellId, state: &CellState) -> std::io::Result<()> {
        let line = match state {
            CellState::Done(result) => JournalLine::Done {
                cell: cell.clone(),
                result: result.clone(),
            },
            CellState::Failed(failure) => JournalLine::Failed {
                failure: failure.clone(),
            },
        };
        self.write_line(&line)
    }
}

/// A temp-file path next to `path` (same filesystem, so rename is
/// atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `content` to `path` via write-to-temp + atomic rename: readers
/// (and crashes) see either the old file or the complete new one.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        out.write_all(content.as_bytes())?;
        out.flush()?;
        out.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// FNV-1a 64-bit fingerprint of a sweep file's raw text. Stable across
/// platforms and builds; any byte change to the file invalidates a
/// resume.
#[must_use]
pub fn fingerprint(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::super::FailureKind;
    use super::*;
    use crate::MetricSample;

    fn cell(seed: u64) -> CellId {
        CellId {
            scheme: "ours".into(),
            variant: "base".into(),
            seed,
        }
    }

    fn result(seed: u64) -> SimResult {
        SimResult {
            scheme: "ours".into(),
            seed,
            samples: vec![MetricSample {
                t_hours: 1.5,
                delivered_photos: seed,
                ..MetricSample::default()
            }],
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("photodtn-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_create_record_load() {
        let path = tmp_path("roundtrip.jsonl");
        let fp = fingerprint("spec text");
        let mut journal = Journal::create(&path, fp, 3, false).unwrap();
        journal
            .record(&cell(1), &CellState::Done(result(1)))
            .unwrap();
        journal
            .record(
                &cell(2),
                &CellState::Failed(CellFailure {
                    cell: cell(2),
                    kind: FailureKind::Panic,
                    message: "boom".into(),
                    attempts: 1,
                }),
            )
            .unwrap();
        drop(journal);

        let state = load(&path, fp).unwrap();
        assert_eq!(state.cells, 3);
        assert!(!state.torn_tail);
        assert_eq!(state.done.len(), 1);
        assert_eq!(state.done.get(&cell(1)).unwrap().seed, 1);
        assert_eq!(state.failed.len(), 1);
        assert_eq!(state.failed[0].kind, FailureKind::Panic);
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let path = tmp_path("torn.jsonl");
        let fp = fingerprint("spec");
        let mut journal = Journal::create(&path, fp, 2, false).unwrap();
        journal
            .record(&cell(1), &CellState::Done(result(1)))
            .unwrap();
        journal
            .record(&cell(2), &CellState::Done(result(2)))
            .unwrap();
        drop(journal);

        // Simulate a SIGKILL mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 17;
        std::fs::write(&path, &text[..cut]).unwrap();

        let state = load(&path, fp).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.done.len(), 1, "torn cell must rerun");
        assert!(state.done.contains_key(&cell(1)));
    }

    #[test]
    fn unterminated_but_parsable_tail_is_still_dropped() {
        let path = tmp_path("unterminated.jsonl");
        let fp = fingerprint("spec");
        let mut journal = Journal::create(&path, fp, 2, false).unwrap();
        journal
            .record(&cell(1), &CellState::Done(result(1)))
            .unwrap();
        journal
            .record(&cell(2), &CellState::Done(result(2)))
            .unwrap();
        drop(journal);

        // Chop only the trailing newline: the last line parses, but the
        // write was provably incomplete.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 1]).unwrap();

        let state = load(&path, fp).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.done.len(), 1);
    }

    #[test]
    fn mid_file_corruption_is_rejected() {
        let path = tmp_path("corrupt.jsonl");
        let fp = fingerprint("spec");
        let mut journal = Journal::create(&path, fp, 2, false).unwrap();
        journal
            .record(&cell(1), &CellState::Done(result(1)))
            .unwrap();
        journal
            .record(&cell(2), &CellState::Done(result(2)))
            .unwrap();
        drop(journal);

        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 1 {
                    l[..l.len() / 2].to_string()
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&path, corrupted.join("\n") + "\n").unwrap();

        match load(&path, fp) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let path = tmp_path("mismatch.jsonl");
        let journal = Journal::create(&path, fingerprint("old spec"), 1, false).unwrap();
        drop(journal);
        match load(&path, fingerprint("edited spec")) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_heals_torn_tail_atomically() {
        let path = tmp_path("heal.jsonl");
        let fp = fingerprint("spec");
        let mut journal = Journal::create(&path, fp, 3, false).unwrap();
        journal
            .record(&cell(1), &CellState::Done(result(1)))
            .unwrap();
        journal
            .record(&cell(2), &CellState::Done(result(2)))
            .unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();

        let state = load(&path, fp).unwrap();
        assert!(state.torn_tail);
        let mut journal = Journal::resume(&path, &state, false).unwrap();
        journal
            .record(&cell(2), &CellState::Done(result(2)))
            .unwrap();
        journal
            .record(&cell(3), &CellState::Done(result(3)))
            .unwrap();
        drop(journal);

        // The healed journal must load cleanly with all three cells.
        let state = load(&path, fp).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(state.done.len(), 3);
    }

    #[test]
    fn empty_or_headerless_journals_are_rejected() {
        let path = tmp_path("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(load(&path, 1), Err(JournalError::MissingHeader)));
        std::fs::write(&path, "{\"Done\":{}}\n{\"Done\":{}}\n").unwrap();
        assert!(matches!(
            load(&path, 1),
            Err(JournalError::Corrupt { .. }) | Err(JournalError::MissingHeader)
        ));
    }

    #[test]
    fn write_atomic_replaces_content() {
        let path = tmp_path("atomic.txt");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!tmp_sibling(&path).exists(), "temp file renamed away");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        // Pinned value: resumes must work across builds.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
    }
}
