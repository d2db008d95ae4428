//! `photodtn sweep` — crash-tolerant batch runs over a scenario's grid.
//!
//! The subcommand fans a scenario's (scheme × config-variant × seed)
//! grid ([`Scenario::plan`]) across the
//! supervisor ([`photodtn_sim::supervisor`]): panicking cells are
//! isolated, hung cells hit the `--cell-deadline` watchdog, transient
//! trace-IO failures retry with backoff, and every resolved cell is
//! journaled so `--resume` after a kill skips completed work and produces
//! a byte-identical merged report.
//!
//! Exit-code contract (stable, scriptable):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | every cell completed |
//! | 2    | bad spec / bad invocation (nothing ran) |
//! | 3    | partial failure: some cells failed, some completed |
//! | 4    | total failure: every cell failed |

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use photodtn_bench::{try_scheme_by_name, ALL_SCHEME_NAMES};
use photodtn_sim::supervisor::journal;
use photodtn_sim::{
    checkpoint, run_batch, BatchPolicy, BatchReport, CellError, CellFailure, CellId, CellState,
    CheckpointPolicy, Scenario, SimResult,
};

use crate::args::{Flags, Spec};

/// Every cell completed.
pub const EXIT_OK: u8 = 0;
/// The spec or invocation was invalid; nothing ran.
pub const EXIT_BAD_SPEC: u8 = 2;
/// Some cells failed, some completed (partial results written).
pub const EXIT_PARTIAL: u8 = 3;
/// Every cell failed.
pub const EXIT_TOTAL: u8 = 4;

const SPEC: Spec = Spec {
    values: &[
        "out",
        "journal",
        "workers",
        "cell-deadline",
        "retries",
        "backoff-ms",
        "cell-checkpoint",
    ],
    switches: &["resume", "sync", "quiet"],
};

/// The per-cell snapshot directory name: the cell id with filesystem-
/// hostile characters replaced, so every cell maps to a distinct,
/// portable path under `{journal}.ckpt/`.
fn cell_dir_name(cell: &CellId) -> String {
    cell.to_string()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "-_.=".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs the subcommand, printing its own errors; the return value is the
/// process exit code (see the module docs for the contract).
pub fn run(argv: &[String]) -> u8 {
    match execute(argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("photodtn sweep: {e}");
            EXIT_BAD_SPEC
        }
    }
}

fn execute(argv: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(argv, &SPEC)?;
    let [spec_path] = flags.positionals() else {
        return Err(
            "usage: photodtn sweep SCENARIO.toml [--out FILE] [--journal FILE] [--resume] \
             [--workers N] [--cell-deadline SECS] [--retries N] [--backoff-ms MS] \
             [--cell-checkpoint SIMSECS] [--sync] [--quiet]"
                .into(),
        );
    };
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
    let mut scenario = Scenario::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    if scenario.schemes == ["all"] {
        scenario.schemes = ALL_SCHEME_NAMES.iter().map(|s| (*s).to_string()).collect();
    }
    for scheme in &scenario.schemes {
        if try_scheme_by_name(scheme).is_none() {
            return Err(format!(
                "{spec_path}: unknown scheme {scheme:?} (known: {})",
                ALL_SCHEME_NAMES.join(", ")
            ));
        }
    }
    let plan = scenario.plan();

    let journal_path: PathBuf = flags
        .get("journal")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{spec_path}.journal")));
    let sync = flags.has("sync");
    let deadline = match flags.get("cell-deadline") {
        None => None,
        Some(_) => {
            let secs: f64 = flags.num("cell-deadline", 0.0)?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(format!(
                    "--cell-deadline must be a positive number of seconds, got {secs}"
                ));
            }
            Some(Duration::from_secs_f64(secs))
        }
    };
    let policy = BatchPolicy {
        workers: flags.num("workers", 0usize)?,
        deadline,
        // --retries counts *extra* attempts after the first.
        max_attempts: flags.num("retries", 2u32)?.saturating_add(1),
        backoff: Duration::from_millis(flags.num("backoff-ms", 100u64)?),
    };
    let cell_checkpoint: Option<f64> = match flags.get("cell-checkpoint") {
        None => None,
        Some(_) => {
            let secs: f64 = flags.num("cell-checkpoint", 0.0)?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(format!(
                    "--cell-checkpoint must be a positive number of simulated seconds, got {secs}"
                ));
            }
            Some(secs)
        }
    };

    // Journal: fresh, or resumed (healing a torn tail atomically).
    let (done, mut journal) = if flags.has("resume") {
        let state = journal::load(&journal_path, plan.fingerprint)
            .map_err(|e| format!("resume from {}: {e}", journal_path.display()))?;
        if state.torn_tail {
            eprintln!("sweep: dropped a torn journal tail (that cell will rerun)");
        }
        let journal = journal::Journal::resume(&journal_path, &state, sync)
            .map_err(|e| format!("rewriting {}: {e}", journal_path.display()))?;
        (state.done, journal)
    } else {
        let journal = journal::Journal::create(
            &journal_path,
            plan.fingerprint,
            plan.cells.len() as u64,
            sync,
        )
        .map_err(|e| format!("creating {}: {e}", journal_path.display()))?;
        (BTreeMap::new(), journal)
    };

    let remaining: Vec<CellId> = plan
        .cells
        .iter()
        .filter(|c| !done.contains_key(*c))
        .cloned()
        .collect();
    eprintln!(
        "sweep: {} cells ({} journaled, {} to run), journal at {}",
        plan.cells.len(),
        done.len(),
        remaining.len(),
        journal_path.display()
    );

    let plan_runner = Arc::new(plan);
    let ckpt_root: PathBuf = PathBuf::from(format!("{}.ckpt", journal_path.display()));
    let runner = {
        let plan = Arc::clone(&plan_runner);
        let ckpt_root = ckpt_root.clone();
        move |cell: &CellId| -> Result<SimResult, CellError> {
            let config = plan
                .config_of(&cell.variant)
                .expect("cells only name variants from the plan")
                .clone();
            let trace = plan.scenario().build_trace(cell.seed)?;
            let mut scheme =
                try_scheme_by_name(&cell.scheme).expect("schemes validated before the batch");
            // World building panics on a bad world; the supervisor's
            // catch_unwind classifies that as a deterministic failure.
            let mut sim = plan
                .scenario()
                .build_simulation(&config, &trace, cell.seed)
                .unwrap_or_else(|e| panic!("building scenario world: {e}"));
            let Some(every) = cell_checkpoint else {
                return Ok(sim.run(&mut scheme));
            };

            // Within-cell durability: snapshot into a per-cell directory
            // and resume from it when a previous attempt (retry, rerun
            // after a kill, or a timed-out attempt's last snapshot) left
            // one behind. Any load failure degrades to a clean start —
            // a sweep cell must never be wedged by a stale snapshot.
            let dir = ckpt_root.join(cell_dir_name(cell));
            // The scenario text's fingerprint is folded in: PoI weights
            // and schedules live outside SimConfig, so two scenarios
            // sharing a config must not cross-resume.
            let fp = checkpoint::run_fingerprint(&config, &trace, cell.seed, &cell.scheme)
                ^ plan.fingerprint;
            match checkpoint::load_latest(&dir, Some(fp)) {
                Ok((payload, path)) => match sim.resume_from(payload, &scheme) {
                    Ok(()) => eprintln!("sweep: {cell} resumes from {}", path.display()),
                    Err(e) => eprintln!("sweep: {cell} restarts clean ({e})"),
                },
                Err(checkpoint::CheckpointError::Io { .. }) => {} // no snapshots yet
                Err(e) => eprintln!("sweep: {cell} restarts clean ({e})"),
            }
            sim.set_checkpoints(CheckpointPolicy::new(&dir, every, fp, cell.to_string()));
            let (result, _, stats) = sim.run_instrumented(&mut scheme);
            if stats.interrupted {
                return Err(CellError::interrupted(format!(
                    "stopped mid-run; snapshot in {}",
                    dir.display()
                )));
            }
            let _ = std::fs::remove_dir_all(&dir);
            Ok(result)
        }
    };

    let quiet = flags.has("quiet");
    let report = run_batch(&remaining, Arc::new(runner), &policy, |cell, state| {
        if let Err(e) = journal.record(cell, state) {
            eprintln!("sweep: journal write failed: {e}");
        }
        if !quiet {
            match state {
                CellState::Done(_) => eprintln!("sweep: ok     {cell}"),
                CellState::Failed(f) => {
                    eprintln!("sweep: FAILED {cell} ({}: {})", f.kind, f.message);
                }
            }
        }
    });

    // Merge journaled results with this run's outcomes; canonical order
    // makes the report byte-stable regardless of interruptions.
    let mut outcomes = report.outcomes;
    for (cell, result) in done {
        outcomes.push((cell, CellState::Done(result)));
    }
    let merged = BatchReport::from_outcomes(outcomes);

    let rendered = render_report(&merged);
    match flags.get("out") {
        Some(path) => {
            journal::write_atomic(Path::new(path), &rendered)
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("sweep: report written to {path}");
        }
        None => print!("{rendered}"),
    }

    let failures = merged.failures();
    if !failures.is_empty() {
        eprint!("{}", failure_table(&failures, merged.outcomes.len()));
    }
    Ok(if merged.all_ok() {
        EXIT_OK
    } else if merged.total_failure() {
        EXIT_TOTAL
    } else {
        EXIT_PARTIAL
    })
}

/// Renders the merged report as deterministic JSON: cells in canonical
/// order, one `results` entry per completed cell (final-sample metrics),
/// one `failures` entry per failed cell.
pub(crate) fn render_report(report: &BatchReport) -> String {
    let results: Vec<serde_json::Value> = report
        .completed()
        .map(|(cell, result)| {
            let f = result.final_sample();
            serde_json::json!({
                "scheme": cell.scheme,
                "variant": cell.variant,
                "seed": cell.seed,
                "samples": result.samples.len(),
                "t_hours": f.t_hours,
                "point_coverage": f.point_coverage,
                "aspect_coverage_deg": f.aspect_coverage_deg,
                "delivered_photos": f.delivered_photos,
            })
        })
        .collect();
    let failures: Vec<serde_json::Value> = report
        .failures()
        .iter()
        .map(|f| {
            serde_json::json!({
                "scheme": f.cell.scheme,
                "variant": f.cell.variant,
                "seed": f.cell.seed,
                "kind": f.kind.to_string(),
                "attempts": f.attempts,
                "message": f.message,
            })
        })
        .collect();
    let value = serde_json::json!({
        "cells": report.outcomes.len(),
        "completed": results.len(),
        "failed": failures.len(),
        "results": results,
        "failures": failures,
    });
    format!("{value}\n")
}

/// The failure-summary table printed to stderr on any failure.
pub(crate) fn failure_table(failures: &[&CellFailure], total_cells: usize) -> String {
    let mut out = format!(
        "sweep failures ({} of {} cells):\n",
        failures.len(),
        total_cells
    );
    for f in failures {
        out.push_str(&format!(
            "  {:<8} {:<32} attempts={}  {}\n",
            f.kind.to_string(),
            f.cell.to_string(),
            f.attempts,
            f.message
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_sim::{FailureKind, MetricSample};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("photodtn-sweep-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cell(scheme: &str, seed: u64) -> CellId {
        CellId {
            scheme: scheme.into(),
            variant: "base".into(),
            seed,
        }
    }

    fn done(cell: &CellId) -> CellState {
        CellState::Done(SimResult {
            scheme: cell.scheme.clone(),
            seed: cell.seed,
            samples: vec![MetricSample {
                t_hours: 10.0,
                point_coverage: 0.5,
                aspect_coverage_deg: 120.0,
                delivered_photos: 42,
                ..MetricSample::default()
            }],
        })
    }

    fn failed(cell: &CellId, kind: FailureKind, message: &str, attempts: u32) -> CellState {
        CellState::Failed(CellFailure {
            cell: cell.clone(),
            kind,
            message: message.into(),
            attempts,
        })
    }

    #[test]
    fn missing_spec_is_a_usage_error() {
        assert_eq!(run(&argv("")), EXIT_BAD_SPEC);
        assert_eq!(run(&argv("/nonexistent/sweep.toml")), EXIT_BAD_SPEC);
    }

    #[test]
    fn bad_spec_exits_2_without_running() {
        let dir = tmp_dir();
        let spec = dir.join("bad.toml");
        // The retired [sweep] format is an unknown section, not a sweep.
        std::fs::write(
            &spec,
            "[sweep]\nschemes = [\"no-such-scheme\"]\nseeds = [1]\n",
        )
        .unwrap();
        assert_eq!(run(&[spec.to_str().unwrap().into()]), EXIT_BAD_SPEC);
        let err = execute(&[spec.to_str().unwrap().into()]).unwrap_err();
        assert!(err.contains("unknown section [sweep]"), "{err}");
        let syntactically_bad = dir.join("syntax.toml");
        std::fs::write(&syntactically_bad, "[sweep\nschemes = 1\n").unwrap();
        assert_eq!(
            run(&[syntactically_bad.to_str().unwrap().into()]),
            EXIT_BAD_SPEC
        );
    }

    #[test]
    fn unknown_flag_exits_2() {
        assert_eq!(run(&argv("spec.toml --resum")), EXIT_BAD_SPEC);
    }

    #[test]
    fn small_sweep_runs_to_exit_0_and_resume_is_idempotent() {
        let dir = tmp_dir();
        let spec = dir.join("ok.toml");
        std::fs::write(
            &spec,
            "[scenario]\nversion = 1\nseeds = [1, 2]\n[world]\nnodes = 8\nhours = 6.0\n\
             [workload]\nphotos_per_hour = 10.0\n[schemes]\nnames = [\"best-possible\"]\n",
        )
        .unwrap();
        let out = dir.join("report.json");
        let journal = dir.join("ok.journal");
        let base: Vec<String> = vec![
            spec.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
            "--journal".into(),
            journal.to_str().unwrap().into(),
            "--quiet".into(),
        ];
        assert_eq!(run(&base), EXIT_OK);
        let first = std::fs::read_to_string(&out).unwrap();
        assert!(first.contains("\"completed\":2"), "{first}");

        // Resuming a finished sweep reruns nothing and reproduces the
        // report byte-for-byte.
        let mut resumed = base.clone();
        resumed.push("--resume".into());
        assert_eq!(run(&resumed), EXIT_OK);
        let second = std::fs::read_to_string(&out).unwrap();
        assert_eq!(first, second, "resume must be byte-identical");
    }

    #[test]
    fn exit_code_mapping_covers_partial_and_total_failure() {
        let a = cell("ours", 1);
        let b = cell("ours", 2);
        let partial = BatchReport::from_outcomes(vec![
            (a.clone(), done(&a)),
            (b.clone(), failed(&b, FailureKind::Panic, "boom", 1)),
        ]);
        assert!(!partial.all_ok());
        assert!(!partial.total_failure());
        let total = BatchReport::from_outcomes(vec![
            (a.clone(), failed(&a, FailureKind::Panic, "boom", 1)),
            (b.clone(), failed(&b, FailureKind::TraceIo, "gone", 3)),
        ]);
        assert!(total.total_failure());
    }

    #[test]
    fn report_rendering_is_deterministic_and_ordered() {
        let a = cell("ours", 2);
        let b = cell("best-possible", 1);
        let report = BatchReport::from_outcomes(vec![(a.clone(), done(&a)), (b.clone(), done(&b))]);
        let rendered = render_report(&report);
        assert_eq!(rendered, render_report(&report));
        // Canonical order: best-possible sorts before ours.
        let bp = rendered.find("best-possible").unwrap();
        let ours = rendered.find("\"ours\"").unwrap();
        assert!(bp < ours, "{rendered}");
        assert!(rendered.ends_with('\n'));
    }

    #[test]
    fn failure_table_golden_output() {
        let a = cell("ours", 3);
        let b = CellId {
            scheme: "spray-wait".into(),
            variant: "storage_gb=0.3".into(),
            seed: 7,
        };
        let failures = [
            CellFailure {
                cell: a,
                kind: FailureKind::Panic,
                message: "index out of bounds".into(),
                attempts: 1,
            },
            CellFailure {
                cell: b,
                kind: FailureKind::TraceIo,
                message: "reading contacts.trace: not found".into(),
                attempts: 3,
            },
        ];
        let refs: Vec<&CellFailure> = failures.iter().collect();
        let table = failure_table(&refs, 12);
        assert_eq!(
            table,
            "sweep failures (2 of 12 cells):\n  \
             panic    ours/base/seed3                  attempts=1  index out of bounds\n  \
             trace-io spray-wait/storage_gb=0.3/seed7  attempts=3  reading contacts.trace: not found\n"
        );
    }

    #[test]
    fn scenario_sweep_runs_and_resumes_byte_identically() {
        let dir = tmp_dir();
        let spec = dir.join("scenario.toml");
        std::fs::write(
            &spec,
            "[scenario]\nversion = 1\nseeds = [1, 2]\n[world]\nstyle = \"mit\"\nnodes = 8\n\
             hours = 6.0\n[workload]\nphotos_per_hour = 10.0\n\
             [schemes]\nnames = [\"best-possible\", \"direct\"]\n",
        )
        .unwrap();
        let out = dir.join("scenario-report.json");
        let journal = dir.join("scenario.journal");
        let base: Vec<String> = vec![
            spec.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
            "--journal".into(),
            journal.to_str().unwrap().into(),
            "--quiet".into(),
        ];
        assert_eq!(run(&base), EXIT_OK);
        let first = std::fs::read_to_string(&out).unwrap();
        assert!(first.contains("\"completed\":4"), "{first}");
        let mut resumed = base.clone();
        resumed.push("--resume".into());
        assert_eq!(run(&resumed), EXIT_OK);
        assert_eq!(first, std::fs::read_to_string(&out).unwrap());
    }

    #[test]
    fn scenario_sweep_rejects_unknown_scheme() {
        let dir = tmp_dir();
        let spec = dir.join("scenario-bad-scheme.toml");
        std::fs::write(
            &spec,
            "[scenario]\nversion = 1\n[schemes]\nnames = [\"no-such\"]\n",
        )
        .unwrap();
        assert_eq!(run(&[spec.to_str().unwrap().into()]), EXIT_BAD_SPEC);
    }

    /// Every shipped example scenario parses, names only known schemes,
    /// plans, and builds its world end-to-end (trace + simulation for the
    /// first cell) — the files in examples/scenarios/ are living docs and
    /// must not rot.
    #[test]
    fn shipped_example_scenarios_parse_and_build() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("examples/scenarios/ readable") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let mut sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            if sc.schemes == ["all"] {
                sc.schemes = ALL_SCHEME_NAMES.iter().map(|s| (*s).to_string()).collect();
            }
            for scheme in &sc.schemes {
                assert!(
                    try_scheme_by_name(scheme).is_some(),
                    "{path:?} names unknown scheme {scheme:?}"
                );
            }
            let plan = sc.plan();
            assert!(!plan.cells.is_empty(), "{path:?} plans no cells");
            let cell = &plan.cells[0];
            let config = plan.config_of(&cell.variant).unwrap();
            let trace = sc
                .build_trace(cell.seed)
                .unwrap_or_else(|e| panic!("{path:?}: building trace: {e}"));
            assert!(!trace.is_empty(), "{path:?} generates a contactless world");
            sc.build_simulation(config, &trace, cell.seed)
                .unwrap_or_else(|e| panic!("{path:?}: building world: {e}"));
        }
        assert!(seen >= 4, "expected the shipped scenario set, saw {seen}");
    }
}
