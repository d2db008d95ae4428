//! Checkpoint/restore integration tests: halting any scheme mid-run and
//! resuming from the snapshot must reproduce the uninterrupted
//! `SimResult` byte-for-byte, and no corrupted snapshot — truncated at
//! any byte, or with any single byte mutated — may ever panic the
//! loader or silently resume.

use std::path::PathBuf;

use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
use photodtn_contacts::ContactTrace;
use photodtn_schemes::{
    BestPossible, CentralizedOracle, DirectDelivery, Epidemic, ModifiedSpray, OurScheme, PhotoNet,
    ProphetRouting, SprayAndWait,
};
use photodtn_sim::checkpoint::{self, CheckpointError};
use photodtn_sim::{CheckpointPolicy, FaultConfig, JsonlSink, Scheme, SimConfig, Simulation};

type SchemeFactory = fn() -> Box<dyn Scheme + Send>;

/// Factory-per-scheme so each phase (baseline, halted, resumed) gets a
/// fresh instance with no carried-over protocol state.
fn lineup() -> Vec<(&'static str, SchemeFactory)> {
    vec![
        ("best-possible", || Box::new(BestPossible)),
        ("ours", || Box::new(OurScheme::new())),
        ("no-metadata", || Box::new(OurScheme::no_metadata())),
        ("modified-spray", || Box::new(ModifiedSpray::new())),
        ("spray-wait", || Box::new(SprayAndWait::new())),
        ("photonet", || Box::new(PhotoNet::new())),
        ("epidemic", || Box::new(Epidemic::new())),
        ("direct", || Box::new(DirectDelivery::new())),
        ("oracle", || Box::new(CentralizedOracle::new())),
        ("prophet", || Box::new(ProphetRouting::new())),
    ]
}

fn small_trace(seed: u64) -> ContactTrace {
    CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_num_nodes(16)
        .with_duration_hours(36.0)
        .generate(seed)
}

fn small_config() -> SimConfig {
    let mut config = SimConfig::mit_default()
        .with_photos_per_hour(30.0)
        .with_storage_bytes(40 * 4 * 1024 * 1024);
    config.num_pois = 60;
    config
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("photodtn-ckpt-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every scheme, both fault intensities: halt at 18 simulated hours via
/// a checkpoint, resume a *fresh* simulation and scheme from the
/// snapshot, and require the finished result to equal the uninterrupted
/// run exactly — every sample, every counter.
#[test]
fn halt_and_resume_matches_uninterrupted_for_every_scheme() {
    let trace = small_trace(3);
    let root = tmp_dir("halt-resume");
    for intensity in [0.0, 0.5] {
        let config = small_config().with_faults(FaultConfig::chaos(intensity));
        for (name, make) in lineup() {
            let mut baseline_scheme = make();
            let baseline = Simulation::new(&config, &trace, 42).run(&mut *baseline_scheme);

            let dir = root.join(format!("{name}_{intensity}"));
            let fp = checkpoint::run_fingerprint(&config, &trace, 42, name);
            let mut halted_scheme = make();
            let mut sim = Simulation::new(&config, &trace, 42);
            sim.set_checkpoints(
                CheckpointPolicy::new(&dir, f64::INFINITY, fp, format!("test {name}"))
                    .with_halt_after(18.0 * 3600.0),
            );
            let (_, _, stats) = sim.run_instrumented(&mut *halted_scheme);
            assert!(stats.interrupted, "{name}: halt_after did not interrupt");

            let (payload, path) = checkpoint::load_latest(&dir, Some(fp))
                .unwrap_or_else(|e| panic!("{name}: loading snapshot: {e}"));
            assert!(path.exists());
            let mut resumed_scheme = make();
            let mut sim = Simulation::new(&config, &trace, 42);
            sim.resume_from(payload, &*resumed_scheme)
                .unwrap_or_else(|e| panic!("{name}: resuming: {e}"));
            let resumed = sim.run(&mut *resumed_scheme);
            assert_eq!(
                resumed, baseline,
                "{name} at intensity {intensity}: resumed run diverged from uninterrupted run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Periodic checkpointing is a pure observer (the checkpointed run's
/// result equals the plain run's), and *every* rotation it leaves behind
/// resumes to the same final result — not just the newest one.
#[test]
fn every_rotation_resumes_to_the_same_result() {
    let trace = small_trace(3);
    let config = small_config().with_faults(FaultConfig::chaos(0.5));
    let dir = tmp_dir("rotations");
    let fp = checkpoint::run_fingerprint(&config, &trace, 42, "ours");

    let mut plain = OurScheme::new();
    let baseline = Simulation::new(&config, &trace, 42).run(&mut plain);

    let mut checkpointed = OurScheme::new();
    let mut sim = Simulation::new(&config, &trace, 42);
    sim.set_checkpoints(
        CheckpointPolicy::new(&dir, 6.0 * 3600.0, fp, "rotation test").with_keep(100),
    );
    let (full, _, stats) = sim.run_instrumented(&mut checkpointed);
    assert!(!stats.interrupted);
    assert_eq!(full, baseline, "periodic checkpointing must be a no-op");

    let snapshots: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert!(
        snapshots.len() >= 3,
        "expected several rotations, got {}",
        snapshots.len()
    );
    for path in snapshots {
        let payload = checkpoint::load_file(&path, Some(fp)).unwrap();
        let mut scheme = OurScheme::new();
        let mut sim = Simulation::new(&config, &trace, 42);
        sim.resume_from(payload, &scheme).unwrap();
        let resumed = sim.run(&mut scheme);
        assert_eq!(resumed, baseline, "resume from {path:?} diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced, checkpointed run that halts mid-way and resumes with
/// [`JsonlSink::resume_append`] must leave a trace file byte-identical
/// to an uninterrupted traced run.
#[test]
fn traced_resume_reproduces_the_trace_file_byte_for_byte() {
    let trace = small_trace(3);
    let config = small_config().with_faults(FaultConfig::chaos(0.5));
    let dir = tmp_dir("traced");
    let full_path = dir.join("full.jsonl");
    let split_path = dir.join("split.jsonl");
    let ckpt = dir.join("ckpt");
    let fp = checkpoint::run_fingerprint(&config, &trace, 42, "ours");

    let mut scheme = OurScheme::new();
    let mut sim = Simulation::new(&config, &trace, 42);
    sim.set_trace_sink(Box::new(
        JsonlSink::create(full_path.to_str().unwrap()).unwrap(),
    ));
    let baseline = sim.run(&mut scheme);

    let mut scheme = OurScheme::new();
    let mut sim = Simulation::new(&config, &trace, 42);
    sim.set_trace_sink(Box::new(
        JsonlSink::create(split_path.to_str().unwrap()).unwrap(),
    ));
    sim.set_checkpoints(
        CheckpointPolicy::new(&ckpt, f64::INFINITY, fp, "traced test")
            .with_halt_after(18.0 * 3600.0),
    );
    let (_, _, stats) = sim.run_instrumented(&mut scheme);
    assert!(stats.interrupted);

    let (payload, _) = checkpoint::load_latest(&ckpt, Some(fp)).unwrap();
    let mut scheme = OurScheme::new();
    let mut sim = Simulation::new(&config, &trace, 42);
    sim.set_trace_sink(Box::new(
        JsonlSink::resume_append(split_path.to_str().unwrap(), payload.trace_seq).unwrap(),
    ));
    sim.resume_from(payload, &scheme).unwrap();
    let resumed = sim.run(&mut scheme);
    assert_eq!(resumed, baseline);

    let full = std::fs::read_to_string(&full_path).unwrap();
    let split = std::fs::read_to_string(&split_path).unwrap();
    assert_eq!(split, full, "stitched trace file diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The world [`real_snapshot`] runs.
fn snapshot_world() -> (ContactTrace, SimConfig) {
    let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_num_nodes(8)
        .with_duration_hours(6.0)
        .generate(3);
    let mut config = SimConfig::mit_default().with_photos_per_hour(10.0);
    config.num_pois = 20;
    (trace, config)
}

/// Writes one real snapshot and returns its directory, the run
/// fingerprint, the snapshot path, and the raw file bytes.
///
/// Uses a deliberately tiny world (8 nodes, 6 simulated hours) so the
/// snapshot stays small enough for the corruption sweeps below to stay
/// *exhaustive* — every truncation and every byte mutation — without
/// blowing up debug-mode test time. The bytes are still produced by the
/// real capture path, not hand-crafted.
fn real_snapshot(name: &str) -> (PathBuf, u64, PathBuf, Vec<u8>) {
    let (trace, config) = snapshot_world();
    let dir = tmp_dir(name);
    let fp = checkpoint::run_fingerprint(&config, &trace, 42, "best-possible");
    let mut scheme = BestPossible;
    let mut sim = Simulation::new(&config, &trace, 42);
    sim.set_checkpoints(
        CheckpointPolicy::new(&dir, f64::INFINITY, fp, "corruption test")
            .with_halt_after(3.0 * 3600.0),
    );
    let (_, _, stats) = sim.run_instrumented(&mut scheme);
    assert!(stats.interrupted);
    let (_, path) = checkpoint::load_latest(&dir, Some(fp)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (dir, fp, path, bytes)
}

/// Corruption property test, truncation half: chop a real snapshot at
/// *every* byte boundary. The loader must return a typed error for each
/// prefix — never panic, never accept a torn file.
#[test]
fn every_truncation_is_a_typed_error() {
    let (dir, fp, _, bytes) = real_snapshot("truncate");
    let victim = dir.join("torn.snap");
    for cut in 0..bytes.len() {
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let err = match checkpoint::load_file(&victim, Some(fp)) {
            Err(e) => e,
            Ok(_) => panic!("truncation at byte {cut} of {} was accepted", bytes.len()),
        };
        // Any torn prefix must be recognizable as corruption or a bad
        // header, never a fingerprint mismatch (which would block the
        // rotation fallback).
        assert!(
            !matches!(err, CheckpointError::FingerprintMismatch { .. }),
            "truncation at byte {cut} misread as a fingerprint mismatch: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption property test, mutation half: flip the low bit of *every*
/// byte in a real snapshot, one at a time. Each mutant must be rejected
/// with a typed error — a single-byte change can never load as valid.
#[test]
fn every_single_byte_mutation_is_rejected() {
    let (dir, fp, _, bytes) = real_snapshot("mutate");
    let victim = dir.join("mutant.snap");
    for pos in 0..bytes.len() {
        let mut mutant = bytes.clone();
        mutant[pos] ^= 0x01;
        std::fs::write(&victim, &mutant).unwrap();
        assert!(
            checkpoint::load_file(&victim, Some(fp)).is_err(),
            "flipping bit 0 of byte {pos} still loaded as a valid snapshot"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rotation fallback: when the newest snapshot is corrupt,
/// [`checkpoint::load_latest`] silently falls back to the previous
/// rotation; a fingerprint mismatch, by contrast, stops the walk cold.
#[test]
fn corrupt_newest_falls_back_but_wrong_fingerprint_does_not() {
    let (dir, fp, path, bytes) = real_snapshot("fallback");
    // Plant a corrupt *newer* rotation next to the good one.
    let newer = dir.join("ckpt-999999999999.snap");
    std::fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();
    let (_, chosen) = checkpoint::load_latest(&dir, Some(fp)).unwrap();
    assert_eq!(chosen, path, "must fall back to the intact rotation");

    // The same directory under the wrong fingerprint refuses outright.
    let err = checkpoint::load_latest(&dir, Some(fp ^ 1)).unwrap_err();
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "expected a fingerprint mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with the wrong scheme is a shape error, not a panic — the
/// fingerprint normally prevents this, but `resume_from` double-checks.
#[test]
fn resuming_with_a_different_scheme_is_a_shape_error() {
    let (dir, fp, _, _) = real_snapshot("shape");
    let (payload, _) = checkpoint::load_latest(&dir, Some(fp)).unwrap();
    let scheme = Epidemic::new();
    let trace = small_trace(3);
    let config = small_config();
    let mut sim = Simulation::new(&config, &trace, 42);
    let err = sim.resume_from(payload, &scheme).unwrap_err();
    assert!(
        matches!(err, CheckpointError::StateShape { .. }),
        "expected a state-shape error, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// PROPHET tables are binary-searched, so a table whose destinations
/// are out of order would resume into silently wrong predictabilities.
/// Such a payload decodes fine; `resume_from` must refuse it.
#[test]
fn unsorted_prophet_table_is_a_shape_error() {
    let (dir, fp, _, _) = real_snapshot("prophet-order");
    let (mut payload, _) = checkpoint::load_latest(&dir, Some(fp)).unwrap();
    let mut state = serde_json::to_value(&payload.prophet).unwrap();
    let entries = state["tables"]
        .as_array_mut()
        .unwrap()
        .iter_mut()
        .map(|table| table["entries"].as_array_mut().unwrap())
        .find(|entries| entries.len() >= 2)
        .expect("some node knows two destinations");
    entries.reverse();
    payload.prophet = serde_json::from_value(state).unwrap();
    let (trace, config) = snapshot_world();
    let mut sim = Simulation::new(&config, &trace, 42);
    let err = sim.resume_from(payload, &BestPossible).unwrap_err();
    assert!(
        matches!(err, CheckpointError::StateShape { .. }),
        "expected a state-shape error, got: {err}"
    );
    assert!(err.to_string().contains("not strictly sorted"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty checkpoint directory yields `NothingToResume`, and its
/// message names the directory so the operator can see what was probed.
#[test]
fn empty_directory_is_nothing_to_resume() {
    let dir = tmp_dir("empty");
    let err = checkpoint::load_latest(&dir, None).unwrap_err();
    match &err {
        CheckpointError::NothingToResume { dir: d, .. } => assert_eq!(d, &dir),
        other => panic!("expected NothingToResume, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
