//! Kill-and-resume integration tests for `photodtn sweep`: SIGKILL a
//! sweep mid-batch, resume it, and require the merged report to be
//! byte-identical to an uninterrupted run — including recovery from a
//! torn journal tail.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SPEC_TEXT: &str = "\
[scenario]
version = 1
seeds = [1, 2, 3]

[world]
style = \"mit\"
nodes = 10
hours = 12.0

[workload]
photos_per_hour = 20.0

[schemes]
names = [\"best-possible\", \"spray-wait\"]
";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_photodtn"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "photodtn-sweep-resume-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep_args(spec: &Path, out: &Path, journal: &Path) -> Vec<String> {
    vec![
        "sweep".into(),
        spec.to_str().unwrap().into(),
        "--out".into(),
        out.to_str().unwrap().into(),
        "--journal".into(),
        journal.to_str().unwrap().into(),
        "--quiet".into(),
    ]
}

/// Runs an uninterrupted sweep and returns the report bytes.
fn uninterrupted_report(dir: &Path, spec: &Path) -> String {
    let out = dir.join("uninterrupted.json");
    let journal = dir.join("uninterrupted.journal");
    let status = bin()
        .args(sweep_args(spec, &out, &journal))
        .stderr(Stdio::null())
        .status()
        .expect("spawn photodtn");
    assert_eq!(status.code(), Some(0), "uninterrupted sweep must succeed");
    std::fs::read_to_string(&out).unwrap()
}

/// Starts a sweep, SIGKILLs it once the journal shows progress but the
/// batch is not done, and returns how many cells were journaled.
/// `--workers 1` serializes cells so a mid-batch kill window exists.
fn start_and_kill(spec: &Path, out: &Path, journal: &Path) -> usize {
    let mut args = sweep_args(spec, out, journal);
    args.push("--workers".into());
    args.push("1".into());
    let mut child = bin()
        .args(&args)
        .stderr(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn photodtn");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done_lines = std::fs::read_to_string(journal)
            .map(|t| t.lines().filter(|l| l.contains("\"Done\"")).count())
            .unwrap_or(0);
        if done_lines >= 1 {
            // Progress exists; kill before (hopefully) the batch ends.
            child.kill().expect("SIGKILL the sweep");
            let _ = child.wait();
            return done_lines;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            // The sweep finished before we could kill it — still a valid
            // resume scenario (resume skips everything).
            assert_eq!(status.code(), Some(0));
            return usize::MAX;
        }
        assert!(Instant::now() < deadline, "sweep made no progress in 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn resume(spec: &Path, out: &Path, journal: &Path) -> std::process::Output {
    let mut args = sweep_args(spec, out, journal);
    args.push("--resume".into());
    bin().args(&args).output().expect("spawn photodtn")
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = tmp_dir("kill");
    let spec = dir.join("sweep.toml");
    std::fs::write(&spec, SPEC_TEXT).unwrap();
    let baseline = uninterrupted_report(&dir, &spec);

    let out = dir.join("report.json");
    let journal = dir.join("sweep.journal");
    start_and_kill(&spec, &out, &journal);

    let output = resume(&spec, &out, &journal);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let resumed = std::fs::read_to_string(&out).unwrap();
    assert_eq!(
        resumed, baseline,
        "merged report after kill+resume must be byte-identical"
    );
}

#[test]
fn torn_journal_tail_recovers_on_resume() {
    let dir = tmp_dir("torn");
    let spec = dir.join("sweep.toml");
    std::fs::write(&spec, SPEC_TEXT).unwrap();
    let baseline = uninterrupted_report(&dir, &spec);

    let out = dir.join("report.json");
    let journal = dir.join("sweep.journal");
    start_and_kill(&spec, &out, &journal);

    // Simulate the kill landing mid-write: chop the journal's final line
    // in half (no trailing newline).
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(!text.is_empty());
    let cut = text.trim_end().len().saturating_sub(20).max(
        text.find('\n').map(|i| i + 1).unwrap_or(0), // keep the header intact
    );
    std::fs::write(&journal, &text[..cut]).unwrap();

    let output = resume(&spec, &out, &journal);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("torn journal tail"),
        "torn tail must be reported: {stderr}"
    );
    let resumed = std::fs::read_to_string(&out).unwrap();
    assert_eq!(resumed, baseline, "torn-tail recovery must merge cleanly");
}

#[test]
fn edited_spec_is_rejected_on_resume_with_exit_2() {
    let dir = tmp_dir("fingerprint");
    let spec = dir.join("sweep.toml");
    std::fs::write(&spec, SPEC_TEXT).unwrap();
    let out = dir.join("report.json");
    let journal = dir.join("sweep.journal");
    let status = bin()
        .args(sweep_args(&spec, &out, &journal))
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0));

    // Any byte change to the spec invalidates the journal.
    std::fs::write(&spec, format!("{SPEC_TEXT}# edited\n")).unwrap();
    let output = resume(&spec, &out, &journal);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("different spec"), "{stderr}");
}

#[test]
fn unreadable_trace_file_is_total_failure_with_exit_4() {
    let dir = tmp_dir("total");
    let spec = dir.join("sweep.toml");
    std::fs::write(
        &spec,
        "[scenario]\nversion = 1\nseeds = [1, 2]\n\
         [world]\ntrace = \"/nonexistent/contacts.trace\"\n\
         [schemes]\nnames = [\"best-possible\"]\n",
    )
    .unwrap();
    let out = dir.join("report.json");
    let journal = dir.join("sweep.journal");
    let mut args = sweep_args(&spec, &out, &journal);
    args.push("--retries".into());
    args.push("0".into());
    let output = bin().args(&args).output().unwrap();
    assert_eq!(output.status.code(), Some(4), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("sweep failures (2 of 2 cells)"), "{stderr}");
    assert!(stderr.contains("trace-io"), "{stderr}");
    // The report still exists, with full failure attribution.
    let report = std::fs::read_to_string(&out).unwrap();
    assert!(report.contains("\"failed\":2"), "{report}");
}

#[test]
fn bad_spec_exits_2_and_writes_nothing() {
    let dir = tmp_dir("badspec");
    let spec = dir.join("sweep.toml");
    let out = dir.join("report.json");
    let journal = dir.join("sweep.journal");
    for (text, needle) in [
        (
            "[scenario]\nversion = 1\n[schemes]\nnames = [\"nope\"]\n",
            "unknown scheme",
        ),
        // The retired [sweep] format.
        (
            "[sweep]\nschemes = [\"ours\"]\nseeds = [1]\n",
            "unknown section [sweep]",
        ),
    ] {
        std::fs::write(&spec, text).unwrap();
        let output = bin()
            .args(sweep_args(&spec, &out, &journal))
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(needle), "{stderr}");
        assert!(!out.exists(), "no report on a bad spec");
        assert!(!journal.exists(), "no journal on a bad spec");
    }
}
