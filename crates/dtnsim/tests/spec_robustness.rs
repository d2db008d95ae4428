//! Parser-hardening regression suite: the strict TOML-subset parser and
//! the scenario schema built on it must turn ANY input — malformed,
//! truncated mid-token, or byte-mutated — into a typed
//! [`SpecError`](photodtn_sim::scenario::spec::SpecError), never a
//! panic, hang, or stack overflow. Every assertion here is just
//! "returned a `Result`": the test harness converts a panic into a
//! failure, which is exactly the regression being pinned. The retired
//! `[sweep]` format rides along as a second, foreign document.

use photodtn_sim::Scenario;

const SCENARIO: &str = r#"
[scenario]
version = 1
name = "robustness"
seed = 42
seeds = [1, 2, 3]

[world]
style = "mit"
nodes = 16
hours = 36.0
trace_seed = 3
relays = 2
relay_visits_per_hour = 1.5
relay_visit_minutes = 10.0

[pois]
count = 12
weights = [1, 1, 1, 1, 2.5, 1, 1, 1, 1, 1, 1, 4]

[pois.phase_0]
at_hours = 12.0
focus = [3, 4, 5]
focus_weight = 8.0
base_weight = 0.5

[workload]
photos_per_hour = 30.0
cameras = 12

[faults]
intensity = 0.5

[schemes]
names = ["ours", "spray-wait"]

[grid]
storage_gb = [0.15625, 0.3125]
"#;

const SWEEP: &str = r#"
[sweep]
schemes = ["ours", "spray-wait"]
seeds = [1, 2, 3]

[trace]
style = "mit"
nodes = 24
hours = 48.0

[config]
photos_per_hour = 60.0
storage_gb = 0.6

[grid]
fault_intensity = [0.0, 0.5]
"#;

/// Every prefix of a valid document — a file truncated mid-write at any
/// char boundary — parses to `Ok` or a typed error, never a panic.
#[test]
fn truncation_at_every_boundary_never_panics() {
    for text in [SCENARIO, SWEEP] {
        for (i, _) in text.char_indices() {
            let _ = Scenario::parse(&text[..i]);
        }
    }
}

/// Single-byte corruption at every position (structural bytes, quote
/// bytes, invalid UTF-8 repaired lossily, digit smashing) parses to a
/// `Result`, never a panic.
#[test]
fn byte_mutation_at_every_position_never_panics() {
    let mutations: &[u8] = &[
        b'[', b']', b'"', b'=', b'#', b',', b'.', b'-', b'0', 0xFF, 0x00,
    ];
    for text in [SCENARIO, SWEEP] {
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            for &m in mutations {
                let mut mutated = bytes.to_vec();
                mutated[pos] = m;
                let repaired = String::from_utf8_lossy(&mutated);
                let _ = Scenario::parse(&repaired);
            }
        }
    }
}

/// Format confusion: a retired `[sweep]` document is a clean validation
/// error naming the unknown section.
#[test]
fn wrong_schema_is_a_clean_validation_error() {
    let err = Scenario::parse(SWEEP).unwrap_err();
    assert!(err.to_string().contains("unknown section [sweep]"), "{err}");
}

/// Adversarial shapes that historically crash hand-rolled parsers:
/// pathological nesting, enormous tokens, CRLF, interior NULs, BOM,
/// comment-only files, unterminated everything.
#[test]
fn adversarial_inputs_never_panic() {
    let giant_token = format!("[scenario]\nversion = {}\n", "9".repeat(100_000));
    let giant_array = format!("[pois]\nweights = [{}]\n", "1,".repeat(100_000));
    let deep_nest = format!("[s]\na = {}1", "[".repeat(100_000));
    let cases: Vec<String> = vec![
        String::new(),
        "\u{feff}[scenario]\nversion = 1\n".into(),
        "[scenario]\r\nversion = 1\r\n".into(),
        "[scenario]\nversion = 1\nname = \"a\0b\"\n".into(),
        "# only a comment\n".into(),
        "[".into(),
        "[]".into(),
        "[scenario".into(),
        "[scenario]\nversion =".into(),
        "[scenario]\nversion = 1\nname = \"unterminated".into(),
        "[scenario]\nversion = 1\nseeds = [1, 2".into(),
        "=\n==\n===\n".into(),
        giant_token,
        giant_array,
        deep_nest,
    ];
    for case in &cases {
        let _ = Scenario::parse(case);
    }
}
