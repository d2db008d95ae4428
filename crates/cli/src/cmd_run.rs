//! `photodtn run` — one simulation with a chosen scheme and knobs.

use std::path::Path;

use photodtn_bench::{try_scheme_by_name, ALL_SCHEME_NAMES};
use photodtn_coverage::fullview::{redundancy_degrees, FullViewReport};
use photodtn_coverage::PhotoMeta;
use photodtn_sim::scenario::spec::{Document, Value};
use photodtn_sim::scenario::SCENARIO_VERSION;
use photodtn_sim::{checkpoint, CheckpointPolicy, JsonlSink, Scenario};

use crate::args::{Flags, Spec};

/// Exit code of a gracefully interrupted checkpointed run (EX_TEMPFAIL:
/// rerun with `--resume-from` to continue).
pub const EXIT_INTERRUPTED: u8 = 75;

const SPEC: Spec = Spec {
    values: &[
        "scenario",
        "scheme",
        "seed",
        "trace",
        "style",
        "hours",
        "nodes",
        "photos-per-hour",
        "storage-gb",
        "deadline",
        "failures",
        "faults",
        "trace-out",
        "checkpoint-every",
        "checkpoint-dir",
        "checkpoint-keep",
        "resume-from",
        "halt-after",
    ],
    switches: &["report", "json", "perf", "trace-sync"],
};

/// The value flags that shape the simulated world, each with the
/// scenario knob (`[section] key`) it spells; everything a snapshot
/// fingerprint covers. Reproduced in error messages when a resume's
/// flags disagree with the snapshot's.
const WORLD_FLAGS: &[(&str, &str, &str)] = &[
    ("trace", "world", "trace"),
    ("style", "world", "style"),
    ("hours", "world", "hours"),
    ("nodes", "world", "nodes"),
    ("photos-per-hour", "sim", "photos_per_hour"),
    ("storage-gb", "sim", "storage_gb"),
    ("deadline", "sim", "deadline_hours"),
    ("failures", "sim", "failure_fraction"),
    ("faults", "sim", "fault_intensity"),
];

/// A canonical human-readable description of the run's world, embedded
/// in snapshots so fingerprint mismatches can say what the snapshot was
/// actually written for.
fn describe_world(flags: &Flags, scheme: &str, seed: u64) -> String {
    if let Some(path) = flags.get("scenario") {
        return format!("photodtn run --scenario {path} --scheme {scheme} --seed {seed}");
    }
    let mut out = format!("photodtn run --scheme {scheme} --seed {seed}");
    for (name, ..) in WORLD_FLAGS {
        if let Some(v) = flags.get(name) {
            out.push_str(&format!(" --{name} {v}"));
        }
    }
    out
}

/// Names a scenario knob the way the command line spells it.
fn flag_spelling(section: &str, key: &str) -> String {
    match WORLD_FLAGS.iter().find(|w| (w.1, w.2) == (section, key)) {
        Some((flag, ..)) => format!("--{flag}"),
        None => format!("[{section}] {key}"),
    }
}

/// Lowers the world flags into the scenario they spell, through the
/// checks of its `[world]` and `[sim]` sections.
fn lower_flags(flags: &Flags) -> Result<Scenario, String> {
    let version = [("version".to_string(), Value::Int(SCENARIO_VERSION))];
    let mut doc = Document::from([("scenario".to_string(), version.into())]);
    for &(flag, section, key) in WORLD_FLAGS {
        let value = match (flag, flags.get(flag)) {
            (_, None) => continue,
            ("trace" | "style", Some(raw)) => Value::Str(raw.into()),
            ("nodes", _) => Value::Int(flags.num(flag, 0)?),
            _ => Value::Float(flags.num(flag, 0.0)?),
        };
        let table = doc.entry(section.into()).or_default();
        table.insert(key.into(), value);
    }
    Scenario::from_document(doc, flag_spelling).map_err(|e| format!("run: {e}"))
}

pub fn run(argv: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(argv, &SPEC)?;

    // The world comes from a scenario file or from the flags that spell
    // one; the two would silently fight, so they are exclusive.
    // --scheme/--seed and the run-mechanics flags compose with both.
    let scenario = match flags.get("scenario") {
        Some(path) => {
            for (name, ..) in WORLD_FLAGS {
                if flags.get(name).is_some() {
                    return Err(format!(
                        "run: --{name} conflicts with --scenario (declare it in the file)"
                    ));
                }
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => lower_flags(&flags)?,
    };

    let scheme_name = match flags.get("scheme") {
        Some(name) => name,
        // `["all"]` names the whole lineup, as in `sweep`; one run takes
        // its first scheme.
        None if scenario.schemes == ["all"] => ALL_SCHEME_NAMES[0],
        None => scenario.schemes.first().map_or("ours", String::as_str),
    };
    let mut scheme = try_scheme_by_name(scheme_name).ok_or_else(|| {
        format!(
            "run: unknown scheme {scheme_name:?} (known: {})",
            ALL_SCHEME_NAMES.join(", ")
        )
    })?;
    let seed: u64 = flags.num("seed", scenario.seed)?;
    let trace = scenario
        .build_trace(seed)
        .map_err(|e| format!("run: {e}"))?;
    let config = &scenario.base;
    // The chaos preset keeps the fault intensity as its interrupt
    // probability (0.5 × k); recover it for the summary line.
    let fault_intensity = config.faults.contact_interrupt_prob * 2.0;

    // --- checkpoint / resume flag-compatibility matrix ---
    let resume_dir = flags.get("resume-from");
    let ckpt_dir_flag = flags.get("checkpoint-dir");
    for dependent in ["checkpoint-every", "checkpoint-keep", "halt-after"] {
        if flags.get(dependent).is_some() && ckpt_dir_flag.is_none() && resume_dir.is_none() {
            return Err(format!(
                "run: --{dependent} needs --checkpoint-dir (or --resume-from)"
            ));
        }
    }
    if let (Some(r), Some(c)) = (resume_dir, ckpt_dir_flag) {
        if r != c {
            return Err(format!(
                "run: --resume-from {r} conflicts with --checkpoint-dir {c}: a resumed \
                 run keeps checkpointing into its own directory (did you mean just \
                 --resume-from {r}?)"
            ));
        }
    }
    // A resumed run keeps checkpointing into the directory it resumed
    // from, so a second interruption is also resumable.
    let ckpt_dir = resume_dir.or(ckpt_dir_flag);

    let mut sim = scenario
        .build_simulation(config, &trace, seed)
        .map_err(|e| format!("run: {e}"))?;

    // The fingerprint binds snapshots to this exact (config, trace,
    // seed, scheme) world; conflicting world flags on resume surface as
    // a typed mismatch error from the loader, never a panic. A scenario
    // file's text fingerprint is folded in too, because PoI weights and
    // schedules live outside SimConfig; flags spell no text (0).
    let world = describe_world(&flags, scheme_name, seed);
    let fingerprint =
        checkpoint::run_fingerprint(config, &trace, seed, scheme_name) ^ scenario.fingerprint;

    let resume_payload = match resume_dir {
        Some(dir) => {
            let (payload, path) = checkpoint::load_latest(Path::new(dir), Some(fingerprint))
                .map_err(|e| format!("run: {e}"))?;
            eprintln!(
                "resuming from {} (event {}, t = {:.0} s)",
                path.display(),
                payload.next_event_idx,
                payload.now
            );
            Some(payload)
        }
        None => None,
    };

    if let Some(path) = flags.get("trace-out") {
        let sink = match &resume_payload {
            // Truncate any trace lines past the snapshot's sequence
            // number, then append: the resumed file is byte-identical
            // to an uninterrupted traced run.
            Some(payload) => JsonlSink::resume_append(path, payload.trace_seq)
                .map_err(|e| format!("run: resuming trace {path}: {e}"))?,
            None => JsonlSink::create(path).map_err(|e| format!("run: opening {path}: {e}"))?,
        }
        .with_sync(flags.has("trace-sync"));
        sim.set_trace_sink(Box::new(sink));
        eprintln!("tracing run events to {path}");
    } else if flags.has("trace-sync") {
        return Err("run: --trace-sync requires --trace-out".into());
    }

    if let Some(dir) = ckpt_dir {
        let every: f64 = flags.num("checkpoint-every", 3600.0)?;
        let keep: usize = flags.num("checkpoint-keep", 3usize)?;
        let mut policy = CheckpointPolicy::new(dir, every, fingerprint, world).with_keep(keep);
        if flags.get("halt-after").is_some() {
            policy = policy.with_halt_after(flags.num("halt-after", 0.0)?);
        }
        sim.set_checkpoints(policy);
        checkpoint::reset_stop();
        crate::signals::install_graceful_stop();
        eprintln!("checkpointing every {every} sim-seconds to {dir} (keep {keep})");
    }

    if let Some(payload) = resume_payload {
        sim.resume_from(payload, &scheme)
            .map_err(|e| format!("run: {e}"))?;
    }

    eprintln!(
        "running {scheme_name} on {} nodes / {} events (seed {seed})…",
        trace.num_nodes(),
        sim.event_count()
    );
    let pois = sim.pois_shared();
    let (result, delivered, stats) = sim.run_instrumented(&mut scheme);

    if stats.interrupted {
        let dir = ckpt_dir.expect("only checkpointed runs can be interrupted");
        eprintln!(
            "run interrupted; a final snapshot is in {dir} — continue with \
             `photodtn run --resume-from {dir}` plus the same world flags"
        );
        return Ok(EXIT_INTERRUPTED);
    }

    println!(
        "{:>7} {:>9} {:>10} {:>11}",
        "t (h)", "point%", "aspect°", "delivered"
    );
    let step = (result.samples.len() / 12).max(1);
    for s in result.samples.iter().step_by(step) {
        println!(
            "{:>7.0} {:>8.1}% {:>9.1}° {:>11}",
            s.t_hours,
            100.0 * s.point_coverage,
            s.aspect_coverage_deg,
            s.delivered_photos
        );
    }

    if !config.faults.is_noop() {
        let f = result.final_sample();
        println!("\nfault injection (intensity {fault_intensity}):");
        println!("  contacts interrupted : {}", f.contacts_interrupted);
        println!("  transfers lost       : {}", f.transfers_lost);
        println!("  transfers corrupt    : {}", f.transfers_corrupt);
        println!("  node crashes         : {}", f.node_crashes);
        println!("  uplinks degraded     : {}", f.uplinks_degraded);
    }

    if flags.has("perf") {
        println!("\nperformance (wall clock; not part of the deterministic result):");
        println!("  wall clock     : {:.3} s", stats.wall_seconds());
        println!(
            "  events         : {} ({:.0} events/s)",
            stats.events,
            stats.events_per_sec()
        );
        println!(
            "  contacts       : {} ({:.0} ns/contact)",
            stats.contacts,
            stats.ns_per_contact()
        );
        println!("  uploads        : {}", stats.uploads);
        println!(
            "  coverage cache : {} hits / {} misses ({:.1}% hit rate, {} evictions)",
            stats.cache.hits,
            stats.cache.misses,
            100.0 * stats.cache.hit_rate(),
            stats.cache.evictions
        );
    }

    if flags.has("report") {
        let metas: Vec<PhotoMeta> = delivered.metas().copied().collect();
        let report = FullViewReport::analyze(&pois, metas.iter(), config.coverage);
        println!("\nfull-view report on the delivered set:");
        println!(
            "  point-covered PoIs : {}/{}",
            report.point_covered_count(),
            pois.len()
        );
        println!("  full-view PoIs     : {}", report.full_view_count());
        println!(
            "  aspect redundancy  : {:.1}° total overlap across {} photos",
            redundancy_degrees(&pois, &metas, config.coverage),
            metas.len()
        );
        if let Some(worst) = report.tasking_priorities().first() {
            println!(
                "  neediest PoI       : {} ({:.0}° covered, biggest gap {:.0}° around {})",
                worst.poi,
                worst.aspect.to_degrees(),
                worst.largest_gap.to_degrees(),
                worst.gap_center
            );
        }
    }

    if flags.has("json") {
        let f = result.final_sample();
        let mut value = serde_json::json!({
            "scheme": result.scheme,
            "seed": seed,
            "point_coverage": f.point_coverage,
            "aspect_coverage_deg": f.aspect_coverage_deg,
            "delivered_photos": f.delivered_photos,
        });
        let serde_json::Value::Object(obj) = &mut value else {
            unreachable!("run JSON is an object");
        };
        // Only emit the fault counters when injection is on, so zero-fault
        // output stays byte-compatible with earlier versions.
        if !config.faults.is_noop() {
            obj.insert("fault_intensity".into(), serde_json::json!(fault_intensity));
            let counters = [
                ("contacts_interrupted", f.contacts_interrupted),
                ("transfers_lost", f.transfers_lost),
                ("transfers_corrupt", f.transfers_corrupt),
                ("node_crashes", f.node_crashes),
                ("uplinks_degraded", f.uplinks_degraded),
            ];
            for (key, count) in counters {
                obj.insert(key.into(), serde_json::json!(count));
            }
        }
        // Perf numbers are wall-clock (nondeterministic), so they join
        // the JSON only on request — default output stays byte-stable.
        if flags.has("perf") {
            obj.insert("cache_hits".into(), serde_json::json!(stats.cache.hits));
            obj.insert("cache_misses".into(), serde_json::json!(stats.cache.misses));
            obj.insert(
                "cache_hit_rate".into(),
                serde_json::json!(stats.cache.hit_rate()),
            );
            obj.insert("events".into(), serde_json::json!(stats.events));
            obj.insert(
                "events_per_sec".into(),
                serde_json::json!(stats.events_per_sec()),
            );
            obj.insert(
                "wall_seconds".into(),
                serde_json::json!(stats.wall_seconds()),
            );
        }
        println!("{value}");
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use photodtn_contacts::synth::{CommunityTraceGenerator, MetroTraceGenerator, TraceStyle::*};
    use photodtn_contacts::{parse_trace, write_trace};
    use photodtn_sim::{FaultConfig, SimConfig};

    use super::*;

    const EACH_KNOB: &str = "--scheme spray-wait --style mit --nodes 8 --hours 6 \
        --photos-per-hour 10 --storage-gb 0.1 --deadline 5 --failures 0.2 --seed 2";
    const METRO: &str = "--style metro --nodes 300 --hours 1 --photos-per-hour 50 --seed 2";
    const SMALL: &str = "--style mit --nodes 6 --hours 2";
    const FAULTED: &str =
        "--style mit --nodes 8 --hours 6 --photos-per-hour 10 --faults 0.6 --seed 3";
    const WORLD: &str = "--style mit --nodes 8 --hours 6 --photos-per-hour 10 --seed 2";

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn small_run_each_knob() {
        run(&argv(&format!("{EACH_KNOB} --report --json --perf"))).unwrap();
    }

    #[test]
    fn metro_style_run() {
        run(&argv(&format!("--scheme ours {METRO} --json --perf"))).unwrap();
    }

    #[test]
    fn unknown_scheme_is_a_typed_error() {
        let err = run(&argv(&format!("--scheme bogus {SMALL}"))).unwrap_err();
        assert!(err.contains("unknown scheme \"bogus\""), "{err}");
        let known = format!("(known: {})", ALL_SCHEME_NAMES.join(", "));
        assert!(err.contains(&known), "{err}");
    }

    #[test]
    fn faulted_run_emits_counters() {
        run(&argv(&format!("--scheme ours {FAULTED} --json"))).unwrap();
    }

    /// World flags go through the `[world]` and `[sim]` checks: a bad or
    /// degenerate world is a typed error naming the flag, never a panic
    /// or a silent run.
    #[test]
    fn bad_world_flags_are_typed_errors() {
        let empty = tmp_dir("empty").join("empty.trace");
        std::fs::write(&empty, "# a trace with no contacts\n").unwrap();
        let empty = format!("--trace {}", empty.display());
        for (spelling, needle) in [
            ("--trace /nonexistent.trace", "/nonexistent.trace"),
            (&empty, "no nodes"),
            ("--style mit --nodes 6 --hours 2 --faults 1.5", "--faults"),
            ("--hours 0", "--hours"),
            ("--hours -3", "--hours"),
            ("--nodes 0", "--nodes"),
            ("--style metro --hours -1", "--hours"),
        ] {
            let err = run(&argv(spelling)).unwrap_err();
            assert!(err.starts_with("run: "), "{spelling}: {err}");
            assert!(err.contains(needle), "{spelling}: {err}");
        }
    }

    /// Every world above, the defaults, another style and a trace file
    /// lower to the (config, trace) pair flag runs used to build by hand,
    /// with no text fingerprint: their checkpoint fingerprints hold.
    #[test]
    fn flag_lowering_matches_hand_built_worlds() {
        let gen = |style, nodes, hours, seed| {
            CommunityTraceGenerator::new(style)
                .with_num_nodes(nodes)
                .with_duration_hours(hours)
                .generate(seed)
        };
        let base = SimConfig::mit_default;
        let rate = |r| base().with_photos_per_hour(r);
        let knobs = rate(10.0)
            .with_storage_bytes((0.1 * 1024.0 * 1024.0 * 1024.0) as u64)
            .with_deadline_hours(5.0)
            .with_failure_fraction(0.2);
        let faulted = rate(10.0).with_faults(FaultConfig::chaos(0.6));
        let metro = MetroTraceGenerator::new()
            .with_num_nodes(300)
            .with_duration_hours(1.0);
        let default = CommunityTraceGenerator::new(MitLike).generate(1);
        let cambridge = "--style cambridge --nodes 8 --hours 6";
        let file = tmp_dir("lowering").join("world.trace");
        std::fs::write(&file, write_trace(&gen(MitLike, 6, 3.0, 5))).unwrap();
        let from_file = parse_trace(&std::fs::read_to_string(&file).unwrap()).unwrap();
        let trace_flag = format!("--trace {}", file.display());
        let cases = [
            ("", default, base()),
            (EACH_KNOB, gen(MitLike, 8, 6.0, 2), knobs),
            (METRO, metro.generate(2), rate(50.0)),
            (SMALL, gen(MitLike, 6, 2.0, 1), base()),
            (FAULTED, gen(MitLike, 8, 6.0, 3), faulted),
            (WORLD, gen(MitLike, 8, 6.0, 2), rate(10.0)),
            (cambridge, gen(CambridgeLike, 8, 6.0, 1), base()),
            (&trace_flag, from_file, base()),
        ];
        for (spelling, trace, config) in cases {
            let flags = Flags::parse(&argv(spelling), &SPEC).unwrap();
            let sc = lower_flags(&flags).unwrap();
            let seed = flags.num("seed", sc.seed).unwrap();
            assert_eq!((&sc.base, sc.fingerprint), (&config, 0), "{spelling}");
            assert_eq!(sc.build_trace(seed).unwrap(), trace, "{spelling}");
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("photodtn-run-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scenario_run_end_to_end() {
        let dir = tmp_dir("scenario");
        let path = dir.join("world.toml");
        std::fs::write(
            &path,
            "[scenario]\nversion = 1\nseed = 2\n[world]\nstyle = \"mit\"\nnodes = 8\nhours = 6\n\
             [workload]\nphotos_per_hour = 10\n[schemes]\nnames = [\"spray-wait\"]\n",
        )
        .unwrap();
        let code = run(&[
            "--scenario".into(),
            path.to_str().unwrap().into(),
            "--json".into(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_conflicts_with_world_flags() {
        let dir = tmp_dir("scenario-conflict");
        let path = dir.join("world.toml");
        std::fs::write(&path, "[scenario]\nversion = 1\n").unwrap();
        for flag in ["--style mit", "--nodes 8", "--hours 4", "--faults 0.5"] {
            let mut args: Vec<String> = vec!["--scenario".into(), path.to_str().unwrap().into()];
            args.extend(flag.split_whitespace().map(String::from));
            let err = run(&args).unwrap_err();
            assert!(err.contains("conflicts with --scenario"), "{flag}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_parse_errors_name_the_file() {
        let dir = tmp_dir("scenario-bad");
        let path = dir.join("bad.toml");
        std::fs::write(&path, "[scenario]\nversion = 99\n").unwrap();
        let err = run(&["--scenario".into(), path.to_str().unwrap().into()]).unwrap_err();
        assert!(
            err.contains("bad.toml") && err.contains("unsupported"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `--checkpoint-dir`/`--resume-from` compatibility matrix, as
    /// documented: every dependent checkpoint flag needs a directory, and
    /// resume and checkpoint directories must agree.
    #[test]
    fn checkpoint_flag_matrix() {
        let dir = tmp_dir("flag-matrix");
        let ckpt = dir.join("ckpt");
        let ckpt = ckpt.to_str().unwrap();
        let world = format!("--scheme best-possible {WORLD}");

        // Dependent flags without a directory: rejected.
        for dependent in [
            "--checkpoint-every 600",
            "--checkpoint-keep 2",
            "--halt-after 3600",
        ] {
            let err = run(&argv(&format!("{world} {dependent}"))).unwrap_err();
            assert!(err.contains("--checkpoint-dir"), "{dependent}: {err}");
        }
        // Disagreeing resume/checkpoint directories: rejected.
        let err = run(&argv(&format!(
            "{world} --resume-from {ckpt} --checkpoint-dir {dir}/other",
            dir = dir.display()
        )))
        .unwrap_err();
        assert!(err.contains("conflicts"), "{err}");

        // Checkpointing alone, and with every dependent flag: accepted.
        for accepted in [
            format!("{world} --checkpoint-dir {ckpt}"),
            format!("{world} --checkpoint-dir {ckpt} --checkpoint-every 600 --checkpoint-keep 2"),
        ] {
            assert_eq!(run(&argv(&accepted)).unwrap(), 0, "{accepted}");
        }
        // Resuming from the snapshots the accepted runs left behind
        // completes cleanly too.
        let resumed = format!("{world} --resume-from {ckpt}");
        assert_eq!(run(&argv(&resumed)).unwrap(), 0, "{resumed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
