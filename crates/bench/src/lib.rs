//! Shared harness for the figure-reproduction binaries (`fig3` … `fig8`).
//!
//! Each binary regenerates one figure of the paper's evaluation: it
//! builds the Table I scenario, runs the scheme lineup over several
//! seeds, and prints the same series the figure plots (plus a JSON block
//! for machine consumption). See `EXPERIMENTS.md` at the repository root
//! for paper-vs-measured records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demo;
pub mod svg;

use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
use photodtn_contacts::ContactTrace;
use photodtn_schemes::{ModifiedSpray, OurScheme, PhotoNet, SprayAndWait};
use photodtn_sim::{try_run_averaged, AveragedSeries, Scheme, SimConfig};

/// Command-line options shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Number of independent runs to average (the paper uses 50; the
    /// default here is 5 to keep a laptop run in minutes).
    pub runs: u64,
    /// Which trace family to use.
    pub style: TraceStyle,
    /// Optional override of the trace length in hours.
    pub hours: Option<f64>,
    /// Emit the machine-readable JSON block.
    pub json: bool,
    /// Include the extra baselines (epidemic, prophet, oracle) beyond the
    /// paper's lineup.
    pub extended: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            runs: 3,
            style: TraceStyle::MitLike,
            hours: None,
            json: true,
            extended: false,
        }
    }
}

impl Args {
    /// The scheme lineup for this invocation: the paper's five, plus the
    /// extra baselines when `--extended` was given.
    #[must_use]
    pub fn lineup(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = LINEUP.to_vec();
        if self.extended {
            names.extend_from_slice(EXTENDED_LINEUP);
        }
        names
    }

    /// Parses `--runs N`, `--trace mit|cambridge`, `--hours H`,
    /// `--no-json`, `--extended` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--runs" => {
                    args.runs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--runs needs a positive integer");
                }
                "--trace" => {
                    args.style = match it.next().as_deref() {
                        Some("mit") => TraceStyle::MitLike,
                        Some("cambridge") => TraceStyle::CambridgeLike,
                        other => panic!("--trace must be mit or cambridge, got {other:?}"),
                    };
                }
                "--hours" => {
                    args.hours = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--hours needs a number"),
                    );
                }
                "--no-json" => args.json = false,
                "--extended" => args.extended = true,
                other => panic!(
                    "unknown flag {other:?} (use --runs/--trace/--hours/--no-json/--extended)"
                ),
            }
        }
        args
    }

    /// The seeds of the averaged runs.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        (1..=self.runs).collect()
    }

    /// Builds this experiment's trace for one seed.
    #[must_use]
    pub fn trace(&self, seed: u64) -> ContactTrace {
        let mut gen = CommunityTraceGenerator::new(self.style);
        if let Some(h) = self.hours {
            gen = gen.with_duration_hours(h);
        }
        gen.generate(seed)
    }

    /// The Table I configuration. Both trace styles share it; the trace
    /// supplies the node count and the duration.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        SimConfig::mit_default()
    }
}

/// Identifier of every scheme in the Fig. 5–8 lineup.
pub const LINEUP: &[&str] = &[
    "best-possible",
    "ours",
    "no-metadata",
    "modified-spray",
    "spray-wait",
];

/// The extra baselines appended by `--extended`.
pub const EXTENDED_LINEUP: &[&str] = &["epidemic", "prophet", "oracle"];

/// Every name [`scheme_by_name`] understands, for validation and error
/// messages.
pub const ALL_SCHEME_NAMES: &[&str] = &[
    "best-possible",
    "ours",
    "no-metadata",
    "modified-spray",
    "spray-wait",
    "photonet",
    "epidemic",
    "direct",
    "oracle",
    "prophet",
];

/// Instantiates a scheme by its lineup name, or `None` for an unknown
/// name (so callers can validate a scenario's schemes up front instead of
/// panicking mid-batch).
#[must_use]
pub fn try_scheme_by_name(name: &str) -> Option<Box<dyn Scheme + Send>> {
    Some(match name {
        "best-possible" => Box::new(photodtn_schemes::BestPossible),
        "ours" => Box::new(OurScheme::new()),
        "no-metadata" => Box::new(OurScheme::no_metadata()),
        "modified-spray" => Box::new(ModifiedSpray::new()),
        "spray-wait" => Box::new(SprayAndWait::new()),
        "photonet" => Box::new(PhotoNet::new()),
        "epidemic" => Box::new(photodtn_schemes::Epidemic::new()),
        "direct" => Box::new(photodtn_schemes::DirectDelivery::new()),
        "oracle" => Box::new(photodtn_schemes::CentralizedOracle::new()),
        "prophet" => Box::new(photodtn_schemes::ProphetRouting::new()),
        _ => return None,
    })
}

/// Instantiates a scheme by its lineup name.
///
/// # Panics
///
/// Panics on an unknown name.
#[must_use]
pub fn scheme_by_name(name: &str) -> Box<dyn Scheme + Send> {
    try_scheme_by_name(name).unwrap_or_else(|| panic!("unknown scheme {name:?}"))
}

/// Runs one averaged experiment under supervisor panic isolation.
///
/// A panicking seed no longer aborts the whole figure binary: the
/// failure is attributed on stderr (scheme, seed, payload) and the
/// experiment degrades to the surviving seeds' average. The process
/// exits (code 1) only when *every* seed failed — there is nothing left
/// to plot.
pub fn run_averaged_or_exit<S, TF, SF>(
    tag: &str,
    config: &SimConfig,
    trace_for_seed: TF,
    scheme_factory: SF,
    seeds: &[u64],
) -> AveragedSeries
where
    S: Scheme,
    TF: Fn(u64) -> ContactTrace + Sync,
    SF: Fn() -> S + Sync,
{
    match try_run_averaged(config, trace_for_seed, scheme_factory, seeds) {
        Ok(series) => series,
        Err(err) => {
            eprintln!("{tag}: {err}");
            match err.surviving {
                Some(series) => {
                    eprintln!(
                        "{tag}: continuing with the {} surviving seed(s) of {}",
                        series.runs,
                        seeds.len()
                    );
                    series
                }
                None => {
                    eprintln!("{tag}: every seed failed; nothing to average");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Prints one experiment's averaged series as an aligned table.
pub fn print_series_table(title: &str, series: &[AveragedSeries], every: usize) {
    println!("\n── {title} ──");
    print!("{:>7}", "t (h)");
    for s in series {
        print!(" | {:^30}", s.scheme);
    }
    println!();
    print!("{:>7}", "");
    for _ in series {
        print!(" | {:>8} {:>9} {:>10}", "point%", "aspect°", "delivered");
    }
    println!();
    let len = series.iter().map(|s| s.samples.len()).min().unwrap_or(0);
    for i in (0..len).step_by(every.max(1)) {
        print!("{:>7.0}", series[0].samples[i].t_hours);
        for s in series {
            let x = &s.samples[i];
            print!(
                " | {:>7.1}% {:>8.1}° {:>10}",
                100.0 * x.point_coverage,
                x.aspect_coverage_deg,
                x.delivered_photos
            );
        }
        println!();
    }
}

/// Prints one experiment's final samples as JSON rows for EXPERIMENTS.md.
pub fn print_json(figure: &str, args: &Args, series: &[AveragedSeries]) {
    if !args.json {
        return;
    }
    let rows: Vec<serde_json::Value> = series
        .iter()
        .map(|s| {
            let f = s.final_sample();
            serde_json::json!({
                "figure": figure,
                "trace": args.style.name(),
                "runs": s.runs,
                "scheme": s.scheme,
                "point_coverage": f.point_coverage,
                "aspect_coverage_deg": f.aspect_coverage_deg,
                "delivered_photos": f.delivered_photos,
            })
        })
        .collect();
    println!(
        "\nJSON {}",
        serde_json::to_string_pretty(&rows).expect("series serialize")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_names_resolve() {
        for name in LINEUP {
            assert_eq!(scheme_by_name(name).name(), *name);
        }
        assert_eq!(scheme_by_name("photonet").name(), "photonet");
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_scheme_panics() {
        let _ = scheme_by_name("bogus");
    }

    #[test]
    fn default_args() {
        let a = Args::default();
        assert_eq!(a.runs, 3);
        assert_eq!(a.seeds(), vec![1, 2, 3]);
        let t = a.trace(1);
        assert_eq!(t.num_nodes(), 97);
    }
}
