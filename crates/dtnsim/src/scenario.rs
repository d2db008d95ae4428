//! Declarative scenario engine: the one in-memory description of a
//! simulated world — topology, mobility, PoI layout and importance
//! schedule, photo workload, and fault plan — and the only code that
//! turns one into a trace ([`Scenario::build_trace`]) and a
//! [`Simulation`] ([`Scenario::build_simulation`]).
//!
//! Every front end lowers its spelling of a world through
//! [`Scenario::from_document`] and its checks: `photodtn run --scenario`,
//! `photodtn sweep` and `dump_results --scenario` read a versioned TOML
//! file, and `photodtn run`'s world flags fill the `[world]` and `[sim]`
//! sections. `photodtn sweep` expands a scenario into a (scheme ×
//! variant × seed) cell grid.
//!
//! The parser is the strict TOML subset from [`spec`] (sections,
//! `key = value`, scalars, flat arrays, dotted section names): unknown
//! sections and keys are errors, duplicates are typed errors carrying
//! both line numbers.
//!
//! ```toml
//! [scenario]
//! version = 1
//! name = "hospital-shift"
//! seed = 42
//!
//! [world]
//! style = "mit"          # or cambridge / metro / waypoint, or trace = "file"
//! nodes = 16
//! hours = 36.0
//! trace_seed = 3         # omit to derive the trace from each cell's seed
//! relays = 2             # stationary relay nodes grafted onto the trace
//!
//! [pois]
//! count = 60
//!
//! [pois.phase_0]         # importance schedule: reweight at 12 h
//! at_hours = 12.0
//! focus = [3, 4, 5]
//! focus_weight = 8.0
//! base_weight = 1.0
//!
//! [workload]
//! photos_per_hour = 30.0
//!
//! [faults]
//! intensity = 0.5
//!
//! [schemes]
//! names = ["ours", "spray-wait"]
//!
//! [grid]                 # optional sweep axes (cross product)
//! storage_gb = [0.15625, 0.3125]
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use photodtn_contacts::synth::{
    CommunityTraceGenerator, MetroTraceGenerator, RelayOverlay, TraceStyle, WaypointTraceGenerator,
};
use photodtn_contacts::ContactTrace;
use photodtn_coverage::{Poi, PoiList};

pub mod spec;

use spec::{
    apply_config, expand_grid, parse_grid, parse_toml, reject_unknown, take_int_array, take_string,
    take_string_array, Document, SpecError, Value, CONFIG_KEYS,
};

use crate::supervisor::journal::fingerprint;
use crate::supervisor::{CellError, CellId};
use crate::{SimBuildError, SimConfig, Simulation};

/// The schema version this build understands.
pub const SCENARIO_VERSION: i64 = 1;

/// Where the scenario's contact trace comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldSource {
    /// A trace file in ONE format, parsed per cell.
    File(PathBuf),
    /// A synthetic community trace (`mit` / `cambridge`).
    Community {
        /// Trace family.
        style: TraceStyle,
        /// Node-count override.
        nodes: Option<u32>,
        /// Duration override, hours.
        hours: Option<f64>,
    },
    /// The metro/grid commuter model (`style = "metro"`).
    Metro {
        /// Node-count override.
        nodes: Option<u32>,
        /// Duration override, hours.
        hours: Option<f64>,
        /// Grid cells per side override.
        grid: Option<u32>,
    },
    /// Random-waypoint mobility (`style = "waypoint"`).
    Waypoint {
        /// Number of nodes (≥ 2).
        nodes: u32,
        /// Region side length, meters.
        region: f64,
        /// Duration, hours.
        hours: f64,
    },
}

/// The `[world]` section: mobility plus optional stationary relays.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldSpec {
    /// Trace source.
    pub source: WorldSource,
    /// Fixed trace seed; `None` derives the trace from each cell's run
    /// seed (the CLI-preset behaviour, where `--seed` seeds both).
    pub trace_seed: Option<u64>,
    /// Stationary relay nodes grafted onto the mobile trace (0 = none).
    pub relays: u32,
    /// Mean mobile-node visits per relay per hour.
    pub relay_visits_per_hour: f64,
    /// Mean visit duration, minutes.
    pub relay_visit_minutes: f64,
}

/// One step of the PoI importance schedule: at `at_hours`, the PoIs in
/// `focus` take `focus_weight` and everything else `base_weight`.
#[derive(Clone, Debug, PartialEq)]
pub struct PoiPhase {
    /// Simulation time of the reweight, hours.
    pub at_hours: f64,
    /// PoI ids promoted by this phase.
    pub focus: Vec<u32>,
    /// Weight of the focused PoIs.
    pub focus_weight: f64,
    /// Weight of every other PoI.
    pub base_weight: f64,
}

/// The `[pois]` section plus its `[pois.phase_N]` schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoiSpec {
    /// PoI count override (defaults to Table I's).
    pub count: Option<u32>,
    /// Explicit initial weights, one per PoI (geometry stays the
    /// engine's seeded placement; only importance is declared).
    pub weights: Option<Vec<f64>>,
    /// Importance schedule, ascending in time.
    pub phases: Vec<PoiPhase>,
}

/// A parsed, validated scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (defaults to `"unnamed"`).
    pub name: String,
    /// Default run seed (`[scenario] seed`, default 1 — the CLI default).
    pub seed: u64,
    /// Sweep seeds (defaults to `[seed]`).
    pub seeds: Vec<u64>,
    /// The world: mobility, relays, trace seeding.
    pub world: WorldSpec,
    /// PoI layout and importance schedule.
    pub pois: PoiSpec,
    /// Scheme names (validated by the caller against its scheme
    /// factory; `["all"]` is expanded by the CLI layer).
    pub schemes: Vec<String>,
    /// Base config after `[sim]`, `[workload]`, `[faults]`, `[pois]`
    /// count are applied.
    pub base: SimConfig,
    /// Grid axes: key → values (cross product forms the variants).
    pub grid: BTreeMap<String, Vec<f64>>,
    /// FNV-1a fingerprint of the raw scenario text (journal binding); 0
    /// for a scenario that has no text, such as one spelled by flags.
    pub fingerprint: u64,
}

impl Scenario {
    /// Parses and validates a scenario file.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on syntax errors, an unsupported
    /// version, unknown sections/keys, type mismatches, out-of-range
    /// values, or a knob declared in two sections at once.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let (doc, header_lines) = parse_toml(text)?;
        // Name the file's first unknown section, at its line.
        let unknown = header_lines
            .iter()
            .filter(|(name, _)| !is_known_section(name));
        if let Some((name, &line)) = unknown.min_by_key(|&(_, &line)| line) {
            return Err(SpecError {
                line,
                ..unknown_section(name)
            });
        }
        let mut scenario = Self::from_document(doc, |section, key| format!("[{section}] {key}"))?;
        scenario.fingerprint = fingerprint(text);
        Ok(scenario)
    }

    /// Validates a parsed document and lowers it into a scenario. Every
    /// spelling of a world comes through here: [`parse`](Self::parse)
    /// passes a file, `photodtn run` a document its world flags fill.
    /// `spell(section, key)` names a `[world]` or `[sim]` knob in error
    /// messages the way its author wrote it (`[world] hours`, `--hours`).
    /// The scenario has no text, so its fingerprint is 0.
    ///
    /// # Errors
    ///
    /// As for [`parse`](Self::parse), minus syntax errors.
    pub fn from_document(
        mut doc: Document,
        spell: fn(&str, &str) -> String,
    ) -> Result<Self, SpecError> {
        if let Some(name) = doc.keys().find(|name| !is_known_section(name)) {
            return Err(unknown_section(name));
        }

        // --- [scenario] ---
        let mut head = doc.remove("scenario").ok_or_else(|| {
            SpecError::global("missing [scenario] section (version = 1 at minimum)")
        })?;
        match head.remove("version") {
            Some(Value::Int(SCENARIO_VERSION)) => {}
            Some(Value::Int(v)) => {
                return Err(SpecError::global(format!(
                    "unsupported scenario version {v} (this build understands {SCENARIO_VERSION})"
                )))
            }
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[scenario] version must be an integer, got {}",
                    v.type_name()
                )))
            }
            None => {
                return Err(SpecError::global(
                    "[scenario] needs version = 1 (the schema is versioned)",
                ))
            }
        }
        let name = take_string(&mut head, "name")?.unwrap_or_else(|| "unnamed".to_string());
        let seed = match head.remove("seed") {
            None => 1,
            Some(Value::Int(s)) if s >= 0 => s as u64,
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[scenario] seed must be a non-negative integer, got {v:?}"
                )))
            }
        };
        let seeds = match take_int_array(&mut head, "seeds")? {
            Some(seeds) if seeds.is_empty() => {
                return Err(SpecError::global("[scenario] seeds must be non-empty"))
            }
            Some(seeds) => seeds,
            None => vec![seed],
        };
        reject_unknown(&head, "scenario")?;

        // --- [world] ---
        let mut world_tbl = doc.remove("world").unwrap_or_default();
        let world_key = |key: &str| spell("world", key);
        let take_pos_f64 =
            |tbl: &mut BTreeMap<String, Value>, key: &str| -> Result<Option<f64>, SpecError> {
                match tbl.remove(key) {
                    None => Ok(None),
                    Some(v) => {
                        let f = v.as_f64().ok_or_else(|| {
                            SpecError::global(format!(
                                "{} must be a number, got {}",
                                world_key(key),
                                v.type_name()
                            ))
                        })?;
                        if f > 0.0 && f.is_finite() {
                            Ok(Some(f))
                        } else {
                            Err(SpecError::global(format!(
                                "{} must be positive, got {f}",
                                world_key(key)
                            )))
                        }
                    }
                }
            };
        let take_pos_u32 =
            |tbl: &mut BTreeMap<String, Value>, key: &str| -> Result<Option<u32>, SpecError> {
                match tbl.remove(key) {
                    None => Ok(None),
                    Some(Value::Int(n)) if n > 0 && n <= i64::from(u32::MAX) => Ok(Some(n as u32)),
                    Some(v) => Err(SpecError::global(format!(
                        "{} must be a positive integer, got {v:?}",
                        world_key(key)
                    ))),
                }
            };
        let source = if let Some(file) = take_string(&mut world_tbl, "trace")? {
            for key in ["style", "nodes", "hours", "grid", "region"] {
                if world_tbl.contains_key(key) {
                    return Err(SpecError::global(format!(
                        "{} conflicts with {}",
                        world_key("trace"),
                        world_key(key)
                    )));
                }
            }
            WorldSource::File(PathBuf::from(file))
        } else {
            let nodes = take_pos_u32(&mut world_tbl, "nodes")?;
            let hours = take_pos_f64(&mut world_tbl, "hours")?;
            match take_string(&mut world_tbl, "style")?.as_deref() {
                None | Some("mit") => WorldSource::Community {
                    style: TraceStyle::MitLike,
                    nodes,
                    hours,
                },
                Some("cambridge") => WorldSource::Community {
                    style: TraceStyle::CambridgeLike,
                    nodes,
                    hours,
                },
                Some("metro") => WorldSource::Metro {
                    nodes,
                    hours,
                    grid: take_pos_u32(&mut world_tbl, "grid")?,
                },
                Some("waypoint") => {
                    let nodes = nodes.unwrap_or(20);
                    if nodes < 2 {
                        return Err(SpecError::global(format!(
                            "waypoint needs {} >= 2",
                            world_key("nodes")
                        )));
                    }
                    WorldSource::Waypoint {
                        nodes,
                        region: take_pos_f64(&mut world_tbl, "region")?.unwrap_or(1000.0),
                        hours: hours.unwrap_or(12.0),
                    }
                }
                Some(other) => {
                    return Err(SpecError::global(format!(
                        "{}: unknown style {other:?} (mit/cambridge/metro/waypoint)",
                        world_key("style")
                    )))
                }
            }
        };
        let trace_seed = match world_tbl.remove("trace_seed") {
            None => None,
            Some(Value::Int(s)) if s >= 0 => Some(s as u64),
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[world] trace_seed must be a non-negative integer, got {v:?}"
                )))
            }
        };
        let relays = match world_tbl.remove("relays") {
            None => 0,
            Some(Value::Int(n)) if (0..=i64::from(u16::MAX)).contains(&n) => n as u32,
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[world] relays must be a small non-negative integer, got {v:?}"
                )))
            }
        };
        for key in ["relay_visits_per_hour", "relay_visit_minutes"] {
            if relays == 0 && world_tbl.contains_key(key) {
                return Err(SpecError::global(format!(
                    "{} needs {} > 0",
                    world_key(key),
                    world_key("relays")
                )));
            }
        }
        let relay_visits_per_hour =
            take_pos_f64(&mut world_tbl, "relay_visits_per_hour")?.unwrap_or(0.5);
        let relay_visit_minutes =
            take_pos_f64(&mut world_tbl, "relay_visit_minutes")?.unwrap_or(10.0);
        reject_unknown(&world_tbl, "world")?;
        let world = WorldSpec {
            source,
            trace_seed,
            relays,
            relay_visits_per_hour,
            relay_visit_minutes,
        };

        // --- base config: Table I's, with the sections layered on ---
        let mut base = SimConfig::mit_default();

        // --- [pois] + [pois.phase_N] ---
        let mut pois_tbl = doc.remove("pois").unwrap_or_default();
        let count = match pois_tbl.remove("count") {
            None => None,
            Some(Value::Int(n)) if n > 0 && n <= 1_000_000 => Some(n as u32),
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[pois] count must be a positive integer, got {v:?}"
                )))
            }
        };
        let weights = match pois_tbl.remove("weights") {
            None => None,
            Some(Value::Array(items)) => {
                let w: Vec<f64> = items
                    .iter()
                    .map(|v| match v.as_f64() {
                        Some(f) if f >= 0.0 && f.is_finite() => Ok(f),
                        _ => Err(SpecError::global(
                            "[pois] weights must be non-negative numbers".to_string(),
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                if w.is_empty() {
                    return Err(SpecError::global("[pois] weights must be non-empty"));
                }
                Some(w)
            }
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[pois] weights must be an array of numbers, got {}",
                    v.type_name()
                )))
            }
        };
        reject_unknown(&pois_tbl, "pois")?;
        let num_pois = match (count, &weights) {
            (Some(c), Some(w)) if w.len() != c as usize => {
                return Err(SpecError::global(format!(
                    "[pois] weights has {} entries but count = {c}",
                    w.len()
                )))
            }
            (Some(c), _) => c,
            (None, Some(w)) => w.len() as u32,
            (None, None) => base.num_pois,
        };
        base.num_pois = num_pois;

        // Phase sections: [pois.phase_0], [pois.phase_1], … — contiguous
        // from 0, strictly ascending in time.
        let phase_names: Vec<String> = doc
            .keys()
            .filter(|s| is_phase_section(s))
            .cloned()
            .collect();
        let mut phases = Vec::with_capacity(phase_names.len());
        for i in 0..phase_names.len() {
            let name = format!("pois.phase_{i}");
            let Some(mut tbl) = doc.remove(&name) else {
                return Err(SpecError::global(format!(
                    "PoI phases must be numbered contiguously from 0: missing [{name}] \
                     (found {phase_names:?})"
                )));
            };
            let at_hours = match tbl.remove("at_hours").map(|v| v.as_f64()) {
                Some(Some(h)) if h > 0.0 && h.is_finite() => h,
                _ => {
                    return Err(SpecError::global(format!(
                        "[{name}] needs at_hours = <positive number>"
                    )))
                }
            };
            let focus = take_int_array(&mut tbl, "focus")?
                .ok_or_else(|| SpecError::global(format!("[{name}] needs focus = [poi ids]")))?;
            let focus: Vec<u32> = focus
                .into_iter()
                .map(|id| {
                    if id < u64::from(num_pois) {
                        Ok(id as u32)
                    } else {
                        Err(SpecError::global(format!(
                            "[{name}] focus id {id} out of range (world has {num_pois} PoIs)"
                        )))
                    }
                })
                .collect::<Result<_, _>>()?;
            let weight_of = |tbl: &mut BTreeMap<String, Value>,
                             key: &str,
                             default: f64|
             -> Result<f64, SpecError> {
                match tbl.remove(key).map(|v| v.as_f64()) {
                    None => Ok(default),
                    Some(Some(w)) if w >= 0.0 && w.is_finite() => Ok(w),
                    _ => Err(SpecError::global(format!(
                        "[{name}] {key} must be a non-negative number"
                    ))),
                }
            };
            let focus_weight = weight_of(&mut tbl, "focus_weight", 4.0)?;
            let base_weight = weight_of(&mut tbl, "base_weight", 1.0)?;
            reject_unknown(&tbl, &name)?;
            if let Some(prev) = phases.last().map(|p: &PoiPhase| p.at_hours) {
                if at_hours <= prev {
                    return Err(SpecError::global(format!(
                        "[{name}] at_hours = {at_hours} must be after the previous phase ({prev})"
                    )));
                }
            }
            phases.push(PoiPhase {
                at_hours,
                focus,
                focus_weight,
                base_weight,
            });
        }
        let pois = PoiSpec {
            count,
            weights,
            phases,
        };

        // --- [workload] ---
        let mut workload = doc.remove("workload").unwrap_or_default();
        let mut workload_rate = false;
        if let Some(v) = workload.remove("photos_per_hour") {
            let rate = v.as_f64().ok_or_else(|| {
                SpecError::global(format!(
                    "[workload] photos_per_hour must be a number, got {}",
                    v.type_name()
                ))
            })?;
            base = apply_config(base, "photos_per_hour", "[workload] photos_per_hour", rate)?;
            workload_rate = true;
        }
        match workload.remove("cameras") {
            None => {}
            Some(Value::Int(n)) if n > 0 && n <= i64::from(u32::MAX) => {
                base = base.with_camera_nodes(n as u32);
            }
            Some(v) => {
                return Err(SpecError::global(format!(
                    "[workload] cameras must be a positive integer, got {v:?}"
                )))
            }
        }
        reject_unknown(&workload, "workload")?;

        // --- [faults] ---
        let mut faults_tbl = doc.remove("faults").unwrap_or_default();
        let mut faults_set = false;
        if let Some(v) = faults_tbl.remove("intensity") {
            let intensity = v.as_f64().ok_or_else(|| {
                SpecError::global(format!(
                    "[faults] intensity must be a number, got {}",
                    v.type_name()
                ))
            })?;
            base = apply_config(base, "fault_intensity", "[faults] intensity", intensity)?;
            faults_set = true;
        }
        reject_unknown(&faults_tbl, "faults")?;

        // --- [sim] (generic config keys; conflicts with the dedicated
        // sections are errors, not silent overrides) ---
        let mut sim_tbl = doc.remove("sim").unwrap_or_default();
        for key in CONFIG_KEYS {
            let Some(v) = sim_tbl.remove(*key) else {
                continue;
            };
            if *key == "photos_per_hour" && workload_rate {
                return Err(SpecError::global(
                    "photos_per_hour set in both [workload] and [sim]",
                ));
            }
            if *key == "fault_intensity" && faults_set {
                return Err(SpecError::global(
                    "fault intensity set in both [faults] and [sim]",
                ));
            }
            let name = spell("sim", key);
            let value = v.as_f64().ok_or_else(|| {
                SpecError::global(format!("{name} must be a number, got {}", v.type_name()))
            })?;
            base = apply_config(base, key, &name, value)?;
        }
        reject_unknown(&sim_tbl, "sim")?;

        // --- [schemes] ---
        let mut schemes_tbl = doc.remove("schemes").unwrap_or_default();
        let schemes = take_string_array(&mut schemes_tbl, "names")?
            .unwrap_or_else(|| vec!["ours".to_string()]);
        if schemes.is_empty() {
            return Err(SpecError::global("[schemes] names must be non-empty"));
        }
        reject_unknown(&schemes_tbl, "schemes")?;

        // --- [grid] ---
        let grid = match doc.remove("grid") {
            Some(grid_tbl) => parse_grid(grid_tbl)?,
            None => BTreeMap::new(),
        };
        if faults_set && grid.contains_key("fault_intensity") {
            return Err(SpecError::global(
                "fault intensity set in [faults] and swept in [grid] — drop one",
            ));
        }

        Ok(Scenario {
            name,
            seed,
            seeds,
            world,
            pois,
            schemes,
            base,
            grid,
            fingerprint: 0,
        })
    }

    /// Builds the scenario's contact trace for one cell.
    ///
    /// The trace is seeded by `[world] trace_seed` when declared, else by
    /// the cell's run seed (matching the CLI, where `--seed` seeds
    /// both). Stationary relays are grafted on last, so `relays = 0`
    /// worlds are byte-identical to the plain generator output.
    ///
    /// # Errors
    ///
    /// File traces return a retryable
    /// [`FailureKind::TraceIo`](crate::FailureKind::TraceIo) error when
    /// the read or parse fails.
    pub fn build_trace(&self, cell_seed: u64) -> Result<ContactTrace, CellError> {
        let seed = self.world.trace_seed.unwrap_or(cell_seed);
        let base = match &self.world.source {
            WorldSource::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CellError::trace_io(format!("reading {}: {e}", path.display())))?;
                photodtn_contacts::parse_trace(&text)
                    .map_err(|e| CellError::trace_io(format!("parsing {}: {e}", path.display())))?
            }
            WorldSource::Community {
                style,
                nodes,
                hours,
            } => {
                let mut gen = CommunityTraceGenerator::new(*style);
                if let Some(n) = nodes {
                    gen = gen.with_num_nodes(*n);
                }
                if let Some(h) = hours {
                    gen = gen.with_duration_hours(*h);
                }
                gen.generate(seed)
            }
            WorldSource::Metro { nodes, hours, grid } => {
                let mut gen = MetroTraceGenerator::new();
                if let Some(n) = nodes {
                    gen = gen.with_num_nodes(*n);
                }
                if let Some(h) = hours {
                    gen = gen.with_duration_hours(*h);
                }
                if let Some(g) = grid {
                    gen = gen.with_grid(*g);
                }
                gen.generate(seed)
            }
            WorldSource::Waypoint {
                nodes,
                region,
                hours,
            } => WaypointTraceGenerator::new(*nodes, *region, hours * 3600.0).generate(seed),
        };
        if self.world.relays == 0 {
            return Ok(base);
        }
        let overlay = RelayOverlay::new(self.world.relays)
            .with_visit_rate(self.world.relay_visits_per_hour / 3600.0)
            .with_mean_visit_duration(self.world.relay_visit_minutes * 60.0);
        Ok(overlay.apply(&base, seed))
    }

    /// Builds one cell's simulation: the engine world under `config`,
    /// then the scenario's PoI weights and importance schedule layered
    /// on (geometry stays the engine's seeded placement, so a scenario
    /// without weights/phases is byte-identical to a plain build).
    ///
    /// When the world has relays and `[workload] cameras` is not
    /// declared, the camera pool defaults to the mobile nodes — relays
    /// forward photos, they don't take them.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`SimBuildError`] (empty trace, no camera
    /// nodes, …).
    pub fn build_simulation(
        &self,
        config: &SimConfig,
        trace: &ContactTrace,
        seed: u64,
    ) -> Result<Simulation, SimBuildError> {
        let mut config = config.clone();
        if config.camera_nodes.is_none() && self.world.relays > 0 {
            config.camera_nodes = Some(trace.num_nodes().saturating_sub(self.world.relays).max(1));
        }
        let mut sim = Simulation::try_new(&config, trace, seed)?;
        if let Some(weights) = &self.pois.weights {
            let reweighted = weighted_copy(&sim.pois_shared(), |i, _| weights[i]);
            sim = sim.with_pois(reweighted);
        }
        if !self.pois.phases.is_empty() {
            let geometry = sim.pois_shared();
            let phases: Vec<(f64, PoiList)> = self
                .pois
                .phases
                .iter()
                .map(|phase| {
                    let list = weighted_copy(&geometry, |_, id| {
                        if phase.focus.contains(&id) {
                            phase.focus_weight
                        } else {
                            phase.base_weight
                        }
                    });
                    (phase.at_hours * 3600.0, list)
                })
                .collect();
            sim = sim.with_poi_reweights(phases);
        }
        Ok(sim)
    }

    /// Expands the scenario into an executable (scheme × variant ×
    /// seed) plan: scheme-major, then variant, then seed.
    #[must_use]
    pub fn plan(&self) -> ScenarioPlan {
        let variants = expand_grid(&self.base, &self.grid);
        let mut cells = Vec::with_capacity(self.schemes.len() * variants.len() * self.seeds.len());
        for scheme in &self.schemes {
            for (variant, _) in &variants {
                for &seed in &self.seeds {
                    cells.push(CellId {
                        scheme: scheme.clone(),
                        variant: variant.clone(),
                        seed,
                    });
                }
            }
        }
        ScenarioPlan {
            fingerprint: self.fingerprint,
            cells,
            variants: variants.into_iter().collect(),
            scenario: self.clone(),
        }
    }
}

/// The executable form of a scenario: the cell grid plus per-variant
/// configs, with the scenario kept alongside so each cell can build its
/// trace and world.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    /// Scenario text fingerprint (must match the journal on resume).
    pub fingerprint: u64,
    /// Every cell of the grid, in plan order.
    pub cells: Vec<CellId>,
    /// Variant name → resolved config.
    pub variants: BTreeMap<String, SimConfig>,
    scenario: Scenario,
}

impl ScenarioPlan {
    /// The resolved config of a variant.
    #[must_use]
    pub fn config_of(&self, variant: &str) -> Option<&SimConfig> {
        self.variants.get(variant)
    }

    /// The scenario this plan was expanded from; it builds each cell's
    /// trace and simulation.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }
}

/// A same-geometry copy of `pois` with weights chosen per PoI by
/// `(index, id)`.
fn weighted_copy(pois: &PoiList, weight: impl Fn(usize, u32) -> f64) -> PoiList {
    PoiList::new(
        pois.iter()
            .enumerate()
            .map(|(i, p)| Poi::with_weight(p.id.0, p.location, weight(i, p.id.0)))
            .collect(),
    )
}

fn is_known_section(name: &str) -> bool {
    matches!(
        name,
        "scenario" | "world" | "pois" | "workload" | "faults" | "schemes" | "sim" | "grid"
    ) || is_phase_section(name)
}

fn unknown_section(name: &str) -> SpecError {
    SpecError::global(format!(
        "unknown section [{name}] (expected scenario/world/pois/pois.phase_N/\
         workload/faults/schemes/sim/grid)"
    ))
}

fn is_phase_section(name: &str) -> bool {
    name.strip_prefix("pois.phase_")
        .is_some_and(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::SpecErrorKind;

    const SCENARIO: &str = r#"
[scenario]
version = 1
name = "hospital-shift"
seed = 42

[world]
style = "mit"
nodes = 16
hours = 36.0
trace_seed = 3

[pois]
count = 60

[pois.phase_0]
at_hours = 12.0
focus = [3, 4, 5]
focus_weight = 8.0

[workload]
photos_per_hour = 30.0

[faults]
intensity = 0.5

[schemes]
names = ["ours", "spray-wait"]
"#;

    #[test]
    fn parses_the_example() {
        let sc = Scenario::parse(SCENARIO).unwrap();
        assert_eq!(sc.name, "hospital-shift");
        assert_eq!(sc.seed, 42);
        assert_eq!(sc.seeds, vec![42]);
        assert_eq!(sc.world.trace_seed, Some(3));
        assert_eq!(sc.base.num_pois, 60);
        assert_eq!(sc.base.photos_per_hour, 30.0);
        assert!(!sc.base.faults.is_noop());
        assert_eq!(sc.pois.phases.len(), 1);
        assert_eq!(sc.pois.phases[0].focus, vec![3, 4, 5]);
        assert_eq!(sc.pois.phases[0].focus_weight, 8.0);
        assert_eq!(sc.pois.phases[0].base_weight, 1.0);
        assert_eq!(sc.schemes, vec!["ours", "spray-wait"]);
        let plan = sc.plan();
        assert_eq!(plan.cells.len(), 2); // 2 schemes × base × 1 seed
        assert_eq!(plan.cells[0].variant, "base");
        // The fingerprint binds journals to the exact text.
        let edited = Scenario::parse(&format!("{SCENARIO}\n# edited")).unwrap();
        assert_ne!(sc.fingerprint, edited.fingerprint);
    }

    #[test]
    fn version_is_mandatory_and_checked() {
        let err = Scenario::parse("[scenario]\nname = \"x\"\n").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let err = Scenario::parse("[scenario]\nversion = 99\n").unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
        let err = Scenario::parse("[world]\nstyle = \"mit\"\n").unwrap_err();
        assert!(err.to_string().contains("missing [scenario]"), "{err}");
    }

    #[test]
    fn cross_section_conflicts_are_errors() {
        let both_rates = "[scenario]\nversion = 1\n[workload]\nphotos_per_hour = 30\n\
                          [sim]\nphotos_per_hour = 60\n";
        let err = Scenario::parse(both_rates).unwrap_err();
        assert!(
            err.to_string().contains("both [workload] and [sim]"),
            "{err}"
        );

        let both_faults =
            "[scenario]\nversion = 1\n[faults]\nintensity = 0.5\n[sim]\nfault_intensity = 0.1\n";
        let err = Scenario::parse(both_faults).unwrap_err();
        assert!(err.to_string().contains("both [faults] and [sim]"), "{err}");

        let fault_and_grid =
            "[scenario]\nversion = 1\n[faults]\nintensity = 0.5\n[grid]\nfault_intensity = [0, 0.5]\n";
        let err = Scenario::parse(fault_and_grid).unwrap_err();
        assert!(err.to_string().contains("swept in [grid]"), "{err}");
    }

    #[test]
    fn phase_validation() {
        // Non-contiguous numbering.
        let err = Scenario::parse(
            "[scenario]\nversion = 1\n[pois]\ncount = 4\n\
             [pois.phase_1]\nat_hours = 2\nfocus = [0]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("contiguously"), "{err}");
        // Focus id out of range.
        let err = Scenario::parse(
            "[scenario]\nversion = 1\n[pois]\ncount = 4\n\
             [pois.phase_0]\nat_hours = 2\nfocus = [4]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Phases must ascend in time.
        let err = Scenario::parse(
            "[scenario]\nversion = 1\n[pois]\ncount = 4\n\
             [pois.phase_0]\nat_hours = 5\nfocus = [0]\n\
             [pois.phase_1]\nat_hours = 5\nfocus = [1]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("after the previous"), "{err}");
    }

    #[test]
    fn weights_and_count_must_agree() {
        let err = Scenario::parse("[scenario]\nversion = 1\n[pois]\ncount = 3\nweights = [1, 2]\n")
            .unwrap_err();
        assert!(err.to_string().contains("2 entries but count = 3"), "{err}");
        // Weights alone fix the count.
        let sc = Scenario::parse("[scenario]\nversion = 1\n[pois]\nweights = [1, 2, 5]\n").unwrap();
        assert_eq!(sc.base.num_pois, 3);
        assert_eq!(sc.pois.weights, Some(vec![1.0, 2.0, 5.0]));
    }

    #[test]
    fn unknown_sections_and_keys_rejected() {
        for (text, needle) in [
            (
                "[scenario]\nversion = 1\n[wrld]\nstyle = \"mit\"\n",
                "unknown section",
            ),
            ("[scenario]\nversion = 1\nbogus = 3\n", "unknown key"),
            (
                "[scenario]\nversion = 1\n[world]\nstyle = \"bogus\"\n",
                "unknown style",
            ),
            (
                "[scenario]\nversion = 1\n[world]\ntrace = \"x\"\nstyle = \"mit\"\n",
                "conflicts",
            ),
            (
                "[scenario]\nversion = 1\n[pois.phase_0]\nat_hours = 1\nfocus = [0]\ntypo = 1\n",
                "unknown key",
            ),
            (
                "[scenario]\nversion = 1\n[world]\nrelay_visit_minutes = 5\n",
                "needs [world] relays > 0",
            ),
            (
                "[scenario]\nversion = 1\n[grid]\nstorage = [1]\n",
                "unknown axis",
            ),
            (
                "[scenario]\nversion = 1\n[grid]\nfault_intensity = [0, 1.5]\n",
                "out of range",
            ),
            (
                "[scenario]\nversion = 1\n[sim]\nfault_intensity = 1.5\n",
                "out of range",
            ),
            ("[scenario]\nversion = 1\nseeds = [-1]\n", "non-negative"),
            (
                "[scenario]\nversion = 1\n[schemes]\nnames = []\n",
                "non-empty",
            ),
            (
                "[sweep]\nschemes = [\"ours\"]\n[config]\nstorage_gb = 0.6\n",
                "line 1: unknown section [sweep]",
            ),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn duplicate_sections_stay_typed_through_the_scenario_layer() {
        let err = Scenario::parse("[scenario]\nversion = 1\n[world]\n[world]\n").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::DuplicateSection { .. }));
    }

    #[test]
    fn scenario_grid_expands_with_sweep_naming() {
        let text = "[scenario]\nversion = 1\nseeds = [1, 2]\n[schemes]\nnames = [\"ours\"]\n\
                    [grid]\nstorage_gb = [0.3, 0.6]\n";
        let plan = Scenario::parse(text).unwrap().plan();
        assert_eq!(plan.variants.len(), 2);
        assert_eq!(plan.cells.len(), 4);
        assert!(plan.config_of("storage_gb=0.3").is_some());
        assert!(plan.config_of("storage_gb=0.6").is_some());
        // Several axes form their cross product.
        let text = "[scenario]\nversion = 1\nseeds = [1, 2]\n\
                    [grid]\nstorage_gb = [0.3, 0.6]\nphotos_per_hour = [50, 250]\n";
        let plan = Scenario::parse(text).unwrap().plan();
        assert_eq!(plan.variants.len(), 4);
        assert_eq!(plan.cells.len(), 8);
        let c = plan.config_of("photos_per_hour=50,storage_gb=0.3").unwrap();
        assert_eq!(c.photos_per_hour, 50.0);
        assert_eq!(c.storage_bytes, (0.3 * 1024.0 * 1024.0 * 1024.0) as u64);
    }

    #[test]
    fn relay_world_builds_and_defaults_cameras_to_mobile_nodes() {
        let text = "[scenario]\nversion = 1\n[world]\nstyle = \"mit\"\nnodes = 8\nhours = 6\n\
                    relays = 2\n[workload]\nphotos_per_hour = 10\n";
        let sc = Scenario::parse(text).unwrap();
        let trace = sc.build_trace(sc.seed).unwrap();
        assert_eq!(trace.num_nodes(), 10); // 8 mobile + 2 relays
        let sim = sc.build_simulation(&sc.base, &trace, sc.seed).unwrap();
        assert!(sim.event_count() > 0);
        // Explicit cameras win over the relay default.
        let text2 = "[scenario]\nversion = 1\n[world]\nstyle = \"mit\"\nnodes = 8\nhours = 6\n\
                     relays = 2\n[workload]\nphotos_per_hour = 10\ncameras = 4\n";
        let sc2 = Scenario::parse(text2).unwrap();
        assert_eq!(sc2.base.camera_nodes, Some(4));
    }

    #[test]
    fn scheduled_world_builds_with_phases() {
        let text = "[scenario]\nversion = 1\nseed = 7\n[world]\nstyle = \"mit\"\nnodes = 8\n\
                    hours = 6\n[pois]\ncount = 12\n[pois.phase_0]\nat_hours = 2\nfocus = [0, 1]\n\
                    focus_weight = 6.0\n[workload]\nphotos_per_hour = 10\n";
        let sc = Scenario::parse(text).unwrap();
        let trace = sc.build_trace(sc.seed).unwrap();
        let sim = sc.build_simulation(&sc.base, &trace, sc.seed).unwrap();
        assert_eq!(sim.poi_schedule().len(), 1);
        assert_eq!(sim.poi_schedule()[0].0, 2.0 * 3600.0);
    }

    #[test]
    fn waypoint_and_metro_worlds_build() {
        let wp = Scenario::parse(
            "[scenario]\nversion = 1\n[world]\nstyle = \"waypoint\"\nnodes = 6\nhours = 2\n\
             region = 500\n",
        )
        .unwrap();
        assert_eq!(wp.build_trace(1).unwrap().num_nodes(), 6);
        let metro = Scenario::parse(
            "[scenario]\nversion = 1\n[world]\nstyle = \"metro\"\nnodes = 30\nhours = 2\n\
             grid = 3\n",
        )
        .unwrap();
        assert_eq!(metro.build_trace(1).unwrap().num_nodes(), 30);
        // An unreadable trace file is a retryable cell error.
        let file =
            Scenario::parse("[scenario]\nversion = 1\n[world]\ntrace = \"/nonexistent/x.trace\"\n")
                .unwrap();
        let err = file.build_trace(1).unwrap_err();
        assert!(err.kind.retryable());
        assert!(err.message.contains("/nonexistent/x.trace"), "{err}");
    }

    #[test]
    fn trace_seed_default_follows_cell_seed() {
        let fixed = Scenario::parse(
            "[scenario]\nversion = 1\n[world]\nnodes = 8\nhours = 4\ntrace_seed = 9\n",
        )
        .unwrap();
        let a = fixed.build_trace(1).unwrap();
        let b = fixed.build_trace(2).unwrap();
        assert_eq!(
            a.events().len(),
            b.events().len(),
            "fixed trace_seed is cell-invariant"
        );
        let floating =
            Scenario::parse("[scenario]\nversion = 1\n[world]\nnodes = 8\nhours = 4\n").unwrap();
        let c = floating.build_trace(1).unwrap();
        let d = floating.build_trace(1).unwrap();
        assert_eq!(c.events().len(), d.events().len(), "same seed, same trace");
    }
}
