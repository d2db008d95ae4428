//! Test oracle for [`ProphetRouter`]: the straightforward PROPHET router
//! the sorted-table merge replaced. Tables are `HashMap`s, every entry is
//! aged with its own `powf`, and a contact clones both post-encounter
//! tables so each side's transitivity reads the other's values from
//! before the exchange.
//!
//! The tests replay contact streams through both routers and require
//! every `P(i, j)` to agree bit for bit, every table to hold the same
//! number of destinations, and every table of the production router to
//! stay strictly sorted after each contact.

use std::collections::HashMap;

use photodtn_contacts::synth::{CommunityTraceGenerator, MetroTraceGenerator, TraceStyle};
use photodtn_contacts::{ContactTrace, NodeId};

use crate::{ProphetParams, ProphetRouter};

#[derive(Clone, Copy)]
struct RefEntry {
    p: f64,
    last_aged: f64,
}

#[derive(Clone, Default)]
struct RefTable {
    entries: HashMap<u32, RefEntry>,
}

fn ref_aged(e: &RefEntry, now: f64, params: &ProphetParams) -> f64 {
    let elapsed = (now - e.last_aged).max(0.0);
    e.p * params.gamma.powf(elapsed / params.time_unit)
}

impl RefTable {
    fn predictability(&self, dest: NodeId, now: f64, params: &ProphetParams) -> f64 {
        self.entries
            .get(&dest.0)
            .map_or(0.0, |e| ref_aged(e, now, params))
    }

    fn encounter(&mut self, peer: NodeId, now: f64, params: &ProphetParams) {
        let e = self.entries.entry(peer.0).or_insert(RefEntry {
            p: 0.0,
            last_aged: now,
        });
        let p = ref_aged(e, now, params);
        e.p = p + (1.0 - p) * params.p_init;
        e.last_aged = now;
    }

    fn transitive(
        &mut self,
        peer: NodeId,
        peer_table: &RefTable,
        now: f64,
        params: &ProphetParams,
    ) {
        let p_ab = self.predictability(peer, now, params);
        if p_ab <= 0.0 {
            return;
        }
        for (&dest, peer_entry) in &peer_table.entries {
            if dest == peer.0 {
                continue;
            }
            let p_bc = ref_aged(peer_entry, now, params);
            let candidate = p_ab * p_bc * params.beta;
            if candidate <= 0.0 {
                continue;
            }
            let e = self.entries.entry(dest).or_insert(RefEntry {
                p: 0.0,
                last_aged: now,
            });
            let current = ref_aged(e, now, params);
            e.p = current.max(candidate);
            e.last_aged = now;
        }
    }
}

/// The oracle router: same public behaviour as [`ProphetRouter`].
struct RefRouter {
    params: ProphetParams,
    tables: Vec<RefTable>,
}

impl RefRouter {
    fn new(num_nodes: u32, params: ProphetParams) -> Self {
        RefRouter {
            params,
            tables: vec![RefTable::default(); num_nodes as usize],
        }
    }

    fn contact(&mut self, a: NodeId, b: NodeId, now: f64) {
        self.tables[a.index()].encounter(b, now, &self.params);
        self.tables[b.index()].encounter(a, now, &self.params);
        let ta = self.tables[a.index()].clone();
        let tb = self.tables[b.index()].clone();
        self.tables[a.index()].transitive(b, &tb, now, &self.params);
        self.tables[b.index()].transitive(a, &ta, now, &self.params);
    }

    fn reset_node(&mut self, node: NodeId) {
        self.tables[node.index()] = RefTable::default();
    }

    fn predictability(&self, from: NodeId, dest: NodeId, now: f64) -> f64 {
        self.tables[from.index()].predictability(dest, now, &self.params)
    }
}

/// Both routers, fed the same calls.
struct Pair {
    fast: ProphetRouter,
    oracle: RefRouter,
}

impl Pair {
    fn new(num_nodes: u32) -> Self {
        let params = ProphetParams::paper_default();
        Pair {
            fast: ProphetRouter::new(num_nodes, params),
            oracle: RefRouter::new(num_nodes, params),
        }
    }

    /// One contact on both routers; then the two touched tables of the
    /// production router must still be strictly sorted.
    fn contact(&mut self, a: NodeId, b: NodeId, now: f64) {
        self.fast.contact(a, b, now);
        self.oracle.contact(a, b, now);
        for node in [a, b] {
            let entries = &self.fast.table(node).entries;
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "table of {node} not strictly sorted after contact ({a}, {b}) at {now}"
            );
        }
    }

    fn reset_node(&mut self, node: NodeId) {
        self.fast.reset_node(node);
        self.oracle.reset_node(node);
    }

    /// `P(from, ·)` at `now` for every destination, and the table size,
    /// agree bit for bit.
    fn assert_row(&self, from: NodeId, now: f64) {
        assert_eq!(
            self.fast.table(from).len(),
            self.oracle.tables[from.index()].entries.len(),
            "table size of {from} at {now}"
        );
        for dest in (0..self.fast.num_nodes()).map(NodeId) {
            let fast = self.fast.predictability(from, dest, now);
            let oracle = self.oracle.predictability(from, dest, now);
            assert_eq!(
                fast.to_bits(),
                oracle.to_bits(),
                "P({from}, {dest}) at {now}: {fast} vs oracle {oracle}"
            );
        }
    }

    fn assert_all(&self, now: f64) {
        for from in (0..self.fast.num_nodes()).map(NodeId) {
            self.assert_row(from, now);
        }
    }

    /// Replays `trace`, checking every table at a few points on the way,
    /// at its end, and a day of aging later.
    fn replay(trace: &ContactTrace) {
        let mut pair = Pair::new(trace.num_nodes());
        let checkpoint = (trace.len() / 4).max(1);
        for (k, e) in trace.events().iter().enumerate() {
            pair.contact(e.a, e.b, e.start);
            if (k + 1) % checkpoint == 0 {
                pair.assert_all(e.start);
            }
        }
        pair.assert_all(trace.duration());
        pair.assert_all(trace.duration() + 86_400.0);
    }
}

/// splitmix64: a dependency-free, seeded stream for the random test.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn random_stream_with_command_center_and_resets_matches_oracle() {
    const PARTICIPANTS: u32 = 24;
    let cc = NodeId(PARTICIPANTS);
    for seed in 1..=4u64 {
        let mut rng = SplitMix(seed);
        let mut pair = Pair::new(PARTICIPANTS + 1);
        let mut now = 0.0;
        for _ in 0..3_000 {
            // Same-time contacts, minutes and hours apart all occur.
            now += match rng.below(4) {
                0 => 0.0,
                1 => rng.below(120) as f64 * 0.5,
                2 => rng.below(3_600) as f64,
                _ => rng.below(8) as f64 * 3_600.0,
            };
            let node = NodeId(rng.below(u64::from(PARTICIPANTS)) as u32);
            let touched = match rng.below(20) {
                0 => {
                    pair.reset_node(node);
                    [node, node]
                }
                1..=4 => {
                    // an uplink: the engine meets the command center with
                    // the participant first
                    pair.contact(node, cc, now);
                    [node, cc]
                }
                _ => {
                    let other = NodeId(rng.below(u64::from(PARTICIPANTS)) as u32);
                    if other == node {
                        continue;
                    }
                    pair.contact(node, other, now);
                    [node, other]
                }
            };
            for from in touched {
                pair.assert_row(from, now);
                pair.assert_row(from, now + 7_200.0);
            }
        }
        pair.assert_all(now);
        pair.assert_all(now + 86_400.0);
    }
}

#[test]
fn metro_smoke_world_matches_oracle() {
    let trace = MetroTraceGenerator::new()
        .with_num_nodes(200)
        .with_duration_hours(2.0)
        .with_grid(8)
        .generate(1);
    assert!(trace.len() > 100, "{} contacts", trace.len());
    Pair::replay(&trace);
}

#[test]
fn mit_like_30h_world_matches_oracle() {
    let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_duration_hours(30.0)
        .generate(1);
    assert!(trace.len() > 100, "{} contacts", trace.len());
    Pair::replay(&trace);
}

/// The full metro-epidemic world (2,000 nodes, 6 h, 8×8 grid, seed 1).
/// Slow in a debug build; run with `--include-ignored` in release.
#[test]
#[ignore = "full metro world; run in release with --include-ignored"]
fn metro_full_world_matches_oracle() {
    let trace = MetroTraceGenerator::new()
        .with_num_nodes(2_000)
        .with_duration_hours(6.0)
        .with_grid(8)
        .generate(1);
    Pair::replay(&trace);
}
