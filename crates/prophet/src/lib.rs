//! PROPHET delivery predictability (Lindgren, Doria, Schelén — the
//! protocol the paper adopts in §III-C to estimate how likely a node's
//! photos reach the command center).
//!
//! The *delivery predictability* `P(a,b) ∈ [0,1]` is maintained with three
//! rules:
//!
//! 1. **Encounter** — when `a` meets `b`:
//!    `P(a,b) ← P(a,b) + (1 − P(a,b)) · P_init`;
//! 2. **Aging** — `P(a,b) ← P(a,b) · γ^k`, where `k` is the number of
//!    elapsed time units since the entry was last aged;
//! 3. **Transitivity** — when `a` meets `b`:
//!    `P(a,c) ← max(P(a,c), P(a,b) · P(b,c) · β)` for every `c` in `b`'s
//!    table.
//!
//! Table I of the paper fixes `(P_init, β, γ) = (0.75, 0.25, 0.98)`.
//! The aging time unit is not stated in the paper; we default to one hour,
//! which makes `γ = 0.98` a gentle decay on trace scales of hundreds of
//! hours (configurable via [`ProphetParams::time_unit`]).
//!
//! Each node's table is a vector sorted by destination. A contact applies
//! both encounters, then one merge of the two tables computes both sides'
//! transitivity from the values before the exchange, aging each entry
//! through a per-contact memo of `γ^k` (DESIGN.md decision #16).
//!
//! # Example
//!
//! ```
//! use photodtn_contacts::NodeId;
//! use photodtn_prophet::{ProphetParams, ProphetRouter};
//!
//! let mut router = ProphetRouter::new(3, ProphetParams::default());
//! router.contact(NodeId(0), NodeId(2), 0.0);     // 0 meets the center (2)
//! router.contact(NodeId(0), NodeId(1), 60.0);    // 1 meets 0
//! let direct = router.predictability(NodeId(0), NodeId(2), 60.0);
//! let transitive = router.predictability(NodeId(1), NodeId(2), 60.0);
//! assert!(direct > 0.7);
//! assert!(transitive > 0.0 && transitive < direct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use photodtn_contacts::{ContactTrace, NodeId};

/// PROPHET protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProphetParams {
    /// Encounter reinforcement `P_init ∈ (0, 1]`.
    pub p_init: f64,
    /// Transitivity damping `β ∈ [0, 1]`.
    pub beta: f64,
    /// Aging factor `γ ∈ (0, 1)` per time unit.
    pub gamma: f64,
    /// Length of one aging time unit, seconds.
    pub time_unit: f64,
}

impl ProphetParams {
    /// Table I values: `(0.75, 0.25, 0.98)` with a one-hour aging unit.
    #[must_use]
    pub fn paper_default() -> Self {
        ProphetParams {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            time_unit: 3600.0,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.p_init && self.p_init <= 1.0) {
            return Err(format!("p_init {} outside (0, 1]", self.p_init));
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(format!("beta {} outside [0, 1]", self.beta));
        }
        if !(0.0 < self.gamma && self.gamma < 1.0) {
            return Err(format!("gamma {} outside (0, 1)", self.gamma));
        }
        if !(self.time_unit.is_finite() && self.time_unit > 0.0) {
            return Err(format!("time_unit {} must be positive", self.time_unit));
        }
        Ok(())
    }
}

impl Default for ProphetParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One node's predictability table: `P(self, dest)` for every destination
/// it has (directly or transitively) learned about, sorted by destination
/// so lookups are a binary search and a contact is one merge.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProphetTable {
    entries: Vec<(u32, Entry)>,
}

#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Entry {
    p: f64,
    last_aged: f64,
}

impl ProphetTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        ProphetTable::default()
    }

    /// The aged predictability towards `dest` at time `now` (0 if
    /// unknown). Does not mutate the table — aging is applied lazily.
    #[must_use]
    pub fn predictability(&self, dest: NodeId, now: f64, params: &ProphetParams) -> f64 {
        self.entries
            .binary_search_by_key(&dest.0, |&(d, _)| d)
            .map_or(0.0, |i| aged(&self.entries[i].1, now, params))
    }

    /// Number of known destinations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Applies the encounter rule for a meeting with `peer` at `now`.
    fn encounter(&mut self, peer: NodeId, now: f64, params: &ProphetParams) {
        let i = match self.entries.binary_search_by_key(&peer.0, |&(d, _)| d) {
            Ok(i) => i,
            Err(i) => {
                let fresh = Entry {
                    p: 0.0,
                    last_aged: now,
                };
                self.entries.insert(i, (peer.0, fresh));
                i
            }
        };
        let e = &mut self.entries[i].1;
        let p = aged(e, now, params);
        e.p = p + (1.0 - p) * params.p_init;
        e.last_aged = now;
    }
}

/// `γ^k` for the `k` time units between `last_aged` and `now`.
fn decay(last_aged: f64, now: f64, params: &ProphetParams) -> f64 {
    let elapsed = (now - last_aged).max(0.0);
    params.gamma.powf(elapsed / params.time_unit)
}

fn aged(e: &Entry, now: f64, params: &ProphetParams) -> f64 {
    e.p * decay(e.last_aged, now, params)
}

/// [`DecayMemo`] has `2^MEMO_BITS` slots.
const MEMO_BITS: u32 = 6;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// [`decay`] memoized per distinct `last_aged` within one contact, in a
/// direct-mapped table keyed on the `f64` bits. A table's entries share
/// few `last_aged` values (every entry a contact touches gets its time),
/// so most lookups hit and the merge rarely calls `powf`.
#[derive(Clone, Debug)]
struct DecayMemo {
    now: f64,
    slots: [(u64, f64); MEMO_SLOTS],
}

impl Default for DecayMemo {
    fn default() -> Self {
        DecayMemo {
            now: 0.0,
            slots: [(0.0f64.to_bits(), 1.0); MEMO_SLOTS],
        }
    }
}

impl DecayMemo {
    /// Forgets the previous contact. Every slot is filled with the one
    /// entry known exactly, `last_aged == now`, so no slot is ever stale.
    fn reset(&mut self, now: f64, params: &ProphetParams) {
        self.now = now;
        self.slots = [(now.to_bits(), decay(now, now, params)); MEMO_SLOTS];
    }

    /// [`aged`] at the memo's `now`: the same product, with the same
    /// factor.
    fn aged(&mut self, e: &Entry, params: &ProphetParams) -> f64 {
        let key = e.last_aged.to_bits();
        let slot =
            &mut self.slots[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize];
        if slot.0 != key {
            *slot = (key, decay(e.last_aged, self.now, params));
        }
        e.p * slot.1
    }
}

/// Working memory of [`ProphetRouter::contact`]: the two merged tables
/// before they are copied back, and the decay memo. Not state — it is
/// left out of snapshots.
#[derive(Clone, Debug, Default)]
struct Scratch {
    merged: [Vec<(u32, Entry)>; 2],
    memo: DecayMemo,
}

/// The learner's entry for one destination after transitivity. `own` is
/// its entry, `own_aged` that entry's value at `now` (0 when absent), and
/// `candidate` is `P(self,peer) · P(peer,dest) · β` when the rule applies.
fn learn(own: Option<Entry>, own_aged: f64, candidate: Option<f64>, now: f64) -> Option<Entry> {
    match candidate {
        Some(c) if c <= 0.0 => own,
        Some(c) => Some(Entry {
            p: own_aged.max(c),
            last_aged: now,
        }),
        None => own,
    }
}

/// Applies the transitivity rule to both sides of a contact between `a`
/// and `b` at `now`, in one walk over their post-encounter tables `ta`
/// and `tb`: each side learns from the other's values *before* either
/// changes. The results go to `out_a` and `out_b`, sorted.
fn merge_transitive(
    (a, ta): (u32, &[(u32, Entry)]),
    (b, tb): (u32, &[(u32, Entry)]),
    now: f64,
    params: &ProphetParams,
    memo: &mut DecayMemo,
    out_a: &mut Vec<(u32, Entry)>,
    out_b: &mut Vec<(u32, Entry)>,
) {
    out_a.clear();
    out_b.clear();
    let direct = |t: &[(u32, Entry)], peer: u32, memo: &mut DecayMemo| {
        t.binary_search_by_key(&peer, |&(d, _)| d)
            .map_or(0.0, |i| memo.aged(&t[i].1, params))
    };
    let p_ab = direct(ta, b, memo);
    let p_ba = direct(tb, a, memo);
    // A side whose P(self, peer) is not positive learns nothing.
    let a_skips = p_ab <= 0.0;
    let b_skips = p_ba <= 0.0;
    let (mut i, mut j) = (0, 0);
    loop {
        let (dest, ea, eb) = match (ta.get(i), tb.get(j)) {
            (Some(&(da, ea)), Some(&(db, eb))) => match da.cmp(&db) {
                Ordering::Less => {
                    i += 1;
                    (da, Some(ea), None)
                }
                Ordering::Greater => {
                    j += 1;
                    (db, None, Some(eb))
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (da, Some(ea), Some(eb))
                }
            },
            (Some(&(da, ea)), None) => {
                i += 1;
                (da, Some(ea), None)
            }
            (None, Some(&(db, eb))) => {
                j += 1;
                (db, None, Some(eb))
            }
            (None, None) => break,
        };
        let aged_a = ea.map_or(0.0, |e| memo.aged(&e, params));
        let aged_b = eb.map_or(0.0, |e| memo.aged(&e, params));
        let cand_a = eb
            .filter(|_| !a_skips && dest != b)
            .map(|_| p_ab * aged_b * params.beta);
        let cand_b = ea
            .filter(|_| !b_skips && dest != a)
            .map(|_| p_ba * aged_a * params.beta);
        if let Some(e) = learn(ea, aged_a, cand_a, now) {
            out_a.push((dest, e));
        }
        if let Some(e) = learn(eb, aged_b, cand_b, now) {
            out_b.push((dest, e));
        }
    }
}

/// Predictability state for a whole network: one [`ProphetTable`] per node,
/// fed by contact events.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProphetRouter {
    params: ProphetParams,
    tables: Vec<ProphetTable>,
    #[serde(skip)]
    scratch: Scratch,
}

impl ProphetRouter {
    /// Creates state for `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`ProphetParams::validate`].
    #[must_use]
    pub fn new(num_nodes: u32, params: ProphetParams) -> Self {
        params.validate().expect("invalid PROPHET parameters");
        ProphetRouter {
            params,
            tables: vec![ProphetTable::new(); num_nodes as usize],
            scratch: Scratch::default(),
        }
    }

    /// The protocol parameters.
    #[must_use]
    pub fn params(&self) -> &ProphetParams {
        &self.params
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.tables.len() as u32
    }

    /// Processes a contact between `a` and `b` at time `now`: encounter
    /// updates on both sides, then a mutual transitivity exchange.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range, or if `a == b` (a node
    /// cannot meet itself).
    pub fn contact(&mut self, a: NodeId, b: NodeId, now: f64) {
        assert!(a.index() < self.tables.len() && b.index() < self.tables.len());
        assert_ne!(a, b, "PROPHET contact of a node with itself");
        let params = self.params;
        self.tables[a.index()].encounter(b, now, &params);
        self.tables[b.index()].encounter(a, now, &params);
        let Scratch { merged, memo } = &mut self.scratch;
        let [out_a, out_b] = merged;
        memo.reset(now, &params);
        merge_transitive(
            (a.0, &self.tables[a.index()].entries),
            (b.0, &self.tables[b.index()].entries),
            now,
            &params,
            memo,
            out_a,
            out_b,
        );
        // Copy back rather than swap, so each table keeps a capacity
        // sized by its own history, not by the largest merge so far.
        self.tables[a.index()].entries.clone_from(out_a);
        self.tables[b.index()].entries.clone_from(out_b);
    }

    /// Replays a whole trace (contacts applied at their start times).
    pub fn learn_trace(&mut self, trace: &ContactTrace) {
        for e in trace {
            self.contact(e.a, e.b, e.start);
        }
    }

    /// `P(from, dest)` at time `now`.
    #[must_use]
    pub fn predictability(&self, from: NodeId, dest: NodeId, now: f64) -> f64 {
        self.tables[from.index()].predictability(dest, now, &self.params)
    }

    /// Read access to one node's table.
    #[must_use]
    pub fn table(&self, node: NodeId) -> &ProphetTable {
        &self.tables[node.index()]
    }

    /// Erases `node`'s own delivery-predictability table — the device
    /// rebooted and lost its protocol state. Other nodes' predictability
    /// *towards* `node` is untouched: their information about it is now
    /// stale, exactly the situation the metadata-validity model exists
    /// to handle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn reset_node(&mut self, node: NodeId) {
        self.tables[node.index()] = ProphetTable::new();
    }

    /// Checks what [`new`](Self::new) and [`contact`](Self::contact)
    /// guarantee but a deserialized router may not: valid parameters, and
    /// every table listing node ids of this network in strictly increasing
    /// order (lookups binary-search it).
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        let n = self.num_nodes();
        for (node, table) in self.tables.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &(dest, _) in &table.entries {
                if dest >= n {
                    return Err(format!(
                        "node {node}'s table names destination {dest} of a {n}-node network"
                    ));
                }
                if let Some(p) = prev.filter(|&p| p >= dest) {
                    return Err(format!(
                        "node {node}'s table is not strictly sorted ({p} before {dest})"
                    ));
                }
                prev = Some(dest);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ProphetParams {
        ProphetParams::paper_default()
    }

    #[test]
    fn paper_defaults_match_table1() {
        let p = params();
        assert_eq!((p.p_init, p.beta, p.gamma), (0.75, 0.25, 0.98));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(ProphetParams {
            p_init: 0.0,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            p_init: 1.5,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            beta: -0.1,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            gamma: 1.0,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            time_unit: 0.0,
            ..params()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn encounter_increases_towards_one() {
        let mut t = ProphetTable::new();
        let mut prev = 0.0;
        for k in 0..10 {
            t.encounter(NodeId(1), k as f64, &params());
            let p = t.predictability(NodeId(1), k as f64, &params());
            assert!(p > prev, "encounter must increase predictability");
            assert!(p <= 1.0);
            prev = p;
        }
        assert!(prev > 0.99);
        // first encounter exactly P_init
        let mut fresh = ProphetTable::new();
        fresh.encounter(NodeId(2), 0.0, &params());
        assert!((fresh.predictability(NodeId(2), 0.0, &params()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aging_decays() {
        let mut t = ProphetTable::new();
        t.encounter(NodeId(1), 0.0, &params());
        let p0 = t.predictability(NodeId(1), 0.0, &params());
        let p_hour = t.predictability(NodeId(1), 3600.0, &params());
        let p_week = t.predictability(NodeId(1), 7.0 * 24.0 * 3600.0, &params());
        assert!((p_hour - p0 * 0.98).abs() < 1e-12);
        assert!(p_week < p_hour && p_hour < p0);
        assert!(p_week > 0.0);
    }

    #[test]
    fn transitivity_spreads_with_damping() {
        let mut r = ProphetRouter::new(3, params());
        // node 1 knows the destination 2 well
        for k in 0..5 {
            r.contact(NodeId(1), NodeId(2), k as f64 * 10.0);
        }
        let p_bc = r.predictability(NodeId(1), NodeId(2), 50.0);
        r.contact(NodeId(0), NodeId(1), 50.0);
        let p_ab = r.predictability(NodeId(0), NodeId(1), 50.0);
        let p_ac = r.predictability(NodeId(0), NodeId(2), 50.0);
        assert!((p_ac - p_ab * p_bc * 0.25).abs() < 1e-9);
        assert!(p_ac < p_bc);
    }

    #[test]
    fn transitivity_never_decreases_existing() {
        let mut r = ProphetRouter::new(3, params());
        // 0 knows 2 directly and strongly
        for k in 0..6 {
            r.contact(NodeId(0), NodeId(2), k as f64);
        }
        let strong = r.predictability(NodeId(0), NodeId(2), 6.0);
        // weak transitive path must not lower it
        r.contact(NodeId(1), NodeId(2), 6.0);
        r.contact(NodeId(0), NodeId(1), 7.0);
        let after = r.predictability(NodeId(0), NodeId(2), 7.0);
        assert!(after >= strong * 0.98f64.powf(1.0 / 3600.0) - 1e-9);
    }

    #[test]
    fn probabilities_always_in_unit_interval() {
        let mut r = ProphetRouter::new(5, params());
        for k in 0..200u32 {
            let a = NodeId(k % 5);
            let b = NodeId((k * 7 + 1) % 5);
            if a != b {
                r.contact(a, b, f64::from(k) * 30.0);
            }
        }
        for a in 0..5 {
            for b in 0..5 {
                let p = r.predictability(NodeId(a), NodeId(b), 6000.0);
                assert!((0.0..=1.0).contains(&p), "P({a},{b}) = {p}");
            }
        }
    }

    #[test]
    fn unknown_destination_is_zero() {
        let r = ProphetRouter::new(4, params());
        assert_eq!(r.predictability(NodeId(0), NodeId(3), 100.0), 0.0);
        assert!(r.table(NodeId(0)).is_empty());
    }

    #[test]
    fn learn_trace_replays_contacts() {
        use photodtn_contacts::ContactEvent;
        let trace = ContactTrace::new(
            3,
            vec![
                ContactEvent::new(NodeId(0), NodeId(1), 0.0, 10.0),
                ContactEvent::new(NodeId(1), NodeId(2), 100.0, 110.0),
            ],
        );
        let mut r = ProphetRouter::new(3, params());
        r.learn_trace(&trace);
        assert!(r.predictability(NodeId(0), NodeId(1), 100.0) > 0.0);
        assert!(r.predictability(NodeId(1), NodeId(2), 100.0) > 0.0);
        // 2 heard about 0 via transitivity through 1
        assert!(r.predictability(NodeId(2), NodeId(0), 100.0) > 0.0);
        assert_eq!(r.num_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "with itself")]
    fn self_contact_panics() {
        let mut r = ProphetRouter::new(3, params());
        r.contact(NodeId(1), NodeId(1), 0.0);
    }

    #[test]
    fn validate_rejects_tables_binary_search_cannot_use() {
        let mut r = ProphetRouter::new(4, params());
        r.contact(NodeId(0), NodeId(1), 0.0);
        r.contact(NodeId(1), NodeId(2), 10.0);
        assert_eq!(r.validate(), Ok(()));

        let mut unsorted = r.clone();
        unsorted.tables[1].entries.reverse();
        let err = unsorted.validate().unwrap_err();
        assert!(
            err.contains("node 1") && err.contains("not strictly sorted"),
            "{err}"
        );

        let mut repeated = r.clone();
        let first = repeated.tables[2].entries[0];
        repeated.tables[2].entries.insert(0, first);
        let err = repeated.validate().unwrap_err();
        assert!(
            err.contains("node 2") && err.contains("not strictly sorted"),
            "{err}"
        );

        let mut foreign = r.clone();
        let e = foreign.tables[0].entries[0].1;
        foreign.tables[0].entries.push((9, e));
        let err = foreign.validate().unwrap_err();
        assert!(err.contains("destination 9 of a 4-node network"), "{err}");

        let mut bad_params = r;
        bad_params.params.gamma = 1.5;
        assert!(bad_params.validate().unwrap_err().contains("gamma"));
    }

    #[test]
    fn symmetric_contact_updates_both_sides() {
        let mut r = ProphetRouter::new(2, params());
        r.contact(NodeId(0), NodeId(1), 0.0);
        assert!(r.predictability(NodeId(0), NodeId(1), 0.0) > 0.0);
        assert!(r.predictability(NodeId(1), NodeId(0), 0.0) > 0.0);
    }
}
