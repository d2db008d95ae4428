//! Property tests for the bandwidth-limited transmission executor: no
//! matter how the contact is truncated, storage capacities hold, budgets
//! hold, and photos the plan selected are never evicted.

use photodtn_core::selection::SelectionResult;
use photodtn_core::transmission::{execute_plan, plan_transfers, PairLink};
use photodtn_coverage::{Coverage, Photo, PhotoCollection, PhotoId, PhotoMeta};
use photodtn_geo::{Angle, Point};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn photo(id: u64) -> Photo {
    let meta = PhotoMeta::new(
        Point::new(0.0, 0.0),
        100.0,
        Angle::from_degrees(45.0),
        Angle::ZERO,
    );
    Photo::new(id, meta, 0.0).with_size(1)
}

prop_compose! {
    fn arb_world()(
        a_ids in prop::collection::btree_set(0u64..20, 0..8),
        b_extra in prop::collection::btree_set(0u64..20, 0..8),
        a_sel in prop::collection::vec(0u64..20, 0..10),
        b_sel in prop::collection::vec(0u64..20, 0..10),
        a_first in any::<bool>(),
        cap_a in 0u64..12,
        cap_b in 0u64..12,
        budget in 0u64..16,
    ) -> (PhotoCollection, PhotoCollection, SelectionResult, u64, u64, u64) {
        let a: PhotoCollection = a_ids.iter().map(|&i| photo(i)).collect();
        let b: PhotoCollection = b_extra.iter().map(|&i| photo(i)).collect();
        let pool: BTreeSet<u64> = a_ids.union(&b_extra).copied().collect();
        // selections must come from the pool, be unique, and fit capacity
        let dedup = |sel: Vec<u64>, cap: u64| -> Vec<PhotoId> {
            let mut seen = BTreeSet::new();
            sel.into_iter()
                .filter(|i| pool.contains(i) && seen.insert(*i))
                .take(cap as usize)
                .map(PhotoId)
                .collect()
        };
        let result = SelectionResult {
            a_selected: dedup(a_sel, cap_a),
            b_selected: dedup(b_sel, cap_b),
            a_first,
            expected: Coverage::ZERO,
            stats: Default::default(),
        };
        (a, b, result, cap_a, cap_b, budget)
    }
}

proptest! {
    #[test]
    fn execution_respects_all_limits((a0, b0, result, cap_a, cap_b, budget) in arb_world()) {
        prop_assume!(a0.total_size() <= cap_a && b0.total_size() <= cap_b);
        let mut a = a0.clone();
        let mut b = b0.clone();
        let plan = plan_transfers(&result, &a, &b);
        let mut link = PairLink::new(&mut a, cap_a, &mut b, cap_b, budget);
        let out = execute_plan(&plan, &result, &mut link);

        // capacities hold afterwards
        prop_assert!(a.total_size() <= cap_a, "a over capacity");
        prop_assert!(b.total_size() <= cap_b, "b over capacity");
        // the byte budget holds
        prop_assert!(out.bytes_transferred <= budget);
        prop_assert_eq!(u64::from(out.photos_transferred), out.bytes_transferred);
        // selected photos that were present at the start are never lost
        for id in &result.a_selected {
            if a0.contains(*id) {
                prop_assert!(a.contains(*id), "a lost selected {id}");
            }
        }
        for id in &result.b_selected {
            if b0.contains(*id) {
                prop_assert!(b.contains(*id), "b lost selected {id}");
            }
        }
        // no photo materializes out of thin air
        for p in a.iter().chain(b.iter()) {
            prop_assert!(a0.contains(p.id) || b0.contains(p.id));
        }
    }

    #[test]
    fn unlimited_budget_realizes_the_plan((a0, b0, result, cap_a, cap_b, _) in arb_world()) {
        prop_assume!(a0.total_size() <= cap_a && b0.total_size() <= cap_b);
        let mut a = a0.clone();
        let mut b = b0.clone();
        let plan = plan_transfers(&result, &a, &b);
        let mut link = PairLink::new(&mut a, cap_a, &mut b, cap_b, u64::MAX);
        let out = execute_plan(&plan, &result, &mut link);
        prop_assert!(!out.truncated);
        // Every selected photo that exists in the pool ends up on its
        // node — except in the documented mutual-swap deadlock, where the
        // receiver is exactly full of photos some selection still needs.
        let keeps: BTreeSet<PhotoId> = result
            .a_selected
            .iter()
            .chain(&result.b_selected)
            .copied()
            .collect();
        let deadlocked = |coll: &PhotoCollection, cap: u64, extra: u64| {
            coll.total_size() + extra > cap && coll.ids().all(|id| keeps.contains(&id))
        };
        for id in &result.a_selected {
            if (a0.contains(*id) || b0.contains(*id)) && !a.contains(*id) {
                let size = b.get(*id).map_or(1, |p| p.size);
                prop_assert!(
                    deadlocked(&a, cap_a, size),
                    "a missing selected {id} despite ∞ budget and no deadlock"
                );
            }
        }
        for id in &result.b_selected {
            if (a0.contains(*id) || b0.contains(*id)) && !b.contains(*id) {
                let size = a.get(*id).map_or(1, |p| p.size);
                prop_assert!(
                    deadlocked(&b, cap_b, size),
                    "b missing selected {id} despite ∞ budget and no deadlock"
                );
            }
        }
    }

    #[test]
    fn truncation_is_a_prefix((a0, b0, result, cap_a, cap_b, budget) in arb_world()) {
        prop_assume!(a0.total_size() <= cap_a && b0.total_size() <= cap_b);
        // executing with a smaller budget transfers a prefix (by count) of
        // what a larger budget transfers
        let plan = plan_transfers(&result, &a0, &b0);
        let (mut a1, mut b1) = (a0.clone(), b0.clone());
        let mut link = PairLink::new(&mut a1, cap_a, &mut b1, cap_b, budget);
        let small = execute_plan(&plan, &result, &mut link);
        let (mut a2, mut b2) = (a0.clone(), b0.clone());
        let mut link = PairLink::new(&mut a2, cap_a, &mut b2, cap_b, budget.saturating_add(8));
        let large = execute_plan(&plan, &result, &mut link);
        prop_assert!(small.photos_transferred <= large.photos_transferred);
        prop_assert!(small.bytes_transferred <= large.bytes_transferred);
    }
}
