//! Property-based tests of `RuntimeManager::decide` over randomly drawn
//! libraries — what the exhaustive check of reachable states in
//! `runtime.rs` cannot cover, since it enumerates three fixed library
//! shapes:
//!
//! 1. **Selection monotonicity** — on a fresh manager (no sticky
//!    current-entry state), observing a *higher* load never selects a
//!    *slower* operating point. Holds for the Oblivious and (fresh)
//!    ReconfigAware policies; AccuracyGreedy is deliberately excluded —
//!    its accuracy-first fallback is non-monotone across the boundary
//!    where the floor becomes unsatisfiable.
//! 2. **Degraded-mode characterization** — `decide` reports degraded
//!    exactly when no entry satisfies both the accuracy floor and the
//!    observed load (i.e. iff `select_strict` fails), and a degraded
//!    decision still yields a valid operating point.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use finn_dataflow::ResourceUsage;
use proptest::prelude::*;

fn entry(id: usize, points: Vec<(f64, f64)>) -> LibraryEntry {
    let points: Vec<OperatingPoint> = points
        .into_iter()
        .enumerate()
        .map(|(i, (acc, ips))| OperatingPoint {
            confidence_threshold: 1.0 - 0.2 * i as f64,
            accuracy: acc,
            exit_fractions: vec![1.0],
            ips,
            avg_latency_ms: 1000.0 / ips,
            power_w: 1.2,
            energy_per_inference_mj: 1.2 / ips * 1000.0,
        })
        .collect();
    let acc = points[0].accuracy;
    LibraryEntry {
        id,
        pruning_rate: 0.1 * id as f64,
        achieved_rate: 0.1 * id as f64,
        prune_exits: false,
        mean_exit_accuracy: acc,
        final_exit_accuracy: acc,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: points[0].ips,
        latency_to_exit_ms: vec![1.0],
        points,
    }
}

/// A random library: 1–4 entries × 1–3 points with accuracy in
/// [0.5, 0.95] and throughput in [200, 3000].
fn arb_library() -> impl Strategy<Value = Library> {
    prop::collection::vec(
        prop::collection::vec((0.5f64..0.95, 200.0f64..3000.0), 1..=3),
        1..=4,
    )
    .prop_map(|entries| Library {
        entries: entries
            .into_iter()
            .enumerate()
            .map(|(id, pts)| entry(id, pts))
            .collect(),
    })
}

fn ips_of(lib: &Library, pick: (usize, usize)) -> f64 {
    lib.entries[pick.0].points[pick.1].ips
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Higher observed load never selects a slower point (fresh manager,
    /// policies whose selection depends only on the observation).
    #[test]
    fn selection_is_monotone_in_load_on_fresh_managers(
        lib in arb_library(),
        floor in 0.4f64..0.9,
        lo in 100.0f64..3500.0,
        delta in 0.0f64..2000.0,
    ) {
        let hi = lo + delta;
        for policy in [SelectionPolicy::Oblivious, SelectionPolicy::ReconfigAware] {
            let d_lo = RuntimeManager::new(lib.clone(), floor, policy).decide(lo);
            let d_hi = RuntimeManager::new(lib.clone(), floor, policy).decide(hi);
            let ips_lo = ips_of(&lib, (d_lo.entry, d_lo.point));
            let ips_hi = ips_of(&lib, (d_hi.entry, d_hi.point));
            prop_assert!(
                ips_hi >= ips_lo - 1e-9,
                "{policy:?}: load {lo}->{hi} selected {ips_lo} -> {ips_hi} IPS"
            );
        }
    }

    /// decide() reports degraded exactly when the strict search fails,
    /// for every policy, and still returns a valid point.
    #[test]
    fn degraded_mode_iff_no_entry_meets_the_floor_at_load(
        lib in arb_library(),
        floor in 0.4f64..0.9,
        load in 100.0f64..4000.0,
    ) {
        for policy in [
            SelectionPolicy::ReconfigAware,
            SelectionPolicy::Oblivious,
            SelectionPolicy::ThroughputGreedy,
            SelectionPolicy::AccuracyGreedy,
        ] {
            let d = RuntimeManager::new(lib.clone(), floor, policy).decide(load);
            let feasible = lib.select_strict(load, floor, None).is_some();
            prop_assert_eq!(
                d.degraded,
                !feasible,
                "{:?}: degraded flag disagrees with select_strict at load {}",
                policy,
                load
            );
            prop_assert!(d.entry < lib.entries.len());
            prop_assert!(d.point < lib.entries[d.entry].points.len());
        }
    }
}
