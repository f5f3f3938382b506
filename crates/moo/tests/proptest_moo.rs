//! Property-based tests of the MOO toolkit's core invariants.

use moela_moo::archive::ParetoArchive;
use moela_moo::hypervolume::{hypervolume, monte_carlo_hypervolume, try_hypervolume, HvError};
use moela_moo::normalize::Normalizer;
use moela_moo::pareto::{crowding_distance, dominates, non_dominated_indices, non_dominated_sort};
use moela_moo::problems::{Dtlz, Zdt};
use moela_moo::scalarize::{ReferencePoint, Scalarizer};
use moela_moo::weights::{neighborhoods, uniform_weights};
use moela_moo::{
    is_quarantined, ChaosProblem, ChaosSpec, FaultConfig, FaultPolicy, GuardedEvaluator, Problem,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Replaces a random subset of coordinates with NaN/±Inf; returns the
/// indices of the corrupted vectors.
fn corrupt(points: &mut [Vec<f64>], seed: u64) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut dirty = Vec::new();
    for (i, p) in points.iter_mut().enumerate() {
        if p.is_empty() || rng.gen_range(0.0..1.0) >= 0.4 {
            continue;
        }
        let k = rng.gen_range(0..p.len());
        p[k] = match rng.gen_range(0u32..3) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        dirty.push(i);
    }
    dirty
}

/// `GuardedEvaluator` (at any worker count) must agree bit-for-bit with
/// per-solution `evaluate` — the contract every optimizer's determinism
/// rests on.
fn assert_batch_parity<P>(problem: &P, count: usize, threads: usize, seed: u64)
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let solutions: Vec<P::Solution> =
        (0..count).map(|_| problem.random_solution(&mut rng)).collect();
    let sequential: Vec<Option<Vec<f64>>> =
        solutions.iter().map(|s| Some(problem.evaluate(s))).collect();
    let mut guard = GuardedEvaluator::new(threads, FaultConfig::default());
    let batch = guard.evaluate(problem, &solutions);
    assert_eq!(batch.objectives, sequential);
    assert_eq!(batch.attempts, count as u64);
}

fn objective_vectors(m: usize, max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, m), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact WFG hypervolume agrees with the Monte-Carlo estimator.
    #[test]
    fn exact_hv_matches_monte_carlo(points in objective_vectors(3, 10), seed in 0u64..100) {
        let reference = vec![1.0; 3];
        let exact = hypervolume(&points, &reference);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let est = monte_carlo_hypervolume(&points, &reference, &[0.0; 3], 60_000, &mut rng);
        prop_assert!((exact - est).abs() < 0.03, "exact {exact} vs mc {est}");
    }

    /// Hypervolume never exceeds the reference box volume.
    #[test]
    fn hv_is_bounded_by_the_reference_box(points in objective_vectors(4, 12)) {
        let reference = vec![1.1; 4];
        let hv = hypervolume(&points, &reference);
        prop_assert!(hv >= 0.0);
        prop_assert!(hv <= 1.1f64.powi(4) + 1e-9);
    }

    /// The HV of a set equals the HV of its non-dominated subset.
    #[test]
    fn hv_depends_only_on_the_front(points in objective_vectors(3, 12)) {
        let reference = vec![1.0; 3];
        let front: Vec<Vec<f64>> = non_dominated_indices(&points)
            .into_iter()
            .map(|i| points[i].clone())
            .collect();
        let a = hypervolume(&points, &reference);
        let b = hypervolume(&front, &reference);
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// Dominance is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn dominance_is_a_strict_partial_order(
        a in proptest::collection::vec(0.0f64..1.0, 3),
        b in proptest::collection::vec(0.0f64..1.0, 3),
        c in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        prop_assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    /// Crowding distances are non-negative and never NaN.
    #[test]
    fn crowding_distances_are_well_formed(points in objective_vectors(3, 15)) {
        let d = crowding_distance(&points);
        prop_assert_eq!(d.len(), points.len());
        prop_assert!(d.iter().all(|x| !x.is_nan() && *x >= 0.0));
    }

    /// Weight vectors lie on the simplex and neighborhoods start with self.
    #[test]
    fn weights_are_simplex_points(n in 2usize..40, m in 2usize..6) {
        let w = uniform_weights(n, m);
        prop_assert_eq!(w.len(), n);
        for v in &w {
            let s: f64 = v.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(v.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
        }
        let t = (n / 2).max(1);
        let nb = neighborhoods(&w, t);
        for (i, neighbors) in nb.iter().enumerate() {
            prop_assert_eq!(neighbors[0], i);
            prop_assert_eq!(neighbors.len(), t);
        }
    }

    /// The reference point is the component-wise minimum of everything it
    /// observed.
    #[test]
    fn reference_point_tracks_minima(objs in objective_vectors(4, 20)) {
        let mut z = ReferencePoint::new(4);
        for o in &objs {
            z.update(o);
        }
        for k in 0..4 {
            let min = objs.iter().map(|o| o[k]).fold(f64::INFINITY, f64::min);
            prop_assert!((z.values()[k] - min).abs() < 1e-12);
        }
    }

    /// Normalization round-trips ordering: if `a[k] < b[k]` then
    /// `norm(a)[k] <= norm(b)[k]`.
    #[test]
    fn normalization_preserves_per_dimension_order(
        corpus in objective_vectors(3, 20),
        a in proptest::collection::vec(0.0f64..1.0, 3),
        b in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let n = Normalizer::fit(&corpus);
        let na = n.normalize_unclamped(&a);
        let nb = n.normalize_unclamped(&b);
        for k in 0..3 {
            if a[k] < b[k] {
                prop_assert!(na[k] <= nb[k] + 1e-12);
            }
        }
    }

    /// Batch evaluation equals per-solution evaluation on the ZDT family,
    /// for any batch size and worker count.
    #[test]
    fn zdt_batch_evaluation_matches_sequential(
        variant in 0usize..5,
        n in 2usize..12,
        count in 0usize..17,
        threads in 0usize..9,
        seed in 0u64..1000,
    ) {
        let problem = match variant {
            0 => Zdt::zdt1(n),
            1 => Zdt::zdt2(n),
            2 => Zdt::zdt3(n),
            3 => Zdt::zdt4(n),
            _ => Zdt::zdt6(n),
        };
        assert_batch_parity(&problem, count, threads, seed);
    }

    /// Batch evaluation equals per-solution evaluation on the DTLZ family,
    /// for any batch size and worker count.
    #[test]
    fn dtlz_batch_evaluation_matches_sequential(
        variant in 0usize..5,
        m in 2usize..5,
        k in 2usize..8,
        count in 0usize..17,
        threads in 0usize..9,
        seed in 0u64..1000,
    ) {
        let problem = match variant {
            0 => Dtlz::dtlz1(m, k),
            1 => Dtlz::dtlz2(m, k),
            2 => Dtlz::dtlz3(m, k),
            3 => Dtlz::dtlz4(m, k),
            _ => Dtlz::dtlz7(m, k),
        };
        assert_batch_parity(&problem, count, threads, seed);
    }

    /// The archive never admits a non-finite objective vector, no matter
    /// what mix of clean and corrupted points is thrown at it.
    #[test]
    fn archive_never_admits_non_finite(
        points in objective_vectors(3, 20),
        seed in 0u64..1000,
        bounded in 0u32..2,
    ) {
        let mut points = points;
        corrupt(&mut points, seed);
        let mut archive =
            if bounded == 1 { ParetoArchive::bounded(5) } else { ParetoArchive::unbounded() };
        for (i, p) in points.iter().enumerate() {
            archive.insert(i, p.clone());
        }
        for (_, o) in archive.iter() {
            prop_assert!(o.iter().all(|v| v.is_finite()), "archive holds {o:?}");
        }
    }

    /// Non-dominated sorting stays a partition under corruption, with
    /// every non-finite point ranked strictly behind every finite one.
    #[test]
    fn sort_quarantines_non_finite_points(
        points in objective_vectors(3, 20),
        seed in 0u64..1000,
    ) {
        let mut points = points;
        let dirty = corrupt(&mut points, seed);
        let fronts = non_dominated_sort(&points);
        let mut seen: Vec<usize> = fronts.concat();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..points.len()).collect::<Vec<_>>());
        if !dirty.is_empty() {
            let last = fronts.last().unwrap().clone();
            prop_assert_eq!(last, dirty.clone());
        }
        for i in non_dominated_indices(&points) {
            prop_assert!(!dirty.contains(&i));
        }
    }

    /// Hypervolume of a corrupted set skips the garbage (stays finite and
    /// equal to the clean subset), while `try_hypervolume` reports it.
    #[test]
    fn hv_skips_garbage_and_try_reports_it(
        points in objective_vectors(3, 14),
        seed in 0u64..1000,
    ) {
        let reference = vec![1.0; 3];
        let mut points = points;
        let dirty = corrupt(&mut points, seed);
        let clean: Vec<Vec<f64>> = points
            .iter()
            .filter(|p| p.iter().all(|v| v.is_finite()))
            .cloned()
            .collect();
        let hv = hypervolume(&points, &reference);
        prop_assert!(hv.is_finite());
        prop_assert_eq!(hv, hypervolume(&clean, &reference));
        match try_hypervolume(&points, &reference) {
            Ok(v) => {
                prop_assert!(dirty.is_empty());
                prop_assert_eq!(v, hv);
            }
            Err(HvError::NonFinitePoint { index }) => {
                prop_assert_eq!(Some(&index), dirty.first());
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// A normalizer fed corrupted vectors keeps finite (or untouched
    /// initial) bounds and keeps normalizing cleanly.
    #[test]
    fn normalizer_bounds_survive_corruption(
        points in objective_vectors(3, 20),
        seed in 0u64..1000,
    ) {
        let mut points = points;
        corrupt(&mut points, seed);
        let mut n = Normalizer::new(3);
        for p in &points {
            n.observe(p);
        }
        for k in 0..3 {
            let (lo, hi) = (n.min()[k], n.max()[k]);
            prop_assert!(lo.is_finite() || lo == f64::INFINITY, "min {lo}");
            prop_assert!(hi.is_finite() || hi == f64::NEG_INFINITY, "max {hi}");
        }
        prop_assert!(n.normalize(&[0.5, 0.5, 0.5]).iter().all(|v| v.is_finite()));
    }

    /// Under every fault policy and thread count, a guarded chaotic
    /// evaluation never emits a non-finite objective vector — so nothing
    /// non-finite can reach archives, normalizers, datasets or
    /// checkpoints downstream.
    #[test]
    fn guarded_chaos_output_is_always_finite(
        count in 1usize..24,
        threads in 1usize..5,
        policy in 0u32..3,
        retries in 0u32..3,
        seed in 0u64..1000,
    ) {
        let policy = match policy {
            0 => FaultPolicy::Fail,
            1 => FaultPolicy::PenalizeWorst,
            _ => FaultPolicy::Skip,
        };
        let problem = Zdt::zdt1(4);
        let spec = ChaosSpec::parse("panic=0.15,nan=0.15,inf=0.15,arity=0.15").unwrap();
        let chaotic = ChaosProblem::new(&problem, spec, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let solutions: Vec<Vec<f64>> =
            (0..count).map(|_| problem.random_solution(&mut rng)).collect();
        let mut guard = GuardedEvaluator::new(threads, FaultConfig { policy, retries });
        let batch = guard.evaluate(&chaotic, &solutions);
        prop_assert!(batch.attempts >= solutions.len() as u64);
        for objs in batch.objectives.iter().flatten() {
            prop_assert_eq!(objs.len(), problem.objective_count());
            prop_assert!(objs.iter().all(|v| v.is_finite()), "leaked {objs:?}");
        }
        // Materialized batches (initial-population path) are finite too.
        for objs in batch.materialized(problem.objective_count()) {
            prop_assert!(objs.iter().all(|v| v.is_finite()));
        }
        // Quarantine bookkeeping is self-consistent.
        let log = guard.log();
        prop_assert_eq!(log.faults() >= log.penalized + log.skipped + log.recovered, true);
        if policy == FaultPolicy::PenalizeWorst {
            let penalized = batch
                .objectives
                .iter()
                .flatten()
                .filter(|o| is_quarantined(o))
                .count() as u64;
            prop_assert_eq!(penalized, log.penalized);
        }
    }

    /// Scalarized values are zero exactly at the reference point and
    /// non-negative everywhere.
    #[test]
    fn scalarizers_are_nonnegative(
        obj in proptest::collection::vec(0.0f64..5.0, 3),
        z in proptest::collection::vec(0.0f64..5.0, 3),
        raw_w in proptest::collection::vec(0.01f64..1.0, 3),
    ) {
        let total: f64 = raw_w.iter().sum();
        let w: Vec<f64> = raw_w.iter().map(|v| v / total).collect();
        for s in [Scalarizer::WeightedSum, Scalarizer::Tchebycheff] {
            prop_assert!(s.value(&obj, &w, &z) >= 0.0);
            prop_assert!(s.value(&z, &w, &z).abs() < 1e-12);
        }
    }
}
