//! Differential conformance harness for the incremental (delta) move
//! evaluation fast path: long random move chains — swaps, rewires, and
//! mixed walks, on every application, on the paper platform and on
//! degenerate grids — must produce evaluations *bitwise* equal to full
//! evaluation at every step, in all five objectives and (for patched
//! states) every field the EDP model reads.
//!
//! The harness has a self-check mode: compiling with
//! `--features delta-fault` routes every applied delta through a
//! deliberate one-ULP-sized utilization perturbation, and the
//! `self_check` module asserts the divergence is caught — proving these
//! parity assertions have teeth rather than comparing a value to
//! itself.

use moela_manycore::moves;
use moela_manycore::{Evaluation, ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::Problem;
use moela_traffic::{Benchmark, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The grids under test: the paper's 4×4×4 platform plus two degenerate
/// shapes — a minimal 2×2×2 stack and a single-layer 3×3 slab with no
/// vertical links at all (so rewires only ever touch the planar pool).
fn platform(grid: u8) -> PlatformConfig {
    match grid {
        0 => PlatformConfig::paper(),
        1 => PlatformConfig::builder()
            .dims(2, 2, 2)
            .cpus(2)
            .gpus(4)
            .llcs(2)
            .build()
            .expect("the 2x2x2 stack is feasible"),
        _ => PlatformConfig::builder()
            .dims(3, 3, 1)
            .cpus(2)
            .gpus(5)
            .llcs(2)
            .build()
            .expect("the single-layer slab is feasible"),
    }
}

fn problem_on(grid: u8, set: ObjectiveSet, seed: u64) -> ManycoreProblem {
    app_problem_on(Benchmark::Bfs, grid, set, seed)
}

fn app_problem_on(app: Benchmark, grid: u8, set: ObjectiveSet, seed: u64) -> ManycoreProblem {
    let config = platform(grid);
    let workload = Workload::synthesize(app, config.pe_mix(), seed);
    ManycoreProblem::new(config, workload, set).expect("platform builds")
}

/// Bit patterns, so the comparison is exact equality of bytes — not an
/// epsilon, and not `==` (which would let `-0.0` pass for `0.0`).
fn bits(objectives: &[f64]) -> Vec<u64> {
    objectives.iter().map(|v| v.to_bits()).collect()
}

/// Bit patterns of every field of an [`Evaluation`]: the five objectives,
/// the peak temperature and the four network statistics EDP reads.
fn evaluation_bits(e: &Evaluation) -> [u64; 10] {
    let n = &e.network;
    [
        e.mean_traffic,
        e.traffic_variance,
        e.cpu_latency,
        e.energy,
        e.thermal,
        e.peak_temperature,
        n.avg_packet_latency,
        n.max_link_utilization,
        n.network_energy_rate,
        n.total_pe_power,
    ]
    .map(f64::to_bits)
}

/// Full evaluation of three fixed-seed paper designs, pinned field by
/// field. Any change to the order in which an objective's terms are
/// summed moves a bit here, on either side of the `delta-fault` switch
/// (which only touches the delta path).
#[test]
fn full_evaluations_of_paper_designs_are_pinned_bitwise() {
    let pinned: [(Benchmark, u64, [u64; 10]); 3] = [
        (
            Benchmark::Bfs,
            3,
            [
                0x40366b19b9496982,
                0x409c5b4cc1dd4a6c,
                0x3ff8db6a668f9be9,
                0x40d51f2def8de9c3,
                0x40742a954e5911d2,
                0x4037799f32eb0554,
                0x402d8560cd2932a3,
                0x400ca340cd467f26,
                0x40d51f2def8de9c3,
                0x40578d9b829b5ced,
            ],
        ),
        (
            Benchmark::Hot,
            11,
            [
                0x40352531d9ad8431,
                0x4066811ab1b5f730,
                0x3fdba4d560a1d5a9,
                0x40d4ce6164fb3d76,
                0x40944ebee7e13bd5,
                0x40456e6ab84f9f3a,
                0x402ce34cc87f1aa0,
                0x3fe1dfea90d814ef,
                0x40d4ce6164fb3d76,
                0x40653ba8e6885cf3,
            ],
        ),
        (
            Benchmark::Sc,
            29,
            [
                0x403562d8b1be11b7,
                0x40775e632b16787f,
                0x40069557f0c26433,
                0x40d4ad13fa8aa386,
                0x4082b4f54b9be596,
                0x403ece3b3e9bc04b,
                0x402cabc93df0ea99,
                0x3fec98412af852ab,
                0x40d4ad13fa8aa386,
                0x405e8531c45becfc,
            ],
        ),
    ];
    for (app, seed, want) in pinned {
        let problem = app_problem_on(app, 0, ObjectiveSet::Five, seed);
        let design = problem.random_solution(&mut StdRng::seed_from_u64(seed));
        let got = evaluation_bits(&problem.evaluate_full(&design));
        assert_eq!(got, want, "{app} seed {seed}: full evaluation moved");
    }
}

/// The parity suite proper. Compiled out under `delta-fault`, where the
/// delta path is deliberately wrong and only `self_check` applies.
#[cfg(not(feature = "delta-fault"))]
mod parity {
    use super::*;
    use moela_manycore::objectives::Evaluator;
    use moela_manycore::topology::TopologyBuilder;
    use moela_manycore::{Design, MoveDelta};
    use moela_thermal::FastThermalModel;
    use proptest::prelude::*;

    /// A bare engine-level evaluator over the same `(platform, workload)`
    /// pair `problem_on` builds, for driving [`Evaluator::evaluate_delta`]
    /// directly.
    fn evaluator_on(app: Benchmark, grid: u8, seed: u64) -> Evaluator {
        let config = platform(grid);
        let workload = Workload::synthesize(app, config.pe_mix(), seed);
        let thermal = FastThermalModel::new(config.thermal().clone());
        Evaluator::new(*config.dims(), *config.noc(), workload, thermal)
    }

    /// One move of the requested kind. `kind` 0 = placement swap, 1 = link
    /// rewire, anything else = the problem's own mixed move distribution.
    fn step(problem: &ManycoreProblem, kind: u8, current: &Design, rng: &mut StdRng) -> Design {
        let config = problem.config();
        match kind {
            0 => moves::swap_tiles(config.dims(), config.pe_mix(), current, rng),
            1 => {
                let builder = TopologyBuilder::new(
                    *config.dims(),
                    config.planar_links(),
                    config.tsvs(),
                    config.noc().max_planar_length,
                    config.noc().max_degree,
                );
                moves::rewire_link(config.dims(), &builder, config.noc().max_degree, current, rng)
            }
            _ => problem.neighbor(current, rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random move chains of every kind, on every grid and every
        /// application, scored over all five objectives: the
        /// delta-served neighbor evaluation
        /// must equal full evaluation bitwise at every single step. The
        /// chain always advances through the delta path's own output,
        /// so drift would compound — and be caught at the step it
        /// first appears.
        #[test]
        fn move_chains_evaluate_bitwise_identically(
            seed in 0u64..500,
            walk in 1usize..12,
            kind in 0u8..3,
            grid in 0u8..3,
            app in 0usize..Benchmark::ALL.len(),
        ) {
            let app = Benchmark::ALL[app];
            let problem = app_problem_on(app, grid, ObjectiveSet::Five, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD17A);
            let mut current = problem.random_solution(&mut rng);
            for i in 0..walk {
                let next = step(&problem, kind, &current, &mut rng);
                let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
                let full = problem.evaluate(&next);
                prop_assert_eq!(
                    bits(&fast), bits(&full),
                    "step {} of a kind-{} {} chain on grid {} diverged: delta {:?} vs full {:?}",
                    i, kind, app, grid, fast, full
                );
                current = next;
            }
        }

        /// The engine driven bare, below the problem wrapper: classify
        /// each move with [`MoveDelta::between`], patch the running
        /// [`EvalState`] with [`Evaluator::evaluate_delta`], and demand
        /// the patched state equals a from-scratch build bitwise — every
        /// field of its evaluation, and its successor's (state chaining).
        #[test]
        fn patched_states_equal_fresh_builds(
            seed in 0u64..300,
            walk in 2usize..14,
            grid in 0u8..3,
            app in 0usize..Benchmark::ALL.len(),
        ) {
            let app = Benchmark::ALL[app];
            let problem = app_problem_on(app, grid, ObjectiveSet::Five, seed);
            let evaluator = evaluator_on(app, grid, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5A7E);
            let start = problem.random_solution(&mut rng);
            let mut state = evaluator.build_state(&start);
            let mut applied = 0usize;
            for i in 0..walk {
                let next = step(&problem, (i % 3) as u8, state.design(), &mut rng);
                let delta = MoveDelta::between(state.design(), &next);
                state = match delta.and_then(|d| evaluator.evaluate_delta(&state, &d)) {
                    Some(patched) => {
                        applied += 1;
                        let fresh = evaluator.build_state(&next);
                        prop_assert_eq!(
                            evaluation_bits(patched.evaluation()),
                            evaluation_bits(fresh.evaluation()),
                            "{} delta {:?} at step {} diverged from the fresh build", app, delta, i
                        );
                        patched
                    }
                    None => evaluator.build_state(&next),
                };
            }
            // Move generators only return clones on rejection-sampling
            // exhaustion, so real chains must exercise the fast path.
            prop_assert!(applied > 0, "no step was delta-classifiable");
        }
    }

    /// A cloned design is the `Identity` delta: the cached evaluation is
    /// reused verbatim and counted as a hit.
    #[test]
    fn identity_moves_reuse_the_cached_state_exactly() {
        let problem = problem_on(0, ObjectiveSet::Five, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let d = problem.random_solution(&mut rng);
        let full = problem.evaluate(&d);
        let fast = problem.evaluate_neighbor_ordinal(&d, &d.clone(), 0);
        assert_eq!(bits(&fast), bits(&full));
        let (hits, fallbacks) = problem.delta_stats();
        assert_eq!((hits, fallbacks), (1, 1), "bootstrap build, then an identity hit");
    }

    /// The ISSUE's acceptance bar, proven by the same counters
    /// `metrics.json` reports: a swap-heavy local-search walk must serve
    /// at least 3x more neighbors from the delta path than it falls
    /// back to full evaluation — while staying bitwise exact.
    #[test]
    fn swap_heavy_walks_hit_the_delta_path_at_least_3x_more_than_falling_back() {
        let problem = problem_on(0, ObjectiveSet::Three, 11);
        let config = problem.config();
        let (dims, mix) = (*config.dims(), config.pe_mix());
        let mut rng = StdRng::seed_from_u64(13);
        let mut current = problem.random_solution(&mut rng);
        let walk = 40u64;
        for _ in 0..walk {
            let next = moves::swap_tiles(&dims, mix, &current, &mut rng);
            let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
            assert_eq!(bits(&fast), bits(&problem.evaluate(&next)));
            current = next;
        }
        let (hits, fallbacks) = problem.delta_stats();
        // Counters count *work*, not neighbors: the first call pays one
        // full bootstrap build (a fallback) and still serves its
        // neighbor through the delta path (a hit).
        assert_eq!((hits, fallbacks), (walk, 1), "one bootstrap, then pure delta");
        assert!(
            hits >= 3 * fallbacks.max(1),
            "swap-heavy walks must be delta-dominated (hits {hits}, fallbacks {fallbacks})"
        );
    }
}

/// Harness self-test, compiled only with `--features delta-fault`: the
/// delta path then perturbs one utilization entry on every applied
/// delta, and the very comparison the parity suite runs must flag it.
/// A green run here proves a wrong fast path cannot slip through.
#[cfg(feature = "delta-fault")]
mod self_check {
    use super::*;

    #[test]
    fn the_deliberately_broken_delta_path_is_caught() {
        let problem = problem_on(0, ObjectiveSet::Five, 7);
        let config = problem.config();
        let (dims, mix) = (*config.dims(), config.pe_mix());
        let mut rng = StdRng::seed_from_u64(7);
        let mut current = problem.random_solution(&mut rng);
        let mut diverged = 0usize;
        for _ in 0..6 {
            let next = moves::swap_tiles(&dims, mix, &current, &mut rng);
            let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
            let full = problem.evaluate(&next);
            if bits(&fast) != bits(&full) {
                diverged += 1;
            }
            current = next;
        }
        let (hits, _) = problem.delta_stats();
        assert!(hits > 0, "the chain must actually exercise the delta path");
        assert!(
            diverged > 0,
            "the injected delta fault went undetected — the parity harness is toothless"
        );
    }
}
