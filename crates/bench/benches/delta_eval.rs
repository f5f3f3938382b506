//! Criterion benches for the incremental move-evaluation fast path:
//! what one neighbor costs scored from scratch versus patched from the
//! base design's cached [`moela_manycore::EvalState`], per move kind.
//!
//! The full-evaluation side builds a fresh routing table per move; the
//! delta side includes the classification diff ([`MoveDelta::between`]),
//! so both sides measure the whole cost their code path pays inside a
//! hill-climbing loop.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use moela_manycore::moves;
use moela_manycore::objectives::Evaluator;
use moela_manycore::topology::TopologyBuilder;
use moela_manycore::{Design, ManycoreProblem, MoveDelta, ObjectiveSet, PlatformConfig};
use moela_moo::Problem;
use moela_thermal::FastThermalModel;
use moela_traffic::{Benchmark, Workload};

fn bench_delta_eval(c: &mut Criterion) {
    let config = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Hot, config.pe_mix(), 7);
    let problem = ManycoreProblem::new(config.clone(), workload.clone(), ObjectiveSet::Five)
        .expect("paper platform");
    let thermal = FastThermalModel::new(config.thermal().clone());
    let cold = Evaluator::new(*config.dims(), *config.noc(), workload.clone(), thermal.clone());
    let warm = Evaluator::new(*config.dims(), *config.noc(), workload, thermal);

    let mut rng = StdRng::seed_from_u64(9);
    let base = problem.random_solution(&mut rng);
    let state = warm.build_state(&base);

    let swap = loop {
        let n = moves::swap_tiles(config.dims(), config.pe_mix(), &base, &mut rng);
        if matches!(MoveDelta::between(&base, &n), Some(MoveDelta::Swap { .. })) {
            break n;
        }
    };
    let builder = TopologyBuilder::new(
        *config.dims(),
        config.planar_links(),
        config.tsvs(),
        config.noc().max_planar_length,
        config.noc().max_degree,
    );
    let rewire = loop {
        let n =
            moves::rewire_link(config.dims(), &builder, config.noc().max_degree, &base, &mut rng);
        if matches!(MoveDelta::between(&base, &n), Some(MoveDelta::Rewire { .. })) {
            break n;
        }
    };

    let kinds: [(&str, &Design); 2] = [("swap", &swap), ("rewire", &rewire)];
    for (name, next) in kinds {
        c.bench_function(&format!("delta_eval/full_{name}"), |b| b.iter(|| cold.evaluate(next)));
        c.bench_function(&format!("delta_eval/delta_{name}"), |b| {
            b.iter(|| {
                let delta = MoveDelta::between(&base, next).expect("one recognizable move");
                warm.evaluate_delta(&state, &delta).expect("the delta applies")
            })
        });
    }
}

criterion_group! {
    name = delta_eval;
    config = Criterion::default().sample_size(20);
    targets = bench_delta_eval
}
criterion_main!(delta_eval);
