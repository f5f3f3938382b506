//! The decomposition population shared by MOELA and MOEA/D: individuals
//! bound to Das–Dennis weight vectors, neighborhood-restricted mating, and
//! the Tchebycheff update rule of eq. (10).
//!
//! Both optimizers are built from the same pieces — the random initial
//! population ([`Population::initialize`]), one EA pass
//! ([`Population::evolve`]: offspring, one evaluation batch, batch offer)
//! and the checkpoint pair ([`Population::snapshot_fields`] /
//! [`Population::restore_fields`]) — so the MOELA-vs-MOEA/D comparison
//! runs one decomposition EA, and MOELA differs only by the learned local
//! search it adds.

use rand::{Rng, RngCore};

use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::checkpoint::{Fields, RunCore};
use crate::fault::is_quarantined;
use crate::normalize::Normalizer;
use crate::run::TraceRecorder;
use crate::scalarize::{ReferencePoint, Scalarizer};
use crate::snapshot::{entries_from_value, entries_to_value};
use crate::weights::{neighborhoods, uniform_weights};
use crate::Problem;

/// One population slot: a solution, its raw objective vector, and (via its
/// index) an assigned weight vector.
#[derive(Clone, Debug)]
pub struct Individual<S> {
    /// The candidate solution.
    pub solution: S,
    /// Raw (un-normalized) objective values.
    pub objectives: Vec<f64>,
}

/// A decomposition population of `N` individuals, one per weight vector,
/// with the shared reference point `z` and an online objective normalizer.
///
/// Scalarization happens on *normalized* objectives so that weights remain
/// meaningful when objectives differ by orders of magnitude (the manycore
/// problem's energies vs. utilizations); `z` is tracked in raw space and
/// normalized on use.
#[derive(Clone, Debug)]
pub struct Population<S> {
    individuals: Vec<Individual<S>>,
    weights: Vec<Vec<f64>>,
    neighborhoods: Vec<Vec<usize>>,
    z: ReferencePoint,
    normalizer: Normalizer,
}

impl<S: Clone> Population<S> {
    /// Builds the population from already-evaluated individuals; `z` and
    /// the normalizer start from the individuals that are not
    /// quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `individuals` is empty or objective lengths are not `m`.
    pub fn new(individuals: Vec<Individual<S>>, m: usize, t: usize) -> Self {
        let mut z = ReferencePoint::new(m);
        let mut normalizer = Normalizer::new(m);
        for ind in individuals.iter().filter(|i| !is_quarantined(&i.objectives)) {
            z.update(&ind.objectives);
            normalizer.observe(&ind.objectives);
        }
        Self::from_parts(individuals, m, t, z, normalizer)
    }

    /// Draws `n` random solutions sequentially from `rng`, evaluates them
    /// through `core` as one batch, and builds the population with
    /// neighborhood size `t`. Dropped candidates are materialized as
    /// penalty vectors: every sub-problem needs a member, and a
    /// quarantined one is retired by selection pressure without reaching
    /// `z`, the normalizer or the trace.
    pub fn initialize<P>(
        problem: &P,
        core: &mut RunCore,
        n: usize,
        t: usize,
        rng: &mut dyn RngCore,
    ) -> Self
    where
        P: Problem<Solution = S> + Sync,
        S: Sync,
    {
        let m = problem.objective_count();
        let solutions: Vec<S> = (0..n).map(|_| problem.random_solution(rng)).collect();
        let objectives = core.evaluate(problem, &solutions).materialized(m);
        let individuals = solutions
            .into_iter()
            .zip(objectives)
            .map(|(solution, objectives)| {
                core.recorder.observe(&objectives);
                Individual { solution, objectives }
            })
            .collect();
        Self::new(individuals, m, t)
    }

    /// Rebuilds a population from the fields written by
    /// [`Population::snapshot_fields`], checked against the run's `n`
    /// sub-problems and `m` objectives. Weights and neighborhoods are
    /// deterministic functions of `(n, m, t)` and are recomputed; `z` and
    /// the normalizer are adopted verbatim because the running values may
    /// be wider than the current individuals imply (they have observed
    /// every evaluation so far, including rejected candidates).
    pub fn restore_fields<C: SolutionCodec<S>>(
        value: &Value,
        codec: &C,
        n: usize,
        m: usize,
        t: usize,
    ) -> Result<Self, PersistError> {
        let individuals: Vec<Individual<S>> =
            entries_from_value(value.field("population")?, codec)?
                .into_iter()
                .map(|(solution, objectives)| Individual { solution, objectives })
                .collect();
        if individuals.len() != n {
            return Err(PersistError::schema("checkpointed population size mismatch"));
        }
        if individuals.iter().any(|i| i.objectives.len() != m) {
            return Err(PersistError::schema("checkpointed objective dimensionality mismatch"));
        }
        let z = ReferencePoint::restore(value.field("z")?)?;
        let normalizer = Normalizer::restore(value.field("normalizer")?)?;
        if z.len() != m || normalizer.len() != m {
            return Err(PersistError::schema(
                "checkpointed reference/normalizer dimension mismatch",
            ));
        }
        Ok(Self::from_parts(individuals, m, t, z, normalizer))
    }

    fn from_parts(
        individuals: Vec<Individual<S>>,
        m: usize,
        t: usize,
        z: ReferencePoint,
        normalizer: Normalizer,
    ) -> Self {
        assert!(!individuals.is_empty(), "population must be non-empty");
        assert!(
            individuals.iter().all(|i| i.objectives.len() == m),
            "objective dimensionality mismatch"
        );
        let n = individuals.len();
        let weights = uniform_weights(n, m);
        let nbhd = neighborhoods(&weights, t.clamp(1, n));
        Self { individuals, weights, neighborhoods: nbhd, z, normalizer }
    }

    /// The checkpoint fields `population`, `z` and `normalizer`, read back
    /// by [`Population::restore_fields`].
    pub fn snapshot_fields<C: SolutionCodec<S>>(&self, codec: &C) -> Fields {
        let entries: Vec<(S, Vec<f64>)> =
            self.individuals.iter().map(|i| (i.solution.clone(), i.objectives.clone())).collect();
        vec![
            ("population", entries_to_value(&entries, codec)),
            ("z", self.z.snapshot()),
            ("normalizer", self.normalizer.snapshot()),
        ]
    }

    /// Number of individuals (= sub-problems).
    pub fn len(&self) -> usize {
        self.individuals.len()
    }

    /// `true` if the population is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.individuals.is_empty()
    }

    /// The individual at slot `i`.
    pub fn individual(&self, i: usize) -> &Individual<S> {
        &self.individuals[i]
    }

    /// The individuals as `(solution, objectives)` pairs, slot-ordered.
    pub fn into_entries(self) -> Vec<(S, Vec<f64>)> {
        self.individuals.into_iter().map(|i| (i.solution, i.objectives)).collect()
    }

    /// All raw objective vectors, slot-ordered.
    pub fn objective_vectors(&self) -> Vec<Vec<f64>> {
        self.individuals.iter().map(|i| i.objectives.clone()).collect()
    }

    /// The weight vector of slot `i`.
    pub fn weight(&self, i: usize) -> &[f64] {
        &self.weights[i]
    }

    /// The neighborhood (indices of the `T` closest sub-problems) of `i`.
    pub fn neighborhood(&self, i: usize) -> &[usize] {
        &self.neighborhoods[i]
    }

    /// The raw reference point `z`.
    pub fn reference(&self) -> &ReferencePoint {
        &self.z
    }

    /// The online normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Registers a newly evaluated objective vector: lowers `z` and widens
    /// the normalizer. Quarantined vectors (non-finite or fault penalties)
    /// are ignored — one would permanently blow out the normalizer's range
    /// and distort every later scalarization.
    pub fn observe(&mut self, objectives: &[f64]) {
        if is_quarantined(objectives) {
            return;
        }
        self.z.update(objectives);
        self.normalizer.observe(objectives);
    }

    /// The Tchebycheff value `g(objectives | w_i, z)` on normalized
    /// objectives.
    pub fn scalarized(&self, objectives: &[f64], i: usize) -> f64 {
        let obj_n = self.normalizer.normalize(objectives);
        let z_n = self.normalizer.normalize(self.z.values());
        Scalarizer::Tchebycheff.value(&obj_n, &self.weights[i], &z_n)
    }

    /// Eq. (10): offers `candidate` to the sub-problems in `scope`,
    /// replacing any whose current member scalarizes worse — up to
    /// `max_replacements` slots (the MOEA/D `n_r` guard). Returns how many
    /// slots were replaced.
    pub fn update(
        &mut self,
        candidate: &S,
        objectives: &[f64],
        scope: &[usize],
        max_replacements: usize,
    ) -> usize {
        self.observe(objectives);
        let mut replaced = 0;
        for &j in scope {
            if replaced >= max_replacements {
                break;
            }
            let current = self.scalarized(&self.individuals[j].objectives, j);
            let incoming = self.scalarized(objectives, j);
            if incoming < current {
                self.individuals[j] =
                    Individual { solution: candidate.clone(), objectives: objectives.to_vec() };
                replaced += 1;
            }
        }
        replaced
    }

    /// One decomposition-EA pass (Algorithm 1, line 12; MOEA/D's
    /// generation) over `subproblems`, in that order: offspring for every
    /// listed sub-problem are drawn first, with parents from the
    /// population as it stood at the start of the pass, then evaluated
    /// through `core` as one batch — so results do not depend on the
    /// evaluator's worker count — then offered in the same order.
    /// Returns `false`, with the population untouched, when a Fail-policy
    /// fault latched during the batch.
    pub fn evolve<P>(
        &mut self,
        problem: &P,
        core: &mut RunCore,
        subproblems: impl IntoIterator<Item = usize>,
        delta: f64,
        max_replacements: usize,
        rng: &mut dyn RngCore,
    ) -> bool
    where
        P: Problem<Solution = S> + Sync,
        S: Sync,
    {
        let mate = core.obs.span("mate");
        let (children, pools) = self.offspring(problem, subproblems, delta, rng);
        drop(mate);
        let batch = core.evaluate(problem, &children);
        if core.evaluator.poisoned() {
            return false;
        }
        let _select = core.obs.span("select");
        let offers = children
            .iter()
            .zip(&batch.objectives)
            .zip(&pools)
            .map(|((child, objectives), pool)| (child, objectives.as_deref(), pool.as_slice()));
        let improvements = self.offer(offers, &mut core.recorder, max_replacements);
        if improvements > 0 {
            core.obs.counter(moela_obs::names::EA_IMPROVEMENTS, improvements);
        }
        true
    }

    /// One child per listed sub-problem, with its mating pool: the
    /// sub-problem's neighborhood with probability `delta`, otherwise the
    /// whole population. Two distinct parents drawn from the pool are
    /// crossed; a one-member pool cannot supply a second parent, so its
    /// member is mutated instead. The pool is also the scope the child is
    /// offered to.
    fn offspring<P: Problem<Solution = S>>(
        &self,
        problem: &P,
        subproblems: impl IntoIterator<Item = usize>,
        delta: f64,
        rng: &mut dyn RngCore,
    ) -> (Vec<S>, Vec<Vec<usize>>) {
        let whole: Vec<usize> = (0..self.len()).collect();
        subproblems
            .into_iter()
            .map(|i| {
                let pool: &[usize] =
                    if rng.gen_bool(delta) { &self.neighborhoods[i] } else { &whole };
                let pa = pool[rng.gen_range(0..pool.len())];
                let child = if pool.len() < 2 {
                    problem.neighbor(&self.individuals[pa].solution, rng)
                } else {
                    let mut pb = pool[rng.gen_range(0..pool.len())];
                    if pb == pa {
                        pb = pool[(pool.iter().position(|&x| x == pa).expect("pa in pool") + 1)
                            % pool.len()];
                    }
                    let (a, b) = (&self.individuals[pa].solution, &self.individuals[pb].solution);
                    problem.crossover(a, b, rng)
                };
                (child, pool.to_vec())
            })
            .unzip()
    }

    /// Offers each evaluated `(child, objectives, scope)` in order to its
    /// scope with [`Population::update`], after the trace `recorder`
    /// observes it. Dropped children (`None`) vanish, and a quarantined
    /// penalty could never replace a real member, so both are passed over.
    /// Returns the number of slots replaced.
    pub fn offer<'a>(
        &mut self,
        children: impl IntoIterator<Item = (&'a S, Option<&'a [f64]>, &'a [usize])>,
        recorder: &mut TraceRecorder,
        max_replacements: usize,
    ) -> u64
    where
        S: 'a,
    {
        let mut replaced = 0;
        for (child, objectives, scope) in children {
            let Some(objectives) = objectives.filter(|o| !is_quarantined(o)) else { continue };
            recorder.observe(objectives);
            replaced += self.update(child, objectives, scope, max_replacements) as u64;
        }
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> Population<&'static str> {
        Population::new(
            vec![
                Individual { solution: "a", objectives: vec![0.0, 10.0] },
                Individual { solution: "b", objectives: vec![5.0, 5.0] },
                Individual { solution: "c", objectives: vec![10.0, 0.0] },
            ],
            2,
            2,
        )
    }

    #[test]
    fn reference_point_is_componentwise_minimum() {
        let p = population();
        assert_eq!(p.reference().values(), &[0.0, 0.0]);
    }

    #[test]
    fn neighborhoods_have_the_requested_size() {
        let p = population();
        for i in 0..p.len() {
            assert_eq!(p.neighborhood(i).len(), 2);
            assert_eq!(p.neighborhood(i)[0], i);
        }
    }

    #[test]
    fn update_replaces_dominated_slots() {
        let mut p = population();
        // A solution strictly better than slot 1's member for its weight.
        let replaced = p.update(&"z", &[1.0, 1.0], &[0, 1, 2], 10);
        assert!(replaced >= 1, "an excellent point must replace something");
        assert!(p.individuals.iter().any(|i| i.solution == "z"));
    }

    #[test]
    fn update_respects_the_replacement_cap() {
        let mut p = population();
        let replaced = p.update(&"z", &[0.0, 0.0], &[0, 1, 2], 1);
        assert_eq!(replaced, 1);
        let survivors = p.individuals.iter().filter(|i| i.solution != "z").count();
        assert_eq!(survivors, 2);
    }

    #[test]
    fn worse_candidates_replace_nothing() {
        let mut p = population();
        let replaced = p.update(&"bad", &[20.0, 20.0], &[0, 1, 2], 10);
        assert_eq!(replaced, 0);
        assert!(p.individuals.iter().all(|i| i.solution != "bad"));
    }

    #[test]
    fn observe_extends_z_and_the_normalizer() {
        let mut p = population();
        p.observe(&[-1.0, 50.0]);
        assert_eq!(p.reference().values(), &[-1.0, 0.0]);
        let n = p.normalizer().normalize(&[-1.0, 50.0]);
        assert_eq!(n, vec![0.0, 1.0]);
    }

    #[test]
    fn quarantined_observations_leave_scale_and_reference_untouched() {
        let mut p = population();
        let z_before = p.reference().values().to_vec();
        let max_before = p.normalizer().max().to_vec();
        p.observe(&[f64::NAN, 1.0]);
        p.observe(&[1.0, f64::INFINITY]);
        p.observe(&crate::fault::penalty_objectives(2));
        assert_eq!(p.reference().values(), z_before.as_slice());
        assert_eq!(p.normalizer().max(), max_before.as_slice());
        // A penalty candidate scalarizes to the worst corner and can never
        // replace a real member.
        let replaced = p.update(&"penalty", &crate::fault::penalty_objectives(2), &[0, 1, 2], 10);
        assert_eq!(replaced, 0);
    }

    #[test]
    fn quarantined_individuals_do_not_seed_the_normalizer() {
        let p = Population::new(
            vec![
                Individual { solution: "a", objectives: vec![0.0, 10.0] },
                Individual { solution: "bad", objectives: crate::fault::penalty_objectives(2) },
                Individual { solution: "c", objectives: vec![10.0, 0.0] },
            ],
            2,
            2,
        );
        assert_eq!(p.reference().values(), &[0.0, 0.0]);
        assert_eq!(p.normalizer().max(), &[10.0, 10.0]);
    }

    #[test]
    fn offspring_draws_one_child_per_listed_subproblem_from_its_pool() {
        use crate::problems::Zdt;
        use rand::SeedableRng;
        let problem = Zdt::zdt1(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let individuals = (0..6)
            .map(|_| {
                let solution = problem.random_solution(&mut rng);
                Individual { objectives: problem.evaluate(&solution), solution }
            })
            .collect();
        let p = Population::new(individuals, 2, 3);
        let (children, pools) = p.offspring(&problem, [4, 1], 1.0, &mut rng);
        assert_eq!(children.len(), 2);
        assert_eq!(pools, vec![p.neighborhood(4).to_vec(), p.neighborhood(1).to_vec()]);
        let (_, pools) = p.offspring(&problem, 0..3, 0.0, &mut rng);
        assert!(pools.iter().all(|pool| *pool == (0..6).collect::<Vec<_>>()));
    }

    #[test]
    fn offer_passes_over_dropped_and_quarantined_children() {
        let mut p = population();
        let mut recorder = TraceRecorder::new(2);
        let penalty = crate::fault::penalty_objectives(2);
        let scope = [0, 1, 2];
        let offers = [
            (&"dropped", None, &scope[..]),
            (&"penalty", Some(&penalty[..]), &scope),
            (&"good", Some(&[1.0, 1.0][..]), &scope),
        ];
        let replaced = p.offer(offers, &mut recorder, 1);
        assert_eq!(replaced, 1);
        assert!(p.individuals.iter().any(|i| i.solution == "good"));
        assert!(p.individuals.iter().all(|i| i.solution != "penalty"));
        // Only the offered child reached the trace normalizer.
        assert_eq!(recorder.normalizer().max(), &[1.0, 1.0]);
    }

    #[test]
    fn snapshot_fields_round_trip_and_restore_checks_the_size() {
        use moela_persist::VecF64Codec;
        let mut p = Population::new(
            vec![
                Individual { solution: vec![0.0], objectives: vec![0.0, 10.0] },
                Individual { solution: vec![1.0], objectives: vec![10.0, 0.0] },
            ],
            2,
            2,
        );
        p.observe(&[-1.0, 20.0]);
        let value = Value::object(p.snapshot_fields(&VecF64Codec));
        let restore = |n, m| Population::restore_fields(&value, &VecF64Codec, n, m, 2);
        let back = restore(2, 2).expect("restore");
        assert_eq!(back.reference(), p.reference());
        assert_eq!(back.normalizer(), p.normalizer());
        assert_eq!(back.into_entries(), p.into_entries());
        assert!(restore(3, 2).is_err(), "population size mismatch");
        assert!(restore(2, 3).is_err(), "objective dimensionality mismatch");
    }

    #[test]
    fn scalarized_is_zero_at_the_reference_point() {
        let p = population();
        let g = p.scalarized(&[0.0, 0.0], 1);
        assert_eq!(g, 0.0);
    }
}
