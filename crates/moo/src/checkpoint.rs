//! The optimizer-side checkpointing contract and the run shell every
//! optimizer shares.
//!
//! Every optimizer in the workspace exposes a *state-machine* form of its
//! run loop — `start` / [`Resumable::step`] / [`Resumable::finish`] —
//! whose step granularity is one generation (or episode, or sampling
//! chunk). The driver owns the loop:
//!
//! ```text
//! let mut state = Algo::new(config, &problem).start(&mut rng);
//! while state.step(&mut rng) {
//!     // safe point: state.snapshot_state(&codec) + rng state → disk
//! }
//! let result = state.finish();
//! ```
//!
//! A run in progress is a [`Run`]: a [`RunCore`] plus one optimizer's
//! [`Algorithm`]. The core is the part every optimizer shares — the
//! guarded evaluator and evaluation count, the anytime trace recorder,
//! the wall clock, telemetry, cancellation, the `finished` flag, the
//! step-boundary guards and the four core snapshot keys (`finished`,
//! `evaluations`, `recorder`, `faults`). The algorithm keeps only its own
//! step body, counters, snapshot fields and final population. Every
//! `Run<A>` is [`Resumable`] through one generic impl, so a change to
//! cancellation, telemetry, faults or budgets edits this file alone.
//!
//! The determinism contract: a state restored from
//! [`Resumable::snapshot_state`] (together with the RNG state captured at
//! the same safe point) continues with *bit-identical* RNG draws,
//! evaluations and trace points as the uninterrupted run, at any thread
//! count. The RNG state itself is **not** part of the snapshot value — the
//! driver stores it alongside, in the checkpoint envelope, because one
//! RNG spans the whole run while snapshots are per-algorithm.
//!
//! Restoration is an inherent per-optimizer constructor (configs and
//! context differ) that rebuilds its algorithm state and reads the core
//! keys back through [`RunCore::restore`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::RngCore;

use moela_obs::Obs;
use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::fault::{fault_log_from, EvalFault, FaultConfig, FaultLog, GuardedBatch};
use crate::normalize::Normalizer;
use crate::run::{RunResult, TraceRecorder};
use crate::{GuardedEvaluator, Problem};

/// A shared cooperative-cancellation flag checked at step boundaries.
///
/// Clones share one flag. The driver (or a job server) keeps one clone
/// and installs another via [`Resumable::set_cancel`]; once
/// [`CancelToken::cancel`] is called, the optimizer's next
/// [`Resumable::step`] returns `false` *without drawing a single RNG
/// value or mutating state*, leaving the run at a valid checkpoint
/// boundary. The token is never part of a snapshot: a restored run
/// starts with a fresh, un-cancelled token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A checkpointable optimizer run in progress.
///
/// `C` is the solution codec (usually the problem type itself) used to
/// encode solutions embedded in the state. Every optimizer implements it
/// through the one generic impl on [`Run`].
pub trait Resumable<C: SolutionCodec<Self::Solution>> {
    /// The problem's solution type.
    type Solution;

    /// Completed step count (generations / episodes / chunks). Starts at
    /// 0 after `start` and increases by one per successful [`step`].
    ///
    /// [`step`]: Resumable::step
    fn completed(&self) -> u64;

    /// Executes exactly one step. Returns `false` when the run has
    /// finished (budget exhausted, generations done, or time up) — after
    /// which further calls must be no-ops that draw no RNG values.
    fn step(&mut self, rng: &mut dyn RngCore) -> bool;

    /// Captures the complete optimizer state (excluding the RNG, which
    /// the driver checkpoints alongside).
    fn snapshot_state(&self, codec: &C) -> Value;

    /// Consumes the state, producing the final [`RunResult`].
    fn finish(self) -> RunResult<Self::Solution>;

    /// The fault counters accumulated by this run's guarded evaluator.
    fn fault_log(&self) -> &FaultLog;

    /// The latched [`crate::fault::FaultPolicy::Fail`] error, if an
    /// evaluation fault stopped this run. When set, [`step`] has
    /// returned `false` early and the driver should surface the error
    /// instead of reporting a completed run.
    ///
    /// [`step`]: Resumable::step
    fn fault_error(&self) -> Option<&EvalFault>;

    /// Installs a cooperative-cancellation token (see [`CancelToken`]).
    /// After the token is cancelled, [`step`] returns `false` immediately
    /// — drawing no RNG values and mutating nothing — so the state can
    /// still be snapshotted at the boundary and resumed later.
    ///
    /// [`step`]: Resumable::step
    fn set_cancel(&mut self, token: CancelToken);

    /// Installs an observability handle the optimizer reports phase
    /// spans and counters through. Called by the driver after `start` or
    /// restore; never checkpointed. Observability is strictly write-only
    /// telemetry — installing a handle must not change a single RNG
    /// draw, evaluation, or trace byte.
    fn set_obs(&mut self, obs: Obs);

    /// Objective evaluations paid for so far, for progress reporting.
    fn evaluations(&self) -> u64;

    /// The most recent normalized hypervolume recorded on the anytime
    /// trace, if any — the "best scalarized" figure progress lines show.
    fn latest_phv(&self) -> Option<f64>;
}

/// The run shell every optimizer shares; see the [module docs](self).
///
/// The public fields are the ones step bodies work with directly; the
/// clock, the `finished` flag and the cancellation token stay behind the
/// guards.
#[derive(Debug)]
pub struct RunCore {
    /// The containment wrapper every objective evaluation goes through.
    pub evaluator: GuardedEvaluator,
    /// Objective evaluations paid for so far (faulted and retried
    /// attempts included).
    pub evaluations: u64,
    /// The anytime PHV trace.
    pub recorder: TraceRecorder,
    /// Telemetry handle (never checkpointed; disabled by default).
    pub obs: Obs,
    /// Set once the run has stopped for good; checkpointed.
    finished: bool,
    start_time: Instant,
    /// Cooperative cancellation flag (never checkpointed; inert unless
    /// the driver installs a shared token).
    cancel: CancelToken,
}

impl RunCore {
    /// A fresh core for an `m`-objective problem, with its clock started.
    /// The trace uses `trace_normalizer` frozen when given, or widens an
    /// online one (see [`TraceRecorder`]).
    pub fn new(
        m: usize,
        trace_normalizer: Option<&Normalizer>,
        threads: usize,
        fault: FaultConfig,
    ) -> Self {
        let recorder = match trace_normalizer {
            Some(n) => TraceRecorder::with_fixed_normalizer(n.clone()),
            None => TraceRecorder::new(m),
        };
        Self::from_parts(GuardedEvaluator::new(threads, fault), 0, recorder, false, Duration::ZERO)
    }

    /// Reads the core keys back from a snapshot written by
    /// [`Resumable::snapshot_state`], with `elapsed` wall-clock time
    /// already consumed. A snapshot from before fault containment has no
    /// `faults` key and restores with empty counters.
    pub fn restore(
        value: &Value,
        elapsed: Duration,
        threads: usize,
        fault: FaultConfig,
    ) -> Result<Self, PersistError> {
        let log = fault_log_from(value, "faults")?;
        Ok(Self::from_parts(
            GuardedEvaluator::from_parts(threads, fault, log),
            value.field("evaluations")?.as_u64()?,
            TraceRecorder::restore(value.field("recorder")?)?,
            value.field("finished")?.as_bool()?,
            elapsed,
        ))
    }

    fn from_parts(
        evaluator: GuardedEvaluator,
        evaluations: u64,
        recorder: TraceRecorder,
        finished: bool,
        elapsed: Duration,
    ) -> Self {
        Self {
            evaluator,
            evaluations,
            recorder,
            obs: Obs::disabled(),
            finished,
            start_time: Instant::now().checked_sub(elapsed).unwrap_or_else(Instant::now),
            cancel: CancelToken::default(),
        }
    }

    /// Wall-clock time consumed so far, restored runs included.
    pub fn elapsed(&self) -> Duration {
        self.start_time.elapsed()
    }

    /// Whether the wall-clock budget `cap` (if any) is spent.
    pub fn time_up(&self, cap: Option<Duration>) -> bool {
        cap.is_some_and(|cap| self.elapsed() >= cap)
    }

    /// Evaluations left under the cap `max_evaluations` (`u64::MAX` when
    /// uncapped).
    pub fn remaining(&self, max_evaluations: Option<u64>) -> u64 {
        max_evaluations.map_or(u64::MAX, |cap| cap.saturating_sub(self.evaluations))
    }

    /// Whether both the evaluation cap and the wall-clock budget leave
    /// room for more work.
    pub fn budget_left(&self, max_evaluations: Option<u64>, time_budget: Option<Duration>) -> bool {
        self.remaining(max_evaluations) > 0 && !self.time_up(time_budget)
    }

    /// Evaluates a batch under containment, paying its attempts.
    pub fn evaluate<P>(&mut self, problem: &P, solutions: &[P::Solution]) -> GuardedBatch
    where
        P: Problem + Sync,
        P::Solution: Sync,
    {
        let batch = self.evaluator.evaluate(problem, solutions);
        self.evaluations += batch.attempts;
        batch
    }

    /// Evaluates one solution under containment, paying its attempts.
    pub fn evaluate_one<P>(&mut self, problem: &P, solution: &P::Solution) -> Option<Vec<f64>>
    where
        P: Problem + Sync,
        P::Solution: Sync,
    {
        let (objectives, attempts) = self.evaluator.evaluate_one(problem, solution);
        self.evaluations += attempts;
        objectives
    }

    /// Appends a trace point for `objectives` at the current evaluation
    /// count and wall-clock time.
    pub fn record(&mut self, generation: usize, objectives: &[Vec<f64>]) {
        self.recorder.record(generation, self.evaluations, self.elapsed(), objectives);
    }

    /// The most recent PHV on the trace, if any.
    pub fn latest_phv(&self) -> Option<f64> {
        self.recorder.points().last().map(|p| p.phv)
    }

    /// Reports the latest trace PHV as the `phv` gauge.
    pub fn gauge_phv(&self) {
        if let Some(phv) = self.latest_phv() {
            self.obs.gauge("phv", phv);
        }
    }

    /// The snapshot object: the algorithm's `counters`, the core keys,
    /// the algorithm's `fields`, then the fault counters.
    fn snapshot(&self, counters: Fields, fields: Fields) -> Value {
        let mut all = counters;
        all.extend([
            ("finished", Value::Bool(self.finished)),
            ("evaluations", Value::U64(self.evaluations)),
            ("recorder", self.recorder.snapshot()),
        ]);
        all.extend(fields);
        all.push(("faults", self.evaluator.log().snapshot()));
        Value::object(all)
    }
}

/// Named snapshot entries, in write order.
pub type Fields = Vec<(&'static str, Value)>;

/// One optimizer's own algorithm: what remains of a run once the shared
/// [`RunCore`] is taken out. [`Run`] supplies everything else.
pub trait Algorithm {
    /// The problem's solution type.
    type Solution;

    /// Completed step count (see [`Resumable::completed`]).
    fn completed(&self) -> u64;

    /// Whether the algorithm's own step limit (generations, episodes,
    /// samples) is reached.
    fn exhausted(&self) -> bool;

    /// One step past the shared guards. Returning `false` finishes the
    /// run; a body returns `false` whenever a budget or a poisoned
    /// evaluator stops it.
    fn step_inner(&mut self, core: &mut RunCore, rng: &mut dyn RngCore) -> bool;

    /// Step counters, written ahead of the core snapshot keys.
    fn snapshot_counters(&self) -> Fields;

    /// The algorithm's own state, written after the core snapshot keys.
    fn snapshot_inner<C: SolutionCodec<Self::Solution>>(&self, codec: &C) -> Fields;

    /// Consumes the algorithm, yielding the final population. May still
    /// record a closing trace point through `core`.
    fn finish_inner(self, core: &mut RunCore) -> Vec<(Self::Solution, Vec<f64>)>;
}

/// An optimizer run in progress: the shared core plus one algorithm.
#[derive(Debug)]
pub struct Run<A> {
    core: RunCore,
    algo: A,
}

impl<A: Algorithm> Run<A> {
    /// Pairs a core with its algorithm. A fresh run whose initial
    /// evaluations already latched a `Fail` fault starts finished.
    pub fn new(mut core: RunCore, algo: A) -> Self {
        core.finished |= core.evaluator.poisoned();
        Self { core, algo }
    }

    /// Completed steps (see [`Resumable::completed`]).
    pub fn completed(&self) -> u64 {
        self.algo.completed()
    }

    /// Objective evaluations paid for so far.
    pub fn evaluations(&self) -> u64 {
        self.core.evaluations
    }

    /// The latest trace PHV (see [`Resumable::latest_phv`]).
    pub fn latest_phv(&self) -> Option<f64> {
        self.core.latest_phv()
    }

    /// Fault counters accumulated by the guarded evaluator.
    pub fn fault_log(&self) -> &FaultLog {
        self.core.evaluator.log()
    }

    /// The latched `Fail`-policy fault, if one stopped the run.
    pub fn fault_error(&self) -> Option<&EvalFault> {
        self.core.evaluator.error()
    }

    /// Installs a cooperative-cancellation token (see
    /// [`Resumable::set_cancel`]).
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.core.cancel = token;
    }

    /// Installs the telemetry handle (see [`Resumable::set_obs`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.core.evaluator.set_obs(obs.clone());
        self.core.obs = obs;
    }

    /// Executes one step. Returns `false` — drawing no RNG values — once
    /// the run has finished or been cancelled.
    pub fn step(&mut self, rng: &mut dyn RngCore) -> bool {
        let core = &mut self.core;
        if core.cancel.is_cancelled() {
            // Cancelled at a step boundary: draw nothing, mutate
            // nothing, stay snapshottable and resumable.
            return false;
        }
        if core.finished || self.algo.exhausted() || core.evaluator.poisoned() {
            core.finished = true;
            return false;
        }
        let more = self.algo.step_inner(core, rng);
        core.finished |= !more;
        more
    }

    /// Captures the complete optimizer state (the RNG is checkpointed by
    /// the driver alongside).
    pub fn snapshot_state<C: SolutionCodec<A::Solution>>(&self, codec: &C) -> Value {
        self.core.snapshot(self.algo.snapshot_counters(), self.algo.snapshot_inner(codec))
    }

    /// Consumes the state, producing the final result.
    pub fn finish(self) -> RunResult<A::Solution> {
        let Run { mut core, algo } = self;
        let population = algo.finish_inner(&mut core);
        let elapsed = core.elapsed();
        RunResult {
            population,
            trace: core.recorder.into_points(),
            evaluations: core.evaluations,
            elapsed,
        }
    }
}

impl<A, C> Resumable<C> for Run<A>
where
    A: Algorithm,
    C: SolutionCodec<A::Solution>,
{
    type Solution = A::Solution;

    fn completed(&self) -> u64 {
        Run::completed(self)
    }

    fn step(&mut self, rng: &mut dyn RngCore) -> bool {
        Run::step(self, rng)
    }

    fn snapshot_state(&self, codec: &C) -> Value {
        Run::snapshot_state(self, codec)
    }

    fn finish(self) -> RunResult<A::Solution> {
        Run::finish(self)
    }

    fn fault_log(&self) -> &FaultLog {
        Run::fault_log(self)
    }

    fn fault_error(&self) -> Option<&EvalFault> {
        Run::fault_error(self)
    }

    fn set_cancel(&mut self, token: CancelToken) {
        Run::set_cancel(self, token);
    }

    fn set_obs(&mut self, obs: Obs) {
        Run::set_obs(self, obs);
    }

    fn evaluations(&self) -> u64 {
        Run::evaluations(self)
    }

    fn latest_phv(&self) -> Option<f64> {
        Run::latest_phv(self)
    }
}
