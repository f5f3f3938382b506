//! Common result and tracing types returned by every optimizer in the
//! workspace (MOELA and all baselines), so the experiment harness can
//! compare them uniformly.

use std::time::Duration;

use crate::fault::is_quarantined;
use crate::hypervolume::hypervolume;
use crate::normalize::Normalizer;
use crate::pareto::non_dominated_indices;

/// Padding applied to normalized objectives before hypervolume
/// computation (see [`normalized_phv`]).
const PHV_PAD: f64 = 0.05;

/// Normalized reference point used by every PHV computation in the
/// workspace.
const PHV_REFERENCE: f64 = 1.1;

/// The workspace's canonical PHV: min–max normalize `objectives`, map the
/// unit box into `[PAD, PAD + (1 − PAD)]`, and take the hypervolume
/// against the `1.1^M` reference point.
///
/// Two details matter here:
///
/// * normalization is **unclamped** — designs that improve past the
///   normalizer's observed minimum keep earning hypervolume (a clamped
///   map would make every sufficiently good front identical);
/// * the unit box is padded away from the origin, so a run whose
///   normalizer happens to be defined *by* its own best design (the
///   online-normalizer case) does not saturate the reference box with a
///   single point, which would stall PHV-greedy searches.
///
/// Both maps are affine and dominance-preserving, so HV *ordering* is
/// unaffected.
pub fn normalized_phv(objectives: &[Vec<f64>], normalizer: &Normalizer) -> f64 {
    if objectives.is_empty() {
        return 0.0;
    }
    let m = objectives[0].len();
    let points: Vec<Vec<f64>> = objectives
        .iter()
        .map(|o| {
            normalizer
                .normalize_unclamped(o)
                .into_iter()
                .map(|v| PHV_PAD + (1.0 - PHV_PAD) * v)
                .collect()
        })
        .collect();
    hypervolume(&points, &vec![PHV_REFERENCE; m])
}

/// One point of an anytime-quality trace: the Pareto hypervolume of the
/// population at a given generation / evaluation count / wall time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Generation (algorithm iteration) index.
    pub generation: usize,
    /// Objective evaluations consumed so far.
    pub evaluations: u64,
    /// Wall-clock time elapsed so far.
    pub elapsed: Duration,
    /// Normalized Pareto hypervolume of the population's first front.
    pub phv: f64,
}

/// The outcome of one optimizer run.
#[derive(Clone, Debug)]
pub struct RunResult<S> {
    /// The final population with objective vectors.
    pub population: Vec<(S, Vec<f64>)>,
    /// Anytime PHV trace, one point per generation.
    pub trace: Vec<TracePoint>,
    /// Total objective evaluations consumed.
    pub evaluations: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl<S: Clone> RunResult<S> {
    /// The non-dominated subset of the final population. Quarantined
    /// members (non-finite or penalty objective vectors left behind by
    /// fault containment) are never part of the front.
    pub fn front(&self) -> Vec<(S, Vec<f64>)> {
        let eligible: Vec<usize> = (0..self.population.len())
            .filter(|&i| !is_quarantined(&self.population[i].1))
            .collect();
        let objs: Vec<Vec<f64>> = eligible.iter().map(|&i| self.population[i].1.clone()).collect();
        non_dominated_indices(&objs)
            .into_iter()
            .map(|k| self.population[eligible[k]].clone())
            .collect()
    }

    /// Objective vectors of the final front.
    pub fn front_objectives(&self) -> Vec<Vec<f64>> {
        self.front().into_iter().map(|(_, o)| o).collect()
    }

    /// PHV of the final front under an externally fixed normalizer (the
    /// harness's cross-algorithm comparison), computed by
    /// [`normalized_phv`].
    pub fn phv(&self, normalizer: &Normalizer) -> f64 {
        normalized_phv(&self.front_objectives(), normalizer)
    }

    /// Renders the anytime trace as CSV
    /// (`generation,evaluations,elapsed_s,phv` header included), ready for
    /// external plotting of the paper's convergence curves.
    pub fn trace_csv(&self) -> String {
        let mut out = String::from("generation,evaluations,elapsed_s,phv\n");
        for p in &self.trace {
            out.push_str(&format!(
                "{},{},{:.6},{:.9}\n",
                p.generation,
                p.evaluations,
                p.elapsed.as_secs_f64(),
                p.phv
            ));
        }
        out
    }

    /// Renders the final front's objective vectors as CSV (one row per
    /// design, `obj0..objM` header).
    pub fn front_csv(&self) -> String {
        let front = self.front_objectives();
        let m = front.first().map_or(0, Vec::len);
        let mut out = (0..m).map(|k| format!("obj{k}")).collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in front {
            out.push_str(&row.iter().map(|v| format!("{v:.9}")).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Records an anytime PHV trace while a run progresses, normalizing
/// objectives online (the recorder widens its normalizer as new extremes
/// appear, so early and late PHV values share one scale *within* a run;
/// cross-algorithm comparisons use [`RunResult::phv`] with a fixed
/// normalizer instead).
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    normalizer: Normalizer,
    fixed: bool,
    points: Vec<TracePoint>,
}

impl TraceRecorder {
    /// A recorder for `m` objectives using the conventional `1.1^M`
    /// normalized reference point, widening its normalizer online.
    pub fn new(m: usize) -> Self {
        Self { normalizer: Normalizer::new(m), fixed: false, points: Vec::new() }
    }

    /// A recorder with a pre-fitted, frozen normalizer — the mode the
    /// experiment harness uses so every algorithm's trace shares one
    /// objective scale and PHV values are comparable point-by-point.
    pub fn with_fixed_normalizer(normalizer: Normalizer) -> Self {
        Self { normalizer, fixed: true, points: Vec::new() }
    }

    /// Rebuilds a recorder from checkpointed state (see
    /// [`crate::snapshot`]).
    pub fn from_parts(normalizer: Normalizer, fixed: bool, points: Vec<TracePoint>) -> Self {
        Self { normalizer, fixed, points }
    }

    /// The recorder's current normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Whether the normalizer is frozen (pre-fitted).
    pub fn fixed(&self) -> bool {
        self.fixed
    }

    /// Widens the normalizer with a newly evaluated objective vector
    /// (no-op when the normalizer is frozen). Quarantined vectors —
    /// non-finite or fault-containment penalties — are ignored so they
    /// can never stretch the PHV scale.
    pub fn observe(&mut self, objectives: &[f64]) {
        if !self.fixed && !is_quarantined(objectives) {
            self.normalizer.observe(objectives);
        }
    }

    /// Appends a trace point for the current population front.
    pub fn record(
        &mut self,
        generation: usize,
        evaluations: u64,
        elapsed: Duration,
        population_objectives: &[Vec<f64>],
    ) {
        // Quarantined vectors contribute no PHV: a penalty vector pushed
        // through the unclamped normalizer would dwarf every real design.
        let clean: Vec<Vec<f64>> =
            population_objectives.iter().filter(|o| !is_quarantined(o)).cloned().collect();
        let idx = non_dominated_indices(&clean);
        let front: Vec<Vec<f64>> = idx.into_iter().map(|i| clean[i].clone()).collect();
        let phv = normalized_phv(&front, &self.normalizer);
        self.points.push(TracePoint { generation, evaluations, elapsed, phv });
    }

    /// The recorded trace.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Consumes the recorder, yielding the trace.
    pub fn into_points(self) -> Vec<TracePoint> {
        self.points
    }
}

/// Finds the first trace point at which `trace` reaches `target_phv`,
/// returning its evaluation count — the "time to quality" measure behind
/// the paper's speed-up factor (Table I).
pub fn evaluations_to_reach(trace: &[TracePoint], target_phv: f64) -> Option<u64> {
    trace.iter().find(|p| p.phv >= target_phv).map(|p| p.evaluations)
}

/// Detects the convergence point of a trace per the paper's §V.C
/// criterion ("the time when each algorithm reaches its convergence
/// performance"): the first trace point whose PHV is within a relative
/// `tolerance` (the paper uses 0.5 %) of the trace's final PHV.
///
/// Scanning for the first short-lived plateau instead would mistake early
/// search pauses for convergence; anchoring on the final quality measures
/// what the paper measures — when the run effectively stopped improving.
pub fn convergence_point(trace: &[TracePoint], tolerance: f64) -> Option<usize> {
    let last = trace.last()?.phv;
    if last <= 0.0 {
        return Some(trace.len() - 1);
    }
    let target = last * (1.0 - tolerance);
    trace.iter().position(|p| p.phv >= target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(generation: usize, evaluations: u64, phv: f64) -> TracePoint {
        TracePoint { generation, evaluations, elapsed: Duration::ZERO, phv }
    }

    #[test]
    fn phv_of_empty_set_is_zero() {
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(normalized_phv(&[], &n), 0.0);
    }

    #[test]
    fn phv_grows_when_a_dominating_point_appears() {
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let weak = vec![vec![0.8, 0.8]];
        let strong = vec![vec![0.8, 0.8], vec![0.2, 0.2]];
        assert!(normalized_phv(&strong, &n) > normalized_phv(&weak, &n));
    }

    #[test]
    fn front_filters_dominated_population_members() {
        let r = RunResult {
            population: vec![("a", vec![1.0, 2.0]), ("b", vec![2.0, 1.0]), ("c", vec![3.0, 3.0])],
            trace: Vec::new(),
            evaluations: 0,
            elapsed: Duration::ZERO,
        };
        let front = r.front();
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|(s, _)| *s != "c"));
    }

    #[test]
    fn phv_uses_the_external_normalizer() {
        let r = RunResult {
            population: vec![((), vec![0.0, 10.0]), ((), vec![10.0, 0.0])],
            trace: Vec::new(),
            evaluations: 0,
            elapsed: Duration::ZERO,
        };
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![10.0, 10.0]);
        let phv = r.phv(&n);
        // Two corner points at (0,1) and (1,0): HV = 1.1² − 1 − overlap…
        // computed directly: 0.1·1.1 + 1.0·0.1 + 0.1·1.0 … simplest check:
        assert!(phv > 0.0 && phv < 1.21);
    }

    #[test]
    fn recorder_produces_monotone_phv_for_improving_fronts() {
        let mut rec = TraceRecorder::new(2);
        // Fix the normalizer's range first (as real runs do by observing
        // initial random designs).
        rec.observe(&[0.0, 0.0]);
        rec.observe(&[10.0, 10.0]);
        rec.record(0, 10, Duration::ZERO, &[vec![8.0, 8.0]]);
        rec.record(1, 20, Duration::ZERO, &[vec![4.0, 4.0]]);
        rec.record(2, 30, Duration::ZERO, &[vec![1.0, 1.0]]);
        let p = rec.points();
        assert!(p[0].phv < p[1].phv && p[1].phv < p[2].phv);
    }

    #[test]
    fn quarantined_members_never_reach_the_front_or_the_scale() {
        use crate::fault::PENALTY;
        let r = RunResult {
            population: vec![
                ("a", vec![1.0, 2.0]),
                ("penalized", vec![PENALTY, PENALTY]),
                ("nan", vec![f64::NAN, 0.0]),
            ],
            trace: Vec::new(),
            evaluations: 0,
            elapsed: Duration::ZERO,
        };
        let front = r.front();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].0, "a");
        // Even an all-quarantined population yields an empty front, not
        // a garbage one.
        let all_bad = RunResult {
            population: vec![("p", vec![PENALTY, PENALTY])],
            trace: Vec::new(),
            evaluations: 0,
            elapsed: Duration::ZERO,
        };
        assert!(all_bad.front().is_empty());

        let mut rec = TraceRecorder::new(2);
        rec.observe(&[0.0, 0.0]);
        rec.observe(&[10.0, 10.0]);
        let before = rec.normalizer().clone();
        rec.observe(&[PENALTY, PENALTY]);
        rec.observe(&[f64::NAN, 1.0]);
        assert_eq!(rec.normalizer(), &before);
        rec.record(0, 5, Duration::ZERO, &[vec![5.0, 5.0], vec![PENALTY, PENALTY]]);
        rec.record(1, 6, Duration::ZERO, &[vec![5.0, 5.0]]);
        let pts = rec.points();
        assert!(pts[0].phv.is_finite());
        assert_eq!(pts[0].phv, pts[1].phv);
    }

    #[test]
    fn trace_csv_has_header_and_one_row_per_point() {
        let r = RunResult::<()> {
            population: Vec::new(),
            trace: vec![tp(0, 10, 0.5), tp(1, 20, 0.7)],
            evaluations: 20,
            elapsed: Duration::ZERO,
        };
        let csv = r.trace_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "generation,evaluations,elapsed_s,phv");
        assert!(lines[1].starts_with("0,10,"));
    }

    #[test]
    fn front_csv_round_trips_objective_values() {
        let r = RunResult {
            population: vec![((), vec![1.0, 2.0]), ((), vec![2.0, 1.0])],
            trace: Vec::new(),
            evaluations: 0,
            elapsed: Duration::ZERO,
        };
        let csv = r.front_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "obj0,obj1");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("1.000000000"));
    }

    #[test]
    fn evaluations_to_reach_finds_the_first_crossing() {
        let trace = vec![tp(0, 10, 0.1), tp(1, 20, 0.5), tp(2, 30, 0.9)];
        assert_eq!(evaluations_to_reach(&trace, 0.4), Some(20));
        assert_eq!(evaluations_to_reach(&trace, 0.95), None);
    }

    #[test]
    fn convergence_point_finds_the_terminal_plateau() {
        let mut trace: Vec<TracePoint> = (0..10).map(|i| tp(i, i as u64, i as f64 * 0.1)).collect();
        // Plateau at 1.0 from generation 10 on.
        trace.extend((10..20).map(|i| tp(i, i as u64, 1.0)));
        let idx = convergence_point(&trace, 0.005).expect("has plateau");
        assert_eq!(idx, 10);
    }

    #[test]
    fn convergence_point_ignores_early_pauses() {
        // A pause at 0.5 must not count as convergence when the run later
        // climbs to 1.0.
        let mut trace: Vec<TracePoint> = vec![tp(0, 0, 0.5); 8];
        trace.extend((0..5).map(|i| tp(8 + i, 8 + i as u64, 1.0)));
        let idx = convergence_point(&trace, 0.005).expect("converges");
        assert_eq!(idx, 8);
    }

    #[test]
    fn convergence_point_handles_empty_traces() {
        assert_eq!(convergence_point(&[], 0.005), None);
    }
}
