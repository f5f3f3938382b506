//! The one fold of the event stream, shared by `metrics.json` and
//! `report.json`.
//!
//! [`Fold`] owns the span stack, self/total time, the per-phase
//! count/total/self/max table, counters, gauges and nesting violations.
//! The live [`MetricsAggregator`](crate::MetricsAggregator) and the
//! offline [`replay`](crate::replay::replay) both drive it event by
//! event, so the two documents cannot disagree on any of these numbers.
//! What each side keeps of a span's duration beyond that is its
//! [`Durations`] parameter: a log-scale histogram live, every exact
//! duration offline.

use std::borrow::Cow;

use crate::hist::LogHistogram;
use crate::Event;

/// What a [`Fold`] keeps of each completed span's duration besides the
/// phase's count, total, self time and maximum.
pub trait Durations: Default {
    /// Records one completed span of `dur_us` microseconds.
    fn record(&mut self, dur_us: u64);
}

/// Live: bounded memory, bucketed latencies.
impl Durations for LogHistogram {
    fn record(&mut self, dur_us: u64) {
        LogHistogram::record(self, dur_us);
    }
}

/// Offline: every duration, for exact quantiles.
impl Durations for Vec<u64> {
    fn record(&mut self, dur_us: u64) {
        self.push(dur_us);
    }
}

/// Folded statistics of one phase (span name).
#[derive(Debug, Default, Clone)]
pub struct Phase<D> {
    /// Completed spans.
    pub count: u64,
    /// Summed span durations (including child spans).
    pub total_us: u64,
    /// Summed durations minus the time attributed to child spans.
    pub self_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// The side-specific duration record.
    pub durations: D,
}

/// An open span on the stack.
#[derive(Debug)]
struct Frame {
    id: u64,
    t_us: u64,
    child_us: u64,
}

/// Per-phase, counter and gauge tables folded from an event stream, in
/// first-seen order.
#[derive(Debug, Default)]
pub struct Fold<D> {
    phases: Vec<(Cow<'static, str>, Phase<D>)>,
    counters: Vec<(Cow<'static, str>, u64)>,
    gauges: Vec<(Cow<'static, str>, f64)>,
    stack: Vec<Frame>,
    nesting_violations: u64,
}

impl<D: Durations> Fold<D> {
    /// Folds one event. When `event` is a span exit that closes the
    /// innermost open span, returns that span's enter timestamp.
    ///
    /// An exit whose id is not the innermost open span's is a nesting
    /// violation: it is counted, the stack is cleared, and the span's
    /// whole duration counts as self time.
    pub(crate) fn record(&mut self, event: &Event) -> Option<u64> {
        match event {
            Event::SpanEnter { id, t_us, .. } => {
                self.stack.push(Frame { id: *id, t_us: *t_us, child_us: 0 });
            }
            Event::SpanExit { id, name, dur_us, .. } => {
                let closed = match self.stack.pop() {
                    Some(frame) if frame.id == *id => Some(frame),
                    Some(_) | None => {
                        self.nesting_violations += 1;
                        self.stack.clear();
                        None
                    }
                };
                if let Some(parent) = self.stack.last_mut() {
                    parent.child_us = parent.child_us.saturating_add(*dur_us);
                }
                let child_us = closed.as_ref().map_or(0, |frame| frame.child_us);
                let phase = entry(&mut self.phases, name);
                phase.count += 1;
                phase.total_us = phase.total_us.saturating_add(*dur_us);
                phase.self_us = phase.self_us.saturating_add(dur_us.saturating_sub(child_us));
                phase.max_us = phase.max_us.max(*dur_us);
                phase.durations.record(*dur_us);
                return closed.map(|frame| frame.t_us);
            }
            Event::Counter { name, delta, .. } => {
                let total = entry(&mut self.counters, name);
                *total = total.saturating_add(*delta);
            }
            Event::Gauge { name, value, .. } => *entry(&mut self.gauges, name) = *value,
            Event::Marker { .. } => {}
        }
        None
    }
}

impl<D> Fold<D> {
    /// Empties the span stack, returning how many spans were still open
    /// (a process leg ended without closing them).
    pub(crate) fn close_open_spans(&mut self) -> u64 {
        let open = self.stack.len() as u64;
        self.stack.clear();
        open
    }

    /// Per-phase statistics, in first-completed order.
    pub fn phases(&self) -> &[(Cow<'static, str>, Phase<D>)] {
        &self.phases
    }

    /// Phase statistics by name.
    pub fn phase(&self, name: &str) -> Option<&Phase<D>> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, phase)| phase)
    }

    /// Counter totals, in first-seen order.
    pub fn counters(&self) -> &[(Cow<'static, str>, u64)] {
        &self.counters
    }

    /// Counter total (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Latest gauge values, in first-seen order.
    pub fn gauges(&self) -> &[(Cow<'static, str>, f64)] {
        &self.gauges
    }

    /// Latest gauge value (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Span exits that did not close the innermost open span.
    pub fn nesting_violations(&self) -> u64 {
        self.nesting_violations
    }
}

/// The value stored under `name`, inserted as the default on first sight.
/// Cloning a borrowed `Cow` name is free, so the live path never
/// allocates here.
fn entry<'t, K: Clone + PartialEq, V: Default>(table: &'t mut Vec<(K, V)>, name: &K) -> &'t mut V {
    let idx = match table.iter().position(|(key, _)| key == name) {
        Some(idx) => idx,
        None => {
            table.push((name.clone(), V::default()));
            table.len() - 1
        }
    };
    &mut table[idx].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(id: u64, t_us: u64) -> Event {
        Event::SpanEnter { id, name: "span".into(), depth: 0, t_us }
    }

    fn exit(id: u64, name: &'static str, t_us: u64, dur_us: u64) -> Event {
        Event::SpanExit { id, name: name.into(), depth: 0, t_us, dur_us }
    }

    #[test]
    fn self_time_excludes_nested_children_and_exits_report_their_enter() {
        let mut fold = Fold::<Vec<u64>>::default();
        assert_eq!(fold.record(&enter(1, 0)), None);
        fold.record(&enter(2, 10));
        assert_eq!(fold.record(&exit(2, "evaluate", 40, 30)), Some(10));
        assert_eq!(fold.record(&exit(1, "step", 100, 100)), Some(0));
        let step = fold.phase("step").expect("step");
        assert_eq!((step.count, step.total_us, step.self_us, step.max_us), (1, 100, 70, 100));
        assert_eq!(fold.phase("evaluate").expect("evaluate").durations, vec![30]);
        let names: Vec<&str> = fold.phases().iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, ["evaluate", "step"], "phases keep first-completed order");
        assert_eq!(fold.nesting_violations(), 0);
    }

    #[test]
    fn a_mismatched_exit_is_counted_and_clears_the_stack() {
        let mut fold = Fold::<LogHistogram>::default();
        fold.record(&enter(1, 0));
        fold.record(&enter(2, 1));
        assert_eq!(fold.record(&exit(9, "evaluate", 5, 4)), None);
        assert_eq!(fold.nesting_violations(), 1);
        assert_eq!(fold.phase("evaluate").expect("evaluate").self_us, 4);
        assert_eq!(fold.close_open_spans(), 0, "the violation emptied the stack");
    }

    #[test]
    fn counters_add_gauges_keep_the_latest_and_open_spans_are_counted() {
        let mut fold = Fold::<Vec<u64>>::default();
        for delta in [5, 7] {
            fold.record(&Event::Counter { name: "evaluations".into(), delta, t_us: 0 });
        }
        for value in [0.25, 0.75] {
            fold.record(&Event::Gauge { name: "phv".into(), value, t_us: 0 });
        }
        fold.record(&enter(1, 0));
        assert_eq!(fold.counter("evaluations"), 12);
        assert_eq!(fold.counter("generations"), 0);
        assert_eq!(fold.gauge("phv"), Some(0.75));
        assert_eq!(fold.gauges().len(), 1);
        assert_eq!(fold.close_open_spans(), 1);
        assert_eq!(fold.close_open_spans(), 0);
    }
}
