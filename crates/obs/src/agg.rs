//! In-memory aggregation of the event stream into `metrics.json`.

use crate::fold::Fold;
use crate::hist::LogHistogram;
use crate::{Event, Sink};
use moela_persist::Value;

/// The live [`Sink`] behind `metrics.json`: drives the shared [`Fold`]
/// (per-phase self/total time, counters, gauges) with a log-scale
/// latency histogram per phase, and additionally keeps the per-generation
/// hypervolume series and the process wall-clock window. Render the
/// result with [`MetricsAggregator::render`].
///
/// Everything here is process-local: after a resume only post-resume
/// events are aggregated, so rates never pretend restored work happened
/// in this process.
#[derive(Debug, Default)]
pub struct MetricsAggregator {
    fold: Fold<LogHistogram>,
    phv_series: Vec<f64>,
    first_t_us: Option<u64>,
    last_t_us: u64,
}

impl MetricsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.fold.counter(name)
    }

    /// Wall-clock span of the aggregated events in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.last_t_us.saturating_sub(self.first_t_us.unwrap_or(0))
    }

    fn evals_per_sec(&self) -> f64 {
        let wall_us = self.wall_us();
        let evaluations = self.counter("evaluations");
        if wall_us > 0 {
            evaluations as f64 / (wall_us as f64 / 1e6)
        } else {
            0.0
        }
    }

    /// A cheap live snapshot for polling while a run is still in flight
    /// (the job server's `GET /jobs/{id}`): evaluation/generation
    /// counters, throughput over the process wall-clock window, and the
    /// latest PHV gauge — no histograms, no per-phase breakdown. Safe to
    /// call at any event boundary; [`MetricsAggregator::render`] remains
    /// the full end-of-run report.
    pub fn summary(&self) -> Value {
        let mut fields = vec![
            ("wall_us", Value::U64(self.wall_us())),
            ("evaluations", Value::U64(self.counter("evaluations"))),
            ("generations", Value::U64(self.counter("generations"))),
            ("evals_per_sec", Value::F64(self.evals_per_sec())),
        ];
        if let Some(phv) = self.fold.gauge("phv") {
            fields.push(("phv", Value::F64(phv)));
        }
        Value::object(fields)
    }

    /// Render the aggregate as the body of `metrics.json`.
    pub fn render(&self) -> Value {
        let phases = Value::Object(
            self.fold
                .phases()
                .iter()
                .map(|(name, stat)| {
                    (
                        name.to_string(),
                        Value::object(vec![
                            ("count", Value::U64(stat.count)),
                            ("total_us", Value::U64(stat.total_us)),
                            ("self_us", Value::U64(stat.self_us)),
                            ("max_us", Value::U64(stat.max_us)),
                            ("latency_hist", stat.durations.to_value()),
                        ]),
                    )
                })
                .collect(),
        );
        let counters = Value::Object(
            self.fold.counters().iter().map(|(n, v)| (n.to_string(), Value::U64(*v))).collect(),
        );
        let gauges = Value::Object(
            self.fold.gauges().iter().map(|(n, v)| (n.to_string(), Value::F64(*v))).collect(),
        );
        Value::object(vec![
            ("wall_us", Value::U64(self.wall_us())),
            ("evals_per_sec", Value::F64(self.evals_per_sec())),
            ("phases", phases),
            ("counters", counters),
            ("gauges", gauges),
            (
                "phv_per_generation",
                Value::Array(self.phv_series.iter().map(|&v| Value::F64(v)).collect()),
            ),
            ("nesting_violations", Value::U64(self.fold.nesting_violations())),
        ])
    }
}

impl Sink for MetricsAggregator {
    fn record(&mut self, event: &Event) {
        let t_us = event.t_us();
        self.first_t_us.get_or_insert(t_us);
        self.last_t_us = self.last_t_us.max(t_us);
        self.fold.record(event);
        if let Event::Gauge { name, value, .. } = event {
            if name == "phv" {
                self.phv_series.push(*value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_keep_last_value() {
        let mut agg = MetricsAggregator::new();
        agg.record(&Event::Counter { name: "evaluations".into(), delta: 5, t_us: 0 });
        agg.record(&Event::Counter { name: "evaluations".into(), delta: 7, t_us: 1 });
        agg.record(&Event::Gauge { name: "phv".into(), value: 0.25, t_us: 2 });
        agg.record(&Event::Gauge { name: "phv".into(), value: 0.75, t_us: 3 });
        assert_eq!(agg.counter("evaluations"), 12);
        let v = agg.render();
        let phv = v.field("gauges").unwrap().field("phv").unwrap().as_f64().unwrap();
        assert!((phv - 0.75).abs() < 1e-12);
        let series = v.field("phv_per_generation").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn evals_per_sec_uses_process_wall_clock_window() {
        let mut agg = MetricsAggregator::new();
        // Window opens at 1_000_000us; a resumed process must not count
        // time before its first event.
        agg.record(&Event::Counter { name: "evaluations".into(), delta: 100, t_us: 1_000_000 });
        agg.record(&Event::Counter { name: "evaluations".into(), delta: 100, t_us: 2_000_000 });
        let v = agg.render();
        let rate = v.field("evals_per_sec").unwrap().as_f64().unwrap();
        assert!((rate - 200.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn summary_is_a_cheap_live_subset() {
        let mut agg = MetricsAggregator::new();
        let v = agg.summary();
        assert_eq!(v.field("evaluations").unwrap().as_u64().unwrap(), 0);
        assert!(v.field_opt("phv").is_none());
        agg.record(&Event::Counter { name: "evaluations".into(), delta: 50, t_us: 0 });
        agg.record(&Event::Counter { name: "generations".into(), delta: 2, t_us: 100 });
        agg.record(&Event::Gauge { name: "phv".into(), value: 0.5, t_us: 1_000_000 });
        let v = agg.summary();
        assert_eq!(v.field("evaluations").unwrap().as_u64().unwrap(), 50);
        assert_eq!(v.field("generations").unwrap().as_u64().unwrap(), 2);
        let rate = v.field("evals_per_sec").unwrap().as_f64().unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(v.field("phv").unwrap().as_f64().unwrap(), 0.5);
        assert!(v.field_opt("phases").is_none(), "summary must stay lightweight");
    }
}
