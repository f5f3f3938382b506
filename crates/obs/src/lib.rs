//! Structured tracing, phase metrics, and live progress for optimizer runs.
//!
//! The crate is built around a few small pieces:
//!
//! * [`Obs`] — a cloneable handle the driver threads through every
//!   optimizer. It emits [`Event`]s (span enter/exit, counters, gauges,
//!   markers) to a set of pluggable [`Sink`]s. A disabled handle
//!   ([`Obs::disabled`]) is a bare `Option` check: no allocation, no
//!   locking, no clock reads on the hot path.
//! * Sinks — [`JsonlSink`] appends one JSON object per event to
//!   `events.jsonl` inside the run store; [`MetricsAggregator`] renders
//!   the same stream as the `metrics.json` document, with log-scale
//!   latency histograms; [`NullSink`] discards everything (useful for
//!   overhead measurement).
//! * One fold — [`fold::Fold`] owns the span stack, per-phase self/total
//!   time, counters, gauges and nesting violations. The live
//!   [`MetricsAggregator`] and the offline [`replay`] both drive it, so
//!   `metrics.json` and `report.json` compute these numbers with the
//!   same code.
//! * Human output — [`ProgressReporter`] paints a rate-limited live
//!   status line on stderr, and [`Reporter`] routes status text through
//!   `--log-level {quiet,info,debug}`.
//! * Offline analysis — [`replay`] parses `events.jsonl` back into
//!   [`Event`]s and folds them into validated per-phase statistics with
//!   exact quantiles (tolerating the torn tail a SIGKILL leaves behind,
//!   and stitching resumed legs onto one timeline), and [`chrome`]
//!   exports the replayed span stream as a Perfetto-viewable Chrome
//!   trace with per-worker evaluation lanes.
//!
//! Determinism rule: observability data is wall-clock tainted and flows
//! **only** to `events.jsonl`, `metrics.json`, and stderr. Nothing in
//! this crate may feed back into optimizer state, `trace.csv`,
//! `front.csv`, or checkpoints.

pub mod agg;
pub mod chrome;
pub mod fold;
pub mod hist;
pub mod jsonl;
pub mod names;
pub mod progress;
pub mod replay;
pub mod report;

pub use agg::MetricsAggregator;
pub use chrome::chrome_trace;
pub use hist::LogHistogram;
pub use jsonl::{event_value, JsonlSink};
pub use progress::ProgressReporter;
pub use replay::{replay_run_dir, PhaseReplay, ReplayError, RunReplay, SpanRecord};
pub use report::{LogLevel, Reporter};

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One observability event. Timestamps (`t_us`) are microseconds since
/// the handle's epoch (process-local, monotonic, never persisted into
/// optimizer state). Names are borrowed `&'static str`s when [`Obs`]
/// emits them and owned strings when [`replay::parse_line`] reads them
/// back from `events.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A phase span opened. `depth` is the nesting depth *after* entering
    /// (the outermost span has depth 1).
    SpanEnter { id: u64, name: Cow<'static, str>, depth: u32, t_us: u64 },
    /// The matching span closed; `dur_us` is its wall-clock duration.
    SpanExit { id: u64, name: Cow<'static, str>, depth: u32, t_us: u64, dur_us: u64 },
    /// A monotonically accumulating count (e.g. `evaluations`).
    Counter { name: Cow<'static, str>, delta: u64, t_us: u64 },
    /// A point-in-time measurement (e.g. `phv`, `archive_size`).
    Gauge { name: Cow<'static, str>, value: f64, t_us: u64 },
    /// A one-off annotation (e.g. `run_start`, `resume`).
    Marker { name: Cow<'static, str>, detail: String, t_us: u64 },
}

impl Event {
    /// Timestamp of the event in microseconds since the handle's epoch.
    pub fn t_us(&self) -> u64 {
        match self {
            Event::SpanEnter { t_us, .. }
            | Event::SpanExit { t_us, .. }
            | Event::Counter { t_us, .. }
            | Event::Gauge { t_us, .. }
            | Event::Marker { t_us, .. } => *t_us,
        }
    }
}

/// Receives every event emitted through an enabled [`Obs`] handle.
///
/// Contract: `record` is called under the handle's sink lock, in event
/// order, from whichever thread emitted the event (optimizers emit from
/// the driver thread). Sinks must not panic; I/O errors are swallowed —
/// observability must never abort a run.
pub trait Sink: Send {
    /// Consume one event.
    fn record(&mut self, event: &Event);
    /// Flush any buffered output (end of run, checkpoint boundaries).
    fn flush(&mut self) {}
}

/// A sink that discards every event. Used to measure the enabled-pipeline
/// overhead in isolation; a *disabled* handle short-circuits earlier and
/// is cheaper still.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    depth: AtomicU32,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

/// Cloneable observability handle. `Obs::disabled()` (also the
/// `Default`) makes every emit a no-op branch — zero allocation, no
/// clock read — so instrumented code pays nothing when tracing is off.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.enabled()).finish()
    }
}

impl Obs {
    /// A handle that drops every event on the floor.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A handle broadcasting to `sinks`. The epoch for timestamps is now.
    pub fn with_sinks(sinks: Vec<Box<dyn Sink>>) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                depth: AtomicU32::new(0),
                sinks: Mutex::new(sinks),
            })),
        }
    }

    /// Whether events are being recorded at all. Use to gate measurement
    /// work that is itself expensive.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a phase span; the returned guard emits the matching exit
    /// event (with duration) when dropped. Spans nest LIFO on the
    /// emitting thread.
    #[must_use = "the span closes when the guard drops; binding it to _ closes it immediately"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let depth = inner.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let start = Instant::now();
        let t_us = duration_us(inner.epoch, start);
        emit(inner, &Event::SpanEnter { id, name: name.into(), depth, t_us });
        SpanGuard { active: Some(ActiveSpan { inner: Arc::clone(inner), id, name, depth, start }) }
    }

    /// Accumulate `delta` onto the named counter.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let t_us = duration_us(inner.epoch, Instant::now());
            emit(inner, &Event::Counter { name: name.into(), delta, t_us });
        }
    }

    /// Record a point-in-time measurement.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let t_us = duration_us(inner.epoch, Instant::now());
            emit(inner, &Event::Gauge { name: name.into(), value, t_us });
        }
    }

    /// Record a one-off annotation.
    pub fn marker(&self, name: &'static str, detail: &str) {
        if let Some(inner) = &self.inner {
            let t_us = duration_us(inner.epoch, Instant::now());
            emit(inner, &Event::Marker { name: name.into(), detail: detail.to_string(), t_us });
        }
    }

    /// Flush every sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Ok(mut sinks) = inner.sinks.lock() {
                for sink in sinks.iter_mut() {
                    sink.flush();
                }
            }
        }
    }
}

fn duration_us(epoch: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(epoch).as_micros().min(u64::MAX as u128) as u64
}

fn emit(inner: &Inner, event: &Event) {
    if let Ok(mut sinks) = inner.sinks.lock() {
        for sink in sinks.iter_mut() {
            sink.record(event);
        }
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    name: &'static str,
    depth: u32,
    start: Instant,
}

/// RAII guard for an open span; emits the exit event on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(ActiveSpan { inner, id, name, depth, start }) = self.active.take() else {
            return;
        };
        let now = Instant::now();
        let t_us = duration_us(inner.epoch, now);
        let dur_us = duration_us(start, now);
        inner.depth.fetch_sub(1, Ordering::Relaxed);
        emit(&inner, &Event::SpanExit { id, name: name.into(), depth, t_us, dur_us });
    }
}

/// A sink that forwards into a shared, lockable inner sink so the caller
/// can keep a handle and inspect it after the run (used to read back the
/// [`MetricsAggregator`]).
#[derive(Debug)]
pub struct SharedSink<S> {
    inner: Arc<Mutex<S>>,
}

impl<S> SharedSink<S> {
    /// Wrap `sink`; `handle()` clones give post-run access.
    pub fn new(sink: S) -> Self {
        SharedSink { inner: Arc::new(Mutex::new(sink)) }
    }

    /// A shared handle onto the wrapped sink.
    pub fn handle(&self) -> Arc<Mutex<S>> {
        Arc::clone(&self.inner)
    }
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink { inner: Arc::clone(&self.inner) }
    }
}

impl<S: Sink> Sink for SharedSink<S> {
    fn record(&mut self, event: &Event) {
        if let Ok(mut sink) = self.inner.lock() {
            sink.record(event);
        }
    }

    fn flush(&mut self) {
        if let Ok(mut sink) = self.inner.lock() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Capture {
        events: Vec<Event>,
        flushes: usize,
    }

    impl Sink for Capture {
        fn record(&mut self, event: &Event) {
            self.events.push(event.clone());
        }

        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    #[test]
    fn disabled_handle_emits_nothing_and_reports_disabled() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let _span = obs.span("evaluate");
        obs.counter("evaluations", 3);
        obs.gauge("phv", 0.5);
        obs.marker("run_start", "test");
        obs.flush();
    }

    #[test]
    fn span_events_pair_up_with_matching_ids_and_depths() {
        let shared = SharedSink::new(Capture::default());
        let handle = shared.handle();
        let obs = Obs::with_sinks(vec![Box::new(shared)]);
        {
            let _outer = obs.span("step");
            let _inner = obs.span("evaluate");
        }
        let events = &handle.lock().unwrap().events;
        assert_eq!(events.len(), 4);
        let span = |event: &Event| match event {
            Event::SpanEnter { id, name, depth, .. } => ("enter", *id, name.to_string(), *depth),
            Event::SpanExit { id, name, depth, .. } => ("exit", *id, name.to_string(), *depth),
            other => panic!("unexpected event: {other:?}"),
        };
        let [outer, inner, exit_inner, exit_outer] = [0, 1, 2, 3].map(|i| span(&events[i]));
        assert_eq!((outer.0, outer.2.as_str(), outer.3), ("enter", "step", 1));
        assert_eq!((inner.0, inner.2.as_str(), inner.3), ("enter", "evaluate", 2));
        // Inner guard drops first.
        assert_eq!((exit_inner.0, exit_inner.1, exit_inner.3), ("exit", inner.1, 2));
        assert_eq!((exit_outer.0, exit_outer.1, exit_outer.3), ("exit", outer.1, 1));
        assert_ne!(outer.1, inner.1);
    }

    #[test]
    fn counters_gauges_and_markers_reach_every_sink() {
        let a = SharedSink::new(Capture::default());
        let b = SharedSink::new(Capture::default());
        let (ha, hb) = (a.handle(), b.handle());
        let obs = Obs::with_sinks(vec![Box::new(a), Box::new(b)]);
        obs.counter("evaluations", 7);
        obs.gauge("phv", 0.25);
        obs.marker("resume", "from seq 3");
        obs.flush();
        for handle in [ha, hb] {
            let capture = handle.lock().unwrap();
            assert_eq!(capture.events.len(), 3);
            assert_eq!(capture.flushes, 1);
            assert!(matches!(
                &capture.events[0],
                Event::Counter { name, delta: 7, .. } if name == "evaluations"
            ));
            assert!(matches!(&capture.events[1], Event::Gauge { name, .. } if name == "phv"));
            assert!(matches!(&capture.events[2], Event::Marker { name, .. } if name == "resume"));
        }
    }

    #[test]
    fn timestamps_are_monotonic_and_durations_consistent() {
        let shared = SharedSink::new(Capture::default());
        let handle = shared.handle();
        let obs = Obs::with_sinks(vec![Box::new(shared)]);
        {
            let _span = obs.span("checkpoint_write");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = &handle.lock().unwrap().events;
        let Event::SpanEnter { t_us: t0, .. } = events[0] else { panic!() };
        let Event::SpanExit { t_us: t1, dur_us, .. } = events[1] else { panic!() };
        assert!(t1 >= t0);
        assert!(dur_us >= 1_000, "slept 2ms but span lasted {dur_us}us");
        assert!(dur_us <= t1.saturating_sub(t0) + 1_000);
    }
}
