//! Pins what the live aggregator and the offline replay make of one fixed
//! event stream: nested spans, a mismatched exit, counters, gauges,
//! markers, a second process leg and a torn tail. The expected text is
//! byte-for-byte what both folds produced before they shared one
//! implementation.

use std::fmt::Write as _;
use std::io::Cursor;

use moela_obs::replay::replay;
use moela_obs::{chrome_trace, event_value, Event, MetricsAggregator, Sink};
use moela_persist::encode;

fn enter(id: u64, name: &'static str, depth: u32, t_us: u64) -> Event {
    Event::SpanEnter { id, name: name.into(), depth, t_us }
}

fn exit(id: u64, name: &'static str, depth: u32, t_us: u64, dur_us: u64) -> Event {
    Event::SpanExit { id, name: name.into(), depth, t_us, dur_us }
}

fn counter(name: &'static str, delta: u64, t_us: u64) -> Event {
    Event::Counter { name: name.into(), delta, t_us }
}

fn gauge(name: &'static str, value: f64, t_us: u64) -> Event {
    Event::Gauge { name: name.into(), value, t_us }
}

fn marker(name: &'static str, detail: &str, t_us: u64) -> Event {
    Event::Marker { name: name.into(), detail: detail.to_owned(), t_us }
}

fn stream() -> Vec<Event> {
    vec![
        marker("run_start", "moela seed 7", 0),
        enter(1, "step", 1, 10),
        enter(2, "evaluate", 2, 20),
        counter("evaluations", 8, 60),
        exit(2, "evaluate", 2, 70, 50),
        enter(3, "local_search", 2, 80),
        enter(4, "evaluate", 3, 90),
        exit(4, "evaluate", 3, 120, 30),
        exit(3, "local_search", 2, 150, 70),
        gauge("phv", 0.25, 160),
        gauge("archive_size", 12.0, 161),
        counter("generations", 1, 162),
        exit(1, "step", 1, 200, 190),
        enter(5, "step", 1, 210),
        enter(6, "evaluate", 2, 220),
        // Mismatched: no open span has id 99.
        exit(99, "evaluate", 2, 250, 30),
        exit(5, "step", 1, 300, 90),
        counter("evaluations", 4, 310),
        // Still open when the process dies.
        enter(7, "checkpoint_write", 1, 320),
        // Second leg: the resumed process restarts the clock.
        marker("resume", "from seq 2", 5),
        enter(1, "step", 1, 8),
        enter(2, "evaluate", 2, 9),
        exit(2, "evaluate", 2, 29, 20),
        counter("evaluations", 8, 30),
        gauge("phv", 0.5, 31),
        exit(1, "step", 1, 40, 32),
        counter("ls_improvements", 3, 41),
    ]
}

fn live_text(events: &[Event]) -> String {
    let mut agg = MetricsAggregator::new();
    for event in events {
        agg.record(event);
    }
    format!(
        "render {}\nsummary {}\n",
        encode::to_string(&agg.render()),
        encode::to_string(&agg.summary())
    )
}

fn replay_text(events: &[Event]) -> String {
    let mut log: String =
        events.iter().map(|e| encode::to_string(&event_value(e)) + "\n").collect();
    log.push_str("{\"type\":\"counter\",\"name\":\"evalu");
    let r = replay(Cursor::new(log.into_bytes())).expect("replays");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lines {} legs {} torn {} unclosed {} wall {} clean {}",
        r.lines,
        r.legs,
        r.torn_tail,
        r.unclosed_spans,
        r.wall_us,
        r.is_structurally_clean()
    );
    for name in ["step", "evaluate", "local_search", "checkpoint_write"] {
        let _ = match r.phase(name) {
            Some(p) => writeln!(
                out,
                "phase {name} {} {} {} {} {} {} {}",
                p.count,
                p.total_us,
                p.self_us,
                p.max_us,
                p.quantile_us(0.5),
                p.quantile_us(0.9),
                p.quantile_us(0.99)
            ),
            None => writeln!(out, "phase {name} none"),
        };
    }
    for name in ["evaluations", "generations", "ls_improvements"] {
        let _ = writeln!(out, "counter {name} {}", r.counter(name));
    }
    for name in ["phv", "archive_size", "absent"] {
        let _ = writeln!(out, "gauge {name} {:?}", r.gauge(name));
    }
    for s in &r.spans {
        let _ = writeln!(out, "span {} {} {} {} {}", s.name, s.leg, s.start_us, s.dur_us, s.depth);
    }
    let _ = writeln!(out, "gauge_events {:?}", r.gauge_events);
    let _ = writeln!(out, "counter_events {:?}", r.counter_events);
    let _ = writeln!(out, "markers {:?}", r.markers);
    let _ = writeln!(out, "chrome {}", encode::to_string(&chrome_trace(&r, 2)));
    out
}

#[test]
fn live_and_replayed_folds_match_the_recorded_bytes() {
    let events = stream();
    let got = live_text(&events) + &replay_text(&events);
    assert_eq!(got, EXPECTED);
}

const EXPECTED: &str = include_str!("fold_parity.expected");
