//! JSONL event-log sink writing `events.jsonl` into the run store.

use crate::{Event, Sink};
use moela_persist::{encode, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Render one event as the JSON object written per `events.jsonl` line.
/// Exposed so tests can assert the schema without string matching.
pub fn event_value(event: &Event) -> Value {
    match event {
        Event::SpanEnter { id, name, depth, t_us } => Value::object(vec![
            ("type", Value::Str("enter".to_string())),
            ("span", Value::Str(name.to_string())),
            ("id", Value::U64(*id)),
            ("depth", Value::U64(u64::from(*depth))),
            ("t_us", Value::U64(*t_us)),
        ]),
        Event::SpanExit { id, name, depth, t_us, dur_us } => Value::object(vec![
            ("type", Value::Str("exit".to_string())),
            ("span", Value::Str(name.to_string())),
            ("id", Value::U64(*id)),
            ("depth", Value::U64(u64::from(*depth))),
            ("t_us", Value::U64(*t_us)),
            ("dur_us", Value::U64(*dur_us)),
        ]),
        Event::Counter { name, delta, t_us } => Value::object(vec![
            ("type", Value::Str("counter".to_string())),
            ("name", Value::Str(name.to_string())),
            ("delta", Value::U64(*delta)),
            ("t_us", Value::U64(*t_us)),
        ]),
        Event::Gauge { name, value, t_us } => Value::object(vec![
            ("type", Value::Str("gauge".to_string())),
            ("name", Value::Str(name.to_string())),
            ("value", Value::F64(*value)),
            ("t_us", Value::U64(*t_us)),
        ]),
        Event::Marker { name, detail, t_us } => Value::object(vec![
            ("type", Value::Str("marker".to_string())),
            ("name", Value::Str(name.to_string())),
            ("detail", Value::Str(detail.clone())),
            ("t_us", Value::U64(*t_us)),
        ]),
    }
}

/// Appends one JSON object per event to a file. The file is opened in
/// append mode so a resumed run extends the original log rather than
/// truncating it; the event stream is buffered and flushed at checkpoint
/// boundaries and at the end of the run. Write errors are swallowed —
/// observability must never abort a run.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Open `path` for appending, creating it if absent.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink { out: BufWriter::new(file) })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        let line = encode::to_string(&event_value(event));
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_persist::decode;

    #[test]
    fn event_lines_round_trip_through_the_decoder() {
        let events = [
            Event::SpanEnter { id: 1, name: "evaluate".into(), depth: 1, t_us: 5 },
            Event::SpanExit { id: 1, name: "evaluate".into(), depth: 1, t_us: 9, dur_us: 4 },
            Event::Counter { name: "evaluations".into(), delta: 8, t_us: 9 },
            Event::Gauge { name: "phv".into(), value: 0.5, t_us: 10 },
            Event::Marker { name: "run_start".into(), detail: "moela".to_string(), t_us: 0 },
        ];
        for event in &events {
            let line = encode::to_string(&event_value(event));
            let parsed = decode::from_str(&line).expect("line parses");
            assert!(parsed.field("type").unwrap().as_str().is_ok());
            assert!(parsed.field("t_us").unwrap().as_u64().is_ok());
        }
    }

    #[test]
    fn append_extends_an_existing_log() {
        let dir = std::env::temp_dir().join(format!("moela-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        for round in 0..2u64 {
            let mut sink = JsonlSink::append(&path).unwrap();
            sink.record(&Event::Marker {
                name: "run_start".into(),
                detail: round.to_string(),
                t_us: 0,
            });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "append mode must not truncate");
        let _ = std::fs::remove_file(&path);
    }
}
