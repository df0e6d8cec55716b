//! Run-scoped structured JSONL event log.
//!
//! Each run of the CLI can emit a stream of structured events — one JSON
//! object per line — that attributes work to a run id, file, pass, and
//! resilience rung. The log is assembled on the main thread in argument
//! file order after the `pdce-par` pool has finished, so its bytes are
//! independent of `--jobs` and thread interleaving. To keep that true, no
//! wall-clock fields belong in events; ordering is carried by the explicit
//! `seq` field (a logical clock).

use std::fmt::Write as _;

/// One event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    U64(u64),
    Str(String),
    Bool(bool),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// One structured event: an event kind plus ordered key/value fields.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: &'static str,
    pub fields: Vec<(&'static str, Field)>,
}

impl Event {
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            fields: Vec::new(),
        }
    }

    pub fn field(mut self, key: &'static str, value: impl Into<Field>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

/// Buffered event log for one run. Events are appended in logical order
/// and serialized with a stable field order, so two runs over the same
/// inputs produce byte-identical logs.
#[derive(Debug, Clone)]
pub struct EventLog {
    run_id: String,
    events: Vec<Event>,
}

impl EventLog {
    pub fn new(run_id: String) -> Self {
        EventLog {
            run_id,
            events: Vec::new(),
        }
    }

    pub fn record(&mut self, event: Event) {
        self.events.push(event);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize the log: one JSON object per line, fields in insertion
    /// order, prefixed by the run id, event kind, and logical sequence.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, e) in self.events.iter().enumerate() {
            write!(
                out,
                "{{\"run\":\"{}\",\"seq\":{},\"event\":\"{}\"",
                escape(&self.run_id),
                seq,
                escape(e.kind)
            )
            .unwrap();
            for (k, v) in &e.fields {
                match v {
                    Field::U64(n) => write!(out, ",\"{}\":{}", escape(k), n).unwrap(),
                    Field::Bool(b) => write!(out, ",\"{}\":{}", escape(k), b).unwrap(),
                    Field::Str(s) => write!(out, ",\"{}\":\"{}\"", escape(k), escape(s)).unwrap(),
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Deterministic run id: FNV-1a over the given parts (typically the
/// command line minus flags whose value varies run-to-run, such as
/// `--jobs`). Hashing inputs instead of sampling a clock keeps the id —
/// and therefore the whole log — reproducible.
pub fn run_id<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut hash: u64 = 0xcbf29ce484222325;
    for part in parts {
        for b in part.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    format!("{hash:016x}")
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let mut log = EventLog::new(run_id(["opt", "a.pdce"]));
        log.record(Event::new("run").field("files", 2u64).field("mode", "pde"));
        log.record(
            Event::new("file")
                .field("file", "weird\"name\n")
                .field("index", 0u64)
                .field("ok", true),
        );
        let text = log.to_jsonl();
        let again = log.to_jsonl();
        assert_eq!(text, again);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"event\":\"run\""));
        assert!(lines[1].contains("\"file\":\"weird\\\"name\\n\""));
        assert!(lines[1].contains("\"ok\":true"));
    }

    #[test]
    fn run_id_is_deterministic_and_input_sensitive() {
        assert_eq!(run_id(["a", "b"]), run_id(["a", "b"]));
        assert_ne!(run_id(["a", "b"]), run_id(["ab"]));
        assert_eq!(run_id(["a", "b"]).len(), 16);
    }
}
