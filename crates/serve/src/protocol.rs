//! The serving wire protocol: newline-delimited JSON.
//!
//! One request per line, one response line per request, in request
//! order. Requests carry the program text plus the same options the
//! batch CLI exposes; responses reuse the CLI exit-code taxonomy as a
//! per-request `status` (0 = success, 1 = bad input — malformed
//! request, oversized line, parse error —, 2 = internal failure). The
//! response bytes are a pure function of the request bytes and the
//! server's configuration: a warm-cache answer is byte-identical to the
//! cold computation it replays, which is what the concurrency and cache
//! oracles in `tests/serve.rs` check.
//!
//! ```text
//! → {"id":"r1","program":"prog { ... }","mode":"pde","wall_ms":200}
//! ← {"id":"r1","status":0,"program":"prog { ... }","rounds":2,
//!    "eliminated":1,"sunk":1,"inserted":1,"rung":"none"}
//! → {"op":"ping"}
//! ← {"status":0,"pong":true}
//! → {"op":"health"}
//! ← {"status":0,"health":true,"requests":12,"wal_appends":9,...}
//! → {"op":"shutdown"}
//! ← {"status":0,"shutdown":true}
//! ```
//!
//! Unknown request keys are ignored (forward compatibility); known keys
//! with the wrong type are a protocol error (`status` 1). Empty lines
//! produce no response. A `"solver"` key is ignored like any other
//! unknown key: every analysis runs exactly one engine.

use std::fmt::Write as _;

use pdce_trace::json::{self, Value};

/// Per-request status, mirroring the CLI exit-code contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was served.
    Ok,
    /// The request itself was at fault: malformed JSON, a bad field
    /// type, an oversized line, or an unparseable program.
    BadInput,
    /// Our fault: a worker panic or any other internal failure.
    Internal,
}

impl Status {
    /// The numeric wire code (equals the CLI exit code).
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::BadInput => 1,
            Status::Internal => 2,
        }
    }
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Optimize the carried program (the default when `op` is absent).
    Optimize,
    /// Liveness probe: answered with `"pong":true`, no program needed.
    Ping,
    /// Self-healing introspection: request/cache/WAL/quarantine/watchdog
    /// counters as one flat JSON object, no program needed.
    Health,
    /// Drain everything already read, answer, and stop this connection
    /// (and, for the daemon, the process).
    Shutdown,
}

/// A decoded request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Optional client-chosen id, echoed verbatim in the response.
    pub id: Option<String>,
    pub op: Op,
    /// The program text (required for [`Op::Optimize`]).
    pub program: String,
    /// Optimization mode: `pde` (default), `pfe`, `dce`, or `fce`.
    pub mode: Mode,
    /// Requested round cap; clamped to the server's cap at admission.
    pub max_rounds: Option<u64>,
    /// Requested solver-pop budget; clamped to the server's cap.
    pub max_pops: Option<u64>,
    /// Requested wall-clock budget in ms; clamped to the server's cap.
    pub wall_ms: Option<u64>,
    /// Translation-validation vectors per round (0 = off).
    pub validate: Option<u32>,
    /// Bypass the result cache for this request (both lookup and fill).
    pub no_cache: bool,
}

/// The four optimization modes the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pde,
    Pfe,
    Dce,
    Fce,
}

impl Mode {
    /// Stable label, used in cache keys and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Pde => "pde",
            Mode::Pfe => "pfe",
            Mode::Dce => "dce",
            Mode::Fce => "fce",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        match s {
            "pde" => Some(Mode::Pde),
            "pfe" => Some(Mode::Pfe),
            "dce" => Some(Mode::Dce),
            "fce" => Some(Mode::Fce),
            _ => None,
        }
    }
}

fn str_field(doc: &Value, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn u64_field(doc: &Value, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Ok(Some(*n as u64))
        }
        Some(_) => Err(format!("`{key}` must be a non-negative integer")),
    }
}

fn bool_field(doc: &Value, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

impl Request {
    /// Decodes one request line. The error string is ready to be wrapped
    /// in a `status` 1 response.
    pub fn decode(line: &str) -> Result<Request, String> {
        let doc = json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
        if !matches!(doc, Value::Obj(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let id = str_field(&doc, "id")?;
        let op = match str_field(&doc, "op")?.as_deref() {
            None | Some("optimize") => Op::Optimize,
            Some("ping") => Op::Ping,
            Some("health") => Op::Health,
            Some("shutdown") => Op::Shutdown,
            Some(other) => return Err(format!("unknown op `{other}`")),
        };
        let mode = match str_field(&doc, "mode")?.as_deref() {
            None => Mode::Pde,
            Some(m) => {
                Mode::parse(m).ok_or_else(|| format!("unknown mode `{m}` (pde|pfe|dce|fce)"))?
            }
        };
        let program = match op {
            Op::Optimize => match str_field(&doc, "program")? {
                Some(p) if !p.trim().is_empty() => p,
                _ => return Err("missing `program`".to_string()),
            },
            Op::Ping | Op::Health | Op::Shutdown => String::new(),
        };
        let validate = match u64_field(&doc, "validate")? {
            Some(v) if v > u32::MAX as u64 => return Err("`validate` is out of range".to_string()),
            v => v.map(|v| v as u32),
        };
        Ok(Request {
            id,
            op,
            program,
            mode,
            max_rounds: u64_field(&doc, "max_rounds")?,
            max_pops: u64_field(&doc, "max_pops")?,
            wall_ms: u64_field(&doc, "wall_ms")?,
            validate,
            no_cache: bool_field(&doc, "no_cache")?,
        })
    }
}

/// The deterministic, cacheable part of a successful response: the
/// optimized program plus the logical (wall-clock-free) stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultPayload {
    /// Canonically printed optimized program.
    pub program: String,
    pub rounds: u64,
    pub eliminated: u64,
    pub sunk: u64,
    pub inserted: u64,
    /// Resilience-ladder rung the answer came from (`"none"` for an
    /// undegraded run).
    pub rung: String,
}

impl ResultPayload {
    /// Approximate in-memory footprint, used for cache-size accounting.
    pub fn cost_bytes(&self) -> u64 {
        (self.program.len() + self.rung.len() + 96) as u64
    }
}

fn push_id(out: &mut String, id: &Option<String>) {
    if let Some(id) = id {
        out.push_str("{\"id\":");
        json::write_escaped(out, id);
        out.push(',');
    } else {
        out.push('{');
    }
}

/// Renders a success response for `payload`, echoing `id`.
pub fn render_result(id: &Option<String>, payload: &ResultPayload) -> String {
    let mut out = String::with_capacity(payload.program.len() + 128);
    push_id(&mut out, id);
    let _ = write!(out, "\"status\":{},\"program\":", Status::Ok.code());
    json::write_escaped(&mut out, &payload.program);
    let _ = write!(
        out,
        ",\"rounds\":{},\"eliminated\":{},\"sunk\":{},\"inserted\":{},\"rung\":",
        payload.rounds, payload.eliminated, payload.sunk, payload.inserted
    );
    json::write_escaped(&mut out, &payload.rung);
    out.push('}');
    out
}

/// Renders an error response (`status` 1 or 2) with a human-readable
/// message.
pub fn render_error(id: &Option<String>, status: Status, message: &str) -> String {
    debug_assert_ne!(status, Status::Ok);
    let mut out = String::with_capacity(message.len() + 48);
    push_id(&mut out, id);
    let _ = write!(out, "\"status\":{},\"error\":", status.code());
    json::write_escaped(&mut out, message);
    out.push('}');
    out
}

/// Renders the `ping` response.
pub fn render_pong(id: &Option<String>) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    let _ = write!(out, "\"status\":{},\"pong\":true}}", Status::Ok.code());
    out
}

/// Renders the `health` introspection response: one numeric field per
/// server counter, in the given order.
pub fn render_health(id: &Option<String>, fields: &[(&'static str, u64)]) -> String {
    let mut out = String::with_capacity(fields.len() * 24 + 32);
    push_id(&mut out, id);
    let _ = write!(out, "\"status\":{},\"health\":true", Status::Ok.code());
    for (key, value) in fields {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    out.push('}');
    out
}

/// Renders the `shutdown` acknowledgement.
pub fn render_shutdown(id: &Option<String>) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    let _ = write!(out, "\"status\":{},\"shutdown\":true}}", Status::Ok.code());
    out
}

/// Builds an optimize-request line — the copy-pasteable client side of
/// the protocol, also used by the bench harness and tests.
pub fn encode_request(id: Option<&str>, program: &str, mode: Mode) -> String {
    let mut out = String::with_capacity(program.len() + 64);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        json::write_escaped(&mut out, id);
        out.push(',');
    }
    out.push_str("\"program\":");
    json::write_escaped(&mut out, program);
    let _ = write!(out, ",\"mode\":\"{}\"}}", mode.label());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_minimal_request() {
        let r = Request::decode(r#"{"program":"prog { block e { halt } }"}"#).unwrap();
        assert_eq!(r.op, Op::Optimize);
        assert_eq!(r.mode, Mode::Pde);
        assert!(r.id.is_none());
        assert!(!r.no_cache);
    }

    #[test]
    fn decodes_all_options() {
        let r = Request::decode(
            r#"{"id":"a","program":"p","mode":"pfe","max_rounds":3,"max_pops":10,
                "wall_ms":250,"validate":4,"no_cache":true,"future_key":1}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("a"));
        assert_eq!(r.mode, Mode::Pfe);
        assert_eq!(r.max_rounds, Some(3));
        assert_eq!(r.max_pops, Some(10));
        assert_eq!(r.wall_ms, Some(250));
        assert_eq!(r.validate, Some(4));
        assert!(r.no_cache);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("[1,2]").is_err());
        assert!(Request::decode(r#"{"program":7}"#).is_err());
        assert!(Request::decode(r#"{"program":"p","mode":"xxx"}"#).is_err());
        assert!(Request::decode(r#"{"program":"p","max_rounds":-1}"#).is_err());
        assert!(Request::decode(r#"{"program":"p","max_rounds":1.5}"#).is_err());
        assert!(Request::decode(r#"{"program":"p","no_cache":"yes"}"#).is_err());
        assert!(
            Request::decode(r#"{"op":"optimize"}"#).is_err(),
            "no program"
        );
        assert!(Request::decode(r#"{"id":3,"program":"p"}"#).is_err());
    }

    #[test]
    fn ops_need_no_program() {
        assert_eq!(Request::decode(r#"{"op":"ping"}"#).unwrap().op, Op::Ping);
        assert_eq!(
            Request::decode(r#"{"op":"health"}"#).unwrap().op,
            Op::Health
        );
        assert_eq!(
            Request::decode(r#"{"op":"shutdown","id":"x"}"#).unwrap().op,
            Op::Shutdown
        );
    }

    #[test]
    fn health_responses_are_valid_json() {
        let line = render_health(
            &Some("h".into()),
            &[("requests", 7), ("quarantine_size", 1)],
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("h"));
        assert_eq!(doc.get("status").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("health").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("requests").unwrap().as_num(), Some(7.0));
        assert_eq!(doc.get("quarantine_size").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn responses_are_valid_json_and_echo_the_id() {
        let payload = ResultPayload {
            program: "prog {\n}\n".into(),
            rounds: 2,
            eliminated: 1,
            sunk: 1,
            inserted: 0,
            rung: "none".into(),
        };
        let line = render_result(&Some("r\"1".into()), &payload);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("r\"1"));
        assert_eq!(doc.get("status").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("program").unwrap().as_str(), Some("prog {\n}\n"));
        let err = render_error(&None, Status::BadInput, "nope\n");
        let doc = json::parse(&err).unwrap();
        assert_eq!(doc.get("status").unwrap().as_num(), Some(1.0));
        assert!(doc.get("id").is_none());
    }

    #[test]
    fn encode_request_round_trips() {
        let line = encode_request(Some("q"), "prog { block e { halt } }", Mode::Pfe);
        let r = Request::decode(&line).unwrap();
        assert_eq!(r.id.as_deref(), Some("q"));
        assert_eq!(r.mode, Mode::Pfe);
        assert_eq!(r.program, "prog { block e { halt } }");
    }
}
