//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a plain TCP
//! stream. Requests are JSON objects with an `"op"` discriminator and
//! an optional client-chosen `"id"` echoed back in the response:
//!
//! ```text
//! {"id":1,"op":"degree","v":42}
//! {"id":1,"ok":true,"generation":3,"degree":7}
//! ```
//!
//! Framing: a client may pipeline — write several request lines
//! without waiting — and the replies come back in request order. Each
//! reply and its `\n` go out in one write as soon as the reply is
//! rendered, so a pipelined lookup waits only for the requests ahead
//! of it on its connection. A request line may be at most 64 KiB
//! ([`MAX_LINE_BYTES`]); a longer one gets one `bad_request` reply and
//! the connection is closed.
//!
//! Failures come back as `{"ok":false,"code":"busy",...}` with the
//! stable codes from [`ServeError::code`]. The op vocabulary:
//!
//! | op          | fields              | result payload                          |
//! |-------------|---------------------|-----------------------------------------|
//! | `degree`    | `v`                 | `degree`                                |
//! | `neighbors` | `v`                 | `neighbors` (sorted ids), `count`       |
//! | `khop`      | `v`, `depth`        | `count`, `frontier` per depth, `hash`   |
//! | `bfs`       | `source`            | `reached`, `hash` over the level vector |
//! | `sssp`      | `source`            | `reached`, `hash` over distances        |
//! | `wcc`       | —                   | `components`, `hash` over labels        |
//! | `pagerank`  | `iters`             | `hash` over ranks, `top` vertex         |
//! | `ppr`       | `source`, `iters`   | `hash` over ranks, `top` vertex         |
//! | `status`    | —                   | generation, runs, active, capacity      |
//! | `shutdown`  | —                   | `ok` then server drain                  |
//!
//! Hashes are [`crate::fnv1a64`] over the little-endian bytes of the
//! full per-vertex value vector, so a client can assert bit-identity
//! against a locally computed run without shipping `|V|` values.

use std::fmt::Write;

use serde::Value;

use crate::ServeError;

/// The longest request line the daemon buffers, in bytes. A client
/// that sends more without a newline is answered `bad_request` and
/// disconnected, so it can neither grow the daemon's buffer without
/// bound nor keep an idle connection alive by trickling bytes.
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// A query or admin operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Out-degree of one vertex (overlay-aware, O(1)).
    Degree {
        /// The vertex.
        v: u32,
    },
    /// Sorted out-neighbor ids of one vertex (selective per-block
    /// index + record fetches, the ROP read shape).
    Neighbors {
        /// The vertex.
        v: u32,
    },
    /// Breadth-first expansion from `v` up to `depth` hops.
    KHop {
        /// Expansion root.
        v: u32,
        /// Maximum hop count.
        depth: u32,
    },
    /// Full BFS from `source` (levels).
    Bfs {
        /// BFS root.
        source: u32,
    },
    /// Single-source shortest paths from `source` (distances).
    Sssp {
        /// SSSP root.
        source: u32,
    },
    /// Weakly connected components (labels).
    Wcc,
    /// PageRank for `iters` iterations (ranks).
    PageRank {
        /// Iteration count.
        iters: u32,
    },
    /// Personalized PageRank from `source` for `iters` iterations.
    Ppr {
        /// Personalization vertex.
        source: u32,
        /// Iteration count.
        iters: u32,
    },
    /// Server status (bypasses admission).
    Status,
    /// Graceful drain and exit (bypasses admission).
    Shutdown,
    /// Chaos-harness op: panic inside the query worker. Rejected as
    /// `bad_request` unless the server was built with
    /// [`crate::ServeConfig::chaos_ops`] — never enabled in production.
    ChaosPanic,
    /// Chaos-harness op: hold an admission slot for `ms` milliseconds.
    /// Gated exactly like [`Op::ChaosPanic`].
    ChaosSleep {
        /// How long to sleep while holding the slot.
        ms: u64,
    },
}

impl Op {
    /// Whether this op is full-graph analytics (engine run) as opposed
    /// to a point lookup or admin op — used for latency-histogram
    /// classification and byte-budget pre-flight.
    pub fn is_analytics(&self) -> bool {
        matches!(
            self,
            Op::Bfs { .. } | Op::Sssp { .. } | Op::Wcc | Op::PageRank { .. } | Op::Ppr { .. }
        )
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The operation.
    pub op: Op,
}

fn get_u64(v: &Value, key: &str) -> Result<u64, ServeError> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        Some(other) => {
            Err(ServeError::BadRequest(format!("field `{key}` must be an integer, got {other:?}")))
        }
        None => Err(ServeError::BadRequest(format!("missing field `{key}`"))),
    }
}

fn get_u32(v: &Value, key: &str) -> Result<u32, ServeError> {
    u32::try_from(get_u64(v, key)?)
        .map_err(|_| ServeError::BadRequest(format!("field `{key}` out of u32 range")))
}

fn get_u32_or(v: &Value, key: &str, default: u32) -> Result<u32, ServeError> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => get_u32(v, key),
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let v = serde_json::parse_value_str(line)
        .map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))?;
    let id = match v.get("id") {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    };
    let op = match v.get("op") {
        Some(Value::Str(s)) => s.as_str(),
        _ => return Err(ServeError::BadRequest("missing string field `op`".into())),
    };
    let op = match op {
        "degree" => Op::Degree { v: get_u32(&v, "v")? },
        "neighbors" => Op::Neighbors { v: get_u32(&v, "v")? },
        "khop" => Op::KHop { v: get_u32(&v, "v")?, depth: get_u32_or(&v, "depth", 2)? },
        "bfs" => Op::Bfs { source: get_u32(&v, "source")? },
        "sssp" => Op::Sssp { source: get_u32(&v, "source")? },
        "wcc" => Op::Wcc,
        "pagerank" => Op::PageRank { iters: get_u32_or(&v, "iters", 10)? },
        "ppr" => Op::Ppr { source: get_u32(&v, "source")?, iters: get_u32_or(&v, "iters", 10)? },
        "status" => Op::Status,
        "shutdown" => Op::Shutdown,
        "chaos_panic" => Op::ChaosPanic,
        "chaos_sleep" => Op::ChaosSleep { ms: get_u64(&v, "ms").unwrap_or(100) },
        other => return Err(ServeError::BadRequest(format!("unknown op `{other}`"))),
    };
    Ok(Request { id, op })
}

/// One success response line, rendered as its fields are attached.
///
/// The line is written straight into a `String` — no `Value` tree and
/// no allocation per number — and is byte-for-byte what the
/// `serde_json` renderer makes of the same fields in the same order.
#[derive(Debug)]
pub struct ResponseBuilder {
    line: String,
}

impl ResponseBuilder {
    /// A success response for request `id` answered at snapshot
    /// `generation`.
    pub fn ok(id: Option<u64>, generation: u64) -> Self {
        let mut line = String::with_capacity(64);
        line.push('{');
        if let Some(id) = id {
            line.push_str("\"id\":");
            push_u64(&mut line, id);
            line.push(',');
        }
        line.push_str("\"ok\":true,\"generation\":");
        push_u64(&mut line, generation);
        ResponseBuilder { line }
    }

    fn key(&mut self, key: &'static str) {
        debug_assert!(
            key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "response key `{key}` must be a plain identifier: keys are written unescaped"
        );
        self.line.push_str(",\"");
        self.line.push_str(key);
        self.line.push_str("\":");
    }

    /// Attach an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        self.key(key);
        push_u64(&mut self.line, v);
        self
    }

    /// Attach an array of unsigned integers.
    pub fn u64_array(mut self, key: &'static str, vs: impl IntoIterator<Item = u64>) -> Self {
        self.key(key);
        self.line.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            push_u64(&mut self.line, v);
        }
        self.line.push(']');
        self
    }

    /// Render the response as one JSON line (no trailing newline).
    pub fn render(mut self) -> String {
        self.line.push('}');
        self.line
    }
}

/// Append `v` in decimal.
fn push_u64(out: &mut String, v: u64) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Render an error response line for request `id` (no trailing
/// newline).
pub fn error_response(id: Option<u64>, err: &ServeError) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::U64(id)));
    }
    fields.push(("ok".to_string(), Value::Bool(false)));
    fields.push(("code".to_string(), Value::Str(err.code().to_string())));
    fields.push(("error".to_string(), Value::Str(err.to_string())));
    if let ServeError::BudgetExceeded { needed, budget } = err {
        fields.push(("needed".to_string(), Value::U64(*needed)));
        fields.push(("budget".to_string(), Value::U64(*budget)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("value rendering is total")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_op_vocabulary() {
        let cases = [
            (r#"{"op":"degree","v":3}"#, Op::Degree { v: 3 }),
            (r#"{"op":"neighbors","v":0}"#, Op::Neighbors { v: 0 }),
            (r#"{"op":"khop","v":1,"depth":4}"#, Op::KHop { v: 1, depth: 4 }),
            (r#"{"op":"khop","v":1}"#, Op::KHop { v: 1, depth: 2 }),
            (r#"{"op":"bfs","source":9}"#, Op::Bfs { source: 9 }),
            (r#"{"op":"sssp","source":9}"#, Op::Sssp { source: 9 }),
            (r#"{"op":"wcc"}"#, Op::Wcc),
            (r#"{"op":"pagerank","iters":5}"#, Op::PageRank { iters: 5 }),
            (r#"{"op":"ppr","source":2,"iters":5}"#, Op::Ppr { source: 2, iters: 5 }),
            (r#"{"op":"status"}"#, Op::Status),
            (r#"{"op":"shutdown"}"#, Op::Shutdown),
            (r#"{"op":"chaos_panic"}"#, Op::ChaosPanic),
            (r#"{"op":"chaos_sleep","ms":250}"#, Op::ChaosSleep { ms: 250 }),
        ];
        for (line, want) in cases {
            assert_eq!(parse_request(line).unwrap().op, want, "line: {line}");
        }
    }

    #[test]
    fn id_round_trips_and_errors_are_typed() {
        let req = parse_request(r#"{"id":77,"op":"wcc"}"#).unwrap();
        assert_eq!(req.id, Some(77));

        let err = parse_request(r#"{"op":"explode"}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let err = parse_request("not json").unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let err = parse_request(r#"{"op":"degree"}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let line = ResponseBuilder::ok(Some(5), 2).u64("degree", 7).render();
        assert!(line.contains(r#""id":5"#));
        assert!(line.contains(r#""ok":true"#));
        assert!(line.contains(r#""generation":2"#));
        assert!(line.contains(r#""degree":7"#));
        assert!(!line.contains('\n'));

        let err = error_response(None, &ServeError::BudgetExceeded { needed: 10, budget: 5 });
        assert!(err.contains(r#""ok":false"#));
        assert!(err.contains(r#""code":"budget""#));
        assert!(err.contains(r#""needed":10"#));
    }

    /// The direct renderer against the `Value` renderer it replaced.
    fn value_line(id: Option<u64>, generation: u64, fields: Vec<(&str, Value)>) -> String {
        let mut all = Vec::new();
        if let Some(id) = id {
            all.push(("id".to_string(), Value::U64(id)));
        }
        all.push(("ok".to_string(), Value::Bool(true)));
        all.push(("generation".to_string(), Value::U64(generation)));
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        serde_json::to_string(&Value::Object(all)).unwrap()
    }

    #[test]
    fn direct_rendering_matches_the_value_renderer_byte_for_byte() {
        let array = |vs: &[u64]| Value::Array(vs.iter().map(|&v| Value::U64(v)).collect());
        let cases = [
            (ResponseBuilder::ok(Some(5), 2).render(), value_line(Some(5), 2, vec![])),
            (ResponseBuilder::ok(None, 0).render(), value_line(None, 0, vec![])),
            (
                ResponseBuilder::ok(Some(0), 9).u64("degree", 7).u64("bytes", 0).render(),
                value_line(Some(0), 9, vec![("degree", Value::U64(7)), ("bytes", Value::U64(0))]),
            ),
            (
                ResponseBuilder::ok(None, 1)
                    .u64("count", 0)
                    .u64_array("neighbors", std::iter::empty())
                    .render(),
                value_line(None, 1, vec![("count", Value::U64(0)), ("neighbors", array(&[]))]),
            ),
            (
                ResponseBuilder::ok(Some(3), 4)
                    .u64_array("frontier", [1, 10, 100, 1_000_000])
                    .u64("hash", 0xcbf2_9ce4_8422_2325)
                    .render(),
                value_line(
                    Some(3),
                    4,
                    vec![
                        ("frontier", array(&[1, 10, 100, 1_000_000])),
                        ("hash", Value::U64(0xcbf2_9ce4_8422_2325)),
                    ],
                ),
            ),
            (
                ResponseBuilder::ok(Some(u64::MAX), u64::MAX)
                    .u64("top", u64::MAX)
                    .u64_array("xs", [u64::MAX, 0])
                    .render(),
                value_line(
                    Some(u64::MAX),
                    u64::MAX,
                    vec![("top", Value::U64(u64::MAX)), ("xs", array(&[u64::MAX, 0]))],
                ),
            ),
        ];
        for (direct, tree) in cases {
            assert_eq!(direct, tree);
        }
    }

    #[test]
    fn error_lines_escape_echoed_client_text() {
        let err = parse_request("{\"op\":\"x\\\"y\\\\z\\u0001\"}").unwrap_err();
        let line = error_response(Some(4), &err);
        assert!(!line.contains('\n') && !line.contains('\u{1}'), "{line}");
        let v = serde_json::parse_value_str(&line).unwrap();
        assert_eq!(v.get("id"), Some(&Value::U64(4)));
        assert_eq!(v.get("code"), Some(&Value::Str("bad_request".into())));
        assert_eq!(v.get("error"), Some(&Value::Str(err.to_string())));
        assert!(err.to_string().contains("x\"y\\z\u{1}"), "{err}");
    }
}
