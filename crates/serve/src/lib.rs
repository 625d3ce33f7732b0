//! # hus-serve — concurrent multi-query daemon over one graph directory
//!
//! The serving layer the north star calls for: one process, one graph
//! directory, many concurrent read queries. Four cooperating pieces
//! (DESIGN.md §12):
//!
//! * **MVCC snapshots** ([`snapshot`]) — a [`SnapshotManager`] pins an
//!   `Arc`-held [`hus_core::HusGraph`] to a `MANIFEST` generation plus
//!   delta-run set. Queries clone the `Arc` and keep it for their whole
//!   run; ingest and compaction advance the directory underneath, and a
//!   background refresh re-pins new generations without disturbing
//!   in-flight readers (old readers finish on the old generation —
//!   POSIX keeps their open shard descriptors alive across the
//!   compaction directory swap).
//! * **Query protocol** ([`protocol`], [`exec`]) — newline-delimited
//!   JSON over plain TCP: point lookups (`degree`, `neighbors`), k-hop
//!   expansion, full analytics (`bfs`, `sssp`, `wcc`, `pagerank`,
//!   `ppr`), plus `status` and `shutdown` admin ops.
//! * **Admission control** ([`admission`]) — at most
//!   `HUS_SERVE_MAX_INFLIGHT` queries execute concurrently; excess
//!   requests are rejected immediately with a `busy` error (the
//!   HTTP-429 analogue), and the accept queue is bounded with
//!   load-shedding at the listener. A per-query byte budget
//!   (`HUS_QUERY_BYTE_BUDGET`) rejects over-budget queries with a typed
//!   [`ServeError::BudgetExceeded`].
//! * **Lifecycle** ([`server`]) — std-only threads + `TcpListener`
//!   (the same shape as the OpenMetrics exporter), SIGINT/SIGTERM and
//!   `shutdown`-op drain of in-flight queries, and shutdown of the
//!   process-global metrics exporter through
//!   [`hus_obs::export::shutdown_exporter`] instead of leaking it.
//!
//! Telemetry flows through `hus-obs`: `serve.queries_total`,
//! `serve.active`, `serve.rejected`, `serve.snapshot_generation`, and
//! per-class latency histograms, all scrapeable via `HUS_METRICS_ADDR`.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod exec;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use admission::{Admission, ByteMeter, SlotGuard};
pub use client::Client;
pub use protocol::{Op, Request};
pub use server::{serve, Server};
pub use snapshot::{GraphSnapshot, SnapshotManager};

use hus_storage::StorageError;

/// Env knob naming the serve listen address.
pub const SERVE_ADDR_ENV: &str = "HUS_SERVE_ADDR";
/// Env knob bounding concurrently executing queries.
pub const MAX_INFLIGHT_ENV: &str = "HUS_SERVE_MAX_INFLIGHT";
/// Env knob bounding per-query I/O bytes (0 = unlimited).
pub const BYTE_BUDGET_ENV: &str = "HUS_QUERY_BYTE_BUDGET";
/// Env knob bounding per-query wall-clock milliseconds (0 = unlimited).
pub const QUERY_DEADLINE_ENV: &str = "HUS_QUERY_DEADLINE_MS";
/// Env knob bounding how long an idle connection may hold a worker
/// between requests, in milliseconds (0 = forever).
pub const IDLE_MS_ENV: &str = "HUS_SERVE_IDLE_MS";

/// Default listen address when `HUS_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7464";
/// Default `HUS_SERVE_MAX_INFLIGHT`.
pub const DEFAULT_MAX_INFLIGHT: usize = 8;
/// Default `HUS_SERVE_IDLE_MS`: a stalled or silent client is reaped
/// after 30 s so it can never hold a worker indefinitely.
pub const DEFAULT_IDLE_MS: u64 = 30_000;

/// A query-level failure, carried back to the client as
/// `{"ok":false,"code":...,"error":...}`.
#[derive(Debug)]
pub enum ServeError {
    /// The query would exceed (or has exceeded) its per-query byte
    /// budget: `needed` is the bytes it wanted, `budget` the cap.
    BudgetExceeded {
        /// Bytes the query needed (spent so far + the rejected fetch,
        /// or the pre-flight estimate for full-graph analytics).
        needed: u64,
        /// The configured per-query budget.
        budget: u64,
    },
    /// All `max_inflight` execution slots are busy — the 429 analogue.
    Overloaded,
    /// The request was malformed (unknown op, bad vertex id, …).
    BadRequest(String),
    /// The query crossed its per-query wall-clock deadline
    /// (`HUS_QUERY_DEADLINE_MS` / `--deadline-ms`).
    Deadline {
        /// The millisecond budget the query ran into.
        budget_ms: u64,
    },
    /// The query worker panicked; the panic was contained, the slot
    /// released, and the daemon keeps serving.
    Panicked(String),
    /// The underlying storage layer failed.
    Storage(StorageError),
}

impl ServeError {
    /// Stable machine-readable error code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BudgetExceeded { .. } => "budget",
            ServeError::Overloaded => "busy",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Deadline { .. } => "deadline",
            ServeError::Panicked(_) | ServeError::Storage(_) => "internal",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BudgetExceeded { needed, budget } => {
                write!(f, "query byte budget exceeded: needed {needed} bytes, budget {budget}")
            }
            ServeError::Overloaded => write!(f, "server busy: all query slots in use"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Deadline { budget_ms } => {
                write!(f, "query deadline of {budget_ms} ms exceeded")
            }
            ServeError::Panicked(msg) => write!(f, "query worker panicked: {msg}"),
            ServeError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> Self {
        match e {
            // Surface the engine's cooperative-deadline abort as the
            // typed wire error, not a generic `internal`.
            StorageError::DeadlineExceeded { budget_ms } => ServeError::Deadline { budget_ms },
            other => ServeError::Storage(other),
        }
    }
}

/// Server configuration; [`ServeConfig::from_env`] reads the
/// `HUS_SERVE_ADDR`, `HUS_SERVE_MAX_INFLIGHT` and
/// `HUS_QUERY_BYTE_BUDGET` knobs, CLI flags override per field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Max concurrently executing queries; excess is rejected `busy`.
    pub max_inflight: usize,
    /// Per-query I/O byte budget; 0 = unlimited.
    pub byte_budget: u64,
    /// Bounded accept-queue capacity; connections arriving while it is
    /// full are load-shed with a `busy` response at the listener.
    pub accept_queue: usize,
    /// Engine threads per analytics query (1 keeps results bit-identical
    /// to single-threaded CLI runs; the serving default stays small so
    /// concurrent analytics don't oversubscribe the host).
    pub query_threads: usize,
    /// Milliseconds between snapshot-refresh polls of the `MANIFEST`.
    pub refresh_interval_ms: u64,
    /// Per-query wall-clock deadline in milliseconds, enforced
    /// cooperatively at block boundaries in the engine loops; 0 (the
    /// default) disables it. Crossed deadlines return the typed
    /// `deadline` error.
    pub deadline_ms: u64,
    /// Reap a connection that has been idle (no complete request line)
    /// for this many milliseconds; 0 = never. Defaults to
    /// [`DEFAULT_IDLE_MS`] so a stalled reader cannot hold a worker
    /// forever.
    pub idle_ms: u64,
    /// Accept the `chaos_panic` / `chaos_sleep` test ops. Never set
    /// from the environment — only the chaos harness flips it, so a
    /// production daemon always rejects them as `bad_request`.
    pub chaos_ops: bool,
}

impl ServeConfig {
    /// Defaults with the environment knobs applied.
    pub fn from_env() -> Self {
        use hus_obs::env::parse;
        let max_inflight = parse(MAX_INFLIGHT_ENV, DEFAULT_MAX_INFLIGHT).max(1);
        ServeConfig {
            addr: std::env::var(SERVE_ADDR_ENV)
                .ok()
                .filter(|a| !a.is_empty())
                .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            max_inflight,
            byte_budget: parse(BYTE_BUDGET_ENV, 0u64),
            accept_queue: (max_inflight * 4).max(16),
            query_threads: 1,
            refresh_interval_ms: 200,
            deadline_ms: parse(QUERY_DEADLINE_ENV, 0u64),
            idle_ms: parse(IDLE_MS_ENV, DEFAULT_IDLE_MS),
            chaos_ops: false,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// FNV-1a 64-bit hash, used to compare full result vectors (levels,
/// distances, ranks) across the wire without shipping them: the serve
/// response carries the hash of the little-endian value bytes, and a
/// client holding a locally computed result can check bit-identity.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(ServeError::BudgetExceeded { needed: 9, budget: 1 }.code(), "budget");
        assert_eq!(ServeError::Overloaded.code(), "busy");
        assert_eq!(ServeError::BadRequest("x".into()).code(), "bad_request");
        assert_eq!(ServeError::Deadline { budget_ms: 5 }.code(), "deadline");
        assert_eq!(ServeError::Panicked("boom".into()).code(), "internal");
    }

    #[test]
    fn deadline_storage_errors_map_to_the_typed_code() {
        let e = ServeError::from(StorageError::DeadlineExceeded { budget_ms: 42 });
        assert_eq!(e.code(), "deadline");
        assert!(e.to_string().contains("42 ms"));
        let e = ServeError::from(StorageError::Corrupt("x".into()));
        assert_eq!(e.code(), "internal");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServeConfig::from_env();
        assert!(c.max_inflight >= 1);
        assert!(c.accept_queue >= c.max_inflight);
    }
}
