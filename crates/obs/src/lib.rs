//! Observability substrate for the HUS-Graph reproduction.
//!
//! Three cooperating pieces:
//!
//! * **Span timers** ([`span!`], [`span::SpanGuard`]) — RAII phase
//!   timers decomposing an engine iteration into predict / rop / cop /
//!   gather / sync. Spans nest, buffer in thread-local storage, and are
//!   drained by the engine once per iteration ([`span::drain`]) into
//!   per-phase aggregates ([`phase::aggregate`]).
//! * **Metric registry** ([`metrics::Registry`]) — named counters,
//!   gauges, and log₂-bucketed histograms backed by atomics, cheap
//!   enough to live on the storage fast path (per-access latency
//!   classes).
//! * **Sinks** — a human-readable aligned table ([`table::Table`], the
//!   renderer the experiment binaries already used) and a JSONL event
//!   stream ([`sink::JsonlSink`]) activated by `HUS_TRACE=path.jsonl`.
//!
//! The whole subsystem is gated on one global flag: when disabled
//! (default), every instrumentation site costs a single relaxed atomic
//! load and branch. [`init_from_env`] flips it on when `HUS_TRACE` is
//! set; engines may also force it per run.
//!
//! Two further telemetry surfaces build on the registry:
//!
//! * **Per-block attribution** ([`attr`]) — a heatmap of raw/encoded/
//!   decoded bytes, cache hits/misses, decode time and retries keyed
//!   by edge block `(i, j)`, gated separately by `HUS_HEATMAP`.
//! * **OpenMetrics export** ([`export`]) — a dependency-free
//!   `/metrics` + `/healthz` HTTP endpoint over the registry, enabled
//!   by `HUS_METRICS_ADDR`.

#![warn(missing_docs)]

pub mod attr;
pub mod env;
pub mod export;
pub mod metrics;
pub mod phase;
pub mod sink;
pub mod span;
pub mod table;

pub use attr::{heatmap_enabled, set_heatmap_enabled, BlockIo, BlockStat};
pub use env::{knob, EnvKnob, KNOBS};
pub use export::MetricsServer;
pub use metrics::{
    latency_timer, Counter, Gauge, Histogram, HistogramSnapshot, LazyCounter, LazyGauge,
    LazyHistogram, Registry,
};
pub use phase::{PhaseIo, PhaseStat};
pub use sink::JsonlSink;
pub use span::SpanEvent;
pub use table::{fmt_gb, fmt_secs, fmt_speedup, Table};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Env var naming the JSONL trace output file.
pub const TRACE_ENV: &str = "HUS_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Whether instrumentation is collecting. The disabled fast path is one
/// relaxed load + branch per site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One-time environment wiring: if `HUS_TRACE` names a file, install a
/// JSONL sink writing there and enable collection; if
/// `HUS_METRICS_ADDR` is set, start the OpenMetrics exporter (which
/// also enables collection); if the `HUS_HEATMAP` flag is on, enable
/// per-block attribution. Idempotent and cheap to call at every engine
/// run.
pub fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                match sink::JsonlSink::create(&path) {
                    Ok(s) => {
                        sink::install_trace(s);
                        set_enabled(true);
                    }
                    Err(e) => eprintln!("warning: {TRACE_ENV}={path}: {e}"),
                }
            }
        }
        if env::flag(attr::HEATMAP_ENV, false) {
            attr::set_heatmap_enabled(true);
        }
    });
    export::init_exporter_from_env();
}

/// End-of-iteration hook for engines: drain the spans recorded since
/// the last call, roll depth-0 spans into per-phase wall times, and
/// forward every raw span event to the trace sink (when installed).
/// Returns an empty vector (no drain, no lock) while collection is
/// disabled.
pub fn finish_iteration(engine: &str, iteration: usize) -> Vec<PhaseStat> {
    if !enabled() {
        return Vec::new();
    }
    span::flush_thread();
    let events = span::drain();
    let phases = phase::aggregate(&events);
    if let Some(sink) = sink::trace() {
        for e in &events {
            sink.emit_span(engine, iteration, e);
        }
    }
    phases
}

/// Crate-internal lock serializing tests that touch the process-global
/// enabled flag, span collector, or registry.
#[cfg(test)]
pub(crate) static TEST_GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
