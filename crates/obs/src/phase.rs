//! Aggregation of drained spans into per-phase wall-time totals.
//!
//! The engine's iteration loop opens depth-0 spans whose dotted names
//! start with the phase (`predict`, `rop.row`, `cop.column`, `gather`,
//! `sync`, …). [`aggregate`] sums only depth-0 spans so nested detail
//! spans never double-count, and keeps phases in first-appearance
//! order, which matches execution order within an iteration.
//!
//! Spans running concurrently on worker threads overlap in time, so
//! their sum can exceed the phase's wall time. Engines that lap a
//! [`PhaseIo`] accumulator at phase boundaries on their own thread
//! (diffing their `IoTracker` snapshots and clocks) therefore take each
//! phase's wall time and bytes from the laps; the spans supply the
//! counts and stay in the trace as per-worker detail.

use crate::span::SpanEvent;
use serde::{Deserialize, Serialize};

/// Wall time and I/O attributed to one phase of one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase name (first segment of the span names rolled up here).
    pub name: String,
    /// Total wall seconds across this phase's depth-0 spans.
    pub wall_seconds: f64,
    /// Number of depth-0 spans rolled up (e.g. ROP rows processed).
    pub count: u64,
    /// Bytes of tracked I/O attributed to the phase (0 when the engine
    /// does not meter I/O per phase).
    pub io_bytes: u64,
}

/// Roll depth-0 spans up into per-phase totals, first-appearance order.
pub fn aggregate(events: &[SpanEvent]) -> Vec<PhaseStat> {
    let mut phases: Vec<PhaseStat> = Vec::new();
    for e in events {
        if e.depth != 0 {
            continue;
        }
        let name = e.phase();
        let wall = e.dur_ns as f64 * 1e-9;
        match phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.wall_seconds += wall;
                p.count += 1;
            }
            None => phases.push(PhaseStat {
                name: name.to_string(),
                wall_seconds: wall,
                count: 1,
                io_bytes: 0,
            }),
        }
    }
    phases
}

/// Sum of phase wall times (for consistency checks against the
/// iteration's own wall clock).
pub fn total_wall_seconds(phases: &[PhaseStat]) -> f64 {
    phases.iter().map(|p| p.wall_seconds).sum()
}

/// Per-phase byte and wall-time accumulator, lapped by the engine at
/// phase boundaries and merged into the span-derived [`PhaseStat`]s.
#[derive(Debug, Default)]
pub struct PhaseIo {
    entries: Vec<(&'static str, u64, f64)>,
}

impl PhaseIo {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute `bytes` and `wall_seconds` to `phase` (summing across
    /// laps).
    pub fn add(&mut self, phase: &'static str, bytes: u64, wall_seconds: f64) {
        match self.entries.iter_mut().find(|(n, ..)| *n == phase) {
            Some((_, b, w)) => {
                *b += bytes;
                *w += wall_seconds;
            }
            None => self.entries.push((phase, bytes, wall_seconds)),
        }
    }

    /// Fold the laps into matching phases (by name): a lapped phase
    /// takes its bytes and wall time from the laps. With no laps the
    /// span totals stand; otherwise phases without a lap (spans of
    /// someone else's regions) and laps without a span are dropped —
    /// spans and laps are expected to bracket the same regions.
    pub fn merge_into(&self, phases: &mut Vec<PhaseStat>) {
        if self.entries.is_empty() {
            return;
        }
        phases.retain_mut(|p| match self.entries.iter().find(|(n, ..)| *n == p.name) {
            Some(&(_, bytes, wall_seconds)) => {
                (p.io_bytes, p.wall_seconds) = (bytes, wall_seconds);
                true
            }
            None => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;

    fn ev(name: &'static str, depth: u16, dur_ns: u64) -> SpanEvent {
        SpanEvent { name, start_ns: 0, dur_ns, depth, field: None }
    }

    #[test]
    fn aggregates_depth_zero_only_in_first_appearance_order() {
        let events = vec![
            ev("predict", 0, 1_000),
            ev("rop.push", 1, 400), // nested: ignored
            ev("rop.row", 0, 2_000),
            ev("rop.row", 0, 3_000),
            ev("sync", 0, 500),
        ];
        let phases = aggregate(&events);
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].name, "predict");
        assert!((phases[0].wall_seconds - 1e-6).abs() < 1e-12);
        assert_eq!(phases[0].count, 1);
        assert_eq!(phases[1].name, "rop");
        assert!((phases[1].wall_seconds - 5e-6).abs() < 1e-12);
        assert_eq!(phases[1].count, 2);
        assert_eq!(phases[2].name, "sync");
        assert!((total_wall_seconds(&phases) - 6.5e-6).abs() < 1e-12);
    }

    #[test]
    fn phase_io_merges_by_name_and_sums_laps() {
        let mut phases = aggregate(&[ev("rop.row", 0, 1_000), ev("sync", 0, 100)]);
        let mut io = PhaseIo::new();
        io.add("rop", 4096, 0.25);
        io.add("rop", 1024, 0.5);
        io.add("sync", 64, 0.125);
        io.add("ghost", 7, 1.0); // no matching phase: dropped
        io.merge_into(&mut phases);
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].io_bytes, phases[0].wall_seconds), (5120, 0.75));
        assert_eq!((phases[1].io_bytes, phases[1].wall_seconds), (64, 0.125));
    }

    /// Two workers' overlapping depth-0 spans sum to twice the phase's
    /// wall time; the engine thread's lap is the wall time.
    #[test]
    fn laps_not_overlapping_spans_give_the_wall_time() {
        let mut phases = aggregate(&[
            ev("predict", 0, 100),
            ev("rop.row", 0, 1_000),
            ev("rop.row", 0, 1_000),
            ev("gather", 0, 50), // a region this engine did not lap
        ]);
        assert!((total_wall_seconds(&phases) - 2.15e-6).abs() < 1e-12);
        let mut io = PhaseIo::new();
        io.add("predict", 0, 1e-7);
        io.add("rop", 0, 1e-6);
        io.merge_into(&mut phases);
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["predict", "rop"]);
        assert_eq!(phases[1].count, 2, "counts still come from the spans");
        assert!((total_wall_seconds(&phases) - 1.1e-6).abs() < 1e-12);
        // Without laps the span totals stand.
        let mut spans_only = aggregate(&[ev("stream.column", 0, 10)]);
        PhaseIo::new().merge_into(&mut spans_only);
        assert_eq!(spans_only[0].wall_seconds, 1e-8);
    }

    #[test]
    fn phase_stat_serde_roundtrip() {
        let p = PhaseStat { name: "cop".into(), wall_seconds: 0.125, count: 7, io_bytes: 512 };
        let json = serde_json::to_string(&p).unwrap();
        let back: PhaseStat = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
