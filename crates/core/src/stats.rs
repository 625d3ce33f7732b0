//! Per-run and per-iteration measurements.
//!
//! Every engine in the workspace (HUS-Graph and the baselines) reports a
//! [`RunStats`], so the experiment harness can tabulate wall time, I/O
//! amount (the paper's Figure 9 metric) and modeled device time (the
//! Table 3 / Figure 7 / Figure 11 metric) identically across systems.
//! They all assemble it with one [`RunRecorder`].

use crate::predict::{Decision, IoPlan, UpdateModel};
use hus_obs::PhaseStat;
use hus_storage::{
    CostModel, IoSnapshot, IoTracker, ResilienceSnapshot, ResilienceTracker, Result, StorageDir,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Measurements for one iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Model selected for the iteration.
    pub model: UpdateModel,
    /// Whether the hybrid chose COP without pricing because every
    /// vertex was active (or, for the paper-literal predictor, at least
    /// 5 % were).
    pub gated: bool,
    /// Predicted `C_rop` (NaN when gated or forced).
    pub c_rop: f64,
    /// Predicted `C_cop` (NaN when gated or forced).
    pub c_cop: f64,
    /// The I/O plan the predictor priced for the selected model —
    /// the bytes per access class this iteration was expected to bill,
    /// to be held against `io` ([`crate::audit`]). `None` when gated or
    /// forced, and for engines without a predictor.
    pub plan: Option<IoPlan>,
    /// Intervals processed with push this iteration (the active rows,
    /// in a HUS run).
    pub rop_units: u32,
    /// Intervals processed with pull this iteration (every column, in a
    /// HUS run).
    pub cop_units: u32,
    /// Frontier size at the start of the iteration.
    pub active_vertices: u64,
    /// Active out-edges at the start of the iteration
    /// (`Σ_{v active} d_v` — the paper's Figure 1 quantity).
    pub active_edges: u64,
    /// Edge records actually read/processed.
    pub edges_processed: u64,
    /// I/O performed during the iteration.
    pub io: IoSnapshot,
    /// Wall-clock seconds of the iteration.
    pub wall_seconds: f64,
    /// Per-phase wall/I-O breakdown (predict / rop / cop / gather /
    /// sync), populated when `hus_obs` collection is enabled (e.g.
    /// `HUS_TRACE` is set); empty otherwise.
    pub phases: Vec<PhaseStat>,
}

impl IterationStats {
    /// Modeled seconds for this iteration on a device/CPU model.
    pub fn modeled_seconds(&self, model: &CostModel, threads: usize) -> f64 {
        model.modeled_seconds(&self.io, self.edges_processed, self.active_vertices, threads)
    }
}

/// Measurements for a full run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStats {
    /// Per-iteration details.
    pub iterations: Vec<IterationStats>,
    /// Total I/O across all iterations (including vertex-store setup).
    pub total_io: IoSnapshot,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Total edge records processed.
    pub edges_processed: u64,
    /// Whether the frontier emptied before `max_iterations`.
    pub converged: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Storage resilience events during the run: retries of transient
    /// read errors, giveups, degradations (mmap→file, direct→file) and
    /// checksum failures. All zero on a healthy run; see DESIGN.md §9.
    pub resilience: ResilienceSnapshot,
    /// Checkpoint/restore activity (`RunConfig::checkpoint_every` /
    /// `HUS_CKPT`); all zero when checkpointing is off. See DESIGN.md
    /// §10.
    pub checkpoints: CheckpointStats,
}

/// Checkpoint/restore accounting for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Checkpoints written during the run.
    pub written: u32,
    /// Total checkpoint bytes written (not part of the modeled engine
    /// I/O).
    pub bytes: u64,
    /// `Some(k)` when the run resumed from a checkpoint taken at the
    /// end of iteration `k` (so execution re-entered at `k + 1`).
    pub resumed_from: Option<u64>,
}

impl RunStats {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total modeled seconds on a device/CPU model (sum of per-iteration
    /// modeled times).
    pub fn modeled_seconds(&self, model: &CostModel) -> f64 {
        self.iterations.iter().map(|it| it.modeled_seconds(model, self.threads)).sum()
    }

    /// Total I/O amount in (decimal) GB — the paper's Figure 9 metric.
    pub fn io_gb(&self) -> f64 {
        self.total_io.total_gb()
    }

    /// Iterations that ran (fully or mostly) under the given model.
    pub fn iterations_with_model(&self, model: UpdateModel) -> usize {
        self.iterations.iter().filter(|it| it.model == model).count()
    }

    /// One-line human summary, e.g.
    /// `12 iters (8 rop / 4 cop) | 1.2e6 edges | 0.35 GB I/O | 0.42 s | converged | 8 threads`.
    /// Runs with resilience events append a segment such as
    /// `| 3 retries / 0 giveups / 1 fallbacks`.
    pub fn summary(&self) -> String {
        let rop = self.iterations_with_model(UpdateModel::Rop);
        let cop = self.iterations_with_model(UpdateModel::Cop);
        let mut s = format!(
            "{} iters ({rop} rop / {cop} cop) | {:.3e} edges | {} I/O | {} | {} | {} threads",
            self.num_iterations(),
            self.edges_processed as f64,
            hus_obs::fmt_gb(self.total_io.total_bytes()),
            hus_obs::fmt_secs(self.wall_seconds),
            if self.converged { "converged" } else { "iteration-capped" },
            self.threads,
        );
        if self.resilience.any() {
            s.push_str(&format!(
                " | {} retries / {} giveups / {} fallbacks",
                self.resilience.retries,
                self.resilience.giveups,
                self.resilience.total_fallbacks(),
            ));
        }
        s
    }
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch directory with a derived (unique per run) name: removed
/// with the run. An explicitly named one is the caller's to keep —
/// checkpoint resume finds its predecessor's state there — and gets no
/// guard.
struct DerivedScratch(PathBuf);

impl Drop for DerivedScratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The bookkeeping every engine's run loop shares: run and iteration
/// I/O, resilience and clock snapshots, per-phase I/O attribution,
/// [`IterationStats`]/[`RunStats`] assembly, trace emission and the
/// scratch directory's lifetime. The loop itself — what an iteration
/// does and how its units are counted — stays with the engine:
///
/// ```text
/// let mut rec = RunRecorder::start("engine", dir, threads);
/// let scratch = rec.scratch(config.scratch_name.as_deref())?;
/// loop {
///     rec.begin_iteration(iteration, active_vertices, active_edges);
///     ...                                  // rec.lap("phase") at phase ends
///     rec.end_iteration(decision, plan, (rop_units, cop_units), edges);
/// }
/// rec.finish(converged, checkpoints, || read the result)
/// ```
pub struct RunRecorder {
    engine: &'static str,
    threads: usize,
    dir: StorageDir,
    tracker: Arc<IoTracker>,
    resilience: Arc<ResilienceTracker>,
    run_io_start: IoSnapshot,
    run_res_start: ResilienceSnapshot,
    run_start: Instant,
    scratch: Option<DerivedScratch>,
    iterations: Vec<IterationStats>,
    edges_processed: u64,
    /// The iteration in flight: its number, frontier size and active
    /// out-edges, and where its I/O and clock started.
    current: (usize, u64, u64),
    iter_io_start: IoSnapshot,
    iter_start: Instant,
    /// Tracker state and clock at the last phase boundary, and the
    /// bytes and wall time lapped into each phase since the iteration
    /// began. Inert (no snapshots) while `hus_obs` collection is
    /// disabled.
    phase_last: Option<(IoSnapshot, Instant)>,
    phase_io: hus_obs::PhaseIo,
}

impl RunRecorder {
    /// Open the run's measurement window over `dir`'s trackers. `engine`
    /// labels the trace records.
    pub fn start(engine: &'static str, dir: &StorageDir, threads: usize) -> Self {
        hus_obs::init_from_env();
        let (tracker, resilience) = (dir.tracker(), dir.resilience());
        let now = Instant::now();
        RunRecorder {
            engine,
            threads,
            dir: dir.clone(),
            run_io_start: tracker.snapshot(),
            run_res_start: resilience.snapshot(),
            run_start: now,
            tracker,
            resilience,
            scratch: None,
            iterations: Vec::new(),
            edges_processed: 0,
            current: (0, 0, 0),
            iter_io_start: IoSnapshot::default(),
            iter_start: now,
            phase_last: None,
            phase_io: hus_obs::PhaseIo::new(),
        }
    }

    /// Create the run's scratch directory under the recorded one:
    /// `explicit` if given (kept after the run), otherwise a unique
    /// derived name that is removed when the recorder goes — at
    /// [`Self::finish`], or on the way out of a failed run.
    pub fn scratch(&mut self, explicit: Option<&str>) -> Result<StorageDir> {
        let derived = || {
            let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
            format!("scratch_{}_{n}", std::process::id())
        };
        let dir = self.dir.subdir(&explicit.map_or_else(derived, str::to_string))?;
        self.scratch = explicit.is_none().then(|| DerivedScratch(dir.root().to_path_buf()));
        Ok(dir)
    }

    /// Start the clock and the I/O window of one iteration.
    pub fn begin_iteration(&mut self, iteration: usize, active_vertices: u64, active_edges: u64) {
        self.current = (iteration, active_vertices, active_edges);
        self.iter_io_start = self.tracker.snapshot();
        self.iter_start = Instant::now();
        self.phase_last = hus_obs::enabled().then_some((self.iter_io_start, self.iter_start));
        self.phase_io = hus_obs::PhaseIo::new();
    }

    /// Attribute the bytes moved and the wall time spent since the last
    /// phase boundary to the `phase` that just ended; merged into the
    /// span-derived [`PhaseStat`]s at the iteration's end. Called on the
    /// engine's own thread, so a phase whose spans ran concurrently on
    /// workers is still timed once.
    pub fn lap(&mut self, phase: &'static str) {
        if let Some((last_io, last_at)) = &mut self.phase_last {
            let (io, at) = (self.tracker.snapshot(), Instant::now());
            let wall = at.duration_since(*last_at).as_secs_f64();
            self.phase_io.add(phase, io.since(last_io).total_bytes(), wall);
            (*last_io, *last_at) = (io, at);
        }
    }

    /// Close the iteration in flight and record it. `decision` carries
    /// the model and the predictor's view (a system without one passes
    /// [`Decision::forced`]), `plan` the bytes it priced, `units` the
    /// `(rop_units, cop_units)` the engine counts.
    pub fn end_iteration(
        &mut self,
        decision: Decision,
        plan: Option<IoPlan>,
        (rop_units, cop_units): (u32, u32),
        edges_processed: u64,
    ) -> &IterationStats {
        // Capture the clocks before draining spans: emitting trace
        // records does file I/O that must not count as engine time.
        let wall_seconds = self.iter_start.elapsed().as_secs_f64();
        let io = self.tracker.snapshot().since(&self.iter_io_start);
        // Mirror the always-on resilience totals into the registry so
        // an exporter attached mid-run sees the full history.
        self.resilience.publish();
        let (iteration, active_vertices, active_edges) = self.current;
        let mut phases = hus_obs::finish_iteration(self.engine, iteration);
        self.phase_io.merge_into(&mut phases);
        let it = IterationStats {
            iteration,
            model: decision.model,
            gated: decision.gated,
            c_rop: decision.c_rop,
            c_cop: decision.c_cop,
            plan,
            rop_units,
            cop_units,
            active_vertices,
            active_edges,
            edges_processed,
            io,
            wall_seconds,
            phases,
        };
        if let Some(sink) = hus_obs::sink::trace() {
            sink.emit_iteration(self.engine, &it);
        }
        self.edges_processed += edges_processed;
        self.iterations.push(it);
        self.iterations.last().expect("just pushed")
    }

    /// Close the run: totals are taken first, then `result` collects
    /// the answer (its reads are not part of the run's I/O) while the
    /// scratch directory still exists, then a derived scratch directory
    /// is removed.
    pub fn finish<T>(
        self,
        converged: bool,
        checkpoints: CheckpointStats,
        result: impl FnOnce() -> Result<T>,
    ) -> Result<(T, RunStats)> {
        let stats = RunStats {
            total_io: self.tracker.snapshot().since(&self.run_io_start),
            wall_seconds: self.run_start.elapsed().as_secs_f64(),
            edges_processed: self.edges_processed,
            converged,
            threads: self.threads,
            resilience: self.resilience.snapshot().since(&self.run_res_start),
            checkpoints,
            iterations: self.iterations,
        };
        if let Some(sink) = hus_obs::sink::trace() {
            sink.emit_run(self.engine, &stats);
        }
        let result = result()?;
        drop(self.scratch);
        Ok((result, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_storage::DeviceProfile;

    fn iter_stats(model: UpdateModel, seq: u64, rand: u64) -> IterationStats {
        IterationStats {
            iteration: 0,
            model,
            gated: false,
            c_rop: 1.0,
            c_cop: 2.0,
            plan: None,
            rop_units: 0,
            cop_units: 0,
            active_vertices: 10,
            active_edges: 100,
            edges_processed: 100,
            io: IoSnapshot {
                seq_read_bytes: seq,
                rand_read_bytes: rand,
                rand_read_ops: if rand > 0 { 1 } else { 0 },
                ..Default::default()
            },
            wall_seconds: 0.5,
            phases: Vec::new(),
        }
    }

    #[test]
    fn derived_scratch_goes_with_the_recorder_and_an_explicit_one_stays() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let (mut a, mut b) = (RunRecorder::start("t", &dir, 1), RunRecorder::start("t", &dir, 1));
        let (derived_a, derived_b) = (a.scratch(None).unwrap(), b.scratch(None).unwrap());
        assert_ne!(derived_a.root(), derived_b.root(), "concurrent runs get their own");
        let mut named = RunRecorder::start("t", &dir, 1);
        let explicit = named.scratch(Some("fixed")).unwrap();
        assert_eq!(explicit.root(), dir.path("fixed"));
        // A finished run and an abandoned one (an error's early return).
        a.finish(true, Default::default(), || Ok(())).unwrap();
        drop(b);
        named.finish(true, Default::default(), || Ok(())).unwrap();
        assert!(!derived_a.root().exists() && !derived_b.root().exists());
        assert!(explicit.root().is_dir());
    }

    #[test]
    fn modeled_seconds_sums_iterations() {
        let stats = RunStats {
            iterations: vec![
                iter_stats(UpdateModel::Rop, 0, 1_000_000),
                iter_stats(UpdateModel::Cop, 120_000_000, 0),
            ],
            total_io: IoSnapshot::default(),
            wall_seconds: 1.0,
            edges_processed: 200,
            converged: true,
            threads: 4,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        let model = CostModel::new(DeviceProfile::hdd());
        let total = stats.modeled_seconds(&model);
        let parts: f64 = stats.iterations.iter().map(|it| it.modeled_seconds(&model, 4)).sum();
        assert!((total - parts).abs() < 1e-12);
        assert!(total > 1.0, "1s of sequential + 1s+seek of random: {total}");
    }

    #[test]
    fn model_counting() {
        let stats = RunStats {
            iterations: vec![
                iter_stats(UpdateModel::Rop, 0, 10),
                iter_stats(UpdateModel::Rop, 0, 10),
                iter_stats(UpdateModel::Cop, 10, 0),
            ],
            total_io: IoSnapshot::default(),
            wall_seconds: 1.0,
            edges_processed: 300,
            converged: false,
            threads: 1,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        assert_eq!(stats.iterations_with_model(UpdateModel::Rop), 2);
        assert_eq!(stats.iterations_with_model(UpdateModel::Cop), 1);
        assert_eq!(stats.num_iterations(), 3);
    }

    #[test]
    fn io_gb_uses_total() {
        let stats = RunStats {
            iterations: vec![],
            total_io: IoSnapshot {
                seq_read_bytes: 1_500_000_000,
                write_bytes: 500_000_000,
                ..Default::default()
            },
            wall_seconds: 0.0,
            edges_processed: 0,
            converged: true,
            threads: 1,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        assert!((stats.io_gb() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn serializes_to_json() {
        let mut it = iter_stats(UpdateModel::Cop, 5, 0);
        it.phases =
            vec![PhaseStat { name: "cop".into(), wall_seconds: 0.4, count: 3, io_bytes: 512 }];
        let stats = RunStats {
            iterations: vec![it],
            total_io: IoSnapshot::default(),
            wall_seconds: 0.1,
            edges_processed: 100,
            converged: true,
            threads: 2,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        let s = serde_json::to_string(&stats).unwrap();
        let back: RunStats = serde_json::from_str(&s).unwrap();
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.iterations[0].model, UpdateModel::Cop);
        assert_eq!(back.iterations[0].phases, stats.iterations[0].phases);
    }

    #[test]
    fn summary_is_one_line_and_mentions_the_vitals() {
        let stats = RunStats {
            iterations: vec![
                iter_stats(UpdateModel::Rop, 0, 10),
                iter_stats(UpdateModel::Cop, 10, 0),
            ],
            total_io: IoSnapshot { seq_read_bytes: 2_000_000_000, ..Default::default() },
            wall_seconds: 1.5,
            edges_processed: 12345,
            converged: true,
            threads: 8,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        let s = stats.summary();
        assert!(!s.contains('\n'));
        assert!(s.contains("2 iters"), "{s}");
        assert!(s.contains("1 rop / 1 cop"), "{s}");
        assert!(s.contains("converged"), "{s}");
        assert!(s.contains("8 threads"), "{s}");
    }
}
