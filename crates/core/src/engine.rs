//! The hybrid execution engine (paper Algorithm 1).
//!
//! Runs a [`VertexProgram`] over a [`HusGraph`] iteration by iteration,
//! selecting ROP or COP with the I/O-based predictor, maintaining the
//! double-buffered vertex store and the frontier, and recording
//! per-iteration statistics.

use crate::active::ActiveSet;
use crate::cop;
use crate::graph::HusGraph;
use crate::predict::{Decision, IoPlan, Predictor, UpdateModel};
use crate::program::VertexProgram;
use crate::rop::{self, Frontier, IterCtx};
use crate::stats::{IterationStats, RunStats};
use crate::vertex_store::VertexStore;
use hus_obs::span;
use hus_storage::{Access, IoSnapshot, IoTracker, Result, StorageError, Throughput};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Frontier size at each iteration start (log₂ buckets).
static FRONTIER_HIST: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("engine.frontier_size");
/// Active out-edges at each iteration start.
static ACTIVE_EDGES_HIST: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("engine.active_edges");
/// Current iteration index — a gauge so live views (`hus top`, the
/// `/metrics` exporter) can show run progress mid-flight.
static ITERATION_GAUGE: hus_obs::LazyGauge = hus_obs::LazyGauge::new("engine.iteration");
/// Frontier size of the iteration in flight (gauge counterpart of the
/// `engine.frontier_size` histogram, for live views).
static ACTIVE_VERTICES_GAUGE: hus_obs::LazyGauge =
    hus_obs::LazyGauge::new("engine.active_vertices");
/// Edges processed so far across the run.
static EDGES_PROCESSED: hus_obs::LazyCounter = hus_obs::LazyCounter::new("engine.edges_processed");
static CKPT_SAVE_FAILURES: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("engine.ckpt_save_failures");
/// Per-iteration relative error of the chosen model's predicted cost
/// versus the iteration's modeled I/O seconds, in percent (non-gated
/// hybrid iterations only; see [`crate::audit`]).
static MISPREDICTION_PCT: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("predict.misprediction_pct");

/// Laps the run's `IoTracker` at phase boundaries, attributing each
/// delta's bytes to the phase that just ended; merged into the
/// span-derived [`hus_obs::PhaseStat`]s at iteration end. Inert (no
/// snapshots) while collection is disabled.
struct PhaseIoMeter {
    enabled: bool,
    last: IoSnapshot,
    acc: hus_obs::PhaseIo,
}

impl PhaseIoMeter {
    fn start(tracker: &IoTracker) -> Self {
        let enabled = hus_obs::enabled();
        PhaseIoMeter {
            enabled,
            last: if enabled { tracker.snapshot() } else { IoSnapshot::default() },
            acc: hus_obs::PhaseIo::new(),
        }
    }

    fn lap(&mut self, tracker: &IoTracker, phase: &'static str) {
        if !self.enabled {
            return;
        }
        let now = tracker.snapshot();
        self.acc.add(phase, now.since(&self.last).total_bytes());
        self.last = now;
    }

    fn merge_into(&self, phases: &mut [hus_obs::PhaseStat]) {
        self.acc.merge_into(phases);
    }
}

/// Which update strategy the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateMode {
    /// Adaptive selection via the I/O-based predictor (the paper's
    /// Hybrid model).
    #[default]
    Hybrid,
    /// Always push (the paper's "ROP" baseline in Figures 7 and 8).
    ForceRop,
    /// Always pull (the paper's "COP" baseline in Figures 7 and 8).
    ForceCop,
}

/// Granularity at which the hybrid decision is made (see the crate docs
/// for why per-interval selection as literally written in Algorithm 1
/// can drop updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionGranularity {
    /// One decision per iteration (aggregated per-interval costs).
    #[default]
    PerIteration,
    /// One decision per destination column: pull the whole column, or
    /// push only the active sources' edges of that column. Covers every
    /// edge exactly once per iteration under any mixed selection.
    PerColumn,
}

/// When updates made earlier in an iteration become visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Synchrony {
    /// Jacobi: all of an iteration's updates become visible together at
    /// its end (one commit per iteration). Every execution strategy is
    /// observationally equivalent under this default.
    #[default]
    Synchronous,
    /// The paper's literal schedule: `Swap(S, D)` after every processed
    /// row (ROP, Algorithm 2 lines 17–19) or column (COP, Algorithm 3
    /// line 20), so later rows/columns of the same iteration observe
    /// earlier updates. Converges to the same fixpoint in (usually)
    /// fewer iterations for idempotent propagation programs; rejected
    /// for programs with non-identity `reset` (PageRank-family), whose
    /// per-unit re-resets would double-count. The
    /// [`SelectionGranularity::PerColumn`] schedule always commits
    /// synchronously regardless of this setting.
    GaussSeidel,
}

/// Run-time configuration.
///
/// [`Default`] resolves every knob from the environment where an
/// override exists (`HUS_READAHEAD`, `HUS_VERIFY`, `HUS_CKPT`; see the
/// README's knob table).
/// Struct-update syntax pins just the fields a caller cares about:
///
/// ```
/// use hus_core::{RunConfig, UpdateMode};
///
/// let cfg = RunConfig {
///     threads: 2,
///     max_iterations: 10,
///     verify_checksums: true,
///     ..RunConfig::with_mode(UpdateMode::ForceCop)
/// };
/// assert_eq!(cfg.mode, UpdateMode::ForceCop);
/// assert!(cfg.effective_readahead() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Update strategy.
    pub mode: UpdateMode,
    /// Update visibility schedule.
    pub synchrony: Synchrony,
    /// Hybrid decision granularity (ignored under `Force*`).
    pub granularity: SelectionGranularity,
    /// Worker threads (a dedicated rayon pool is built per run).
    pub threads: usize,
    /// Predictor α gate (paper: 0.05).
    pub alpha: f64,
    /// Use the paper's verbatim `C_rop` formula instead of the refined
    /// one (see [`crate::predict`] module docs); ablation knob.
    pub paper_literal_predictor: bool,
    /// Iteration cap (`PageRank` style fixed-iteration runs set this; the
    /// propagation algorithms usually converge first).
    pub max_iterations: usize,
    /// Device throughputs fed to the predictor (`T_sequential`,
    /// `T_random`).
    pub throughput: Throughput,
    /// Scratch directory name for the vertex store, created under the
    /// graph directory. `None` derives a unique name per run.
    pub scratch_name: Option<String>,
    /// COP readahead window in blocks: how many in-blocks the producer
    /// pool may fetch ahead of the consumer. `0` (the default) sizes the
    /// window from the thread budget (`threads` clamped to 2..=8 — each
    /// resident block costs one in-block plus one `S` interval of
    /// memory). Env override: `HUS_READAHEAD`.
    pub readahead_blocks: usize,
    /// Verify per-block CRC-32C checksums (stored in the shard footers by
    /// the builder) on every full-block read. Detects on-disk corruption
    /// at the exact `(i, j)` block; costs one pass over each block read.
    /// Graphs built before checksums existed are read unverified even
    /// when this is set. Env override: `HUS_VERIFY=1` enables.
    pub verify_checksums: bool,
    /// Checkpoint the full iteration state (vertex values + frontier)
    /// into the scratch directory every this many iterations; `0` (the
    /// default) disables checkpointing. A rerun with the same
    /// [`RunConfig::scratch_name`] resumes from the freshest valid
    /// checkpoint bit-identically (see DESIGN.md §10 and
    /// [`crate::checkpoint`]). Env override: `HUS_CKPT`.
    pub checkpoint_every: u32,
    /// Cooperative run deadline, checked once per iteration and at
    /// every block boundary of the COP/ROP loops; `None` (the default)
    /// disables it. Crossing the deadline aborts the run with the typed
    /// [`StorageError::DeadlineExceeded`]. There is deliberately no env
    /// override here — callers with a wall-clock budget (`hus serve`
    /// reads `HUS_QUERY_DEADLINE_MS`) arm it via [`Deadline::after_ms`]
    /// so the instant is anchored to *their* start of work.
    pub deadline: Option<Deadline>,
}

/// A cooperative wall-clock deadline for one run, carried by
/// [`RunConfig::deadline`] and enforced at block boundaries (the unit of
/// I/O work — a slow query can never overshoot by more than one block's
/// worth of processing).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    /// Absolute cutoff instant.
    pub at: Instant,
    /// The millisecond budget that produced `at`, echoed in the typed
    /// error so clients see the limit they ran into.
    pub budget_ms: u64,
}

impl Deadline {
    /// Arm a deadline `budget_ms` from now; `0` means disabled (`None`).
    pub fn after_ms(budget_ms: u64) -> Option<Self> {
        (budget_ms > 0).then(|| Deadline {
            at: Instant::now() + std::time::Duration::from_millis(budget_ms),
            budget_ms,
        })
    }

    /// `Err(DeadlineExceeded)` once the cutoff has passed.
    pub fn check(&self) -> Result<()> {
        if Instant::now() >= self.at {
            Err(StorageError::DeadlineExceeded { budget_ms: self.budget_ms })
        } else {
            Ok(())
        }
    }
}

/// Check an optional deadline — the no-deadline case is free.
pub fn check_deadline(d: Option<&Deadline>) -> Result<()> {
    match d {
        Some(d) => d.check(),
        None => Ok(()),
    }
}

pub(crate) fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

pub(crate) fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => default,
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            mode: UpdateMode::Hybrid,
            synchrony: Synchrony::Synchronous,
            granularity: SelectionGranularity::PerIteration,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            alpha: 0.05,
            paper_literal_predictor: false,
            max_iterations: 1_000,
            throughput: hus_storage::DeviceProfile::hdd().read,
            scratch_name: None,
            readahead_blocks: env_parse("HUS_READAHEAD", 0),
            verify_checksums: env_flag("HUS_VERIFY", false),
            checkpoint_every: env_parse("HUS_CKPT", 0),
            deadline: None,
        }
    }
}

impl RunConfig {
    /// Config with an explicit update mode, other fields default.
    pub fn with_mode(mode: UpdateMode) -> Self {
        RunConfig { mode, ..Default::default() }
    }

    /// The COP readahead depth this config resolves to (`0` = auto-sized
    /// from the thread budget).
    pub fn effective_readahead(&self) -> usize {
        if self.readahead_blocks == 0 {
            self.threads.clamp(2, 8)
        } else {
            self.readahead_blocks
        }
    }
}

/// What [`Engine::plan_iteration`] decided for one iteration.
struct IterationPlan {
    /// The decision; under per-column selection its costs are summed
    /// over the columns and its model is left to the executed majority.
    decision: Decision,
    /// The I/O plan of the selected model(s) — what the iteration is
    /// predicted to bill; `None` when forced or gated.
    predicted: Option<IoPlan>,
    /// Per destination column, when selection is per column.
    columns: Option<Vec<UpdateModel>>,
}

/// A configured run of a program over a graph.
pub struct Engine<'a, Pr: VertexProgram> {
    graph: &'a HusGraph,
    program: &'a Pr,
    config: RunConfig,
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl<'a, Pr: VertexProgram> Engine<'a, Pr> {
    /// Create an engine for `program` over `graph`.
    pub fn new(graph: &'a HusGraph, program: &'a Pr, config: RunConfig) -> Self {
        Engine { graph, program, config }
    }

    /// Execute to convergence (or `max_iterations`); returns the final
    /// vertex values and the run statistics.
    ///
    /// ```
    /// use hus_core::{BuildConfig, Engine, HusGraph, RunConfig};
    /// use hus_storage::StorageDir;
    ///
    /// // Single-source reachability as a minimal VertexProgram
    /// // (values must be Pod, so 0/1 in a u32 stands in for bool).
    /// struct Reach;
    /// impl hus_core::VertexProgram for Reach {
    ///     type Value = u32;
    ///     fn init(&self, v: u32) -> u32 { (v == 0) as u32 }
    ///     fn initially_active(&self, v: u32) -> bool { v == 0 }
    ///     fn scatter(&self, s: &u32, _: &hus_core::EdgeCtx) -> Option<u32> {
    ///         (*s == 1).then_some(1)
    ///     }
    ///     fn combine(&self, d: &mut u32, m: u32) -> bool {
    ///         let grew = m == 1 && *d == 0;
    ///         *d |= m;
    ///         grew
    ///     }
    /// }
    ///
    /// let edges = hus_gen::classic::cycle(8);
    /// let tmp = tempfile::tempdir().unwrap();
    /// let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    /// let graph = HusGraph::build_into(&edges, &dir, &BuildConfig::with_p(2)).unwrap();
    ///
    /// let cfg = RunConfig { threads: 1, ..Default::default() };
    /// let (reached, stats) = Engine::new(&graph, &Reach, cfg).run().unwrap();
    /// assert!(reached.iter().all(|&r| r == 1), "a cycle reaches everything");
    /// assert!(stats.converged);
    /// assert_eq!(stats.resilience.giveups, 0);
    /// ```
    pub fn run(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        hus_obs::init_from_env();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.config.threads.max(1))
            .build()
            .map_err(|e| StorageError::Corrupt(format!("rayon pool: {e}")))?;
        pool.install(|| self.run_inner())
    }

    fn scratch_dir(&self) -> Result<hus_storage::StorageDir> {
        let name = self.config.scratch_name.clone().unwrap_or_else(|| {
            format!(
                "scratch_{}_{}",
                std::process::id(),
                SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
            )
        });
        self.graph.dir().subdir(&name)
    }

    /// Choose this iteration's update model(s): forced or α-gated when
    /// there is no `frontier` summary, otherwise by pricing both
    /// executors' I/O plans over it — once for the whole iteration, or
    /// once per destination column.
    fn plan_iteration(
        &self,
        predictor: &Predictor,
        ctx: &IterCtx<'_, Pr>,
        cop_plans: &[IoPlan],
        frontier: Option<&Frontier>,
    ) -> IterationPlan {
        let Some(frontier) = frontier else {
            let decision = match self.config.mode {
                UpdateMode::ForceRop => Decision::forced(UpdateModel::Rop, false),
                UpdateMode::ForceCop => Decision::forced(UpdateModel::Cop, false),
                UpdateMode::Hybrid => Decision::forced(UpdateModel::Cop, true),
            };
            if decision.gated {
                crate::predict::count_decision(&decision);
            }
            return IterationPlan { decision, predicted: None, columns: None };
        };
        let p = self.graph.p();
        let per_column = self.config.granularity == SelectionGranularity::PerColumn;
        let width = if per_column { 1 } else { p };
        let mut decision =
            Decision { c_rop: 0.0, c_cop: 0.0, ..Decision::forced(UpdateModel::Cop, false) };
        let mut predicted = IoPlan::default();
        let mut models = Vec::with_capacity(p / width);
        for cols in (0..p).step_by(width).map(|col| col..col + width) {
            let (rop_plan, cop_plan) = self.unit_plans(predictor, ctx, frontier, cols, cop_plans);
            let d = predictor.compare(&rop_plan, &cop_plan);
            crate::predict::count_decision(&d);
            decision.c_rop += d.c_rop;
            decision.c_cop += d.c_cop;
            predicted += if d.model == UpdateModel::Rop { rop_plan } else { cop_plan };
            models.push(d.model);
        }
        if !per_column {
            decision.model = models[0];
        }
        IterationPlan {
            decision,
            predicted: Some(predicted),
            columns: per_column.then_some(models),
        }
    }

    /// The `(C_rop, C_cop)` plans of pushing into vs. pulling the
    /// destination columns `cols`.
    fn unit_plans(
        &self,
        predictor: &Predictor,
        ctx: &IterCtx<'_, Pr>,
        frontier: &Frontier,
        cols: std::ops::Range<usize>,
        cop_plans: &[IoPlan],
    ) -> (IoPlan, IoPlan) {
        if !predictor.paper_literal {
            let per_row_d = self.config.synchrony == Synchrony::GaussSeidel;
            let cop_plan = cop_plans[cols.clone()].iter().copied().sum();
            return (rop::plan(ctx, frontier, cols, per_row_d), cop_plan);
        }
        // Verbatim formulas: the columns' active edges are each row's,
        // split by the static share of its out-blocks that lie in `cols`.
        let active_edges: f64 = frontier
            .rows
            .iter()
            .zip(ctx.row_edges)
            .enumerate()
            .filter(|(_, (_, &row_edges))| row_edges > 0)
            .map(|(i, (row, &row_edges))| {
                let in_cols: u64 = cols.clone().map(|j| self.graph.out_block_len(i, j)).sum();
                row.degree_sum as f64 * in_cols as f64 / row_edges as f64
            })
            .sum();
        let (p, n) = (self.graph.p() as u64, cols.len() as u64);
        predictor.literal_plans(
            active_edges.ceil() as u64,
            self.graph.num_edges() * n / p,
            predictor.vertex_bytes(self.graph.meta().num_vertices as u64, p) * n,
        )
    }

    /// End-of-iteration swap: commit the intervals whose `D` was
    /// written. Under a non-identity reset (PageRank-style) the others
    /// must still be re-derived for this iteration, pushed into or not.
    fn commit_written(&self, store: &mut VertexStore<Pr::Value>, written: &[bool]) -> Result<()> {
        for (i, &wrote) in written.iter().enumerate() {
            if !wrote {
                if !self.program.needs_reset() {
                    continue;
                }
                let d = rop::load_d(self.program, store, i, false, Access::Sequential)?;
                store.write_next(i, &d)?;
            }
            store.commit(i);
        }
        Ok(())
    }

    fn run_inner(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        if self.config.synchrony == Synchrony::GaussSeidel && self.program.needs_reset() {
            return Err(StorageError::Corrupt(
                "Gauss-Seidel scheduling requires identity-reset programs \
                 (BFS/WCC/SSSP-style); PageRank-family programs re-derive \
                 every vertex per iteration and must run synchronously"
                    .into(),
            ));
        }
        let meta = self.graph.meta();
        let v = meta.num_vertices;
        let p = self.graph.p();
        self.graph.set_verify(self.config.verify_checksums);
        let tracker = self.graph.dir().tracker();
        let resilience = self.graph.dir().resilience();
        let run_start_io = tracker.snapshot();
        let run_start_res = resilience.snapshot();
        let run_start = Instant::now();

        let scratch = self.scratch_dir()?;
        let always = self.program.always_active();

        // Checkpoint/restore (DESIGN.md §10): with checkpointing on,
        // adopt the freshest valid snapshot left in the scratch
        // directory by an interrupted earlier run of the same
        // `scratch_name` — the store and frontier are rebuilt from it
        // bit-identically and the loop re-enters where it left off.
        let mut ckpt_mgr = (self.config.checkpoint_every > 0)
            .then(|| crate::checkpoint::CheckpointManager::new(scratch.clone(), v));
        let mut ckpt_stats = crate::stats::CheckpointStats::default();
        let mut start_iteration = 0usize;
        let mut restored: Option<(Vec<Pr::Value>, ActiveSet)> = None;
        if let Some(mgr) = &mut ckpt_mgr {
            if let Some(snap) = mgr.load_latest::<Pr::Value>() {
                match ActiveSet::from_words(v, &snap.active_words) {
                    Some(frontier) if (snap.iteration as usize) < self.config.max_iterations => {
                        start_iteration = snap.iteration as usize + 1;
                        ckpt_stats.resumed_from = Some(snap.iteration);
                        restored = Some((snap.values, frontier));
                    }
                    _ => {}
                }
            }
        }

        let (mut store, mut active): (VertexStore<Pr::Value>, ActiveSet) = match restored {
            Some((values, frontier)) => (
                VertexStore::create(&scratch, "vals", &meta.interval_starts, |x| {
                    values[x as usize]
                })?,
                frontier,
            ),
            None => (
                VertexStore::create(&scratch, "vals", &meta.interval_starts, |x| {
                    self.program.init(x)
                })?,
                if always {
                    ActiveSet::all(v)
                } else {
                    ActiveSet::from_fn(v, |x| self.program.initially_active(x))
                },
            ),
        };

        // `M` is the *on-disk* bytes per edge: the verbatim formulas
        // must reflect the encoded payload that actually travels from
        // the device, not the decoded width.
        let value_bytes = std::mem::size_of::<Pr::Value>() as u64;
        let mut predictor =
            Predictor::new(self.config.throughput, self.graph.disk_edge_bytes(), value_bytes);
        predictor.alpha = self.config.alpha;
        predictor.paper_literal = self.config.paper_literal_predictor;
        // Static for the run: COP's plan per column (its sweep is their
        // sum) and the per-row edge totals ROP's plan shares blocks by.
        let cop_plans: Vec<IoPlan> =
            (0..p).map(|col| cop::column_plan(self.graph, col, value_bytes)).collect();
        let row_edges = rop::row_edge_totals(self.graph);
        let gauss_seidel = self.config.synchrony == Synchrony::GaussSeidel;

        let mut iterations = Vec::new();
        let mut total_edges = 0u64;
        let mut converged = false;

        for iteration in start_iteration..self.config.max_iterations {
            check_deadline(self.config.deadline.as_ref())?;
            let active_vertices = active.count();
            if active_vertices == 0 {
                converged = true;
                break;
            }
            // One pass over the frontier sums its active out-edges and,
            // when the hybrid gate is open, summarizes it per row for
            // the ROP plan. It runs ahead of the iteration clock: the
            // `predict` span times the pricing alone.
            let frontier = (self.config.mode == UpdateMode::Hybrid
                && !predictor.gate_forces_cop(active_vertices, v as u64))
            .then(|| Frontier::scan(self.graph, &active));
            let active_edges = match &frontier {
                Some(frontier) => frontier.active_edges(),
                None => active.active_degree_sum(0, v, self.graph.out_degrees()),
            };
            FRONTIER_HIST.record(active_vertices);
            ACTIVE_EDGES_HIST.record(active_edges);
            ITERATION_GAUGE.set(iteration as u64);
            ACTIVE_VERTICES_GAUGE.set(active_vertices);
            let iter_io_start = tracker.snapshot();
            let iter_start = Instant::now();
            let mut phase_io = PhaseIoMeter::start(&tracker);

            // Decide the model(s) for this iteration.
            let (next_active, ctx);
            let IterationPlan { decision, predicted, columns } = {
                let _s = span!("predict");
                next_active = if always { ActiveSet::all(v) } else { ActiveSet::new(v) };
                ctx = IterCtx {
                    graph: self.graph,
                    program: self.program,
                    active: &active,
                    next_active: &next_active,
                    coalesce_ratio: self.config.throughput.batched_bps
                        / self.config.throughput.random_bps,
                    index_ratio: self.config.throughput.sequential_bps
                        / self.config.throughput.random_bps,
                    deadline: self.config.deadline,
                    row_edges: &row_edges,
                };
                self.plan_iteration(&predictor, &ctx, &cop_plans, frontier.as_ref())
            };
            phase_io.lap(&tracker, "predict");

            let readahead = self.config.effective_readahead();

            let mut edges_this_iter = 0u64;
            let mut rop_units = 0u32;
            let mut cop_units = 0u32;

            if let Some(columns) = columns {
                // Fine-grained: each destination column pulls whole or
                // pushes only its active sources' edges. Edge class
                // (i, j) is covered exactly once — by column j's mode.
                let mut written = vec![true; p];
                for (col, model) in columns.into_iter().enumerate() {
                    match model {
                        UpdateModel::Rop => {
                            {
                                let _s = span!("rop.column", interval = col);
                                let (pushed, wrote) = rop::run_push_column(&ctx, &store, col)?;
                                edges_this_iter += pushed;
                                written[col] = wrote;
                            }
                            phase_io.lap(&tracker, "rop");
                            rop_units += 1;
                        }
                        UpdateModel::Cop => {
                            {
                                let _s = span!("cop.column", interval = col);
                                edges_this_iter +=
                                    cop::run_column(&ctx, &store, col, false, readahead)?;
                            }
                            phase_io.lap(&tracker, "cop");
                            cop_units += 1;
                        }
                    }
                }
                {
                    let _s = span!("sync");
                    self.commit_written(&mut store, &written)?;
                }
                phase_io.lap(&tracker, "sync");
            } else {
                match decision.model {
                    UpdateModel::Rop => {
                        if gauss_seidel {
                            // Paper-literal: every processed row loads
                            // the destination intervals it pushes into,
                            // writes them back and swaps immediately, so
                            // later rows observe the updates.
                            for row in 0..p {
                                let base = meta.interval_start(row);
                                let end = meta.interval_starts[row + 1];
                                if active.count_range(base, end) == 0 {
                                    continue;
                                }
                                {
                                    let _s = span!("rop.row", interval = row);
                                    let d_all = rop::d_buffers::<Pr>(&store);
                                    edges_this_iter += rop::run_row(&ctx, &store, row, &d_all)?;
                                    let touched = rop::store_touched::<Pr>(&store, d_all)?;
                                    for (i, t) in touched.into_iter().enumerate() {
                                        if t {
                                            store.commit(i);
                                        }
                                    }
                                }
                                phase_io.lap(&tracker, "rop");
                                rop_units += 1;
                            }
                        } else {
                            // ROP holds touched destination intervals in
                            // memory for the whole iteration (the paper's
                            // per-row parallelism has them all resident
                            // anyway), loading lazily on first push and
                            // writing each back once.
                            let d_all = rop::d_buffers::<Pr>(&store);
                            let rows: Vec<usize> = (0..p)
                                .filter(|&row| {
                                    let base = meta.interval_start(row);
                                    let end = meta.interval_starts[row + 1];
                                    active.count_range(base, end) > 0
                                })
                                .collect();
                            rop_units += rows.len() as u32;
                            // Rows are independent (§3.5: per-D_j locks
                            // serialize pushes into a shared
                            // destination), so they fan out over the
                            // run's pool — inline when it has one
                            // thread or there is one row. Per-row edge
                            // counts are aggregated afterwards instead
                            // of a shared mutable counter; the first
                            // error in row order wins.
                            let row_edges: Vec<u64> = rows
                                .into_par_iter()
                                .map(|row| {
                                    let _s = span!("rop.row", interval = row);
                                    rop::run_row(&ctx, &store, row, &d_all)
                                })
                                .collect::<Result<Vec<u64>>>()?;
                            edges_this_iter += row_edges.iter().sum::<u64>();
                            phase_io.lap(&tracker, "rop");
                            let touched = {
                                let _s = span!("gather");
                                rop::store_touched::<Pr>(&store, d_all)?
                            };
                            phase_io.lap(&tracker, "gather");
                            {
                                let _s = span!("sync");
                                self.commit_written(&mut store, &touched)?;
                            }
                            phase_io.lap(&tracker, "sync");
                        }
                    }
                    UpdateModel::Cop => {
                        if gauss_seidel {
                            // Paper-literal: Swap(S_i, D_i) right after
                            // column i (Algorithm 3 line 20). The
                            // write-back must land before the next
                            // column starts, so no cross-column overlap.
                            for col in 0..p {
                                {
                                    let _s = span!("cop.column", interval = col);
                                    edges_this_iter +=
                                        cop::run_column(&ctx, &store, col, false, readahead)?;
                                    store.commit(col);
                                }
                                phase_io.lap(&tracker, "cop");
                                cop_units += 1;
                            }
                        } else {
                            // Synchronous: columns write disjoint next
                            // buffers, so each column's write-back
                            // overlaps the next column's fetches.
                            edges_this_iter += cop::run_columns(&ctx, &store, readahead)?;
                            phase_io.lap(&tracker, "cop");
                            cop_units += p as u32;
                            {
                                let _s = span!("sync");
                                for i in 0..p {
                                    store.commit(i);
                                }
                            }
                            phase_io.lap(&tracker, "sync");
                        }
                    }
                }
            }

            total_edges += edges_this_iter;
            // Capture the clocks before draining spans: emitting trace
            // records does file I/O that must not count as engine time.
            let wall_seconds = iter_start.elapsed().as_secs_f64();
            let iter_io = tracker.snapshot().since(&iter_io_start);
            EDGES_PROCESSED.add(edges_this_iter);
            if let Some(plan) = &predicted {
                // Audit the committed prediction against what the same
                // throughput numbers say the moved bytes cost.
                let tput = &self.config.throughput;
                let actual = crate::audit::io_seconds(tput, &iter_io);
                if actual > 0.0 {
                    let err_pct = (plan.seconds(tput) - actual).abs() / actual * 100.0;
                    MISPREDICTION_PCT.record(err_pct as u64);
                }
            }
            // Mirror the always-on resilience totals into the registry so
            // an exporter attached mid-run sees the full history.
            resilience.publish();
            let mut phases = hus_obs::finish_iteration("hus", iteration);
            phase_io.merge_into(&mut phases);
            let it = IterationStats {
                iteration,
                model: if rop_units > cop_units { UpdateModel::Rop } else { decision.model },
                gated: decision.gated,
                c_rop: decision.c_rop,
                c_cop: decision.c_cop,
                plan: predicted,
                rop_units,
                cop_units,
                active_vertices,
                active_edges,
                edges_processed: edges_this_iter,
                io: iter_io,
                wall_seconds,
                phases,
            };
            if let Some(sink) = hus_obs::sink::trace() {
                sink.emit_iteration("hus", &it);
            }
            iterations.push(it);

            active = next_active;
            if let Some(mgr) = &mut ckpt_mgr {
                if (iteration + 1) % self.config.checkpoint_every as usize == 0 {
                    let values = store.read_all_current()?;
                    match mgr.save(iteration as u64, &values, &active) {
                        Ok(bytes) => {
                            ckpt_stats.written += 1;
                            ckpt_stats.bytes += bytes;
                        }
                        // A failed save leaves a torn slot that
                        // `load_latest` already skips, while the other
                        // slot keeps the previous checkpoint — the run
                        // continues one checkpoint older rather than
                        // aborting.
                        Err(e) => {
                            CKPT_SAVE_FAILURES.incr();
                            eprintln!("warning: checkpoint save failed ({e}); continuing");
                        }
                    }
                }
            }
            // Crash point for the recovery test harness: armed via
            // `HUS_CRASH_AT=engine.iteration_end:<n>`, inert otherwise.
            hus_storage::durable::crash_point("engine.iteration_end");
            if always && iteration + 1 == self.config.max_iterations {
                // Fixed-iteration programs never empty the frontier.
                break;
            }
        }

        // A finished run's checkpoints must not hijack the next run of
        // the same scratch directory.
        if let Some(mgr) = &ckpt_mgr {
            mgr.clear();
        }
        let total_io = tracker.snapshot().since(&run_start_io);
        let wall_seconds = run_start.elapsed().as_secs_f64();
        let values = store.read_all_current()?;
        let stats = RunStats {
            iterations,
            total_io,
            wall_seconds,
            edges_processed: total_edges,
            converged,
            threads: self.config.threads,
            resilience: resilience.snapshot().since(&run_start_res),
            checkpoints: ckpt_stats,
        };
        if let Some(sink) = hus_obs::sink::trace() {
            sink.emit_run("hus", &stats);
        }
        Ok((values, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildConfig;
    use crate::program::EdgeCtx;
    use hus_gen::{classic, EdgeList};
    use hus_storage::StorageDir;

    /// Min-label propagation (connected components on symmetric graphs).
    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;

        fn init(&self, v: u32) -> u32 {
            v
        }

        fn initially_active(&self, _v: u32) -> bool {
            true
        }

        fn scatter(&self, src_val: &u32, _ctx: &EdgeCtx) -> Option<u32> {
            Some(*src_val)
        }

        fn combine(&self, dst_val: &mut u32, msg: u32) -> bool {
            if msg < *dst_val {
                *dst_val = msg;
                true
            } else {
                false
            }
        }
    }

    fn run_on(el: &EdgeList, p: u32, mode: UpdateMode) -> Vec<u32> {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        let config = RunConfig { mode, threads: 2, ..Default::default() };
        let engine = Engine::new(&g, &MinLabel, config);
        let (values, stats) = engine.run().unwrap();
        assert!(stats.converged, "min-label must converge");
        values
    }

    #[test]
    fn min_label_on_cycle_converges_to_zero() {
        let el = classic::cycle(10);
        for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop, UpdateMode::Hybrid] {
            let values = run_on(&el, 3, mode);
            assert_eq!(values, vec![0; 10], "{mode:?}");
        }
    }

    #[test]
    fn disconnected_components_keep_distinct_labels() {
        // Two triangles: {0,1,2} and {3,4,5}.
        let el = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let values = run_on(&el, 2, UpdateMode::Hybrid);
        assert_eq!(values, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn rop_and_cop_agree() {
        let el = hus_gen::rmat(200, 1500, 3, hus_gen::RmatConfig::default());
        let rop = run_on(&el, 4, UpdateMode::ForceRop);
        let cop = run_on(&el, 4, UpdateMode::ForceCop);
        assert_eq!(rop, cop);
    }

    #[test]
    fn expired_deadline_aborts_with_the_typed_error() {
        let el = hus_gen::rmat(200, 1500, 4, hus_gen::RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop] {
            // A cutoff already in the past: the run must abort at the
            // first check with the typed error, under both models and
            // both COP fetch paths (sync and pipelined) — the readahead
            // fallback must not retry a crossed deadline.
            let deadline = Some(Deadline {
                at: Instant::now() - std::time::Duration::from_millis(1),
                budget_ms: 7,
            });
            let config = RunConfig { mode, threads: 2, deadline, ..Default::default() };
            let err = Engine::new(&g, &MinLabel, config).run().unwrap_err();
            assert!(err.is_deadline(), "{mode:?}: {err}");
            assert!(err.to_string().contains("7 ms"), "budget echoed: {err}");
        }
        // Sanity: the same graph finishes fine with a generous deadline.
        let deadline = crate::engine::Deadline::after_ms(60_000);
        let config = RunConfig { threads: 2, deadline, ..Default::default() };
        let (_, stats) = Engine::new(&g, &MinLabel, config).run().unwrap();
        assert!(stats.converged);
    }

    #[test]
    fn per_column_granularity_matches_per_iteration() {
        let el = hus_gen::rmat(150, 900, 5, hus_gen::RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let run = |granularity| {
            let config = RunConfig { granularity, threads: 1, ..Default::default() };
            Engine::new(&g, &MinLabel, config).run().unwrap().0
        };
        assert_eq!(run(SelectionGranularity::PerIteration), run(SelectionGranularity::PerColumn));
    }

    /// Per-column push loads `D_j` lazily: a column nothing is pushed
    /// into is not written, so it must not be swapped — and under a
    /// non-identity reset it must still be re-derived.
    #[test]
    fn per_column_push_handles_untouched_columns() {
        /// Counts the messages received this iteration.
        struct Received {
            reset: bool,
        }
        impl VertexProgram for Received {
            type Value = u32;
            fn init(&self, _v: u32) -> u32 {
                7
            }
            fn initially_active(&self, v: u32) -> bool {
                v < 2
            }
            fn scatter(&self, _s: &u32, _c: &EdgeCtx) -> Option<u32> {
                Some(1)
            }
            fn combine(&self, d: &mut u32, m: u32) -> bool {
                *d += m;
                true
            }
            fn reset(&self, _v: u32, prev: &u32) -> u32 {
                if self.reset {
                    0
                } else {
                    *prev
                }
            }
            fn needs_reset(&self) -> bool {
                self.reset
            }
        }
        // Two sources of a 200-cycle in 8 intervals push into column 0
        // only; α = 2 keeps the gate open so every column is priced.
        let el = classic::cycle(200);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(8)).unwrap();
        for reset in [false, true] {
            let run = |mode, granularity| {
                let config = RunConfig {
                    mode,
                    granularity,
                    alpha: 2.0,
                    max_iterations: 3,
                    threads: 1,
                    ..Default::default()
                };
                Engine::new(&g, &Received { reset }, config).run().unwrap()
            };
            let (want, _) = run(UpdateMode::ForceCop, SelectionGranularity::PerIteration);
            let (got, stats) = run(UpdateMode::Hybrid, SelectionGranularity::PerColumn);
            assert_eq!(got, want, "reset {reset}");
            assert!(stats.iterations.iter().all(|it| it.rop_units > 0), "some columns push");
        }
    }

    #[test]
    fn stats_capture_model_choices_and_io() {
        let el = classic::star(64);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(2)).unwrap();
        let (_, stats) =
            Engine::new(&g, &MinLabel, RunConfig::with_mode(UpdateMode::ForceCop)).run().unwrap();
        assert!(stats.num_iterations() >= 2);
        assert!(stats.total_io.total_bytes() > 0);
        for it in &stats.iterations {
            assert_eq!(it.model, UpdateModel::Cop);
            assert!(it.io.seq_read_bytes > 0, "COP must stream sequentially");
        }
    }

    #[test]
    fn rop_uses_random_io_cop_uses_sequential() {
        let el = hus_gen::rmat(128, 800, 4, hus_gen::RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        // Disable coalescing (batched == random throughput) so the sparse
        // tail demonstrably issues per-vertex random reads; the dense
        // first iteration still coalesces (requested == block).
        let rop_cfg = RunConfig {
            mode: UpdateMode::ForceRop,
            throughput: hus_storage::Throughput {
                sequential_bps: 120e6,
                random_bps: 40e6,
                batched_bps: 40e6,
            },
            ..Default::default()
        };
        let (_, rop_stats) = Engine::new(&g, &MinLabel, rop_cfg).run().unwrap();
        let (_, cop_stats) =
            Engine::new(&g, &MinLabel, RunConfig::with_mode(UpdateMode::ForceCop)).run().unwrap();
        let rop_iter = &rop_stats.iterations[0];
        let cop_iter = &cop_stats.iterations[0];
        // The fully-active first iteration coalesces into batched
        // sweeps; the sparse tail issues genuinely random range reads.
        assert!(rop_iter.io.batched_read_bytes > 0);
        assert!(rop_stats.total_io.rand_read_bytes > 0);
        assert_eq!(cop_stats.total_io.rand_read_bytes, 0);
        assert_eq!(cop_stats.total_io.batched_read_bytes, 0);
        assert!(cop_iter.io.seq_read_bytes > rop_iter.io.seq_read_bytes);
        // COP reads every edge of the graph; ROP only active ranges.
        assert!(cop_stats.edges_processed > 0);
    }

    #[test]
    fn phases_populate_when_collection_enabled() {
        let el = hus_gen::rmat(300, 2000, 9, hus_gen::RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        hus_obs::set_enabled(true);
        let config = RunConfig { threads: 1, ..Default::default() };
        let run = Engine::new(&g, &MinLabel, config).run();
        hus_obs::set_enabled(false);
        hus_obs::span::drain(); // leave the global collector clean
        let (_, stats) = run.unwrap();
        // The span collector is process-global, so concurrent tests may
        // steal or add events; assert structure, not exact totals.
        assert!(
            stats.iterations.iter().any(|it| !it.phases.is_empty()),
            "enabling collection must populate phase breakdowns"
        );
        let known = ["predict", "rop", "cop", "gather", "sync"];
        for it in &stats.iterations {
            for ph in &it.phases {
                assert!(known.contains(&ph.name.as_str()), "unexpected phase {}", ph.name);
                assert!(ph.count > 0);
                assert!(ph.wall_seconds >= 0.0);
            }
        }
    }

    #[test]
    fn phases_stay_empty_when_collection_disabled() {
        let el = classic::cycle(12);
        let values = run_on(&el, 2, UpdateMode::Hybrid);
        assert_eq!(values, vec![0; 12]);
        // run_on asserts convergence; a fresh run here checks phases.
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(2)).unwrap();
        let (_, stats) = Engine::new(&g, &MinLabel, RunConfig::default()).run().unwrap();
        // Unless another test concurrently enabled the global flag,
        // disabled runs carry no phase data.
        if !hus_obs::enabled() {
            assert!(stats.iterations.iter().all(|it| it.phases.is_empty()));
        }
    }

    #[test]
    fn max_iterations_caps_always_active_programs() {
        /// Degenerate always-active program that keeps values fixed.
        struct Idle;
        impl VertexProgram for Idle {
            type Value = u32;
            fn init(&self, _v: u32) -> u32 {
                0
            }
            fn initially_active(&self, _v: u32) -> bool {
                true
            }
            fn scatter(&self, _s: &u32, _c: &EdgeCtx) -> Option<u32> {
                None
            }
            fn combine(&self, _d: &mut u32, _m: u32) -> bool {
                false
            }
            fn always_active(&self) -> bool {
                true
            }
        }
        let el = classic::cycle(8);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(2)).unwrap();
        let config = RunConfig { max_iterations: 3, ..Default::default() };
        let (_, stats) = Engine::new(&g, &Idle, config).run().unwrap();
        assert_eq!(stats.num_iterations(), 3);
        assert!(!stats.converged);
    }
}

#[cfg(test)]
mod gauss_seidel_tests {
    use super::*;
    use crate::program::EdgeCtx;
    use hus_storage::StorageDir;

    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            v
        }
        fn initially_active(&self, _v: u32) -> bool {
            true
        }
        fn scatter(&self, s: &u32, _c: &EdgeCtx) -> Option<u32> {
            Some(*s)
        }
        fn combine(&self, d: &mut u32, m: u32) -> bool {
            if m < *d {
                *d = m;
                true
            } else {
                false
            }
        }
    }

    fn run(el: &hus_gen::EdgeList, mode: UpdateMode, synchrony: Synchrony) -> (Vec<u32>, RunStats) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &crate::BuildConfig::with_p(4)).unwrap();
        let config = RunConfig { mode, synchrony, threads: 1, ..Default::default() };
        Engine::new(&g, &MinLabel, config).run().unwrap()
    }

    #[test]
    fn gauss_seidel_reaches_same_fixpoint() {
        let el = hus_gen::rmat(200, 1200, 13, Default::default()).symmetrize();
        for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop, UpdateMode::Hybrid] {
            let (sync_vals, _) = run(&el, mode, Synchrony::Synchronous);
            let (gs_vals, gs_stats) = run(&el, mode, Synchrony::GaussSeidel);
            assert_eq!(sync_vals, gs_vals, "{mode:?}");
            assert!(gs_stats.converged);
        }
    }

    #[test]
    fn gauss_seidel_converges_in_fewer_iterations() {
        // GS visibility is at interval granularity: within a unit the
        // pull still reads previous values, so the gain on a path is the
        // interval-boundary crossings — a strict but modest improvement.
        let el = hus_gen::classic::path(64);
        let (_, sync_stats) = run(&el, UpdateMode::ForceCop, Synchrony::Synchronous);
        let (_, gs_stats) = run(&el, UpdateMode::ForceCop, Synchrony::GaussSeidel);
        assert!(
            gs_stats.num_iterations() < sync_stats.num_iterations(),
            "GS {} vs sync {}",
            gs_stats.num_iterations(),
            sync_stats.num_iterations()
        );
    }

    #[test]
    fn gauss_seidel_rejects_reset_programs() {
        struct Reset;
        impl VertexProgram for Reset {
            type Value = f32;
            fn init(&self, _v: u32) -> f32 {
                0.0
            }
            fn initially_active(&self, _v: u32) -> bool {
                true
            }
            fn scatter(&self, s: &f32, _c: &EdgeCtx) -> Option<f32> {
                Some(*s)
            }
            fn combine(&self, d: &mut f32, m: f32) -> bool {
                *d += m;
                true
            }
            fn needs_reset(&self) -> bool {
                true
            }
        }
        let el = hus_gen::classic::cycle(8);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(2)).unwrap();
        let config = RunConfig { synchrony: Synchrony::GaussSeidel, ..Default::default() };
        assert!(Engine::new(&g, &Reset, config).run().is_err());
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::program::EdgeCtx;
    use hus_storage::StorageDir;

    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            v
        }
        fn initially_active(&self, _v: u32) -> bool {
            true
        }
        fn scatter(&self, s: &u32, _c: &EdgeCtx) -> Option<u32> {
            Some(*s)
        }
        fn combine(&self, d: &mut u32, m: u32) -> bool {
            if m < *d {
                *d = m;
                true
            } else {
                false
            }
        }
    }

    fn run_on(el: &hus_gen::EdgeList, p: u32) -> (Vec<u32>, RunStats) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &crate::BuildConfig::with_p(p)).unwrap();
        Engine::new(&g, &MinLabel, RunConfig::default()).run().unwrap()
    }

    #[test]
    fn edgeless_graph_converges_in_one_iteration() {
        let el = hus_gen::EdgeList::empty(10);
        let (values, stats) = run_on(&el, 3);
        assert_eq!(values, (0..10).collect::<Vec<u32>>());
        // Everyone starts active but nothing changes, so one iteration
        // drains the frontier.
        assert_eq!(stats.num_iterations(), 1);
        assert!(stats.converged);
    }

    #[test]
    fn single_vertex_graph_runs() {
        let el = hus_gen::EdgeList::empty(1);
        let (values, stats) = run_on(&el, 1);
        assert_eq!(values, vec![0]);
        assert!(stats.converged);
    }

    #[test]
    fn no_initially_active_vertices_converges_immediately() {
        struct Inert;
        impl VertexProgram for Inert {
            type Value = u32;
            fn init(&self, _v: u32) -> u32 {
                7
            }
            fn initially_active(&self, _v: u32) -> bool {
                false
            }
            fn scatter(&self, _s: &u32, _c: &EdgeCtx) -> Option<u32> {
                None
            }
            fn combine(&self, _d: &mut u32, _m: u32) -> bool {
                false
            }
        }
        let el = hus_gen::classic::cycle(6);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(2)).unwrap();
        let (values, stats) = Engine::new(&g, &Inert, RunConfig::default()).run().unwrap();
        assert_eq!(stats.num_iterations(), 0);
        assert!(stats.converged);
        assert_eq!(values, vec![7; 6]);
    }

    #[test]
    fn explicit_scratch_name_is_honored() {
        let el = hus_gen::classic::cycle(8);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(2)).unwrap();
        let config = RunConfig { scratch_name: Some("my_scratch".into()), ..Default::default() };
        Engine::new(&g, &MinLabel, config).run().unwrap();
        assert!(dir.path("my_scratch").is_dir());
        assert!(dir.exists("my_scratch/vals_a.bin"));
    }

    #[test]
    fn checkpointing_run_matches_plain_run_and_clears_slots() {
        let el = hus_gen::classic::cycle(12);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(2)).unwrap();
        let plain = Engine::new(&g, &MinLabel, RunConfig::default()).run().unwrap();
        let config = RunConfig {
            scratch_name: Some("ck".into()),
            checkpoint_every: 2,
            ..Default::default()
        };
        let (values, stats) = Engine::new(&g, &MinLabel, config).run().unwrap();
        assert_eq!(values, plain.0, "checkpointing must not change results");
        assert!(stats.checkpoints.written > 0);
        assert!(stats.checkpoints.bytes > 0);
        assert_eq!(stats.checkpoints.resumed_from, None);
        // A completed run leaves no checkpoint behind to hijack reruns.
        assert!(!dir.exists("ck/ckpt_0.bin") && !dir.exists("ck/ckpt_1.bin"));
    }

    #[test]
    fn resumes_from_a_checkpoint_in_the_scratch_dir() {
        let el = hus_gen::classic::cycle(12);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(2)).unwrap();
        let (reference, _) = Engine::new(&g, &MinLabel, RunConfig::default()).run().unwrap();
        // Seed the scratch directory with a checkpoint representing a
        // fully-converged iteration 5 (final values, empty frontier).
        let scratch = dir.subdir("resume_me").unwrap();
        let mut mgr = crate::checkpoint::CheckpointManager::new(scratch, 12);
        mgr.save(5, &reference, &ActiveSet::new(12)).unwrap();
        let config = RunConfig {
            scratch_name: Some("resume_me".into()),
            checkpoint_every: 3,
            ..Default::default()
        };
        let (values, stats) = Engine::new(&g, &MinLabel, config).run().unwrap();
        assert_eq!(values, reference, "restored values are the checkpointed values");
        assert_eq!(stats.checkpoints.resumed_from, Some(5));
        assert_eq!(stats.num_iterations(), 0, "empty frontier converges immediately");
        assert!(stats.converged);
    }

    #[test]
    fn max_iterations_zero_returns_initial_values() {
        let el = hus_gen::classic::path(5);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(2)).unwrap();
        let config = RunConfig { max_iterations: 0, ..Default::default() };
        let (values, stats) = Engine::new(&g, &MinLabel, config).run().unwrap();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.num_iterations(), 0);
        assert!(!stats.converged);
    }
}
