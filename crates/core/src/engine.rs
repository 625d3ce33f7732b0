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
use crate::stats::{CheckpointStats, RunRecorder, RunStats};
use crate::vertex_store::VertexStore;
use hus_obs::span;
use hus_storage::{Result, StorageError, Throughput};
use rayon::prelude::*;
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

/// Run-time configuration.
///
/// [`Default`] resolves every knob from the environment where an
/// override exists (`HUS_VERIFY`, `HUS_CKPT`; see the README's knob
/// table).
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
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Update strategy.
    pub mode: UpdateMode,
    /// Worker threads (a dedicated rayon pool is built per run).
    pub threads: usize,
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
    /// graph directory and kept after the run. `None` derives a unique
    /// name per run; that directory is removed when the run ends.
    pub scratch_name: Option<String>,
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

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            mode: UpdateMode::Hybrid,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            paper_literal_predictor: false,
            max_iterations: 1_000,
            throughput: hus_storage::DeviceProfile::hdd().read,
            scratch_name: None,
            verify_checksums: hus_obs::env::flag("HUS_VERIFY", false),
            checkpoint_every: hus_obs::env::parse("HUS_CKPT", 0),
            deadline: None,
        }
    }
}

impl RunConfig {
    /// Config with an explicit update mode, other fields default.
    pub fn with_mode(mode: UpdateMode) -> Self {
        RunConfig { mode, ..Default::default() }
    }
}

/// A configured run of a program over a graph.
pub struct Engine<'a, Pr: VertexProgram> {
    graph: &'a HusGraph,
    program: &'a Pr,
    config: RunConfig,
}

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
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.config.threads.max(1))
            .build()
            .map_err(|e| StorageError::Corrupt(format!("rayon pool: {e}")))?;
        pool.install(|| self.run_inner())
    }

    /// Choose this iteration's update model, and the I/O plan it is
    /// predicted to bill: forced or gated (no plan) when there is no
    /// `frontier` summary, otherwise by pricing one ROP plan over it
    /// against the COP sweep plan, both with the intervals `resident`
    /// marks free.
    fn plan_iteration(
        &self,
        predictor: &Predictor,
        ctx: &IterCtx<'_, Pr>,
        frontier: Option<&Frontier>,
        resident: &[bool],
    ) -> (Decision, Option<IoPlan>) {
        let Some(frontier) = frontier else {
            let decision = match self.config.mode {
                UpdateMode::ForceRop => Decision::forced(UpdateModel::Rop, false),
                UpdateMode::ForceCop => Decision::forced(UpdateModel::Cop, false),
                UpdateMode::Hybrid => Decision::forced(UpdateModel::Cop, true),
            };
            if decision.gated {
                crate::predict::count_decision(&decision);
            }
            return (decision, None);
        };
        let (rop_plan, cop_plan) = if predictor.paper_literal {
            let p = self.graph.p() as u64;
            predictor.literal_plans(
                frontier.active_edges(),
                self.graph.num_edges(),
                predictor.vertex_bytes(self.graph.meta().num_vertices as u64, p) * p,
            )
        } else {
            let cop_plan = cop::plan(self.graph, predictor.value_bytes, resident);
            (rop::plan(ctx, frontier, resident), cop_plan)
        };
        let decision = predictor.compare(&rop_plan, &cop_plan);
        crate::predict::count_decision(&decision);
        let predicted = match decision.model {
            UpdateModel::Rop => rop_plan,
            UpdateModel::Cop => cop_plan,
        };
        (decision, Some(predicted))
    }

    /// Run the iteration under `model` and commit what it wrote; returns
    /// the edge records it processed and the `(pushed rows, pulled
    /// columns)` counts the stats record.
    ///
    /// A pull streams every column; the columns write disjoint next
    /// buffers, so they fan out over the run's pool, one column per
    /// worker. Every column is written and committed, which supersedes
    /// every resident copy without writing it; nothing stays resident.
    fn execute(
        &self,
        ctx: &IterCtx<'_, Pr>,
        store: &mut VertexStore<Pr::Value>,
        model: UpdateModel,
        rec: &mut RunRecorder,
    ) -> Result<(u64, (u32, u32))> {
        let p = self.graph.p();
        if model == UpdateModel::Rop {
            return self.push(ctx, store, rec);
        }
        let edges = cop::run_columns(ctx, store)?;
        rec.lap("cop");
        {
            let _s = span!("sync");
            (0..p).for_each(|j| store.commit(j));
        }
        rec.lap("sync");
        Ok((edges, (0, p as u32)))
    }

    /// [`Self::execute`] a push. It reads every active row; rows are
    /// independent (§3.5: per-`D_j` locks serialize pushes into a
    /// shared destination), so they fan out over the run's pool too —
    /// inline when it has one thread or there is one row; the first
    /// error in row order wins. They hold the destination intervals they
    /// touch in memory for the whole iteration (the paper's per-row
    /// parallelism has them all resident anyway), deriving each lazily
    /// on first push ([`rop::Intervals`]). Each touched `D_j` becomes
    /// interval `j`'s current values unwritten and stays resident for the
    /// next iteration; nothing else does. A resident copy from the
    /// previous push is written back only if this push neither pushes
    /// into its interval nor re-derives it; checkpoints and the result
    /// take resident intervals from memory
    /// ([`VertexStore::read_all_current`]).
    fn push(
        &self,
        ctx: &IterCtx<'_, Pr>,
        store: &mut VertexStore<Pr::Value>,
        rec: &mut RunRecorder,
    ) -> Result<(u64, (u32, u32))> {
        let meta = self.graph.meta();
        let rows: Vec<usize> = (0..self.graph.p())
            .filter(|&row| {
                let end = meta.interval_starts[row + 1];
                ctx.active.count_range(meta.interval_start(row), end) > 0
            })
            .collect();
        let counts = (rows.len() as u32, 0);
        let intervals = rop::Intervals::new(store, &rows);
        let row_edges: Vec<u64> = rows
            .into_par_iter()
            .map(|row| {
                let _s = span!("rop.row", interval = row);
                rop::run_row(ctx, &intervals, row)
            })
            .collect::<Result<Vec<u64>>>()?;
        rec.lap("rop");
        // The writes of a push: `reset` re-derivations (PageRank-style)
        // and the carried copies it drops.
        let commits = {
            let _s = span!("gather");
            intervals.finish(self.program)?
        };
        rec.lap("gather");
        {
            let _s = span!("sync");
            for (j, commit) in commits.into_iter().enumerate() {
                match commit {
                    rop::Commit::Resident(values) => store.commit_resident(j, values),
                    rop::Commit::Written => store.commit(j),
                    rop::Commit::Unchanged => {}
                }
            }
        }
        rec.lap("sync");
        Ok((row_edges.iter().sum(), counts))
    }

    /// With checkpointing on, adopt the freshest valid snapshot left in
    /// the scratch directory by an interrupted earlier run of the same
    /// `scratch_name` (DESIGN.md §10): the store and frontier are
    /// rebuilt from it bit-identically and the loop re-enters where it
    /// left off.
    fn restore(
        &self,
        mgr: &mut crate::checkpoint::CheckpointManager,
    ) -> Option<(u64, Vec<Pr::Value>, ActiveSet)> {
        let snap = mgr.load_latest::<Pr::Value>()?;
        let frontier = ActiveSet::from_words(self.graph.meta().num_vertices, &snap.active_words)?;
        ((snap.iteration as usize) < self.config.max_iterations).then_some((
            snap.iteration,
            snap.values,
            frontier,
        ))
    }

    fn run_inner(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        let meta = self.graph.meta();
        let v = meta.num_vertices;
        self.graph.set_verify(self.config.verify_checksums);
        let mut rec = RunRecorder::start("hus", self.graph.dir(), self.config.threads);
        let scratch = rec.scratch(self.config.scratch_name.as_deref())?;

        let mut ckpt_mgr = (self.config.checkpoint_every > 0)
            .then(|| crate::checkpoint::CheckpointManager::new(scratch.clone(), v));
        let mut ckpt_stats = CheckpointStats::default();
        let mut start_iteration = 0usize;
        let mut active = ActiveSet::initial(self.program, v);
        let mut restored = None;
        if let Some((iteration, values, frontier)) =
            ckpt_mgr.as_mut().and_then(|mgr| self.restore(mgr))
        {
            start_iteration = iteration as usize + 1;
            ckpt_stats.resumed_from = Some(iteration);
            active = frontier;
            restored = Some(values);
        }
        let mut store: VertexStore<Pr::Value> =
            VertexStore::create(&scratch, "vals", &meta.interval_starts, |x| match &restored {
                Some(values) => values[x as usize],
                None => self.program.init(x),
            })?;

        // `M` is the *on-disk* bytes per edge: the verbatim formulas
        // must reflect the encoded payload that actually travels from
        // the device, not the decoded width.
        let value_bytes = std::mem::size_of::<Pr::Value>() as u64;
        let mut predictor =
            Predictor::new(self.config.throughput, self.graph.disk_edge_bytes(), value_bytes);
        predictor.paper_literal = self.config.paper_literal_predictor;
        let tput = &self.config.throughput;

        let mut converged = false;
        for iteration in start_iteration..self.config.max_iterations {
            check_deadline(self.config.deadline.as_ref())?;
            let active_vertices = active.count();
            if active_vertices == 0 {
                converged = true;
                break;
            }
            // One pass over the frontier sums its active out-edges and,
            // when a hybrid iteration is priced, summarizes it per row
            // for the ROP plan. It runs ahead of the iteration clock: the
            // `predict` span times the pricing alone.
            let frontier = (self.config.mode == UpdateMode::Hybrid
                && !predictor.gates(active_vertices, v as u64))
            .then(|| Frontier::scan(self.graph, &active));
            let active_edges = match &frontier {
                Some(frontier) => frontier.active_edges(),
                None => active.active_degree_sum(0, v, self.graph.out_degrees()),
            };
            FRONTIER_HIST.record(active_vertices);
            ACTIVE_EDGES_HIST.record(active_edges);
            ITERATION_GAUGE.set(iteration as u64);
            ACTIVE_VERTICES_GAUGE.set(active_vertices);
            rec.begin_iteration(iteration, active_vertices, active_edges);

            // Decide the iteration's model, then run it.
            let (next_active, ctx);
            let (decision, predicted) = {
                let _s = span!("predict");
                next_active = ActiveSet::next(self.program, v);
                ctx = IterCtx {
                    graph: self.graph,
                    program: self.program,
                    active: &active,
                    next_active: &next_active,
                    coalesce_ratio: tput.batched_bps / tput.random_bps,
                    index_ratio: tput.sequential_bps / tput.random_bps,
                    deadline: self.config.deadline,
                };
                let resident = store.resident_mask();
                self.plan_iteration(&predictor, &ctx, frontier.as_ref(), &resident)
            };
            rec.lap("predict");
            let (edges, counts) = self.execute(&ctx, &mut store, decision.model, &mut rec)?;
            EDGES_PROCESSED.add(edges);
            let it = rec.end_iteration(decision, predicted, counts, edges);
            if let Some(plan) = &predicted {
                // Audit the committed prediction against what the same
                // throughput numbers say the moved bytes cost.
                let actual = IoPlan::billed(&it.io).seconds(tput);
                if actual > 0.0 {
                    let err_pct = (plan.seconds(tput) - actual).abs() / actual * 100.0;
                    MISPREDICTION_PCT.record(err_pct as u64);
                }
            }

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
        }

        // A finished run's checkpoints must not hijack the next run of
        // the same scratch directory.
        if let Some(mgr) = &ckpt_mgr {
            mgr.clear();
        }
        rec.finish(converged, ckpt_stats, || store.read_all_current())
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
            // first check with the typed error, under both models.
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

    /// Serializes the two tests that depend on the process-global obs
    /// flag: one turns it on and off again, the other asserts that a run
    /// made while it is off records no phases. Poison is tolerated — a
    /// failed holder has already reset the flag.
    fn obs_flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static OBS_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());
        OBS_FLAG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn phases_populate_when_collection_enabled() {
        let _flag = obs_flag_lock();
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
        let _flag = obs_flag_lock();
        let el = classic::cycle(12);
        let values = run_on(&el, 2, UpdateMode::Hybrid);
        assert_eq!(values, vec![0; 12]);
        // run_on asserts convergence; a fresh run here checks phases.
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(2)).unwrap();
        let (_, stats) = Engine::new(&g, &MinLabel, RunConfig::default()).run().unwrap();
        // Disabled runs carry no phase data (`HUS_TRACE` in the test
        // environment turns collection on for the whole process).
        if !hus_obs::enabled() {
            assert!(stats.iterations.iter().all(|it| it.phases.is_empty()));
        }
    }

    /// Breadth-first levels from `0`.
    struct Levels;

    impl VertexProgram for Levels {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            if v == 0 {
                0
            } else {
                u32::MAX
            }
        }
        fn initially_active(&self, v: u32) -> bool {
            v == 0
        }
        fn scatter(&self, level: &u32, _ctx: &EdgeCtx) -> Option<u32> {
            Some(level + 1)
        }
        fn combine(&self, dst: &mut u32, msg: u32) -> bool {
            MinLabel.combine(dst, msg)
        }
    }

    /// Vertices of [`push_then_pull`]'s graph.
    const HUB_AND_PATH: u32 = 4096;

    /// A hybrid BFS over a hub at 0 reaching every vertex and a path
    /// through them (P 4): one push from 0, then a frontier of all but
    /// one vertex, pulled.
    fn push_then_pull() -> (tempfile::TempDir, HusGraph, RunStats) {
        let n = HUB_AND_PATH;
        let mut pairs: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        pairs.extend((1..n - 1).map(|v| (v, v + 1)));
        let el = EdgeList::from_pairs(pairs);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let config = BuildConfig::with_p_codec(4, hus_codec::Codec::Raw);
        let g = HusGraph::build_into(&el, &dir, &config).unwrap();
        let config = RunConfig { threads: 1, ..Default::default() };
        let (levels, stats) = Engine::new(&g, &Levels, config).run().unwrap();
        assert!(levels[1..].iter().all(|&l| l == 1), "every vertex one hop from the hub");
        let models: Vec<_> = stats.iterations.iter().map(|it| it.model).collect();
        assert_eq!(models[..2], [UpdateModel::Rop, UpdateModel::Cop], "{models:?}");
        (tmp, g, stats)
    }

    /// A pull right after a push reads no interval the push left
    /// resident: its bill is the residency-aware sweep plan the hybrid
    /// priced it at, below the run's plan with nothing resident.
    #[test]
    fn a_pull_after_a_push_bills_the_residency_aware_plan() {
        let (_tmp, g, stats) = push_then_pull();
        let pull = &stats.iterations[1];
        let plan = pull.plan.expect("a priced iteration");
        assert_eq!(IoPlan::billed(&pull.io), plan);
        let static_sweep = cop::sweep_plan(&g, 4);
        assert!(plan.sequential < static_sweep.sequential, "{plan:?} vs {static_sweep:?}");
        assert_eq!(plan.write, static_sweep.write);
    }

    /// The push leaves every interval resident unwritten; the pull
    /// writes each of the `P` columns once and supersedes those copies
    /// without writing them back.
    #[test]
    fn a_pull_after_a_push_writes_each_column_once_and_no_carried_copy() {
        let (_tmp, _g, stats) = push_then_pull();
        let writes = |it: &crate::IterationStats| (it.io.write_bytes, it.io.write_ops);
        assert_eq!(writes(&stats.iterations[0]), (0, 0), "the push writes nothing");
        assert_eq!(writes(&stats.iterations[1]), (4 * HUB_AND_PATH as u64, 4));
    }

    /// A whole forced-ROP run writes the store's initial population and
    /// one interval per (iteration, interval) that the previous push
    /// pushed into and this one does not; nothing else. Every other
    /// pushed-into `D_j` is superseded by the next push unwritten, or
    /// taken from memory for the result.
    #[test]
    fn a_forced_rop_run_writes_only_its_initial_population_and_drop_writes() {
        let el = hus_gen::watts_strogatz(1 << 11, 4, 0.01, 3);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let config = BuildConfig::with_p_codec(8, hus_codec::Codec::Raw);
        let g = HusGraph::build_into(&el, &dir, &config).unwrap();
        let config = RunConfig { threads: 2, ..RunConfig::with_mode(UpdateMode::ForceRop) };
        let (levels, stats) = Engine::new(&g, &Levels, config).run().unwrap();
        assert!(stats.converged);

        // Iteration t pushes from the vertices at level t into the
        // intervals of their out-neighbours.
        let starts = &g.meta().interval_starts;
        let interval = |v: u32| starts.partition_point(|&s| s <= v) - 1;
        let interval_bytes = |j: usize| 4 * (starts[j + 1] - starts[j]) as u64;
        let mut pushed = vec![[false; 8]; stats.num_iterations()];
        for e in &el.edges {
            if let Some(into) = pushed.get_mut(levels[e.src as usize] as usize) {
                into[interval(e.dst)] = true;
            }
        }
        let mut resident = [false; 8];
        let mut drops = 0;
        for (it, into) in stats.iterations.iter().zip(&pushed) {
            let dropped: u64 =
                (0..8).filter(|&j| resident[j] && !into[j]).map(interval_bytes).sum();
            assert_eq!(it.io.write_bytes, dropped, "iteration {}", it.iteration);
            drops += dropped;
            resident = *into;
        }
        assert!(drops > 0, "the wavefront leaves intervals behind");
        let population = 4 * el.num_vertices as u64;
        assert_eq!(stats.total_io.write_bytes, population + drops);
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

    /// A derived scratch directory goes with its run — finished or
    /// aborted — so runs do not pile up vertex stores in the graph
    /// directory.
    #[test]
    fn derived_scratch_directories_do_not_outlive_their_run() {
        let el = hus_gen::rmat(2000, 12_000, 3, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &crate::BuildConfig::with_p(4)).unwrap();
        let footprint = dir.disk_footprint().unwrap();
        for _ in 0..5 {
            Engine::new(&g, &MinLabel, RunConfig::default()).run().unwrap();
        }
        let expired = Some(Deadline { at: Instant::now(), budget_ms: 1 });
        let aborted = RunConfig { deadline: expired, ..Default::default() };
        assert!(Engine::new(&g, &MinLabel, aborted).run().unwrap_err().is_deadline());
        let left: Vec<_> = std::fs::read_dir(dir.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains("scratch"))
            .collect();
        assert!(left.is_empty(), "runs left {left:?} behind");
        assert_eq!(dir.disk_footprint().unwrap(), footprint);
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
