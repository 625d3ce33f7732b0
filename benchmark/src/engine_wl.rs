//! Run child of the three engine workloads (`pr_dv`, `pr_par`,
//! `bfs_mesh`): one sample is `Engine::run` with `RunConfig::default()`
//! apart from the iteration cap, on the machine the CPU mask defines.

use crate::harness::{sample_loop, timed, Registry, Res, SampleCtx};
use crate::inputs::{self, fact, hash_u32s, read_facts, PAGERANK_ITERS};
use crate::report::Samples;
use crate::stats::median;
use crate::{host, probes, spec};
use husgraph::algos::{Bfs, PageRank, UNREACHED};
use husgraph::core::audit::{audit_rows, misprediction_ratio};
use husgraph::core::{Engine, HusGraph, RunConfig, RunStats, UpdateMode, UpdateModel};
use husgraph::serve::fnv1a64;
use husgraph::storage::{pod, CostModel, DeviceProfile, IoSnapshot, StorageDir};
use std::path::Path;

/// What a sample runs and what its result must equal.
pub enum Job {
    PageRank {
        /// `reference::pagerank` on the generator's CSR.
        reference: Vec<f32>,
        /// Hash of a one-thread run's ranks, once known.
        one_thread_hash: Option<u64>,
    },
    /// `(source, level hash, reached count)` from `reference::bfs_levels`.
    Bfs(Vec<(u32, u64, u64)>),
}

/// One sample's measurements.
pub struct EngineSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub io: IoSnapshot,
    pub modeled_hdd_s: f64,
    pub runs: Vec<RunStats>,
    /// Hash of the (last) result vector.
    pub hash: u64,
    /// Gate failures among this sample's runs.
    pub failed: u64,
}

pub fn open_graph(dir: &Path) -> Res<HusGraph> {
    Ok(HusGraph::open(StorageDir::open(dir)?)?)
}

/// Engine runs leave `scratch_*` vertex-store directories behind.
fn sweep_scratch(graph: &HusGraph) {
    if let Ok(entries) = std::fs::read_dir(graph.dir().root()) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with("scratch_") {
                std::fs::remove_dir_all(e.path()).ok();
            }
        }
    }
}

/// Every rank within 1e-4 relative of the reference.
fn ranks_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, &w)| (g - w).abs() <= 1e-4 * w.abs().max(f32::MIN_POSITIVE))
}

pub fn sample(graph: &HusGraph, job: &Job, mode: UpdateMode) -> Res<EngineSample> {
    let hdd = CostModel::new(DeviceProfile::hdd());
    let cpu0 = host::cpu_seconds();
    let mut s = EngineSample {
        wall_s: 0.0,
        cpu_s: 0.0,
        io: IoSnapshot::default(),
        modeled_hdd_s: 0.0,
        runs: Vec::new(),
        hash: 0,
        failed: 0,
    };
    let record = |s: &mut EngineSample, wall: f64, stats: RunStats, hash: u64, ok: bool| {
        s.wall_s += wall;
        s.io = s.io.plus(&stats.total_io);
        s.modeled_hdd_s += stats.modeled_seconds(&hdd);
        s.runs.push(stats);
        s.hash = hash;
        s.failed += u64::from(!ok);
    };
    match job {
        Job::PageRank { reference, one_thread_hash } => {
            let program = PageRank::new(graph.meta().num_vertices);
            let config = RunConfig { max_iterations: PAGERANK_ITERS, ..RunConfig::with_mode(mode) };
            let (r, wall) = timed("engine.run", || Engine::new(graph, &program, config).run());
            let (ranks, stats) = r?;
            let hash = fnv1a64(pod::as_bytes(&ranks));
            let ok = one_thread_hash.is_none_or(|h| h == hash) && ranks_match(&ranks, reference);
            record(&mut s, wall, stats, hash, ok);
        }
        Job::Bfs(sources) => {
            for &(source, want_hash, want_reached) in sources {
                let program = Bfs::new(source);
                let config = RunConfig::with_mode(mode);
                let (r, wall) = timed("engine.run", || Engine::new(graph, &program, config).run());
                let (levels, stats) = r?;
                let hash = hash_u32s(&levels);
                let reached = levels.iter().filter(|&&l| l != UNREACHED).count() as u64;
                let ok = stats.converged && hash == want_hash && reached == want_reached;
                record(&mut s, wall, stats, hash, ok);
            }
        }
    }
    s.cpu_s = host::cpu_seconds() - cpu0;
    sweep_scratch(graph);
    Ok(s)
}

/// A sample taken on a thread confined to one CPU.
fn one_cpu_sample(graph: &HusGraph, job: &Job) -> Res<EngineSample> {
    Ok(host::on_cpus(1, || sample(graph, job, UpdateMode::Hybrid).map_err(|e| e.to_string()))?)
}

/// The end-to-end lists of an untraced sample.
fn push_end_to_end(out: &mut Samples, s: &EngineSample) {
    out.push("run_s", s.wall_s);
    out.push("io_mb", s.io.total_bytes() as f64 / 1e6);
    out.push("modeled_hdd_s", s.modeled_hdd_s);
}

/// The waterfall of one traced sample: the engine's own phase spans
/// (`IterationStats.phases`) plus registry deltas; `other_s` is what the
/// phases leave of the sample's wall, so the rows sum to `trace.run_s`.
fn push_waterfall(out: &mut Samples, s: &EngineSample, reg: &Registry) {
    let iterations = || s.runs.iter().flat_map(|r| r.iterations.iter());
    let phase = |name: &str| -> (f64, u64) {
        iterations()
            .flat_map(|it| it.phases.iter())
            .filter(|p| p.name == name)
            .fold((0.0, 0), |(w, b), p| (w + p.wall_seconds, b + p.io_bytes))
    };
    let mut in_phases = 0.0;
    for name in ["predict", "rop", "cop", "gather", "sync"] {
        let (wall, _) = phase(name);
        in_phases += wall;
        out.push(&format!("engine.{name}_s"), wall);
    }
    let other = s.wall_s - in_phases;
    let iters = iterations().count().max(1) as f64;
    out.push("trace.run_s", s.wall_s);
    out.push("host.cpu_s", s.cpu_s);
    out.push("engine.other_s", other);
    out.push("engine.iter_overhead_us", other / iters * 1e6);
    let (cop_wall, cop_bytes) = phase("cop");
    out.push("cop.mbps", if cop_wall > 0.0 { cop_bytes as f64 / 1e6 / cop_wall } else { 0.0 });
    let rop_edges: u64 =
        iterations().filter(|it| it.model == UpdateModel::Rop).map(|it| it.active_edges).sum();
    let (rop_wall, _) = phase("rop");
    out.push(
        "rop.ns_per_active_edge",
        if rop_edges > 0 { rop_wall * 1e9 / rop_edges as f64 } else { 0.0 },
    );
    out.push("cop.queue_wait_s", reg.queue_wait_ns as f64 * 1e-9);
    out.push("vstore.load_s", reg.vstore_load_ns as f64 * 1e-9);
    out.push("vstore.write_s", reg.vstore_write_ns as f64 * 1e-9);
    out.push("codec.decode_s", reg.decode_ns as f64 * 1e-9);
    let lookups = reg.codec_hits + reg.codec_misses;
    out.push(
        "codec.cache_hit_ratio",
        if lookups > 0 { reg.codec_hits as f64 / lookups as f64 } else { 0.0 },
    );
    let count =
        |m: UpdateModel| s.runs.iter().map(|r| r.iterations_with_model(m)).sum::<usize>() as f64;
    out.push("predict.rop_iters", count(UpdateModel::Rop));
    out.push("predict.cop_iters", count(UpdateModel::Cop));
    let tput = DeviceProfile::hdd().read;
    let errs: Vec<f64> =
        s.runs.iter().filter_map(|r| misprediction_ratio(&audit_rows(r, &tput))).collect();
    out.push(
        "predict.mispredict_pct",
        if errs.is_empty() { 0.0 } else { errs.iter().sum::<f64>() / errs.len() as f64 },
    );
    push_io_counts(out, &s.io, s.runs.iter().map(|r| r.resilience.retries).sum());
}

/// `storage.*` counts of one sample.
pub fn push_io_counts(out: &mut Samples, io: &IoSnapshot, retries: u64) {
    out.push("storage.seq_read_mb", io.seq_read_bytes as f64 / 1e6);
    out.push("storage.rand_read_ops", io.rand_read_ops as f64);
    out.push("storage.write_mb", io.write_bytes as f64 / 1e6);
    out.push("storage.retries", retries as f64);
}

pub fn run(workload: &str, wdir: &Path, seconds: f64, traced_run: bool) -> Res<Samples> {
    let cpus = spec::cpus_of(workload).ok_or("unknown workload")?;
    host::pin_to_first(cpus)?;
    let facts = read_facts(&wdir.join("in"))?;
    let mut job = if workload == "bfs_mesh" {
        let mut sources = Vec::new();
        for k in 0..2 {
            sources.push((
                fact(&facts, &format!("source{k}"))?,
                fact(&facts, &format!("hash{k}"))?,
                fact(&facts, &format!("reached{k}"))?,
            ));
        }
        Job::Bfs(sources)
    } else {
        Job::PageRank {
            reference: inputs::read_f32s(&wdir.join("in/ranks.f32"))?,
            one_thread_hash: None,
        }
    };
    let graph = open_graph(&wdir.join("graph"))?;
    let mut out = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // The one-thread run every PageRank hash must equal. On a one-CPU
    // workload it is also the warm-up sample.
    let mut one_cpu_wall = Vec::new();
    if matches!(job, Job::PageRank { .. }) {
        let first = one_cpu_sample(&graph, &job)?;
        attempted += 1;
        failed += first.failed;
        one_cpu_wall.push(first.wall_s);
        if let Job::PageRank { one_thread_hash, .. } = &mut job {
            *one_thread_hash = Some(first.hash);
        }
    }
    let warm_up = cpus > 1 || one_cpu_wall.is_empty();

    let host_rows = sample_loop(seconds, traced_run, warm_up, |ctx: SampleCtx| {
        let before = Registry::now();
        let s = sample(&graph, &job, UpdateMode::Hybrid)?;
        if !ctx.keep {
            return Ok(());
        }
        attempted += s.runs.len() as u64;
        failed += s.failed;
        if !traced_run {
            push_end_to_end(&mut out, &s);
        } else if ctx.traced {
            push_waterfall(&mut out, &s, &Registry::now().since(&before));
        } else {
            out.push("plain_run_s", s.wall_s);
            out.push("plain_io_mb", s.io.total_bytes() as f64 / 1e6);
        }
        Ok(())
    })?;

    if traced_run {
        host_rows.push_traced(&mut out);
        let plain = median(out.get("plain_run_s"));
        crate::trace::set_on(true);
        probes::common(&wdir.join("graph"), &mut out)?;
        match workload {
            "pr_par" => {
                for _ in 0..2 {
                    let s = one_cpu_sample(&graph, &job)?;
                    one_cpu_wall.push(s.wall_s);
                    failed += s.failed;
                }
                out.push("engine.scaling_2cpu", median(&one_cpu_wall) / plain);
            }
            "pr_dv" => {
                let raw = open_graph(&wdir.join("graph_raw"))?;
                let (mut wall, mut io) = (Vec::new(), 0.0);
                for _ in 0..3 {
                    let s = sample(&raw, &job, UpdateMode::Hybrid)?;
                    failed += s.failed;
                    wall.push(s.wall_s);
                    io = s.io.total_bytes() as f64 / 1e6;
                }
                out.push("codec.dv_over_raw_wall", plain / median(&wall[1..]));
                out.push("codec.dv_over_raw_io", median(out.get("plain_io_mb")) / io);
                probes::codec_cliff(&graph, &open_graph(&wdir.join("graph_p1"))?, &mut out)?;
            }
            _ => {
                // Hybrid against the better forced model, first source.
                let Job::Bfs(sources) = &job else { unreachable!("bfs_mesh runs BFS") };
                let one = Job::Bfs(sources[..1].to_vec());
                let hybrid = sample(&graph, &one, UpdateMode::Hybrid)?;
                let rop = sample(&graph, &one, UpdateMode::ForceRop)?;
                let cop = sample(&graph, &one, UpdateMode::ForceCop)?;
                failed += hybrid.failed + rop.failed + cop.failed;
                out.push(
                    "predict.hybrid_over_best_modeled",
                    hybrid.modeled_hdd_s / rop.modeled_hdd_s.min(cop.modeled_hdd_s),
                );
                out.push(
                    "predict.hybrid_over_best_wall",
                    hybrid.wall_s / rop.wall_s.min(cop.wall_s),
                );
            }
        }
        crate::trace::set_on(false);
    }
    out.push("attempted", attempted as f64);
    out.push("failed", failed as f64);
    Ok(out)
}
