//! Run child of `delta_mixed`: on a fresh copy of the base graph, ingest
//! the update stream in 8 flushed batches, reopen and run PageRank over
//! the 8 live delta runs, then compact. The copy and the first
//! `DynamicGraph::open` are set-up (timed by the build child); the gates
//! after compaction are outside the sample's wall.

use crate::engine_wl::push_io_counts;
use crate::harness::{sample_loop, timed, Res, SampleCtx};
use crate::inputs::{edge_key, fact, fingerprint, read_facts, read_updates, DELTA_BATCHES};
use crate::report::Samples;
use crate::{host, probes, setup, trace};
use husgraph::algos::PageRank;
use husgraph::core::{fsck, DynamicGraph, Engine, HusGraph, RunConfig};
use husgraph::serve::fnv1a64;
use husgraph::storage::{pod, Access, DeviceProfile, IoSnapshot, StorageDir};
use std::path::Path;

const DELTA_PAGERANK_ITERS: usize = 5;
/// Bytes of user data per update: the 16-byte delta record.
const UPDATE_BYTES: f64 = 16.0;

/// Hash of the ranks after five PageRank iterations over `graph`.
fn pagerank(graph: &HusGraph) -> Res<u64> {
    let program = PageRank::new(graph.meta().num_vertices);
    let config = RunConfig { max_iterations: DELTA_PAGERANK_ITERS, ..Default::default() };
    let (r, _) = timed("engine.run", || Engine::new(graph, &program, config).run());
    Ok(fnv1a64(pod::as_bytes(&r?.0)))
}

/// Edge count and fingerprint of everything `graph` serves.
fn edge_set(graph: &HusGraph) -> Res<(u64, u64)> {
    let meta = graph.meta();
    let mut keys = Vec::with_capacity(graph.num_edges() as usize);
    for i in 0..graph.p() {
        let base = meta.interval_start(i);
        for j in 0..graph.p() {
            let index = graph.load_out_index(i, j, Access::Sequential)?;
            let recs = graph.stream_out_block(i, j)?;
            for v in 0..meta.interval_len(i) as usize {
                keys.extend(
                    (index[v]..index[v + 1])
                        .map(|k| edge_key(base + v as u32, recs.neighbor(k as usize))),
                );
            }
        }
    }
    Ok((keys.len() as u64, fingerprint(keys.into_iter())))
}

pub fn run(wdir: &Path, seconds: f64, traced_run: bool) -> Res<Samples> {
    host::pin_to_first(1)?;
    let facts = read_facts(&wdir.join("in"))?;
    let want_edges: u64 = fact(&facts, "final_edges")?;
    let want_fingerprint: u64 = fact(&facts, "final_fingerprint")?;
    let updates = read_updates(&wdir.join("in/updates.bin"))?;
    let base = wdir.join("graph");
    let hdd = DeviceProfile::hdd();
    let mut out = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let host_rows = sample_loop(seconds, traced_run, true, |ctx: SampleCtx| {
        // A new directory name each sample: the process-wide overlay
        // memo is keyed by path, and a reused name would serve sample
        // n+1 the overlay sample n built.
        let copy = wdir.join(format!("live_{}", ctx.id));
        setup::copy_graph(&base, &copy)?;
        let mut dg = DynamicGraph::open(StorageDir::open(&copy)?)?;
        let io_at_open = dg.dir().tracker().snapshot();
        let cpu0 = host::cpu_seconds();

        let sample_span = trace::span("delta.sample");
        let t0 = std::time::Instant::now();
        let (acked, ingest_s) = timed("delta.ingest", || -> Res<u64> {
            let mut acked = 0;
            for batch in updates.chunks(updates.len().div_ceil(DELTA_BATCHES)) {
                for &(insert, src, dst) in batch {
                    let r = if insert {
                        dg.insert_edge(src, dst, 1.0)
                    } else {
                        dg.delete_edge(src, dst)
                    };
                    acked += u64::from(r.is_ok());
                }
                let (r, s) = timed("delta.flush", || dg.flush());
                r?;
                if ctx.keep && ctx.traced {
                    out.push("delta.flush_ms", s * 1e3);
                }
            }
            Ok(acked)
        });
        let acked = acked?;
        let runs_written = dg.run_count();
        let ingest_io = dg.dir().tracker().snapshot().since(&io_at_open);
        drop(dg);
        let footprint_live = StorageDir::open(&copy)?.disk_footprint()? as f64;
        let run_bytes: u64 = std::fs::read_dir(&copy)?
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".run"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();

        let (r, read_s) = timed("delta.read", || -> Res<(DynamicGraph, u64, f64)> {
            let (dg, open_s) = timed("delta.open_snapshot", || -> Res<DynamicGraph> {
                let mut dg = DynamicGraph::open(StorageDir::open(&copy)?)?;
                dg.snapshot()?;
                Ok(dg)
            });
            let mut dg = dg?;
            let hash = pagerank(dg.snapshot()?)?;
            Ok((dg, hash, open_s))
        });
        let (mut dg, live_hash, open_snapshot_s) = r?;
        let (r, compact_s) = timed("delta.compact", || dg.compact());
        r?;
        let wall = t0.elapsed().as_secs_f64();
        drop(sample_span);
        let cpu_s = host::cpu_seconds() - cpu0;

        // Tracked bytes of both handles plus the run files, which are
        // written outside the tracker.
        let mut io: IoSnapshot = ingest_io.plus(&dg.dir().tracker().snapshot());
        io.write_bytes += run_bytes;
        io.write_ops += runs_written as u64;

        // Gates, outside the sample's wall.
        let compacted = dg.snapshot()?;
        let (edges, print) = edge_set(compacted)?;
        let base_hash = pagerank(compacted)?;
        let footprint = dg.dir().disk_footprint()? as f64;
        let mut gate_failures = u64::from(runs_written != DELTA_BATCHES);
        gate_failures += u64::from((edges, print) != (want_edges, want_fingerprint));
        gate_failures += u64::from(live_hash != base_hash);
        gate_failures += u64::from(!fsck(dg.dir(), false)?.is_clean());
        drop(dg);
        // What the same reader pays once the runs are folded away.
        let mut read_base_s = 0.0;
        if ctx.traced {
            let (r, s) = timed("delta.read_base", || -> Res<u64> {
                pagerank(DynamicGraph::open(StorageDir::open(&copy)?)?.snapshot()?)
            });
            r?;
            read_base_s = s;
        }
        setup::remove_dir(&copy);
        if !ctx.keep {
            return Ok(());
        }
        attempted += updates.len() as u64 + 4;
        failed += updates.len() as u64 - acked + gate_failures;

        if !traced_run {
            out.push("run_s", wall);
            out.push("io_mb", io.total_bytes() as f64 / 1e6);
            out.push("modeled_hdd_s", hdd.io_seconds(&io));
            out.push("disk_bytes_per_edge", footprint / edges.max(1) as f64);
        } else if ctx.traced {
            out.push("trace.run_s", wall);
            out.push("host.cpu_s", cpu_s);
            out.push("delta.ingest_s", ingest_s);
            out.push("delta.open_snapshot_s", open_snapshot_s);
            out.push("delta.read_s", read_s);
            out.push("delta.read_amp", read_s / read_base_s);
            out.push("delta.compact_s", compact_s);
            out.push(
                "delta.write_amp",
                io.write_bytes as f64 / (updates.len() as f64 * UPDATE_BYTES),
            );
            out.push("delta.space_amp", footprint_live / footprint);
            push_io_counts(&mut out, &io, 0);
        } else {
            out.push("plain_run_s", wall);
        }
        Ok(())
    })?;

    if traced_run {
        host_rows.push_traced(&mut out);
        trace::set_on(true);
        probes::common(&base, &mut out)?;
        trace::set_on(false);
    }
    out.push("attempted", attempted as f64);
    out.push("failed", failed as f64);
    Ok(out)
}
