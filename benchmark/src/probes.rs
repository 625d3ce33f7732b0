//! Per-layer unit costs, taken in the traced run after the region: each
//! probe calls one public function of one layer on the workload's own
//! graph, under a span, for a fixed number of calls (so a traced run
//! stays within 1.3x of an untraced one).

use crate::harness::{timed, Res};
use crate::inputs::Rng;
use crate::report::Samples;
use crate::stats::median;
use crate::trace::span_ops;
use husgraph::codec::Codec;
use husgraph::core::{GraphMeta, HusGraph};
use husgraph::storage::{crc32c, Access, BackendKind, RangeRead, ReadBackend, StorageDir};
use rayon::prelude::*;
use std::hint::black_box;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

const CHUNK: usize = 1 << 20;
const MB: f64 = 1e6;

/// MB/s of `passes` sequential passes over `reader` in 1 MiB reads.
fn seq_mbps(name: &'static str, reader: &dyn ReadBackend, passes: usize) -> Res<f64> {
    let mut buf = vec![0u8; CHUNK];
    let (r, s) = timed(name, || -> Res<()> {
        for _ in 0..passes {
            let mut pos = 0;
            while pos < reader.len() {
                let n = ((reader.len() - pos) as usize).min(CHUNK);
                reader.read_at(pos, &mut buf[..n], Access::Sequential)?;
                pos += n as u64;
            }
        }
        Ok(())
    });
    r?;
    Ok(reader.len() as f64 * passes as f64 / MB / s)
}

/// Seconds one probe may take (after its untimed first call).
const PROBE_SLICE: f64 = 0.1;

/// Microseconds per call of `f`, under one span. An untimed first call
/// warms the path and sizes the batch: at most `max_calls`, fewer if
/// they would not fit [`PROBE_SLICE`], never less than one.
fn per_call_us(name: &'static str, max_calls: u64, mut f: impl FnMut(u64) -> Res<()>) -> Res<f64> {
    let t0 = Instant::now();
    f(0)?;
    let first = t0.elapsed().as_secs_f64().max(1e-9);
    let calls = ((PROBE_SLICE / first) as u64).clamp(1, max_calls);
    let _span = span_ops(name, calls);
    let t0 = Instant::now();
    for k in 0..calls {
        f(k)?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / calls as f64)
}

/// Storage, codec, graph-loader and rayon unit costs on the graph at
/// `graph_dir`. A handle of its own keeps the probes' I/O out of the
/// samples' trackers.
pub fn common(graph_dir: &Path, out: &mut Samples) -> Res<()> {
    let mut rng = Rng(0x70726f6265); // fixed: probes do not depend on --seed
    let shard = GraphMeta::in_edges_file(0);
    let dir = StorageDir::open(graph_dir)?;
    let len = dir.file_len(&shard)?;
    let passes = ((64 << 20) / len.max(1)).clamp(1, 64) as usize;

    // hus-storage: the OS floor, then the same shard through each backend.
    let mut buf = vec![0u8; CHUNK];
    let (r, s) = timed("storage.os_seq", || -> std::io::Result<()> {
        for _ in 0..passes {
            let mut f = std::fs::File::open(dir.path(&shard))?;
            while f.read(&mut buf)? > 0 {}
        }
        Ok(())
    });
    r?;
    out.push("storage.os_seq_mbps", len as f64 * passes as f64 / MB / s);
    for (metric, span, kind) in [
        ("storage.file_seq_mbps", "storage.file_seq", BackendKind::File),
        ("storage.mmap_seq_mbps", "storage.mmap_seq", BackendKind::Mmap),
        ("storage.direct_seq_mbps", "storage.direct_seq", BackendKind::Direct),
    ] {
        let reader = dir.clone().with_backend(kind).reader(&shard)?;
        // O_DIRECT goes to the device: one pass bounds its share.
        let n = if kind == BackendKind::Direct { 1 } else { passes };
        out.push(metric, seq_mbps(span, reader.as_ref(), n)?);
    }
    let reader = dir.reader(&shard)?;
    let mut page = [0u8; 4096];
    let span_len = 64 * 1024;
    let room = len.saturating_sub(span_len).max(1);
    out.push(
        "storage.rand_read_us",
        per_call_us("storage.rand_read", 4000, |_| {
            Ok(reader.read_at(
                rng.below(len.saturating_sub(4096).max(1)),
                &mut page[..4096.min(len as usize)],
                Access::Random,
            )?)
        })?,
    );
    let mut bufs = vec![[0u8; 64]; 64];
    out.push(
        "storage.read_ranges64_us",
        per_call_us("storage.read_ranges64", 1000, |_| {
            let base = rng.below(room);
            let mut ranges: Vec<RangeRead<'_>> = bufs
                .iter_mut()
                .enumerate()
                .map(|(k, b)| RangeRead {
                    offset: (base + k as u64 * 1024).min(len - 64),
                    buf: &mut b[..],
                })
                .collect();
            Ok(reader.read_ranges(&mut ranges, Access::Batched)?)
        })?,
    );
    let block = vec![0x5au8; 16 << 20];
    let (crc, s) =
        timed("storage.crc32c", || (0..4).map(|_| crc32c(black_box(&block))).sum::<u32>());
    black_box(crc);
    out.push("storage.crc32c_mbps", 4.0 * block.len() as f64 / MB / s);

    // hus-core::graph loaders.
    let graph = HusGraph::open(dir.clone())?;
    let p = graph.p();
    let meta = graph.meta();
    let (r, s) = timed("graph.stream_in", || -> Res<u64> {
        let mut edges = 0;
        for j in 0..p {
            for i in 0..p {
                edges += graph.stream_in_block(i, j)?.len() as u64;
            }
        }
        Ok(edges)
    });
    out.push("graph.stream_in_ns_per_edge", s * 1e9 / r?.max(1) as f64);
    let pick = |rng: &mut Rng| {
        let v = rng.below(u64::from(meta.num_vertices)) as u32;
        let i = (0..p).find(|&i| v < meta.interval_starts[i + 1]).expect("v < num_vertices");
        (i, rng.below(p as u64) as usize, (v - meta.interval_start(i)) as usize)
    };
    let picks: Vec<_> = (0..4000).map(|_| pick(&mut rng)).collect();
    let entries: Vec<(u32, u32)> = picks
        .iter()
        .map(|&(i, j, local)| graph.load_out_index_entry(i, j, local))
        .collect::<Result<_, _>>()?;
    out.push(
        "graph.index_entry_us",
        per_call_us("graph.index_entry", picks.len() as u64, |k| {
            let (i, j, local) = picks[k as usize];
            black_box(graph.load_out_index_entry(i, j, local)?);
            Ok(())
        })?,
    );
    out.push(
        "graph.out_records_us",
        per_call_us("graph.out_records", picks.len() as u64, |k| {
            let ((i, j, _), (lo, hi)) = (picks[k as usize], entries[k as usize]);
            black_box(graph.load_out_records(i, j, lo, hi)?);
            Ok(())
        })?,
    );
    // 256 sorted vertices of one block, as one coalesced ROP fetch.
    let index = graph.load_out_index(0, 0, Access::Sequential)?;
    let stride = (meta.interval_len(0) as usize / 256).max(1);
    let ranges: Vec<(u32, u32)> = (0..256)
        .map(|k| (k * stride).min(index.len() - 2))
        .map(|v| (index[v], index[v + 1]))
        .filter(|(lo, hi)| hi > lo)
        .collect();
    out.push(
        "graph.record_ranges_us",
        per_call_us("graph.record_ranges", 100, |_| {
            black_box(graph.load_out_record_ranges(0, 0, &ranges)?);
            Ok(())
        })?,
    );

    // hus-codec on real out-blocks (unweighted records: the neighbor ids).
    let mut raw = Vec::new();
    'blocks: for i in 0..p {
        for j in 0..p {
            let recs = graph.stream_out_block(i, j)?;
            raw.extend((0..recs.len()).flat_map(|k| recs.neighbor(k).to_le_bytes()));
            if raw.len() >= 4 << 20 {
                break 'blocks;
            }
        }
    }
    let mut encoded = Vec::new();
    Codec::DeltaVarint.encode(&raw, 4, &mut encoded);
    let mut decoded = vec![0u8; raw.len()];
    let rounds = 16;
    let (r, s) = timed("codec.decode", || {
        (0..rounds)
            .try_for_each(|_| Codec::DeltaVarint.decode(black_box(&encoded), 4, &mut decoded))
    });
    r.map_err(|e| format!("decode: {e:?}"))?;
    if decoded != raw {
        return Err("codec round trip changed the block".into());
    }
    out.push("codec.decode_mbps", raw.len() as f64 * rounds as f64 / MB / s);
    out.push("codec.ratio", raw.len() as f64 / encoded.len().max(1) as f64);

    // vendor/rayon: an empty two-item fan-out at the mask's thread count.
    let pool = rayon::ThreadPoolBuilder::new().build().map_err(|e| e.to_string())?;
    out.push(
        "rayon.dispatch_us",
        per_call_us("rayon.dispatch", 2000, |_| {
            pool.install(|| {
                (0..2usize).into_par_iter().for_each(|k| {
                    black_box(k);
                })
            });
            Ok(())
        })?,
    );
    Ok(())
}

/// The decoded-block cache cliff: one vertex's `load_out_records` in the
/// largest out-block of `cached` that fits a 2 MiB cache shard (decoded
/// once, then hits), and in block (0, 0) of `uncached`, a `P = 1` build
/// whose only block cannot fit and is decoded whole on every call.
pub fn codec_cliff(cached: &HusGraph, uncached: &HusGraph, out: &mut Samples) -> Res<()> {
    let shard_bytes = (16u64 << 20) / 8;
    let p = cached.p();
    let fitting = (0..p)
        .flat_map(|i| (0..p).map(move |j| (i, j)))
        .filter(|&(i, j)| cached.out_block_len(i, j) * 4 <= shard_bytes)
        .max_by_key(|&(i, j)| cached.out_block_len(i, j))
        .ok_or("no out-block fits a cache shard")?;
    for (metric, span, graph, (i, j)) in [
        ("codec.hit_read_us", "codec.hit_read", cached, fitting),
        ("codec.miss_read_us", "codec.miss_read", uncached, (0, 0)),
    ] {
        // A vertex of the block that has edges there.
        let len = graph.meta().interval_len(i) as usize;
        let (lo, hi) = (0..len)
            .map(|v| graph.load_out_index_entry(i, j, v))
            .find(|e| e.as_ref().map_or(true, |(lo, hi)| hi > lo))
            .ok_or("probe block is empty")??;
        let us = per_call_us(span, 2000, |_| {
            black_box(graph.load_out_records(i, j, lo, hi)?);
            Ok(())
        })?;
        out.push(metric, us);
    }
    Ok(())
}

/// Median of `n` timings of `f` in milliseconds.
pub fn median_ms(name: &'static str, n: usize, mut f: impl FnMut(usize) -> Res<()>) -> Res<f64> {
    let mut ms = Vec::with_capacity(n);
    for k in 0..n {
        let (r, s) = timed(name, || f(k));
        r?;
        ms.push(s * 1e3);
    }
    Ok(median(&ms))
}
