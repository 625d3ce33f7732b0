//! `hus` — command-line front end to the HUS-Graph engine.
//!
//! ```text
//! hus gen    <rmat|er|ws|ba> <vertices> <edges|k|m> <out.husg> [--seed N] [--weighted]
//! hus build  <edges.{husg,txt}> <graph-dir> [--p N] [--external] [--codec raw|delta-varint]
//! hus stats  <graph-dir>
//! hus fsck   <graph-dir> [--repair]
//! hus bfs    <graph-dir> <source> [--mode hybrid|rop|cop]
//! hus sssp   <graph-dir> <source> [--mode ...]
//! hus wcc    <graph-dir> [--mode ...]
//! hus pagerank <graph-dir> [--iters N] [--top K]
//! hus diameter <graph-dir> [--sources N]
//! hus audit  <graph-dir> [--algo bfs|sssp|wcc|pagerank] [--iters N] [--mode ...]
//! hus top    <graph-dir> [--algo ...] [--refresh-ms N] [--plain]
//! hus ingest <graph-dir> [--insert s,d[,w]]... [--delete s,d]... [--random N] [--verify]
//! hus compact <graph-dir>
//! hus convert <in.{husg,txt}> <out.{husg,txt}>
//! hus probe  [dir]
//! ```
//!
//! The third `gen` argument is the edge count for `rmat` and `er`, the
//! neighbor count `k` of each vertex's ring lattice for `ws`, and the
//! attachment count `m` of each new vertex for `ba`.
//!
//! Algorithms print the run's iteration trace, I/O ledger, and modeled
//! HDD time alongside a result summary. `audit` replays an algorithm
//! with full telemetry and renders the cost-model audit trail
//! (predicted `C_rop`/`C_cop` vs. actual per iteration) plus the
//! hottest blocks; `top` is a live terminal view of a run in flight.

use hus_algos::{Bfs, PageRank, Sssp, Wcc};
use hus_core::{
    build, build_external, BinaryFileSource, BuildConfig, Engine, HusGraph, ListSource,
    Orientation, RunConfig, RunStats, UpdateMode, VertexProgram,
};
use hus_gen::EdgeList;
use hus_storage::{CostModel, DeviceProfile, StorageDir};
use std::process::ExitCode;

fn main() -> ExitCode {
    // A reader that closes the pipe early (`hus stats | head`) makes
    // `println!` panic; that is the reader's choice, not a failure.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if msg.is_some_and(|m| m.starts_with("failed printing to stdout: Broken pipe")) {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hus gen <rmat|er|ws|ba> <vertices> <edges|k|m> <out.husg> [--seed N] [--weighted]
          (rmat, er: edges; ws: neighbors k per vertex; ba: attachments m per vertex)
  hus build <edges.{husg,txt}> <graph-dir> [--p N] [--external] [--codec raw|delta-varint]
  hus stats <graph-dir>
  hus fsck <graph-dir> [--repair]
  hus bfs <graph-dir> <source> [--mode hybrid|rop|cop]
  hus sssp <graph-dir> <source> [--mode hybrid|rop|cop]
  hus wcc <graph-dir> [--mode hybrid|rop|cop]
  hus pagerank <graph-dir> [--iters N] [--top K]
  hus diameter <graph-dir> [--sources N]
  hus audit <graph-dir> [--algo bfs|sssp|wcc|pagerank] [--iters N] [--source S] \
            [--mode hybrid|rop|cop] [--blocks K]
  hus top <graph-dir> [--algo bfs|sssp|wcc|pagerank] [--iters N] [--source S] \
          [--refresh-ms N] [--plain]
  hus ingest <graph-dir> [--insert s,d[,w]]... [--delete s,d]... \
             [--random N] [--seed S] [--verify]
  hus compact <graph-dir>
  hus convert <in.{husg,txt}> <out.{husg,txt}>
  hus probe [dir]
  hus serve <graph-dir> [--addr host:port] [--max-inflight N] [--byte-budget B] \
            [--threads N] [--deadline-ms N] [--idle-ms N]

graph-reading commands also accept --backend file|mmap|direct
(default: $HUS_BACKEND, else file; direct degrades to file where
O_DIRECT is unsupported, e.g. tmpfs)";

/// Every flag, across all commands, that takes the next argument as its
/// value; [`positional`] skips such a flag together with its value.
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--algo",
    "--backend",
    "--blocks",
    "--byte-budget",
    "--codec",
    "--deadline-ms",
    "--delete",
    "--idle-ms",
    "--insert",
    "--iters",
    "--max-inflight",
    "--mode",
    "--p",
    "--random",
    "--refresh-ms",
    "--seed",
    "--source",
    "--sources",
    "--threads",
    "--top",
];

type CliResult = Result<(), String>;

fn run(args: &[String]) -> CliResult {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command")?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "gen" => cmd_gen(&rest),
        "build" => cmd_build(&rest),
        "stats" => cmd_stats(&rest),
        "fsck" => cmd_fsck(&rest),
        "bfs" => cmd_algo(&rest, Algo::Bfs),
        "sssp" => cmd_algo(&rest, Algo::Sssp),
        "wcc" => cmd_algo(&rest, Algo::Wcc),
        "pagerank" => cmd_pagerank(&rest),
        "diameter" => cmd_diameter(&rest),
        "audit" => cmd_audit(&rest),
        "top" => cmd_top(&rest),
        "ingest" => cmd_ingest(&rest),
        "compact" => cmd_compact(&rest),
        "convert" => cmd_convert(&rest),
        "probe" => cmd_probe(&rest),
        "serve" => cmd_serve(&rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn flag_value<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    debug_assert!(VALUE_FLAGS.contains(&name), "{name} is missing from VALUE_FLAGS");
    rest.iter().position(|a| *a == name).and_then(|i| rest.get(i + 1)).map(|s| s.as_str())
}

fn has_flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| *a == name)
}

/// The `k`-th argument that is neither a flag nor a flag's value.
fn positional<'a>(rest: &'a [&String], k: usize) -> Result<&'a str, String> {
    let mut positionals = Vec::new();
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
        } else if !arg.starts_with("--") {
            positionals.push(arg.as_str());
        }
    }
    positionals.get(k).copied().ok_or_else(|| format!("missing argument #{}", k + 1))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

fn cmd_gen(rest: &[&String]) -> CliResult {
    let family = positional(rest, 0)?;
    let n: u32 = parse(positional(rest, 1)?, "vertex count")?;
    let m: usize = parse(positional(rest, 2)?, "edge count / parameter")?;
    let out = positional(rest, 3)?;
    let seed: u64 = flag_value(rest, "--seed").map(|s| parse(s, "seed")).transpose()?.unwrap_or(42);
    // Each generator asserts its own bounds; check them here so a bad
    // argument is a usage error, not a panic.
    let check =
        |ok: bool, bound: &str| if ok { Ok(()) } else { Err(format!("gen {family}: {bound}")) };
    let mut el: EdgeList = match family {
        "rmat" => {
            check(n >= 1, "needs at least 1 vertex")?;
            hus_gen::rmat(n, m, seed, Default::default())
        }
        "er" => {
            check(n >= 2, "needs at least 2 vertices")?;
            hus_gen::erdos_renyi(n, m, seed)
        }
        "ws" => {
            check(n >= 4, "needs at least 4 vertices")?;
            check(m >= 1 && m < (n / 2) as usize, "the neighbor count k must be in [1, n/2)")?;
            hus_gen::watts_strogatz(n, m as u32, 0.05, seed)
        }
        "ba" => {
            check(m >= 1 && m < n as usize, "the attachment count m must be in [1, n)")?;
            hus_gen::barabasi_albert(n, m as u32, seed)
        }
        other => return Err(format!("unknown family {other:?} (rmat|er|ws|ba)")),
    };
    if has_flag(rest, "--weighted") {
        el = el.with_hash_weights(0.1, 10.0);
    }
    hus_gen::io::write_binary(&el, out).map_err(|e| e.to_string())?;
    println!("wrote {} vertices / {} edges to {out}", el.num_vertices, el.num_edges());
    Ok(())
}

fn cmd_build(rest: &[&String]) -> CliResult {
    let input = positional(rest, 0)?;
    let out = positional(rest, 1)?;
    let mut config = BuildConfig::default();
    if let Some(p) = flag_value(rest, "--p") {
        let p: u32 = parse(p, "partition count")?;
        if p == 0 {
            return Err("--p: the partition count must be at least 1".into());
        }
        config.p = Some(p);
    }
    if let Some(codec) = flag_value(rest, "--codec") {
        // Explicit flag beats the HUS_CODEC default; a typo'd name is a
        // loud error, not a silent raw build.
        config.codec = codec.parse().map_err(|e| format!("--codec: {e}"))?;
    }
    let dir = StorageDir::create(out).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let meta = if has_flag(rest, "--external") && input.ends_with(".husg") {
        let source = BinaryFileSource::open(input).map_err(|e| e.to_string())?;
        build_external(&source, &dir, &config).map_err(|e| e.to_string())?
    } else {
        let el = if input.ends_with(".husg") {
            hus_gen::io::read_binary(input).map_err(|e| e.to_string())?
        } else {
            hus_gen::io::read_text(input).map_err(|e| e.to_string())?
        };
        if has_flag(rest, "--external") {
            build_external(&ListSource(&el), &dir, &config).map_err(|e| e.to_string())?
        } else {
            build(&el, &dir, &config).map_err(|e| e.to_string())?
        }
    };
    println!(
        "built {out}: {} vertices, {} edges, P = {} intervals, codec {} ({:.2}x), \
         {:.1} MB on disk, {:.2}s",
        meta.num_vertices,
        meta.num_edges,
        meta.p,
        meta.codec,
        meta.compression_ratio(),
        dir.disk_footprint().map_err(|e| e.to_string())? as f64 / 1e6,
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_stats(rest: &[&String]) -> CliResult {
    let dir = StorageDir::open(positional(rest, 0)?).map_err(|e| e.to_string())?;
    let dg = hus_core::DynamicGraph::open(dir).map_err(|e| e.to_string())?;
    let runs = dg.run_count();
    let generation = dg.generation();
    let g = dg.into_snapshot().map_err(|e| e.to_string())?;
    let meta = g.meta();
    println!("vertices:  {}", meta.num_vertices);
    if runs == 0 {
        println!("edges:     {}", meta.num_edges);
    } else {
        println!("edges:     {} ({} in base + {runs} delta run(s))", g.num_edges(), meta.num_edges);
    }
    println!("intervals: {}", meta.p);
    println!("generation: {generation} ({runs} live delta run(s))");
    println!("weighted:  {}", meta.weighted);
    println!("record:    {} bytes/edge", meta.edge_record_bytes());
    println!("codec:     {}", meta.codec);
    // The codec figures are the base's: its edge payload, which holds
    // every edge once per orientation, over its edges.
    println!(
        "on disk:   {:.2} bytes/edge per orientation over {} base edges ({:.2}x compression)",
        meta.disk_edge_bytes(),
        meta.num_edges,
        meta.compression_ratio()
    );
    let max_deg = g.out_degrees().iter().max().copied().unwrap_or(0);
    println!("max out-degree: {max_deg}");
    let footprint = g.dir().disk_footprint().map_err(|e| e.to_string())?;
    println!("disk footprint: {:.1} MB", footprint as f64 / 1e6);
    // Where the bytes are: the data files' parts by the format's
    // arithmetic, the rest by file length.
    let manifest = hus_storage::BuildManifest::load_from(g.dir().root())
        .map_err(|e| e.to_string())?
        .ok_or("MANIFEST is missing")?;
    let file_len = |name: &str| g.dir().file_len(name).map_err(|e| e.to_string());
    let data_files = 4 * meta.p as u64;
    let footer = hus_storage::checksum::footer_len(meta.p as usize);
    let (bitmaps, offsets) = (meta.bitmap_bytes(), meta.offsets_bytes());
    let parts = [
        ("edge payload", meta.encoded_edge_bytes(), String::new()),
        ("index", bitmaps + offsets, format!("; bitmaps {bitmaps}, offsets {offsets}")),
        ("degrees.bin", file_len(hus_core::meta::DEGREES_FILE)?, String::new()),
        ("footers", if meta.checksums { data_files * footer } else { 0 }, String::new()),
        (
            "metadata",
            file_len(hus_core::meta::META_FILE)? + file_len(hus_storage::MANIFEST_FILE)?,
            "; meta.json, MANIFEST".into(),
        ),
        ("delta runs", manifest.runs.iter().map(|r| r.len).sum(), String::new()),
    ];
    // Every part is over the edges served, delta runs included.
    let per_edge = |bytes: u64| bytes as f64 / g.num_edges().max(1) as f64;
    println!(
        "bytes on disk: {footprint} ({:.2} per edge over {} served edges)",
        per_edge(footprint),
        g.num_edges()
    );
    for (part, bytes, note) in &parts {
        println!("  {:<13} {bytes} B ({:.2} per edge{note})", format!("{part}:"), per_edge(*bytes));
    }
    let other = footprint as i64 - parts.iter().map(|p| p.1 as i64).sum::<i64>();
    if other != 0 {
        println!("  {:<13} {other} B (files outside the format)", "other:");
    }
    // Occupancy, resident index and interval rows describe the graph
    // served, delta runs included.
    let p = g.p();
    let slots = 2 * meta.p as u64 * meta.num_vertices as u64;
    let mut occupied = 0;
    for o in Orientation::BOTH {
        for b in 0..p * p {
            occupied += g.index_entries(o, b / p, b % p);
        }
    }
    println!(
        "mean block occupancy: {:.1} % of index slots ({occupied} of {slots})",
        100.0 * occupied as f64 / slots.max(1) as f64
    );
    println!("resident index: {} B", g.resident_index_bytes());
    for i in 0..p {
        let row: u64 = (0..p).map(|j| g.out_block_len(i, j)).sum();
        println!("  interval {i}: vertices {:8}, out-edges {row}", meta.interval_len(i));
    }
    Ok(())
}

/// Deep integrity check: exits non-zero (without the generic usage
/// banner) when the directory is corrupt, so scripts and CI can gate on
/// it.
fn cmd_fsck(rest: &[&String]) -> CliResult {
    let dir = StorageDir::open(positional(rest, 0)?).map_err(|e| e.to_string())?;
    let report = hus_core::fsck(&dir, has_flag(rest, "--repair")).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if !report.is_clean() {
        std::process::exit(1);
    }
    Ok(())
}

/// Apply streaming edge updates to a built graph directory through the
/// dynamic-graph write path: updates buffer in a memtable and are
/// committed as an on-disk delta run before the command returns (see
/// `DESIGN.md` §11).
fn cmd_ingest(rest: &[&String]) -> CliResult {
    let dir = StorageDir::open(positional(rest, 0)?).map_err(|e| e.to_string())?;
    let mut dg = hus_core::DynamicGraph::open(dir).map_err(|e| e.to_string())?;
    let mut inserts = 0u64;
    let mut deletes = 0u64;
    // Repeatable --insert / --delete flags, applied in argv order so a
    // delete can override an earlier insert of the same edge.
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--insert" => {
                let spec = rest.get(i + 1).ok_or("--insert needs src,dst[,weight]")?;
                let (src, dst, w) = parse_edge_spec(spec)?;
                dg.insert_edge(src, dst, w).map_err(|e| e.to_string())?;
                inserts += 1;
                i += 2;
            }
            "--delete" => {
                let spec = rest.get(i + 1).ok_or("--delete needs src,dst")?;
                let (src, dst, _) = parse_edge_spec(spec)?;
                dg.delete_edge(src, dst).map_err(|e| e.to_string())?;
                deletes += 1;
                i += 2;
            }
            _ => i += 1,
        }
    }
    if let Some(n) = flag_value(rest, "--random") {
        let n: u64 = parse(n, "update count")?;
        let seed: u64 =
            flag_value(rest, "--seed").map(|s| parse(s, "seed")).transpose()?.unwrap_or(42);
        let nv = dg.snapshot().map_err(|e| e.to_string())?.meta().num_vertices as u64;
        if nv == 0 {
            return Err("--random needs a non-empty graph".into());
        }
        let mut state = seed;
        for _ in 0..n {
            let x = hus_gen::types::splitmix64(state);
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let src = (x % nv) as u32;
            let dst = ((x >> 32) % nv) as u32;
            // 1-in-8 updates are deletes so random workloads exercise
            // tombstones without emptying the graph.
            if x.is_multiple_of(8) {
                dg.delete_edge(src, dst).map_err(|e| e.to_string())?;
                deletes += 1;
            } else {
                let w = 0.1 + (x >> 16 & 0xffff) as f32 / 6554.0;
                dg.insert_edge(src, dst, w).map_err(|e| e.to_string())?;
                inserts += 1;
            }
        }
    }
    // The memtable dies with this process: commit before reporting
    // (`--flush` is accepted for older invocations and changes nothing).
    if let Some(run) = dg.flush().map_err(|e| e.to_string())? {
        println!("spilled memtable to {run}");
    }
    let runs = dg.run_count();
    let buffered = dg.memtable_bytes();
    if has_flag(rest, "--verify") {
        let g = dg.snapshot().map_err(|e| e.to_string())?;
        let mut out_total = 0u64;
        let mut in_total = 0u64;
        for i in 0..g.p() {
            for j in 0..g.p() {
                out_total += g.out_block_len(i, j);
                in_total += g.in_block_len(i, j);
            }
        }
        let degrees: u64 = g.out_degrees().iter().map(|&d| d as u64).sum();
        let want = g.num_edges();
        if out_total != want || in_total != want || degrees != want {
            return Err(format!(
                "verify failed: out-blocks {out_total}, in-blocks {in_total}, \
                 degrees {degrees}, expected {want}"
            ));
        }
        println!("verify: OK ({want} edges consistent across both orientations)");
    }
    let edges = dg.snapshot().map_err(|e| e.to_string())?.num_edges();
    println!(
        "applied {inserts} insert(s), {deletes} delete(s): {edges} edges, \
         {runs} delta run(s), {:.1} KB buffered",
        buffered as f64 / 1024.0
    );
    Ok(())
}

/// Fold all delta runs and buffered updates into a fresh base build
/// (atomic staged swap; readers opened afterwards see the new
/// generation).
fn cmd_compact(rest: &[&String]) -> CliResult {
    let dir = StorageDir::open(positional(rest, 0)?).map_err(|e| e.to_string())?;
    let mut dg = hus_core::DynamicGraph::open(dir).map_err(|e| e.to_string())?;
    let pending_runs = dg.run_count();
    let buffered = dg.memtable_len();
    let start = std::time::Instant::now();
    if !dg.compact().map_err(|e| e.to_string())? {
        println!("nothing to compact (no delta runs or buffered updates)");
        return Ok(());
    }
    let edges = dg.snapshot().map_err(|e| e.to_string())?.num_edges();
    println!(
        "folded {pending_runs} run(s) + {buffered} buffered update(s) into a new \
         base build: {edges} edges, {:.2}s",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn parse_edge_spec(spec: &str) -> Result<(u32, u32, f32), String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(format!("bad edge spec {spec:?} (want src,dst or src,dst,weight)"));
    }
    let src = parse(parts[0], "src vertex")?;
    let dst = parse(parts[1], "dst vertex")?;
    let w = match parts.get(2) {
        Some(s) => parse(s, "weight")?,
        None => 1.0,
    };
    Ok((src, dst, w))
}

enum Algo {
    Bfs,
    Sssp,
    Wcc,
}

fn parse_mode(rest: &[&String]) -> Result<UpdateMode, String> {
    Ok(match flag_value(rest, "--mode").unwrap_or("hybrid") {
        "hybrid" => UpdateMode::Hybrid,
        "rop" => UpdateMode::ForceRop,
        "cop" => UpdateMode::ForceCop,
        other => return Err(format!("unknown mode {other:?}")),
    })
}

/// Run the concurrent multi-query daemon over one graph directory
/// (DESIGN.md §12): MVCC snapshots pinned to the `MANIFEST` generation,
/// admission control (`--max-inflight`, rejected queries get a `busy`
/// error), per-query byte budgets (`--byte-budget`), and graceful drain
/// on SIGINT/SIGTERM or a `shutdown` wire op.
fn cmd_serve(rest: &[&String]) -> CliResult {
    // Start the metrics exporter (HUS_METRICS_ADDR) before serving so
    // serve.* metrics are scrapeable for the daemon's whole life; the
    // drain path below shuts it down again.
    hus_obs::init_from_env();
    let path = positional(rest, 0)?;
    let mut config = hus_serve::ServeConfig::from_env();
    if let Some(addr) = flag_value(rest, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(v) = flag_value(rest, "--max-inflight") {
        config.max_inflight = parse::<usize>(v, "max inflight")?.max(1);
    }
    if let Some(v) = flag_value(rest, "--byte-budget") {
        config.byte_budget = parse(v, "byte budget")?;
    }
    if let Some(v) = flag_value(rest, "--threads") {
        config.query_threads = parse::<usize>(v, "threads")?.max(1);
    }
    if let Some(v) = flag_value(rest, "--deadline-ms") {
        config.deadline_ms = parse(v, "deadline ms")?;
    }
    if let Some(v) = flag_value(rest, "--idle-ms") {
        config.idle_ms = parse(v, "idle ms")?;
    }
    let mut dir = StorageDir::open(path).map_err(|e| e.to_string())?;
    if let Some(kind) = parse_backend(rest)? {
        dir = dir.with_backend(kind);
    }
    let max_inflight = config.max_inflight;
    let mut server = hus_serve::serve(dir, config).map_err(|e| e.to_string())?;
    let snap = server.snapshots().current();
    println!(
        "serving {path} on {} (generation {}, {} delta run(s), {} query slots)",
        server.addr(),
        snap.generation(),
        snap.runs(),
        max_inflight,
    );
    drop(snap);
    server.wait();
    println!("serve: drained and stopped");
    Ok(())
}

fn parse_backend(rest: &[&String]) -> Result<Option<hus_storage::BackendKind>, String> {
    use hus_storage::BackendKind;
    match flag_value(rest, "--backend") {
        None => Ok(None),
        Some("file") => Ok(Some(BackendKind::File)),
        Some("mmap") => Ok(Some(BackendKind::Mmap)),
        Some("direct") => Ok(Some(BackendKind::Direct)),
        Some(other) => Err(format!("unknown backend {other:?} (file|mmap|direct)")),
    }
}

/// Open a graph directory for reading. Goes through [`hus_core::DynamicGraph`]
/// so any live delta runs are layered over the base — `hus pagerank`
/// on a directory with un-compacted streaming updates sees the updated
/// graph, not the stale base generation (DESIGN.md §11: reads must see
/// updates immediately).
fn open_graph(path: &str, rest: &[&String]) -> Result<HusGraph, String> {
    let mut dir = StorageDir::open(path).map_err(|e| e.to_string())?;
    if let Some(kind) = parse_backend(rest)? {
        dir = dir.with_backend(kind);
    }
    hus_core::DynamicGraph::open(dir)
        .and_then(hus_core::DynamicGraph::into_snapshot)
        .map_err(|e| e.to_string())
}

fn report_run(stats: &RunStats) {
    println!("\niter  model  active-vertices  active-edges");
    for itn in &stats.iterations {
        println!(
            "{:4}  {:5}  {:15}  {:12}",
            itn.iteration + 1,
            itn.model.to_string(),
            itn.active_vertices,
            itn.active_edges
        );
    }
    let model = CostModel::new(DeviceProfile::hdd());
    println!(
        "\n{} iterations, {:.1} MB I/O ({:.1} seq / {:.1} rand / {:.1} batched / {:.1} written)",
        stats.num_iterations(),
        stats.total_io.total_bytes() as f64 / 1e6,
        stats.total_io.seq_read_bytes as f64 / 1e6,
        stats.total_io.rand_read_bytes as f64 / 1e6,
        stats.total_io.batched_read_bytes as f64 / 1e6,
        stats.total_io.write_bytes as f64 / 1e6,
    );
    println!(
        "wall {:.2}s, modeled 7200rpm-HDD {:.2}s",
        stats.wall_seconds,
        stats.modeled_seconds(&model)
    );
}

fn run_program<Pr: VertexProgram>(
    g: &HusGraph,
    program: &Pr,
    mode: UpdateMode,
    max_iterations: usize,
) -> Result<(Vec<Pr::Value>, RunStats), String> {
    let config = RunConfig { mode, max_iterations, ..Default::default() };
    Engine::new(g, program, config).run().map_err(|e| e.to_string())
}

fn cmd_algo(rest: &[&String], algo: Algo) -> CliResult {
    let g = open_graph(positional(rest, 0)?, rest)?;
    let mode = parse_mode(rest)?;
    match algo {
        Algo::Bfs => {
            let source: u32 = parse(positional(rest, 1)?, "source")?;
            let (levels, stats) = run_program(&g, &Bfs::new(source), mode, 100_000)?;
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count();
            println!("BFS from {source}: reached {reached}/{} vertices", levels.len());
            report_run(&stats);
        }
        Algo::Sssp => {
            let source: u32 = parse(positional(rest, 1)?, "source")?;
            let (dist, stats) = run_program(&g, &Sssp::new(source), mode, 100_000)?;
            let reached = dist.iter().filter(|d| d.is_finite()).count();
            let max = dist.iter().filter(|d| d.is_finite()).fold(0.0f32, |a, &b| a.max(b));
            println!(
                "SSSP from {source}: reached {reached}/{} vertices, max distance {max:.2}",
                dist.len()
            );
            report_run(&stats);
        }
        Algo::Wcc => {
            let (labels, stats) = run_program(&g, &Wcc, mode, 100_000)?;
            let mut unique = labels.clone();
            unique.sort_unstable();
            unique.dedup();
            println!("WCC: {} components over {} vertices", unique.len(), labels.len());
            report_run(&stats);
        }
    }
    Ok(())
}

fn cmd_pagerank(rest: &[&String]) -> CliResult {
    let g = open_graph(positional(rest, 0)?, rest)?;
    let iters: usize =
        flag_value(rest, "--iters").map(|s| parse(s, "iterations")).transpose()?.unwrap_or(5);
    let top: usize = flag_value(rest, "--top").map(|s| parse(s, "top")).transpose()?.unwrap_or(10);
    let n = g.meta().num_vertices;
    let (ranks, stats) = run_program(&g, &PageRank::new(n), UpdateMode::Hybrid, iters)?;
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by(|&a, &b| ranks[b as usize].total_cmp(&ranks[a as usize]));
    println!("top {top} vertices by PageRank ({iters} iterations):");
    for &v in order.iter().take(top) {
        println!("  {v:10}  {:.8}", ranks[v as usize]);
    }
    report_run(&stats);
    Ok(())
}

fn cmd_diameter(rest: &[&String]) -> CliResult {
    let g = open_graph(positional(rest, 0)?, rest)?;
    let sources: usize =
        flag_value(rest, "--sources").map(|s| parse(s, "sources")).transpose()?.unwrap_or(16);
    let nf = hus_algos::diameter::estimate(&g, sources, 42, RunConfig::default())
        .map_err(|e| e.to_string())?;
    println!(
        "neighborhood function from {} sampled sources (graph: {} vertices):",
        nf.sources,
        g.meta().num_vertices
    );
    for (h, &c) in nf.counts.iter().enumerate() {
        println!("  depth {h:4}: {c:12} (source, vertex) pairs reached");
    }
    println!("effective diameter (90%): {}", nf.effective_diameter(0.9));
    println!("max sampled depth:        {}", nf.max_depth());
    Ok(())
}

/// Shared algorithm runner for `audit` and `top`: runs `algo` on `g`
/// with the given config and returns the run statistics.
fn run_named(g: &HusGraph, algo: &str, source: u32, config: RunConfig) -> Result<RunStats, String> {
    let n = g.meta().num_vertices;
    let stats = match algo {
        "pagerank" => Engine::new(g, &PageRank::new(n), config).run().map_err(|e| e.to_string())?.1,
        "bfs" => Engine::new(g, &Bfs::new(source), config).run().map_err(|e| e.to_string())?.1,
        "sssp" => Engine::new(g, &Sssp::new(source), config).run().map_err(|e| e.to_string())?.1,
        "wcc" => Engine::new(g, &Wcc, config).run().map_err(|e| e.to_string())?.1,
        other => return Err(format!("unknown algo {other:?} (bfs|sssp|wcc|pagerank)")),
    };
    Ok(stats)
}

fn print_hot_blocks(k: usize) {
    let hot = hus_obs::attr::top_k(k);
    if hot.is_empty() {
        return;
    }
    let mut t = hus_obs::Table::new(&[
        "block",
        "raw MB",
        "encoded MB",
        "cache hit%",
        "decode ms",
        "retries",
    ]);
    for b in &hot {
        t.row(vec![
            format!("({}, {})", b.i, b.j),
            format!("{:.2}", b.raw_bytes as f64 / 1e6),
            format!("{:.2}", b.encoded_bytes as f64 / 1e6),
            format!("{:.1}", b.hit_rate() * 100.0),
            format!("{:.2}", b.decode_ns as f64 / 1e6),
            b.retries.to_string(),
        ]);
    }
    t.print(&format!("hottest {} blocks by device bytes", hot.len()));
    print!("{}", hus_obs::attr::render_heatmap(&hus_obs::attr::snapshot()));
}

/// `hus audit`: replay an algorithm with full telemetry and render the
/// cost-model audit trail — per-iteration predicted `C_rop`/`C_cop`
/// against the I/O actually performed, the mean misprediction ratio,
/// and the hottest blocks by attributed device bytes.
fn cmd_audit(rest: &[&String]) -> CliResult {
    let g = open_graph(positional(rest, 0)?, rest)?;
    let algo = flag_value(rest, "--algo").unwrap_or("bfs");
    let iters: usize =
        flag_value(rest, "--iters").map(|s| parse(s, "iterations")).transpose()?.unwrap_or(50);
    let source: u32 =
        flag_value(rest, "--source").map(|s| parse(s, "source")).transpose()?.unwrap_or(0);
    let blocks: usize =
        flag_value(rest, "--blocks").map(|s| parse(s, "block count")).transpose()?.unwrap_or(10);
    let mode = parse_mode(rest)?;
    // The audit needs metrics and per-block attribution regardless of
    // the HUS_TRACE / HUS_HEATMAP environment.
    hus_obs::set_enabled(true);
    hus_obs::set_heatmap_enabled(true);
    hus_obs::attr::reset();
    let config = RunConfig { mode, max_iterations: iters, ..Default::default() };
    let throughput = config.throughput;
    let stats = run_named(&g, algo, source, config)?;
    println!(
        "cost-model audit: {algo}, {} iterations ({})",
        stats.num_iterations(),
        if stats.converged { "converged" } else { "iteration cap" }
    );
    println!("kept out-offsets: {:.3} MB", stats.kept_offset_bytes as f64 / 1e6);
    print!("{}", hus_core::audit::render_table(&hus_core::audit::audit_rows(&stats, &throughput)));
    print_hot_blocks(blocks);
    Ok(())
}

/// One refresh frame of `hus top`.
#[allow(clippy::too_many_arguments)]
fn draw_top_frame(
    algo: &str,
    iters: usize,
    started: std::time::Instant,
    io_now: &hus_storage::IoSnapshot,
    io_prev: &hus_storage::IoSnapshot,
    dt: f64,
    resilience: &hus_storage::ResilienceSnapshot,
    plain: bool,
) {
    if !plain {
        // Clear screen, home cursor.
        print!("\x1b[2J\x1b[H");
    }
    let reg = hus_obs::metrics::global();
    let gauge = |name: &str| {
        reg.gauge_values().iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
    };
    let counter = |name: &str| {
        reg.counter_values().iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
    };
    let rate = io_now.total_bytes().saturating_sub(io_prev.total_bytes()) as f64 / 1e6 / dt;
    println!(
        "hus top — {algo}  iter {}/{iters}  frontier {}  elapsed {:.1}s",
        gauge("engine.iteration") + 1,
        gauge("engine.active_vertices"),
        started.elapsed().as_secs_f64()
    );
    println!(
        "io: {:6.1} MB/s  read {:.1} MB (seq {:.1} / rand {:.1} / batched {:.1})  written {:.1} MB",
        rate,
        io_now.read_bytes() as f64 / 1e6,
        io_now.seq_read_bytes as f64 / 1e6,
        io_now.rand_read_bytes as f64 / 1e6,
        io_now.batched_read_bytes as f64 / 1e6,
        io_now.write_bytes as f64 / 1e6,
    );
    let (hits, misses) =
        (counter("storage.codec.cache_hits"), counter("storage.codec.cache_misses"));
    let hit_pct =
        if hits + misses > 0 { hits as f64 / (hits + misses) as f64 * 100.0 } else { 0.0 };
    println!(
        "decoded-block cache: {hit_pct:.1}% hit ({hits} hits / {misses} misses)  \
         predict: {} gated / {} rop / {} cop  edges {}",
        counter("predict.gated"),
        counter("predict.rop_selected"),
        counter("predict.cop_selected"),
        counter("engine.edges_processed"),
    );
    println!(
        "resilience: {} retries, {} giveups, {} checksum failures, \
         fallbacks {} mmap / {} direct",
        resilience.retries,
        resilience.giveups,
        resilience.checksum_failures,
        resilience.mmap_fallbacks,
        resilience.direct_fallbacks,
    );
    let heat = hus_obs::attr::render_heatmap(&hus_obs::attr::snapshot());
    if !heat.is_empty() {
        println!("\nblock heatmap (device bytes):\n{heat}");
    }
}

/// `hus top`: run an algorithm on a background thread and refresh a
/// compact live view (progress, throughput, cache hit rate, resilience
/// counters, block heatmap) until the run finishes.
fn cmd_top(rest: &[&String]) -> CliResult {
    let g = open_graph(positional(rest, 0)?, rest)?;
    let algo = flag_value(rest, "--algo").unwrap_or("pagerank").to_string();
    let iters: usize =
        flag_value(rest, "--iters").map(|s| parse(s, "iterations")).transpose()?.unwrap_or(10);
    let source: u32 =
        flag_value(rest, "--source").map(|s| parse(s, "source")).transpose()?.unwrap_or(0);
    let refresh_ms: u64 = flag_value(rest, "--refresh-ms")
        .map(|s| parse(s, "refresh interval"))
        .transpose()?
        .unwrap_or(500);
    let plain = has_flag(rest, "--plain");
    hus_obs::set_enabled(true);
    hus_obs::set_heatmap_enabled(true);
    hus_obs::attr::reset();
    let tracker = g.dir().tracker();
    let resilience = g.dir().resilience();
    let config = RunConfig { max_iterations: iters, ..RunConfig::with_mode(parse_mode(rest)?) };
    let started = std::time::Instant::now();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let worker = {
        let algo = algo.clone();
        std::thread::spawn(move || {
            let r = run_named(&g, &algo, source, config);
            drop(done_tx); // disconnects the channel: run is over
            r
        })
    };
    let mut prev = tracker.snapshot();
    let mut prev_t = started;
    while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        done_rx.recv_timeout(std::time::Duration::from_millis(refresh_ms.max(50)))
    {
        let now = tracker.snapshot();
        let now_t = std::time::Instant::now();
        let dt = (now_t - prev_t).as_secs_f64().max(1e-6);
        draw_top_frame(&algo, iters, started, &now, &prev, dt, &resilience.snapshot(), plain);
        prev = now;
        prev_t = now_t;
    }
    let stats = worker.join().map_err(|_| "run thread panicked".to_string())??;
    let final_io = tracker.snapshot();
    draw_top_frame(
        &algo,
        iters,
        started,
        &final_io,
        &prev,
        (std::time::Instant::now() - prev_t).as_secs_f64().max(1e-6),
        &resilience.snapshot(),
        plain,
    );
    report_run(&stats);
    Ok(())
}

fn cmd_convert(rest: &[&String]) -> CliResult {
    let input = positional(rest, 0)?;
    let output = positional(rest, 1)?;
    let el = if input.ends_with(".husg") {
        hus_gen::io::read_binary(input).map_err(|e| e.to_string())?
    } else {
        hus_gen::io::read_text(input).map_err(|e| e.to_string())?
    };
    if output.ends_with(".husg") {
        hus_gen::io::write_binary(&el, output).map_err(|e| e.to_string())?;
    } else {
        hus_gen::io::write_text(&el, output).map_err(|e| e.to_string())?;
    }
    println!(
        "converted {} -> {} ({} vertices, {} edges{})",
        input,
        output,
        el.num_vertices,
        el.num_edges(),
        if el.is_weighted() { ", weighted" } else { "" }
    );
    Ok(())
}

fn cmd_probe(rest: &[&String]) -> CliResult {
    let dir = rest
        .first()
        .map(|s| std::path::PathBuf::from(s.as_str()))
        .unwrap_or_else(std::env::temp_dir);
    let report = hus_storage::probe::measure(&dir, &hus_storage::probe::ProbeOptions::default())
        .map_err(|e| e.to_string())?;
    println!("throughput probe in {}:", dir.display());
    println!("  sequential read: {:8.1} MB/s", report.read.sequential_bps / 1e6);
    println!("  random read:     {:8.1} MB/s", report.read.random_bps / 1e6);
    println!("  batched (est.):  {:8.1} MB/s", report.read.batched_bps / 1e6);
    println!("  write:           {:8.1} MB/s", report.write_bps / 1e6);
    println!("(page cache inflates these on most hosts; see hus-storage::probe docs)");
    Ok(())
}
