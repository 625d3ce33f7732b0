//! Profiler: run one (dataset, algorithm, system) combination with
//! tracing enabled, then render the run's per-phase breakdown and its
//! hottest blocks from the JSONL trace.
//!
//! ```text
//! debug_profile [DATASET] [ALGO] [SYSTEM]
//!   DATASET  livejournal | twitter | sk2005 | uk2007 | ukunion   (default: twitter)
//!   ALGO     pagerank | bfs | wcc | sssp                         (default: bfs)
//!   SYSTEM   hus | rop | cop | gridgraph | graphchi | xstream | semiext
//!                                                                (default: hus)
//! ```
//!
//! When `HUS_TRACE` is already set the trace is written there (and kept);
//! otherwise a scratch trace file is used. The usual `HUS_SCALE`,
//! `HUS_P`, `HUS_THREADS` knobs apply.

use hus_bench::*;
use hus_gen::Dataset;
use hus_obs::Table;
use serde_json::Value;

fn parse_dataset(s: &str) -> Option<Dataset> {
    match s.to_ascii_lowercase().as_str() {
        "livejournal" | "lj" => Some(Dataset::LiveJournal),
        "twitter" | "twitter2010" => Some(Dataset::Twitter2010),
        "sk2005" | "sk" => Some(Dataset::Sk2005),
        "uk2007" | "uk" => Some(Dataset::Uk2007),
        "ukunion" => Some(Dataset::UkUnion),
        _ => None,
    }
}

fn parse_algo(s: &str) -> Option<AlgoKind> {
    match s.to_ascii_lowercase().as_str() {
        "pagerank" | "pr" => Some(AlgoKind::PageRank),
        "bfs" => Some(AlgoKind::Bfs),
        "wcc" => Some(AlgoKind::Wcc),
        "sssp" => Some(AlgoKind::Sssp),
        _ => None,
    }
}

fn parse_system(s: &str) -> Option<SystemKind> {
    match s.to_ascii_lowercase().as_str() {
        "hus" | "hybrid" => Some(SystemKind::Hus),
        "rop" => Some(SystemKind::HusRop),
        "cop" => Some(SystemKind::HusCop),
        "gridgraph" | "grid" => Some(SystemKind::GridGraph),
        "graphchi" | "psw" => Some(SystemKind::GraphChi),
        "xstream" | "xs" => Some(SystemKind::XStream),
        "semiext" | "semi" | "semiexternal" => Some(SystemKind::SemiExternal),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: debug_profile [DATASET] [ALGO] [SYSTEM]\n\
         \x20 DATASET  livejournal|twitter|sk2005|uk2007|ukunion (default twitter)\n\
         \x20 ALGO     pagerank|bfs|wcc|sssp (default bfs)\n\
         \x20 SYSTEM   hus|rop|cop|gridgraph|graphchi|xstream|semiext (default hus)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        usage();
    }
    let dataset = match args.first() {
        Some(s) => parse_dataset(s).unwrap_or_else(|| usage()),
        None => Dataset::Twitter2010,
    };
    let algo = match args.get(1) {
        Some(s) => parse_algo(s).unwrap_or_else(|| usage()),
        None => AlgoKind::Bfs,
    };
    let system = match args.get(2) {
        Some(s) => parse_system(s).unwrap_or_else(|| usage()),
        None => SystemKind::Hus,
    };

    // Trace destination: honor HUS_TRACE when the caller set it, fall
    // back to a scratch file. Must happen before the first engine run
    // (init_from_env is one-shot).
    let tmp = tempfile::tempdir().unwrap();
    let keep_trace = std::env::var(hus_obs::TRACE_ENV).map(|v| !v.is_empty()).unwrap_or(false);
    let trace_path = if keep_trace {
        std::env::var(hus_obs::TRACE_ENV).unwrap()
    } else {
        let p = tmp.path().join("profile.jsonl").to_string_lossy().into_owned();
        std::env::set_var(hus_obs::TRACE_ENV, &p);
        p
    };
    hus_obs::init_from_env();
    // Profiling wants the per-block attribution registry regardless of
    // whether the caller exported HUS_HEATMAP.
    hus_obs::set_heatmap_enabled(true);

    let p = harness::env_p();
    let threads = harness::env_threads();
    let w = workload(dataset, algo);
    println!(
        "profiling {} / {} / {}  (|V|={}, |E|={}, P={p}, {threads} threads)",
        w.name,
        algo.name(),
        system.name(),
        w.el.num_vertices,
        w.el.num_edges()
    );
    let stores = build_stores(&w.el, p, &tmp.path().join("stores")).unwrap();
    let stats = run_system(&stores, system, &w, threads).unwrap();

    println!("\n{}", stats.summary());

    // Per-iteration profile (the raw data behind Figures 7 and 8).
    let model = hus_storage::CostModel::new(hus_storage::DeviceProfile::hdd());
    println!("\nper-iteration cost profile:");
    for it in &stats.iterations {
        println!(
            "  it{:2} {:4} act_v={:7} act_e={:9} modeled={:8.4}s seq={:8.1}K rand={:7.1}K batched={:8.1}K wr={:7.1}K",
            it.iteration,
            it.model.to_string(),
            it.active_vertices,
            it.active_edges,
            it.modeled_seconds(&model, stats.threads),
            it.io.seq_read_bytes as f64 / 1e3,
            it.io.rand_read_bytes as f64 / 1e3,
            it.io.batched_read_bytes as f64 / 1e3,
            it.io.write_bytes as f64 / 1e3
        );
    }

    // Cost-model audit trail: the predictor's committed C_rop/C_cop per
    // iteration against the I/O the iteration actually performed (HUS
    // engines only; the baselines never run the predictor).
    if matches!(system, SystemKind::Hus | SystemKind::HusRop | SystemKind::HusCop) {
        let tput = harness::env_probe_throughput()
            .unwrap_or_else(|| hus_storage::DeviceProfile::hdd().read);
        println!("\ncost-model audit (predicted vs actual, predictor throughputs):");
        print!("{}", hus_core::audit::render_table(&hus_core::audit::audit_rows(&stats, &tput)));
    }

    // Phase breakdown aggregated from the engine's in-band stats.
    let mut phase_table = Table::new(&["phase", "spans", "wall", "share", "io"]);
    let total_phase_wall: f64 =
        stats.iterations.iter().flat_map(|it| &it.phases).map(|p| p.wall_seconds).sum();
    let mut names: Vec<&str> = Vec::new();
    for it in &stats.iterations {
        for ph in &it.phases {
            if !names.contains(&ph.name.as_str()) {
                names.push(&ph.name);
            }
        }
    }
    for name in &names {
        let (mut wall, mut count, mut io) = (0.0, 0u64, 0u64);
        for it in &stats.iterations {
            for ph in it.phases.iter().filter(|p| p.name == *name) {
                wall += ph.wall_seconds;
                count += ph.count;
                io += ph.io_bytes;
            }
        }
        phase_table.row(vec![
            name.to_string(),
            count.to_string(),
            hus_obs::fmt_secs(wall),
            format!("{:.1}%", 100.0 * wall / total_phase_wall.max(1e-12)),
            hus_obs::fmt_gb(io),
        ]);
    }
    println!("\nphase breakdown (all iterations):");
    println!("{}", phase_table.render());

    // Registry metrics accumulated across the run (includes the storage
    // layer's latency histograms and the predictor's decision counters).
    let counters = hus_obs::metrics::global().counter_values();
    if !counters.is_empty() {
        let mut t = Table::new(&["counter", "value"]);
        for (name, v) in &counters {
            t.row(vec![name.to_string(), v.to_string()]);
        }
        println!("counters:");
        println!("{}", t.render());
    }
    let gauges = hus_obs::metrics::global().gauge_values();
    if !gauges.is_empty() {
        let mut t = Table::new(&["gauge", "value"]);
        for (name, v) in &gauges {
            t.row(vec![name.to_string(), v.to_string()]);
        }
        println!("gauges (last set value):");
        println!("{}", t.render());
    }
    let hists = hus_obs::metrics::global().histogram_snapshots();
    if !hists.is_empty() {
        let mut t = Table::new(&["histogram", "count", "mean", "p50", "p99"]);
        for (name, h) in &hists {
            t.row(vec![
                name.to_string(),
                h.count.to_string(),
                format!("{:.1}", h.mean()),
                h.quantile(0.5).to_string(),
                h.quantile(0.99).to_string(),
            ]);
        }
        println!("histograms (*_ns in nanoseconds; quantiles are pow-2 bucket bounds):");
        println!("{}", t.render());
    }

    // Hottest blocks by attributed device traffic: what each (i, j)
    // edge block actually cost in raw bytes, cache behavior and decode
    // time (per-block attribution registry).
    let hot_blocks = hus_obs::attr::top_k(10);
    if !hot_blocks.is_empty() {
        let mut t = Table::new(&["block", "raw", "encoded", "cache hit%", "decode", "retries"]);
        for b in &hot_blocks {
            t.row(vec![
                format!("({}, {})", b.i, b.j),
                hus_obs::fmt_gb(b.raw_bytes),
                hus_obs::fmt_gb(b.encoded_bytes),
                format!("{:.1}", b.hit_rate() * 100.0),
                hus_obs::fmt_secs(b.decode_ns as f64 * 1e-9),
                b.retries.to_string(),
            ]);
        }
        println!("hottest blocks (attribution registry):");
        println!("{}", t.render());
        print!("{}", hus_obs::attr::render_heatmap(&hus_obs::attr::snapshot()));
    }

    // Hottest blocks: the longest unit spans in the trace file.
    let text = std::fs::read_to_string(&trace_path).unwrap_or_default();
    let mut hot: Vec<(u64, u64, String, u64)> = Vec::new(); // (dur, iter, name, interval)
    for line in text.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if v.get("type") != Some(&Value::Str("span".into())) {
            continue;
        }
        let Some(&Value::U64(interval)) = v.get("interval") else {
            continue;
        };
        let Some(&Value::U64(dur)) = v.get("dur_ns") else {
            continue;
        };
        let Some(&Value::U64(iter)) = v.get("iteration") else {
            continue;
        };
        let Some(Value::Str(name)) = v.get("name") else {
            continue;
        };
        hot.push((dur, iter, name.clone(), interval));
    }
    hot.sort_by_key(|h| std::cmp::Reverse(h.0));
    let k = 10.min(hot.len());
    let mut hot_table = Table::new(&["span", "iter", "interval", "wall"]);
    for (dur, iter, name, interval) in hot.iter().take(k) {
        hot_table.row(vec![
            name.clone(),
            iter.to_string(),
            interval.to_string(),
            hus_obs::fmt_secs(*dur as f64 * 1e-9),
        ]);
    }
    println!("top-{k} hottest blocks (from {trace_path}):");
    println!("{}", hot_table.render());

    // Consistency check: phase wall times should cover the iteration.
    let engine_wall: f64 = stats.iterations.iter().map(|it| it.wall_seconds).sum();
    if engine_wall > 0.0 {
        println!(
            "phase coverage: {:.1}% of {:.3}s iteration wall",
            100.0 * total_phase_wall / engine_wall,
            engine_wall
        );
    }
    if !keep_trace {
        println!("(trace discarded; set {}=path.jsonl to keep it)", hus_obs::TRACE_ENV);
    }
}
