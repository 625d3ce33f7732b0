//! What the benchmark is: workload names, metric names, units, bounds.
//! `BENCHMARK.json` at the repository root is this file rendered by
//! [`benchmark_json`]; a unit test keeps the two equal.

/// `--seconds` the driver passes; also the default.
pub const RUN_SECONDS: u64 = 16;

/// `(name, CPUs in its mask, why it exists)`.
pub const WORKLOADS: [(&str, usize, &str); 5] = [
    ("pr_dv", 1, "all-active PageRank on a delta-varint graph, one CPU: COP streaming, readahead and codec decode do all the work"),
    ("pr_par", 2, "the same PageRank on the default raw codec with two CPUs: the only row where rayon fan-out and producer/consumer overlap count"),
    ("bfs_mesh", 1, "BFS on a small-world mesh: ~150 iterations near the ROP/COP crossover, so predictor choice and selective reads decide bytes and time"),
    ("delta_mixed", 1, "800k updates in 8 flushed batches, PageRank over the 8 live runs, then compaction: write, overlay-read and fold cost in one row"),
    ("lookup_serve", 1, "closed-loop degree/neighbors/khop lookups from one client against the in-process daemon: the served point-read path"),
];

/// `(name, unit, better, bound)`; every one is defined on every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("io_mb", "MB", "lower", 0.10),
    ("modeled_hdd_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("disk_bytes_per_edge", "B/edge", "lower", 0.02),
];

/// The two wall-clock end-to-end metrics are reported as the fastest of a
/// run's repetitions; every other list as its median. On this shared
/// 2-vCPU guest interference only ever adds time, in episodes of seconds
/// to minutes: over two sets of ten runs the medians of `pr_dv` samples
/// spread 7 % and 27 %, their minima 12 % and 13 % (README, "Steadiness").
pub fn reported_as_fastest(metric: &str) -> bool {
    matches!(metric, "setup_s" | "run_s")
}

/// `(name, unit, better)`. Reported on every workload; 0 where the
/// workload never calls the layer (see README, "Per-layer metrics").
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    // harness / host
    ("host.calib_ms", "ms", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("gen.input_s", "s", "lower"),
    // hus-storage
    ("storage.os_seq_mbps", "MB/s", "higher"),
    ("storage.file_seq_mbps", "MB/s", "higher"),
    ("storage.mmap_seq_mbps", "MB/s", "higher"),
    ("storage.direct_seq_mbps", "MB/s", "higher"),
    ("storage.rand_read_us", "us", "lower"),
    ("storage.read_ranges64_us", "us", "lower"),
    ("storage.durable_write_ms", "ms", "lower"),
    ("storage.crc32c_mbps", "MB/s", "higher"),
    ("storage.seq_read_mb", "MB", "lower"),
    ("storage.rand_read_ops", "count", "lower"),
    ("storage.write_mb", "MB", "lower"),
    ("storage.retries", "count", "lower"),
    // hus-codec / codec_backend
    ("codec.decode_mbps", "MB/s", "higher"),
    ("codec.ratio", "ratio", "higher"),
    ("codec.decode_s", "s", "lower"),
    ("codec.cache_hit_ratio", "ratio", "higher"),
    ("codec.dv_over_raw_io", "ratio", "lower"),
    ("codec.dv_over_raw_wall", "ratio", "lower"),
    ("codec.hit_read_us", "us", "lower"),
    ("codec.miss_read_us", "us", "lower"),
    // hus-core::builder / external
    ("build.medges_per_s", "Medges/s", "higher"),
    ("build.ext_medges_per_s", "Medges/s", "higher"),
    // hus-core::graph
    ("graph.open_ms", "ms", "lower"),
    ("graph.stream_in_ns_per_edge", "ns", "lower"),
    ("graph.index_entry_us", "us", "lower"),
    ("graph.out_records_us", "us", "lower"),
    ("graph.record_ranges_us", "us", "lower"),
    // hus-core::predict
    ("predict.rop_iters", "count", "higher"),
    ("predict.cop_iters", "count", "lower"),
    ("predict.mispredict_pct", "%", "lower"),
    ("predict.hybrid_over_best_modeled", "ratio", "lower"),
    ("predict.hybrid_over_best_wall", "ratio", "lower"),
    // hus-core::engine / rop / cop / vertex_store
    ("engine.predict_s", "s", "lower"),
    ("engine.rop_s", "s", "lower"),
    ("engine.cop_s", "s", "lower"),
    ("engine.gather_s", "s", "lower"),
    ("engine.sync_s", "s", "lower"),
    ("engine.other_s", "s", "lower"),
    ("engine.iter_overhead_us", "us", "lower"),
    ("engine.scaling_2cpu", "ratio", "higher"),
    ("cop.mbps", "MB/s", "higher"),
    ("cop.queue_wait_s", "s", "lower"),
    ("rop.ns_per_active_edge", "ns", "lower"),
    ("vstore.load_s", "s", "lower"),
    ("vstore.write_s", "s", "lower"),
    // vendor/rayon
    ("rayon.dispatch_us", "us", "lower"),
    // hus-core::delta
    ("delta.ingest_s", "s", "lower"),
    ("delta.flush_ms", "ms", "lower"),
    ("delta.open_snapshot_s", "s", "lower"),
    ("delta.read_s", "s", "lower"),
    ("delta.read_amp", "ratio", "lower"),
    ("delta.compact_s", "s", "lower"),
    ("delta.write_amp", "ratio", "lower"),
    ("delta.space_amp", "ratio", "lower"),
    // hus-serve
    ("serve.parse_ns", "ns", "lower"),
    ("serve.admit_pin_ns", "ns", "lower"),
    ("serve.exec_degree_ns", "ns", "lower"),
    ("serve.exec_neighbors_us", "us", "lower"),
    ("serve.exec_khop_us", "us", "lower"),
    ("serve.render_ns", "ns", "lower"),
    ("serve.socket_us", "us", "lower"),
    ("serve.lookup_qps", "1/s", "higher"),
    ("serve.lookup_p50_us", "us", "lower"),
    ("serve.lookup_p99_us", "us", "lower"),
    ("serve.rejected", "count", "lower"),
];

/// CPUs in `workload`'s mask, or `None` for an unknown name.
pub fn cpus_of(workload: &str) -> Option<usize> {
    WORKLOADS.iter().find(|w| w.0 == workload).map(|w| w.1)
}

/// Unit of a metric of either kind.
pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == metric)
        .map_or("", |m| m.1)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let mut s = String::from("{\n");
    s += &format!("  \"command\": [{}],\n", quoted.join(", "));
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, _, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `husbench --print-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, _, why) in WORKLOADS {
            assert!(name_ok(n) && seen.insert(n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{n}");
        }
        for (n, u, b, bound) in END_TO_END {
            assert!(name_ok(n) && unit_ok(u) && seen.insert(n), "{n}");
            assert!(b == "lower" || b == "higher");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (n, u, b) in PER_LAYER {
            assert!(name_ok(n) && unit_ok(u) && seen.insert(n), "{n}");
            assert!(b == "lower" || b == "higher");
        }
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        assert!(benchmark_json().len() < 64 << 10);
    }
}
