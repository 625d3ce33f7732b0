//! Ablation — the predictor's formula variant (paper §3.4).
//!
//! Runs BFS and WCC on SK2005 under the hybrid with the refined
//! predictor (the executors' own I/O plans, priced on every iteration
//! that has an inactive vertex) and with the paper-literal one (the
//! closed-form costs, priced only below the paper's 5 % active-fraction
//! gate).

use hus_bench::fmt_secs;
use hus_bench::harness::{env_p, env_threads, modeled_hdd_seconds};
use hus_bench::{build_stores, run_hus, workload, AlgoKind, Table};
use hus_core::{RunConfig, UpdateModel};
use hus_gen::Dataset;

fn main() {
    let scale = hus_gen::datasets::env_scale();
    let p = env_p();
    let threads = env_threads();
    println!("# Ablation: predictor formula variant (SK2005, scale {scale}, P={p})");

    for algo in [AlgoKind::Bfs, AlgoKind::Wcc] {
        let tmp = tempfile::tempdir().expect("tempdir");
        let w = workload(Dataset::Sk2005, algo);
        let stores = build_stores(&w.el, p, tmp.path()).expect("build");
        let mut t =
            Table::new(&["predictor", "modeled time", "I/O (MB)", "ROP iters", "COP iters"]);
        for paper_literal in [false, true] {
            stores.hus.dir().tracker().reset();
            let cfg =
                RunConfig { paper_literal_predictor: paper_literal, threads, ..Default::default() };
            let stats = run_hus(&stores.hus, &w, cfg).expect("run");
            t.row(vec![
                if paper_literal { "paper-literal" } else { "refined" }.to_string(),
                fmt_secs(modeled_hdd_seconds(&stats)),
                format!("{:.1}", stats.total_io.total_bytes() as f64 / 1e6),
                stats.iterations_with_model(UpdateModel::Rop).to_string(),
                stats.iterations_with_model(UpdateModel::Cop).to_string(),
            ]);
        }
        t.print(&format!("{} on SK2005", algo.name()));
    }
    println!(
        "\nShape check: the paper-literal formula never picks ROP (its vertex \
         term is billed at small-request random throughput), so it degenerates \
         to all-COP; the refined predictor recovers the published hybrid \
         behavior."
    );
}
