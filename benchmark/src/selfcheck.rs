//! `--selfcheck N`: the acceptance test the driver applies, run here.
//! Every workload is run over seeds 1..=N twice; for each (end-to-end
//! metric, workload) it prints the middle-half spread of each set as a
//! share of its median, and how much worse the second set's median is
//! than the first's, against the metric's bound.

use crate::parent::{self, Options};
use crate::spec;
use crate::stats::{median, spread};
use std::path::Path;
use std::process::ExitCode;

pub fn run(
    n: u64,
    seconds: f64,
    quick: bool,
    scratch: &Path,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    // values[set][workload][metric] = one value per seed
    let mut values = vec![vec![vec![Vec::new(); spec::END_TO_END.len()]; spec::WORKLOADS.len()]; 2];
    let mut all_correct = true;
    for set in values.iter_mut() {
        for (w, (workload, _, _)) in spec::WORKLOADS.iter().enumerate() {
            for seed in 1..=n {
                let opts = Options {
                    workload: workload.to_string(),
                    seed,
                    seconds,
                    traced: false,
                    quick,
                    scratch: scratch.to_path_buf(),
                };
                let outcome = parent::run(&opts)?;
                all_correct &= outcome.correct;
                eprint!("selfcheck seed {seed}:\n{}", outcome.table());
                for (m, (metric, ..)) in spec::END_TO_END.iter().enumerate() {
                    set[w][m].push(outcome.samples.value(metric));
                }
            }
        }
    }
    println!("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | drift | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut within = all_correct;
    for (w, (workload, _, _)) in spec::WORKLOADS.iter().enumerate() {
        for (m, (metric, _, better, bound)) in spec::END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (ma, mb) = (median(a), median(b));
            // How much worse the second median is than the first.
            let drift = if *better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
            // The driver does not hold set-up time's spread to its bound.
            let spread_ok = *metric == "setup_s" || (spread(a) <= *bound && spread(b) <= *bound);
            let ok = spread_ok && drift <= *bound;
            within &= ok;
            println!(
                "| {workload} | {metric} | {ma:.6} | {:.2} % | {mb:.6} | {:.2} % | {:+.2} % | {:.0} % | {} |",
                spread(a) * 100.0,
                spread(b) * 100.0,
                drift * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(if within { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
