//! `husbench`: the repository's benchmark. See `benchmark/README.md` for
//! the run model, the workloads and every metric's definition.
//!
//! ```text
//! husbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--scratch <dir>]
//! husbench --selfcheck <N> [--seconds <s>] [--quick] [--scratch <dir>]
//! husbench --print-spec
//! ```

mod delta_wl;
mod engine_wl;
mod harness;
mod host;
mod inputs;
mod parent;
mod probes;
mod report;
mod selfcheck;
mod serve_wl;
mod setup;
mod spec;
mod stats;
mod trace;

use parent::Options;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: husbench --workload <pr_dv|pr_par|bfs_mesh|delta_mixed|lookup_serve> \
--seed <n> --seconds <s> --trace <0|1> [--quick] [--scratch <dir>]\n       \
husbench --selfcheck <N> [--seconds <s>] [--quick] [--scratch <dir>]\n       \
husbench --print-spec";

/// `--flag value` pairs and bare flags.
fn parse_args() -> Result<BTreeMap<String, String>, String> {
    let mut args = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = match name {
            "quick" | "print-spec" => String::new(),
            "workload" | "seed" | "seconds" | "trace" | "scratch" | "selfcheck" | "child"
            | "dir" => it.next().ok_or_else(|| format!("--{name} needs a value"))?,
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        args.insert(name.to_string(), value);
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(
    args: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.get(name) {
        Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read `{v}`")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn real_main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args = parse_args()?;
    if args.contains_key("print-spec") {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    let traced = number::<u8>(&args, "trace", Some(0))? == 1;
    let seconds = number::<f64>(&args, "seconds", Some(spec::RUN_SECONDS as f64))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }

    if let Some(role) = args.get("child") {
        let workload = args.get("workload").ok_or("--child needs --workload")?;
        let wdir = PathBuf::from(args.get("dir").ok_or("--child needs --dir")?);
        let mut out = match (role.as_str(), workload.as_str()) {
            ("build", _) => setup::run(workload, &wdir, traced)?,
            ("run", "delta_mixed") => delta_wl::run(&wdir, seconds, traced)?,
            ("run", "lookup_serve") => serve_wl::run(&wdir, seconds, traced)?,
            ("run", _) => engine_wl::run(workload, &wdir, seconds, traced)?,
            _ => return Err(format!("unknown child role `{role}`").into()),
        };
        if role == "run" {
            out.push("peak_rss_mb", host::peak_rss_mb());
            if traced {
                trace::finish(&wdir.with_file_name(format!("trace_{workload}.jsonl")))?;
            }
        }
        out.save(&wdir.join(format!("{role}.kv")))?;
        return Ok(ExitCode::SUCCESS);
    }

    // Refuse before anything is written: the CPU mask is the workload's
    // machine size, and `pr_par` needs two.
    if host::allowed_cpus().len() < 2 {
        eprintln!("husbench: fewer than 2 CPUs allowed ({})", host::facts());
        return Ok(ExitCode::from(parent::EXIT_TOO_FEW_CPUS));
    }
    let quick = args.contains_key("quick");
    let scratch = args.get("scratch").map_or_else(parent::default_scratch, PathBuf::from);
    if let Some(n) = args.get("selfcheck") {
        let n: u64 = n.parse().map_err(|_| "--selfcheck: not a number")?;
        return selfcheck::run(n.max(2), seconds, quick, &scratch);
    }
    let opts = Options {
        workload: args.get("workload").ok_or("--workload is required")?.clone(),
        seed: number(&args, "seed", None)?,
        seconds,
        traced,
        quick,
        scratch,
    };
    eprintln!("husbench: {} seed {} {}", opts.workload, opts.seed, host::facts());
    let outcome = parent::run(&opts)?;
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("husbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
