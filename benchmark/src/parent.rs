//! The parent: generates a run's inputs, has a build child and a run child
//! do the program's work, and turns what they report into the metrics.

use crate::harness::Res;
use crate::report::{Outcome, Samples};
use crate::{host, inputs, probes, spec};
use husgraph::storage::StorageDir;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Instant;

/// Exit code when fewer than two CPUs are allowed.
pub const EXIT_TOO_FEW_CPUS: u8 = 3;

#[derive(Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub scratch: PathBuf,
}

/// `benchmark/scratch` under the checkout the command is run from, else
/// next to this package's manifest.
pub fn default_scratch() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/scratch")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch")
    }
}

/// A child that is killed and waited for if it is still there on drop.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Run this executable as the `role` child of `opts` and load what it
/// wrote. `run` has already dropped every `HUS_*` from the environment the
/// child inherits; it gets exactly one back, the stated flush policy.
fn child(role: &str, opts: &Options, wdir: &Path) -> Res<Samples> {
    let results = wdir.join(format!("{role}.kv"));
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--child", role, "--workload", &opts.workload])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(wdir);
    cmd.env("HUS_NO_FSYNC", "1");
    let mut child = Reaped(cmd.spawn()?);
    let status = child.0.wait()?;
    if !status.success() {
        return Err(format!("{role} child of {} ended with {status}", opts.workload).into());
    }
    Samples::load(&results)
}

/// One benchmark run. Never prints the result line: the caller does.
pub fn run(opts: &Options) -> Res<Outcome> {
    if spec::cpus_of(&opts.workload).is_none() {
        return Err(format!("unknown workload `{}`", opts.workload).into());
    }
    // The parent keeps fsync live for `storage.durable_write_ms`; any
    // other inherited knob would change what the library does for it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("HUS_") {
            std::env::remove_var(key);
        }
    }
    std::fs::create_dir_all(&opts.scratch)?;
    let fs = host::fs_type(&opts.scratch);
    if fs == "tmpfs" || fs == "ramfs" {
        eprintln!(
            "warning: scratch {} is on {fs}: reads never leave memory",
            opts.scratch.display()
        );
    }
    let wdir = opts.scratch.join(&opts.workload);
    crate::setup::remove_dir(&wdir);

    let result = (|| -> Res<Samples> {
        let t0 = Instant::now();
        inputs::generate(&opts.workload, opts.seed, opts.quick, &wdir.join("in"))?;
        let mut all = Samples::default();
        all.push("gen.input_s", t0.elapsed().as_secs_f64());
        if opts.traced {
            let dir = StorageDir::create(wdir.join("durable"))?;
            let block = vec![0xa5u8; 1 << 20];
            all.push(
                "storage.durable_write_ms",
                probes::median_ms("storage.durable_write", 5, |k| {
                    Ok(dir.durable_write(&format!("w{k}"), &block)?)
                })?,
            );
        }
        all.absorb(child("build", opts, &wdir)?);
        all.absorb(child("run", opts, &wdir)?);
        Ok(all)
    })();
    crate::setup::remove_dir(&wdir);
    let samples = result?;

    let names: Vec<&'static str> = if opts.traced {
        spec::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.0).collect()
    };
    let failed = samples.value("failed") as u64;
    let complete = names.iter().all(|n| opts.traced || samples.value(n) > 0.0);
    Ok(Outcome {
        workload: opts.workload.clone(),
        attempted: samples.value("attempted") as u64,
        failed,
        correct: failed == 0 && complete,
        samples,
        names,
    })
}
