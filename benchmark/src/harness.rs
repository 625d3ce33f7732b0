//! What every child shares: timing a call under a span, the sample loop,
//! and reading the program's own metric registry.

use crate::report::Samples;
use crate::stats::median;
use crate::{host, trace};
use husgraph::obs;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Run `f` under a span called `name`; returns its result and seconds.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = trace::span(name);
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Share of `--seconds` a traced run gives to samples; probes get the rest.
pub const REGION_SHARE: f64 = 0.75;

/// Which sample the loop is asking for.
#[derive(Clone, Copy)]
pub struct SampleCtx {
    /// The warm-up has id 0; measured samples count from 1.
    pub id: u32,
    /// Spans and the program's `hus_obs` collection are on.
    pub traced: bool,
    /// False for the warm-up, whose numbers are thrown away.
    pub keep: bool,
}

/// One discarded warm-up sample (unless the caller has just run one),
/// then samples until `seconds` have passed and enough exist: five, or in
/// a traced run three plain and three traced ones, alternating so the two
/// kinds are neighbours in time. A traced run's samples get
/// [`REGION_SHARE`] of `seconds`, and the calibration kernel runs before
/// and after them. When the hypervisor kept more than 1 % of the region's
/// CPU time from this guest, stderr says so: those timings are the host's,
/// not the program's.
pub fn sample_loop(
    seconds: f64,
    traced_run: bool,
    warm_up: bool,
    mut sample: impl FnMut(SampleCtx) -> Res<()>,
) -> Res<HostRows> {
    let seconds = if traced_run { seconds * REGION_SHARE } else { seconds };
    let calib_before = if traced_run { host::calibrate_ms() } else { 0.0 };
    let mut run = |id: u32, traced: bool, keep: bool| {
        trace::set_sample(id);
        trace::set_on(traced);
        obs::set_enabled(traced);
        let r = sample(SampleCtx { id, traced, keep });
        trace::set_on(false);
        obs::set_enabled(false);
        r
    };
    if warm_up {
        run(0, false, false)?;
    }
    let (t0, steal0) = (Instant::now(), host::steal_seconds());
    let min = if traced_run { 6 } else { 5 };
    let mut id = 0;
    while id < min || t0.elapsed().as_secs_f64() < seconds {
        id += 1;
        run(id, traced_run && id % 2 == 0, true)?;
    }
    let cpu_seconds = t0.elapsed().as_secs_f64() * host::allowed_cpus().len().max(1) as f64;
    let steal_pct = (host::steal_seconds() - steal0) / cpu_seconds * 100.0;
    if steal_pct > 1.0 {
        eprintln!("husbench: the host took {steal_pct:.1} % of this run's CPU time (steal)");
    }
    let calib_ms = if traced_run { (calib_before + host::calibrate_ms()) / 2.0 } else { 0.0 };
    Ok(HostRows { calib_ms, steal_pct })
}

/// What the sample region saw of the host.
pub struct HostRows {
    calib_ms: f64,
    steal_pct: f64,
}

impl HostRows {
    /// The harness rows of a traced run, whose plain and traced sample
    /// walls `out` already holds.
    pub fn push_traced(&self, out: &mut Samples) {
        out.push("host.calib_ms", self.calib_ms);
        out.push("host.steal_pct", self.steal_pct);
        let plain = median(out.get("plain_run_s"));
        out.push("trace.overhead_pct", (median(out.get("trace.run_s")) - plain) / plain * 100.0);
    }
}

/// The registry values the waterfall reads, as running totals; a traced
/// sample's share is the difference of two snapshots.
#[derive(Clone, Copy, Default)]
pub struct Registry {
    pub decode_ns: u64,
    pub codec_hits: u64,
    pub codec_misses: u64,
    pub queue_wait_ns: u64,
    pub vstore_load_ns: u64,
    pub vstore_write_ns: u64,
}

impl Registry {
    pub fn now() -> Registry {
        let r = obs::metrics::global();
        Registry {
            decode_ns: r.histogram("storage.codec.decode_ns").sum(),
            codec_hits: r.counter("storage.codec.cache_hits").get(),
            codec_misses: r.counter("storage.codec.cache_misses").get(),
            queue_wait_ns: r.histogram("cop.queue_wait_ns").sum(),
            vstore_load_ns: r.histogram("store.load_ns").sum(),
            vstore_write_ns: r.histogram("store.write_ns").sum(),
        }
    }

    pub fn since(&self, earlier: &Registry) -> Registry {
        Registry {
            decode_ns: self.decode_ns - earlier.decode_ns,
            codec_hits: self.codec_hits - earlier.codec_hits,
            codec_misses: self.codec_misses - earlier.codec_misses,
            queue_wait_ns: self.queue_wait_ns - earlier.queue_wait_ns,
            vstore_load_ns: self.vstore_load_ns - earlier.vstore_load_ns,
            vstore_write_ns: self.vstore_write_ns - earlier.vstore_write_ns,
        }
    }
}
