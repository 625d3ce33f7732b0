//! Device throughput profiles and the modeled-time cost function.
//!
//! The paper's performance predictor (§3.4) states the cost of an I/O plan
//! as `bytes / throughput`, with distinct sequential and random
//! throughputs measured up front with a tool like `fio`. We reuse exactly
//! that model to convert measured [`IoSnapshot`]s into modeled wall time,
//! adding a CPU term (`edges / (rate × threads)`) so the thread-scaling experiment
//! (Figure 10) has a compute axis. See DESIGN.md §3 for why modeled time
//! is the right substitute for wall time on a page-cached container.

use crate::tracker::IoSnapshot;
use serde::{Deserialize, Serialize};

/// Sequential/random throughput pair in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Sequential throughput, bytes/second.
    pub sequential_bps: f64,
    /// Random-access throughput, bytes/second (effective: the seek of a
    /// small request is folded in).
    pub random_bps: f64,
    /// Throughput of a coalesced ascending sweep over scattered ranges
    /// (elevator order): between random and sequential on spinning
    /// disks, near-sequential on flash.
    pub batched_bps: f64,
}

/// A secondary-storage device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable device name ("hdd-7200rpm", "sata-ssd", ...).
    pub name: String,
    /// Read throughput.
    pub read: Throughput,
    /// Write throughput (writes are modeled as sequential; all engines
    /// here write whole chunks/shards).
    pub write_bps: f64,
}

impl DeviceProfile {
    /// 7200 RPM commodity HDD, matching the paper's evaluation machine
    /// (500 GB 7200RPM HDD): ~120 MB/s sequential, ~1 MB/s effective
    /// random.
    ///
    /// Following the paper's cost model (§3.4), time is pure
    /// `bytes / throughput`: the seek latency is folded into the
    /// *effective* random throughput (1 MB/s ≈ one 8 ms seek per ~8 KB
    /// request) rather than charged per operation.
    pub fn hdd() -> Self {
        DeviceProfile {
            name: "hdd-7200rpm".into(),
            read: Throughput { sequential_bps: 120e6, random_bps: 1.0e6, batched_bps: 40e6 },
            write_bps: 110e6,
        }
    }

    /// SATA2 SSD matching the paper's scalability experiment (§4.5):
    /// ~450 MB/s sequential, ~250 MB/s random, no seek penalty.
    pub fn ssd() -> Self {
        DeviceProfile {
            name: "sata-ssd".into(),
            read: Throughput { sequential_bps: 450e6, random_bps: 250e6, batched_bps: 400e6 },
            write_bps: 400e6,
        }
    }

    /// Page-cache / in-memory speeds: for graphs that fit in RAM, where
    /// the paper observes thread count dominates performance (§4.5,
    /// LiveJournal).
    pub fn memory() -> Self {
        DeviceProfile {
            name: "memory".into(),
            read: Throughput { sequential_bps: 10e9, random_bps: 8e9, batched_bps: 10e9 },
            write_bps: 8e9,
        }
    }

    /// Build a profile from measured throughputs (see [`crate::probe`]).
    pub fn from_measured(name: impl Into<String>, read: Throughput, write_bps: f64) -> Self {
        DeviceProfile { name: name.into(), read, write_bps }
    }

    /// Modeled seconds to perform the I/O recorded in `io` on this
    /// device: bytes over each class's throughput. It differs from the
    /// predictor's `hus_core::predict::IoPlan::seconds` only in the write
    /// rate: writes are priced at `write_bps` here, at the sequential
    /// read rate there.
    pub fn io_seconds(&self, io: &IoSnapshot) -> f64 {
        io.seq_read_bytes as f64 / self.read.sequential_bps
            + io.rand_read_bytes as f64 / self.read.random_bps
            + io.batched_read_bytes as f64 / self.read.batched_bps
            + io.write_bytes as f64 / self.write_bps
    }
}

/// Combined I/O + CPU time model.
///
/// `modeled_seconds = max(io_seconds, cpu_seconds)` when overlap is
/// enabled (the paper overlaps CPU processing and disk I/O, §3.5), or
/// their sum otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// The storage device.
    pub device: DeviceProfile,
    /// Edges a single thread processes per second (update-function
    /// applications). Calibrated for simple update functions.
    pub edges_per_second_per_thread: f64,
    /// Per-vertex bookkeeping rate per thread (activation checks, value
    /// synchronization).
    pub vertices_per_second_per_thread: f64,
    /// Whether CPU work overlaps I/O (paper §3.5: yes).
    pub overlap_cpu_io: bool,
    /// Amdahl serial fraction of the CPU work: 0.0 = perfectly parallel.
    /// Used to model engines whose execution has a serial component
    /// (e.g. GraphChi's deterministic parallelism, which the paper blames
    /// for its poor thread scaling, §4.5).
    pub serial_fraction: f64,
}

impl CostModel {
    /// Default model on a given device.
    pub fn new(device: DeviceProfile) -> Self {
        CostModel {
            device,
            edges_per_second_per_thread: 50e6,
            vertices_per_second_per_thread: 200e6,
            overlap_cpu_io: true,
            serial_fraction: 0.0,
        }
    }

    /// CPU seconds for `edges` edge updates and `vertices` vertex touches
    /// on `threads` worker threads.
    pub fn cpu_seconds(&self, edges: u64, vertices: u64, threads: usize) -> f64 {
        let t = threads.max(1) as f64;
        let speedup = 1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / t);
        (edges as f64 / self.edges_per_second_per_thread
            + vertices as f64 / self.vertices_per_second_per_thread)
            / speedup
    }

    /// Full modeled runtime.
    pub fn modeled_seconds(
        &self,
        io: &IoSnapshot,
        edges: u64,
        vertices: u64,
        threads: usize,
    ) -> f64 {
        let io_s = self.device.io_seconds(io);
        let cpu_s = self.cpu_seconds(edges, vertices, threads);
        if self.overlap_cpu_io {
            io_s.max(cpu_s)
        } else {
            io_s + cpu_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(seq: u64, rand: u64, rand_ops: u64, write: u64) -> IoSnapshot {
        IoSnapshot {
            seq_read_bytes: seq,
            rand_read_bytes: rand,
            rand_read_ops: rand_ops,
            write_bytes: write,
            ..Default::default()
        }
    }

    #[test]
    fn hdd_penalizes_random() {
        let hdd = DeviceProfile::hdd();
        let seq = snap(100_000_000, 0, 0, 0);
        let rand = snap(0, 100_000_000, 1000, 0);
        assert!(hdd.io_seconds(&rand) > 10.0 * hdd.io_seconds(&seq));
    }

    #[test]
    fn ssd_narrows_random_gap() {
        let hdd = DeviceProfile::hdd();
        let ssd = DeviceProfile::ssd();
        let rand = snap(0, 100_000_000, 1000, 0);
        let hdd_ratio = hdd.io_seconds(&rand) / hdd.io_seconds(&snap(100_000_000, 0, 0, 0));
        let ssd_ratio = ssd.io_seconds(&rand) / ssd.io_seconds(&snap(100_000_000, 0, 0, 0));
        assert!(ssd_ratio < hdd_ratio / 10.0, "hdd {hdd_ratio} ssd {ssd_ratio}");
    }

    #[test]
    fn writes_add_time() {
        let hdd = DeviceProfile::hdd();
        let with_writes = snap(1_000_000, 0, 0, 1_000_000);
        let without = snap(1_000_000, 0, 0, 0);
        assert!(hdd.io_seconds(&with_writes) > hdd.io_seconds(&without));
    }

    #[test]
    fn cpu_scales_with_threads() {
        let m = CostModel::new(DeviceProfile::hdd());
        let one = m.cpu_seconds(100_000_000, 0, 1);
        let four = m.cpu_seconds(100_000_000, 0, 4);
        assert!((one / four - 4.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_takes_max() {
        let mut m = CostModel::new(DeviceProfile::hdd());
        m.overlap_cpu_io = true;
        let io = snap(120_000_000, 0, 0, 0); // ~1s of I/O
        let cpu_bound = m.modeled_seconds(&io, 500_000_000, 0, 1); // 10s CPU
        assert!((cpu_bound - m.cpu_seconds(500_000_000, 0, 1)).abs() < 1e-9);
        m.overlap_cpu_io = false;
        let summed = m.modeled_seconds(&io, 500_000_000, 0, 1);
        assert!(summed > cpu_bound);
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let m = CostModel::new(DeviceProfile::ssd());
        assert_eq!(m.cpu_seconds(1000, 0, 0), m.cpu_seconds(1000, 0, 1));
    }
}
