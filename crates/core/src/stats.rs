//! Per-run and per-iteration measurements.
//!
//! Every engine in the workspace (HUS-Graph and both baselines) reports a
//! [`RunStats`], so the experiment harness can tabulate wall time, I/O
//! amount (the paper's Figure 9 metric) and modeled device time (the
//! Table 3 / Figure 7 / Figure 11 metric) identically across systems.

use crate::predict::{IoPlan, UpdateModel};
use hus_obs::PhaseStat;
use hus_storage::{CostModel, IoSnapshot, ResilienceSnapshot};
use serde::{Deserialize, Serialize};

/// Measurements for one iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Model selected for the iteration (for per-column scheduling: the
    /// majority choice; see `rop_units` / `cop_units`).
    pub model: UpdateModel,
    /// Whether the α gate short-circuited the predictor.
    pub gated: bool,
    /// Predicted `C_rop` (NaN when gated or forced).
    pub c_rop: f64,
    /// Predicted `C_cop` (NaN when gated or forced).
    pub c_cop: f64,
    /// The I/O plan the predictor priced for the selected model(s) —
    /// the bytes per access class this iteration was expected to bill,
    /// to be held against `io` ([`crate::audit`]). `None` when gated or
    /// forced, and for engines without a predictor.
    pub plan: Option<IoPlan>,
    /// Columns/intervals processed with push this iteration.
    pub rop_units: u32,
    /// Columns/intervals processed with pull this iteration.
    pub cop_units: u32,
    /// Frontier size at the start of the iteration.
    pub active_vertices: u64,
    /// Active out-edges at the start of the iteration
    /// (`Σ_{v active} d_v` — the paper's Figure 1 quantity).
    pub active_edges: u64,
    /// Edge records actually read/processed.
    pub edges_processed: u64,
    /// I/O performed during the iteration.
    pub io: IoSnapshot,
    /// Wall-clock seconds of the iteration.
    pub wall_seconds: f64,
    /// Per-phase wall/I-O breakdown (predict / rop / cop / gather /
    /// sync), populated when `hus_obs` collection is enabled (e.g.
    /// `HUS_TRACE` is set); empty otherwise.
    pub phases: Vec<PhaseStat>,
}

impl IterationStats {
    /// Modeled seconds for this iteration on a device/CPU model.
    pub fn modeled_seconds(&self, model: &CostModel, threads: usize) -> f64 {
        model.modeled_seconds(&self.io, self.edges_processed, self.active_vertices, threads)
    }
}

/// Measurements for a full run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStats {
    /// Per-iteration details.
    pub iterations: Vec<IterationStats>,
    /// Total I/O across all iterations (including vertex-store setup).
    pub total_io: IoSnapshot,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Total edge records processed.
    pub edges_processed: u64,
    /// Whether the frontier emptied before `max_iterations`.
    pub converged: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Storage resilience events during the run: retries of transient
    /// read errors, giveups, degradations (mmap→file, batched→per-range,
    /// readahead→sync) and checksum failures. All zero on a healthy run;
    /// see DESIGN.md §9.
    pub resilience: ResilienceSnapshot,
    /// Checkpoint/restore activity (`RunConfig::checkpoint_every` /
    /// `HUS_CKPT`); all zero when checkpointing is off. See DESIGN.md
    /// §10.
    pub checkpoints: CheckpointStats,
}

/// Checkpoint/restore accounting for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Checkpoints written during the run.
    pub written: u32,
    /// Total checkpoint bytes written (not part of the modeled engine
    /// I/O).
    pub bytes: u64,
    /// `Some(k)` when the run resumed from a checkpoint taken at the
    /// end of iteration `k` (so execution re-entered at `k + 1`).
    pub resumed_from: Option<u64>,
}

impl RunStats {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total modeled seconds on a device/CPU model (sum of per-iteration
    /// modeled times).
    pub fn modeled_seconds(&self, model: &CostModel) -> f64 {
        self.iterations.iter().map(|it| it.modeled_seconds(model, self.threads)).sum()
    }

    /// Total I/O amount in (decimal) GB — the paper's Figure 9 metric.
    pub fn io_gb(&self) -> f64 {
        self.total_io.total_gb()
    }

    /// Iterations that ran (fully or mostly) under the given model.
    pub fn iterations_with_model(&self, model: UpdateModel) -> usize {
        self.iterations.iter().filter(|it| it.model == model).count()
    }

    /// One-line human summary, e.g.
    /// `12 iters (8 rop / 4 cop) | 1.2e6 edges | 0.35 GB I/O | 0.42 s | converged | 8 threads`.
    /// Runs with resilience events append a segment such as
    /// `| 3 retries / 0 giveups / 1 fallbacks`.
    pub fn summary(&self) -> String {
        let rop = self.iterations_with_model(UpdateModel::Rop);
        let cop = self.iterations_with_model(UpdateModel::Cop);
        let mut s = format!(
            "{} iters ({rop} rop / {cop} cop) | {:.3e} edges | {} I/O | {} | {} | {} threads",
            self.num_iterations(),
            self.edges_processed as f64,
            hus_obs::fmt_gb(self.total_io.total_bytes()),
            hus_obs::fmt_secs(self.wall_seconds),
            if self.converged { "converged" } else { "iteration-capped" },
            self.threads,
        );
        if self.resilience.any() {
            s.push_str(&format!(
                " | {} retries / {} giveups / {} fallbacks",
                self.resilience.retries,
                self.resilience.giveups,
                self.resilience.total_fallbacks(),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_storage::DeviceProfile;

    fn iter_stats(model: UpdateModel, seq: u64, rand: u64) -> IterationStats {
        IterationStats {
            iteration: 0,
            model,
            gated: false,
            c_rop: 1.0,
            c_cop: 2.0,
            plan: None,
            rop_units: 0,
            cop_units: 0,
            active_vertices: 10,
            active_edges: 100,
            edges_processed: 100,
            io: IoSnapshot {
                seq_read_bytes: seq,
                rand_read_bytes: rand,
                rand_read_ops: if rand > 0 { 1 } else { 0 },
                ..Default::default()
            },
            wall_seconds: 0.5,
            phases: Vec::new(),
        }
    }

    #[test]
    fn modeled_seconds_sums_iterations() {
        let stats = RunStats {
            iterations: vec![
                iter_stats(UpdateModel::Rop, 0, 1_000_000),
                iter_stats(UpdateModel::Cop, 120_000_000, 0),
            ],
            total_io: IoSnapshot::default(),
            wall_seconds: 1.0,
            edges_processed: 200,
            converged: true,
            threads: 4,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        let model = CostModel::new(DeviceProfile::hdd());
        let total = stats.modeled_seconds(&model);
        let parts: f64 = stats.iterations.iter().map(|it| it.modeled_seconds(&model, 4)).sum();
        assert!((total - parts).abs() < 1e-12);
        assert!(total > 1.0, "1s of sequential + 1s+seek of random: {total}");
    }

    #[test]
    fn model_counting() {
        let stats = RunStats {
            iterations: vec![
                iter_stats(UpdateModel::Rop, 0, 10),
                iter_stats(UpdateModel::Rop, 0, 10),
                iter_stats(UpdateModel::Cop, 10, 0),
            ],
            total_io: IoSnapshot::default(),
            wall_seconds: 1.0,
            edges_processed: 300,
            converged: false,
            threads: 1,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        assert_eq!(stats.iterations_with_model(UpdateModel::Rop), 2);
        assert_eq!(stats.iterations_with_model(UpdateModel::Cop), 1);
        assert_eq!(stats.num_iterations(), 3);
    }

    #[test]
    fn io_gb_uses_total() {
        let stats = RunStats {
            iterations: vec![],
            total_io: IoSnapshot {
                seq_read_bytes: 1_500_000_000,
                write_bytes: 500_000_000,
                ..Default::default()
            },
            wall_seconds: 0.0,
            edges_processed: 0,
            converged: true,
            threads: 1,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        assert!((stats.io_gb() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn serializes_to_json() {
        let mut it = iter_stats(UpdateModel::Cop, 5, 0);
        it.phases =
            vec![PhaseStat { name: "cop".into(), wall_seconds: 0.4, count: 3, io_bytes: 512 }];
        let stats = RunStats {
            iterations: vec![it],
            total_io: IoSnapshot::default(),
            wall_seconds: 0.1,
            edges_processed: 100,
            converged: true,
            threads: 2,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        let s = serde_json::to_string(&stats).unwrap();
        let back: RunStats = serde_json::from_str(&s).unwrap();
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.iterations[0].model, UpdateModel::Cop);
        assert_eq!(back.iterations[0].phases, stats.iterations[0].phases);
    }

    #[test]
    fn summary_is_one_line_and_mentions_the_vitals() {
        let stats = RunStats {
            iterations: vec![
                iter_stats(UpdateModel::Rop, 0, 10),
                iter_stats(UpdateModel::Cop, 10, 0),
            ],
            total_io: IoSnapshot { seq_read_bytes: 2_000_000_000, ..Default::default() },
            wall_seconds: 1.5,
            edges_processed: 12345,
            converged: true,
            threads: 8,
            resilience: Default::default(),
            checkpoints: Default::default(),
        };
        let s = stats.summary();
        assert!(!s.contains('\n'));
        assert!(s.contains("2 iters"), "{s}");
        assert!(s.contains("1 rop / 1 cop"), "{s}");
        assert!(s.contains("converged"), "{s}");
        assert!(s.contains("8 threads"), "{s}");
    }
}
