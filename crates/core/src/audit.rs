//! Cost-model audit trail: predicted vs. actual per iteration.
//!
//! The predictor (paper §3.4) commits to ROP or COP from the *predicted*
//! costs `C_rop`/`C_cop` before any I/O happens. This module closes the
//! loop after the fact: for every iteration of a finished run it pairs
//! the I/O plan the predictor priced for the selected model with the
//! bytes that were actually billed — per access class, and in seconds,
//! both sides priced by the one [`IoPlan::seconds`] — and summarizes how
//! far off the model was. `hus audit` and `debug_profile` render the
//! result; the engine feeds the same per-iteration error into the
//! `predict.misprediction_pct` histogram so a live `/metrics` scrape
//! shows model quality without waiting for the run to end.

use crate::predict::{IoPlan, UpdateModel};
use crate::stats::RunStats;
use hus_storage::Throughput;

/// One iteration's predicted-vs-actual record.
#[derive(Debug, Clone, Copy)]
pub struct AuditRow {
    /// Iteration index.
    pub iteration: usize,
    /// Model the engine executed.
    pub model: UpdateModel,
    /// Whether the hybrid chose COP without pricing (every vertex
    /// active; see [`crate::predict::Predictor::gates`]).
    pub gated: bool,
    /// Predicted ROP cost in seconds (NaN when gated or forced).
    pub c_rop: f64,
    /// Predicted COP cost in seconds (NaN when gated or forced).
    pub c_cop: f64,
    /// The selected model's predicted cost: its whole plan, `D`
    /// write-back included, priced like `actual` (NaN when gated or
    /// forced).
    pub predicted: f64,
    /// Modeled I/O seconds for the bytes the iteration actually moved,
    /// billed at the same [`Throughput`] the predictor used.
    pub actual: f64,
    /// The selected model's predicted bytes per access class (`None`
    /// when gated or forced).
    pub plan: Option<IoPlan>,
    /// The bytes the iteration actually billed, per access class.
    pub billed: IoPlan,
    /// Measured wall-clock seconds.
    pub wall_seconds: f64,
}

impl AuditRow {
    /// Relative prediction error `|predicted − actual| / actual` as a
    /// percentage; `None` when the row carries no usable prediction
    /// (gated, forced-mode, or a zero-I/O iteration).
    pub fn error_pct(&self) -> Option<f64> {
        if self.gated || !self.predicted.is_finite() || self.actual <= 0.0 {
            return None;
        }
        Some((self.predicted - self.actual).abs() / self.actual * 100.0)
    }
}

/// Pair every iteration of `stats` with its modeled actual cost.
pub fn audit_rows(stats: &RunStats, tput: &Throughput) -> Vec<AuditRow> {
    stats
        .iterations
        .iter()
        .map(|it| {
            let billed = IoPlan::billed(&it.io);
            AuditRow {
                iteration: it.iteration,
                model: it.model,
                gated: it.gated,
                c_rop: it.c_rop,
                c_cop: it.c_cop,
                predicted: it.plan.map_or(f64::NAN, |plan| plan.seconds(tput)),
                actual: billed.seconds(tput),
                plan: it.plan,
                billed,
                wall_seconds: it.wall_seconds,
            }
        })
        .collect()
}

/// Mean relative prediction error over the rows that carry one, as a
/// percentage. `None` when every iteration was gated or forced.
pub fn misprediction_ratio(rows: &[AuditRow]) -> Option<f64> {
    let errs: Vec<f64> = rows.iter().filter_map(AuditRow::error_pct).collect();
    if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

fn fmt_cost(c: f64) -> String {
    if c.is_finite() {
        format!("{c:.4}")
    } else {
        "-".into()
    }
}

/// `predicted/billed` MB of one access class.
fn fmt_class(plan: Option<IoPlan>, billed: IoPlan, class: fn(&IoPlan) -> u64) -> String {
    let mb = |bytes: u64| format!("{:.3}", bytes as f64 / 1e6);
    format!("{}/{}", plan.map_or("-".into(), |p| mb(class(&p))), mb(class(&billed)))
}

/// Render the audit trail as an aligned text table (one row per
/// iteration; the four `*_MB` columns are predicted/billed bytes per
/// access class) followed by the misprediction summary line.
pub fn render_table(rows: &[AuditRow]) -> String {
    let mut t = hus_obs::table::Table::new(&[
        "iter",
        "model",
        "gated",
        "C_rop",
        "C_cop",
        "predicted",
        "actual",
        "err%",
        "seq_MB",
        "batched_MB",
        "rand_MB",
        "write_MB",
        "wall_s",
    ]);
    for r in rows {
        t.row(vec![
            r.iteration.to_string(),
            r.model.to_string(),
            if r.gated { "yes".into() } else { "no".into() },
            fmt_cost(r.c_rop),
            fmt_cost(r.c_cop),
            fmt_cost(r.predicted),
            format!("{:.4}", r.actual),
            r.error_pct().map(|e| format!("{e:.1}")).unwrap_or_else(|| "-".into()),
            fmt_class(r.plan, r.billed, |p| p.sequential),
            fmt_class(r.plan, r.billed, |p| p.batched),
            fmt_class(r.plan, r.billed, |p| p.random),
            fmt_class(r.plan, r.billed, |p| p.write),
            format!("{:.3}", r.wall_seconds),
        ]);
    }
    let summary = match misprediction_ratio(rows) {
        Some(pct) => format!("misprediction ratio (mean |pred-actual|/actual): {pct:.1}%"),
        None => "misprediction ratio: n/a (no priced iteration: all-active or forced mode)".into(),
    };
    format!("{}\n{}\n", t.render(), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IterationStats;
    use hus_storage::IoSnapshot;

    fn tput() -> Throughput {
        Throughput { sequential_bps: 100e6, random_bps: 1e6, batched_bps: 40e6 }
    }

    /// A plan that takes `seconds` at [`tput`].
    fn plan_of(seconds: f64) -> Option<IoPlan> {
        Some(IoPlan { sequential: (seconds * 100e6) as u64, ..Default::default() })
    }

    fn iter_stats(
        iteration: usize,
        model: UpdateModel,
        plan: Option<IoPlan>,
        io: IoSnapshot,
    ) -> IterationStats {
        let cost = plan.map_or(f64::NAN, |p| p.seconds(&tput()));
        IterationStats {
            iteration,
            model,
            gated: plan.is_none(),
            c_rop: cost,
            c_cop: cost,
            plan,
            rop_units: 0,
            cop_units: 0,
            active_vertices: 1,
            active_edges: 1,
            edges_processed: 1,
            io,
            wall_seconds: 0.5,
            phases: Vec::new(),
        }
    }

    fn run(iters: Vec<IterationStats>) -> RunStats {
        RunStats {
            iterations: iters,
            total_io: IoSnapshot::default(),
            wall_seconds: 1.0,
            edges_processed: 1,
            converged: true,
            threads: 1,
            resilience: Default::default(),
            checkpoints: Default::default(),
            kept_offset_bytes: 0,
        }
    }

    #[test]
    fn billed_bytes_are_priced_at_each_class_rate() {
        let io = IoSnapshot {
            seq_read_bytes: 100_000_000,    // 1s sequential
            rand_read_bytes: 1_000_000,     // 1s random
            batched_read_bytes: 40_000_000, // 1s batched
            write_bytes: 200_000_000,       // 2s at sequential
            ..Default::default()
        };
        assert!((IoPlan::billed(&io).seconds(&tput()) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn predicted_is_the_plan_priced_like_the_billed_bytes() {
        // The plan and the bill are the same bytes, write-back included:
        // priced by the one function, the error is exactly zero.
        let io = IoSnapshot {
            seq_read_bytes: 50_000_000,
            rand_read_bytes: 20_000,
            write_bytes: 10_000_000,
            ..Default::default()
        };
        let plan = IoPlan::billed(&io);
        let stats = run(vec![iter_stats(0, UpdateModel::Rop, Some(plan), io)]);
        let rows = audit_rows(&stats, &tput());
        assert_eq!(rows[0].plan, Some(plan));
        assert_eq!(rows[0].billed, plan);
        assert_eq!(rows[0].predicted.to_bits(), rows[0].actual.to_bits());
        assert_eq!(rows[0].error_pct(), Some(0.0));
        assert!((rows[0].actual - 0.62).abs() < 1e-9, "0.5 + 0.02 + 0.1 s");
    }

    #[test]
    fn gated_rows_carry_no_error() {
        let io = IoSnapshot { seq_read_bytes: 100_000_000, ..Default::default() };
        let stats = run(vec![iter_stats(0, UpdateModel::Cop, None, io)]);
        let rows = audit_rows(&stats, &tput());
        assert!(rows[0].error_pct().is_none());
        assert!(misprediction_ratio(&rows).is_none());
    }

    #[test]
    fn misprediction_ratio_averages_nongated_errors() {
        let io = IoSnapshot { seq_read_bytes: 100_000_000, ..Default::default() };
        // actual = 1.0s; predictions 2.0 (100% off) and 1.5 (50% off).
        let stats = run(vec![
            iter_stats(0, UpdateModel::Rop, plan_of(2.0), io),
            iter_stats(1, UpdateModel::Rop, plan_of(1.5), io),
            iter_stats(2, UpdateModel::Cop, None, io),
        ]);
        let rows = audit_rows(&stats, &tput());
        let ratio = misprediction_ratio(&rows).unwrap();
        assert!((ratio - 75.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn table_renders_every_iteration_and_summary() {
        let io = IoSnapshot { seq_read_bytes: 100_000_000, ..Default::default() };
        let stats = run(vec![
            iter_stats(0, UpdateModel::Rop, plan_of(2.0), io),
            iter_stats(1, UpdateModel::Cop, None, io),
        ]);
        let out = render_table(&audit_rows(&stats, &tput()));
        assert!(out.contains("C_rop"), "{out}");
        assert!(out.contains("ROP"));
        assert!(out.contains("COP"));
        assert!(out.contains("misprediction ratio"));
        // Predicted/billed MB per access class; a gated row has no plan.
        assert!(out.contains("seq_MB") && out.contains("write_MB"), "{out}");
        assert!(out.contains("200.000/100.000"), "{out}");
        assert!(out.lines().any(|l| l.contains("yes") && l.contains("-/100.000")), "{out}");
    }
}
