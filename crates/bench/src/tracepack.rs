//! The committed trace pack: which traces exist and how to regenerate them.
//!
//! The quick-scale pack under `traces/quick/` is a committed artifact, one
//! binary trace per workload row of the quick experiment grid:
//!
//! - every Fig. 7/8/9 matrix row (`<label>.trace`, engine-blind, seeded by
//!   [`derive_workload_seed`](crate::runner::derive_workload_seed)), and
//! - every Table IV row (`table4-<label>.trace`, the fixed-keyspace spec of
//!   that table).
//!
//! `cargo run -p xtask -- trace` regenerates the pack in place; recording
//! is deterministic, so an up-to-date pack regenerates byte-identically and
//! CI can gate currency with `git diff --exit-code -- traces/`. Replaying a
//! stale pack fails loudly (the recorded workload identity is validated
//! against the current grid).

use std::path::Path;

use simcore::config::SimConfig;
use workloads::WorkloadSpec;

use crate::experiments::{spec_for, Scale, WorkloadConfig, MATRIX, TPCC};
use crate::runner::{fixed_window, Cell, ExperimentPlan, RunnerOptions};

/// Directory of the committed quick-scale pack, relative to the workspace
/// root.
pub const QUICK_PACK_DIR: &str = "traces/quick";

/// The Table IV workload rows (a subset of the matrix plus TPC-C).
pub const TABLE4_CONFIGS: [WorkloadConfig; 7] = [
    MATRIX[0],  // vector-64B
    MATRIX[4],  // queue-64B
    MATRIX[6],  // rbtree-64B
    MATRIX[8],  // btree-64B
    MATRIX[2],  // hashmap-64B
    MATRIX[11], // ycsb-1KB
    TPCC,
];

/// Transaction counts of the Table IV sweep at `scale`.
pub fn table4_counts(scale: Scale) -> &'static [u64] {
    match scale {
        Scale::Quick => &[10, 100, 1000],
        Scale::Full => &[10, 100, 1000, 10_000],
    }
}

/// Table IV uses a fixed moderate keyspace: the reduction ratio measures
/// how repeated updates to the same lines coalesce as the transaction count
/// grows past the keyspace size.
pub fn table4_spec(wcfg: WorkloadConfig, scale: Scale) -> WorkloadSpec {
    let mut spec = spec_for(wcfg, scale);
    spec.items = 1024;
    spec
}

/// Table IV traces carry their own labels (their spec differs from the
/// figure grid's), so one pack directory holds both families.
pub fn table4_label(wcfg: WorkloadConfig) -> String {
    format!("table4-{}", wcfg.label)
}

/// The Table IV grid on `sim`: HOOP on every row at every transaction
/// count of [`table4_counts`], count-major, measured from the first
/// transaction (no warmup), each row traced under [`table4_label`].
pub fn table4_plan(scale: Scale, sim: &SimConfig) -> ExperimentPlan {
    let cells = table4_counts(scale)
        .iter()
        .flat_map(|&txs| {
            TABLE4_CONFIGS.map(|wcfg| Cell {
                engine: "HOOP",
                workload: wcfg.label,
                spec: table4_spec(wcfg, scale),
                window: fixed_window(0, txs),
                trace: table4_label(wcfg),
                sim: *sim,
            })
        })
        .collect();
    ExperimentPlan::new("table4", cells)
}

/// Regenerates the full pack for `scale` into `dir`: the Fig. 7/8/9 matrix
/// rows plus the Table IV rows.
pub fn record_pack(dir: &Path, scale: Scale, jobs: usize, depth: Option<u32>) {
    let sim = SimConfig::default();
    let opts = RunnerOptions {
        depth,
        ..RunnerOptions::live(scale, jobs)
    };
    ExperimentPlan::matrix("pack", scale, &sim).record_traces(dir, &opts);
    table4_plan(scale, &sim).record_traces(dir, &opts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::trace_depth;

    #[test]
    fn table4_labels_do_not_collide_with_matrix_labels() {
        for wcfg in TABLE4_CONFIGS {
            let label = table4_label(wcfg);
            assert!(MATRIX.iter().all(|m| m.label != label));
            assert_ne!(label, TPCC.label);
        }
    }

    /// Every pack trace is recorded exactly as deep as before cells carried
    /// their windows, on the default machine's 8 workers: a matrix row
    /// `default_txs_per_core(warmup + measured)`, ×4 at full scale where
    /// the `min_cycles` floor can extend the window; a Table IV row
    /// `default_txs_per_core(largest count)`.
    #[test]
    fn pack_trace_depths_are_pinned() {
        let sim = SimConfig::default();
        for (plan, depth) in [
            (ExperimentPlan::matrix("pack", Scale::Quick, &sim), 88), // 350 txs
            (ExperimentPlan::matrix("pack", Scale::Full, &sim), 2400), // 2400 txs, ×4
            (table4_plan(Scale::Quick, &sim), 250),                   // 1000 txs
            (table4_plan(Scale::Full, &sim), 2500),                   // 10^4 txs
        ] {
            for cells in plan.traces() {
                assert_eq!(trace_depth(&cells), depth, "{}", cells[0].trace);
            }
        }
    }

    #[test]
    fn table4_spec_pins_the_keyspace() {
        for wcfg in TABLE4_CONFIGS {
            assert_eq!(table4_spec(wcfg, Scale::Quick).items, 1024);
            assert_eq!(table4_spec(wcfg, Scale::Full).items, 1024);
        }
    }
}
