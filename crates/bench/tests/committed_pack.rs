//! Tests against the committed quick-scale trace pack (`traces/quick/`).
//!
//! The pack is a first-class artifact: every workload row of the quick grid
//! has a committed trace, and replaying one must reproduce a live run
//! bit-for-bit on **every** engine. CI additionally proves the full-grid
//! equality (`--replay` vs live `cmp` of fig7/table4 JSON) and pack
//! currency (`xtask trace` + `git diff`); these tests keep the contract
//! under plain `cargo test` with a small window so they stay debug-fast.

use std::path::PathBuf;

use hoop_bench::experiments::{Scale, MATRIX};
use hoop_bench::runner::{
    fixed_window, run_cell, trace_path, Cell, ExperimentPlan, RunMode, RunnerOptions,
};
use hoop_bench::tracepack::{table4_plan, QUICK_PACK_DIR};
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

fn pack_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(QUICK_PACK_DIR)
}

/// Every trace label the quick grids record has a committed trace.
#[test]
fn committed_pack_is_complete() {
    let sim = SimConfig::default();
    let plans = [
        ExperimentPlan::matrix("pack", Scale::Quick, &sim),
        table4_plan(Scale::Quick, &sim),
    ];
    for plan in &plans {
        for cells in plan.traces() {
            let path = trace_path(&pack_dir(), &cells[0].trace);
            assert!(
                path.is_file(),
                "missing {} — regenerate with `cargo run -p xtask -- trace`",
                path.display()
            );
        }
    }
}

/// Replaying the committed trace must yield the same cell document as live
/// generation, for every engine of the row (a stale trace fails its
/// identity check). Uses a short window (the committed streams are deeper)
/// so the cross-engine sweep stays fast in debug builds.
#[test]
fn committed_trace_replays_identically_on_every_engine() {
    let live = RunnerOptions::live(Scale::Quick, 1);
    let replay = RunnerOptions {
        mode: RunMode::Replay(pack_dir()),
        ..live.clone()
    };
    for engine in ENGINES {
        // vector-64B: the smallest committed trace.
        let cell = Cell {
            window: fixed_window(10, 60),
            ..Cell::grid(engine, MATRIX[0], Scale::Quick, &SimConfig::default())
        };
        assert_eq!(
            run_cell(&cell, &live).to_json().pretty(),
            run_cell(&cell, &replay).to_json().pretty(),
            "{engine}"
        );
    }
}
