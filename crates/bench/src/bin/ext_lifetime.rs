//! Extension experiment: NVM lifetime under each crash-consistency scheme.
//!
//! The paper motivates write-traffic reduction with NVM endurance (§I:
//! extra writes "hurt NVM lifetime"; its refs \[43],\[44]). This harness
//! tracks per-line write counts on the device, runs the same workload under
//! every engine, and reports total line writes, wear skew (hottest line vs
//! mean), and the relative lifetime — `endurance / hottest-line writes` —
//! normalized to HOOP. It also reports the Start-Gap leveling overhead that
//! would be needed to flatten each engine's skew.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::{
    fixed_window, Cell, CellResult, ExperimentPlan, RunnerOptions, LIVE_GRID_FLAGS,
};
use nvm::wearlevel::GAP_MOVE_RATE;
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

fn main() {
    let sim = SimConfig::default();
    let (mut opts, _) = RunnerOptions::from_args(LIVE_GRID_FLAGS, &[]);
    // The figure is the wear summary: tracking is always on.
    opts.endurance = true;
    let scale = opts.scale;
    let wcfg = MATRIX[2]; // hashmap-64B: the paper's canonical fine-grained updater
    let txs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 40_000,
    };
    let cells = ENGINES
        .map(|engine| Cell {
            engine,
            workload: wcfg.label,
            spec: spec_for(wcfg, scale),
            window: fixed_window(200, txs),
            trace: format!("ext_lifetime-{}", wcfg.label),
            sim,
        })
        .to_vec();
    let results = ExperimentPlan::new("ext_lifetime", cells).run(&opts);
    let wear = |cell: &CellResult| cell.endurance.clone().expect("endurance tracked");

    println!(
        "== Extension: NVM lifetime ({} / {} txs) ==",
        wcfg.label, txs
    );
    println!(
        "{:<10}{:>14}{:>12}{:>10}{:>16}",
        "engine", "line writes", "hottest", "skew", "lifetime vs HOOP"
    );
    let hoop_max = results
        .iter()
        .find(|c| c.engine == "HOOP")
        .map(wear)
        .expect("HOOP ran")
        .max_line_writes as f64;
    let mut rows = Vec::new();
    for cell in &results {
        let e = wear(cell);
        let lifetime = hoop_max / e.max_line_writes.max(1) as f64;
        println!(
            "{:<10}{:>14}{:>12}{:>10.2}{:>16.2}",
            cell.engine, e.total_line_writes, e.max_line_writes, e.skew, lifetime
        );
        rows.push(format!(
            "{},{},{},{:.4},{:.4}",
            cell.engine, e.total_line_writes, e.max_line_writes, e.skew, lifetime
        ));
    }
    write_csv(
        "ext_lifetime",
        "engine,total_line_writes,hottest_line,skew,lifetime_vs_hoop",
        &rows,
    );
    println!(
        "\nStart-Gap leveling would flatten each skew at ~{:.1} % extra writes",
        100.0 / GAP_MOVE_RATE as f64
    );
    println!("(nvm::wearlevel implements it; see its unit tests for the rotation proof).");
}
