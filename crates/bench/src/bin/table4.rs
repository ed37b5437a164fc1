//! Table IV: average data reduction in the GC of HOOP as the number of
//! transactions grows (10^1 .. 10^4).
//!
//! Paper values: ~25 % at 10 txs, ~50 % at 100, ~72 % at 1000, ~83 % at
//! 10^4 — repeated Zipfian updates to the same lines coalesce into a single
//! home write per GC window.
//!
//! Runs the (workload × transaction-count) grid on worker threads
//! (`--jobs N`) and exports `results/table4.json` alongside the CSV.

use std::path::Path;

use hoop_bench::experiments::{write_csv, Scale, WorkloadConfig};
use hoop_bench::json::Json;
use hoop_bench::runner::{read_trace, run_parallel, RunMode, RunnerOptions, RESULT_SCHEMA_VERSION};
use hoop_bench::tracepack::{
    record_table4_traces, table4_counts, table4_label, table4_spec, TABLE4_CONFIGS,
};
use simcore::config::SimConfig;
use trace::{replay_cell, ReplayWindow};
use workloads::driver::{build_system, Driver};

fn reduction_for(wcfg: WorkloadConfig, txs: u64, sim: &SimConfig, scale: Scale) -> f64 {
    let spec = table4_spec(wcfg, scale);
    let mut sys = build_system("HOOP", sim);
    let mut driver = Driver::new(spec, sim);
    driver.setup(&mut sys);
    // No warmup: Table IV measures reduction from the first transaction.
    let report = driver.run(&mut sys, 0, txs);
    report.gc_reduction
}

/// Replays `txs` transactions of the row's recorded trace; identical to
/// [`reduction_for`] by the byte-identical-replay contract.
fn reduction_replayed(
    wcfg: WorkloadConfig,
    txs: u64,
    sim: &SimConfig,
    scale: Scale,
    dir: &Path,
) -> f64 {
    let tf = read_trace(dir, &table4_label(wcfg), &table4_spec(wcfg, scale));
    let window = ReplayWindow {
        warmup: 0,
        measured: txs,
        min_cycles: 0,
    };
    replay_cell(&tf, "HOOP", sim, window, false).0.gc_reduction
}

fn main() {
    let mut sim = SimConfig::default();
    let (opts, _) = RunnerOptions::from_args(&[]);
    opts.apply_to_sim(&mut sim);
    let scale = opts.scale;
    let configs = TABLE4_CONFIGS;
    let counts = table4_counts(scale);
    let paper = [0.25, 0.51, 0.73, 0.83];

    // Every (txs, workload) measurement is independent — run the whole grid
    // in parallel and read it back row-major.
    let grid: Vec<(u64, WorkloadConfig)> = counts
        .iter()
        .flat_map(|&n| configs.iter().map(move |&c| (n, c)))
        .collect();
    if let RunMode::Record(dir) = &opts.mode {
        record_table4_traces(&sim, scale, dir, opts.jobs, opts.depth);
    }
    let reductions = match &opts.mode {
        RunMode::Live => run_parallel(&grid, opts.jobs, |&(n, c)| reduction_for(c, n, &sim, scale)),
        RunMode::Record(dir) | RunMode::Replay(dir) => run_parallel(&grid, opts.jobs, |&(n, c)| {
            reduction_replayed(c, n, &sim, scale, dir)
        }),
    };

    println!("== Table IV: GC data-reduction ratio ==");
    print!("{:<9}", "txs");
    for c in configs {
        print!("{:>13}", c.label);
    }
    println!("{:>10}", "paper~");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (i, &n) in counts.iter().enumerate() {
        print!("{n:<9}");
        let mut row = n.to_string();
        for (j, c) in configs.iter().enumerate() {
            let red = reductions[i * configs.len() + j];
            print!("{:>12.1}%", red * 100.0);
            row += &format!(",{red:.4}");
            json_rows.push(Json::obj([
                ("txs", Json::UInt(n)),
                ("workload", Json::Str(c.label.to_string())),
                ("gc_reduction", Json::Num(red)),
            ]));
        }
        println!("{:>9.0}%", paper[i.min(3)] * 100.0);
        rows.push(row);
    }
    let head = format!("txs,{}", configs.map(|c| c.label).join(","));
    write_csv("table4_gc_reduction", &head, &rows);

    let doc = Json::obj([
        ("schema_version", Json::UInt(RESULT_SCHEMA_VERSION)),
        ("experiment", Json::Str("table4".to_string())),
        (
            "scale",
            Json::Str(
                match scale {
                    Scale::Quick => "quick",
                    Scale::Full => "full",
                }
                .to_string(),
            ),
        ),
        ("cells", Json::Arr(json_rows)),
    ]);
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/table4.json", doc.pretty()).is_ok()
    {
        eprintln!("wrote results/table4.json");
    } else {
        eprintln!("warning: cannot write results/table4.json");
    }
}
