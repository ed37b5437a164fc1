//! Extension experiment: read/update mix sweep (crossover analysis).
//!
//! HOOP's advantage comes from cheap durable writes; its cost is the
//! redirected-read path. Sweeping YCSB's update fraction from read-only to
//! write-only shows where each engine's regime begins — the crossovers the
//! shape-reproduction cares about.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::{fixed_window, Cell, ExperimentPlan, RunnerOptions, CSV_GRID_FLAGS};
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

fn main() {
    let sim = SimConfig::default();
    let (opts, _) = RunnerOptions::from_args(CSV_GRID_FLAGS, &[]);
    let scale = opts.scale;
    let wcfg = MATRIX[10]; // ycsb-512B
    let fractions: &[f64] = match scale {
        Scale::Quick => &[0.2, 0.8],
        Scale::Full => &[0.0, 0.2, 0.5, 0.8, 0.95],
    };
    let txs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 30_000,
    };
    let cells = fractions
        .iter()
        .flat_map(|&f| {
            let spec = workloads::WorkloadSpec {
                update_fraction: f,
                ..spec_for(wcfg, scale)
            };
            // Each mix is its own workload, so its own trace.
            let trace = format!("ext_mix-{}-u{f}", wcfg.label);
            ENGINES.map(|engine| Cell {
                engine,
                workload: wcfg.label,
                spec,
                window: fixed_window(txs / 10, txs),
                trace: trace.clone(),
                sim,
            })
        })
        .collect();
    let results = ExperimentPlan::new("ext_mix", cells).run(&opts);

    println!("== Extension: YCSB update-fraction sweep (tx/ms) ==");
    print!("{:<10}", "upd_frac");
    for e in ENGINES {
        print!("{e:>11}");
    }
    println!();
    let mut rows = Vec::new();
    for (f, row_cells) in fractions.iter().zip(results.chunks(ENGINES.len())) {
        print!("{f:<10}");
        let mut row = format!("{f}");
        for cell in row_cells {
            let thr = cell.report.throughput_tx_per_ms;
            print!("{thr:>11.1}");
            row += &format!(",{thr:.3}");
        }
        println!();
        rows.push(row);
    }
    write_csv(
        "ext_mix_sweep",
        &format!("update_fraction,{}", ENGINES.join(",")),
        &rows,
    );
    println!("\nAt low update fractions every persistence engine converges on");
    println!("Ideal (reads dominate, except LSM's software translation); as");
    println!("writes grow, commit cost and write traffic pull them apart.");
}
