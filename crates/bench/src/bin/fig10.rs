//! Figure 10: GC efficiency — transaction throughput of the five synthetic
//! benchmarks as the GC trigger period sweeps from 2 to 14 ms.
//!
//! Paper shape (§IV-F): short periods GC too eagerly (little coalescing,
//! 6.8-17.8 % more cycles per tx when doubling GC frequency); throughput
//! peaks around 8-10 ms; beyond ~11 ms the reserved OOP region runs out and
//! on-demand GC lands on the critical path.
//!
//! The reserved OOP region is sized so that it holds roughly 11 ms of slice
//! production at the simulated scale — the same proportionality the paper's
//! reserve (10 % of NVM) has to its workload footprint; see EXPERIMENTS.md.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::{min_cycles_for, run_cell, RunnerOptions};
use simcore::config::SimConfig;
use workloads::driver::{build_system, Driver};

/// Probes the slice production rate (bytes/cycle) of a workload at the
/// default configuration, to size the reserve.
fn probe_oop_rate(wcfg: hoop_bench::WorkloadConfig, sim: &SimConfig, scale: Scale) -> f64 {
    let spec = spec_for(wcfg, scale);
    let mut cfg = *sim;
    cfg.hoop.oop_region_bytes = 1 << 30; // unbounded: measure pure demand
    cfg.hoop.mapping_table_bytes = 8 * 1024 * 1024;
    let mut sys = build_system("HOOP", &cfg);
    let mut driver = Driver::new(spec, &cfg);
    driver.setup(&mut sys);
    // Probe over the same steady-state window the measured cells use.
    let min_cycles = min_cycles_for(scale, &cfg);
    let report = driver.run_until(&mut sys, scale.warmup(), scale.measured(), min_cycles);
    let log_bytes = sys
        .engine()
        .device()
        .traffic()
        .written(nvm::TrafficClass::Log);
    log_bytes as f64 / report.cycles.max(1) as f64
}

fn main() {
    let sim = SimConfig::default();
    let (opts, _) = RunnerOptions::from_args(&[]);
    let scale = opts.scale;
    let configs = [MATRIX[0], MATRIX[2], MATRIX[4], MATRIX[6], MATRIX[8]];
    let periods: &[f64] = match scale {
        Scale::Quick => &[2.0, 6.0, 10.0, 14.0],
        Scale::Full => &[2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0, 14.0],
    };

    println!("== Fig 10: throughput (tx/ms) vs GC period ==");
    print!("{:<10}", "period_ms");
    for c in configs {
        print!("{:>13}", c.label);
    }
    println!();

    let mut rows = Vec::new();
    // Size the reserve per workload for ~11 ms of slice production (probed
    // once per workload at quick scale).
    let budget_ms = 11.5;
    let rates: Vec<f64> = configs
        .iter()
        .map(|w| probe_oop_rate(*w, &sim, scale))
        .collect();
    for &period in periods {
        print!("{period:<10}");
        let mut row = format!("{period}");
        for (wi, wcfg) in configs.into_iter().enumerate() {
            let rate = rates[wi];
            let mut cfg = sim;
            cfg.hoop.gc_period_ms = period;
            let reserve = (rate * simcore::time::ms_to_cycles(budget_ms) as f64) as u64;
            // Block-align (do NOT round to a power of two: that would halve
            // or double the effective budget and scatter the cliff).
            let block = cfg.hoop.oop_block_bytes;
            cfg.hoop.oop_region_bytes = reserve.div_ceil(block).max(8) * block;
            // The mapping table must not be the trigger in this sweep.
            cfg.hoop.mapping_table_bytes = 8 * 1024 * 1024;
            let r = run_cell("HOOP", wcfg, &cfg, &opts).report;
            print!("{:>13.1}", r.throughput_tx_per_ms);
            row += &format!(",{:.3}", r.throughput_tx_per_ms);
        }
        println!();
        rows.push(row);
    }
    let head = format!("period_ms,{}", configs.map(|c| c.label).join(","));
    write_csv("fig10_gc_period", &head, &rows);
}
