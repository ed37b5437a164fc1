//! Figure 12: YCSB throughput under HOOP as NVM read latency (12a) and
//! write latency (12b) sweep from 50 to 250 ns.
//!
//! Paper shape (§IV-H): throughput falls monotonically with either latency,
//! since loads/stores and GC all slow down.

use hoop_bench::experiments::{write_csv, Scale, MATRIX};
use hoop_bench::runner::{run_cell, RunnerOptions};
use simcore::config::SimConfig;

fn main() {
    let (opts, _) = RunnerOptions::from_args(&[]);
    let scale = opts.scale;
    let ycsb = MATRIX[11]; // ycsb-1KB, as in §IV-H
    let lats: &[f64] = match scale {
        Scale::Quick => &[50.0, 150.0, 250.0],
        Scale::Full => &[50.0, 100.0, 150.0, 200.0, 250.0],
    };

    println!("== Fig 12a: YCSB-1KB throughput vs NVM read latency (write fixed 150 ns) ==");
    let mut rows = Vec::new();
    for &ns in lats {
        let mut cfg = SimConfig::default();
        cfg.nvm.read_ns = ns;
        let r = run_cell("HOOP", ycsb, &cfg, &opts).report;
        println!("  read {ns:>5} ns: {:>9.1} tx/ms", r.throughput_tx_per_ms);
        rows.push(format!("{ns},{:.3}", r.throughput_tx_per_ms));
    }
    write_csv("fig12a_read_latency", "read_ns,tx_per_ms", &rows);

    println!("\n== Fig 12b: YCSB-1KB throughput vs NVM write latency (read fixed 50 ns) ==");
    let mut rows = Vec::new();
    for &ns in lats {
        let mut cfg = SimConfig::default();
        cfg.nvm.write_ns = ns;
        // Slower cells also program slower in aggregate: scale the
        // bank-limited write bandwidth with the cell write time.
        cfg.nvm.write_bandwidth_gbps = 6.0 * 150.0 / ns;
        let r = run_cell("HOOP", ycsb, &cfg, &opts).report;
        println!("  write {ns:>5} ns: {:>9.1} tx/ms", r.throughput_tx_per_ms);
        rows.push(format!("{ns},{:.3}", r.throughput_tx_per_ms));
    }
    write_csv("fig12b_write_latency", "write_ns,tx_per_ms", &rows);
}
