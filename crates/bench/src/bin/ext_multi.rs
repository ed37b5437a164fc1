//! Extension experiment (§III-I): multi-controller HOOP scaling.
//!
//! Compares single-controller HOOP against 2- and 4-controller HOOP with
//! two-phase commit on every workload: 2PC adds commit-path messages, while
//! extra controllers spread slice traffic. The paper sketches the protocol
//! but does not evaluate it — this harness fills that gap.

use hoop_bench::experiments::{write_csv, MATRIX, TPCC};
use hoop_bench::runner::{run_cell, RunnerOptions};
use simcore::config::SimConfig;

fn main() {
    let sim = SimConfig::default();
    let (opts, _) = RunnerOptions::from_args(&[]);
    let engines = ["HOOP", "HOOP-MC2", "HOOP-MC4"];
    let configs = [MATRIX[0], MATRIX[2], MATRIX[10], TPCC];

    println!("== Extension: multi-controller HOOP (2PC) ==");
    print!("{:<12}", "workload");
    for e in engines {
        print!("{e:>14}{:>12}", "lat");
    }
    println!("   (tx/ms, cycles)");
    let mut rows = Vec::new();
    for wcfg in configs {
        print!("{:<12}", wcfg.label);
        let mut row = wcfg.label.to_string();
        for engine in engines {
            let r = run_cell(engine, wcfg, &sim, &opts).report;
            assert_eq!(r.verify_errors, 0, "{engine}/{} corrupted", wcfg.label);
            print!("{:>14.1}{:>12.0}", r.throughput_tx_per_ms, r.avg_tx_latency);
            row += &format!(",{:.3},{:.1}", r.throughput_tx_per_ms, r.avg_tx_latency);
        }
        println!();
        rows.push(row);
    }
    write_csv(
        "ext_multi_controller",
        "workload,hoop_tx_ms,hoop_lat,mc2_tx_ms,mc2_lat,mc4_tx_ms,mc4_lat",
        &rows,
    );
    println!("\n2PC costs two interconnect rounds plus a prepare record per");
    println!("participant; single-controller HOOP commits with one flush. The");
    println!("gap between the columns is the price of distributed durability.");
}
