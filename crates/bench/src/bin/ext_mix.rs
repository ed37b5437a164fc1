//! Extension experiment: read/update mix sweep (crossover analysis).
//!
//! HOOP's advantage comes from cheap durable writes; its cost is the
//! redirected-read path. Sweeping YCSB's update fraction from read-only to
//! write-only shows where each engine's regime begins — the crossovers the
//! shape-reproduction cares about.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::RunnerOptions;
use simcore::config::SimConfig;
use workloads::driver::{build_system, Driver, ENGINES};

fn main() {
    let sim = SimConfig::default();
    let scale = RunnerOptions::from_args(&[]).0.scale;
    let fractions: &[f64] = match scale {
        Scale::Quick => &[0.2, 0.8],
        Scale::Full => &[0.0, 0.2, 0.5, 0.8, 0.95],
    };
    let txs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 30_000,
    };

    println!("== Extension: YCSB update-fraction sweep (tx/ms) ==");
    print!("{:<10}", "upd_frac");
    for e in ENGINES {
        print!("{e:>11}");
    }
    println!();
    let mut rows = Vec::new();
    for &f in fractions {
        print!("{f:<10}");
        let mut row = format!("{f}");
        for engine in ENGINES {
            let mut spec = spec_for(MATRIX[10], scale);
            spec.update_fraction = f;
            let mut sys = build_system(engine, &sim);
            let mut driver = Driver::new(spec, &sim);
            driver.setup(&mut sys);
            let r = driver.run(&mut sys, txs / 10, txs);
            assert_eq!(r.verify_errors, 0);
            print!("{:>11.1}", r.throughput_tx_per_ms);
            row += &format!(",{:.3}", r.throughput_tx_per_ms);
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
