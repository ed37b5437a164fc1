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
use hoop_bench::runner::RunnerOptions;
use nvm::wearlevel::GAP_MOVE_RATE;
use simcore::config::SimConfig;
use workloads::driver::{build_system, Driver, ENGINES};

fn main() {
    let sim = SimConfig::default();
    let scale = RunnerOptions::from_args(&[]).0.scale;
    let wcfg = MATRIX[2]; // hashmap-64B: the paper's canonical fine-grained updater
    let spec = spec_for(wcfg, scale);
    let txs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 40_000,
    };

    println!(
        "== Extension: NVM lifetime ({} / {} txs) ==",
        wcfg.label, txs
    );
    println!(
        "{:<10}{:>14}{:>12}{:>10}{:>16}",
        "engine", "line writes", "hottest", "skew", "lifetime vs HOOP"
    );
    let mut results = Vec::new();
    for engine in ENGINES {
        let mut sys = build_system(engine, &sim);
        sys.enable_endurance_tracking();
        let mut driver = Driver::new(spec, &sim);
        driver.setup(&mut sys);
        let r = driver.run(&mut sys, 200, txs);
        assert_eq!(r.verify_errors, 0);
        let e = sys
            .engine()
            .device()
            .endurance()
            .expect("tracking enabled")
            .clone();
        results.push((engine, e));
    }
    let hoop_max = results
        .iter()
        .find(|(n, _)| *n == "HOOP")
        .expect("HOOP ran")
        .1
        .max_writes() as f64;
    let mut rows = Vec::new();
    for (engine, e) in &results {
        let lifetime = hoop_max / e.max_writes().max(1) as f64;
        println!(
            "{:<10}{:>14}{:>12}{:>10.2}{:>16.2}",
            engine,
            e.total_writes(),
            e.max_writes(),
            e.skew(),
            lifetime
        );
        rows.push(format!(
            "{engine},{},{},{:.4},{:.4}",
            e.total_writes(),
            e.max_writes(),
            e.skew(),
            lifetime
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
