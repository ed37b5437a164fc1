//! Figure 11: recovery performance of a 1 GB OOP region with varying
//! recovery thread counts and NVM bandwidth.
//!
//! Paper shape (§IV-G): recovery time falls linearly with bandwidth until
//! the per-thread scan rate saturates; at ≥25 GB/s and 8 threads, 1 GB
//! recovers in ~47 ms — 2.3x faster than at 10 GB/s; with few threads the
//! scan rate, not the device, is the bottleneck.
//!
//! Two parts: (1) a *functional* recovery of a real populated OOP region
//! (scaled to keep host time reasonable), verifying replayed data and
//! reporting modeled times; (2) the analytic 1 GB grid exactly as the paper
//! plots it.

use engines::PersistenceEngine as _;
use hoop::engine::HoopEngine;
use hoop::recovery::model_recovery_ms;
use hoop_bench::experiments::{write_csv, Scale};
use hoop_bench::runner::RunnerOptions;
use simcore::config::SimConfig;
use simcore::{CoreId, PAddr};

/// Populates the engine's OOP region with committed transactions until
/// roughly `target_bytes` of slices exist.
fn populate(engine: &mut HoopEngine, target_bytes: u64) -> u64 {
    let mut txs = 0u64;
    let mut now = 0;
    let mut key = 0u64;
    while (engine.oop_region().fill_fraction()
        * engine.oop_region().block_count() as f64
        * 2.0
        * 1024.0
        * 1024.0)
        < target_bytes as f64
    {
        let tx = engine.tx_begin(CoreId((txs % 8) as u8), now);
        for i in 0..16u64 {
            let addr = PAddr(((key + i) % 2_000_000) * 8);
            engine.on_store(
                CoreId((txs % 8) as u8),
                tx,
                addr,
                &(txs + i).to_le_bytes(),
                now,
            );
        }
        engine.tx_end(CoreId((txs % 8) as u8), tx, now + 10);
        key = key.wrapping_add(16);
        txs += 1;
        now += 100;
    }
    txs
}

fn main() {
    let scale = RunnerOptions::from_args(&[]).0.scale;
    let threads_list = [1usize, 2, 4, 8, 16];
    let bw_list = [10.0, 15.0, 20.0, 25.0, 30.0];

    // Part 1: real recovery of a populated (scaled) region.
    let populate_bytes: u64 = match scale {
        Scale::Quick => 8 << 20,
        Scale::Full => 128 << 20,
    };
    println!(
        "== Fig 11 (functional, {} MB region) ==",
        populate_bytes >> 20
    );
    println!(
        "{:<10}{:>8}{:>14}{:>14}{:>12}",
        "bw_GB/s", "threads", "scanned_MB", "modeled_ms", "txs"
    );
    let mut rows = Vec::new();
    for &bw in &bw_list {
        for &threads in &threads_list {
            let mut cfg = SimConfig::default();
            cfg.nvm.bandwidth_gbps = bw;
            cfg.hoop.oop_region_bytes = (populate_bytes * 2).next_power_of_two();
            cfg.hoop.mapping_table_bytes = 64 << 20; // no GC interference
            let mut engine = HoopEngine::new(&cfg);
            populate(&mut engine, populate_bytes);
            engine.crash();
            let rep = engine.recover(threads);
            assert!(rep.txs_replayed > 0, "nothing recovered");
            println!(
                "{:<10}{:>8}{:>14.1}{:>14.2}{:>12}",
                bw,
                threads,
                rep.bytes_scanned as f64 / 1.0e6,
                rep.modeled_ms,
                rep.txs_replayed
            );
            rows.push(format!(
                "{bw},{threads},{},{:.3}",
                rep.bytes_scanned, rep.modeled_ms
            ));
        }
    }
    write_csv(
        "fig11_recovery_functional",
        "bw_gbps,threads,bytes_scanned,modeled_ms",
        &rows,
    );

    // Part 2: the paper's exact 1 GB grid from the calibrated model.
    println!("\n== Fig 11 (modeled 1 GB OOP region, as plotted in the paper) ==");
    print!("{:<10}", "bw_GB/s");
    for t in threads_list {
        print!("{t:>10}");
    }
    println!("   (threads)");
    let mut rows = Vec::new();
    for &bw in &bw_list {
        print!("{bw:<10}");
        let mut row = format!("{bw}");
        for &t in &threads_list {
            let ms = model_recovery_ms(1 << 30, 64 << 20, t, bw);
            print!("{ms:>10.1}");
            row += &format!(",{ms:.2}");
        }
        println!();
        rows.push(row);
    }
    write_csv(
        "fig11_recovery_modeled_1gb",
        "bw_gbps,t1,t2,t4,t8,t16",
        &rows,
    );
    let fast = model_recovery_ms(1 << 30, 64 << 20, 8, 25.0);
    let slow = model_recovery_ms(1 << 30, 64 << 20, 8, 10.0);
    println!(
        "\n8 threads: {fast:.0} ms @25 GB/s (paper ~47), {:.1}x faster than 10 GB/s (paper 2.3x)",
        slow / fast
    );
}
