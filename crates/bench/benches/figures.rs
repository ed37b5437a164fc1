//! Figure-path benchmarks: every paper experiment exercised at reduced
//! scale under Criterion, so `cargo bench` touches the code that
//! regenerates each table and figure (the full-scale harnesses are the
//! `fig*`/`table*` binaries).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use engines::PersistenceEngine as _;
use hoop::engine::HoopEngine;
use hoop::recovery::model_recovery_ms;
use hoop_bench::experiments::{spec_for, Scale, MATRIX, TPCC};
use hoop_bench::runner::{fixed_window, run_cell, Cell, RunnerOptions};
use simcore::config::SimConfig;
use simcore::{CoreId, PAddr};
use workloads::WorkloadSpec;

/// Fig. 7/8/9 path: one engine × workload cell at quick scale.
fn fig7_cells(c: &mut Criterion) {
    let sim = SimConfig::default();
    let opts = RunnerOptions::live(Scale::Quick, 1);
    let mut group = c.benchmark_group("fig7_cell");
    group.sample_size(10);
    for engine in ["HOOP", "Opt-Redo", "LAD"] {
        group.bench_function(engine, |b| {
            let cell = Cell::grid(engine, MATRIX[2], Scale::Quick, &sim);
            b.iter(|| black_box(run_cell(&cell, &opts)))
        });
    }
    group.finish();
}

/// Table IV path: GC reduction measurement.
fn table4_path(c: &mut Criterion) {
    let opts = RunnerOptions::live(Scale::Quick, 1);
    let spec = WorkloadSpec {
        items: 256,
        ..spec_for(MATRIX[0], Scale::Quick)
    };
    let cell = Cell {
        spec,
        window: fixed_window(0, 100),
        ..Cell::grid("HOOP", MATRIX[0], Scale::Quick, &SimConfig::default())
    };
    c.bench_function("table4_gc_reduction", |b| {
        b.iter(|| black_box(run_cell(&cell, &opts).report.gc_reduction))
    });
}

/// Fig. 10 path: one GC pass over a populated region.
fn fig10_gc_pass(c: &mut Criterion) {
    c.bench_function("fig10_gc_pass", |b| {
        b.iter_batched(
            || {
                let cfg = SimConfig::small_for_tests();
                let mut e = HoopEngine::new(&cfg);
                for i in 0..500u64 {
                    let tx = e.tx_begin(CoreId(0), i * 50);
                    e.on_store(CoreId(0), tx, PAddr(i % 64 * 64), &i.to_le_bytes(), i * 50);
                    e.tx_end(CoreId(0), tx, i * 50 + 10);
                }
                e
            },
            |mut e| black_box(e.run_gc(1_000_000)),
            criterion::BatchSize::SmallInput,
        )
    });
}

/// Fig. 11 path: crash recovery (functional parallel scan + model).
fn fig11_recovery(c: &mut Criterion) {
    c.bench_function("fig11_recovery_4threads", |b| {
        b.iter_batched(
            || {
                let cfg = SimConfig::small_for_tests();
                let mut e = HoopEngine::new(&cfg);
                for i in 0..400u64 {
                    let tx = e.tx_begin(CoreId(0), i * 50);
                    e.on_store(CoreId(0), tx, PAddr(i % 32 * 64), &i.to_le_bytes(), i * 50);
                    e.tx_end(CoreId(0), tx, i * 50 + 10);
                }
                e.crash();
                e
            },
            |mut e| black_box(e.recover(4)),
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("fig11_model", |b| {
        b.iter(|| black_box(model_recovery_ms(1 << 30, 64 << 20, 8, 25.0)))
    });
}

/// Fig. 12/13 paths: latency / mapping-table sweeps at quick scale.
fn fig12_fig13_sweeps(c: &mut Criterion) {
    let opts = RunnerOptions::live(Scale::Quick, 1);
    let (mut slow_read, mut small_map) = (SimConfig::default(), SimConfig::default());
    slow_read.nvm.read_ns = 150.0;
    small_map.hoop.mapping_table_bytes = 128 * 1024;
    let mut group = c.benchmark_group("sweeps");
    group.sample_size(10);
    for (name, wcfg, sim) in [
        ("fig12_read_latency_point", MATRIX[10], slow_read),
        ("fig13_small_mapping_point", MATRIX[10], small_map),
        ("tpcc_cell", TPCC, SimConfig::default()),
    ] {
        let cell = Cell::grid("HOOP", wcfg, Scale::Quick, &sim);
        group.bench_function(name, |b| b.iter(|| black_box(run_cell(&cell, &opts))));
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig7_cells, table4_path, fig10_gc_pass, fig11_recovery, fig12_fig13_sweeps
);
criterion_main!(benches);
