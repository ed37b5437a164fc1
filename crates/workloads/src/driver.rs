//! Workload driver and measurement harness.
//!
//! Builds one private workload instance per worker core (the paper runs
//! eight threads, each against its own data — §IV-A), interleaves their
//! transactions over the simulated machine by always advancing the core
//! with the smallest local clock, and reports the metrics every figure of
//! the paper is built from.

use engines::system::System;
use engines::{EngineStats, PersistenceEngine};
use memhier::HierStats;
use simcore::config::SimConfig;
use simcore::time::cycles_to_ms;
use simcore::{CoreId, Cycle};

use crate::pbtree::PBTree;
use crate::phashmap::PHashmap;
use crate::pqueue::PQueue;
use crate::prbtree::PRbTree;
use crate::pvector::PVector;
use crate::spec::{WorkloadKind, WorkloadSpec};
use crate::tpcc::TpccNewOrder;
use crate::ycsb::Ycsb;
use crate::TxWorkload;

/// Builds one workload instance (deterministic per `stream`).
pub fn build_workload(spec: WorkloadSpec, stream: u64) -> Box<dyn TxWorkload> {
    match spec.kind {
        WorkloadKind::Vector => Box::new(PVector::new(spec, stream)),
        WorkloadKind::Hashmap => Box::new(PHashmap::new(spec, stream)),
        WorkloadKind::Queue => Box::new(PQueue::new(spec, stream)),
        WorkloadKind::RbTree => Box::new(PRbTree::new(spec, stream)),
        WorkloadKind::BTree => Box::new(PBTree::new(spec, stream)),
        WorkloadKind::Ycsb => Box::new(Ycsb::new(spec, stream)),
        WorkloadKind::Tpcc => Box::new(TpccNewOrder::new(spec, stream)),
    }
}

/// Measured results of one workload run on one engine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine name.
    pub engine: &'static str,
    /// Workload name.
    pub workload: String,
    /// Committed transactions in the measured window.
    pub txs: u64,
    /// Simulated cycles elapsed in the measured window.
    pub cycles: Cycle,
    /// Transactions per simulated millisecond.
    pub throughput_tx_per_ms: f64,
    /// Mean critical-path latency per transaction (cycles).
    pub avg_tx_latency: f64,
    /// NVM bytes written per transaction (all traffic classes).
    pub write_bytes_per_tx: f64,
    /// NVM bytes read per transaction.
    pub read_bytes_per_tx: f64,
    /// NVM energy per transaction (pJ).
    pub energy_pj_per_tx: f64,
    /// LLC miss ratio of the run.
    pub llc_miss_ratio: f64,
    /// Memory loads per LLC miss (paper §IV-C profiles 1.28 for HOOP).
    pub loads_per_miss: f64,
    /// Fraction of served misses that needed parallel OOP+home reads.
    pub parallel_read_fraction: f64,
    /// GC data-reduction ratio (Table IV).
    pub gc_reduction: f64,
    /// Critical-path cycles lost to on-demand GC (Fig. 10/13 mechanism).
    pub ondemand_gc_stall_cycles: u64,
    /// Post-run verification mismatches (0 = functionally correct).
    pub verify_errors: usize,
    /// Snapshot of the engine's raw counters at the end of the run.
    pub engine_stats: EngineStats,
    /// Snapshot of the cache-hierarchy counters at the end of the run.
    pub hier_stats: HierStats,
    /// Engine-specific `(name, value)` metrics.
    pub extra_metrics: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// Formats a compact single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<9} {:<12} txs={:<7} thr={:>9.1} tx/ms lat={:>8.0} cyc wr/tx={:>7.1}B rd/tx={:>8.1}B pj/tx={:>9.0}",
            self.engine,
            self.workload,
            self.txs,
            self.throughput_tx_per_ms,
            self.avg_tx_latency,
            self.write_bytes_per_tx,
            self.read_bytes_per_tx,
            self.energy_pj_per_tx
        )
    }
}

/// Assembles a [`RunReport`] from the machine's post-drain state. Shared by
/// the live driver and trace replay (`hoop-trace`) so both build reports
/// through a single code path — byte-identical replay results are part of
/// the determinism contract (DESIGN.md §11).
pub fn report_from(
    sys: &System,
    workload: String,
    cycles: Cycle,
    verify_errors: usize,
) -> RunReport {
    let engine = sys.engine();
    let stats = engine.stats();
    let traffic = engine.device().traffic();
    let txs = stats.committed_txs.get().max(1);
    let misses = stats.misses_served.get().max(1);
    RunReport {
        engine: engine.name(),
        workload,
        txs: stats.committed_txs.get(),
        cycles,
        throughput_tx_per_ms: stats.committed_txs.get() as f64 / cycles_to_ms(cycles.max(1)),
        avg_tx_latency: sys.tx_latency().mean(),
        write_bytes_per_tx: traffic.total_written() as f64 / txs as f64,
        read_bytes_per_tx: traffic.total_read() as f64 / txs as f64,
        energy_pj_per_tx: engine.device().energy_pj() / txs as f64,
        llc_miss_ratio: sys.hier_stats().llc_miss_ratio(),
        loads_per_miss: stats.loads_per_miss(),
        parallel_read_fraction: stats.parallel_reads.get() as f64 / misses as f64,
        gc_reduction: stats.gc_reduction_ratio(),
        ondemand_gc_stall_cycles: stats.ondemand_gc_stall_cycles.get(),
        verify_errors,
        engine_stats: stats.clone(),
        hier_stats: *sys.hier_stats(),
        extra_metrics: engine.extra_metrics(),
    }
}

/// The measurement window of every run, live or replayed: `warmup`
/// transactions, a drain and counter reset (the window starts from a steady
/// durable state), then `measured` transactions — extended, up to 64×,
/// until `min_cycles` of simulated time elapse — and a final drain.
/// `next_tx(sys, core)` runs the next transaction of the core
/// [`System::next_core`] picks. Returns the window's simulated cycles.
pub fn run_window(
    sys: &mut System,
    warmup: u64,
    measured: u64,
    min_cycles: Cycle,
    mut next_tx: impl FnMut(&mut System, CoreId),
) -> Cycle {
    for _ in 0..warmup {
        let core = sys.next_core();
        next_tx(sys, core);
    }
    sys.drain();
    sys.reset_counters();
    let t0 = sys.global_time();
    let mut issued = 0u64;
    while issued < measured
        || (sys.global_time() - t0 < min_cycles && issued < measured.saturating_mul(64))
    {
        let core = sys.next_core();
        next_tx(sys, core);
        issued += 1;
    }
    sys.drain();
    sys.global_time() - t0
}

/// Drives per-core workload instances over a `System`.
pub struct Driver {
    workloads: Vec<Box<dyn TxWorkload>>,
    issued: Vec<u64>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("workers", &self.workloads.len())
            .finish()
    }
}

impl Driver {
    /// Builds one workload instance per worker core of `cfg`.
    pub fn new(spec: WorkloadSpec, cfg: &SimConfig) -> Self {
        let workers = cfg.worker_threads as usize;
        Driver {
            workloads: (0..workers)
                .map(|w| build_workload(spec, w as u64))
                .collect(),
            issued: vec![0; workers],
        }
    }

    /// Sets up every worker's private data on the machine.
    pub fn setup(&mut self, sys: &mut System) {
        for (w, wl) in self.workloads.iter_mut().enumerate() {
            wl.setup(sys, CoreId(w as u8));
        }
    }

    /// Runs `warmup` then `measured` transactions (interleaved across
    /// workers), drains, and reports.
    pub fn run(&mut self, sys: &mut System, warmup: u64, measured: u64) -> RunReport {
        self.run_until(sys, warmup, measured, 0)
    }

    /// Like [`run`](Driver::run), but keeps issuing transactions (beyond
    /// `measured`, up to 64x) until at least `min_cycles` of simulated time
    /// elapse — so a measured window spans several background GC/checkpoint
    /// periods and captures steady-state traffic.
    pub fn run_until(
        &mut self,
        sys: &mut System,
        warmup: u64,
        measured: u64,
        min_cycles: Cycle,
    ) -> RunReport {
        let cycles = run_window(sys, warmup, measured, min_cycles, |sys, core| {
            self.run_one(sys, core)
        });
        let verify_errors = self.verify(sys);
        report_from(
            sys,
            self.workloads[0].name().to_string(),
            cycles,
            verify_errors,
        )
    }

    /// Runs a single transaction on `core` (profiling/driver internals).
    pub fn run_one(&mut self, sys: &mut System, core: CoreId) {
        self.issued[core.index()] += 1;
        self.workloads[core.index()].run_tx(sys, core);
    }

    /// Transactions issued so far on each worker core (warmup + measured).
    /// Trace recording uses the maximum to size per-core stream depth for
    /// runs whose length is timing-dependent (`min_cycles > 0`).
    pub fn issued_per_core(&self) -> &[u64] {
        &self.issued
    }

    /// Verifies every worker's structure; returns total mismatches.
    pub fn verify(&self, sys: &System) -> usize {
        self.workloads.iter().map(|w| w.verify(sys)).sum()
    }
}

/// Convenience: build a system for `engine_name` over `cfg`. Lives here so
/// harnesses and tests share one registry of engines.
pub fn build_system(engine_name: &str, cfg: &SimConfig) -> System {
    let engine: Box<dyn PersistenceEngine> = match engine_name {
        "Ideal" => Box::new(engines::native::NativeEngine::new(cfg)),
        "Opt-Redo" => Box::new(engines::redo::OptRedoEngine::new(cfg)),
        "Opt-Undo" => Box::new(engines::undo::OptUndoEngine::new(cfg)),
        "OSP" => Box::new(engines::osp::OspEngine::new(cfg)),
        "LSM" => Box::new(engines::lsm::LsmEngine::new(cfg)),
        "LAD" => Box::new(engines::lad::LadEngine::new(cfg)),
        "HOOP" => Box::new(hoop::engine::HoopEngine::new(cfg)),
        "HOOP-MC2" => Box::new(hoop::multi::MultiHoopEngine::new(cfg, 2)),
        "HOOP-MC4" => Box::new(hoop::multi::MultiHoopEngine::new(cfg, 4)),
        other => panic!("unknown engine {other}"),
    };
    System::new(engine, cfg)
}

/// Engine names in the paper's presentation order.
pub const ENGINES: [&str; 7] = ["Opt-Redo", "Opt-Undo", "OSP", "LSM", "LAD", "HOOP", "Ideal"];

/// Every name [`build_system`] accepts: [`ENGINES`], then the
/// multi-controller HOOP variants (§III-I) outside the paper's grid.
pub fn engine_names() -> impl Iterator<Item = &'static str> {
    ENGINES.into_iter().chain(["HOOP-MC2", "HOOP-MC4"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_runs_every_workload_on_native() {
        let cfg = SimConfig::small_for_tests();
        for kind in WorkloadKind::ALL {
            let mut spec = WorkloadSpec::small(kind);
            spec.items = 128;
            let mut sys = build_system("Ideal", &cfg);
            let mut driver = Driver::new(spec, &cfg);
            driver.setup(&mut sys);
            let report = driver.run(&mut sys, 10, 60);
            assert_eq!(report.verify_errors, 0, "{kind} failed verification");
            assert_eq!(report.txs, 60, "{kind} tx count");
            assert!(report.throughput_tx_per_ms > 0.0);
        }
    }

    #[test]
    fn every_engine_builds() {
        let cfg = SimConfig::small_for_tests();
        for name in engine_names() {
            let sys = build_system(name, &cfg);
            assert_eq!(sys.engine().name(), name);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_engine_panics() {
        let _ = build_system("nope", &SimConfig::small_for_tests());
    }
}
