//! Simulated statistics of the cells of one pass, summed per layer.
//!
//! Everything here is simulated and deterministic for a given seed: a
//! change that only makes the simulator faster must leave every figure
//! identical. The per-layer counts come from the public accessors of the
//! system (`hier_stats`, `tx_latency`, `media`) and of its engine (`stats`,
//! `device`).

use engines::system::System;
use nvm::media::MediaSummary;
use simcore::time::cycles_to_ms;
use simcore::Cycle;
use workloads::driver::ENGINES;

use crate::timed::engine_index;

/// Simulated totals of one engine over a workload's cells.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineTotals {
    /// Committed transactions in the measured windows.
    pub txs: u64,
    /// Simulated cycles of the measured windows.
    pub cycles: Cycle,
    /// NVM bytes written in the measured windows.
    pub bytes_written: u64,
}

impl EngineTotals {
    /// Transactions per simulated millisecond.
    pub fn tx_per_ms(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.txs as f64 / cycles_to_ms(self.cycles)
        }
    }

    /// NVM bytes written per committed transaction.
    pub fn write_bytes_per_tx(&self) -> f64 {
        self.bytes_written as f64 / self.txs.max(1) as f64
    }
}

/// Per-layer simulated counts summed over the cells of a pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Cells tallied.
    pub cells: u64,
    /// `memhier`: hierarchy accesses, LLC hits and misses, dirty evictions.
    pub accesses: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub dirty_evictions: u64,
    /// `engines`: the `EngineStats` counters, over every engine.
    pub misses_served: u64,
    pub miss_memory_loads: u64,
    pub gc_runs: u64,
    pub gc_bytes_in: u64,
    pub gc_bytes_out: u64,
    pub commit_stall_cycles: u64,
    pub ondemand_gc_stall_cycles: u64,
    /// `hoop`: the same counters over the HOOP cells only.
    pub hoop_gc_runs: u64,
    pub hoop_gc_bytes_in: u64,
    pub hoop_gc_bytes_out: u64,
    pub hoop_parallel_reads: u64,
    pub hoop_misses_served: u64,
    pub hoop_miss_memory_loads: u64,
    /// Critical-path latency bounds (cycles) of the HOOP cells, the largest
    /// over the workload's HOOP cells.
    pub hoop_latency_p50: u64,
    pub hoop_latency_p99: u64,
    /// `nvm`: device traffic, row-buffer outcomes, energy and utilisation.
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub energy_pj: f64,
    pub utilization_sum: f64,
    /// `nvm::media` counters, summed over cells.
    pub media: MediaSummary,
}

impl Tally {
    /// Adds one cell's post-window machine state.
    pub fn add(&mut self, sys: &System) {
        let engine = sys.engine();
        let stats = engine.stats();
        let device = engine.device();
        let hier = sys.hier_stats();
        self.cells += 1;
        self.accesses += hier.accesses.get();
        self.llc_hits += hier.llc_hits.get();
        self.llc_misses += hier.llc_misses.get();
        self.dirty_evictions += hier.dirty_evictions.get();
        self.misses_served += stats.misses_served.get();
        self.miss_memory_loads += stats.miss_memory_loads.get();
        self.gc_runs += stats.gc_runs.get();
        self.gc_bytes_in += stats.gc_bytes_in.get();
        self.gc_bytes_out += stats.gc_bytes_out.get();
        self.commit_stall_cycles += stats.commit_stall_cycles.get();
        self.ondemand_gc_stall_cycles += stats.ondemand_gc_stall_cycles.get();
        if engine.name() == "HOOP" {
            self.hoop_gc_runs += stats.gc_runs.get();
            self.hoop_gc_bytes_in += stats.gc_bytes_in.get();
            self.hoop_gc_bytes_out += stats.gc_bytes_out.get();
            self.hoop_parallel_reads += stats.parallel_reads.get();
            self.hoop_misses_served += stats.misses_served.get();
            self.hoop_miss_memory_loads += stats.miss_memory_loads.get();
            let lat = sys.tx_latency();
            self.hoop_latency_p50 = self.hoop_latency_p50.max(lat.percentile_bound(50.0));
            self.hoop_latency_p99 = self.hoop_latency_p99.max(lat.percentile_bound(99.0));
        }
        let traffic = device.traffic();
        self.bytes_read += traffic.total_read();
        self.bytes_written += traffic.total_written();
        for g in device.bank_groups() {
            self.row_hits += g.row_hits();
            self.row_misses += g.row_misses();
        }
        self.energy_pj += device.energy_pj();
        self.utilization_sum += device.utilization();
        let m = sys.media().summary();
        let s = &mut self.media;
        s.reads += m.reads;
        s.corrected += m.corrected;
        s.uncorrectable += m.uncorrectable;
        s.retries += m.retries;
        s.scrub_rewrites += m.scrub_rewrites;
        s.retired += m.retired;
        s.spare_exhausted += m.spare_exhausted;
        s.data_loss += m.data_loss;
    }
}

/// Simulated window totals per engine, in `ENGINES` order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals(pub [EngineTotals; ENGINES.len()]);

impl Totals {
    /// Adds one cell's window: `txs` committed over `cycles`, writing
    /// `bytes_written` NVM bytes.
    pub fn add(&mut self, engine: &str, txs: u64, cycles: Cycle, bytes_written: u64) {
        let e = &mut self.0[engine_index(engine)];
        e.txs += txs;
        e.cycles += cycles;
        e.bytes_written += bytes_written;
    }

    /// Committed transactions over all cells.
    pub fn txs(&self) -> u64 {
        self.0.iter().map(|e| e.txs).sum()
    }

    /// Simulated HOOP throughput over Opt-Redo's, over these cells.
    pub fn hoop_speedup(&self) -> f64 {
        let (hoop, redo) = (self.engine("HOOP"), self.engine("Opt-Redo"));
        hoop.tx_per_ms() / redo.tx_per_ms().max(f64::MIN_POSITIVE)
    }

    /// HOOP NVM bytes written per transaction over Opt-Redo's.
    pub fn hoop_write_ratio(&self) -> f64 {
        let (hoop, redo) = (self.engine("HOOP"), self.engine("Opt-Redo"));
        hoop.write_bytes_per_tx() / redo.write_bytes_per_tx().max(f64::MIN_POSITIVE)
    }

    /// Totals of the named engine.
    pub fn engine(&self, name: &str) -> EngineTotals {
        self.0[engine_index(name)]
    }
}
