//! The three benchmark workloads and one measurement pass over each.
//!
//! A *pass* builds every cell (engine × structure) of a workload from the
//! seed, runs each cell's timed window and checks its outputs. A run repeats
//! passes until its time is spent; all passes of one seed simulate exactly
//! the same thing, so their simulated statistics must agree bit for bit and
//! their host times are repeated samples of one measurement.
//!
//! Every workload is a closed loop: the next simulated transaction is issued
//! only after the previous one returned, on the core whose simulated clock
//! is furthest behind (the driver's scheduler).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use engines::system::System;
use engines::traits::RecoveryReport;
use simcore::config::{MediaConfig, SimConfig};
use simcore::{CoreId, Cycle};
use trace::TraceReader;
use trace::{default_txs_per_core, record_workload, replay_cell, RecordOptions, ReplayWindow};
use workloads::driver::{report_from, Driver, RunReport, ENGINES};
use workloads::{WorkloadKind, WorkloadSpec};

use crate::gauge;
use crate::host::{timed, HostTime};
use crate::tally::{Tally, Totals};
use crate::timed::{engine, EngineClock};

/// The engines that guarantee crash consistency (Ideal does not, and fails
/// verification after a crash by design).
pub const CRASH_CONSISTENT: [&str; 6] = ["Opt-Redo", "Opt-Undo", "OSP", "LSM", "LAD", "HOOP"];

/// `crash-recover` instances per engine, each a cell with seeds of its own
/// ([`Scale::crash_cell`]). A seed draws one fault schedule, and some cost
/// more to recover from than others; two per run halve that variance.
pub const CRASH_INSTANCES: u64 = 2;

/// Recovery threads: two, or fewer on a host with fewer CPUs. Fixed rather
/// than taken from the host so that the modeled recovery figures do not
/// change from one machine to the next.
pub fn recovery_threads() -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    cpus.min(2)
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Live generation of the write-only 64 B structures on all engines.
    LiveWrite,
    /// Recorded read/write-mixed rows replayed through `trace::replay_cell`.
    ReplayMixed,
    /// Epochs of committed transactions, crash, recovery and verification
    /// with the media-fault model armed.
    CrashRecover,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::LiveWrite,
        Workload::ReplayMixed,
        Workload::CrashRecover,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveWrite => "live-write",
            Workload::ReplayMixed => "replay-mixed",
            Workload::CrashRecover => "crash-recover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One structure of a workload: a Table III row at a dataset size.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Label used in reports ("hashmap-64B", ...).
    pub label: &'static str,
    /// Which benchmark.
    pub kind: WorkloadKind,
    /// Item or value bytes.
    pub item_bytes: u64,
    /// Items per worker core.
    pub items: u64,
}

impl Row {
    /// The workload spec of this row for `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            kind: self.kind,
            item_bytes: self.item_bytes,
            items: self.items,
            zipf_theta: 0.99,
            update_fraction: 0.8,
            seed,
        }
    }
}

/// Sizes of every workload: the machine, the rows and the windows.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// The simulated machine (media faults are armed per workload).
    pub sim: SimConfig,
    /// `live-write` rows.
    pub live_rows: [Row; 2],
    /// `live-write` warmup and measured transactions per cell.
    pub live_warmup: u64,
    pub live_measured: u64,
    /// `replay-mixed` rows.
    pub replay_rows: [Row; 2],
    /// `replay-mixed` warmup and measured transactions per cell, per row.
    pub replay_warmup: u64,
    pub replay_measured: [u64; 2],
    /// `crash-recover` row.
    pub crash_row: Row,
    /// `crash-recover` warmup, epochs per cell and transactions per epoch.
    pub crash_warmup: u64,
    pub crash_epochs: u64,
    pub crash_epoch_txs: u64,
    /// Host-speed gauge steps run before each cell of a gauged pass.
    pub gauge_steps: u64,
}

impl Scale {
    /// The benchmark's sizes on the Table II machine. The live rows' data
    /// is several times the 2 MB LLC.
    pub fn bench() -> Scale {
        Scale {
            sim: SimConfig::default(),
            live_rows: [
                Row {
                    label: "hashmap-64B",
                    kind: WorkloadKind::Hashmap,
                    item_bytes: 64,
                    items: 16 * 1024,
                },
                Row {
                    label: "btree-64B",
                    kind: WorkloadKind::BTree,
                    item_bytes: 64,
                    items: 4 * 1024,
                },
            ],
            live_warmup: 2000,
            live_measured: 12000,
            replay_rows: [
                Row {
                    label: "ycsb-1KB",
                    kind: WorkloadKind::Ycsb,
                    item_bytes: 1024,
                    items: 1024,
                },
                Row {
                    label: "tpcc",
                    kind: WorkloadKind::Tpcc,
                    item_bytes: 64,
                    items: 4 * 1024,
                },
            ],
            replay_warmup: 200,
            replay_measured: [4000, 800],
            crash_row: Row {
                label: "hashmap-64B",
                kind: WorkloadKind::Hashmap,
                item_bytes: 64,
                items: 4 * 1024,
            },
            crash_warmup: 500,
            crash_epochs: 5,
            crash_epoch_txs: 400,
            gauge_steps: 20_000,
        }
    }

    /// A scale small enough for unit tests (two workers, small caches).
    pub fn small() -> Scale {
        let mut s = Scale::bench();
        s.sim = SimConfig::small_for_tests();
        for r in s.live_rows.iter_mut().chain(&mut s.replay_rows) {
            r.items = 128;
        }
        s.crash_row.items = 128;
        s.live_warmup = 20;
        s.live_measured = 60;
        s.replay_warmup = 10;
        s.replay_measured = [40, 20];
        s.crash_warmup = 10;
        s.crash_epochs = 1;
        s.crash_epoch_txs = 30;
        s.gauge_steps = 200;
        s
    }

    /// The workload spec and machine of `crash-recover` instance `k` for
    /// `seed`. Instance 0 runs the seed itself and later ones a SplitMix64
    /// step from it (`shard_seed(seed, 2k)`). The media-fault model is the
    /// mild schedule, armed, with its seed one more step away
    /// (`shard_seed(seed, 2k + 1)`), so that neighbouring seeds give
    /// unrelated fault schedules.
    pub fn crash_cell(&self, seed: u64, k: u64) -> (WorkloadSpec, SimConfig) {
        let step = |i: u64| simcore::shard::shard_seed(seed, i as usize);
        let spec_seed = if k == 0 { seed } else { step(2 * k) };
        let sim = SimConfig {
            media: MediaConfig::enabled(step(2 * k + 1)),
            ..self.sim
        };
        (self.crash_row.spec(spec_seed), sim)
    }
}

/// Host timers and layer counts of one pass that only the pass itself can
/// measure (the simulated ones are in [`Tally`]).
#[derive(Debug, Default)]
pub struct Layers {
    /// Engine callbacks, when the pass is traced.
    pub engine: Option<Arc<EngineClock>>,
    /// Host seconds of the code the engine clock counts: the windows, or
    /// on `replay-mixed` the measured windows of the live reference.
    pub decorated_s: f64,
    /// Workload generation, timed on a capture-only machine over the same
    /// per-core transaction streams (traced passes only).
    pub gen_s: f64,
    /// `Driver::verify` calls.
    pub verify_s: f64,
    /// `trace::record_workload` calls (part of set-up).
    pub record_s: f64,
    /// `TraceReader::decode` calls (part of the windows).
    pub decode_s: f64,
    /// Recorded trace events and encoded bytes.
    pub trace_events: u64,
    pub trace_bytes: u64,
    /// `System::recover` calls (engine recovery plus the image reload).
    pub system_recover_s: f64,
    /// HOOP's recovery reports, summed.
    pub hoop_recover: RecoveryReport,
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of set-up: system build, `Driver::setup` and trace
    /// recording. On `replay-mixed` it also holds each replay's warm-up,
    /// which `replay_cell` runs together with the build.
    pub setup_s: f64,
    /// Host cost of the timed windows.
    pub window: HostTime,
    /// Host-speed gauge steps run in this pass and their host seconds
    /// (none in an ungauged pass).
    pub gauge_steps: u64,
    pub gauge_s: f64,
    /// Simulated window totals per engine.
    pub totals: Totals,
    /// Per-layer simulated counts (for `replay-mixed`, from the live
    /// reference run of the same cells).
    pub tally: Tally,
    /// Host milliseconds of each crash + recovery.
    pub recover_ms: Vec<f64>,
    /// Operations attempted (transactions issued in windows, recoveries and
    /// output checks).
    pub attempted: u64,
    /// Failed operations and what failed.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Rendering of every simulated statistic of the windows; equal across
    /// passes of one seed.
    pub sim: String,
    /// The same for the live reference of `replay-mixed`, when it ran.
    pub reference: Option<String>,
    /// Host timers and layer counts.
    pub layers: Layers,
}

impl Pass {
    /// Whether engine callbacks were timed.
    pub fn traced(&self) -> bool {
        self.layers.engine.is_some()
    }

    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.failures.push(what);
    }

    /// Runs the host-speed gauge before a cell, if the pass is gauged.
    fn gauge(&mut self, scale: &Scale, gauged: bool) {
        if gauged {
            self.gauge_s += gauge::measure(scale.gauge_steps);
            self.gauge_steps += scale.gauge_steps;
        }
    }

    /// Runs `cell`; a panic fails the cell's `ops` planned operations
    /// instead of aborting the run.
    fn guard(&mut self, ops: u64, what: &str, cell: impl FnOnce(&mut Pass)) {
        if catch_unwind(AssertUnwindSafe(|| cell(self))).is_err() {
            self.attempted += ops;
            self.fail(ops, format!("{what}: panicked"));
        }
    }
}

/// How a pass is measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassMode {
    /// Wrap every engine in the timing decorator, taking this clock-read
    /// bias (ns) off each timed call.
    pub trace_bias_ns: Option<f64>,
    /// Run the live reference of `replay-mixed` (the other workloads
    /// ignore it).
    pub reference: bool,
    /// Run the host-speed gauge before every cell.
    pub gauge: bool,
}

/// Runs one pass of `workload` for `seed`.
pub fn run_pass(workload: Workload, scale: &Scale, seed: u64, mode: PassMode) -> Pass {
    let mut pass = Pass::default();
    pass.layers.engine = mode.trace_bias_ns.map(EngineClock::shared);
    match workload {
        Workload::LiveWrite => live_write(&mut pass, scale, seed, mode.gauge),
        Workload::ReplayMixed => replay_mixed(&mut pass, scale, seed, mode),
        Workload::CrashRecover => crash_recover(&mut pass, scale, seed, mode.gauge),
    }
    pass
}

/// Issues `n` transactions, each on the core the scheduler picks.
fn issue(driver: &mut Driver, sys: &mut System, n: u64) {
    for _ in 0..n {
        let core = sys.next_core();
        driver.run_one(sys, core);
    }
}

/// Warms a cell up, then drains and resets its counters, exactly as
/// `Driver::run_until` does before its measured window.
fn warm_up(driver: &mut Driver, sys: &mut System, warmup: u64) {
    issue(driver, sys, warmup);
    sys.drain();
    sys.reset_counters();
}

/// The measured window of `Driver::run_until` with `min_cycles = 0`:
/// `measured` transactions, then a drain. Returns the simulated cycles.
fn measured_window(driver: &mut Driver, sys: &mut System, measured: u64) -> Cycle {
    let t0 = sys.global_time();
    issue(driver, sys, measured);
    sys.drain();
    sys.global_time() - t0
}

/// Host seconds of generating, on a capture-only machine, the transactions
/// each core issued between `before` and `after` (per-core issue counts).
/// Each core's stream depends only on its own workload instance, so this
/// is the generation work of the measured window.
fn generation_seconds(spec: WorkloadSpec, cfg: &SimConfig, before: &[u64], after: &[u64]) -> f64 {
    let mut sys = System::new_capture(cfg);
    let mut driver = Driver::new(spec, cfg);
    driver.setup(&mut sys);
    for (c, &n) in before.iter().enumerate() {
        for _ in 0..n {
            driver.run_one(&mut sys, CoreId(c as u8));
        }
    }
    timed(|| {
        for (c, (&b, &a)) in before.iter().zip(after).enumerate() {
            for _ in b..a {
                driver.run_one(&mut sys, CoreId(c as u8));
            }
        }
    })
    .0
}

/// Runs `f` with `clock`, if any, counting engine callbacks.
fn counting<R>(clock: Option<&EngineClock>, f: impl FnOnce() -> R) -> R {
    match clock {
        Some(c) => c.count(f),
        None => f(),
    }
}

/// Runs `f` as a timed window of the pass: its host time goes to the
/// pass's windows and, with the engine clock open, to `decorated_s`.
fn window<R>(pass: &mut Pass, f: impl FnOnce() -> R) -> R {
    let clock = pass.layers.engine.clone();
    let wall0 = pass.window.wall_s;
    let out = pass.window.time(|| counting(clock.as_deref(), f));
    pass.layers.decorated_s += pass.window.wall_s - wall0;
    out
}

/// Builds a cell's machine and sets up its workload, charging set-up time.
fn build_cell(
    pass: &mut Pass,
    name: &str,
    spec: WorkloadSpec,
    cfg: &SimConfig,
) -> (System, Driver) {
    let clock = pass.layers.engine.clone();
    let (secs, cell) = timed(|| {
        let mut sys = System::new(engine(name, cfg, clock.as_ref()), cfg);
        let mut driver = Driver::new(spec, cfg);
        driver.setup(&mut sys);
        (sys, driver)
    });
    pass.setup_s += secs;
    cell
}

/// Verifies a cell's structures, charging the check to `verify_s`.
/// Returns the mismatches.
fn verify(pass: &mut Pass, driver: &Driver, sys: &System, what: &str) -> usize {
    let (secs, errors) = timed(|| driver.verify(sys));
    pass.layers.verify_s += secs;
    pass.attempted += 1;
    if errors != 0 {
        pass.fail(1, format!("{what}: {errors} verification mismatches"));
    }
    errors
}

fn live_write(pass: &mut Pass, scale: &Scale, seed: u64, gauged: bool) {
    let cfg = scale.sim;
    for row in scale.live_rows {
        let spec = row.spec(seed);
        for name in ENGINES {
            let what = format!("live-write {}/{name}", row.label);
            pass.guard(scale.live_measured, &what, |pass| {
                pass.gauge(scale, gauged);
                let (mut sys, mut driver) = build_cell(pass, name, spec, &cfg);
                warm_up(&mut driver, &mut sys, scale.live_warmup);
                let before = driver.issued_per_core().to_vec();
                let cycles = window(pass, || {
                    measured_window(&mut driver, &mut sys, scale.live_measured)
                });
                pass.attempted += scale.live_measured;
                if pass.traced() {
                    pass.layers.gen_s +=
                        generation_seconds(spec, &cfg, &before, driver.issued_per_core());
                }
                let errors = verify(pass, &driver, &sys, &what);
                let report = report_from(&sys, row.label.to_string(), cycles, errors);
                add_report(pass, &report);
                pass.tally.add(&sys);
                pass.sim.push_str(&format!("{report:?}\n"));
            });
        }
    }
}

/// Adds a window's report to the per-engine totals.
fn add_report(pass: &mut Pass, report: &RunReport) {
    // `write_bytes_per_tx` is total bytes over `max(txs, 1)`; rounding the
    // product recovers the integer total exactly at these magnitudes.
    let bytes = (report.write_bytes_per_tx * report.txs.max(1) as f64).round() as u64;
    pass.totals
        .add(report.engine, report.txs, report.cycles, bytes);
}

fn replay_mixed(pass: &mut Pass, scale: &Scale, seed: u64, mode: PassMode) {
    let cfg = scale.sim;
    let workers = u64::from(cfg.worker_threads);
    let mut encoded = Vec::new();
    for (row, measured) in scale.replay_rows.iter().zip(scale.replay_measured) {
        let spec = row.spec(seed);
        let opts = RecordOptions {
            txs_per_core: default_txs_per_core(scale.replay_warmup + measured, workers),
            values: false,
        };
        let (record_s, recorded) = timed(|| record_workload(row.label, spec, &cfg, opts));
        let (encode_s, recorded) = timed(|| recorded.map(|tf| (tf.event_count(), tf.encode())));
        pass.setup_s += record_s + encode_s;
        pass.layers.record_s += record_s;
        match recorded {
            Ok((events, bytes)) => {
                pass.layers.trace_events += events;
                pass.layers.trace_bytes += bytes.len() as u64;
                encoded.push(Some(bytes));
            }
            Err(e) => {
                pass.attempted += 1;
                pass.fail(
                    1,
                    format!("replay-mixed {}: recording failed: {e}", row.label),
                );
                encoded.push(None);
            }
        }
    }
    let mut replays: Vec<Option<RunReport>> = Vec::new();
    for ((row, measured), bytes) in scale
        .replay_rows
        .iter()
        .zip(scale.replay_measured)
        .zip(&encoded)
    {
        let window = ReplayWindow {
            warmup: scale.replay_warmup,
            measured,
            min_cycles: 0,
        };
        // Decoding is part of the window: a replay starts from the encoded
        // trace, as `--replay` starts from a trace file.
        let decoded = bytes.as_ref().map(|bytes| {
            let wall0 = pass.window.wall_s;
            let tf = pass.window.time(|| TraceReader::decode(bytes));
            pass.layers.decode_s += pass.window.wall_s - wall0;
            tf
        });
        let tf = match decoded {
            Some(Ok(tf)) => Some(tf),
            Some(Err(e)) => {
                pass.attempted += 1;
                pass.fail(
                    1,
                    format!("replay-mixed {}: decoding failed: {e}", row.label),
                );
                None
            }
            None => None,
        };
        for name in ENGINES {
            let Some(tf) = &tf else {
                replays.push(None);
                continue;
            };
            let what = format!("replay-mixed {}/{name}", row.label);
            let mut out = None;
            pass.guard(measured, &what, |pass| {
                pass.gauge(scale, mode.gauge);
                // `replay_cell` builds the system, applies the setup events
                // and warms up before its measured window. A replay with no
                // measured transactions times that prefix, which is set-up
                // and is taken out of the window.
                let mut prefix = HostTime::default();
                let prefix_window = ReplayWindow {
                    measured: 0,
                    ..window
                };
                prefix.time(|| replay_cell(tf, name, &cfg, prefix_window, false));
                pass.setup_s += prefix.wall_s;
                let mut report = pass
                    .window
                    .time(|| replay_cell(tf, name, &cfg, window, false).0);
                pass.window.remove(prefix);
                report.workload = row.label.to_string();
                pass.attempted += measured;
                add_report(pass, &report);
                pass.sim.push_str(&format!("{report:?}\n"));
                out = Some(report);
            });
            replays.push(out);
        }
    }
    if !mode.reference {
        return;
    }
    // The live reference: the same cells generated live, outside every
    // timed window. Replay must reproduce it exactly.
    let mut rendered = String::new();
    let mut replayed = replays.into_iter();
    for (row, measured) in scale.replay_rows.iter().zip(scale.replay_measured) {
        let spec = row.spec(seed);
        for name in ENGINES {
            let what = format!("replay-mixed {}/{name} reference", row.label);
            let replay = replayed.next().flatten();
            pass.guard(1, &what, |pass| {
                // The steps of `Driver::run_until`, as in the live-write
                // cells, with the engine clock open over the measured
                // window only.
                let clock = pass.layers.engine.clone();
                let mut sys = System::new(engine(name, &cfg, clock.as_ref()), &cfg);
                let mut driver = Driver::new(spec, &cfg);
                driver.setup(&mut sys);
                warm_up(&mut driver, &mut sys, scale.replay_warmup);
                let (secs, cycles) = timed(|| {
                    counting(clock.as_deref(), || {
                        measured_window(&mut driver, &mut sys, measured)
                    })
                });
                pass.layers.decorated_s += secs;
                let errors = driver.verify(&sys);
                let live = report_from(&sys, row.label.to_string(), cycles, errors);
                pass.attempted += 1;
                if live.verify_errors != 0 {
                    pass.fail(
                        1,
                        format!("{what}: {} verification mismatches", live.verify_errors),
                    );
                }
                let live = format!("{live:?}\n");
                // A replay that panicked has already failed its cell.
                if replay.is_some_and(|r| format!("{r:?}\n") != live) {
                    pass.fail(1, format!("{what}: replay differs from the live run"));
                }
                pass.tally.add(&sys);
                rendered.push_str(&live);
            });
        }
    }
    pass.reference = Some(rendered);
}

fn crash_recover(pass: &mut Pass, scale: &Scale, seed: u64, gauged: bool) {
    let threads = recovery_threads();
    let planned = scale.crash_epochs * scale.crash_epoch_txs;
    for (name, k) in CRASH_CONSISTENT
        .into_iter()
        .flat_map(|name| (0..CRASH_INSTANCES).map(move |k| (name, k)))
    {
        let (spec, cfg) = scale.crash_cell(seed, k);
        let what = format!("crash-recover {}#{k}/{name}", scale.crash_row.label);
        pass.guard(planned, &what, |pass| {
            pass.gauge(scale, gauged);
            let (mut sys, mut driver) = build_cell(pass, name, spec, &cfg);
            warm_up(&mut driver, &mut sys, scale.crash_warmup);
            let before = driver.issued_per_core().to_vec();
            let mut cycles = 0;
            let mut reports = Vec::new();
            for epoch in 0..scale.crash_epochs {
                let (ms, report) = window(pass, || {
                    let c0 = sys.global_time();
                    issue(&mut driver, &mut sys, scale.crash_epoch_txs);
                    cycles += sys.global_time() - c0;
                    let (crash_s, ()) = timed(|| sys.crash());
                    let (recover_s, report) = timed(|| sys.recover(threads));
                    ((crash_s + recover_s) * 1e3, (recover_s, report))
                });
                let (recover_s, report) = report;
                pass.layers.system_recover_s += recover_s;
                pass.recover_ms.push(ms);
                pass.attempted += scale.crash_epoch_txs + 1;
                if name == "HOOP" {
                    let h = &mut pass.layers.hoop_recover;
                    h.bytes_scanned += report.bytes_scanned;
                    h.bytes_written += report.bytes_written;
                    h.txs_replayed += report.txs_replayed;
                    h.modeled_ms += report.modeled_ms;
                }
                reports.push(report);
                verify(pass, &driver, &sys, &format!("{what} epoch {epoch}"));
            }
            if pass.traced() {
                pass.layers.gen_s +=
                    generation_seconds(spec, &cfg, &before, driver.issued_per_core());
            }
            let media = sys.media().summary();
            pass.attempted += 1;
            if media.uncorrectable != 0 || media.data_loss != 0 {
                pass.fail(
                    1,
                    format!(
                        "{what}: {} uncorrectable reads, {} lines lost",
                        media.uncorrectable, media.data_loss
                    ),
                );
            }
            let written = sys.engine().device().traffic().total_written();
            pass.totals.add(name, planned, cycles, written);
            pass.tally.add(&sys);
            pass.sim.push_str(&format!(
                "{name}#{k} cycles={cycles} recoveries={reports:?} stats={:?} hier={:?} media={media:?}\n",
                sys.engine().stats(),
                sys.hier_stats()
            ));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::driver::build_system;

    /// The benchmark's own warm-up and window reproduce `Driver::run_until`.
    #[test]
    fn live_window_matches_driver_run_until() {
        let scale = Scale::small();
        let pass = run_pass(Workload::LiveWrite, &scale, 4, PassMode::default());
        let mut expected = String::new();
        for row in scale.live_rows {
            for name in ENGINES {
                let mut sys = build_system(name, &scale.sim);
                let mut driver = Driver::new(row.spec(4), &scale.sim);
                driver.setup(&mut sys);
                let mut report =
                    driver.run_until(&mut sys, scale.live_warmup, scale.live_measured, 0);
                report.workload = row.label.to_string();
                expected.push_str(&format!("{report:?}\n"));
            }
        }
        assert_eq!(pass.sim, expected);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
