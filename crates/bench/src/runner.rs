//! Parallel experiment runner.
//!
//! Every figure/table of the paper sweeps the same kind of grid: an engine ×
//! workload (× swept parameter) matrix where each cell owns a private
//! [`System`](engines::system::System) and
//! [`Driver`](workloads::driver::Driver) — cells share nothing, so they are
//! embarrassingly parallel. This module runs a plan's cells across worker
//! threads (`--jobs N`) while keeping results **bit-identical to a serial
//! run**:
//!
//! - each cell's workload seed is derived from its `(engine, workload)`
//!   identity — never from execution order, thread id, or time;
//! - results are collected by cell index, so output order is the plan order
//!   regardless of which thread finished first.
//!
//! [`CellResult`]s carry the full [`RunReport`] including the raw
//! [`EngineStats`](engines::EngineStats) and
//! [`HierStats`](memhier::HierStats) counter snapshots, and serialize to a
//! schema-versioned JSON document (see [`write_json`]) that CI uploads as an
//! artifact and trajectory tooling can diff across commits.
//!
//! Every figure binary also supports trace modes (`--record DIR` /
//! `--replay DIR`): recording captures each workload row once into a binary
//! trace (`hoop-trace`), replaying feeds the recorded streams into every
//! engine of the row. Replay is byte-identical to a live run — CI proves it
//! by `cmp`-ing live and replayed JSON documents.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nvm::wearlevel::{EnduranceMap, GAP_MOVE_RATE};
use pmcheck::{PersistencySanitizer, SanitizerSummary};
use simcore::config::SimConfig;
use trace::{
    default_txs_per_core, record_workload, replay_cell, RecordOptions, ReplayWindow, TraceFile,
    TraceReader,
};
use workloads::driver::{build_system, Driver, RunReport, ENGINES};
use workloads::WorkloadSpec;

use crate::experiments::{spec_for, Scale, WorkloadConfig, MATRIX, TPCC};
use crate::json::Json;

/// Version of the `results/*.json` document layout. Bump when renaming or
/// removing fields (adding fields is backward compatible).
pub const RESULT_SCHEMA_VERSION: u64 = 1;

/// How a figure binary obtains its workload streams.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Generate workloads live (the default).
    #[default]
    Live,
    /// Record each workload row into `DIR/<label>.trace`, then produce the
    /// results by replaying the fresh traces (so a record run still emits
    /// the same JSON a live run would).
    Record(PathBuf),
    /// Replay previously recorded traces from `DIR/<label>.trace`.
    Replay(PathBuf),
}

/// Command-line options shared by every figure/table binary:
/// `--quick`/`--full` selects the [`Scale`], `--jobs N` the worker count,
/// `--sanitize` attaches the persistency sanitizer to every cell,
/// `--endurance` tracks per-line wear and exports an `endurance` summary
/// per cell, `--record DIR` / `--replay DIR` select the trace [`RunMode`],
/// `--depth N` overrides the recorded per-core stream depth and
/// `--shards N` sets the intra-cell host shards.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker threads for cell execution.
    pub jobs: usize,
    /// Attach the persistency sanitizer (`pmcheck`) to every cell. Off by
    /// default so unsanitized runs stay byte-identical to older builds.
    pub sanitize: bool,
    /// Track per-line wear ([`EnduranceMap`]) in every cell and serialize
    /// an `endurance` summary per cell. Off by default so plain runs stay
    /// byte-identical to older builds. Live mode only.
    pub endurance: bool,
    /// Live / record / replay.
    pub mode: RunMode,
    /// Per-core transactions to record (record mode only). `None` sizes the
    /// depth automatically; see [`plan_depth`].
    pub depth: Option<u32>,
    /// Intra-cell host shards (`--shards N`, default 1): each cell's bulk
    /// phases run on this many host threads (see `simcore::shard`). A pure
    /// host knob — results are byte-identical for every value.
    pub shards: u8,
}

/// The value-less flags every figure binary accepts.
const SWITCHES: [&str; 4] = ["--quick", "--full", "--sanitize", "--endurance"];
/// The flags every figure binary accepts that take a value.
const VALUED: [&str; 5] = ["--jobs", "--record", "--replay", "--depth", "--shards"];

impl RunnerOptions {
    /// Parses the process arguments (see [`parse`](RunnerOptions::parse)).
    /// On an unknown flag or a bad value it prints the error and exits with
    /// code 2.
    pub fn from_args(extra: &[&str]) -> (RunnerOptions, Vec<(String, String)>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        RunnerOptions::parse(&args, extra).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses `--quick` / `--full` / `--sanitize` / `--endurance` and
    /// `--jobs N` / `--record DIR` / `--replay DIR` / `--depth N` /
    /// `--shards N` (each also as `--flag=VALUE`) from `args`, the argv
    /// without the program name. `extra` names the valued flags only this
    /// binary accepts; their `(flag, value)` pairs are returned in argv
    /// order. Defaults: full scale, all available cores, sanitizer and
    /// endurance tracking off, live mode, 1 shard.
    ///
    /// # Errors
    ///
    /// Names the flag on an unknown flag, a stray argument, a missing or
    /// malformed value, or a conflicting combination.
    pub fn parse(
        args: &[String],
        extra: &[&str],
    ) -> Result<(RunnerOptions, Vec<(String, String)>), String> {
        let valued: Vec<&str> = VALUED.iter().chain(extra).copied().collect();
        let mut opts = RunnerOptions::live(Scale::Full, default_jobs());
        let (mut record, mut replay) = (None, None);
        let mut extras = Vec::new();
        for (flag, value) in split_flags(args, &SWITCHES, &valued)? {
            match flag.as_str() {
                "--quick" => opts.scale = Scale::Quick,
                "--full" => {}
                "--sanitize" => opts.sanitize = true,
                "--endurance" => opts.endurance = true,
                "--jobs" => opts.jobs = parse_positive(&flag, &value)?,
                "--depth" => opts.depth = Some(parse_positive(&flag, &value)?),
                "--shards" => opts.shards = parse_positive(&flag, &value)?,
                "--record" => record = Some(PathBuf::from(value)),
                "--replay" => replay = Some(PathBuf::from(value)),
                _ => extras.push((flag, value)),
            }
        }
        opts.mode = match (record, replay) {
            (Some(_), Some(_)) => return Err("--record and --replay are mutually exclusive".into()),
            (Some(dir), None) => RunMode::Record(dir),
            (None, Some(dir)) => RunMode::Replay(dir),
            (None, None) => RunMode::Live,
        };
        if opts.endurance && opts.mode != RunMode::Live {
            return Err("--endurance requires a live run (drop --record/--replay)".into());
        }
        Ok((opts, extras))
    }

    /// Options for a plain live run at `scale` (harness/test entry point).
    pub fn live(scale: Scale, jobs: usize) -> RunnerOptions {
        RunnerOptions {
            scale,
            jobs,
            sanitize: false,
            endurance: false,
            mode: RunMode::Live,
            depth: None,
            shards: 1,
        }
    }

    /// Applies the intra-cell shard count to a machine configuration (the
    /// figure binaries call this on the `SimConfig` they hand to the plan).
    pub fn apply_to_sim(&self, sim: &mut SimConfig) {
        sim.shards = self.shards.max(1);
    }
}

/// Splits `args` into `(flag, value)` pairs: each of `switches` stands
/// alone (value `""`), each of `valued` takes `--flag VALUE` or
/// `--flag=VALUE`.
///
/// # Errors
///
/// Names the first unknown flag, stray argument or missing value.
pub fn split_flags(
    args: &[String],
    switches: &[&str],
    valued: &[&str],
) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v)),
            _ => (arg.as_str(), None),
        };
        if switches.contains(&flag) {
            if inline.is_some() {
                return Err(format!("{flag} takes no value"));
            }
            out.push((flag.to_string(), String::new()));
        } else if valued.contains(&flag) {
            let value = match inline {
                Some(v) => v,
                None => it
                    .next()
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?,
            };
            out.push((flag.to_string(), value.to_string()));
        } else if flag.starts_with("--") {
            return Err(format!("unknown flag {flag}"));
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    Ok(out)
}

/// Parses `flag`'s value, naming the flag if it is malformed.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse '{value}'"))
}

/// Parses `flag`'s value as a positive integer.
fn parse_positive<T: std::str::FromStr + Default + PartialOrd>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    parse_value(flag, value)
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("{flag} needs a positive integer, got '{value}'"))
}

/// Prints a command-line error and exits with code 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deterministic workload seed, derived purely from the workload's label
/// (FNV-1a) so every row draws an independent random stream and parallel
/// execution cannot perturb it. The seed is intentionally **engine-blind**:
/// all engines of a row run the identical workload stream, which is both
/// the fairest comparison (the paper runs the same benchmark binary against
/// each scheme) and what lets one recorded trace serve the whole row. The
/// per-worker `stream` split happens inside the workloads
/// (`SimRng::seed(seed).fork(stream)`).
pub fn derive_workload_seed(label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One cell of an experiment grid.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Engine name (must be known to `build_system`).
    pub engine: &'static str,
    /// Workload column.
    pub workload: WorkloadConfig,
}

/// Per-cell wear accounting derived from the device's [`EnduranceMap`]
/// (`Some` only on `--endurance` runs).
#[derive(Clone, Debug, PartialEq)]
pub struct EnduranceSummary {
    /// Total line writes the device recorded.
    pub total_line_writes: u64,
    /// The hottest line's write count.
    pub max_line_writes: u64,
    /// Mean writes per touched line.
    pub mean_line_writes: f64,
    /// Distinct lines ever written.
    pub lines_touched: u64,
    /// Wear skew: hottest line relative to the mean (1.0 = perfectly even).
    pub skew: f64,
    /// Extra line writes Start-Gap leveling would add to flatten the skew
    /// (one gap-move copy per [`GAP_MOVE_RATE`] writes).
    pub leveling_overhead_writes: u64,
}

impl EnduranceSummary {
    /// Summarizes a device's endurance map.
    pub fn from_map(e: &EnduranceMap) -> EnduranceSummary {
        EnduranceSummary {
            total_line_writes: e.total_writes(),
            max_line_writes: e.max_writes(),
            mean_line_writes: e.mean_writes(),
            lines_touched: e.lines_touched() as u64,
            skew: e.skew(),
            leveling_overhead_writes: e.total_writes() / GAP_MOVE_RATE,
        }
    }

    /// Serializes the summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_line_writes", Json::UInt(self.total_line_writes)),
            ("max_line_writes", Json::UInt(self.max_line_writes)),
            ("mean_line_writes", Json::Num(self.mean_line_writes)),
            ("lines_touched", Json::UInt(self.lines_touched)),
            ("skew", Json::Num(self.skew)),
            (
                "leveling_overhead_writes",
                Json::UInt(self.leveling_overhead_writes),
            ),
        ])
    }
}

/// Result of one executed cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Engine name.
    pub engine: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// The seed the cell's workloads drew from.
    pub seed: u64,
    /// The full measurement report (metrics + raw counter snapshots).
    pub report: RunReport,
    /// Persistency-sanitizer summary (`Some` only on `--sanitize` runs; the
    /// JSON document is unchanged when absent).
    pub sanitizer: Option<SanitizerSummary>,
    /// Per-line wear summary (`Some` only on `--endurance` runs; the JSON
    /// document is unchanged when absent).
    pub endurance: Option<EnduranceSummary>,
}

impl CellResult {
    /// Serializes the cell (metrics, engine counters, hierarchy counters,
    /// engine-specific extras) as a JSON object.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        let es = &r.engine_stats;
        let hs = &r.hier_stats;
        let mut fields = vec![
            ("engine", Json::Str(self.engine.to_string())),
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::UInt(self.seed)),
            (
                "metrics",
                Json::obj([
                    ("txs", Json::UInt(r.txs)),
                    ("cycles", Json::UInt(r.cycles)),
                    ("throughput_tx_per_ms", Json::Num(r.throughput_tx_per_ms)),
                    ("avg_tx_latency_cycles", Json::Num(r.avg_tx_latency)),
                    ("write_bytes_per_tx", Json::Num(r.write_bytes_per_tx)),
                    ("read_bytes_per_tx", Json::Num(r.read_bytes_per_tx)),
                    ("energy_pj_per_tx", Json::Num(r.energy_pj_per_tx)),
                    ("llc_miss_ratio", Json::Num(r.llc_miss_ratio)),
                    ("loads_per_miss", Json::Num(r.loads_per_miss)),
                    (
                        "parallel_read_fraction",
                        Json::Num(r.parallel_read_fraction),
                    ),
                    ("gc_reduction", Json::Num(r.gc_reduction)),
                    (
                        "ondemand_gc_stall_cycles",
                        Json::UInt(r.ondemand_gc_stall_cycles),
                    ),
                    ("verify_errors", Json::UInt(r.verify_errors as u64)),
                ]),
            ),
            (
                "engine_stats",
                Json::obj([
                    ("committed_txs", Json::UInt(es.committed_txs.get())),
                    (
                        "commit_stall_cycles",
                        Json::UInt(es.commit_stall_cycles.get()),
                    ),
                    (
                        "store_overhead_cycles",
                        Json::UInt(es.store_overhead_cycles.get()),
                    ),
                    (
                        "miss_service_cycles",
                        Json::UInt(es.miss_service_cycles.get()),
                    ),
                    ("misses_served", Json::UInt(es.misses_served.get())),
                    ("parallel_reads", Json::UInt(es.parallel_reads.get())),
                    ("miss_memory_loads", Json::UInt(es.miss_memory_loads.get())),
                    ("gc_runs", Json::UInt(es.gc_runs.get())),
                    ("gc_bytes_in", Json::UInt(es.gc_bytes_in.get())),
                    ("gc_bytes_out", Json::UInt(es.gc_bytes_out.get())),
                    (
                        "ondemand_gc_stall_cycles",
                        Json::UInt(es.ondemand_gc_stall_cycles.get()),
                    ),
                ]),
            ),
            (
                "hier_stats",
                Json::obj([
                    ("accesses", Json::UInt(hs.accesses.get())),
                    ("l1_hits", Json::UInt(hs.l1_hits.get())),
                    ("l2_hits", Json::UInt(hs.l2_hits.get())),
                    ("llc_hits", Json::UInt(hs.llc_hits.get())),
                    ("llc_misses", Json::UInt(hs.llc_misses.get())),
                    ("dirty_evictions", Json::UInt(hs.dirty_evictions.get())),
                ]),
            ),
            (
                "extra_metrics",
                Json::Obj(
                    r.extra_metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(s) = &self.sanitizer {
            fields.push(("sanitizer", sanitizer_json(s)));
        }
        if let Some(e) = &self.endurance {
            fields.push(("endurance", e.to_json()));
        }
        Json::obj(fields)
    }
}

/// Serializes a [`SanitizerSummary`] (per-class counts plus formatted
/// samples of the first hard violations).
pub fn sanitizer_json(s: &SanitizerSummary) -> Json {
    Json::obj([
        ("engine", Json::Str(s.engine.clone())),
        ("events", Json::UInt(s.events)),
        ("lines_tracked", Json::UInt(s.lines_tracked)),
        ("violations", Json::UInt(s.violations)),
        ("redundant_flushes", Json::UInt(s.redundant_flushes)),
        (
            "by_class",
            Json::Obj(
                s.by_class
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(*v)))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
    ])
}

/// A named grid of cells to execute.
#[derive(Clone, Debug)]
pub struct ExperimentPlan {
    /// Experiment name (`fig7`, `table4`, ...) — also the JSON file stem.
    pub name: &'static str,
    /// The cells, in output order.
    pub cells: Vec<Cell>,
    /// Machine configuration shared by all cells.
    pub sim: SimConfig,
}

impl ExperimentPlan {
    /// The §IV-A grid shared by Fig. 7/8/9: the full workload matrix
    /// (including TPC-C) × every engine.
    pub fn matrix(name: &'static str, sim: SimConfig) -> ExperimentPlan {
        let mut cells = Vec::new();
        for wcfg in MATRIX.into_iter().chain([TPCC]) {
            for engine in ENGINES {
                cells.push(Cell {
                    engine,
                    workload: wcfg,
                });
            }
        }
        ExperimentPlan::from_cells(name, cells, sim)
    }

    /// A plan over an explicit cell list.
    pub fn from_cells(name: &'static str, cells: Vec<Cell>, sim: SimConfig) -> ExperimentPlan {
        ExperimentPlan { name, cells, sim }
    }

    /// Executes every cell with [`run_cell`] on `opts.jobs` worker threads
    /// and returns results in plan order; `--record DIR` first records
    /// every workload row into `DIR`, then replays it. Panics (after
    /// joining workers) if any cell failed verification or, when
    /// sanitized, reports a hard ordering violation — a corrupted cell must
    /// never silently enter results.
    pub fn run(&self, opts: &RunnerOptions) -> Vec<CellResult> {
        let mut cell_opts = opts.clone();
        if let RunMode::Record(dir) = &opts.mode {
            self.record_traces(dir, opts);
            cell_opts.mode = RunMode::Replay(dir.clone());
        }
        let results = run_parallel(&self.cells, opts.jobs, |cell| {
            let result = run_cell(cell.engine, cell.workload, &self.sim, &cell_opts);
            eprintln!("  {}", result.report.summary());
            result
        });
        check_results(&results);
        results
    }

    /// [`run`](ExperimentPlan::run)s the plan and writes
    /// `results/<name>.json`; returns the results.
    pub fn run_and_export(&self, opts: &RunnerOptions) -> Vec<CellResult> {
        let results = self.run(opts);
        write_json(self.name, opts.scale, &results);
        results
    }

    /// The distinct workload columns of this plan, in first-seen order.
    pub fn workloads(&self) -> Vec<WorkloadConfig> {
        let mut seen: Vec<WorkloadConfig> = Vec::new();
        for cell in &self.cells {
            if !seen.iter().any(|w| w.label == cell.workload.label) {
                seen.push(cell.workload);
            }
        }
        seen
    }

    /// Records every workload row of the plan at `opts.scale` into
    /// `dir/<label>.trace` (engine-blind: one trace per row serves all
    /// engines) on `opts.jobs` threads. `opts.depth` overrides the per-core
    /// stream depth; `None` uses [`plan_depth`].
    pub fn record_traces(&self, dir: &Path, opts: &RunnerOptions) {
        let depth = opts
            .depth
            .unwrap_or_else(|| plan_depth(opts.scale, &self.sim));
        run_parallel(&self.workloads(), opts.jobs, |wcfg| {
            record_trace(
                dir,
                wcfg.label,
                row_spec(*wcfg, opts.scale),
                &self.sim,
                depth,
            );
        });
    }
}

/// The spec of a grid row: [`spec_for`] with the row's label-derived seed.
fn row_spec(wcfg: WorkloadConfig, scale: Scale) -> WorkloadSpec {
    WorkloadSpec {
        seed: derive_workload_seed(wcfg.label),
        ..spec_for(wcfg, scale)
    }
}

/// Records `spec` into `dir/<label>.trace` with `depth` transactions per
/// core (store payloads elided).
pub fn record_trace(dir: &Path, label: &str, spec: WorkloadSpec, sim: &SimConfig, depth: u32) {
    let options = RecordOptions {
        txs_per_core: depth,
        values: false,
    };
    let tf = record_workload(label, spec, sim, options)
        .unwrap_or_else(|e| panic!("recording {label}: {e}"));
    let path = trace_path(dir, label);
    tf.write_to(&path)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!(
        "  recorded {} ({} events)",
        path.display(),
        tf.event_count()
    );
}

/// Reads `dir/<label>.trace` and checks its recorded workload identity
/// against `spec`.
///
/// # Panics
///
/// Panics with a regeneration hint if the trace is missing, unreadable or
/// stale.
pub fn read_trace(dir: &Path, label: &str, spec: &WorkloadSpec) -> TraceFile {
    let path = trace_path(dir, label);
    let tf = TraceReader::read(&path).unwrap_or_else(|e| {
        panic!(
            "{e}\n(replaying {}; regenerate the pack with `cargo run -p xtask -- trace`)",
            path.display()
        )
    });
    assert_eq!(
        &tf.header.spec,
        spec,
        "{} is stale: recorded workload identity {:?} != expected {:?}; \
         regenerate with `cargo run -p xtask -- trace`",
        path.display(),
        tf.header.spec,
        spec
    );
    tf
}

/// Shared post-run validation: a corrupted or persistency-violating cell
/// must never silently enter results.
fn check_results(results: &[CellResult]) {
    for r in results {
        assert_eq!(
            r.report.verify_errors, 0,
            "{}/{} corrupted data",
            r.engine, r.workload
        );
        if let Some(s) = &r.sanitizer {
            for sample in &s.samples {
                eprintln!("  sanitizer: {sample}");
            }
            assert!(
                s.is_clean(),
                "{}/{}: {} persistency violation(s)",
                r.engine,
                r.workload,
                s.violations
            );
        }
    }
}

/// The trace file for a workload row inside a pack directory.
pub fn trace_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{label}.trace"))
}

/// The measured-window floor in simulated cycles: quick runs take the
/// transaction counts at face value; full runs extend until several
/// background GC/checkpoint periods elapsed (steady-state traffic).
pub fn min_cycles_for(scale: Scale, sim: &SimConfig) -> u64 {
    match scale {
        Scale::Quick => 0,
        Scale::Full => 3 * sim.hoop.gc_period_cycles(),
    }
}

/// Default recorded stream depth for a plan at `scale`: twice the balanced
/// per-core share of the driver-issued transactions. Exact for quick runs
/// (their windows never extend); full-scale runs can extend up to 64× past
/// `measured` to satisfy [`min_cycles_for`], so full-scale recording takes
/// a 4× margin and relies on replay's loud run-dry panic (plus `--depth`)
/// when a workload extends further.
pub fn plan_depth(scale: Scale, sim: &SimConfig) -> u32 {
    let total = scale.warmup() + scale.measured();
    let base = default_txs_per_core(total, u64::from(sim.worker_threads));
    match scale {
        Scale::Quick => base,
        Scale::Full => base * 4,
    }
}

/// Runs one (engine, workload) cell at `opts.scale` with the row's
/// label-derived, engine-blind seed (see [`derive_workload_seed`]).
///
/// - Live mode generates the workload. At [`Scale::Full`] the measured
///   window extends until it spans several background GC/checkpoint
///   periods ([`min_cycles_for`]), so steady-state traffic (not just
///   end-of-run drains) is captured.
/// - `--replay DIR` replays `DIR/<label>.trace` instead, after checking its
///   recorded identity against the cell's spec; `--record DIR` records the
///   row into `DIR` first. Replay is byte-identical to a live run.
/// - `--sanitize` audits the whole cell (setup, warmup and measurement)
///   with an attached [`PersistencySanitizer`]; `--endurance` tracks
///   per-line wear on the device (live only). Both are observers: the
///   report is unchanged.
///
/// # Panics
///
/// Panics if `opts.endurance` is set outside live mode, or with a
/// regeneration hint if the trace is missing, unreadable or stale.
pub fn run_cell(
    engine: &'static str,
    wcfg: WorkloadConfig,
    sim: &SimConfig,
    opts: &RunnerOptions,
) -> CellResult {
    let scale = opts.scale;
    let spec = row_spec(wcfg, scale);
    let min_cycles = min_cycles_for(scale, sim);
    let (mut report, sanitizer, endurance) = match &opts.mode {
        RunMode::Live => {
            let mut sys = build_system(engine, sim);
            if opts.endurance {
                sys.enable_endurance_tracking();
            }
            let san = opts.sanitize.then(|| {
                let (san, handle) = PersistencySanitizer::shared();
                sys.attach_sanitizer(handle);
                san
            });
            let mut driver = Driver::new(spec, sim);
            driver.setup(&mut sys);
            let report = driver.run_until(&mut sys, scale.warmup(), scale.measured(), min_cycles);
            let summary = san.map(|s| s.lock().expect("sanitizer poisoned").summary());
            let wear = opts.endurance.then(|| {
                EnduranceSummary::from_map(
                    sys.engine()
                        .device()
                        .endurance()
                        .expect("endurance tracking enabled"),
                )
            });
            (report, summary, wear)
        }
        RunMode::Record(dir) | RunMode::Replay(dir) => {
            assert!(
                !opts.endurance,
                "--endurance requires a live run (drop --record/--replay)"
            );
            if let RunMode::Record(_) = opts.mode {
                let depth = opts.depth.unwrap_or_else(|| plan_depth(scale, sim));
                record_trace(dir, wcfg.label, spec, sim, depth);
            }
            let tf = read_trace(dir, wcfg.label, &spec);
            let window = ReplayWindow {
                warmup: scale.warmup(),
                measured: scale.measured(),
                min_cycles,
            };
            let (report, summary) = replay_cell(&tf, engine, sim, window, opts.sanitize);
            (report, summary, None)
        }
    };
    report.workload = wcfg.label.to_string();
    CellResult {
        engine,
        workload: wcfg.label,
        seed: spec.seed,
        report,
        sanitizer,
        endurance,
    }
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// input order. Workers pull the next unclaimed index from a shared atomic
/// cursor, so scheduling is dynamic but the output is order-stable — calling
/// with `jobs = 1` and `jobs = N` yields identical vectors whenever `f` is
/// deterministic per item.
pub fn run_parallel<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    assert!(jobs > 0, "need at least one worker");
    let jobs = jobs.min(items.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let result = f(&items[idx]);
                slots.lock().expect("runner mutex poisoned")[idx] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("runner mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("worker skipped a cell"))
        .collect()
}

/// Serializes experiment results as the schema-versioned document written to
/// `results/<name>.json`.
pub fn results_json(name: &str, scale: Scale, results: &[CellResult]) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(RESULT_SCHEMA_VERSION)),
        ("experiment", Json::Str(name.to_string())),
        (
            "scale",
            Json::Str(
                match scale {
                    Scale::Quick => "quick",
                    Scale::Full => "full",
                }
                .to_string(),
            ),
        ),
        (
            "cells",
            Json::Arr(results.iter().map(CellResult::to_json).collect()),
        ),
    ])
}

/// Writes `results/<name>.json` (best effort, like
/// [`write_csv`](crate::experiments::write_csv): read-only checkouts only
/// get a warning).
pub fn write_json(name: &str, scale: Scale, results: &[CellResult]) {
    let doc = results_json(name, scale, results).pretty();
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/, skipping JSON for {name}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, doc).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str], extra: &[&str]) -> Result<(RunnerOptions, Vec<(String, String)>), String> {
        RunnerOptions::parse(&argv(v), extra)
    }

    fn one_cell_plan(
        name: &'static str,
        engine: &'static str,
        workload: WorkloadConfig,
    ) -> ExperimentPlan {
        ExperimentPlan::from_cells(
            name,
            vec![Cell { engine, workload }],
            SimConfig::small_for_tests(),
        )
    }

    /// The determinism contract: a 2×2 Quick sub-matrix must produce
    /// byte-identical JSON under serial and parallel execution.
    #[test]
    fn jobs1_and_jobs4_produce_identical_json() {
        let sim = SimConfig::small_for_tests();
        let cells: Vec<Cell> = ["HOOP", "Opt-Redo"]
            .into_iter()
            .flat_map(|engine| {
                [MATRIX[0], MATRIX[2]]
                    .into_iter()
                    .map(move |workload| Cell { engine, workload })
            })
            .collect();
        let plan = ExperimentPlan::from_cells("determinism", cells, sim);
        let run = |jobs| {
            let results = plan.run(&RunnerOptions::live(Scale::Quick, jobs));
            results_json("determinism", Scale::Quick, &results).pretty()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn run_parallel_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let doubled = run_parallel(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workload_seeds_are_label_derived_and_engine_blind() {
        let a = derive_workload_seed("vector-64B");
        assert_eq!(a, derive_workload_seed("vector-64B"));
        assert_ne!(a, derive_workload_seed("vector-1KB"));
        assert_ne!(derive_workload_seed("ycsb"), derive_workload_seed("btree"));
    }

    #[test]
    fn flags_parse_both_forms_with_defaults() {
        let (opts, extra) = parse(&[], &[]).expect("empty argv");
        assert_eq!(opts.scale, Scale::Full);
        assert_eq!(opts.mode, RunMode::Live);
        assert_eq!(opts.shards, 1);
        assert!(extra.is_empty());
        let (opts, _) = parse(&["--quick", "--jobs", "4", "--shards=2"], &[]).expect("valid");
        assert_eq!((opts.scale, opts.jobs, opts.shards), (Scale::Quick, 4, 2));
        let (opts, _) = parse(&["--record", "traces"], &[]).expect("valid");
        assert_eq!(opts.mode, RunMode::Record(PathBuf::from("traces")));
        let (opts, _) = parse(&["--replay=traces/quick", "--depth=9"], &[]).expect("valid");
        assert_eq!(opts.mode, RunMode::Replay(PathBuf::from("traces/quick")));
        assert_eq!(opts.depth, Some(9));
    }

    /// Every bad argv names the offending flag instead of running at a
    /// default (a typo of `--quick` must not start a full-scale run).
    #[test]
    fn bad_flags_and_values_are_errors_naming_the_flag() {
        for (args, flag) in [
            (&["--quik"][..], "--quik"),
            (&["--shards", "0"], "--shards"),
            (&["--jobs=x"], "--jobs"),
            (&["--jobs", "0"], "--jobs"),
            (&["--jobs"], "--jobs"),
            (&["--depth", "-1"], "--depth"),
            (&["--quick=1"], "--quick"),
            (&["--record", "a", "--replay", "b"], "--record"),
            (&["--endurance", "--replay", "b"], "--endurance"),
            (&["--seed", "7"], "--seed"),
            (&["stray"], "stray"),
        ] {
            let err = parse(args, &[]).expect_err(&format!("{args:?} must be rejected"));
            assert!(
                err.contains(flag),
                "{args:?}: error {err:?} does not name {flag}"
            );
        }
    }

    #[test]
    fn extra_flags_are_accepted_only_where_declared() {
        assert!(parse(&["--seed", "7"], &[]).is_err());
        assert!(parse(&["--dir", "x"], &["--seed"]).is_err());
        let (opts, extra) = parse(&["--quick", "--seed", "7"], &["--seed"]).expect("declared");
        assert_eq!(opts.scale, Scale::Quick);
        assert_eq!(extra, vec![("--seed".to_string(), "7".to_string())]);
        let (_, extra) = parse(&["--dir=traces/x"], &["--dir"]).expect("declared");
        assert_eq!(extra, vec![("--dir".to_string(), "traces/x".to_string())]);
        assert_eq!(parse_value::<u64>("--seed", "7"), Ok(7));
        assert!(parse_value::<u64>("--seed", "x")
            .unwrap_err()
            .contains("--seed"));
    }

    /// The trace contract at the runner level: a record run and a
    /// subsequent replay run of the same plan produce JSON byte-identical to
    /// a live run.
    #[test]
    fn record_replay_json_matches_live_json() {
        let sim = SimConfig::small_for_tests();
        let cells: Vec<Cell> = ["HOOP", "LAD", "Ideal"]
            .into_iter()
            .map(|engine| Cell {
                engine,
                workload: MATRIX[0],
            })
            .collect();
        let plan = ExperimentPlan::from_cells("trace-ab", cells, sim);
        let dir = std::env::temp_dir().join("hoop-trace-ab-test");
        let run = |mode: RunMode| {
            let opts = RunnerOptions {
                mode,
                ..RunnerOptions::live(Scale::Quick, 2)
            };
            results_json("trace-ab", Scale::Quick, &plan.run(&opts)).pretty()
        };
        let live = run(RunMode::Live);
        let recorded = run(RunMode::Record(dir.clone()));
        let replayed = run(RunMode::Replay(dir.clone()));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(live, recorded);
        assert_eq!(live, replayed);
    }

    #[test]
    #[should_panic(expected = "regenerate")]
    fn replaying_a_missing_pack_names_the_fix() {
        let opts = RunnerOptions {
            mode: RunMode::Replay(PathBuf::from("/nonexistent-trace-pack")),
            ..RunnerOptions::live(Scale::Quick, 1)
        };
        let _ = run_cell("HOOP", MATRIX[0], &SimConfig::small_for_tests(), &opts);
    }

    /// `--endurance` adds a wear summary per cell; without it the document
    /// is byte-identical to older builds (no `endurance` key at all).
    #[test]
    fn endurance_flag_gates_the_wear_summary() {
        let plan = one_cell_plan("wear", "HOOP", MATRIX[2]);
        let plain = plan.run(&RunnerOptions::live(Scale::Quick, 1));
        assert!(plain[0].endurance.is_none());
        assert!(!results_json("wear", Scale::Quick, &plain)
            .pretty()
            .contains("\"endurance\""));
        let tracked = plan.run(&RunnerOptions {
            endurance: true,
            ..RunnerOptions::live(Scale::Quick, 1)
        });
        let e = tracked[0].endurance.as_ref().expect("summary present");
        assert!(e.total_line_writes > 0);
        assert!(e.max_line_writes > 0);
        assert!(e.skew >= 1.0);
        assert_eq!(
            e.leveling_overhead_writes,
            e.total_line_writes / GAP_MOVE_RATE
        );
        // Wear tracking is an observer: the measured report is unchanged.
        assert_eq!(plain[0].report.cycles, tracked[0].report.cycles);
        let doc = results_json("wear", Scale::Quick, &tracked).pretty();
        for key in ["\"endurance\"", "\"max_line_writes\"", "\"skew\""] {
            assert!(doc.contains(key), "missing {key}");
        }
    }

    /// `--sanitize` and `--endurance` compose: one cell carries both
    /// summaries, and neither observer moves the measured report.
    #[test]
    fn sanitize_and_endurance_together_report_both_and_leave_the_report_alone() {
        let sim = SimConfig::small_for_tests();
        let plain = run_cell(
            "HOOP",
            MATRIX[2],
            &sim,
            &RunnerOptions::live(Scale::Quick, 1),
        );
        let both = run_cell(
            "HOOP",
            MATRIX[2],
            &sim,
            &RunnerOptions {
                sanitize: true,
                endurance: true,
                ..RunnerOptions::live(Scale::Quick, 1)
            },
        );
        let san = both.sanitizer.as_ref().expect("sanitizer summary");
        assert!(san.is_clean(), "{} violations", san.violations);
        assert!(san.events > 0);
        assert!(
            both.endurance
                .as_ref()
                .expect("wear summary")
                .total_line_writes
                > 0
        );
        assert_eq!(format!("{:?}", plain.report), format!("{:?}", both.report));
    }

    #[test]
    fn cell_result_json_is_schema_versioned() {
        let plan = one_cell_plan("schema", "Ideal", MATRIX[0]);
        let results = plan.run(&RunnerOptions::live(Scale::Quick, 1));
        let doc = results_json("schema", Scale::Quick, &results).pretty();
        assert!(doc.starts_with("{\n  \"schema_version\": 1,"));
        for key in [
            "\"metrics\"",
            "\"engine_stats\"",
            "\"hier_stats\"",
            "\"seed\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }
}
