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
//! A [`Cell`] is the complete description of one measured run — engine,
//! resolved workload, window, trace label and machine — and [`run_cell`] is
//! the only way one runs, so every grid binary is a list of cells handed to
//! [`ExperimentPlan::run`].
//!
//! Grid binaries also support trace modes (`--record DIR` /
//! `--replay DIR`): recording captures each trace label once into a binary
//! trace (`hoop-trace`), replaying feeds the recorded streams into every
//! engine of the row. Replay is byte-identical to a live run — CI proves it
//! by `cmp`-ing live and replayed JSON documents.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nvm::media::MediaSummary;
use nvm::wearlevel::{EnduranceMap, GAP_MOVE_RATE};
use pmcheck::{PersistencySanitizer, SanitizerSummary};
use simcore::config::SimConfig;
use simcore::stats::Counter;
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

/// Command-line options shared by the figure/table binaries (each accepts
/// the subset its output can honour; see [`GRID_FLAGS`] and its siblings):
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
    /// depth automatically; see [`trace_depth`].
    pub depth: Option<u32>,
    /// Intra-cell host shards (`--shards N`, default 1): each cell's bulk
    /// phases run on this many host threads (see `simcore::shard`). A pure
    /// host knob — results are byte-identical for every value.
    pub shards: u8,
}

/// The value-less shared flags; every other shared flag takes a value.
const SWITCHES: [&str; 4] = ["--quick", "--full", "--sanitize", "--endurance"];
/// Every shared flag, ordered so each binary's accepted set is a prefix:
/// a binary takes the flags its output can honour and refuses the rest.
const SHARED: [&str; 9] = [
    "--quick",
    "--full",
    "--jobs",
    "--shards",
    "--sanitize",
    "--record",
    "--replay",
    "--depth",
    "--endurance",
];
/// A binary without a measured cell (fig4, fig11, table1, table3,
/// ext_condensed): only the scale.
pub const SCALE_FLAGS: &[&str] = SHARED.split_at(2).0;
/// A grid whose output is live device state — wear or media-fault counters
/// (ext_lifetime, media) — that a replay cannot return.
pub const LIVE_GRID_FLAGS: &[&str] = SHARED.split_at(5).0;
/// A grid that writes only CSVs (fig10/12/13, ext_multi, ext_mix): no
/// per-cell document carries a wear summary.
pub const CSV_GRID_FLAGS: &[&str] = SHARED.split_at(8).0;
/// A grid whose cells export JSON (fig7/8/9, table4): every shared flag.
pub const GRID_FLAGS: &[&str] = &SHARED;

impl RunnerOptions {
    /// Parses the process arguments (see [`parse`](RunnerOptions::parse)).
    /// On an unknown or refused flag or a bad value it prints the error and
    /// exits with code 2.
    pub fn from_args(accepted: &[&str], extra: &[&str]) -> (RunnerOptions, Vec<(String, String)>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        RunnerOptions::parse(&args, accepted, extra).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses `--quick` / `--full` / `--sanitize` / `--endurance` and
    /// `--jobs N` / `--record DIR` / `--replay DIR` / `--depth N` /
    /// `--shards N` (each also as `--flag=VALUE`) from `args`, the argv
    /// without the program name. `accepted` names the shared flags this
    /// binary honours; `extra` names the valued flags only this binary
    /// accepts, whose `(flag, value)` pairs are returned in argv order.
    /// Defaults: full scale, all available cores, sanitizer and endurance
    /// tracking off, live mode, 1 shard.
    ///
    /// # Errors
    ///
    /// Names the flag on an unknown flag, a shared flag outside `accepted`
    /// (it would change nothing), a stray argument, a missing or malformed
    /// value, or a conflicting combination.
    pub fn parse(
        args: &[String],
        accepted: &[&str],
        extra: &[&str],
    ) -> Result<(RunnerOptions, Vec<(String, String)>), String> {
        let shared_valued = SHARED.iter().filter(|f| !SWITCHES.contains(f));
        let valued: Vec<&str> = shared_valued.chain(extra).copied().collect();
        let mut opts = RunnerOptions::live(Scale::Full, default_jobs());
        let (mut record, mut replay) = (None, None);
        let mut extras = Vec::new();
        for (flag, value) in split_flags(args, &SWITCHES, &valued)? {
            if extra.contains(&flag.as_str()) {
                extras.push((flag, value));
                continue;
            }
            if !accepted.contains(&flag.as_str()) {
                let takes: Vec<&str> = accepted.iter().chain(extra).copied().collect();
                return Err(format!(
                    "{flag} is not accepted by this binary (it takes {})",
                    takes.join(", ")
                ));
            }
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
                _ => unreachable!("split_flags yields only known flags"),
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
        if opts.depth.is_some() && !matches!(opts.mode, RunMode::Record(_)) {
            return Err("--depth sizes recorded traces; it needs --record DIR".into());
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
pub fn parse_positive<T: std::str::FromStr + Default + PartialOrd>(
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

/// The default worker count: every available core.
pub fn default_jobs() -> usize {
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

/// One measured run: an engine on a resolved workload over a window, on
/// its own machine. Cells share nothing, so a plan runs them in parallel.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Engine name (must be known to `build_system`).
    pub engine: &'static str,
    /// Workload column label — what reports and JSON show.
    pub workload: &'static str,
    /// The resolved workload, seed included.
    pub spec: WorkloadSpec,
    /// Warmup, measured transactions and the measured-window floor.
    pub window: ReplayWindow,
    /// Trace file stem in a `--record`/`--replay` pack directory. Cells
    /// with different specs need different labels.
    pub trace: String,
    /// Machine configuration; `shards` comes from the options at run time.
    pub sim: SimConfig,
}

impl Cell {
    /// The experiment-grid cell of `engine` on row `wcfg` at `scale`: the
    /// row's label-derived, engine-blind spec, the scale's window extended
    /// to [`min_cycles_for`], traced under the row label.
    pub fn grid(engine: &'static str, wcfg: WorkloadConfig, scale: Scale, sim: &SimConfig) -> Cell {
        Cell {
            engine,
            workload: wcfg.label,
            spec: row_spec(wcfg, scale),
            window: ReplayWindow {
                warmup: scale.warmup(),
                measured: scale.measured(),
                min_cycles: min_cycles_for(scale, sim),
            },
            trace: wcfg.label.to_string(),
            sim: *sim,
        }
    }
}

/// A window of `warmup` then exactly `measured` transactions (no
/// `min_cycles` floor).
pub fn fixed_window(warmup: u64, measured: u64) -> ReplayWindow {
    ReplayWindow {
        warmup,
        measured,
        min_cycles: 0,
    }
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
    /// Media-fault counters (`Some` only when the cell's `sim.media` is
    /// armed; the `media` figure serializes them in its own document).
    pub media: Option<MediaSummary>,
}

impl CellResult {
    /// Serializes the cell (metrics, engine counters, hierarchy counters,
    /// engine-specific extras) as a JSON object.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        let es = &r.engine_stats;
        let hs = &r.hier_stats;
        let count = |c: &Counter| Json::UInt(c.get());
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
                    ("committed_txs", count(&es.committed_txs)),
                    ("commit_stall_cycles", count(&es.commit_stall_cycles)),
                    ("store_overhead_cycles", count(&es.store_overhead_cycles)),
                    ("miss_service_cycles", count(&es.miss_service_cycles)),
                    ("misses_served", count(&es.misses_served)),
                    ("parallel_reads", count(&es.parallel_reads)),
                    ("miss_memory_loads", count(&es.miss_memory_loads)),
                    ("gc_runs", count(&es.gc_runs)),
                    ("gc_bytes_in", count(&es.gc_bytes_in)),
                    ("gc_bytes_out", count(&es.gc_bytes_out)),
                    (
                        "ondemand_gc_stall_cycles",
                        count(&es.ondemand_gc_stall_cycles),
                    ),
                ]),
            ),
            (
                "hier_stats",
                Json::obj([
                    ("accesses", count(&hs.accesses)),
                    ("l1_hits", count(&hs.l1_hits)),
                    ("l2_hits", count(&hs.l2_hits)),
                    ("llc_hits", count(&hs.llc_hits)),
                    ("llc_misses", count(&hs.llc_misses)),
                    ("dirty_evictions", count(&hs.dirty_evictions)),
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
        fields.extend(self.observer_fields());
        Json::obj(fields)
    }

    /// The opt-in observer records of the cell — sanitizer and wear
    /// summaries — in that order; empty on a plain run.
    pub fn observer_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = Vec::new();
        if let Some(s) = &self.sanitizer {
            fields.push(("sanitizer", sanitizer_json(s)));
        }
        if let Some(e) = &self.endurance {
            fields.push(("endurance", e.to_json()));
        }
        fields
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
}

impl ExperimentPlan {
    /// A plan named `name` over `cells`, in output order.
    pub fn new(name: &'static str, cells: Vec<Cell>) -> ExperimentPlan {
        ExperimentPlan { name, cells }
    }

    /// The §IV-A grid shared by Fig. 7/8/9: the full workload matrix
    /// (including TPC-C) × every engine, at `scale` on `sim`.
    pub fn matrix(name: &'static str, scale: Scale, sim: &SimConfig) -> ExperimentPlan {
        let cells = MATRIX
            .into_iter()
            .chain([TPCC])
            .flat_map(|wcfg| ENGINES.map(|engine| Cell::grid(engine, wcfg, scale, sim)))
            .collect();
        ExperimentPlan { name, cells }
    }

    /// Executes every cell with [`run_cell`] on `opts.jobs` worker threads
    /// and returns results in plan order; `--record DIR` first records
    /// every trace label into `DIR`, then replays it. Panics (after
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
            let result = run_cell(cell, &cell_opts);
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
        write_json(self.name, &results_json(self.name, opts.scale, &results));
        results
    }

    /// Each distinct trace label of the plan once, in first-seen order,
    /// with every cell that reads it.
    pub fn traces(&self) -> Vec<Vec<&Cell>> {
        let mut groups: Vec<Vec<&Cell>> = Vec::new();
        for cell in &self.cells {
            match groups.iter_mut().find(|g| g[0].trace == cell.trace) {
                Some(group) => group.push(cell),
                None => groups.push(vec![cell]),
            }
        }
        groups
    }

    /// Records every trace label of the plan into `dir/<label>.trace` on
    /// `opts.jobs` threads (engine-blind: one trace serves every cell with
    /// that label; store payloads elided). `opts.depth` overrides the
    /// per-core stream depth; `None` uses [`trace_depth`] over the label's
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if two cells share a label but not a spec: one trace file
    /// cannot hold both workloads.
    pub fn record_traces(&self, dir: &Path, opts: &RunnerOptions) {
        run_parallel(&self.traces(), opts.jobs, |cells| {
            let first = cells[0];
            let label = &first.trace;
            assert!(
                cells.iter().all(|c| c.spec == first.spec),
                "cells sharing trace label {label} must share a spec"
            );
            let options = RecordOptions {
                txs_per_core: opts.depth.unwrap_or_else(|| trace_depth(cells)),
                values: false,
            };
            let tf = record_workload(label, first.spec, &first.sim, options)
                .unwrap_or_else(|e| panic!("recording {label}: {e}"));
            let path = trace_path(dir, label);
            tf.write_to(&path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "  recorded {} ({} events)",
                path.display(),
                tf.event_count()
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

/// Default recorded stream depth for the cells reading one trace: twice
/// the balanced per-core share of the longest window's warmup + measured
/// transactions. Exact when no window extends; a window with a
/// `min_cycles` floor can extend up to 64× past `measured`, so it takes a
/// 4× margin and relies on replay's loud run-dry panic (plus `--depth`)
/// when a workload extends further.
pub fn trace_depth(cells: &[&Cell]) -> u32 {
    let txs = cells.iter().map(|c| c.window.warmup + c.window.measured);
    let workers = cells.first().map_or(1, |c| c.sim.worker_threads);
    let extends = cells.iter().any(|c| c.window.min_cycles > 0);
    let margin = if extends { 4 } else { 1 };
    default_txs_per_core(txs.max().unwrap_or(0), u64::from(workers)) * margin
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

/// Runs one cell, the only way a measured cell runs. Its machine is
/// `cell.sim` with `opts.shards` host shards.
///
/// - Live mode generates the workload and runs the cell's window (at
///   [`Scale::Full`] grid cells extend until they span several background
///   GC/checkpoint periods, see [`min_cycles_for`]).
/// - `--replay DIR` replays `DIR/<trace>.trace` instead, after checking its
///   recorded identity against the cell's spec. So does `--record DIR`:
///   [`ExperimentPlan::run`] records every trace label before any cell
///   runs. Replay is byte-identical to a live run.
/// - `--sanitize` audits the whole cell (setup, warmup and measurement)
///   with an attached [`PersistencySanitizer`]; `--endurance` tracks
///   per-line wear on the device (live only); an armed `sim.media` returns
///   the fault model's summary (live only). All are observers: the report
///   is unchanged.
///
/// # Panics
///
/// Panics if `opts.endurance` or `sim.media` is set outside live mode, or
/// with a regeneration hint if the trace is missing, unreadable or stale.
pub fn run_cell(cell: &Cell, opts: &RunnerOptions) -> CellResult {
    let sim = SimConfig {
        shards: opts.shards.max(1),
        ..cell.sim
    };
    let w = cell.window;
    let (mut report, sanitizer, endurance, media) = match &opts.mode {
        RunMode::Live => {
            let mut sys = build_system(cell.engine, &sim);
            // An armed media model already tracks wear; keep its map.
            if opts.endurance && sys.engine().device().endurance().is_none() {
                sys.enable_endurance_tracking();
            }
            let san = opts.sanitize.then(|| {
                let (san, handle) = PersistencySanitizer::shared();
                sys.attach_sanitizer(handle);
                san
            });
            let mut driver = Driver::new(cell.spec, &sim);
            driver.setup(&mut sys);
            let report = driver.run_until(&mut sys, w.warmup, w.measured, w.min_cycles);
            let summary = san.map(|s| s.lock().expect("sanitizer poisoned").summary());
            let wear = (sys.engine().device().endurance())
                .filter(|_| opts.endurance)
                .map(EnduranceSummary::from_map);
            let media = sim.media.enabled.then(|| sys.media().summary());
            (report, summary, wear, media)
        }
        RunMode::Record(dir) | RunMode::Replay(dir) => {
            assert!(
                !opts.endurance && !sim.media.enabled,
                "wear and media-fault state need a live run (drop --record/--replay)"
            );
            let tf = read_trace(dir, &cell.trace, &cell.spec);
            let (report, summary) = replay_cell(&tf, cell.engine, &sim, w, opts.sanitize);
            (report, summary, None, None)
        }
    };
    report.workload = cell.workload.to_string();
    CellResult {
        engine: cell.engine,
        workload: cell.workload,
        seed: cell.spec.seed,
        report,
        sanitizer,
        endurance,
        media,
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

/// The schema-versioned envelope of a `results/<name>.json` document:
/// version, experiment and scale, then `extra` fields, then `cells`.
pub fn results_doc(
    name: &str,
    scale: Scale,
    extra: Vec<(&'static str, Json)>,
    cells: Vec<Json>,
) -> Json {
    let mut fields = vec![
        ("schema_version", Json::UInt(RESULT_SCHEMA_VERSION)),
        ("experiment", Json::Str(name.to_string())),
        ("scale", Json::Str(scale.name().to_string())),
    ];
    fields.extend(extra);
    fields.push(("cells", Json::Arr(cells)));
    Json::obj(fields)
}

/// Serializes experiment results as the schema-versioned document written to
/// `results/<name>.json`.
pub fn results_json(name: &str, scale: Scale, results: &[CellResult]) -> Json {
    let cells = results.iter().map(CellResult::to_json).collect();
    results_doc(name, scale, Vec::new(), cells)
}

/// Writes `doc` to `results/<name>.json` (best effort, like
/// [`write_csv`](crate::experiments::write_csv): read-only checkouts only
/// get a warning).
pub fn write_json(name: &str, doc: &Json) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/, skipping JSON for {name}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, doc.pretty()).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracepack::{table4_label, table4_spec};

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str], extra: &[&str]) -> Result<(RunnerOptions, Vec<(String, String)>), String> {
        RunnerOptions::parse(&argv(v), GRID_FLAGS, extra)
    }

    fn quick_cell(engine: &'static str, workload: WorkloadConfig) -> Cell {
        let sim = SimConfig::small_for_tests();
        Cell::grid(engine, workload, Scale::Quick, &sim)
    }

    /// The determinism contract: a 2×2 Quick sub-matrix must produce
    /// byte-identical JSON under serial and parallel execution.
    #[test]
    fn jobs1_and_jobs4_produce_identical_json() {
        let cells: Vec<Cell> = ["HOOP", "Opt-Redo"]
            .into_iter()
            .flat_map(|engine| [MATRIX[0], MATRIX[2]].map(|w| quick_cell(engine, w)))
            .collect();
        let plan = ExperimentPlan::new("determinism", cells);
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
        let (opts, _) = parse(&["--replay=traces/quick"], &[]).expect("valid");
        assert_eq!(opts.mode, RunMode::Replay(PathBuf::from("traces/quick")));
        let (opts, _) = parse(&["--record=traces/x", "--depth=9"], &[]).expect("valid");
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
            (&["--record", "a", "--depth", "-1"], "--depth"),
            (&["--depth", "9"], "--depth"),
            (&["--replay", "a", "--depth", "9"], "--depth"),
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
        // A binary's own flag shadows the shared one of the same name.
        let (opts, extra) = parse(&["--depth", "3"], &["--depth"]).expect("declared");
        assert_eq!(opts.depth, None);
        assert_eq!(extra, vec![("--depth".to_string(), "3".to_string())]);
        assert_eq!(parse_value::<u64>("--seed", "7"), Ok(7));
        assert!(parse_value::<u64>("--seed", "x")
            .unwrap_err()
            .contains("--seed"));
    }

    /// A shared flag outside a binary's set exits naming it instead of
    /// parsing and doing nothing (`fig11 --jobs 2`, `media --replay x`).
    #[test]
    fn flags_outside_a_binarys_set_are_refused() {
        for (args, accepted) in [
            (&["--jobs", "2"][..], SCALE_FLAGS),
            (&["--sanitize"], SCALE_FLAGS),
            (&["--shards", "2"], SCALE_FLAGS),
            (&["--record", "x"], LIVE_GRID_FLAGS),
            (&["--replay", "x"], LIVE_GRID_FLAGS),
            (&["--endurance"], LIVE_GRID_FLAGS),
            (&["--endurance"], CSV_GRID_FLAGS),
        ] {
            let err = RunnerOptions::parse(&argv(args), accepted, &[]).expect_err("refused");
            assert!(err.contains(args[0]), "{args:?}: {err:?}");
        }
        let ok = |args: &[&str], accepted| RunnerOptions::parse(&argv(args), accepted, &[]).is_ok();
        assert!(ok(&["--quick", "--full"], SCALE_FLAGS));
        assert!(ok(
            &["--jobs", "1", "--shards", "2", "--sanitize"],
            LIVE_GRID_FLAGS
        ));
        assert!(ok(&["--record", "x", "--depth", "3"], CSV_GRID_FLAGS));
    }

    /// The trace contract at the runner level: a record run and a
    /// subsequent replay run of the same plan produce JSON byte-identical to
    /// a live run, at 1 and 2 shards — for matrix cells and for a Table
    /// IV-shaped cell (no warmup, pinned-keyspace spec, its own trace label).
    #[test]
    fn record_replay_json_matches_live_json() {
        let table4_shaped = Cell {
            spec: table4_spec(MATRIX[4], Scale::Quick),
            window: fixed_window(0, 100),
            trace: table4_label(MATRIX[4]),
            ..quick_cell("HOOP", MATRIX[4])
        };
        let mut cells = ["HOOP", "LAD", "Ideal"]
            .map(|e| quick_cell(e, MATRIX[0]))
            .to_vec();
        cells.push(table4_shaped);
        let plan = ExperimentPlan::new("trace-ab", cells);
        let dir = std::env::temp_dir().join("hoop-trace-ab-test");
        let mut docs = Vec::new();
        for shards in [1, 2] {
            for mode in [
                RunMode::Live,
                RunMode::Record(dir.clone()),
                RunMode::Replay(dir.clone()),
            ] {
                let opts = RunnerOptions {
                    mode: mode.clone(),
                    shards,
                    ..RunnerOptions::live(Scale::Quick, 2)
                };
                let doc = results_json("trace-ab", Scale::Quick, &plan.run(&opts)).pretty();
                docs.push((format!("{mode:?} at {shards} shard(s)"), doc));
            }
        }
        let recorded = trace_path(&dir, "table4-queue-64B").is_file();
        std::fs::remove_dir_all(&dir).ok();
        assert!(recorded, "no trace recorded under the cell's own label");
        for (what, doc) in &docs[1..] {
            assert_eq!(doc, &docs[0].1, "{what} differs from the live run");
        }
    }

    #[test]
    #[should_panic(expected = "regenerate")]
    fn replaying_a_missing_pack_names_the_fix() {
        let opts = RunnerOptions {
            mode: RunMode::Replay(PathBuf::from("/nonexistent-trace-pack")),
            ..RunnerOptions::live(Scale::Quick, 1)
        };
        let _ = run_cell(&quick_cell("HOOP", MATRIX[0]), &opts);
    }

    /// `--endurance` adds a wear summary per cell; without it the document
    /// is byte-identical to older builds (no `endurance` key at all).
    #[test]
    fn endurance_flag_gates_the_wear_summary() {
        let plan = ExperimentPlan::new("wear", vec![quick_cell("HOOP", MATRIX[2])]);
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
        let cell = quick_cell("HOOP", MATRIX[2]);
        let plain = run_cell(&cell, &RunnerOptions::live(Scale::Quick, 1));
        let both = run_cell(
            &cell,
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
        let plan = ExperimentPlan::new("schema", vec![quick_cell("Ideal", MATRIX[0])]);
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
