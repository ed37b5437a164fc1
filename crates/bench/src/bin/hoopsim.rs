//! `hoopsim` — command-line front end for the HOOP simulator.
//!
//! ```text
//! hoopsim run      --engine HOOP --workload ycsb --txs 20000 [--item-bytes 1024] [--sanitize] [--shards N]
//! hoopsim compare  --workload hashmap [--txs 10000] [--sanitize] [--shards N]
//! hoopsim recover  [--threads 8] [--bandwidth 25]
//! hoopsim trace    --workload vector --txs 200 --out vector.trace [--seed N]
//! hoopsim replay   --engine LAD --in vector.trace [--txs N] [--sanitize] [--shards N]
//! hoopsim area
//! hoopsim list
//! ```
//!
//! `trace` records the workload once, on every worker core, into the binary
//! trace format (`hoop-trace`): its setup section, its spec and per-core
//! streams deep enough for a `run` of `--txs` transactions. `replay` feeds
//! that file into any engine with the same warmup/measured window as `run`,
//! so `replay --engine E` reports exactly what `run --engine E` with the
//! recorded workload flags reports. `--txs` defaults to what the trace
//! covers.
//!
//! Unknown flags, unknown engine or workload names and malformed values exit
//! with code 2.

use std::path::Path;

use hoop::area::{area_overhead, ReferencePackage};
use hoop::recovery::model_recovery_ms;
use hoop_bench::experiments::Scale;
use hoop_bench::runner::{
    default_jobs, fixed_window, parse_positive, parse_value, run_cell, split_flags, trace_depth,
    usage_error, Cell, ExperimentPlan, RunnerOptions,
};
use simcore::config::SimConfig;
use simcore::det::DetHashMap;
use trace::{record_workload, replay_cell, RecordOptions, TraceHeader, TraceReader};
use workloads::driver::{engine_names, RunReport, ENGINES};
use workloads::{WorkloadKind, WorkloadSpec};

/// The flags every command accepts (each command reads the ones it needs).
const VALUED: [&str; 11] = [
    "--engine",
    "--workload",
    "--txs",
    "--item-bytes",
    "--items",
    "--seed",
    "--shards",
    "--threads",
    "--bandwidth",
    "--out",
    "--in",
];

/// Splits argv into the command and its `--flag` values (keyed without the
/// dashes); exits with code 2 on an unknown flag or a missing value.
fn parse_args() -> (String, DetHashMap<String, String>) {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".into());
    let rest: Vec<String> = args.collect();
    let flags = split_flags(&rest, &["--sanitize"], &VALUED).unwrap_or_else(|e| usage_error(&e));
    let opts = flags
        .into_iter()
        .map(|(flag, value)| (flag.trim_start_matches('-').to_string(), value))
        .collect();
    (cmd, opts)
}

/// The value of `--key` parsed as `T`; exits with code 2 if malformed.
fn opt<T: std::str::FromStr>(opts: &DetHashMap<String, String>, key: &str) -> Option<T> {
    opts.get(key)
        .map(|v| parse_value(&format!("--{key}"), v).unwrap_or_else(|e| usage_error(&e)))
}

/// The `--workload` names, which are also the report labels.
const WORKLOADS: [(&str, WorkloadKind); 7] = [
    ("vector", WorkloadKind::Vector),
    ("hashmap", WorkloadKind::Hashmap),
    ("queue", WorkloadKind::Queue),
    ("rbtree", WorkloadKind::RbTree),
    ("btree", WorkloadKind::BTree),
    ("ycsb", WorkloadKind::Ycsb),
    ("tpcc", WorkloadKind::Tpcc),
];

/// The `--engine` value (default HOOP); exits with code 2 on a name
/// `build_system` does not accept.
fn engine_of(opts: &DetHashMap<String, String>) -> &'static str {
    let engine = opts.get("engine").map(String::as_str).unwrap_or("HOOP");
    engine_names().find(|e| *e == engine).unwrap_or_else(|| {
        let names: Vec<&str> = engine_names().collect();
        usage_error(&format!(
            "--engine: unknown engine '{engine}' (one of: {})",
            names.join(", ")
        ))
    })
}

/// The `--workload` label (default hashmap) and its spec from the workload
/// flags; exits with code 2 on an unknown workload name.
fn spec_from(opts: &DetHashMap<String, String>) -> (&'static str, WorkloadSpec) {
    let name = opts
        .get("workload")
        .map(String::as_str)
        .unwrap_or("hashmap");
    let Some(&(label, kind)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        usage_error(&format!("unknown workload '{name}' (see `hoopsim list`)"))
    };
    let mut spec = WorkloadSpec::small(kind);
    if let Some(v) = opt(opts, "item-bytes") {
        spec.item_bytes = v;
    }
    spec.items = opt(opts, "items").unwrap_or(4096);
    if let Some(v) = opt(opts, "seed") {
        spec.seed = v;
    }
    (label, spec)
}

/// Machine configuration for a CLI run: the default Table II machine with
/// the `--shards N` host knob applied (byte-identical output for any N).
fn cfg_from(opts: &DetHashMap<String, String>) -> SimConfig {
    let shards = opts
        .get("shards")
        .map_or(Ok(1), |v| parse_positive("--shards", v));
    SimConfig {
        shards: shards.unwrap_or_else(|e| usage_error(&e)),
        ..SimConfig::default()
    }
}

/// The largest `--txs` a recorded trace covers: the inverse of the `run`
/// cell's [`trace_depth`], rounding down.
fn txs_covered(h: &TraceHeader) -> u64 {
    u64::from(h.txs_per_core / 2) * u64::from(h.workers) * 10 / 11
}

/// The `run` cell of `engine` on the workload flags' spec: `--txs`
/// (default `txs`) measured after a tenth as many warmup transactions. Also
/// returns the runner options carrying `--sanitize` and `--shards`.
fn cell_from(
    opts: &DetHashMap<String, String>,
    engine: &'static str,
    txs: u64,
) -> (Cell, RunnerOptions) {
    let (label, spec) = spec_from(opts);
    let sim = cfg_from(opts);
    let txs = opt(opts, "txs").unwrap_or(txs);
    let cell = Cell {
        engine,
        workload: label,
        spec,
        window: fixed_window(txs / 10, txs),
        trace: label.to_string(),
        sim,
    };
    let run = RunnerOptions {
        sanitize: opts.contains_key("sanitize"),
        shards: sim.shards,
        // The scale only labels result documents, which hoopsim never writes.
        ..RunnerOptions::live(Scale::Quick, default_jobs())
    };
    (cell, run)
}

/// Prints a run's summary and, when sanitized, its audit; exits with code
/// 1 on a persistency violation.
fn print_report(r: &RunReport, summary: Option<pmcheck::SanitizerSummary>) {
    println!("{}", r.summary());
    println!(
        "  miss_ratio={:.3}  loads/miss={:.2}  gc_reduction={:.3}  verify_errors={}",
        r.llc_miss_ratio, r.loads_per_miss, r.gc_reduction, r.verify_errors
    );
    if let Some(s) = summary {
        println!(
            "  sanitizer: {} events, {} lines, {} violation(s), {} redundant flush(es)",
            s.events, s.lines_tracked, s.violations, s.redundant_flushes
        );
        for sample in &s.samples {
            println!("    {sample}");
        }
        if !s.is_clean() {
            std::process::exit(1);
        }
    }
}

fn main() {
    let (cmd, opts) = parse_args();
    match cmd.as_str() {
        "run" => {
            let (cell, run) = cell_from(&opts, engine_of(&opts), 10_000);
            let r = run_cell(&cell, &run);
            print_report(&r.report, r.sanitizer);
        }
        "compare" => {
            let (cell, run) = cell_from(&opts, "HOOP", 10_000);
            let cells = ENGINES.map(|engine| Cell {
                engine,
                ..cell.clone()
            });
            for r in ExperimentPlan::new("compare", cells.to_vec()).run(&run) {
                println!("{}", r.report.summary());
            }
        }
        "recover" => {
            let threads: usize = opt(&opts, "threads").unwrap_or(8);
            let bw: f64 = opt(&opts, "bandwidth").unwrap_or(25.0);
            println!(
                "modeled recovery of 1 GB OOP region: {:.1} ms ({threads} threads, {bw} GB/s)",
                model_recovery_ms(1 << 30, 64 << 20, threads, bw)
            );
        }
        "trace" => {
            let (cell, _) = cell_from(&opts, "HOOP", 200);
            let out = opts
                .get("out")
                .cloned()
                .unwrap_or_else(|| "hoopsim.trace".into());
            let record = RecordOptions {
                txs_per_core: trace_depth(&[&cell]),
                values: false,
            };
            let tf = record_workload(cell.workload, cell.spec, &cell.sim, record)
                .unwrap_or_else(|e| panic!("recording {}: {e}", cell.workload));
            let events = tf.event_count();
            tf.write_to(Path::new(&out))
                .unwrap_or_else(|e| usage_error(&format!("--out: {e}")));
            let txs = cell.window.measured;
            println!("recorded {events} events covering {txs} txs -> {out}");
        }
        "replay" => {
            let engine = engine_of(&opts);
            let input = opts
                .get("in")
                .cloned()
                .unwrap_or_else(|| "hoopsim.trace".into());
            let tf = TraceReader::read(Path::new(&input))
                .unwrap_or_else(|e| usage_error(&format!("--in: {e}")));
            let covered = txs_covered(&tf.header);
            let txs = opt(&opts, "txs").unwrap_or(covered);
            if txs > covered {
                usage_error(&format!("--txs: {input} covers at most {covered} txs"));
            }
            let sanitize = opts.contains_key("sanitize");
            let cfg = cfg_from(&opts);
            let (r, summary) =
                replay_cell(&tf, engine, &cfg, fixed_window(txs / 10, txs), sanitize);
            println!(
                "replayed {} ({} events) on {engine}",
                tf.header.label,
                tf.event_count()
            );
            print_report(&r, summary);
        }
        "area" => {
            let rep = area_overhead(&SimConfig::default(), &ReferencePackage::default());
            println!(
                "mapping {} KB + evict {} KB + buffers {} KB + pbits {} KB -> {:.2} % overhead (paper 4.25 %)",
                rep.mapping_table_bytes / 1024,
                rep.eviction_buffer_bytes / 1024,
                rep.oop_buffer_bytes / 1024,
                rep.persistent_bit_bytes / 1024,
                rep.overhead_percent
            );
        }
        "list" => {
            let names: Vec<&str> = engine_names().collect();
            println!("engines:   {}", names.join(", "));
            println!("workloads: {}", WORKLOADS.map(|(n, _)| n).join(", "));
        }
        _ => {
            println!("hoopsim — HOOP NVM simulator CLI");
            println!("commands: run, compare, recover, trace, replay, area, list");
            println!("see the module docs of crates/bench/src/bin/hoopsim.rs for flags");
        }
    }
}
