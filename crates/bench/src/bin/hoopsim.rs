//! `hoopsim` — command-line front end for the HOOP simulator.
//!
//! ```text
//! hoopsim run      --engine HOOP --workload ycsb --txs 20000 [--item-bytes 1024] [--sanitize] [--shards N]
//! hoopsim compare  --workload hashmap [--txs 10000] [--shards N]
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
//! Unknown flags and malformed values exit with code 2.

use std::path::Path;

use hoop::area::{area_overhead, ReferencePackage};
use hoop::recovery::model_recovery_ms;
use hoop_bench::runner::{parse_value, split_flags, usage_error};
use simcore::config::SimConfig;
use simcore::det::DetHashMap;
use trace::{
    default_txs_per_core, record_workload, replay_cell, RecordOptions, ReplayWindow, TraceHeader,
    TraceReader,
};
use workloads::driver::{build_system, Driver, RunReport, ENGINES};
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

fn kind_of(name: &str) -> WorkloadKind {
    match name {
        "vector" => WorkloadKind::Vector,
        "hashmap" => WorkloadKind::Hashmap,
        "queue" => WorkloadKind::Queue,
        "rbtree" => WorkloadKind::RbTree,
        "btree" => WorkloadKind::BTree,
        "ycsb" => WorkloadKind::Ycsb,
        "tpcc" => WorkloadKind::Tpcc,
        other => usage_error(&format!("unknown workload '{other}' (see `hoopsim list`)")),
    }
}

fn spec_from(opts: &DetHashMap<String, String>) -> WorkloadSpec {
    let kind = kind_of(
        opts.get("workload")
            .map(String::as_str)
            .unwrap_or("hashmap"),
    );
    let mut spec = WorkloadSpec::small(kind);
    if let Some(v) = opt(opts, "item-bytes") {
        spec.item_bytes = v;
    }
    spec.items = opt(opts, "items").unwrap_or(4096);
    if let Some(v) = opt(opts, "seed") {
        spec.seed = v;
    }
    spec
}

/// Machine configuration for a CLI run: the default Table II machine with
/// the `--shards N` host knob applied (byte-identical output for any N).
fn cfg_from(opts: &DetHashMap<String, String>) -> SimConfig {
    let mut cfg = SimConfig::default();
    if let Some(n) = opt(opts, "shards") {
        if n == 0 {
            usage_error("--shards needs a positive integer, got '0'");
        }
        cfg.shards = n;
    }
    cfg
}

/// The `run` window for `txs` transactions: `txs / 10` warmup, then `txs`
/// measured.
fn window(txs: u64) -> ReplayWindow {
    ReplayWindow {
        warmup: txs / 10,
        measured: txs,
        min_cycles: 0,
    }
}

/// Per-core stream depth that covers the `run` window of `txs`
/// transactions on `workers` cores (with the default 2× scheduling margin).
fn depth_for(txs: u64, workers: u8) -> u32 {
    let w = window(txs);
    default_txs_per_core(w.warmup + w.measured, u64::from(workers))
}

/// The largest `--txs` a recorded trace covers: the inverse of
/// [`depth_for`], rounding down.
fn txs_covered(h: &TraceHeader) -> u64 {
    u64::from(h.txs_per_core / 2) * u64::from(h.workers) * 10 / 11
}

fn run_one(
    engine: &str,
    spec: WorkloadSpec,
    txs: u64,
    sanitize: bool,
    cfg: &SimConfig,
) -> (RunReport, Option<pmcheck::SanitizerSummary>) {
    let mut sys = build_system(engine, cfg);
    let san = sanitize.then(|| {
        let (san, handle) = pmcheck::PersistencySanitizer::shared();
        sys.attach_sanitizer(handle);
        san
    });
    let mut driver = Driver::new(spec, cfg);
    driver.setup(&mut sys);
    let w = window(txs);
    let report = driver.run(&mut sys, w.warmup, w.measured);
    let summary = san.map(|s| s.lock().expect("sanitizer poisoned").summary());
    (report, summary)
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
            let engine = opts.get("engine").map(String::as_str).unwrap_or("HOOP");
            let spec = spec_from(&opts);
            let txs = opt(&opts, "txs").unwrap_or(10_000);
            let sanitize = opts.contains_key("sanitize");
            let cfg = cfg_from(&opts);
            let (r, summary) = run_one(engine, spec, txs, sanitize, &cfg);
            print_report(&r, summary);
        }
        "compare" => {
            let spec = spec_from(&opts);
            let txs = opt(&opts, "txs").unwrap_or(10_000);
            let cfg = cfg_from(&opts);
            for engine in ENGINES {
                println!("{}", run_one(engine, spec, txs, false, &cfg).0.summary());
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
            let spec = spec_from(&opts);
            let txs = opt(&opts, "txs").unwrap_or(200);
            let out = opts
                .get("out")
                .cloned()
                .unwrap_or_else(|| "hoopsim.trace".into());
            let cfg = SimConfig::default();
            let record = RecordOptions {
                txs_per_core: depth_for(txs, cfg.worker_threads),
                values: false,
            };
            let tf = record_workload(&spec.kind.to_string(), spec, &cfg, record)
                .unwrap_or_else(|e| panic!("recording {}: {e}", spec.kind));
            let events = tf.event_count();
            tf.write_to(Path::new(&out))
                .unwrap_or_else(|e| usage_error(&format!("--out: {e}")));
            println!("recorded {events} events covering {txs} txs -> {out}");
        }
        "replay" => {
            let engine = opts.get("engine").map(String::as_str).unwrap_or("HOOP");
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
            let (r, summary) = replay_cell(&tf, engine, &cfg, window(txs), sanitize);
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
            println!("engines:   {}", ENGINES.join(", "));
            println!("           HOOP-MC2, HOOP-MC4 (multi-controller, §III-I)");
            println!("workloads: vector, hashmap, queue, rbtree, btree, ycsb, tpcc");
        }
        _ => {
            println!("hoopsim — HOOP NVM simulator CLI");
            println!("commands: run, compare, recover, trace, replay, area, list");
            println!("see the module docs of crates/bench/src/bin/hoopsim.rs for flags");
        }
    }
}
