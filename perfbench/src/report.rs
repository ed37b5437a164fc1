//! One benchmark run: repeated passes, their checks, and the metrics.
//!
//! The first pass of a run warms the host up and sets the peak-memory
//! figure; it is checked but not timed. Every later pass also runs the
//! host-speed gauge ([`crate::gauge`]) before each cell.
//!
//! End-to-end metrics come from untraced passes. Per-layer metrics come
//! from traced passes, which a traced run alternates with untraced ones so
//! that the two can be compared: their simulated statistics must be
//! identical, and the difference in host time is the tracing overhead.

use std::fmt::Write as _;
use std::time::Instant;

use workloads::driver::ENGINES;

use crate::bench::{recovery_threads, run_pass, Pass, PassMode, Scale, Workload};
use crate::gauge::REFERENCE_NS_PER_STEP;
use crate::host::{median, peak_rss_mb, tail_percentile, HostTime};
use crate::timed::{clock_read_bias_ns, engine_index, method_index, METHODS};

/// Samples required beyond the tail percentile of recovery time.
pub const TAIL_BEYOND: usize = 10;

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: each metric with its sample count.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The result object the benchmark prints as its last line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The value of the named metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite number in JSON syntax with all its digits (non-finite values,
/// which no metric should produce, print as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Throughput of one untraced pass in transactions per host second.
fn tx_per_host_s(p: &Pass) -> f64 {
    p.totals.txs() as f64 / p.window.wall_s.max(f64::MIN_POSITIVE)
}

/// Host nanoseconds per gauge step in one gauged pass.
fn gauge_ns_per_step(p: &Pass) -> f64 {
    p.gauge_s * 1e9 / p.gauge_steps.max(1) as f64
}

/// How many times slower than the reference host a gauged pass ran.
fn slowdown(p: &Pass) -> f64 {
    gauge_ns_per_step(p) / REFERENCE_NS_PER_STEP
}

/// Median over `passes` of `f`.
fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Runs `workload` for about `seconds` and reports. A traced run alternates
/// untraced and traced passes and reports per-layer metrics; an untraced
/// run reports end-to-end metrics.
pub fn run(workload: Workload, scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let start = Instant::now();
    // The warm-up pass and at least one untraced (and one traced) pass.
    let min_passes = 3;
    let bias = trace.then(clock_read_bias_ns);
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let i = passes.len();
        let mode = PassMode {
            trace_bias_ns: bias.filter(|_| i % 2 == 1),
            // A traced run times the reference in every pass, so that its
            // traced and untraced runs compare like with like.
            reference: i == 0 || trace,
            gauge: i > 0,
        };
        passes.push(run_pass(workload, scale, seed, mode));
        if i == 0 {
            // The program's peak, before the gauge holds any memory.
            peak_rss = peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_passes && elapsed + per_pass > seconds {
            break;
        }
    }

    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    // Every pass simulates the same thing: traced or not, its simulated
    // statistics must be identical.
    attempted += 2;
    if passes.iter().any(|p| p.sim != passes[0].sim) {
        failed += 1;
        failures.push("simulated statistics differ between passes".to_string());
    }
    let references: Vec<&String> = passes.iter().filter_map(|p| p.reference.as_ref()).collect();
    if references.iter().any(|r| *r != references[0]) {
        failed += 1;
        failures.push("live reference statistics differ between passes".to_string());
    }

    let measured = &passes[1..];
    let untraced: Vec<&Pass> = measured.iter().filter(|p| !p.traced()).collect();
    let traced: Vec<&Pass> = measured.iter().filter(|p| p.traced()).collect();
    let recover_ms: Vec<f64> = untraced.iter().flat_map(|p| p.recover_ms.clone()).collect();
    let mut lines = vec![format!(
        "{} seed {seed}: {} passes ({} traced) in {:.1} s; recovery threads {}; host CPUs {}",
        workload.name(),
        passes.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        recovery_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )];
    for (i, p) in passes.iter().enumerate() {
        lines.push(format!(
            "pass {i}{}: window {:.4} s (cpu {:.4} s, run-queue wait {:.4} s), {} txs, set-up {:.4} s, gauge {:.4} s",
            if i == 0 { " warm-up" } else if p.traced() { " traced" } else { "" },
            p.window.wall_s,
            p.window.cpu_s,
            p.window.runq_wait_s,
            p.totals.txs(),
            p.setup_s,
            p.gauge_s,
        ));
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    lines.push(format!(
        "failed_ops_frac {failed_frac} ({failed} of {attempted} operations)"
    ));
    lines.extend(failures.iter().map(|f| format!("FAILED: {f}")));
    let recovery = recovery_summary(&recover_ms);
    if let Some((p50, (pct, tail))) = recovery {
        lines.push(format!(
            "recover_host_ms_p50 {p50} ms (n={})",
            recover_ms.len()
        ));
        lines.push(format!(
            "recover_host_ms_tail {tail} ms at p{pct} (n={}, {TAIL_BEYOND}+ beyond)",
            recover_ms.len()
        ));
    }

    let metrics = if trace {
        let mut m = per_layer(&traced, &untraced);
        push(
            &mut m,
            "sim_tx_per_host_s",
            median_of(&untraced, tx_per_host_s),
            "1/s",
        );
        push(
            &mut m,
            "host.setup_s",
            median_of(&untraced, |p| p.setup_s),
            "s",
        );
        push(
            &mut m,
            "host.gauge_ns_per_step",
            median_of(&untraced, gauge_ns_per_step),
            "ns",
        );
        let overhead = median(
            &traced
                .iter()
                .map(|p| p.layers.decorated_s)
                .collect::<Vec<_>>(),
        ) / median(
            &untraced
                .iter()
                .map(|p| p.layers.decorated_s)
                .collect::<Vec<_>>(),
        )
        .max(f64::MIN_POSITIVE)
            - 1.0;
        push(&mut m, "tracing.overhead_frac", overhead, "ratio");
        push(&mut m, "failed_ops_frac", failed_frac, "ratio");
        let (p50, pct, tail) = recovery.map_or((0.0, 0.0, 0.0), |(p50, (pct, tail))| {
            (p50, f64::from(pct), tail)
        });
        push(&mut m, "recover_host_ms_p50", p50, "ms");
        push(&mut m, "recover_host_ms_tail", tail, "ms");
        push(&mut m, "recover.tail_percentile", pct, "percent");
        push(&mut m, "recover.samples", recover_ms.len() as f64, "count");
        for x in &m {
            lines.push(format!(
                "{} {} {} (median of {} traced passes)",
                x.name,
                x.value,
                x.unit,
                traced.len()
            ));
        }
        m
    } else {
        let mut m = Vec::new();
        let n = untraced.len();
        lines.push(format!(
            "sim_tx_per_host_s {} 1/s (n={n}, raw host time; per-layer metric)",
            median_of(&untraced, tx_per_host_s)
        ));
        lines.push(format!(
            "host.setup_s {} s (n={n}, raw host time; per-layer metric)",
            median_of(&untraced, |p| p.setup_s)
        ));
        lines.push(format!(
            "host.gauge_ns_per_step {} ns (n={n}; the reference host takes {REFERENCE_NS_PER_STEP})",
            median_of(&untraced, gauge_ns_per_step)
        ));
        push(
            &mut m,
            "sim_tx_per_ref_s",
            median_of(&untraced, |p| tx_per_host_s(p) * slowdown(p)),
            "1/s",
        );
        push(
            &mut m,
            "setup_s",
            median_of(&untraced, |p| p.setup_s / slowdown(p)),
            "s",
        );
        push(&mut m, "peak_rss_mb", peak_rss, "MB");
        push(
            &mut m,
            "sim_hoop_speedup",
            passes[0].totals.hoop_speedup(),
            "ratio",
        );
        push(
            &mut m,
            "sim_hoop_write_ratio",
            passes[0].totals.hoop_write_ratio(),
            "ratio",
        );
        let samples = [n, n, 1, 1, 1];
        for (x, n) in m.iter().zip(samples) {
            lines.push(format!("{} {} {} (n={n})", x.name, x.value, x.unit));
        }
        m
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        failures,
        metrics,
        lines,
    }
}

/// Median recovery time and the tail percentile with its value.
fn recovery_summary(ms: &[f64]) -> Option<(f64, (u32, f64))> {
    tail_percentile(ms, TAIL_BEYOND).map(|tail| (median(ms), tail))
}

fn push(m: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    m.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// Per-layer metrics of each traced pass, then the median over passes.
/// Host time of the windows comes from the untraced passes, which run the
/// program without the decorator.
fn per_layer(traced: &[&Pass], untraced: &[&Pass]) -> Vec<Metric> {
    let window = |f: fn(&Pass) -> f64| median(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let host = HostTime {
        wall_s: window(|p| p.window.wall_s),
        cpu_s: window(|p| p.window.cpu_s),
        runq_wait_s: window(|p| p.window.runq_wait_s),
    };
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(|p| layer_metrics(p, &host)).collect();
    per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Metric {
            value: median(&per_pass.iter().map(|m| m[i].value).collect::<Vec<_>>()),
            ..first.clone()
        })
        .collect()
}

/// The per-layer metrics of one traced pass, given the host cost of the
/// same windows untraced.
pub fn layer_metrics(p: &Pass, host: &HostTime) -> Vec<Metric> {
    let mut m = Vec::new();
    let clock = p
        .layers
        .engine
        .as_ref()
        .expect("a traced pass carries an engine clock");
    let t = &p.tally;
    let l = &p.layers;

    // memhier and engines::system.
    push(&mut m, "memhier.accesses", t.accesses as f64, "count");
    push(&mut m, "memhier.llc_hits", t.llc_hits as f64, "count");
    push(&mut m, "memhier.llc_misses", t.llc_misses as f64, "count");
    push(
        &mut m,
        "memhier.dirty_evictions",
        t.dirty_evictions as f64,
        "count",
    );
    push(
        &mut m,
        "memhier.llc_miss_ratio",
        ratio(t.llc_misses, t.accesses),
        "ratio",
    );
    let self_s = host.wall_s - l.decode_s - l.gen_s - clock.total_seconds();
    push(&mut m, "system.self_s", self_s, "s");
    push(
        &mut m,
        "system.recover_reload_s",
        l.system_recover_s - clock.recover_seconds(),
        "s",
    );
    push(
        &mut m,
        "host.ns_per_access",
        host.wall_s * 1e9 / t.accesses.max(1) as f64,
        "ns",
    );
    push(&mut m, "host.window_s", host.wall_s, "s");
    push(&mut m, "host.cpu_s", host.cpu_s, "s");
    push(&mut m, "host.runq_wait_s", host.runq_wait_s, "s");

    // engines, at the callback boundary.
    for (i, name) in METHODS.iter().enumerate() {
        push(
            &mut m,
            &format!("engine.{name}.s"),
            clock.method_seconds(i),
            "s",
        );
        push(
            &mut m,
            &format!("engine.{name}.calls"),
            clock.method_calls(i) as f64,
            "count",
        );
    }
    for (i, name) in ENGINES.iter().enumerate() {
        push(
            &mut m,
            &format!("engine.{name}.s"),
            clock.engine_seconds(i),
            "s",
        );
    }
    push(
        &mut m,
        "engine.misses_served",
        t.misses_served as f64,
        "count",
    );
    push(
        &mut m,
        "engine.miss_memory_loads",
        t.miss_memory_loads as f64,
        "count",
    );
    push(&mut m, "engine.gc_runs", t.gc_runs as f64, "count");
    push(&mut m, "engine.gc_bytes_in", t.gc_bytes_in as f64, "B");
    push(&mut m, "engine.gc_bytes_out", t.gc_bytes_out as f64, "B");
    push(
        &mut m,
        "engine.commit_stall_cycles",
        t.commit_stall_cycles as f64,
        "cycles",
    );
    push(
        &mut m,
        "engine.ondemand_gc_stall_cycles",
        t.ondemand_gc_stall_cycles as f64,
        "cycles",
    );

    // The engines with a layer of their own.
    let (lsm, hoop) = (engine_index("LSM"), engine_index("HOOP"));
    push(
        &mut m,
        "lsm.on_load.s",
        clock.seconds(lsm, method_index("on_load")),
        "s",
    );
    push(
        &mut m,
        "lsm.tx_end.s",
        clock.seconds(lsm, method_index("tx_end")),
        "s",
    );
    push(&mut m, "hoop.gc_runs", t.hoop_gc_runs as f64, "count");
    let reduction = 1.0 - ratio(t.hoop_gc_bytes_out, t.hoop_gc_bytes_in);
    push(
        &mut m,
        "hoop.gc_reduction",
        if t.hoop_gc_bytes_in == 0 {
            0.0
        } else {
            reduction
        },
        "ratio",
    );
    push(
        &mut m,
        "hoop.parallel_read_frac",
        ratio(t.hoop_parallel_reads, t.hoop_misses_served),
        "ratio",
    );
    push(
        &mut m,
        "hoop.loads_per_miss",
        ratio(t.hoop_miss_memory_loads, t.hoop_misses_served),
        "ratio",
    );
    push(
        &mut m,
        "hoop.on_store.s",
        clock.seconds(hoop, method_index("on_store")),
        "s",
    );
    push(
        &mut m,
        "hoop.tick.s",
        clock.seconds(hoop, method_index("tick")),
        "s",
    );
    push(
        &mut m,
        "hoop.recover.s",
        clock.seconds(hoop, method_index("recover")),
        "s",
    );
    push(
        &mut m,
        "hoop.recover.bytes_scanned",
        l.hoop_recover.bytes_scanned as f64,
        "B",
    );
    push(
        &mut m,
        "hoop.recover.txs_replayed",
        l.hoop_recover.txs_replayed as f64,
        "count",
    );
    push(
        &mut m,
        "hoop.recover.modeled_ms",
        l.hoop_recover.modeled_ms,
        "ms",
    );

    // workloads and trace.
    push(&mut m, "workloads.gen_s", l.gen_s, "s");
    push(&mut m, "workloads.verify_s", l.verify_s, "s");
    push(&mut m, "trace.record_s", l.record_s, "s");
    push(&mut m, "trace.decode_s", l.decode_s, "s");
    push(&mut m, "trace.events", l.trace_events as f64, "count");
    push(&mut m, "trace.bytes", l.trace_bytes as f64, "B");

    // nvm and the simulated results it sets.
    push(&mut m, "nvm.bytes_read", t.bytes_read as f64, "B");
    push(&mut m, "nvm.bytes_written", t.bytes_written as f64, "B");
    push(
        &mut m,
        "nvm.row_hit_ratio",
        ratio(t.row_hits, t.row_hits + t.row_misses),
        "ratio",
    );
    push(
        &mut m,
        "nvm.utilization",
        t.utilization_sum / t.cells.max(1) as f64,
        "ratio",
    );
    push(
        &mut m,
        "nvm.energy_pj_per_tx",
        t.energy_pj / p.totals.txs().max(1) as f64,
        "pJ",
    );
    for name in ENGINES {
        push(
            &mut m,
            &format!("sim.{name}.tx_per_ms"),
            p.totals.engine(name).tx_per_ms(),
            "1/ms",
        );
    }
    push(
        &mut m,
        "sim.tx_latency_p50_cycles",
        t.hoop_latency_p50 as f64,
        "cycles",
    );
    push(
        &mut m,
        "sim.tx_latency_p99_cycles",
        t.hoop_latency_p99 as f64,
        "cycles",
    );

    // nvm::media.
    let md = &t.media;
    push(&mut m, "media.reads", md.reads as f64, "count");
    push(&mut m, "media.corrected", md.corrected as f64, "count");
    push(&mut m, "media.retries", md.retries as f64, "count");
    push(
        &mut m,
        "media.scrub_rewrites",
        md.scrub_rewrites as f64,
        "count",
    );
    push(&mut m, "media.retired", md.retired as f64, "count");
    push(
        &mut m,
        "media.uncorrectable",
        md.uncorrectable as f64,
        "count",
    );
    push(&mut m, "media.data_loss", md.data_loss as f64, "count");
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
