//! The benchmark's own checks: its counts repeat, its decorator is
//! transparent, and its output matches `BENCHMARK.json`.

use std::sync::Arc;

use engines::system::System;
use nvm::media::MediaSummary;
use perfbench::bench::{run_pass, PassMode, Scale, Workload, CRASH_INSTANCES};
use perfbench::host::HostTime;
use perfbench::report::{layer_metrics, run};
use perfbench::timed::{bare_engine, method_index, EngineClock, Timed, METHODS};
use pmcheck::PersistencySanitizer;
use simcore::config::{MediaConfig, SimConfig};
use simcore::crashpoint::CrashValve;
use workloads::driver::{Driver, ENGINES};
use workloads::{WorkloadKind, WorkloadSpec};

const TRACED: PassMode = PassMode {
    trace_bias_ns: Some(0.0),
    reference: true,
    gauge: false,
};

/// The per-layer metrics that are counts of simulated work (everything but
/// host time), rendered for comparison.
fn counts(workload: Workload, seed: u64) -> (String, Vec<(String, f64)>) {
    let pass = run_pass(workload, &Scale::small(), seed, TRACED);
    assert_eq!(pass.failed, 0, "{:?}", pass.failures);
    let counts = layer_metrics(&pass, &HostTime::default())
        .into_iter()
        .filter(|m| m.unit != "s" && m.unit != "ns")
        .map(|m| (m.name, m.value))
        .collect();
    (pass.sim, counts)
}

#[test]
fn layer_counts_repeat_for_a_seed_and_follow_the_seed() {
    for workload in Workload::ALL {
        let (sim_a, a) = counts(workload, 7);
        let (sim_b, b) = counts(workload, 7);
        assert_eq!(sim_a, sim_b, "{workload:?}: simulated statistics repeat");
        assert_eq!(a, b, "{workload:?}: per-layer counts repeat");
        let (sim_c, _) = counts(workload, 8);
        assert_ne!(
            sim_a, sim_c,
            "{workload:?}: a second seed changes the stream"
        );
    }
}

#[test]
fn traced_and_untraced_passes_simulate_the_same_thing() {
    for workload in Workload::ALL {
        let plain = run_pass(
            workload,
            &Scale::small(),
            3,
            PassMode {
                trace_bias_ns: None,
                reference: true,
                gauge: false,
            },
        );
        let traced = run_pass(workload, &Scale::small(), 3, TRACED);
        assert_eq!(plain.sim, traced.sim, "{workload:?}");
        assert_eq!(plain.reference, traced.reference, "{workload:?}");
        assert_eq!(plain.tally, traced.tally, "{workload:?}");
    }
}

#[test]
fn the_gauge_runs_once_per_cell_and_leaves_the_simulation_alone() {
    let scale = Scale::small();
    let cells = [
        (Workload::LiveWrite, 2 * ENGINES.len()),
        (Workload::ReplayMixed, 2 * ENGINES.len()),
        (Workload::CrashRecover, 6 * CRASH_INSTANCES as usize),
    ];
    for (workload, n) in cells {
        let plain = run_pass(workload, &scale, 5, PassMode::default());
        let gauged = run_pass(
            workload,
            &scale,
            5,
            PassMode {
                gauge: true,
                ..PassMode::default()
            },
        );
        assert_eq!(plain.gauge_steps, 0, "{workload:?}");
        assert_eq!(
            gauged.gauge_steps,
            n as u64 * scale.gauge_steps,
            "{workload:?}"
        );
        assert!(gauged.gauge_s > 0.0, "{workload:?}");
        assert_eq!(plain.sim, gauged.sim, "{workload:?}");
        assert_eq!(plain.tally, gauged.tally, "{workload:?}");
    }
}

#[test]
fn the_engine_clock_counts_the_timed_windows_only() {
    let scale = Scale::small();
    let engines = ENGINES.len() as u64;
    let calls = |workload| {
        let pass = run_pass(workload, &scale, 2, TRACED);
        assert_eq!(pass.failed, 0, "{:?}", pass.failures);
        let clock = pass.layers.engine.expect("a traced pass");
        METHODS.map(|m| clock.method_calls(method_index(m)))
    };
    let [begin, .., tx_end, _, _, recover] = calls(Workload::LiveWrite);
    // Every measured transaction, and none of set-up or warm-up.
    let live = 2 * engines * scale.live_measured;
    assert_eq!((begin, tx_end, recover), (live, live, 0), "live-write");

    // The engine split of replay-mixed is the live reference's window.
    let [begin, .., tx_end, _, _, _] = calls(Workload::ReplayMixed);
    let replayed = engines * scale.replay_measured.iter().sum::<u64>();
    assert_eq!((begin, tx_end), (replayed, replayed), "replay-mixed");

    let [begin, .., tx_end, _, _, recover] = calls(Workload::CrashRecover);
    let cells = perfbench::bench::CRASH_CONSISTENT.len() as u64 * CRASH_INSTANCES;
    let committed = cells * scale.crash_epochs * scale.crash_epoch_txs;
    assert_eq!((begin, tx_end), (committed, committed), "crash-recover");
    assert_eq!(recover, cells * scale.crash_epochs, "crash-recover");
}

/// Runs a small spec with media faults armed on `engine`, with every
/// defaulted trait method exercised: endurance tracking, a sanitizer and a
/// crash valve that never closes.
fn media_run(engine: Box<dyn engines::PersistenceEngine>, cfg: &SimConfig) -> String {
    let mut sys = System::new(engine, cfg);
    sys.enable_endurance_tracking();
    let (san, handle) = PersistencySanitizer::shared();
    sys.attach_sanitizer(handle);
    let valve = CrashValve::armed(u64::MAX);
    sys.attach_crash_valve(valve.clone());
    let spec = WorkloadSpec {
        items: 128,
        ..WorkloadSpec::small(WorkloadKind::Hashmap)
    };
    let mut driver = Driver::new(spec, cfg);
    driver.setup(&mut sys);
    let report = driver.run_until(&mut sys, 20, 200, 0);
    let recovery = sys.crash_and_recover(2);
    let media: MediaSummary = sys.media().summary();
    let endurance = sys
        .engine()
        .device()
        .endurance()
        .map(|e| e.lines_sorted().len());
    let summary = san.lock().expect("sanitizer lock").summary();
    format!(
        "{report:?}\n{recovery:?}\n{media:?}\n{endurance:?}\n{summary:?}\n{:?}\n{:?}\n{:?}",
        valve.kind_counts(),
        sys.engine().extra_metrics(),
        sys.engine().properties(),
    )
}

#[test]
fn decorated_engine_reports_exactly_what_the_bare_engine_does() {
    let armed = SimConfig {
        media: MediaConfig::enabled(5),
        ..SimConfig::small_for_tests()
    };
    // Media faults switch endurance tracking on by themselves; the plain
    // machine shows whether the decorator forwards the explicit request.
    for cfg in [armed, SimConfig::small_for_tests()] {
        for name in ENGINES {
            let bare = media_run(bare_engine(name, &cfg), &cfg);
            let clock = EngineClock::shared(0.0);
            let timed = clock.count(|| {
                media_run(
                    Box::new(Timed::new(bare_engine(name, &cfg), Arc::clone(&clock))),
                    &cfg,
                )
            });
            assert_eq!(bare, timed, "{name}");
            let engine = perfbench::timed::engine_index(name);
            assert!(
                clock.engine_seconds(engine) > 0.0,
                "{name}: callbacks timed"
            );
        }
    }
    // The fault model stays attached through the decorator.
    let timed = Timed::new(bare_engine("HOOP", &armed), EngineClock::shared(0.0));
    assert!(engines::PersistenceEngine::media(&timed).is_attached());
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn output_matches_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let workloads = declared("workloads");
    assert_eq!(
        workloads,
        Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>()
    );
    for workload in Workload::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run(workload, &Scale::small(), 1, 0.001, trace);
            assert!(out.correct, "{workload:?}: {:?}", out.failures);
            assert_eq!(out.failed, 0);
            let got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&got, names, "{workload:?} trace={trace}");
            let json = out.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            for name in &end_to_end {
                if !trace {
                    assert!(
                        out.get(name).expect("metric") > 0.0,
                        "{workload:?}: {name} is 0"
                    );
                }
            }
        }
    }
}

#[test]
fn a_panicking_cell_fails_without_aborting_the_pass() {
    // An OOP region of one block cannot hold a warm-up's worth of
    // uncommitted and unreclaimed data: HOOP panics (region exhaustion).
    let mut scale = Scale::small();
    scale.sim.hoop.oop_region_bytes = scale.sim.hoop.oop_block_bytes;
    let pass = run_pass(Workload::LiveWrite, &scale, 1, PassMode::default());
    assert!(pass.failed > 0);
    assert!(pass
        .failures
        .iter()
        .all(|f| f.contains("HOOP") && f.contains("panicked")));
    // Every other engine still ran its cells.
    for name in ENGINES.iter().filter(|n| **n != "HOOP") {
        assert!(pass.totals.engine(name).txs > 0, "{name} ran");
    }
}
