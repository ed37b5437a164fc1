//! Persistency-sanitizer end-to-end tests.
//!
//! Two halves mirror the sanitizer's contract:
//!
//! 1. **Soundness on correct engines** — every persistence engine of the
//!    paper's comparison (plus the native Ideal system) runs a workload with
//!    the sanitizer attached, including a crash/recovery cycle, and must
//!    report zero hard violations.
//! 2. **Sensitivity to broken protocols** — deliberately broken mini-engines
//!    are driven through the real `System` event stream, and each seeded
//!    violation class must be detected with the correct engine, line and
//!    transaction attribution.

use std::sync::{Arc, Mutex};

use engines::common::ControllerBase;
use engines::system::System;
use engines::traits::{
    CommitOutcome, EngineProperties, Level, MissFill, PersistenceEngine, RecoveryReport,
};
use hoop_repro::prelude::*;
use nvm::TrafficClass;
use pmcheck::{PersistencySanitizer, SanitizerSummary, ViolationKind};
use simcore::addr::Line;
use simcore::Cycle;
use workloads::driver::Driver;

/// Runs `engine` under the sanitizer on a small hashmap workload with a
/// crash/recovery cycle at the end; returns the summary.
fn sanitized_run(engine: &str) -> SanitizerSummary {
    let cfg = SimConfig::small_for_tests();
    let mut sys = build_system(engine, &cfg);
    let (san, handle) = PersistencySanitizer::shared();
    sys.attach_sanitizer(handle);
    let mut spec = WorkloadSpec::small(WorkloadKind::Hashmap);
    spec.items = 512;
    let mut driver = Driver::new(spec, &cfg);
    driver.setup(&mut sys);
    let report = driver.run(&mut sys, 50, 400);
    assert_eq!(report.verify_errors, 0, "{engine}: corrupted data");
    sys.crash_and_recover(2);
    let summary = san.lock().expect("sanitizer poisoned").summary();
    summary
}

#[test]
fn all_engines_run_clean_under_the_sanitizer() {
    for engine in ENGINES {
        let s = sanitized_run(engine);
        assert_eq!(s.engine, engine);
        assert!(
            s.is_clean(),
            "{engine}: {} violation(s): {:?}",
            s.violations,
            s.samples
        );
        assert!(s.events > 0, "{engine}: sanitizer saw no events");
        if engine != "Ideal" {
            assert!(s.lines_tracked > 0, "{engine}: no lines tracked");
        }
    }
}

#[test]
fn multi_controller_hoop_runs_clean_under_the_sanitizer() {
    let s = sanitized_run("HOOP-MC2");
    assert_eq!(s.engine, "HOOP-MC2");
    assert!(s.is_clean(), "HOOP-MC2: {:?}", s.samples);
}

/// Which invariant the mini-engine deliberately breaks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Break {
    /// Persist the commit record while the payload is still volatile.
    CommitBeforeFlush,
    /// Persist the commit record after flushes but before any fence.
    CommitBeforeFence,
    /// GC migrates a version of a transaction that never committed.
    GcUncommitted,
    /// Recovery replays a commit id that never committed.
    ReplayUncommitted,
    /// Reclaim an OOP block while a mapping entry still points into it.
    DanglingMapping,
}

/// A minimal in-place engine whose commit protocol is broken in exactly one
/// way; everything else (home image, misses, evictions) is honest.
struct BrokenEngine {
    base: ControllerBase,
    mode: Break,
    /// Home lines stored by the open transaction.
    lines: Vec<u64>,
}

impl BrokenEngine {
    fn new(cfg: &SimConfig, mode: Break) -> Self {
        BrokenEngine {
            base: ControllerBase::new(cfg),
            mode,
            lines: Vec::new(),
        }
    }
}

impl PersistenceEngine for BrokenEngine {
    fn name(&self) -> &'static str {
        "Broken"
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::Low,
            on_critical_path: true,
            requires_flush_fence: true,
            write_traffic: Level::Low,
        }
    }

    fn tx_begin(&mut self, _core: CoreId, _now: Cycle) -> TxId {
        self.lines.clear();
        self.base.alloc_tx()
    }

    fn on_store(
        &mut self,
        _core: CoreId,
        _tx: TxId,
        addr: PAddr,
        data: &[u8],
        _now: Cycle,
    ) -> Cycle {
        self.base.store.write_bytes(addr, data);
        for l in simcore::addr::lines_covering(addr, data.len() as u64) {
            if !self.lines.contains(&l.0) {
                self.lines.push(l.0);
            }
        }
        0
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.base.serve_miss_from_home(line, now)
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if !persistent {
            self.base
                .write_home_line(line, line_data, now, TrafficClass::Data);
        }
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        match self.mode {
            Break::CommitBeforeFlush => {
                // No flush, no persist: straight to the commit record.
                self.base.san.commit_record(tx, now);
            }
            Break::CommitBeforeFence => {
                for l in &self.lines {
                    self.base.san.flush(Line(*l), now);
                }
                // Missing fence before the record persists.
                self.base.san.commit_record(tx, now + 5);
            }
            Break::GcUncommitted | Break::ReplayUncommitted | Break::DanglingMapping => {
                // Honest commit: payload durable, then the record.
                for l in &self.lines {
                    self.base.san.data_persisted(tx, Line(*l), now);
                }
                if self.mode == Break::DanglingMapping {
                    for l in &self.lines {
                        self.base.san.map_insert(Line(*l), 9, now);
                    }
                }
                self.base.san.commit_record(tx, now + 5);
            }
        }
        self.base.stats.committed_txs.inc();
        CommitOutcome {
            latency: 0,
            clean_lines: self.lines.drain(..).map(Line).collect(),
        }
    }

    fn tick(&mut self, _now: Cycle) -> Cycle {
        0
    }

    fn drain(&mut self, now: Cycle) {
        match self.mode {
            Break::GcUncommitted => {
                // Commit id 4242 never committed.
                self.base.san.gc_migrate(4242, Line(64), now);
            }
            Break::DanglingMapping => {
                // Block 9 still holds live mapping entries.
                self.base.san.block_reclaim(9, now);
            }
            _ => {}
        }
    }

    fn crash(&mut self) {
        self.lines.clear();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        if self.mode == Break::ReplayUncommitted {
            self.base.san.recovery_replay(7777, 0);
        }
        RecoveryReport {
            threads,
            ..RecoveryReport::default()
        }
    }

    engines::controller_accessors!(base);
}

/// Drives one transaction (two stores on distinct lines) through a `System`
/// hosting a `BrokenEngine`, drains, crash/recovers, and returns the
/// sanitizer for inspection.
fn drive_broken(mode: Break) -> Arc<Mutex<PersistencySanitizer>> {
    let cfg = SimConfig::small_for_tests();
    let mut sys = System::new(Box::new(BrokenEngine::new(&cfg, mode)), &cfg);
    let (san, handle) = PersistencySanitizer::shared();
    sys.attach_sanitizer(handle);
    let core = CoreId(0);
    let tx = sys.tx_begin(core);
    sys.store_bytes(core, PAddr(4096), &1u64.to_le_bytes());
    sys.store_bytes(core, PAddr(8192), &2u64.to_le_bytes());
    sys.tx_end(core, tx);
    sys.drain();
    sys.crash_and_recover(1);
    san
}

/// The hard violations recorded for a broken run.
fn hard(san: &Arc<Mutex<PersistencySanitizer>>) -> Vec<(ViolationKind, Option<u64>, Option<Line>)> {
    san.lock()
        .expect("sanitizer poisoned")
        .violations()
        .iter()
        .filter(|v| v.kind.is_hard())
        .map(|v| (v.kind, v.tx, v.line))
        .collect()
}

#[test]
fn unflushed_payload_at_commit_is_attributed_to_both_lines() {
    let san = drive_broken(Break::CommitBeforeFlush);
    let vs = hard(&san);
    assert_eq!(vs.len(), 2, "{vs:?}");
    for (kind, tx, _) in &vs {
        assert_eq!(*kind, ViolationKind::UnflushedAtCommit);
        assert_eq!(*tx, Some(1), "first controller tx id");
    }
    let lines: Vec<Option<Line>> = vs.iter().map(|(_, _, l)| *l).collect();
    assert!(lines.contains(&Some(Line(4096 / 64))));
    assert!(lines.contains(&Some(Line(8192 / 64))));
    let guard = san.lock().expect("sanitizer poisoned");
    let v = &guard.violations()[0];
    assert_eq!(v.engine, "Broken");
    assert!(!v.trace.is_empty(), "violation must carry a state trace");
}

#[test]
fn commit_record_before_fence_is_flagged() {
    let san = drive_broken(Break::CommitBeforeFence);
    let vs = hard(&san);
    assert_eq!(vs.len(), 2, "{vs:?}");
    for (kind, _, _) in &vs {
        assert_eq!(*kind, ViolationKind::CommitBeforePayload);
    }
}

#[test]
fn gc_migrating_uncommitted_version_is_flagged() {
    let san = drive_broken(Break::GcUncommitted);
    let vs = hard(&san);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].0, ViolationKind::GcUncommittedMigration);
    assert_eq!(vs[0].1, Some(4242));
    assert_eq!(vs[0].2, Some(Line(64)));
}

#[test]
fn recovery_replaying_uncommitted_tx_is_flagged() {
    let san = drive_broken(Break::ReplayUncommitted);
    let vs = hard(&san);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].0, ViolationKind::RecoveryReplayUncommitted);
    assert_eq!(vs[0].1, Some(7777));
}

#[test]
fn reclaiming_a_still_mapped_block_is_flagged() {
    let san = drive_broken(Break::DanglingMapping);
    let vs = hard(&san);
    assert_eq!(vs.len(), 2, "{vs:?}");
    for (kind, _, _) in &vs {
        assert_eq!(*kind, ViolationKind::DanglingMapping);
    }
    let guard = san.lock().expect("sanitizer poisoned");
    assert!(guard.violations().iter().all(|v| v.block == Some(9)));
}
