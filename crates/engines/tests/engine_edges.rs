//! Edge-case coverage for the baseline engines: checkpoint/truncation
//! interleavings, multi-transaction rollback ordering, background-work
//! scheduling, and burst accounting.

use engines::lad::LadEngine;
use engines::lsm::LsmEngine;
use engines::osp::OspEngine;
use engines::redo::OptRedoEngine;
use engines::undo::OptUndoEngine;
use engines::{PersistenceEngine, System};
use nvm::TrafficClass;
use simcore::{CoreId, PAddr, SimConfig};

fn cfg() -> SimConfig {
    SimConfig::small_for_tests()
}

#[test]
fn redo_recovery_after_partial_checkpoint_window() {
    let mut e = OptRedoEngine::new(&cfg());
    // Two committed txs; checkpoint between them; then crash: only the
    // second should need replay, both must survive.
    let t1 = e.tx_begin(CoreId(0), 0);
    e.on_store(CoreId(0), t1, PAddr(0), &1u64.to_le_bytes(), 0);
    e.tx_end(CoreId(0), t1, 10);
    e.drain(1_000); // checkpoint + truncate
    let t2 = e.tx_begin(CoreId(0), 2_000);
    e.on_store(CoreId(0), t2, PAddr(64), &2u64.to_le_bytes(), 2_000);
    e.tx_end(CoreId(0), t2, 2_010);
    e.crash();
    let rep = e.recover(1);
    assert_eq!(rep.txs_replayed, 1, "only the unchecked tx replays");
    assert_eq!(e.durable().read_u64(PAddr(0)), 1);
    assert_eq!(e.durable().read_u64(PAddr(64)), 2);
}

#[test]
fn undo_rolls_back_multiple_open_transactions_in_reverse() {
    let mut e = OptUndoEngine::new(&cfg());
    e.init_home(PAddr(0), &10u64.to_le_bytes());
    e.init_home(PAddr(64), &20u64.to_le_bytes());
    // Two cores with open transactions over disjoint lines; both stole
    // their way to home via evictions, neither committed.
    let ta = e.tx_begin(CoreId(0), 0);
    let tb = e.tx_begin(CoreId(1), 0);
    e.on_store(CoreId(0), ta, PAddr(0), &11u64.to_le_bytes(), 5);
    e.on_store(CoreId(1), tb, PAddr(64), &21u64.to_le_bytes(), 6);
    let mut img0 = [0u8; 64];
    img0[..8].copy_from_slice(&11u64.to_le_bytes());
    let mut img1 = [0u8; 64];
    img1[..8].copy_from_slice(&21u64.to_le_bytes());
    e.on_evict_dirty(simcore::addr::Line(0), true, &img0, 50);
    e.on_evict_dirty(simcore::addr::Line(1), true, &img1, 60);
    assert_eq!(e.durable().read_u64(PAddr(0)), 11, "steal landed");
    e.crash();
    e.recover(2);
    assert_eq!(e.durable().read_u64(PAddr(0)), 10, "core0 rolled back");
    assert_eq!(e.durable().read_u64(PAddr(64)), 20, "core1 rolled back");
}

#[test]
fn undo_commit_then_open_tx_rollback_does_not_undo_committed() {
    let mut e = OptUndoEngine::new(&cfg());
    e.init_home(PAddr(0), &1u64.to_le_bytes());
    let t1 = e.tx_begin(CoreId(0), 0);
    e.on_store(CoreId(0), t1, PAddr(0), &2u64.to_le_bytes(), 1);
    e.tx_end(CoreId(0), t1, 10);
    // A later open tx re-touches the same line (its undo image is the
    // committed value 2) and dies.
    let t2 = e.tx_begin(CoreId(0), 100);
    e.on_store(CoreId(0), t2, PAddr(0), &3u64.to_le_bytes(), 101);
    e.crash();
    e.recover(1);
    assert_eq!(
        e.durable().read_u64(PAddr(0)),
        2,
        "rollback target is t1's value"
    );
}

#[test]
fn osp_consolidation_charges_gc_traffic_periodically() {
    let mut e = OspEngine::new(&cfg());
    let mut committed = 0u64;
    // Commit enough single-line txs to trip page consolidation (256 lines).
    for i in 0..300u64 {
        let tx = e.tx_begin(CoreId(0), i * 100);
        e.on_store(CoreId(0), tx, PAddr(i * 64), &i.to_le_bytes(), i * 100);
        e.tx_end(CoreId(0), tx, i * 100 + 10);
        committed += 1;
    }
    assert_eq!(committed, 300);
    assert!(
        e.device().traffic().written(TrafficClass::Gc) > 0,
        "consolidation traffic must appear"
    );
}

#[test]
fn lsm_index_shrinks_after_gc_and_reads_go_home() {
    let mut e = LsmEngine::new(&cfg());
    for i in 0..50u64 {
        let tx = e.tx_begin(CoreId(0), i * 10);
        e.on_store(CoreId(0), tx, PAddr(i * 64), &i.to_le_bytes(), i * 10);
        e.tx_end(CoreId(0), tx, i * 10 + 5);
    }
    let deep = e.on_load(CoreId(0), PAddr(25 * 64), 8, 600);
    e.drain(100_000);
    let shallow = e.on_load(CoreId(0), PAddr(25 * 64), 8, 200_000);
    assert!(
        shallow < deep,
        "post-GC translation should be cheaper: {shallow} vs {deep}"
    );
    let metrics = e.extra_metrics();
    let entries = metrics
        .iter()
        .find(|(k, _)| *k == "index_entries")
        .expect("metric")
        .1;
    assert_eq!(entries, 0.0, "GC must clear the index");
}

#[test]
fn lad_tick_and_drain_are_free() {
    let mut e = LadEngine::new(&cfg());
    assert_eq!(e.tick(1_000_000), 0);
    e.drain(2_000_000);
    assert_eq!(e.device().traffic().total_written(), 0);
}

#[test]
fn system_clock_monotonicity_and_isolation() {
    let cfg = cfg();
    let mut sys = System::new(Box::new(OptUndoEngine::new(&cfg)), &cfg);
    let a = sys.alloc(64);
    let before0 = sys.clock(CoreId(0));
    let before1 = sys.clock(CoreId(1));
    let tx = sys.tx_begin(CoreId(0));
    sys.store_u64(CoreId(0), a, 3);
    sys.tx_end(CoreId(0), tx);
    assert!(sys.clock(CoreId(0)) > before0, "active core advances");
    assert_eq!(sys.clock(CoreId(1)), before1, "idle core does not");
}
