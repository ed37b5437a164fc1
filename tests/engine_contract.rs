//! The shared half of the `PersistenceEngine` contract, checked on every
//! engine `build_system` accepts: counter resets, endurance tracking, the
//! media model and the crash valve all reach the engine's controller base.

use hoop_repro::prelude::*;
use simcore::config::MediaConfig;
use simcore::crashpoint::CrashValve;
use workloads::driver::engine_names;

/// One committed single-word transaction, then a drain.
fn commit_one(sys: &mut System) {
    let core = CoreId(0);
    let a = sys.alloc(64);
    let tx = sys.tx_begin(core);
    sys.store_u64(core, a, 9);
    sys.tx_end(core, tx);
    sys.drain();
}

#[test]
fn every_engine_honours_the_controller_contract() {
    let cfg = SimConfig::small_for_tests();
    for name in engine_names() {
        // reset_counters zeroes the counters, never the durable image.
        let mut sys = build_system(name, &cfg);
        commit_one(&mut sys);
        let e = sys.engine();
        assert!(
            e.stats().committed_txs.get() > 0,
            "{name}: no commit counted"
        );
        assert!(
            e.device().traffic().total_written() > 0,
            "{name}: no traffic"
        );
        let image = e.durable().content_digest();
        sys.reset_counters();
        let e = sys.engine();
        assert_eq!(e.stats().committed_txs.get(), 0, "{name}: stats kept");
        assert_eq!(e.stats().misses_served.get(), 0, "{name}: stats kept");
        assert_eq!(e.device().traffic().total_read(), 0, "{name}: reads kept");
        assert_eq!(
            e.device().traffic().total_written(),
            0,
            "{name}: writes kept"
        );
        assert_eq!(e.durable().content_digest(), image, "{name}: image moved");

        // Endurance tracking switches on at the device.
        let mut sys = build_system(name, &cfg);
        assert!(sys.engine().device().endurance().is_none(), "{name}");
        sys.enable_endurance_tracking();
        assert!(sys.engine().device().endurance().is_some(), "{name}");

        // A media-enabled configuration attaches the fault model.
        let mut faulty = cfg;
        faulty.media = MediaConfig::enabled(0);
        assert!(!sys.media().is_attached(), "{name}");
        assert!(build_system(name, &faulty).media().is_attached(), "{name}");

        // A valve attached through the system sees the engine's events.
        let mut sys = build_system(name, &cfg);
        let valve = CrashValve::armed(u64::MAX);
        sys.attach_crash_valve(valve.clone());
        commit_one(&mut sys);
        assert!(valve.total() > 0, "{name}: valve saw no events");
        assert!(!valve.tripped(), "{name}");
    }
}
