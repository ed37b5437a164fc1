//! The "Ideal" baseline: a native system without persistence support.
//!
//! Data reaches NVM only through ordinary dirty write-backs; nothing is
//! logged, ordered, or flushed. It provides no crash guarantee — the paper
//! uses it as the upper bound for throughput/latency (Fig. 7) and the lower
//! bound for write traffic (Fig. 8).

use nvm::{Op, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::crashpoint::PersistEvent;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::ControllerBase;
use crate::traits::{
    CommitOutcome, EngineProperties, Level, MissFill, PersistenceEngine, RecoveryReport,
};

/// The no-persistence baseline engine.
#[derive(Debug)]
pub struct NativeEngine {
    base: ControllerBase,
}

impl NativeEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        NativeEngine {
            base: ControllerBase::new(cfg),
        }
    }
}

impl PersistenceEngine for NativeEngine {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::Low,
            on_critical_path: false,
            requires_flush_fence: false,
            write_traffic: Level::Low,
        }
    }

    fn tx_begin(&mut self, _core: CoreId, _now: Cycle) -> TxId {
        self.base.alloc_tx()
    }

    fn on_store(
        &mut self,
        _core: CoreId,
        _tx: TxId,
        _addr: PAddr,
        _data: &[u8],
        _now: Cycle,
    ) -> Cycle {
        0
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.base.serve_miss_from_home(line, now)
    }

    fn on_evict_dirty(&mut self, line: Line, _persistent: bool, line_data: &[u8], now: Cycle) {
        // No sanitizer event: Ideal makes no durability claim to audit.
        self.base.device.access(
            now,
            line.base(),
            CACHE_LINE_BYTES,
            Op::Write,
            TrafficClass::Data,
        );
        self.base.crash.event(PersistEvent::Home, None);
        self.base.store.write_bytes(line.base(), line_data);
    }

    fn tx_end(&mut self, _core: CoreId, _tx: TxId, _now: Cycle) -> CommitOutcome {
        self.base.stats.committed_txs.inc();
        CommitOutcome::default()
    }

    fn tick(&mut self, _now: Cycle) -> Cycle {
        // No patrol scrub (`media_tick`): the native system has no
        // controller-side media maintenance.
        0
    }

    fn drain(&mut self, _now: Cycle) {}

    fn crash(&mut self) {
        // Nothing volatile to drop in the controller; whatever write-backs
        // happened are all the durability this engine ever offers.
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        RecoveryReport {
            threads,
            ..RecoveryReport::default()
        }
    }

    crate::controller_accessors!(base);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evictions_write_home() {
        let cfg = SimConfig::small_for_tests();
        let mut e = NativeEngine::new(&cfg);
        let data = [7u8; 64];
        e.on_evict_dirty(Line(2), false, &data, 0);
        assert_eq!(e.durable().read_u8(PAddr(128)), 7);
        assert_eq!(e.device().traffic().total_written(), 64);
    }

    #[test]
    fn misses_read_from_device() {
        let cfg = SimConfig::small_for_tests();
        let mut e = NativeEngine::new(&cfg);
        let fill = e.on_llc_miss(CoreId(0), Line(1), 0);
        assert!(fill.latency >= 125);
        assert!(!fill.fill_dirty);
        assert_eq!(e.stats().loads_per_miss(), 1.0);
    }

    #[test]
    fn tx_ids_are_unique() {
        let cfg = SimConfig::small_for_tests();
        let mut e = NativeEngine::new(&cfg);
        let a = e.tx_begin(CoreId(0), 0);
        let b = e.tx_begin(CoreId(1), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn uncorrectable_miss_pays_the_retry_ladder() {
        use crate::common::MEDIA_RETRY_CYCLES;
        use simcore::config::MediaConfig;
        // A harsh schedule makes every written line read back
        // uncorrectable; the demand miss must charge the full ladder, like
        // every other engine's home-region miss.
        let miss_after_evict = |cfg: &SimConfig| {
            let mut e = NativeEngine::new(cfg);
            e.on_evict_dirty(Line(3), false, &[1u8; 64], 0);
            e.on_llc_miss(CoreId(0), Line(3), 10_000).latency
        };
        let clean = miss_after_evict(&SimConfig::small_for_tests());
        let mut cfg = SimConfig::small_for_tests();
        cfg.media = MediaConfig {
            max_retries: 3,
            ..MediaConfig::harsh(7)
        };
        assert_eq!(miss_after_evict(&cfg), clean + 3 * MEDIA_RETRY_CYCLES);
    }
}
