//! A timing decorator for persistence engines.
//!
//! [`Timed`] wraps any [`PersistenceEngine`] and is handed to
//! `System::new` in its place. Every callback the simulated machine makes
//! into the engine passes through it, so the host time of the engine layer
//! is measured at its public boundary without changing a line of the
//! simulator. Every trait method is forwarded, including the ones with a
//! default body: a decorator that fell back to a default `media()` would
//! silently detach the fault model, and one that dropped
//! `attach_sanitizer` would hide engine events from the sanitizer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use engines::traits::{
    CommitOutcome, EngineProperties, EngineStats, MissFill, PersistenceEngine, RecoveryReport,
};
use nvm::media::MediaModel;
use nvm::{NvmDevice, PersistentStore};
use simcore::addr::Line;
use simcore::crashpoint::CrashValve;
use simcore::sanitize::SanitizerHandle;
use simcore::{CoreId, Cycle, PAddr, TxId};
use workloads::driver::ENGINES;

/// The timed engine callbacks, in reporting order.
pub const METHODS: [&str; 9] = [
    "tx_begin",
    "on_store",
    "on_load",
    "on_llc_miss",
    "on_evict_dirty",
    "tx_end",
    "tick",
    "drain",
    "recover",
];

const TX_BEGIN: usize = 0;
const ON_STORE: usize = 1;
const ON_LOAD: usize = 2;
const ON_LLC_MISS: usize = 3;
const ON_EVICT_DIRTY: usize = 4;
const TX_END: usize = 5;
const TICK: usize = 6;
const DRAIN: usize = 7;
const RECOVER: usize = 8;

/// Host nanoseconds and call counts per (engine, callback).
///
/// Shared between the decorators of one measurement and the benchmark that
/// reads them. The simulator drives each engine from one thread, so the
/// counters need no read-modify-write atomics: a relaxed load and store
/// suffices, and the counters publish no other data.
///
/// The clock counts only while it is open ([`EngineClock::count`]); the
/// decorator forwards callbacks made at any other time untimed. The
/// benchmark opens it around its timed windows, so that system build,
/// `Driver::setup`, warm-up and checks stay out of the engine split.
///
/// Each timed interval also holds part of the cost of reading the clock.
/// The clock measures that bias once ([`clock_read_bias_ns`]) and takes it
/// off every call when read, so that short callbacks called millions of
/// times are not dominated by the timer.
#[derive(Debug, Default)]
pub struct EngineClock {
    ns: [[AtomicU64; METHODS.len()]; ENGINES.len()],
    calls: [[AtomicU64; METHODS.len()]; ENGINES.len()],
    open: AtomicBool,
    bias_ns: f64,
}

/// The interval an empty timed region reports: the median of many pairs of
/// back-to-back clock reads, in nanoseconds.
pub fn clock_read_bias_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

impl EngineClock {
    /// A fresh, shareable clock that takes `bias_ns` off each call.
    pub fn shared(bias_ns: f64) -> Arc<EngineClock> {
        Arc::new(EngineClock {
            bias_ns,
            ..EngineClock::default()
        })
    }

    /// Runs `f` with the clock counting callbacks, and closes it again
    /// afterwards, also when `f` panics.
    pub fn count<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Close<'a>(&'a AtomicBool);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Relaxed);
            }
        }
        self.open.store(true, Ordering::Relaxed);
        let _close = Close(&self.open);
        f()
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    fn add(&self, engine: usize, method: usize, ns: u64) {
        let bump =
            |c: &AtomicU64, n: u64| c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        bump(&self.ns[engine][method], ns);
        bump(&self.calls[engine][method], 1);
    }

    /// Seconds spent in `method` by `engine` (an entry of `ENGINES`), less
    /// the clock-read bias of each call.
    pub fn seconds(&self, engine: usize, method: usize) -> f64 {
        let raw = self.ns[engine][method].load(Ordering::Relaxed) as f64;
        let bias = self.calls(engine, method) as f64 * self.bias_ns;
        (raw - bias).max(0.0) * 1e-9
    }

    /// Calls of `method` on `engine`.
    pub fn calls(&self, engine: usize, method: usize) -> u64 {
        self.calls[engine][method].load(Ordering::Relaxed)
    }

    /// Seconds in `method`, summed over engines.
    pub fn method_seconds(&self, method: usize) -> f64 {
        (0..ENGINES.len()).map(|e| self.seconds(e, method)).sum()
    }

    /// Calls of `method`, summed over engines.
    pub fn method_calls(&self, method: usize) -> u64 {
        (0..ENGINES.len()).map(|e| self.calls(e, method)).sum()
    }

    /// Seconds in every callback of `engine`.
    pub fn engine_seconds(&self, engine: usize) -> f64 {
        (0..METHODS.len()).map(|m| self.seconds(engine, m)).sum()
    }

    /// Seconds in every callback of every engine.
    pub fn total_seconds(&self) -> f64 {
        (0..ENGINES.len()).map(|e| self.engine_seconds(e)).sum()
    }

    /// Seconds the engines spent in `recover`.
    pub fn recover_seconds(&self) -> f64 {
        self.method_seconds(RECOVER)
    }
}

/// Index of `name` in [`ENGINES`].
///
/// # Panics
///
/// Panics on a name outside the seven reproduced engines.
pub fn engine_index(name: &str) -> usize {
    ENGINES
        .iter()
        .position(|e| *e == name)
        .unwrap_or_else(|| panic!("{name} is not one of the benchmarked engines"))
}

/// A [`PersistenceEngine`] that times every callback of the engine it wraps
/// while its clock is open.
pub struct Timed {
    inner: Box<dyn PersistenceEngine>,
    clock: Arc<EngineClock>,
    slot: usize,
}

impl Timed {
    /// Wraps `inner`, charging its callbacks to `clock`.
    pub fn new(inner: Box<dyn PersistenceEngine>, clock: Arc<EngineClock>) -> Self {
        let slot = engine_index(inner.name());
        Timed { inner, clock, slot }
    }

    #[inline]
    fn time<R>(&mut self, method: usize, f: impl FnOnce(&mut dyn PersistenceEngine) -> R) -> R {
        if !self.clock.is_open() {
            return f(self.inner.as_mut());
        }
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.clock
            .add(self.slot, method, t0.elapsed().as_nanos() as u64);
        out
    }
}

impl PersistenceEngine for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn properties(&self) -> EngineProperties {
        self.inner.properties()
    }

    fn init_home(&mut self, addr: PAddr, data: &[u8]) {
        self.inner.init_home(addr, data);
    }

    fn tx_begin(&mut self, core: CoreId, now: Cycle) -> TxId {
        self.time(TX_BEGIN, |e| e.tx_begin(core, now))
    }

    fn on_store(&mut self, core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        self.time(ON_STORE, |e| e.on_store(core, tx, addr, data, now))
    }

    fn on_load(&mut self, core: CoreId, addr: PAddr, len: u64, now: Cycle) -> Cycle {
        self.time(ON_LOAD, |e| e.on_load(core, addr, len, now))
    }

    fn on_llc_miss(&mut self, core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.time(ON_LLC_MISS, |e| e.on_llc_miss(core, line, now))
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        self.time(ON_EVICT_DIRTY, |e| {
            e.on_evict_dirty(line, persistent, line_data, now)
        })
    }

    fn tx_end(&mut self, core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        self.time(TX_END, |e| e.tx_end(core, tx, now))
    }

    fn tick(&mut self, now: Cycle) -> Cycle {
        self.time(TICK, |e| e.tick(now))
    }

    fn drain(&mut self, now: Cycle) {
        self.time(DRAIN, |e| e.drain(now))
    }

    fn crash(&mut self) {
        self.inner.crash();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        self.time(RECOVER, |e| e.recover(threads))
    }

    fn durable(&self) -> &PersistentStore {
        self.inner.durable()
    }

    fn device(&self) -> &NvmDevice {
        self.inner.device()
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        self.inner.extra_metrics()
    }

    fn enable_endurance_tracking(&mut self) {
        self.inner.enable_endurance_tracking();
    }

    fn media(&self) -> MediaModel {
        self.inner.media()
    }

    fn attach_sanitizer(&mut self, handle: SanitizerHandle) {
        self.inner.attach_sanitizer(handle);
    }

    fn attach_crash_valve(&mut self, valve: CrashValve) {
        self.inner.attach_crash_valve(valve);
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}

/// Builds the named engine (one of [`ENGINES`]) for `cfg`, bare. This is
/// the registry of `workloads::driver::build_system`, returning the engine
/// itself so that it can be wrapped before the system is built.
///
/// # Panics
///
/// Panics on an unknown engine name.
pub fn bare_engine(name: &str, cfg: &simcore::SimConfig) -> Box<dyn PersistenceEngine> {
    match name {
        "Ideal" => Box::new(engines::native::NativeEngine::new(cfg)),
        "Opt-Redo" => Box::new(engines::redo::OptRedoEngine::new(cfg)),
        "Opt-Undo" => Box::new(engines::undo::OptUndoEngine::new(cfg)),
        "OSP" => Box::new(engines::osp::OspEngine::new(cfg)),
        "LSM" => Box::new(engines::lsm::LsmEngine::new(cfg)),
        "LAD" => Box::new(engines::lad::LadEngine::new(cfg)),
        "HOOP" => Box::new(hoop::engine::HoopEngine::new(cfg)),
        other => panic!("unknown engine {other}"),
    }
}

/// Builds the named engine, wrapped in [`Timed`] when a clock is given.
pub fn engine(
    name: &str,
    cfg: &simcore::SimConfig,
    clock: Option<&Arc<EngineClock>>,
) -> Box<dyn PersistenceEngine> {
    let bare = bare_engine(name, cfg);
    match clock {
        Some(c) => Box::new(Timed::new(bare, Arc::clone(c))),
        None => bare,
    }
}

/// Index of a callback in [`METHODS`].
///
/// # Panics
///
/// Panics on a name outside [`METHODS`].
pub fn method_index(name: &str) -> usize {
    METHODS
        .iter()
        .position(|m| *m == name)
        .unwrap_or_else(|| panic!("{name} is not a timed callback"))
}
