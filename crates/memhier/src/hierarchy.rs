//! The three-level inclusive hierarchy.
//!
//! Private L1/L2 per core, shared LLC. Inclusion is maintained: an LLC
//! eviction back-invalidates every private copy and merges their dirty /
//! persistent bits into the reported eviction, which is the event stream the
//! persistence engines consume. An exact sharer directory beside the LLC
//! records which cores' L2s hold each line, so cross-core operations visit
//! only those cores.

use simcore::addr::Line;
use simcore::config::SimConfig;
use simcore::stats::Counter;
use simcore::{CoreId, Cycle};

use crate::cache::{Cache, Evicted};

/// Result of one hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Latency of the cache portion of the access (the engine adds memory
    /// latency when `llc_miss`).
    pub latency: Cycle,
    /// Whether the access missed all cache levels.
    pub llc_miss: bool,
    /// A dirty line pushed out of the LLC by this access's fill, if any.
    pub evicted: Option<Evicted>,
}

/// Result of flushing one line out of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushResult {
    /// The line was present and dirty somewhere (so it carries data that
    /// must be written down).
    pub was_dirty: bool,
    /// The dirty copy carried the persistent bit.
    pub was_persistent: bool,
}

/// Hit/miss statistics for the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Total accesses.
    pub accesses: Counter,
    /// L1 hits.
    pub l1_hits: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// LLC hits.
    pub llc_hits: Counter,
    /// Misses in all levels.
    pub llc_misses: Counter,
    /// Dirty lines evicted from the LLC.
    pub dirty_evictions: Counter,
}

impl HierStats {
    /// Fraction of accesses that miss the whole hierarchy.
    pub fn llc_miss_ratio(&self) -> f64 {
        let a = self.accesses.get();
        if a == 0 {
            0.0
        } else {
            self.llc_misses.get() as f64 / a as f64
        }
    }
}

/// Exact LLC sharer directory: one bit per core for every LLC slot, stored
/// as `words` 64-bit words per slot. Bit `c` of a slot is set exactly when
/// the line in that slot is resident in core `c`'s L2 — and so exactly when
/// it may be in that core's L1, since L1 ⊆ L2. An invalid slot has no bits.
#[derive(Clone, Debug)]
struct Directory {
    bits: Vec<u64>,
    words: usize,
}

impl Directory {
    fn new(slots: usize, cores: usize) -> Self {
        let words = cores.div_ceil(64);
        Directory {
            bits: vec![0; slots * words],
            words,
        }
    }

    #[inline]
    fn row(&self, slot: usize) -> &[u64] {
        &self.bits[slot * self.words..(slot + 1) * self.words]
    }

    #[inline]
    fn set(&mut self, slot: usize, core: usize) {
        self.bits[slot * self.words + core / 64] |= 1 << (core % 64);
    }

    #[inline]
    fn unset(&mut self, slot: usize, core: usize) {
        self.bits[slot * self.words + core / 64] &= !(1 << (core % 64));
    }

    #[inline]
    fn reset(&mut self, slot: usize) {
        self.bits[slot * self.words..(slot + 1) * self.words].fill(0);
    }

    fn reset_all(&mut self) {
        self.bits.fill(0);
    }
}

/// The cores whose bits are set in a directory row, ascending.
#[inline]
fn sharers(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// The modeled cache hierarchy.
///
/// Cross-core operations (write steals, back-invalidation, clean, flush,
/// drain) consult the sharer directory and visit only the cores that
/// hold the line, instead of probing every private cache.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    dir: Directory,
    l1_latency: Cycle,
    l2_latency: Cycle,
    llc_latency: Cycle,
    stats: HierStats,
}

impl Hierarchy {
    /// Builds the hierarchy described by `cfg` (one L1/L2 pair per core).
    pub fn new(cfg: &SimConfig) -> Self {
        let cores = cfg.cores as usize;
        let llc_slots = (cfg.llc.sets() * cfg.llc.ways as u64) as usize;
        Hierarchy {
            l1: (0..cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(&cfg.l2)).collect(),
            llc: Cache::new(&cfg.llc),
            dir: Directory::new(llc_slots, cores),
            l1_latency: cfg.l1.latency_cycles,
            l2_latency: cfg.l2.latency_cycles,
            llc_latency: cfg.llc.latency_cycles,
            stats: HierStats::default(),
        }
    }

    /// Accesses `line` from `core`. `write` marks the line dirty; when the
    /// access happens inside a failure-atomic region, `persistent` sets the
    /// per-line persistent bit (§III-G).
    ///
    /// On an LLC miss the line is filled into all levels; the returned
    /// latency covers the cache levels only — the caller adds the memory
    /// read latency supplied by its persistence engine.
    pub fn access(
        &mut self,
        core: CoreId,
        line: Line,
        write: bool,
        persistent: bool,
    ) -> AccessResult {
        let c = core.index();
        self.stats.accesses.inc();
        let mut latency = self.l1_latency;

        if self.l1[c].touch(line, write, persistent) {
            self.stats.l1_hits.inc();
            return AccessResult {
                latency,
                llc_miss: false,
                evicted: None,
            };
        }

        latency += self.l2_latency;
        if self.l2[c].touch(line, write, persistent) {
            self.stats.l2_hits.inc();
            self.fill_l1(c, line, write, persistent);
            return AccessResult {
                latency,
                llc_miss: false,
                evicted: None,
            };
        }

        latency += self.llc_latency;
        if let Some(slot) = self.llc.touch_slot(line, write, persistent) {
            self.stats.llc_hits.inc();
            // On a write, steal the line from any other core that has it.
            if write {
                self.steal(c, line, slot);
            }
            self.fill_l2(c, line, slot);
            self.fill_l1(c, line, write, persistent);
            return AccessResult {
                latency,
                llc_miss: false,
                evicted: None,
            };
        }

        // Full miss: fill all levels, possibly evicting from the LLC. By
        // inclusion a line absent from the LLC is in no private cache, so a
        // write has nothing to steal.
        self.stats.llc_misses.inc();
        debug_assert!(
            self.l2.iter().all(|l2| !l2.contains(line)),
            "inclusion: a private copy of a line absent from the LLC"
        );
        let (slot, evicted) = self.fill_llc(line, write, write && persistent);
        self.fill_l2(c, line, slot);
        self.fill_l1(c, line, write, persistent);
        if evicted.is_some() {
            self.stats.dirty_evictions.inc();
        }
        AccessResult {
            latency,
            llc_miss: true,
            evicted,
        }
    }

    /// Inserts into the LLC, handling inclusion: the victim is purged from
    /// its sharers' private caches and their dirty/persistent state is
    /// merged. Returns the slot `line` now occupies, and the victim only if
    /// its merged state is dirty.
    fn fill_llc(&mut self, line: Line, dirty: bool, persistent: bool) -> (usize, Option<Evicted>) {
        let (slot, victim) = self.llc.insert_slot(line, dirty, persistent);
        let Some(mut merged) = victim else {
            debug_assert!(self.dir.row(slot).iter().all(|&w| w == 0));
            return (slot, None);
        };
        // The victim just left `slot`; its sharer bits are still there.
        for c in sharers(self.dir.row(slot)) {
            for (d, p) in [
                self.l1[c].remove(merged.line),
                self.l2[c].remove(merged.line),
            ]
            .into_iter()
            .flatten()
            {
                merged.dirty |= d;
                merged.persistent |= p;
            }
        }
        self.dir.reset(slot);
        (slot, merged.dirty.then_some(merged))
    }

    /// Inserts into a core's L2 and records the core as a sharer of LLC
    /// slot `slot` (which holds `line`); a dirty L2 victim is written back
    /// into the LLC (which must contain it, by inclusion).
    fn fill_l2(&mut self, core: usize, line: Line, slot: usize) {
        // Callers only reach here after `line` missed this L2, so there is
        // no residency check to repeat.
        if let Some(v) = self.l2[core].insert(line, false, false) {
            // Inclusion: purge from L1 too; merge its state.
            let mut dirty = v.dirty;
            let mut persistent = v.persistent;
            if let Some((d, p)) = self.l1[core].remove(v.line) {
                dirty |= d;
                persistent |= p;
            }
            let vslot = self
                .llc
                .lookup(v.line)
                .expect("inclusion: an L2 line is in the LLC");
            self.dir.unset(vslot, core);
            if dirty {
                self.llc.mark_dirty(v.line, persistent);
            }
        }
        self.dir.set(slot, core);
    }

    /// Inserts into a core's L1; a dirty L1 victim is written back into L2.
    fn fill_l1(&mut self, core: usize, line: Line, write: bool, persistent: bool) {
        // Callers only reach here after `line` missed this L1, so there is
        // no residency check to repeat.
        if let Some(v) = self.l1[core].insert(line, write, write && persistent) {
            if v.dirty {
                self.l2[core].mark_dirty(v.line, v.persistent);
            }
        }
    }

    /// Removes `line` (in LLC slot `slot`) from every sharer but `owner`,
    /// merging their dirty copies into the LLC.
    fn steal(&mut self, owner: usize, line: Line, slot: usize) {
        let mut dirty = false;
        let mut persistent = false;
        for c in sharers(self.dir.row(slot)) {
            // The owner missed its L2 to get here, so it is no sharer.
            debug_assert_ne!(c, owner, "directory lists a core whose L2 missed");
            for (d, p) in [self.l1[c].remove(line), self.l2[c].remove(line)]
                .into_iter()
                .flatten()
            {
                dirty |= d;
                persistent |= d && p;
            }
        }
        self.dir.reset(slot);
        if dirty {
            self.llc.mark_dirty(line, persistent);
        }
    }

    /// Marks a line resident in `core`'s L1 as dirty (and optionally
    /// persistent) without a full access. HOOP uses this when an LLC miss is
    /// served from the OOP region: the filled line differs from its home
    /// copy, so it must not be silently dropped on a clean eviction.
    pub fn mark_dirty(&mut self, core: CoreId, line: Line, persistent: bool) {
        let c = core.index();
        if self.l1[c].contains(line) {
            self.l1[c].mark_dirty(line, persistent);
        } else if self.l2[c].contains(line) {
            self.l2[c].mark_dirty(line, persistent);
        } else {
            self.llc.mark_dirty(line, persistent);
        }
    }

    /// Marks `line` clean in every level (its data just became durable).
    /// Returns `true` if any copy was dirty.
    pub fn clean_line(&mut self, line: Line) -> bool {
        let Some(slot) = self.llc.lookup(line) else {
            return false;
        };
        let mut was = false;
        for c in sharers(self.dir.row(slot)) {
            was |= self.l1[c].clean(line);
            was |= self.l2[c].clean(line);
        }
        was | self.llc.clean(line)
    }

    /// Flushes `line` out of the entire hierarchy (clflush semantics),
    /// reporting whether a dirty / persistent copy existed.
    pub fn flush_line(&mut self, line: Line) -> FlushResult {
        let mut dirty = false;
        let mut persistent = false;
        if let Some(slot) = self.llc.lookup(line) {
            for c in sharers(self.dir.row(slot)) {
                for (d, p) in [self.l1[c].remove(line), self.l2[c].remove(line)]
                    .into_iter()
                    .flatten()
                {
                    dirty |= d;
                    persistent |= p;
                }
            }
            self.dir.reset(slot);
            if let Some((d, p)) = self.llc.remove(line) {
                dirty |= d;
                persistent |= p;
            }
        }
        FlushResult {
            was_dirty: dirty,
            was_persistent: persistent,
        }
    }

    /// Returns `true` if `line` is resident anywhere in the hierarchy (by
    /// inclusion, exactly when it is in the LLC).
    pub fn contains(&self, line: Line) -> bool {
        self.llc.contains(line)
    }

    /// The sharer directory's view of every LLC-resident line: the line
    /// and the cores whose L2 (and possibly L1) holds it, in LLC slot
    /// order. A consistency-checking aid; the access paths never call it.
    pub fn directory(&self) -> Vec<(Line, Vec<CoreId>)> {
        self.llc
            .valid_slots()
            .map(|(slot, e)| {
                let cores = sharers(self.dir.row(slot))
                    .map(|c| CoreId(c as u8))
                    .collect();
                (e.line, cores)
            })
            .collect()
    }

    /// Removes and returns every dirty line in the hierarchy (merging
    /// private and shared state), cleaning them in place. Used at the end of
    /// a measured run so write-traffic totals are comparable across engines
    /// regardless of what happened to still be cached. The result is sorted
    /// by line.
    pub fn drain_dirty(&mut self) -> Vec<Evicted> {
        // By inclusion every valid copy is an LLC line or a private copy at
        // one of its sharers, so walking the LLC and merging each line's
        // sharers sees every copy exactly once.
        let mut out: Vec<Evicted> = Vec::new();
        for (slot, mut e) in self.llc.valid_slots() {
            for c in sharers(self.dir.row(slot)) {
                for (d, p) in [self.l1[c].remove(e.line), self.l2[c].remove(e.line)]
                    .into_iter()
                    .flatten()
                {
                    e.dirty |= d;
                    e.persistent |= p;
                }
            }
            if e.dirty {
                out.push(e);
            }
        }
        out.sort_unstable_by_key(|e| e.line.0);
        self.clear();
        out
    }

    /// Invalidates everything (simulated power loss).
    pub fn clear(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.llc.clear();
        self.dir.reset_all();
    }

    /// Access statistics.
    pub fn stats(&self) -> &HierStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HierStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn miss_then_hit() {
        let mut h = small();
        let a = h.access(CoreId(0), Line(100), false, false);
        assert!(a.llc_miss);
        let b = h.access(CoreId(0), Line(100), false, false);
        assert!(!b.llc_miss);
        assert_eq!(b.latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = small();
        // 4 KB 4-way L1 => 16 sets. Touch 5 lines in the same L1 set.
        for i in 0..5 {
            h.access(CoreId(0), Line(16 * i), false, false);
        }
        // Line 0 fell out of L1 but not out of L2.
        let r = h.access(CoreId(0), Line(0), false, false);
        assert!(!r.llc_miss);
        assert_eq!(r.latency, 4 + 12);
    }

    #[test]
    fn dirty_llc_eviction_reported_with_persistent_bit() {
        let mut h = small();
        // 64 KB 16-way LLC => 64 sets. Fill one LLC set with dirty
        // persistent lines, then overflow it.
        for i in 0..16 {
            h.access(CoreId(0), Line(64 * i), true, true);
        }
        let r = h.access(CoreId(0), Line(64 * 16), true, true);
        let ev = r.evicted.expect("overflow must evict dirty line");
        assert!(ev.dirty);
        assert!(ev.persistent);
        assert_eq!(ev.line.0 % 64, 0);
    }

    #[test]
    fn clean_line_prevents_eviction_writeback() {
        let mut h = small();
        for i in 0..16 {
            h.access(CoreId(0), Line(64 * i), true, false);
            h.clean_line(Line(64 * i));
        }
        let r = h.access(CoreId(0), Line(64 * 16), false, false);
        assert!(r.evicted.is_none(), "cleaned lines need no writeback");
    }

    #[test]
    fn flush_reports_dirty_state_and_invalidates() {
        let mut h = small();
        h.access(CoreId(0), Line(9), true, true);
        let f = h.flush_line(Line(9));
        assert!(f.was_dirty && f.was_persistent);
        assert!(!h.contains(Line(9)));
        let again = h.flush_line(Line(9));
        assert!(!again.was_dirty);
    }

    #[test]
    fn write_steals_line_from_other_core() {
        let mut h = small();
        h.access(CoreId(0), Line(5), true, false);
        // Core 1 writes the same line: core 0's private copies must go, and
        // the line must stay coherent (dirty merged into LLC).
        h.access(CoreId(1), Line(5), true, false);
        let r = h.access(CoreId(1), Line(5), false, false);
        assert_eq!(r.latency, 4, "core 1 now owns the line in L1");
    }

    #[test]
    fn inclusion_back_invalidates_private_copies() {
        let mut h = small();
        // Fill an LLC set from core 0 while keeping the lines hot in L1.
        for i in 0..17 {
            h.access(CoreId(0), Line(64 * i), false, false);
        }
        // At least one of the first lines was back-invalidated; accessing it
        // again must be an LLC miss, not a private-cache hit.
        let victims: Vec<u64> = (0..17)
            .filter(|&i| !h.contains(Line(64 * i)))
            .map(|i| 64 * i)
            .collect();
        assert!(!victims.is_empty());
        let r = h.access(CoreId(0), Line(victims[0]), false, false);
        assert!(r.llc_miss);
    }

    #[test]
    fn stats_track_miss_ratio() {
        let mut h = small();
        h.access(CoreId(0), Line(1), false, false);
        h.access(CoreId(0), Line(1), false, false);
        assert_eq!(h.stats().accesses.get(), 2);
        assert_eq!(h.stats().llc_misses.get(), 1);
        assert!((h.stats().llc_miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn directory_tracks_sharers_across_words() {
        // 130 cores need three directory words per LLC slot.
        let mut cfg = SimConfig::small_for_tests();
        cfg.cores = 130;
        let mut h = Hierarchy::new(&cfg);
        for c in [0, 64, 129] {
            h.access(CoreId(c), Line(5), false, false);
        }
        let cores = |h: &Hierarchy| h.directory()[0].1.clone();
        assert_eq!(cores(&h), [CoreId(0), CoreId(64), CoreId(129)]);
        // A write from core 65 steals the line from all three.
        h.access(CoreId(65), Line(5), true, true);
        assert_eq!(cores(&h), [CoreId(65)]);
        assert!(h.clean_line(Line(5)));
        assert!(!h.flush_line(Line(5)).was_dirty);
        assert!(h.directory().is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut h = small();
        h.access(CoreId(0), Line(1), true, true);
        h.clear();
        assert!(!h.contains(Line(1)));
    }
}
