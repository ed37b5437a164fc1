//! A single set-associative cache level with true-LRU replacement.

use simcore::addr::Line;
use simcore::config::CacheConfig;

/// State of a line pushed out of a cache by an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: Line,
    /// Whether the copy was dirty.
    pub dirty: bool,
    /// Whether the copy carried the transactional persistent bit.
    pub persistent: bool,
}

/// Tag value of an invalid slot. Line numbers are physical addresses divided
/// by the line size, so `u64::MAX` can never collide with a real line.
const INVALID: u64 = u64::MAX;

const DIRTY: u64 = 1;
const PERSISTENT: u64 = 2;
const STAMP_SHIFT: u32 = 2;

/// Memo way value recording "this line is known absent from its set".
const WAY_MISS: u32 = u32::MAX;

/// One way of one set: the line tag plus its LRU stamp and dirty/persistent
/// bits packed into a single word. Sixteen bytes per slot keeps a whole
/// 4-way set in one cache line (8-way in two), and a hit updates the same
/// line the tag scan just read — the layout the hot L1-hit path wants.
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u64,
    /// `stamp << 2 | persistent << 1 | dirty`.
    meta: u64,
}

impl Slot {
    /// The slot's line and state.
    fn evicted(&self) -> Evicted {
        Evicted {
            line: Line(self.tag),
            dirty: self.meta & DIRTY != 0,
            persistent: self.meta & PERSISTENT != 0,
        }
    }
}

/// One set-associative cache level.
///
/// Tags are full line numbers; replacement is true LRU via access stamps.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: u64,
    ways: usize,
    slots: Vec<Slot>,
    tick: u64,
    /// Per-set one-entry lookup memo: the last line whose way was resolved
    /// in this set, as `(line, way)` — `way == WAY_MISS` records a known
    /// absence, `line == INVALID` an empty memo. The hierarchy probes the
    /// same line several times per access (touch, then insert or
    /// mark-dirty), and the memo answers the repeats without rescanning the
    /// ways. Pure lookup state: it never influences replacement, so hits,
    /// evictions and simulated traffic are bit-identical with it disabled.
    memo: Vec<(u64, u32)>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two, nonzero set
    /// count.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache too small for its associativity");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            ways: cfg.ways as usize,
            slots: vec![
                Slot {
                    tag: INVALID,
                    meta: 0
                };
                (sets as usize) * cfg.ways as usize
            ],
            tick: 0,
            memo: vec![(INVALID, WAY_MISS); sets as usize],
        }
    }

    /// Index of `line`'s set.
    #[inline]
    fn set_index(&self, line: Line) -> usize {
        (line.0 & (self.sets - 1)) as usize
    }

    /// First slot index of `line`'s set.
    #[inline]
    fn set_base(&self, line: Line) -> usize {
        self.set_index(line) * self.ways
    }

    /// Scans `line`'s set, early-exiting on the first tag match (the
    /// memo-blind ground truth).
    #[inline]
    fn scan(&self, line: Line) -> Option<usize> {
        let base = self.set_base(line);
        self.slots[base..base + self.ways]
            .iter()
            .position(|s| s.tag == line.0)
            .map(|w| base + w)
    }

    /// Looks up `line`, answering from the set's memo when it covers this
    /// line (skipping the way scan entirely) and scanning otherwise.
    #[inline]
    fn find(&self, line: Line) -> Option<usize> {
        let si = self.set_index(line);
        let (mline, way) = self.memo[si];
        if mline == line.0 {
            let hit = (way != WAY_MISS).then(|| si * self.ways + way as usize);
            debug_assert_eq!(hit, self.scan(line), "stale cache memo");
            return hit;
        }
        self.scan(line)
    }

    /// Like [`find`](Cache::find), refreshing the set's memo on a scan so
    /// the next probe of the same line skips it.
    #[inline]
    fn find_update(&mut self, line: Line) -> Option<usize> {
        let si = self.set_index(line);
        let (mline, way) = self.memo[si];
        if mline == line.0 {
            let hit = (way != WAY_MISS).then(|| si * self.ways + way as usize);
            debug_assert_eq!(hit, self.scan(line), "stale cache memo");
            return hit;
        }
        let hit = self.scan(line);
        self.memo[si] = (
            line.0,
            hit.map_or(WAY_MISS, |i| (i - si * self.ways) as u32),
        );
        hit
    }

    /// Returns `true` if `line` is present (does not touch LRU state).
    #[inline]
    pub fn contains(&self, line: Line) -> bool {
        self.find(line).is_some()
    }

    /// Looks up `line` without touching LRU state, returning its slot
    /// index (unique across the whole cache) if present. Refreshes the
    /// set's memo, so a following operation on the same line skips the
    /// way scan.
    #[inline]
    pub fn lookup(&mut self, line: Line) -> Option<usize> {
        self.find_update(line)
    }

    /// Looks up `line`; on a hit, refreshes LRU and optionally marks the
    /// line dirty/persistent. Returns whether it hit.
    #[inline]
    pub fn touch(&mut self, line: Line, write: bool, persistent: bool) -> bool {
        self.touch_slot(line, write, persistent).is_some()
    }

    /// [`touch`](Cache::touch) that returns the hit's slot index.
    #[inline]
    pub fn touch_slot(&mut self, line: Line, write: bool, persistent: bool) -> Option<usize> {
        self.tick += 1;
        let i = self.find_update(line)?;
        let s = &mut self.slots[i];
        let flags = (s.meta & (DIRTY | PERSISTENT))
            | if write {
                DIRTY | if persistent { PERSISTENT } else { 0 }
            } else {
                0
            };
        s.meta = (self.tick << STAMP_SHIFT) | flags;
        Some(i)
    }

    /// Inserts `line` (which must not be present), returning the evicted
    /// victim if the set was full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present.
    pub fn insert(&mut self, line: Line, dirty: bool, persistent: bool) -> Option<Evicted> {
        self.insert_slot(line, dirty, persistent).1
    }

    /// [`insert`](Cache::insert) that also returns the slot index `line`
    /// now occupies — the slot the returned victim, if any, just left.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present.
    pub fn insert_slot(
        &mut self,
        line: Line,
        dirty: bool,
        persistent: bool,
    ) -> (usize, Option<Evicted>) {
        debug_assert!(!self.contains(line), "insert of present line");
        self.tick += 1;
        let base = self.set_base(line);
        // Prefer an invalid slot; otherwise evict the LRU victim.
        let mut victim = base;
        let mut best = u64::MAX;
        for (w, s) in self.slots[base..base + self.ways].iter().enumerate() {
            if s.tag == INVALID {
                victim = base + w;
                break;
            }
            if (s.meta >> STAMP_SHIFT) < best {
                best = s.meta >> STAMP_SHIFT;
                victim = base + w;
            }
        }
        let old = self.slots[victim];
        self.slots[victim] = Slot {
            tag: line.0,
            meta: (self.tick << STAMP_SHIFT)
                | if dirty { DIRTY } else { 0 }
                | if persistent { PERSISTENT } else { 0 },
        };
        // The memo entry of this set is superseded either way (the evicted
        // victim may be the memoized line): point it at the fresh insertion.
        let si = self.set_index(line);
        self.memo[si] = (line.0, (victim - base) as u32);
        (victim, (old.tag != INVALID).then(|| old.evicted()))
    }

    /// Removes `line` if present, returning its (dirty, persistent) state.
    #[inline]
    pub fn remove(&mut self, line: Line) -> Option<(bool, bool)> {
        let removed = self.find_update(line).map(|i| {
            let s = &mut self.slots[i];
            let meta = s.meta;
            s.tag = INVALID;
            s.meta = 0;
            (meta & DIRTY != 0, meta & PERSISTENT != 0)
        });
        if removed.is_some() {
            let si = self.set_index(line);
            self.memo[si] = (line.0, WAY_MISS);
        }
        removed
    }

    /// Marks `line` clean (data persisted) and clears its persistent bit.
    /// Returns `true` if the line was present and dirty.
    #[inline]
    pub fn clean(&mut self, line: Line) -> bool {
        match self.find_update(line) {
            Some(i) => {
                let s = &mut self.slots[i];
                let was = s.meta & DIRTY != 0;
                s.meta &= !(DIRTY | PERSISTENT);
                was
            }
            None => false,
        }
    }

    /// Marks an already-present line dirty (used when a writeback from an
    /// upper level lands here).
    #[inline]
    pub fn mark_dirty(&mut self, line: Line, persistent: bool) {
        if let Some(i) = self.find_update(line) {
            self.slots[i].meta |= DIRTY | if persistent { PERSISTENT } else { 0 };
        }
    }

    /// Every valid line with its slot index, in slot order (does not touch
    /// LRU state).
    pub fn valid_slots(&self) -> impl Iterator<Item = (usize, Evicted)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tag != INVALID)
            .map(|(i, s)| (i, s.evicted()))
    }

    /// Invalidates everything (simulated power loss).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.tag = INVALID;
            s.meta = 0;
        }
        self.memo.fill((INVALID, WAY_MISS));
    }

    /// Number of valid lines currently resident.
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.tag != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways
        Cache::new(&CacheConfig {
            capacity_bytes: 4 * 2 * 64,
            ways: 2,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.touch(Line(1), false, false));
        c.insert(Line(1), false, false);
        assert!(c.touch(Line(1), false, false));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to the same set (4 sets).
        c.insert(Line(0), false, false);
        c.insert(Line(4), false, false);
        c.touch(Line(0), false, false); // 0 is now MRU
        let ev = c.insert(Line(8), true, false).expect("must evict");
        assert_eq!(ev.line, Line(4));
        assert!(c.contains(Line(0)));
        assert!(c.contains(Line(8)));
    }

    #[test]
    fn eviction_reports_dirty_and_persistent() {
        let mut c = tiny();
        c.insert(Line(0), false, false);
        c.touch(Line(0), true, true);
        c.insert(Line(4), false, false);
        let ev = c.insert(Line(8), false, false).unwrap();
        assert_eq!(ev.line, Line(0));
        assert!(ev.dirty);
        assert!(ev.persistent);
    }

    #[test]
    fn clean_clears_dirty_and_persistent() {
        let mut c = tiny();
        c.insert(Line(3), true, true);
        assert!(c.clean(Line(3)));
        assert!(!c.clean(Line(3)));
        c.insert(Line(7), false, false);
        c.insert(Line(11), false, false);
        let ev = c.insert(Line(15), false, false).unwrap();
        assert!(!ev.dirty && !ev.persistent);
    }

    #[test]
    fn remove_and_clear() {
        let mut c = tiny();
        c.insert(Line(5), true, false);
        assert_eq!(c.remove(Line(5)), Some((true, false)));
        assert_eq!(c.remove(Line(5)), None);
        c.insert(Line(6), true, true);
        c.clear();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn invalid_slot_preferred_over_lru_victim() {
        let mut c = tiny();
        c.insert(Line(0), true, false);
        c.insert(Line(4), false, false);
        c.remove(Line(0));
        // The freed slot must be reused without evicting line 4.
        assert_eq!(c.insert(Line(8), false, false), None);
        assert!(c.contains(Line(4)));
        assert!(c.contains(Line(8)));
    }

    #[test]
    fn memo_matches_full_scan_under_random_ops() {
        let mut c = tiny();
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..5_000 {
            let line = Line(rng() % 32);
            match rng() % 6 {
                0 => {
                    if !c.touch(line, rng() % 2 == 0, rng() % 2 == 0) {
                        c.insert(line, false, false);
                    }
                }
                1 => {
                    c.remove(line);
                }
                2 => {
                    c.clean(line);
                }
                3 => c.mark_dirty(line, rng() % 2 == 0),
                4 => {
                    let _ = c.contains(line);
                }
                _ => {
                    if !c.contains(line) {
                        c.insert(line, rng() % 2 == 0, false);
                    }
                }
            }
            // The memoized lookup must agree with the memo-blind scan for
            // every possible probe after every operation.
            for probe in 0..32 {
                assert_eq!(c.find(Line(probe)), c.scan(Line(probe)));
            }
        }
        c.clear();
        for probe in 0..32 {
            assert_eq!(c.find(Line(probe)), None);
        }
    }

    #[test]
    fn touch_preserves_existing_dirty_state_on_read() {
        let mut c = tiny();
        c.insert(Line(2), true, true);
        assert!(c.touch(Line(2), false, false));
        let _ = c.insert(Line(6), false, false);
        let ev = c.insert(Line(10), false, false).unwrap();
        assert_eq!(ev.line, Line(2));
        assert!(ev.dirty && ev.persistent, "read touch must not clear flags");
    }
}
