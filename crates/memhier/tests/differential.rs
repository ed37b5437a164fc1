//! Differential test of the sharer-directory hierarchy against a reference
//! model that probes every core's private caches on each cross-core
//! operation (the hierarchy's pre-directory algorithm, kept here verbatim
//! in behaviour). Random operation streams on the 16-core test config must
//! yield identical results, identical statistics, and a directory whose
//! bits name exactly the cores whose L2 holds each LLC-resident line.

use memhier::{AccessResult, Cache, Evicted, FlushResult, HierStats, Hierarchy};
use proptest::prelude::*;
use simcore::addr::Line;
use simcore::{CoreId, Cycle, SimConfig};

/// The probe-every-core hierarchy.
struct Reference {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    l1_latency: Cycle,
    l2_latency: Cycle,
    llc_latency: Cycle,
    stats: HierStats,
}

impl Reference {
    fn new(cfg: &SimConfig) -> Self {
        let cores = cfg.cores as usize;
        Reference {
            l1: (0..cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(&cfg.l2)).collect(),
            llc: Cache::new(&cfg.llc),
            l1_latency: cfg.l1.latency_cycles,
            l2_latency: cfg.l2.latency_cycles,
            llc_latency: cfg.llc.latency_cycles,
            stats: HierStats::default(),
        }
    }

    fn access(&mut self, core: CoreId, line: Line, write: bool, persistent: bool) -> AccessResult {
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
        if self.llc.touch(line, write, persistent) {
            self.stats.llc_hits.inc();
            if write {
                self.invalidate_private_except(c, line);
            }
            self.fill_l2(c, line);
            self.fill_l1(c, line, write, persistent);
            return AccessResult {
                latency,
                llc_miss: false,
                evicted: None,
            };
        }
        self.stats.llc_misses.inc();
        if write {
            self.invalidate_private_except(c, line);
        }
        let evicted = self.fill_llc(line, write, write && persistent);
        self.fill_l2(c, line);
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

    fn fill_llc(&mut self, line: Line, dirty: bool, persistent: bool) -> Option<Evicted> {
        let victim = self.llc.insert(line, dirty, persistent)?;
        let mut merged = victim;
        for c in 0..self.l1.len() {
            if let Some((d, p)) = self.l1[c].remove(victim.line) {
                merged.dirty |= d;
                merged.persistent |= p;
            }
            if let Some((d, p)) = self.l2[c].remove(victim.line) {
                merged.dirty |= d;
                merged.persistent |= p;
            }
        }
        merged.dirty.then_some(merged)
    }

    fn fill_l2(&mut self, core: usize, line: Line) {
        if let Some(v) = self.l2[core].insert(line, false, false) {
            let mut dirty = v.dirty;
            let mut persistent = v.persistent;
            if let Some((d, p)) = self.l1[core].remove(v.line) {
                dirty |= d;
                persistent |= p;
            }
            if dirty {
                self.llc.mark_dirty(v.line, persistent);
            }
        }
    }

    fn fill_l1(&mut self, core: usize, line: Line, write: bool, persistent: bool) {
        if let Some(v) = self.l1[core].insert(line, write, write && persistent) {
            if v.dirty {
                self.l2[core].mark_dirty(v.line, v.persistent);
            }
        }
    }

    fn invalidate_private_except(&mut self, owner: usize, line: Line) {
        for c in 0..self.l1.len() {
            if c == owner {
                continue;
            }
            if let Some((d, p)) = self.l1[c].remove(line) {
                if d {
                    self.llc.mark_dirty(line, p);
                }
            }
            if let Some((d, p)) = self.l2[c].remove(line) {
                if d {
                    self.llc.mark_dirty(line, p);
                }
            }
        }
    }

    fn mark_dirty(&mut self, core: CoreId, line: Line, persistent: bool) {
        let c = core.index();
        if self.l1[c].contains(line) {
            self.l1[c].mark_dirty(line, persistent);
        } else if self.l2[c].contains(line) {
            self.l2[c].mark_dirty(line, persistent);
        } else {
            self.llc.mark_dirty(line, persistent);
        }
    }

    fn clean_line(&mut self, line: Line) -> bool {
        let mut was = false;
        for c in 0..self.l1.len() {
            was |= self.l1[c].clean(line);
            was |= self.l2[c].clean(line);
        }
        was |= self.llc.clean(line);
        was
    }

    fn flush_line(&mut self, line: Line) -> FlushResult {
        let mut dirty = false;
        let mut persistent = false;
        for c in 0..self.l1.len() {
            if let Some((d, p)) = self.l1[c].remove(line) {
                dirty |= d;
                persistent |= p;
            }
            if let Some((d, p)) = self.l2[c].remove(line) {
                dirty |= d;
                persistent |= p;
            }
        }
        if let Some((d, p)) = self.llc.remove(line) {
            dirty |= d;
            persistent |= p;
        }
        FlushResult {
            was_dirty: dirty,
            was_persistent: persistent,
        }
    }

    fn contains(&self, line: Line) -> bool {
        self.llc.contains(line)
            || self.l1.iter().any(|c| c.contains(line))
            || self.l2.iter().any(|c| c.contains(line))
    }

    fn drain_dirty(&mut self) -> Vec<Evicted> {
        let mut all: Vec<Evicted> = Vec::new();
        for cache in self.l1.iter().chain(&self.l2).chain([&self.llc]) {
            all.extend(cache.valid_slots().map(|(_, e)| e));
        }
        self.clear();
        all.sort_by_key(|e| e.line.0);
        let mut out: Vec<Evicted> = Vec::with_capacity(all.len());
        for e in all {
            match out.last_mut() {
                Some(last) if last.line == e.line => {
                    last.dirty |= e.dirty;
                    last.persistent |= e.persistent;
                }
                _ => out.push(e),
            }
        }
        out.retain(|e| e.dirty);
        out
    }

    fn clear(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.llc.clear();
    }
}

#[derive(Clone, Debug)]
enum Op {
    Access {
        core: u8,
        line: u64,
        write: bool,
        persistent: bool,
    },
    MarkDirty {
        core: u8,
        line: u64,
        persistent: bool,
    },
    Clean {
        line: u64,
    },
    Flush {
        line: u64,
    },
    Drain,
    Clear,
}

/// Lines crowding 3 sets of every level of the test config (LLC 64 sets ×
/// 16 ways, L2 32 × 8, L1 16 × 4): 40 candidates per set overflow each
/// level, so fills evict and the LLC back-invalidates. A hot subset of 4
/// lines per set keeps many lines shared by several cores.
fn line_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => (0u64..3, 0u64..4).prop_map(|(set, k)| k * 64 + set),
        2 => (0u64..3, 0u64..40).prop_map(|(set, k)| k * 64 + set),
    ]
}

/// Mostly four busy cores (so their L2 sets overflow), sometimes any of
/// the 16.
fn core_strategy() -> impl Strategy<Value = u8> {
    let cores = SimConfig::small_for_tests().cores;
    prop_oneof![3 => 0u8..4, 1 => 0..cores]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        24 => (core_strategy(), line_strategy(), any::<bool>(), any::<bool>()).prop_map(
            |(core, line, write, persistent)| Op::Access { core, line, write, persistent }
        ),
        3 => (core_strategy(), line_strategy(), any::<bool>())
            .prop_map(|(core, line, persistent)| Op::MarkDirty { core, line, persistent }),
        4 => line_strategy().prop_map(|line| Op::Clean { line }),
        2 => line_strategy().prop_map(|line| Op::Flush { line }),
        1 => Just(Op::Drain),
        1 => Just(Op::Clear),
    ]
}

/// Checks the directory against the reference's private caches: the LLC
/// holds the same lines, and each line's sharers are exactly the cores
/// whose L2 holds it.
fn check_directory(h: &Hierarchy, r: &Reference) -> Result<(), TestCaseError> {
    let dir = h.directory();
    prop_assert_eq!(dir.len(), r.llc.resident(), "LLC residency differs");
    for (line, cores) in dir {
        prop_assert!(r.llc.contains(line), "{:?} not in the reference LLC", line);
        let holders: Vec<CoreId> = (0..r.l2.len())
            .filter(|&c| r.l2[c].contains(line))
            .map(|c| CoreId(c as u8))
            .collect();
        prop_assert_eq!(cores, holders, "sharers of {:?}", line);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn directory_hierarchy_matches_probe_every_core(
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let cfg = SimConfig::small_for_tests();
        prop_assert_eq!(cfg.cores, 16);
        let mut h = Hierarchy::new(&cfg);
        let mut r = Reference::new(&cfg);
        for op in &ops {
            match *op {
                Op::Access { core, line, write, persistent } => {
                    let (core, line) = (CoreId(core), Line(line));
                    prop_assert_eq!(
                        h.access(core, line, write, persistent),
                        r.access(core, line, write, persistent)
                    );
                }
                Op::MarkDirty { core, line, persistent } => {
                    h.mark_dirty(CoreId(core), Line(line), persistent);
                    r.mark_dirty(CoreId(core), Line(line), persistent);
                }
                Op::Clean { line } => {
                    prop_assert_eq!(h.clean_line(Line(line)), r.clean_line(Line(line)));
                }
                Op::Flush { line } => {
                    prop_assert_eq!(h.flush_line(Line(line)), r.flush_line(Line(line)));
                    prop_assert!(!h.contains(Line(line)) && !r.contains(Line(line)));
                }
                Op::Drain => prop_assert_eq!(h.drain_dirty(), r.drain_dirty()),
                Op::Clear => {
                    h.clear();
                    r.clear();
                }
            }
            if let Op::Access { line, .. } | Op::MarkDirty { line, .. } | Op::Clean { line } = *op {
                prop_assert_eq!(h.contains(Line(line)), r.contains(Line(line)));
            }
            check_directory(&h, &r)?;
        }
        prop_assert_eq!(h.drain_dirty(), r.drain_dirty());
        prop_assert_eq!(h.stats(), &r.stats);
    }
}
