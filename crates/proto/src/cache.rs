//! Set-associative L2 cache model (tag array, LRU, MSI stable states and a
//! verification value per block).
//!
//! The paper's target: a unified 4 MB, 4-way, 64-byte-block L2 per node
//! (§4.2), with silent S→I downgrades allowed.
//!
//! The tag array is sparse — a set is allocated by the first fill that
//! lands in it — because a run touches only a sliver of 16 nodes × 16,384
//! sets. Geometry, LRU order and victim choice are those of a dense
//! array of per-set line vectors; the unit tests drive both side by side
//! and require identical answers.

use tss_sim::hash::FastMap;

use crate::types::Block;

/// Stable MSI states of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Shared: readable, memory (or an owner) holds the authoritative copy.
    Shared,
    /// Modified: this cache owns the only valid copy.
    Modified,
}

/// Geometry of an L2 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes (paper: 4 MiB).
    pub capacity_bytes: u64,
    /// Associativity (paper: 4-way).
    pub ways: u32,
    /// Block size in bytes (paper: 64).
    pub block_bytes: u64,
}

impl CacheConfig {
    /// The paper's L2: 4 MiB, 4-way, 64-byte blocks.
    pub fn paper_default() -> Self {
        CacheConfig {
            capacity_bytes: 4 << 20,
            ways: 4,
            block_bytes: 64,
        }
    }

    /// A tiny cache for eviction-heavy unit tests.
    pub fn tiny(sets: u64, ways: u32) -> Self {
        CacheConfig {
            capacity_bytes: sets * ways as u64 * 64,
            ways,
            block_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.block_bytes * self.ways as u64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: Block,
    state: CacheState,
    value: u64,
    last_use: u64,
}

/// A victim evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted block.
    pub block: Block,
    /// Whether it was Modified (needs a writeback) — Shared evictions are
    /// silent (§4.2).
    pub dirty: bool,
    /// Its value at eviction.
    pub value: u64,
}

/// One node's L2 cache.
///
/// Only stable states live here; transient (in-flight) state is tracked by
/// each protocol engine's MSHRs. Lookups and fills maintain LRU order.
///
/// Storage is sparse: a set exists only once a fill first lands in it, so
/// an idle cache costs a few words however large its geometry. The paper
/// grids touch well under a megabyte of data per run, while a dense
/// §4.2 tag array would cost 16,384 set headers per node up front.
#[derive(Debug)]
pub struct L2Cache {
    cfg: CacheConfig,
    /// `cfg.sets()`, fixed at construction so a lookup costs one modulo.
    set_count: u64,
    /// The sets filled at least once, by set index; an absent set is
    /// empty. Never iterated, so the map's order cannot reach a result.
    sets: FastMap<u64, Vec<Line>>,
    tick: u64,
}

impl L2Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache needs at least one way");
        assert!(cfg.sets() > 0, "cache needs at least one set");
        L2Cache {
            cfg,
            set_count: cfg.sets(),
            sets: FastMap::default(),
            tick: 0,
        }
    }

    fn set_of(&self, block: Block) -> u64 {
        block.0 % self.set_count
    }

    fn line(&self, block: Block) -> Option<&Line> {
        self.sets
            .get(&self.set_of(block))?
            .iter()
            .find(|l| l.block == block)
    }

    fn line_mut(&mut self, block: Block) -> Option<&mut Line> {
        let set_idx = self.set_of(block);
        self.sets
            .get_mut(&set_idx)?
            .iter_mut()
            .find(|l| l.block == block)
    }

    /// The state of `block`, if present.
    pub fn state(&self, block: Block) -> Option<CacheState> {
        self.line(block).map(|l| l.state)
    }

    /// The cached value of `block`, if present.
    pub fn value(&self, block: Block) -> Option<u64> {
        self.line(block).map(|l| l.value)
    }

    /// Looks `block` up, refreshing LRU. Returns its state if present.
    pub fn touch(&mut self, block: Block) -> Option<CacheState> {
        self.tick += 1;
        let tick = self.tick;
        self.line_mut(block).map(|l| {
            l.last_use = tick;
            l.state
        })
    }

    /// Writes `value` to a present block (stores hitting in M, or protocol
    /// data application).
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached.
    pub fn write(&mut self, block: Block, value: u64) {
        self.line_mut(block).expect("write to uncached block").value = value;
    }

    /// Changes the state of a present block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached.
    pub fn set_state(&mut self, block: Block, state: CacheState) {
        self.line_mut(block)
            .expect("state change on uncached block")
            .state = state;
    }

    /// Removes `block` (invalidations, M→I transfers). No-op if absent.
    pub fn invalidate(&mut self, block: Block) {
        let set_idx = self.set_of(block);
        if let Some(set) = self.sets.get_mut(&set_idx) {
            set.retain(|l| l.block != block);
        }
    }

    /// Inserts `block`, evicting the LRU line if the set is full.
    ///
    /// The victim is returned so the protocol can write it back (M) or drop
    /// it silently (S). `protect` is a block that must **not** be chosen as
    /// victim (the block of the outstanding miss that triggered this fill).
    pub fn fill(
        &mut self,
        block: Block,
        state: CacheState,
        value: u64,
        protect: Option<Block>,
    ) -> Option<Victim> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.cfg.ways as usize;
        let set_idx = self.set_of(block);
        let set = self
            .sets
            .entry(set_idx)
            .or_insert_with(|| Vec::with_capacity(ways));
        if let Some(line) = set.iter_mut().find(|l| l.block == block) {
            line.state = state;
            line.value = value;
            line.last_use = tick;
            return None;
        }
        let mut victim = None;
        if set.len() >= ways {
            let idx = set
                .iter()
                .enumerate()
                .filter(|(_, l)| Some(l.block) != protect)
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("set full of protected blocks");
            let evicted = set.swap_remove(idx);
            victim = Some(Victim {
                block: evicted.block,
                dirty: evicted.state == CacheState::Modified,
                value: evicted.value,
            });
        }
        set.push(Line {
            block,
            state,
            value,
            last_use: tick,
        });
        victim
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let cfg = CacheConfig::paper_default();
        // 4 MiB / (64 B x 4 ways) = 16384 sets.
        assert_eq!(cfg.sets(), 16384);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = L2Cache::new(CacheConfig::tiny(4, 2));
        assert_eq!(c.touch(Block(1)), None);
        assert_eq!(c.fill(Block(1), CacheState::Shared, 7, None), None);
        assert_eq!(c.touch(Block(1)), Some(CacheState::Shared));
        assert_eq!(c.value(Block(1)), Some(7));
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = L2Cache::new(CacheConfig::tiny(1, 2));
        c.fill(Block(0), CacheState::Shared, 0, None);
        c.fill(Block(1), CacheState::Shared, 1, None);
        c.touch(Block(0)); // refresh 0 so 1 becomes LRU
        let v = c.fill(Block(2), CacheState::Shared, 2, None).unwrap();
        assert_eq!(v.block, Block(1));
        assert!(!v.dirty, "shared eviction is silent");
    }

    #[test]
    fn dirty_eviction_reports_value() {
        let mut c = L2Cache::new(CacheConfig::tiny(1, 1));
        c.fill(Block(0), CacheState::Modified, 42, None);
        let v = c.fill(Block(64), CacheState::Shared, 0, None).unwrap();
        assert_eq!(
            v,
            Victim {
                block: Block(0),
                dirty: true,
                value: 42
            }
        );
    }

    #[test]
    fn protected_block_is_not_evicted() {
        let mut c = L2Cache::new(CacheConfig::tiny(1, 2));
        c.fill(Block(0), CacheState::Modified, 1, None);
        c.fill(Block(64), CacheState::Shared, 2, None);
        c.touch(Block(64));
        c.touch(Block(0)); // 64 is LRU...
        let v = c
            .fill(Block(128), CacheState::Shared, 3, Some(Block(64)))
            .unwrap();
        // ...but 64 is protected, so 0 goes instead.
        assert_eq!(v.block, Block(0));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = L2Cache::new(CacheConfig::tiny(2, 2));
        c.fill(Block(3), CacheState::Shared, 0, None);
        c.invalidate(Block(3));
        assert_eq!(c.state(Block(3)), None);
        c.invalidate(Block(99)); // absent: no-op
    }

    #[test]
    fn write_and_state_change() {
        let mut c = L2Cache::new(CacheConfig::tiny(2, 2));
        c.fill(Block(3), CacheState::Shared, 0, None);
        c.set_state(Block(3), CacheState::Modified);
        c.write(Block(3), 9);
        assert_eq!(c.state(Block(3)), Some(CacheState::Modified));
        assert_eq!(c.value(Block(3)), Some(9));
    }

    #[test]
    fn refill_of_present_block_updates_in_place() {
        let mut c = L2Cache::new(CacheConfig::tiny(1, 1));
        c.fill(Block(0), CacheState::Shared, 1, None);
        assert_eq!(c.fill(Block(0), CacheState::Modified, 2, None), None);
        assert_eq!(c.state(Block(0)), Some(CacheState::Modified));
        assert_eq!(c.value(Block(0)), Some(2));
    }

    #[test]
    #[should_panic(expected = "uncached")]
    fn write_to_absent_block_panics() {
        let mut c = L2Cache::new(CacheConfig::tiny(1, 1));
        c.write(Block(0), 1);
    }

    /// The dense tag array the sparse one replaced: one line vector per
    /// set, all allocated up front. Kept as the reference model.
    struct DenseL2 {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        tick: u64,
    }

    impl DenseL2 {
        fn new(cfg: CacheConfig) -> Self {
            DenseL2 {
                sets: (0..cfg.sets()).map(|_| Vec::new()).collect(),
                cfg,
                tick: 0,
            }
        }

        fn set_of(&self, block: Block) -> usize {
            (block.0 % self.cfg.sets()) as usize
        }

        fn line(&self, block: Block) -> Option<&Line> {
            self.sets[self.set_of(block)]
                .iter()
                .find(|l| l.block == block)
        }

        fn line_mut(&mut self, block: Block) -> Option<&mut Line> {
            let set_idx = self.set_of(block);
            self.sets[set_idx].iter_mut().find(|l| l.block == block)
        }

        fn touch(&mut self, block: Block) -> Option<CacheState> {
            self.tick += 1;
            let tick = self.tick;
            self.line_mut(block).map(|l| {
                l.last_use = tick;
                l.state
            })
        }

        fn invalidate(&mut self, block: Block) {
            let set_idx = self.set_of(block);
            self.sets[set_idx].retain(|l| l.block != block);
        }

        fn fill(
            &mut self,
            block: Block,
            state: CacheState,
            value: u64,
            protect: Option<Block>,
        ) -> Option<Victim> {
            self.tick += 1;
            let tick = self.tick;
            let ways = self.cfg.ways as usize;
            let set_idx = self.set_of(block);
            let set = &mut self.sets[set_idx];
            if let Some(line) = set.iter_mut().find(|l| l.block == block) {
                line.state = state;
                line.value = value;
                line.last_use = tick;
                return None;
            }
            let mut victim = None;
            if set.len() >= ways {
                let idx = set
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| Some(l.block) != protect)
                    .min_by_key(|(_, l)| l.last_use)
                    .map(|(i, _)| i)
                    .expect("set full of protected blocks");
                let evicted = set.swap_remove(idx);
                victim = Some(Victim {
                    block: evicted.block,
                    dirty: evicted.state == CacheState::Modified,
                    value: evicted.value,
                });
            }
            set.push(Line {
                block,
                state,
                value,
                last_use: tick,
            });
            victim
        }
    }

    /// Drives the sparse cache and the dense reference with one seeded
    /// random operation sequence and requires identical answers, victims
    /// included. Blocks crowd into a few sets so fills evict.
    fn agrees_with_dense(cfg: CacheConfig, seed: u64, ops: usize) {
        use tss_sim::rng::SimRng;

        let sets = cfg.sets();
        let crowded_sets = sets.min(3);
        let universe: Vec<Block> = (0..crowded_sets)
            .flat_map(|s| (0..u64::from(cfg.ways) * 3).map(move |k| Block(s + k * sets)))
            .collect();
        let mut rng = SimRng::from_seed_and_stream(seed, sets);
        let mut sparse = L2Cache::new(cfg);
        let mut dense = DenseL2::new(cfg);
        for step in 0..ops {
            let block = universe[rng.index(universe.len())];
            let present = dense.line(block).is_some();
            let state = if rng.chance(0.5) {
                CacheState::Shared
            } else {
                CacheState::Modified
            };
            let value = rng.gen_range(0..1_000);
            match rng.index(7) {
                0 | 1 => {
                    // A protected block must leave a victim: one per set
                    // at most, so only with two or more ways.
                    let protect = (cfg.ways > 1 && rng.chance(0.5))
                        .then(|| universe[rng.index(universe.len())]);
                    assert_eq!(
                        sparse.fill(block, state, value, protect),
                        dense.fill(block, state, value, protect),
                        "fill of {block:?} at step {step}"
                    );
                }
                2 => assert_eq!(sparse.touch(block), dense.touch(block), "step {step}"),
                3 if present => {
                    sparse.write(block, value);
                    dense.line_mut(block).unwrap().value = value;
                }
                4 if present => {
                    sparse.set_state(block, state);
                    dense.line_mut(block).unwrap().state = state;
                }
                5 => {
                    sparse.invalidate(block);
                    dense.invalidate(block);
                }
                _ => {}
            }
            assert_eq!(
                sparse.state(block),
                dense.line(block).map(|l| l.state),
                "state of {block:?} at step {step}"
            );
            assert_eq!(
                sparse.value(block),
                dense.line(block).map(|l| l.value),
                "value of {block:?} at step {step}"
            );
        }
        for &block in &universe {
            assert_eq!(sparse.state(block), dense.line(block).map(|l| l.state));
            assert_eq!(sparse.value(block), dense.line(block).map(|l| l.value));
        }
    }

    #[test]
    fn sparse_sets_match_the_dense_reference() {
        for (sets, ways) in [(1, 1), (1, 4), (4, 2), (3, 3), (8, 4)] {
            for seed in 0..4 {
                agrees_with_dense(CacheConfig::tiny(sets, ways), seed, 4_000);
            }
        }
        for seed in 0..4 {
            agrees_with_dense(CacheConfig::paper_default(), seed, 4_000);
        }
    }

    #[test]
    fn sets_are_allocated_by_their_first_fill() {
        let mut c = L2Cache::new(CacheConfig::paper_default());
        assert!(c.sets.is_empty());
        assert_eq!(c.touch(Block(5)), None);
        c.invalidate(Block(5));
        assert!(c.sets.is_empty(), "lookups allocate nothing");
        c.fill(Block(5), CacheState::Shared, 0, None);
        c.fill(Block(5 + 16_384), CacheState::Shared, 0, None);
        assert_eq!(c.sets.len(), 1);
    }
}
