//! Paged KV-cache pool: fixed-size blocks, ref-counted prefix sharing, and
//! copy-on-write — the vLLM-style memory substrate for multi-session serving.
//!
//! [`crate::KvCache`] tracks one session's cache *positions*; it says nothing
//! about where those positions live.  A serving scheduler that admits many
//! sessions against one accelerator needs the missing half: a shared budget
//! of physical cache memory, carved into fixed-size blocks, so that admission
//! can be memory-aware and sessions with identical prompt+audio prefixes can
//! share the blocks holding that prefix.
//!
//! * [`BlockPool`] — one model's block allocator: a bounded (or unbounded)
//!   slab of blocks with a free list, per-block reference counts, and a
//!   prefix index keyed on hash chains of the prefill content,
//! * [`BlockTable`] — one session's view: the ordered block list backing its
//!   positions, wrapping a [`KvCache`] so position bookkeeping (rollback
//!   counters, peaks) stays byte-identical to the pre-paged implementation,
//! * [`KvPool`] — the draft + target sub-pool pair a speculative decoding
//!   session allocates from.
//!
//! # Sharing and copy-on-write
//!
//! Prefill blocks are published to the pool's prefix index under a hash
//! chain of `(prefix_key, block index)`.  A later prefill with the same key
//! re-uses the resident blocks (reference count bump, no allocation).  A
//! shared block is never written through: the first append that would write
//! into a shared tail block copies it first (copy-on-write), and a tail
//! block owned exclusively is simply retired from the prefix index before
//! the write.  Blocks return to the free list when their last reference is
//! released, so a drained pool always ends with its free list equal to its
//! capacity — the no-leak/no-double-free invariant the property tests pin.
//!
//! # Example
//!
//! ```
//! use specasr_runtime::{BlockPool, BlockTable};
//!
//! let mut pool = BlockPool::bounded(8, 16);
//! let mut a = BlockTable::new();
//! let mut b = BlockTable::new();
//! pool.prefill(&mut a, 40, Some(0xfeed)).unwrap(); // 3 blocks
//! pool.prefill(&mut b, 40, Some(0xfeed)).unwrap(); // shares all 3
//! assert_eq!(pool.used_blocks(), 3);
//! pool.append(&mut a, 4).unwrap();                 // copy-on-write tail
//! assert_eq!(pool.used_blocks(), 4);
//! pool.release(&mut a);
//! pool.release(&mut b);
//! assert_eq!(pool.free_blocks(), 8);
//! ```

use std::collections::HashMap;

use crate::kv_cache::{KvCache, PrefillError};

/// SplitMix64-style avalanche used for the prefix hash chains (kept local so
/// the runtime crate stays dependency-free).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Identity of one block within a [`BlockPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(usize);

impl BlockId {
    /// The block's slab index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Why a pool operation could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The pool does not have enough free blocks for the allocation.
    OutOfBlocks {
        /// Fresh blocks the operation needed.
        requested: usize,
        /// Free blocks available at the time.
        available: usize,
        /// The pool's total capacity in blocks.
        capacity: usize,
    },
    /// A prefill was attempted on a table that already holds positions.
    AlreadyPrefilled(PrefillError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::OutOfBlocks {
                requested,
                available,
                capacity,
            } => write!(
                f,
                "pool exhausted: {requested} blocks requested, {available} free of {capacity}"
            ),
            PoolError::AlreadyPrefilled(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<PrefillError> for PoolError {
    fn from(error: PrefillError) -> Self {
        PoolError::AlreadyPrefilled(error)
    }
}

/// One session's ordered view of the blocks backing its KV positions.
///
/// Wraps a [`KvCache`] so the position bookkeeping (lengths, peaks, rollback
/// counters) is byte-identical to the pre-paged per-session caches; the
/// block list is what the paged pool adds.  All mutation goes through a
/// [`BlockPool`] — the table alone cannot allocate or free.
///
/// Cloning a table snapshots its bookkeeping for inspection; a clone must
/// not be handed back to pool operations (block references are not
/// re-counted by `clone`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTable {
    positions: KvCache,
    blocks: Vec<BlockId>,
}

impl BlockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        BlockTable::default()
    }

    /// The position bookkeeping (lengths, peak, rollback counters).
    pub fn positions(&self) -> &KvCache {
        &self.positions
    }

    /// Total cached positions (prefill + generated).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The blocks currently backing this table, in position order.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Number of blocks currently held.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Forgets the positions of a released table, so a pool can prefill it
    /// again.  The block buffer keeps its capacity: a session restarted on
    /// its old tables allocates no new ones.
    ///
    /// # Panics
    ///
    /// Panics if the table still holds blocks; release it first.
    pub fn reset(&mut self) {
        assert!(
            self.blocks.is_empty(),
            "a table must be released before it is reset"
        );
        self.positions = KvCache::new();
    }

    /// Makes room for `blocks` blocks in all, so the table grows to that
    /// many without reallocating.
    pub fn reserve(&mut self, blocks: usize) {
        self.blocks
            .reserve(blocks.saturating_sub(self.blocks.len()));
    }
}

#[derive(Debug, Clone, Default)]
struct BlockState {
    ref_count: usize,
    /// The prefix-chain hash this block is published under, if shareable.
    hash: Option<u64>,
}

/// Monotonic allocation counters of one [`BlockPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Fresh blocks handed out (excluding shared re-use).
    pub allocated: usize,
    /// Blocks returned to the free list.
    pub freed: usize,
    /// Prefill blocks requested under a prefix key (sharing opportunities).
    pub prefix_lookups: usize,
    /// Prefill blocks satisfied by re-using a resident shared block.
    pub shared_hits: usize,
    /// Copy-on-write block copies (writes into a shared tail).
    pub cow_copies: usize,
}

impl PoolCounters {
    /// Component-wise sum of two counter sets.
    pub fn merged(self, other: PoolCounters) -> PoolCounters {
        PoolCounters {
            allocated: self.allocated + other.allocated,
            freed: self.freed + other.freed,
            prefix_lookups: self.prefix_lookups + other.prefix_lookups,
            shared_hits: self.shared_hits + other.shared_hits,
            cow_copies: self.cow_copies + other.cow_copies,
        }
    }
}

/// One model's paged block allocator.
#[derive(Debug, Clone)]
pub struct BlockPool {
    block_size: usize,
    /// `None` grows on demand (single-session use); `Some(n)` is a hard
    /// budget of `n` blocks (serving use).
    capacity: Option<usize>,
    blocks: Vec<BlockState>,
    free: Vec<BlockId>,
    prefix_index: HashMap<u64, BlockId>,
    used: usize,
    peak_used: usize,
    counters: PoolCounters,
}

impl BlockPool {
    /// Creates a pool with a hard budget of `capacity` blocks of
    /// `block_size` positions each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `block_size` is zero.
    pub fn bounded(capacity: usize, block_size: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(block_size > 0, "block_size must be positive");
        BlockPool {
            block_size,
            capacity: Some(capacity),
            blocks: vec![BlockState::default(); capacity],
            // Reversed so blocks are handed out in 0, 1, 2, ... order.
            free: (0..capacity).rev().map(BlockId).collect(),
            prefix_index: HashMap::new(),
            used: 0,
            peak_used: 0,
            counters: PoolCounters::default(),
        }
    }

    /// Creates a pool that grows on demand — the private backing store of a
    /// standalone (non-serving) decode session, where allocation never fails.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn unbounded(block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        BlockPool {
            block_size,
            capacity: None,
            blocks: Vec::new(),
            free: Vec::new(),
            prefix_index: HashMap::new(),
            used: 0,
            peak_used: 0,
            counters: PoolCounters::default(),
        }
    }

    /// Positions per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The hard block budget, or `None` for an unbounded pool.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Blocks currently in use (shared blocks count once).
    pub fn used_blocks(&self) -> usize {
        self.used
    }

    /// Largest number of blocks ever simultaneously in use.
    pub fn peak_used_blocks(&self) -> usize {
        self.peak_used
    }

    /// Free blocks available right now (`usize::MAX` for unbounded pools).
    pub fn free_blocks(&self) -> usize {
        match self.capacity {
            Some(_) => self.free.len(),
            None => usize::MAX,
        }
    }

    /// Monotonic allocation counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters
    }

    /// Number of blocks needed to back `positions` cache positions.
    pub fn blocks_for(&self, positions: usize) -> usize {
        positions.div_ceil(self.block_size)
    }

    /// Fresh blocks an `append(table, tokens)` would need right now,
    /// including a possible copy-on-write of a shared tail block.
    pub fn blocks_needed_for_append(&self, table: &BlockTable, tokens: usize) -> usize {
        if tokens == 0 {
            return 0;
        }
        let growth = self.blocks_for(table.len() + tokens) - self.blocks_for(table.len());
        let cow = usize::from(self.tail_needs_cow(table));
        growth + cow
    }

    /// Whether the table's tail block has room for a write but is shared
    /// (reference count above one), forcing a copy before the next append.
    fn tail_needs_cow(&self, table: &BlockTable) -> bool {
        if table.len().is_multiple_of(self.block_size) {
            return false; // the tail is full; the next write opens a new block
        }
        match table.blocks.last() {
            Some(&id) => self.blocks[id.index()].ref_count > 1,
            None => false,
        }
    }

    /// Records the prefill of `tokens` context positions, allocating (or,
    /// under `prefix_key`, sharing) the blocks that back them.
    ///
    /// With `Some(key)`, every prefill block is looked up in the prefix
    /// index under the hash chain of `(key, block index)`; resident blocks
    /// are re-used (reference count bump) and misses are allocated and
    /// published.  Identical keys therefore share physical blocks for as
    /// long as at least one owner is resident.
    ///
    /// The operation is atomic: on [`PoolError::OutOfBlocks`] nothing was
    /// allocated, shared, or recorded.
    pub fn prefill(
        &mut self,
        table: &mut BlockTable,
        tokens: usize,
        prefix_key: Option<u64>,
    ) -> Result<(), PoolError> {
        if !table.is_empty() || !table.blocks.is_empty() {
            return Err(PoolError::AlreadyPrefilled(PrefillError {
                existing: table.len().max(table.blocks.len()),
                requested: tokens,
            }));
        }
        let needed = self.blocks_for(tokens);
        // Pass 1 (read-only): how many blocks miss the prefix index?
        let fresh = match prefix_key {
            Some(key) => prefix_chain(key, self.block_size, needed)
                .filter(|hash| !self.prefix_index.contains_key(hash))
                .count(),
            None => needed,
        };
        self.ensure_available(fresh)?;
        // Pass 2: commit, walking the same chain again: it shares where
        // pass 1 hit and allocates where pass 1 missed.  The table is sized
        // in one allocation to the capacity pushing block by block would
        // reach, so the first appends past the prefill still fit.
        if needed > 0 {
            table.blocks.reserve(needed.next_power_of_two());
        }
        let allocated_before = self.counters.allocated;
        match prefix_key {
            Some(key) => {
                self.counters.prefix_lookups += needed;
                for hash in prefix_chain(key, self.block_size, needed) {
                    let id = match self.prefix_index.get(&hash).copied() {
                        Some(id) => {
                            self.blocks[id.index()].ref_count += 1;
                            self.counters.shared_hits += 1;
                            id
                        }
                        None => self.allocate(Some(hash)),
                    };
                    table.blocks.push(id);
                }
            }
            None => {
                for _ in 0..needed {
                    let id = self.allocate(None);
                    table.blocks.push(id);
                }
            }
        }
        debug_assert_eq!(
            self.counters.allocated - allocated_before,
            fresh,
            "the commit allocates exactly the blocks the check counted"
        );
        table.positions.try_prefill(tokens)?;
        Ok(())
    }

    /// Appends `tokens` generated positions, allocating blocks as position
    /// boundaries are crossed and copy-on-writing a shared tail first.
    ///
    /// The operation is atomic: on [`PoolError::OutOfBlocks`] nothing was
    /// allocated or recorded.
    pub fn append(&mut self, table: &mut BlockTable, tokens: usize) -> Result<(), PoolError> {
        let needed = self.blocks_needed_for_append(table, tokens);
        self.ensure_available(needed)?;
        if tokens > 0 {
            self.privatize_tail(table);
        }
        let total_blocks = self.blocks_for(table.len() + tokens);
        while table.blocks.len() < total_blocks {
            let id = self.allocate(None);
            table.blocks.push(id);
        }
        table.positions.append(tokens);
        Ok(())
    }

    /// Rolls the table back to `len` total positions, releasing the blocks
    /// past the new boundary (speculative rejection).
    ///
    /// Rolling back into a shared block defers the copy to the next append
    /// (copy-on-write): the rolled-back session only re-acquires a private
    /// tail when it actually writes again.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`KvCache::rollback_to`].
    pub fn rollback(&mut self, table: &mut BlockTable, len: usize) {
        table.positions.rollback_to(len);
        let keep = self.blocks_for(len);
        while table.blocks.len() > keep {
            let id = table.blocks.pop().expect("block count was checked");
            self.unref(id);
        }
    }

    /// Releases every block the table holds (session finished or preempted).
    ///
    /// The position bookkeeping is left intact so a finished session can
    /// still report its cache statistics; releasing twice is a no-op.
    pub fn release(&mut self, table: &mut BlockTable) {
        while let Some(id) = table.blocks.pop() {
            self.unref(id);
        }
    }

    /// Moves the blocks backing `table` from this pool into `dest` — the
    /// same-machine hand-off fast path of a live session migration.  The
    /// position bookkeeping is untouched (no re-prefill, no rollback
    /// counters), the table is re-backed by freshly allocated private blocks
    /// in `dest`, and the source references are dropped.  Prefix sharing
    /// does not survive the move: the destination copies are never published
    /// to the prefix index (their content diverges from any prefill hash the
    /// moment the session appends).
    ///
    /// The operation is atomic: on [`PoolError::OutOfBlocks`] (the
    /// destination cannot hold the table) neither pool nor the table
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the two pools page at different block sizes — a hand-off
    /// models moving physical cache pages, which only makes sense between
    /// pools of identical geometry.
    pub fn transfer(
        &mut self,
        dest: &mut BlockPool,
        table: &mut BlockTable,
    ) -> Result<(), PoolError> {
        assert_eq!(
            self.block_size, dest.block_size,
            "a block-table hand-off requires matching block geometry"
        );
        dest.ensure_available(table.blocks.len())?;
        let moved = std::mem::take(&mut table.blocks);
        for _ in 0..moved.len() {
            table.blocks.push(dest.allocate(None));
        }
        for id in moved {
            self.unref(id);
        }
        Ok(())
    }

    fn ensure_available(&self, fresh: usize) -> Result<(), PoolError> {
        let Some(capacity) = self.capacity else {
            return Ok(());
        };
        if fresh > self.free.len() {
            return Err(PoolError::OutOfBlocks {
                requested: fresh,
                available: self.free.len(),
                capacity,
            });
        }
        Ok(())
    }

    /// Makes the table's tail block safe to write into: copies it when other
    /// owners share it, or retires it from the prefix index when this table
    /// owns it exclusively (its content is about to diverge from the hash it
    /// was published under).
    ///
    /// Callers guarantee a free block when a copy is due (see
    /// [`BlockPool::blocks_needed_for_append`]).
    fn privatize_tail(&mut self, table: &mut BlockTable) {
        if table.len().is_multiple_of(self.block_size) {
            return;
        }
        let Some(&tail) = table.blocks.last() else {
            return;
        };
        if self.blocks[tail.index()].ref_count > 1 {
            let copy = self.allocate(None);
            self.counters.cow_copies += 1;
            *table.blocks.last_mut().expect("tail exists") = copy;
            self.unref(tail);
        } else if let Some(hash) = self.blocks[tail.index()].hash.take() {
            self.prefix_index.remove(&hash);
        }
    }

    /// Hands out a fresh block, publishing it under `hash` when given.
    fn allocate(&mut self, hash: Option<u64>) -> BlockId {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                assert!(
                    self.capacity.is_none(),
                    "bounded allocation must be preceded by an availability check"
                );
                let id = BlockId(self.blocks.len());
                self.blocks.push(BlockState::default());
                id
            }
        };
        let state = &mut self.blocks[id.index()];
        state.ref_count = 1;
        state.hash = hash;
        if let Some(hash) = hash {
            self.prefix_index.insert(hash, id);
        }
        self.counters.allocated += 1;
        self.used += 1;
        self.peak_used = self.peak_used.max(self.used);
        id
    }

    /// Drops one reference; the block returns to the free list when the last
    /// owner lets go.
    fn unref(&mut self, id: BlockId) {
        let state = &mut self.blocks[id.index()];
        assert!(state.ref_count > 0, "double free of block {id:?}");
        state.ref_count -= 1;
        if state.ref_count == 0 {
            if let Some(hash) = state.hash.take() {
                self.prefix_index.remove(&hash);
            }
            self.free.push(id);
            self.counters.freed += 1;
            self.used -= 1;
        }
    }
}

/// The hash chain prefill blocks are published under: one hash per block
/// index, avalanched over the prefix key and the pool's block size (the same
/// prompt paged at a different granularity must not collide).
fn prefix_chain(key: u64, block_size: usize, blocks: usize) -> impl Iterator<Item = u64> {
    let mut hash = mix64(key ^ mix64(block_size as u64 ^ 0x9aed_0c11));
    (0..blocks).map(move |_| {
        hash = mix64(hash ^ 0x5bd1_e995);
        hash
    })
}

/// The draft + target sub-pool pair one speculative decoding fleet shares.
///
/// Draft and target models have different cache geometries, so each gets its
/// own block budget; the pair travels together because every decode session
/// allocates from both.
#[derive(Debug, Clone)]
pub struct KvPool {
    draft: BlockPool,
    target: BlockPool,
}

impl KvPool {
    /// Creates a pool with a hard budget of `kv_blocks` blocks *per
    /// sub-pool* of `block_size` positions each.
    ///
    /// # Panics
    ///
    /// Panics if `kv_blocks` or `block_size` is zero.
    pub fn bounded(kv_blocks: usize, block_size: usize) -> Self {
        KvPool {
            draft: BlockPool::bounded(kv_blocks, block_size),
            target: BlockPool::bounded(kv_blocks, block_size),
        }
    }

    /// Creates a pool that grows on demand (standalone decode sessions).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn unbounded(block_size: usize) -> Self {
        KvPool {
            draft: BlockPool::unbounded(block_size),
            target: BlockPool::unbounded(block_size),
        }
    }

    /// Positions per block.
    pub fn block_size(&self) -> usize {
        self.target.block_size()
    }

    /// The draft model's sub-pool.
    pub fn draft(&self) -> &BlockPool {
        &self.draft
    }

    /// The draft model's sub-pool, mutably.
    pub fn draft_mut(&mut self) -> &mut BlockPool {
        &mut self.draft
    }

    /// The target model's sub-pool.
    pub fn target(&self) -> &BlockPool {
        &self.target
    }

    /// The target model's sub-pool, mutably.
    pub fn target_mut(&mut self) -> &mut BlockPool {
        &mut self.target
    }

    /// Blocks in use across both sub-pools.
    pub fn used_blocks(&self) -> usize {
        self.draft.used_blocks() + self.target.used_blocks()
    }

    /// Blocks in use per sub-pool, `(draft, target)` — the flight recorder
    /// samples this every tick for the per-sub-pool occupancy counter track.
    pub fn sub_pool_used_blocks(&self) -> (usize, usize) {
        (self.draft.used_blocks(), self.target.used_blocks())
    }

    /// Total block budget across both sub-pools (`None` when unbounded).
    pub fn capacity_blocks(&self) -> Option<usize> {
        match (self.draft.capacity(), self.target.capacity()) {
            (Some(d), Some(t)) => Some(d + t),
            _ => None,
        }
    }

    /// Summed allocation counters of both sub-pools.
    pub fn counters(&self) -> PoolCounters {
        self.draft.counters().merged(self.target.counters())
    }

    /// Moves one session's draft and target block tables from this pool into
    /// `dest` without re-prefill (see [`BlockPool::transfer`]) — the
    /// same-machine hand-off fast path of a live session migration between
    /// two workers' pools.
    ///
    /// All-or-nothing across both sub-pools: on [`PoolError::OutOfBlocks`]
    /// neither pool nor either table changed, and the caller falls back to
    /// the preempt/restore slow path.
    ///
    /// # Panics
    ///
    /// Panics if the pools page at different block sizes.
    pub fn hand_off(
        &mut self,
        dest: &mut KvPool,
        draft: &mut BlockTable,
        target: &mut BlockTable,
    ) -> Result<(), PoolError> {
        dest.draft.ensure_available(draft.block_count())?;
        dest.target.ensure_available(target.block_count())?;
        self.draft
            .transfer(&mut dest.draft, draft)
            .expect("draft headroom was checked");
        self.target
            .transfer(&mut dest.target, target)
            .expect("target headroom was checked");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_and_append_allocate_by_block_boundaries() {
        let mut pool = BlockPool::bounded(10, 16);
        let mut table = BlockTable::new();
        pool.prefill(&mut table, 20, None).unwrap(); // 2 blocks (16 + 4)
        assert_eq!(table.block_count(), 2);
        assert_eq!(pool.used_blocks(), 2);
        pool.append(&mut table, 11).unwrap(); // fills to 31, still block 2
        assert_eq!(table.block_count(), 2);
        pool.append(&mut table, 2).unwrap(); // crosses into block 3
        assert_eq!(table.block_count(), 3);
        assert_eq!(table.len(), 33);
        assert_eq!(table.positions().prefill_len(), 20);
        assert_eq!(pool.free_blocks(), 7);
        assert_eq!(pool.peak_used_blocks(), 3);
    }

    #[test]
    fn rollback_frees_whole_blocks_and_release_frees_the_rest() {
        let mut pool = BlockPool::bounded(10, 4);
        let mut table = BlockTable::new();
        pool.prefill(&mut table, 6, None).unwrap(); // blocks 0..2
        pool.append(&mut table, 10).unwrap(); // 16 positions → 4 blocks
        assert_eq!(pool.used_blocks(), 4);
        pool.rollback(&mut table, 7); // keep 2 blocks
        assert_eq!(table.block_count(), 2);
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(table.positions().rollbacks(), 1);
        assert_eq!(table.positions().positions_discarded(), 9);
        pool.release(&mut table);
        assert_eq!(pool.used_blocks(), 0);
        assert_eq!(pool.free_blocks(), 10);
        // Release is idempotent.
        pool.release(&mut table);
        assert_eq!(pool.free_blocks(), 10);
        // Position bookkeeping survives the release for outcome reporting.
        assert_eq!(table.len(), 7);
    }

    #[test]
    fn a_reset_table_prefills_like_a_new_one_in_its_old_buffer() {
        let mut pool = BlockPool::bounded(10, 4);
        let mut table = BlockTable::new();
        pool.prefill(&mut table, 6, Some(3)).unwrap();
        pool.append(&mut table, 10).unwrap();
        let buffer = table.blocks.as_ptr();
        assert!(matches!(
            pool.prefill(&mut table, 6, Some(3)),
            Err(PoolError::AlreadyPrefilled(_))
        ));
        pool.release(&mut table);
        table.reset();
        let mut fresh = BlockTable::new();
        pool.prefill(&mut table, 5, Some(4)).unwrap();
        pool.prefill(&mut fresh, 5, Some(4)).unwrap();
        assert_eq!(table.positions(), fresh.positions());
        assert_eq!(
            table.block_ids(),
            fresh.block_ids(),
            "the same blocks, shared"
        );
        assert_eq!(table.blocks.as_ptr(), buffer, "the old buffer is kept");
    }

    #[test]
    #[should_panic(expected = "released before it is reset")]
    fn resetting_a_table_that_holds_blocks_panics() {
        let mut pool = BlockPool::bounded(4, 4);
        let mut table = BlockTable::new();
        pool.prefill(&mut table, 6, None).unwrap();
        table.reset();
    }

    #[test]
    fn out_of_blocks_is_atomic() {
        let mut pool = BlockPool::bounded(2, 8);
        let mut a = BlockTable::new();
        pool.prefill(&mut a, 16, None).unwrap();
        let mut b = BlockTable::new();
        let error = pool.prefill(&mut b, 9, None).unwrap_err();
        assert_eq!(
            error,
            PoolError::OutOfBlocks {
                requested: 2,
                available: 0,
                capacity: 2
            }
        );
        assert!(b.is_empty());
        assert_eq!(b.block_count(), 0);
        let error = pool.append(&mut a, 1).unwrap_err();
        assert!(matches!(error, PoolError::OutOfBlocks { requested: 1, .. }));
        assert_eq!(a.len(), 16, "failed append must not record positions");
        assert!(error.to_string().contains("free"));
    }

    #[test]
    fn transfer_moves_a_table_between_pools_without_reprefill() {
        let mut source = BlockPool::bounded(8, 16);
        let mut dest = BlockPool::bounded(8, 16);
        let mut table = BlockTable::new();
        source.prefill(&mut table, 40, Some(0xfeed)).unwrap();
        source.append(&mut table, 10).unwrap(); // 50 positions → 4 blocks
        let positions_before = *table.positions();
        source.transfer(&mut dest, &mut table).unwrap();
        assert_eq!(source.used_blocks(), 0);
        assert_eq!(source.free_blocks(), 8);
        assert_eq!(dest.used_blocks(), 4);
        assert_eq!(table.block_count(), 4);
        // No re-prefill: the position bookkeeping is byte-identical.
        assert_eq!(*table.positions(), positions_before);
        assert_eq!(table.len(), 50);
        // The moved table keeps working against the destination pool.
        dest.append(&mut table, 20).unwrap();
        assert_eq!(table.block_count(), 5);
        dest.release(&mut table);
        assert_eq!(dest.free_blocks(), 8);
    }

    #[test]
    fn transfer_is_atomic_when_the_destination_is_full() {
        let mut source = BlockPool::bounded(4, 8);
        let mut dest = BlockPool::bounded(2, 8);
        let mut hog = BlockTable::new();
        dest.prefill(&mut hog, 16, None).unwrap(); // fills the destination
        let mut table = BlockTable::new();
        source.prefill(&mut table, 24, None).unwrap(); // 3 blocks
        let error = source.transfer(&mut dest, &mut table).unwrap_err();
        assert!(matches!(error, PoolError::OutOfBlocks { requested: 3, .. }));
        assert_eq!(source.used_blocks(), 3, "failed hand-off must not free");
        assert_eq!(table.block_count(), 3);
        assert_eq!(table.len(), 24);
    }

    #[test]
    fn transfer_of_a_shared_table_leaves_the_other_owner_resident() {
        let mut source = BlockPool::bounded(8, 16);
        let mut dest = BlockPool::bounded(8, 16);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        source.prefill(&mut a, 32, Some(9)).unwrap();
        source.prefill(&mut b, 32, Some(9)).unwrap(); // shares both blocks
        assert_eq!(source.used_blocks(), 2);
        source.transfer(&mut dest, &mut a).unwrap();
        // `b` still owns the shared originals; `a` got private copies.
        assert_eq!(source.used_blocks(), 2);
        assert_eq!(dest.used_blocks(), 2);
        let mut c = BlockTable::new();
        source.prefill(&mut c, 32, Some(9)).unwrap();
        assert_eq!(
            source.used_blocks(),
            2,
            "the prefix stays shareable at the source after a hand-off"
        );
        source.release(&mut b);
        source.release(&mut c);
        dest.release(&mut a);
        assert_eq!(source.free_blocks(), 8);
        assert_eq!(dest.free_blocks(), 8);
    }

    #[test]
    fn kv_pool_hand_off_is_atomic_across_sub_pools() {
        let mut source = KvPool::bounded(4, 8);
        let mut dest = KvPool::bounded(4, 8);
        let mut draft = BlockTable::new();
        let mut target = BlockTable::new();
        source.draft_mut().prefill(&mut draft, 16, None).unwrap();
        source.target_mut().prefill(&mut target, 24, None).unwrap();
        // Fill the destination's *target* sub-pool so only the second half
        // of the hand-off would fail: the first half must not commit.
        let mut hog = BlockTable::new();
        dest.target_mut().prefill(&mut hog, 32, None).unwrap();
        let error = source
            .hand_off(&mut dest, &mut draft, &mut target)
            .unwrap_err();
        assert!(matches!(error, PoolError::OutOfBlocks { .. }));
        assert_eq!(source.used_blocks(), 5);
        assert_eq!(dest.draft().used_blocks(), 0);
        dest.target_mut().release(&mut hog);
        source.hand_off(&mut dest, &mut draft, &mut target).unwrap();
        assert_eq!(source.used_blocks(), 0);
        assert_eq!(dest.used_blocks(), 5);
    }

    #[test]
    #[should_panic(expected = "matching block geometry")]
    fn transfer_between_mismatched_geometries_panics() {
        let mut source = BlockPool::bounded(4, 8);
        let mut dest = BlockPool::bounded(4, 16);
        let mut table = BlockTable::new();
        source.prefill(&mut table, 8, None).unwrap();
        let _ = source.transfer(&mut dest, &mut table);
    }

    #[test]
    fn double_prefill_is_a_typed_error() {
        let mut pool = BlockPool::bounded(4, 8);
        let mut table = BlockTable::new();
        pool.prefill(&mut table, 8, None).unwrap();
        let error = pool.prefill(&mut table, 8, None).unwrap_err();
        assert!(matches!(error, PoolError::AlreadyPrefilled(_)));
        assert_eq!(table.block_count(), 1);
    }

    #[test]
    fn identical_prefix_keys_share_blocks() {
        let mut pool = BlockPool::bounded(8, 16);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        let mut c = BlockTable::new();
        pool.prefill(&mut a, 40, Some(7)).unwrap(); // 3 fresh blocks
        pool.prefill(&mut b, 40, Some(7)).unwrap(); // 3 shared
        pool.prefill(&mut c, 40, Some(8)).unwrap(); // different key: fresh
        assert_eq!(pool.used_blocks(), 6);
        assert_eq!(a.block_ids(), b.block_ids());
        assert_ne!(a.block_ids(), c.block_ids());
        let counters = pool.counters();
        assert_eq!(counters.prefix_lookups, 9);
        assert_eq!(counters.shared_hits, 3);
        // Releasing one owner keeps the shared blocks resident for the other.
        pool.release(&mut a);
        assert_eq!(pool.used_blocks(), 6);
        pool.release(&mut b);
        assert_eq!(pool.used_blocks(), 3);
        pool.release(&mut c);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn unkeyed_prefills_never_share() {
        let mut pool = BlockPool::bounded(8, 16);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        pool.prefill(&mut a, 16, None).unwrap();
        pool.prefill(&mut b, 16, None).unwrap();
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.counters().shared_hits, 0);
        assert_eq!(pool.counters().prefix_lookups, 0);
    }

    #[test]
    fn writing_into_a_shared_tail_copies_on_write() {
        let mut pool = BlockPool::bounded(8, 16);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        pool.prefill(&mut a, 20, Some(3)).unwrap(); // block 1 is a partial tail
        pool.prefill(&mut b, 20, Some(3)).unwrap();
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.blocks_needed_for_append(&a, 1), 1, "CoW needs a block");
        pool.append(&mut a, 1).unwrap();
        assert_eq!(pool.counters().cow_copies, 1);
        assert_eq!(pool.used_blocks(), 3);
        // The writers' tails diverged; the shared prefix block is still one.
        assert_eq!(a.block_ids()[0], b.block_ids()[0]);
        assert_ne!(a.block_ids()[1], b.block_ids()[1]);
        // `b` still owns the published tail exclusively now, so its write
        // retires the block from the index instead of copying.
        pool.append(&mut b, 1).unwrap();
        assert_eq!(pool.counters().cow_copies, 1);
        assert_eq!(pool.used_blocks(), 3);
        pool.release(&mut a);
        pool.release(&mut b);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn retired_prefix_blocks_are_republished_by_later_prefills() {
        let mut pool = BlockPool::bounded(8, 16);
        let mut a = BlockTable::new();
        pool.prefill(&mut a, 20, Some(5)).unwrap();
        pool.append(&mut a, 1).unwrap(); // retires the tail from the index
        let mut b = BlockTable::new();
        pool.prefill(&mut b, 20, Some(5)).unwrap();
        // The full block is shared; the tail had to be re-allocated.
        assert_eq!(pool.counters().shared_hits, 1);
        assert_eq!(a.block_ids()[0], b.block_ids()[0]);
        assert_ne!(a.block_ids()[1], b.block_ids()[1]);
        pool.release(&mut a);
        pool.release(&mut b);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn kv_pool_pairs_draft_and_target_budgets() {
        let mut pool = KvPool::bounded(4, 8);
        assert_eq!(pool.capacity_blocks(), Some(8));
        assert_eq!(pool.block_size(), 8);
        let mut draft = BlockTable::new();
        let mut target = BlockTable::new();
        pool.draft_mut().prefill(&mut draft, 8, Some(1)).unwrap();
        pool.target_mut().prefill(&mut target, 8, Some(1)).unwrap();
        // Same key, different sub-pools: no cross-model sharing.
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.counters().allocated, 2);
        assert_eq!(KvPool::unbounded(8).capacity_blocks(), None);
    }

    #[test]
    fn unbounded_pools_grow_and_recycle() {
        let mut pool = BlockPool::unbounded(4);
        let mut table = BlockTable::new();
        pool.prefill(&mut table, 40, None).unwrap();
        assert_eq!(pool.used_blocks(), 10);
        assert_eq!(pool.capacity(), None);
        assert_eq!(pool.free_blocks(), usize::MAX);
        pool.rollback(&mut table, 40); // no-op
        pool.release(&mut table);
        assert_eq!(pool.used_blocks(), 0);
        let mut again = BlockTable::new();
        pool.prefill(&mut again, 12, None).unwrap();
        assert_eq!(pool.counters().allocated, 13);
        assert_eq!(pool.blocks.len(), 10, "freed slabs are recycled");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: per-table expected position counts, mirrored through
    /// plain integers, to cross-check the pool's accounting.
    #[derive(Debug, Clone, Copy, Default)]
    struct TableModel {
        prefilled: bool,
        released: bool,
        len: usize,
        prefill: usize,
    }

    proptest! {
        /// Random multi-session lifecycles (prefill with random shared keys,
        /// append, rollback, release/preempt, re-prefill on a fresh table)
        /// never leak or double-free: used + free always equals capacity,
        /// and a fully drained pool ends with its free list equal to its
        /// capacity.
        #[test]
        fn random_lifecycles_never_leak_blocks(
            seed_ops in proptest::collection::vec(
                (0usize..4, 0usize..6, 1usize..40, 0u64..3),
                1..120,
            ),
        ) {
            const CAPACITY: usize = 64;
            const TABLES: usize = 6;
            let mut pool = BlockPool::bounded(CAPACITY, 8);
            let mut tables: Vec<BlockTable> =
                (0..TABLES).map(|_| BlockTable::new()).collect();
            let mut models = [TableModel::default(); TABLES];

            for (op, slot, amount, key) in seed_ops {
                let table = &mut tables[slot];
                let model = &mut models[slot];
                match op {
                    // Prefill (idempotently skipped once live).
                    0 if !model.prefilled => {
                        let shared = if key == 0 { None } else { Some(key) };
                        if pool.prefill(table, amount, shared).is_ok() {
                            *model = TableModel {
                                prefilled: true,
                                released: false,
                                len: amount,
                                prefill: amount,
                            };
                        }
                    }
                    // Append.
                    1 if model.prefilled
                        && !model.released
                        && pool.append(table, amount).is_ok() =>
                    {
                        model.len += amount;
                    }
                    // Rollback a random amount of the generated suffix.
                    2 if model.prefilled && !model.released => {
                        let generated = model.len - model.prefill;
                        let target = model.prefill + generated.saturating_sub(amount);
                        pool.rollback(table, target);
                        model.len = target;
                    }
                    // Release (finish or preempt), making the slot reusable.
                    3 if model.prefilled && !model.released => {
                        pool.release(table);
                        *table = BlockTable::new();
                        *model = TableModel::default();
                    }
                    _ => {}
                }
                // Accounting invariants after every operation.
                prop_assert_eq!(pool.used_blocks() + pool.free_blocks(), CAPACITY);
                prop_assert_eq!(
                    pool.counters().allocated - pool.counters().freed,
                    pool.used_blocks()
                );
                for (table, model) in tables.iter().zip(&models) {
                    if model.prefilled {
                        prop_assert_eq!(table.len(), model.len);
                        prop_assert_eq!(table.block_count(), table.len().div_ceil(8));
                    }
                }
                prop_assert!(pool.used_blocks() <= CAPACITY);
            }

            // Drain everything: the free list must return to capacity.
            for table in &mut tables {
                pool.release(table);
            }
            prop_assert_eq!(pool.used_blocks(), 0);
            prop_assert_eq!(pool.free_blocks(), CAPACITY);
            prop_assert_eq!(pool.counters().allocated, pool.counters().freed);
        }
    }
}
