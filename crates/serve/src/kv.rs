//! KV-cache pool: block counts per sequence against a bounded budget.
//!
//! Both [`KvAccounting`](crate::KvAccounting) modes charge KV memory through
//! one [`KvPool`]; only the block size and the admission charge differ.
//!
//! - **Paged** blocks hold `block_tokens` tokens. A sequence holds
//!   `ceil(context / block_tokens)` of them and takes one more whenever a
//!   decoded token crosses a block boundary, instead of reserving its
//!   worst-case footprint at admission (the "static preallocation"
//!   anti-pattern).
//! - **Reserve** is the degenerate pool of one-token blocks: a request is
//!   charged `prompt_len + gen_len` blocks at admission and never grows.
//!   KV bytes are linear in the token count, so `(used + n) · token_bytes ≤
//!   budget` holds exactly when `used + n ≤ ⌊budget / token_bytes⌋`, and the
//!   block capacity decides every admission as the byte budget would.
//!
//! The pool counts blocks; it never names them. The simulation never
//! addresses KV contents, so every outcome depends on counts alone.
//!
//! Internal fragmentation is bounded by construction: a sequence wastes at
//! most one partial block (its last), so the pool-wide waste fraction is at
//! most `active_sequences * (block_tokens - 1)` tokens of capacity. Larger
//! blocks mean fewer, cheaper page-table updates but more waste; the
//! simulator defaults to 16 tokens per block
//! ([`DEFAULT_BLOCK_TOKENS`](crate::DEFAULT_BLOCK_TOKENS)), the common
//! vLLM-style choice.

use hermes_core::cast::u64_from_usize;

/// A count-only KV allocator over a bounded (or unbounded) pool of
/// fixed-size blocks: the blocks each request slot holds, the blocks held
/// outside any slot (the prefix cache's), their total and its high-water
/// mark.
///
/// `used_blocks == Σ held + blocks acquired outside a slot` at all times;
/// the proptests in `tests/kv_pool.rs` hold the pool to that conservation
/// law, to its capacity and to the fragmentation bound.
#[derive(Debug, Clone)]
pub struct KvPool {
    /// Tokens per block.
    block_tokens: usize,
    /// Bytes per block.
    block_bytes: u64,
    /// Pool capacity in blocks (`None` = unbounded).
    capacity_blocks: Option<u64>,
    /// Blocks held per request slot.
    held: Vec<u64>,
    /// Blocks currently held, by slots and outside them.
    used_blocks: u64,
    /// High-water mark of `used_blocks`.
    peak_blocks: u64,
}

impl KvPool {
    /// An empty pool of `capacity_blocks` blocks (`None` = unbounded) with
    /// `slots` empty request slots.
    pub fn new(
        block_tokens: usize,
        block_bytes: u64,
        capacity_blocks: Option<u64>,
        slots: usize,
    ) -> Self {
        assert!(block_tokens >= 1, "blocks must hold at least one token");
        KvPool {
            block_tokens,
            block_bytes,
            capacity_blocks,
            held: vec![0; slots],
            used_blocks: 0,
            peak_blocks: 0,
        }
    }

    /// Grow the pool to cover `slots` request slots (new slots hold
    /// nothing; existing slots are untouched). Lets a resumable replica
    /// accept injected requests over its lifetime instead of sizing every
    /// slot up front.
    pub fn ensure_slots(&mut self, slots: usize) {
        if self.held.len() < slots {
            self.held.resize(slots, 0);
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Pool capacity in blocks (`None` = unbounded).
    pub fn capacity_blocks(&self) -> Option<u64> {
        self.capacity_blocks
    }

    /// Blocks currently held, by request slots and outside them.
    pub fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// High-water mark of held blocks.
    pub fn peak_blocks(&self) -> u64 {
        self.peak_blocks
    }

    /// Blocks needed to hold a context of `tokens` tokens:
    /// `ceil(tokens / block_tokens)`.
    pub fn blocks_for_tokens(&self, tokens: usize) -> u64 {
        u64_from_usize(tokens.div_ceil(self.block_tokens))
    }

    /// Whether `extra` more blocks fit under the pool capacity.
    pub fn fits(&self, extra: u64) -> bool {
        match self.capacity_blocks {
            Some(cap) => self.used_blocks + extra <= cap,
            None => true,
        }
    }

    /// Blocks currently held by request slot `idx`.
    pub fn held(&self, idx: usize) -> u64 {
        self.held[idx]
    }

    /// Allocate `blocks` blocks to slot `idx`.
    ///
    /// The caller must have checked [`KvPool::fits`]; allocating past a
    /// bounded capacity is a scheduler bug.
    pub fn allocate(&mut self, idx: usize, blocks: u64) {
        self.held[idx] += blocks;
        self.acquire_blocks(blocks);
    }

    /// Allocate one more block to slot `idx` (a decoded token crossed a
    /// block boundary).
    pub fn grow(&mut self, idx: usize) {
        self.allocate(idx, 1);
    }

    /// Release every block slot `idx` holds and return how many were
    /// freed.
    pub fn release(&mut self, idx: usize) -> u64 {
        let freed = std::mem::take(&mut self.held[idx]);
        self.used_blocks -= freed;
        freed
    }

    /// Take `blocks` blocks outside any request slot.
    ///
    /// The prefix cache holds resident prefixes this way: the blocks count
    /// against `used_blocks` (and the high-water mark) like any slot's
    /// blocks, but belong to the cache rather than to a sequence. The
    /// caller must have checked [`KvPool::fits`].
    pub fn acquire_blocks(&mut self, blocks: u64) {
        debug_assert!(self.fits(blocks), "allocation past pool capacity");
        self.used_blocks += blocks;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }

    /// Return `blocks` blocks previously taken with
    /// [`KvPool::acquire_blocks`].
    pub fn surrender_blocks(&mut self, blocks: u64) {
        self.used_blocks -= blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math_is_ceiling_division() {
        let pool = KvPool::new(16, 1024, None, 0);
        assert_eq!(pool.blocks_for_tokens(0), 0);
        assert_eq!(pool.blocks_for_tokens(1), 1);
        assert_eq!(pool.blocks_for_tokens(16), 1);
        assert_eq!(pool.blocks_for_tokens(17), 2);
        assert_eq!(pool.blocks_for_tokens(32), 2);
    }

    #[test]
    fn released_blocks_are_available_again() {
        let mut pool = KvPool::new(4, 64, Some(4), 2);
        pool.allocate(0, 3);
        assert_eq!(pool.held(0), 3);
        assert_eq!(pool.used_blocks(), 3);
        assert!(!pool.fits(2));
        assert_eq!(pool.release(0), 3);
        assert_eq!(pool.held(0), 0);
        assert_eq!(pool.used_blocks(), 0);
        pool.allocate(1, 2);
        assert_eq!(pool.held(1), 2);
        assert_eq!(pool.peak_blocks(), 3);
    }

    #[test]
    fn capacity_gates_fits() {
        let mut pool = KvPool::new(4, 64, Some(2), 1);
        assert!(pool.fits(2));
        assert!(!pool.fits(3));
        pool.allocate(0, 2);
        assert!(!pool.fits(1));
        let unbounded = KvPool::new(4, 64, None, 1);
        assert!(unbounded.fits(u64::MAX / 2));
    }

    #[test]
    fn acquired_blocks_count_against_capacity_until_surrendered() {
        let mut pool = KvPool::new(4, 64, Some(4), 1);
        pool.acquire_blocks(3);
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.held(0), 0);
        assert!(pool.fits(1));
        assert!(!pool.fits(2));
        pool.surrender_blocks(3);
        assert_eq!(pool.used_blocks(), 0);
        pool.allocate(0, 2);
        assert_eq!(pool.peak_blocks(), 3);
    }

    #[test]
    fn grow_adds_one_block() {
        let mut pool = KvPool::new(2, 32, None, 1);
        pool.allocate(0, 1);
        pool.grow(0);
        assert_eq!(pool.held(0), 2);
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.peak_blocks(), 2);
    }
}
