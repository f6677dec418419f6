//! Reusable per-query scratch: the zero-allocation execution arena.
//!
//! A pruned DAAT query used to allocate on every execution — a `Vec` of
//! per-term states, the per-cursor decode buffers, the candidate and
//! bound work lists, the top-N heap, and the result vector. None of those
//! allocations carries information across queries; they are pure arena
//! state. [`QueryScratch`] owns all of them as flat, capacity-retaining
//! buffers keyed by position, so after the first query at a given shape
//! (term count, N) **steady-state execution performs zero heap
//! allocations** — pinned by the counting-allocator test in
//! `crates/ir/tests/alloc_steady_state.rs`.
//!
//! One scratch serves one engine at a time: [`crate::physical::EngineSet`]
//! owns one (giving every `moa_serve` shard its own pool, since each shard
//! owns an engine set), and the standalone
//! [`crate::daat::DaatSearcher::search_into`] /
//! [`crate::daat::DaatSearcher::search_exhaustive_into`] entry points take
//! it explicitly.
//!
//! Layout note: per-term cursor state is kept *structure-of-arrays*
//! (`TermMeta` / [`CursorPos`] / [`CursorBuf`] in parallel vectors)
//! rather than as a `Vec` of combined state structs. That is what makes
//! reuse possible at all — the buffers carry no borrows of any index, so
//! they outlive queries against different indexes — and it keeps the hot
//! min-scan over current documents in one dense `u32` array.

use moa_obs::PhaseAgg;
use moa_topn::TopNHeap;

use crate::blocks::{CursorBuf, CursorPos};
use crate::scorer::TermScorer;

/// Per-query-term plain data: identity, precomputed scorer, and the
/// MaxScore bound. Cursor position and decode buffers live in the sibling
/// arrays of [`QueryScratch`] under the same position index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermMeta {
    /// The term id (block views and bound slices are re-derived from it —
    /// two offset loads — so the scratch holds no index borrows).
    pub term: u32,
    /// Position in the original query (bit-exact summation order).
    pub qpos: u32,
    /// Precomputed per-term scoring constants.
    pub scorer: TermScorer,
    /// Exact per-term posting maximum (MaxScore partition key).
    pub max_weight: f64,
    /// Start of this term's range in the bound table's flat
    /// [`crate::scorer::BlockBound`] array (resolved once per query so the
    /// per-candidate gates index directly).
    pub bounds_start: u32,
    /// Number of block bounds in the range (= number of storage blocks).
    pub bounds_len: u32,
}

/// The reusable query-execution arena. See the module docs.
#[derive(Debug)]
pub struct QueryScratch {
    /// Per-term metadata, sorted by the kernel per query.
    pub(crate) metas: Vec<TermMeta>,
    /// Per-term cursor positions, parallel to `metas`.
    pub(crate) pos: Vec<CursorPos>,
    /// Per-term block decode buffers, parallel to `metas`. Grows to the
    /// widest query seen and stays.
    pub(crate) bufs: Vec<CursorBuf>,
    /// Dense mirror of each cursor's current document (`u32::MAX` when
    /// exhausted) — the min-scan array.
    pub(crate) cur: Vec<u32>,
    /// Per-query-position contributions (original order, bit-exact sums).
    pub(crate) contrib: Vec<f64>,
    /// `prefix_bound[k]` = sum of the `k` smallest per-term bounds.
    pub(crate) prefix_bound: Vec<f64>,
    /// Matching essential cursor indices of the current candidate.
    pub(crate) matching: Vec<usize>,
    /// Mini-block-refined local bound of each matching cursor, parallel to
    /// `matching` — computed once while the gate loads the `BlockBound`,
    /// reused by the refined gate and the suffix sums without reloading.
    pub(crate) match_bound: Vec<f64>,
    /// Exact suffix bounds over the matching cursors.
    pub(crate) suffix_bound: Vec<f64>,
    /// Non-essential shallow-bound prefix sums.
    pub(crate) ne_prefix: Vec<f64>,
    /// The reusable top-N heap ([`TopNHeap::reset`] per query).
    pub(crate) heap: TopNHeap,
    /// The current query's results, best first — filled by the `_into`
    /// search entry points in place of an allocated report.
    pub out: Vec<(u32, f64)>,
    /// Per-phase wall time of the query currently (or last) served out of
    /// this arena: a plain `Copy` aggregate written at *stage boundaries*
    /// (a handful of clock reads per query, nothing per posting), reset by
    /// [`QueryScratch::begin`]. Zero-allocation like the rest of the
    /// arena — the telemetry contract is pinned alongside the execution
    /// one in `crates/ir/tests/alloc_steady_state.rs`.
    pub(crate) phases: PhaseAgg,
    /// Queries this arena has begun serving over its lifetime. Never
    /// reset: a serving worker that truly reuses one arena across a whole
    /// stream shows the stream's length here, which is how the pool
    /// teardown tests prove the scratch hand-off (worker-owned arena in,
    /// same arena back out) rather than assuming it.
    queries_begun: u64,
}

impl QueryScratch {
    /// An empty arena; buffers grow to each query shape's high-water mark
    /// on first use and are retained afterwards.
    pub fn new() -> QueryScratch {
        QueryScratch {
            metas: Vec::new(),
            pos: Vec::new(),
            bufs: Vec::new(),
            cur: Vec::new(),
            contrib: Vec::new(),
            prefix_bound: Vec::new(),
            matching: Vec::new(),
            match_bound: Vec::new(),
            suffix_bound: Vec::new(),
            ne_prefix: Vec::new(),
            heap: TopNHeap::new(0),
            out: Vec::new(),
            phases: PhaseAgg::new(),
            queries_begun: 0,
        }
    }

    /// Per-phase wall times of the most recent query served out of this
    /// arena (see [`moa_obs::Phase`] for the vocabulary).
    pub fn phases(&self) -> PhaseAgg {
        self.phases
    }

    /// Lifetime count of queries this arena has begun serving (monotone;
    /// survives across batches and worker hand-offs).
    pub fn queries_begun(&self) -> u64 {
        self.queries_begun
    }

    /// Prepare the per-term arrays for a query of `m` terms: clears the
    /// per-query state and grows the decode-buffer pool if this query is
    /// wider than any seen before.
    pub(crate) fn begin(&mut self, m: usize, n: usize) {
        self.queries_begun += 1;
        self.phases.reset();
        self.metas.clear();
        self.pos.clear();
        self.cur.clear();
        self.contrib.clear();
        self.prefix_bound.clear();
        self.matching.clear();
        self.match_bound.clear();
        self.suffix_bound.clear();
        self.ne_prefix.clear();
        if self.bufs.len() < m {
            self.bufs.resize_with(m, CursorBuf::new);
        }
        self.metas.reserve(m);
        self.pos.reserve(m);
        self.cur.reserve(m);
        self.matching.reserve(m);
        self.match_bound.reserve(m);
        self.prefix_bound.reserve(m + 1);
        self.suffix_bound.reserve(m + 1);
        self.ne_prefix.reserve(m + 1);
        self.heap.reset(n);
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch::new()
    }
}
