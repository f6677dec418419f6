//! # moa-serve — the sharded parallel serving layer
//!
//! The paper makes top-N retrieval cheap by *horizontally fragmenting*
//! the term–document table; this crate takes that device to its parallel
//! conclusion for a serving deployment:
//!
//! * [`shard`] — [`ShardedEngine`]: document-partition the collection
//!   into P shards ([`ShardSpec`]), build one df-fragmented table and one
//!   [`moa_ir::EngineSet`] per shard (sharing a single scoring kernel),
//!   let each shard's own `moa_core` planner pick its physical operator
//!   from shard-local catalog statistics, and fold the shard-local heaps
//!   with the tie-stable k-way merge ([`moa_topn::kway_merge_sorted`]);
//! * [`pool`] — [`ShardPool`]: the persistent serving runtime — one
//!   long-lived worker thread per shard owning that shard's engine set
//!   and zero-allocation scratch arena for the life of the stream, a
//!   submission queue with batched admission ([`ShardPool::submit`] →
//!   [`BatchTicket`]), and drain-on-shutdown that hands the shards back.
//!   It is the only concurrent runtime: spawning threads per batch cost
//!   more than the queries themselves (the E16 wall regression), and
//!   E18 gates the pool against the sequential schedule [`ShardedEngine`]
//!   runs on the caller's thread;
//! * cross-shard **bound propagation** — one
//!   [`moa_ir::SharedThreshold`] per query carries each shard's running
//!   N-th score to all others, so the `would_enter`/block-max pruning
//!   gates tighten *mid-flight* off competition the shard cannot see
//!   locally (soundness argument in [`moa_ir::threshold`]);
//! * [`service`] — [`ServeSession`]: the query front end — batched
//!   [`ServeSession::submit_many`] with per-query work aggregation and
//!   wall-time accounting, the streaming pair [`ServeSession::enqueue`] /
//!   [`ServeSession::collect`] that overlaps merge and admission with
//!   shard service, and an EXPLAIN that renders the per-shard plan table.
//!
//! Exactness: for every exact physical plan, the merged sharded answer is
//! **bit-identical** to a single unsharded engine — shards score with
//! global catalog statistics ([`moa_ir::InvertedIndex::shard_by_docs`]),
//! so every `(doc, score)` pair is the same `f64` it would be unsharded,
//! and the differential oracle pins this across ranking models, N, and
//! shard counts.
//!
//! Overload and failure semantics (see DESIGN.md "Failure & overload
//! semantics"): admission is *bounded* per worker
//! ([`admission::QueueGauge`], [`AdmissionPolicy`]) so a saturated pool
//! backpressures or sheds ([`ServeError::Shed`]) instead of queueing
//! without limit; per-query *deadline budgets* degrade to exact-prefix
//! `partial` responses rather than errors; and a worker panic is
//! *isolated* — the affected positions fail typed
//! ([`ServeError::ShardFailed`]), the worker (or its respawned
//! replacement, over the retained shard) keeps serving, and shutdown
//! reports the panic history instead of re-panicking
//! ([`pool::PoolShutdown`]). The E19 resilience experiment drives all
//! three under injected faults at multiples of calibrated capacity.
//!
//! Observability (see DESIGN.md "Observability"): the pool publishes
//! every serving signal — admission counters, per-shard queue-depth
//! gauges, query/queue-wait latency histograms, panic/respawn counters —
//! through a shared [`moa_obs::MetricsRegistry`]
//! ([`ServeSession::metrics_text`] / [`ServeSession::metrics_json`]);
//! each worker records per-query [`moa_obs::QueryTrace`]s (queue wait,
//! planning, and the engine's per-stage clocks) into a preallocated ring,
//! the worst-K queries are retained with full traces in a slow-query log
//! ([`ServeSession::drain_slow_queries`]), and rare structured events
//! (panics, respawns) land in a bounded event log ([`pool::PoolEvent`]).
//! Steady-state recording allocates nothing; E20 gates the overhead.
//!
//! Cross-batch caching (see DESIGN.md "Result caching & plan
//! memoization"): [`cache`] — [`ResultCache`]: a bounded,
//! sharded-by-hash, segmented-LRU answer cache keyed by
//! `(terms, n, model, snapshot_epoch)`, consulted at admission *before*
//! the queue gauge (a hit occupies no worker slot, never sheds, and is
//! exempt from deadlines) and flash-invalidated in O(1) by
//! [`ResultCache::invalidate_epoch`]. Hits are bit-identical to fresh
//! execution (differential oracle in `tests/cache_oracle.rs`) and the
//! steady-state hit path allocates nothing (`tests/alloc_cache_hit.rs`).
//! The shard planners memoize plan decisions by df-band signature
//! ([`moa_core::Planner::plan_memoized`]); E21 measures both levels
//! under open-loop Zipf load.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod fault;
pub mod pool;
pub mod service;
pub mod shard;

pub use admission::{AdmissionPolicy, QueueGauge};
pub use cache::{approx_entry_bytes, CacheConfig, CacheStats, ResultCache};
pub use fault::{
    panic_message, silence_worker_panics, ServeError, ServeResult, ShardPanic, WorkerFault,
};
pub use pool::{
    BatchTicket, ExplainRow, PoolConfig, PoolEvent, PoolShutdown, ShardPool, SlowQuery,
};
pub use service::{BatchReport, PendingBatch, ServeConfig, ServeSession, ServeStats, ShardBusy};
pub use shard::{
    merge_columns, BatchQuery, EngineShard, QueryResponse, ServeMode, ShardColumn, ShardOutcome,
    ShardSpec, ShardedEngine,
};
