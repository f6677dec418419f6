//! The deterministic counting pass: no timers and fixed batch
//! boundaries, so every count repeats exactly between runs of one seed.
//!
//! Cache and coalescing counts come from `submit_many` on fixed batches
//! (the cache is consulted and filled only by this thread, in order).
//! Engine and planner counts come from `submit_many_sequential`, which
//! runs the shards one after another so threshold propagation, and with
//! it every posting scanned, follows a fixed order.

use std::sync::Arc;

use moa_ir::{InvertedIndex, PhysicalPlan};
use moa_serve::{BatchQuery, ServeConfig, ServeSession};

use crate::oracle::Oracle;
use crate::workload::Inputs;

/// Queries per counting batch.
pub const BATCH: usize = 16;
/// Arrivals of the cache counting pass.
pub const CACHE_ARRIVALS: usize = 2048;
/// Arrivals of the engine counting pass.
pub const ENGINE_ARRIVALS: usize = 512;
/// With invalidations, the cache pass invalidates every this many arrivals.
pub const INVALIDATE_EVERY: usize = 512;

/// Counts of one counting pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Arrivals of the cache pass.
    pub cache_arrivals: u64,
    /// Cache hits over the cache pass.
    pub cache_hits: u64,
    /// Cache inserts over the cache pass.
    pub cache_inserts: u64,
    /// Cache evictions over the cache pass.
    pub cache_evictions: u64,
    /// Positions answered by another position's execution.
    pub coalesced: u64,
    /// Arrivals of the engine pass.
    pub engine_arrivals: u64,
    /// Postings scanned over the engine pass.
    pub postings: u64,
    /// Postings bypassed without scoring over the engine pass.
    pub skipped: u64,
    /// Answer entries returned over the engine pass.
    pub results: u64,
    /// Shard outcomes of the engine pass.
    pub shard_outcomes: u64,
    /// Shard outcomes planned from the plan memo.
    pub memo_hits: u64,
    /// Picks per plan family (see [`plan_family`]).
    pub picks: [u64; 4],
    /// Answers of either pass that differ from the oracle or failed.
    pub wrong: u64,
}

/// The index of a plan's family in [`Counts::picks`]: pruned DAAT,
/// set-at-a-time, exhaustive DAAT, fragmented.
pub fn plan_family(plan: PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::PrunedDaat => 0,
        PhysicalPlan::SetAtATime => 1,
        PhysicalPlan::ExhaustiveDaat => 2,
        PhysicalPlan::Fragmented(_) => 3,
    }
}

fn batch_of(inputs: &Inputs, ids: &[u32]) -> Vec<BatchQuery> {
    ids.iter()
        .map(|&q| inputs.queries[q as usize].clone())
        .collect()
}

/// Run both counting passes on fresh sessions over `index`.
pub fn run(
    index: &Arc<InvertedIndex>,
    config: ServeConfig,
    inputs: &Inputs,
    invalidate: bool,
    oracle: &Oracle,
) -> Result<Counts, String> {
    let mut c = Counts::default();
    let check = |ids: &[u32], responses: &[moa_serve::ServeResult<moa_serve::QueryResponse>]| {
        let mut wrong = 0u64;
        for (&q, r) in ids.iter().zip(responses) {
            match r {
                Ok(r) if !r.partial && oracle.matches(q, &r.top) => {}
                _ => wrong += 1,
            }
        }
        wrong
    };

    let mut session = ServeSession::new(Arc::clone(index), config)
        .map_err(|e| format!("counting session: {e}"))?;
    for ids in inputs.warmup.chunks(BATCH) {
        let report = session
            .submit_many(&batch_of(inputs, ids))
            .map_err(|e| format!("counting warm-up: {e}"))?;
        c.wrong += check(ids, &report.responses);
    }
    let cache = session
        .result_cache()
        .ok_or("counting session has no result cache")?;
    let before = (cache.stats(), session.stats());
    let arrivals = &inputs.stream[..CACHE_ARRIVALS.min(inputs.stream.len())];
    for (i, ids) in arrivals.chunks(BATCH).enumerate() {
        if invalidate && i > 0 && (i * BATCH).is_multiple_of(INVALIDATE_EVERY) {
            let _ = session.invalidate_epoch();
        }
        let report = session
            .submit_many(&batch_of(inputs, ids))
            .map_err(|e| format!("counting pass: {e}"))?;
        c.wrong += check(ids, &report.responses);
    }
    let cache = session.result_cache().expect("checked above");
    let after = (cache.stats(), session.stats());
    c.cache_arrivals = arrivals.len() as u64;
    c.cache_hits = after.0.hits - before.0.hits;
    c.cache_inserts = after.0.insertions - before.0.insertions;
    c.cache_evictions = after.0.evictions - before.0.evictions;
    c.coalesced = (after.1.queries_coalesced - before.1.queries_coalesced) as u64;
    drop(session);

    let mut session = ServeSession::new(Arc::clone(index), config)
        .map_err(|e| format!("counting session: {e}"))?;
    let arrivals = &inputs.stream[..ENGINE_ARRIVALS.min(inputs.stream.len())];
    for ids in arrivals.chunks(BATCH) {
        let report = session.submit_many_sequential(&batch_of(inputs, ids));
        c.wrong += check(ids, &report.responses);
        for r in report.ok_responses() {
            c.postings += r.work.postings_scanned as u64;
            c.skipped += r.work.docs_skipped as u64;
            c.results += r.top.len() as u64;
            for o in &r.shards {
                c.shard_outcomes += 1;
                c.memo_hits += u64::from(o.memo_hit);
                c.picks[plan_family(o.plan)] += 1;
            }
        }
    }
    c.engine_arrivals = arrivals.len() as u64;
    Ok(c)
}
