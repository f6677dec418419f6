//! Document-partitioned shard execution.
//!
//! [`ShardedEngine`] takes the paper's horizontal fragmentation to its
//! parallel conclusion: the collection is *document*-partitioned into P
//! shards, each shard gets its own df-fragmented term–document table and
//! [`EngineSet`] (all four physical paths), and a query runs on every
//! shard. The engine executes shards one after another on the caller's
//! thread ([`ShardedEngine::execute_batch_sequential`]) — the
//! deterministic bit-identity reference. Concurrent serving hands the
//! same [`EngineShard`]s to the persistent worker pool
//! ([`ShardedEngine::into_parts`] → [`crate::pool::ShardPool`]), which
//! runs the same per-shard column loop and the same [`merge_columns`].
//! Three properties make the merged answer bit-identical to a single
//! unsharded engine:
//!
//! 1. **Global catalog, local postings** —
//!    [`InvertedIndex::shard_by_docs`] keeps every ranking-model input
//!    (df, cf, document lengths, collection stats) collection-wide, so a
//!    document scores to the identical `f64` on its shard as it would
//!    unsharded; one [`moa_ir::ScoreKernel`] is shared by all shards.
//! 2. **Tie-stable merge** — shard-local heaps keep their partition's
//!    top N; [`moa_topn::kway_merge_sorted`] folds them under the same
//!    (score desc, id asc) order every engine path uses.
//! 3. **Sound cross-shard pruning** — a shard whose heap holds N entries
//!    of score ≥ t has proven the *global* N-th score is ≥ t, so the
//!    propagated [`SharedThreshold`] only ever prunes documents that
//!    cannot appear in the merged top-N (see [`moa_ir::threshold`]).
//!
//! Each shard's [`EngineSet`] owns its own `moa_ir::QueryScratch` — the
//! zero-allocation query arena of the block-compressed posting layout —
//! so a serving deployment gets one scratch arena per shard worker for
//! free: workers never contend on allocator locks in steady state, and a
//! batch's queries reuse the same cursor decode buffers and heap storage
//! across the whole batch.
//!
//! Per-shard physical planning falls out of the same construction: each
//! shard owns a `moa_core` [`Planner`] fed by *shard-local* work figures
//! (`run_len`-based query volumes, shard fragment volumes), so a shard
//! where the query's terms are barely resident may legitimately pick a
//! different operator than a posting-heavy shard — and each shard's
//! measured [`ExecReport`] calibrates only its own planner.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_core::{Planner, Result};
use moa_ir::{
    BoundGate, EngineSet, ExecReport, FragmentSpec, FragmentedIndex, InvertedIndex, PhysicalPlan,
    RankingModel, ScoreKernel, SharedThreshold, SwitchPolicy,
};
use moa_obs::{Phase, PhaseAgg};
use moa_topn::kway_merge_sorted;

use crate::fault::{ServeError, ServeResult};

/// One shard's result column for a batch: entry `i` answers query `i`.
/// Produced by the worker pool and the sequential path alike; folded per
/// query by [`merge_columns`].
pub type ShardColumn = Vec<ServeResult<ShardOutcome>>;

/// How documents are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Contiguous document ranges: shard `s` holds docs
    /// `[s·⌈D/P⌉, (s+1)·⌈D/P⌉)`. Keeps each shard's posting runs dense in
    /// document id, which is what the block-max tables and galloping
    /// skips like best.
    Range {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// Round-robin by document id (`doc % P`): spreads hot documents
    /// evenly but interleaves every run across all shards.
    RoundRobin {
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

impl ShardSpec {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        match *self {
            ShardSpec::Range { shards } | ShardSpec::RoundRobin { shards } => shards.max(1),
        }
    }

    /// The shard a document belongs to.
    pub fn shard_of(&self, doc: u32, num_docs: usize) -> usize {
        let p = self.shards();
        match *self {
            ShardSpec::Range { .. } => {
                let span = num_docs.div_ceil(p).max(1);
                ((doc as usize) / span).min(p - 1)
            }
            ShardSpec::RoundRobin { .. } => (doc as usize) % p,
        }
    }

    /// A short human-readable partition label for EXPLAIN output.
    pub fn describe(&self) -> String {
        match *self {
            ShardSpec::Range { shards } => format!("range x{shards}"),
            ShardSpec::RoundRobin { shards } => format!("round-robin x{shards}"),
        }
    }
}

/// How each shard picks its physical operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeMode {
    /// Every shard's own cost-driven planner picks per query (and
    /// calibrates off the shard's measured counters).
    Planned,
    /// Pin one physical plan on every shard (differential testing,
    /// ablations).
    Fixed(PhysicalPlan),
}

/// One query of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQuery {
    /// Bag-of-terms query (term ids; duplicates score twice).
    pub terms: Vec<u32>,
    /// Ranking depth.
    pub n: usize,
}

/// What one shard did for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The shard.
    pub shard: usize,
    /// The physical operator the shard executed.
    pub plan: PhysicalPlan,
    /// The shard planner's cost estimate for that operator (`None` under
    /// [`ServeMode::Fixed`], where nothing was priced).
    pub est_cost: Option<f64>,
    /// The shard-local execution report (its `top` is the shard's local
    /// heap, *before* the cross-shard merge).
    pub report: ExecReport,
    /// The shard's busy time for this query (planning + execution on the
    /// shard thread). Summed per shard over a batch, the maximum across
    /// shards is the batch's *critical path* — the wall-clock a deployment
    /// with at least one core per shard converges to.
    pub busy: Duration,
    /// Per-stage wall clocks for this query: planning, then the engine's
    /// own stage attribution (gate pass / decode / score / merge for the
    /// DAAT paths; one coarse score span for the set-at-a-time and
    /// fragmented paths). A `Copy` aggregate — carrying it here allocates
    /// nothing.
    pub phases: PhaseAgg,
    /// Whether the shard's planner answered from its plan memo instead
    /// of re-walking every alternative (always `false` under
    /// [`ServeMode::Fixed`]). Feeds `ServeStats::plans_memoized` and the
    /// `serve.plan_memo_hits` counter.
    pub memo_hit: bool,
}

/// The merged answer for one query.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct QueryResponse {
    /// The global top `(doc, score)` ranking, best first — bit-identical
    /// to a single unsharded engine executing an exact plan.
    pub top: Vec<(u32, f64)>,
    /// Work counters absorbed across every shard (`top` is left to the
    /// merged ranking above).
    pub work: ExecReport,
    /// Whether any shard ran out of its deadline budget: `top` is an
    /// exact *prefix* of the full answer — every `(doc, score)` in it is
    /// bit-exact, but documents a timed-out shard never reached may be
    /// missing. `work` counts only work actually performed. Not an
    /// error: a partial ranking under overload is the service degrading
    /// honestly (see `moa_ir::deadline`).
    pub partial: bool,
    /// Per-shard operator choices and reports.
    pub shards: Vec<ShardOutcome>,
}

/// One document-partition shard: its fragmented table, engine set, and
/// cost planner.
pub struct EngineShard {
    id: usize,
    frag: Arc<FragmentedIndex>,
    engines: EngineSet,
    planner: Planner,
}

impl EngineShard {
    /// The shard's id (its position in the partition).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's fragmented index (shard-resident postings, global
    /// catalog statistics).
    pub fn fragments(&self) -> &Arc<FragmentedIndex> {
        &self.frag
    }

    /// The shard's planner (per-shard calibration state).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Shard-resident posting volume.
    pub fn num_postings(&self) -> usize {
        self.frag.index().num_postings()
    }

    /// Price a query on this shard without executing it.
    pub fn plan(&self, terms: &[u32], n: usize) -> Result<moa_core::PlanDecision> {
        self.planner.plan(
            terms,
            n,
            &self.frag,
            self.engines.model(),
            self.engines.policy(),
        )
    }

    /// Price a query through the shard planner's bounded plan memo
    /// ([`moa_core::Planner::plan_memoized`]): repeated df-band query
    /// classes skip the full alternative walk. Returns the decision and
    /// whether the memo answered it.
    pub fn plan_memoized(
        &mut self,
        terms: &[u32],
        n: usize,
    ) -> Result<(moa_core::PlanDecision, bool)> {
        self.planner.plan_memoized(
            terms,
            n,
            &self.frag,
            self.engines.model(),
            self.engines.policy(),
        )
    }

    /// Lifetime count of DAAT queries served out of this shard's owned
    /// scratch arena (see [`EngineSet::scratch_queries`]) — the pool
    /// teardown tests read this off the shards handed back by
    /// [`crate::pool::ShardPool::shutdown`] to prove one arena served the
    /// whole stream.
    pub fn scratch_queries(&self) -> u64 {
        self.engines.scratch_queries()
    }

    /// Execute one query on this shard under `mode`, pruning and
    /// publishing through `gate`.
    pub(crate) fn run_one(
        &mut self,
        query: &BatchQuery,
        mode: ServeMode,
        gate: &BoundGate,
    ) -> Result<ShardOutcome> {
        let t0 = Instant::now();
        let (plan, est_cost, profile, memo_hit) = match mode {
            ServeMode::Fixed(plan) => (plan, None, None, false),
            ServeMode::Planned => {
                let (decision, memo_hit) = self.plan_memoized(&query.terms, query.n)?;
                let est = decision.chosen_alternative().cost;
                (decision.chosen, Some(est), Some(decision.profile), memo_hit)
            }
        };
        let plan_wall = t0.elapsed();
        let report = self
            .engines
            .execute_gated(plan, &query.terms, query.n, gate)?;
        // Stage clocks: the engine recorded its own execution stages into
        // the scratch arena; prepend the planning span observed here.
        let mut phases = PhaseAgg::new();
        phases.add(Phase::Plan, plan_wall);
        phases.merge(&self.engines.last_phases());
        if let Some(profile) = profile {
            // Close the calibration loop with this shard's own
            // measurement; other shards learn from their own. A partial
            // (deadline-expired) report is truncated work, not a
            // measurement of the operator — feeding it to the planner
            // would teach it that overloaded plans are cheap.
            if !report.partial {
                self.planner.observe(plan, &profile, &report);
            }
        }
        Ok(ShardOutcome {
            shard: self.id,
            plan,
            est_cost,
            report,
            busy: t0.elapsed(),
            phases,
            memo_hit,
        })
    }

    /// Reset the shard's per-query execution scratch after a caught
    /// panic: the epoch accumulators retire (O(1) epoch bump — any
    /// half-written partial sums become stale), leaving the shard ready
    /// for its next query. Index, planner calibration, and arena
    /// capacity are untouched.
    pub(crate) fn recover(&mut self) {
        self.engines.reset_execution_state();
    }
}

/// A document-partitioned retrieval engine: P shards executed one after
/// another on the caller's thread, with optional cross-shard threshold
/// propagation. The bit-identity reference for the worker pool, which
/// takes over its shards for concurrent serving.
pub struct ShardedEngine {
    shards: Vec<EngineShard>,
    spec: ShardSpec,
    index: Arc<InvertedIndex>,
    kernel: Arc<ScoreKernel>,
}

impl ShardedEngine {
    /// Partition `index` into shards and build one engine set (plus one
    /// planner) per shard. The scoring kernel is built once from the
    /// unsharded index and shared — shards carry the identical global
    /// statistics, so per-shard kernels would be bit-for-bit copies.
    /// `sparse_block` additionally builds each shard fragment's non-dense
    /// index with that block size (making the indexed fragmented plans
    /// feasible for the per-shard planners).
    pub fn build(
        index: Arc<InvertedIndex>,
        shard_spec: ShardSpec,
        frag_spec: FragmentSpec,
        model: RankingModel,
        policy: SwitchPolicy,
        sparse_block: Option<usize>,
    ) -> Result<ShardedEngine> {
        let kernel = Arc::new(ScoreKernel::new(model, &index));
        let p = shard_spec.shards();
        let num_docs = index.num_docs();
        let mut shards = Vec::with_capacity(p);
        // One pass over the postings partitions all P shards at once.
        let shard_indexes = index.shard_by_docs_multi(p, |d| shard_spec.shard_of(d, num_docs));
        for (s, shard_index) in shard_indexes.into_iter().enumerate() {
            let mut frag = FragmentedIndex::build(Arc::new(shard_index), frag_spec)?;
            if let Some(block) = sparse_block {
                frag.fragment_a_mut().build_sparse_index(block)?;
                frag.fragment_b_mut().build_sparse_index(block)?;
            }
            let frag = Arc::new(frag);
            let engines = EngineSet::with_kernel(Arc::clone(&frag), Arc::clone(&kernel), policy);
            shards.push(EngineShard {
                id: s,
                frag,
                engines,
                planner: Planner::default(),
            });
        }
        Ok(ShardedEngine {
            shards,
            spec: shard_spec,
            index,
            kernel,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning in force.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The unsharded source index.
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// The ranking model every shard scores with.
    pub fn model(&self) -> RankingModel {
        self.kernel.model()
    }

    /// The shards (planner state, fragment geometry, volumes).
    pub fn shards(&self) -> &[EngineShard] {
        &self.shards
    }

    /// Execute one query across all shards. See
    /// [`ShardedEngine::execute_batch_sequential`].
    pub fn execute(
        &mut self,
        terms: &[u32],
        n: usize,
        mode: ServeMode,
        propagate: bool,
    ) -> ServeResult<QueryResponse> {
        let queries = [BatchQuery {
            terms: terms.to_vec(),
            n,
        }];
        let mut responses = self.execute_batch_sequential(&queries, mode, propagate)?;
        Ok(responses.pop().expect("one response per submitted query"))
    }

    /// Execute a batch of queries on the caller's thread: shards run one
    /// after another in shard order, and each query's shard-local heaps
    /// are folded with the tie-stable k-way merge. With `propagate`,
    /// every query gets one [`SharedThreshold`] that later shards prune
    /// against; without it, shards run oblivious of each other (the
    /// ablation E16 measures). Thresholds published by earlier shards
    /// reach later shards deterministically, so work counters and
    /// per-shard busy times are *reproducible* — the bit-identity
    /// reference the worker pool is tested against and the profiling
    /// mode E16 uses for its committed figures.
    pub fn execute_batch_sequential(
        &mut self,
        queries: &[BatchQuery],
        mode: ServeMode,
        propagate: bool,
    ) -> ServeResult<Vec<QueryResponse>> {
        // With one shard there is no peer to propagate to or from:
        // the gate would only echo the local heap at atomic-load cost.
        let gates = gates(queries, propagate && self.shards.len() > 1);
        let per_shard: Vec<ShardColumn> = self
            .shards
            .iter_mut()
            .map(|shard| {
                queries
                    .iter()
                    .enumerate()
                    .map(|(qi, q)| {
                        shard
                            .run_one(q, mode, &gates[qi])
                            .map_err(ServeError::Engine)
                    })
                    .collect()
            })
            .collect();
        merge_columns(queries, per_shard).into_iter().collect()
    }

    /// Decompose the engine into its owned shards plus the shared
    /// construction artifacts. This is the hand-off into
    /// [`crate::pool::ShardPool`]: each [`EngineShard`] (and with it the
    /// shard's engine set, planner, and scratch arena) moves onto its own
    /// long-lived worker thread, and [`crate::pool::ShardPool::shutdown`]
    /// hands the same shards back.
    pub fn into_parts(
        self,
    ) -> (
        Vec<EngineShard>,
        ShardSpec,
        Arc<InvertedIndex>,
        Arc<ScoreKernel>,
    ) {
        (self.shards, self.spec, self.index, self.kernel)
    }
}

/// One gate per query: shared thresholds under propagation, inert gates
/// otherwise.
pub(crate) fn gates(queries: &[BatchQuery], propagate: bool) -> Vec<BoundGate> {
    queries
        .iter()
        .map(|_| {
            if propagate {
                BoundGate::shared(Arc::new(SharedThreshold::new()))
            } else {
                BoundGate::none()
            }
        })
        .collect()
}

/// Fold per-shard outcome columns into per-query results: tie-stable
/// k-way merge of the shard-local heaps plus counter aggregation. Shared
/// by the sequential reference path and the worker pool (whose tickets
/// expose the raw columns so callers may defer this merge off the
/// service critical path).
///
/// Failures are **per query**: a query every shard answered merges into
/// an `Ok` response even when its batch-mates failed, and a failed
/// query reports the first error in shard order (engine errors and
/// shard-panic failures alike) without taking its neighbours down. A
/// response is `partial` iff any shard's report was (deadline expiry) —
/// its `top` is then an exact prefix, not the full answer.
pub fn merge_columns(
    queries: &[BatchQuery],
    mut per_shard: Vec<ShardColumn>,
) -> Vec<ServeResult<QueryResponse>> {
    let mut responses = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let mut outcomes = Vec::with_capacity(per_shard.len());
        let mut failure: Option<ServeError> = None;
        for shard_results in &mut per_shard {
            // Take ownership of this query's outcome from the shard's
            // result column.
            let outcome = std::mem::replace(
                &mut shard_results[qi],
                Err(ServeError::Engine(moa_core::CoreError::Type(
                    "outcome already taken".into(),
                ))),
            );
            match outcome {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    if failure.is_none() {
                        failure = Some(e);
                    }
                }
            }
        }
        if let Some(e) = failure {
            responses.push(Err(e));
            continue;
        }
        let lists: Vec<&[(u32, f64)]> = outcomes.iter().map(|o| o.report.top.as_slice()).collect();
        let top = kway_merge_sorted(&lists, q.n);
        let mut work = ExecReport::default();
        for o in &outcomes {
            work.absorb(&o.report);
        }
        let partial = work.partial;
        responses.push(Ok(QueryResponse {
            top,
            work,
            partial,
            shards: outcomes,
        }));
    }
    responses
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::{generate_queries, Collection, CollectionConfig, QueryConfig};
    use moa_ir::Strategy;

    fn fixture() -> (Collection, Arc<InvertedIndex>) {
        let c = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        (c, idx)
    }

    fn engine(idx: &Arc<InvertedIndex>, spec: ShardSpec) -> ShardedEngine {
        ShardedEngine::build(
            Arc::clone(idx),
            spec,
            FragmentSpec::TermFraction(0.9),
            RankingModel::default(),
            SwitchPolicy::default(),
            Some(64),
        )
        .expect("tiny index shards cleanly")
    }

    #[test]
    fn shard_of_partitions_every_document_exactly_once() {
        for spec in [
            ShardSpec::Range { shards: 4 },
            ShardSpec::RoundRobin { shards: 4 },
            ShardSpec::Range { shards: 1 },
        ] {
            for num_docs in [1usize, 7, 64, 100] {
                let mut counts = vec![0usize; spec.shards()];
                for d in 0..num_docs as u32 {
                    counts[spec.shard_of(d, num_docs)] += 1;
                }
                assert_eq!(counts.iter().sum::<usize>(), num_docs);
                if let ShardSpec::Range { .. } = spec {
                    // Ranges are balanced to within the ceiling span.
                    let span = num_docs.div_ceil(spec.shards());
                    assert!(counts.iter().all(|&c| c <= span), "{spec:?} {num_docs}");
                }
            }
        }
    }

    #[test]
    fn shard_volumes_partition_the_index() {
        let (_, idx) = fixture();
        for spec in [
            ShardSpec::Range { shards: 3 },
            ShardSpec::RoundRobin { shards: 3 },
        ] {
            let eng = engine(&idx, spec);
            let total: usize = eng.shards().iter().map(EngineShard::num_postings).sum();
            assert_eq!(total, idx.num_postings(), "{spec:?}");
        }
    }

    #[test]
    fn sharded_planned_matches_single_shard_planned() {
        let (c, idx) = fixture();
        let mut single = engine(&idx, ShardSpec::Range { shards: 1 });
        let mut sharded = engine(&idx, ShardSpec::Range { shards: 4 });
        let queries = generate_queries(&c, &QueryConfig::default()).expect("valid workload");
        for q in queries.iter().take(10) {
            for n in [1usize, 10, c.num_docs()] {
                let want = single
                    .execute(&q.terms, n, ServeMode::Planned, false)
                    .expect("in-vocabulary query");
                let got = sharded
                    .execute(&q.terms, n, ServeMode::Planned, true)
                    .expect("in-vocabulary query");
                assert_eq!(got.top, want.top, "terms {:?} n {n}", q.terms);
                assert_eq!(got.shards.len(), 4);
            }
        }
    }

    #[test]
    fn fixed_mode_pins_the_same_plan_on_every_shard() {
        let (c, idx) = fixture();
        let mut sharded = engine(&idx, ShardSpec::RoundRobin { shards: 3 });
        let queries = generate_queries(&c, &QueryConfig::default()).expect("valid workload");
        let plan = PhysicalPlan::Fragmented(Strategy::FullScan);
        let resp = sharded
            .execute(&queries[0].terms, 5, ServeMode::Fixed(plan), false)
            .expect("in-vocabulary query");
        for o in &resp.shards {
            assert_eq!(o.plan, plan);
            assert_eq!(o.est_cost, None);
        }
        // A full scan's combined inspection volume covers every shard's
        // whole table: the partition sums back to the collection volume.
        assert_eq!(resp.work.postings_scanned, idx.num_postings());
    }

    #[test]
    fn batch_matches_sequential_submits() {
        let (c, idx) = fixture();
        let queries = generate_queries(&c, &QueryConfig::default()).expect("valid workload");
        let batch: Vec<BatchQuery> = queries
            .iter()
            .take(8)
            .map(|q| BatchQuery {
                terms: q.terms.clone(),
                n: 10,
            })
            .collect();
        let mut a = engine(&idx, ShardSpec::Range { shards: 2 });
        let batched = a
            .execute_batch_sequential(&batch, ServeMode::Planned, true)
            .expect("in-vocabulary batch");
        let mut b = engine(&idx, ShardSpec::Range { shards: 2 });
        for (i, q) in batch.iter().enumerate() {
            let one = b
                .execute(&q.terms, q.n, ServeMode::Planned, true)
                .expect("in-vocabulary query");
            assert_eq!(batched[i].top, one.top, "query {i}");
        }
    }

    #[test]
    fn unknown_term_errors_and_empty_query_is_empty() {
        let (_, idx) = fixture();
        let mut eng = engine(&idx, ShardSpec::Range { shards: 2 });
        assert!(eng
            .execute(&[u32::MAX], 5, ServeMode::Planned, true)
            .is_err());
        let resp = eng
            .execute(&[], 5, ServeMode::Planned, true)
            .expect("empty query is legal");
        assert!(resp.top.is_empty());
        assert_eq!(resp.work.postings_scanned, 0);
    }

    #[test]
    fn propagation_never_changes_answers_only_work() {
        let (c, idx) = fixture();
        let queries = generate_queries(&c, &QueryConfig::default()).expect("valid workload");
        let mut with = engine(&idx, ShardSpec::Range { shards: 4 });
        let mut without = engine(&idx, ShardSpec::Range { shards: 4 });
        let mut scanned_with = 0usize;
        let mut scanned_without = 0usize;
        for q in queries.iter().take(12) {
            let a = with
                .execute(
                    &q.terms,
                    10,
                    ServeMode::Fixed(PhysicalPlan::PrunedDaat),
                    true,
                )
                .expect("in-vocabulary query");
            let b = without
                .execute(
                    &q.terms,
                    10,
                    ServeMode::Fixed(PhysicalPlan::PrunedDaat),
                    false,
                )
                .expect("in-vocabulary query");
            assert_eq!(a.top, b.top, "terms {:?}", q.terms);
            scanned_with += a.work.postings_scanned;
            scanned_without += b.work.postings_scanned;
        }
        assert!(
            scanned_with <= scanned_without,
            "propagation increased work: {scanned_with} > {scanned_without}"
        );
    }
}
