//! The physical retrieval layer: one operator interface over all four
//! engine paths.
//!
//! The paper's Step 3 asks for a *centralized* cost model that picks the
//! execution strategy. That is only possible when the strategies are
//! interchangeable behind one interface — before this layer, the
//! MaxScore-pruned DAAT kernel, the exhaustive cursor merge, the
//! set-at-a-time [`Searcher`], and the fragmented [`FragSearcher`] lived
//! behind four incompatible APIs and were chosen by hand per experiment.
//!
//! * [`PhysicalPlan`] names every physical alternative (the Cascades-style
//!   physical side of the logical `rank` operator),
//! * [`RetrievalOp`] is the uniform executable operator: every engine path
//!   implements it and yields an [`ExecReport`] with unified work counters,
//! * [`EngineSet`] owns the shared per-index state (one [`ScoreKernel`],
//!   one lazily built [`ScoreBounds`], one accumulator, one
//!   [`FragSearcher`]) and executes whichever plan the
//!   `moa_core::planner` — or a caller directly — selects.
//!
//! Every *exact* plan returns a top-N that is bit-identical to the naive
//! full-scan oracle: all paths score through the same kernel and sum
//! per-document contributions in original query-position order.

use std::sync::{Arc, OnceLock};

use crate::accum::EpochAccumulator;
use crate::daat::{DaatReport, DaatSearcher, DaatStats};
use crate::error::Result;
use crate::eval::{SearchReport, Searcher};
use crate::fragment::{FragSearchReport, FragSearcher, FragmentedIndex, Strategy};
use crate::ranking::RankingModel;
use crate::safety::SwitchPolicy;
use crate::scorer::{ScoreBounds, ScoreKernel};
use crate::scratch::QueryScratch;
use crate::threshold::BoundGate;

/// A physical retrieval alternative — the plan enumeration space of the
/// cost-driven planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// MaxScore + block-max pruned document-at-a-time evaluation.
    PrunedDaat,
    /// The plain exhaustive cursor merge.
    ExhaustiveDaat,
    /// Set-at-a-time accumulation over the element-addressable index.
    SetAtATime,
    /// Set-based evaluation over the fragmented term–document table.
    Fragmented(Strategy),
}

impl PhysicalPlan {
    /// Every enumerable plan, in the planner's tie-breaking preference
    /// order (earlier wins on equal cost).
    pub const ALL: [PhysicalPlan; 8] = [
        PhysicalPlan::PrunedDaat,
        PhysicalPlan::SetAtATime,
        PhysicalPlan::ExhaustiveDaat,
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }),
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: false }),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: false }),
        PhysicalPlan::Fragmented(Strategy::FullScan),
    ];

    /// The operator's display name (stable, used by EXPLAIN and the
    /// benchmark JSON).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::PrunedDaat => "pruned_daat",
            PhysicalPlan::ExhaustiveDaat => "exhaustive_daat",
            PhysicalPlan::SetAtATime => "set_at_a_time",
            PhysicalPlan::Fragmented(Strategy::FullScan) => "frag_full_scan",
            PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: false }) => "frag_a_only",
            PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }) => {
                "frag_a_only_indexed"
            }
            PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: false }) => "frag_switch",
            PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }) => {
                "frag_switch_indexed"
            }
        }
    }
}

/// Unified execution counters shared by every engine path. The same five
/// work measures mean the same thing everywhere, so the planner's
/// predictions — and the calibration loop feeding measurements back into
/// the cost weights — compare like with like.
#[derive(Debug, Clone, PartialEq, Default)]
#[must_use]
pub struct ExecReport {
    /// Top `(doc, score)` pairs, best first (score desc, doc id asc).
    pub top: Vec<(u32, f64)>,
    /// Elements inspected: postings scored on the cursor/accumulator
    /// paths, table entries inspected on the fragmented paths.
    pub postings_scanned: usize,
    /// Elements bypassed without scoring (galloping skips, pruned tails,
    /// bound-pruned probes).
    pub docs_skipped: usize,
    /// Skip operations issued (galloping cursor seeks, sparse-index range
    /// lookups).
    pub seeks: usize,
    /// Bound tests that pruned work (candidate gates, abandoned documents).
    pub bound_exits: usize,
    /// Documents whose exact score was computed and offered to the top-N
    /// heap.
    pub candidates: usize,
    /// Whether the evaluation was truncated by an expired per-query
    /// deadline ([`crate::deadline::DeadlineGate`]): `top` holds only
    /// exactly scored documents found before expiry, and the counters
    /// describe the work actually performed — never the work skipped by
    /// truncation.
    pub partial: bool,
}

impl ExecReport {
    /// Fold another report's counters into this one (the `top` ranking is
    /// left untouched) — the aggregation primitive the experiments use
    /// instead of copying fields by hand. Partiality is sticky: an
    /// aggregate over any truncated execution is itself partial.
    ///
    /// Saturating: a sustained-load run folds millions of reports into
    /// one ledger, and on a 32-bit `usize` that can genuinely reach the
    /// ceiling — an aggregate that clamps at `usize::MAX` reads as "at
    /// least this much work", where a wrapped one silently reads as
    /// almost none.
    pub fn absorb(&mut self, other: &ExecReport) {
        self.postings_scanned = self.postings_scanned.saturating_add(other.postings_scanned);
        self.docs_skipped = self.docs_skipped.saturating_add(other.docs_skipped);
        self.seeks = self.seeks.saturating_add(other.seeks);
        self.bound_exits = self.bound_exits.saturating_add(other.bound_exits);
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.partial |= other.partial;
    }
}

impl From<DaatReport> for ExecReport {
    fn from(r: DaatReport) -> ExecReport {
        ExecReport {
            top: r.top,
            postings_scanned: r.postings_scanned,
            docs_skipped: r.docs_skipped,
            seeks: r.seeks,
            bound_exits: r.bound_exits,
            candidates: r.candidates,
            partial: r.timed_out,
        }
    }
}

impl DaatStats {
    /// Pair scratch-path counters with an owned ranking into the unified
    /// report shape.
    fn with_top(self, top: Vec<(u32, f64)>) -> ExecReport {
        ExecReport {
            top,
            postings_scanned: self.postings_scanned,
            docs_skipped: self.docs_skipped,
            seeks: self.seeks,
            bound_exits: self.bound_exits,
            candidates: self.candidates,
            partial: self.timed_out,
        }
    }
}

impl From<SearchReport> for ExecReport {
    fn from(r: SearchReport) -> ExecReport {
        ExecReport {
            top: r.top,
            postings_scanned: r.postings_scanned,
            docs_skipped: 0,
            seeks: 0,
            bound_exits: 0,
            candidates: r.candidates,
            partial: r.timed_out,
        }
    }
}

impl From<FragSearchReport> for ExecReport {
    fn from(r: FragSearchReport) -> ExecReport {
        ExecReport {
            top: r.top,
            postings_scanned: r.postings_scanned,
            docs_skipped: r.postings_pruned,
            seeks: r.seeks,
            bound_exits: r.bound_exits,
            candidates: r.candidates,
            partial: r.timed_out,
        }
    }
}

/// A uniformly executable physical retrieval operator.
pub trait RetrievalOp {
    /// The operator's display name.
    fn name(&self) -> &'static str;
    /// Evaluate a bag-of-terms query, returning the top `n` with unified
    /// work counters.
    fn execute(&mut self, terms: &[u32], n: usize) -> Result<ExecReport>;
}

/// The MaxScore-pruned DAAT kernel as a physical operator.
#[derive(Debug)]
pub struct PrunedDaatOp<'a>(pub DaatSearcher<'a>);

impl RetrievalOp for PrunedDaatOp<'_> {
    fn name(&self) -> &'static str {
        PhysicalPlan::PrunedDaat.name()
    }

    fn execute(&mut self, terms: &[u32], n: usize) -> Result<ExecReport> {
        Ok(self.0.search(terms, n)?.into())
    }
}

/// The exhaustive cursor merge as a physical operator.
#[derive(Debug)]
pub struct ExhaustiveDaatOp<'a>(pub DaatSearcher<'a>);

impl RetrievalOp for ExhaustiveDaatOp<'_> {
    fn name(&self) -> &'static str {
        PhysicalPlan::ExhaustiveDaat.name()
    }

    fn execute(&mut self, terms: &[u32], n: usize) -> Result<ExecReport> {
        Ok(self.0.search_exhaustive(terms, n)?.into())
    }
}

/// The set-at-a-time accumulator engine as a physical operator.
#[derive(Debug)]
pub struct SetAtATimeOp<'a>(pub Searcher<'a>);

impl RetrievalOp for SetAtATimeOp<'_> {
    fn name(&self) -> &'static str {
        PhysicalPlan::SetAtATime.name()
    }

    fn execute(&mut self, terms: &[u32], n: usize) -> Result<ExecReport> {
        Ok(self.0.search(terms, n)?.into())
    }
}

/// One fragmented strategy as a physical operator.
#[derive(Debug)]
pub struct FragmentedOp<'a> {
    /// The (shared, reusable) fragmented evaluator.
    pub searcher: &'a mut FragSearcher,
    /// The strategy this operator instance executes.
    pub strategy: Strategy,
}

impl RetrievalOp for FragmentedOp<'_> {
    fn name(&self) -> &'static str {
        PhysicalPlan::Fragmented(self.strategy).name()
    }

    fn execute(&mut self, terms: &[u32], n: usize) -> Result<ExecReport> {
        Ok(self.searcher.search(terms, n, self.strategy)?.into())
    }
}

/// All four engine paths behind one dispatcher, sharing one
/// [`ScoreKernel`] (per-document norms), one lazily built [`ScoreBounds`]
/// (pruning tables, paid only when a DAAT plan actually prunes), one
/// epoch accumulator, and one [`FragSearcher`].
#[derive(Debug)]
pub struct EngineSet {
    frag: Arc<FragmentedIndex>,
    policy: SwitchPolicy,
    kernel: Arc<ScoreKernel>,
    daat_bounds: Arc<OnceLock<ScoreBounds>>,
    saat_accum: EpochAccumulator,
    frag_searcher: FragSearcher,
    /// The reusable query-execution arena of this engine's DAAT paths:
    /// cursor decode buffers, bound work lists, heap, and result storage
    /// all persist across queries, so steady-state execution allocates
    /// only the returned report's ranking. One per engine set means one
    /// per `moa_serve` shard — the per-shard scratch pool.
    scratch: QueryScratch,
}

// The serving layer moves engine sets onto shard worker threads and
// shares kernels and thresholds across them; pin the thread-safety of the
// whole engine stack at compile time so a non-Send field can never sneak
// in and silently un-thread the shard executor.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSet>();
    assert_send_sync::<QueryScratch>();
    assert_send_sync::<ScoreKernel>();
    assert_send_sync::<ScoreBounds>();
    assert_send_sync::<EpochAccumulator>();
    assert_send_sync::<FragSearcher>();
    assert_send_sync::<crate::threshold::SharedThreshold>();
    assert_send_sync::<BoundGate>();
    assert_send_sync::<crate::deadline::DeadlineGate>();
};

impl EngineSet {
    /// Build the engine set for one `(fragmented index, model, policy)`.
    pub fn new(frag: Arc<FragmentedIndex>, model: RankingModel, policy: SwitchPolicy) -> EngineSet {
        let kernel = Arc::new(ScoreKernel::new(model, frag.index()));
        EngineSet::with_kernel(frag, kernel, policy)
    }

    /// Build the engine set around an existing scoring kernel. The shard
    /// fan-out uses this: document-partition shards carry the *global*
    /// catalog statistics ([`crate::index::InvertedIndex::shard_by_docs`]),
    /// so one kernel (per-document norm table + collection stats) is
    /// bit-identical for every shard and is built once and shared, while
    /// the [`ScoreBounds`] tables stay per-shard (they depend on the
    /// shard-resident postings). `kernel` must have been built for the
    /// same collection statistics, document lengths, and ranking model as
    /// `frag.index()` — an index sharded from the kernel's source index
    /// satisfies this by construction.
    pub fn with_kernel(
        frag: Arc<FragmentedIndex>,
        kernel: Arc<ScoreKernel>,
        policy: SwitchPolicy,
    ) -> EngineSet {
        let daat_bounds: Arc<OnceLock<ScoreBounds>> = Arc::new(OnceLock::new());
        let saat_accum = EpochAccumulator::new(frag.index().num_docs());
        // The fragmented path prunes on the very same bound tables the
        // DAAT kernel skips with — one lazy build serves both.
        let frag_searcher = FragSearcher::with_shared(
            Arc::clone(&frag),
            Arc::clone(&kernel),
            Arc::clone(&daat_bounds),
            policy,
        );
        EngineSet {
            frag,
            policy,
            kernel,
            daat_bounds,
            saat_accum,
            frag_searcher,
            scratch: QueryScratch::new(),
        }
    }

    /// The fragmented index the engines evaluate over.
    pub fn fragments(&self) -> &Arc<FragmentedIndex> {
        &self.frag
    }

    /// The ranking model all engines share.
    pub fn model(&self) -> RankingModel {
        self.kernel.model()
    }

    /// The switch policy the fragmented strategies consult.
    pub fn policy(&self) -> SwitchPolicy {
        self.policy
    }

    /// Lifetime count of DAAT queries served out of this engine's owned
    /// [`QueryScratch`] arena. A persistent serving worker that reuses one
    /// engine set across a whole query stream accumulates the stream here —
    /// the observable the pool hand-off tests pin instead of trusting that
    /// no per-batch arena was silently created.
    pub fn scratch_queries(&self) -> u64 {
        self.scratch.queries_begun()
    }

    /// Per-phase wall times of the most recent
    /// [`EngineSet::execute`]/[`EngineSet::execute_gated`] call: gate
    /// pass / decode / score / merge for the DAAT paths, a single score
    /// span for the set-at-a-time and fragmented paths (whose decode and
    /// scoring interleave with no cheap stage boundary). A `Copy`
    /// snapshot — callers fold it into traces without holding the engine.
    pub fn last_phases(&self) -> moa_obs::PhaseAgg {
        self.scratch.phases()
    }

    /// Restore every piece of cross-query execution state to a sound
    /// baseline after an *abandoned* evaluation — one that unwound out of
    /// an engine path mid-query (a panic caught at a serving-worker
    /// boundary). The epoch accumulators retire their current epoch in
    /// O(1), invalidating any partial sums; the scratch arena needs no
    /// action (every entry re-`begin`s it). Index, kernel, and bound
    /// tables are immutable during execution and stay shared.
    pub fn reset_execution_state(&mut self) {
        self.saat_accum.retire();
        self.frag_searcher.reset_scratch();
    }

    /// Execute `plan` for a query, dispatching through the uniform
    /// [`RetrievalOp`] interface.
    pub fn execute(&mut self, plan: PhysicalPlan, terms: &[u32], n: usize) -> Result<ExecReport> {
        self.execute_gated(plan, terms, n, &BoundGate::none())
    }

    /// [`EngineSet::execute`] with a cross-engine threshold hook. The
    /// pruning paths (pruned DAAT, the fragmented bound-score pass)
    /// consult and feed `gate` inside their hot loops; the exhaustive
    /// paths cannot skip work on it but still publish their N-th score so
    /// concurrent engines tighten off this one's result.
    pub fn execute_gated(
        &mut self,
        plan: PhysicalPlan,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
    ) -> Result<ExecReport> {
        let report: Result<ExecReport> = match plan {
            PhysicalPlan::PrunedDaat => {
                let daat = DaatSearcher::with_shared(
                    self.frag.index(),
                    Arc::clone(&self.kernel),
                    Arc::clone(&self.daat_bounds),
                );
                daat.search_into(terms, n, gate, &mut self.scratch)
                    .map(|stats| stats.with_top(self.scratch.out.clone()))
            }
            PhysicalPlan::ExhaustiveDaat => {
                let daat = DaatSearcher::with_shared(
                    self.frag.index(),
                    Arc::clone(&self.kernel),
                    Arc::clone(&self.daat_bounds),
                );
                daat.search_exhaustive_gated_into(terms, n, gate, &mut self.scratch)
                    .map(|stats| stats.with_top(self.scratch.out.clone()))
            }
            PhysicalPlan::SetAtATime => {
                // Swap the long-lived accumulator through a short-lived
                // searcher view: no per-query O(num_docs) allocation.
                // Decode and accumulation interleave per term run inside
                // the searcher, so the whole call is one score span (the
                // DAAT paths, which have real stage boundaries, break
                // theirs down further).
                self.scratch.phases.reset();
                let t_score = std::time::Instant::now();
                let accum = std::mem::replace(&mut self.saat_accum, EpochAccumulator::new(0));
                let mut searcher =
                    Searcher::with_state(self.frag.index(), Arc::clone(&self.kernel), accum);
                let report = searcher.search_gated(terms, n, gate).map(ExecReport::from);
                self.saat_accum = searcher.into_accum();
                self.scratch
                    .phases
                    .add(moa_obs::Phase::Score, t_score.elapsed());
                report
            }
            PhysicalPlan::Fragmented(strategy) => {
                self.scratch.phases.reset();
                let t_score = std::time::Instant::now();
                let report = self
                    .frag_searcher
                    .search_gated(terms, n, strategy, gate)
                    .map(ExecReport::from);
                self.scratch
                    .phases
                    .add(moa_obs::Phase::Score, t_score.elapsed());
                report
            }
        };
        let report = report?;
        // A complete top-N proves N documents of at least the tail score
        // exist, whichever path produced it.
        if report.top.len() == n {
            if let Some(&(_, tail)) = report.top.last() {
                gate.publish_score(tail);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentSpec;
    use crate::index::InvertedIndex;
    use moa_corpus::{generate_queries, Collection, CollectionConfig, QueryConfig};

    fn engines() -> (Collection, EngineSet) {
        let c = Collection::generate(CollectionConfig::tiny())
            .expect("tiny preset is a valid collection config");
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        let mut frag = FragmentedIndex::build(idx, FragmentSpec::TermFraction(0.9))
            .expect("a generated collection is never empty");
        frag.fragment_a_mut()
            .build_sparse_index(64)
            .expect("fragment term column is sorted");
        frag.fragment_b_mut()
            .build_sparse_index(64)
            .expect("fragment term column is sorted");
        let set = EngineSet::new(
            Arc::new(frag),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        (c, set)
    }

    /// The plans guaranteed to produce the exact (complete-score) top-N.
    fn exact_plans() -> Vec<PhysicalPlan> {
        vec![
            PhysicalPlan::PrunedDaat,
            PhysicalPlan::ExhaustiveDaat,
            PhysicalPlan::SetAtATime,
            PhysicalPlan::Fragmented(Strategy::FullScan),
        ]
    }

    #[test]
    fn every_exact_plan_returns_the_identical_topn() {
        let (c, mut set) = engines();
        let queries = generate_queries(&c, &QueryConfig::default())
            .expect("default query workload fits the tiny collection");
        for q in queries.iter().take(10) {
            for n in [1usize, 10, c.num_docs()] {
                let reference = set
                    .execute(PhysicalPlan::SetAtATime, &q.terms, n)
                    .expect("generated query terms are all in vocabulary");
                for plan in exact_plans() {
                    let rep = set
                        .execute(plan, &q.terms, n)
                        .expect("generated query terms are all in vocabulary");
                    assert_eq!(
                        rep.top,
                        reference.top,
                        "{} diverged (n={n}, q={:?})",
                        plan.name(),
                        q.terms
                    );
                }
            }
        }
    }

    #[test]
    fn unified_counters_are_populated_per_path() {
        let (c, mut set) = engines();
        let queries = generate_queries(&c, &QueryConfig::default())
            .expect("default query workload fits the tiny collection");
        let q = &queries[0];
        let daat = set
            .execute(PhysicalPlan::PrunedDaat, &q.terms, 5)
            .expect("generated query terms are all in vocabulary");
        assert!(daat.postings_scanned > 0);
        assert!(daat.candidates > 0);
        let frag = set
            .execute(PhysicalPlan::Fragmented(Strategy::FullScan), &q.terms, 5)
            .expect("generated query terms are all in vocabulary");
        assert_eq!(
            frag.postings_scanned,
            set.fragments().index().num_postings(),
            "full scan inspects the whole volume"
        );
        let saat = set
            .execute(PhysicalPlan::SetAtATime, &q.terms, 5)
            .expect("generated query terms are all in vocabulary");
        assert_eq!(saat.docs_skipped, 0);
        assert_eq!(saat.seeks, 0);
    }

    #[test]
    fn absorb_aggregates_counters() {
        let mut total = ExecReport::default();
        let a = ExecReport {
            top: vec![(1, 2.0)],
            postings_scanned: 10,
            docs_skipped: 3,
            seeks: 2,
            bound_exits: 1,
            candidates: 4,
            partial: false,
        };
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.postings_scanned, 20);
        assert_eq!(total.docs_skipped, 6);
        assert_eq!(total.seeks, 4);
        assert_eq!(total.bound_exits, 2);
        assert_eq!(total.candidates, 8);
        assert!(total.top.is_empty(), "absorb must not merge rankings");
        assert!(!total.partial);
        let p = ExecReport {
            partial: true,
            ..ExecReport::default()
        };
        total.absorb(&p);
        assert!(total.partial, "partiality must be sticky under absorb");
    }

    #[test]
    fn absorb_saturates_instead_of_wrapping() {
        // A sustained-load ledger near the usize ceiling must clamp, not
        // wrap to a tiny figure that reads as "almost no work".
        let mut total = ExecReport {
            postings_scanned: usize::MAX - 5,
            docs_skipped: usize::MAX,
            seeks: usize::MAX - 1,
            bound_exits: 0,
            candidates: usize::MAX / 2 + 1,
            ..ExecReport::default()
        };
        let more = ExecReport {
            postings_scanned: 10,
            docs_skipped: 1,
            seeks: 1,
            bound_exits: usize::MAX,
            candidates: usize::MAX / 2 + 1,
            ..ExecReport::default()
        };
        total.absorb(&more);
        assert_eq!(total.postings_scanned, usize::MAX);
        assert_eq!(total.docs_skipped, usize::MAX);
        assert_eq!(total.seeks, usize::MAX);
        assert_eq!(total.bound_exits, usize::MAX);
        assert_eq!(total.candidates, usize::MAX);
    }

    #[test]
    fn plan_names_are_unique_and_stable() {
        let mut names: Vec<&str> = PhysicalPlan::ALL.iter().map(PhysicalPlan::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PhysicalPlan::ALL.len());
        assert_eq!(PhysicalPlan::PrunedDaat.name(), "pruned_daat");
    }

    #[test]
    fn trait_object_dispatch_works() {
        let (c, set) = engines();
        let queries = generate_queries(&c, &QueryConfig::default())
            .expect("default query workload fits the tiny collection");
        let q = &queries[0];
        let index = Arc::clone(set.fragments());
        let daat = DaatSearcher::new(index.index(), RankingModel::default());
        let mut pruned = PrunedDaatOp(daat);
        let ops: Vec<&mut dyn RetrievalOp> = vec![&mut pruned];
        for op in ops {
            let rep = op
                .execute(&q.terms, 5)
                .expect("generated query terms are all in vocabulary");
            assert!(!rep.top.is_empty());
            assert_eq!(op.name(), "pruned_daat");
        }
    }
}
