//! The sharded differential oracle: merged shard execution is pinned
//! **bit-identical** to single-shard execution across the full matrix —
//! every exact physical strategy × 3 ranking models × N ∈ {1, 10,
//! ≥ matches} × shard counts × both partitionings × propagation on/off.
//! The approximate fragmented strategies are pinned too: document
//! partitioning preserves the df-fragment split (residency is decided on
//! the global catalog), so even the unsafe A-only ranking must come out
//! of the merge unchanged.

use std::sync::Arc;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::{FragmentSpec, InvertedIndex, PhysicalPlan, RankingModel, Strategy, SwitchPolicy};
use moa_serve::{BatchQuery, ServeConfig, ServeMode, ServeSession, ShardSpec, ShardedEngine};

fn fixture() -> (Collection, Arc<InvertedIndex>, Vec<Query>) {
    let c = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let idx = Arc::new(InvertedIndex::from_collection(&c));
    let queries = generate_queries(
        &c,
        &QueryConfig {
            num_queries: 8,
            bias: DfBias::TrecLike { high_df_mix: 0.4 },
            seed: 0x51A2,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    (c, idx, queries)
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

fn engine_for_model(
    idx: &Arc<InvertedIndex>,
    spec: ShardSpec,
    model: RankingModel,
) -> ShardedEngine {
    ShardedEngine::build(
        Arc::clone(idx),
        spec,
        FragmentSpec::TermFraction(0.9),
        model,
        SwitchPolicy::default(),
        Some(64),
    )
    .expect("tiny index shards cleanly")
}

fn models() -> Vec<RankingModel> {
    vec![
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ]
}

/// Every physical plan whose sharded merge must be bit-identical to the
/// same plan on one shard (exact plans *and* the approximate fragmented
/// strategies, which partition consistently).
fn pinned_plans() -> Vec<PhysicalPlan> {
    vec![
        PhysicalPlan::PrunedDaat,
        PhysicalPlan::ExhaustiveDaat,
        PhysicalPlan::SetAtATime,
        PhysicalPlan::Fragmented(Strategy::FullScan),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: false }),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }),
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: false }),
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }),
    ]
}

#[test]
fn every_strategy_model_and_n_is_bit_identical_across_shard_counts() {
    let (c, idx, queries) = fixture();
    for model in models() {
        let mut single = engine_for_model(&idx, ShardSpec::Range { shards: 1 }, model);
        for shards in [2usize, 3, 5] {
            let mut sharded = engine_for_model(&idx, ShardSpec::Range { shards }, model);
            for q in queries.iter().take(5) {
                for n in [1usize, 10, c.num_docs()] {
                    for plan in pinned_plans() {
                        let want = single
                            .execute(&q.terms, n, ServeMode::Fixed(plan), false)
                            .expect("in-vocabulary query");
                        let got = sharded
                            .execute(&q.terms, n, ServeMode::Fixed(plan), true)
                            .expect("in-vocabulary query");
                        assert_eq!(
                            got.top,
                            want.top,
                            "{model:?} {} x{shards} n={n} terms {:?}",
                            plan.name(),
                            q.terms
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn round_robin_partitioning_is_bit_identical_too() {
    let (c, idx, queries) = fixture();
    let mut single = engine(&idx, ShardSpec::Range { shards: 1 });
    let mut sharded = engine(&idx, ShardSpec::RoundRobin { shards: 4 });
    for q in queries.iter().take(6) {
        for n in [1usize, 10, c.num_docs()] {
            let want = single
                .execute(&q.terms, n, ServeMode::Planned, false)
                .expect("in-vocabulary query");
            let got = sharded
                .execute(&q.terms, n, ServeMode::Planned, true)
                .expect("in-vocabulary query");
            assert_eq!(got.top, want.top, "round-robin n={n} terms {:?}", q.terms);
        }
    }
}

#[test]
fn propagation_ablation_preserves_answers_for_every_plan() {
    let (_, idx, queries) = fixture();
    let mut with = engine(&idx, ShardSpec::Range { shards: 4 });
    let mut without = engine(&idx, ShardSpec::Range { shards: 4 });
    for q in queries.iter().take(5) {
        for plan in pinned_plans() {
            let a = with
                .execute(&q.terms, 10, ServeMode::Fixed(plan), true)
                .expect("in-vocabulary query");
            let b = without
                .execute(&q.terms, 10, ServeMode::Fixed(plan), false)
                .expect("in-vocabulary query");
            assert_eq!(a.top, b.top, "{} terms {:?}", plan.name(), q.terms);
        }
    }
}

#[test]
fn batched_and_planned_execution_matches_the_pinned_reference() {
    // The production posture (planner per shard, propagation on, batched
    // submission through the worker pool that serves) answers exactly
    // like the pinned exhaustive reference.
    let (_, idx, queries) = fixture();
    let mut reference = engine(&idx, ShardSpec::Range { shards: 1 });
    let config = ServeConfig {
        frag_spec: FragmentSpec::TermFraction(0.9),
        sparse_block: Some(64),
        ..ServeConfig::planned(4)
    };
    let mut serving = ServeSession::new(Arc::clone(&idx), config).expect("tiny index shards");
    let batch: Vec<BatchQuery> = queries
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 10,
        })
        .collect();
    let report = serving
        .submit_many(&batch)
        .expect("blocking admission never sheds");
    let responses = report.expect_ok();
    assert_eq!(responses.len(), batch.len());
    for (i, q) in queries.iter().enumerate() {
        let want = reference
            .execute(
                &q.terms,
                10,
                ServeMode::Fixed(PhysicalPlan::ExhaustiveDaat),
                false,
            )
            .expect("in-vocabulary query");
        assert_eq!(responses[i].top, want.top, "query {i}");
        // Every shard reported, and the planner priced its pick.
        assert_eq!(responses[i].shards.len(), 4);
        for o in &responses[i].shards {
            assert!(o.est_cost.is_some());
        }
    }
}

#[test]
fn local_heaps_cover_the_merged_ranking() {
    // Whatever the gates pruned, the merged top-N must be drawn from the
    // union of the shard-local heaps — i.e. each merged entry appears in
    // exactly one shard's local top (partitioned documents).
    let (_, idx, queries) = fixture();
    let mut sharded = engine(&idx, ShardSpec::Range { shards: 4 });
    for q in queries.iter().take(6) {
        let resp = sharded
            .execute(&q.terms, 10, ServeMode::Planned, true)
            .expect("in-vocabulary query");
        for &(doc, score) in &resp.top {
            let holders: Vec<usize> = resp
                .shards
                .iter()
                .filter(|o| o.report.top.contains(&(doc, score)))
                .map(|o| o.shard)
                .collect();
            assert_eq!(
                holders.len(),
                1,
                "doc {doc} appears in shards {holders:?} (must be exactly one)"
            );
        }
    }
}
