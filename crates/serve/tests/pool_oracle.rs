//! The worker-pool differential oracle: the persistent-pool serving
//! runtime is pinned **bit-identical** to the deterministic sequential
//! schedule and to a naive collection-scan oracle across the full matrix
//! — every pinned physical plan × 3 ranking models × shard counts ×
//! propagation on/off — and its drain-on-shutdown contract is proven,
//! not assumed: a batch admitted before teardown is fully answered, and
//! the scratch arenas handed back by `shutdown` carry lifetime query
//! counts equal to the whole stream (one arena per shard served
//! everything; nothing was rebuilt mid-stream).

use std::sync::Arc;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::{InvertedIndex, PhysicalPlan, RankingModel, Strategy, SwitchPolicy};
use moa_serve::{BatchQuery, ServeConfig, ServeMode, ServeSession, ShardSpec};

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

fn session(
    idx: &Arc<InvertedIndex>,
    shard_spec: ShardSpec,
    mode: ServeMode,
    model: RankingModel,
    propagate: bool,
) -> ServeSession {
    let config = ServeConfig {
        shard_spec,
        model,
        mode,
        propagate,
        sparse_block: Some(64),
        // A strict switch policy: consult fragment B whenever any
        // B-resident query term carries positive score mass. The default
        // 0.2 share threshold is the paper's quality heuristic — under it
        // `frag_switch` may legitimately drop low-mass B terms, which
        // would break this suite's oracle-exactness contract on workloads
        // that happen to produce such queries.
        policy: SwitchPolicy { max_b_share: 0.0 },
        ..ServeConfig::planned(shard_spec.shards())
    };
    ServeSession::new(Arc::clone(idx), config).expect("tiny index shards cleanly")
}

fn models() -> Vec<RankingModel> {
    vec![
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ]
}

/// Every physical plan the pool must answer identically to the
/// sequential schedule (exact plans *and* the approximate fragmented
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

/// The plans whose top-N is guaranteed bit-identical to the naive
/// full-scan oracle (everything but the lossy A-only ranking; the switch
/// strategies are exact under the strict policy [`session`] pins).
fn exact_plans() -> Vec<PhysicalPlan> {
    pinned_plans()
        .into_iter()
        .filter(|p| !matches!(p, PhysicalPlan::Fragmented(Strategy::AOnly { .. })))
        .collect()
}

/// Scores every matching document by scanning the *collection's* raw
/// postings — independent of the index, shards, pool, and merge.
fn naive_topn(
    collection: &Collection,
    model: RankingModel,
    terms: &[u32],
    n: usize,
) -> Vec<(u32, f64)> {
    let stats = moa_ir::CollectionStats {
        num_docs: collection.num_docs(),
        avg_doc_len: collection.total_tokens() as f64 / collection.num_docs().max(1) as f64,
        total_tokens: collection.total_tokens(),
    };
    let mut scores = vec![0.0f64; collection.num_docs()];
    let mut touched = vec![false; collection.num_docs()];
    for &term in terms {
        let df = collection.df()[term as usize];
        let cf = collection.cf()[term as usize];
        for p in collection.postings_for_term(term) {
            let doc_len = collection.doc_len()[p.doc as usize];
            scores[p.doc as usize] += model.term_weight(p.tf, df, cf, doc_len, &stats);
            touched[p.doc as usize] = true;
        }
    }
    let mut all: Vec<(u32, f64)> = (0..collection.num_docs() as u32)
        .filter(|&d| touched[d as usize])
        .map(|d| (d, scores[d as usize]))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(n);
    all
}

#[test]
fn pooled_batches_match_sequential_and_oracle_for_every_plan_model_and_shard_count() {
    let (c, idx, queries) = fixture();
    let batch: Vec<BatchQuery> = queries
        .iter()
        .take(5)
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 10,
        })
        .collect();
    for model in models() {
        for shards in [1usize, 2, 4] {
            for propagate in [false, true] {
                for plan in pinned_plans() {
                    let mode = ServeMode::Fixed(plan);
                    let mut pooled =
                        session(&idx, ShardSpec::Range { shards }, mode, model, propagate);
                    let mut reference =
                        session(&idx, ShardSpec::Range { shards }, mode, model, propagate);
                    let got = pooled
                        .submit_many(&batch)
                        .expect("blocking admission never sheds");
                    let want = reference.submit_many_sequential(&batch);
                    for (qi, (g, w)) in got
                        .expect_ok()
                        .iter()
                        .zip(want.expect_ok().iter())
                        .enumerate()
                    {
                        assert_eq!(
                            g.top,
                            w.top,
                            "{model:?} {} x{shards} propagate={propagate} q{qi}: pool != sequential",
                            plan.name()
                        );
                    }
                    if exact_plans().contains(&plan) {
                        for (qi, (q, g)) in batch.iter().zip(got.expect_ok().iter()).enumerate() {
                            let oracle = naive_topn(&c, model, &q.terms, q.n);
                            assert_eq!(
                                g.top,
                                oracle,
                                "{model:?} {} x{shards} propagate={propagate} q{qi}: pool != naive oracle",
                                plan.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn planned_pool_matches_the_naive_oracle_across_shard_counts() {
    // The production posture: per-shard planners picking freely,
    // propagation on, pool admission. Whatever operators win, answers
    // must be the oracle's — under both partitionings, so round-robin
    // shards are exercised concurrently too.
    let (c, idx, queries) = fixture();
    for spec in [
        ShardSpec::Range { shards: 1 },
        ShardSpec::Range { shards: 3 },
        ShardSpec::Range { shards: 4 },
        ShardSpec::RoundRobin { shards: 4 },
    ] {
        let mut svc = session(
            &idx,
            spec,
            ServeMode::Planned,
            RankingModel::default(),
            true,
        );
        for q in queries.iter().take(6) {
            for n in [1usize, 10, c.num_docs()] {
                let got = svc.submit(&q.terms, n).expect("in-vocabulary query");
                let oracle = naive_topn(&c, RankingModel::default(), &q.terms, n);
                assert_eq!(
                    got.top,
                    oracle,
                    "planned {} n={n} terms {:?}",
                    spec.describe(),
                    q.terms
                );
            }
        }
    }
}

#[test]
fn coalesced_duplicates_match_per_position_execution_bit_for_bit() {
    // Admission coalescing: a Zipf-skewed batch carries duplicate
    // queries; the pool executes each distinct (terms, n) once and fans
    // the answer out. Every position's response must equal the
    // non-coalescing sequential schedule executing that position
    // individually — including same-terms queries that differ only in n,
    // which must NOT coalesce with each other.
    let (c, idx, queries) = fixture();
    let hot = &queries[0];
    let warm = &queries[1];
    let batch: Vec<BatchQuery> = vec![
        BatchQuery {
            terms: hot.terms.clone(),
            n: 10,
        },
        BatchQuery {
            terms: warm.terms.clone(),
            n: 10,
        },
        BatchQuery {
            terms: hot.terms.clone(),
            n: 10,
        }, // dup of position 0
        BatchQuery {
            terms: hot.terms.clone(),
            n: 3,
        }, // same terms, different n
        BatchQuery {
            terms: hot.terms.clone(),
            n: 10,
        }, // dup of position 0
        BatchQuery {
            terms: warm.terms.clone(),
            n: 10,
        }, // dup of position 1
    ];
    for shards in [1usize, 3] {
        let mut pooled = session(
            &idx,
            ShardSpec::Range { shards },
            ServeMode::Planned,
            RankingModel::default(),
            true,
        );
        let mut reference = session(
            &idx,
            ShardSpec::Range { shards },
            ServeMode::Planned,
            RankingModel::default(),
            true,
        );
        let got = pooled
            .submit_many(&batch)
            .expect("blocking admission never sheds");
        let want = reference.submit_many_sequential(&batch);
        assert_eq!(got.responses.len(), batch.len());
        for (qi, (g, w)) in got
            .expect_ok()
            .iter()
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            assert_eq!(g.top, w.top, "x{shards} q{qi}: coalesced != per-position");
            let oracle = naive_topn(&c, RankingModel::default(), &batch[qi].terms, batch[qi].n);
            assert_eq!(g.top, oracle, "x{shards} q{qi}: coalesced != naive oracle");
        }
        // 6 positions, 3 distinct executions (hot n=10, warm n=10, hot n=3).
        assert_eq!(pooled.stats().queries_served, batch.len());
        assert_eq!(pooled.stats().queries_coalesced, 3);
        // The non-coalescing reference executed (and scanned) strictly
        // more than the pool performed.
        assert!(pooled.stats().postings_scanned < reference.stats().postings_scanned);
        assert_eq!(reference.stats().queries_coalesced, 0);
    }
}

#[test]
fn streaming_enqueue_collect_overlap_matches_one_shot_submission() {
    // Two batches in flight at once (the E18 pool driver's pipelining):
    // admission order is preserved per worker, and each collected batch
    // is identical to an isolated submission of the same queries.
    let (_, idx, queries) = fixture();
    let batches: Vec<Vec<BatchQuery>> = queries
        .chunks(2)
        .map(|qs| {
            qs.iter()
                .map(|q| BatchQuery {
                    terms: q.terms.clone(),
                    n: 10,
                })
                .collect()
        })
        .collect();
    let mut streamed = session(
        &idx,
        ShardSpec::Range { shards: 4 },
        ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        RankingModel::default(),
        true,
    );
    let mut oneshot = session(
        &idx,
        ShardSpec::Range { shards: 4 },
        ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        RankingModel::default(),
        true,
    );
    let mut pending = std::collections::VecDeque::new();
    let mut collected = Vec::new();
    for batch in &batches {
        pending.push_back(streamed.enqueue(batch).expect("blocking admission"));
        // Keep two batches in flight: collect the older one only after
        // the newer is already admitted.
        if pending.len() > 2 {
            let report = streamed.collect(pending.pop_front().expect("non-empty"));
            collected.push(report);
        }
    }
    while let Some(p) = pending.pop_front() {
        collected.push(streamed.collect(p));
    }
    assert_eq!(collected.len(), batches.len());
    for (bi, (batch, report)) in batches.iter().zip(collected.iter()).enumerate() {
        let want = oneshot
            .submit_many(batch)
            .expect("blocking admission never sheds");
        assert_eq!(report.responses.len(), batch.len());
        for (qi, (g, w)) in report
            .expect_ok()
            .iter()
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            assert_eq!(g.top, w.top, "batch {bi} q{qi}: streamed != one-shot");
        }
    }
    let stats = streamed.stats();
    assert_eq!(stats.queries_served, queries.len());
    assert_eq!(stats.batches_served, batches.len());
}

#[test]
fn shutdown_drains_in_flight_batches_and_returns_the_calibrated_shards() {
    // The teardown contract, proven end to end: a batch enqueued before
    // shutdown is still fully answered afterwards (no query dropped),
    // and the shards handed back are the *same* engines that served the
    // stream — their scratch arenas' lifetime query counters equal the
    // total number of DAAT queries each worker saw.
    let (_, idx, queries) = fixture();
    let shards = 3usize;
    // PrunedDaat pins every query through the per-shard scratch arena,
    // so the arenas' lifetime counters account for the whole stream.
    let mut svc = session(
        &idx,
        ShardSpec::Range { shards },
        ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        RankingModel::default(),
        true,
    );
    let batch: Vec<BatchQuery> = queries
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 10,
        })
        .collect();
    // A warm batch through the normal path...
    let warm = svc
        .submit_many(&batch)
        .expect("blocking admission never sheds");
    // ...then one admitted but NOT collected before teardown begins.
    let in_flight = svc.enqueue(&batch).expect("blocking admission");
    let outcome = svc.shutdown();
    assert!(
        outcome.is_clean(),
        "no worker panicked: {:?}",
        outcome.panics
    );
    let engines = outcome.shards;
    // The drained responses match the warm replay answer for answer.
    let drained = in_flight.wait();
    assert_eq!(drained.responses.len(), batch.len());
    for (qi, (g, w)) in drained
        .expect_ok()
        .iter()
        .zip(warm.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(g.top, w.top, "q{qi}: drained batch diverged");
    }
    // Same engines back, in shard order, each having served every query
    // of both batches out of one persistent arena.
    assert_eq!(engines.len(), shards);
    for (s, shard) in engines.iter().enumerate() {
        assert_eq!(shard.id(), s);
        assert_eq!(
            shard.scratch_queries(),
            2 * batch.len() as u64,
            "shard {s}: scratch arena did not serve the whole stream"
        );
    }
}
