//! Criterion microbenchmarks of the serving runtime (E18 in
//! microbenchmark form): persistent worker pool vs the sequential
//! schedule on one admission batch, pipelined enqueue/collect streaming,
//! and the admission queue's duplicate-query coalescing under a
//! Zipf-skewed batch.

use std::collections::VecDeque;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use moa_corpus::{
    generate_queries, generate_query_stream, Collection, CollectionConfig, DfBias, QueryConfig,
    StreamConfig,
};
use moa_ir::InvertedIndex;
use moa_serve::{BatchQuery, ServeConfig, ServeMode, ServeSession, ShardedEngine};

const TOP_N: usize = 100;

fn fixture() -> (Arc<InvertedIndex>, Vec<BatchQuery>) {
    let c = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&c));
    let queries = generate_queries(
        &c,
        &QueryConfig {
            num_queries: 32,
            bias: DfBias::TrecLike { high_df_mix: 0.5 },
            seed: 0x5E18,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    let batch = queries
        .into_iter()
        .map(|q| BatchQuery {
            terms: q.terms,
            n: TOP_N,
        })
        .collect();
    (index, batch)
}

fn session(index: &Arc<InvertedIndex>, shards: usize) -> ServeSession {
    ServeSession::new(Arc::clone(index), ServeConfig::planned(shards))
        .expect("collection shards cleanly")
}

fn engine(index: &Arc<InvertedIndex>, shards: usize) -> ShardedEngine {
    let config = ServeConfig::planned(shards);
    ShardedEngine::build(
        Arc::clone(index),
        config.shard_spec,
        config.frag_spec,
        config.model,
        config.policy,
        config.sparse_block,
    )
    .expect("collection shards cleanly")
}

/// One distinct-query admission batch through each runtime: the pool's
/// edge here is purely shard parallelism (no duplicates to coalesce).
fn bench_batch_runtimes(c: &mut Criterion) {
    let (index, batch) = fixture();
    let mut g = c.benchmark_group("serving_batch");
    for shards in [2usize, 4] {
        let mut pool = session(&index, shards);
        let mut eng = engine(&index, shards);
        g.bench_with_input(BenchmarkId::new("pool", shards), &shards, |b, _| {
            b.iter(|| black_box(pool.submit_many(&batch).expect("in-vocabulary batch")))
        });
        g.bench_with_input(BenchmarkId::new("sequential", shards), &shards, |b, _| {
            b.iter(|| {
                black_box(
                    eng.execute_batch_sequential(&batch, ServeMode::Planned, true)
                        .expect("in-vocabulary batch"),
                )
            })
        });
    }
    g.finish();
}

/// Pipelined streaming (enqueue the next admission batch before
/// collecting the previous) vs collect-before-admit, over the same
/// chunked stream.
fn bench_streaming(c: &mut Criterion) {
    let (index, batch) = fixture();
    let chunks: Vec<&[BatchQuery]> = batch.chunks(8).collect();
    let mut g = c.benchmark_group("serving_stream");
    let mut pipelined = session(&index, 4);
    g.bench_function("pipelined_enqueue_collect", |b| {
        b.iter(|| {
            let mut pending = VecDeque::new();
            for chunk in &chunks {
                pending.push_back(pipelined.enqueue(chunk).expect("blocking admission"));
                if pending.len() > 1 {
                    let report = pipelined.collect(pending.pop_front().expect("non-empty"));
                    let _ = black_box(report);
                }
            }
            while let Some(p) = pending.pop_front() {
                let _ = black_box(pipelined.collect(p));
            }
        })
    });
    let mut lockstep = session(&index, 4);
    g.bench_function("lockstep_submit_many", |b| {
        b.iter(|| {
            for chunk in &chunks {
                let _ = black_box(lockstep.submit_many(chunk).expect("in-vocabulary batch"));
            }
        })
    });
    g.finish();
}

/// A Zipf-popularity admission batch (hot queries repeat): the pool
/// coalesces duplicates at admission, the sequential schedule executes
/// every position.
fn bench_coalescing(c: &mut Criterion) {
    let collection = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let zipf: Vec<BatchQuery> = generate_query_stream(
        &collection,
        &StreamConfig {
            pool: QueryConfig {
                num_queries: 30,
                bias: DfBias::FrequentOnly,
                seed: 0xE18,
                ..QueryConfig::default()
            },
            length: 32,
            exponent: 1.0,
            seed: 0x57E4,
        },
    )
    .expect("valid stream config")
    .into_iter()
    .map(|q| BatchQuery {
        terms: q.terms,
        n: TOP_N,
    })
    .collect();
    let mut g = c.benchmark_group("serving_coalescing");
    let mut pool = session(&index, 4);
    g.bench_function("pool_coalesced", |b| {
        b.iter(|| black_box(pool.submit_many(&zipf).expect("in-vocabulary batch")))
    });
    let mut reference = session(&index, 4);
    g.bench_function("sequential_per_position", |b| {
        b.iter(|| black_box(reference.submit_many_sequential(&zipf)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_runtimes,
    bench_streaming,
    bench_coalescing
);
criterion_main!(benches);
