//! E18 — sustained-load serving: worker pool vs sequential.
//!
//! The serving question E16 cannot answer: not "how fast is one batch"
//! but "how many queries per second does each runtime sustain, and what
//! latency do queries see, under a realistic arrival process?" The
//! shared open-loop driver ([`crate::harness::load`]) replays a
//! Zipf-popularity query stream (hot queries repeat per their rank)
//! against two runtimes at every shard count:
//!
//! * **pool** — the persistent shard worker pool behind
//!   `ServeSession::enqueue`/`collect`, driven pipelined: the next
//!   admission batch is enqueued *before* the previous batch is merged,
//!   so merge and bookkeeping overlap shard service. The pool's
//!   admission queue also **coalesces** duplicate in-batch queries
//!   (identical terms and n execute once, the answer fans out — see
//!   `moa_serve::ShardPool::submit`), which under a Zipf stream is its
//!   dominant structural advantage: the hotter the traffic and the
//!   deeper the backlog, the larger the admitted batches and the more
//!   work coalescing removes. Backpressure makes the pool *faster*,
//! * **sequential** — every admitted batch served on the driver thread
//!   (`ShardedEngine::execute_batch_sequential`): the single-core floor
//!   any parallel runtime must beat to justify itself.
//!
//! Admission batches are capped at `MAX_BATCH`. Offered load is
//! calibrated to `OVERLOAD` × the measured single-thread capacity, so
//! the sequential baseline always saturates and the pool has queues to
//! eat. Latency is arrival-to-merge, summarized by nearest-rank
//! p50/p95/p99/max; each runtime reports its best replay (highest
//! achieved throughput) of `REPLAYS`.
//!
//! Gates (enforced here and by CI's E18 smoke): at **every** shard
//! count, pool throughput ≥ the sequential baseline, and pool p99
//! latency ≤ the sequential p99. The committed figures live in
//! `BENCH_throughput.json`.

use moa_serve::ServeConfig;

use crate::harness::load::{self, Load, Zipf};
use crate::harness::record::{self, fixed, Value};
use crate::harness::{fmt_duration, Percentiles, Scale, Table};

/// Ranking depth (matches E16's serving posture).
const TOP_N: usize = 100;

/// Shard counts swept: the unsharded engine plus the sharded
/// configurations E16 profiles.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Admission batch cap: arrivals due at the same poll are admitted
/// together, at most this many — the front end's backpressure knob.
const MAX_BATCH: usize = 32;

/// Offered load as a multiple of measured single-thread capacity. Above
/// 1 so the sequential baseline saturates (its achieved throughput is
/// its capacity) and the pool faces real queueing.
const OVERLOAD: f64 = 1.75;

/// Replays per runtime × shard count; the best replay (highest achieved
/// throughput) is reported — minimum-noise statistic on a shared host.
const REPLAYS: usize = 5;

/// The stream: seeds and skew of the Zipf replay.
const ZIPF: Zipf = Zipf {
    pool_seed: 0xE18,
    stream_seed: 0x57E4,
    exponent: 1.0,
};

/// Identifies one measured serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Persistent worker pool, pipelined enqueue/collect.
    Pool,
    /// All shards on the driver thread.
    Sequential,
}

impl Runtime {
    fn name(self) -> &'static str {
        match self {
            Runtime::Pool => "pool",
            Runtime::Sequential => "sequential",
        }
    }
}

/// One runtime × shard count measurement (its best replay).
pub struct ThroughputResult {
    /// Shard count.
    pub shards: usize,
    /// The runtime measured.
    pub runtime: Runtime,
    /// Offered arrival rate (queries/sec).
    pub offered_qps: f64,
    /// Achieved completion rate (queries/sec).
    pub achieved_qps: f64,
    /// Arrival-to-merge latency percentiles.
    pub latency: Percentiles,
    /// Queries in the stream.
    pub queries: usize,
    /// Distinct `(terms, n)` keys in the stream — the cross-batch repeat
    /// structure a result cache (E21) can exploit: `1 - distinct/total`
    /// of all arrivals are repeats of an earlier key.
    pub distinct_keys: usize,
    /// Queries answered by admission coalescing during the best replay
    /// (pool only; the sequential baseline executes everything).
    pub coalesced: usize,
    /// Whether the runtime fell measurably behind the offered rate
    /// (achieved < 95% of offered): its achieved figure is then its
    /// capacity, not an artifact of the arrival schedule.
    pub saturated: bool,
}

/// Run the sustained-load sweep: calibrate offered load off the
/// single-thread capacity, then measure both runtimes at every shard
/// count under the identical stream and arrival schedule.
pub fn measure(scale: Scale) -> Vec<ThroughputResult> {
    let (collection, index) = load::corpus(scale);
    let stream = ZIPF.stream(&collection, scale, TOP_N);
    let distinct_keys = load::distinct_key_count(&stream);
    let arrivals = Load {
        offered_qps: OVERLOAD * load::single_thread_capacity(&index, &stream, MAX_BATCH),
        max_batch: MAX_BATCH,
        window: 1,
    };
    let mut results = Vec::new();
    for &shards in &SHARD_COUNTS {
        // Fresh state per runtime; `best_drive`'s warm-up replay settles
        // planner calibration and lazily built bound tables before timing.
        let mut engine = load::reference_engine(&index, shards);
        let sequential = load::best_drive(&mut engine, &stream, arrivals, REPLAYS);
        let mut session = load::session(&index, ServeConfig::planned(shards));
        let pool = load::best_drive(&mut session, &stream, arrivals, REPLAYS);
        for (runtime, best) in [(Runtime::Sequential, sequential), (Runtime::Pool, pool)] {
            results.push(ThroughputResult {
                shards,
                runtime,
                offered_qps: arrivals.offered_qps,
                achieved_qps: best.achieved_qps,
                latency: best.latency,
                queries: stream.len(),
                distinct_keys,
                coalesced: best.coalesced,
                saturated: best.achieved_qps < 0.95 * arrivals.offered_qps,
            });
        }
    }
    results
}

fn find(results: &[ThroughputResult], shards: usize, runtime: Runtime) -> &ThroughputResult {
    results
        .iter()
        .find(|r| r.shards == shards && r.runtime == runtime)
        .expect("every runtime × shard count is measured")
}

/// The `BENCH_throughput.json` document of the sweep.
pub fn document(scale: Scale, results: &[ThroughputResult]) -> Value {
    let mut doc = record::header("e18", Some(scale))
        .with("top_n", TOP_N)
        .with("max_batch", MAX_BATCH)
        .with("overload", OVERLOAD)
        .with("replays", REPLAYS);
    if let Some(first) = results.first() {
        let repeat_rate = 1.0 - first.distinct_keys as f64 / first.queries.max(1) as f64;
        doc = doc
            .with("queries", first.queries)
            .with("distinct_keys", first.distinct_keys)
            .with("repeat_rate", fixed(repeat_rate, 3));
    }
    let configs = results.iter().map(|r| {
        let seq = find(results, r.shards, Runtime::Sequential);
        let coalesced_pct = 100.0 * r.coalesced as f64 / r.queries.max(1) as f64;
        Value::obj()
            .with("shards", r.shards)
            .with("runtime", r.runtime.name())
            .with("queries", r.queries)
            .with("offered_qps", fixed(r.offered_qps, 0))
            .with("achieved_qps", fixed(r.achieved_qps, 0))
            .with(
                "qps_vs_sequential",
                fixed(r.achieved_qps / seq.achieved_qps.max(1e-9), 3),
            )
            .with("coalesced_pct", fixed(coalesced_pct, 1))
            .with("p50_us", r.latency.p50.as_micros())
            .with("p95_us", r.latency.p95.as_micros())
            .with("p99_us", r.latency.p99.as_micros())
            .with("max_us", r.latency.max.as_micros())
            .with("saturated", r.saturated)
    });
    doc.with("configs", configs.collect::<Value>())
}

/// Run E18, emit `BENCH_throughput.json`, and enforce the gates.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    let json_path = record::write("BENCH_throughput.json", &document(scale, &results));

    let mut t = Table::new(
        "E18: sustained-load serving (pool vs sequential)",
        &[
            "shards", "runtime", "offered", "achieved", "vs seq", "coal", "p50", "p95", "p99",
            "sat",
        ],
    );
    for r in &results {
        let seq = find(&results, r.shards, Runtime::Sequential);
        t.row(vec![
            r.shards.to_string(),
            r.runtime.name().to_string(),
            format!("{:.0}/s", r.offered_qps),
            format!("{:.0}/s", r.achieved_qps),
            format!("{:.2}x", r.achieved_qps / seq.achieved_qps.max(1e-9)),
            format!(
                "{:.0}%",
                100.0 * r.coalesced as f64 / r.queries.max(1) as f64
            ),
            fmt_duration(r.latency.p50),
            fmt_duration(r.latency.p95),
            fmt_duration(r.latency.p99),
            if r.saturated { "yes" } else { "no" }.to_string(),
        ]);
    }
    let first = results.first().expect("non-empty sweep");
    t.note(format!(
        "open-loop Zipf stream of {} arrivals, top-{TOP_N}, admission batches capped at \
         {MAX_BATCH}; offered load = {OVERLOAD} x measured single-thread capacity; best of \
         {REPLAYS} replays per cell",
        first.queries
    ));
    t.note(format!(
        "stream repeat structure: {} distinct (terms, n) keys over {} arrivals — a \
         cross-batch repeat rate of {:.0}% (what E21's result cache amortizes)",
        first.distinct_keys,
        first.queries,
        100.0 * (1.0 - first.distinct_keys as f64 / first.queries.max(1) as f64)
    ));
    t.note(
        "latency is arrival-to-merge (queueing included; the open loop keeps arriving on \
         schedule when the server falls behind — 'sat' marks runtimes that did)",
    );
    t.note(
        "'coal' = queries answered by the pool's admission coalescing (duplicate in-batch \
         Zipf repeats execute once, answers bit-identical — pinned by the pool_oracle test); \
         the sequential baseline executes every arrival individually",
    );
    t.note(
        "gate (enforced): pool achieved qps >= sequential and pool p99 <= sequential p99 at \
         every shard count",
    );
    t.note(format!("machine-readable copy written to {json_path}"));

    for &shards in &SHARD_COUNTS {
        let pool = find(&results, shards, Runtime::Pool);
        let seq = find(&results, shards, Runtime::Sequential);
        assert!(
            pool.achieved_qps >= seq.achieved_qps,
            "e18 gate: pool qps {:.0} below sequential {:.0} at {shards} shard(s)",
            pool.achieved_qps,
            seq.achieved_qps
        );
        // Latency tripwire: the pool must never buy throughput with a
        // worse tail than the single-core floor.
        assert!(
            pool.latency.p99 <= seq.latency.p99,
            "e18 gate: pool p99 {:?} above sequential p99 {:?} at {shards} shard(s)",
            pool.latency.p99,
            seq.latency.p99
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One Quick sweep, shared by the tests below.
    fn quick() -> &'static [ThroughputResult] {
        static RESULTS: OnceLock<Vec<ThroughputResult>> = OnceLock::new();
        RESULTS.get_or_init(|| measure(Scale::Quick))
    }

    #[test]
    fn e18_sweep_shape_and_sanity() {
        let results = quick();
        assert_eq!(results.len(), SHARD_COUNTS.len() * 2);
        for r in results {
            assert!(r.achieved_qps > 0.0, "{:?} x{}", r.runtime, r.shards);
            assert!(r.offered_qps > 0.0);
            assert!(r.latency.p50 <= r.latency.p95);
            assert!(r.latency.p95 <= r.latency.p99);
            assert!(r.latency.p99 <= r.latency.max);
            assert_eq!(r.queries, results[0].queries);
            // A Zipf stream has genuine cross-batch repeats: strictly
            // fewer distinct keys than arrivals, but more than one.
            assert!(r.distinct_keys > 1 && r.distinct_keys < r.queries);
            // Achieved can exceed offered only by scheduling jitter, not
            // structurally (the open loop bounds admission).
            assert!(r.achieved_qps <= r.offered_qps * 1.25);
        }
        // The sequential baseline runs at OVERLOAD x its own capacity:
        // it must be saturated at every shard count.
        for &shards in &SHARD_COUNTS {
            assert!(
                find(results, shards, Runtime::Sequential).saturated,
                "sequential runtime kept up with {OVERLOAD}x its capacity at {shards} shard(s)"
            );
        }
        // Coalescing belongs to the pool's admission queue alone, and a
        // Zipf stream under pressure always presents duplicates.
        for r in results {
            match r.runtime {
                Runtime::Pool => assert!(
                    r.coalesced > 0,
                    "pool saw no duplicate arrivals at {} shard(s)",
                    r.shards
                ),
                Runtime::Sequential => assert_eq!(r.coalesced, 0),
            }
        }
    }

    #[test]
    fn e18_json_is_well_formed() {
        let results = quick();
        let json = document(Scale::Quick, results).render();
        assert!(json.contains("\"experiment\": \"e18\""));
        assert_eq!(json.matches("{\"shards\"").count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
