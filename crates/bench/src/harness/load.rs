//! The open-loop load harness shared by the serving experiments
//! (E18–E21): one Zipf stream builder, one session builder, one
//! single-shard reference engine (capacity calibration and the
//! differential oracle), and one open-loop driver with a bounded
//! in-flight window.
//!
//! The driver is *open-loop*: arrival `i` is due at `i / offered_qps`
//! regardless of how the server is coping — the discipline that exposes
//! queueing (a closed loop would politely slow down and hide it).
//! Arrivals due at the same poll are admitted as one batch, capped at
//! [`Load::max_batch`]: the cap is the backpressure knob a real front
//! end has. Per-query latency is arrival-to-merge (arrival timestamp to
//! the completion of the batch that carried the query).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_corpus::{
    generate_query_stream, Collection, CollectionConfig, DfBias, QueryConfig, StreamConfig,
};
use moa_ir::{InvertedIndex, PhysicalPlan};
use moa_serve::{
    BatchQuery, PendingBatch, QueryResponse, ServeConfig, ServeMode, ServeResult, ServeSession,
    ShardedEngine,
};

use super::{Percentiles, Scale};

/// The serving experiments' collection and its unsharded index: the
/// small preset at Quick scale, the FT-scale preset at Full.
pub fn corpus(scale: Scale) -> (Collection, Arc<InvertedIndex>) {
    let config = match scale {
        Scale::Quick => CollectionConfig::small(),
        Scale::Full => CollectionConfig::ft_scale(),
    };
    let collection = Collection::generate(config).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    (collection, index)
}

/// A Zipf-popularity query stream: a pool of distinct frequent-term
/// queries, and arrivals drawn over its ranks with popularity
/// `∝ 1 / rank^exponent` (hot queries repeat, per
/// `moa_corpus::generate_query_stream`).
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    /// Seed of the distinct query pool.
    pub pool_seed: u64,
    /// Seed of the arrival sequence over the pool.
    pub stream_seed: u64,
    /// Zipf popularity exponent.
    pub exponent: f64,
}

impl Zipf {
    /// The stream configuration at `scale`: 30 pool queries and 240
    /// arrivals at Quick scale, 40 and 480 at Full.
    pub fn config(&self, scale: Scale) -> StreamConfig {
        let (pool_size, length) = match scale {
            Scale::Quick => (30, 240),
            Scale::Full => (40, 480),
        };
        StreamConfig {
            pool: QueryConfig {
                num_queries: pool_size,
                bias: DfBias::FrequentOnly,
                seed: self.pool_seed,
                ..QueryConfig::default()
            },
            length,
            exponent: self.exponent,
            seed: self.stream_seed,
        }
    }

    /// Generate the stream over `collection`, every arrival ranked to
    /// depth `n`.
    pub fn stream(&self, collection: &Collection, scale: Scale, n: usize) -> Vec<BatchQuery> {
        generate_query_stream(collection, &self.config(scale))
            .expect("valid stream config")
            .into_iter()
            .map(|q| BatchQuery { terms: q.terms, n })
            .collect()
    }
}

/// Distinct `(terms, n)` keys in a stream — the denominator of the
/// cross-batch repeat rate (`1 - distinct/total`) a result cache turns
/// into O(1) hits.
pub fn distinct_key_count(stream: &[BatchQuery]) -> usize {
    let keys: HashSet<(&[u32], usize)> = stream.iter().map(|q| (q.terms.as_slice(), q.n)).collect();
    keys.len()
}

/// A serving session over `index`.
pub fn session(index: &Arc<InvertedIndex>, config: ServeConfig) -> ServeSession {
    ServeSession::new(Arc::clone(index), config).expect("collection shards cleanly")
}

/// The sequential reference engine: `shards` range shards with the
/// production geometry of [`ServeConfig::planned`], executed on the
/// calling thread.
pub fn reference_engine(index: &Arc<InvertedIndex>, shards: usize) -> ShardedEngine {
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

/// Warmed single-thread capacity (queries/sec): a one-shard reference
/// engine serves `stream` in `max_batch` chunks on the calling thread,
/// once to settle planner calibration and lazily built bound tables,
/// then once timed.
pub fn single_thread_capacity(
    index: &Arc<InvertedIndex>,
    stream: &[BatchQuery],
    max_batch: usize,
) -> f64 {
    let mut engine = reference_engine(index, 1);
    let mut pass = || {
        for chunk in stream.chunks(max_batch) {
            let _ = engine
                .execute_batch_sequential(chunk, ServeMode::Planned, true)
                .expect("in-vocabulary stream");
        }
    };
    pass();
    let t0 = Instant::now();
    pass();
    stream.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// The differential oracle: every distinct `(terms, n)` of a query set
/// answered once by an unsharded engine running the naive set-at-a-time
/// plan — exact, and independent of the serving planner, shards, pool,
/// and cache.
pub struct Oracle {
    answers: HashMap<(Vec<u32>, usize), RankingBits>,
}

/// A ranking as `(doc, score bits)`, best first: equality is bit-exact.
type RankingBits = Vec<(u32, u64)>;

impl Oracle {
    /// Answer every distinct query of `queries`.
    pub fn build(index: &Arc<InvertedIndex>, queries: &[BatchQuery]) -> Oracle {
        let mut seen = HashSet::new();
        let distinct: Vec<BatchQuery> = queries
            .iter()
            .filter(|q| seen.insert((q.terms.as_slice(), q.n)))
            .cloned()
            .collect();
        let mut engine = reference_engine(index, 1);
        let mut answers = HashMap::with_capacity(distinct.len());
        for chunk in distinct.chunks(32) {
            let responses = engine
                .execute_batch_sequential(chunk, ServeMode::Fixed(PhysicalPlan::SetAtATime), true)
                .expect("in-vocabulary queries");
            for (q, r) in chunk.iter().zip(responses) {
                answers.insert((q.terms.clone(), q.n), bits(&r.top));
            }
        }
        Oracle { answers }
    }

    /// Whether a served ranking matches the oracle's bit for bit.
    ///
    /// # Panics
    /// If `q` was not among the queries the oracle was built over.
    pub fn matches(&self, q: &BatchQuery, top: &[(u32, f64)]) -> bool {
        let want = self
            .answers
            .get(&(q.terms.clone(), q.n))
            .expect("query answered by the oracle");
        *want == bits(top)
    }
}

fn bits(top: &[(u32, f64)]) -> RankingBits {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// A serving runtime the open-loop driver admits batches into.
pub trait Server {
    /// An admitted batch not yet collected.
    type Pending;

    /// Admit one batch. `Err` is an admission refusal (shed): nothing of
    /// the batch executed.
    fn admit(&mut self, batch: &[BatchQuery]) -> ServeResult<Self::Pending>;

    /// Redeem an admitted batch: the instant it completed and its
    /// per-position answers.
    fn complete(&mut self, pending: Self::Pending) -> (Instant, Vec<ServeResult<QueryResponse>>);

    /// Lifetime count of queries answered by admission coalescing (0 for
    /// a runtime that executes every position).
    fn coalesced(&self) -> usize {
        0
    }
}

/// The production runtime: pool admission, collected later, so merge and
/// bookkeeping overlap shard service.
impl Server for ServeSession {
    type Pending = PendingBatch;

    fn admit(&mut self, batch: &[BatchQuery]) -> ServeResult<PendingBatch> {
        self.enqueue(batch)
    }

    fn complete(&mut self, pending: PendingBatch) -> (Instant, Vec<ServeResult<QueryResponse>>) {
        let report = self.collect(pending);
        (Instant::now(), report.responses)
    }

    fn coalesced(&self) -> usize {
        self.stats().queries_coalesced
    }
}

/// The single-core floor: every admitted batch executes on the driver
/// thread, shard after shard, under the production posture (planned,
/// propagating) before admission returns.
impl Server for ShardedEngine {
    type Pending = (Instant, Vec<ServeResult<QueryResponse>>);

    fn admit(&mut self, batch: &[BatchQuery]) -> ServeResult<Self::Pending> {
        let responses = self
            .execute_batch_sequential(batch, ServeMode::Planned, true)
            .expect("in-vocabulary stream");
        Ok((Instant::now(), responses.into_iter().map(Ok).collect()))
    }

    fn complete(&mut self, done: Self::Pending) -> (Instant, Vec<ServeResult<QueryResponse>>) {
        done
    }
}

/// How a drive offers its stream.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Arrival rate: arrival `i` is due `i / offered_qps` seconds after
    /// the drive starts.
    pub offered_qps: f64,
    /// Admission batch cap.
    pub max_batch: usize,
    /// Admitted batches held uncollected; admitting one more collects
    /// the oldest. With 1 the driver admits the next batch, *then*
    /// collects the previous.
    pub window: usize,
}

/// What one drive observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drive {
    /// Positions answered `Ok` (full or partial).
    pub completed: usize,
    /// Positions refused at admission.
    pub shed: usize,
    /// Positions that failed in flight.
    pub failed: usize,
    /// Positions answered by admission coalescing during the drive.
    pub coalesced: usize,
    /// Completion rate of answered positions (queries/sec).
    pub achieved_qps: f64,
    /// Arrival-to-merge latency of answered positions (zeros if none).
    pub latency: Percentiles,
}

/// Drive `stream` open-loop into `server` under `load`. `settle` sees
/// every collected batch — its queries and per-position answers — after
/// the driver has taken the batch's completion time.
pub fn drive<S: Server>(
    server: &mut S,
    stream: &[BatchQuery],
    load: Load,
    mut settle: impl FnMut(&[BatchQuery], &[ServeResult<QueryResponse>]),
) -> Drive {
    let coalesced_before = server.coalesced();
    let t0 = Instant::now();
    let arrival = |i: usize| t0 + Duration::from_secs_f64(i as f64 / load.offered_qps);
    let mut out = Drive::default();
    let mut latencies: Vec<Duration> = Vec::with_capacity(stream.len());
    let mut last_done = t0;
    let mut in_flight: VecDeque<(S::Pending, usize, usize)> =
        VecDeque::with_capacity(load.window + 1);
    let mut collect = |server: &mut S, (pending, from, to): (S::Pending, usize, usize)| {
        let (done, responses) = server.complete(pending);
        for (i, r) in (from..to).zip(&responses) {
            match r {
                Ok(_) => {
                    out.completed += 1;
                    latencies.push(done.saturating_duration_since(arrival(i)));
                }
                Err(_) => out.failed += 1,
            }
        }
        settle(&stream[from..to], &responses);
        done
    };
    let mut next = 0usize;
    while next < stream.len() {
        // Open loop: spin until the next arrival is due, whether or not
        // the server has caught up.
        while Instant::now() < arrival(next) {
            std::hint::spin_loop();
        }
        let now = Instant::now();
        let mut end = next + 1;
        while end < stream.len() && end - next < load.max_batch && arrival(end) <= now {
            end += 1;
        }
        match server.admit(&stream[next..end]) {
            Ok(pending) => {
                in_flight.push_back((pending, next, end));
                if in_flight.len() > load.window {
                    let oldest = in_flight.pop_front().expect("window exceeded");
                    last_done = collect(server, oldest);
                }
            }
            Err(e) => {
                debug_assert!(e.is_shed(), "admission can only refuse by shedding: {e}");
                out.shed += end - next;
            }
        }
        next = end;
    }
    while let Some(oldest) = in_flight.pop_front() {
        last_done = collect(server, oldest);
    }
    let elapsed = last_done.saturating_duration_since(t0);
    out.achieved_qps = out.completed as f64 / elapsed.as_secs_f64().max(1e-9);
    out.latency = Percentiles::of(&mut latencies).unwrap_or_default();
    out.coalesced = server.coalesced() - coalesced_before;
    out
}

/// One untimed warm-up drive — settling planner calibration, lazily
/// built bound tables and any result cache — then the best of `replays`
/// drives (highest achieved throughput), the minimum-noise statistic on
/// a shared host. The server persists across replays.
///
/// # Panics
/// If any drive sheds or fails a position: blocking admission of an
/// in-vocabulary stream serves every arrival.
pub fn best_drive<S: Server>(
    server: &mut S,
    stream: &[BatchQuery],
    load: Load,
    replays: usize,
) -> Drive {
    let run = |server: &mut S| {
        let d = drive(server, stream, load, |_, _| {});
        assert_eq!(
            d.shed + d.failed,
            0,
            "blocking admission of an in-vocabulary stream serves every arrival"
        );
        d
    };
    let _ = run(server);
    (0..replays.max(1))
        .map(|_| run(server))
        .max_by(|a, b| a.achieved_qps.total_cmp(&b.achieved_qps))
        .expect("at least one replay")
}
