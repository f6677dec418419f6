//! E21 — cross-batch result caching: amortizing Zipf repeats end to end.
//!
//! E18 showed the pool's admission coalescing folding duplicate queries
//! *within* a batch; the stream's repeats are overwhelmingly
//! **cross-batch** (its `repeat_rate` is far above any single batch's
//! duplicate share). The serving session's [`moa_serve::ResultCache`]
//! turns those into O(1) answer lookups consulted before admission — a
//! hit never occupies a worker slot — and the shard planners memoize
//! plan decisions by df-band signature. This experiment prices both
//! levels under the E18 open-loop replay discipline, in three phases:
//!
//! * **Skew sweep (throughput)** — the same Zipf stream generator at
//!   several popularity exponents, cache **off** vs cache **on**, each
//!   driven open-loop at `OVERLOAD` × the measured cache-off capacity.
//!   The cache-off session saturates at its capacity; the cached session
//!   keeps up with the offered rate because hits bypass the workers.
//!   Gate: cached throughput ≥ [`GATE_SPEEDUP`] × uncached at the most
//!   skewed mix, and the cache's byte high-water stays within its
//!   configured bound.
//! * **Miss overhead** — an all-distinct stream with the cache epoch
//!   flash-invalidated before every replay, so every single lookup
//!   misses and inserts: the price of carrying the cache when it never
//!   helps. Gate: uncached wall ≥ cached wall / [`MISS_OVERHEAD_BOUND`]
//!   (the cache may cost at most 5%).
//! * **Invalidate storm (correctness)** — the Zipf stream served with
//!   [`moa_serve::ServeSession::invalidate_epoch`] fired before *every*
//!   batch. Gates: zero cache hits survive the storm (a hit after an
//!   invalidation would be a stale answer by definition) and every
//!   response is **bit-identical** to an unsharded naive set-at-a-time
//!   oracle — the cache may change where answers come from, never what
//!   they are.
//!
//! The committed figures live in `BENCH_cache.json`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_corpus::{Collection, QueryConfig};
use moa_ir::{InvertedIndex, PhysicalPlan};
use moa_serve::{BatchQuery, CacheConfig, ServeConfig, ServeMode, ServeSession};

use crate::harness::load::{self, Load, Oracle, Zipf};
use crate::harness::{Scale, Table};

/// Ranking depth (matches the E18/E20 serving posture).
const TOP_N: usize = 100;

/// Worker shards: the smallest parallel pool — the cache's win must not
/// depend on a wide machine.
const SHARDS: usize = 2;

/// Admission batch cap (same knob, same honesty argument as E18).
const MAX_BATCH: usize = 32;

/// Offered load as a multiple of the measured *cache-off* capacity:
/// above 1 so the uncached session saturates and the cached session has
/// headroom to demonstrate.
const OVERLOAD: f64 = 1.75;

/// Replays per cell; the best replay is reported.
const REPLAYS: usize = 5;

/// Zipf popularity exponents swept, least to most skewed. The last is
/// the gated mix.
const SKEWS: [f64; 3] = [0.4, 1.0, 1.6];

/// The stream at popularity `exponent`: one query pool and one arrival
/// seed across the sweep.
const fn zipf(exponent: f64) -> Zipf {
    Zipf {
        pool_seed: 0xE21,
        stream_seed: 0x21AC,
        exponent,
    }
}

/// The headline gate: cached throughput over uncached at the most
/// skewed exponent.
pub const GATE_SPEEDUP: f64 = 1.3;

/// The miss-overhead gate: on an all-distinct (zero-hit) stream the
/// cached session's wall time may exceed the uncached session's by at
/// most this factor.
pub const MISS_OVERHEAD_BOUND: f64 = 1.05;

/// One skew-sweep cell (cache off and on, same stream and offered rate).
pub struct SkewResult {
    /// Zipf popularity exponent of the stream.
    pub exponent: f64,
    /// Arrivals in the stream.
    pub queries: usize,
    /// Distinct `(terms, n)` keys — `1 - distinct/total` is the repeat
    /// rate the cache can amortize.
    pub distinct_keys: usize,
    /// Offered arrival rate (queries/sec), shared by both modes.
    pub offered_qps: f64,
    /// Best-replay throughput with the cache disabled.
    pub off_qps: f64,
    /// Best-replay throughput with the cache enabled.
    pub on_qps: f64,
    /// Lifetime cache hits over the cached session's driven replays.
    pub cache_hits: u64,
    /// Hit fraction of all cached-session lookups.
    pub hit_rate: f64,
    /// Plan-memo hits observed by the cached session's shard planners.
    pub plans_memoized: usize,
    /// Cache byte high-water mark (gated ≤ `capacity_bytes`).
    pub bytes_high_water: u64,
    /// The configured cache byte bound.
    pub capacity_bytes: usize,
}

/// Phase B: the all-miss overhead measurement.
pub struct MissOverhead {
    /// Distinct queries served per pass.
    pub queries: usize,
    /// Best (minimum) uncached wall time for one pass.
    pub off_wall: Duration,
    /// Best (minimum) cached wall time for one pass, every lookup a
    /// miss (epoch invalidated before each pass).
    pub on_wall: Duration,
    /// `on_wall / off_wall` — gated ≤ [`MISS_OVERHEAD_BOUND`].
    pub overhead: f64,
}

/// Phase C: the invalidate-storm correctness sweep.
pub struct StormResult {
    /// Batches driven, each preceded by an epoch invalidation.
    pub batches: usize,
    /// Queries checked bit-for-bit against the naive oracle.
    pub queries: usize,
    /// Cache hits observed during the storm — gated to be exactly 0
    /// (any hit after an invalidation is a stale answer).
    pub stale_hits: u64,
    /// Entries the storm inserted (the cache kept working).
    pub insertions: u64,
    /// Lazily reclaimed + capacity-evicted entries.
    pub evictions: u64,
}

/// The planned posture at [`SHARDS`] with the result cache on or off.
fn config(cache: Option<CacheConfig>) -> ServeConfig {
    ServeConfig {
        cache,
        ..ServeConfig::planned(SHARDS)
    }
}

/// Phase A: the skew sweep.
fn measure_skews(
    collection: &Collection,
    index: &Arc<InvertedIndex>,
    scale: Scale,
) -> Vec<SkewResult> {
    let mut results = Vec::new();
    for &exponent in &SKEWS {
        let stream = zipf(exponent).stream(collection, scale, TOP_N);
        let distinct_keys = load::distinct_key_count(&stream);

        // Cache-off capacity: drive flat out (arrivals all due at t0),
        // after a warm-up replay — achieved == capacity by construction.
        let mut off = load::session(index, config(None));
        let flat_out = Load {
            offered_qps: 1e9,
            max_batch: MAX_BATCH,
            window: 1,
        };
        let capacity = load::best_drive(&mut off, &stream, flat_out, 1).achieved_qps;
        let arrivals = Load {
            offered_qps: OVERLOAD * capacity,
            ..flat_out
        };

        // A persistent session keeps the cache warm across replays — the
        // steady state a long-lived server reaches, which is exactly what
        // the sweep is pricing.
        let off_qps = load::best_drive(&mut off, &stream, arrivals, REPLAYS).achieved_qps;
        let mut on = load::session(index, config(Some(CacheConfig::default())));
        let on_qps = load::best_drive(&mut on, &stream, arrivals, REPLAYS).achieved_qps;

        let cache = on.result_cache().expect("cache configured").stats();
        let plans_memoized = on.stats().plans_memoized;
        results.push(SkewResult {
            exponent,
            queries: stream.len(),
            distinct_keys,
            offered_qps: arrivals.offered_qps,
            off_qps,
            on_qps,
            cache_hits: cache.hits,
            hit_rate: cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            plans_memoized,
            bytes_high_water: cache.bytes_high_water,
            capacity_bytes: on
                .result_cache()
                .expect("cache configured")
                .capacity_bytes(),
        });
    }
    results
}

/// Phase B: carry the cache through an all-distinct stream where it can
/// never help, and price the pure miss path (lookup + insert) against a
/// session with no cache at all. Closed-loop: wall time for one pass.
fn measure_miss_overhead(
    collection: &Collection,
    index: &Arc<InvertedIndex>,
    scale: Scale,
) -> MissOverhead {
    // Every key distinct: the Zipf pool *is* the stream, deduplicated.
    let pool = zipf(1.0).config(scale).pool;
    let pool = QueryConfig {
        num_queries: match scale {
            Scale::Quick => 120,
            Scale::Full => 240,
        },
        ..pool
    };
    let queries = moa_corpus::generate_queries(collection, &pool).expect("valid workload");
    let mut seen = std::collections::HashSet::new();
    let stream: Vec<BatchQuery> = queries
        .into_iter()
        .filter(|q| seen.insert(q.terms.clone()))
        .map(|q| BatchQuery {
            terms: q.terms,
            n: TOP_N,
        })
        .collect();
    assert!(
        stream.len() > 16,
        "distinct pool collapsed: {}",
        stream.len()
    );

    let pass = |s: &mut ServeSession| -> Duration {
        let t0 = Instant::now();
        for chunk in stream.chunks(MAX_BATCH) {
            let _ = s.submit_many(chunk).expect("blocking admission");
        }
        t0.elapsed()
    };

    let mut off = load::session(index, config(None));
    let mut on = load::session(index, config(Some(CacheConfig::default())));
    let _ = pass(&mut off); // warm-up
    on.invalidate_epoch();
    let _ = pass(&mut on);
    let mut off_wall = Duration::MAX;
    let mut on_wall = Duration::MAX;
    for _ in 0..REPLAYS {
        off_wall = off_wall.min(pass(&mut off));
        // Flash-invalidate before each pass: every lookup must walk the
        // full miss path (probe, execute, re-insert over the stale slot).
        on.invalidate_epoch();
        on_wall = on_wall.min(pass(&mut on));
    }
    // The discipline held: an all-distinct, always-invalidated stream
    // can never hit.
    assert_eq!(
        on.stats().queries_cache_hit,
        0,
        "phase B must be a pure miss workload"
    );
    MissOverhead {
        queries: stream.len(),
        off_wall,
        on_wall,
        overhead: on_wall.as_secs_f64() / off_wall.as_secs_f64().max(1e-12),
    }
}

/// Phase C: invalidate before every batch and check every answer
/// bit-for-bit against an unsharded naive set-at-a-time oracle.
fn measure_storm(collection: &Collection, index: &Arc<InvertedIndex>, scale: Scale) -> StormResult {
    let stream = zipf(1.0).stream(collection, scale, TOP_N);
    // The serving side under storm: exact fixed plan so the unsharded
    // naive oracle is bit-comparable (every exact plan returns the
    // identical top-N — pinned by moa-ir's physical-plan oracle).
    let serving = ServeConfig {
        mode: ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        ..config(Some(CacheConfig::default()))
    };
    let mut svc = load::session(index, serving);
    let oracle = Oracle::build(index, &stream);

    let mut batches = 0usize;
    let mut checked = 0usize;
    for chunk in stream.chunks(MAX_BATCH) {
        svc.invalidate_epoch().expect("cache configured");
        let got = svc.submit_many(chunk).expect("blocking admission");
        for (qi, (q, g)) in chunk.iter().zip(&got.responses).enumerate() {
            let g = g.as_ref().expect("no faults in play");
            assert!(
                oracle.matches(q, &g.top),
                "storm batch {batches} q{qi}: cached serving diverged from the naive oracle"
            );
            checked += 1;
        }
        batches += 1;
    }
    let cache = svc.result_cache().expect("cache configured").stats();
    StormResult {
        batches,
        queries: checked,
        stale_hits: cache.hits,
        insertions: cache.insertions,
        evictions: cache.evictions,
    }
}

/// The full E21 measurement.
pub struct CacheResults {
    /// Phase A rows.
    pub skews: Vec<SkewResult>,
    /// Phase B figure.
    pub miss: MissOverhead,
    /// Phase C figure.
    pub storm: StormResult,
}

/// Run every phase.
pub fn measure(scale: Scale) -> CacheResults {
    let (collection, index) = load::corpus(scale);
    CacheResults {
        skews: measure_skews(&collection, &index, scale),
        miss: measure_miss_overhead(&collection, &index, scale),
        storm: measure_storm(&collection, &index, scale),
    }
}

/// Render the results as machine-readable JSON.
pub fn to_json(scale: Scale, r: &CacheResults) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"e21\",");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(out, "  \"top_n\": {TOP_N},");
    let _ = writeln!(out, "  \"shards\": {SHARDS},");
    let _ = writeln!(out, "  \"max_batch\": {MAX_BATCH},");
    let _ = writeln!(out, "  \"overload\": {OVERLOAD},");
    let _ = writeln!(out, "  \"replays\": {REPLAYS},");
    let _ = writeln!(out, "  \"gate_speedup\": {GATE_SPEEDUP},");
    let _ = writeln!(out, "  \"miss_overhead_bound\": {MISS_OVERHEAD_BOUND},");
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    let _ = writeln!(out, "  \"skew_sweep\": [");
    for (i, s) in r.skews.iter().enumerate() {
        let comma = if i + 1 < r.skews.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"exponent\": {}, \"queries\": {}, \"distinct_keys\": {}, \
             \"repeat_rate\": {:.3}, \"offered_qps\": {:.0}, \"off_qps\": {:.0}, \
             \"on_qps\": {:.0}, \"speedup\": {:.3}, \"cache_hits\": {}, \
             \"hit_rate\": {:.3}, \"plans_memoized\": {}, \
             \"bytes_high_water\": {}, \"capacity_bytes\": {}}}{comma}",
            s.exponent,
            s.queries,
            s.distinct_keys,
            1.0 - s.distinct_keys as f64 / s.queries.max(1) as f64,
            s.offered_qps,
            s.off_qps,
            s.on_qps,
            s.on_qps / s.off_qps.max(1e-9),
            s.cache_hits,
            s.hit_rate,
            s.plans_memoized,
            s.bytes_high_water,
            s.capacity_bytes,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"miss_overhead\": {{\"queries\": {}, \"off_wall_us\": {}, \
         \"on_wall_us\": {}, \"overhead\": {:.4}}},",
        r.miss.queries,
        r.miss.off_wall.as_micros(),
        r.miss.on_wall.as_micros(),
        r.miss.overhead,
    );
    let _ = writeln!(
        out,
        "  \"invalidate_storm\": {{\"batches\": {}, \"queries\": {}, \
         \"stale_hits\": {}, \"insertions\": {}, \"evictions\": {}, \
         \"bit_identical\": true}}",
        r.storm.batches, r.storm.queries, r.storm.stale_hits, r.storm.insertions, r.storm.evictions,
    );
    out.push_str("}\n");
    out
}

/// Run E21, emit `BENCH_cache.json`, and enforce the gates.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    let json = to_json(scale, &results);
    let json_path =
        std::env::var("MOA_BENCH_CACHE_JSON").unwrap_or_else(|_| "BENCH_cache.json".to_owned());
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("e21: could not write {json_path}: {e}");
    }

    let mut t = Table::new(
        "E21: cross-batch result cache (off vs on under open-loop Zipf load)",
        &[
            "exponent", "repeat", "offered", "off", "on", "speedup", "hit rate", "memo",
        ],
    );
    for s in &results.skews {
        t.row(vec![
            format!("{:.1}", s.exponent),
            format!(
                "{:.0}%",
                100.0 * (1.0 - s.distinct_keys as f64 / s.queries.max(1) as f64)
            ),
            format!("{:.0}/s", s.offered_qps),
            format!("{:.0}/s", s.off_qps),
            format!("{:.0}/s", s.on_qps),
            format!("{:.2}x", s.on_qps / s.off_qps.max(1e-9)),
            format!("{:.0}%", 100.0 * s.hit_rate),
            s.plans_memoized.to_string(),
        ]);
    }
    let first = results.skews.first().expect("non-empty sweep");
    t.note(format!(
        "open-loop Zipf streams of {} arrivals at {SHARDS} worker shard(s), top-{TOP_N}, \
         offered = {OVERLOAD} x measured cache-off capacity; best of {REPLAYS} replays; a \
         persistent session keeps the cache warm across replays (the long-lived server's \
         steady state)",
        first.queries
    ));
    t.note(format!(
        "miss overhead (all-distinct stream, epoch invalidated before every pass, {} \
         queries): cached {:.0}us vs uncached {:.0}us = {:.3}x (bound {MISS_OVERHEAD_BOUND})",
        results.miss.queries,
        results.miss.on_wall.as_micros(),
        results.miss.off_wall.as_micros(),
        results.miss.overhead,
    ));
    t.note(format!(
        "invalidate storm ({} batches, epoch bumped before each): {} answers bit-identical \
         to the unsharded set-at-a-time oracle, {} stale hits (must be 0), {} insertions",
        results.storm.batches,
        results.storm.queries,
        results.storm.stale_hits,
        results.storm.insertions,
    ));
    t.note(format!(
        "gates (enforced): speedup >= {GATE_SPEEDUP}x at exponent {:.1}; miss overhead <= \
         {MISS_OVERHEAD_BOUND}x; cache bytes high-water <= configured bound; zero stale \
         storm hits",
        SKEWS[SKEWS.len() - 1]
    ));
    t.note(format!("machine-readable copy written to {json_path}"));

    // Gate 1: the headline speedup at the most skewed mix.
    let gated = results.skews.last().expect("non-empty sweep");
    assert!(
        gated.on_qps >= GATE_SPEEDUP * gated.off_qps,
        "e21 gate: cached qps {:.0} below {GATE_SPEEDUP} x uncached {:.0} at exponent {}",
        gated.on_qps,
        gated.off_qps,
        gated.exponent
    );
    // Gate 2: the byte bound held at every skew.
    for s in &results.skews {
        assert!(
            s.bytes_high_water <= s.capacity_bytes as u64,
            "e21 gate: cache high-water {} bytes exceeded the {} bound at exponent {}",
            s.bytes_high_water,
            s.capacity_bytes,
            s.exponent
        );
        assert!(s.cache_hits > 0, "cached session never hit — sweep broken");
    }
    // Gate 3: carrying the cache through a pure-miss workload is nearly
    // free.
    assert!(
        results.miss.overhead <= MISS_OVERHEAD_BOUND,
        "e21 gate: miss overhead {:.3}x above the {MISS_OVERHEAD_BOUND}x bound",
        results.miss.overhead
    );
    // Gate 4: the storm returned zero stale results (bit-identity was
    // asserted per answer inside the measurement).
    assert_eq!(
        results.storm.stale_hits, 0,
        "e21 gate: {} cache hits survived the invalidate storm",
        results.storm.stale_hits
    );
    assert!(results.storm.insertions > 0, "storm cache never inserted");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::CollectionConfig;

    #[test]
    fn e21_storm_is_stale_free_and_bit_identical() {
        let config = CollectionConfig::tiny();
        let collection = Collection::generate(config).expect("valid preset");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let storm = measure_storm(&collection, &index, Scale::Quick);
        assert_eq!(storm.stale_hits, 0);
        assert!(storm.batches > 1);
        assert!(storm.queries > 0);
        assert!(storm.insertions > 0);
    }

    #[test]
    fn e21_miss_overhead_is_finite_and_pure() {
        let config = CollectionConfig::tiny();
        let collection = Collection::generate(config).expect("valid preset");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let miss = measure_miss_overhead(&collection, &index, Scale::Quick);
        assert!(miss.queries > 16);
        assert!(miss.overhead > 0.0 && miss.overhead.is_finite());
    }

    #[test]
    fn e21_json_is_well_formed() {
        // Synthetic results: the JSON renderer is pure.
        let r = CacheResults {
            skews: vec![SkewResult {
                exponent: 1.6,
                queries: 240,
                distinct_keys: 30,
                offered_qps: 1000.0,
                off_qps: 600.0,
                on_qps: 950.0,
                cache_hits: 1000,
                hit_rate: 0.9,
                plans_memoized: 42,
                bytes_high_water: 1 << 16,
                capacity_bytes: 8 << 20,
            }],
            miss: MissOverhead {
                queries: 120,
                off_wall: Duration::from_micros(900),
                on_wall: Duration::from_micros(910),
                overhead: 1.011,
            },
            storm: StormResult {
                batches: 8,
                queries: 240,
                stale_hits: 0,
                insertions: 240,
                evictions: 200,
            },
        };
        let json = to_json(Scale::Quick, &r);
        assert!(json.contains("\"experiment\": \"e21\""));
        assert!(json.contains("\"stale_hits\": 0"));
        assert!(json.contains("\"speedup\": 1.583"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
