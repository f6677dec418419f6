//! The three workloads, their fixed rates and latency limits, and the
//! seeded generation of their inputs.
//!
//! The rates are absolute and never recalibrated: they were chosen once
//! from the measured capacity of the serving stack (2 shards, 2 cores),
//! low enough that latency at `light` and `heavy` repeats between runs on
//! a shared host, and are mirrored in the `why` of each workload
//! `BENCHMARK.json` lists.

use std::collections::HashMap;
use std::time::Duration;

use moa_corpus::{generate_queries, Collection, DfBias, QueryConfig, Zipf};
use moa_serve::BatchQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ranking depth of every query.
pub const TOP_N: usize = 100;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache front end: a warm Zipf-hot Topical pool that fits the cache.
    ZipfHot,
    /// Engine and planner: near-uniform TrecLike arrivals, ~90% distinct.
    ColdTrec,
    /// `ZipfHot` plus scheduled cache invalidations (refill storms).
    ZipfChurn,
}

/// A workload's fixed serving parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The `light` rate (queries per second).
    pub light_qps: f64,
    /// The `heavy` rate, below the knee.
    pub heavy_qps: f64,
    /// Offered rate of the saturation phase, well above capacity: the
    /// top of the rate ladder.
    pub sat_qps: f64,
    /// The p99 latency limit behind `slo_qps` (ms).
    pub p99_limit_ms: f64,
    /// Period of `ServeSession::invalidate_epoch` calls, if any.
    pub invalidate_every: Option<Duration>,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::ZipfHot, Workload::ColdTrec, Workload::ZipfChurn];

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The workload's fixed parameters.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ZipfHot => Spec {
                name: "zipf_hot",
                light_qps: 125_000.0,
                heavy_qps: 250_000.0,
                sat_qps: 3_000_000.0,
                p99_limit_ms: 0.25,
                invalidate_every: None,
            },
            Workload::ColdTrec => Spec {
                name: "cold_trec",
                light_qps: 300.0,
                heavy_qps: 600.0,
                sat_qps: 15_000.0,
                p99_limit_ms: 25.0,
                invalidate_every: None,
            },
            Workload::ZipfChurn => Spec {
                name: "zipf_churn",
                light_qps: 3_000.0,
                heavy_qps: 6_000.0,
                sat_qps: 1_000_000.0,
                p99_limit_ms: 30.0,
                invalidate_every: Some(Duration::from_secs(4)),
            },
        }
    }
}

/// Distinct queries of the hot pool (before removing duplicates).
const HOT_POOL: usize = 1000;
/// Zipf exponent of the hot pool's popularity.
const HOT_EXPONENT: f64 = 1.0;
/// The cold pool holds this many queries per arrival of the stream, so
/// about 90% of uniformly drawn arrivals are distinct.
const COLD_POOL_PER_ARRIVAL: usize = 5;
/// Cold warm-up arrivals (drawn from the same pool, ahead of the stream).
const COLD_WARMUP: usize = 1000;

/// A workload's generated inputs. Arrivals name queries by their index
/// in `queries`, which holds each distinct query once.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The distinct queries.
    pub queries: Vec<BatchQuery>,
    /// Queries served closed-loop before any timing.
    pub warmup: Vec<u32>,
    /// The timed arrivals, in order.
    pub stream: Vec<u32>,
}

/// SplitMix64: derives independent generator seeds from `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Interns query term lists, keeping the first occurrence's position.
#[derive(Default)]
struct Interner {
    ids: HashMap<Vec<u32>, u32>,
    queries: Vec<BatchQuery>,
}

impl Interner {
    fn id(&mut self, terms: &[u32]) -> u32 {
        if let Some(&id) = self.ids.get(terms) {
            return id;
        }
        let id = self.queries.len() as u32;
        self.ids.insert(terms.to_vec(), id);
        self.queries.push(BatchQuery {
            terms: terms.to_vec(),
            n: TOP_N,
        });
        id
    }
}

/// Generate `workload`'s inputs from `seed`: `arrivals` timed arrivals
/// plus the warm-up set. The same arguments give the same inputs.
pub fn generate(collection: &Collection, workload: Workload, seed: u64, arrivals: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let mut interner = Interner::default();
    match workload {
        Workload::ZipfHot | Workload::ZipfChurn => {
            let pool = generate_queries(
                collection,
                &QueryConfig {
                    num_queries: HOT_POOL,
                    bias: DfBias::Topical { high_df_mix: 0.2 },
                    seed: mix(seed, 1),
                    ..QueryConfig::default()
                },
            )
            .expect("valid hot pool config");
            // Popularity ranks follow pool order; duplicates share an id.
            let ids: Vec<u32> = pool.iter().map(|q| interner.id(&q.terms)).collect();
            let popularity = Zipf::new(ids.len(), HOT_EXPONENT).expect("non-empty pool");
            let stream = (0..arrivals)
                .map(|_| ids[popularity.sample(&mut rng)])
                .collect();
            Inputs {
                warmup: (0..interner.queries.len() as u32).collect(),
                queries: interner.queries,
                stream,
            }
        }
        Workload::ColdTrec => {
            let pool = generate_queries(
                collection,
                &QueryConfig {
                    num_queries: COLD_POOL_PER_ARRIVAL * (arrivals + COLD_WARMUP),
                    bias: DfBias::TrecLike { high_df_mix: 0.2 },
                    seed: mix(seed, 1),
                    ..QueryConfig::default()
                },
            )
            .expect("valid cold pool config");
            let mut draw = || interner.id(&pool[rng.gen_range(0..pool.len())].terms);
            let warmup = (0..COLD_WARMUP).map(|_| draw()).collect();
            let stream = (0..arrivals).map(|_| draw()).collect();
            Inputs {
                queries: interner.queries,
                warmup,
                stream,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::CollectionConfig;

    fn collection() -> Collection {
        Collection::generate(CollectionConfig::tiny()).expect("valid preset")
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_change_with_it() {
        let c = collection();
        for w in Workload::ALL {
            let a = generate(&c, w, 7, 500);
            assert_eq!(a, generate(&c, w, 7, 500), "{w:?}");
            assert_ne!(a.stream, generate(&c, w, 8, 500).stream, "{w:?}");
            assert_eq!(a.stream.len(), 500);
            assert!(a.stream.iter().all(|&q| (q as usize) < a.queries.len()));
        }
    }

    #[test]
    fn cold_arrivals_are_mostly_distinct_and_hot_ones_repeat() {
        let c = collection();
        let distinct = |w| {
            let i = generate(&c, w, 3, 2000);
            let mut s = i.stream.clone();
            s.sort_unstable();
            s.dedup();
            s.len() as f64 / i.stream.len() as f64
        };
        assert!(distinct(Workload::ColdTrec) > 0.8);
        assert!(distinct(Workload::ZipfHot) < 0.5);
    }

    #[test]
    fn rates_ascend_and_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut listed = 0;
        for w in Workload::ALL {
            let s = w.spec();
            assert!(s.light_qps < s.heavy_qps && s.heavy_qps < s.sat_qps);
            let Some(why) = manifest
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{}\"", s.name)))
            else {
                continue;
            };
            listed += 1;
            let rates = format!(
                "light {} / heavy {} qps",
                s.light_qps as u64, s.heavy_qps as u64
            );
            assert!(why.contains(&rates), "{} why lacks '{rates}'", s.name);
            let limit = format!("p99 limit {} ms", s.p99_limit_ms);
            assert!(why.contains(&limit), "{} why lacks '{limit}'", s.name);
        }
        assert!(listed >= 2, "BENCHMARK.json lists at least two workloads");
    }
}
