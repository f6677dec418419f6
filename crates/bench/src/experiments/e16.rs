//! E16 — sharded serving scaling: shards × threshold propagation.
//!
//! The ROADMAP's serving north star, measured: the collection is
//! document-partitioned into P ∈ {1, 2, 4, 8} shards behind
//! `moa_serve::ServeSession` (per-shard planner picks, tie-stable
//! merge), and a fixed query batch is replayed at every shard count with
//! cross-shard threshold propagation on and off.
//!
//! Figures per configuration (medians over `RUNS` replays):
//!
//! * **crit. path** — the busiest shard's summed busy time, taken from a
//!   *sequential* profiling replay (each shard alone, so the figure is
//!   free of scheduler interference): the batch wall a deployment with
//!   one core per shard converges to,
//! * **speedup** — crit. path(1 shard) / crit. path(P shards), same
//!   propagation mode,
//! * **postings** — total postings scanned across shards and queries,
//!   with the overhead (or saving) vs the single shard. Sharding changes
//!   the *work*, not just its distribution: every shard warms its own
//!   heap (overhead), but shard-local block-max tables are tighter than
//!   collection-wide ones and the propagated threshold prunes off
//!   competition a shard cannot see locally (savings).
//!
//! E16 used to also report a "batch wall" and gate a wall-speedup on it.
//! That figure was *worse than misleading*: the scoped-thread-per-batch
//! runtime it measured paid a thread spawn/join per shard per batch —
//! more than the queries themselves cost — and clocked 0.44–0.76× the
//! sequential wall at 2–8 shards while the gate certified it as the
//! serving path. The metric is deleted; end-to-end serving throughput
//! and latency are E18's job (`BENCH_throughput.json`), measured under
//! sustained load on the persistent worker pool that replaced the
//! scoped path. E16 keeps what it can measure honestly: deterministic
//! work and critical-path scaling.
//!
//! Correctness and scaling are enforced, not assumed: every
//! configuration's merged top-N must be identical to the single-shard
//! answers, at every P > 1 propagation must not scan more than the
//! oblivious mode, and the 4-shard propagating critical path must beat
//! the single shard — the run (and CI's E16 smoke) fails otherwise.

use std::fmt::Write as _;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig};
use moa_ir::InvertedIndex;
use moa_serve::{BatchQuery, ServeConfig, ServeSession, ShardSpec};

use crate::harness::{fmt_duration, Scale, Table};

/// Ranking depth. Deep enough that ranking is real work per shard (the
/// regime where a serving layer matters); the propagated threshold still
/// bites because every shard chases the same global N-th score.
const TOP_N: usize = 100;

/// Shard counts swept.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Timed replays per configuration (median reported).
const RUNS: usize = 3;

/// One measured configuration.
pub struct ServingResult {
    /// Shard count.
    pub shards: usize,
    /// Whether cross-shard threshold propagation was on.
    pub propagate: bool,
    /// Median critical path: the busiest shard's summed busy time — the
    /// batch wall a deployment with one core per shard converges to.
    pub critical_path: Duration,
    /// Total postings scanned (all shards, all queries, one replay).
    pub postings: usize,
    /// Queries in the batch.
    pub queries: usize,
}

fn session(index: &Arc<InvertedIndex>, shards: usize, propagate: bool) -> ServeSession {
    let config = ServeConfig {
        shard_spec: ShardSpec::Range { shards },
        propagate,
        ..ServeConfig::planned(shards)
    };
    ServeSession::new(Arc::clone(index), config).expect("collection shards cleanly")
}

/// Run the shards × propagation sweep.
pub fn measure(scale: Scale) -> Vec<ServingResult> {
    let config = match scale {
        Scale::Quick => CollectionConfig::small(),
        Scale::Full => CollectionConfig::ft_scale(),
    };
    let collection = Collection::generate(config).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let num_queries = match scale {
        Scale::Quick => 30,
        Scale::Full => 40,
    };
    let batch: Vec<BatchQuery> = generate_queries(
        &collection,
        &QueryConfig {
            num_queries,
            bias: DfBias::FrequentOnly,
            seed: 0xE16,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload config")
    .into_iter()
    .map(|q| BatchQuery {
        terms: q.terms,
        n: TOP_N,
    })
    .collect();

    // The answers every configuration must reproduce.
    let reference = session(&index, 1, false)
        .submit_many(&batch)
        .expect("blocking admission never sheds");

    let mut results = Vec::new();
    for propagate in [false, true] {
        for &shards in &SHARD_COUNTS {
            let mut svc = session(&index, shards, propagate);
            // Warm-up replay: settles per-shard planner calibration and
            // lazily built bound tables, and pins correctness. Sequential,
            // so the calibration state every later figure rests on is
            // deterministic (a concurrent warm-up would feed the planners
            // interleaving-dependent counters).
            let warm = svc.submit_many_sequential(&batch);
            for (qi, (got, want)) in warm
                .expect_ok()
                .iter()
                .zip(reference.expect_ok().iter())
                .enumerate()
            {
                assert_eq!(
                    got.top, want.top,
                    "e16: {shards}-shard top-N diverged from single-shard on query {qi} \
                     (propagate={propagate})"
                );
            }
            // Steady-state work figure from the deterministic sequential
            // replay (propagation order is then fixed, so the committed
            // posting counts reproduce run to run).
            let steady = svc.submit_many_sequential(&batch);
            let postings = steady.total_work().postings_scanned;
            // Median sequential critical path over replays: the
            // sequential run's busy times are free of scheduler
            // interference on oversubscribed hosts.
            let mut paths = Vec::with_capacity(RUNS);
            for _ in 0..RUNS {
                let prof = svc.submit_many_sequential(&batch);
                paths.push(
                    prof.critical_path()
                        .expect("non-empty batch has shard outcomes"),
                );
            }
            paths.sort();
            results.push(ServingResult {
                shards,
                propagate,
                critical_path: paths[paths.len() / 2],
                postings,
                queries: batch.len(),
            });
        }
    }
    results
}

fn baseline(results: &[ServingResult], propagate: bool) -> &ServingResult {
    results
        .iter()
        .find(|r| r.shards == 1 && r.propagate == propagate)
        .expect("shard count 1 is always measured")
}

/// Render the results as machine-readable JSON.
pub fn to_json(scale: Scale, results: &[ServingResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"e16\",");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(out, "  \"top_n\": {TOP_N},");
    let _ = writeln!(out, "  \"partition\": \"range\",");
    let _ = writeln!(out, "  \"notes\": [");
    let _ = writeln!(
        out,
        "    \"wall_us and measured_wall_speedup were removed: they timed the retired \
         scoped-thread-per-batch runtime, which paid a thread spawn/join per shard per batch and \
         measured 0.44-0.76x the sequential wall at 2-8 shards -- a regression the old gate \
         certified as a speedup\","
    );
    let _ = writeln!(
        out,
        "    \"end-to-end serving throughput and latency are measured under sustained load by \
         E18 (BENCH_throughput.json) on the persistent shard worker pool that replaced the \
         scoped path\","
    );
    let _ = writeln!(
        out,
        "    \"critical_path_us comes from deterministic sequential profiling replays: the \
         busiest shard's summed busy time, the wall-clock floor for one core per shard\""
    );
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"configs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let base = baseline(results, r.propagate);
        let speedup = base.critical_path.as_secs_f64() / r.critical_path.as_secs_f64().max(1e-12);
        let overhead = r.postings as f64 / base.postings.max(1) as f64 - 1.0;
        let _ = writeln!(
            out,
            "    {{\"shards\": {}, \"propagate\": {}, \"queries\": {}, \
             \"critical_path_us\": {}, \"speedup_vs_single\": {:.3}, \
             \"postings_scanned\": {}, \"postings_overhead_vs_single\": {:.4}}}{comma}",
            r.shards,
            r.propagate,
            r.queries,
            r.critical_path.as_micros(),
            speedup,
            r.postings,
            overhead,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run E16, emit `BENCH_serving.json`, and enforce the gates.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    let json = to_json(scale, &results);
    let json_path =
        std::env::var("MOA_BENCH_SERVING_JSON").unwrap_or_else(|_| "BENCH_serving.json".to_owned());
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("e16: could not write {json_path}: {e}");
    }

    let mut t = Table::new(
        "E16: sharded serving scaling (shards x threshold propagation)",
        &[
            "shards",
            "propagate",
            "crit. path",
            "speedup",
            "postings",
            "overhead vs x1",
        ],
    );
    for r in &results {
        let base = baseline(&results, r.propagate);
        let speedup = base.critical_path.as_secs_f64() / r.critical_path.as_secs_f64().max(1e-12);
        let overhead = r.postings as f64 / base.postings.max(1) as f64 - 1.0;
        t.row(vec![
            r.shards.to_string(),
            if r.propagate { "on" } else { "off" }.to_string(),
            fmt_duration(r.critical_path),
            format!("{speedup:.2}x"),
            r.postings.to_string(),
            format!("{overhead:+.1}%", overhead = overhead * 100.0),
        ]);
    }
    t.note(format!(
        "batch of {} FrequentOnly queries, top-{TOP_N}, range partition; medians of {RUNS} replays",
        results.first().map_or(0, |r| r.queries)
    ));
    t.note(format!(
        "host has {} core(s); 'crit. path' is the busiest shard's summed busy time from a \
         sequential profiling replay — the wall a one-core-per-shard deployment converges to, \
         and what 'speedup' is computed from",
        thread::available_parallelism().map_or(1, std::num::NonZero::get)
    ));
    t.note(
        "the old 'batch wall' column is gone: it timed the retired scoped-thread runtime \
         (0.44-0.76x sequential at 2-8 shards — spawn/join per batch); sustained-load \
         throughput/latency on the worker pool is E18's job",
    );
    t.note("gate (enforced): every configuration's merged top-N identical to single-shard");
    t.note("gate (enforced): at every shard count > 1, propagation scans no more postings than the oblivious mode");
    t.note(format!("machine-readable copy written to {json_path}"));

    // Propagation must pay, not just break even: fewer postings at every
    // sharded count (answers already pinned identical in measure()).
    for &shards in &SHARD_COUNTS[1..] {
        let on = results
            .iter()
            .find(|r| r.shards == shards && r.propagate)
            .expect("measured");
        let off = results
            .iter()
            .find(|r| r.shards == shards && !r.propagate)
            .expect("measured");
        assert!(
            on.postings <= off.postings,
            "e16 gate: propagation scanned more at {shards} shards ({} > {})",
            on.postings,
            off.postings
        );
    }
    // And sharding must actually scale: the 4-shard propagating critical
    // path has to beat the single shard comfortably. (Committed
    // full-scale figure: ≥2x; the 1.3 floor is a regression tripwire
    // tolerant of noisy hosts.)
    let base = baseline(&results, true);
    let four = results
        .iter()
        .find(|r| r.shards == 4 && r.propagate)
        .expect("measured");
    let speedup = base.critical_path.as_secs_f64() / four.critical_path.as_secs_f64().max(1e-12);
    assert!(
        speedup >= 1.3,
        "e16 gate: 4-shard critical-path speedup {speedup:.2}x below the 1.3x floor"
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One Quick measurement, shared by the tests below.
    fn quick() -> &'static [ServingResult] {
        static RESULTS: OnceLock<Vec<ServingResult>> = OnceLock::new();
        RESULTS.get_or_init(|| measure(Scale::Quick))
    }

    #[test]
    fn e16_sharded_serving_scales_and_propagation_pays() {
        let results = quick();
        assert_eq!(results.len(), SHARD_COUNTS.len() * 2);
        for r in results {
            assert!(r.postings > 0);
            assert!(r.queries > 0);
        }
        // Propagation never scans more than the oblivious mode.
        for &shards in &SHARD_COUNTS[1..] {
            let on = results
                .iter()
                .find(|r| r.shards == shards && r.propagate)
                .expect("measured");
            let off = results
                .iter()
                .find(|r| r.shards == shards && !r.propagate)
                .expect("measured");
            assert!(
                on.postings <= off.postings,
                "propagation scanned more at {shards} shards"
            );
        }
    }

    #[test]
    fn e16_json_is_well_formed() {
        let results = quick();
        let json = to_json(Scale::Quick, results);
        assert!(json.contains("\"experiment\": \"e16\""));
        assert!(json.contains("\"notes\""));
        // The retired metrics may be *mentioned* in the notes (that is
        // the honest record), but must not exist as data keys.
        assert!(!json.contains("\"measured_wall_speedup\":"));
        assert!(!json.contains("\"wall_us\":"));
        assert_eq!(json.matches("{\"shards\"").count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
