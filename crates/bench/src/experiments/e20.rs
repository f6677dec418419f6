//! E20 — telemetry overhead: instrumented vs uninstrumented serving.
//!
//! Observability is only free if measured to be. The pool's registry
//! counters and latency histograms are always live; what
//! `ServeConfig::telemetry` adds per query is the trace capture — a
//! `QueryTrace` written into the worker's preallocated ring — plus a
//! slow-log offer (a comparison against the current worst-K floor, with
//! entry construction deferred until a query actually beats it). All of
//! it is designed to stay off the allocator on the steady-state path
//! (pinned by `alloc_telemetry.rs` / `alloc_steady_state.rs`); this
//! experiment prices it end to end.
//!
//! The shared open-loop Zipf replay harness ([`crate::harness::load`]:
//! arrivals due at `i / offered_qps` regardless of server progress,
//! admission batches capped at `MAX_BATCH`, offered load calibrated to
//! `OVERLOAD` × measured single-thread capacity) drives two otherwise
//! identical pool sessions at every shard count: telemetry **on**
//! (traces + slow log captured) and telemetry **off** (registry metrics
//! only). Each cell reports its best replay of `REPLAYS`.
//!
//! Gates (enforced here and by CI's E20 smoke):
//!
//! * **overhead** — instrumented throughput ≥ [`OVERHEAD_BOUND`] × the
//!   uninstrumented figure at every shard count;
//! * **transparency** — answers with telemetry on are bit-identical to
//!   answers with telemetry off, query by query;
//! * **capture** — the instrumented session actually retained traces,
//!   its slow log stayed within its configured bound and drains
//!   worst-first, and the registry's lifecycle counters reconcile with
//!   the driven stream.
//!
//! The committed figures live in `BENCH_obs.json`.

use std::sync::Arc;

use moa_ir::InvertedIndex;
use moa_serve::{BatchQuery, ServeConfig, ServeSession, SLOW_LOG};

use crate::harness::load::{self, Load, Zipf};
use crate::harness::record::{self, fixed, Value};
use crate::harness::{fmt_duration, Percentiles, Scale, Table};

/// Ranking depth (matches the E18 serving posture).
const TOP_N: usize = 100;

/// Shard counts swept: the single-worker pool and the parallel
/// configuration the serving experiments center on.
const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Admission batch cap (same knob, same honesty argument as E18).
const MAX_BATCH: usize = 32;

/// Offered load as a multiple of measured single-thread capacity — above
/// 1 so both sessions face real queueing and the trace ring sees
/// steady-state pressure, not idle trickle.
const OVERLOAD: f64 = 1.5;

/// Replays per cell; the best replay is reported.
const REPLAYS: usize = 5;

/// The stream: seeds and skew of the Zipf replay.
const ZIPF: Zipf = Zipf {
    pool_seed: 0xE20,
    stream_seed: 0x0B5,
    exponent: 1.0,
};

/// The overhead gate: instrumented qps must stay at or above this
/// fraction of the uninstrumented figure. The bound is deliberately
/// loose for shared-host noise — steady-state capture is a ring-slot
/// write and a slow-log floor comparison, nowhere near 15% of a query.
pub const OVERHEAD_BOUND: f64 = 0.85;

/// One telemetry mode × shard count measurement (its best replay).
pub struct ObsResult {
    /// Shard count.
    pub shards: usize,
    /// Whether trace/slow-log capture was enabled.
    pub telemetry: bool,
    /// Offered arrival rate (queries/sec).
    pub offered_qps: f64,
    /// Achieved completion rate (queries/sec).
    pub achieved_qps: f64,
    /// Arrival-to-merge latency percentiles.
    pub latency: Percentiles,
    /// Queries in the stream.
    pub queries: usize,
    /// Query traces retained in the rings after the final replay
    /// (0 with telemetry off).
    pub traces: usize,
    /// Slow-log entries retained after the final replay (0 with
    /// telemetry off).
    pub slow: usize,
}

/// The planned posture at `shards` with trace capture on or off.
fn config(shards: usize, telemetry: bool) -> ServeConfig {
    ServeConfig {
        telemetry,
        ..ServeConfig::planned(shards)
    }
}

/// The transparency oracle: the same query stream through an
/// instrumented and an uninstrumented session yields bit-identical
/// rankings, query by query. Panics on the first divergence.
pub fn assert_identical_answers(index: &Arc<InvertedIndex>, stream: &[BatchQuery], shards: usize) {
    let mut on = load::session(index, config(shards, true));
    let mut off = load::session(index, config(shards, false));
    for chunk in stream.chunks(MAX_BATCH) {
        let ron = on.submit_many(chunk).expect("admission never sheds");
        let roff = off.submit_many(chunk).expect("admission never sheds");
        for (i, (a, b)) in ron.responses.iter().zip(&roff.responses).enumerate() {
            let (a, b) = (a.as_ref().expect("in-vocab"), b.as_ref().expect("in-vocab"));
            assert_eq!(
                a.top, b.top,
                "telemetry changed the answer for query {i} at {shards} shard(s)"
            );
        }
    }
}

/// Sanity-check the instrumented session's captured telemetry after a
/// driven stream: bounded worst-first slow log, retained traces, and
/// registry counters that reconcile with what was driven.
fn check_capture(session: &ServeSession) -> (usize, usize) {
    let traces = session.traces();
    assert!(
        !traces.is_empty(),
        "instrumented session retained no traces"
    );
    for t in &traces {
        assert!(t.wall_ns > 0, "trace without a wall clock");
        assert!(!t.spans().is_empty(), "trace without spans");
    }
    let slow = session.drain_slow_queries();
    assert!(
        slow.len() <= SLOW_LOG,
        "slow log exceeded its bound: {} > {SLOW_LOG}",
        slow.len()
    );
    assert!(
        slow.windows(2).all(|w| w[0].wall >= w[1].wall),
        "slow log must drain worst-first"
    );
    let text = session.metrics_text();
    for needle in [
        "serve.batches",
        "serve.queries_admitted",
        "serve.shard_queries",
        "serve.query_ns",
        "serve.queue_wait_ns",
    ] {
        assert!(text.contains(needle), "registry missing {needle}:\n{text}");
    }
    (traces.len(), slow.len())
}

/// Run the overhead sweep: calibrate offered load once, then measure
/// telemetry off and on at every shard count under the identical stream
/// and arrival schedule.
pub fn measure(scale: Scale) -> Vec<ObsResult> {
    let (collection, index) = load::corpus(scale);
    let stream = ZIPF.stream(&collection, scale, TOP_N);
    // Both telemetry modes face the same offered rate so the figures
    // are comparable.
    let arrivals = Load {
        offered_qps: OVERLOAD * load::single_thread_capacity(&index, &stream, MAX_BATCH),
        max_batch: MAX_BATCH,
        window: 1,
    };

    let mut results = Vec::new();
    for &shards in &SHARD_COUNTS {
        for telemetry in [false, true] {
            let mut s = load::session(&index, config(shards, telemetry));
            let best = load::best_drive(&mut s, &stream, arrivals, REPLAYS);
            let (traces, slow) = if telemetry {
                check_capture(&s)
            } else {
                assert!(s.traces().is_empty(), "telemetry off must capture nothing");
                assert!(s.drain_slow_queries().is_empty());
                (0, 0)
            };
            results.push(ObsResult {
                shards,
                telemetry,
                offered_qps: arrivals.offered_qps,
                achieved_qps: best.achieved_qps,
                latency: best.latency,
                queries: stream.len(),
                traces,
                slow,
            });
        }
    }
    // The transparency oracle at the largest swept shard count.
    assert_identical_answers(&index, &stream[..stream.len().min(64)], SHARD_COUNTS[1]);
    results
}

fn find(results: &[ObsResult], shards: usize, telemetry: bool) -> &ObsResult {
    results
        .iter()
        .find(|r| r.shards == shards && r.telemetry == telemetry)
        .expect("every mode × shard count is measured")
}

/// The `BENCH_obs.json` document of the sweep.
pub fn document(scale: Scale, results: &[ObsResult]) -> Value {
    let configs = results.iter().map(|r| {
        let off = find(results, r.shards, false);
        Value::obj()
            .with("shards", r.shards)
            .with("telemetry", r.telemetry)
            .with("queries", r.queries)
            .with("offered_qps", fixed(r.offered_qps, 0))
            .with("achieved_qps", fixed(r.achieved_qps, 0))
            .with(
                "qps_vs_uninstrumented",
                fixed(r.achieved_qps / off.achieved_qps.max(1e-9), 3),
            )
            .with("traces", r.traces)
            .with("slow", r.slow)
            .with("p50_us", r.latency.p50.as_micros())
            .with("p95_us", r.latency.p95.as_micros())
            .with("p99_us", r.latency.p99.as_micros())
            .with("max_us", r.latency.max.as_micros())
    });
    record::header("e20", Some(scale))
        .with("top_n", TOP_N)
        .with("max_batch", MAX_BATCH)
        .with("overload", OVERLOAD)
        .with("replays", REPLAYS)
        .with("overhead_bound", OVERHEAD_BOUND)
        .with("configs", configs.collect::<Value>())
}

/// Run E20, emit `BENCH_obs.json`, and enforce the overhead gate.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    let json_path = record::write("BENCH_obs.json", &document(scale, &results));

    let mut t = Table::new(
        "E20: telemetry overhead (instrumented vs uninstrumented pool)",
        &[
            "shards",
            "telemetry",
            "offered",
            "achieved",
            "vs off",
            "traces",
            "slow",
            "p50",
            "p95",
            "p99",
        ],
    );
    for r in &results {
        let off = find(&results, r.shards, false);
        t.row(vec![
            r.shards.to_string(),
            if r.telemetry { "on" } else { "off" }.to_string(),
            format!("{:.0}/s", r.offered_qps),
            format!("{:.0}/s", r.achieved_qps),
            format!("{:.2}x", r.achieved_qps / off.achieved_qps.max(1e-9)),
            r.traces.to_string(),
            r.slow.to_string(),
            fmt_duration(r.latency.p50),
            fmt_duration(r.latency.p95),
            fmt_duration(r.latency.p99),
        ]);
    }
    let first = results.first().expect("non-empty sweep");
    t.note(format!(
        "open-loop Zipf stream of {} arrivals, top-{TOP_N}, admission batches capped at \
         {MAX_BATCH}; offered load = {OVERLOAD} x measured single-thread capacity; best of \
         {REPLAYS} replays per cell",
        first.queries
    ));
    t.note(
        "'telemetry on' captures a per-query trace into the worker's preallocated ring and \
         offers it to the worst-K slow log; registry counters/histograms are live in both modes",
    );
    t.note(
        "answers are bit-identical with telemetry on and off (oracle enforced each run); \
         steady-state capture performs zero heap allocations (alloc_telemetry tests)",
    );
    t.note(format!(
        "gate (enforced): instrumented qps >= {OVERHEAD_BOUND} x uninstrumented at every \
         shard count"
    ));
    t.note(format!("machine-readable copy written to {json_path}"));

    for &shards in &SHARD_COUNTS {
        let on = find(&results, shards, true);
        let off = find(&results, shards, false);
        assert!(
            on.achieved_qps >= OVERHEAD_BOUND * off.achieved_qps,
            "e20 gate: instrumented qps {:.0} below {OVERHEAD_BOUND} x uninstrumented {:.0} \
             at {shards} shard(s)",
            on.achieved_qps,
            off.achieved_qps
        );
        assert!(on.traces > 0, "instrumented run retained no traces");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One Quick sweep, shared by the tests below.
    fn quick() -> &'static [ObsResult] {
        static RESULTS: OnceLock<Vec<ObsResult>> = OnceLock::new();
        RESULTS.get_or_init(|| measure(Scale::Quick))
    }

    #[test]
    fn e20_sweep_shape_and_capture() {
        let results = quick();
        assert_eq!(results.len(), SHARD_COUNTS.len() * 2);
        for r in results {
            assert!(r.achieved_qps > 0.0);
            assert!(r.latency.p50 <= r.latency.p95);
            assert!(r.latency.p99 <= r.latency.max);
            assert_eq!(r.queries, results[0].queries);
            if r.telemetry {
                assert!(r.traces > 0, "no traces at {} shard(s)", r.shards);
            } else {
                assert_eq!(r.traces, 0);
                assert_eq!(r.slow, 0);
            }
        }
    }

    #[test]
    fn e20_json_is_well_formed() {
        let results = quick();
        let json = document(Scale::Quick, results).render();
        assert!(json.contains("\"experiment\": \"e20\""));
        assert_eq!(json.matches("{\"shards\"").count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
