//! Open-loop serving benchmark for `moa_serve::ServeSession`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <zipf_hot|cold_trec|zipf_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's inputs from the seed, computes every
//! distinct query's reference answer, measures set-up, warms the session
//! and drives the fixed-rate phases open-loop from one thread, checking
//! every answer. It prints a human-readable report and, as its last line,
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A wrong answer or a disagreement
//! between the benchmark's own counts and the session's telemetry makes
//! it exit non-zero.

mod count;
mod driver;
mod oracle;
mod setup;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_corpus::{Collection, CollectionConfig};
use moa_ir::InvertedIndex;
use moa_obs::{Histogram, HistogramSnapshot};
use moa_serve::ServeConfig;

use crate::driver::{Phase, PhaseResult, Runner};
use crate::stats::{median, nearest_rank, p50_p99, ratio, slo_qps, windowed_p99, Rung, P99_WINDOW};
use crate::trace::Layer;
use crate::workload::Workload;

/// Fresh set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Segments per phase. The phases run interleaved, one segment each in
/// turn, so every phase samples the host's speed over the whole run.
const SEGMENTS: u32 = 3;
/// Arrivals the saturating phase cycles through: far more answers than
/// the cache holds on `cold_trec`, so cycling still misses.
const SAT_ARRIVALS: usize = 8192;
/// Untimed open-loop settling before the timed phases.
const SETTLE: Duration = Duration::from_millis(500);
/// Oracle threads.
const ORACLE_THREADS: usize = 2;
/// Spans kept in memory and written to the trace file at most; the
/// self-time table covers every span.
const MAX_KEPT_SPANS: usize = 200_000;

const USAGE: &str = "usage: servebench --workload <zipf_hot|cold_trec|zipf_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: compute the run's oracle and write it to standard output.
    oracle: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut oracle = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--oracle" => oracle = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        oracle,
    })
}

/// The phases of a run, each with an equal share of `--seconds`. The
/// untraced run's ladder is `light`, `heavy` and the saturating phase
/// (always above capacity, so its p99 bounds the ladder from above).
fn plan(workload: Workload, seconds: f64, trace: bool) -> Vec<Phase> {
    let spec = workload.spec();
    let labels: &[(&'static str, f64, bool, bool)] = if trace {
        &[
            ("light", spec.light_qps, false, false),
            ("heavy", spec.heavy_qps, false, false),
            ("heavy.traced", spec.heavy_qps, true, false),
            ("sat", spec.sat_qps, false, true),
        ]
    } else {
        &[
            ("light", spec.light_qps, false, false),
            ("heavy", spec.heavy_qps, false, false),
            ("sat", spec.sat_qps, false, true),
        ]
    };
    let duration = Duration::from_secs_f64(seconds / (labels.len() as f64 * f64::from(SEGMENTS)));
    labels
        .iter()
        .map(|&(label, qps, traced, saturate)| Phase {
            label,
            qps,
            duration,
            traced,
            saturate,
            invalidate_every: spec.invalidate_every,
        })
        .collect()
}

/// A phase's p99 (ns): the windowed p99 of its latencies, or for the
/// saturating phase the median of the window p99s it kept.
fn phase_p99(r: &PhaseResult) -> Option<(f64, usize)> {
    if r.phase.saturate {
        (!r.window_p99_ns.is_empty()).then(|| {
            let v: Vec<f64> = r.window_p99_ns.iter().map(|&x| x as f64).collect();
            (median(&v), v.len())
        })
    } else {
        windowed_p99(&r.latency_ns, window(&r.phase))
    }
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        out
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile over a registry histogram's buckets (µs, the
/// bucket's upper bound), or 0 when empty.
fn hist_us(h: &HistogramSnapshot, q: f64) -> f64 {
    h.percentile(q).map_or(0.0, us)
}

fn hist_add(a: &mut HistogramSnapshot, b: &HistogramSnapshot) {
    for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
        *x += y;
    }
    a.count += b.count;
    a.sum += b.sum;
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Arrivals per p99 window: [`P99_WINDOW`], or with invalidations the
/// arrivals between two of them (at most one segment's), so every window
/// holds one refill.
fn window(phase: &Phase) -> usize {
    match phase.invalidate_every {
        Some(p) => (phase.qps * p.min(phase.duration).as_secs_f64()).round() as usize,
        None => P99_WINDOW,
    }
}

/// A phase's latency line for the report.
fn describe(r: &PhaseResult) -> String {
    let windowed = phase_p99(r);
    let mut lat = r.latency_ns.clone();
    let (p50, p99) = p50_p99(&mut lat);
    let mut late = r.late_ns.clone();
    let (_, late99) = p50_p99(&mut late);
    format!(
        "{:<13} offered {:>8.0}/s  samples {:>7}  p50 {:>10.4} ms  p99 {:>9.3} ms  windowed p99 {:>9.3} ms ({} windows)  late p99 {:>9.1} us  done {:>8.0}/s{}",
        r.phase.label,
        r.phase.qps,
        r.completed,
        ms(p50),
        ms(p99),
        windowed.map_or(0.0, |w| w.0 / 1e6),
        windowed.map_or(0, |w| w.1),
        us(late99),
        r.completed_qps(),
        if r.phase.saturate || r.kept_up() { "" } else { "  (fell behind)" }
    )
}

/// The benchmark's own counts against the session's telemetry. Returns
/// one line per disagreement.
fn cross_check(runner: &Runner) -> Vec<String> {
    let mut problems = Vec::new();
    let stats = runner.session.stats();
    let reg = runner.session.metrics();
    let t = runner.total;
    let cache_hits = runner.session.result_cache().map_or(0, |c| c.stats().hits);
    let mut eq = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("{what}: telemetry {got}, benchmark {want}"));
        }
    };
    eq(
        "ServeStats.queries_cache_hit",
        stats.queries_cache_hit as u64,
        t.hits,
    );
    eq("ResultCache::stats().hits", cache_hits, t.hits);
    eq(
        "serve.cache.hits",
        reg.counter("serve.cache.hits").get(),
        t.hits,
    );
    eq(
        "ServeStats.queries_coalesced",
        stats.queries_coalesced as u64,
        t.coalesced,
    );
    eq(
        "serve.queries_coalesced",
        reg.counter("serve.queries_coalesced").get(),
        t.coalesced,
    );
    eq(
        "serve.queries_admitted",
        reg.counter("serve.queries_admitted").get(),
        t.attempted - t.hits,
    );
    eq(
        "ServeStats.queries_served",
        stats.queries_served as u64,
        t.ok,
    );
    let mut busy = runner.busy_ns.clone();
    busy.sort_unstable();
    let hist = reg.histogram("serve.query_ns").snapshot();
    for q in [50.0, 99.0] {
        let ours = nearest_rank(&busy, q).map(Histogram::bucket_of);
        let theirs = hist.percentile(q).map(Histogram::bucket_of);
        match (ours, theirs) {
            (Some(a), Some(b)) if a.abs_diff(b) <= 1 => {}
            (None, None) => {}
            _ => problems.push(format!(
                "serve.query_ns p{q}: registry bucket {theirs:?}, benchmark bucket {ours:?}"
            )),
        }
    }
    problems
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Arrivals of a phase's region of the stream: every arrival of its
/// segments, or for the saturating phase [`SAT_ARRIVALS`], cycled. No
/// two phases share an arrival, so no phase finds another's answers in
/// the cache.
fn region(phase: &Phase) -> usize {
    if phase.saturate {
        SAT_ARRIVALS
    } else {
        phase.arrivals() * SEGMENTS as usize
    }
}

/// The run's collection and generated inputs.
fn inputs(args: &Args, phases: &[Phase]) -> Result<(Collection, workload::Inputs), String> {
    let collection =
        Collection::generate(CollectionConfig::ft_scale()).map_err(|e| format!("corpus: {e}"))?;
    let stream_len: usize = phases.iter().map(region).sum();
    let inputs = workload::generate(&collection, args.workload, args.seed, stream_len);
    Ok((collection, inputs))
}

/// Child mode: compute the reference answer of every query the run
/// serves and write them to standard output.
fn write_oracle(args: &Args, config: ServeConfig) -> Result<(), String> {
    let (collection, inputs) = inputs(args, &plan(args.workload, args.seconds, args.trace))?;
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let mut wanted = vec![false; inputs.queries.len()];
    for &q in inputs.warmup.iter().chain(&inputs.stream) {
        wanted[q as usize] = true;
    }
    let oracle = oracle::Oracle::build(&index, &config, &inputs.queries, &wanted, ORACLE_THREADS)?;
    oracle
        .write_to(std::io::stdout().lock())
        .map_err(|e| format!("oracle: writing answers: {e}"))
}

fn run(args: &Args, raw: &[String]) -> Result<Outcome, String> {
    let origin = Instant::now();
    let spec = args.workload.spec();
    let config = ServeConfig::cached(2);
    let phases = plan(args.workload, args.seconds, args.trace);
    let (collection, inputs) = inputs(args, &phases)?;
    // Reference answers come from a child process over the same inputs,
    // before any timing.
    let mut child_args = raw.to_vec();
    child_args.extend(["--oracle".to_string(), "1".to_string()]);
    let oracle = oracle::Oracle::from_child(&child_args, inputs.queries.len())?;

    // Settle open-loop at the light rate before anything is timed.
    let mut settle = PhaseResult::new(
        Phase {
            label: "settle",
            qps: spec.light_qps,
            duration: SETTLE,
            traced: false,
            saturate: false,
            invalidate_every: spec.invalidate_every,
        },
        1,
    );
    // Every sample buffer is written once before the memory baseline.
    let mut results: Vec<PhaseResult> = phases
        .iter()
        .map(|p| PhaseResult::new(*p, SEGMENTS as usize))
        .collect();
    let mut rss = setup::RssPeak::start();
    let mut trace_log = trace::SpanLog::with_cap(MAX_KEPT_SPANS);
    let (session, setup) = setup::measure(
        &collection,
        config,
        SETUP_REPS,
        args.trace,
        &mut rss,
        args.trace.then_some(&mut trace_log),
        origin,
    )?;
    let counts = if args.trace {
        let index = Arc::clone(session.pool().index());
        Some(count::run(
            &index,
            config,
            &inputs,
            spec.invalidate_every.is_some(),
            &oracle,
        )?)
    } else {
        None
    };

    let mut runner = Runner::new(session, &inputs.queries, &oracle, origin);
    runner.spans = trace_log;
    runner.warm(&inputs.warmup);
    // The settle phase runs on the saturating phase's region, which no
    // other phase uses.
    let mut regions = Vec::with_capacity(phases.len());
    let mut start = 0usize;
    for phase in &phases {
        regions.push(&inputs.stream[start..start + region(phase)]);
        start += region(phase);
    }
    let sat = phases.iter().position(|p| p.saturate).expect("planned");
    runner.run(regions[sat], &mut settle);
    rss.sample();
    for _ in 0..SEGMENTS {
        for (res, arrivals) in results.iter_mut().zip(&regions) {
            runner.run(arrivals, res);
        }
        rss.sample();
    }

    println!(
        "servebench workload={} seed={} seconds={} trace={} available_parallelism={} rustc=\"{}\"",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        env!("SERVEBENCH_RUSTC"),
    );
    println!(
        "fixed rates: light {} / heavy {} qps, sat {} qps; p99 limit {} ms; invalidate every {:?}; distinct queries {}; stream {} arrivals",
        spec.light_qps,
        spec.heavy_qps,
        spec.sat_qps,
        spec.p99_limit_ms,
        spec.invalidate_every,
        inputs.queries.len(),
        inputs.stream.len(),
    );
    for r in &results {
        println!("{}", describe(r));
    }

    let (hits, lookups) = results
        .iter()
        .filter(|r| !r.phase.saturate)
        .fold((0, 0), |(h, l), r| {
            (h + r.cache.hits, l + r.cache.hits + r.cache.misses)
        });
    println!(
        "layer split: cache hit ratio {:.4} over the ladder phases ({hits} of {lookups} lookups)",
        ratio(hits as f64, lookups as f64)
    );
    let problems = cross_check(&runner);
    for p in &problems {
        println!("telemetry cross-check FAILED: {p}");
    }
    let t = runner.total;
    if let Some(c) = &counts {
        if c.wrong > 0 {
            println!("counting pass: {} answers differ from the oracle", c.wrong);
        }
    }
    let wrong = t.mismatches + counts.map_or(0, |c| c.wrong);
    let correct = wrong == 0 && problems.is_empty();
    let find = |label: &str| {
        results
            .iter()
            .find(|r| r.phase.label == label)
            .expect("planned phase")
    };

    let mut m = Metrics::default();
    if !args.trace {
        let mut rungs = Vec::new();
        for (label, r) in ["light", "heavy", "sat"].iter().map(|l| (*l, find(l))) {
            let Some((p99, _)) = phase_p99(r) else {
                return Err(format!(
                    "phase {label}: {} samples cannot support a p99; raise --seconds",
                    r.latency_ns.len()
                ));
            };
            if label == "light" || label == "heavy" {
                let (p50, _) = p50_p99(&mut r.latency_ns.clone());
                m.put(format!("p50_ms.{label}"), ms(p50), "ms");
            }
            rungs.push(Rung {
                qps: r.phase.qps,
                p99_ms: p99 / 1e6,
                kept_up: !r.phase.saturate && r.kept_up(),
            });
        }
        let slo = slo_qps(&rungs, spec.p99_limit_ms);
        println!("slo: {slo:?} at p99 limit {} ms", spec.p99_limit_ms);
        m.put("setup_s", setup.setup_s(), "s");
        m.put("rss_mb", rss.growth_mb(), "MiB");
        m.put("slo_qps", slo.qps(), "1/s");
        m.put("qps_sat", find("sat").completed_qps(), "1/s");
        println!(
            "fail_ratio {} ({} failed of {} attempted)",
            ratio(t.failed() as f64, t.attempted as f64),
            t.failed(),
            t.attempted
        );
    } else {
        per_layer(
            &mut m,
            &runner,
            &results,
            &setup,
            counts.as_ref().expect("traced"),
        );
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.tsv", spec.name, args.seed));
        match runner.spans.write(&path) {
            Ok(()) => println!(
                "spans: {} recorded, the first {MAX_KEPT_SPANS} at most written to {}",
                runner.spans.recorded(),
                path.display()
            ),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
        print!(
            "self time by layer (traced phases):\n{}",
            runner.spans.table()
        );
    }
    for metric in &m.0 {
        println!(
            "metric {:<28} {:>14.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    Ok(Outcome {
        correct,
        attempted: t.attempted,
        failed: t.failed(),
        metrics: m,
    })
}

/// The per-layer metrics of a traced run.
fn per_layer(
    m: &mut Metrics,
    runner: &Runner,
    results: &[PhaseResult],
    setup: &setup::Setup,
    c: &count::Counts,
) {
    let traced: Vec<&PhaseResult> = results.iter().filter(|r| r.phase.traced).collect();
    let cat = |f: &dyn Fn(&PhaseResult) -> &Vec<u64>| -> Vec<u64> {
        traced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let hist = |f: &dyn Fn(&PhaseResult) -> &HistogramSnapshot| {
        let mut h = *f(traced[0]);
        for r in &traced[1..] {
            hist_add(&mut h, f(r));
        }
        h
    };
    let attempted: u64 = traced.iter().map(|r| r.tally.attempted).sum();
    let sum = |f: &dyn Fn(&PhaseResult) -> u64| -> f64 {
        traced.iter().map(|r| f(r)).sum::<u64>() as f64
    };

    let (e50, e99) = p50_p99(&mut cat(&|r| &r.enqueue_ns));
    m.put("service.enqueue_us.p50", us(e50), "us");
    m.put("service.enqueue_us.p99", us(e99), "us");
    let (c50, c99) = p50_p99(&mut cat(&|r| &r.collect_ns));
    m.put("service.collect_us.p50", us(c50), "us");
    m.put("service.collect_us.p99", us(c99), "us");
    let merge = hist(&|r| &r.kway_merge);
    m.put("service.kway_merge_us.p50", hist_us(&merge, 50.0), "us");
    m.put("service.kway_merge_us.p99", hist_us(&merge, 99.0), "us");
    let deliver = hist(&|r| &r.deliver);
    m.put("service.deliver_us.p50", hist_us(&deliver, 50.0), "us");
    m.put("service.deliver_us.p99", hist_us(&deliver, 99.0), "us");

    let hits = sum(&|r| r.cache.hits);
    let misses = sum(&|r| r.cache.misses);
    m.put("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    let per_kq = |x: f64| ratio(x * 1000.0, attempted as f64);
    m.put(
        "cache.inserts_per_kq",
        per_kq(sum(&|r| r.cache.insertions)),
        "1/kq",
    );
    m.put(
        "cache.evictions_per_kq",
        per_kq(sum(&|r| r.cache.evictions)),
        "1/kq",
    );
    let bytes_hw = runner
        .session
        .result_cache()
        .map_or(0, |c| c.stats().bytes_high_water);
    m.put("cache.bytes_hw_mb", mb(bytes_hw), "MiB");

    let batches = sum(&|r| r.enqueue_ns.len() as u64);
    m.put(
        "pool.batch_size.mean",
        ratio(attempted as f64, batches),
        "queries",
    );
    let coalesced = sum(&|r| r.coalesced);
    m.put(
        "pool.coalesced_ratio",
        ratio(coalesced, attempted as f64),
        "ratio",
    );
    let wait = hist(&|r| &r.queue_wait);
    m.put("pool.queue_wait_us.p50", hist_us(&wait, 50.0), "us");
    m.put("pool.queue_wait_us.p99", hist_us(&wait, 99.0), "us");
    m.put(
        "pool.queue_hw",
        runner.session.pool().queue_high_water() as f64,
        "batches",
    );
    let sat = results.iter().find(|r| r.phase.saturate).expect("planned");
    let shards = runner.session.pool().num_shards() as f64;
    m.put(
        "pool.busy_share",
        ratio(
            sat.outcomes.busy_ns as f64,
            shards * sat.elapsed.as_nanos() as f64,
        ),
        "ratio",
    );
    let mut skew: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.outcomes.skew.iter().copied())
        .collect();
    skew.sort_by(f64::total_cmp);
    let skew99 = if skew.is_empty() {
        0.0
    } else {
        skew[(((skew.len() as f64) * 0.99).ceil() as usize).clamp(1, skew.len()) - 1]
    };
    m.put("pool.shard_skew.p99", skew99, "ratio");
    let (d50, _) = p50_p99(&mut cat(&|r| &r.dispatch_ns));
    m.put("pool.dispatch_us.p50", us(d50), "us");

    let (p50, p99) = p50_p99(
        &mut traced
            .iter()
            .flat_map(|r| r.outcomes.plan_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    m.put("planner.plan_us.p50", us(p50), "us");
    m.put("planner.plan_us.p99", us(p99), "us");
    let outcomes = c.shard_outcomes as f64;
    m.put(
        "planner.memo_hit_ratio",
        ratio(c.memo_hits as f64, outcomes),
        "ratio",
    );
    for (slot, name) in [
        "pruned_daat",
        "set_at_a_time",
        "exhaustive_daat",
        "fragmented",
    ]
    .iter()
    .enumerate()
    {
        m.put(
            format!("planner.pick.{name}"),
            ratio(c.picks[slot] as f64, outcomes),
            "ratio",
        );
    }

    let (x50, x99) = p50_p99(
        &mut traced
            .iter()
            .flat_map(|r| r.outcomes.exec_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    m.put("engine.exec_us.p50", us(x50), "us");
    m.put("engine.exec_us.p99", us(x99), "us");
    let executed = sum(&|r| r.outcomes.queries);
    for (slot, name) in ["gate_pass", "decode", "score", "merge"].iter().enumerate() {
        m.put(
            format!("engine.{name}_us"),
            ratio(us(sum(&|r| r.outcomes.stage_ns[slot]) as u64), executed),
            "us",
        );
    }
    m.put(
        "engine.postings_per_q",
        ratio(c.postings as f64, c.engine_arrivals as f64),
        "postings",
    );
    m.put(
        "engine.postings_per_result",
        ratio(c.postings as f64, c.results as f64),
        "postings",
    );
    m.put(
        "engine.skip_ratio",
        ratio(c.skipped as f64, (c.skipped + c.postings) as f64),
        "ratio",
    );

    m.put("setup.index_s", median(&setup.index_s), "s");
    m.put("setup.partition_s", median(&setup.partition_s), "s");
    m.put("setup.fragment_s", median(&setup.fragment_s), "s");
    m.put("setup.kernel_s", median(&setup.kernel_s), "s");
    m.put("setup.session_s", median(&setup.session_s), "s");
    m.put("setup.index_mb", setup.index_mb, "MiB");
    m.put("setup.session_mb", setup.session_mb, "MiB");

    let untraced = |label: &str| {
        results
            .iter()
            .find(|r| r.phase.label == label)
            .expect("planned phase")
    };
    let mut late: Vec<u64> = ["light", "heavy"]
        .iter()
        .flat_map(|l| untraced(l).late_ns.iter().copied())
        .collect();
    let (_, late99) = p50_p99(&mut late);
    m.put("driver.late_us.p99", us(late99), "us");
    for label in ["light", "heavy"] {
        let r = untraced(label);
        let mut lat = r.latency_ns.clone();
        lat.sort_unstable();
        m.put(format!("driver.samples.{label}"), lat.len() as f64, "count");
        m.put(
            format!("tail.p90_ms.{label}"),
            ms(nearest_rank(&lat, 90.0).unwrap_or(0)),
            "ms",
        );
        m.put(
            format!("tail.p99_ms.{label}"),
            phase_p99(r).map_or(0.0, |w| w.0 / 1e6),
            "ms",
        );
    }
    let p50_of = |label: &str| {
        let mut lat = untraced(label).latency_ns.clone();
        p50_p99(&mut lat).0 as f64
    };
    m.put(
        "trace.overhead_pct",
        (ratio(p50_of("heavy.traced"), p50_of("heavy")) - 1.0) * 100.0,
        "%",
    );
    for layer in [
        Layer::Driver,
        Layer::Service,
        Layer::Pool,
        Layer::Planner,
        Layer::Engine,
    ] {
        m.put(
            format!("selftime.{}", layer.name()),
            runner.spans.request_share(layer),
            "share",
        );
    }

    m.put("count.cache_hits", c.cache_hits as f64, "count");
    m.put("count.cache_inserts", c.cache_inserts as f64, "count");
    m.put("count.cache_evictions", c.cache_evictions as f64, "count");
    m.put("count.coalesced", c.coalesced as f64, "count");
    m.put("count.postings", c.postings as f64, "count");
    m.put("count.memo_hits", c.memo_hits as f64, "count");
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(raw.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.oracle {
        return match write_oracle(&args, ServeConfig::cached(2)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, &raw) {
        Ok(o) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.correct,
                o.attempted,
                o.failed,
                o.metrics.json()
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
