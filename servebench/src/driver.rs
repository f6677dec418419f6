//! The open-loop driver: one thread that admits each arrival when it is
//! due, keeps a bounded window of batches in flight, collects before it
//! waits, checks every answer against the oracle and records what each
//! layer hands back.
//!
//! Every arrival is timed from the moment it was due, so a stall shows as
//! latency on the arrivals queued behind it; how late the driver admitted
//! each arrival is recorded too. The driver waits for a due time only
//! when no batch is in flight, i.e. when both shard workers are idle, so
//! its short spin never takes a core from a busy worker.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_obs::{Histogram, HistogramSnapshot, Phase as Stage};
use moa_serve::{BatchQuery, BatchReport, CacheStats, PendingBatch, QueryResponse, ServeSession};

use crate::oracle::Oracle;
use crate::stats::{window_p99, P99_WINDOW};
use crate::trace::{Name, Span, SpanLog, When};

/// Most arrivals admitted in one `enqueue` call.
pub const MAX_BATCH: usize = 8;
/// Most batches in flight at once.
pub const WINDOW: usize = 8;
/// A ladder phase keeps up when its completions reach this share of the
/// offered rate.
pub const KEEP_UP: f64 = 0.95;

/// One timed phase of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Label in the report.
    pub label: &'static str,
    /// Offered rate (queries per second).
    pub qps: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
    /// Record spans for every arrival.
    pub traced: bool,
    /// Offered far above capacity: admit until `duration` ends, then
    /// report completions per second.
    pub saturate: bool,
    /// Period of `invalidate_epoch` calls.
    pub invalidate_every: Option<Duration>,
}

impl Phase {
    /// Arrivals the phase schedules (a saturating phase is cut by time).
    pub fn arrivals(&self) -> usize {
        if self.saturate {
            usize::MAX
        } else {
            (self.qps * self.duration.as_secs_f64()).round() as usize
        }
    }
}

/// Per-position outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Arrivals admitted or refused.
    pub attempted: u64,
    /// `Ok` answers.
    pub ok: u64,
    /// `Err` answers and refused admissions.
    pub errors: u64,
    /// Deadline-truncated answers.
    pub partial: u64,
    /// Answers that differ from the oracle.
    pub mismatches: u64,
    /// Answers replayed from the result cache.
    pub hits: u64,
    /// Answers executed for this position.
    pub fresh: u64,
    /// Answers shared with an earlier position of the same batch.
    pub coalesced: u64,
}

impl Tally {
    /// Failed arrivals: errors, partial and wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.partial + self.mismatches
    }

    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.errors += o.errors;
        self.partial += o.partial;
        self.mismatches += o.mismatches;
        self.hits += o.hits;
        self.fresh += o.fresh;
        self.coalesced += o.coalesced;
    }

    fn minus(&self, o: &Tally) -> Tally {
        Tally {
            attempted: self.attempted - o.attempted,
            ok: self.ok - o.ok,
            errors: self.errors - o.errors,
            partial: self.partial - o.partial,
            mismatches: self.mismatches - o.mismatches,
            hits: self.hits - o.hits,
            fresh: self.fresh - o.fresh,
            coalesced: self.coalesced - o.coalesced,
        }
    }
}

/// Per-shard figures of fresh executions, as the responses report them.
#[derive(Debug, Clone, Default)]
pub struct Outcomes {
    /// Planning time per shard outcome (ns).
    pub plan_ns: Vec<u64>,
    /// Busy time minus planning per shard outcome (ns).
    pub exec_ns: Vec<u64>,
    /// Slowest shard's busy time over the mean shard's, per query.
    pub skew: Vec<f64>,
    /// Engine stage totals over every outcome (ns):
    /// gate pass, decode, score, merge.
    pub stage_ns: [u64; 4],
    /// Busy time over every outcome (ns).
    pub busy_ns: u64,
    /// Queries executed.
    pub queries: u64,
}

impl Outcomes {
    /// Fold one freshly executed response in.
    pub fn absorb(&mut self, r: &QueryResponse) {
        let mut max = 0u64;
        let mut sum = 0u64;
        for o in &r.shards {
            let busy = o.busy.as_nanos() as u64;
            let plan = o.phases.get(Stage::Plan);
            self.plan_ns.push(plan);
            self.exec_ns.push(busy.saturating_sub(plan));
            for (slot, stage) in [Stage::GatePass, Stage::Decode, Stage::Score, Stage::Merge]
                .into_iter()
                .enumerate()
            {
                self.stage_ns[slot] += o.phases.get(stage);
            }
            self.busy_ns += busy;
            max = max.max(busy);
            sum += busy;
        }
        if sum > 0 {
            self.skew
                .push(max as f64 * r.shards.len() as f64 / sum as f64);
        }
        self.queries += 1;
    }
}

/// Cache counter movement over a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries removed.
    pub evictions: u64,
}

impl CacheDelta {
    fn between(a: &CacheStats, b: &CacheStats) -> CacheDelta {
        CacheDelta {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
            insertions: b.insertions - a.insertions,
            evictions: b.evictions - a.evictions,
        }
    }

    fn add(&mut self, o: &CacheDelta) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.insertions += o.insertions;
        self.evictions += o.evictions;
    }
}

/// What one phase measured, accumulated over its segments.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// The phase run.
    pub phase: Phase,
    /// Arrivals delivered or refused.
    pub completed: usize,
    /// Latency of every arrival, due time to delivery (ns); a failed
    /// arrival counts as `u64::MAX`. Not kept by a saturating phase.
    pub latency_ns: Vec<u64>,
    /// How late the driver admitted each arrival (ns). Not kept by a
    /// saturating phase.
    pub late_ns: Vec<u64>,
    /// Summed over segments: from the first due time to the last delivery.
    pub elapsed: Duration,
    /// `enqueue` call durations (ns), traced phases only.
    pub enqueue_ns: Vec<u64>,
    /// `collect` call durations (ns), traced phases only.
    pub collect_ns: Vec<u64>,
    /// Admission-to-delivery minus the slowest shard's busy time, on
    /// batches where every position executed (ns), traced phases only.
    pub dispatch_ns: Vec<u64>,
    /// Outcome counts.
    pub tally: Tally,
    /// Fresh executions.
    pub outcomes: Outcomes,
    /// Result cache counter movement.
    pub cache: CacheDelta,
    /// Growth of `ServeStats::queries_coalesced`.
    pub coalesced: u64,
    /// Arrivals of the phase's region issued so far; the next segment
    /// continues from here.
    pub cursor: usize,
    /// A saturating phase's p99 per window of [`P99_WINDOW`] arrivals,
    /// computed as it runs instead of keeping every latency.
    pub window_p99_ns: Vec<u64>,
    window: Vec<u64>,
    /// `serve.queue_wait_ns` recorded during the phase.
    pub queue_wait: HistogramSnapshot,
    /// `serve.kway_merge_ns` recorded during the phase.
    pub kway_merge: HistogramSnapshot,
    /// `serve.deliver_ns` recorded during the phase.
    pub deliver: HistogramSnapshot,
}

impl PhaseResult {
    /// An empty result for `phase` run over `segments` segments. Its
    /// sample buffers have room for every arrival, with every page
    /// already written, so recording neither reallocates (a stall on the
    /// driver thread) nor adds resident memory. A saturating phase keeps
    /// no per-arrival samples, and only a traced phase keeps per-batch
    /// ones.
    pub fn new(phase: Phase, segments: usize) -> PhaseResult {
        let n = if phase.saturate {
            0
        } else {
            phase.arrivals() * segments
        };
        let buf = |n: usize| {
            let mut v = vec![1u64; n];
            v.clear();
            v
        };
        let per_batch = if phase.traced { n } else { 0 };
        let empty = Histogram::new().snapshot();
        PhaseResult {
            phase,
            completed: 0,
            latency_ns: buf(n),
            late_ns: buf(n),
            elapsed: Duration::ZERO,
            enqueue_ns: buf(per_batch),
            collect_ns: buf(per_batch),
            dispatch_ns: buf(per_batch),
            tally: Tally::default(),
            outcomes: Outcomes::default(),
            cache: CacheDelta::default(),
            coalesced: 0,
            cursor: 0,
            window_p99_ns: Vec::new(),
            window: Vec::with_capacity(if phase.saturate { P99_WINDOW } else { 0 }),
            queue_wait: empty,
            kway_merge: empty,
            deliver: empty,
        }
    }

    /// Arrivals per second completed.
    pub fn completed_qps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Whether completions kept pace with the offered rate.
    pub fn kept_up(&self) -> bool {
        self.completed_qps() >= KEEP_UP * self.phase.qps
    }

    /// Record one arrival's latency and admission lateness.
    fn record(&mut self, latency_ns: u64, late_ns: u64) {
        self.completed += 1;
        if self.phase.saturate {
            self.window.push(latency_ns);
            if self.window.len() == P99_WINDOW {
                self.window_p99_ns.push(window_p99(&mut self.window));
                self.window.clear();
            }
        } else {
            self.latency_ns.push(latency_ns);
            self.late_ns.push(late_ns);
        }
    }
}

/// `a += b - before`, bucket by bucket.
fn hist_add_delta(a: &mut HistogramSnapshot, before: &HistogramSnapshot, b: &HistogramSnapshot) {
    for ((x, &y0), &y1) in a.buckets.iter_mut().zip(&before.buckets).zip(&b.buckets) {
        *x += y1 - y0;
    }
    a.count += b.count - before.count;
    a.sum += b.sum - before.sum;
}

/// A batch admitted and not yet collected.
struct InFlight {
    pending: PendingBatch,
    first: usize,
    len: usize,
    enq_start: Instant,
    enq_end: Instant,
}

/// Registry handles the driver reads around its calls.
struct Handles {
    queue_wait: Arc<Histogram>,
    kway_merge: Arc<Histogram>,
    deliver: Arc<Histogram>,
}

/// The serving session under test and everything recorded against it.
pub struct Runner<'a> {
    /// The session.
    pub session: ServeSession,
    queries: &'a [BatchQuery],
    oracle: &'a Oracle,
    handles: Handles,
    origin: Instant,
    seen: HashSet<u64>,
    /// Counts over every arrival the session served.
    pub total: Tally,
    /// Busy time of every fresh shard outcome the session produced (ns).
    pub busy_ns: Vec<u64>,
    /// Spans of traced phases.
    pub spans: SpanLog,
    next_req: u32,
}

/// Identifies one execution: the query and its shards' busy times. A
/// replayed or shared answer carries its execution's fingerprint.
fn fingerprint(query: u32, r: &QueryResponse) -> u64 {
    let mut h = DefaultHasher::new();
    query.hash(&mut h);
    for o in &r.shards {
        (o.shard, o.busy.as_nanos()).hash(&mut h);
    }
    h.finish()
}

/// Sleep, then spin, until `t`. Called only with no batch in flight, so
/// the spin never competes with a shard worker that has work.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(1500) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl<'a> Runner<'a> {
    /// Drive `session` over `queries`, checking answers with `oracle`;
    /// span times count from `origin`.
    pub fn new(
        session: ServeSession,
        queries: &'a [BatchQuery],
        oracle: &'a Oracle,
        origin: Instant,
    ) -> Runner<'a> {
        let registry = session.metrics();
        let handles = Handles {
            queue_wait: registry.histogram("serve.queue_wait_ns"),
            kway_merge: registry.histogram("serve.kway_merge_ns"),
            deliver: registry.histogram("serve.deliver_ns"),
        };
        Runner {
            session,
            queries,
            oracle,
            handles,
            origin,
            seen: HashSet::new(),
            total: Tally::default(),
            busy_ns: Vec::new(),
            spans: SpanLog::default(),
            next_req: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn cache_stats(&self) -> CacheStats {
        self.session
            .result_cache()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Serve `ids` closed-loop in batches of [`MAX_BATCH`], untimed.
    pub fn warm(&mut self, ids: &[u32]) {
        for chunk in ids.chunks(MAX_BATCH) {
            let batch: Vec<BatchQuery> = chunk
                .iter()
                .map(|&q| self.queries[q as usize].clone())
                .collect();
            match self.session.enqueue(&batch) {
                Ok(pending) => {
                    let report = self.session.collect(pending);
                    self.account(chunk, &report, None);
                }
                Err(_) => {
                    self.total.attempted += chunk.len() as u64;
                    self.total.errors += chunk.len() as u64;
                }
            }
        }
    }

    /// Classify and check every answer of a collected batch. Returns,
    /// per position, whether it executed (fresh or shared) and the index
    /// of its fresh twin within the batch, plus whether every position
    /// executed.
    fn account(
        &mut self,
        ids: &[u32],
        report: &BatchReport,
        mut outcomes: Option<&mut Outcomes>,
    ) -> (Vec<Option<usize>>, bool) {
        let mut batch_new: Vec<(u64, usize)> = Vec::new();
        let mut executed = Vec::with_capacity(ids.len());
        let mut all_executed = true;
        for (pos, (&q, r)) in ids.iter().zip(&report.responses).enumerate() {
            self.total.attempted += 1;
            let r = match r {
                Ok(r) => r,
                Err(_) => {
                    self.total.errors += 1;
                    executed.push(None);
                    all_executed = false;
                    continue;
                }
            };
            self.total.ok += 1;
            self.total.partial += u64::from(r.partial);
            if !self.oracle.matches(q, &r.top) {
                self.total.mismatches += 1;
            }
            let fp = fingerprint(q, r);
            if let Some(&(_, twin)) = batch_new.iter().find(|(f, _)| *f == fp) {
                self.total.coalesced += 1;
                executed.push(Some(twin));
            } else if self.seen.contains(&fp) {
                self.total.hits += 1;
                executed.push(None);
                all_executed = false;
            } else {
                self.total.fresh += 1;
                self.seen.insert(fp);
                batch_new.push((fp, pos));
                executed.push(Some(pos));
                for o in &r.shards {
                    self.busy_ns.push(o.busy.as_nanos() as u64);
                }
                if let Some(out) = outcomes.as_deref_mut() {
                    out.absorb(r);
                }
            }
        }
        (executed, all_executed)
    }

    /// Run one segment of `res.phase` over the phase's region `arrivals`,
    /// continuing from `res.cursor` (and cycling if the region runs out),
    /// and add what it measured to `res`. The segment starts with nothing
    /// in flight and ends when everything it admitted has been collected.
    /// With invalidations scheduled, the first comes as the segment starts.
    pub fn run(&mut self, arrivals: &[u32], res: &mut PhaseResult) {
        let phase = res.phase;
        let n = phase.arrivals();
        let cache_before = self.cache_stats();
        let coalesced_before = self.session.stats().queries_coalesced;
        let tally_before = self.total;
        let snaps = [
            self.handles.queue_wait.snapshot(),
            self.handles.kway_merge.snapshot(),
            self.handles.deliver.snapshot(),
        ];

        let t0 = Instant::now();
        let gap = 1.0 / phase.qps;
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 * gap);
        let stop = t0 + phase.duration;
        let mut next_inv = phase.invalidate_every.map(|p| (t0, p));
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        let mut next = 0usize;
        let mut last_delivery = t0;
        loop {
            let now = Instant::now();
            let active = if phase.saturate { now < stop } else { next < n };
            if let Some((at, period)) = next_inv {
                if active && now >= at {
                    let s = Instant::now();
                    let _ = self.session.invalidate_epoch();
                    let e = Instant::now();
                    if phase.traced {
                        let req = self.fresh_req();
                        self.spans.push_tree(&[Span {
                            req,
                            parent: None,
                            name: Name::Invalidate,
                            when: When::At(self.ns(s), self.ns(e)),
                        }]);
                    }
                    next_inv = Some((at + period, period));
                    continue;
                }
            }
            if active && due(next) <= now && inflight.len() < WINDOW {
                let first = next;
                let mut end = next + 1;
                while end < n && end - first < MAX_BATCH && due(end) <= now {
                    end += 1;
                }
                let batch: Vec<BatchQuery> = (first..end)
                    .map(|i| {
                        let q = arrivals[(res.cursor + i) % arrivals.len()];
                        self.queries[q as usize].clone()
                    })
                    .collect();
                let enq_start = Instant::now();
                let admitted = self.session.enqueue(&batch);
                let enq_end = Instant::now();
                if phase.traced {
                    res.enqueue_ns.push((enq_end - enq_start).as_nanos() as u64);
                }
                match admitted {
                    Ok(pending) => inflight.push_back(InFlight {
                        pending,
                        first,
                        len: end - first,
                        enq_start,
                        enq_end,
                    }),
                    Err(_) => {
                        for i in first..end {
                            res.record(u64::MAX, (enq_start - due(i)).as_nanos() as u64);
                        }
                        self.total.attempted += (end - first) as u64;
                        self.total.errors += (end - first) as u64;
                    }
                }
                next = end;
            } else if let Some(b) = inflight.pop_front() {
                last_delivery = self.collect(b, &phase, arrivals, &due, res);
            } else if active {
                let mut until = due(next);
                if let Some((at, _)) = next_inv {
                    until = until.min(at);
                }
                if phase.saturate {
                    until = until.min(stop);
                }
                wait_until(until);
            } else {
                break;
            }
        }

        res.elapsed += last_delivery.saturating_duration_since(t0);
        res.cursor += next;
        res.cache
            .add(&CacheDelta::between(&cache_before, &self.cache_stats()));
        res.coalesced += (self.session.stats().queries_coalesced - coalesced_before) as u64;
        let t = self.total.minus(&tally_before);
        res.tally.add(&t);
        hist_add_delta(
            &mut res.queue_wait,
            &snaps[0],
            &self.handles.queue_wait.snapshot(),
        );
        hist_add_delta(
            &mut res.kway_merge,
            &snaps[1],
            &self.handles.kway_merge.snapshot(),
        );
        hist_add_delta(
            &mut res.deliver,
            &snaps[2],
            &self.handles.deliver.snapshot(),
        );
    }

    fn fresh_req(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    /// Collect the oldest batch, record its latencies, check and classify
    /// its answers, and (when traced) record its span trees. Returns the
    /// delivery time.
    fn collect(
        &mut self,
        b: InFlight,
        phase: &Phase,
        arrivals: &[u32],
        due: &dyn Fn(usize) -> Instant,
        res: &mut PhaseResult,
    ) -> Instant {
        let sums = phase
            .traced
            .then(|| (self.handles.kway_merge.sum(), self.handles.deliver.sum()));
        let col_start = Instant::now();
        let report = self.session.collect(b.pending);
        let delivered = Instant::now();
        if phase.traced {
            res.collect_ns
                .push((delivered - col_start).as_nanos() as u64);
        }
        for i in b.first..b.first + b.len {
            let d = due(i);
            res.record(
                (delivered - d).as_nanos() as u64,
                (b.enq_start - d).as_nanos() as u64,
            );
        }
        let ids: Vec<u32> = (b.first..b.first + b.len)
            .map(|i| arrivals[(res.cursor + i) % arrivals.len()])
            .collect();
        let (executed, all_executed) = self.account(&ids, &report, Some(&mut res.outcomes));
        // Per shard, the busy time of the batch's executed queries up to
        // and including each one: shard workers run a batch's distinct
        // queries in order.
        let shards = self.session.pool().num_shards();
        let mut prefix: Vec<Vec<u64>> = vec![Vec::new(); report.responses.len()];
        let mut acc = vec![0u64; shards];
        for (pos, e) in executed.iter().enumerate() {
            if *e == Some(pos) {
                if let Ok(r) = &report.responses[pos] {
                    for o in &r.shards {
                        acc[o.shard] += o.busy.as_nanos() as u64;
                    }
                }
                prefix[pos] = acc.clone();
            }
        }
        if all_executed && !report.responses.is_empty() && phase.traced {
            let critical = acc.iter().copied().max().unwrap_or(0);
            let span = (delivered - b.enq_start).as_nanos() as u64;
            res.dispatch_ns.push(span.saturating_sub(critical));
        }
        if let Some((merge0, deliver0)) = sums {
            let merge = self.handles.kway_merge.sum() - merge0;
            let deliver = self.handles.deliver.sum() - deliver0;
            let had_ticket = executed.iter().any(Option::is_some);
            for (k, i) in (b.first..b.first + b.len).enumerate() {
                let mut tree = vec![
                    Span {
                        req: 0,
                        parent: None,
                        name: Name::Request,
                        when: When::At(self.ns(due(i)), self.ns(delivered)),
                    },
                    Span {
                        req: 0,
                        parent: Some(0),
                        name: Name::Enqueue,
                        when: When::At(self.ns(b.enq_start), self.ns(b.enq_end)),
                    },
                    Span {
                        req: 0,
                        parent: Some(0),
                        name: Name::Collect,
                        when: When::At(self.ns(col_start), self.ns(delivered)),
                    },
                ];
                if had_ticket {
                    let collect = (delivered - col_start).as_nanos() as u64;
                    let wait = collect.saturating_sub(merge + deliver);
                    for (name, d) in [
                        (Name::KwayMerge, merge),
                        (Name::Deliver, deliver),
                        (Name::ShardWait, wait),
                    ] {
                        tree.push(Span {
                            req: 0,
                            parent: Some(2),
                            name,
                            when: When::Lasting(d),
                        });
                    }
                }
                if let (Some(twin), Ok(r)) = (executed[k], &report.responses[k]) {
                    shard_spans(&mut tree, r, &prefix[twin]);
                }
                let req = self.fresh_req();
                for s in &mut tree {
                    s.req = req;
                }
                self.spans.push_tree(&tree);
            }
        }
        delivered
    }
}

/// Duration-only children of the `shard_wait` span (index 5) for the
/// shard that finished `r` last: the batch's earlier work on that shard,
/// then the query's own planning and engine stages.
fn shard_spans(tree: &mut Vec<Span>, r: &QueryResponse, prefix: &[u64]) {
    let Some(o) = r
        .shards
        .iter()
        .max_by_key(|o| prefix.get(o.shard).copied().unwrap_or(0))
    else {
        return;
    };
    let busy = o.busy.as_nanos() as u64;
    let before = prefix
        .get(o.shard)
        .copied()
        .unwrap_or(busy)
        .saturating_sub(busy);
    let mut parts = vec![(Name::ColumnWait, before)];
    let mut staged = 0u64;
    for (name, stage) in [
        (Name::Plan, Stage::Plan),
        (Name::GatePass, Stage::GatePass),
        (Name::Decode, Stage::Decode),
        (Name::Score, Stage::Score),
        (Name::Merge, Stage::Merge),
    ] {
        let d = o.phases.get(stage);
        staged += d;
        parts.push((name, d));
    }
    parts.push((Name::ShardOther, busy.saturating_sub(staged)));
    for (name, d) in parts {
        tree.push(Span {
            req: 0,
            parent: Some(5),
            name,
            when: When::Lasting(d),
        });
    }
}
