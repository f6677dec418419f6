//! The persistent per-shard worker pool: the serving runtime.
//!
//! Spawning one thread per shard *per batch* is correct but pays thread
//! spawn/join on every submission, several times the cost of serving a
//! typical query (E16 measured such a runtime at 0.44–0.76× sequential
//! at 2–8 shards). [`ShardPool`] removes the per-batch setup entirely, and is
//! the crate's only concurrent runtime; [`ShardedEngine`] stays as the
//! sequential reference it is tested against:
//!
//! * **One long-lived worker thread per shard.** Construction parks each
//!   [`EngineShard`] — its fragmented table, engine set, planner, and
//!   zero-allocation `QueryScratch` arena — in a shared slot owned by its
//!   worker thread for the life of the pool. The arena is reused across
//!   every query of every batch of the stream; steady-state submissions
//!   allocate only the per-batch bookkeeping (queries, gates, result
//!   columns), never per-posting or per-candidate state.
//! * **Bounded admission.** Every worker queue carries a
//!   [`QueueGauge`] bounded at [`PoolConfig::queue_depth`];
//!   [`ShardPool::submit`] admits under an [`AdmissionPolicy`] — block
//!   for room (backpressure), shed with [`ServeError::Shed`], or admit
//!   only into idle workers. A saturated pool can no longer grow its
//!   queues (and its memory) without limit; E19 drives this at multiples
//!   of calibrated capacity and gates on the recorded high-water marks.
//! * **Per-query deadlines.** With [`PoolConfig::deadline`] set, every
//!   distinct query is admitted with one `moa_ir` `DeadlineGate` shared
//!   by all shards (queueing time counts against the budget). An expired
//!   query comes back `Ok` with `partial == true`: an exact prefix of
//!   the ranking plus honest work counters, not an error — see
//!   `moa_ir::deadline` for the soundness argument.
//! * **Worker fault isolation.** Each query executes under
//!   `catch_unwind`: a panic fails *that position* with
//!   [`ServeError::ShardFailed`] (the shard's execution scratch is
//!   recovered via its epoch accumulators) and the worker keeps serving.
//!   A worker thread that dies outright (see [`WorkerFault::Crash`])
//!   loses only the jobs on its queue — tickets synthesize
//!   `ShardFailed` columns for them — and the next submission respawns
//!   the worker over the *retained* shard slot: index, planner
//!   calibration, and arena survive the crash. Respawns and captured
//!   panic payloads are observable ([`ShardPool::respawns`],
//!   [`ShardPool::panic_log`]).
//! * **Admission-time request coalescing.** Queries with identical
//!   `(terms, n)` inside one admitted batch execute **once**; the ticket
//!   fans the shared answer out to every duplicate position at
//!   collection. A top-N response is a pure function of the index, model,
//!   and query, so coalescing is answer-preserving by construction — and
//!   under the Zipf-skewed popularity real query streams exhibit (the
//!   paper's "millions of users" regime), the hottest query alone is a
//!   double-digit percentage of traffic, making coalescing the single
//!   biggest throughput lever the admission queue owns.
//! * **Query-lifecycle telemetry.** The pool owns (or is handed) a
//!   [`MetricsRegistry`]: admission counters (batches, admitted,
//!   coalesced, shed), per-shard queue-depth gauges with high-water
//!   marks, query and queue-wait latency histograms, and worker
//!   panic/respawn counters all publish through it. Each worker keeps a
//!   preallocated [`moa_obs::TraceRing`] of recent [`QueryTrace`]s —
//!   per-stage spans fed by the engine's phase clocks — and offers every
//!   query to a shared worst-K [`moa_obs::SlowLog`]. Recording is slot
//!   writes, relaxed atomics, and (for a rejected slow-log offer) one
//!   integer compare, so the steady-state hot path stays
//!   allocation-free; rare structured occurrences (panics, respawns) go
//!   to a bounded [`moa_obs::EventLog`] of [`PoolEvent`]s, which
//!   replaces the ad-hoc panic `Vec` earlier revisions kept.
//! * **Identical answers.** Workers run the same
//!   [`EngineShard::run_one`](crate::shard::EngineShard) column loop and
//!   the ticket folds columns with the same tie-stable
//!   [`merge_columns`] as the sequential path, under the same per-query
//!   [`BoundGate`]s — so pooled responses are bit-identical to it, and
//!   (for exact plans) to a single unsharded engine. The
//!   `pool_oracle` differential test pins this across plans × models ×
//!   shard counts × propagation.
//! * **Drain on shutdown.** `mpsc` receivers keep yielding buffered
//!   messages after every sender is dropped, so [`ShardPool::shutdown`]
//!   (drop all job senders, then join) lets each worker finish every job
//!   already queued before it observes disconnect. Shutdown never
//!   panics: workers that died are reported as [`ShardPanic`]s on the
//!   returned [`PoolShutdown`], and every [`EngineShard`] — including a
//!   dead worker's — is recovered from its slot, scratch arenas
//!   included.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moa_ir::{BoundGate, DeadlineGate, InvertedIndex, RankingModel, ScoreKernel};
use moa_obs::{
    Counter, EventLog, Histogram, MetricsRegistry, Phase, QueryTrace, SlowLog, TraceRing,
};
use parking_lot::Mutex;

use crate::admission::{AdmissionPolicy, QueueGauge};
use crate::fault::{panic_message, ServeError, ServeResult, ShardPanic, WorkerFault};
use crate::shard::{
    gates, merge_columns, BatchQuery, EngineShard, QueryResponse, ServeMode, ShardColumn,
    ShardSpec, ShardedEngine,
};

/// How long a blocked (backpressured) admission waits between queue
/// re-checks; bounded so a worker that dies mid-wait is noticed and
/// respawned instead of deadlocking the submitter.
const BLOCK_RECHECK: Duration = Duration::from_millis(10);

/// Pool runtime configuration: the overload posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Per-worker queue bound: admitted-but-unfinished batch jobs
    /// (clamped ≥ 1). Queue memory is `O(queue_depth × batch size)` by
    /// construction.
    pub queue_depth: usize,
    /// Per-query deadline budget, applied at admission (queueing time
    /// counts against it). `None` disables deadlines entirely — gates
    /// carry no deadline and the evaluation loops skip even the poll.
    pub deadline: Option<Duration>,
    /// Capture per-query traces and slow-log entries on the workers.
    /// Registry counters, gauges, and histograms are always live (a few
    /// relaxed atomic ops per query); this switch covers the trace-ring
    /// writes and slow-log offers — the parts behind a (worker-local,
    /// uncontended) mutex. E20 measures the difference.
    pub telemetry: bool,
    /// Per-worker trace ring capacity: the most recent query traces each
    /// worker retains (preallocated at spawn; zero disables capture).
    pub trace_ring: usize,
    /// Pool-wide slow-query log capacity: the worst-K queries by shard
    /// wall time, full traces attached (zero disables the log).
    pub slow_log: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            queue_depth: 64,
            deadline: None,
            telemetry: true,
            trace_ring: 128,
            slow_log: 16,
        }
    }
}

/// Retained structured-event history (panics, respawns). Events are rare
/// — a full log means hundreds of worker deaths — so a modest bound
/// keeps memory fixed without losing anything a live deployment would
/// still care about.
const EVENT_LOG_CAP: usize = 256;

/// A rare, structured pool occurrence, retained (with a sequence
/// number) in the pool's bounded [`moa_obs::EventLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolEvent {
    /// A worker thread died; its captured panic payload (or a note that
    /// it exited without one).
    WorkerPanic {
        /// The shard whose worker died.
        shard: usize,
        /// The panic message (or anomaly note).
        message: String,
    },
    /// A worker was respawned over its retained shard slot.
    WorkerRespawn {
        /// The shard respawned.
        shard: usize,
        /// Wall-clock cost of the respawn (join + thread spawn).
        wall: Duration,
    },
}

/// One retained slow-query record: the query, what ran, and the full
/// per-stage trace. Built lazily — only when the query's wall time beats
/// the slow log's admission threshold (see [`moa_obs::SlowLog`]), so
/// steady-state fast queries never pay the clones here.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// The shard that executed it.
    pub shard: usize,
    /// The query's terms.
    pub terms: Vec<u32>,
    /// Ranking depth.
    pub n: usize,
    /// Stable name of the physical plan that ran.
    pub plan: &'static str,
    /// The shard planner's cost estimate (`None` under a pinned plan).
    pub est_cost: Option<f64>,
    /// Shard wall time (the slow log's retention key).
    pub wall: Duration,
    /// Whether a deadline cut the execution short.
    pub partial: bool,
    /// The full per-stage trace (queue wait, plan, engine stages).
    pub trace: QueryTrace,
}

/// The telemetry bundle one worker records into, shared between the
/// worker thread and the pool (which drains it). Counter/histogram
/// handles come from the pool's registry — every worker shares the same
/// named metrics; the trace ring is worker-local.
struct WorkerTelemetry {
    /// Trace-ring and slow-log capture on or off (metrics always record).
    enabled: bool,
    /// `serve.shard_queries`: per-shard query executions (Ok outcomes).
    queries: Arc<Counter>,
    /// `serve.shard_partial`: executions a deadline cut short.
    partials: Arc<Counter>,
    /// `serve.plan_memo_hits`: planned executions whose decision came
    /// from the shard planner's plan memo instead of a full alternative
    /// walk.
    memo_hits: Arc<Counter>,
    /// `serve.query_ns`: per-shard query wall time.
    query_ns: Arc<Histogram>,
    /// `serve.queue_wait_ns`: admission-to-pickup wait per batch job.
    queue_wait_ns: Arc<Histogram>,
    /// Recent query traces (preallocated; worker-local, so the mutex is
    /// uncontended except against a drain).
    ring: Mutex<TraceRing>,
    /// The pool-wide worst-K slow-query log.
    slow: Arc<SlowLog<SlowQuery>>,
}

/// Pool-level admission counters, registered once at construction.
struct PoolCounters {
    /// `serve.batches`: batches admitted.
    batches: Arc<Counter>,
    /// `serve.queries_admitted`: queries admitted (before coalescing).
    admitted: Arc<Counter>,
    /// `serve.queries_coalesced`: positions answered by a batch-mate.
    coalesced: Arc<Counter>,
    /// `serve.shed`: queries refused at admission.
    shed: Arc<Counter>,
    /// `serve.worker_respawns`: workers respawned after a crash.
    respawns: Arc<Counter>,
    /// `serve.worker_panics`: panic payloads captured from dead workers.
    panics: Arc<Counter>,
}

/// What [`ShardPool::shutdown`] hands back: every shard (planners
/// calibrated by the stream, scratch arenas carrying their lifetime
/// query counts) plus the full panic history — both workers healed
/// mid-stream and workers found dead at teardown. Teardown itself never
/// panics.
#[must_use = "shutdown hands back the shards and the panic history"]
pub struct PoolShutdown {
    /// The engine shards, in shard order — recovered from their slots
    /// even when their worker died.
    pub shards: Vec<EngineShard>,
    /// Every worker panic the pool observed, in the order captured.
    pub panics: Vec<ShardPanic>,
}

impl PoolShutdown {
    /// Whether no worker ever panicked.
    pub fn is_clean(&self) -> bool {
        self.panics.is_empty()
    }

    /// Take just the shards (asserting nothing about panics).
    pub fn into_shards(self) -> Vec<EngineShard> {
        self.shards
    }
}

/// One priced EXPLAIN row, computed on the owning worker.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRow {
    /// The shard.
    pub shard: usize,
    /// Shard-resident posting volume.
    pub postings: usize,
    /// The operator this shard's planner picks for the query.
    pub plan_name: &'static str,
    /// The planner's cost estimate for that operator.
    pub cost: f64,
    /// The planner's posting-volume estimate for that operator.
    pub est_postings: f64,
    /// Whether the shard planner's plan memo answered the pricing (a
    /// repeated df-band query class; the alternatives were not
    /// re-walked).
    pub memo_hit: bool,
}

/// A unit of work on a worker's queue.
enum Job {
    /// Run the whole batch column and send it to the ticket.
    Batch(Arc<BatchJob>),
    /// Price one query on this shard (EXPLAIN; executes nothing).
    Explain {
        terms: Vec<u32>,
        n: usize,
        reply: Sender<ServeResult<ExplainRow>>,
    },
    /// Adjust the worker's fault state (tests and the E19 resilience
    /// harness). Rides the ordinary queue: takes effect in admission
    /// order, costs no gauge slot.
    Fault(WorkerFault),
}

/// One admitted batch, shared by every worker. The gates are built once
/// at admission so all shards prune against the same per-query
/// [`moa_ir::SharedThreshold`]s (and, with deadlines on, poll the same
/// per-query [`DeadlineGate`]s).
struct BatchJob {
    queries: Arc<[BatchQuery]>,
    mode: ServeMode,
    gates: Vec<BoundGate>,
    /// Monotone batch sequence number, tagged into every trace the batch
    /// produces.
    seq: u64,
    /// When the batch was admitted; the gap to worker pickup is the
    /// queue-wait span.
    admitted: Instant,
    /// Tagged with the worker's shard id so the ticket can order columns
    /// regardless of completion order.
    done: Sender<(usize, ShardColumn)>,
}

/// The shared slot a worker's [`EngineShard`] lives in. The worker locks
/// it per job; the pool takes the shard back out at shutdown — or leaves
/// it in place across a respawn, which is what makes crash recovery
/// O(1): no index rebuild, no planner reset.
type ShardSlot = Arc<Mutex<Option<EngineShard>>>;

struct Worker {
    /// The shard this worker serves (== its index in the pool).
    id: usize,
    tx: Sender<Job>,
    handle: JoinHandle<()>,
    slot: ShardSlot,
    gauge: Arc<QueueGauge>,
    /// Shared with the worker thread; survives respawns (the replacement
    /// thread keeps recording into the same ring and counters).
    tele: Arc<WorkerTelemetry>,
}

fn spawn_worker(
    id: usize,
    slot: ShardSlot,
    rx: Receiver<Job>,
    gauge: Arc<QueueGauge>,
    tele: Arc<WorkerTelemetry>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("moa-shard-{id}"))
        .spawn(move || worker_loop(id, slot, rx, gauge, tele))
        .expect("spawning a shard worker thread")
}

/// Execute one query under the per-query panic guard. A panic — from the
/// engine or from an armed poison term — fails only this position: the
/// shard's execution scratch is recovered (epoch-bump retire, O(1)) and
/// the worker moves on to the next query.
fn run_guarded(
    shard: &mut EngineShard,
    id: usize,
    q: &BatchQuery,
    mode: ServeMode,
    gate: &BoundGate,
    poison: Option<u32>,
) -> ServeResult<crate::shard::ShardOutcome> {
    let poisoned = poison.is_some_and(|t| q.terms.contains(&t));
    match catch_unwind(AssertUnwindSafe(|| {
        if poisoned {
            panic!("injected poison term in query");
        }
        shard.run_one(q, mode, gate)
    })) {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(e)) => Err(ServeError::Engine(e)),
        Err(payload) => {
            shard.recover();
            Err(ServeError::ShardFailed {
                shard: id,
                panic: panic_message(payload.as_ref()),
            })
        }
    }
}

/// The worker thread body: serve jobs until every sender is gone. The
/// `mpsc` disconnect contract (buffered jobs drain before `recv` errors)
/// is the pool's whole shutdown story. The shard stays in its slot at
/// all times — in particular it is still there if this thread dies, so
/// the respawn path and teardown can always recover it.
fn worker_loop(
    id: usize,
    slot: ShardSlot,
    rx: Receiver<Job>,
    gauge: Arc<QueueGauge>,
    tele: Arc<WorkerTelemetry>,
) {
    // Worker-local fault state; an armed poison term panics inside the
    // per-query guard. A respawned worker starts disarmed.
    let mut poison: Option<u32> = None;
    while let Ok(job) = rx.recv() {
        match job {
            Job::Batch(job) => {
                // Queue wait: admission to the moment this worker picked
                // the job up. One clock read per batch job, not per query.
                let wait_ns = job.admitted.elapsed().as_nanos() as u64;
                tele.queue_wait_ns.record(wait_ns);
                let column: ShardColumn = {
                    let mut guard = slot.lock();
                    let shard = guard
                        .as_mut()
                        .expect("the slot holds the shard while its worker serves");
                    job.queries
                        .iter()
                        .enumerate()
                        .map(|(qi, q)| run_guarded(shard, id, q, job.mode, &job.gates[qi], poison))
                        .collect()
                };
                // Account the column: counters are relaxed atomics, a
                // trace is a ring-slot write of a `Copy` value, and a
                // rejected slow-log offer is one integer compare —
                // nothing here allocates in steady state.
                for (qi, r) in column.iter().enumerate() {
                    let Ok(o) = r else { continue };
                    tele.queries.incr();
                    let wall_ns = o.busy.as_nanos() as u64;
                    tele.query_ns.record(wall_ns);
                    if o.report.partial {
                        tele.partials.incr();
                    }
                    if o.memo_hit {
                        tele.memo_hits.incr();
                    }
                    if tele.enabled {
                        let mut trace = QueryTrace::new(job.seq, qi as u32, id as u32);
                        trace.plan = o.plan.name();
                        trace.wall_ns = wall_ns;
                        trace.partial = o.report.partial;
                        trace.push(Phase::QueueWait, wait_ns);
                        trace.push_phases(&o.phases);
                        tele.ring.lock().record(trace);
                        tele.slow.offer_with(wall_ns, || SlowQuery {
                            shard: id,
                            terms: job.queries[qi].terms.clone(),
                            n: job.queries[qi].n,
                            plan: o.plan.name(),
                            est_cost: o.est_cost,
                            wall: o.busy,
                            partial: o.report.partial,
                            trace,
                        });
                    }
                }
                // Release *before* delivering: a caller that has
                // collected every column can rely on the slots already
                // being free (an idle-only resubmission right after a
                // collect must not race the release).
                gauge.release();
                // The ticket may have been dropped (caller abandoned the
                // batch); the work is done either way.
                let _ = job.done.send((id, column));
            }
            Job::Explain { terms, n, reply } => {
                let row = {
                    let mut guard = slot.lock();
                    let shard = guard
                        .as_mut()
                        .expect("the slot holds the shard while its worker serves");
                    shard
                        .plan_memoized(&terms, n)
                        .map(|(decision, memo_hit)| {
                            let chosen = decision.chosen_alternative();
                            ExplainRow {
                                shard: id,
                                postings: shard.num_postings(),
                                plan_name: chosen.plan.name(),
                                cost: chosen.cost,
                                est_postings: chosen.est_postings,
                                memo_hit,
                            }
                        })
                        .map_err(ServeError::Engine)
                };
                let _ = reply.send(row);
            }
            Job::Fault(fault) => match fault {
                WorkerFault::PoisonTerm(t) => poison = Some(t),
                WorkerFault::ClearPoison => poison = None,
                // Outside the per-query guard: the thread dies with its
                // queue, exercising ticket synthesis and respawn.
                WorkerFault::Crash => panic!("injected worker crash"),
                WorkerFault::Stall(d) => std::thread::sleep(d),
            },
        }
    }
}

/// A column of [`ServeError::ShardFailed`] standing in for a worker that
/// died before answering: its queued jobs vanished with its channel, and
/// the ticket owes every position an answer.
fn lost_column(shard: usize, len: usize) -> ShardColumn {
    (0..len)
        .map(|_| {
            Err(ServeError::ShardFailed {
                shard,
                panic: "worker terminated before answering".to_string(),
            })
        })
        .collect()
}

/// An in-flight batch: redeem it with [`BatchTicket::wait`] for merged
/// per-query results, or [`BatchTicket::wait_columns`] to take the raw
/// per-shard columns and defer the merge off the service critical path
/// (submit the next batch first, then merge — the overlap the E18 pool
/// driver uses). Waiting never fails and never deadlocks: a worker that
/// died mid-batch yields a synthesized [`ServeError::ShardFailed`]
/// column instead of a hang.
#[must_use = "an unredeemed ticket discards the batch's responses"]
pub struct BatchTicket {
    /// The *distinct* queries dispatched to the workers (admission
    /// coalescing already applied), in first-occurrence order.
    queries: Arc<[BatchQuery]>,
    /// Maps each admitted query position to its distinct query's index:
    /// `expand[i]` is the entry of `queries` that answers position `i`.
    expand: Vec<usize>,
    rx: Receiver<(usize, ShardColumn)>,
    num_shards: usize,
}

impl BatchTicket {
    /// Number of queries admitted (before coalescing): the number of
    /// responses [`BatchTicket::wait`] will return.
    pub fn len(&self) -> usize {
        self.expand.len()
    }

    /// Whether the admitted batch was empty.
    pub fn is_empty(&self) -> bool {
        self.expand.is_empty()
    }

    /// The distinct queries actually dispatched to the workers, in
    /// first-occurrence order (duplicates coalesced at admission).
    pub fn queries(&self) -> &Arc<[BatchQuery]> {
        &self.queries
    }

    /// How many admitted queries will be answered by another position's
    /// execution (`len() - queries().len()`).
    pub fn coalesced(&self) -> usize {
        self.expand.len() - self.queries.len()
    }

    /// The coalescing map: `expansion()[i]` is the index into
    /// [`BatchTicket::queries`] whose execution answers admitted position
    /// `i`. Distinct indices are assigned in first-occurrence order, so
    /// position `i` is a first occurrence iff `expansion()[i]` equals the
    /// count of distinct indices seen before it.
    pub fn expansion(&self) -> &[usize] {
        &self.expand
    }

    /// Block until every live shard's column has arrived and return the
    /// columns in shard order, alongside the *distinct* queries they
    /// answer (one column entry per distinct query, not per admitted
    /// position; [`BatchTicket::wait`] re-expands). A shard whose worker
    /// died before answering yields a synthesized all-
    /// [`ServeError::ShardFailed`] column — the dead worker's queued job
    /// dropped its reply sender with the channel, so the disconnect is
    /// observed, not waited out.
    pub fn wait_columns(self) -> (Arc<[BatchQuery]>, Vec<ShardColumn>) {
        let mut columns: Vec<Option<ShardColumn>> = (0..self.num_shards).map(|_| None).collect();
        let mut received = 0usize;
        while received < self.num_shards {
            match self.rx.recv() {
                Ok((shard, column)) => {
                    if columns[shard].replace(column).is_none() {
                        received += 1;
                    }
                }
                // Every sender is gone: the workers that were going to
                // answer have answered; the rest are dead.
                Err(_) => break,
            }
        }
        let len = self.queries.len();
        let columns = columns
            .into_iter()
            .enumerate()
            .map(|(shard, c)| c.unwrap_or_else(|| lost_column(shard, len)))
            .collect();
        (self.queries, columns)
    }

    /// Block until every live shard has finished, fold the columns with
    /// the tie-stable k-way merge, and fan coalesced answers back out:
    /// one result per *admitted* query, in submission order. A duplicate
    /// position's result clones its distinct query's execution — top-N,
    /// work counters, and per-shard outcomes included — because that
    /// execution is what answered it. Per-query failures (engine errors,
    /// shard panics) surface as that position's `Err`; the call itself
    /// cannot fail.
    pub fn wait(mut self) -> Vec<ServeResult<QueryResponse>> {
        let expand = std::mem::take(&mut self.expand);
        let (queries, columns) = self.wait_columns();
        let distinct = merge_columns(&queries, columns);
        if distinct.len() == expand.len() {
            // No duplicates: the expansion is the identity.
            return distinct;
        }
        expand.into_iter().map(|u| distinct[u].clone()).collect()
    }
}

/// The persistent per-shard worker pool. See the module docs.
pub struct ShardPool {
    workers: Vec<Worker>,
    spec: ShardSpec,
    index: Arc<InvertedIndex>,
    kernel: Arc<ScoreKernel>,
    config: PoolConfig,
    /// Every metric the pool publishes; shared with the serving session
    /// (which adds its merge/delivery spans to the same registry).
    registry: Arc<MetricsRegistry>,
    /// Bounded structured history of rare occurrences (panics, respawns).
    events: Arc<EventLog<PoolEvent>>,
    /// The pool-wide worst-K slow-query log, fed by every worker.
    slow: Arc<SlowLog<SlowQuery>>,
    /// Pool-level admission counters (registry handles).
    counters: PoolCounters,
    /// Wall-clock cost of each respawn (join + thread spawn).
    recoveries: Vec<Duration>,
    /// Monotone batch sequence, tagged into traces.
    batch_seq: u64,
}

impl ShardPool {
    /// Stand the pool up from a built engine with the default
    /// [`PoolConfig`] (queue depth 64, no deadline, telemetry on).
    pub fn new(engine: ShardedEngine) -> ShardPool {
        ShardPool::with_config(engine, PoolConfig::default())
    }

    /// Stand the pool up from a built engine with a fresh private
    /// metrics registry. See [`ShardPool::with_config_and_registry`].
    pub fn with_config(engine: ShardedEngine, config: PoolConfig) -> ShardPool {
        ShardPool::with_config_and_registry(engine, config, Arc::new(MetricsRegistry::new()))
    }

    /// Stand the pool up from a built engine: every shard is parked in a
    /// retained slot and served by its own long-lived worker thread,
    /// with admission bounded per `config`. All pool metrics register in
    /// `registry` (per-shard queue-depth gauges as
    /// `serve.queue_depth.shard<i>`; counters and latency histograms
    /// under `serve.*`), so a caller can hand in a shared registry and
    /// read one exposition for the whole stack.
    pub fn with_config_and_registry(
        engine: ShardedEngine,
        config: PoolConfig,
        registry: Arc<MetricsRegistry>,
    ) -> ShardPool {
        let (shards, spec, index, kernel) = engine.into_parts();
        let slow = Arc::new(SlowLog::with_capacity(config.slow_log));
        let events = Arc::new(EventLog::with_capacity(EVENT_LOG_CAP));
        let counters = PoolCounters {
            batches: registry.counter("serve.batches"),
            admitted: registry.counter("serve.queries_admitted"),
            coalesced: registry.counter("serve.queries_coalesced"),
            shed: registry.counter("serve.shed"),
            respawns: registry.counter("serve.worker_respawns"),
            panics: registry.counter("serve.worker_panics"),
        };
        let workers = shards
            .into_iter()
            .map(|shard| {
                let id = shard.id();
                let slot: ShardSlot = Arc::new(Mutex::new(Some(shard)));
                let gauge = Arc::new(QueueGauge::with_metric(
                    config.queue_depth,
                    registry.gauge(&format!("serve.queue_depth.shard{id}")),
                ));
                let tele = Arc::new(WorkerTelemetry {
                    enabled: config.telemetry,
                    queries: registry.counter("serve.shard_queries"),
                    partials: registry.counter("serve.shard_partial"),
                    memo_hits: registry.counter("serve.plan_memo_hits"),
                    query_ns: registry.histogram("serve.query_ns"),
                    queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
                    ring: Mutex::new(TraceRing::with_capacity(config.trace_ring)),
                    slow: Arc::clone(&slow),
                });
                let (tx, rx) = channel();
                let handle = spawn_worker(
                    id,
                    Arc::clone(&slot),
                    rx,
                    Arc::clone(&gauge),
                    Arc::clone(&tele),
                );
                Worker {
                    id,
                    tx,
                    handle,
                    slot,
                    gauge,
                    tele,
                }
            })
            .collect();
        ShardPool {
            workers,
            spec,
            index,
            kernel,
            config,
            registry,
            events,
            slow,
            counters,
            recoveries: Vec::new(),
            batch_seq: 0,
        }
    }

    /// Number of shards (= worker threads).
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The partitioning in force.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The unsharded source index.
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// The ranking model every shard scores with.
    pub fn model(&self) -> RankingModel {
        self.kernel.model()
    }

    /// The runtime configuration in force.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// The per-worker queue bound actually enforced (the configured
    /// depth, clamped ≥ 1).
    pub fn queue_bound(&self) -> usize {
        self.workers.first().map_or(1, |w| w.gauge.bound())
    }

    /// The deepest any worker queue has ever been — never exceeds
    /// [`ShardPool::queue_bound`]; the ceiling E19 gates on.
    pub fn queue_high_water(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.gauge.high_water())
            .max()
            .unwrap_or(0)
    }

    /// Current per-worker queue depths (admitted, unfinished jobs), in
    /// shard order.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.gauge.depth()).collect()
    }

    /// Workers respawned over their retained shard after a crash (read
    /// off the `serve.worker_respawns` registry counter).
    pub fn respawns(&self) -> usize {
        self.counters.respawns.get() as usize
    }

    /// Wall-clock cost of each respawn, in the order they happened.
    pub fn recoveries(&self) -> &[Duration] {
        &self.recoveries
    }

    /// Every worker panic captured so far, derived from the structured
    /// event log (shutdown appends any found at teardown and reports the
    /// full history on [`PoolShutdown`]).
    pub fn panic_log(&self) -> Vec<ShardPanic> {
        self.events
            .snapshot()
            .into_iter()
            .filter_map(|(_, e)| match e {
                PoolEvent::WorkerPanic { shard, message } => Some(ShardPanic { shard, message }),
                PoolEvent::WorkerRespawn { .. } => None,
            })
            .collect()
    }

    /// The registry every pool metric publishes through.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The retained structured events (panics, respawns) with their
    /// sequence numbers, oldest first.
    pub fn events(&self) -> Vec<(u64, PoolEvent)> {
        self.events.snapshot()
    }

    /// Recent query traces from every worker's ring, in shard order
    /// (each worker's slice oldest first). Empty when
    /// [`PoolConfig::telemetry`] is off or the rings have zero capacity.
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.workers
            .iter()
            .flat_map(|w| w.tele.ring.lock().snapshot())
            .collect()
    }

    /// Drain the slow-query log: the worst-K queries by shard wall time
    /// observed since the last drain, slowest first.
    pub fn drain_slow_queries(&self) -> Vec<SlowQuery> {
        self.slow
            .drain_sorted()
            .into_iter()
            .map(|(_, q)| q)
            .collect()
    }

    /// Respawn every dead worker over its retained shard; returns how
    /// many were respawned. Submission paths call this automatically;
    /// it is public so a harness can measure recovery without
    /// submitting.
    pub fn heal(&mut self) -> usize {
        (0..self.workers.len())
            .filter(|&i| self.heal_worker(i))
            .count()
    }

    /// If worker `i` is dead: capture its panic, reset its gauge (its
    /// queued jobs died with its channel), and respawn it over the
    /// retained shard slot. Returns whether a respawn happened.
    fn heal_worker(&mut self, i: usize) -> bool {
        if !self.workers[i].handle.is_finished() {
            return false;
        }
        self.respawn_worker(i);
        true
    }

    /// Unconditionally respawn worker `i` over its retained shard,
    /// joining the old thread (which may still be unwinding — a failed
    /// send proves its receiver is gone before `is_finished` turns true)
    /// and capturing its panic payload.
    fn respawn_worker(&mut self, i: usize) {
        let t0 = Instant::now();
        let w = &mut self.workers[i];
        w.gauge.reset();
        let (tx, rx) = channel();
        let handle = spawn_worker(
            w.id,
            Arc::clone(&w.slot),
            rx,
            Arc::clone(&w.gauge),
            Arc::clone(&w.tele),
        );
        drop(std::mem::replace(&mut w.tx, tx));
        let dead = std::mem::replace(&mut w.handle, handle);
        let id = w.id;
        let message = match dead.join() {
            // A worker only exits cleanly on channel disconnect, which
            // cannot happen while the pool holds its sender; record the
            // anomaly as a panic-free death.
            Ok(()) => "worker exited without a panic payload".to_string(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        self.counters.panics.incr();
        self.events
            .record(PoolEvent::WorkerPanic { shard: id, message });
        let wall = t0.elapsed();
        self.counters.respawns.incr();
        self.events
            .record(PoolEvent::WorkerRespawn { shard: id, wall });
        self.recoveries.push(wall);
    }

    /// Acquire one gauge slot per worker under `policy`. On refusal,
    /// roll back every slot already acquired and report the refusing
    /// shard.
    fn admit(&mut self, policy: AdmissionPolicy) -> ServeResult<()> {
        for i in 0..self.workers.len() {
            let refused = match policy {
                AdmissionPolicy::Block => {
                    loop {
                        if self.workers[i].gauge.try_acquire().is_ok() {
                            break;
                        }
                        // A worker that died mid-wait would never drain
                        // its queue: notice and respawn instead of
                        // blocking forever.
                        if self.workers[i].handle.is_finished() {
                            self.heal_worker(i);
                            continue;
                        }
                        self.workers[i].gauge.wait_for_room(BLOCK_RECHECK);
                    }
                    None
                }
                AdmissionPolicy::Shed => self.workers[i].gauge.try_acquire().err(),
                AdmissionPolicy::TryNow => self.workers[i].gauge.try_acquire_idle().err(),
            };
            if let Some(depth) = refused {
                for w in &self.workers[..i] {
                    w.gauge.release();
                }
                return Err(ServeError::Shed {
                    shard: self.workers[i].id,
                    depth,
                    bound: self.workers[i].gauge.bound(),
                });
            }
        }
        Ok(())
    }

    /// One gate per distinct query: shared thresholds under propagation,
    /// plus one [`DeadlineGate`] per query when the pool runs with a
    /// deadline budget. The gate is shared by every shard, so the query
    /// has *one* budget, not one per shard — and it starts at admission,
    /// so queueing time counts against it.
    fn build_gates(&self, queries: &[BatchQuery], propagate: bool) -> Vec<BoundGate> {
        // With one shard there is no peer to propagate to or from.
        let gs = gates(queries, propagate && self.workers.len() > 1);
        match self.config.deadline {
            None => gs,
            Some(budget) => gs
                .into_iter()
                .map(|g| g.with_deadline(Arc::new(DeadlineGate::after(budget))))
                .collect(),
        }
    }

    /// Send a job to worker `i`, respawning and re-sending if its thread
    /// died since the last heal (e.g. a queued [`WorkerFault::Crash`]
    /// ran). `counted` marks jobs that hold a gauge slot: the respawn
    /// resets the gauge, so the slot is re-acquired before the re-send.
    fn send_job(&mut self, i: usize, job: Job, counted: bool) {
        if let Err(send_err) = self.workers[i].tx.send(job) {
            // The failed send proves the receiver is gone even if the
            // thread is still unwinding: respawn unconditionally.
            self.respawn_worker(i);
            if counted {
                self.workers[i]
                    .gauge
                    .try_acquire()
                    .expect("a freshly respawned worker's queue is empty");
            }
            self.workers[i]
                .tx
                .send(send_err.0)
                .expect("a freshly spawned worker holds its receiver");
        }
    }

    /// Admit a batch: heal any dead workers, acquire one bounded queue
    /// slot per worker under `policy`, coalesce duplicate queries, build
    /// the per-query gates (thresholds, and deadlines when configured),
    /// enqueue the job on every worker, and return a [`BatchTicket`]
    /// without waiting. Workers run their columns concurrently; with
    /// `propagate`, shards prune against each other's running thresholds
    /// mid-flight.
    ///
    /// Refusal is all-or-nothing: [`ServeError::Shed`] means *no* worker
    /// received the batch (acquired slots are rolled back), so a shed
    /// batch can be retried verbatim.
    ///
    /// Coalescing: positions with identical `(terms, n)` dispatch **one**
    /// execution; [`BatchTicket::wait`] clones the shared answer back
    /// into every duplicate position. Answers are bit-identical to
    /// executing each position individually — a top-N response is a pure
    /// function of index, model, and query — and under Zipf-skewed
    /// streams the saved executions are the pool's dominant throughput
    /// win (see E18).
    pub fn submit(
        &mut self,
        queries: &[BatchQuery],
        mode: ServeMode,
        propagate: bool,
        policy: AdmissionPolicy,
    ) -> ServeResult<BatchTicket> {
        self.heal();
        if let Err(e) = self.admit(policy) {
            // Refusal is all-or-nothing: every query of the batch shed.
            self.counters.shed.add(queries.len() as u64);
            return Err(e);
        }
        let mut first: HashMap<(&[u32], usize), usize> = HashMap::with_capacity(queries.len());
        let mut distinct: Vec<BatchQuery> = Vec::with_capacity(queries.len());
        let mut expand: Vec<usize> = Vec::with_capacity(queries.len());
        for q in queries {
            let next = distinct.len();
            let slot = *first.entry((q.terms.as_slice(), q.n)).or_insert(next);
            if slot == next {
                distinct.push(q.clone());
            }
            expand.push(slot);
        }
        let queries: Arc<[BatchQuery]> = distinct.into();
        self.counters.batches.incr();
        self.counters.admitted.add(expand.len() as u64);
        self.counters
            .coalesced
            .add((expand.len() - queries.len()) as u64);
        let seq = self.batch_seq;
        self.batch_seq += 1;
        let gates = self.build_gates(&queries, propagate);
        let (done, rx) = channel();
        let job = Arc::new(BatchJob {
            queries: Arc::clone(&queries),
            mode,
            gates,
            seq,
            admitted: Instant::now(),
            done,
        });
        for i in 0..self.workers.len() {
            self.send_job(i, Job::Batch(Arc::clone(&job)), true);
        }
        Ok(BatchTicket {
            queries,
            expand,
            rx,
            num_shards: self.workers.len(),
        })
    }

    /// The profiling twin of [`ShardPool::submit`]: workers run one at a
    /// time in shard order (each finishes its whole column before the
    /// next starts), so with propagation the thresholds published by
    /// earlier shards reach later shards deterministically and per-shard
    /// busy times are reproducible — the same schedule as
    /// [`ShardedEngine::execute_batch_sequential`], on the workers'
    /// threads. No admission coalescing: every position executes, which
    /// is what makes this the per-position bit-identity reference for
    /// [`ShardPool::submit`]'s coalesced fan-out. Admission blocks for
    /// queue room (the submitter waits for each column anyway).
    pub fn submit_sequential(
        &mut self,
        queries: &[BatchQuery],
        mode: ServeMode,
        propagate: bool,
    ) -> Vec<ServeResult<QueryResponse>> {
        self.heal();
        let queries: Arc<[BatchQuery]> = queries.into();
        self.counters.batches.incr();
        self.counters.admitted.add(queries.len() as u64);
        let seq = self.batch_seq;
        self.batch_seq += 1;
        let gates = self.build_gates(&queries, propagate);
        let mut columns: Vec<ShardColumn> = Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            loop {
                if self.workers[i].gauge.try_acquire().is_ok() {
                    break;
                }
                if self.workers[i].handle.is_finished() {
                    self.heal_worker(i);
                    continue;
                }
                self.workers[i].gauge.wait_for_room(BLOCK_RECHECK);
            }
            let (done, rx) = channel();
            let job = Arc::new(BatchJob {
                queries: Arc::clone(&queries),
                mode,
                // Gate clones share the underlying thresholds: later
                // shards see what earlier shards published.
                gates: gates.clone(),
                seq,
                admitted: Instant::now(),
                done,
            });
            self.send_job(i, Job::Batch(job), true);
            let column = match rx.recv() {
                Ok((_, column)) => column,
                // The worker died with this job on its queue; the next
                // submission (or heal) respawns it.
                Err(_) => lost_column(i, queries.len()),
            };
            columns.push(column);
        }
        merge_columns(&queries, columns)
    }

    /// Inject a fault into one shard worker (tests and the E19
    /// resilience harness). The fault rides the worker's ordinary job
    /// queue, so it takes effect after everything already admitted. A
    /// dead worker is healed first so the injection always lands.
    pub fn inject_fault(&mut self, shard: usize, fault: WorkerFault) {
        self.heal_worker(shard);
        self.send_job(shard, Job::Fault(fault), false);
    }

    /// Price a query on every shard (nothing executes): one EXPLAIN row
    /// per shard, in shard order. Rows are computed on the workers, so an
    /// EXPLAIN queues behind any batches already admitted (but bypasses
    /// the admission gauges — pricing is not load).
    pub fn explain_rows(&mut self, terms: &[u32], n: usize) -> ServeResult<Vec<ExplainRow>> {
        self.heal();
        let mut pending = Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            let (reply, rx) = channel();
            self.send_job(
                i,
                Job::Explain {
                    terms: terms.to_vec(),
                    n,
                    reply,
                },
                false,
            );
            pending.push(rx);
        }
        pending
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                rx.recv().unwrap_or_else(|_| {
                    Err(ServeError::ShardFailed {
                        shard: i,
                        panic: "worker terminated during explain".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Drain and stop: drop every job sender (live workers finish all
    /// queued jobs, then observe disconnect), join the threads *capturing*
    /// any panic payloads instead of re-panicking, and recover every
    /// [`EngineShard`] from its slot — including the shards of workers
    /// that died. The returned [`PoolShutdown`] carries the shards in
    /// shard order plus the pool's full panic history.
    pub fn shutdown(mut self) -> PoolShutdown {
        let workers = std::mem::take(&mut self.workers);
        let mut panics = self.panic_log();
        let healed = panics.len();
        let shards = teardown(workers, &mut panics);
        // Deaths first observed at teardown join the event history and
        // counters too, so a shared registry's exposition agrees with
        // the returned PoolShutdown.
        for p in &panics[healed..] {
            self.counters.panics.incr();
            self.events.record(PoolEvent::WorkerPanic {
                shard: p.shard,
                message: p.message.clone(),
            });
        }
        PoolShutdown { shards, panics }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let mut panics = Vec::new();
            let _ = teardown(std::mem::take(&mut self.workers), &mut panics);
        }
    }
}

/// Two passes: drop *every* sender before joining *any* worker, so a
/// worker blocked on `recv` is released no matter the join order. Joins
/// capture panic payloads into `panics` instead of propagating them, and
/// the shards come back from their retained slots — present even when
/// the worker died.
fn teardown(workers: Vec<Worker>, panics: &mut Vec<ShardPanic>) -> Vec<EngineShard> {
    let parts: Vec<(usize, JoinHandle<()>, ShardSlot)> = workers
        .into_iter()
        .map(|worker| {
            drop(worker.tx);
            (worker.id, worker.handle, worker.slot)
        })
        .collect();
    parts
        .into_iter()
        .map(|(id, handle, slot)| {
            if let Err(payload) = handle.join() {
                panics.push(ShardPanic {
                    shard: id,
                    message: panic_message(payload.as_ref()),
                });
            }
            slot.lock()
                .take()
                .expect("a stopped worker leaves its shard in the slot")
        })
        .collect()
}
