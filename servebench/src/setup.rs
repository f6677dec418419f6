//! Set-up measurement: repeated fresh builds of the index and the
//! serving session, each public build call timed from outside, and the
//! process's resident memory read from `/proc/self/status`.

use std::sync::Arc;
use std::time::Instant;

use moa_corpus::Collection;
use moa_ir::{FragmentedIndex, InvertedIndex, ScoreKernel};
use moa_serve::{ServeConfig, ServeSession};

use crate::stats::median;
use crate::trace::{Name, Span, SpanLog, When};

/// Resident set size of this process in KiB, if the platform reports it.
pub fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Tracks the highest resident size seen at the sampling points.
#[derive(Debug, Clone, Copy)]
pub struct RssPeak {
    base_kb: u64,
    peak_kb: u64,
}

impl RssPeak {
    /// Start from the current resident size.
    pub fn start() -> RssPeak {
        let kb = vm_rss_kb().unwrap_or(0);
        RssPeak {
            base_kb: kb,
            peak_kb: kb,
        }
    }

    /// Sample the current resident size.
    pub fn sample(&mut self) {
        self.peak_kb = self.peak_kb.max(vm_rss_kb().unwrap_or(0));
    }

    /// Peak growth over the starting size (MiB).
    pub fn growth_mb(&self) -> f64 {
        (self.peak_kb - self.base_kb) as f64 / 1024.0
    }
}

/// Set-up timings (seconds, one entry per repetition) and memory.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// `from_collection` + `ServeSession::new`.
    pub total_s: Vec<f64>,
    /// `InvertedIndex::from_collection`.
    pub index_s: Vec<f64>,
    /// `ServeSession::new`.
    pub session_s: Vec<f64>,
    /// `InvertedIndex::shard_by_docs_multi`.
    pub partition_s: Vec<f64>,
    /// `FragmentedIndex::build` + `build_sparse_index`, every shard.
    pub fragment_s: Vec<f64>,
    /// `ScoreKernel::new`.
    pub kernel_s: Vec<f64>,
    /// Resident growth of the first index build (MiB).
    pub index_mb: f64,
    /// Resident growth of the first session build (MiB).
    pub session_mb: f64,
}

impl Setup {
    /// The median fresh set-up time (s).
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64()
}

/// Build the index and session `reps` times from `collection` and keep
/// the last pair. With `components`, also time the session's internal
/// build steps through their public functions, `reps` times each. Spans
/// go to `spans` when given; their times count from `origin`.
pub fn measure(
    collection: &Collection,
    config: ServeConfig,
    reps: usize,
    components: bool,
    rss: &mut RssPeak,
    mut spans: Option<&mut SpanLog>,
    origin: Instant,
) -> Result<(ServeSession, Setup), String> {
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut setup = Setup::default();
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let before = vm_rss_kb().unwrap_or(0);
        let t0 = Instant::now();
        let index = Arc::new(InvertedIndex::from_collection(collection));
        let t1 = Instant::now();
        rss.sample();
        let after_index = vm_rss_kb().unwrap_or(0);
        let session = ServeSession::new(Arc::clone(&index), config)
            .map_err(|e| format!("session build: {e}"))?;
        let t2 = Instant::now();
        rss.sample();
        if rep == 0 {
            setup.index_mb = after_index.saturating_sub(before) as f64 / 1024.0;
            setup.session_mb = vm_rss_kb().unwrap_or(0).saturating_sub(after_index) as f64 / 1024.0;
        }
        setup.total_s.push(secs(t0, t2));
        setup.index_s.push(secs(t0, t1));
        setup.session_s.push(secs(t1, t2));
        if let Some(log) = spans.as_deref_mut() {
            let req = u32::MAX - rep as u32;
            let span = |parent, name, a, b| Span {
                req,
                parent,
                name,
                when: When::At(ns(a), ns(b)),
            };
            log.push_tree(&[
                span(None, Name::Setup, t0, t2),
                span(Some(0), Name::FromCollection, t0, t1),
                span(Some(0), Name::SessionNew, t1, t2),
            ]);
        }
        if components {
            let spec = config.shard_spec;
            let num_docs = index.num_docs();
            let a = Instant::now();
            let kernel = ScoreKernel::new(config.model, &index);
            let b = Instant::now();
            let parts = index.shard_by_docs_multi(spec.shards(), |d| spec.shard_of(d, num_docs));
            let c = Instant::now();
            let mut frags = Vec::with_capacity(parts.len());
            for part in parts {
                let mut frag = FragmentedIndex::build(Arc::new(part), config.frag_spec)
                    .map_err(|e| format!("fragment build: {e}"))?;
                if let Some(block) = config.sparse_block {
                    frag.fragment_a_mut()
                        .build_sparse_index(block)
                        .map_err(|e| format!("sparse index: {e}"))?;
                    frag.fragment_b_mut()
                        .build_sparse_index(block)
                        .map_err(|e| format!("sparse index: {e}"))?;
                }
                frags.push(frag);
            }
            let d = Instant::now();
            std::hint::black_box((&kernel, &frags));
            setup.kernel_s.push(secs(a, b));
            setup.partition_s.push(secs(b, c));
            setup.fragment_s.push(secs(c, d));
            if let Some(log) = spans.as_deref_mut() {
                let req = u32::MAX / 2 - rep as u32;
                let span = |parent, name, x, y| Span {
                    req,
                    parent,
                    name,
                    when: When::At(ns(x), ns(y)),
                };
                log.push_tree(&[
                    span(None, Name::Setup, a, d),
                    span(Some(0), Name::Kernel, a, b),
                    span(Some(0), Name::Partition, b, c),
                    span(Some(0), Name::Fragment, c, d),
                ]);
            }
        }
        kept = Some(session);
    }
    Ok((kept.expect("at least one repetition"), setup))
}
