//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out when the run ends, with a per-layer
//! self-time table.
//!
//! A span either has a start and end (nanoseconds since the run's
//! origin) or only a duration: the per-shard phase timings a
//! `QueryResponse` hands back say how long each phase took, not when it
//! ran. A span's self time is its duration minus the part its children
//! cover: the union of its timed children's intervals, clipped to its
//! own, plus the summed durations of its duration-only children (which
//! are assumed to lie inside it and not to overlap its timed children),
//! never more than its own duration.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A layer of the serving stack, as the self-time table reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own driver thread (lateness, pipelining waits).
    Driver,
    /// `moa_serve::service` and its result cache front end.
    Service,
    /// `moa_serve::pool`: waiting for a shard worker.
    Pool,
    /// `moa_core::planner`, run by each shard.
    Planner,
    /// The `moa_ir` execution engine on a shard.
    Engine,
    /// Index and session construction.
    Setup,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 6] = [
        Layer::Driver,
        Layer::Service,
        Layer::Pool,
        Layer::Planner,
        Layer::Engine,
        Layer::Setup,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Service => "service",
            Layer::Pool => "pool",
            Layer::Planner => "planner",
            Layer::Engine => "engine",
            Layer::Setup => "setup",
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One arrival, from the moment it was due to its delivery.
    Request,
    /// `ServeSession::enqueue` of the arrival's batch.
    Enqueue,
    /// `ServeSession::collect` of the arrival's batch.
    Collect,
    /// `ServeSession::invalidate_epoch`.
    Invalidate,
    /// The session's k-way merge of the batch (registry `serve.kway_merge_ns`).
    KwayMerge,
    /// The session's delivery of the batch, cache inserts included
    /// (registry `serve.deliver_ns`).
    Deliver,
    /// The rest of `collect`: waiting for the shard workers.
    ShardWait,
    /// Busy time of the batch's earlier queries on the critical shard.
    ColumnWait,
    /// Planning on the critical shard.
    Plan,
    /// Engine gate pass on the critical shard.
    GatePass,
    /// Engine unpruned decode on the critical shard.
    Decode,
    /// Engine pruned scoring on the critical shard.
    Score,
    /// Engine heap extraction on the critical shard.
    Merge,
    /// Shard busy time outside the phases above.
    ShardOther,
    /// One fresh set-up: index plus session.
    Setup,
    /// `InvertedIndex::from_collection`.
    FromCollection,
    /// `ServeSession::new`.
    SessionNew,
    /// `InvertedIndex::shard_by_docs_multi`.
    Partition,
    /// `FragmentedIndex::build` and `build_sparse_index` for every shard.
    Fragment,
    /// `ScoreKernel::new`.
    Kernel,
}

impl Name {
    /// Stable snake_case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Enqueue => "enqueue",
            Name::Collect => "collect",
            Name::Invalidate => "invalidate_epoch",
            Name::KwayMerge => "kway_merge",
            Name::Deliver => "deliver",
            Name::ShardWait => "shard_wait",
            Name::ColumnWait => "column_wait",
            Name::Plan => "plan",
            Name::GatePass => "gate_pass",
            Name::Decode => "decode",
            Name::Score => "score",
            Name::Merge => "merge",
            Name::ShardOther => "shard_other",
            Name::Setup => "setup",
            Name::FromCollection => "from_collection",
            Name::SessionNew => "session_new",
            Name::Partition => "shard_by_docs_multi",
            Name::Fragment => "fragment_build",
            Name::Kernel => "score_kernel_new",
        }
    }

    /// The layer a span's self time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Request => Layer::Driver,
            Name::Enqueue | Name::Collect | Name::Invalidate | Name::KwayMerge | Name::Deliver => {
                Layer::Service
            }
            Name::ShardWait | Name::ColumnWait => Layer::Pool,
            Name::Plan => Layer::Planner,
            Name::GatePass | Name::Decode | Name::Score | Name::Merge | Name::ShardOther => {
                Layer::Engine
            }
            Name::Setup
            | Name::FromCollection
            | Name::SessionNew
            | Name::Partition
            | Name::Fragment
            | Name::Kernel => Layer::Setup,
        }
    }
}

/// When a span ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Start and end, in nanoseconds since the run's origin.
    At(u64, u64),
    /// Only a duration is known.
    Lasting(u64),
}

impl When {
    fn duration(self) -> u64 {
        match self {
            When::At(s, e) => e.saturating_sub(s),
            When::Lasting(d) => d,
        }
    }
}

/// One span. Spans of one tree share `req`; `parent` indexes the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request (or set-up repetition) id shared by the whole tree.
    pub req: u32,
    /// Index of the parent within the same tree; `None` for the root.
    pub parent: Option<u16>,
    /// What the span covers.
    pub name: Name,
    /// When it ran.
    pub when: When,
}

/// Self time of every span of one tree (`tree[i].parent` indexes `tree`).
pub fn self_times(tree: &[Span]) -> Vec<u64> {
    tree.iter()
        .enumerate()
        .map(|(i, span)| {
            let own = span.when.duration();
            let mut lasting = 0u64;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for child in tree.iter().filter(|c| c.parent == Some(i as u16)) {
                match (span.when, child.when) {
                    (When::At(ps, pe), When::At(cs, ce)) => {
                        let (s, e) = (cs.max(ps), ce.min(pe));
                        if s < e {
                            intervals.push((s, e));
                        }
                    }
                    _ => lasting = lasting.saturating_add(child.when.duration()),
                }
            }
            intervals.sort_unstable();
            let mut timed = 0u64;
            let mut reach = 0u64;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    timed += e - s;
                    reach = e;
                }
            }
            own - own.min(timed.saturating_add(lasting))
        })
        .collect()
}

/// The first spans of a run, up to a cap, plus per-layer self-time
/// totals over every tree recorded.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
    self_ns: [u64; Layer::ALL.len()],
    trees: u64,
    recorded: u64,
}

impl SpanLog {
    /// A log that keeps at most `cap` spans (whole trees).
    pub fn with_cap(cap: usize) -> SpanLog {
        SpanLog {
            cap,
            ..SpanLog::default()
        }
    }

    /// Record one complete tree and charge its self times to layers.
    pub fn push_tree(&mut self, tree: &[Span]) {
        for (span, own) in tree.iter().zip(self_times(tree)) {
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == span.name.layer())
                .expect("every layer is listed");
            self.self_ns[slot] = self.self_ns[slot].saturating_add(own);
        }
        let kept_all = self.recorded == self.spans.len() as u64;
        if kept_all && self.spans.len() + tree.len() <= self.cap {
            self.spans.extend_from_slice(tree);
        }
        self.trees += 1;
        self.recorded += tree.len() as u64;
    }

    /// Total self time charged to `layer` (ns).
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let slot = Layer::ALL.iter().position(|&l| l == layer).expect("listed");
        self.self_ns[slot]
    }

    /// `layer`'s share of the self time of every request tree (set-up
    /// excluded).
    pub fn request_share(&self, layer: Layer) -> f64 {
        let total: u64 = Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::Setup)
            .map(|&l| self.self_ns(l))
            .sum();
        crate::stats::ratio(self.self_ns(layer) as f64, total as f64)
    }

    /// Spans recorded, kept or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The self-time table as aligned text.
    pub fn table(&self) -> String {
        let mut out = String::from("layer      self_ms  share_of_requests\n");
        for layer in Layer::ALL {
            let share = if layer == Layer::Setup {
                "-".to_string()
            } else {
                format!("{:.3}", self.request_share(layer))
            };
            let _ = writeln!(
                out,
                "{:<8} {:>9.1}  {share}",
                layer.name(),
                self.self_ns(layer) as f64 / 1e6
            );
        }
        out
    }

    /// Write the kept spans as tab-separated lines, followed by the
    /// self-time table.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} trees, {} spans, the first {} kept; times in ns since the run's origin; '-' marks a duration-only span",
            self.trees,
            self.recorded,
            self.spans.len()
        )?;
        writeln!(out, "req\tspan\tparent\tname\tlayer\tstart\tend\tdur\tself")?;
        let mut start = 0usize;
        while start < self.spans.len() {
            let req = self.spans[start].req;
            let mut end = start + 1;
            while end < self.spans.len() && self.spans[end].parent.is_some() {
                end += 1;
            }
            let tree = &self.spans[start..end];
            for (i, (span, own)) in tree.iter().zip(self_times(tree)).enumerate() {
                let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
                let (s, e) = match span.when {
                    When::At(s, e) => (s.to_string(), e.to_string()),
                    When::Lasting(_) => ("-".to_string(), "-".to_string()),
                };
                writeln!(
                    out,
                    "{req}\t{i}\t{parent}\t{}\t{}\t{s}\t{e}\t{}\t{own}",
                    span.name.as_str(),
                    span.name.layer().name(),
                    span.when.duration(),
                )?;
            }
            start = end;
        }
        for line in self.table().lines() {
            writeln!(out, "# {line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u16>, name: Name, when: When) -> Span {
        Span {
            req: 7,
            parent,
            name,
            when,
        }
    }

    #[test]
    fn nested_timed_children_subtract_their_union() {
        let tree = [
            span(None, Name::Request, When::At(0, 100)),
            span(Some(0), Name::Enqueue, When::At(10, 30)),
            // Overlaps the enqueue: the union 10..50 is covered once.
            span(Some(0), Name::Collect, When::At(20, 50)),
            // Runs past its parent's end: clipped to 45..50.
            span(Some(2), Name::ShardWait, When::At(45, 70)),
        ];
        assert_eq!(self_times(&tree), vec![60, 20, 25, 25]);
    }

    #[test]
    fn duration_only_children_subtract_their_sum_up_to_the_parent() {
        let tree = [
            span(None, Name::Collect, When::At(0, 100)),
            span(Some(0), Name::KwayMerge, When::Lasting(10)),
            span(Some(0), Name::ShardWait, When::Lasting(50)),
            span(Some(2), Name::Plan, When::Lasting(20)),
            // More than the rest of its parent: the parent's self time
            // clips at zero instead of going negative.
            span(Some(2), Name::Score, When::Lasting(40)),
        ];
        assert_eq!(self_times(&tree), vec![40, 10, 0, 20, 40]);
    }

    #[test]
    fn mixed_children_combine_union_and_sum() {
        let tree = [
            span(None, Name::Request, When::At(0, 100)),
            span(Some(0), Name::Enqueue, When::At(0, 30)),
            span(Some(0), Name::KwayMerge, When::Lasting(20)),
        ];
        assert_eq!(self_times(&tree), vec![50, 30, 20]);
    }

    #[test]
    fn log_charges_self_time_to_layers() {
        let mut log = SpanLog::with_cap(3);
        log.push_tree(&[
            span(None, Name::Request, When::At(0, 100)),
            span(Some(0), Name::Collect, When::At(40, 100)),
            span(Some(1), Name::ShardWait, When::Lasting(60)),
            span(Some(2), Name::Score, When::Lasting(45)),
        ]);
        assert_eq!(log.self_ns(Layer::Driver), 40);
        assert_eq!(log.self_ns(Layer::Service), 0);
        assert_eq!(log.self_ns(Layer::Pool), 15);
        assert_eq!(log.self_ns(Layer::Engine), 45);
        assert_eq!(log.request_share(Layer::Engine), 0.45);
        // Over the cap: charged, counted, not kept.
        assert_eq!(log.recorded(), 4);
        assert!(log.spans.is_empty());
    }
}
