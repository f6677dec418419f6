//! E14 — bounds-pruned DAAT (MaxScore) vs the exhaustive cursor merge.
//!
//! The paper's whole program is *doing less than the full scan while
//! keeping top-N answers exact*. E13 established the element-at-a-time
//! work baseline; this experiment measures how much of even *that* work
//! the score-upper-bound machinery removes when it drives the hot loop
//! itself: per-term exact contribution bounds partition the query into
//! essential and non-essential cursors, non-essential cursors are only
//! `seek`-ed (galloping skip), and documents whose partial score plus
//! remaining bound cannot enter the heap are abandoned early.
//!
//! Every configuration is checked for bit-exactness against the
//! exhaustive merge before being timed — the speedup is never allowed to
//! cost a single rank.
//!
//! Besides the rendered table, the run emits machine-readable
//! `BENCH_daat.json` (postings scanned, seeks, bound exits, wall time per
//! configuration) so the perf trajectory of the query kernel is tracked
//! from this PR on.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::{
    BoundGate, DaatSearcher, ExecReport, ExhaustiveDaatOp, InvertedIndex, PrunedDaatOp,
    QueryScratch, RankingModel, RetrievalOp, ScoreKernel,
};
use moa_topn::TopNHeap;

use crate::harness::{fmt_duration, time_best_interleaved, Scale, Table};

/// Ranking depth: the paper's canonical "first screen of hits" regime,
/// where bounds-pruning has the most room.
const TOP_N: usize = 10;

/// One measured (query mix × ranking model) configuration. Work totals
/// are aggregated [`ExecReport`]s from the unified physical operators —
/// no per-field counter copying.
pub struct CaseResult {
    /// Query-mix label (`topical`, `trec_like`, `frequent_only`).
    pub mix: &'static str,
    /// Ranking-model label (`tfidf`, `hiemstra`, `bm25`).
    pub model: &'static str,
    /// Aggregated unified counters of the exhaustive cursor merge.
    pub exhaustive: ExecReport,
    /// Aggregated unified counters of the pruned kernel.
    pub pruned: ExecReport,
    /// Batch wall time of the seed's merge (per-posting `term_weight`
    /// recomputation — the baseline the query kernel replaced).
    pub wall_naive: std::time::Duration,
    /// Batch wall time of the exhaustive merge on the precomputed kernel.
    pub wall_exhaustive: std::time::Duration,
    /// Batch wall time of the pruned kernel.
    pub wall_pruned: std::time::Duration,
}

impl CaseResult {
    /// Postings-scanned reduction factor (exhaustive / pruned).
    pub fn scan_reduction(&self) -> f64 {
        self.exhaustive.postings_scanned as f64 / self.pruned.postings_scanned.max(1) as f64
    }

    /// Wall-time speedup of the pruned kernel over the seed baseline.
    pub fn time_speedup_vs_naive(&self) -> f64 {
        self.wall_naive.as_secs_f64() / self.wall_pruned.as_secs_f64().max(1e-12)
    }

    /// Pruned wall time over exhaustive wall time. Above 1.0 the bound
    /// machinery costs more than the postings it saves — the anomaly this
    /// PR's block layout exists to fix. Gated ≤ [`PRUNE_OVERHEAD_GATE`]
    /// on the trec_like mixes by [`run`].
    pub fn prune_overhead_ratio(&self) -> f64 {
        self.wall_pruned.as_secs_f64() / self.wall_exhaustive.as_secs_f64().max(1e-12)
    }
}

/// Acceptance gate at Quick scale (the committed-benchmark and CI
/// regime): on the trec_like mixes the pruned kernel may cost at most
/// this fraction of the exhaustive merge's wall time — i.e. pruning must
/// not be slower than not pruning (5% measurement slack). The df-weighted
/// high-band query draw keeps this honest at every scale: "frequent" term
/// slots actually land on long posting runs, which is where the bound
/// machinery either pays for itself or doesn't.
pub const PRUNE_OVERHEAD_GATE: f64 = 1.05;

/// Regression ceiling at Full (FT) scale. Long posting runs used to make
/// the single-level 128-posting block maxima approach the per-term
/// maxima (any 128-posting window of a frequent term tends to contain an
/// outlier), so the candidate gates fired less and the pruned path paid
/// its bound bookkeeping without the matching savings — the old 1.6
/// ceiling only bounded the damage. The 4-bit mini-block refinement
/// closed that gap: the 16-entry maxima stay discriminating on exactly
/// those runs (measured ratios sit at 0.28–0.37 on trec_like), so Full
/// now holds the same must-not-cost-more-than-it-saves line as Quick.
pub const PRUNE_OVERHEAD_GATE_FULL: f64 = 1.05;

/// Flat posting runs, pre-decoded once per configuration so the naive
/// baseline below measures the *seed's* flat-array architecture (its
/// storage never paid a decode) rather than charging it this PR's block
/// decode.
pub type FlatRuns = HashMap<u32, (Vec<u32>, Vec<u32>)>;

/// Decode every distinct query term's run into flat arrays (untimed).
pub fn decode_flat_runs(index: &InvertedIndex, queries: &[Query]) -> FlatRuns {
    let mut runs = FlatRuns::new();
    for q in queries {
        for &t in &q.terms {
            runs.entry(t)
                .or_insert_with(|| index.decode_postings(t).expect("valid term"));
        }
    }
    runs
}

/// The seed's document-at-a-time evaluator, reproduced verbatim in shape:
/// a plain merge over flat posting arrays that re-derives every model
/// constant and the length norm per posting via
/// [`RankingModel::term_weight`]. This is the wall-clock baseline the
/// precomputed-scorer kernel and the pruned path are measured against.
pub fn naive_exhaustive_daat(
    index: &InvertedIndex,
    runs: &FlatRuns,
    model: RankingModel,
    terms: &[u32],
    n: usize,
) -> Vec<(u32, f64)> {
    let stats = index.stats();
    struct Cursor<'p> {
        docs: &'p [u32],
        tfs: &'p [u32],
        pos: usize,
        df: u32,
        cf: u64,
    }
    let mut cursors: Vec<Cursor> = terms
        .iter()
        .map(|&t| {
            let (docs, tfs) = &runs[&t];
            Cursor {
                docs,
                tfs,
                pos: 0,
                df: index.df(t).expect("valid term"),
                cf: index.cf(t).expect("valid term"),
            }
        })
        .collect();
    let mut heap = TopNHeap::new(n);
    loop {
        let mut next_doc = u32::MAX;
        for c in &cursors {
            if c.pos < c.docs.len() {
                next_doc = next_doc.min(c.docs[c.pos]);
            }
        }
        if next_doc == u32::MAX {
            break;
        }
        let mut score = 0.0f64;
        for c in &mut cursors {
            if c.pos < c.docs.len() && c.docs[c.pos] == next_doc {
                score +=
                    model.term_weight(c.tfs[c.pos], c.df, c.cf, index.doc_len(next_doc), &stats);
                c.pos += 1;
            }
        }
        heap.push(next_doc, score);
    }
    heap.into_sorted_vec()
}

/// The query mixes E14 (and E17) measure across.
pub fn query_mixes() -> Vec<(&'static str, DfBias)> {
    vec![
        ("topical", DfBias::Topical { high_df_mix: 0.5 }),
        ("trec_like", DfBias::TrecLike { high_df_mix: 0.5 }),
        ("frequent_only", DfBias::FrequentOnly),
    ]
}

/// The ranking models E14 (and E17) measure across.
pub fn ranking_models() -> Vec<(&'static str, RankingModel)> {
    vec![
        ("tfidf", RankingModel::TfIdf),
        ("hiemstra", RankingModel::HiemstraLm { lambda: 0.15 }),
        ("bm25", RankingModel::Bm25 { k1: 1.2, b: 0.75 }),
    ]
}

/// Run the measurement matrix: every query mix × every ranking model,
/// exhaustive vs pruned, with exactness asserted per query.
pub fn measure(scale: Scale) -> Vec<CaseResult> {
    let config = match scale {
        Scale::Quick => CollectionConfig::small(),
        Scale::Full => CollectionConfig::ft_scale(),
    };
    let collection = Collection::generate(config).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let num_queries = match scale {
        Scale::Quick => 30,
        Scale::Full => 50,
    };

    let mut results = Vec::new();
    for (mix_label, bias) in query_mixes() {
        let queries: Vec<Query> = generate_queries(
            &collection,
            &QueryConfig {
                num_queries,
                bias,
                seed: 0xE14,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload config");

        for (model_label, model) in ranking_models() {
            // One kernel and one (lazily built) bound-table set per
            // (index, model), shared by every searcher view — the sharing
            // the physical layer's `with_shared` constructors exist for.
            let kernel = Arc::new(ScoreKernel::new(model, &index));
            let bounds = Arc::new(OnceLock::new());
            let daat = DaatSearcher::with_shared(&index, Arc::clone(&kernel), Arc::clone(&bounds));
            let mut pruned_op = PrunedDaatOp(DaatSearcher::with_shared(
                &index,
                Arc::clone(&kernel),
                Arc::clone(&bounds),
            ));
            let mut exhaustive_op = ExhaustiveDaatOp(DaatSearcher::with_shared(
                &index,
                Arc::clone(&kernel),
                Arc::clone(&bounds),
            ));

            // Flat runs for the seed baseline, decoded outside the timed
            // region: the seed's storage was flat, so its merge never paid
            // a block decode.
            let runs = decode_flat_runs(&index, &queries);

            // Exactness first: the pruned kernel must reproduce the
            // exhaustive merge — and the seed's naive merge — bit-for-bit
            // on every query before its speed means anything. The same
            // pass aggregates the (deterministic) unified counters.
            let mut pruned_total = ExecReport::default();
            let mut exhaustive_total = ExecReport::default();
            for q in &queries {
                let pruned = pruned_op.execute(&q.terms, TOP_N).expect("valid query");
                let full = exhaustive_op.execute(&q.terms, TOP_N).expect("valid query");
                assert_eq!(
                    pruned.top, full.top,
                    "pruned DAAT diverged ({mix_label}, {model_label}, {:?})",
                    q.terms
                );
                let naive = naive_exhaustive_daat(&index, &runs, model, &q.terms, TOP_N);
                assert_eq!(
                    pruned.top, naive,
                    "pruned DAAT diverged from seed baseline ({mix_label}, {model_label}, {:?})",
                    q.terms
                );
                pruned_total.absorb(&pruned);
                exhaustive_total.absorb(&full);
            }

            // Interleaved best-of-11 batch wall times: each round times
            // naive, exhaustive, and pruned back to back, and each path
            // keeps its fastest round — robust against drift on a shared
            // host. The kernel paths run through reused QueryScratches —
            // the steady-state (zero-allocation) serving configuration.
            let gate = BoundGate::none();
            let mut scratch_ex = QueryScratch::new();
            let mut scratch_pr = QueryScratch::new();
            let mut run_naive = || {
                for q in &queries {
                    std::hint::black_box(naive_exhaustive_daat(
                        &index, &runs, model, &q.terms, TOP_N,
                    ));
                }
            };
            let mut run_exhaustive = || {
                for q in &queries {
                    let _ = std::hint::black_box(
                        daat.search_exhaustive_into(&q.terms, TOP_N, &mut scratch_ex)
                            .expect("valid query"),
                    );
                }
            };
            let mut run_pruned = || {
                for q in &queries {
                    let _ = std::hint::black_box(
                        daat.search_into(&q.terms, TOP_N, &gate, &mut scratch_pr)
                            .expect("valid query"),
                    );
                }
            };
            let walls = time_best_interleaved(
                11,
                &mut [&mut run_naive, &mut run_exhaustive, &mut run_pruned],
            );
            let (wall_naive, wall_exhaustive, wall_pruned) = (walls[0], walls[1], walls[2]);

            results.push(CaseResult {
                mix: mix_label,
                model: model_label,
                exhaustive: exhaustive_total,
                pruned: pruned_total,
                wall_naive,
                wall_exhaustive,
                wall_pruned,
            });
        }
    }
    results
}

/// Render the measurement matrix as machine-readable JSON.
pub fn to_json(scale: Scale, results: &[CaseResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"e14\",");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(out, "  \"top_n\": {TOP_N},");
    let _ = writeln!(out, "  \"cases\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mix\": \"{}\", \"model\": \"{}\", \
             \"postings_exhaustive\": {}, \"postings_pruned\": {}, \
             \"docs_skipped\": {}, \"seeks\": {}, \"bound_exits\": {}, \
             \"scan_reduction\": {:.3}, \"time_speedup_vs_naive\": {:.3}, \
             \"prune_overhead_ratio\": {:.3}, \
             \"wall_ns_naive\": {}, \"wall_ns_exhaustive\": {}, \"wall_ns_pruned\": {}}}{comma}",
            r.mix,
            r.model,
            r.exhaustive.postings_scanned,
            r.pruned.postings_scanned,
            r.pruned.docs_skipped,
            r.pruned.seeks,
            r.pruned.bound_exits,
            r.scan_reduction(),
            r.time_speedup_vs_naive(),
            r.prune_overhead_ratio(),
            r.wall_naive.as_nanos(),
            r.wall_exhaustive.as_nanos(),
            r.wall_pruned.as_nanos(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Enforce the trec_like prune-overhead gate at the scale-appropriate
/// ceiling, returning the ceiling applied. Shared by E14 and E17 (the
/// storage experiment gates the same invariant on its own measurement)
/// so the gate logic lives in exactly one place.
pub fn assert_prune_overhead_gate(results: &[CaseResult], scale: Scale) -> f64 {
    let ceiling = match scale {
        Scale::Quick => PRUNE_OVERHEAD_GATE,
        Scale::Full => PRUNE_OVERHEAD_GATE_FULL,
    };
    for r in results {
        if r.mix == "trec_like" {
            assert!(
                r.prune_overhead_ratio() <= ceiling,
                "prune overhead gate: {} / {} at {:.3} > {ceiling}",
                r.mix,
                r.model,
                r.prune_overhead_ratio()
            );
        }
    }
    ceiling
}

/// Run E14, emit `BENCH_daat.json` next to the working directory, and
/// enforce the prune-overhead gate: on the trec_like mixes the pruned
/// kernel must not be slower than the exhaustive merge (the e14 anomaly
/// the block layout fixed — several mixes used to come in above 1.0).
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    // Write the artifact before gating so a gate failure still leaves the
    // measured rows on disk for inspection.
    let json = to_json(scale, &results);
    let json_path =
        std::env::var("MOA_BENCH_DAAT_JSON").unwrap_or_else(|_| "BENCH_daat.json".to_owned());
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("e14: could not write {json_path}: {e}");
    }

    let gate_ceiling = assert_prune_overhead_gate(&results, scale);

    let mut t = Table::new(
        "E14: bounds-pruned DAAT (MaxScore) vs exhaustive cursor merge",
        &[
            "query mix",
            "model",
            "postings (exhaustive)",
            "postings (pruned)",
            "reduction",
            "seeks",
            "bound exits",
            "time (seed naive)",
            "time (exhaustive)",
            "time (pruned)",
            "prune/exhaustive",
        ],
    );
    for r in &results {
        t.row(vec![
            r.mix.into(),
            r.model.into(),
            r.exhaustive.postings_scanned.to_string(),
            r.pruned.postings_scanned.to_string(),
            format!("{:.2}x", r.scan_reduction()),
            r.pruned.seeks.to_string(),
            r.pruned.bound_exits.to_string(),
            fmt_duration(r.wall_naive),
            fmt_duration(r.wall_exhaustive),
            fmt_duration(r.wall_pruned),
            format!("{:.3}", r.prune_overhead_ratio()),
        ]);
    }
    let worst = results
        .iter()
        .map(CaseResult::scan_reduction)
        .fold(f64::INFINITY, f64::min);
    let best = results
        .iter()
        .map(CaseResult::scan_reduction)
        .fold(0.0f64, f64::max);
    let worst_speedup = results
        .iter()
        .map(CaseResult::time_speedup_vs_naive)
        .fold(f64::INFINITY, f64::min);
    t.note(format!(
        "postings-scanned reduction spans {worst:.2}x–{best:.2}x; every configuration verified bit-exact against both the kernel exhaustive merge and the seed's naive merge before timing"
    ));
    t.note(format!(
        "wall-time speedup vs the seed's per-posting-term_weight merge is >= {worst_speedup:.2}x; the kernel exhaustive column isolates how much of that the precomputed scorers alone deliver"
    ));
    let worst_ratio = results
        .iter()
        .filter(|r| r.mix == "trec_like")
        .map(CaseResult::prune_overhead_ratio)
        .fold(0.0f64, f64::max);
    t.note(format!(
        "prune-overhead gate: pruned/exhaustive wall ratio on trec_like peaks at {worst_ratio:.3} (ceiling {gate_ceiling}) — pruning must not cost more than it saves"
    ));
    t.note(format!("machine-readable copy written to {json_path}"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One Quick measurement, shared by the tests below.
    fn quick() -> &'static [CaseResult] {
        static RESULTS: OnceLock<Vec<CaseResult>> = OnceLock::new();
        RESULTS.get_or_init(|| measure(Scale::Quick))
    }

    #[test]
    fn e14_pruning_is_exact_and_effective() {
        // `measure` itself asserts bit-exactness per query; here we gate
        // the acceptance claim: >= 2x postings-scanned reduction on the
        // TrecLike mix and >= 1.9x on Topical at N = 10. (The topical bar
        // moved from 2.0 with the block layout: candidate bounds now live
        // at the 128-posting storage-block granularity — one bound per
        // physical block instead of the old 8/64 side tables — which
        // costs a few percent of scan reduction on the densest mix and
        // buys the colocated one-load skip decision that fixed the
        // pruned-slower-than-exhaustive wall-time anomaly.)
        let results = quick();
        assert_eq!(results.len(), 9, "3 mixes x 3 models");
        for r in results {
            assert_eq!(
                r.pruned.postings_scanned + r.pruned.docs_skipped,
                r.exhaustive.postings_scanned,
                "work ledger must balance ({}, {})",
                r.mix,
                r.model
            );
            let bar = match r.mix {
                "trec_like" => 2.0,
                "topical" => 1.9,
                _ => 0.0,
            };
            if bar > 0.0 {
                assert!(
                    r.scan_reduction() >= bar,
                    "{} / {}: reduction {:.2}x below the {bar}x acceptance bar",
                    r.mix,
                    r.model,
                    r.scan_reduction()
                );
            }
        }
    }

    #[test]
    fn e14_json_is_well_formed() {
        let results = quick();
        let json = to_json(Scale::Quick, results);
        assert!(json.contains("\"experiment\": \"e14\""));
        assert_eq!(json.matches("{\"mix\"").count(), results.len());
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
