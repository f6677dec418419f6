//! E15 — the cost-driven physical planner vs best-in-hindsight.
//!
//! The paper's Step 3 proposes one *centralized* cost model that picks the
//! execution strategy. This experiment measures how well the
//! `moa_core::planner` does exactly that: per seeded query it prices every
//! physical alternative, executes the winner, **and** executes every other
//! exact alternative to establish the best-in-hindsight strategy by
//! postings scanned. The planner's pick is a *match* when its measured
//! work equals the hindsight optimum; the regression column shows how much
//! work the planner's choices cost over an oracle that always knew best.
//!
//! Executions feed their measured [`ExecReport`] counters back into the
//! planner (calibration), so the match rate reflects the closed loop the
//! architecture ships with.
//!
//! Besides the rendered table, the run emits `BENCH_planner.json` and
//! *enforces* the acceptance gate: ≥ 80% match rate per query mix and
//! ≤ 20% postings-scanned regression vs best-in-hindsight — a CI failure
//! otherwise.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_core::Planner;
use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::{
    EngineSet, ExecReport, FragmentSpec, FragmentedIndex, InvertedIndex, PhysicalPlan,
    RankingModel, SwitchPolicy,
};

use crate::harness::record::{self, fixed, Value};
use crate::harness::{Scale, Table};

/// Ranking depth (the paper's first-screen regime, where strategies differ
/// most).
const TOP_N: usize = 10;

/// Acceptance gate: minimum fraction of queries whose planner pick matches
/// the best-in-hindsight postings-scanned.
const MIN_MATCH_RATE: f64 = 0.8;

/// Acceptance gate: maximum total postings-scanned regression of the
/// planner's picks vs best-in-hindsight.
const MAX_REGRESSION: f64 = 0.2;

/// Outcome of one query mix.
pub struct MixResult {
    /// Query-mix label.
    pub mix: &'static str,
    /// Queries measured.
    pub queries: usize,
    /// Queries where the pick's measured postings equal the hindsight
    /// optimum.
    pub matches: usize,
    /// Total postings scanned by the planner's picks.
    pub chosen_postings: usize,
    /// Total postings scanned by the per-query best-in-hindsight plans.
    pub best_postings: usize,
    /// Histogram of chosen operators.
    pub picks: BTreeMap<&'static str, usize>,
    /// Total wall time spent executing the planner's picks.
    pub chosen_wall: Duration,
    /// Total execution wall time per strategy over the whole mix (every
    /// exact, feasible alternative runs for the hindsight oracle, so the
    /// bench trajectory tracks latency alongside the postings counters).
    pub strategy_wall: BTreeMap<&'static str, Duration>,
    /// The calibrated pruned-DAAT weight after the mix's workload.
    pub calibrated_prune: f64,
}

impl MixResult {
    /// Fraction of queries whose pick matched best-in-hindsight.
    pub fn match_rate(&self) -> f64 {
        self.matches as f64 / self.queries.max(1) as f64
    }

    /// Relative extra work of the picks vs best-in-hindsight (0.0 = none).
    pub fn regression(&self) -> f64 {
        self.chosen_postings as f64 / self.best_postings.max(1) as f64 - 1.0
    }
}

fn query_mixes() -> Vec<(&'static str, DfBias)> {
    vec![
        ("topical", DfBias::Topical { high_df_mix: 0.5 }),
        ("trec_like", DfBias::TrecLike { high_df_mix: 0.5 }),
        ("frequent_only", DfBias::FrequentOnly),
    ]
}

/// Run the measurement matrix over every query mix.
pub fn measure(scale: Scale) -> Vec<MixResult> {
    let config = match scale {
        Scale::Quick => CollectionConfig::small(),
        Scale::Full => CollectionConfig::ft_scale(),
    };
    let collection = Collection::generate(config).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let mut frag = FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.95))
        .expect("non-empty collection");
    frag.fragment_a_mut()
        .build_sparse_index(1024)
        .expect("sorted");
    frag.fragment_b_mut()
        .build_sparse_index(1024)
        .expect("sorted");
    let frag = Arc::new(frag);
    let model = RankingModel::default();
    let policy = SwitchPolicy::default();
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
                seed: 0xE15,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload config");

        let mut planner = Planner::default();
        let mut engines = EngineSet::new(Arc::clone(&frag), model, policy);
        // Warm the engine set's lazily built ScoreBounds tables (shared
        // by the pruned-DAAT and fragmented paths) before any timed
        // window: the one-time build must not be billed to whichever
        // strategy happens to run first.
        let _ = engines
            .execute(PhysicalPlan::PrunedDaat, &queries[0].terms, TOP_N)
            .expect("valid query");
        let mut matches = 0usize;
        let mut chosen_postings = 0usize;
        let mut best_postings = 0usize;
        let mut picks: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut chosen_wall = Duration::ZERO;
        let mut strategy_wall: BTreeMap<&'static str, Duration> = BTreeMap::new();

        for q in &queries {
            let decision = planner
                .plan(&q.terms, TOP_N, &frag, model, policy)
                .expect("valid query");

            // Execute every exact, feasible alternative: the hindsight
            // oracle. All of them must return the identical top-N — the
            // planner may only ever trade work, never answers.
            let mut measured: Vec<(PhysicalPlan, ExecReport)> = Vec::new();
            for alt in &decision.alternatives {
                if alt.exact && alt.feasible {
                    let t0 = Instant::now();
                    let rep = engines
                        .execute(alt.plan, &q.terms, TOP_N)
                        .expect("valid query");
                    let wall = t0.elapsed();
                    *strategy_wall
                        .entry(alt.plan.name())
                        .or_insert(Duration::ZERO) += wall;
                    if alt.plan == decision.chosen {
                        chosen_wall += wall;
                    }
                    measured.push((alt.plan, rep));
                }
            }
            for w in measured.windows(2) {
                assert_eq!(
                    w[0].1.top,
                    w[1].1.top,
                    "{mix_label}: exact plans disagree ({} vs {}) on {:?}",
                    w[0].0.name(),
                    w[1].0.name(),
                    q.terms
                );
            }

            let chosen = measured
                .iter()
                .find(|(p, _)| *p == decision.chosen)
                .expect("chosen plan is exact and feasible in exact mode");
            let best = measured
                .iter()
                .map(|(_, r)| r.postings_scanned)
                .min()
                .expect("at least one exact plan");
            chosen_postings += chosen.1.postings_scanned;
            best_postings += best;
            if chosen.1.postings_scanned == best {
                matches += 1;
            }
            *picks.entry(decision.chosen.name()).or_insert(0) += 1;

            // Close the loop: calibrate from the executed pick.
            planner.observe(decision.chosen, &decision.profile, &chosen.1);
        }

        results.push(MixResult {
            mix: mix_label,
            queries: queries.len(),
            matches,
            chosen_postings,
            best_postings,
            picks,
            chosen_wall,
            strategy_wall,
            calibrated_prune: planner.model.weights.daat_prune,
        });
    }
    results
}

/// The `BENCH_planner.json` document of the per-mix results.
pub fn document(scale: Scale, results: &[MixResult]) -> Value {
    let mixes = results.iter().map(|r| {
        let walls = r
            .strategy_wall
            .iter()
            .map(|(name, wall)| ((*name).to_owned(), Value::from(wall.as_micros())));
        let picks = r
            .picks
            .iter()
            .map(|(name, count)| ((*name).to_owned(), Value::from(*count)));
        Value::obj()
            .with("mix", r.mix)
            .with("queries", r.queries)
            .with("matches", r.matches)
            .with("match_rate", fixed(r.match_rate(), 3))
            .with("chosen_postings", r.chosen_postings)
            .with("best_postings", r.best_postings)
            .with("regression", fixed(r.regression(), 4))
            .with("calibrated_prune", fixed(r.calibrated_prune, 4))
            .with("chosen_wall_us", r.chosen_wall.as_micros())
            .with("strategy_wall_us", Value::Obj(walls.collect()))
            .with("picks", Value::Obj(picks.collect()))
    });
    record::header("e15", Some(scale))
        .with("top_n", TOP_N)
        .with("mixes", mixes.collect::<Value>())
}

/// Run E15, emit `BENCH_planner.json`, and enforce the acceptance gate.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    let json_path = record::write("BENCH_planner.json", &document(scale, &results));

    let mut t = Table::new(
        "E15: cost-driven planner pick vs best-in-hindsight (postings scanned)",
        &[
            "query mix",
            "queries",
            "match rate",
            "postings (planner)",
            "postings (hindsight)",
            "regression",
            "wall (planner)",
            "picks",
        ],
    );
    for r in &results {
        let picks: Vec<String> = r
            .picks
            .iter()
            .map(|(name, count)| format!("{name}x{count}"))
            .collect();
        t.row(vec![
            r.mix.into(),
            r.queries.to_string(),
            format!("{:.0}%", r.match_rate() * 100.0),
            r.chosen_postings.to_string(),
            r.best_postings.to_string(),
            format!("{:+.1}%", r.regression() * 100.0),
            crate::harness::fmt_duration(r.chosen_wall),
            picks.join(" "),
        ]);
    }
    t.note(format!(
        "gate: match rate >= {:.0}% and regression <= {:.0}% per mix (enforced: the run fails otherwise)",
        MIN_MATCH_RATE * 100.0,
        MAX_REGRESSION * 100.0
    ));
    t.note("every exact alternative executed per query; all verified to return the identical top-N before work is compared");
    t.note("per-strategy execution wall time recorded alongside the postings counters (strategy_wall_us in the JSON)");
    t.note(format!("machine-readable copy written to {json_path}"));

    // The acceptance gate doubles as the CI regression check.
    for r in &results {
        assert!(
            r.match_rate() >= MIN_MATCH_RATE,
            "e15 gate: {} match rate {:.2} below {MIN_MATCH_RATE}",
            r.mix,
            r.match_rate()
        );
        assert!(
            r.regression() <= MAX_REGRESSION,
            "e15 gate: {} regression {:.2} above {MAX_REGRESSION}",
            r.mix,
            r.regression()
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One Quick measurement, shared by the tests below.
    fn quick() -> &'static [MixResult] {
        static RESULTS: OnceLock<Vec<MixResult>> = OnceLock::new();
        RESULTS.get_or_init(|| measure(Scale::Quick))
    }

    #[test]
    fn e15_planner_matches_best_in_hindsight() {
        let results = quick();
        assert_eq!(results.len(), 3, "three query mixes");
        for r in results {
            assert!(
                r.match_rate() >= MIN_MATCH_RATE,
                "{}: match rate {:.2} below the {MIN_MATCH_RATE} acceptance bar",
                r.mix,
                r.match_rate()
            );
            assert!(
                r.regression() <= MAX_REGRESSION,
                "{}: planner regressed {:.1}% postings-scanned vs best-in-hindsight",
                r.mix,
                r.regression() * 100.0
            );
            assert!(r.chosen_postings >= r.best_postings);
            assert!(!r.picks.is_empty());
        }
    }

    #[test]
    fn e15_json_is_well_formed() {
        let results = quick();
        let json = document(Scale::Quick, results).render();
        assert!(json.contains("\"experiment\": \"e15\""));
        assert_eq!(json.matches("{\"mix\"").count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
