//! Experiment implementations E1–E10.
//!
//! | id  | paper anchor                                                | module |
//! |-----|-------------------------------------------------------------|--------|
//! | E1  | §3 Step 1: 5%-fragment speedup ≥60%, quality drop >30%      | [`e1`] |
//! | E2  | §3 Step 1: early check + switch restores quality            | [`e2`] |
//! | E3  | §3 Step 1: non-dense index on the large fragment            | [`e3`] |
//! | E4  | §3 Step 2, Example 1: inter-object rewrite                  | [`e4`] |
//! | E5  | §2: FA/TA/NRA bound administration vs naive                 | [`e5`] |
//! | E6  | §2 \[CK98\]: STOP AFTER policies and braking distance         | [`e6`] |
//! | E7  | §2 \[DR99\]: probabilistic top-N confidence sweep             | [`e7`] |
//! | E8  | §3 Step 3: cost-model accuracy and plan choice              | [`e8`] |
//! | E9  | §1/§3: Zipf premise and fragment geometry                   | [`e9`] |
//! | E10 | §3 Step 1 design space: fragment volume sweep               | [`e10`]|
//! | E11 | ablation: switch-policy threshold sweep                     | [`e11`]|
//! | E12 | ablation: ranking-model sensitivity                         | [`e12`]|
//! | E13 | §3 Step 1: set-based vs element-at-a-time architectures     | [`e13`]|
//! | E14 | §2/§3: bounds-pruned DAAT (MaxScore) vs exhaustive merge    | [`e14`]|
//! | E15 | §3 Step 3: cost-driven planner vs best-in-hindsight         | [`e15`]|
//! | E16 | serving: sharded scaling + cross-shard threshold propagation| [`e16`]|
//! | E17 | storage: block-compressed postings — decode + wall time     | [`e17`]|
//! | E18 | serving: sustained-load qps/latency, pool vs sequential     | [`e18`]|
//! | E19 | serving: overload shedding, deadlines, worker fault storm   | [`e19`]|
//! | E20 | observability: telemetry overhead, instrumented vs not      | [`e20`]|
//! | E21 | serving: cross-batch result cache + plan memo under Zipf    | [`e21`]|

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e2;
pub mod e20;
pub mod e21;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod fixture;

use crate::harness::{Scale, Table};

/// Run one experiment by id ("e1" … "e20"), or all of them.
pub fn run(id: &str, scale: Scale) -> Vec<Table> {
    match id {
        "e1" => vec![e1::run(scale)],
        "e2" => vec![e2::run(scale)],
        "e3" => vec![e3::run(scale)],
        "e4" => vec![e4::run(scale)],
        "e5" => vec![e5::run(scale)],
        "e6" => vec![e6::run(scale)],
        "e7" => vec![e7::run(scale)],
        "e8" => vec![e8::run(scale)],
        "e9" => vec![e9::run(scale)],
        "e10" => vec![e10::run(scale)],
        "e11" => vec![e11::run(scale)],
        "e12" => vec![e12::run(scale)],
        "e13" => vec![e13::run(scale)],
        "e14" => vec![e14::run(scale)],
        "e15" => vec![e15::run(scale)],
        "e16" => vec![e16::run(scale)],
        "e17" => vec![e17::run(scale)],
        "e18" => vec![e18::run(scale)],
        "e19" => vec![e19::run(scale)],
        "e20" => vec![e20::run(scale)],
        "e21" => vec![e21::run(scale)],
        "all" => {
            let ids = [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
                "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e21",
            ];
            ids.iter().flat_map(|i| run(i, scale)).collect()
        }
        other => vec![{
            let mut t = Table::new("unknown experiment", &["id"]);
            t.row(vec![other.to_owned()]);
            t.note("known ids: e1..e21, all");
            t
        }],
    }
}
