//! The experiment driver: regenerates every paper claim's table.
//!
//! ```text
//! experiments <e1|e2|...|e21|all> [--full] [--csv]
//! ```
//!
//! `--full` runs at FT scale (tens of seconds per experiment); the default
//! quick scale finishes in seconds. `--csv` emits machine-readable output.

use std::io::Write;

use moa_bench::experiments;
use moa_bench::harness::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut full = false;
    let mut csv = false;
    for a in &args {
        match a.as_str() {
            "--full" => full = true,
            "--csv" => csv = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if !other.starts_with('-') => id = Some(other.to_owned()),
            other => {
                eprintln!("unknown flag: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(id) = id else {
        print_usage();
        std::process::exit(2);
    };

    let scale = Scale::from_full_flag(full);
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    writeln!(
        lock,
        "# Moa top-N reproduction — experiment {id} at {scale:?} scale"
    )
    .expect("stdout");
    for table in experiments::run(&id, scale) {
        let text = if csv { table.to_csv() } else { table.render() };
        writeln!(lock, "{text}").expect("stdout");
    }
}

fn print_usage() {
    eprintln!("usage: experiments <e1|e2|...|e21|all> [--full] [--csv]");
    eprintln!();
    eprintln!("  e1   unsafe fragmentation speed/quality trade-off   (paper §3 step 1)");
    eprintln!("  e2   safe switching with the early quality check    (paper §3 step 1)");
    eprintln!("  e3   non-dense index on the large fragment          (paper §3 step 1)");
    eprintln!("  e4   inter-object rewrite of Example 1              (paper §3 step 2)");
    eprintln!("  e5   FA/TA/NRA bound administration                 (paper §2)");
    eprintln!("  e6   STOP AFTER braking distance [CK98]             (paper §2)");
    eprintln!("  e7   probabilistic top-N [DR99]                     (paper §2)");
    eprintln!("  e8   cost model accuracy                            (paper §3 step 3)");
    eprintln!("  e9   Zipf premise / fragment geometry               (paper §1, §3)");
    eprintln!("  e10  fragment volume-budget sweep                   (paper §3 step 1)");
    eprintln!("  e11  switch-policy threshold sweep                   (ablation)");
    eprintln!("  e12  ranking-model sensitivity                       (ablation)");
    eprintln!("  e13  set-based vs element-at-a-time                  (paper §3 step 1)");
    eprintln!("  e14  bounds-pruned DAAT (MaxScore) vs exhaustive     (paper §2/§3)");
    eprintln!("  e15  cost-driven planner vs best-in-hindsight        (paper §3 step 3)");
    eprintln!("  e16  sharded serving scaling + threshold propagation  (serving layer)");
    eprintln!("  e17  block-compressed posting storage: decode + walls  (storage layer)");
    eprintln!("  e18  sustained-load serving: pool vs sequential (serving layer)");
    eprintln!("  e19  overload shedding, deadlines, worker fault storm    (serving layer)");
    eprintln!("  e20  telemetry overhead: instrumented vs uninstrumented  (observability)");
    eprintln!("  e21  cross-batch result cache + plan memo under Zipf load (serving layer)");
}
