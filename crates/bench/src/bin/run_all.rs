//! Runs every table/figure reproduction in paper order by invoking the
//! sibling experiment binaries' logic is impractical across processes, so
//! this simply shells out to each binary when available — or, when run via
//! `cargo run`, prints the instructions.
//!
//! Practically: `cargo run --release -p hbo-bench --bin run_all` executes
//! each experiment binary in-process order using `std::process::Command`
//! against the already-built binaries next to itself.

use std::path::PathBuf;
use std::process::Command;

use hbo_bench::cli;

/// The experiment binaries: the paper's tables/figures in order, then the
/// extension studies (BO ablation, Section VI lookup table, energy).
const EXPERIMENTS: [&str; 14] = [
    "table1",
    "fig2",
    "table2",
    "fig4_table3",
    "fig5_table4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablation_bo",
    "fastpaced_lookup",
    "energy_analysis",
    "finegrained",
    "generalization",
];

fn main() {
    cli::no_args("run_all");
    let me = std::env::current_exe().expect("own path");
    let dir: PathBuf = me.parent().expect("binary directory").to_path_buf();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n########## {name} ##########\n");
        let exe = dir.join(name);
        let status = Command::new(&exe).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!(
                    "could not run {name} ({e}); build it first with \
                     `cargo build --release -p hbo-bench --bins`"
                );
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll {} experiments completed.", EXPERIMENTS.len());
    } else {
        eprintln!("\nFailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
