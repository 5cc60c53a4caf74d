//! Edge-offload sweep: client count × uplink bandwidth, three systems per
//! cell (local-only, edge-only, HBO-joint with Edge in the decision
//! space).
//!
//! ```text
//! edge_offload [--smoke] [--seed N] [--threads T] [--trace PATH]
//! ```
//!
//! Emits one JSON line per `(cell, system)` row plus the runner report.
//! Cells run on the deterministic parallel runner: each cell's seed
//! derives from `(--seed, cell index)`, so the row set is bit-identical
//! for any `--threads` setting and across runs.
//!
//! With `--trace PATH` every cell's HBO activation records a span/counter
//! trace (one Chrome `pid` per cell, in cell order) written to `PATH` as
//! Chrome trace-event JSON; the emitted rows stay byte-identical, and the
//! runner report gains the merged telemetry totals across cells.

use hbo_bench::{cli, harness};
use hbo_core::HboConfig;
use marsim::edge::sweep_cell;
use marsim::runner::{job_seed, Observations};
use marsim::{ScenarioSpec, TelemetrySummary};

const USAGE: &str = "edge_offload [--smoke] [--seed N] [--threads T] [--trace PATH]";

fn main() {
    let mut args = cli::Args::from_env(USAGE);
    let smoke = args.switch("--smoke");
    let seed = args.value("--seed").unwrap_or(2024);
    let threads = args.threads();
    let outputs = cli::Outputs {
        trace: args.value("--trace"),
        ..cli::Outputs::default()
    };
    args.finish();

    // SC1 is the heavy scene (decimation matters), CF2 keeps the taskset
    // small enough that every cell runs a full activation quickly.
    let base = ScenarioSpec::sc1_cf2();
    let config = if smoke {
        HboConfig {
            n_initial: 2,
            iterations: 3,
            ..HboConfig::default()
        }
    } else {
        HboConfig::default()
    };
    let (client_counts, bandwidths): (Vec<usize>, Vec<f64>) = if smoke {
        (vec![2], vec![5.0, 50.0])
    } else {
        (vec![1, 4, 8], vec![5.0, 25.0, 100.0])
    };

    let cells: Vec<(usize, f64)> = client_counts
        .iter()
        .flat_map(|&n| bandwidths.iter().map(move |&b| (n, b)))
        .collect();
    let cell_seeds: Vec<u64> = (0..cells.len()).map(|i| job_seed(seed, i as u64)).collect();
    let mut observations = Observations::new(&outputs.observe(), seed, &cell_seeds);
    let (outcomes, mut report) = observations.run_map(
        "edge_offload",
        threads,
        &cells,
        |&(clients, mbps)| format!("c{clients} {mbps}mbps"),
        |i, &(clients, mbps), tracer| {
            sweep_cell(&base, clients, mbps, &config, cell_seeds[i], tracer)
        },
    );
    for (rows, _) in &outcomes {
        for row in rows {
            println!("{row}");
        }
    }
    // Merge per-cell telemetry totals in cell order (deterministic for
    // any thread count) into the runner report.
    let mut telemetry = TelemetrySummary::default();
    for (_, t) in &outcomes {
        telemetry.merge(t);
    }
    report.telemetry = Some(telemetry);
    harness::emit_runner_report(&report);
    outputs.write(&observations);
}
