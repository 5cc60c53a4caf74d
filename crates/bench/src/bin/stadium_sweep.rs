//! Stadium sweep: a growing crowd shares one contended cell until HBO
//! flips the fleet back to local inference, plus a mobility/handover
//! cell where the population walks across a two-cell deployment.
//!
//! ```text
//! stadium_sweep [--smoke] [--seed N] [--threads T] [--trace PATH]
//!               [--metrics PATH] [--trace-sample K]
//! ```
//!
//! Emits one `stadium_sweep` JSON line per cell population — HBO's final
//! allocation and reward next to the effective per-client bandwidth at
//! that population — then one `stadium_mobility` line for the walking
//! fleet, plus the runner report. Cells run on the deterministic
//! parallel runner: each cell's seed derives from `(--seed, cell
//! index)`, so the row set is bit-identical for any `--threads` setting
//! (pinned, with a golden cell, by `tests/end_to_end.rs`).
//!
//! With `--trace PATH` every population cell's HBO activation and the
//! mobility cell's cluster record span/counter traces (per-cell radio
//! utilization and active-flow counters among them), written to `PATH`
//! as Chrome trace-event JSON; the emitted rows stay byte-identical.
//! `--trace-sample K` keeps full Chrome detail for only the `K` cells
//! (population cells plus the mobility cell) with the smallest
//! seed-derived hashes; `--metrics PATH` streams every cell's spans and
//! counters into a bounded aggregator and writes the merged
//! Prometheus-style exposition, byte-identical for any `--threads`
//! setting.

use edgelink::SharedCell;
use hbo_bench::{cli, harness};
use hbo_core::HboConfig;
use marsim::edge::stadium_cell;
use marsim::fleet::{run_mobility_cell_traced, FleetSpec};
use marsim::runner::{job_seed, Observations};
use marsim::{ScenarioSpec, TelemetrySummary};

const USAGE: &str = "stadium_sweep [--smoke] [--seed N] [--threads T] [--trace PATH]
              [--metrics PATH] [--trace-sample K]";

fn main() {
    let mut args = cli::Args::from_env(USAGE);
    let smoke = args.switch("--smoke");
    let seed = args.value("--seed").unwrap_or(2024);
    let threads = args.threads();
    let outputs = args.outputs();
    args.finish();

    // SC1-CF2 keeps the taskset small enough for a full activation per
    // population cell; the stadium cell's capacity (80/160 Mbit/s) is
    // generous for a handful of clients and saturating for dozens.
    let base = ScenarioSpec::sc1_cf2();
    let cell = SharedCell::stadium();
    // A full activation per cell costs well under a second even at the
    // largest population, so --smoke only shrinks the population grid
    // and the mobility horizon, never the HBO budget — the smoke rows
    // show the same edge-vs-local flip the full sweep demonstrates.
    let config = HboConfig::default();
    let populations: Vec<usize> = if smoke {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };

    // Head-sampling covers every cell of the sweep — the population
    // cells plus the trailing mobility cell — as one seed sequence, so
    // the same K cells keep Chrome detail on every rerun and thread
    // count.
    let cell_seeds: Vec<u64> = (0..=populations.len())
        .map(|i| job_seed(seed, i as u64))
        .collect();
    let mut observations = Observations::new(&outputs.observe(), seed, &cell_seeds);
    let (outcomes, mut report) = observations.run_map(
        "stadium_sweep",
        threads,
        &populations,
        |clients| format!("stadium c{clients}"),
        |i, &clients, tracer| stadium_cell(&base, cell, clients, &config, cell_seeds[i], tracer),
    );
    for (row, _) in &outcomes {
        println!("{row}");
    }

    // The mobility/handover cell runs serially after the population
    // cells (one job; identical for any --threads setting). Its seed
    // continues the same job-seed sequence.
    let fleet = FleetSpec::mar_default(8).with_horizon(if smoke { 4.0 } else { 30.0 });
    let mobility_job = populations.len();
    let mobility = observations.run(mobility_job, "mobility".to_owned(), |tracer| {
        run_mobility_cell_traced(&fleet, cell_seeds[mobility_job], tracer)
    });
    println!("{}", mobility.row);

    // Merge per-cell telemetry totals in cell order (deterministic for
    // any thread count) into the runner report.
    let mut telemetry = TelemetrySummary::default();
    for (_, t) in &outcomes {
        telemetry.merge(t);
    }
    telemetry.merge(&mobility.telemetry);
    report.telemetry = Some(telemetry);
    harness::emit_runner_report(&report);
    outputs.write(&observations);
}
