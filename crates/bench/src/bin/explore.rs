//! Interactive scenario explorer: run HBO on any scenario with custom
//! parameters from the command line.
//!
//! ```text
//! explore [SCENARIO] [--seed N] [--weight W] [--iterations K] [--initial M]
//!         [--device pixel7|s22] [--distance D] [--baselines] [--warm]
//!         [--replicates R] [--threads T] [--trace PATH] [--metrics PATH]
//!         [--trace-sample K]
//!
//! SCENARIO: SC1-CF1 (default) | SC2-CF1 | SC1-CF2 | SC2-CF2
//! ```
//!
//! With `--warm` the scenario is run twice through the fleet-wide
//! warm-start cache: once cold (empty cache, a miss) and once warm
//! (seeded by the first run's converged configuration), printing the
//! windows / suggest-call / convergence comparison — the source of the
//! cold-vs-warm table in EXPERIMENTS.md.
//!
//! With `--replicates R` (R > 1) the activation is repeated R times as a
//! sweep on `--threads T` workers of the deterministic parallel runner:
//! each replicate's PRNG stream is derived from `(--seed, replicate
//! index)`, so the sweep is bit-identical for any `--threads` setting,
//! and the merged best-cost / convergence statistics are printed
//! alongside the per-replicate bests.
//!
//! With `--trace PATH` the activation (or every replicate of the sweep)
//! records a deterministic span/counter trace and writes it to `PATH` as
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//! Tracing changes no published output: the printed iterations, bests,
//! and merged statistics are bit-identical with and without `--trace`,
//! and the trace file itself is byte-identical across reruns and
//! `--threads` settings. `--trace-sample K` keeps Chrome detail for only
//! the `K` replicates with the smallest seed-derived hashes (`0` writes
//! an empty, valid trace); `--metrics PATH` writes the merged
//! Prometheus-style exposition of every replicate.
//!
//! `--baselines` and `--warm` are fixed comparisons: combining them with
//! each other or with `--replicates`, `--threads`, `--trace` or
//! `--metrics` is rejected, as is `--threads` without `--replicates`.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p hbo-bench --bin explore -- SC2-CF1 --seed 7
//! cargo run --release -p hbo-bench --bin explore -- SC1-CF1 --weight 5 --baselines
//! cargo run --release -p hbo-bench --bin explore -- SC2-CF2 --replicates 8 --threads 4
//! ```

use hbo_bench::{cli, harness};
use hbo_core::{Baseline, HboConfig, WarmCache};
use marsim::experiment::{compare_baselines, run_hbo_traced, run_hbo_warm};
use marsim::runner::{self, Observations, SweepJob};
use marsim::ScenarioSpec;
use simcore::rng::mix;

const USAGE: &str = "explore [SCENARIO] [--seed N] [--weight W] [--iterations K] [--initial M]
        [--device pixel7|s22] [--distance D] [--baselines] [--warm]
        [--replicates R] [--threads T] [--trace PATH] [--metrics PATH]
        [--trace-sample K]

SCENARIO: SC1-CF1 (default) | SC2-CF1 | SC1-CF2 | SC2-CF2";

fn print_best(run: &marsim::experiment::HboRunResult) {
    println!(
        "best: x={:.2} alloc={} Q={:.3} eps={:.3} cost={:+.3} (converged at iter {})",
        run.best.point.x,
        run.best
            .point
            .allocation
            .iter()
            .map(|d| d.letter())
            .collect::<String>(),
        run.best.quality,
        run.best.epsilon,
        run.best.cost,
        run.iterations_to_converge()
    );
}

fn main() {
    let mut args = cli::Args::from_env(USAGE);
    // --baselines and --warm each run one fixed comparison: they take no
    // sweep or observation flags, and not each other.
    args.conflict("--baselines", "--warm");
    for mode in ["--baselines", "--warm"] {
        for flag in ["--replicates", "--threads", "--trace", "--metrics"] {
            args.conflict(mode, flag);
        }
    }
    args.requires("--threads", "--replicates");
    let seed = args.value("--seed").unwrap_or(2024);
    let weight = args.value("--weight").unwrap_or(2.5);
    let iterations = args.value("--iterations").unwrap_or(15);
    let initial = args.value("--initial").unwrap_or(5);
    let device: Option<String> = args.value("--device");
    let distance = args.value("--distance");
    let baselines = args.switch("--baselines");
    let warm = args.switch("--warm");
    let replicates: usize = args.value("--replicates").unwrap_or(1);
    if replicates == 0 {
        args.reject("--replicates must be at least 1");
    }
    let threads = args.threads();
    let outputs = args.outputs();
    let scenario = args.positional().unwrap_or_else(|| "SC1-CF1".to_owned());
    let mut spec = match scenario.to_uppercase().as_str() {
        "SC1-CF1" => ScenarioSpec::sc1_cf1(),
        "SC2-CF1" => ScenarioSpec::sc2_cf1(),
        "SC1-CF2" => ScenarioSpec::sc1_cf2(),
        "SC2-CF2" => ScenarioSpec::sc2_cf2(),
        other => {
            args.reject(format!("unknown scenario {other}"));
            ScenarioSpec::sc1_cf1()
        }
    };
    match device.as_deref() {
        None | Some("pixel7") => {}
        Some("s22") => spec.device = soc::DeviceProfile::galaxy_s22(),
        Some(other) => args.reject(format!("unknown device {other}")),
    }
    args.finish();

    if let Some(d) = distance {
        spec.user_distance = d;
    }
    let config = HboConfig {
        w: weight,
        n_initial: initial,
        iterations,
        ..HboConfig::default()
    };

    println!(
        "scenario {} on {} (seed {}, w = {}, {}+{} iterations, distance {:.2} m)\n",
        spec.name, spec.device.name, seed, weight, initial, iterations, spec.user_distance
    );

    if baselines {
        let result = compare_baselines(&spec, &config, seed);
        for b in Baseline::ALL {
            let o = result.outcome(b);
            println!(
                "{:<5} x={:.2}  Q={:.3}  eps={:.3}  reward={:+.3}  alloc={}",
                b.label(),
                o.x,
                o.measurement.quality,
                o.measurement.epsilon,
                o.reward(config.w),
                o.allocation.iter().map(|d| d.letter()).collect::<String>()
            );
        }
    } else if warm {
        // Cold-vs-warm comparison through the fleet-wide cache: run 1
        // misses (empty cache) and stores its converged configuration;
        // run 2 (a derived seed, so a genuinely different activation)
        // hits and seeds its BO design from it.
        let mut cache = WarmCache::new();
        let cold = run_hbo_warm(&spec, &config, seed, &mut cache);
        let warm = run_hbo_warm(&spec, &config, mix(seed, 1), &mut cache);
        for (label, r) in [("cold", &cold), ("warm", &warm)] {
            println!(
                "{label}: hit={} windows={} bo_suggests={} converged_at={}",
                r.warm_hit,
                r.run.records.len(),
                r.run.telemetry.bo_suggests,
                r.run.iterations_to_converge()
            );
            print!("  ");
            print_best(&r.run);
        }
    } else if replicates > 1 {
        // Replicate sweep: seeds derived from (--seed, replicate index) on
        // the runner, so the merged statistics are bit-identical for any
        // --threads setting.
        let jobs: Vec<SweepJob> = (0..replicates)
            .map(|r| SweepJob::derived(format!("rep{}", r + 1), spec.clone(), config.clone()))
            .collect();
        let sweep = runner::run_sweep_observed("explore", jobs, seed, threads, outputs.observe());
        for o in &sweep.outcomes {
            print!("{} (seed {:>20}) ", o.label, o.seed);
            print_best(&o.run);
        }
        println!("\nmerged statistics over {replicates} replicates:");
        for m in &sweep.report.metrics {
            println!(
                "  {:<18} mean={:+.3}  std={:.3}  min={:+.3}  max={:+.3}  (n={})",
                m.name,
                m.stats.mean(),
                m.stats.std_dev(),
                m.stats.min().unwrap_or(f64::NAN),
                m.stats.max().unwrap_or(f64::NAN),
                m.stats.count()
            );
        }
        harness::emit_runner_report(&sweep.report);
        outputs.write(&sweep.observations);
    } else {
        // One activation: a sweep of one job, its trace named after the
        // scenario.
        let mut observations = Observations::new(&outputs.observe(), seed, &[seed]);
        let run = observations.run(0, spec.name.clone(), |tracer| {
            run_hbo_traced(&spec, &config, seed, tracer)
        });
        outputs.write(&observations);
        for (i, r) in run.records.iter().enumerate() {
            println!(
                "iter {:>2}: x={:.2} alloc={} Q={:.3} eps={:.3} cost={:+.3}",
                i + 1,
                r.point.x,
                r.point
                    .allocation
                    .iter()
                    .map(|d| d.letter())
                    .collect::<String>(),
                r.quality,
                r.epsilon,
                r.cost
            );
        }
        println!();
        print_best(&run);
    }
}
