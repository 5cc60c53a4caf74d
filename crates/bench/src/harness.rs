//! Criterion-free walltime benchmarking.
//!
//! The workspace builds hermetically (no registry crates), so `cargo
//! bench` targets use this small harness instead of `criterion`: warm up,
//! take N timed samples, report the median and the spread (p10, p90,
//! min) as one JSON line on stdout. JSON-lines output keeps results
//! machine-diffable across runs without pulling in a serialization crate.
//!
//! ```text
//! {"group":"bayesopt","bench":"gp_fit_20x4","median_ns":183042,"p10_ns":179811,"p90_ns":201337,"min_ns":178950,"samples":15,"warmup_iters":3}
//! ```
//!
//! Usage from a `harness = false` bench target:
//!
//! ```no_run
//! use hbo_bench::harness::Harness;
//!
//! let mut h = Harness::from_args("kernels");
//! h.bench("sum_1k", || (0..1000u64).sum::<u64>());
//! ```

use std::time::Instant;

use marsim::RunnerReport;

use crate::cli::Args;

/// Emits a [`RunnerReport`] as one JSON line on stdout — the same
/// JSON-lines contract as the bench output above, so runner-backed
/// experiment binaries report wall time, job counts, and merged metrics
/// in a machine-diffable form:
///
/// ```text
/// {"runner":"fig7","jobs":12,"threads":4,"wall_secs":3.141593,"metrics":{...}}
/// ```
pub fn emit_runner_report(report: &RunnerReport) {
    println!("{}", report.to_json());
}

/// Number of timed samples per benchmark (median reported).
const DEFAULT_SAMPLES: u32 = 15;
/// Warmup iterations before sampling.
const DEFAULT_WARMUP: u32 = 3;

/// The command line every bench target accepts.
const USAGE: &str =
    "cargo bench -p hbo-bench --bench <TARGET> -- [FILTER] [--samples N] [--warmup N]";

/// Order statistics of one bench's timed samples, in nanoseconds.
///
/// `median` is the upper median (`sorted[n / 2]`); `p10` and `p90` are
/// nearest-rank percentiles (`sorted[⌈p·n⌉ − 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SampleStats {
    median: u128,
    p10: u128,
    p90: u128,
    min: u128,
}

impl SampleStats {
    /// Summarizes a non-empty set of samples.
    fn new(mut ns: Vec<u128>) -> Self {
        assert!(!ns.is_empty(), "need at least one sample");
        ns.sort_unstable();
        let nearest_rank = |pct: usize| ns[(pct * ns.len()).div_ceil(100).max(1) - 1];
        SampleStats {
            median: ns[ns.len() / 2],
            p10: nearest_rank(10),
            p90: nearest_rank(90),
            min: ns[0],
        }
    }
}

/// A benchmark group: runs closures, reports median walltime as JSON.
#[derive(Debug)]
pub struct Harness {
    group: String,
    filter: Option<String>,
    samples: u32,
    warmup: u32,
}

impl Harness {
    /// A harness for `group` with default sample counts.
    pub fn new(group: &str) -> Self {
        Harness {
            group: group.to_owned(),
            filter: None,
            samples: DEFAULT_SAMPLES,
            warmup: DEFAULT_WARMUP,
        }
    }

    /// Like [`Harness::new`], but honors command-line options
    /// (`cargo bench --bench kernels -- gp_fit --samples 3 --warmup 1`):
    ///
    /// * the one bare argument is a substring filter on bench names;
    /// * `--samples N` / `--samples=N` sets the timed sample count (N ≥ 1;
    ///   smoke runs in CI use a tiny N);
    /// * `--warmup N` / `--warmup=N` sets the warmup iterations;
    /// * the `--bench` that cargo passes to every bench target is ignored.
    ///
    /// Anything else — an unknown flag, a missing or malformed value,
    /// `--samples 0`, a second bare argument — prints the error and the
    /// usage on stderr and exits 2 before any bench runs.
    pub fn from_args(group: &str) -> Self {
        let mut args = Args::from_env(USAGE);
        let h = Self::parse(group, &mut args);
        args.finish();
        h
    }

    /// [`Self::from_args`] over an explicit argument list, returning the
    /// rejection instead of exiting.
    #[cfg(test)]
    fn from_arg_list(group: &str, argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Args::new(USAGE, argv);
        let h = Self::parse(group, &mut args);
        args.check().map(|()| h)
    }

    /// Pulls the harness options out of `args`; rejections are left in
    /// `args` for its caller to report.
    fn parse(group: &str, args: &mut Args) -> Self {
        args.split_inline_values();
        args.switch("--bench");
        let mut h = Harness::new(group);
        if let Some(samples) = args.value::<u32>("--samples") {
            if samples == 0 {
                args.reject("--samples must be at least 1");
            }
            h.samples = samples.max(1);
        }
        if let Some(warmup) = args.value::<u32>("--warmup") {
            h.warmup = warmup;
        }
        h.filter = args.positional();
        h
    }

    /// Overrides the number of timed samples (median of N).
    pub fn samples(mut self, samples: u32) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// True if `name` passes the command-line filter.
    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Benchmarks `routine`, timing each call.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut routine: F) {
        self.bench_batched(name, || (), |()| routine());
    }

    /// Benchmarks `routine` on a fresh `setup()` value per sample, timing
    /// only the routine (the criterion `iter_batched` pattern).
    pub fn bench_batched<I, T, S, F>(&mut self, name: &str, setup: S, routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> T,
    {
        if let Some(stats) = self.measure(name, setup, routine) {
            println!("{{{}}}", self.row(name, &stats));
        }
    }

    /// Benchmarks a simulation routine that advances virtual time by
    /// `simulated_secs` per call, reporting the headline throughput ratio
    /// `sims_per_wall_sec` = simulated seconds ÷ wall seconds alongside
    /// the usual median. A ratio of 1000 means the simulator runs a
    /// thousand times faster than real time.
    pub fn bench_sim<I, T, S, F>(&mut self, name: &str, simulated_secs: f64, setup: S, routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> T,
    {
        if let Some(stats) = self.measure(name, setup, routine) {
            let wall_secs = stats.median as f64 * 1e-9;
            let sims_per_wall_sec = simulated_secs / wall_secs;
            println!(
                "{{{},\"sims_per_wall_sec\":{:.1}}}",
                self.row(name, &stats),
                sims_per_wall_sec
            );
        }
    }

    /// The fields every bench row carries, without the enclosing braces.
    fn row(&self, name: &str, stats: &SampleStats) -> String {
        format!(
            "\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{},\"p10_ns\":{},\"p90_ns\":{},\"min_ns\":{},\"samples\":{},\"warmup_iters\":{}",
            self.group,
            name,
            stats.median,
            stats.p10,
            stats.p90,
            stats.min,
            self.samples,
            self.warmup
        )
    }

    /// Shared measurement core: warm up, take N samples of
    /// `routine(setup())` timing only the routine, return their order
    /// statistics. `None` when `name` fails the command-line filter.
    fn measure<I, T, S, F>(
        &mut self,
        name: &str,
        mut setup: S,
        mut routine: F,
    ) -> Option<SampleStats>
    where
        S: FnMut() -> I,
        F: FnMut(I) -> T,
    {
        if !self.selected(name) {
            return None;
        }
        for _ in 0..self.warmup {
            std::hint::black_box(routine(setup()));
        }
        let sample_ns: Vec<u128> = (0..self.samples)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                start.elapsed().as_nanos()
            })
            .collect();
        Some(SampleStats::new(sample_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_respects_filter() {
        let mut h = Harness::new("test");
        h.filter = Some("yes".to_owned());
        let mut ran = 0;
        h.bench("yes_this_one", || ran += 1);
        let ran_selected = ran;
        let mut skipped = 0;
        h.bench("not_matching", || skipped += 1);
        assert!(ran_selected >= 1, "selected bench must execute");
        assert_eq!(skipped, 0, "filtered-out bench must not execute");
    }

    fn parse(args: &[&str]) -> Result<Harness, String> {
        Harness::from_arg_list("g", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn from_arg_list_parses_filter_samples_and_warmup() {
        let h = parse(&["--bench", "gp_fit", "--samples", "3", "--warmup=1"]).unwrap();
        assert_eq!(h.filter.as_deref(), Some("gp_fit"));
        assert_eq!(h.samples, 3);
        assert_eq!(h.warmup, 1);
        // Values of consumed flags must not be mistaken for a filter.
        let h = parse(&["--samples", "7"]).unwrap();
        assert_eq!(h.filter, None);
        assert_eq!(h.samples, 7);
        // No flags at all: the defaults.
        let h = parse(&[]).unwrap();
        assert_eq!((h.samples, h.warmup), (DEFAULT_SAMPLES, DEFAULT_WARMUP));
        let h = parse(&["--warmup", "0"]).unwrap();
        assert_eq!(h.warmup, 0);
    }

    #[test]
    fn from_arg_list_rejects_malformed_values() {
        for (args, why) in [
            (
                &["--samples", "abc"][..],
                "invalid value \"abc\" for --samples",
            ),
            (&["--samples"], "missing value for --samples"),
            (&["--samples", "--bench"], "missing value for --samples"),
            (&["--samples="], "invalid value \"\" for --samples"),
            (&["--warmup"], "missing value for --warmup"),
            (&["--warmup", "-1"], "invalid value \"-1\" for --warmup"),
            (&["--warmup=x"], "invalid value \"x\" for --warmup"),
            (&["--samples", "0"], "--samples must be at least 1"),
            (
                &["--samples", "2", "--samples", "3"],
                "--samples given more than once",
            ),
            (&["--sample", "3"], "unknown flag --sample"),
            (&["gp_fit", "gmsd"], "unexpected argument \"gmsd\""),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }

    #[test]
    fn sample_stats_are_nearest_rank_order_statistics() {
        let s = SampleStats::new((1..=15).rev().map(|v| v * 10).collect());
        assert_eq!(
            s,
            SampleStats {
                median: 80,
                p10: 20,
                p90: 140,
                min: 10,
            }
        );
        let one = SampleStats::new(vec![5]);
        assert_eq!((one.median, one.p10, one.p90, one.min), (5, 5, 5, 5));
        let three = SampleStats::new(vec![3, 1, 2]);
        assert_eq!((three.p10, three.median, three.p90), (1, 2, 3));
    }

    #[test]
    fn bench_sim_respects_filter_and_samples() {
        let mut h = Harness::new("test").samples(2);
        h.filter = Some("sim_".to_owned());
        let mut ran = 0;
        h.bench_sim("sim_socsim_1s", 1.0, || (), |()| ran += 1);
        assert_eq!(ran as u32, 2 + DEFAULT_WARMUP);
        let mut skipped = 0;
        h.bench_sim("other", 1.0, || (), |()| skipped += 1);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn batched_setup_runs_once_per_sample() {
        let mut h = Harness::new("test").samples(5);
        let mut setups = 0;
        let mut runs = 0;
        h.bench_batched(
            "batched",
            || {
                setups += 1;
            },
            |()| {
                runs += 1;
            },
        );
        assert_eq!(setups, 5 + DEFAULT_WARMUP);
        assert_eq!(runs, setups);
    }
}
