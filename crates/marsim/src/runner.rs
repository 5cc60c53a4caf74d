//! Deterministic parallel experiment execution.
//!
//! Every evaluation binary sweeps some cross product of scenario ×
//! configuration × replicate. This module turns such sweeps into a flat
//! job list executed on [`simcore::pool`] worker threads, with three
//! guarantees:
//!
//! 1. **Seed isolation** — each job's RNG stream is derived from
//!    `(master_seed, job_index)` through the splitmix64-based
//!    [`simcore::rng::mix`], so no job's draws depend on which worker ran
//!    it or on how many jobs surround it.
//! 2. **Order-independent merging** — per-job statistics are
//!    [`Running`] accumulators combined with the parallel-Welford
//!    [`Running::merge`] in job-index order after all workers finish, so
//!    the merged numbers do not depend on completion order.
//! 3. **Serial ≡ parallel** — (1) + (2) plus the order-preserving
//!    [`simcore::pool::map`] make a `--threads N` run bit-identical to
//!    `--threads 1` for any `N`.
//!
//! The thread count comes from `--threads N` on the command line (parsed
//! by `hbo_bench::cli`), the `HBO_THREADS` environment variable, or the
//! machine's available parallelism, in that order ([`threads_from_env`]).
//!
//! Any sweep can also be *observed* ([`Observations`]): deterministic
//! head-sampled Chrome tracing plus streaming metric aggregation, with
//! per-job buffers collected in job-index order so the trace file and the
//! metrics exposition are byte-identical for any thread count.
//!
//! Each binary reports its sweep as one JSON line (a [`RunnerReport`],
//! emitted through `hbo_bench::harness`) so wall time and merged metrics
//! are machine-diffable across PRs.

use std::time::Instant;

use hbo_core::HboConfig;
use simcore::metrics::{head_sample, with_observers, MetricsBuffer};
use simcore::pool;
use simcore::stats::Running;
use simcore::trace::{chrome_trace_json, TraceBuffer, TraceJob, Tracer};

use crate::experiment::{run_hbo_traced, HboRunResult};
use crate::scenario::ScenarioSpec;
use crate::telemetry::TelemetrySummary;

/// Derives the independent seed for job `job_index` of a sweep rooted at
/// `master_seed` (splitmix64 mixing via [`simcore::rng::mix`]).
pub fn job_seed(master_seed: u64, job_index: u64) -> u64 {
    simcore::rng::mix(master_seed, job_index)
}

/// Thread count from the `HBO_THREADS` environment variable, falling back
/// to the machine's available parallelism. Invalid or zero values fall
/// back too.
pub fn threads_from_env() -> usize {
    std::env::var("HBO_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(pool::available_threads)
}

/// One job of an HBO activation sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Display label (scenario, variant, replicate…).
    pub label: String,
    /// The scenario to run.
    pub scenario: ScenarioSpec,
    /// The controller configuration.
    pub config: HboConfig,
    /// Explicit seed, or `None` to derive one from
    /// `(master_seed, job_index)` via [`job_seed`].
    pub seed: Option<u64>,
}

impl SweepJob {
    /// A job whose seed derives from its position in the job list.
    pub fn derived(label: impl Into<String>, scenario: ScenarioSpec, config: HboConfig) -> Self {
        SweepJob {
            label: label.into(),
            scenario,
            config,
            seed: None,
        }
    }

    /// A job pinned to an explicit seed (paper-reproduction binaries pin
    /// their historic figure seeds).
    pub fn seeded(
        label: impl Into<String>,
        scenario: ScenarioSpec,
        config: HboConfig,
        seed: u64,
    ) -> Self {
        SweepJob {
            label: label.into(),
            scenario,
            config,
            seed: Some(seed),
        }
    }
}

/// The outcome of one [`SweepJob`].
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Index into the job list (stable across thread counts).
    pub job_index: usize,
    /// The job's label.
    pub label: String,
    /// The seed the job actually ran with.
    pub seed: u64,
    /// The full activation result.
    pub run: HboRunResult,
}

/// What a sweep observes while it runs: Chrome tracing, deterministic
/// head-sampling of that tracing, and streaming metric aggregation.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// Attach a per-job Chrome trace sink (subject to `trace_sample`).
    pub traced: bool,
    /// When `Some(k)` and `traced`, only the `k` jobs whose mixed
    /// `(master_seed, job_seed)` hashes are smallest keep full Chrome
    /// detail ([`simcore::metrics::head_sample`]); every job still feeds
    /// the aggregator. `None` traces every job.
    pub trace_sample: Option<usize>,
    /// Attach a per-job [`simcore::metrics::AggregatingSink`] and return
    /// its [`MetricsBuffer`] for job-index-order merging.
    pub metrics: bool,
}

/// What an observed sweep's sinks collected, in job-index order: the
/// full-detail Chrome buffers of the head-sampled jobs (one named `pid`
/// each) and the merged aggregate of every metered job.
///
/// Built from an [`ObserveConfig`] plus the sweep's per-job seeds, which
/// fix the sampled set up front; jobs then run through
/// [`Observations::run_map`] (a parallel batch) or [`Observations::run`]
/// (one serial job) and their buffers are folded in as they are
/// collected. Sinks are per job (nothing shared across threads) and
/// observation never perturbs the simulations, so every job's result,
/// the trace file and the exposition are bit-identical across thread
/// counts and to an unobserved run.
#[derive(Debug, Clone)]
pub struct Observations {
    sampled: Vec<bool>,
    /// `Some` exactly when tracing is on.
    traces: Option<Vec<TraceJob>>,
    /// `Some` exactly when metrics collection is on.
    metrics: Option<MetricsBuffer>,
}

impl Observations {
    /// Observation plan for a sweep whose job `i` runs with `seeds[i]`.
    /// With `trace_sample: Some(k)` only the `k` jobs with the smallest
    /// `(master_seed, seed)`-derived hashes keep Chrome detail
    /// ([`simcore::metrics::head_sample`]) — the same jobs on every rerun
    /// and thread count.
    pub fn new(observe: &ObserveConfig, master_seed: u64, seeds: &[u64]) -> Self {
        let sampled = match (observe.traced, observe.trace_sample) {
            (true, Some(k)) => head_sample(master_seed, seeds, k),
            (traced, _) => vec![traced; seeds.len()],
        };
        Observations {
            sampled,
            traces: observe.traced.then(Vec::new),
            metrics: observe.metrics.then(MetricsBuffer::default),
        }
    }

    /// Which jobs keep full Chrome detail, one flag per job.
    pub fn sampled(&self) -> &[bool] {
        &self.sampled
    }

    /// Runs job `job` serially under its sinks and collects what they
    /// gathered, the trace under `name`.
    pub fn run<R>(&mut self, job: usize, name: String, f: impl FnOnce(Tracer) -> R) -> R {
        let (out, trace, metrics) = with_observers(self.sampled[job], self.metrics.is_some(), f);
        self.collect(name, trace, metrics);
        out
    }

    /// [`run_map`] with every item observed as the job of the same
    /// index: `f` gets the job's tracer (disabled unless sampled or
    /// metered), and the buffers are collected in job order afterwards,
    /// each trace under `name(item)`.
    pub fn run_map<T, R, F>(
        &mut self,
        label: impl Into<String>,
        threads: usize,
        items: &[T],
        name: impl Fn(&T) -> String,
        f: F,
    ) -> (Vec<R>, RunnerReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, Tracer) -> R + Sync,
    {
        let (sampled, metered) = (&self.sampled, self.metrics.is_some());
        let (jobs, report) = run_map(label, threads, items, |i, item| {
            with_observers(sampled[i], metered, |tracer| f(i, item, tracer))
        });
        let outs = jobs
            .into_iter()
            .zip(items)
            .map(|((out, trace, metrics), item)| {
                self.collect(name(item), trace, metrics);
                out
            })
            .collect();
        (outs, report)
    }

    fn collect(
        &mut self,
        name: String,
        trace: Option<TraceBuffer>,
        metrics: Option<MetricsBuffer>,
    ) {
        if let (Some(traces), Some(buffer)) = (&mut self.traces, trace) {
            traces.push(TraceJob { name, buffer });
        }
        if let (Some(merged), Some(m)) = (&mut self.metrics, metrics) {
            merged.merge(&m);
        }
    }

    /// The sampled jobs' buffers as one Chrome trace-event JSON document
    /// (one `pid` per job, in job order) — an empty, valid document when
    /// no job was sampled. `None` when tracing is off.
    pub fn trace_json(&self) -> Option<String> {
        self.traces.as_deref().map(chrome_trace_json)
    }

    /// The metered jobs' aggregates merged in job order, rendered as the
    /// deterministic Prometheus-style text exposition. `None` when
    /// metrics collection is off.
    pub fn metrics_text(&self) -> Option<String> {
        self.metrics.as_ref().map(MetricsBuffer::render_prometheus)
    }
}

/// A merged metric: a name plus its [`Running`] accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name, e.g. `"best_cost"`.
    pub name: String,
    /// Merged statistics across jobs.
    pub stats: Running,
}

/// The machine-readable summary of one runner-backed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerReport {
    /// Sweep label (usually the binary name).
    pub label: String,
    /// Wall-clock time of the whole sweep, in seconds.
    pub wall_secs: f64,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Merged per-metric statistics, in a fixed order.
    pub metrics: Vec<MetricSummary>,
    /// Merged telemetry totals across jobs (job-index merge order), when
    /// the sweep collects them.
    pub telemetry: Option<TelemetrySummary>,
}

impl RunnerReport {
    /// Renders the report as one JSON line in the same hand-rolled style
    /// as `hbo_bench::harness` (no serialization crate; hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"runner\":\"{}\",\"jobs\":{},\"threads\":{},\"wall_secs\":{:.6},\"metrics\":{{",
            self.label, self.jobs, self.threads, self.wall_secs
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if m.stats.count() == 0 {
                // An empty accumulator has no mean/spread/extrema;
                // fabricating 0.000000 here made a metric that never
                // recorded look like one that measured exactly zero.
                out.push_str(&format!(
                    "\"{}\":{{\"count\":0,\"mean\":null,\"std_dev\":null,\"min\":null,\"max\":null}}",
                    m.name,
                ));
                continue;
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean\":{:.6},\"std_dev\":{:.6},\"min\":{:.6},\"max\":{:.6}}}",
                m.name,
                m.stats.count(),
                m.stats.mean(),
                m.stats.std_dev(),
                m.stats.min().expect("count > 0"),
                m.stats.max().expect("count > 0"),
            ));
        }
        out.push('}');
        if let Some(t) = &self.telemetry {
            out.push_str(",\"telemetry\":");
            out.push_str(&t.to_json());
        }
        out.push('}');
        out
    }
}

/// The result of [`run_sweep`]: per-job outcomes in job order plus the
/// merged report.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One outcome per job, in job-index order.
    pub outcomes: Vec<SweepOutcome>,
    /// Merged statistics and timing.
    pub report: RunnerReport,
    /// What the sweep's sinks collected ([`run_sweep_observed`]).
    pub observations: Observations,
}

impl SweepResult {
    /// The outcomes whose label matches `label`, in job order.
    pub fn labeled<'a>(&'a self, label: &str) -> Vec<&'a SweepOutcome> {
        self.outcomes.iter().filter(|o| o.label == label).collect()
    }
}

/// Runs a flat HBO-activation job list on `threads` workers.
///
/// Per-job iteration statistics (cost, quality, normalized latency) are
/// accumulated into independent [`Running`]s inside each job and merged
/// with [`Running::merge`] in job-index order afterwards; per-job scalars
/// (best cost, iterations-to-converge) are recorded in the same order.
/// Both are therefore independent of scheduling, and the whole sweep is
/// bit-identical for every thread count.
pub fn run_sweep(
    label: impl Into<String>,
    jobs: Vec<SweepJob>,
    master_seed: u64,
    threads: usize,
) -> SweepResult {
    run_sweep_observed(label, jobs, master_seed, threads, ObserveConfig::default())
}

/// [`run_sweep`] under `observe`: optional Chrome tracing with
/// deterministic seed-derived head-sampling, and optional streaming
/// metric aggregation, collected into [`SweepResult::observations`]
/// with each trace named by its job's label. Every metric — the merged
/// trace and the metrics text included — is bit-identical across thread
/// counts and to an unobserved run.
pub fn run_sweep_observed(
    label: impl Into<String>,
    jobs: Vec<SweepJob>,
    master_seed: u64,
    threads: usize,
    observe: ObserveConfig,
) -> SweepResult {
    let seeds: Vec<u64> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| job.seed.unwrap_or_else(|| job_seed(master_seed, i as u64)))
        .collect();
    let mut observations = Observations::new(&observe, master_seed, &seeds);
    let (runs, mut report) = observations.run_map(
        label,
        threads,
        &jobs,
        |job| job.label.clone(),
        |i, job, tracer| run_hbo_traced(&job.scenario, &job.config, seeds[i], tracer),
    );
    let outcomes: Vec<SweepOutcome> = runs
        .into_iter()
        .zip(jobs)
        .enumerate()
        .map(|(job_index, (run, job))| SweepOutcome {
            job_index,
            label: job.label,
            seed: seeds[job_index],
            run,
        })
        .collect();

    // Per-job accumulators, merged in index order (parallel Welford).
    let mut iter_cost = Running::new();
    let mut iter_quality = Running::new();
    let mut iter_epsilon = Running::new();
    let mut best_cost = Running::new();
    let mut iters_to_converge = Running::new();
    let mut telemetry = TelemetrySummary::default();
    for o in &outcomes {
        let mut job_cost = Running::new();
        let mut job_quality = Running::new();
        let mut job_epsilon = Running::new();
        for r in &o.run.records {
            job_cost.record(r.cost);
            job_quality.record(r.quality);
            job_epsilon.record(r.epsilon);
        }
        iter_cost.merge(&job_cost);
        iter_quality.merge(&job_quality);
        iter_epsilon.merge(&job_epsilon);
        best_cost.record(o.run.best.cost);
        iters_to_converge.record(o.run.iterations_to_converge() as f64);
        telemetry.merge(&o.run.telemetry);
    }
    let metric = |name: &str, stats: Running| MetricSummary {
        name: name.to_owned(),
        stats,
    };
    report.metrics = vec![
        metric("best_cost", best_cost),
        metric("iters_to_converge", iters_to_converge),
        metric("iter_cost", iter_cost),
        metric("iter_quality", iter_quality),
        metric("iter_epsilon", iter_epsilon),
    ];
    report.telemetry = Some(telemetry);
    SweepResult {
        outcomes,
        report,
        observations,
    }
}

/// Runs an arbitrary deterministic job list on `threads` workers and
/// times it — the generic entry point for sweeps that are not HBO
/// activations (scripted timelines, fixed-configuration measurements…).
///
/// `f` must be a pure function of `(index, item)` for the serial ≡
/// parallel guarantee to hold; results come back in input order.
pub fn run_map<T, R, F>(
    label: impl Into<String>,
    threads: usize,
    items: &[T],
    f: F,
) -> (Vec<R>, RunnerReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let start = Instant::now();
    let results = pool::map(threads, items, f);
    let report = RunnerReport {
        label: label.into(),
        wall_secs: start.elapsed().as_secs_f64(),
        jobs: results.len(),
        threads,
        metrics: Vec::new(),
        telemetry: None,
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, u64s};
    use simcore::prop_assert;
    use simcore::rand::{Rng, SeedableRng, StdRng};

    fn quick_config() -> HboConfig {
        HboConfig {
            n_initial: 2,
            iterations: 2,
            ..HboConfig::default()
        }
    }

    fn demo_jobs() -> Vec<SweepJob> {
        let config = quick_config();
        let mut jobs = Vec::new();
        for spec in [ScenarioSpec::sc2_cf2(), ScenarioSpec::sc2_cf1()] {
            for replicate in 0..2 {
                jobs.push(SweepJob::derived(
                    format!("{}/r{replicate}", spec.name),
                    spec.clone(),
                    config.clone(),
                ));
            }
        }
        jobs
    }

    #[test]
    fn four_thread_sweep_is_bit_identical_to_one_thread() {
        let serial = run_sweep("det", demo_jobs(), 42, 1);
        let parallel = run_sweep("det", demo_jobs(), 42, 4);
        assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
        for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(a.job_index, b.job_index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.run.best.point, b.run.best.point);
            assert_eq!(a.run.best.cost, b.run.best.cost);
            assert_eq!(a.run.best_cost_trace, b.run.best_cost_trace);
        }
        // Merged metrics are bit-identical `Running`s, not just close.
        assert_eq!(serial.report.metrics, parallel.report.metrics);
    }

    #[test]
    fn explicit_seeds_override_derivation() {
        let mut jobs = demo_jobs();
        jobs[1].seed = Some(777);
        let result = run_sweep("seeded", jobs, 9, 2);
        assert_eq!(result.outcomes[0].seed, job_seed(9, 0));
        assert_eq!(result.outcomes[1].seed, 777);
    }

    #[test]
    fn report_json_says_null_for_metrics_that_never_recorded() {
        // Regression: an empty metric used to render as
        // `"mean":0.000000,...` — indistinguishable from a metric that
        // measured exactly zero. It must render null for mean/spread/extrema.
        let mut recorded = Running::new();
        recorded.record(2.0);
        recorded.record(4.0);
        let report = RunnerReport {
            label: "nulls".to_owned(),
            jobs: 0,
            threads: 1,
            wall_secs: 0.0,
            metrics: vec![
                MetricSummary {
                    name: "empty".to_owned(),
                    stats: Running::new(),
                },
                MetricSummary {
                    name: "seen".to_owned(),
                    stats: recorded,
                },
            ],
            telemetry: None,
        };
        let json = report.to_json();
        assert!(
            json.contains(
                "\"empty\":{\"count\":0,\"mean\":null,\"std_dev\":null,\"min\":null,\"max\":null}"
            ),
            "empty metric not rendered as null: {json}"
        );
        assert!(
            json.contains("\"seen\":{\"count\":2,\"mean\":3.000000"),
            "non-empty metric changed shape: {json}"
        );
    }

    #[test]
    fn job_seed_streams_have_distinct_first_draws() {
        // Property: for any master seed, the 256 first job streams all
        // draw distinct first values — no pair of jobs shares a stream.
        check::check("job_seed_streams_distinct", u64s(..), |&master| {
            let mut seen = std::collections::HashSet::new();
            for job_index in 0..256u64 {
                let first: u64 = StdRng::seed_from_u64(job_seed(master, job_index)).gen();
                prop_assert!(
                    seen.insert(first),
                    "jobs of master seed {master} collide at index {job_index}"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn run_map_keeps_input_order_and_counts_jobs() {
        let items: Vec<u64> = (0..17).collect();
        let (out, report) = run_map("map", 4, &items, |i, &x| x + i as u64);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(report.jobs, 17);
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn report_renders_one_json_line() {
        let result = run_sweep("json", demo_jobs(), 1, 2);
        let line = result.report.to_json();
        assert!(line.starts_with("{\"runner\":\"json\",\"jobs\":4,\"threads\":2,"));
        assert!(line.contains("\"best_cost\":{\"count\":4,"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn observed_sweep_is_bit_identical_across_threads_and_to_unobserved() {
        let observe = ObserveConfig {
            traced: true,
            trace_sample: Some(2),
            metrics: true,
        };
        let serial = run_sweep_observed("obs", demo_jobs(), 42, 1, observe.clone());
        let parallel = run_sweep_observed("obs", demo_jobs(), 42, 4, observe);
        let plain = run_sweep("obs", demo_jobs(), 42, 1);

        // Exactly k jobs keep Chrome detail; the same jobs either way,
        // and the merged trace names exactly those jobs.
        let sampled = serial.observations.sampled();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 2);
        assert_eq!(sampled, parallel.observations.sampled());
        let trace = serial.observations.trace_json().expect("traced");
        assert_eq!(Some(trace.clone()), parallel.observations.trace_json());
        for (o, &s) in serial.outcomes.iter().zip(sampled) {
            let named = format!("\"name\":\"{}\"", o.label);
            assert_eq!(trace.contains(&named), s, "{}", o.label);
        }

        // Every job feeds the aggregator, sampled or not: the merged
        // exposition equals the unsampled one and is byte-identical
        // across thread counts.
        let text = serial.observations.metrics_text().expect("metered");
        assert_eq!(Some(text.clone()), parallel.observations.metrics_text());
        let metrics_only = ObserveConfig {
            metrics: true,
            ..ObserveConfig::default()
        };
        let unsampled = run_sweep_observed("obs", demo_jobs(), 42, 2, metrics_only);
        assert_eq!(Some(text.clone()), unsampled.observations.metrics_text());
        assert!(text.contains("# TYPE mar_span_count counter"));

        // Observation never perturbs the simulations.
        for (a, b) in serial.outcomes.iter().zip(&plain.outcomes) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.run.best.cost, b.run.best.cost);
            assert_eq!(a.run.best_cost_trace, b.run.best_cost_trace);
        }
        assert_eq!(serial.report.metrics, plain.report.metrics);
    }

    #[test]
    fn untraced_observed_sweep_collects_no_buffers() {
        let result = run_sweep_observed("off", demo_jobs(), 3, 2, ObserveConfig::default());
        assert!(result.observations.sampled().iter().all(|&s| !s));
        assert!(result.observations.metrics_text().is_none());
        assert!(result.observations.trace_json().is_none());
    }

    #[test]
    fn zero_sampled_jobs_still_yield_a_valid_empty_trace() {
        let observe = ObserveConfig {
            traced: true,
            trace_sample: Some(0),
            metrics: false,
        };
        let result = run_sweep_observed("none", demo_jobs(), 3, 2, observe);
        let json = result.observations.trace_json().expect("tracing on");
        let stats = simcore::trace::chrome_trace_stats(&json).expect("valid Chrome JSON");
        assert_eq!(stats.spans, 0);
    }

    #[test]
    fn serial_and_mapped_jobs_collect_in_job_order() {
        // A mapped batch followed by a serial job (the shape of a sweep
        // with a trailing cell) traces like one mapped batch over all
        // jobs: same sampled set, same names, same pid order.
        let observe = ObserveConfig {
            traced: true,
            trace_sample: Some(2),
            metrics: true,
        };
        let seeds: Vec<u64> = (0..4).map(|i| job_seed(11, i)).collect();
        let job = |i: usize, tracer: Tracer| {
            let track = tracer.register_track("test", "job");
            tracer.counter(
                simcore::SimTime::ZERO,
                track,
                "test",
                tracer.intern("i"),
                i as f64,
            );
            i
        };
        let items: Vec<usize> = (0..4).collect();
        let mut whole = Observations::new(&observe, 11, &seeds);
        let (all, _) = whole.run_map("m", 2, &items, |i| format!("j{i}"), |i, _, t| job(i, t));
        let mut split = Observations::new(&observe, 11, &seeds);
        let (head, _) = split.run_map(
            "m",
            2,
            &items[..3],
            |i| format!("j{i}"),
            |i, _, t| job(i, t),
        );
        let last = split.run(3, "j3".to_owned(), |t| job(3, t));
        assert_eq!(all, [head, vec![last]].concat());
        assert_eq!(whole.trace_json(), split.trace_json());
        assert_eq!(whole.metrics_text(), split.metrics_text());
    }

    #[test]
    fn labeled_filters_outcomes() {
        let result = run_sweep("lbl", demo_jobs(), 5, 2);
        assert_eq!(result.labeled("SC2-CF2/r0").len(), 1);
        assert_eq!(result.labeled("nope").len(), 0);
    }
}
