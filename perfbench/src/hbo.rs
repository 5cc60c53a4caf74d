//! The two HBO workloads: `paper_cold` (cold activations on the four
//! paper scenarios) and `replan_warm` (a re-planning stream against one
//! warm-start cache).
//!
//! The untraced pass calls `run_hbo` / `run_hbo_warm`. The traced pass
//! replays every activation from the public calls those functions make —
//! `MarApp::new` / `apply` / `measure_for_secs` and
//! `HboController::incumbent_point` / `next_point` / `observe` — timing
//! each call, and its rows must equal the untraced rows bit for bit.

use std::hint::black_box;
use std::time::Instant;

use hbo_core::{BoConfig, HboConfig, HboController, HboPoint, StoredConfig, WarmCache};
use marsim::experiment::{run_hbo, CONTROL_PERIOD_SECS};
use marsim::{
    run_hbo_warm, scenario_signature, HboRunResult, MarApp, ScenarioSpec, TelemetrySummary,
};
use nnmodel::Delegate;
use simcore::rand::{Rng, SeedableRng, StdRng};
use simcore::rng::mix;

use crate::probe::{elapsed_ns, Probe, Span};
use crate::stats::median;
use crate::{LayerMetrics, Pass, Traced};

/// Simulated warm-up before an activation's first window, in seconds
/// (the length `run_hbo` uses; the replay check fails if it drifts).
pub const WARMUP_SECS: f64 = 1.0;

/// Cold activations per scenario per requested second, sized so one
/// `paper_cold` pass takes about `--seconds` on a 2-core x86-64 host.
const PAPER_SEEDS_PER_SEC: f64 = 22.0;

/// Warm-stream activations per requested second (same sizing rule).
const REPLAN_ACTIVATIONS_PER_SEC: f64 = 190.0;

/// User-distance scales of the re-planning stream: a factor of two per
/// step moves the render-load band of every scenario, so the four paper
/// scenarios give twelve distinct warm-cache signatures.
const DISTANCE_SCALES: [f64; 3] = [1.0, 2.0, 4.0];

/// The published converged triangle ratio of each paper scenario.
const PAPER_X: [(&str, f64); 4] = [
    ("SC1-CF1", 0.72),
    ("SC2-CF1", 1.00),
    ("SC1-CF2", 0.85),
    ("SC2-CF2", 0.94),
];

/// Renders an activation as one row, every float by its bits.
pub fn row(r: &HboRunResult) -> String {
    let mut out = r.scenario.clone();
    for rec in &r.records {
        let alloc: String = rec.point.allocation.iter().map(|d| d.letter()).collect();
        out.push_str(&format!("|{alloc}"));
        for v in rec.point.z.iter().chain(&rec.point.c) {
            out.push_str(&format!(":{:016x}", v.to_bits()));
        }
        for v in [rec.point.x, rec.quality, rec.epsilon, rec.cost] {
            out.push_str(&format!(":{:016x}", v.to_bits()));
        }
    }
    out.push_str(&format!("|best={:016x}|trace=", r.best.cost.to_bits()));
    for c in &r.best_cost_trace {
        out.push_str(&format!("{:016x},", c.to_bits()));
    }
    out.push('|');
    out.push_str(&r.telemetry.to_json());
    out
}

/// Structural check of one activation: the iteration budget, a
/// consistent best and best-cost trace, feasible points, finite
/// measurements, and a running SoC.
pub fn activation_ok(r: &HboRunResult, config: &HboConfig, seeded: usize) -> bool {
    let n = r.records.len();
    let min_cost = r
        .records
        .iter()
        .map(|x| x.cost)
        .fold(f64::INFINITY, f64::min);
    let trace_ok = r.best_cost_trace.len() == n
        && r.best_cost_trace.windows(2).all(|w| w[1] <= w[0])
        && r.best_cost_trace.last() == Some(&min_cost);
    let points_ok = r.records.iter().all(|rec| {
        let p = &rec.point;
        let c_sum: f64 = p.c.iter().sum();
        (c_sum - 1.0).abs() < 1e-9
            && (config.r_min - 1e-12..=1.0 + 1e-12).contains(&p.x)
            && rec.quality.is_finite()
            && rec.epsilon.is_finite()
            && rec.cost.is_finite()
    });
    n == config.n_initial + config.iterations
        && r.telemetry.bo_suggests as usize == n - seeded
        && r.best.cost == min_cost
        && trace_ok
        && points_ok
        && soc_jobs(&r.telemetry) > 0
}

/// Processor completions summed over the SoC.
fn soc_jobs(t: &TelemetrySummary) -> u64 {
    t.processors.iter().map(|p| p.completed).sum()
}

/// Simulated session-seconds of one activation.
pub fn sim_secs(r: &HboRunResult) -> f64 {
    WARMUP_SECS + CONTROL_PERIOD_SECS * r.records.len() as f64
}

/// The configuration `run_hbo_warm` refines a cached seed with:
/// [`BoConfig::warm_default`] and at most two random design points.
fn warm_config(cold: &HboConfig) -> HboConfig {
    HboConfig {
        n_initial: cold.n_initial.min(2),
        bo: BoConfig::warm_default(),
        ..cold.clone()
    }
}

/// Replays one activation from public calls, timing each call. With a
/// warm seed, the cached configuration is observed as one extra window
/// right after the incumbent. Also returns the SoC's processor
/// completions inside the measured windows.
pub fn replay(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
    warm_seed: Option<&StoredConfig>,
    probe: &mut Probe,
) -> (HboRunResult, u64) {
    let (mut app, warmup_jobs) = probe.time(Span::AppSetup, || {
        let mut app = MarApp::new(spec);
        app.place_all_objects();
        app.run_for_secs(WARMUP_SECS);
        let jobs = soc_jobs(&app.telemetry());
        (app, jobs)
    });
    let mut hbo = probe.time(Span::Core, || {
        HboController::new(spec.profiles(), config.clone())
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let incumbent = probe.time(Span::Core, || {
        hbo.incumbent_point(app.allocation(), app.scene().overall_ratio().min(1.0))
    });
    window(&mut app, &mut hbo, incumbent, probe);
    let mut seeded = 1;
    if let Some(stored) = warm_seed {
        let mut z = stored.c.clone();
        z.push(stored.x);
        let point = HboPoint {
            z,
            c: stored.c.clone(),
            x: stored.x,
            allocation: stored.allocation.clone(),
        };
        window(&mut app, &mut hbo, point, probe);
        seeded += 1;
    }
    while !hbo.is_done() {
        let point = probe.time(Span::Suggest, || hbo.next_point(&mut rng));
        window(&mut app, &mut hbo, point, probe);
    }
    let run = probe.time(Span::Core, || {
        let mut telemetry = app.telemetry();
        telemetry.bo_suggests = (hbo.completed_iterations() - seeded) as u64;
        HboRunResult {
            scenario: spec.name.clone(),
            best_cost_trace: hbo.best_cost_trace(),
            records: hbo.records().to_vec(),
            best: hbo.best().expect("an activation observes a window").clone(),
            telemetry,
        }
    });
    let window_jobs = soc_jobs(&run.telemetry) - warmup_jobs;
    (run, window_jobs)
}

/// One control window: apply, measure, observe.
fn window(app: &mut MarApp, hbo: &mut HboController, point: HboPoint, probe: &mut Probe) {
    probe.time(Span::Apply, || app.apply(&point));
    let m = probe.time(Span::Measure, || app.measure_for_secs(CONTROL_PERIOD_SECS));
    probe.time(Span::Observe, || hbo.observe(point, m.quality, m.epsilon));
}

/// Builds and places every scenario's app once: the set-up a planning
/// process pays before its first activation.
fn build_apps(specs: &[ScenarioSpec]) {
    for spec in specs {
        let mut app = MarApp::new(spec);
        app.place_all_objects();
        black_box(app.now());
    }
}

/// Per-layer metrics shared by both HBO workloads.
fn hbo_layers(probe: &Probe, window_jobs: u64, plan_ns: &[u64], m: &mut LayerMetrics) {
    let suggest = probe.us(Span::Suggest);
    m.set("bayesopt.suggest_us_p50", median(&suggest));
    m.set_tail("bayesopt.suggest_us_tail", &suggest);
    m.set("bayesopt.suggest_calls", suggest.len() as f64);
    m.set("core.observe_us_p50", median(&probe.us(Span::Observe)));
    let plan_ms: Vec<f64> = plan_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    m.set("core.plan_p50_ms", median(&plan_ms));
    m.set_tail("core.plan_tail_ms", &plan_ms);
    m.set("arscene.apply_us_p50", median(&probe.us(Span::Apply)));
    m.set("marsim.app_setup_us", median(&probe.us(Span::AppSetup)));
    let measure_ns = probe.total_ns(Span::Measure) as f64;
    let windows = probe.samples(Span::Measure).len() as f64;
    m.set(
        "soc.ms_per_sim_s",
        measure_ns / 1e6 / (windows * CONTROL_PERIOD_SECS),
    );
    m.set("soc.jobs", window_jobs as f64);
    m.set("soc.ns_per_job", measure_ns / window_jobs as f64);
    m.layer("bayesopt.share", probe.total_ns(Span::Suggest));
    m.layer(
        "core.share",
        probe.total_ns(Span::Core) + probe.total_ns(Span::Observe),
    );
    m.layer("arscene.share", probe.total_ns(Span::Apply));
    m.layer("soc.share", probe.total_ns(Span::Measure));
    m.layer("marsim.share", probe.total_ns(Span::AppSetup));
}

/// Mean over the paper scenarios of |median converged x − published x|;
/// `None` unless every scenario has an activation.
fn paper_x_mae(results: &[HboRunResult]) -> Option<f64> {
    let mut total = 0.0;
    for &(name, paper) in &PAPER_X {
        let xs: Vec<f64> = results
            .iter()
            .filter(|r| r.scenario == name)
            .map(|r| r.best.point.x)
            .collect();
        if xs.is_empty() {
            return None;
        }
        total += (median(&xs) - paper).abs();
    }
    Some(total / PAPER_X.len() as f64)
}

/// `paper_cold`: cold activations of the paper's loop.
pub struct Paper {
    specs: Vec<ScenarioSpec>,
    config: HboConfig,
    /// `(scenario index, activation seed)` per job.
    jobs: Vec<(usize, u64)>,
}

impl Paper {
    /// Builds the batch for `seconds` of work from `seed`.
    pub fn setup(seed: u64, seconds: u64) -> Paper {
        let specs = ScenarioSpec::all_four();
        build_apps(&specs);
        let per_scenario = ((seconds as f64 * PAPER_SEEDS_PER_SEC).round() as usize).max(1);
        let jobs = (0..per_scenario * specs.len())
            .map(|i| (i % specs.len(), mix(seed, i as u64)))
            .collect();
        Paper {
            specs,
            config: HboConfig::default(),
            jobs,
        }
    }

    /// The untraced pass over the first `limit` jobs: `run_hbo` per job.
    pub fn run(&self, limit: usize) -> Pass {
        let mut pass = Pass::default();
        let mut results = Vec::with_capacity(self.jobs.len());
        for &(s, seed) in self.jobs.iter().take(limit) {
            let start = Instant::now();
            let r = run_hbo(&self.specs[s], &self.config, seed);
            pass.job(elapsed_ns(start), sim_secs(&r));
            pass.row(row(&r), activation_ok(&r, &self.config, 1));
            results.push(r);
        }
        if let Some(mae) = paper_x_mae(&results) {
            eprintln!("paper_cold: paper_x_mae={mae:.6}");
        }
        pass
    }

    /// The traced pass: every activation replayed from public calls.
    pub fn traced(&self) -> Traced {
        let mut probe = Probe::default();
        let mut traced = Traced::default();
        let mut results = Vec::with_capacity(self.jobs.len());
        let mut plan_ns = Vec::with_capacity(self.jobs.len());
        let mut window_jobs = 0;
        for &(s, seed) in &self.jobs {
            let start = Instant::now();
            let (r, jobs) = replay(&self.specs[s], &self.config, seed, None, &mut probe);
            plan_ns.push(elapsed_ns(start));
            window_jobs += jobs;
            traced.rows.push(row(&r));
            results.push(r);
        }
        traced.wall_ns = plan_ns.iter().sum();
        let m = &mut traced.metrics;
        hbo_layers(&probe, window_jobs, &plan_ns, m);
        m.set(
            "core.paper_x_mae",
            paper_x_mae(&results).expect("the batch covers every scenario"),
        );
        traced
    }
}

/// `replan_warm`: a long-lived re-planning stream over twelve operating
/// points, sharing one warm-start cache that starts empty.
pub struct Replan {
    specs: Vec<ScenarioSpec>,
    config: HboConfig,
    /// `(operating point, activation seed, expect a warm hit)` per job.
    jobs: Vec<(usize, u64, bool)>,
}

impl Replan {
    /// Builds the stream for `seconds` of work from `seed`: every round
    /// visits the twelve operating points in one seeded order.
    pub fn setup(seed: u64, seconds: u64) -> Replan {
        let specs: Vec<ScenarioSpec> = ScenarioSpec::all_four()
            .into_iter()
            .flat_map(|base| {
                DISTANCE_SCALES.iter().map(move |&k| {
                    let mut spec = base.clone();
                    spec.name = format!("{}@{k}x", base.name);
                    spec.user_distance *= k;
                    spec
                })
            })
            .collect();
        let mut sigs: Vec<_> = specs.iter().map(scenario_signature).collect();
        sigs.sort();
        sigs.dedup();
        assert_eq!(
            sigs.len(),
            specs.len(),
            "operating points share a signature"
        );
        build_apps(&specs);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5E9_1A4));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let n = ((seconds as f64 * REPLAN_ACTIVATIONS_PER_SEC).round() as usize).max(1);
        // The first round visits every point cold; every later job hits.
        let jobs = (0..n)
            .map(|i| {
                (
                    order[i % order.len()],
                    mix(seed, i as u64),
                    i >= order.len(),
                )
            })
            .collect();
        Replan {
            specs,
            config: HboConfig::default(),
            jobs,
        }
    }

    /// The untraced pass over the first `limit` jobs: `run_hbo_warm` per
    /// job on one cache.
    pub fn run(&self, limit: usize) -> Pass {
        let mut pass = Pass::default();
        let mut cache = WarmCache::new();
        let warm = warm_config(&self.config);
        for &(p, seed, expect_hit) in self.jobs.iter().take(limit) {
            let start = Instant::now();
            let w = run_hbo_warm(&self.specs[p], &self.config, seed, &mut cache);
            pass.job(elapsed_ns(start), sim_secs(&w.run));
            let ok = if w.warm_hit {
                activation_ok(&w.run, &warm, 2)
            } else {
                activation_ok(&w.run, &self.config, 1)
            };
            pass.row(
                format!("{}|hit={}", row(&w.run), w.warm_hit),
                ok && w.warm_hit == expect_hit,
            );
        }
        pass
    }

    /// The traced pass: each activation replayed from public calls, with
    /// the cache lookup and store done here.
    pub fn traced(&self) -> Traced {
        let mut probe = Probe::default();
        let mut traced = Traced::default();
        let mut cache = WarmCache::new();
        let warm = warm_config(&self.config);
        let mut plan_ns = Vec::with_capacity(self.jobs.len());
        let (mut hits, mut window_jobs) = (0, 0);
        for &(p, seed, _) in &self.jobs {
            let spec = &self.specs[p];
            let start = Instant::now();
            let (sig, stored) = probe.time(Span::Core, || {
                // A cached seed is usable only in a search space of its
                // own dimension: three resources, or four with Edge.
                let dim = if spec.profiles().iter().any(|t| t.supports(Delegate::Edge)) {
                    Delegate::COUNT
                } else {
                    Delegate::COUNT - 1
                };
                let sig = scenario_signature(spec);
                let stored = cache.find(&sig).filter(|s| s.c.len() == dim).cloned();
                (sig, stored)
            });
            let config = if stored.is_some() {
                &warm
            } else {
                &self.config
            };
            let (mut r, jobs) = replay(spec, config, seed, stored.as_ref(), &mut probe);
            let hit = stored.is_some();
            probe.time(Span::Core, || {
                r.telemetry.warm_hits = hit as u64;
                r.telemetry.warm_misses = !hit as u64;
                cache.store(
                    sig,
                    StoredConfig {
                        c: r.best.point.c.clone(),
                        x: r.best.point.x,
                        allocation: r.best.point.allocation.clone(),
                        reward: -r.best.cost,
                    },
                );
            });
            plan_ns.push(elapsed_ns(start));
            hits += usize::from(hit);
            window_jobs += jobs;
            traced.rows.push(format!("{}|hit={hit}", row(&r)));
        }
        traced.wall_ns = plan_ns.iter().sum();
        let m = &mut traced.metrics;
        hbo_layers(&probe, window_jobs, &plan_ns, m);
        m.set("core.warm_hit_ratio", hits as f64 / plan_ns.len() as f64);
        traced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay check at smoke size: a traced pass over a few cold and
    /// warm activations reproduces `run_hbo` / `run_hbo_warm` bit for bit.
    #[test]
    fn replay_equals_the_entry_points_at_smoke_size() {
        let paper = Paper {
            jobs: vec![(0, 11), (1, 12), (2, 13), (3, 14)],
            ..Paper::setup(2024, 1)
        };
        let pass = paper.run(usize::MAX);
        assert!(pass.ok.iter().all(|&ok| ok));
        assert_eq!(paper.traced().rows, pass.rows);

        let mut replan = Replan::setup(2024, 1);
        replan.jobs = vec![(5, 1, false), (5, 2, true), (7, 3, false), (5, 4, true)];
        let pass = replan.run(usize::MAX);
        assert!(pass.ok.iter().all(|&ok| ok), "structural check failed");
        assert!(pass.rows[1].ends_with("|hit=true"));
        assert!(pass.rows[2].ends_with("|hit=false"));
        let traced = replan.traced();
        assert_eq!(traced.rows, pass.rows);
        assert_eq!(traced.metrics.get("core.warm_hit_ratio"), 0.5);
    }

    #[test]
    fn a_changed_replay_is_caught() {
        // A replay that drifts from the entry point (here: a different
        // activation seed) produces a different row.
        let spec = ScenarioSpec::sc1_cf1();
        let config = HboConfig::default();
        let reference = row(&run_hbo(&spec, &config, 5));
        let mut probe = Probe::default();
        assert_eq!(
            row(&replay(&spec, &config, 5, None, &mut probe).0),
            reference
        );
        assert_ne!(
            row(&replay(&spec, &config, 6, None, &mut probe).0),
            reference
        );
    }
}
