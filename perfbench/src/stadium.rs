//! `stadium_shared`: the stadium sweep's two halves. A walking fleet
//! crosses a two-cell shared medium (`run_mobility_cell`), and crowds of
//! growing size share one contended cell, each planned by an edge HBO
//! activation whose best configuration is then re-measured on a fresh
//! world (`run_edge_hbo` plus `evaluate_fixed_edge`, the work of one
//! `stadium_cell`).

use std::hint::black_box;
use std::time::Instant;

use edgelink::SharedCell;
use hbo_core::HboConfig;
use marsim::edge::{evaluate_fixed_edge, run_edge_hbo, EdgeMeasurement, EdgeSpec, EdgeWorld};
use marsim::experiment::CONTROL_PERIOD_SECS;
use marsim::{run_mobility_cell, FleetSpec, HboRunResult, ScenarioSpec};
use simcore::rng::mix;

use crate::fleet::RequestTotals;
use crate::hbo::{activation_ok, row as hbo_row, sim_secs, WARMUP_SECS};
use crate::probe::{elapsed_ns, Probe, Span};
use crate::stats::median;
use crate::{field, Pass, Traced};

/// Sessions walking across the two-cell medium.
const WALKERS: usize = 256;

/// Crowd sizes sharing the stadium cell: a handful, where offloading
/// pays, up to a crowd where HBO falls back to local inference.
const CROWDS: [usize; 4] = [2, 8, 32, 64];

/// Rounds (one cell per crowd size, then one mobility cell) per requested
/// second, sized so one pass takes about `--seconds` on a 2-core x86-64
/// host.
const ROUNDS_PER_SEC: f64 = 0.4;

/// Simulated length of `evaluate_fixed_edge`: warm-up plus two control
/// periods.
const EVAL_SECS: f64 = WARMUP_SECS + 2.0 * CONTROL_PERIOD_SECS;

#[derive(Clone, Copy)]
enum Job {
    /// The mobility cell with this seed.
    Walk(u64),
    /// A crowd cell: index into the crowd specs, and the seed.
    Crowd(usize, u64),
}

/// Renders a re-measurement, every float by its bits.
fn measurement_row(m: &EdgeMeasurement) -> String {
    let mut out = format!(
        "q={:016x}:eps={:016x}:ms=",
        m.quality.to_bits(),
        m.epsilon.to_bits()
    );
    for v in &m.per_task_ms {
        out.push_str(&format!("{:016x},", v.to_bits()));
    }
    match &m.edge {
        Some(e) => out.push_str(&format!(
            "|edge:{}:{}:{:016x}",
            e.completed,
            e.rejected,
            e.avg_busy_lanes.to_bits()
        )),
        None => out.push_str("|local"),
    }
    out
}

/// A crowd cell's row and structural check.
fn crowd_row(h: &HboRunResult, m: &EdgeMeasurement, config: &HboConfig) -> (String, bool) {
    let ok =
        activation_ok(h, config, 1) && m.quality > 0.0 && m.quality <= 1.0 && m.epsilon.is_finite();
    (format!("{}#{}", hbo_row(h), measurement_row(m)), ok)
}

/// A mobility row's structural check: sessions walked across the cell
/// boundary, the medium re-solved its allocation, and no more completed
/// than was submitted.
fn walk_ok(row: &str, reallocs: u64) -> bool {
    let got = |k| field(row, k).unwrap_or(0.0);
    got("handovers") > 0.0
        && reallocs > 0
        && got("submitted") > 0.0
        && got("completed") <= got("submitted")
}

/// `stadium_shared`'s batch.
pub struct Stadium {
    walkers: FleetSpec,
    crowds: Vec<(usize, ScenarioSpec)>,
    config: HboConfig,
    jobs: Vec<Job>,
}

impl Stadium {
    /// Builds the batch for `seconds` of work from `seed`.
    pub fn setup(seed: u64, seconds: u64) -> Stadium {
        let walkers = FleetSpec::mar_default(WALKERS);
        assert!(!walkers.sessions(seed).is_empty(), "an empty population");
        let crowds: Vec<(usize, ScenarioSpec)> = CROWDS
            .iter()
            .map(|&n| {
                let edge = EdgeSpec::wifi(n).with_shared_cell(SharedCell::stadium());
                (n, ScenarioSpec::sc1_cf2().with_edge(edge))
            })
            .collect();
        for (_, spec) in &crowds {
            let mut world = EdgeWorld::new(spec, seed);
            world.place_all_objects();
            black_box(world.allocation());
        }
        let rounds = ((seconds as f64 * ROUNDS_PER_SEC).round() as usize).max(1);
        let mut jobs = Vec::new();
        for _ in 0..rounds {
            for c in 0..crowds.len() {
                jobs.push(Job::Crowd(c, mix(seed, jobs.len() as u64)));
            }
            jobs.push(Job::Walk(mix(seed, jobs.len() as u64)));
        }
        Stadium {
            walkers,
            crowds,
            config: HboConfig::default(),
            jobs,
        }
    }

    /// Simulated session-seconds of a crowd cell.
    fn crowd_sim_secs(&self, c: usize, h: &HboRunResult) -> f64 {
        self.crowds[c].0 as f64 * (sim_secs(h) + EVAL_SECS)
    }

    /// Simulated session-seconds of a mobility cell (computed outside
    /// the timed call).
    fn walk_sim_secs(&self, seed: u64) -> f64 {
        self.walkers.client_windows(&self.walkers.sessions(seed))
    }

    /// The untraced pass over the first `limit` jobs.
    pub fn run(&self, limit: usize) -> Pass {
        let mut pass = Pass::default();
        for &job in self.jobs.iter().take(limit) {
            match job {
                Job::Walk(seed) => {
                    let start = Instant::now();
                    let r = run_mobility_cell(&self.walkers, seed);
                    pass.job(elapsed_ns(start), self.walk_sim_secs(seed));
                    let ok = walk_ok(&r.row, r.telemetry.medium_reallocs);
                    pass.row(r.row, ok);
                }
                Job::Crowd(c, seed) => {
                    let spec = &self.crowds[c].1;
                    let start = Instant::now();
                    let h = run_edge_hbo(spec, &self.config, seed);
                    let m = evaluate_fixed_edge(
                        spec,
                        &h.best.point.allocation,
                        h.best.point.x,
                        mix(seed, 1),
                    );
                    pass.job(elapsed_ns(start), self.crowd_sim_secs(c, &h));
                    let (row, ok) = crowd_row(&h, &m, &self.config);
                    pass.row(row, ok);
                }
            }
        }
        pass
    }

    /// The traced pass: the same calls, each timed.
    pub fn traced(&self) -> Traced {
        let mut probe = Probe::default();
        let mut traced = Traced::default();
        let (mut reallocs, mut handovers) = (0.0, 0.0);
        let mut requests = RequestTotals::default();
        for &job in &self.jobs {
            let start = Instant::now();
            match job {
                Job::Walk(seed) => {
                    let r = probe.time(Span::Mobility, || run_mobility_cell(&self.walkers, seed));
                    reallocs += r.telemetry.medium_reallocs as f64;
                    handovers += r.telemetry.cluster_handovers as f64;
                    requests.add(&r.row);
                    traced.rows.push(r.row);
                }
                Job::Crowd(c, seed) => {
                    let spec = &self.crowds[c].1;
                    let h = probe.time(Span::EdgeHbo, || run_edge_hbo(spec, &self.config, seed));
                    let m = probe.time(Span::EdgeEval, || {
                        evaluate_fixed_edge(
                            spec,
                            &h.best.point.allocation,
                            h.best.point.x,
                            mix(seed, 1),
                        )
                    });
                    traced.rows.push(crowd_row(&h, &m, &self.config).0);
                }
            }
            traced.wall_ns += elapsed_ns(start);
        }
        let mobility = probe.total_ns(Span::Mobility);
        let edge = probe.total_ns(Span::EdgeHbo) + probe.total_ns(Span::EdgeEval);
        let ms = |span| -> Vec<f64> { probe.us(span).iter().map(|us| us / 1e3).collect() };

        let m = &mut traced.metrics;
        m.set("edgelink.medium_ns_per_realloc", mobility as f64 / reallocs);
        m.set("edgelink.medium_reallocs", reallocs);
        m.set("edgelink.handovers", handovers);
        requests.record(m);
        m.set("edgelink.edge_hbo_ms", median(&ms(Span::EdgeHbo)));
        m.set("edgelink.edge_eval_ms", median(&ms(Span::EdgeEval)));
        m.layer("edgelink.medium_share", mobility);
        m.layer("edgelink.edge_share", edge);
        traced
    }
}
