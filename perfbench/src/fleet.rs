//! `fleet_metered`: fleet cells served by the four-server cluster, each
//! run under the aggregating metrics sink, with the per-cell metrics
//! buffers merged and rendered at the end.
//!
//! The traced pass also runs every cell without observers and generates
//! its sessions alone. That splits a metered cell into session
//! generation (marsim), the cluster simulator (edgelink) and the sink
//! (simcore), and checks that metering leaves every row unchanged.

use std::time::Instant;

use edgelink::RoutePolicy;
use marsim::{run_fleet_cell, run_fleet_cell_traced, FleetCellResult, FleetSpec};
use simcore::metrics::{with_observers, MetricsBuffer};
use simcore::rng::mix;

use crate::probe::{elapsed_ns, Probe, Span};
use crate::stats::median;
use crate::{field, LayerMetrics, Pass, Traced};

/// Fleet sizes: near the cluster's capacity, and far past it.
const FLEETS: [usize; 2] = [256, 1024];

/// Rounds of the eight-cell grid per requested second, sized so one
/// pass takes about `--seconds` on a 2-core x86-64 host.
const ROUNDS_PER_SEC: f64 = 0.2;

/// One metered cell: the row and the cell's metrics buffer.
fn metered(spec: &FleetSpec, policy: RoutePolicy, seed: u64) -> (FleetCellResult, MetricsBuffer) {
    let (r, _, m) = with_observers(false, true, |tracer| {
        run_fleet_cell_traced(spec, policy, seed, tracer)
    });
    (r, m.expect("a metered run returns its buffer"))
}

/// Structural check of a fleet row: work was offered, and no more
/// completed than was submitted.
fn cell_ok(row: &str) -> bool {
    match (field(row, "submitted"), field(row, "completed")) {
        (Some(s), Some(c)) => s > 0.0 && c > 0.0 && c <= s,
        _ => false,
    }
}

/// Request counters summed over cluster rows.
#[derive(Debug, Default)]
pub struct RequestTotals {
    submitted: f64,
    completed: f64,
    rejects: f64,
    retransmits: f64,
}

impl RequestTotals {
    /// Adds one row's counters.
    pub fn add(&mut self, row: &str) {
        let get = |k| field(row, k).unwrap_or(0.0);
        self.submitted += get("submitted");
        self.completed += get("completed");
        self.rejects += get("rejects");
        self.retransmits += get("retransmits");
    }

    /// Sets the `edgelink` request metrics.
    pub fn record(&self, m: &mut LayerMetrics) {
        m.set("edgelink.submitted", self.submitted);
        m.set("edgelink.completed_ratio", self.completed / self.submitted);
        m.set("edgelink.rejects", self.rejects);
        m.set("edgelink.retransmits", self.retransmits);
    }
}

/// Number of span and counter series in a buffer.
fn series(m: &MetricsBuffer) -> usize {
    m.spans.len() + m.counters.len()
}

/// `fleet_metered`'s batch.
pub struct Fleet {
    specs: Vec<FleetSpec>,
    /// `(fleet index, policy, cell seed)` per job.
    jobs: Vec<(usize, RoutePolicy, u64)>,
}

impl Fleet {
    /// Builds the batch for `seconds` of work from `seed`.
    pub fn setup(seed: u64, seconds: u64) -> Fleet {
        let specs: Vec<FleetSpec> = FLEETS.iter().map(|&n| FleetSpec::mar_default(n)).collect();
        for (i, spec) in specs.iter().enumerate() {
            assert!(
                !spec.sessions(mix(seed, i as u64)).is_empty(),
                "an empty population"
            );
        }
        let rounds = ((seconds as f64 * ROUNDS_PER_SEC).round() as usize).max(1);
        let grid: Vec<(usize, RoutePolicy)> = (0..specs.len())
            .flat_map(|f| RoutePolicy::ALL.iter().map(move |&p| (f, p)))
            .collect();
        let jobs = (0..rounds * grid.len())
            .map(|i| {
                let (f, p) = grid[i % grid.len()];
                (f, p, mix(seed, i as u64))
            })
            .collect();
        Fleet { specs, jobs }
    }

    /// The untraced pass over the first `limit` cells: metered cells, then
    /// the merged exposition.
    pub fn run(&self, limit: usize) -> Pass {
        let mut pass = Pass::default();
        let mut merged = MetricsBuffer::default();
        for &(f, policy, seed) in self.jobs.iter().take(limit) {
            let start = Instant::now();
            let (r, m) = metered(&self.specs[f], policy, seed);
            merged.merge(&m);
            pass.job(
                elapsed_ns(start),
                field(&r.row, "client_windows").unwrap_or(0.0),
            );
            let ok = cell_ok(&r.row) && series(&m) > 0;
            pass.row(r.row, ok);
        }
        let start = Instant::now();
        let text = merged.render_prometheus();
        pass.extra_ns += elapsed_ns(start);
        pass.row(text, series(&merged) > 0);
        pass
    }

    /// The traced pass: per cell, the sessions alone, the unmetered cell
    /// and the metered cell (in alternating order), then merge and render.
    pub fn traced(&self) -> Traced {
        let mut probe = Probe::default();
        let mut traced = Traced::default();
        let mut merged = MetricsBuffer::default();
        let mut requests = RequestTotals::default();
        let start = Instant::now();
        for (i, &(f, policy, seed)) in self.jobs.iter().enumerate() {
            let spec = &self.specs[f];
            probe.time(Span::Sessions, || spec.sessions(seed));
            let (plain, (r, m)) = if i % 2 == 0 {
                let plain = probe.time(Span::CellUnmetered, || run_fleet_cell(spec, policy, seed));
                (
                    plain,
                    probe.time(Span::CellMetered, || metered(spec, policy, seed)),
                )
            } else {
                let rm = probe.time(Span::CellMetered, || metered(spec, policy, seed));
                (
                    probe.time(Span::CellUnmetered, || run_fleet_cell(spec, policy, seed)),
                    rm,
                )
            };
            probe.time(Span::Merge, || merged.merge(&m));
            requests.add(&r.row);
            // Metering must not change a single byte of the row.
            traced.ok.push(plain.row == r.row);
            traced.rows.push(r.row);
        }
        let text = probe.time(Span::Render, || merged.render_prometheus());
        traced.ok.push(true);
        traced.rows.push(text);
        traced.wall_ns = elapsed_ns(start);
        let sessions = probe.total_ns(Span::Sessions);
        let plain = probe.total_ns(Span::CellUnmetered);
        let metered = probe.total_ns(Span::CellMetered);
        traced.control_ns = sessions + plain;
        let sink = metered.saturating_sub(plain);
        let cluster = plain.saturating_sub(sessions);
        let simcore = sink + probe.total_ns(Span::Merge) + probe.total_ns(Span::Render);

        let m = &mut traced.metrics;
        let sessions_ms: Vec<f64> = probe.us(Span::Sessions).iter().map(|us| us / 1e3).collect();
        m.set("marsim.sessions_ms", median(&sessions_ms));
        requests.record(m);
        m.set(
            "edgelink.cluster_ns_per_request",
            cluster as f64 / requests.submitted,
        );
        m.set("simcore.sink_share", sink as f64 / metered as f64);
        m.set(
            "simcore.sink_ns_per_request",
            sink as f64 / requests.submitted,
        );
        m.set(
            "simcore.metrics_merge_ms",
            probe.total_ns(Span::Merge) as f64 / 1e6,
        );
        m.set(
            "simcore.render_ms",
            probe.total_ns(Span::Render) as f64 / 1e6,
        );
        m.set("simcore.series", series(&merged) as f64);
        m.layer("marsim.share", sessions);
        m.layer("edgelink.cluster_share", cluster);
        m.layer("simcore.share", simcore);
        traced
    }
}
