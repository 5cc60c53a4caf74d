//! Timing from outside the program: wall-clock spans around calls into
//! each layer's public functions, and the process's CPU time and peak
//! memory from `/proc`.

use std::time::Instant;

/// A timed call site. Each names the public function(s) it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `MarApp::new`, `place_all_objects` and the warm-up run (marsim).
    AppSetup,
    /// `HboController::new`, `incumbent_point`, the warm-cache lookup and
    /// store, and collecting the activation's result (core).
    Core,
    /// `HboController::next_point` (bayesopt suggest plus allocation).
    Suggest,
    /// `HboController::observe` (core).
    Observe,
    /// `MarApp::apply`: allocation plus triangle distribution (arscene).
    Apply,
    /// `MarApp::measure_for_secs` (soc).
    Measure,
    /// `FleetSpec::sessions` (marsim).
    Sessions,
    /// `run_fleet_cell` without observers (marsim sessions + edgelink cluster).
    CellUnmetered,
    /// `run_fleet_cell_traced` under the aggregating sink.
    CellMetered,
    /// `MetricsBuffer::merge` (simcore).
    Merge,
    /// `MetricsBuffer::render_prometheus` (simcore).
    Render,
    /// `run_mobility_cell` (edgelink cluster over the shared medium).
    Mobility,
    /// `run_edge_hbo` on a shared-cell `EdgeWorld` (soc, bayesopt and the
    /// single-server edge simulator).
    EdgeHbo,
    /// `evaluate_fixed_edge` (edgelink edge world).
    EdgeEval,
}

impl Span {
    const COUNT: usize = Span::EdgeEval as usize + 1;
}

/// Wall-clock samples per span, in nanoseconds.
#[derive(Debug)]
pub struct Probe {
    samples: Vec<Vec<u64>>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            samples: vec![Vec::new(); Span::COUNT],
        }
    }
}

impl Probe {
    /// Runs `f`, recording its wall time under `span`.
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.samples[span as usize].push(elapsed_ns(start));
        out
    }

    /// Every sample of `span`, in call order.
    pub fn samples(&self, span: Span) -> &[u64] {
        &self.samples[span as usize]
    }

    /// Summed wall time of `span`, in nanoseconds.
    pub fn total_ns(&self, span: Span) -> u64 {
        self.samples(span).iter().sum()
    }

    /// Samples of `span` in microseconds.
    pub fn us(&self, span: Span) -> Vec<f64> {
        self.samples(span)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect()
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks; Linux reports
/// them at a fixed 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("stat time fields are integers") as f64
    };
    // Field 3 (state) is index 0 here, so fields 14 and 15 are 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status reports VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_each_call() {
        let mut p = Probe::default();
        let v = p.time(Span::Suggest, || 41 + 1);
        p.time(Span::Suggest, || ());
        assert_eq!(v, 42);
        assert_eq!(p.samples(Span::Suggest).len(), 2);
        assert!(p.samples(Span::Observe).is_empty());
        assert_eq!(p.total_ns(Span::Observe), 0);
    }

    #[test]
    fn process_readers_report_positive_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
