//! The repository benchmark: one process per workload, on one thread.
//!
//! ```text
//! perfbench --workload <paper_cold|replan_warm|fleet_metered|stadium_shared|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--record-digests]
//! ```
//!
//! The process builds its workload's inputs from `--seed` (set-up, done
//! several times and reported as a median), then runs one fixed batch of
//! jobs sized to take about `--seconds` on a 2-core x86-64 host, and
//! checks every job's output. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it runs the batch again with every call into
//! a layer's public functions timed from outside, checks that the second
//! pass reproduced the first bit for bit, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; notes go
//! to standard error. See `README.md` beside this package.

mod digest;
mod fleet;
mod hbo;
mod probe;
mod stadium;
mod stats;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use digest::{Recorded, DEFAULT_SEED};
use probe::{cpu_seconds, elapsed_ns, peak_rss_mib};
use stats::{median, tail};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "paper_cold",
    "replan_warm",
    "fleet_metered",
    "stadium_shared",
];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("sim_s_per_s", "s/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("bayesopt.suggest_us_p50", "us"),
    ("bayesopt.suggest_us_tail", "us"),
    ("bayesopt.suggest_calls", "count"),
    ("bayesopt.share", "ratio"),
    ("core.warm_hit_ratio", "ratio"),
    ("core.observe_us_p50", "us"),
    ("core.plan_p50_ms", "ms"),
    ("core.plan_tail_ms", "ms"),
    ("core.paper_x_mae", "ratio"),
    ("core.share", "ratio"),
    ("arscene.apply_us_p50", "us"),
    ("arscene.share", "ratio"),
    ("soc.ms_per_sim_s", "ms/s"),
    ("soc.jobs", "count"),
    ("soc.ns_per_job", "ns"),
    ("soc.share", "ratio"),
    ("marsim.app_setup_us", "us"),
    ("marsim.sessions_ms", "ms"),
    ("marsim.share", "ratio"),
    ("edgelink.cluster_ns_per_request", "ns"),
    ("edgelink.submitted", "count"),
    ("edgelink.completed_ratio", "ratio"),
    ("edgelink.rejects", "count"),
    ("edgelink.retransmits", "count"),
    ("edgelink.cluster_share", "ratio"),
    ("edgelink.medium_ns_per_realloc", "ns"),
    ("edgelink.medium_reallocs", "count"),
    ("edgelink.handovers", "count"),
    ("edgelink.medium_share", "ratio"),
    ("edgelink.edge_hbo_ms", "ms"),
    ("edgelink.edge_eval_ms", "ms"),
    ("edgelink.edge_share", "ratio"),
    ("simcore.sink_share", "ratio"),
    ("simcore.sink_ns_per_request", "ns"),
    ("simcore.metrics_merge_ms", "ms"),
    ("simcore.render_ms", "ms"),
    ("simcore.series", "count"),
    ("simcore.share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
];

const USAGE: &str =
    "usage: perfbench --workload <paper_cold|replan_warm|fleet_metered|stadium_shared|all> \
[--seed N] [--seconds S] [--trace 0|1] [--record-digests]";

/// The outcome of an untraced pass over a workload's batch.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host wall time of each job, in nanoseconds.
    pub job_ns: Vec<u64>,
    /// Host wall time of batch-level work outside the jobs.
    pub extra_ns: u64,
    /// Simulated session-seconds the batch covered.
    pub sim_s: f64,
    /// One output row per checked operation.
    pub rows: Vec<String>,
    /// Whether each row passed its structural check.
    pub ok: Vec<bool>,
}

impl Pass {
    fn job(&mut self, ns: u64, sim_s: f64) {
        self.job_ns.push(ns);
        self.sim_s += sim_s;
    }

    fn row(&mut self, row: String, ok: bool) {
        self.rows.push(row);
        self.ok.push(ok);
    }

    fn wall_ns(&self) -> u64 {
        self.job_ns.iter().sum::<u64>() + self.extra_ns
    }
}

/// The outcome of a traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    /// Rows that must equal the untraced pass's, in order.
    pub rows: Vec<String>,
    /// Checks only the traced pass can make, per row (empty: none).
    pub ok: Vec<bool>,
    /// Host wall time of the traced pass.
    pub wall_ns: u64,
    /// Part of `wall_ns` spent on control runs the untraced pass does not
    /// make (the unmetered fleet cells and their session generation).
    pub control_ns: u64,
    /// Per-layer values and layer times.
    pub metrics: LayerMetrics,
}

/// Per-layer metric values plus the wall time attributed to each layer.
#[derive(Debug)]
pub struct LayerMetrics {
    values: Vec<f64>,
    layers: Vec<(&'static str, u64)>,
    notes: Vec<String>,
}

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics {
            values: vec![0.0; PER_LAYER.len()],
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }
}

fn layer_index(name: &str) -> usize {
    PER_LAYER
        .iter()
        .position(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

impl LayerMetrics {
    /// Sets one metric.
    fn set(&mut self, name: &str, value: f64) {
        self.values[layer_index(name)] = value;
    }

    /// Sets a tail metric under the percentile rule of [`stats::tail`]
    /// (0 when there are too few samples) and notes which percentile.
    fn set_tail(&mut self, name: &str, samples: &[f64]) {
        let note = match tail(samples) {
            Some((p, v)) => {
                self.set(name, v);
                format!("{name} is p{} of {} samples", p * 100.0, samples.len())
            }
            None => format!("{name}: {} samples, too few for a tail", samples.len()),
        };
        self.notes.push(note);
    }

    /// Records wall time spent in a layer; `finish` turns it into the
    /// named share.
    fn layer(&mut self, share: &'static str, ns: u64) {
        self.layers.push((share, ns));
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> f64 {
        self.values[layer_index(name)]
    }

    /// Converts layer times to shares of the traced wall time (less the
    /// control runs) and derives the unattributed share and the tracing
    /// overhead against the untraced pass.
    fn finish(&mut self, traced: &Traced, untraced_ns: u64) {
        let measured = traced.wall_ns.saturating_sub(traced.control_ns) as f64;
        let mut covered = 0u64;
        for (share, ns) in self.layers.clone() {
            self.set(share, ns as f64 / measured);
            covered += ns;
        }
        self.set("bench.unattributed_share", 1.0 - covered as f64 / measured);
        self.set("bench.trace_overhead", measured / untraced_ns as f64 - 1.0);
        self.set("bench.traced_wall_s", measured / 1e9);
        self.set("bench.untraced_wall_s", untraced_ns as f64 / 1e9);
    }
}

/// Reads a numeric field of a one-line JSON row; `None` when absent or
/// `null`.
pub fn field(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

enum Workload {
    Paper(hbo::Paper),
    Replan(hbo::Replan),
    Fleet(fleet::Fleet),
    Stadium(stadium::Stadium),
}

impl Workload {
    fn setup(name: &str, seed: u64, seconds: u64) -> Workload {
        match name {
            "paper_cold" => Workload::Paper(hbo::Paper::setup(seed, seconds)),
            "replan_warm" => Workload::Replan(hbo::Replan::setup(seed, seconds)),
            "fleet_metered" => Workload::Fleet(fleet::Fleet::setup(seed, seconds)),
            "stadium_shared" => Workload::Stadium(stadium::Stadium::setup(seed, seconds)),
            other => unreachable!("unknown workload {other} passed argument parsing"),
        }
    }

    /// Runs the first `limit` jobs of the batch untraced.
    fn run(&self, limit: usize) -> Pass {
        match self {
            Workload::Paper(w) => w.run(limit),
            Workload::Replan(w) => w.run(limit),
            Workload::Fleet(w) => w.run(limit),
            Workload::Stadium(w) => w.run(limit),
        }
    }

    fn traced(&self) -> Traced {
        match self {
            Workload::Paper(w) => w.traced(),
            Workload::Replan(w) => w.traced(),
            Workload::Fleet(w) => w.traced(),
            Workload::Stadium(w) => w.traced(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        record: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                args.workload = value.clone();
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=600).contains(&args.seconds) {
                    return Err(format!("--seconds must be 1..=600, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.record && (args.seed != DEFAULT_SEED || args.workload == "all") {
        return Err(format!(
            "--record-digests needs one --workload and the default seed {DEFAULT_SEED}"
        ));
    }
    Ok(args)
}

/// Refuses configurations that would measure a different program.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_owned());
    }
    if std::env::var_os("HBO_EVENT_QUEUE").is_some() {
        return Err(
            "HBO_EVENT_QUEUE is set, which switches every simulator's event \
                    queue; unset it to measure the default program"
                .to_owned(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

/// Runs every workload in its own child process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn a workload process");
        let out = child.stdout.take().expect("child stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(out).lines() {
            let line = line.expect("child output is text");
            println!("{w}: {line}");
            last = line;
        }
        let status = child.wait().expect("wait for a workload process");
        all_ok &= status.success() && last.contains("\"correct\": true");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args) -> ExitCode {
    let name = args.workload.as_str();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    // Set-up ends with one untimed warm-up job, so code, caches and the
    // allocator are warm before the batch is timed.
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let workload = Workload::setup(name, args.seed, args.seconds);
        std::hint::black_box(workload.run(1));
        setup_s.push(elapsed_ns(start) as f64 / 1e9);
        built = Some(workload);
    }
    let workload = built.expect("set-up ran at least once");

    let cpu_before = cpu_seconds();
    let pass = workload.run(usize::MAX);
    let cpu_s = cpu_seconds() - cpu_before;
    let mut failed: Vec<bool> = pass.ok.iter().map(|ok| !ok).collect();
    eprintln!(
        "{name}: seed {}, {} operations, {:.3} s host wall, {:.1} simulated session-s, \
         1 worker thread of {} available",
        args.seed,
        pass.rows.len(),
        pass.wall_ns() as f64 / 1e9,
        pass.sim_s,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    if args.seed == DEFAULT_SEED {
        let path = digest::path(name);
        if args.record {
            let text = Recorded::render(name, &pass.rows);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "{name}: recorded {} digests to {}",
                pass.rows.len(),
                path.display()
            );
        } else {
            check_digests(name, &path, &pass, &mut failed);
        }
    }

    let job_ms: Vec<f64> = pass.job_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    eprintln!("{name}: {}", stats::summary("job time", "ms", &job_ms));
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut traced = workload.traced();
        if traced.rows.len() != pass.rows.len() {
            eprintln!(
                "{name}: traced pass made {} operations, untraced {}",
                traced.rows.len(),
                pass.rows.len()
            );
            failed.iter_mut().for_each(|f| *f = true);
        }
        for (i, (a, b)) in traced.rows.iter().zip(&pass.rows).enumerate() {
            if a != b || !traced.ok.get(i).copied().unwrap_or(true) {
                eprintln!("{name}: operation {i} differs between the traced and untraced passes");
                failed[i] = true;
            }
        }
        let mut m = std::mem::take(&mut traced.metrics);
        m.finish(&traced, pass.wall_ns());
        for note in &m.notes {
            eprintln!("{name}: {note}");
        }
        PER_LAYER
            .iter()
            .zip(&m.values)
            .map(|(&(n, unit), &v)| (n, v, unit))
            .collect()
    } else {
        let wall_s = pass.wall_ns() as f64 / 1e9;
        let values = [pass.sim_s / wall_s, cpu_s, peak_rss_mib(), median(&setup_s)];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, unit), v)| (n, v, unit))
            .collect()
    };

    let failures = failed.iter().filter(|&&f| f).count();
    println!(
        "{}",
        result_json(failures == 0, failed.len(), failures, &metrics)
    );
    ExitCode::SUCCESS
}

/// Marks every row whose digest differs from the recorded one. Job rows
/// are checked by index, so a shorter batch checks a prefix; rows after
/// the jobs summarise the whole batch and are checked only when the batch
/// is the recorded size.
fn check_digests(name: &str, path: &std::path::Path, pass: &Pass, failed: &mut [bool]) {
    let rows = &pass.rows;
    let recorded = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Recorded::parse(&text))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: no usable digests at {}: {e}", path.display());
            failed.iter_mut().for_each(|f| *f = true);
            return;
        }
    };
    let whole_batch = recorded.len() == rows.len();
    let mut unpinned = 0;
    for (i, row) in rows.iter().enumerate() {
        if i >= pass.job_ns.len() && !whole_batch {
            unpinned += 1;
            continue;
        }
        match recorded.matches(i, row) {
            Some(true) => {}
            Some(false) => {
                eprintln!("{name}: operation {i} does not match its recorded digest");
                failed[i] = true;
            }
            None => unpinned += 1,
        }
    }
    eprintln!(
        "{name}: {} of {} operations checked against recorded digests",
        rows.len() - unpinned,
        rows.len()
    );
}

/// The result line: checks, counts and metrics as one JSON object.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v, unit)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_bad_input_is_refused() {
        let a = parse_args(&argv(
            "--workload fleet_metered --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload, "fleet_metered");
        assert_eq!((a.seed, a.seconds, a.trace, a.record), (7, 3, true, false));
        assert_eq!(parse_args(&[]).expect("defaults").workload, "all");
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
            "--workload paper_cold --seed 3 --record-digests",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn rows_yield_their_numeric_fields() {
        let row = "{\"a\":1,\"submitted\":120,\"p50_ms\":null,\"w\":2.5}";
        assert_eq!(field(row, "submitted"), Some(120.0));
        assert_eq!(field(row, "w"), Some(2.5));
        assert_eq!(field(row, "p50_ms"), None);
        assert_eq!(field(row, "missing"), None);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("a", 1.5, "ms"), ("b", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
