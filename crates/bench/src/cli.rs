//! The one strict command-line parser behind every experiment binary.
//!
//! A binary pulls each flag it knows out of an [`Args`] built with its
//! usage line, then calls [`Args::finish`] before doing any work. Lookups
//! never fail on the spot: the first problem is remembered and reported
//! by `finish`, so parsing reads as a flat list of declarations. Rejected
//! are an unknown or repeated flag, a flag missing its value (the next
//! token is absent or is itself a `--flag`), a value that does not parse,
//! `--threads 0`, a stray positional, and a flag combination the binary
//! would otherwise ignore: the error and `usage: <USAGE>` go to stderr,
//! nothing to stdout, and the process exits 2.

use std::fmt::Display;
use std::str::FromStr;

use marsim::runner::{threads_from_env, Observations, ObserveConfig};

/// A binary's arguments, consumed flag by flag.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    /// Every argument after the program name, and whether it is consumed.
    tokens: Vec<(String, bool)>,
    /// The first problem found, reported by [`Args::finish`].
    error: Option<String>,
}

impl Args {
    /// Arguments from the process command line.
    pub fn from_env(usage: &'static str) -> Self {
        Args::new(usage, std::env::args().skip(1))
    }

    /// Arguments from an explicit list (program name excluded).
    pub(crate) fn new(usage: &'static str, argv: impl IntoIterator<Item = String>) -> Self {
        Args {
            usage,
            tokens: argv.into_iter().map(|t| (t, false)).collect(),
            error: None,
        }
    }

    /// Records `msg` as the rejection reason unless one is already held.
    pub fn reject(&mut self, msg: impl Into<String>) {
        self.error.get_or_insert_with(|| msg.into());
    }

    /// Whether `flag` appears anywhere on the command line, consumed or
    /// not — for combination checks.
    fn given(&self, flag: &str) -> bool {
        self.tokens.iter().any(|(t, _)| t == flag)
    }

    /// Rejects `a` and `b` given together.
    pub fn conflict(&mut self, a: &str, b: &str) {
        if self.given(a) && self.given(b) {
            self.reject(format!("{a} cannot be combined with {b}"));
        }
    }

    /// Rejects `flag` given without `needed`.
    pub fn requires(&mut self, flag: &str, needed: &str) {
        if self.given(flag) && !self.given(needed) {
            self.reject(format!("{flag} requires {needed}"));
        }
    }

    /// Consumes every occurrence of `flag`, returning their positions.
    fn take_all(&mut self, flag: &str) -> Vec<usize> {
        let mut at = Vec::new();
        for (i, (t, taken)) in self.tokens.iter_mut().enumerate() {
            if !*taken && t == flag {
                *taken = true;
                at.push(i);
            }
        }
        at
    }

    /// Consumes `flag`, which may appear at most once.
    fn take_once(&mut self, flag: &str) -> Option<usize> {
        let at = self.take_all(flag);
        if at.len() > 1 {
            self.reject(format!("{flag} given more than once"));
        }
        at.first().copied()
    }

    /// Consumes the value token after position `i`.
    fn take_value(&mut self, flag: &str, i: usize) -> Option<String> {
        match self.tokens.get_mut(i + 1) {
            Some((t, taken)) if !*taken && !t.starts_with("--") => {
                *taken = true;
                Some(t.clone())
            }
            _ => {
                self.reject(format!("missing value for {flag}"));
                None
            }
        }
    }

    /// Splits every `--flag=value` token into `--flag` and `value`, so
    /// both spellings parse alike.
    pub(crate) fn split_inline_values(&mut self) {
        self.tokens = std::mem::take(&mut self.tokens)
            .into_iter()
            .flat_map(|(t, taken)| match t.split_once('=') {
                Some((flag, value)) if t.starts_with("--") => {
                    vec![(flag.to_owned(), taken), (value.to_owned(), taken)]
                }
                _ => vec![(t, taken)],
            })
            .collect();
    }

    /// Whether the valueless switch `flag` is present.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.take_once(flag).is_some()
    }

    /// The parsed value of `flag`; `None` when absent (or rejected).
    pub fn value<T>(&mut self, flag: &str) -> Option<T>
    where
        T: FromStr,
        T::Err: Display,
    {
        let i = self.take_once(flag)?;
        let raw = self.take_value(flag, i)?;
        raw.parse()
            .map_err(|e| self.reject(format!("invalid value {raw:?} for {flag}: {e}")))
            .ok()
    }

    /// Every value of the repeatable `flag`, in command-line order.
    pub fn values(&mut self, flag: &str) -> Vec<String> {
        let at = self.take_all(flag);
        at.into_iter()
            .filter_map(|i| self.take_value(flag, i))
            .collect()
    }

    /// Worker threads: `--threads N` (N ≥ 1), else
    /// [`threads_from_env`].
    pub fn threads(&mut self) -> usize {
        match self.value::<usize>("--threads") {
            Some(0) => {
                self.reject("--threads must be at least 1");
                1
            }
            Some(n) => n,
            None => threads_from_env(),
        }
    }

    /// The `--trace PATH`, `--metrics PATH` and `--trace-sample K` flags
    /// of a sweep binary; `--trace-sample` requires `--trace`.
    pub fn outputs(&mut self) -> Outputs {
        self.requires("--trace-sample", "--trace");
        Outputs {
            trace: self.value("--trace"),
            metrics: self.value("--metrics"),
            trace_sample: self.value("--trace-sample"),
        }
    }

    /// The first unconsumed argument that is not a flag. Call it after
    /// every flag lookup, so flag values are already consumed.
    pub fn positional(&mut self) -> Option<String> {
        let (t, taken) = self
            .tokens
            .iter_mut()
            .find(|(t, taken)| !*taken && !t.starts_with('-'))?;
        *taken = true;
        Some(t.clone())
    }

    /// `Err` with the rejection reason: an unconsumed flag (unknown to
    /// the binary), else the first failed lookup or check, else an
    /// unconsumed positional.
    pub(crate) fn check(self) -> Result<(), String> {
        let left: Vec<&str> = self
            .tokens
            .iter()
            .filter(|(_, taken)| !taken)
            .map(|(t, _)| t.as_str())
            .collect();
        if let Some(flag) = left.iter().find(|t| t.starts_with('-')) {
            return Err(format!("unknown flag {flag}"));
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        match left.first() {
            Some(t) => Err(format!("unexpected argument {t:?}")),
            None => Ok(()),
        }
    }

    /// Ends parsing: on any rejection prints the reason and the usage
    /// line to stderr and exits 2.
    pub fn finish(self) {
        let usage = self.usage;
        if let Err(e) = self.check() {
            eprintln!("error: {e}");
            // Continuation lines are indented under the command name;
            // shift them right by the width of the "usage: " prefix.
            eprintln!("usage: {}", usage.replace("\n ", "\n        "));
            std::process::exit(2);
        }
    }
}

/// Parses the command line of a binary whose only flag is `--threads T`.
pub fn threads_only(usage: &'static str) -> usize {
    let mut args = Args::from_env(usage);
    let threads = args.threads();
    args.finish();
    threads
}

/// Parses the command line of a binary that takes no arguments.
pub fn no_args(usage: &'static str) {
    Args::from_env(usage).finish();
}

/// Where a sweep binary writes what its run observed.
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    /// `--trace PATH`: Chrome trace-event JSON of the sampled jobs.
    pub trace: Option<String>,
    /// `--metrics PATH`: the merged Prometheus-style exposition.
    pub metrics: Option<String>,
    /// `--trace-sample K`: keep Chrome detail for `K` jobs only.
    pub trace_sample: Option<usize>,
}

impl Outputs {
    /// What the sweep must observe to fill these outputs.
    pub fn observe(&self) -> ObserveConfig {
        ObserveConfig {
            traced: self.trace.is_some(),
            trace_sample: self.trace_sample,
            metrics: self.metrics.is_some(),
        }
    }

    /// Writes the trace and metrics files that were asked for; reports
    /// a failed write and exits 1.
    pub fn write(&self, observations: &Observations) {
        let files = [
            ("trace", &self.trace, observations.trace_json()),
            ("metrics", &self.metrics, observations.metrics_text()),
        ];
        for (what, path, text) in files {
            let (Some(path), Some(text)) = (path, text) else {
                continue;
            };
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write {what} to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("{what} written to {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new("t [--seed N]", argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_values_and_positionals_parse() {
        let mut a = args(&[
            "SC2",
            "--smoke",
            "--seed",
            "7",
            "--w",
            "-1.5",
            "--threads",
            "3",
        ]);
        assert!(a.switch("--smoke"));
        assert!(!a.switch("--warm"));
        assert_eq!(a.value::<u64>("--seed"), Some(7));
        assert_eq!(a.value::<f64>("--w"), Some(-1.5));
        assert_eq!(a.value::<u64>("--absent"), None);
        assert_eq!(a.threads(), 3);
        assert_eq!(a.positional().as_deref(), Some("SC2"));
        assert_eq!(a.positional(), None);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let mut a = args(&["--smok"]);
        assert!(!a.switch("--smoke"));
        assert_eq!(a.check(), Err("unknown flag --smok".to_owned()));
    }

    #[test]
    fn missing_value_is_rejected() {
        for argv in [&["--seed"][..], &["--seed", "--smoke"][..]] {
            let mut a = args(argv);
            a.switch("--smoke");
            assert_eq!(a.value::<u64>("--seed"), None);
            assert_eq!(a.check(), Err("missing value for --seed".to_owned()));
        }
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        let mut a = args(&["--seed", "abc"]);
        assert_eq!(a.value::<u64>("--seed"), None);
        assert!(a.check().unwrap_err().contains("\"abc\" for --seed"));

        let mut a = args(&["--k", "-2"]);
        assert_eq!(a.value::<usize>("--k"), None);
        assert!(a.check().unwrap_err().contains("\"-2\" for --k"));

        let mut a = args(&["--w", "2.5x"]);
        assert_eq!(a.value::<f64>("--w"), None);
        assert!(a.check().unwrap_err().contains("\"2.5x\" for --w"));
    }

    #[test]
    fn zero_threads_are_rejected() {
        let mut a = args(&["--threads", "0"]);
        a.threads();
        assert_eq!(a.check(), Err("--threads must be at least 1".to_owned()));
    }

    #[test]
    fn stray_positional_is_rejected() {
        let mut a = args(&["--seed", "1", "extra"]);
        a.value::<u64>("--seed");
        assert_eq!(a.check(), Err("unexpected argument \"extra\"".to_owned()));

        let mut a = args(&["SC1", "SC2"]);
        assert_eq!(a.positional().as_deref(), Some("SC1"));
        assert_eq!(a.check(), Err("unexpected argument \"SC2\"".to_owned()));
    }

    #[test]
    fn repeated_flag_is_rejected_unless_repeatable() {
        let mut a = args(&["--seed", "1", "--seed", "2"]);
        a.value::<u64>("--seed");
        assert_eq!(a.check(), Err("--seed given more than once".to_owned()));

        let mut a = args(&["--smoke", "--smoke"]);
        a.switch("--smoke");
        assert_eq!(a.check(), Err("--smoke given more than once".to_owned()));

        let mut a = args(&["--cat", "a", "--cat", "b"]);
        assert_eq!(a.values("--cat"), ["a", "b"]);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn finish_rejects_leftovers() {
        // Nothing looked up: every argument is a leftover.
        assert_eq!(args(&[]).check(), Ok(()));
        assert_eq!(
            args(&["--threads", "2"]).check(),
            Err("unknown flag --threads".to_owned())
        );
    }

    #[test]
    fn unknown_flags_come_first_then_the_first_problem() {
        let mut a = args(&["--seed", "x", "--threads", "0", "stray", "--bogus"]);
        a.value::<u64>("--seed");
        a.threads();
        assert_eq!(a.check(), Err("unknown flag --bogus".to_owned()));

        let mut a = args(&["--seed", "x", "--threads", "0", "stray"]);
        a.value::<u64>("--seed");
        a.threads();
        assert!(a.check().unwrap_err().contains("for --seed"));
    }

    #[test]
    fn combinations_are_checked() {
        let mut a = args(&["--trace-sample", "2"]);
        let out = a.outputs();
        assert_eq!(out.trace_sample, Some(2));
        assert_eq!(a.check(), Err("--trace-sample requires --trace".to_owned()));

        let mut a = args(&["--trace", "t.json", "--trace-sample", "2", "--metrics", "m"]);
        let out = a.outputs();
        assert_eq!(a.check(), Ok(()));
        let observe = out.observe();
        assert!(observe.traced && observe.metrics);
        assert_eq!(observe.trace_sample, Some(2));

        let mut a = args(&["--baselines", "--trace", "x"]);
        a.conflict("--baselines", "--trace");
        a.switch("--baselines");
        a.outputs();
        assert_eq!(
            a.check(),
            Err("--baselines cannot be combined with --trace".to_owned())
        );
    }
}
