//! The command-line contract of every experiment binary: a rejected
//! invocation exits 2 with nothing on stdout and the binary's usage on
//! stderr, and that usage is the one its module doc and the README show.

use std::path::Path;
use std::process::{Command, Output};

macro_rules! bins {
    ($($name:ident),* $(,)?) => {
        [$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))))),*]
    };
}

const BINS: [(&str, &str); 20] = bins![
    ablation_bo,
    check_json,
    edge_offload,
    energy_analysis,
    explore,
    fastpaced_lookup,
    fig2,
    fig4_table3,
    fig5_table4,
    fig6,
    fig7,
    fig8,
    fig9,
    finegrained,
    fleet_sweep,
    generalization,
    run_all,
    stadium_sweep,
    table1,
    table2,
];

fn exe(name: &str) -> &'static str {
    BINS.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, path)| *path)
        .expect("known binary")
}

fn run(name: &str, args: &[&str]) -> Output {
    Command::new(exe(name))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The usage block (first ```` ```text ```` block) of the binary's
/// module doc, if it has one.
fn doc_usage(name: &str) -> Option<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("src/bin/{name}.rs"));
    let src = std::fs::read_to_string(src).expect("binary source");
    let doc: Vec<&str> = src
        .lines()
        .take_while(|l| l.starts_with("//!") || l.is_empty())
        .filter_map(|l| l.strip_prefix("//!"))
        .map(|l| l.strip_prefix(' ').unwrap_or(l))
        .collect();
    let start = doc.iter().position(|l| *l == "```text")? + 1;
    let len = doc[start..].iter().position(|l| *l == "```")?;
    Some(doc[start..start + len].join("\n"))
}

/// Asserts the rejection contract and returns the printed error line and
/// usage (continuation lines shifted back under the command name).
fn assert_rejected(name: &str, args: &[&str]) -> (String, String) {
    let out = run(name, args);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} wrote to stdout");
    let (error, usage) = stderr
        .split_once("\nusage: ")
        .unwrap_or_else(|| panic!("{name} {args:?} printed no usage:\n{stderr}"));
    let usage = usage.strip_suffix('\n').expect("newline-terminated");
    (error.to_owned(), usage.replace("\n        ", "\n "))
}

#[test]
fn every_binary_rejects_an_unknown_flag_with_its_documented_usage() {
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md");
    let readme: Vec<&str> = readme.lines().collect();
    for (name, _) in BINS {
        let (error, usage) = assert_rejected(name, &["--no-such-flag"]);
        assert_eq!(error, "error: unknown flag --no-such-flag");
        assert!(
            usage.starts_with(name),
            "{name}: usage names another binary"
        );
        let lines: Vec<&str> = usage.lines().collect();
        assert!(
            readme.windows(lines.len()).any(|w| w == lines),
            "README lacks the usage of {name}:\n{usage}"
        );
        if let Some(doc) = doc_usage(name) {
            assert_eq!(doc, usage, "{name}: module doc and parser disagree");
        }
    }
}

#[test]
fn malformed_or_missing_values_are_rejected() {
    let (e, _) = assert_rejected("fleet_sweep", &["--seed", "abc"]);
    assert!(e.contains("invalid value \"abc\" for --seed"), "{e}");
    let (e, _) = assert_rejected("stadium_sweep", &["--threads", "0"]);
    assert!(e.contains("--threads must be at least 1"), "{e}");
    let (e, _) = assert_rejected("fleet_sweep", &["--trace", "t.json", "--trace-sample"]);
    assert!(e.contains("missing value for --trace-sample"), "{e}");
}

#[test]
fn misspelled_flags_and_stray_arguments_are_rejected() {
    let (e, _) = assert_rejected("fleet_sweep", &["--smok"]);
    assert!(e.contains("unknown flag --smok"), "{e}");
    let (e, _) = assert_rejected("fig4_table3", &["--bogus"]);
    assert!(e.contains("unknown flag --bogus"), "{e}");
    let (e, _) = assert_rejected("table1", &["extra"]);
    assert!(e.contains("unexpected argument \"extra\""), "{e}");
}

#[test]
fn ignored_combinations_are_rejected() {
    let (e, _) = assert_rejected("fleet_sweep", &["--trace-sample"]);
    assert!(e.contains("--trace-sample requires --trace"), "{e}");
    let (e, _) = assert_rejected("explore", &["--baselines", "--trace", "x"]);
    assert!(
        e.contains("--baselines cannot be combined with --trace"),
        "{e}"
    );
}

#[test]
fn a_valid_invocation_still_runs() {
    let out = run("table2", &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
}
