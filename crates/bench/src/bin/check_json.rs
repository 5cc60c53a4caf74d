//! In-tree Chrome trace-event JSON validator (no serialization crate;
//! hermetic build). CI uses it to smoke-check `--trace` output:
//!
//! ```text
//! check_json PATH [--require-cat CAT]...
//! ```
//!
//! Parses `PATH` with [`simcore::trace::chrome_trace_stats`], prints a
//! one-line summary, and exits nonzero when the file is not valid Chrome
//! trace JSON or a `--require-cat` category has no spans.

use hbo_bench::cli;
use simcore::trace::chrome_trace_stats;

const USAGE: &str = "check_json PATH [--require-cat CAT]...";

fn main() {
    let mut args = cli::Args::from_env(USAGE);
    let required = args.values("--require-cat");
    let path = args.positional().unwrap_or_else(|| {
        args.reject("missing PATH");
        String::new()
    });
    args.finish();

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let stats = match chrome_trace_stats(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path} is not valid Chrome trace JSON: {e}");
            std::process::exit(1);
        }
    };
    let cats: Vec<String> = stats
        .span_cats
        .iter()
        .map(|(c, n)| format!("{c}:{n}"))
        .collect();
    println!(
        "{path}: {} events, {} spans ({} B/{} E, {} X), {} counters, \
         {} instants, {} metadata [{}]",
        stats.events,
        stats.spans,
        stats.begins,
        stats.ends,
        stats.completes,
        stats.counters,
        stats.instants,
        stats.metadata,
        cats.join(" ")
    );
    let mut missing = false;
    for cat in &required {
        if stats.spans_in_cat(cat) == 0 {
            eprintln!("error: no '{cat}' spans in {path}");
            missing = true;
        }
    }
    if missing {
        std::process::exit(1);
    }
}
