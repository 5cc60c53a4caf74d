//! The Section VI "Dynamic Environment" study: HBO in a fast-paced
//! (gaming-like) session, with and without the lookup-table extension the
//! paper sketches as future work.
//!
//! The paper: *"this solution may not be suitable in other scenarios where
//! users tend to frequently move … HBO may lead to too many activations
//! … we could construct a lookup table that stores environmental
//! conditions … when the user's interaction approaches conditions that
//! closely resemble those stored in the table, the framework could simply
//! apply the solution from the lookup table instead of initiating a new
//! and potentially unnecessary HBO activation."*
//!
//! Here the user bounces between close and far every ~35 s for 500 s.
//! Plain event-based HBO re-explores on every swing; the lookup-assisted
//! variant pays for each condition once and then reuses.

use hbo_bench::{cli, Table};
use hbo_core::HboConfig;
use marsim::timeline::{run_activation_study, ActivationTrace, PolicyKind};
use marsim::ScenarioSpec;

fn summarize(trace: &ActivationTrace) -> (usize, usize, f64, f64) {
    let exploring = trace.samples.iter().filter(|s| s.during_activation).count();
    let steady: Vec<f64> = trace
        .samples
        .iter()
        .filter(|s| !s.during_activation)
        .map(|s| s.reward)
        .collect();
    let mean_steady = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
    (
        trace.activations.len(),
        trace.reuses.len(),
        100.0 * exploring as f64 / trace.samples.len() as f64,
        mean_steady,
    )
}

fn main() {
    cli::no_args("fastpaced_lookup");
    let spec = ScenarioSpec::sc1_cf2();
    let config = HboConfig {
        n_initial: 3,
        iterations: 7,
        ..HboConfig::default()
    };
    // All objects placed up front; then the user oscillates between two
    // viewing positions every ~35 s (a patrol loop in a game).
    let placements: Vec<f64> = (0..9).map(|i| 2.0 + 2.0 * i as f64).collect();
    let mut moves = Vec::new();
    let mut t = 40.0;
    let mut far = true;
    while t < 480.0 {
        moves.push((t, if far { 2.4 } else { 1.0 }));
        far = !far;
        t += 35.0;
    }
    let total = 500.0;

    let event = run_activation_study(
        &spec,
        &config,
        PolicyKind::EventBased,
        &placements,
        &moves,
        total,
        77,
    );
    let assisted = run_activation_study(
        &spec,
        &config,
        PolicyKind::LookupAssisted,
        &placements,
        &moves,
        total,
        77,
    );

    let mut table = Table::new(
        "Section VI study — fast-paced session (user moves every ~35 s, 500 s)",
        vec![
            "policy".into(),
            "full activations".into(),
            "lookup reuses".into(),
            "% time exploring".into(),
            "mean steady reward".into(),
        ],
    );
    for (label, trace) in [
        ("event-based (paper)", &event),
        ("lookup-assisted (Sec. VI)", &assisted),
    ] {
        let (acts, reuses, explore, reward) = summarize(trace);
        table.row(vec![
            label.to_owned(),
            acts.to_string(),
            reuses.to_string(),
            format!("{explore:.0}%"),
            format!("{reward:+.3}"),
        ]);
    }
    println!("{}", table.render());
    let (e_acts, _, e_explore, e_reward) = summarize(&event);
    let (a_acts, a_reuses, a_explore, a_reward) = summarize(&assisted);
    println!(
        "Check: the lookup table converts repeat conditions into instant reuses\n\
         ({a_reuses} reuses vs {e_acts}->{a_acts} full activations), cutting exploration\n\
         time from {e_explore:.0}% to {a_explore:.0}%. Steady-state reward moves from\n\
         {e_reward:+.3} to {a_reward:+.3}: reused configurations can be slightly stale,\n\
         the price of skipping re-exploration — the paper's anticipated trade."
    );
}
