//! Regenerates **Figure 9**: the user study — perceived virtual-object
//! quality of HBO vs the SML baseline, scored 1–5 by a panel of seven
//! (simulated) participants against a full-quality reference, at close and
//! far distances.
//!
//! Paper protocol (Section V-E): a scene mixing heavy and lightweight
//! objects with the six-task CF1 taskset; HBO settles at triangle ratio
//! ~0.52 (sensitivity-weighted), while SML must drop to ~0.2 (uniform) to
//! match HBO's AI latency. Paper scores: HBO 4.9 (close) / 5.0 (far);
//! SML 3.0 (close) / 3.6 (far) — up to a 38.7 % perceived-quality gap.

use arscene::scenarios::CatalogEntry;
use arscene::QualityParams;
use hbo_bench::{cli, seeds, Table};
use hbo_core::{Baseline, HboConfig};
use marsim::experiment::compare_baselines;
use marsim::userstudy::{mos_from_quality, RaterPanel};
use marsim::ScenarioSpec;

/// The user-study scene: a mix of heavy (plane, bike) and lightweight
/// (andy, hammer, cabin) objects.
fn mixed_scene() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "plane",
            count: 4,
            triangles: 146_803,
            params: QualityParams::new(0.78, -1.96, 1.18, 1.2),
            distance_factor: 1.3,
        },
        CatalogEntry {
            name: "Cocacola",
            count: 2,
            triangles: 94_080,
            params: QualityParams::new(0.87, -2.18, 1.31, 1.4),
            distance_factor: 0.9,
        },
        CatalogEntry {
            name: "bike",
            count: 1,
            triangles: 178_552,
            params: QualityParams::new(1.09, -2.83, 1.74, 1.0),
            distance_factor: 1.0,
        },
        CatalogEntry {
            name: "andy",
            count: 2,
            triangles: 2_304,
            params: QualityParams::new(1.20, -2.60, 1.40, 0.9),
            distance_factor: 0.7,
        },
        CatalogEntry {
            name: "hammer",
            count: 2,
            triangles: 6_250,
            params: QualityParams::new(0.80, -1.80, 1.00, 1.0),
            distance_factor: 0.9,
        },
        CatalogEntry {
            name: "cabin",
            count: 1,
            triangles: 2_324,
            params: QualityParams::new(1.00, -2.20, 1.20, 1.0),
            distance_factor: 1.0,
        },
    ]
}

fn main() {
    cli::no_args("fig9");
    let mut spec = ScenarioSpec::sc1_cf1();
    spec.objects = mixed_scene();
    spec.name = "UserStudy".to_owned();

    // Derive the two systems' configurations exactly as the comparison
    // harness does: HBO's activation picks (x, allocation); SML sweeps its
    // uniform ratio down to match HBO's latency.
    let result = compare_baselines(&spec, &HboConfig::default(), seeds::FIG9);
    let hbo = result.outcome(Baseline::Hbo);
    let sml = result.outcome(Baseline::Sml);

    let panel = RaterPanel::of_seven(seeds::FIG9);
    let mut table = Table::new(
        "Fig. 9a — perceived quality (1-5), 7 participants, vs full-quality reference",
        vec![
            "condition".into(),
            "x".into(),
            "model quality Q".into(),
            "predicted MOS".into(),
            "panel mean".into(),
            "paper".into(),
        ],
    );

    let mut measured = Vec::new();
    for (label, distance, paper) in [
        ("HBO close", 1.0, "4.9"),
        ("HBO far", 2.5, "5.0"),
        ("SML close", 1.0, "3.0"),
        ("SML far", 2.5, "3.6"),
    ] {
        let is_hbo = label.starts_with("HBO");
        let mut scene = arscene::scenarios::scene_from_catalog(&spec.objects, distance);
        let x = if is_hbo { hbo.x } else { sml.x };
        if is_hbo {
            scene.distribute_triangles(x);
        } else {
            scene.set_uniform_ratio(x);
        }
        let q = scene.average_quality();
        let mean = panel.mean_score(q, label);
        measured.push((label, mean));
        table.row(vec![
            label.to_owned(),
            format!("{x:.2}"),
            format!("{q:.3}"),
            format!("{:.2}", mos_from_quality(q)),
            format!("{mean:.2}"),
            paper.to_owned(),
        ]);
    }
    println!("{}", table.render());

    let gap_close = 100.0 * (measured[0].1 - measured[2].1) / measured[2].1;
    let gap_far = 100.0 * (measured[1].1 - measured[3].1) / measured[3].1;
    println!(
        "Perceived-quality improvement of HBO over SML: {:.1}% (close), {:.1}% (far)\n\
         Paper: up to 38.7%. HBO keeps x = {:.2} via sensitivity-weighted distribution\n\
         while SML needs the uniform ratio down at x = {:.2} for comparable AI latency\n\
         (paper: 0.52 vs 0.2).",
        gap_close, gap_far, hbo.x, sml.x
    );
}
