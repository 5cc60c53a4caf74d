//! Regenerates **Table II**: the example scenarios (virtual-object sets
//! SC1/SC2 and AI tasksets CF1/CF2) used by the evaluation, as encoded in
//! the workspace.

use hbo_bench::{cli, Table};
use marsim::{cf1_tasks, cf2_tasks};

fn main() {
    cli::no_args("table2");
    let mut t = Table::new(
        "Table II — Virtual objects (SC1)",
        vec!["object".into(), "count".into(), "triangles".into()],
    );
    for e in arscene::scenarios::sc1_catalog() {
        t.row(vec![
            e.name.to_owned(),
            e.count.to_string(),
            e.triangles.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "Table II — Virtual objects (SC2)",
        vec!["object".into(), "count".into(), "triangles".into()],
    );
    for e in arscene::scenarios::sc2_catalog() {
        t.row(vec![
            e.name.to_owned(),
            e.count.to_string(),
            e.triangles.to_string(),
        ]);
    }
    println!("{}", t.render());

    for (name, tasks) in [("CF1", cf1_tasks()), ("CF2", cf2_tasks())] {
        let mut t = Table::new(
            format!("Table II — AI models ({name})"),
            vec!["model".into(), "count".into(), "task".into()],
        );
        let zoo = nnmodel::ModelZoo::pixel7();
        for spec in tasks {
            let kind = zoo
                .get(&spec.model)
                .map(|m| m.kind().abbrev())
                .unwrap_or("?");
            t.row(vec![
                spec.model.clone(),
                spec.count.to_string(),
                kind.to_owned(),
            ]);
        }
        println!("{}", t.render());
    }

    let sc1 = arscene::scenarios::sc1();
    let sc2 = arscene::scenarios::sc2();
    println!(
        "Totals: SC1 = {} objects / {} triangles; SC2 = {} objects / {} triangles",
        sc1.len(),
        sc1.total_max_triangles(),
        sc2.len(),
        sc2.total_max_triangles()
    );
}
