//! Regenerates **Table I**: isolated response time (ms) of the TFLite
//! model zoo on the Galaxy S22 and Pixel 7, per delegate.
//!
//! Each `(model, delegate)` pair runs alone on a freshly booted simulated
//! SoC (no other AI tasks, no virtual objects) — the exact protocol the
//! paper uses for its one-time offline profiling. The printed `paper`
//! columns are the published numbers; `measured` is what the simulator
//! reproduces.

use hbo_bench::render::ms_cell;
use hbo_bench::{cli, Table};
use marsim::isolated;
use nnmodel::{Delegate, ModelZoo};
use soc::DeviceProfile;

fn device_table(device: &DeviceProfile, zoo: &ModelZoo) -> Table {
    let rows = isolated::table1(device, zoo);
    let mut table = Table::new(
        format!("Table I — {} (isolated latency, ms)", device.name),
        vec![
            "model".into(),
            "task".into(),
            "GPU meas".into(),
            "GPU paper".into(),
            "NNAPI meas".into(),
            "NNAPI paper".into(),
            "CPU meas".into(),
            "CPU paper".into(),
        ],
    );
    for row in rows {
        let model = zoo.get(&row.model).expect("row model in zoo");
        let paper = [
            model.isolated_ms(Delegate::Gpu),
            model.isolated_ms(Delegate::Nnapi),
            model.isolated_ms(Delegate::Cpu),
        ];
        table.row(vec![
            row.model.clone(),
            row.kind.to_owned(),
            ms_cell(row.latency_ms[0]),
            ms_cell(paper[0]),
            ms_cell(row.latency_ms[1]),
            ms_cell(paper[1]),
            ms_cell(row.latency_ms[2]),
            ms_cell(paper[2]),
        ]);
    }
    table
}

fn main() {
    cli::no_args("table1");
    for (device, zoo) in [
        (DeviceProfile::galaxy_s22(), ModelZoo::galaxy_s22()),
        (DeviceProfile::pixel7(), ModelZoo::pixel7()),
    ] {
        println!("{}", device_table(&device, &zoo).render());
    }
    println!(
        "Check: measured values are produced by discrete-event simulation of the\n\
         calibrated execution plans; agreement with the paper column validates the\n\
         calibration that every downstream experiment builds on."
    );
}
