//! Runs the reproduction experiments and fills `results/`.
//!
//! `repro` runs every table, figure, ablation and extension;
//! `repro <name>…` runs only the named ones (see
//! [`tailwise_bench::experiments::EXPERIMENTS`] for the names).
use std::process::ExitCode;

use tailwise_bench::experiments;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match experiments::select(&names) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("repro: {message}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let what = if names.is_empty() { "all tables and figures".into() } else { names.join(", ") };
    println!("tailwise reproduction — {what}\n");
    let mut harness = None;
    for experiment in selected {
        if let Err(e) = experiment.emit(&mut harness) {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "done in {:.1}s — CSVs in {:?}",
        started.elapsed().as_secs_f64(),
        tailwise_bench::table::results_dir()
    );
    ExitCode::SUCCESS
}
