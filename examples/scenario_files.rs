//! The on-disk scenario format end to end: parse a scenario from text,
//! round-trip it through a file, and expand a sweep file from the
//! curated `scenarios/` library into a side-by-side comparison table.
//!
//! Run with: `cargo run --release --example scenario_files`

use tailwise::fleet::{run, run_source_sweep_cached, Scenario, SourceSet, UserSource};
use tailwise::obs::Obs;

fn main() {
    // 1. A scenario is just text — shareable, diffable, reviewable.
    //    (Full key-by-key spec: docs/SCENARIO_FORMAT.md.)
    let text = r#"
[scenario]
name = "inline demo"
users = 24
scheme = "makeidle"
master_seed = 7
shard_size = 8

[[carrier]]
profile = "verizon-lte"

[[app]]
kind = "im"
weight = 3.0

[[app]]
kind = "finance"
weight = 1.0
"#;
    let scenario = Scenario::from_toml_str(text).expect("inline scenario parses");
    let report = run(&scenario, 4);
    println!("{}", report.render());

    // 2. Round-trip: to_file → from_file reproduces the scenario
    //    exactly, so written files are first-class experiment artifacts.
    let path = std::env::temp_dir().join("tailwise_example_scenario.toml");
    scenario.to_file(&path).expect("scenario serializes");
    let reloaded = Scenario::from_file(&path).expect("written file parses");
    assert_eq!(reloaded, scenario, "on-disk round trip is lossless");
    std::fs::remove_file(&path).ok();
    println!("round trip through {} was lossless\n", path.display());

    // 3. Parse errors carry line and column, compiler-style.
    let err = Scenario::from_toml_str("[scenario]\nusers = \"many\"\n").unwrap_err();
    println!("typed errors point at the problem: {err}\n");

    // 4. A sweep file from the curated library: one file, many runs,
    //    one table. (Users are scaled down here to keep the example
    //    quick; drop the override to reproduce the full shape.)
    let sweep_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/scheme_sweep_fig10.toml");
    let mut set = SourceSet::from_file(sweep_path).expect("library sweep file parses");
    let UserSource::Synthetic(base) = &mut set.source else {
        unreachable!("the scheme sweep is a synthetic population")
    };
    base.users = 8;
    base.shard_size = 4;
    println!("expanding {} into {} scenarios…\n", set.source.name(), set.expansion_count());
    let sweep = run_source_sweep_cached(&set, 4, Obs::none(), None).expect("synthetic sweeps run");
    print!("{}", sweep.render());

    // Every cell is bit-identical to running its expansion alone — the
    // comparison table is evidence, not approximation.
    let third = &sweep.rows[3];
    let scenario = third.scenario().expect("scheme sweeps expand to synthetic scenarios");
    assert_eq!(third.report, run(scenario, 1));
    println!("\nspot check: row {:?} reproduces bit-for-bit standalone", third.label);
}
