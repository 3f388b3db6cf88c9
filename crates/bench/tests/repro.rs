//! The `repro` binary end to end: a named selection writes exactly its
//! experiments' CSVs, an unknown name fails before anything runs, and a
//! CSV that cannot be written fails the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty results directory for one test.
fn results_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-repro-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn repro(results: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("TAILWISE_RESULTS", results)
        .output()
        .expect("repro starts")
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read results dir")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn named_experiments_write_exactly_their_csvs() {
    let dir = results_dir("named");
    let out = repro(&dir, &["tab01_power", "tab02_rrc_params", "fig03_power_timeline"]);
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        files_in(&dir),
        [
            "fig03_power_timeline_att3g.csv",
            "fig03_power_timeline_verizonlte.csv",
            "tab01_power.csv",
            "tab02_rrc_params.csv",
        ]
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Table 1"), "{stdout}");
    assert!(stdout.contains("done in "), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_name_fails_lists_the_experiments_and_writes_nothing() {
    let dir = results_dir("unknown");
    let out = repro(&dir, &["tab01_power", "nosuch"]);
    assert!(!out.status.success(), "an unknown experiment must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"nosuch\""), "{stderr}");
    for name in ["tab01_power", "fig10_verizon3g", "ext_energy_attribution"] {
        assert!(stderr.contains(name), "the valid names are listed: {stderr}");
    }
    assert!(files_in(&dir).is_empty(), "nothing runs before every name is checked");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_csv_that_cannot_be_written_fails_the_run_and_names_its_path() {
    let dir = results_dir("unwritable");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").expect("create a regular file");
    let results = file.join("results");
    let out = repro(&results, &["tab01_power"]);
    assert_eq!(out.status.code(), Some(1), "an unwritten CSV must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let csv = results.join("tab01_power.csv");
    assert!(stderr.contains(&format!("could not save {}", csv.display())), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
