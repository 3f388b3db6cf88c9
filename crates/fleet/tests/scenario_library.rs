//! The curated `scenarios/` library stays loadable and runnable.
//!
//! Every `*.toml` in the repo-root `scenarios/` directory must parse,
//! survive a serialize→reparse round trip, and execute through the
//! sharded runner. Runs happen at miniature scale (a handful of users)
//! so the suite stays CI-fast; the files' declared populations are
//! exercised by the real CLI (`tailwise fleet run`) instead. Corpus
//! scenarios run against a fixture corpus synthesized on the fly — no
//! binary trace files live in git.

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run, run_source, run_source_sweep_cached, synth_corpus, RequestCache, Scenario, SourceSet,
    SweepReport, UserSource,
};
use tailwise_obs::Obs;
use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::TraceFormat;
use tailwise_workload::apps::AppKind;

/// A sweep against a fresh in-memory request cache.
fn sweep(set: &SourceSet, threads: usize) -> SweepReport {
    run_source_sweep_cached(set, threads, Obs::none(), Some(&RequestCache::in_memory()))
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", set.source.name()))
}

fn library_files() -> Vec<std::path::PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists at the repo root")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

#[test]
fn library_has_the_curated_minimum() {
    let files = library_files();
    assert!(files.len() >= 5, "curated library shrank to {} files: {files:?}", files.len());
    let names: Vec<String> =
        files.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
    // The anchors the README walkthrough and the issue call for.
    for required in [
        "paper_att3g.toml",
        "im_background_fleet.toml",
        "streaming_heavy.toml",
        "scheme_sweep_fig10.toml",
        "stress_200k.toml",
        "corpus_replay.toml",
        "cell_topology.toml",
        "rnc_storm.toml",
        "handoff_storm.toml",
    ] {
        assert!(names.iter().any(|n| n == required), "missing {required}; have {names:?}");
    }
}

#[test]
fn every_library_file_parses_and_round_trips() {
    for path in library_files() {
        let set = SourceSet::from_file(&path)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", path.display()));
        if let UserSource::Synthetic(base) = &set.source {
            assert!(base.users > 0, "{}", path.display());
            // Synthetic files without sweeps also load as one Scenario.
            if !set.is_sweep() {
                Scenario::from_file(&path)
                    .unwrap_or_else(|e| panic!("{} failed as Scenario: {e}", path.display()));
            }
        }
        assert!(set.expansion_count() >= 1, "{}", path.display());
        let text = set
            .to_toml_string()
            .unwrap_or_else(|e| panic!("{} failed to serialize: {e}", path.display()));
        let again = SourceSet::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("{} reparse failed: {e}", path.display()));
        assert_eq!(again, set, "{} round trip drifted", path.display());
    }
}

#[test]
fn every_library_file_runs_at_miniature_scale() {
    // One tiny fixture corpus shared by every [corpus] library file.
    let fixture =
        std::env::temp_dir().join(format!("tailwise-library-fixture-{}", std::process::id()));
    std::fs::remove_dir_all(&fixture).ok();
    let mut seeder = Scenario::new(4, Scheme::MakeIdle, CarrierProfile::att_hspa());
    seeder.app_mix = vec![(AppKind::Im, 1.0)];
    synth_corpus(&seeder, &fixture, TraceFormat::Binary, 2).expect("fixture corpus synthesizes");

    for path in library_files() {
        let mut set = SourceSet::from_file(&path).expect("parses (covered above)");
        // Shrink the population, keep everything else (mixes, scheme,
        // sim config, sweep structure) exactly as declared on disk.
        let expected_users = match &mut set.source {
            UserSource::Synthetic(base) => {
                base.users = base.users.min(4);
                base.days_per_user = 1;
                base.shard_size = 2;
                base.users
            }
            UserSource::Corpus(base) => {
                // The declared directory is the user's to materialize
                // (see the file's comments); tests point it at the
                // synthesized fixture.
                base.spec.dir = fixture.clone();
                base.shard_size = 2;
                4 // the fixture corpus's file count
            }
        };
        for axis in &mut set.axes {
            if let tailwise_fleet::SweepAxis::Users(sizes) = axis {
                for size in sizes {
                    *size = (*size).min(4);
                }
            }
        }
        if set.is_sweep() {
            let sweep = sweep(&set, 2);
            assert_eq!(sweep.rows.len(), set.expansion_count(), "{}", path.display());
            for row in &sweep.rows {
                assert!(row.report.packets > 0, "{}: empty cell", path.display());
            }
        } else {
            let report = run_source(&set.source, 2, Obs::none(), None)
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", path.display()));
            assert!(report.packets > 0, "{}: empty run", path.display());
            assert_eq!(report.users, expected_users, "{}", path.display());
        }
    }
    std::fs::remove_dir_all(&fixture).ok();
}

#[test]
fn sweep_runner_agrees_with_source_runner_on_synthetic_files() {
    // A sweep row and the standalone run of its expansion agree,
    // whichever entry point runs the expansion.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/scheme_sweep_fig10.toml");
    let mut set = SourceSet::from_file(path).expect("library sweep parses");
    let UserSource::Synthetic(base) = &mut set.source else { panic!("fig10 is synthetic") };
    base.users = 4;
    base.shard_size = 2;
    let sweep = sweep(&set, 2);
    assert_eq!(sweep.rows.len(), set.expansion_count());
    // One standalone spot check per entry point (each re-simulates a
    // cell; full per-cell coverage lives in the sweep unit tests).
    let row = &sweep.rows[1];
    let scenario = row.scenario().expect("synthetic row");
    assert_eq!(row.report, run(scenario, 1), "{}", row.label);
    let via_source = run_source(&row.source, 2, Obs::none(), None).unwrap();
    assert_eq!(row.report, via_source, "{}", row.label);
}

mod fuzz {
    //! Damaged scenario files are errors positioned inside the text,
    //! never panics: byte mutations and truncations of every library
    //! file through `SourceSet::from_toml_str`.

    use super::*;
    use proptest::prelude::*;
    use proptest::prop::collection::vec;

    fn library_texts() -> Vec<Vec<u8>> {
        library_files().iter().map(|path| std::fs::read(path).unwrap()).collect()
    }

    /// Parses `bytes` (invalid UTF-8 replaced): a set, or an error on a
    /// line of the text — at most one past its last.
    fn parses_in_place(bytes: &[u8]) -> Result<(), TestCaseError> {
        let src = String::from_utf8_lossy(bytes);
        if let Err(err) = SourceSet::from_toml_str(&src) {
            let lines = src.lines().count();
            prop_assert!((1..=lines + 1).contains(&err.pos.line), "{} in {} line(s)", err, lines);
        }
        Ok(())
    }

    /// Bytes that mean something to the scenario grammar, or any byte
    /// at all.
    fn scenario_byte() -> impl Strategy<Value = u8> {
        const GRAMMAR: &[u8] = b"[]=\"#.,-_ \n0123456789aez{}";
        (prop::bool::ANY, 0..GRAMMAR.len(), 0u8..=255).prop_map(|(grammar, i, byte)| {
            if grammar {
                GRAMMAR[i]
            } else {
                byte
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn mutated_scenario_files_parse_or_fail_in_place(
            pick in 0usize..64,
            edits in vec((0usize..1 << 20, 0u8..3, scenario_byte()), 1..6),
        ) {
            let texts = library_texts();
            let mut bytes = texts[pick % texts.len()].clone();
            for (at, op, byte) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    1 if at < bytes.len() => bytes[at] = byte,
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            parses_in_place(&bytes)?;
        }

        #[test]
        fn truncated_scenario_files_parse_or_fail_in_place(
            pick in 0usize..64,
            cut in 0usize..1 << 20,
        ) {
            let texts = library_texts();
            let bytes = &texts[pick % texts.len()];
            parses_in_place(&bytes[..cut % (bytes.len() + 1)])?;
        }
    }
}
