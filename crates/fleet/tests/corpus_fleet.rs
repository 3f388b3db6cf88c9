//! End-to-end corpus replay: `fleet synth` a synthetic scenario into an
//! on-disk corpus, then stream it back through the sharded runner.
//!
//! Pins the acceptance claims of the corpus-backed `UserSource`:
//!
//! * a `[corpus]` run produces a **bit-identical** `FleetReport` at any
//!   thread count (1, 2, and 8 here), including its rendered text;
//! * replaying a `synth`-generated corpus with the same master seed and
//!   carrier mix reproduces the synthetic run's energy numbers **user
//!   for user** (same per-user traces, same per-user carriers, so the
//!   aggregate fold is bit-identical too);
//! * runtime corpus failures are positioned `ScenError`s anchored at
//!   the declaring file's `dir` key.
//!
//! No binary fixtures live in git: every corpus here is synthesized
//! into a temp directory by `synth_corpus` and removed afterwards.

use std::path::PathBuf;

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run, run_source, run_source_sweep_streamed, synth_corpus, CorpusScenario, FleetReport,
    Scenario, SourceSet, UserSource,
};
use tailwise_obs::Obs;
use tailwise_radio::profile::CarrierProfile;
use tailwise_scenfile::{Pos, ScenError, ScenErrorKind};
use tailwise_trace::TraceFormat;
use tailwise_workload::apps::AppKind;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-corpus-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The 200-user scenario the issue calls for, kept light (background IM
/// only — the cheapest §6.1 category) so debug-mode CI stays fast, with
/// a two-carrier mix so the deterministic per-user carrier draw is
/// actually exercised.
fn scenario_200() -> Scenario {
    let mut s = Scenario::new(200, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    s.master_seed = 0xC0FFEE;
    s.shard_size = 17; // ragged last shard
    s.sim.window_capacity = 25; // smaller predictor window: CI speed
    s.app_mix = vec![(AppKind::Im, 1.0)];
    s.carrier_mix = vec![(CarrierProfile::verizon_lte(), 2.0), (CarrierProfile::att_hspa(), 1.0)];
    s
}

fn run_unobserved(source: &UserSource, threads: usize) -> Result<FleetReport, ScenError> {
    run_source(source, threads, Obs::none(), None)
}

/// A corpus scenario that mirrors `scenario_200` over the given corpus
/// directory.
fn corpus_of(scenario: &Scenario, dir: &std::path::Path) -> CorpusScenario {
    let mut c = CorpusScenario::new(dir, scenario.scheme, CarrierProfile::verizon_lte());
    c.carrier_mix = scenario.carrier_mix.clone();
    c.master_seed = scenario.master_seed;
    c.shard_size = scenario.shard_size;
    c.sim = scenario.sim.clone();
    c
}

#[test]
fn corpus_replay_is_thread_invariant_and_matches_synthetic_user_for_user() {
    let scenario = scenario_200();
    let dir = temp_dir("main");
    assert_eq!(synth_corpus(&scenario, &dir, TraceFormat::Binary, 8).unwrap(), 200);

    // --- bit-identical reports at 1, 2, and 8 threads -----------------
    let source = UserSource::Corpus(corpus_of(&scenario, &dir));
    let single = run_unobserved(&source, 1).unwrap();
    let double = run_unobserved(&source, 2).unwrap();
    let octo = run_unobserved(&source, 8).unwrap();
    assert_eq!(single, double);
    assert_eq!(single, octo);
    assert_eq!(single.users, 200);
    assert!(single.source.contains("200 traces"), "{}", single.source);

    // Rendered reports are byte-identical once the measured wall-clock
    // fields (explicitly excluded from the determinism contract) are
    // normalized away.
    let rendered = |r: &tailwise_fleet::FleetReport| {
        let mut r = r.clone();
        r.wall_seconds = 0.0;
        r.threads = 1;
        r.render()
    };
    assert_eq!(rendered(&single), rendered(&double));
    assert_eq!(rendered(&single), rendered(&octo));

    // --- user-for-user equivalence with the synthetic run -------------
    // Same traces (binary round trip is lossless), same carriers (the
    // shared deterministic draw), same fold order (same shard size) —
    // so every deterministic aggregate matches to the bit. Only naming,
    // provenance, and user-day accounting (declared days vs. trace
    // span) may differ.
    let synthetic = run(&scenario, 4);
    assert_eq!(single.energy_j.to_bits(), synthetic.energy_j.to_bits());
    assert_eq!(single.baseline_energy_j.to_bits(), synthetic.baseline_energy_j.to_bits());
    assert_eq!(single.packets, synthetic.packets);
    assert_eq!(single.switches, synthetic.switches);
    assert_eq!(single.baseline_switches, synthetic.baseline_switches);
    assert_eq!(single.false_switches, synthetic.false_switches);
    assert_eq!(single.missed_switches, synthetic.missed_switches);
    assert_eq!(single.decisions, synthetic.decisions);
    // The per-user savings distribution is the user-for-user claim in
    // aggregate form: identical per-user values land in identical bins.
    assert_eq!(single.savings, synthetic.savings);

    // Spot-check individual users end to end: the file on disk holds
    // exactly user i's trace, and simulating it on user i's carrier
    // reproduces user i's energy to the bit.
    for index in [0u64, 41, 199] {
        let (carrier, model) = scenario.user(index);
        let from_model = model.generate();
        let from_disk =
            tailwise_trace::io::load(&dir.join(format!("user_{index:06}.twt"))).unwrap();
        assert_eq!(from_model, from_disk, "user {index} trace drifted through disk");
        let a = scenario.scheme.run(&carrier, &scenario.sim, &from_model);
        let b = scenario.scheme.run(&carrier, &scenario.sim, &from_disk);
        assert_eq!(
            a.total_energy().to_bits(),
            b.total_energy().to_bits(),
            "user {index} energy drifted"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn csv_and_binary_corpora_replay_identically() {
    let mut scenario = scenario_200();
    scenario.users = 12;
    let bin_dir = temp_dir("bin");
    let csv_dir = temp_dir("csv");
    synth_corpus(&scenario, &bin_dir, TraceFormat::Binary, 4).unwrap();
    synth_corpus(&scenario, &csv_dir, TraceFormat::Csv, 4).unwrap();
    let bin = run_unobserved(&UserSource::Corpus(corpus_of(&scenario, &bin_dir)), 2).unwrap();
    let csv = run_unobserved(&UserSource::Corpus(corpus_of(&scenario, &csv_dir)), 2).unwrap();
    // Same numbers from either encoding (provenance and name differ).
    assert_eq!(bin.energy_j.to_bits(), csv.energy_j.to_bits());
    assert_eq!(bin.baseline_energy_j.to_bits(), csv.baseline_energy_j.to_bits());
    assert_eq!(bin.packets, csv.packets);
    assert_eq!(bin.savings, csv.savings);
    std::fs::remove_dir_all(&bin_dir).unwrap();
    std::fs::remove_dir_all(&csv_dir).unwrap();
}

#[test]
fn corpus_sweeps_hold_the_corpus_fixed_across_schemes() {
    let mut scenario = scenario_200();
    scenario.users = 8;
    let dir = temp_dir("sweep");
    synth_corpus(&scenario, &dir, TraceFormat::Binary, 4).unwrap();
    let set = SourceSet {
        source: UserSource::Corpus(corpus_of(&scenario, &dir)),
        axes: vec![tailwise_fleet::SweepAxis::Schemes(vec![
            Scheme::StatusQuo,
            Scheme::MakeIdle,
            Scheme::Oracle,
        ])],
    };
    // A file landing in the directory after the sweep resolved its walk
    // cannot change the replayed population: rows after the first
    // replay the pinned file list.
    let mut extra = scenario.clone();
    extra.users = 1;
    let straggler = dir.join("zz-straggler");
    let sweep = run_source_sweep_streamed(&set, 4, Obs::none(), None, &mut |index, _| {
        if index == 0 {
            synth_corpus(&extra, &straggler, TraceFormat::Binary, 1).unwrap();
        }
        true
    })
    .unwrap()
    .expect("an always-continue sweep finishes");
    assert_eq!(sweep.rows.len(), 3);
    // Same corpus in every cell: identical baselines, ordered energies.
    let baseline = sweep.rows[0].report.baseline_energy_j.to_bits();
    for row in &sweep.rows {
        assert_eq!(row.report.users, 8, "{}: pinned walk ignores the straggler", row.label);
        assert_eq!(row.report.baseline_energy_j.to_bits(), baseline, "{}", row.label);
    }
    let oracle = &sweep.rows[2].report;
    let makeidle = &sweep.rows[1].report;
    assert!(oracle.energy_j <= makeidle.energy_j + 1e-6);

    // Each cell reproduces standalone, at a different thread count, once
    // the straggler is gone again.
    std::fs::remove_dir_all(&straggler).unwrap();
    for row in &sweep.rows {
        assert_eq!(row.report, run_unobserved(&row.source, 1).unwrap(), "{}", row.label);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The golden runtime errors the issue calls for: a `[corpus]` scenario
/// whose directory is missing or empty fails at run time with the exact
/// line/column of the file's `dir` key and a descriptive message.
#[test]
fn golden_runtime_errors_cite_the_dir_keys_position() {
    let doc = concat!(
        "[scenario]\n",                         // 1
        "name = \"runtime golden\"\n",          // 2
        "[corpus]\n",                           // 3
        "dir = \"/nonexistent/tailwise-it\"\n", // 4 (value at col 7)
        "[[carrier]]\n",                        // 5
        "profile = \"att-hspa\"\n",             // 6
    );
    let set = SourceSet::from_toml_str(doc).unwrap();
    let err = run_unobserved(&set.source, 2).unwrap_err();
    assert_eq!(err.pos, Pos::new(4, 7));
    assert_eq!(err.kind, ScenErrorKind::Run);
    // The OS spells out the cause; the stable part is our prefix.
    assert!(
        err.message.starts_with("cannot read corpus directory /nonexistent/tailwise-it: "),
        "{err}"
    );

    // Empty directory: same anchor, different message.
    let dir = temp_dir("golden-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = format!(
        "[scenario]\nname = \"runtime golden\"\n[corpus]\ndir = \"{}\"\n\
         [[carrier]]\nprofile = \"att-hspa\"\n",
        dir.display()
    );
    let set = SourceSet::from_toml_str(&doc).unwrap();
    let err = run_unobserved(&set.source, 2).unwrap_err();
    assert_eq!(err.pos, Pos::new(4, 7));
    assert_eq!(err.kind, ScenErrorKind::Run);
    assert_eq!(
        err.message,
        format!(
            "corpus directory {} contains no trace files (formats: twt, csv, pcap)",
            dir.display()
        )
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
