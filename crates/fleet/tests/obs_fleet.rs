//! Observability end-to-end: recording never perturbs results.
//!
//! Pins the acceptance claims of `tailwise-obs` wired through the
//! fleet stack:
//!
//! * a 3-RNC × 12-cell topology fleet and a corpus replay produce
//!   **bit-identical** `FleetReport`s (including rendered text) under a
//!   `NullRecorder` and under a full `StatsRecorder` + progress table,
//!   at 1, 2, and 8 threads;
//! * an observed topology run attaches all four positive phase timings
//!   and publishes truthful progress totals (both passes count, so a
//!   finished run reports `2 × users` done of `2 × users` expected);
//! * the `--metrics` manifest of an admission sweep re-parses through
//!   `tailwise-scenfile` with every expected key, equal to the
//!   original, from a string and from a file;
//! * a cold topology run times pass 1's two walks per user (`extract`
//!   and `status_quo`, inside `simulate`), and a warm one neither;
//! * a disk-cached run times each spill it reads or writes.

use std::path::PathBuf;

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run, run_source, run_source_sweep_cached, synth_corpus, AdmissionSpec, CorpusScenario,
    FleetReport, NetworkTopology, RequestCache, RunManifest, Scenario, SourceSet, SweepAxis,
    UserSource,
};
use tailwise_obs::{Obs, ProgressTable, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::TraceFormat;
use tailwise_workload::apps::AppKind;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-obs-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small 3-RNC × 12-cell storm: tight budgets and a load-reactive
/// RNC gate so every phase (and both denial counters) sees real work,
/// kept to background IM so debug-mode CI stays fast.
fn storm_scenario(users: u64) -> Scenario {
    let mut s = Scenario::new(users, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    s.master_seed = 0x0B5;
    s.shard_size = 7; // ragged last shard
    s.sim.window_capacity = 25;
    s.app_mix = vec![(AppKind::Im, 1.0)];
    let mut topology = NetworkTopology::with_rncs(3, 12);
    topology.cell_budget.capacity_per_s = Some(8);
    topology.rnc_budget.capacity_per_s = Some(40);
    topology.rnc_admission = AdmissionSpec::LoadReactive { watermark_per_s: 5, window_s: 5 };
    s.cells = Some(topology);
    s
}

/// Rendered text with the measured fields (excluded from the
/// determinism contract) normalized away.
fn rendered(report: &FleetReport) -> String {
    let mut report = report.clone();
    report.wall_seconds = 0.0;
    report.threads = 1;
    report.timings = None;
    report.render()
}

#[test]
fn observed_topology_run_is_bit_identical_at_1_2_8_threads() {
    let scenario = storm_scenario(48);
    let source = UserSource::Synthetic(scenario.clone());
    let baseline = run(&scenario, 1); // NullRecorder via Obs::none()
    for threads in [1usize, 2, 8] {
        let recorder = StatsRecorder::new();
        let table = ProgressTable::new(threads);
        let obs = Obs { recorder: &recorder, progress: Some(&table) };
        let observed = run_source(&source, threads, obs, None).unwrap();
        assert_eq!(baseline, observed, "threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&observed), "threads={threads}");

        // The observed run attaches a full phase breakdown: all four
        // phases did real work in a topology run.
        let timings = observed.timings.as_ref().expect("observed run attaches timings");
        for (name, seconds) in timings.phases() {
            assert!(seconds > 0.0, "phase {name} recorded no time (threads={threads})");
        }
        assert!(!timings.worker_busy.is_empty());

        // Progress: both passes count every user, and the published
        // expected total agrees with what actually happened.
        let totals = table.totals();
        assert_eq!(totals.users_done, scenario.users * 2, "threads={threads}");
        assert_eq!(table.users_total(), scenario.users * 2, "threads={threads}");
        assert_eq!(totals.traces_failed, 0);

        // Counters line up with the report.
        let snapshot = recorder.snapshot();
        // Pass 2 records one `replay` span per user, and the load
        // scoring after it one more, on the calling thread.
        assert_eq!(snapshot.spans["replay"].count, scenario.users + 1, "threads={threads}");
        assert_eq!(snapshot.counters.get("users_simulated"), Some(&scenario.users));
        assert_eq!(snapshot.counters.get("user_days"), Some(&baseline.user_days));
        let granted = snapshot.counters.get("requests_granted").copied().unwrap_or(0);
        let denied = snapshot.counters.get("requests_denied").copied().unwrap_or(0);
        let signaling = baseline.signaling.as_ref().expect("topology run reports signaling");
        assert_eq!(granted, signaling.granted());
        assert_eq!(denied, signaling.denied());
    }
    // The unobserved baseline carries no timings at all.
    assert!(baseline.timings.is_none());
}

#[test]
fn pass_one_times_extraction_and_the_status_quo_walk_per_user() {
    // A cold topology run's pass 1 records, inside each user's
    // `simulate` span, one `extract` and one `status_quo` span; a warm
    // run served from the request cache runs no pass 1 and records
    // none of the three.
    let scenario = storm_scenario(9);
    let source = UserSource::Synthetic(scenario.clone());
    let cache = RequestCache::in_memory();
    let spans = || {
        let recorder = StatsRecorder::new();
        let obs = Obs { recorder: &recorder, progress: None };
        run_source(&source, 2, obs, Some(&cache)).unwrap();
        let snapshot = recorder.snapshot();
        let stat = |name: &str| snapshot.spans.get(name).map_or((0, 0), |s| (s.count, s.nanos));
        [stat("simulate"), stat("extract"), stat("status_quo")]
    };
    let [simulate, extract, status_quo] = spans();
    assert_eq!([simulate.0, extract.0, status_quo.0], [scenario.users; 3], "cold span counts");
    assert!(extract.1 > 0 && status_quo.1 > 0);
    assert!(extract.1 + status_quo.1 <= simulate.1, "the two walks nest inside `simulate`");
    let warm = spans().map(|(count, _)| count);
    assert_eq!(warm, [0; 3], "a warm run runs no pass 1");
}

#[test]
fn observed_corpus_replay_is_bit_identical_at_1_2_8_threads() {
    let mut scenario = Scenario::new(24, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    scenario.master_seed = 0xC0FFEE;
    scenario.shard_size = 5;
    scenario.sim.window_capacity = 25;
    scenario.app_mix = vec![(AppKind::Im, 1.0)];
    let dir = temp_dir("corpus");
    assert_eq!(synth_corpus(&scenario, &dir, TraceFormat::Binary, 4).unwrap(), 24);

    let mut corpus = CorpusScenario::new(&dir, scenario.scheme, CarrierProfile::verizon_lte());
    corpus.master_seed = scenario.master_seed;
    corpus.shard_size = scenario.shard_size;
    corpus.sim = scenario.sim.clone();
    let source = UserSource::Corpus(corpus);

    let baseline = run_source(&source, 2, Obs::none(), None).unwrap();
    for threads in [1usize, 2, 8] {
        let recorder = StatsRecorder::new();
        let table = ProgressTable::new(threads);
        let obs = Obs { recorder: &recorder, progress: Some(&table) };
        let observed = run_source(&source, threads, obs, None).unwrap();
        assert_eq!(baseline, observed, "threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&observed), "threads={threads}");

        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counters.get("traces_loaded"), Some(&24));
        assert_eq!(snapshot.counters.get("users_simulated"), Some(&24));
        assert!(snapshot.span_seconds("synthesize") > 0.0, "corpus load is the synthesize phase");
        assert!(snapshot.span_seconds("simulate") > 0.0);

        let totals = table.totals();
        assert_eq!(totals.users_done, 24);
        assert_eq!(table.users_total(), 24);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recording_is_free_when_off() {
    // Obs::none() reports disabled, hands out detached counters, and
    // snapshots empty — the contract that lets the hot path skip all
    // clock reads with one branch.
    let obs = Obs::none();
    assert!(!obs.recorder.enabled());
    obs.recorder.counter("users_simulated").add(5);
    let snapshot = obs.recorder.snapshot();
    assert!(snapshot.counters.is_empty());
    assert_eq!(snapshot.span_seconds("run"), 0.0);
}

#[test]
fn sweep_manifest_round_trips_with_every_key() {
    let base = storm_scenario(24);
    let set = SourceSet {
        source: UserSource::Synthetic(base.clone()),
        axes: vec![SweepAxis::Admission(vec![
            AdmissionSpec::Always,
            AdmissionSpec::LoadReactive { watermark_per_s: 5, window_s: 5 },
        ])],
    };
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let cache = RequestCache::in_memory();
    let sweep = run_source_sweep_cached(&set, 2, obs, Some(&cache)).unwrap();
    assert_eq!(sweep.rows.len(), 2);

    let manifest = RunManifest::for_sweep(&sweep, 2, base.master_seed, &recorder.snapshot());
    assert_eq!(manifest.seed, 0x0B5);
    assert_eq!(manifest.reports.len(), 2);
    assert_eq!(manifest.reports[0].label, "admission=always");
    assert!(manifest.zero_phases().is_empty(), "zero phases: {:?}", manifest.zero_phases());
    assert!(manifest.wall_seconds > 0.0);
    for counter in [
        "users_simulated",
        "user_days",
        "requests_granted",
        "requests_denied",
        "requests_denied_by_rnc",
    ] {
        assert!(manifest.counters.contains_key(counter), "missing counter {counter}");
    }

    // The emitted document carries every schema key and re-parses,
    // strictly, to an equal manifest.
    let toml = manifest.to_toml_string();
    for key in [
        "name",
        "scheme",
        "source",
        "seed",
        "threads",
        "runs",
        "wall_seconds",
        "synthesize_s",
        "simulate_s",
        "adjudicate_s",
        "replay_s",
        "worker_busy",
        "label",
        "scenario",
        "users",
        "user_days",
        "packets",
        "energy_j",
        "baseline_energy_j",
        "saved_pct",
        "switches",
        "baseline_switches",
        "false_switches",
        "missed_switches",
        "decisions",
        "granted",
        "denied",
        "denied_by_rnc",
        "peak_messages_per_s",
        "cell_overload_s",
        "rnc_overload_s",
    ] {
        assert!(toml.contains(&format!("{key} = ")), "missing key {key} in:\n{toml}");
    }
    assert_eq!(RunManifest::from_toml_str(&toml).unwrap(), manifest);

    // Same through a file, with the path as error origin on the way in.
    let path =
        std::env::temp_dir().join(format!("tailwise-obs-it-manifest-{}.toml", std::process::id()));
    manifest.to_file(&path).unwrap();
    assert_eq!(RunManifest::from_file(&path).unwrap(), manifest);
    std::fs::remove_file(&path).unwrap();

    // Each sweep row is its own run: per-row timings attached and the
    // whole-sweep "run" span covers both.
    for row in &sweep.rows {
        let timings = row.report.timings.as_ref().expect("observed rows attach timings");
        assert!(timings.phases().iter().any(|(_, s)| *s > 0.0), "{}", row.label);
    }
}

#[test]
fn cached_run_manifests_carry_the_cache_store_gauges() {
    // A cached sweep sets one gauge per store and measure after each
    // cell; the manifest keeps the last values, writes them as its
    // `[gauges]` table, reads them back, and leaves them out of the
    // digest.
    let base = storm_scenario(12);
    let set = SourceSet {
        source: UserSource::Synthetic(base.clone()),
        axes: vec![SweepAxis::Admission(vec![
            AdmissionSpec::Always,
            AdmissionSpec::LoadReactive { watermark_per_s: 5, window_s: 5 },
        ])],
    };
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let cache = RequestCache::in_memory();
    let sweep = run_source_sweep_cached(&set, 2, obs, Some(&cache)).unwrap();
    let manifest = RunManifest::for_sweep(&sweep, 2, base.master_seed, &recorder.snapshot());

    let sizes = cache.sizes();
    for (name, value) in [
        ("cache_stream_entries", sizes.streams.entries),
        ("cache_stream_bytes", sizes.streams.bytes),
        ("cache_memo_entries", sizes.memo.entries),
        ("cache_memo_bytes", sizes.memo.bytes),
    ] {
        assert!(value > 0, "{name} is zero");
        assert_eq!(manifest.gauges.get(name), Some(&value), "{name}");
    }
    // One stream per user, its baseline included; at least one memo
    // entry per user (a user whose verdicts changed between cells holds
    // two).
    assert_eq!(sizes.streams.entries, 12);
    assert!(sizes.memo.entries >= 12, "{sizes:?}");
    // Two stores, two gauges each, and nothing else.
    let names: Vec<&str> = manifest.gauges.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        ["cache_memo_bytes", "cache_memo_entries", "cache_stream_bytes", "cache_stream_entries"]
    );

    let text = manifest.to_toml_string();
    assert!(text.contains("\n[gauges]\n"), "{text}");
    let parsed = RunManifest::from_toml_str(&text).unwrap();
    assert_eq!(parsed, manifest);
    let uncached = run_source_sweep_cached(&set, 2, Obs::none(), None).unwrap();
    let uncached = RunManifest::for_sweep(&uncached, 2, base.master_seed, &Default::default());
    assert!(uncached.gauges.is_empty());
    assert_eq!(uncached.digest(), manifest.digest(), "gauges must stay out of the digest");
}

#[test]
fn disk_cached_runs_time_their_spill_reads_and_writes() {
    // A cold run over an empty spill directory writes its `.twc` and its
    // `.twr` under one `spill_write` span each and reads nothing; a later
    // process reads both back under one `spill_read` span each and
    // writes nothing.
    let dir = temp_dir("spills");
    let set = SourceSet { source: UserSource::Synthetic(storm_scenario(6)), axes: Vec::new() };
    let spans = |disk: RequestCache| {
        let recorder = StatsRecorder::new();
        let obs = Obs { recorder: &recorder, progress: None };
        run_source_sweep_cached(&set, 2, obs, Some(&disk)).unwrap();
        let snapshot = recorder.snapshot();
        let count = |name: &str| snapshot.spans.get(name).map_or(0, |stat| stat.count);
        (count("spill_read"), count("spill_write"))
    };
    assert_eq!(spans(RequestCache::with_dir(&dir).unwrap()), (0, 2), "cold: reads, writes");
    assert_eq!(spans(RequestCache::with_dir(&dir).unwrap()), (2, 0), "warm: reads, writes");
    std::fs::remove_dir_all(&dir).unwrap();
}
