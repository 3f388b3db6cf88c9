//! The phase-1 request cache never changes an answer — only the bill.
//!
//! Pins the caching acceptance claims end-to-end against the library's
//! `rnc_storm.toml` admission sweep (shrunk to CI scale, structure kept
//! exactly as declared on disk):
//!
//! * a cached sweep — in-memory or disk-backed — produces a
//!   **bit-identical** `SweepReport` (including rendered text) to the
//!   uncached sweep at 1, 2, and 8 threads, while the counters show the
//!   reuse actually happened;
//! * a cold on-disk cache spills `.twc` files that an entirely fresh
//!   cache (a later process, conceptually) warm-starts from, again
//!   bit-identically;
//! * a corrupted or truncated spill file degrades to recomputation —
//!   the report stays identical and `cache_fallbacks` counts the save;
//! * a corpus sweep resolves its directory walk exactly once
//!   (`corpus_walks == 1`), however many rows it expands into.

use std::path::PathBuf;

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run_source_sweep_cached, synth_corpus, CorpusScenario, RequestCache, Scenario, SourceSet,
    SweepAxis, SweepReport, UserSource,
};
use tailwise_obs::{Obs, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::TraceFormat;
use tailwise_workload::apps::AppKind;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-cache-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The storm population: 4 shards, the last one ragged.
const USERS: u64 = 10;

/// The library's RNC-storm admission sweep, shrunk to CI scale. Only
/// the population size, shard size and predictor window change; the
/// topology, mixes, seed, and `[[sweep]]` axes stay exactly as declared
/// on disk.
fn storm_set() -> SourceSet {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/rnc_storm.toml");
    let mut set = SourceSet::from_file(path).expect("library storm file parses");
    let UserSource::Synthetic(base) = &mut set.source else { panic!("storm is synthetic") };
    base.users = USERS;
    base.shard_size = 3; // ragged last shard
    base.sim.window_capacity = 25; // smaller predictor window: CI speed
    set
}

/// Rendered text with the measured fields (excluded from the
/// determinism contract) normalized away.
fn rendered(sweep: &SweepReport) -> String {
    let mut sweep = sweep.clone();
    for row in &mut sweep.rows {
        row.report.wall_seconds = 0.0;
        row.report.threads = 1;
        row.report.timings = None;
    }
    sweep.render()
}

/// Runs the storm sweep against `cache` under a fresh recorder,
/// returning the report and the counter snapshot.
fn run_storm(
    threads: usize,
    cache: Option<&RequestCache>,
) -> (SweepReport, tailwise_obs::Snapshot) {
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let sweep = run_source_sweep_cached(&storm_set(), threads, obs, cache).unwrap();
    (sweep, recorder.snapshot())
}

fn counter(snapshot: &tailwise_obs::Snapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn cached_sweeps_are_bit_identical_to_uncached_at_1_2_8_threads() {
    let (baseline, no_cache_counters) = run_storm(2, None);
    assert!(baseline.rows.len() >= 2, "storm file should sweep admission");
    assert_eq!(counter(&no_cache_counters, "cache_hits"), 0);
    assert_eq!(counter(&no_cache_counters, "cache_misses"), 0);

    let dir = temp_dir("identity");
    for threads in [1usize, 2, 8] {
        // In-memory cache: the second admission cell reuses the first
        // cell's extraction and the whole population's baselines.
        let memory = RequestCache::in_memory();
        let (cached, counters) = run_storm(threads, Some(&memory));
        assert_eq!(baseline, cached, "memory cache, threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&cached), "memory cache, threads={threads}");
        assert_eq!(counter(&counters, "cache_misses"), 1, "threads={threads}");
        assert!(counter(&counters, "cache_hits") >= 1, "threads={threads}");
        assert_eq!(counter(&counters, "cache_fallbacks"), 0, "threads={threads}");

        // Disk-backed cache: same contract, plus a spill.
        let disk_dir = dir.join(format!("t{threads}"));
        let disk = RequestCache::with_dir(&disk_dir).unwrap();
        let (cached, counters) = run_storm(threads, Some(&disk));
        assert_eq!(baseline, cached, "disk cache, threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&cached), "disk cache, threads={threads}");
        assert!(counter(&counters, "cache_spills") >= 1, "threads={threads}");
        assert_eq!(counter(&counters, "cache_fallbacks"), 0, "threads={threads}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_cache_warm_starts_a_fresh_process_bit_identically() {
    let dir = temp_dir("warm");

    // Cold: the first run misses, extracts, and spills.
    let cold_cache = RequestCache::with_dir(&dir).unwrap();
    let (cold, cold_counters) = run_storm(2, Some(&cold_cache));
    assert_eq!(counter(&cold_counters, "cache_misses"), 1);
    assert!(counter(&cold_counters, "cache_spills") >= 1);
    let spills: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "twc"))
        .collect();
    assert_eq!(spills.len(), 1, "one scheme in the sweep, one spill: {spills:?}");

    // Warm: an entirely fresh cache over the same directory — a later
    // process — serves every cell's streams from the spill file.
    let warm_cache = RequestCache::with_dir(&dir).unwrap();
    let (warm, warm_counters) = run_storm(2, Some(&warm_cache));
    assert_eq!(cold, warm);
    assert_eq!(rendered(&cold), rendered(&warm));
    assert_eq!(counter(&warm_counters, "cache_misses"), 0, "warm run should never extract");
    assert!(counter(&warm_counters, "cache_hits") >= 2, "every cell should hit");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_and_truncated_spills_fall_back_to_recomputation() {
    let dir = temp_dir("corrupt");
    let seed_cache = RequestCache::with_dir(&dir).unwrap();
    let (baseline, _) = run_storm(2, Some(&seed_cache));
    let spill = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "twc"))
        .expect("seed run spilled a .twc file");
    let pristine = std::fs::read(&spill).unwrap();

    // A flipped payload byte: the checksum rejects it, the run
    // recomputes, and the report cannot tell the difference.
    let mut corrupt = pristine.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&spill, &corrupt).unwrap();
    let cache = RequestCache::with_dir(&dir).unwrap();
    let (report, counters) = run_storm(2, Some(&cache));
    assert_eq!(baseline, report, "corrupt spill must not change the answer");
    assert_eq!(rendered(&baseline), rendered(&report));
    assert!(counter(&counters, "cache_fallbacks") > 0, "corruption must be counted");

    // A truncated file: same contract.
    std::fs::write(&spill, &pristine[..pristine.len() / 3]).unwrap();
    let cache = RequestCache::with_dir(&dir).unwrap();
    let (report, counters) = run_storm(2, Some(&cache));
    assert_eq!(baseline, report, "truncated spill must not change the answer");
    assert!(counter(&counters, "cache_fallbacks") > 0, "truncation must be counted");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corpus_sweep_walks_the_directory_once() {
    let fixture = temp_dir("corpus");
    let mut seeder = Scenario::new(6, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    seeder.app_mix = vec![(AppKind::Im, 1.0)];
    assert_eq!(synth_corpus(&seeder, &fixture, TraceFormat::Binary, 2).unwrap(), 6);

    let mut corpus = CorpusScenario::new(&fixture, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    corpus.shard_size = 2;
    let set = SourceSet {
        source: UserSource::Corpus(corpus),
        axes: vec![SweepAxis::Schemes(vec![
            Scheme::StatusQuo,
            Scheme::FixedTail45,
            Scheme::MakeIdle,
        ])],
    };
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let sweep = run_source_sweep_cached(&set, 2, obs, None).unwrap();
    assert_eq!(sweep.rows.len(), 3);
    let snapshot = recorder.snapshot();
    assert_eq!(
        snapshot.counters.get("corpus_walks"),
        Some(&1),
        "row N must replay row 0's pinned walk, not re-resolve the directory"
    );
    assert_eq!(snapshot.counters.get("traces_loaded"), Some(&(6 * 3)));
    std::fs::remove_dir_all(&fixture).unwrap();
}
