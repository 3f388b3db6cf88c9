//! What `cache_fleet.rs` and `replay_fleet.rs` share: the CI-scale storm
//! sweep both run against a `RequestCache` (which holds the request
//! streams and the replay memo), the readers of its counters and spill
//! files, and the two contracts both stores keep — a cached sweep is
//! bit-identical to the uncached one at 1, 2 and 8 threads, and a
//! damaged spill costs a recomputation, never an answer.

use std::path::{Path, PathBuf};

use tailwise_fleet::{
    run_source_sweep_cached, AdmissionSpec, MobilitySpec, RequestCache, RunManifest, SourceSet,
    SweepAxis, SweepReport, UserSource,
};
use tailwise_obs::{Obs, Recorder, Snapshot, StatsRecorder};

pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-cache-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The storm population: 4 shards, the last one ragged.
pub const USERS: u64 = 10;

/// The library's RNC-storm admission sweep, shrunk to CI scale. The
/// population size, shard size and predictor window change, and the
/// reactive cell's watermark falls to 7 msg/s. At this scale the
/// storm's own 50 msg/s denies nobody, so that cell would hand every
/// user the first cell's verdicts, while 6 msg/s or less denies almost
/// every user something; at 7 it denies a few users, so the cell folds
/// memo hits and live replays. Each admission policy runs under static
/// pinning and the commute. The topology, mixes and seed stay exactly
/// as declared on disk.
pub fn storm_set() -> SourceSet {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/rnc_storm.toml");
    let mut set = SourceSet::from_file(path).expect("library storm file parses");
    let UserSource::Synthetic(base) = &mut set.source else { panic!("storm is synthetic") };
    base.users = USERS;
    base.shard_size = 3; // ragged last shard
    base.sim.window_capacity = 25; // smaller predictor window: CI speed
    set.axes = vec![
        SweepAxis::Admission(vec![
            AdmissionSpec::Always,
            AdmissionSpec::LoadReactive { watermark_per_s: 7, window_s: 5 },
        ]),
        SweepAxis::Mobility(vec![MobilitySpec::Static, MobilitySpec::commute()]),
    ];
    set
}

/// Rendered text with the measured fields (excluded from the
/// determinism contract) normalized away.
pub fn rendered(sweep: &SweepReport) -> String {
    let mut sweep = sweep.clone();
    for row in &mut sweep.rows {
        row.report.wall_seconds = 0.0;
        row.report.threads = 1;
        row.report.timings = None;
    }
    sweep.render()
}

/// Runs `set` against `cache` under a fresh recorder, returning the
/// report, its manifest digest, and the counter snapshot.
pub fn run_set(
    set: &SourceSet,
    threads: usize,
    cache: Option<&RequestCache>,
) -> (SweepReport, u64, Snapshot) {
    let UserSource::Synthetic(base) = &set.source else { unreachable!("storm is synthetic") };
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let sweep = run_source_sweep_cached(set, threads, obs, cache).unwrap();
    let snapshot = recorder.snapshot();
    let digest = RunManifest::for_sweep(&sweep, threads, base.master_seed, &snapshot).digest();
    (sweep, digest, snapshot)
}

/// [`run_set`] over the storm sweep.
pub fn run_storm(threads: usize, cache: Option<&RequestCache>) -> (SweepReport, u64, Snapshot) {
    run_set(&storm_set(), threads, cache)
}

/// A fresh disk cache over `dir`: a later process, conceptually.
pub fn disk(dir: &Path) -> RequestCache {
    RequestCache::with_dir(dir).unwrap()
}

pub fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// The one spill file in `dir` with extension `ext`.
pub fn only_spill(dir: &Path, ext: &str) -> PathBuf {
    let mut spills: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    assert_eq!(spills.len(), 1, "expected one .{ext} spill: {spills:?}");
    spills.pop().unwrap()
}

/// Every file in a spill directory, by name, with its bytes.
pub fn spill_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name().into_string().unwrap(), std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The identity harness: the storm sweep at 1, 2 and 8 threads, each run
/// against the fresh cache `cache(threads)` returns, equals the uncached
/// sweep bit for bit — report, rendered text and manifest digest —
/// while both stores' counters show the reuse happened. Returns each
/// run's thread count and counters.
pub fn assert_cached_sweeps_match_uncached(
    cache: impl Fn(usize) -> RequestCache,
) -> Vec<(usize, Snapshot)> {
    let (baseline, base_digest, no_cache) = run_storm(2, None);
    assert_eq!(baseline.rows.len(), 4, "the storm sweeps admission × mobility");
    // Uncached runs never consult either store, so they emit no cache
    // or replay counters at all.
    for name in ["cache_hits", "cache_misses", "replay_hits", "replay_misses"] {
        assert_eq!(counter(&no_cache, name), 0, "{name}");
    }
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let (cached, digest, counters) = run_storm(threads, Some(&cache(threads)));
        assert_eq!(baseline, cached, "threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&cached), "threads={threads}");
        assert_eq!(base_digest, digest, "manifest digest, threads={threads}");
        assert_reused(&counters, threads);
        runs.push((threads, counters));
    }
    runs
}

/// One extraction serves every cell, and the memo folds both hits and
/// live replays: the `always`/`commute` cell grants what the
/// `always`/`static` cell granted, so it hits every user, and the gated
/// cells replay the users they deny something.
fn assert_reused(counters: &Snapshot, threads: usize) {
    assert_eq!(counter(counters, "cache_misses"), 1, "threads={threads}");
    assert_eq!(counter(counters, "cache_hits"), 3, "threads={threads}");
    assert!(counter(counters, "replay_hits") >= USERS, "threads={threads}");
    assert!(counter(counters, "replay_misses") > USERS, "threads={threads}");
    assert_eq!(counter(counters, "cache_fallbacks"), 0, "threads={threads}");
    assert_eq!(counter(counters, "replay_fallbacks"), 0, "threads={threads}");
}

/// A warm run rewrites no spill of either kind, and distrusts none.
pub fn assert_spilled_nothing(counters: &Snapshot) {
    assert_eq!(counter(counters, "replay_spills"), 0, "a warm run must not re-spill outcomes");
    assert_eq!(counter(counters, "cache_spills"), 0, "a warm run must not re-spill requests");
    assert_eq!(counter(counters, "replay_fallbacks"), 0);
    assert_eq!(counter(counters, "cache_fallbacks"), 0);
}

/// Seeds a disk cache with a cold storm sweep, then damages its one
/// `.{ext}` spill twice — a flipped payload byte, which the checksum
/// rejects, and a file cut short. Each run over a fresh cache reports
/// and digests as the cold run did, counts one fallback on `fallbacks`,
/// and rewrites the file it distrusted as it was. Returns the two
/// damaged runs' counters.
pub fn assert_damaged_spills_fall_back(ext: &str, fallbacks: &str) -> Vec<Snapshot> {
    let dir = temp_dir(&format!("damaged-{ext}"));
    let (baseline, base_digest, _) = run_storm(2, Some(&disk(&dir)));
    let spill = only_spill(&dir, ext);
    let pristine = std::fs::read(&spill).unwrap();
    let mut corrupt = pristine.clone();
    corrupt[pristine.len() / 2] ^= 0x40;
    let truncated = pristine[..pristine.len() / 3].to_vec();
    let mut runs = Vec::new();
    for (damage, bytes) in [("corrupt", corrupt), ("truncated", truncated)] {
        std::fs::write(&spill, &bytes).unwrap();
        let (report, digest, counters) = run_storm(2, Some(&disk(&dir)));
        assert_eq!(baseline, report, "a {damage} .{ext} must not change the answer");
        assert_eq!(rendered(&baseline), rendered(&report));
        assert_eq!(base_digest, digest, "a {damage} .{ext} must not change the digest");
        assert_eq!(counter(&counters, fallbacks), 1, "a {damage} .{ext} is one fallback");
        assert!(std::fs::read(&spill).unwrap() == pristine, "the {damage} .{ext} was rewritten");
        runs.push(counters);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    runs
}
