//! The phase-1 request cache never changes an answer — only the bill.
//!
//! Pins the caching acceptance claims end-to-end against the library's
//! `rnc_storm.toml` admission sweep (shrunk to CI scale, with its
//! reactive cell gated tight enough to deny at that scale):
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
//!   so does a spill left by an older format version;
//! * every cached stream carries its user's status-quo baseline, and
//!   a cold run holds the streams at exactly the size they read back
//!   from its spill at;
//! * a corpus sweep resolves its directory walk exactly once
//!   (`corpus_walks == 1`), however many rows it expands into.

use std::path::PathBuf;

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run_source_sweep_cached, synth_corpus, AdmissionSpec, CorpusScenario, RequestCache,
    RunManifest, Scenario, SourceSet, SweepAxis, SweepReport, UserSource,
};
use tailwise_obs::{Obs, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::io::{
    read_request_streams, RequestCacheHeader, RequestStream, REQUEST_VERSION,
};
use tailwise_trace::mix::splitmix64;
use tailwise_trace::TraceFormat;
use tailwise_workload::apps::AppKind;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-cache-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The storm population: 4 shards, the last one ragged.
const USERS: u64 = 10;

/// The library's RNC-storm admission sweep, shrunk to CI scale. The
/// population size, shard size and predictor window change, and the
/// reactive cell's watermark falls to 7 msg/s. At this scale the
/// storm's own 50 msg/s denies nobody, so that cell would hand every
/// user the first cell's verdicts, while 6 msg/s or less denies almost
/// every user something; at 7 it denies a few users, so the cell folds
/// memo hits and live replays. The topology, mixes and seed stay
/// exactly as declared on disk.
fn storm_set() -> SourceSet {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/rnc_storm.toml");
    let mut set = SourceSet::from_file(path).expect("library storm file parses");
    let UserSource::Synthetic(base) = &mut set.source else { panic!("storm is synthetic") };
    base.users = USERS;
    base.shard_size = 3; // ragged last shard
    base.sim.window_capacity = 25; // smaller predictor window: CI speed
    set.axes = vec![SweepAxis::Admission(vec![
        AdmissionSpec::Always,
        AdmissionSpec::LoadReactive { watermark_per_s: 7, window_s: 5 },
    ])];
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

/// The manifest digest of a storm sweep run at 2 threads.
fn digest(sweep: &SweepReport, snapshot: &tailwise_obs::Snapshot) -> u64 {
    let set = storm_set();
    let UserSource::Synthetic(base) = &set.source else { unreachable!("storm is synthetic") };
    RunManifest::for_sweep(sweep, 2, base.master_seed, snapshot).digest()
}

/// The one spill file in `dir` with extension `ext`.
fn only_spill(dir: &std::path::Path, ext: &str) -> PathBuf {
    let mut spills: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    assert_eq!(spills.len(), 1, "expected one .{ext} spill: {spills:?}");
    spills.pop().unwrap()
}

/// `streams` in the `.twc` layout of format version 1 or 2. Version 1
/// stored each user's request times alone, version 2 their confusion
/// counts after them; neither stored a baseline.
fn old_twc(version: u16, header: &RequestCacheHeader, streams: &[RequestStream]) -> Vec<u8> {
    let fold = |h: u64, word: u64| splitmix64(h ^ word);
    let mut checksum = 0x71C0_CACE_0000_0000u64;
    for word in [header.master_seed, header.users, header.days as u64, header.mix_hash] {
        checksum = fold(checksum, word);
    }
    checksum = fold(fold(checksum, header.sim_hash), header.scheme.len() as u64);
    for b in header.scheme.bytes() {
        checksum = fold(checksum, b as u64);
    }
    let mut out = b"TWRC".to_vec();
    out.extend(version.to_le_bytes());
    out.extend(header.master_seed.to_le_bytes());
    out.extend(header.users.to_le_bytes());
    out.extend(header.days.to_le_bytes());
    out.extend(header.mix_hash.to_le_bytes());
    out.extend(header.sim_hash.to_le_bytes());
    out.extend((header.scheme.len() as u16).to_le_bytes());
    out.extend(header.scheme.as_bytes());
    for stream in streams {
        out.extend((stream.times.len() as u64).to_le_bytes());
        checksum = fold(checksum, stream.times.len() as u64);
        for t in &stream.times {
            out.extend(t.as_micros().to_le_bytes());
            checksum = fold(checksum, t.as_micros() as u64);
        }
        if version == 2 {
            for count in stream.confusion {
                out.extend(count.to_le_bytes());
                checksum = fold(checksum, count);
            }
        }
    }
    out.extend(checksum.to_le_bytes());
    out
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
        assert_hits_and_replays(&counters, threads);

        // Disk-backed cache: same contract, plus a spill.
        let disk_dir = dir.join(format!("t{threads}"));
        let disk = RequestCache::with_dir(&disk_dir).unwrap();
        let (cached, counters) = run_storm(threads, Some(&disk));
        assert_eq!(baseline, cached, "disk cache, threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&cached), "disk cache, threads={threads}");
        assert!(counter(&counters, "cache_spills") >= 1, "threads={threads}");
        assert_eq!(counter(&counters, "cache_fallbacks"), 0, "threads={threads}");
        assert_hits_and_replays(&counters, threads);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first cell replays every user, so more misses than users and at
/// least one hit mean the gated second cell folded both.
fn assert_hits_and_replays(counters: &tailwise_obs::Snapshot, threads: usize) {
    assert!(counter(counters, "replay_hits") >= 1, "threads={threads}");
    assert!(counter(counters, "replay_misses") > USERS, "threads={threads}");
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
fn version_1_spill_is_a_counted_fallback() {
    let (reference, reference_counters) = run_storm(2, None);
    let reference_digest = digest(&reference, &reference_counters);

    // The population's streams, as the current version spills them…
    let seed_dir = temp_dir("old-seed");
    run_storm(2, Some(&RequestCache::with_dir(&seed_dir).unwrap()));
    let seed_spill = only_spill(&seed_dir, "twc");
    let (header, streams) =
        read_request_streams(std::fs::File::open(&seed_spill).unwrap()).unwrap();

    // …left under the same name in an older version's layout, with no
    // other spill beside it.
    for version in [1, 2] {
        let dir = temp_dir(&format!("v{version}"));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join(seed_spill.file_name().unwrap());
        std::fs::write(&spill, old_twc(version, &header, &streams)).unwrap();
        let (report, counters) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
        assert_eq!(counter(&counters, "cache_fallbacks"), 1, "a v{version} file is one fallback");
        assert_eq!(counter(&counters, "cache_misses"), 1, "the first cell must extract again");
        assert_eq!(reference, report, "a v{version} spill must not change the answer");
        assert_eq!(reference_digest, digest(&report, &counters), "v{version}");

        // The run replaced the old file with the current version…
        let bytes = std::fs::read(&spill).unwrap();
        assert_eq!(bytes[4..6], REQUEST_VERSION.to_le_bytes(), "v{version} was not rewritten");
        let (_, rewritten) = read_request_streams(bytes.as_slice()).unwrap();
        assert_eq!(rewritten, streams);

        // …which the next run warm-starts from.
        let (again, counters) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
        assert_eq!(reference, again);
        assert_eq!(counter(&counters, "cache_misses"), 0, "the v{version} rewrite must warm-start");
        assert_eq!(counter(&counters, "cache_fallbacks"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&seed_dir).unwrap();
}

#[test]
fn cached_stream_baselines_are_each_users_status_quo_run() {
    // Pass 1 scores the status quo beside each user's requests, and the
    // cache keeps and spills the two together: every stream's baseline
    // words are that user's own status-quo run, bit for bit.
    let dir = temp_dir("baselines");
    run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    let (_, streams) =
        read_request_streams(std::fs::File::open(only_spill(&dir, "twc")).unwrap()).unwrap();
    let set = storm_set();
    let UserSource::Synthetic(base) = &set.source else { unreachable!("storm is synthetic") };
    assert_eq!(streams.len() as u64, USERS);
    for (index, stream) in streams.iter().enumerate() {
        let (carrier, model) = base.user(index as u64);
        let status_quo = Scheme::StatusQuo.run(&carrier, &base.sim, &model.generate());
        assert_eq!(
            (stream.baseline_energy_bits, stream.baseline_switches),
            (status_quo.total_energy().to_bits(), status_quo.switch_cycles()),
            "user {index}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_streams_weigh_what_their_spill_reads_back_as() {
    // Pass 1 collects the population's streams at their length, so the
    // stream store of a cold run weighs exactly what the same streams
    // weigh once a later process reads them back from the `.twc`.
    let dir = temp_dir("slack");
    let (_, cold) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    let (_, warm) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    assert_eq!(counter(&cold, "cache_misses"), 1, "the cold run extracts");
    assert_eq!(counter(&warm, "cache_misses"), 0, "the warm run reads the spill back");
    let bytes =
        |snapshot: &tailwise_obs::Snapshot| snapshot.gauges.get("cache_stream_bytes").copied();
    assert!(bytes(&cold).is_some_and(|b| b > 0), "{:?}", cold.gauges);
    assert_eq!(bytes(&cold), bytes(&warm));
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
