//! The phase-1 request cache never changes an answer — only the bill.
//!
//! Pins the caching acceptance claims end-to-end against the library's
//! `rnc_storm.toml` admission sweep, shrunk to CI scale, with its
//! reactive cell gated tight enough to deny at that scale and a
//! mobility axis beside it (`common/mod.rs`, shared with the replay
//! memo's `replay_fleet.rs`):
//!
//! * an in-memory cached sweep produces a **bit-identical**
//!   `SweepReport` (rendered text and `RunManifest::digest()` included)
//!   to the uncached sweep at 1, 2, and 8 threads, while the `cache_*`
//!   and `replay_*` counters show the reuse happened: one extraction, a
//!   commute cell folding the static cell's outcomes, the gated cells
//!   folding memo hits and live replays (the disk-backed run of the same
//!   harness is `replay_fleet.rs`'s);
//! * a cold on-disk cache extracts once and writes one `.twc`, which an
//!   entirely fresh cache (a later process, conceptually) warm-starts
//!   every cell from, rewriting no spill;
//! * a corrupted or truncated `.twc`, or one in an older version's
//!   layout, degrades to recomputation — the report stays identical,
//!   `cache_fallbacks` counts the save, and the file is rewritten in the
//!   current version;
//! * every cached stream carries its user's status-quo baseline, and a
//!   cold run holds the streams at exactly the size they read back from
//!   its spill at;
//! * a corpus sweep resolves its directory walk exactly once
//!   (`corpus_walks == 1`), however many rows it expands into.

mod common;

use common::{
    assert_cached_sweeps_match_uncached, assert_damaged_spills_fall_back, assert_spilled_nothing,
    counter, disk, only_spill, rendered, run_storm, spill_bytes, storm_set, temp_dir, USERS,
};
use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run_source_sweep_cached, synth_corpus, CorpusScenario, RequestCache, Scenario, SourceSet,
    SweepAxis, UserSource,
};
use tailwise_obs::{Obs, Recorder, Snapshot, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::io::{
    read_request_streams, RequestCacheHeader, RequestStream, REQUEST_VERSION,
};
use tailwise_trace::mix::splitmix64;
use tailwise_trace::TraceFormat;
use tailwise_workload::apps::AppKind;

#[test]
fn cached_sweeps_are_bit_identical_to_uncached_at_1_2_8_threads() {
    // In-memory cache: the first cell extracts and replays everyone;
    // later cells reuse the extraction and fold the memo wherever a
    // user's verdicts match an earlier cell's. Nothing reaches a disk.
    for (threads, counters) in assert_cached_sweeps_match_uncached(|_| RequestCache::in_memory()) {
        assert_eq!(counter(&counters, "cache_spills"), 0, "threads={threads}");
        assert_eq!(counter(&counters, "replay_spills"), 0, "threads={threads}");
    }
}

#[test]
fn disk_cache_warm_starts_a_fresh_process_bit_identically() {
    let dir = temp_dir("warm");

    // Cold: the first cell extracts the population's streams, the later
    // cells reuse them, and the one scheme's streams reach one `.twc`.
    let (cold, cold_digest, cold_counters) = run_storm(2, Some(&disk(&dir)));
    assert_eq!(counter(&cold_counters, "cache_misses"), 1);
    assert_eq!(counter(&cold_counters, "cache_hits"), 3);
    assert_eq!(counter(&cold_counters, "cache_spills"), 1, "one scheme, one .twc");
    only_spill(&dir, "twc");
    let spilled = spill_bytes(&dir);

    // An entirely fresh cache over the same directory serves every
    // cell's streams from the spill files alone.
    let (from_disk, disk_digest, disk_counters) = run_storm(2, Some(&disk(&dir)));
    assert_eq!(cold, from_disk);
    assert_eq!(rendered(&cold), rendered(&from_disk));
    assert_eq!(cold_digest, disk_digest);
    assert_eq!(counter(&disk_counters, "cache_misses"), 0, "warm run should never extract");
    assert_eq!(counter(&disk_counters, "cache_hits"), 4, "every cell should hit");
    assert_spilled_nothing(&disk_counters);
    assert!(spill_bytes(&dir) == spilled, "a disk warm-start must leave every spill untouched");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_and_truncated_spills_fall_back_to_recomputation() {
    for counters in assert_damaged_spills_fall_back("twc", "cache_fallbacks") {
        assert_eq!(counter(&counters, "cache_misses"), 1, "the first cell must extract again");
    }
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
fn version_1_spill_is_a_counted_fallback() {
    // The population's streams, as the current version spills them…
    let seed_dir = temp_dir("old-seed");
    let (reference, reference_digest, _) = run_storm(2, Some(&disk(&seed_dir)));
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
        let (report, digest, counters) = run_storm(2, Some(&disk(&dir)));
        assert_eq!(counter(&counters, "cache_fallbacks"), 1, "a v{version} file is one fallback");
        assert_eq!(counter(&counters, "cache_misses"), 1, "the first cell must extract again");
        assert_eq!(reference, report, "a v{version} spill must not change the answer");
        assert_eq!(reference_digest, digest, "v{version}");

        // The run replaced the old file with the current version…
        let bytes = std::fs::read(&spill).unwrap();
        assert_eq!(bytes[4..6], REQUEST_VERSION.to_le_bytes(), "v{version} was not rewritten");
        let (_, rewritten) = read_request_streams(bytes.as_slice()).unwrap();
        assert_eq!(rewritten, streams);

        // …which the next run warm-starts from.
        let (again, _, counters) = run_storm(2, Some(&disk(&dir)));
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
    run_storm(2, Some(&disk(&dir)));
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
    let (_, _, cold) = run_storm(2, Some(&disk(&dir)));
    let (_, _, warm) = run_storm(2, Some(&disk(&dir)));
    assert_eq!(counter(&cold, "cache_misses"), 1, "the cold run extracts");
    assert_eq!(counter(&warm, "cache_misses"), 0, "the warm run reads the spill back");
    let bytes = |snapshot: &Snapshot| snapshot.gauges.get("cache_stream_bytes").copied();
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
