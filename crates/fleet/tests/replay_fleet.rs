//! The phase-2 replay memo never changes an answer — only the bill.
//!
//! Pins the replay-memo acceptance claims end-to-end against the
//! library's `rnc_storm.toml` admission sweep (shrunk to CI scale,
//! structure kept exactly as declared on disk):
//!
//! * a memoized sweep — in-memory or disk-backed — produces a
//!   **bit-identical** `SweepReport` (rendered text and
//!   `RunManifest::digest()` included) to the uncached sweep at 1, 2,
//!   and 8 threads, while `replay_hits` shows the reuse happened;
//! * a second sweep over the same cache replays nothing: every user in
//!   every cell hits the memo (`replay_misses == 0`) and no spill file
//!   is rewritten;
//! * a cold on-disk cache spills `.twr` files, each memo written once
//!   however many cells replayed into it, that an entirely fresh cache
//!   (a later process, conceptually) warm-starts from;
//! * a corrupted or truncated `.twr`, one naming a cell the topology
//!   does not have, or one in an older version's layout, degrades to
//!   recomputation — the report stays identical and `replay_fallbacks`
//!   counts the save;
//! * the spill files themselves are byte-identical at 1, 2, and 8
//!   threads, and store each load triple in at most 2.5 bytes.

use std::path::PathBuf;

use tailwise_fleet::{
    run_source_sweep_cached, AdmissionSpec, RequestCache, RunManifest, SourceSet, SweepAxis,
    SweepReport, UserSource,
};
use tailwise_obs::{Obs, Recorder, StatsRecorder};
use tailwise_trace::io::{
    read_replay_outcomes, read_request_streams, write_replay_outcomes, ReplayCacheHeader,
    ReplayOutcomeRecord, OUTCOME_VERSION,
};
use tailwise_trace::load::LoadDeltas;
use tailwise_trace::mix::splitmix64;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tailwise-replay-it-{tag}-{}", std::process::id()));
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
/// returning the report, its manifest digest, and the counters.
fn run_storm(
    threads: usize,
    cache: Option<&RequestCache>,
) -> (SweepReport, u64, tailwise_obs::Snapshot) {
    let set = storm_set();
    let UserSource::Synthetic(base) = &set.source else { unreachable!("storm is synthetic") };
    let seed = base.master_seed;
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let sweep = run_source_sweep_cached(&set, threads, obs, cache).unwrap();
    let snapshot = recorder.snapshot();
    let digest = RunManifest::for_sweep(&sweep, threads, seed, &snapshot).digest();
    (sweep, digest, snapshot)
}

fn counter(snapshot: &tailwise_obs::Snapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn memoized_sweeps_are_bit_identical_to_uncached_at_1_2_8_threads() {
    let (baseline, base_digest, no_cache) = run_storm(2, None);
    assert!(baseline.rows.len() >= 2, "storm file should sweep admission");
    // Uncached runs never consult the memo, so they emit no replay
    // counters at all — the memo is invisible until a cache exists.
    assert_eq!(counter(&no_cache, "replay_hits"), 0);
    assert_eq!(counter(&no_cache, "replay_misses"), 0);

    let dir = temp_dir("identity");
    for threads in [1usize, 2, 8] {
        // In-memory cache: the first cell populates the memo; later
        // cells replay only the users whose verdicts changed.
        let memory = RequestCache::in_memory();
        let (cached, digest, counters) = run_storm(threads, Some(&memory));
        assert_eq!(baseline, cached, "memory memo, threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&cached), "memory memo, threads={threads}");
        assert_eq!(base_digest, digest, "manifest digest, threads={threads}");
        assert!(counter(&counters, "replay_hits") >= 1, "threads={threads}");
        assert_eq!(counter(&counters, "replay_fallbacks"), 0, "threads={threads}");

        // Disk-backed cache: same contract, plus a .twr spill.
        let disk_dir = dir.join(format!("t{threads}"));
        let disk = RequestCache::with_dir(&disk_dir).unwrap();
        let (cached, digest, counters) = run_storm(threads, Some(&disk));
        assert_eq!(baseline, cached, "disk memo, threads={threads}");
        assert_eq!(rendered(&baseline), rendered(&cached), "disk memo, threads={threads}");
        assert_eq!(base_digest, digest, "disk manifest digest, threads={threads}");
        assert_eq!(counter(&counters, "replay_spills"), 1, "threads={threads}");
        assert_eq!(counter(&counters, "replay_fallbacks"), 0, "threads={threads}");
    }

    // The spills are as deterministic as the reports: every thread
    // count wrote the same files, byte for byte.
    let spills = |threads: usize| spill_bytes(&dir.join(format!("t{threads}")));
    let one = spills(1);
    let names: Vec<&str> = one.iter().map(|(name, _)| name.as_str()).collect();
    assert!(names.iter().any(|n| n.ends_with(".twc")), "no .twc spill: {names:?}");
    assert!(names.iter().any(|n| n.ends_with(".twr")), "no .twr spill: {names:?}");
    for threads in [2usize, 8] {
        let other = spills(threads);
        let other_names: Vec<&str> = other.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, other_names, "spill names, threads={threads}");
        for ((name, bytes), (_, other_bytes)) in one.iter().zip(&other) {
            assert!(bytes == other_bytes, "{name} differs at threads={threads}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_sweep_replays_nothing_and_a_fresh_cache_warm_starts_from_disk() {
    let dir = temp_dir("warm");

    // Cold: every user misses once (first cell), later cells hit the
    // users whose verdicts match and replay only the changed ones.
    let cold_cache = RequestCache::with_dir(&dir).unwrap();
    let (cold, cold_digest, cold_counters) = run_storm(2, Some(&cold_cache));
    assert!(counter(&cold_counters, "replay_misses") >= USERS, "first cell replays everyone");
    assert_eq!(counter(&cold_counters, "replay_spills"), 1, "one memo, written once");
    let spills: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "twr"))
        .collect();
    assert!(!spills.is_empty(), "cold run should spill .twr outcomes");
    let spilled = spill_bytes(&dir);

    // Same cache again: the memo already knows every (user, verdict)
    // pair in the sweep, so the warm run replays nothing at all.
    let (warm, warm_digest, warm_counters) = run_storm(2, Some(&cold_cache));
    assert_eq!(cold, warm);
    assert_eq!(cold_digest, warm_digest);
    assert_eq!(counter(&warm_counters, "replay_misses"), 0, "warm sweep must replay nothing");
    assert!(counter(&warm_counters, "replay_hits") >= USERS);
    assert_eq!(counter(&warm_counters, "replay_fallbacks"), 0);
    assert_spilled_nothing(&warm_counters);
    assert!(spill_bytes(&dir) == spilled, "a warm run must leave every spill untouched");

    // An entirely fresh cache over the same directory — a later
    // process — warm-starts from the .twr spills alone.
    let fresh = RequestCache::with_dir(&dir).unwrap();
    let (from_disk, disk_digest, disk_counters) = run_storm(2, Some(&fresh));
    assert_eq!(cold, from_disk);
    assert_eq!(rendered(&cold), rendered(&from_disk));
    assert_eq!(cold_digest, disk_digest);
    assert_eq!(counter(&disk_counters, "replay_misses"), 0, "disk warm-start must replay nothing");
    assert!(counter(&disk_counters, "replay_hits") >= USERS);
    assert_spilled_nothing(&disk_counters);
    assert!(spill_bytes(&dir) == spilled, "a disk warm-start must leave every spill untouched");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cold_sweep_writes_its_memo_once() {
    // Both admission cells replay users into the one memo the sweep
    // shares — the second cell those whose verdicts changed — and the
    // memo reaches its `.twr` file in one write, as the sweep returns,
    // holding every outcome either cell replayed. At this scale the
    // storm's own watermark denies nobody, so the reactive cell gates
    // at 2 msg/s instead.
    let dir = temp_dir("once");
    let mut set = storm_set();
    set.axes = vec![SweepAxis::Admission(vec![
        AdmissionSpec::Always,
        AdmissionSpec::LoadReactive { watermark_per_s: 2, window_s: 5 },
    ])];
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let cache = RequestCache::with_dir(&dir).unwrap();
    let cold = run_source_sweep_cached(&set, 2, obs, Some(&cache)).unwrap();
    let counters = recorder.snapshot();
    assert_eq!(cold.rows.len(), 2, "the sweep runs two admission cells");
    let misses = counter(&counters, "replay_misses");
    assert!(misses > USERS, "the second cell must replay someone ({misses} misses)");
    assert_eq!(counter(&counters, "replay_spills"), 1, "one memo, one write");
    let spills = twr_spills(&dir);
    assert_eq!(spills.len(), 1, "{spills:?}");
    let (_, records) = read_replay_outcomes(std::fs::File::open(&spills[0]).unwrap()).unwrap();
    assert_eq!(records.len() as u64, misses, "the write must hold both cells' outcomes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file in a spill directory, by name, with its bytes.
fn spill_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
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

/// A warm run rewrites no spill of either kind.
fn assert_spilled_nothing(counters: &tailwise_obs::Snapshot) {
    assert_eq!(counter(counters, "replay_spills"), 0, "a warm run must not re-spill outcomes");
    assert_eq!(counter(counters, "cache_spills"), 0, "a warm run must not re-spill requests");
}

#[test]
fn corrupt_and_truncated_twr_spills_fall_back_to_recomputation() {
    let dir = temp_dir("corrupt");
    let seed_cache = RequestCache::with_dir(&dir).unwrap();
    let (baseline, base_digest, _) = run_storm(2, Some(&seed_cache));
    let spill = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "twr"))
        .expect("seed run spilled a .twr file");
    let pristine = std::fs::read(&spill).unwrap();

    // A flipped payload byte: the checksum rejects it, the run
    // recomputes, and the report cannot tell the difference. The
    // recomputing runs replay from the request streams and confusion
    // counts the fresh cache read back from the seed run's `.twc`, so
    // they also pin a replay from a spilled `.twc` to the seed digest.
    let mut corrupt = pristine.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&spill, &corrupt).unwrap();
    let cache = RequestCache::with_dir(&dir).unwrap();
    let (report, digest, counters) = run_storm(2, Some(&cache));
    assert_eq!(baseline, report, "corrupt .twr must not change the answer");
    assert_eq!(rendered(&baseline), rendered(&report));
    assert_eq!(base_digest, digest, "corrupt .twr must not change the digest");
    assert!(counter(&counters, "replay_fallbacks") > 0, "corruption must be counted");
    assert_replayed_from_spilled_twc(&counters);

    // A truncated file: same contract. The repaired spill from the
    // corrupt run was already rewritten, so truncate the current one.
    let current = std::fs::read(&spill).unwrap();
    std::fs::write(&spill, &current[..current.len() / 3]).unwrap();
    let cache = RequestCache::with_dir(&dir).unwrap();
    let (report, digest, counters) = run_storm(2, Some(&cache));
    assert_eq!(baseline, report, "truncated .twr must not change the answer");
    assert_eq!(base_digest, digest);
    assert!(counter(&counters, "replay_fallbacks") > 0, "truncation must be counted");
    assert_replayed_from_spilled_twc(&counters);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_of_range_twr_cells_fall_back_instead_of_panicking() {
    // Regression: a checksum-valid `.twr` record naming a cell the
    // topology does not have used to index past pass 2's per-cell maps
    // and panic the warm run. The loader now distrusts the whole file.
    let dir = temp_dir("cells");
    let (cold, cold_digest, _) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    let spill = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "twr"))
        .expect("cold run spilled a .twr file");
    let file = std::fs::File::open(&spill).unwrap();
    let (header, mut records) = read_replay_outcomes(file).unwrap();
    let load = records
        .iter_mut()
        .map(|r| &mut r.outcome.load)
        .find(|load| !load.is_empty())
        .expect("some user loaded a cell");
    // Moving the last triple to cell 1000 keeps the order strict.
    let mut triples = load.to_triples();
    triples.last_mut().unwrap().0 = 1000;
    *load = LoadDeltas::from_triples(triples).unwrap();
    write_replay_outcomes(&header, &records, std::fs::File::create(&spill).unwrap()).unwrap();

    let (warm, warm_digest, counters) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    assert_eq!(cold, warm, "an out-of-range cell must not change the answer");
    assert_eq!(cold_digest, warm_digest, "an out-of-range cell must not change the digest");
    assert!(counter(&counters, "replay_fallbacks") >= 1, "the untrusted .twr must be counted");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every `.twr` spill in `dir`.
fn twr_spills(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut spills: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "twr"))
        .collect();
    spills.sort();
    spills
}

/// `records` in the `.twr` layout of format version 1 or 2, each scored
/// against its user's entry in `baselines`. Both versions stored ten
/// scalar words per record, the status-quo baseline's two among them;
/// version 1 stored each load triple as three 8-byte words, version 2
/// the load runs.
fn old_twr(
    version: u16,
    header: &ReplayCacheHeader,
    records: &[ReplayOutcomeRecord],
    baselines: &[(u64, u64)],
) -> Vec<u8> {
    let mut out = b"TWRO".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    let mut checksum = 0x7EC0_CACE_0000_0000u64;
    let mut word = |out: &mut Vec<u8>, word: u64, bytes: usize| {
        out.extend_from_slice(&word.to_le_bytes()[..bytes]);
        checksum = splitmix64(checksum ^ word);
    };
    let fingerprint = &header.requests;
    word(&mut out, fingerprint.master_seed, 8);
    word(&mut out, fingerprint.users, 8);
    word(&mut out, fingerprint.days as u64, 4);
    word(&mut out, fingerprint.mix_hash, 8);
    word(&mut out, fingerprint.sim_hash, 8);
    word(&mut out, header.topo_hash, 8);
    word(&mut out, fingerprint.scheme.len() as u64, 2);
    for &b in fingerprint.scheme.as_bytes() {
        word(&mut out, b as u64, 1);
    }
    word(&mut out, records.len() as u64, 8);
    for r in records {
        let o = &r.outcome;
        let (baseline_energy_bits, baseline_switches) = baselines[r.user as usize];
        for scalar in [
            r.user,
            r.verdict_hash,
            o.packets,
            o.energy_bits,
            o.switches,
            o.false_switches,
            o.missed_switches,
            o.decisions,
            baseline_energy_bits,
            baseline_switches,
            o.delay_bits.len() as u64,
        ] {
            word(&mut out, scalar, 8);
        }
        for &bits in &o.delay_bits {
            word(&mut out, bits, 8);
        }
        if version == 1 {
            let triples = o.load.to_triples();
            word(&mut out, triples.len() as u64, 8);
            for (cell, second, msgs) in triples {
                for field in [cell, second as u64, msgs] {
                    word(&mut out, field, 8);
                }
            }
        } else {
            let runs = o.load.as_bytes();
            word(&mut out, o.load.len(), 8);
            word(&mut out, runs.len() as u64, 8);
            // The runs' bytes as they are, folded eight at a time, the
            // last chunk zero-padded.
            for chunk in runs.chunks(8) {
                let mut padded = [0u8; 8];
                padded[..chunk.len()].copy_from_slice(chunk);
                word(&mut out, u64::from_le_bytes(padded), chunk.len());
            }
        }
    }
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

#[test]
fn old_twr_spills_fall_back_once_and_are_rewritten() {
    // A spill directory written before the compact load runs holds
    // version-1 `.twr` files, and one written before the baseline moved
    // into the `.twc` streams version-2 files. A run meets each as an
    // unsupported version: one `replay_fallbacks`, a live replay of its
    // users, the same answer, and a current-version file in its place
    // that the next run warm-starts from.
    let dir = temp_dir("old");
    let (cold, cold_digest, _) = run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    let twc = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "twc"))
        .expect("cold run spilled a .twc file");
    let (_, streams) = read_request_streams(std::fs::File::open(twc).unwrap()).unwrap();
    let baselines: Vec<(u64, u64)> =
        streams.iter().map(|s| (s.baseline_energy_bits, s.baseline_switches)).collect();
    let spills = twr_spills(&dir);
    assert!(!spills.is_empty(), "cold run spilled no .twr file");
    let current: Vec<_> = spills
        .iter()
        .map(|spill| read_replay_outcomes(std::fs::File::open(spill).unwrap()).unwrap())
        .collect();

    for version in [1, 2] {
        for (spill, (header, records)) in spills.iter().zip(&current) {
            std::fs::write(spill, old_twr(version, header, records, &baselines)).unwrap();
        }
        let (warm, warm_digest, counters) =
            run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
        assert_eq!(cold, warm, "a v{version} .twr must not change the answer");
        assert_eq!(cold_digest, warm_digest, "a v{version} .twr must not change the digest");
        let fallbacks = counter(&counters, "replay_fallbacks");
        assert_eq!(fallbacks, spills.len() as u64, "one per v{version} file");
        assert!(counter(&counters, "replay_misses") >= USERS, "the old file's users replay live");
        for (spill, (_, records)) in spills.iter().zip(&current) {
            let bytes = std::fs::read(spill).unwrap();
            assert_eq!(bytes[4..6], OUTCOME_VERSION.to_le_bytes(), "{spill:?} kept v{version}");
            let (_, rewritten) = read_replay_outcomes(bytes.as_slice()).unwrap();
            assert_eq!(&rewritten, records, "the rewrite must hold what the v{version} file held");
        }

        let (again, again_digest, counters) =
            run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
        assert_eq!(cold, again);
        assert_eq!(cold_digest, again_digest);
        assert_eq!(counter(&counters, "replay_fallbacks"), 0);
        assert_eq!(counter(&counters, "replay_misses"), 0, "the rewrite must warm-start");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn twr_spills_store_a_load_triple_in_at_most_two_and_a_half_bytes() {
    // The storm's users charge a message count of at most a few dozen
    // to most seconds' cells, a few seconds apart: about two bytes a
    // triple as varint runs, against 24 as three words. The bound covers
    // the whole file, record heads and checksum included.
    let dir = temp_dir("density");
    run_storm(2, Some(&RequestCache::with_dir(&dir).unwrap()));
    let (mut bytes, mut triples) = (0u64, 0u64);
    for spill in twr_spills(&dir) {
        let file = std::fs::read(&spill).unwrap();
        let (_, records) = read_replay_outcomes(file.as_slice()).unwrap();
        bytes += file.len() as u64;
        triples += records.iter().map(|r| r.outcome.load.len()).sum::<u64>();
    }
    assert!(triples > 10_000, "only {triples} triples spilled");
    let per_triple = bytes as f64 / triples as f64;
    assert!(per_triple <= 2.5, "{per_triple:.3} bytes per triple ({bytes} B, {triples} triples)");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run over a fresh cache whose `.twc` spill is intact: every cell
/// took its streams from the disk-read file, and some users replayed
/// live from them.
fn assert_replayed_from_spilled_twc(counters: &tailwise_obs::Snapshot) {
    assert_eq!(counter(counters, "cache_misses"), 0, "streams must come from the .twc");
    assert!(counter(counters, "cache_hits") > 0, "streams must come from the .twc");
    assert!(counter(counters, "replay_misses") > 0, "some users must replay live");
}

mod props {
    use proptest::prelude::*;
    use tailwise_core::schemes::Scheme;
    use tailwise_fleet::FleetReport;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_sim::{replay_outcome, SimConfig};
    use tailwise_trace::io::{
        read_replay_outcomes, write_replay_outcomes, ReplayCacheHeader, ReplayOutcomeRecord,
        RequestCacheHeader,
    };
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::time::{Duration, Instant};
    use tailwise_trace::Trace;

    fn trace_from_gaps(gaps_ms: &[i64]) -> Trace {
        let mut t = Instant::ZERO;
        let mut pkts = vec![Packet::new(t, Direction::Down, 500)];
        for (i, &g) in gaps_ms.iter().enumerate() {
            t += Duration::from_millis(g);
            let dir = if i % 3 == 0 { Direction::Up } else { Direction::Down };
            pkts.push(Packet::new(t, dir, 500));
        }
        Trace::from_sorted(pkts).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The memo's full round trip — `replay_outcome` of a live
        /// replay, through `.twr` bytes, back into a report fold —
        /// must never change a single bit of the `FleetReport` the
        /// live path would have produced, rendered text included,
        /// over arbitrary traces × schemes × verdict scripts.
        #[test]
        fn memoized_fold_is_bit_identical_to_the_live_fold(
            gaps_ms in proptest::prop::collection::vec(1i64..90_000, 1..40),
            (scheme_i, carrier_i) in (0usize..5, 0usize..16),
            verdict_bits in 0u64..u64::MAX,
            days in 1u32..6,
        ) {
            let scheme = [
                Scheme::StatusQuo,
                Scheme::FixedTail45,
                Scheme::PercentileIat(0.95),
                Scheme::MakeIdle,
                Scheme::Oracle,
            ][scheme_i];
            let presets = CarrierProfile::all_presets();
            let carrier = presets[carrier_i % presets.len()].clone();
            let cfg = SimConfig::default();
            let trace = trace_from_gaps(&gaps_ms);

            // Phase 1 + a scripted adjudication drawn from the bits.
            let requests = scheme.request_trace(&carrier, &cfg, &trace).unwrap();
            let verdicts: Vec<bool> =
                (0..requests.len()).map(|i| verdict_bits >> (i % 64) & 1 == 1).collect();
            let live = scheme.run_scripted(&carrier, &cfg, &trace, &verdicts).unwrap();
            let baseline = Scheme::StatusQuo.run(&carrier, &cfg, &trace);

            // Live path: the fold every uncached run performs.
            let mut direct = FleetReport::empty("prop".into(), scheme.to_string());
            direct.fold_user(days, &live, &baseline);

            // Memo path: outcome → `.twr` bytes → outcome → fold.
            let outcome = replay_outcome(&live);
            let header = ReplayCacheHeader {
                requests: RequestCacheHeader {
                    master_seed: 1, users: 1, days, mix_hash: 2, sim_hash: 3,
                    scheme: scheme.to_string(),
                },
                topo_hash: 4,
            };
            let record =
                ReplayOutcomeRecord { user: 0, verdict_hash: verdict_bits, outcome: outcome.clone() };
            let mut spilled = Vec::new();
            write_replay_outcomes(&header, &[record], &mut spilled).unwrap();
            let (_, records) = read_replay_outcomes(&spilled[..]).unwrap();
            prop_assert_eq!(records.len(), 1);
            let cached = &records[0].outcome;
            prop_assert_eq!(cached, &outcome, "the spill must round-trip the outcome exactly");

            let mut memoized = FleetReport::empty("prop".into(), scheme.to_string());
            let summary = (baseline.total_energy().to_bits(), baseline.switch_cycles());
            memoized.fold_user_outcome(days, summary, cached);
            prop_assert_eq!(&direct, &memoized);
            prop_assert_eq!(direct.render(), memoized.render());
        }
    }
}
