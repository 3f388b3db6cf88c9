//! The phase-2 replay memo never changes an answer — only the bill.
//!
//! Pins the replay-memo acceptance claims end-to-end against the
//! library's `rnc_storm.toml` admission sweep, shrunk to CI scale, with
//! its reactive cell gated tight enough to deny at that scale and a
//! mobility axis beside it (`common/mod.rs`, shared with the request
//! cache's `cache_fleet.rs`):
//!
//! * a disk-backed memoized sweep produces a **bit-identical**
//!   `SweepReport` (rendered text and `RunManifest::digest()` included)
//!   to the uncached sweep at 1, 2, and 8 threads, while the `cache_*`
//!   and `replay_*` counters show the reuse happened (the in-memory run
//!   of the same harness is `cache_fleet.rs`'s), and the spill files
//!   themselves are byte-identical at every thread count;
//! * one memo serves every mobility model and cell count: an `always`
//!   sweep over `static` and `commute` replays each user once;
//! * a cold on-disk cache writes its one memo to one `.twr` once,
//!   however many cells replayed into it; a second sweep over the same
//!   cache replays nothing, and an entirely fresh cache (a later
//!   process, conceptually) warm-starts from the files alone, rewriting
//!   none;
//! * a corrupted or truncated `.twr`, or one in an older version's
//!   layout, degrades to recomputation — the report stays identical,
//!   `replay_fallbacks` counts the save, and the file is rewritten in
//!   the current version;
//! * a `.twr` stores each load pair in at most 2.5 bytes.

mod common;

use common::{
    assert_cached_sweeps_match_uncached, assert_damaged_spills_fall_back, assert_spilled_nothing,
    counter, disk, only_spill, rendered, run_set, run_storm, spill_bytes, storm_set, temp_dir,
    USERS,
};
use tailwise_fleet::{MobilitySpec, RequestCache, SweepAxis, UserSource};
use tailwise_trace::io::{
    read_replay_outcomes, read_request_streams, ReplayCacheHeader, ReplayOutcomeRecord,
    OUTCOME_VERSION,
};
use tailwise_trace::load::LoadDeltas;
use tailwise_trace::mix::splitmix64;

#[test]
fn memoized_sweeps_are_bit_identical_to_uncached_at_1_2_8_threads() {
    // Disk-backed cache: the in-memory contract, plus one spill of each
    // kind, each written once as the sweep returns.
    let dir = temp_dir("identity");
    let runs =
        assert_cached_sweeps_match_uncached(|threads| disk(&dir.join(format!("t{threads}"))));
    for (threads, counters) in runs {
        assert_eq!(counter(&counters, "cache_spills"), 1, "threads={threads}");
        assert_eq!(counter(&counters, "replay_spills"), 1, "threads={threads}");
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
fn one_memo_serves_every_mobility_model_and_cell_count() {
    // An `always` sweep grants every request under either model, so the
    // commute cell's users carry the static cell's verdicts: the commute
    // cell folds the static cell's outcomes, each second charged to the
    // cell the user commutes through, and nobody replays twice.
    let mut set = storm_set();
    set.axes = vec![SweepAxis::Mobility(vec![MobilitySpec::Static, MobilitySpec::commute()])];
    let cache = RequestCache::in_memory();
    let (uncached, uncached_digest, _) = run_set(&set, 2, None);
    let (cached, digest, counters) = run_set(&set, 2, Some(&cache));
    assert_eq!(uncached, cached);
    assert_eq!(rendered(&uncached), rendered(&cached));
    assert_eq!(uncached_digest, digest);
    assert_eq!(counter(&counters, "replay_misses"), USERS, "each user replays once");
    assert_eq!(counter(&counters, "replay_hits"), USERS, "the commute cell folds the memo");

    // Five cells instead of twelve: the same memo again, nobody replays.
    let UserSource::Synthetic(base) = &mut set.source else { unreachable!("storm is synthetic") };
    base.cells.as_mut().unwrap().cells = 5;
    let (uncached, uncached_digest, _) = run_set(&set, 2, None);
    let (cached, digest, counters) = run_set(&set, 2, Some(&cache));
    assert_eq!(uncached, cached);
    assert_eq!(uncached_digest, digest);
    assert_eq!(counter(&counters, "replay_misses"), 0, "another cell count replays nobody");
    assert_eq!(counter(&counters, "replay_hits"), 2 * USERS);
}

#[test]
fn warm_sweep_replays_nothing_and_a_fresh_cache_warm_starts_from_disk() {
    let dir = temp_dir("warm");

    // Cold: the first cell replays everyone; later cells replay only
    // the users whose verdicts changed.
    let cold_cache = disk(&dir);
    let (cold, cold_digest, cold_counters) = run_storm(2, Some(&cold_cache));
    assert!(counter(&cold_counters, "replay_misses") > USERS, "a gated cell replays someone");
    let spilled = spill_bytes(&dir);

    // Same cache again: it already knows every (user, verdict) pair in
    // the sweep, so the warm run replays nothing at all.
    let (warm, warm_digest, warm_counters) = run_storm(2, Some(&cold_cache));
    assert_eq!(cold, warm);
    assert_eq!(cold_digest, warm_digest);
    assert_eq!(counter(&warm_counters, "replay_misses"), 0, "warm sweep must replay nothing");
    assert!(counter(&warm_counters, "replay_hits") >= 4 * USERS);
    assert_spilled_nothing(&warm_counters);
    assert!(spill_bytes(&dir) == spilled, "a warm run must leave every spill untouched");

    // An entirely fresh cache over the same directory folds every
    // cell's outcomes from the `.twr` alone.
    let (from_disk, disk_digest, disk_counters) = run_storm(2, Some(&disk(&dir)));
    assert_eq!(cold, from_disk);
    assert_eq!(rendered(&cold), rendered(&from_disk));
    assert_eq!(cold_digest, disk_digest);
    assert_eq!(counter(&disk_counters, "replay_misses"), 0, "disk warm-start must replay nothing");
    assert!(counter(&disk_counters, "replay_hits") >= 4 * USERS);
    assert_spilled_nothing(&disk_counters);
    assert!(spill_bytes(&dir) == spilled, "a disk warm-start must leave every spill untouched");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cold_sweep_writes_its_memo_once() {
    // Every cell replays users into the one memo the sweep shares — the
    // gated cells those whose verdicts changed — and the memo reaches
    // its `.twr` in one write, as the sweep returns, holding every
    // outcome any cell replayed.
    let dir = temp_dir("once");
    let (_, _, counters) = run_storm(2, Some(&disk(&dir)));
    let misses = counter(&counters, "replay_misses");
    assert!(misses > USERS, "a gated cell must replay someone ({misses} misses)");
    assert_eq!(counter(&counters, "replay_spills"), 1, "one memo, one write");
    let twr = std::fs::File::open(only_spill(&dir, "twr")).unwrap();
    let (_, records) = read_replay_outcomes(twr).unwrap();
    assert_eq!(records.len() as u64, misses, "the write must hold every cell's outcomes");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_and_truncated_twr_spills_fall_back_to_recomputation() {
    // The recomputing runs replay from the request streams and
    // confusion counts the fresh cache read back from the seed run's
    // `.twc`, so they also pin a replay from a spilled `.twc` to the
    // seed digest.
    for counters in assert_damaged_spills_fall_back("twr", "replay_fallbacks") {
        assert_eq!(counter(&counters, "cache_misses"), 0, "streams must come from the .twc");
        assert!(counter(&counters, "replay_misses") >= USERS, "users must replay live");
    }
}

/// `load` as `.twr` versions 2 and 3 stored it: one varint run per
/// cell, each headed by its cell, entry count and body length. These
/// runs all charge cell 0, whose body is the version-4 run.
fn cell_runs(load: &LoadDeltas) -> Vec<u8> {
    let mut out = Vec::new();
    if load.is_empty() {
        return out;
    }
    for mut v in [0, load.len(), load.as_bytes().len() as u64] {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out.extend_from_slice(load.as_bytes());
    out
}

/// `records` in the `.twr` layout of format version 1, 2 or 3, each
/// scored against its user's entry in `baselines`. Versions 1 and 2
/// stored ten scalar words per record, the status-quo baseline's two
/// among them, and version 3 eight; version 1 stored each load triple as
/// three 8-byte words, versions 2 and 3 one load run per cell.
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
    // Where the current header keeps its signaling hash, older ones kept
    // a topology hash.
    word(&mut out, header.signaling_hash, 8);
    word(&mut out, fingerprint.scheme.len() as u64, 2);
    for &b in fingerprint.scheme.as_bytes() {
        word(&mut out, b as u64, 1);
    }
    word(&mut out, records.len() as u64, 8);
    for r in records {
        let o = &r.outcome;
        let mut scalars = vec![
            r.user,
            r.verdict_hash,
            o.packets,
            o.energy_bits,
            o.switches,
            o.false_switches,
            o.missed_switches,
            o.decisions,
        ];
        if version < 3 {
            let (baseline_energy_bits, baseline_switches) = baselines[r.user as usize];
            scalars.extend([baseline_energy_bits, baseline_switches]);
        }
        scalars.push(o.delay_bits.len() as u64);
        scalars.extend(&o.delay_bits);
        for scalar in scalars {
            word(&mut out, scalar, 8);
        }
        if version == 1 {
            word(&mut out, o.load.len(), 8);
            for (second, msgs) in o.load.to_pairs() {
                for field in [0, second as u64, msgs] {
                    word(&mut out, field, 8);
                }
            }
        } else {
            let runs = cell_runs(&o.load);
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
    // version-1 `.twr` files, one written before the baseline moved into
    // the `.twc` streams version-2 files, and one written before the
    // fold attributed cells version-3 files. A run meets each as an
    // unsupported version: one `replay_fallbacks`, a live replay of its
    // users, the same answer, and a current-version file in its place
    // that the next run warm-starts from.
    let dir = temp_dir("old");
    let (cold, cold_digest, _) = run_storm(2, Some(&disk(&dir)));
    let twc = std::fs::File::open(only_spill(&dir, "twc")).unwrap();
    let (_, streams) = read_request_streams(twc).unwrap();
    let baselines: Vec<(u64, u64)> =
        streams.iter().map(|s| (s.baseline_energy_bits, s.baseline_switches)).collect();
    let spill = only_spill(&dir, "twr");
    let (header, records) = read_replay_outcomes(std::fs::File::open(&spill).unwrap()).unwrap();

    for version in [1, 2, 3] {
        std::fs::write(&spill, old_twr(version, &header, &records, &baselines)).unwrap();
        let (warm, warm_digest, counters) = run_storm(2, Some(&disk(&dir)));
        assert_eq!(cold, warm, "a v{version} .twr must not change the answer");
        assert_eq!(cold_digest, warm_digest, "a v{version} .twr must not change the digest");
        assert_eq!(counter(&counters, "replay_fallbacks"), 1, "one per v{version} file");
        assert!(counter(&counters, "replay_misses") >= USERS, "the old file's users replay live");
        let bytes = std::fs::read(&spill).unwrap();
        assert_eq!(bytes[4..6], OUTCOME_VERSION.to_le_bytes(), "{spill:?} kept v{version}");
        let (_, rewritten) = read_replay_outcomes(bytes.as_slice()).unwrap();
        assert_eq!(rewritten, records, "the rewrite must hold what the v{version} file held");

        let (again, again_digest, counters) = run_storm(2, Some(&disk(&dir)));
        assert_eq!(cold, again);
        assert_eq!(cold_digest, again_digest);
        assert_eq!(counter(&counters, "replay_fallbacks"), 0);
        assert_eq!(counter(&counters, "replay_misses"), 0, "the rewrite must warm-start");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn twr_spills_store_a_load_pair_in_at_most_two_and_a_half_bytes() {
    // The storm's users charge a message count of at most a few dozen
    // to most seconds, a few seconds apart: about two bytes a pair as
    // varint runs, against 16 as two words. The bound covers the whole
    // file, record heads and checksum included.
    let dir = temp_dir("density");
    run_storm(2, Some(&disk(&dir)));
    let file = std::fs::read(only_spill(&dir, "twr")).unwrap();
    let (_, records) = read_replay_outcomes(file.as_slice()).unwrap();
    let pairs: u64 = records.iter().map(|r| r.outcome.load.len()).sum();
    assert!(pairs > 10_000, "only {pairs} pairs spilled");
    let per_pair = file.len() as f64 / pairs as f64;
    assert!(per_pair <= 2.5, "{per_pair:.3} bytes per pair ({} B, {pairs} pairs)", file.len());
    std::fs::remove_dir_all(&dir).unwrap();
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
                signaling_hash: 4,
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
