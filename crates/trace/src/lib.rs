//! # tailwise-trace
//!
//! Packet-trace substrate for the tailwise reproduction of *"Traffic-Aware
//! Techniques to Reduce 3G/LTE Wireless Energy Consumption"* (Deng &
//! Balakrishnan, CoNEXT 2012).
//!
//! Everything the paper's algorithms observe about the world is a packet
//! trace: timestamps, directions and lengths (§4, §6.1). This crate provides
//! that world-model and nothing else:
//!
//! * [`time`] — deterministic microsecond [`time::Instant`]/[`time::Duration`]
//!   simulation time (the smoltcp idiom: integer time, no wall clock);
//! * [`packet`]/[`Trace`] — validated, time-ordered packet containers with
//!   per-application attribution and k-way merge;
//! * [`stats`] — the sliding-window empirical inter-arrival distribution
//!   that MakeIdle's online predictor is built on (§4.2);
//! * [`bursts`] — burst/session segmentation used by MakeActive (§5);
//! * [`io`] — CSV and binary persistence with full validation;
//! * [`load`] — the compact per-second signaling load a replayed user
//!   leaves behind, and its byte-run codec;
//! * [`corpus`] — deterministic sorted directory walks over on-disk
//!   trace corpora, the substrate for population-scale trace replay;
//! * [`pcap`] — libpcap ingestion with device-relative direction
//!   inference, so real tcpdump captures (the paper's §6.1 input format)
//!   run through the same pipeline as synthetic workloads.
//!
//! The crate is `std`-only with zero third-party dependencies, so the
//! higher layers (radio model, simulator, algorithms) stay auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bursts;
pub mod corpus;
pub mod error;
pub mod io;
pub mod load;
pub mod mix;
pub mod packet;
pub mod pcap;
pub mod stats;
pub mod time;
#[allow(clippy::module_inception)]
mod trace;

pub use corpus::{Corpus, TraceFormat};
pub use error::TraceError;
pub use packet::{AppId, Direction, Packet};
pub use time::{Duration, Instant};
pub use trace::{Trace, TraceSummary};

#[cfg(test)]
mod proptests {
    //! Property-based tests over the trace substrate invariants.

    use proptest::prelude::*;

    use crate::bursts;
    use crate::io::{
        read_replay_outcomes, write_replay_outcomes, ReplayCacheHeader, ReplayOutcome,
        ReplayOutcomeRecord, RequestCacheHeader,
    };
    use crate::load::LoadDeltas;
    use crate::packet::{AppId, Direction, Packet};
    use crate::stats::{EmpiricalDist, SlidingWindow};
    use crate::time::{Duration, Instant};
    use crate::trace::Trace;

    fn arb_packet() -> impl Strategy<Value = Packet> {
        (0i64..100_000_000, prop::bool::ANY, 1u32..65536, 0u32..8, 0u16..8).prop_map(
            |(us, up, len, flow, app)| {
                Packet::new(
                    Instant::from_micros(us),
                    if up { Direction::Up } else { Direction::Down },
                    len,
                )
                .with_flow(flow)
                .with_app(AppId(app))
            },
        )
    }

    fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
        prop::collection::vec(arb_packet(), 0..max_len).prop_map(Trace::from_unsorted)
    }

    proptest! {
        #[test]
        fn from_unsorted_always_yields_monotonic_traces(t in arb_trace(200)) {
            for w in t.packets().windows(2) {
                prop_assert!(w[0].ts <= w[1].ts);
            }
        }

        #[test]
        fn csv_roundtrip_is_identity(t in arb_trace(100)) {
            let mut buf = Vec::new();
            crate::io::write_csv(&t, &mut buf).unwrap();
            let back = crate::io::read_csv(buf.as_slice()).unwrap();
            prop_assert_eq!(t, back);
        }

        #[test]
        fn binary_roundtrip_is_identity(t in arb_trace(100)) {
            let mut buf = Vec::new();
            crate::io::write_binary(&t, &mut buf).unwrap();
            let back = crate::io::read_binary(buf.as_slice()).unwrap();
            prop_assert_eq!(t, back);
        }

        #[test]
        fn merge_preserves_packet_multiset(
            a in arb_trace(60),
            b in arb_trace(60),
        ) {
            let m = Trace::merge([a.clone(), b.clone()]);
            prop_assert_eq!(m.len(), a.len() + b.len());
            prop_assert_eq!(m.total_bytes(), a.total_bytes() + b.total_bytes());
            for w in m.packets().windows(2) {
                prop_assert!(w[0].ts <= w[1].ts);
            }
        }

        #[test]
        fn bursts_partition_any_trace(t in arb_trace(150), gap_ms in 1i64..5_000) {
            let bs = bursts::segment(&t, Duration::from_millis(gap_ms));
            let total: usize = bs.iter().map(|b| b.len).sum();
            prop_assert_eq!(total, t.len());
            let total_bytes: u64 = bs.iter().map(|b| b.bytes).sum();
            prop_assert_eq!(total_bytes, t.total_bytes());
            for w in bs.windows(2) {
                // Separating gap really exceeds the threshold.
                let gap = t.packets()[w[1].first].ts - t.packets()[w[1].first - 1].ts;
                prop_assert!(gap > Duration::from_millis(gap_ms));
            }
            for b in &bs {
                // Intra-burst gaps do not exceed the threshold.
                for i in b.first + 1..b.end_index() {
                    let gap = t.packets()[i].ts - t.packets()[i - 1].ts;
                    prop_assert!(gap <= Duration::from_millis(gap_ms));
                }
            }
        }

        #[test]
        fn cdf_is_monotone_and_bounded(
            samples in prop::collection::vec(0i64..10_000_000, 1..200),
            probes in prop::collection::vec(0i64..10_000_000, 2..20),
        ) {
            let dist = EmpiricalDist::from_samples(
                samples.into_iter().map(Duration::from_micros).collect(),
            );
            let mut probes: Vec<i64> = probes;
            probes.sort_unstable();
            let mut prev = 0.0f64;
            for p in probes {
                let c = dist.cdf(Duration::from_micros(p));
                prop_assert!((0.0..=1.0).contains(&c));
                prop_assert!(c + 1e-12 >= prev);
                prev = c;
                let s = dist.survival(Duration::from_micros(p));
                prop_assert!((c + s - 1.0).abs() < 1e-12);
            }
        }

        #[test]
        fn window_matches_batch_distribution(
            // Half the cases take 8 distinct values: most evictions then
            // leave an equal sample behind, and many equal the new sample.
            samples in (prop::collection::vec(0i64..1_000_000, 1..300), prop::bool::ANY)
                .prop_map(|(s, few)| if few { s.iter().map(|v| v % 8).collect() } else { s }),
            cap in 1usize..64,
        ) {
            let mut w = SlidingWindow::new(cap);
            for &s in &samples {
                w.push(Duration::from_micros(s));
            }
            // The window must equal the distribution over the last `cap` samples.
            let keep = samples.len().saturating_sub(cap);
            let expect = EmpiricalDist::from_samples(
                samples[keep..].iter().map(|&s| Duration::from_micros(s)).collect(),
            );
            prop_assert_eq!(w.sorted_samples(), expect.sorted_samples());
            for probe in [0i64, 3, 500_000, 1_000_000] {
                let d = Duration::from_micros(probe);
                prop_assert_eq!(w.cdf(d), expect.cdf(d));
            }
        }

        #[test]
        fn quantiles_are_order_statistics(
            samples in prop::collection::vec(0i64..1_000_000, 1..100),
            q in 0.0f64..1.0,
        ) {
            let dist = EmpiricalDist::from_samples(
                samples.iter().map(|&s| Duration::from_micros(s)).collect(),
            );
            let v = dist.quantile(q).unwrap();
            // Nearest-rank quantile is always an actual sample...
            prop_assert!(dist.sorted_samples().contains(&v));
            // ...and at least a q-fraction of samples are <= it.
            prop_assert!(dist.cdf(v) + 1e-12 >= q);
        }

        #[test]
        fn mutated_binary_files_fail_cleanly(
            t in arb_trace(60),
            flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..8),
            cut in 0usize..4096,
            truncate in prop::bool::ANY,
        ) {
            // Arbitrary byte corruption of a valid .twt file must yield a
            // clean TraceError or a still-valid Trace — never a panic.
            let mut buf = Vec::new();
            crate::io::write_binary(&t, &mut buf).unwrap();
            if truncate {
                buf.truncate(cut % (buf.len() + 1));
            }
            for (at, byte) in flips {
                if !buf.is_empty() {
                    let at = at % buf.len();
                    buf[at] = byte;
                }
            }
            match crate::io::read_binary(buf.as_slice()) {
                Err(_) => {}
                Ok(back) => {
                    // Whatever survives decoding is a structurally valid
                    // trace no larger than the original: monotonic
                    // timestamps, and never more packets than were
                    // written (the reader rejects trailing data, so a
                    // corrupted count cannot smuggle extras in).
                    prop_assert!(back.len() <= t.len());
                    for w in back.packets().windows(2) {
                        prop_assert!(w[0].ts <= w[1].ts);
                    }
                }
            }
        }

        #[test]
        fn mutated_csv_files_fail_cleanly(
            t in arb_trace(40),
            flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..8),
            cut in 0usize..4096,
            truncate in prop::bool::ANY,
        ) {
            // Same contract for the text format, including mutations that
            // produce invalid UTF-8 (surfacing as TraceError::Io).
            let mut buf = Vec::new();
            crate::io::write_csv(&t, &mut buf).unwrap();
            if truncate {
                buf.truncate(cut % (buf.len() + 1));
            }
            for (at, byte) in flips {
                if !buf.is_empty() {
                    let at = at % buf.len();
                    buf[at] = byte;
                }
            }
            match crate::io::read_csv(buf.as_slice()) {
                Err(_) => {}
                Ok(back) => {
                    for w in back.packets().windows(2) {
                        prop_assert!(w[0].ts <= w[1].ts);
                    }
                }
            }
        }

        #[test]
        fn twc_roundtrip_is_identity(
            streams in prop::collection::vec(
                (
                    prop::collection::vec(-1_000i64..100_000_000, 0..50),
                    (0u64..u64::MAX, 0u64..1_000, 0u64..u64::MAX, 0u64..1_000),
                    (0u64..u64::MAX, 0u64..u64::MAX),
                ),
                0..12,
            ),
            seed in 0u64..u64::MAX,
            scheme_pick in 0usize..7,
        ) {
            let streams: Vec<crate::io::RequestStream> = streams
                .into_iter()
                .map(|(mut s, (tp, fp, tn, fn_), (energy_bits, switches))| {
                    s.sort_unstable();
                    crate::io::RequestStream {
                        times: s.into_iter().map(Instant::from_micros).collect(),
                        confusion: [tp, fp, tn, fn_],
                        baseline_energy_bits: energy_bits,
                        baseline_switches: switches,
                    }
                })
                .collect();
            let schemes =
                ["statusquo", "tail45", "iat95", "iat87.5", "makeidle", "oracle", ""];
            let header = crate::io::RequestCacheHeader {
                master_seed: seed,
                users: streams.len() as u64,
                days: 7,
                mix_hash: seed.rotate_left(17),
                sim_hash: seed.rotate_right(23),
                scheme: schemes[scheme_pick].into(),
            };
            let mut buf = Vec::new();
            crate::io::write_request_streams(&header, &streams, &mut buf).unwrap();
            let (back_header, back) = crate::io::read_request_streams(buf.as_slice()).unwrap();
            prop_assert_eq!(back_header, header);
            prop_assert_eq!(back, streams);
        }

        #[test]
        fn mutated_twc_files_fail_cleanly(
            streams in prop::collection::vec(
                (prop::collection::vec(0i64..100_000_000, 0..30), 0u64..1_000),
                0..8,
            ),
            flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..8),
            cut in 0usize..4096,
            truncate in prop::bool::ANY,
            (victim, word, bit, short) in (0usize..8, 0usize..6, 0u32..64, 1usize..8),
        ) {
            // Same corruption contract as .twt, tightened by the trailing
            // checksum: any byte damage to a valid .twc file must yield a
            // clean TraceError — never a panic, an oversized allocation,
            // or (because the checksum covers header and payload) a
            // silently different stream set.
            let streams: Vec<crate::io::RequestStream> = streams
                .into_iter()
                .map(|(mut s, seed)| {
                    s.sort_unstable();
                    crate::io::RequestStream {
                        times: s.into_iter().map(Instant::from_micros).collect(),
                        confusion: [seed, seed * 3, seed * 7 + 1, seed / 2],
                        baseline_energy_bits: (seed as f64 * 0.25).to_bits(),
                        baseline_switches: seed / 3,
                    }
                })
                .collect();
            let header = crate::io::RequestCacheHeader {
                master_seed: 42,
                users: streams.len() as u64,
                days: 1,
                mix_hash: 7,
                sim_hash: 11,
                scheme: "makeidle".into(),
            };
            let mut buf = Vec::new();
            crate::io::write_request_streams(&header, &streams, &mut buf).unwrap();
            let pristine = buf.clone();

            // A confusion count or baseline word is a plausible number
            // whatever its bits, so only the checksum can catch a flipped
            // one; a file cut inside one is a truncation error at that
            // user's record.
            if !streams.is_empty() {
                let victim = victim % streams.len();
                let header_len = 4 + 2 + 8 + 8 + 4 + 8 + 8 + 2 + header.scheme.len();
                let before: usize = streams[..victim].iter().map(|s| 8 + 8 * s.times.len() + 48).sum();
                let at = header_len + before + 8 + 8 * streams[victim].times.len() + 8 * word;
                let mut flipped = pristine.clone();
                flipped[at + bit as usize / 8] ^= 1 << (bit % 8);
                match crate::io::read_request_streams(flipped.as_slice()) {
                    Err(crate::TraceError::Parse { message, .. }) => {
                        prop_assert!(message.contains("checksum mismatch"), "{}", message);
                    }
                    other => prop_assert!(false, "flipped count read back as {:?}", other),
                }
                match crate::io::read_request_streams(&pristine[..at + short]) {
                    Err(crate::TraceError::Parse { location, message }) => {
                        prop_assert_eq!(location, victim);
                        let what = if word < 4 { "confusion count" } else { "baseline" };
                        prop_assert!(message.contains(&format!("truncated {what}")), "{}", message);
                    }
                    other => prop_assert!(false, "cut count read back as {:?}", other),
                }
            }
            if truncate {
                buf.truncate(cut % (buf.len() + 1));
            }
            for (at, byte) in flips {
                if !buf.is_empty() {
                    let at = at % buf.len();
                    buf[at] = byte;
                }
            }
            match crate::io::read_request_streams(buf.as_slice()) {
                Err(_) => {}
                Ok((h, back)) => {
                    // The mutations may have reassembled the original
                    // file; anything else must have been rejected.
                    prop_assert_eq!(buf, pristine);
                    prop_assert_eq!(h, header);
                    prop_assert_eq!(back, streams);
                }
            }
        }

        #[test]
        fn rebased_traces_start_at_zero(t in arb_trace(50)) {
            let r = t.rebased();
            if !r.is_empty() {
                prop_assert_eq!(r.start(), Some(Instant::ZERO));
                prop_assert_eq!(r.span(), t.span());
                prop_assert_eq!(r.gaps(), t.gaps());
            }
        }
    }

    /// `.twr` records with arbitrary scalar words, delay samples and
    /// load runs.
    fn arb_twr_records(max_len: usize) -> impl Strategy<Value = Vec<ReplayOutcomeRecord>> {
        let record = (
            prop::collection::vec(0u64..u64::MAX, 8),
            prop::collection::vec(0u64..u64::MAX, 0..6),
            prop::collection::vec((-1_000_000i64..100_000_000, 0u64..1_000), 0..8),
        )
            .prop_map(|(w, delay_bits, mut pairs)| {
                pairs.sort_unstable_by_key(|&(second, _)| second);
                pairs.dedup_by_key(|&mut (second, _)| second);
                (w, delay_bits, LoadDeltas::from_pairs(pairs).unwrap())
            })
            .prop_map(|(w, delay_bits, load)| ReplayOutcomeRecord {
                user: w[0],
                verdict_hash: w[1],
                outcome: ReplayOutcome {
                    packets: w[2],
                    energy_bits: w[3],
                    switches: w[4],
                    false_switches: w[5],
                    missed_switches: w[6],
                    decisions: w[7],
                    delay_bits,
                    load,
                },
            });
        prop::collection::vec(record, 0..max_len)
    }

    fn twr_header(seed: u64, scheme: &str, signaling_hash: u64) -> ReplayCacheHeader {
        ReplayCacheHeader {
            requests: RequestCacheHeader {
                master_seed: seed,
                users: 1_000,
                days: 7,
                mix_hash: seed.rotate_left(17),
                sim_hash: seed.rotate_right(23),
                scheme: scheme.into(),
            },
            signaling_hash,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn twr_roundtrip_is_identity(
            records in arb_twr_records(6),
            seed in 0u64..u64::MAX,
            signaling_hash in 0u64..u64::MAX,
            scheme_pick in 0usize..7,
        ) {
            let schemes =
                ["statusquo", "tail45", "iat95", "iat87.5", "makeidle", "oracle", ""];
            let header = twr_header(seed, schemes[scheme_pick], signaling_hash);
            let mut buf = Vec::new();
            write_replay_outcomes(&header, &records, &mut buf).unwrap();
            let (back_header, back) = read_replay_outcomes(buf.as_slice()).unwrap();
            prop_assert_eq!(back_header, header);
            prop_assert_eq!(back, records);
        }

        #[test]
        fn mutated_twr_files_fail_cleanly(
            records in arb_twr_records(5),
            flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..8),
            cut in 0usize..4096,
            truncate in prop::bool::ANY,
            (victim, word, bit, inside) in (0usize..5, 0usize..8, 0u32..64, 0usize..4096),
        ) {
            // The `.twc` corruption contract, for the replay memo: any
            // byte damage must yield a clean TraceError — never a panic,
            // an oversized allocation, or a silently different record.
            let header = twr_header(42, "makeidle", 13);
            let mut buf = Vec::new();
            write_replay_outcomes(&header, &records, &mut buf).unwrap();
            let pristine = buf.clone();

            // A record's eight scalar words (its key, counts and energy
            // bits) are plausible whatever their bits, so only the
            // checksum can catch a flipped one; a file cut anywhere
            // inside a record is a truncation error at that record.
            if !records.is_empty() {
                let victim = victim % records.len();
                let record_len = |r: &ReplayOutcomeRecord| {
                    8 * (8 + 1 + r.outcome.delay_bits.len() + 2) + r.outcome.load.as_bytes().len()
                };
                let header_len = 4 + 2 + 8 + 8 + 4 + 8 + 8 + 8 + 2 + "makeidle".len() + 8;
                let start = header_len + records[..victim].iter().map(record_len).sum::<usize>();
                let mut flipped = pristine.clone();
                flipped[start + 8 * word + bit as usize / 8] ^= 1 << (bit % 8);
                match read_replay_outcomes(flipped.as_slice()) {
                    Err(crate::TraceError::Parse { message, .. }) => {
                        prop_assert!(message.contains("checksum mismatch"), "{}", message);
                    }
                    other => prop_assert!(false, "flipped word read back as {:?}", other),
                }
                let cut_at = start + inside % record_len(&records[victim]);
                match read_replay_outcomes(&pristine[..cut_at]) {
                    Err(crate::TraceError::Parse { location, message }) => {
                        prop_assert_eq!(location, victim);
                        prop_assert!(message.starts_with("truncated "), "{}", message);
                    }
                    other => prop_assert!(false, "cut record read back as {:?}", other),
                }
            }
            if truncate {
                buf.truncate(cut % (buf.len() + 1));
            }
            for (at, byte) in flips {
                if !buf.is_empty() {
                    let at = at % buf.len();
                    buf[at] = byte;
                }
            }
            match read_replay_outcomes(buf.as_slice()) {
                Err(_) => {}
                Ok((h, back)) => {
                    // The mutations may have reassembled the original
                    // file; anything else must have been rejected.
                    prop_assert_eq!(buf, pristine);
                    prop_assert_eq!(h, header);
                    prop_assert_eq!(back, records);
                }
            }
        }
    }
}
