//! Trace persistence: a human-readable CSV format and a compact binary
//! format.
//!
//! The paper's pipeline stores tcpdump captures; tailwise reduces those to
//! the fields its algorithms consume and defines two interchangeable
//! encodings:
//!
//! * **CSV** (`.twt.csv`) — `ts_us,dir,len,flow,app` with a `#`-prefixed
//!   header; greppable, diffable, importable into any analysis stack.
//! * **Binary** (`.twt`) — little-endian fixed records behind a
//!   magic/version header; ~5× smaller and ~10× faster, used for the cached
//!   multi-day user datasets in the bench harness.
//!
//! Both readers validate monotonic timestamps via [`Trace::from_sorted`], so
//! a corrupted file cannot produce an invalid `Trace`.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::TraceError;
use crate::packet::{AppId, Direction, Packet};
use crate::time::Instant;
use crate::trace::Trace;

/// Header line of the CSV format.
pub const CSV_HEADER: &str = "# tailwise-trace v1: ts_us,dir,len,flow,app";
/// Magic bytes of the binary format.
pub const BINARY_MAGIC: &[u8; 4] = b"TWTR";
/// Current binary format version.
pub const BINARY_VERSION: u16 = 1;
/// Size in bytes of one binary packet record.
const RECORD_SIZE: usize = 8 + 1 + 4 + 4 + 2;

// ---------------------------------------------------------------- CSV ----

/// Writes a trace in CSV form.
pub fn write_csv<W: Write>(trace: &Trace, out: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(out);
    writeln!(w, "{CSV_HEADER}")?;
    for p in trace.iter() {
        writeln!(w, "{},{},{},{},{}", p.ts.as_micros(), p.dir.code(), p.len, p.flow, p.app.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace in CSV form.
///
/// Blank lines and `#` comments are ignored (the header is therefore
/// optional, making hand-written fixtures easy).
pub fn read_csv<R: Read>(input: R) -> Result<Trace, TraceError> {
    let reader = BufReader::new(input);
    let mut packets = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        packets.push(parse_csv_line(line, lineno + 1)?);
    }
    Trace::from_sorted(packets)
}

fn parse_csv_line(line: &str, lineno: usize) -> Result<Packet, TraceError> {
    let err = |message: String| TraceError::Parse { location: lineno, message };
    let mut fields = line.split(',');
    let mut next = |name: &str| {
        fields.next().map(str::trim).ok_or_else(|| err(format!("missing field `{name}`")))
    };
    let ts: i64 = next("ts_us")?.parse().map_err(|e| err(format!("bad ts_us: {e}")))?;
    let dir_field = next("dir")?;
    let mut chars = dir_field.chars();
    let (dir_char, extra) = (chars.next(), chars.next());
    if extra.is_some() {
        return Err(err(format!("bad dir {dir_field:?}: expected single character U or D")));
    }
    let dir = dir_char
        .and_then(Direction::from_code)
        .ok_or_else(|| err(format!("bad dir {dir_field:?}: expected U or D")))?;
    let len: u32 = next("len")?.parse().map_err(|e| err(format!("bad len: {e}")))?;
    let flow: u32 = next("flow")?.parse().map_err(|e| err(format!("bad flow: {e}")))?;
    let app: u16 = next("app")?.parse().map_err(|e| err(format!("bad app: {e}")))?;
    if let Some(stray) = fields.next() {
        return Err(err(format!("unexpected trailing field {stray:?}")));
    }
    Ok(Packet { ts: Instant::from_micros(ts), dir, len, flow, app: AppId(app) })
}

// ------------------------------------------------------------- binary ----

/// Writes a trace in binary form.
pub fn write_binary<W: Write>(trace: &Trace, out: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(out);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&BINARY_VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for p in trace.iter() {
        let mut rec = [0u8; RECORD_SIZE];
        rec[0..8].copy_from_slice(&p.ts.as_micros().to_le_bytes());
        rec[8] = match p.dir {
            Direction::Up => 0,
            Direction::Down => 1,
        };
        rec[9..13].copy_from_slice(&p.len.to_le_bytes());
        rec[13..17].copy_from_slice(&p.flow.to_le_bytes());
        rec[17..19].copy_from_slice(&p.app.0.to_le_bytes());
        w.write_all(&rec)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace in binary form.
pub fn read_binary<R: Read>(input: R) -> Result<Trace, TraceError> {
    let mut r = BufReader::new(input);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(TraceError::BadHeader(String::from_utf8_lossy(&magic).into_owned()));
    }
    let mut v = [0u8; 2];
    r.read_exact(&mut v)?;
    let version = u16::from_le_bytes(v);
    if version != BINARY_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let mut c = [0u8; 8];
    r.read_exact(&mut c)?;
    let count = u64::from_le_bytes(c) as usize;
    let mut packets = Vec::with_capacity(count.min(1 << 24));
    let mut rec = [0u8; RECORD_SIZE];
    for i in 0..count {
        r.read_exact(&mut rec).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::Parse { location: i, message: "truncated record".into() }
            } else {
                TraceError::Io(e)
            }
        })?;
        let ts = i64::from_le_bytes(rec[0..8].try_into().expect("fixed slice"));
        let dir = match rec[8] {
            0 => Direction::Up,
            1 => Direction::Down,
            other => {
                return Err(TraceError::Parse {
                    location: i,
                    message: format!("bad direction byte {other}"),
                })
            }
        };
        let len = u32::from_le_bytes(rec[9..13].try_into().expect("fixed slice"));
        let flow = u32::from_le_bytes(rec[13..17].try_into().expect("fixed slice"));
        let app = u16::from_le_bytes(rec[17..19].try_into().expect("fixed slice"));
        packets.push(Packet { ts: Instant::from_micros(ts), dir, len, flow, app: AppId(app) });
    }
    // A well-formed file ends exactly after `count` records: trailing
    // bytes mean the header's count was corrupted (or the file grew),
    // and silently ignoring them would return a wrong-but-valid Trace.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(TraceError::Parse {
            location: count,
            message: "trailing data after the declared packet count".into(),
        });
    }
    Trace::from_sorted(packets)
}

// ------------------------------------------------- request cache (.twc) ----

/// Magic bytes of the request-cache format.
pub const REQUEST_MAGIC: &[u8; 4] = b"TWRC";
/// Current request-cache format version. Version 2 added each user's
/// confusion counts; a reader meets a version-1 file as an unsupported
/// version.
pub const REQUEST_VERSION: u16 = 2;
/// Longest scheme token a `.twc` header may carry. Real tokens are
/// under 32 bytes; the cap keeps a corrupted length field from driving
/// a huge allocation.
const REQUEST_SCHEME_CAP: usize = 256;

/// The `.twc` header: the scenario fingerprint a cached phase-1
/// request extraction is valid for, plus the scheme that produced it.
///
/// The fingerprint fields are scheme-independent — they identify the
/// *population* (who sends traffic and through which radio/engine
/// knobs), while `scheme` keys the extraction itself (request times
/// depend on the scheme's idle policy). A reader whose expected
/// fingerprint or scheme disagrees with the stored one must treat the
/// file as a miss and recompute; the split is what lets an admission
/// sweep reuse one extraction across every cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestCacheHeader {
    /// Scenario master seed.
    pub master_seed: u64,
    /// Population size; must equal the number of stored streams.
    pub users: u64,
    /// Days of traffic synthesized per user.
    pub days: u32,
    /// Hash of the app and carrier mixes (weights included).
    pub mix_hash: u64,
    /// Hash of the phase-1-relevant engine knobs.
    pub sim_hash: u64,
    /// Stable token of the scheme that extracted the requests.
    pub scheme: String,
}

/// One user's phase-1 product as a `.twc` file stores it: when the
/// device would request fast dormancy, and how the decisions behind
/// those requests scored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestStream {
    /// Fast-dormancy request times, non-decreasing.
    pub times: Vec<Instant>,
    /// The decisions' confusion counts against the Oracle rule, in the
    /// order true positives, false positives, true negatives, false
    /// negatives. The times do not determine them: a wait at or past
    /// the tail window counts a demotion without sending a request.
    pub confusion: [u64; 4],
}

/// One checksum folding step (SplitMix64 over the running hash XOR the
/// next word — the same avalanche the seeding hierarchy uses).
fn fold_word(h: u64, word: u64) -> u64 {
    crate::mix::splitmix64(h ^ word)
}

/// Folds the header fields shared by writer and reader.
fn fold_header(header: &RequestCacheHeader) -> u64 {
    let mut h = 0x71C0_CACE_0000_0000u64;
    h = fold_word(h, header.master_seed);
    h = fold_word(h, header.users);
    h = fold_word(h, header.days as u64);
    h = fold_word(h, header.mix_hash);
    h = fold_word(h, header.sim_hash);
    h = fold_word(h, header.scheme.len() as u64);
    for b in header.scheme.as_bytes() {
        h = fold_word(h, *b as u64);
    }
    h
}

/// Writes per-user phase-1 request streams in `.twc` form: the header;
/// per user, a length-prefixed timestamp vector followed by the four
/// confusion counts; and a trailing 64-bit checksum over everything the
/// header and payload encode.
///
/// `streams[i]` must be user `i`'s stream, with non-decreasing request
/// times (the phase-1 contract), and `streams.len()` must equal
/// `header.users`; both are validated here so a `.twc` file can never
/// encode data its own reader would reject.
pub fn write_request_streams<W: Write>(
    header: &RequestCacheHeader,
    streams: &[RequestStream],
    out: W,
) -> Result<(), TraceError> {
    if streams.len() as u64 != header.users {
        return Err(TraceError::Parse {
            location: 0,
            message: format!(
                "header declares {} user(s) but {} stream(s) were given",
                header.users,
                streams.len()
            ),
        });
    }
    if header.scheme.len() > REQUEST_SCHEME_CAP {
        return Err(TraceError::Parse {
            location: 0,
            message: format!("scheme token exceeds {REQUEST_SCHEME_CAP} bytes"),
        });
    }
    let mut w = BufWriter::new(out);
    w.write_all(REQUEST_MAGIC)?;
    w.write_all(&REQUEST_VERSION.to_le_bytes())?;
    w.write_all(&header.master_seed.to_le_bytes())?;
    w.write_all(&header.users.to_le_bytes())?;
    w.write_all(&header.days.to_le_bytes())?;
    w.write_all(&header.mix_hash.to_le_bytes())?;
    w.write_all(&header.sim_hash.to_le_bytes())?;
    w.write_all(&(header.scheme.len() as u16).to_le_bytes())?;
    w.write_all(header.scheme.as_bytes())?;
    let mut checksum = fold_header(header);
    for (user, RequestStream { times, confusion }) in streams.iter().enumerate() {
        if let Some(pair) = times.windows(2).find(|pair| pair[0] > pair[1]) {
            return Err(TraceError::Parse {
                location: user,
                message: format!(
                    "user {user} request times are not non-decreasing ({} after {})",
                    pair[1].as_micros(),
                    pair[0].as_micros()
                ),
            });
        }
        w.write_all(&(times.len() as u64).to_le_bytes())?;
        checksum = fold_word(checksum, times.len() as u64);
        for t in times {
            w.write_all(&t.as_micros().to_le_bytes())?;
            checksum = fold_word(checksum, t.as_micros() as u64);
        }
        for &count in confusion {
            w.write_all(&count.to_le_bytes())?;
            checksum = fold_word(checksum, count);
        }
    }
    w.write_all(&checksum.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads a `.twc` file back into its header and per-user streams.
///
/// Every failure mode a rotten file can exhibit — wrong magic, unknown
/// version (a version-1 file included), oversized or non-UTF-8 scheme
/// token, truncated stream, out-of-order timestamps, trailing bytes,
/// checksum mismatch — is a typed [`TraceError`], never a panic or an
/// unbounded allocation, and never a silently wrong stream: the
/// checksum covers the header, every timestamp and every confusion
/// count, so a single flipped payload byte is caught even though any
/// individual value is plausible.
pub fn read_request_streams<R: Read>(
    input: R,
) -> Result<(RequestCacheHeader, Vec<RequestStream>), TraceError> {
    let mut r = BufReader::new(input);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != REQUEST_MAGIC {
        return Err(TraceError::BadHeader(String::from_utf8_lossy(&magic).into_owned()));
    }
    let mut v = [0u8; 2];
    r.read_exact(&mut v)?;
    let version = u16::from_le_bytes(v);
    if version != REQUEST_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let mut u64_buf = [0u8; 8];
    let mut read_u64 = |r: &mut BufReader<R>, what: &str, at: usize| -> Result<u64, TraceError> {
        r.read_exact(&mut u64_buf).map_err(|e| truncated(e, what, at))?;
        Ok(u64::from_le_bytes(u64_buf))
    };
    let master_seed = read_u64(&mut r, "master seed", 0)?;
    let users = read_u64(&mut r, "user count", 0)?;
    let mut u32_buf = [0u8; 4];
    r.read_exact(&mut u32_buf).map_err(|e| truncated(e, "day count", 0))?;
    let days = u32::from_le_bytes(u32_buf);
    let mix_hash = read_u64(&mut r, "mix hash", 0)?;
    let sim_hash = read_u64(&mut r, "sim hash", 0)?;
    let mut len_buf = [0u8; 2];
    r.read_exact(&mut len_buf).map_err(|e| truncated(e, "scheme length", 0))?;
    let scheme_len = u16::from_le_bytes(len_buf) as usize;
    if scheme_len > REQUEST_SCHEME_CAP {
        return Err(TraceError::Parse {
            location: 0,
            message: format!("scheme token length {scheme_len} exceeds {REQUEST_SCHEME_CAP}"),
        });
    }
    let mut scheme_bytes = vec![0u8; scheme_len];
    r.read_exact(&mut scheme_bytes).map_err(|e| truncated(e, "scheme token", 0))?;
    let scheme = String::from_utf8(scheme_bytes).map_err(|e| TraceError::Parse {
        location: 0,
        message: format!("scheme token is not UTF-8: {e}"),
    })?;
    let header = RequestCacheHeader { master_seed, users, days, mix_hash, sim_hash, scheme };

    let mut checksum = fold_header(&header);
    let mut streams = Vec::with_capacity((users as usize).min(1 << 24));
    for user in 0..users as usize {
        let mut c = [0u8; 8];
        r.read_exact(&mut c).map_err(|e| truncated(e, "stream length", user))?;
        let count = u64::from_le_bytes(c) as usize;
        checksum = fold_word(checksum, count as u64);
        let mut times = Vec::with_capacity(count.min(1 << 24));
        let mut prev: Option<i64> = None;
        for _ in 0..count {
            let mut t = [0u8; 8];
            r.read_exact(&mut t).map_err(|e| truncated(e, "request timestamp", user))?;
            let micros = i64::from_le_bytes(t);
            checksum = fold_word(checksum, micros as u64);
            if prev.is_some_and(|p| p > micros) {
                return Err(TraceError::Parse {
                    location: user,
                    message: format!("user {user} request times are not non-decreasing"),
                });
            }
            prev = Some(micros);
            times.push(Instant::from_micros(micros));
        }
        let mut confusion = [0u64; 4];
        for count in &mut confusion {
            *count = read_u64(&mut r, "confusion count", user)?;
            checksum = fold_word(checksum, *count);
        }
        streams.push(RequestStream { times, confusion });
    }
    let stored = read_u64(&mut r, "checksum", users as usize)?;
    if stored != checksum {
        return Err(TraceError::Parse {
            location: users as usize,
            message: format!("checksum mismatch: stored {stored:#018x}, computed {checksum:#018x}"),
        });
    }
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(TraceError::Parse {
            location: users as usize,
            message: "trailing data after the declared stream count".into(),
        });
    }
    Ok((header, streams))
}

// ------------------------------------------------- replay memo (.twr) ----

/// Magic bytes of the replay-memo format.
pub const OUTCOME_MAGIC: &[u8; 4] = b"TWRO";
/// Current replay-memo format version.
pub const OUTCOME_VERSION: u16 = 1;

/// The `.twr` header: everything a memoized phase-2 outcome is keyed
/// on at the population level.
///
/// The first five fields mirror [`RequestCacheHeader`] (the scenario
/// fingerprint plus the scheme token); `topo_hash` additionally pins
/// the topology facts a per-user `(cell, second) → msgs` attribution
/// depends on — cell count, mobility model, and the signaling message
/// weights. Per-user verdict streams are keyed inside each record, so
/// one file serves every sweep cell that shares the population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCacheHeader {
    /// Scenario master seed.
    pub master_seed: u64,
    /// Population size (records may cover any subset of users).
    pub users: u64,
    /// Days of traffic synthesized per user.
    pub days: u32,
    /// Hash of the app and carrier mixes (weights included).
    pub mix_hash: u64,
    /// Hash of the phase-1-relevant engine knobs.
    pub sim_hash: u64,
    /// Hash of the replay-relevant topology facts (cell count,
    /// mobility model, signaling weights).
    pub topo_hash: u64,
    /// Stable token of the scheme whose replay is memoized.
    pub scheme: String,
}

/// One memoized per-user phase-2 outcome, as stored on disk.
///
/// Everything the fleet report's outcome fold needs to fold the user
/// without re-simulating: the scheme run's scalar outcome (energy and
/// baseline energy as `f64::to_bits` words, switch/confusion counts,
/// session-delay samples as bits) plus the user's sparse per-second
/// signaling-load deltas. A record is valid only for the
/// `(header, verdict_hash)` pair it is keyed under — any drift in the
/// verdict stream re-simulates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayOutcomeRecord {
    /// User index within the population.
    pub user: u64,
    /// SplitMix64 hash of the user's grant/deny verdict stream.
    pub verdict_hash: u64,
    /// Packets replayed.
    pub packets: u64,
    /// Scheme-run total energy, as `f64::to_bits`.
    pub energy_bits: u64,
    /// Promotion cycles in the scheme run.
    pub switches: u64,
    /// False switches (confusion-matrix false positives).
    pub false_switches: u64,
    /// Missed switches (confusion-matrix false negatives).
    pub missed_switches: u64,
    /// Total scored decisions.
    pub decisions: u64,
    /// Status-quo baseline energy, as `f64::to_bits`.
    pub baseline_energy_bits: u64,
    /// Status-quo baseline promotion cycles.
    pub baseline_switches: u64,
    /// Session-delay samples, each as `f64::to_bits`, in record order.
    pub delay_bits: Vec<u64>,
    /// Sparse signaling-load deltas: `(cell, second, msgs)` triples.
    pub seconds: Vec<(u64, i64, u64)>,
}

/// Folds the `.twr` header fields shared by writer and reader.
fn fold_outcome_header(header: &ReplayCacheHeader) -> u64 {
    let mut h = 0x7EC0_CACE_0000_0000u64;
    h = fold_word(h, header.master_seed);
    h = fold_word(h, header.users);
    h = fold_word(h, header.days as u64);
    h = fold_word(h, header.mix_hash);
    h = fold_word(h, header.sim_hash);
    h = fold_word(h, header.topo_hash);
    h = fold_word(h, header.scheme.len() as u64);
    for b in header.scheme.as_bytes() {
        h = fold_word(h, *b as u64);
    }
    h
}

/// Writes memoized replay outcomes in `.twr` form: the header, a
/// record count, the per-user records, and a trailing 64-bit checksum
/// over every field — the same corrupt-spills-recompute-never-lie
/// contract as [`write_request_streams`].
pub fn write_replay_outcomes<W: Write>(
    header: &ReplayCacheHeader,
    records: &[ReplayOutcomeRecord],
    out: W,
) -> Result<(), TraceError> {
    if header.scheme.len() > REQUEST_SCHEME_CAP {
        return Err(TraceError::Parse {
            location: 0,
            message: format!("scheme token exceeds {REQUEST_SCHEME_CAP} bytes"),
        });
    }
    let mut w = BufWriter::new(out);
    w.write_all(OUTCOME_MAGIC)?;
    w.write_all(&OUTCOME_VERSION.to_le_bytes())?;
    w.write_all(&header.master_seed.to_le_bytes())?;
    w.write_all(&header.users.to_le_bytes())?;
    w.write_all(&header.days.to_le_bytes())?;
    w.write_all(&header.mix_hash.to_le_bytes())?;
    w.write_all(&header.sim_hash.to_le_bytes())?;
    w.write_all(&header.topo_hash.to_le_bytes())?;
    w.write_all(&(header.scheme.len() as u16).to_le_bytes())?;
    w.write_all(header.scheme.as_bytes())?;
    let mut checksum = fold_outcome_header(header);
    w.write_all(&(records.len() as u64).to_le_bytes())?;
    checksum = fold_word(checksum, records.len() as u64);
    let put = |w: &mut BufWriter<W>, checksum: &mut u64, word: u64| -> Result<(), TraceError> {
        w.write_all(&word.to_le_bytes())?;
        *checksum = fold_word(*checksum, word);
        Ok(())
    };
    for rec in records {
        put(&mut w, &mut checksum, rec.user)?;
        put(&mut w, &mut checksum, rec.verdict_hash)?;
        put(&mut w, &mut checksum, rec.packets)?;
        put(&mut w, &mut checksum, rec.energy_bits)?;
        put(&mut w, &mut checksum, rec.switches)?;
        put(&mut w, &mut checksum, rec.false_switches)?;
        put(&mut w, &mut checksum, rec.missed_switches)?;
        put(&mut w, &mut checksum, rec.decisions)?;
        put(&mut w, &mut checksum, rec.baseline_energy_bits)?;
        put(&mut w, &mut checksum, rec.baseline_switches)?;
        put(&mut w, &mut checksum, rec.delay_bits.len() as u64)?;
        for &bits in &rec.delay_bits {
            put(&mut w, &mut checksum, bits)?;
        }
        put(&mut w, &mut checksum, rec.seconds.len() as u64)?;
        for &(cell, second, msgs) in &rec.seconds {
            put(&mut w, &mut checksum, cell)?;
            put(&mut w, &mut checksum, second as u64)?;
            put(&mut w, &mut checksum, msgs)?;
        }
    }
    w.write_all(&checksum.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads a `.twr` file back into its header and outcome records.
///
/// The failure discipline matches [`read_request_streams`]: wrong
/// magic, unknown version, oversized scheme token, truncation anywhere,
/// trailing bytes, and checksum mismatch are all typed
/// [`TraceError`]s, never a panic, an unbounded allocation, or a
/// silently wrong outcome.
pub fn read_replay_outcomes<R: Read>(
    input: R,
) -> Result<(ReplayCacheHeader, Vec<ReplayOutcomeRecord>), TraceError> {
    let mut r = BufReader::new(input);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != OUTCOME_MAGIC {
        return Err(TraceError::BadHeader(String::from_utf8_lossy(&magic).into_owned()));
    }
    let mut v = [0u8; 2];
    r.read_exact(&mut v)?;
    let version = u16::from_le_bytes(v);
    if version != OUTCOME_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let mut u64_buf = [0u8; 8];
    let mut read_u64 = |r: &mut BufReader<R>, what: &str, at: usize| -> Result<u64, TraceError> {
        r.read_exact(&mut u64_buf).map_err(|e| truncated(e, what, at))?;
        Ok(u64::from_le_bytes(u64_buf))
    };
    let master_seed = read_u64(&mut r, "master seed", 0)?;
    let users = read_u64(&mut r, "user count", 0)?;
    let mut u32_buf = [0u8; 4];
    r.read_exact(&mut u32_buf).map_err(|e| truncated(e, "day count", 0))?;
    let days = u32::from_le_bytes(u32_buf);
    let mix_hash = read_u64(&mut r, "mix hash", 0)?;
    let sim_hash = read_u64(&mut r, "sim hash", 0)?;
    let topo_hash = read_u64(&mut r, "topology hash", 0)?;
    let mut len_buf = [0u8; 2];
    r.read_exact(&mut len_buf).map_err(|e| truncated(e, "scheme length", 0))?;
    let scheme_len = u16::from_le_bytes(len_buf) as usize;
    if scheme_len > REQUEST_SCHEME_CAP {
        return Err(TraceError::Parse {
            location: 0,
            message: format!("scheme token length {scheme_len} exceeds {REQUEST_SCHEME_CAP}"),
        });
    }
    let mut scheme_bytes = vec![0u8; scheme_len];
    r.read_exact(&mut scheme_bytes).map_err(|e| truncated(e, "scheme token", 0))?;
    let scheme = String::from_utf8(scheme_bytes).map_err(|e| TraceError::Parse {
        location: 0,
        message: format!("scheme token is not UTF-8: {e}"),
    })?;
    let header =
        ReplayCacheHeader { master_seed, users, days, mix_hash, sim_hash, topo_hash, scheme };

    let mut checksum = fold_outcome_header(&header);
    let count = read_u64(&mut r, "record count", 0)? as usize;
    checksum = fold_word(checksum, count as u64);
    let mut records = Vec::with_capacity(count.min(1 << 24));
    for i in 0..count {
        let get = |r: &mut BufReader<R>, checksum: &mut u64, what| -> Result<u64, TraceError> {
            let mut b = [0u8; 8];
            r.read_exact(&mut b).map_err(|e| truncated(e, what, i))?;
            let word = u64::from_le_bytes(b);
            *checksum = fold_word(*checksum, word);
            Ok(word)
        };
        let mut rec = ReplayOutcomeRecord {
            user: get(&mut r, &mut checksum, "user index")?,
            verdict_hash: get(&mut r, &mut checksum, "verdict hash")?,
            packets: get(&mut r, &mut checksum, "packet count")?,
            energy_bits: get(&mut r, &mut checksum, "energy bits")?,
            switches: get(&mut r, &mut checksum, "switch count")?,
            false_switches: get(&mut r, &mut checksum, "false-switch count")?,
            missed_switches: get(&mut r, &mut checksum, "missed-switch count")?,
            decisions: get(&mut r, &mut checksum, "decision count")?,
            baseline_energy_bits: get(&mut r, &mut checksum, "baseline energy bits")?,
            baseline_switches: get(&mut r, &mut checksum, "baseline switch count")?,
            ..ReplayOutcomeRecord::default()
        };
        let delays = get(&mut r, &mut checksum, "delay count")? as usize;
        rec.delay_bits.reserve(delays.min(1 << 24));
        for _ in 0..delays {
            rec.delay_bits.push(get(&mut r, &mut checksum, "delay bits")?);
        }
        let seconds = get(&mut r, &mut checksum, "second-map length")? as usize;
        rec.seconds.reserve(seconds.min(1 << 24));
        for _ in 0..seconds {
            let cell = get(&mut r, &mut checksum, "second-map cell")?;
            let second = get(&mut r, &mut checksum, "second-map second")? as i64;
            let msgs = get(&mut r, &mut checksum, "second-map messages")?;
            rec.seconds.push((cell, second, msgs));
        }
        records.push(rec);
    }
    let stored = read_u64(&mut r, "checksum", count)?;
    if stored != checksum {
        return Err(TraceError::Parse {
            location: count,
            message: format!("checksum mismatch: stored {stored:#018x}, computed {checksum:#018x}"),
        });
    }
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(TraceError::Parse {
            location: count,
            message: "trailing data after the declared record count".into(),
        });
    }
    Ok((header, records))
}

/// Maps an unexpected-EOF mid-record into a positioned truncation
/// error (other I/O failures pass through).
fn truncated(e: std::io::Error, what: &str, location: usize) -> TraceError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceError::Parse { location, message: format!("truncated {what}") }
    } else {
        TraceError::Io(e)
    }
}

// --------------------------------------------------------------- paths ----

/// Writes a trace to a path, choosing the format from the extension:
/// `.csv` → CSV, anything else → binary.
pub fn save(trace: &Trace, path: &Path) -> Result<(), TraceError> {
    let file = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e.eq_ignore_ascii_case("csv")) {
        write_csv(trace, file)
    } else {
        write_binary(trace, file)
    }
}

/// Reads a trace from a path, choosing the format from the extension the
/// same way as [`save`].
pub fn load(path: &Path) -> Result<Trace, TraceError> {
    let file = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e.eq_ignore_ascii_case("csv")) {
        read_csv(file)
    } else {
        read_binary(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn sample_trace() -> Trace {
        Trace::from_sorted(vec![
            Packet::new(Instant::ZERO, Direction::Up, 40).with_flow(1).with_app(AppId(2)),
            Packet::new(Instant::from_millis(100), Direction::Down, 1400)
                .with_flow(1)
                .with_app(AppId(2)),
            Packet::new(Instant::from_secs(10), Direction::Up, 60).with_flow(2),
        ])
        .unwrap()
    }

    #[test]
    fn csv_roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_is_human_readable() {
        let mut buf = Vec::new();
        write_csv(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# tailwise-trace"));
        assert!(text.contains("0,U,40,1,2"));
        assert!(text.contains("100000,D,1400,1,2"));
    }

    #[test]
    fn csv_ignores_comments_and_blanks() {
        let text = "# a comment\n\n0,U,40,0,0\n   \n100,D,20,0,0\n";
        let t = read_csv(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        for bad in [
            "notanumber,U,40,0,0",
            "0,X,40,0,0",
            "0,UD,40,0,0",
            "0,U,-4,0,0",
            "0,U,40,0",
            "0,U,40,0,0,9",
        ] {
            let err = read_csv(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, TraceError::Parse { .. }), "{bad} -> {err}");
        }
    }

    #[test]
    fn csv_rejects_out_of_order() {
        let text = "1000,U,1,0,0\n0,U,1,0,0\n";
        assert!(matches!(read_csv(text.as_bytes()), Err(TraceError::OutOfOrder { .. })));
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_roundtrips_negative_timestamps() {
        let t =
            Trace::from_sorted(vec![Packet::new(Instant::from_micros(-42), Direction::Down, 1)])
                .unwrap();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_binary(&sample_trace(), &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_binary(bad.as_slice()), Err(TraceError::BadHeader(_))));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(read_binary(bad.as_slice()), Err(TraceError::UnsupportedVersion(99))));
    }

    #[test]
    fn binary_detects_truncation() {
        let mut buf = Vec::new();
        write_binary(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(buf.as_slice()), Err(TraceError::Parse { .. })));
    }

    #[test]
    fn binary_rejects_trailing_data() {
        let mut buf = Vec::new();
        write_binary(&sample_trace(), &mut buf).unwrap();
        buf.push(0);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("trailing data"), "{err}");
    }

    #[test]
    fn binary_rejects_bad_direction_byte() {
        let mut buf = Vec::new();
        write_binary(&sample_trace(), &mut buf).unwrap();
        // First record's direction byte is at offset 14 (4 magic + 2 ver + 8 count) + 8.
        buf[14 + 8] = 7;
        assert!(matches!(read_binary(buf.as_slice()), Err(TraceError::Parse { .. })));
    }

    #[test]
    fn save_load_picks_format_from_extension() {
        let dir = std::env::temp_dir().join(format!("tailwise-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample_trace();
        let csv = dir.join("t.csv");
        let bin = dir.join("t.twt");
        save(&t, &csv).unwrap();
        save(&t, &bin).unwrap();
        assert_eq!(load(&csv).unwrap(), t);
        assert_eq!(load(&bin).unwrap(), t);
        // CSV file really is text.
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with('#'));
        // Binary file really is binary and smaller per record.
        let blob = std::fs::read(&bin).unwrap();
        assert_eq!(&blob[..4], BINARY_MAGIC);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_trace_roundtrips_in_both_formats() {
        let t = Trace::new();
        let mut c = Vec::new();
        write_csv(&t, &mut c).unwrap();
        assert_eq!(read_csv(c.as_slice()).unwrap(), t);
        let mut b = Vec::new();
        write_binary(&t, &mut b).unwrap();
        assert_eq!(read_binary(b.as_slice()).unwrap(), t);
    }

    #[test]
    fn binary_is_denser_than_csv() {
        // Not a strict format guarantee, but the reason the binary format
        // exists; catches accidental bloat.
        // Realistic magnitudes: multi-hour capture (10-digit microsecond
        // timestamps), real flow ids.
        let mut big = Vec::new();
        for i in 0..1000i64 {
            big.push(
                Packet::new(
                    Instant::from_millis(i * 7_000),
                    if i % 2 == 0 { Direction::Up } else { Direction::Down },
                    (i % 1400) as u32,
                )
                .with_flow(100_000 + i as u32),
            );
        }
        let t = Trace::from_sorted(big).unwrap();
        let (mut c, mut b) = (Vec::new(), Vec::new());
        write_csv(&t, &mut c).unwrap();
        write_binary(&t, &mut b).unwrap();
        assert!(b.len() < c.len());
    }

    #[test]
    fn gap_durations_survive_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.gaps(), vec![Duration::from_millis(100), Duration::from_millis(9_900)]);
    }

    // ------------------------------------------ request cache (.twc) ----

    fn sample_header(users: u64) -> RequestCacheHeader {
        RequestCacheHeader {
            master_seed: 0xBEAC4,
            users,
            days: 3,
            mix_hash: 0x1234_5678_9ABC_DEF0,
            sim_hash: 0x0FED_CBA9_8765_4321,
            scheme: "tail45".into(),
        }
    }

    fn sample_streams() -> Vec<RequestStream> {
        vec![
            RequestStream {
                times: vec![Instant::from_micros(-7), Instant::ZERO, Instant::from_secs(9)],
                confusion: [3, 1, 40, 2],
            },
            // A user whose decisions never sent a request, yet scored.
            RequestStream { times: vec![], confusion: [0, 0, 17, 5] },
            RequestStream {
                times: vec![
                    Instant::from_millis(4),
                    Instant::from_millis(4),
                    Instant::from_secs(100),
                ],
                confusion: [u64::MAX, 0, 1 << 40, 9],
            },
        ]
    }

    fn sample_twc() -> Vec<u8> {
        let mut buf = Vec::new();
        write_request_streams(&sample_header(3), &sample_streams(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn twc_roundtrip_preserves_header_and_streams() {
        let (header, streams) = read_request_streams(sample_twc().as_slice()).unwrap();
        assert_eq!(header, sample_header(3));
        assert_eq!(streams, sample_streams());
    }

    #[test]
    fn twc_roundtrips_empty_population() {
        let mut buf = Vec::new();
        write_request_streams(&sample_header(0), &[], &mut buf).unwrap();
        let (header, streams) = read_request_streams(buf.as_slice()).unwrap();
        assert_eq!(header.users, 0);
        assert!(streams.is_empty());
    }

    #[test]
    fn twc_rejects_bad_magic_and_version() {
        let buf = sample_twc();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_request_streams(bad.as_slice()), Err(TraceError::BadHeader(_))));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_request_streams(bad.as_slice()),
            Err(TraceError::UnsupportedVersion(99))
        ));
        // Version 1 stored no confusion counts.
        let mut old = buf.clone();
        old[4] = 1;
        assert!(matches!(
            read_request_streams(old.as_slice()),
            Err(TraceError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn twc_detects_truncation_anywhere() {
        let buf = sample_twc();
        for cut in 6..buf.len() {
            let err = read_request_streams(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Parse { .. } | TraceError::Io(_)),
                "cut at {cut} -> {err}"
            );
        }
    }

    #[test]
    fn twc_rejects_trailing_data() {
        let mut buf = sample_twc();
        buf.push(0);
        let err = read_request_streams(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing data"), "{err}");
    }

    #[test]
    fn twc_checksum_catches_flipped_payload_byte() {
        // A flipped timestamp byte still decodes to a plausible (even
        // monotone) stream; only the checksum can catch it. Flip every
        // byte after the header in turn and demand a clean error.
        let buf = sample_twc();
        for pos in 40..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            let result = read_request_streams(bad.as_slice());
            assert!(result.is_err(), "flipped byte {pos} went unnoticed");
        }
    }

    #[test]
    fn twc_write_rejects_stream_count_mismatch() {
        let mut buf = Vec::new();
        let err =
            write_request_streams(&sample_header(5), &sample_streams(), &mut buf).unwrap_err();
        assert!(err.to_string().contains("5 user(s)"), "{err}");
    }

    #[test]
    fn twc_write_rejects_unsorted_stream() {
        let streams = vec![RequestStream {
            times: vec![Instant::from_secs(2), Instant::from_secs(1)],
            confusion: [0; 4],
        }];
        let mut buf = Vec::new();
        let err = write_request_streams(&sample_header(1), &streams, &mut buf).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
    }

    #[test]
    fn twc_write_rejects_oversized_scheme_token() {
        let mut header = sample_header(0);
        header.scheme = "x".repeat(REQUEST_SCHEME_CAP + 1);
        let mut buf = Vec::new();
        assert!(write_request_streams(&header, &[], &mut buf).is_err());
    }

    // -------------------------------------------- replay memo (.twr) ----

    fn sample_outcome_header() -> ReplayCacheHeader {
        ReplayCacheHeader {
            master_seed: 0xBEAC4,
            users: 3,
            days: 3,
            mix_hash: 0x1234_5678_9ABC_DEF0,
            sim_hash: 0x0FED_CBA9_8765_4321,
            topo_hash: 0xA5A5_0000_1111_2222,
            scheme: "tail45".into(),
        }
    }

    fn sample_records() -> Vec<ReplayOutcomeRecord> {
        vec![
            ReplayOutcomeRecord {
                user: 0,
                verdict_hash: 0xDEAD_BEEF,
                packets: 412,
                energy_bits: 1234.5f64.to_bits(),
                switches: 9,
                false_switches: 2,
                missed_switches: 1,
                decisions: 40,
                baseline_energy_bits: 2345.75f64.to_bits(),
                baseline_switches: 4,
                delay_bits: vec![0.5f64.to_bits(), 1.25f64.to_bits()],
                seconds: vec![(0, -3, 28), (0, 90, 5), (2, 90, 6)],
            },
            // A user with no delays and no signaling load at all.
            ReplayOutcomeRecord { user: 2, verdict_hash: 7, ..ReplayOutcomeRecord::default() },
        ]
    }

    fn sample_twr() -> Vec<u8> {
        let mut buf = Vec::new();
        write_replay_outcomes(&sample_outcome_header(), &sample_records(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn twr_roundtrip_preserves_header_and_records() {
        let (header, records) = read_replay_outcomes(sample_twr().as_slice()).unwrap();
        assert_eq!(header, sample_outcome_header());
        assert_eq!(records, sample_records());
    }

    #[test]
    fn twr_roundtrips_empty_record_set() {
        let mut buf = Vec::new();
        write_replay_outcomes(&sample_outcome_header(), &[], &mut buf).unwrap();
        let (header, records) = read_replay_outcomes(buf.as_slice()).unwrap();
        assert_eq!(header, sample_outcome_header());
        assert!(records.is_empty());
    }

    #[test]
    fn twr_rejects_bad_magic_and_version() {
        let buf = sample_twr();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_replay_outcomes(bad.as_slice()), Err(TraceError::BadHeader(_))));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_replay_outcomes(bad.as_slice()),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn twr_detects_truncation_anywhere() {
        let buf = sample_twr();
        for cut in 6..buf.len() {
            let err = read_replay_outcomes(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Parse { .. } | TraceError::Io(_)),
                "cut at {cut} -> {err}"
            );
        }
    }

    #[test]
    fn twr_rejects_trailing_data() {
        let mut buf = sample_twr();
        buf.push(0);
        let err = read_replay_outcomes(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing data"), "{err}");
    }

    #[test]
    fn twr_checksum_catches_any_flipped_byte() {
        // Every field is a plausible word on its own (a flipped energy
        // bit still decodes to a valid f64); only the checksum can
        // catch payload damage. Flip every byte in the file in turn —
        // header bytes fail structurally, payload bytes fail the
        // checksum — and demand a clean error either way.
        let buf = sample_twr();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(read_replay_outcomes(bad.as_slice()).is_err(), "flipped byte {pos} unnoticed");
        }
    }

    #[test]
    fn twr_write_rejects_oversized_scheme_token() {
        let mut header = sample_outcome_header();
        header.scheme = "x".repeat(REQUEST_SCHEME_CAP + 1);
        let mut buf = Vec::new();
        assert!(write_replay_outcomes(&header, &[], &mut buf).is_err());
    }
}
