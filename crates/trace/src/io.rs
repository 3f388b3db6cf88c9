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
//!
//! The fleet cache's spills live here too: `.twc` (per-user phase-1
//! request streams) and `.twr` (memoized phase-2 replay outcomes) are
//! two payload layouts in one checksummed container — the `.twt`
//! preamble, every field folded into a seeded checksum as it is written
//! or read, and the checksum last, with nothing after it.

use std::borrow::Borrow;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::TraceError;
use crate::load::LoadDeltas;
use crate::mix::{fold, fold_bytes};
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

// ------------------------------------------------------ binary framing ----

/// Writes a binary format's preamble: its magic bytes, then its version.
fn write_preamble(w: &mut impl Write, magic: &[u8; 4], version: u16) -> Result<(), TraceError> {
    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())?;
    Ok(())
}

/// Reads a binary format's preamble: other magic bytes are a
/// [`TraceError::BadHeader`], another version an
/// [`TraceError::UnsupportedVersion`].
fn read_preamble(r: &mut impl Read, magic: &[u8; 4], version: u16) -> Result<(), TraceError> {
    let mut found = [0u8; 4];
    r.read_exact(&mut found)?;
    if &found != magic {
        return Err(TraceError::BadHeader(String::from_utf8_lossy(&found).into_owned()));
    }
    let mut v = [0u8; 2];
    r.read_exact(&mut v)?;
    match u16::from_le_bytes(v) {
        found if found == version => Ok(()),
        found => Err(TraceError::UnsupportedVersion(found)),
    }
}

/// Checks that a binary file ends right after its `count` declared
/// items. Trailing bytes mean the count was corrupted (or the file
/// grew), and silently ignoring them would return a wrong-but-valid
/// value.
fn expect_end(r: &mut impl Read, count: usize, item: &str) -> Result<(), TraceError> {
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(TraceError::Parse {
            location: count,
            message: format!("trailing data after the declared {item} count"),
        });
    }
    Ok(())
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

// ------------------------------------------------------------- binary ----

/// Writes a trace in binary form.
pub fn write_binary<W: Write>(trace: &Trace, out: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(out);
    write_preamble(&mut w, BINARY_MAGIC, BINARY_VERSION)?;
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
    read_preamble(&mut r, BINARY_MAGIC, BINARY_VERSION)?;
    let mut c = [0u8; 8];
    r.read_exact(&mut c)?;
    let count = u64::from_le_bytes(c) as usize;
    let mut packets = Vec::with_capacity(count.min(1 << 24));
    let mut rec = [0u8; RECORD_SIZE];
    for i in 0..count {
        r.read_exact(&mut rec).map_err(|e| truncated(e, "record", i))?;
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
    expect_end(&mut r, count, "packet")?;
    Trace::from_sorted(packets)
}

// ------------------------------------------------- checksummed spills ----

/// Longest scheme token a spill header may carry. Real tokens are
/// under 32 bytes; the cap keeps a corrupted length field from driving
/// a huge allocation.
const SCHEME_CAP: usize = 256;

/// What sets one checksummed spill format apart from another: its
/// preamble, and the seed its checksum chain starts from.
struct SpillFormat {
    magic: &'static [u8; 4],
    version: u16,
    seed: u64,
}

/// The `.twc` request-cache format.
const REQUEST_FORMAT: SpillFormat =
    SpillFormat { magic: REQUEST_MAGIC, version: REQUEST_VERSION, seed: 0x71C0_CACE_0000_0000 };
/// The `.twr` replay-memo format.
const OUTCOME_FORMAT: SpillFormat =
    SpillFormat { magic: OUTCOME_MAGIC, version: OUTCOME_VERSION, seed: 0x7EC0_CACE_0000_0000 };

/// Folds a scheme token: its length, then each byte as a word.
fn fold_scheme(h: u64, token: &[u8]) -> u64 {
    token.iter().fold(fold(h, token.len() as u64), |h, &b| fold(h, b as u64))
}

/// Writes a checksummed spill file: the preamble, then little-endian
/// fields, each folded into the checksum as it goes out, then the
/// checksum itself.
struct SpillWriter<W: Write> {
    w: BufWriter<W>,
    checksum: u64,
}

impl<W: Write> SpillWriter<W> {
    fn new(format: &SpillFormat, out: W) -> Result<Self, TraceError> {
        let mut w = BufWriter::new(out);
        write_preamble(&mut w, format.magic, format.version)?;
        Ok(SpillWriter { w, checksum: format.seed })
    }

    fn word(&mut self, word: u64) -> Result<(), TraceError> {
        self.w.write_all(&word.to_le_bytes())?;
        self.checksum = fold(self.checksum, word);
        Ok(())
    }

    /// A 32-bit field: four bytes on disk, one word in the checksum.
    fn word32(&mut self, word: u32) -> Result<(), TraceError> {
        self.w.write_all(&word.to_le_bytes())?;
        self.checksum = fold(self.checksum, word as u64);
        Ok(())
    }

    /// A byte string whose length the caller has written: the bytes as
    /// they are, folded eight at a time.
    fn bytes(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.w.write_all(bytes)?;
        self.checksum = fold_bytes(self.checksum, bytes);
        Ok(())
    }

    /// The scheme token: a 16-bit length, then its bytes.
    fn scheme(&mut self, token: &str) -> Result<(), TraceError> {
        if token.len() > SCHEME_CAP {
            return Err(TraceError::Parse {
                location: 0,
                message: format!("scheme token exceeds {SCHEME_CAP} bytes"),
            });
        }
        self.w.write_all(&(token.len() as u16).to_le_bytes())?;
        self.w.write_all(token.as_bytes())?;
        self.checksum = fold_scheme(self.checksum, token.as_bytes());
        Ok(())
    }

    fn finish(mut self) -> Result<(), TraceError> {
        self.w.write_all(&self.checksum.to_le_bytes())?;
        self.w.flush()?;
        Ok(())
    }
}

/// Reads a checksummed spill file back, mirroring [`SpillWriter`]: a
/// file cut short is a `truncated {what}` error at the caller's
/// position, and [`finish`](Self::finish) checks the checksum and then
/// that nothing follows it.
struct SpillReader<R: Read> {
    r: BufReader<R>,
    checksum: u64,
}

impl<R: Read> SpillReader<R> {
    fn new(format: &SpillFormat, input: R) -> Result<Self, TraceError> {
        let mut r = BufReader::new(input);
        read_preamble(&mut r, format.magic, format.version)?;
        Ok(SpillReader { r, checksum: format.seed })
    }

    fn word(&mut self, what: &str, at: usize) -> Result<u64, TraceError> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b).map_err(|e| truncated(e, what, at))?;
        let word = u64::from_le_bytes(b);
        self.checksum = fold(self.checksum, word);
        Ok(word)
    }

    fn word32(&mut self, what: &str, at: usize) -> Result<u32, TraceError> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b).map_err(|e| truncated(e, what, at))?;
        let word = u32::from_le_bytes(b);
        self.checksum = fold(self.checksum, word as u64);
        Ok(word)
    }

    /// Reads the `len` bytes [`SpillWriter::bytes`] wrote. The buffer
    /// grows only as bytes arrive, so a corrupted length cannot drive a
    /// huge allocation.
    fn bytes(&mut self, len: u64, what: &str, at: usize) -> Result<Vec<u8>, TraceError> {
        let mut bytes = Vec::with_capacity(len.min(1 << 20) as usize);
        (&mut self.r).take(len).read_to_end(&mut bytes)?;
        if (bytes.len() as u64) < len {
            return Err(TraceError::Parse { location: at, message: format!("truncated {what}") });
        }
        self.checksum = fold_bytes(self.checksum, &bytes);
        Ok(bytes)
    }

    fn scheme(&mut self) -> Result<String, TraceError> {
        let mut len = [0u8; 2];
        self.r.read_exact(&mut len).map_err(|e| truncated(e, "scheme length", 0))?;
        let len = u16::from_le_bytes(len) as usize;
        if len > SCHEME_CAP {
            return Err(TraceError::Parse {
                location: 0,
                message: format!("scheme token length {len} exceeds {SCHEME_CAP}"),
            });
        }
        let mut token = vec![0u8; len];
        self.r.read_exact(&mut token).map_err(|e| truncated(e, "scheme token", 0))?;
        self.checksum = fold_scheme(self.checksum, &token);
        String::from_utf8(token).map_err(|e| TraceError::Parse {
            location: 0,
            message: format!("scheme token is not UTF-8: {e}"),
        })
    }

    /// Reads the stored checksum after the `count` declared items and
    /// checks it, then that the file ends there.
    fn finish(mut self, count: usize, item: &str) -> Result<(), TraceError> {
        let computed = self.checksum;
        let stored = self.word("checksum", count)?;
        if stored != computed {
            return Err(TraceError::Parse {
                location: count,
                message: format!(
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ),
            });
        }
        expect_end(&mut self.r, count, item)
    }
}

// ------------------------------------------------- request cache (.twc) ----

/// Magic bytes of the request-cache format.
pub const REQUEST_MAGIC: &[u8; 4] = b"TWRC";
/// Current request-cache format version. Version 2 added each user's
/// confusion counts and version 3 their status-quo baseline; a reader
/// meets an older file as an unsupported version.
pub const REQUEST_VERSION: u16 = 3;

/// The `.twc` header: the scenario fingerprint a cached phase-1
/// request extraction is valid for, plus the scheme that produced it.
///
/// The fingerprint fields are scheme-independent — they identify the
/// *population* (who sends traffic and through which radio/engine
/// knobs), while `scheme` keys the extraction itself (request times
/// depend on the scheme's idle policy). A reader whose expected
/// fingerprint or scheme disagrees with the stored one must treat the
/// file as a miss and recompute; the split is what lets an admission
/// sweep reuse one extraction across every cell. The fleet's request
/// cache keys its streams on this header itself, in memory as on disk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestCacheHeader {
    /// Scenario master seed.
    pub master_seed: u64,
    /// Population size; a `.twc` file stores exactly this many streams.
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

impl RequestCacheHeader {
    /// Writes every field but the scheme token, which a `.twr` header
    /// follows with its signaling hash first.
    fn write_fingerprint<W: Write>(&self, w: &mut SpillWriter<W>) -> Result<(), TraceError> {
        w.word(self.master_seed)?;
        w.word(self.users)?;
        w.word32(self.days)?;
        w.word(self.mix_hash)?;
        w.word(self.sim_hash)
    }

    /// Reads what [`write_fingerprint`](Self::write_fingerprint)
    /// wrote, leaving the scheme token for the caller to read.
    fn read_fingerprint<R: Read>(r: &mut SpillReader<R>) -> Result<Self, TraceError> {
        Ok(RequestCacheHeader {
            master_seed: r.word("master seed", 0)?,
            users: r.word("user count", 0)?,
            days: r.word32("day count", 0)?,
            mix_hash: r.word("mix hash", 0)?,
            sim_hash: r.word("sim hash", 0)?,
            scheme: String::new(),
        })
    }
}

/// One user's phase-1 product: when the device would request fast
/// dormancy, how the decisions behind those requests scored, and the
/// status-quo run the user is scored against. The fleet's two-pass
/// runner builds it, its request cache holds it, and a `.twc` file
/// stores it field for field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestStream {
    /// Fast-dormancy request times, non-decreasing.
    pub times: Vec<Instant>,
    /// The decisions' confusion counts against the Oracle rule, in the
    /// order true positives, false positives, true negatives, false
    /// negatives. The times do not determine them: a wait at or past
    /// the tail window counts a demotion without sending a request.
    pub confusion: [u64; 4],
    /// Status-quo total energy over the user's trace, as `f64::to_bits`.
    pub baseline_energy_bits: u64,
    /// Status-quo switch cycles over the user's trace.
    pub baseline_switches: u64,
}

/// Writes per-user phase-1 request streams in `.twc` form: the header;
/// per user, a length-prefixed timestamp vector followed by the four
/// confusion counts and the two baseline words; and a trailing 64-bit
/// checksum over everything the header and payload encode.
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
    let mut w = SpillWriter::new(&REQUEST_FORMAT, out)?;
    header.write_fingerprint(&mut w)?;
    w.scheme(&header.scheme)?;
    for (user, stream) in streams.iter().enumerate() {
        let RequestStream { times, confusion, baseline_energy_bits, baseline_switches } = stream;
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
        w.word(times.len() as u64)?;
        for t in times {
            w.word(t.as_micros() as u64)?;
        }
        for &word in confusion.iter().chain([baseline_energy_bits, baseline_switches]) {
            w.word(word)?;
        }
    }
    w.finish()
}

/// Reads a `.twc` file back into its header and per-user streams.
///
/// Every failure mode a rotten file can exhibit — wrong magic, unknown
/// version (an older one included), oversized or non-UTF-8 scheme
/// token, truncated stream, out-of-order timestamps, trailing bytes,
/// checksum mismatch — is a typed [`TraceError`], never a panic or an
/// unbounded allocation, and never a silently wrong stream: the
/// checksum covers the header, every timestamp, every confusion count
/// and every baseline word, so a single flipped payload byte is caught
/// even though any individual value is plausible.
pub fn read_request_streams<R: Read>(
    input: R,
) -> Result<(RequestCacheHeader, Vec<RequestStream>), TraceError> {
    let mut r = SpillReader::new(&REQUEST_FORMAT, input)?;
    let mut header = RequestCacheHeader::read_fingerprint(&mut r)?;
    header.scheme = r.scheme()?;
    let users = header.users as usize;
    let mut streams = Vec::with_capacity(users.min(1 << 24));
    for user in 0..users {
        let count = r.word("stream length", user)? as usize;
        let mut times: Vec<Instant> = Vec::with_capacity(count.min(1 << 24));
        for _ in 0..count {
            let micros = r.word("request timestamp", user)? as i64;
            if times.last().is_some_and(|p| p.as_micros() > micros) {
                return Err(TraceError::Parse {
                    location: user,
                    message: format!("user {user} request times are not non-decreasing"),
                });
            }
            times.push(Instant::from_micros(micros));
        }
        let mut confusion = [0u64; 4];
        for count in &mut confusion {
            *count = r.word("confusion count", user)?;
        }
        let baseline_energy_bits = r.word("baseline energy bits", user)?;
        let baseline_switches = r.word("baseline switch count", user)?;
        streams.push(RequestStream { times, confusion, baseline_energy_bits, baseline_switches });
    }
    r.finish(users, "stream")?;
    Ok((header, streams))
}

// ------------------------------------------------- replay memo (.twr) ----

/// Magic bytes of the replay-memo format.
pub const OUTCOME_MAGIC: &[u8; 4] = b"TWRO";
/// Current replay-memo format version. Version 2 stores each record's
/// load deltas as byte runs instead of 24-byte triples, version 3 drops
/// the status-quo baseline, which the `.twc` stream carries, and
/// version 4 stores one `(second, msgs)` run per record ([`LoadDeltas`])
/// instead of one run per cell; a reader meets an older file as an
/// unsupported version.
pub const OUTCOME_VERSION: u16 = 4;

/// The `.twr` header: everything a memoized phase-2 outcome is keyed
/// on at the population level.
///
/// `requests` is the `.twc` header of the request streams the outcomes
/// were replayed from (the scenario fingerprint plus the scheme token);
/// `signaling_hash` additionally pins the per-transition signaling
/// weights a user's `second → msgs` load is summed with. A record
/// names no cell, and per-user verdict streams are keyed inside each
/// record, so one file serves every sweep cell that shares the
/// population, whatever its cell count, mobility model or admission
/// policy. The fleet's replay memo keys its outcomes on this header
/// itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplayCacheHeader {
    /// The population fingerprint and scheme token. Its `users` is the
    /// population size; the records may cover any subset of users.
    pub requests: RequestCacheHeader,
    /// Hash of the five per-transition signaling weights.
    pub signaling_hash: u64,
}

/// The scalar outcome of one user's phase-2 replay, in exactly the
/// shape a fleet fold consumes and a `.twr` record stores: energy as
/// `f64::to_bits` words, switch and confusion counts, the session-delay
/// samples as bits, and the user's per-second signaling load.
/// The status-quo baseline the run is scored against is not part of
/// it: it depends on the user's trace alone, and the fold takes it
/// beside the outcome.
///
/// This is what makes a replay *memoizable*. A replay's outcome is a
/// pure function of `(profile, config, trace, requests, verdicts)`, so
/// a coordinator that has seen the same verdict stream for the same
/// user before can fold this struct instead of re-running the engine —
/// and because everything floating-point is carried as raw bits, the
/// fold is bit-identical to the live run by construction, not by
/// rounding luck. `Eq` is derived for the same reason: two outcomes are
/// equal iff every bit agrees. The sim crate's `replay_outcome` builds
/// one from a finished run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayOutcome {
    /// Packets in the replayed trace.
    pub packets: u64,
    /// Scheme-run total energy, as `f64::to_bits`.
    pub energy_bits: u64,
    /// Demote→promote switch cycles.
    pub switches: u64,
    /// Confusion-matrix false positives.
    pub false_switches: u64,
    /// Confusion-matrix false negatives.
    pub missed_switches: u64,
    /// Total scored decisions.
    pub decisions: u64,
    /// Session-delay samples, each as `f64::to_bits`, in record order.
    pub delay_bits: Vec<u64>,
    /// Signaling load: `(second, msgs)` pairs strictly ascending by
    /// second, as one compact byte run. The fold attributes each second
    /// to a cell.
    pub load: LoadDeltas,
}

impl ReplayOutcome {
    /// Total energy in joules, recovered exactly from the stored bits.
    pub fn energy_j(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }

    /// The session-delay samples, recovered exactly from the stored
    /// bits, in record order.
    pub fn session_delays(&self) -> impl Iterator<Item = f64> + '_ {
        self.delay_bits.iter().map(|&b| f64::from_bits(b))
    }

    /// Energy saved relative to a bare baseline total, in percent —
    /// the same arithmetic (same bits) as the sim crate's
    /// `SimReport::savings_vs_energy`.
    pub fn savings_vs_energy(&self, base: f64) -> f64 {
        if base <= 0.0 {
            return 0.0;
        }
        (base - self.energy_j()) / base * 100.0
    }
}

/// One `.twr` record: a user's memoized outcome under the key it is
/// valid for. Any drift in the user's verdict stream re-simulates.
///
/// The outcome is owned when read back (`O = ReplayOutcome`) and may be
/// borrowed when written (`O = &ReplayOutcome`), so a memo spills
/// without copying its outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayOutcomeRecord<O = ReplayOutcome> {
    /// User index within the population.
    pub user: u64,
    /// SplitMix64 hash of the user's grant/deny verdict stream.
    pub verdict_hash: u64,
    /// The outcome replaying that verdict stream produced.
    pub outcome: O,
}

/// Writes memoized replay outcomes in `.twr` form: the header, a
/// record count, the per-user records, and a trailing 64-bit checksum
/// over every field — the same corrupt-spills-recompute-never-lie
/// contract as [`write_request_streams`]. Records are written as given;
/// owned and borrowed outcomes produce the same bytes.
pub fn write_replay_outcomes<W: Write, O: Borrow<ReplayOutcome>>(
    header: &ReplayCacheHeader,
    records: &[ReplayOutcomeRecord<O>],
    out: W,
) -> Result<(), TraceError> {
    let mut w = SpillWriter::new(&OUTCOME_FORMAT, out)?;
    header.requests.write_fingerprint(&mut w)?;
    w.word(header.signaling_hash)?;
    w.scheme(&header.requests.scheme)?;
    w.word(records.len() as u64)?;
    for ReplayOutcomeRecord { user, verdict_hash, outcome } in records {
        let o = outcome.borrow();
        for word in [
            *user,
            *verdict_hash,
            o.packets,
            o.energy_bits,
            o.switches,
            o.false_switches,
            o.missed_switches,
            o.decisions,
        ] {
            w.word(word)?;
        }
        w.word(o.delay_bits.len() as u64)?;
        for &bits in &o.delay_bits {
            w.word(bits)?;
        }
        w.word(o.load.len())?;
        w.word(o.load.as_bytes().len() as u64)?;
        w.bytes(o.load.as_bytes())?;
    }
    w.finish()
}

/// Reads a `.twr` file back into its header and outcome records.
///
/// The failure discipline matches [`read_request_streams`]: wrong
/// magic, unknown version (an older one included), oversized scheme
/// token, truncation anywhere, a load run that is not canonical or does
/// not hold its declared pair count ([`LoadDeltas::from_bytes`]),
/// trailing bytes, and checksum mismatch are all typed [`TraceError`]s,
/// never a panic, an unbounded allocation, or a silently wrong outcome.
pub fn read_replay_outcomes<R: Read>(
    input: R,
) -> Result<(ReplayCacheHeader, Vec<ReplayOutcomeRecord>), TraceError> {
    let mut r = SpillReader::new(&OUTCOME_FORMAT, input)?;
    let mut requests = RequestCacheHeader::read_fingerprint(&mut r)?;
    let signaling_hash = r.word("signaling hash", 0)?;
    requests.scheme = r.scheme()?;
    let count = r.word("record count", 0)? as usize;
    let mut records = Vec::with_capacity(count.min(1 << 24));
    for i in 0..count {
        let mut word = |what: &str| r.word(what, i);
        let user = word("user index")?;
        let verdict_hash = word("verdict hash")?;
        let mut outcome = ReplayOutcome {
            packets: word("packet count")?,
            energy_bits: word("energy bits")?,
            switches: word("switch count")?,
            false_switches: word("false-switch count")?,
            missed_switches: word("missed-switch count")?,
            decisions: word("decision count")?,
            ..ReplayOutcome::default()
        };
        let delays = word("delay count")? as usize;
        outcome.delay_bits.reserve(delays.min(1 << 24));
        for _ in 0..delays {
            outcome.delay_bits.push(word("delay bits")?);
        }
        let pairs = word("load pair count")?;
        let len = word("load byte length")?;
        let bytes = r.bytes(len, "load run", i)?;
        outcome.load = LoadDeltas::from_bytes(pairs, bytes).map_err(|e| match e {
            TraceError::Parse { location, message } => TraceError::Parse {
                location: i,
                message: format!("malformed load run at byte {location}: {message}"),
            },
            other => other,
        })?;
        records.push(ReplayOutcomeRecord { user, verdict_hash, outcome });
    }
    r.finish(count, "record")?;
    Ok((ReplayCacheHeader { requests, signaling_hash }, records))
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

    /// A SplitMix64 fold of an encoding's bytes, one byte per step: with
    /// the length beside it, enough to pin a format without spelling
    /// every byte out.
    fn fold_bytes(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0, |h, &b| crate::mix::splitmix64(h ^ b as u64))
    }

    #[test]
    fn binary_encoding_is_pinned() {
        // Pinned bytes: `.twt` files written by earlier releases must
        // keep loading, so a codec change may not move a single byte.
        let mut buf = Vec::new();
        write_binary(&sample_trace(), &mut buf).unwrap();
        assert_eq!((buf.len(), fold_bytes(&buf)), (71, 0x1c3c_c658_a619_8596));
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
                baseline_energy_bits: 2345.75f64.to_bits(),
                baseline_switches: 4,
            },
            // A user whose decisions never sent a request, yet scored.
            RequestStream {
                times: vec![],
                confusion: [0, 0, 17, 5],
                baseline_energy_bits: 0.5f64.to_bits(),
                baseline_switches: 0,
            },
            RequestStream {
                times: vec![
                    Instant::from_millis(4),
                    Instant::from_millis(4),
                    Instant::from_secs(100),
                ],
                confusion: [u64::MAX, 0, 1 << 40, 9],
                baseline_energy_bits: f64::MAX.to_bits(),
                baseline_switches: u64::MAX,
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
    fn twc_encoding_is_pinned() {
        // Pinned bytes: a spill directory written by an earlier release
        // must keep warm-starting, so a codec change may not move a byte.
        // Version 3, whose streams carry their user's baseline.
        let buf = sample_twc();
        assert_eq!((buf.len(), fold_bytes(&buf)), (274, 0xefbe_92bb_db91_72cd));
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
        // Version 1 stored no confusion counts, version 2 no baseline.
        for version in [1, 2] {
            let mut old = buf.clone();
            old[4] = version;
            assert!(matches!(
                read_request_streams(old.as_slice()),
                Err(TraceError::UnsupportedVersion(v)) if v == version as u16
            ));
        }
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
            ..RequestStream::default()
        }];
        let mut buf = Vec::new();
        let err = write_request_streams(&sample_header(1), &streams, &mut buf).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
    }

    #[test]
    fn twc_write_rejects_oversized_scheme_token() {
        let mut header = sample_header(0);
        header.scheme = "x".repeat(SCHEME_CAP + 1);
        let mut buf = Vec::new();
        assert!(write_request_streams(&header, &[], &mut buf).is_err());
    }

    // -------------------------------------------- replay memo (.twr) ----

    fn sample_outcome_header() -> ReplayCacheHeader {
        ReplayCacheHeader { requests: sample_header(3), signaling_hash: 0xA5A5_0000_1111_2222 }
    }

    fn sample_records() -> Vec<ReplayOutcomeRecord> {
        vec![
            ReplayOutcomeRecord {
                user: 0,
                verdict_hash: 0xDEAD_BEEF,
                outcome: ReplayOutcome {
                    packets: 412,
                    energy_bits: 1234.5f64.to_bits(),
                    switches: 9,
                    false_switches: 2,
                    missed_switches: 1,
                    decisions: 40,
                    delay_bits: vec![0.5f64.to_bits(), 1.25f64.to_bits()],
                    load: LoadDeltas::from_pairs([(-3, 28), (90, 5), (91, 6)]).unwrap(),
                },
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
    fn twr_encoding_is_pinned() {
        // Pinned bytes, for the same reason as the `.twc` pin: version 4,
        // whose records hold one load run each and name no cell.
        let buf = sample_twr();
        assert_eq!((buf.len(), fold_bytes(&buf)), (272, 0x3796_cfb6_f3ff_e49f));
    }

    #[test]
    fn twr_roundtrips_empty_record_set() {
        let mut buf = Vec::new();
        write_replay_outcomes::<_, ReplayOutcome>(&sample_outcome_header(), &[], &mut buf).unwrap();
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
        // Version 1 stored 24-byte triples, version 2 a baseline, and
        // version 3 one load run per cell.
        for version in [1, 2, 3] {
            let mut old = buf.clone();
            old[4] = version;
            assert!(matches!(
                read_replay_outcomes(old.as_slice()),
                Err(TraceError::UnsupportedVersion(v)) if v == version as u16
            ));
        }
    }

    /// A one-record `.twr` whose load fields are `pairs` and `bytes` as
    /// given, under a valid checksum: what a writer with a broken
    /// encoder would leave behind.
    fn twr_with_load(pairs: u64, bytes: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let header = sample_outcome_header();
        let mut w = SpillWriter::new(&OUTCOME_FORMAT, &mut buf).unwrap();
        header.requests.write_fingerprint(&mut w).unwrap();
        w.word(header.signaling_hash).unwrap();
        w.scheme(&header.requests.scheme).unwrap();
        w.word(1).unwrap();
        // Eight scalar words, no delays.
        for word in [0, 7, 1, 2, 3, 4, 5, 6, 0] {
            w.word(word).unwrap();
        }
        w.word(pairs).unwrap();
        w.word(bytes.len() as u64).unwrap();
        w.bytes(bytes).unwrap();
        w.finish().unwrap();
        buf
    }

    #[test]
    fn twr_rejects_malformed_load_runs_under_a_valid_checksum() {
        // The canonical run of (1, 2), (3, 4), (9, 1).
        let valid = [2, 2, 1, 4, 5, 1];
        let (_, records) = read_replay_outcomes(twr_with_load(3, &valid).as_slice()).unwrap();
        assert_eq!(records[0].outcome.load.to_pairs(), [(1, 2), (3, 4), (9, 1)]);
        let cases: [(&str, Vec<u8>, u64); 5] = [
            ("truncated", valid[..5].to_vec(), 3),
            ("padding byte", [&[0x82, 0][..], &valid[1..]].concat(), 3),
            ("overflows 64 bits", [&[0xFF; 9][..], &[2], &valid[1..]].concat(), 3),
            ("eleven bytes", [&[0x80; 10][..], &[1], &valid[1..]].concat(), 3),
            ("count mismatch", valid.to_vec(), 2),
        ];
        for (what, bytes, pairs) in cases {
            match read_replay_outcomes(twr_with_load(pairs, &bytes).as_slice()) {
                Err(TraceError::Parse { location: 0, message }) => {
                    assert!(message.starts_with("malformed load run"), "{what}: {message}");
                }
                other => panic!("{what}: read back as {other:?}"),
            }
        }
        // A byte length past the end of the file is a truncation, read
        // without allocating the declared length.
        let mut huge = twr_with_load(3, &valid);
        let at = huge.len() - 8 - valid.len() - 8;
        huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_replay_outcomes(huge.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated load run"), "{err}");
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
        header.requests.scheme = "x".repeat(SCHEME_CAP + 1);
        let mut buf = Vec::new();
        assert!(write_replay_outcomes::<_, ReplayOutcome>(&header, &[], &mut buf).is_err());
    }
}
