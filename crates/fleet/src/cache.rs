//! Phase-1 request caching across sweep cells.
//!
//! An admission or scheme sweep re-runs the same population against a
//! different policy per cell, but the two-pass topology runner's phase 1
//! ([`Scheme::request_trace`](tailwise_core::schemes::Scheme::request_trace))
//! is a pure function of `(population, scheme)` — it never sees the
//! admission axis. A [`RequestCache`] exploits that: the first cell pays
//! the extraction pass and every later cell replays the stored request
//! streams, so an N-cell sweep costs one extraction plus N cheap
//! replays. Each user's stream carries the `(energy, switches)` summary
//! of their status-quo run, the baseline pass 2 scores them against, so
//! a hit serves that too.
//!
//! ## Keys and records
//!
//! The cache keys on its spill headers and holds the records its spill
//! files store. A population's [`RequestCacheHeader`] is its
//! scheme-independent identity — master seed, user count, days, a hash
//! of the app/carrier mixes, and a hash of the behavior-relevant engine
//! knobs — plus the scheme token: the stream depends on the scheme's
//! idle policy. The stream store maps that header to the population's
//! [`RequestStream`]s, index-ordered, which a `.twc` spill writes and
//! reads as they are. Anything the header excludes (the admission
//! axes, the cell/RNC topology, mobility, shard size, thread count,
//! observation knobs) provably cannot change phase-1 output, which is
//! exactly what makes sweep cells share entries. Mobility in particular
//! is excluded *by decision, not omission*: phase 1 extracts each
//! user's request stream from their traffic alone, before any cell
//! membership is consulted — movement changes where a request is
//! adjudicated, never whether it is made — so a mobility sweep shares
//! one extraction pass exactly like an admission sweep (pinned by the
//! golden identity tests below). Spill files are named for a hash of
//! the identity fields and the scheme token.
//!
//! ## The replay memo
//!
//! Phase 1 is not the whole bill: across sweep cells the vast majority
//! of users receive *bit-identical* grant/deny verdict streams — only
//! users near a loaded cell or RNC flip. The cache therefore also
//! memoizes each user's phase-2 outcome, keyed on the population's
//! [`ReplayCacheHeader`] — its request header plus a topology hash — at
//! the population level and `(user index, verdict-stream hash)` per
//! user. A memo hit folds a stored [`ReplayOutcome`] (the user's
//! `(cell, second, msgs)` load deltas, as compact byte runs, included)
//! against the baseline its stream carries, instead of materializing
//! the trace and re-running the engine; a sweep cell pays only for the
//! users whose verdicts changed. The topology hash pins exactly the
//! facts the per-cell attribution depends on — cell count, mobility
//! model, signaling message weights — and deliberately excludes the RNC
//! shape and admission axes (verdicts already capture every admission
//! decision; RNC loads are derived from the cell loads at fold time),
//! which is what lets an admission sweep share one memo. Fresh outcomes
//! merge in memory; the run entry points write each memo the run
//! changed to its `.twr` spill once, as they return. Counters:
//! `replay_hits` / `replay_misses` per user (emitted only when a cache
//! is configured), `replay_spills` per `.twr` write, and
//! `replay_fallbacks` for untrusted files.
//!
//! ## Fallback contract
//!
//! The cache can be wrong about the disk but never about the answer.
//! Both spill kinds — `.twc` request streams and `.twr` replay
//! outcomes — load through one path: a missing file is a miss, and a
//! corrupt, truncated, or mismatched-header file (an older format
//! version included), one holding a user or cell outside the
//! population, or one whose load runs are malformed, is a *fallback* —
//! counted on the `cache_fallbacks` (resp. `replay_fallbacks`) counter,
//! recomputed, never trusted. Both spill through one write-then-rename
//! path, whose failures count on the same fallback counters. The
//! bit-identity harnesses in `tests/cache_fleet.rs` and
//! `tests/replay_fleet.rs` pin that a cached, spilled, reloaded, or
//! fallback run produces byte-identical reports.

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tailwise_obs::Obs;
use tailwise_radio::profile::{CarrierProfile, RadioTech};
use tailwise_trace::io::{
    read_replay_outcomes, read_request_streams, write_replay_outcomes, write_request_streams,
    ReplayCacheHeader, ReplayOutcome, ReplayOutcomeRecord, RequestCacheHeader, RequestStream,
};
use tailwise_trace::mix::{fold, fold_bytes};
use tailwise_trace::time::Instant;
use tailwise_trace::TraceError;

use crate::scenario::Scenario;
use crate::topology::NetworkTopology;

/// Folds a string unambiguously: its length, then its bytes.
fn fold_text(h: u64, text: &str) -> u64 {
    fold_bytes(fold(h, text.len() as u64), text.as_bytes())
}

/// Folds every behavior-relevant field of a carrier profile. Weights
/// and numeric fields hash by exact bit pattern: a cache key must
/// never conflate two profiles that simulate differently, however
/// close their numbers.
fn fold_carrier(mut h: u64, carrier: &CarrierProfile) -> u64 {
    h = fold_text(h, carrier.name);
    h = fold(
        h,
        match carrier.tech {
            RadioTech::ThreeG => 3,
            RadioTech::Lte => 4,
        },
    );
    for value in [
        carrier.p_send,
        carrier.p_recv,
        carrier.p_dch,
        carrier.p_fach,
        carrier.e_promote,
        carrier.e_demote_base,
        carrier.fd_energy_fraction,
    ] {
        h = fold(h, value.to_bits());
    }
    for duration in [carrier.t1, carrier.t2, carrier.promotion_delay] {
        h = fold(h, duration.as_micros() as u64);
    }
    h
}

/// The `.twc` header a synthetic scenario's request streams are stored
/// under: everything that feeds phase-1 request extraction — master
/// seed, user count, days (after the runner's ≥ 1 clamp), a hash over
/// the app and carrier mixes (weights included), a hash over the
/// behavior-relevant engine knobs (`intra_burst_gap`,
/// `window_capacity`; the record/limit knobs are observational) — and
/// the scheme that extracts them.
///
/// Two scenarios with equal identity fields synthesize bit-identical
/// users and traces; the excluded fields (admission policies, topology
/// shape, mobility, shard size) affect only adjudication and the fold,
/// never the per-user request streams. Golden tests below pin both
/// directions: identity-field changes miss, policy-axis changes hit.
pub(crate) fn request_header(scenario: &Scenario) -> RequestCacheHeader {
    let mut mix = 0xF1D0_0000_0000_0000u64;
    mix = fold(mix, scenario.app_mix.len() as u64);
    for (kind, weight) in &scenario.app_mix {
        mix = fold_text(mix, kind.token());
        mix = fold(mix, weight.to_bits());
    }
    mix = fold(mix, scenario.carrier_mix.len() as u64);
    for (carrier, weight) in &scenario.carrier_mix {
        mix = fold_carrier(mix, carrier);
        mix = fold(mix, weight.to_bits());
    }
    let mut sim = 0x51AB_0000_0000_0000u64;
    sim = fold(sim, scenario.sim.intra_burst_gap.as_micros() as u64);
    sim = fold(sim, scenario.sim.window_capacity as u64);
    RequestCacheHeader {
        master_seed: scenario.master_seed,
        users: scenario.users,
        days: scenario.days_per_user.max(1),
        mix_hash: mix,
        sim_hash: sim,
        scheme: scenario.scheme.to_string(),
    }
}

/// Collapses a header's identity fields — all but the scheme token — to
/// one well-mixed word, the spill file name stem. Equal identities
/// always collapse equally; the golden tests pin concrete values so the
/// on-disk naming cannot drift silently between releases.
fn stem(header: &RequestCacheHeader) -> u64 {
    let mut h = 0x7A11_0000_0000_0000u64;
    h = fold(h, header.master_seed);
    h = fold(h, header.users);
    h = fold(h, header.days as u64);
    h = fold(h, header.mix_hash);
    h = fold(h, header.sim_hash);
    h
}

/// Hashes a user's grant/deny verdict stream to the per-user memo key:
/// length first, then the verdicts packed LSB-first into 64-bit words,
/// folded through the same SplitMix64 avalanche as every other key in
/// the cache. Equal streams always hash equally; a 64-bit accidental
/// collision is negligible against the population sizes swept here.
pub(crate) fn verdict_hash(verdicts: &[bool]) -> u64 {
    let mut h = 0x5C21_97ED_0000_0000u64;
    h = fold(h, verdicts.len() as u64);
    for chunk in verdicts.chunks(64) {
        let mut word = 0u64;
        for (bit, &granted) in chunk.iter().enumerate() {
            word |= (granted as u64) << bit;
        }
        h = fold(h, word);
    }
    h
}

/// Hashes the topology facts a memoized per-user `(cell, second,
/// msgs)` attribution depends on: the cell count (the assignment
/// modulus), the mobility model (which cell a mobile user occupies at
/// each instant), and the five per-transition signaling weights.
///
/// Deliberately excluded: the RNC count (cell→RNC grouping happens at
/// fold time, after the memo), the admission policies and budgets
/// (verdicts already capture every admission decision; budgets only
/// score the folded loads), and `per_handoff` (handoff messages are
/// charged at adjudication time every run, never memoized).
pub(crate) fn topo_hash(topology: &NetworkTopology) -> u64 {
    let mut h = 0x70B0_10CA_0000_0000u64;
    h = fold(h, topology.cells);
    h = fold_text(h, &topology.mobility.to_string());
    let s = &topology.signaling;
    for weight in [
        s.per_promotion,
        s.per_fach_promotion,
        s.per_t1_demotion,
        s.per_timer_demotion,
        s.per_fd_demotion,
    ] {
        h = fold(h, weight as u64);
    }
    h
}

/// Per-user phase-1 records, index-ordered (`streams[i]` is user `i`'s
/// request stream and status-quo baseline) — exactly the streams of
/// the population's `.twc` file.
type Streams = Arc<Vec<RequestStream>>;

/// Memoized replay outcomes for one population on one topology, keyed
/// by `(user index, verdict hash)` — exactly the records of its `.twr`
/// file.
type Outcomes = Arc<HashMap<(u64, u64), ReplayOutcome>>;

/// One population's replay memo, and whether it holds outcomes its
/// `.twr` spill does not.
#[derive(Debug, Default)]
struct Memo {
    outcomes: Outcomes,
    unspilled: bool,
}

/// The one load path both spill kinds share. A missing file is a plain
/// miss: `None`, nothing counted. A file that cannot be opened or read,
/// announces any header but `expected`, or holds an item `trusted`
/// rejects is one count on `fallback`, and also `None` — the caller
/// recomputes, so a rotten file can cost time but never correctness.
fn load_spill<H: PartialEq, T>(
    path: &Path,
    read: impl FnOnce(File) -> Result<(H, Vec<T>), TraceError>,
    expected: &H,
    trusted: impl Fn(&T) -> bool,
    fallback: &'static str,
    obs: Obs<'_>,
) -> Option<Vec<T>> {
    let loaded = match File::open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        opened => opened.map_err(TraceError::from).and_then(read),
    };
    match loaded {
        Ok((header, items)) if header == *expected && items.iter().all(trusted) => Some(items),
        _ => {
            obs.recorder.counter(fallback).incr();
            None
        }
    }
}

/// The one spill path both kinds share: `write` fills a tmp file that
/// is then renamed over `path`, so a concurrent reader (or a crash) can
/// only ever observe a complete file — and even a torn rename is caught
/// by the reader's checksum. Success counts on `spilled`. A failure
/// removes the tmp file, counts on `fallback`, and is otherwise
/// swallowed: a read-only or full disk degrades the cache, never the
/// run.
fn spill(
    path: &Path,
    write: impl FnOnce(File) -> Result<(), TraceError>,
    spilled: &'static str,
    fallback: &'static str,
    obs: Obs<'_>,
) {
    // The tmp name carries a process-wide sequence number on top of
    // the pid: two threads in one process storing the same key must
    // not interleave writes into a shared tmp file.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}-{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp)
        .map_err(TraceError::from)
        .and_then(write)
        .and_then(|()| Ok(std::fs::rename(&tmp, path)?));
    match written {
        Ok(()) => obs.recorder.counter(spilled).incr(),
        Err(_) => {
            std::fs::remove_file(&tmp).ok();
            obs.recorder.counter(fallback).incr();
        }
    }
}

/// What one store of a [`RequestCache`] holds: its per-user entries,
/// and the heap bytes they occupy (allocated capacity, not length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSize {
    /// Per-user items held: request streams or memoized outcomes.
    pub entries: u64,
    /// Heap bytes allocated for them.
    pub bytes: u64,
}

/// The sizes of a [`RequestCache`]'s two stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSizes {
    /// Phase-1 request streams, baselines included.
    pub streams: StoreSize,
    /// The replay memo's outcomes.
    pub memo: StoreSize,
}

impl CacheSizes {
    /// Sets one gauge per store and measure: `cache_stream_entries`,
    /// `cache_stream_bytes`, `cache_memo_entries` and
    /// `cache_memo_bytes`.
    pub fn record(&self, recorder: &dyn tailwise_obs::Recorder) {
        for (name, value) in [
            ("cache_stream_entries", self.streams.entries),
            ("cache_stream_bytes", self.streams.bytes),
            ("cache_memo_entries", self.memo.entries),
            ("cache_memo_bytes", self.memo.bytes),
        ] {
            recorder.gauge(name, value);
        }
    }
}

/// A phase-1 request cache, plus the phase-2 replay memo, shared across
/// fleet runs.
///
/// Always holds in-memory maps; optionally spills request streams to a
/// directory as `.twc` files and replay outcomes as `.twr` files, so
/// later *processes* can warm-start too (the CLI's `--cache <dir>`).
/// All methods take `&self` and are thread-safe; clones of the stored
/// `Arc`s are handed out, so a hit never copies the streams.
#[derive(Debug, Default)]
pub struct RequestCache {
    dir: Option<PathBuf>,
    streams: Mutex<HashMap<RequestCacheHeader, Streams>>,
    memos: Mutex<HashMap<ReplayCacheHeader, Memo>>,
}

impl RequestCache {
    /// A purely in-memory cache (the default for sweeps: first cell
    /// extracts, later cells replay, nothing persists).
    pub fn in_memory() -> RequestCache {
        RequestCache::default()
    }

    /// A cache that additionally spills request streams (`.twc`) and
    /// replay outcomes (`.twr`) to `dir` and warm-starts from files
    /// already there. Creates the directory if needed.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<RequestCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RequestCache { dir: Some(dir), ..RequestCache::default() })
    }

    /// The spill directory, when this cache has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// What each store holds now, in entries and heap bytes.
    pub fn sizes(&self) -> CacheSizes {
        use std::mem::size_of;
        let mut sizes = CacheSizes::default();
        for streams in self.streams.lock().expect("request cache map").values() {
            sizes.streams.entries += streams.len() as u64;
            let times: usize =
                streams.iter().map(|s| s.times.capacity() * size_of::<Instant>()).sum();
            sizes.streams.bytes += (streams.capacity() * size_of::<RequestStream>() + times) as u64;
        }
        for memo in self.memos.lock().expect("replay memo map").values() {
            let outcomes = &memo.outcomes;
            sizes.memo.entries += outcomes.len() as u64;
            let held: usize = outcomes
                .values()
                .map(|o| o.delay_bits.capacity() * size_of::<u64>() + o.load.as_bytes().len())
                .sum();
            let slots = outcomes.capacity() * size_of::<((u64, u64), ReplayOutcome)>();
            sizes.memo.bytes += (slots + held) as u64;
        }
        sizes
    }

    /// The spill file for a population's request header, ending in
    /// `suffix`: the identity stem, then the scheme token (filename-safe
    /// by construction).
    fn spill_path(&self, header: &RequestCacheHeader, suffix: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{:016x}-{}{suffix}", stem(header), header.scheme)))
    }

    /// The `.twr` spill file of a memo.
    fn memo_path(&self, header: &ReplayCacheHeader) -> Option<PathBuf> {
        self.spill_path(&header.requests, &format!("-{:016x}.twr", header.topo_hash))
    }

    /// Looks up the request streams stored under `header`: memory
    /// first, then the `.twc` spill. Counts exactly one of
    /// `cache_hits` / `cache_misses` per call, plus `cache_fallbacks`
    /// when an on-disk file existed but could not be trusted.
    pub(crate) fn lookup(&self, header: &RequestCacheHeader, obs: Obs<'_>) -> Option<Streams> {
        let hit = self.streams.lock().expect("request cache map").get(header).map(Arc::clone);
        let hit = hit.or_else(|| {
            let path = self.spill_path(header, ".twc")?;
            let loaded =
                load_spill(&path, read_request_streams, header, |_| true, "cache_fallbacks", obs)?;
            let streams = Arc::new(loaded);
            self.streams
                .lock()
                .expect("request cache map")
                .insert(header.clone(), Arc::clone(&streams));
            Some(streams)
        });
        obs.recorder.counter(if hit.is_some() { "cache_hits" } else { "cache_misses" }).incr();
        hit
    }

    /// Stores freshly extracted request streams under `header`,
    /// spilling them to `.twc` as they are when a directory is
    /// configured.
    pub(crate) fn store(&self, header: &RequestCacheHeader, streams: Streams, obs: Obs<'_>) {
        debug_assert_eq!(
            streams.len() as u64,
            header.users,
            "stream count must match the header's population"
        );
        self.streams
            .lock()
            .expect("request cache map")
            .insert(header.clone(), Arc::clone(&streams));
        let Some(path) = self.spill_path(header, ".twc") else { return };
        let write = |file| write_request_streams(header, &streams, file);
        spill(&path, write, "cache_spills", "cache_fallbacks", obs);
    }

    /// Looks up the memoized replay outcomes stored under `header`, for
    /// a topology of `cells` cells: memory first, then the `.twr`
    /// spill. Always returns a map (possibly empty) — per-user hit/miss
    /// accounting happens at the replay loop, where the verdict hashes
    /// are known. An on-disk file that cannot be trusted counts one
    /// `replay_fallbacks` and is ignored; the run recomputes, and the
    /// memo's next write repairs it.
    pub(crate) fn lookup_outcomes(
        &self,
        header: &ReplayCacheHeader,
        cells: u64,
        obs: Obs<'_>,
    ) -> Outcomes {
        if let Some(memo) = self.memos.lock().expect("replay memo map").get(header) {
            return Arc::clone(&memo.outcomes);
        }
        // The fold indexes its per-cell loads with the stored cells, so
        // a user or cell outside the population makes the file
        // untrusted. The reader has already checked that the load runs
        // are canonical, hence strictly ascending by `(cell, second)`.
        let trusted = |r: &ReplayOutcomeRecord| {
            r.user < header.requests.users && r.outcome.load.runs().all(|run| run.cell < cells)
        };
        let loaded = self.memo_path(header).and_then(|path| {
            load_spill(&path, read_replay_outcomes, header, trusted, "replay_fallbacks", obs)
        });
        let Some(records) = loaded else { return Arc::new(HashMap::new()) };
        let outcomes: Outcomes =
            Arc::new(records.into_iter().map(|r| ((r.user, r.verdict_hash), r.outcome)).collect());
        let memo = Memo { outcomes: Arc::clone(&outcomes), unspilled: false };
        self.memos.lock().expect("replay memo map").insert(header.clone(), memo);
        outcomes
    }

    /// Merges freshly computed replay outcomes into the memo stored
    /// under `header`, in memory only: [`write_memos`](Self::write_memos)
    /// spills it. Nothing fresh is a no-op.
    ///
    /// The memo grows in place: when the caller has dropped the handle
    /// [`lookup_outcomes`](Self::lookup_outcomes) gave it, the cache
    /// holds the only one and nothing is copied (a handle still held
    /// elsewhere keeps its snapshot, copy-on-write).
    pub(crate) fn store_outcomes(
        &self,
        header: ReplayCacheHeader,
        fresh: Vec<((u64, u64), ReplayOutcome)>,
    ) {
        if fresh.is_empty() {
            return;
        }
        let mut memos = self.memos.lock().expect("replay memo map");
        let memo = memos.entry(header).or_default();
        Arc::make_mut(&mut memo.outcomes).extend(fresh);
        memo.unspilled = true;
    }

    /// Writes every memo that holds outcomes its `.twr` file does not,
    /// each as one spill of its whole merged map, when a directory is
    /// configured. A memo nothing was merged into since it was loaded
    /// or last written is left untouched, byte for byte. The run entry
    /// points call this once as they return, however the run ends, so a
    /// sweep writes each memo it changed once, however many of its
    /// cells replayed anyone.
    pub(crate) fn write_memos(&self, obs: Obs<'_>) {
        let unspilled: Vec<(PathBuf, ReplayCacheHeader, Outcomes)> = self
            .memos
            .lock()
            .expect("replay memo map")
            .iter_mut()
            .filter(|(_, memo)| memo.unspilled)
            .filter_map(|(header, memo)| {
                let path = self.memo_path(header)?;
                memo.unspilled = false;
                Some((path, header.clone(), Arc::clone(&memo.outcomes)))
            })
            .collect();
        for (path, header, outcomes) in unspilled {
            // Records sorted by key: equal memos spill equal bytes. The
            // spill borrows the memo's outcomes.
            let mut records: Vec<ReplayOutcomeRecord<&ReplayOutcome>> = outcomes
                .iter()
                .map(|(&(user, verdict_hash), outcome)| ReplayOutcomeRecord {
                    user,
                    verdict_hash,
                    outcome,
                })
                .collect();
            records.sort_unstable_by_key(|r| (r.user, r.verdict_hash));
            let write = |file| write_replay_outcomes(&header, &records, file);
            spill(&path, write, "replay_spills", "replay_fallbacks", obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_core::schemes::Scheme;
    use tailwise_obs::{Obs, Recorder as _};
    use tailwise_workload::apps::AppKind;

    /// Request streams with a distinct confusion matrix and baseline per
    /// user, so a spill round trip that lost or shuffled them would show.
    fn streams_of(per_user: Vec<Vec<Instant>>) -> Streams {
        let users = per_user.into_iter().enumerate().map(|(i, times)| {
            let i = i as u64;
            RequestStream {
                times,
                confusion: [i + 1, 2 * i, 40 + i, 7],
                baseline_energy_bits: (1.5 + i as f64).to_bits(),
                baseline_switches: 3 * i + 1,
            }
        });
        Arc::new(users.collect())
    }

    /// The `rnc_storm.toml` population in miniature — the golden
    /// identity subject.
    fn storm_like() -> Scenario {
        let mut s = Scenario::new(600, Scheme::MakeIdle, CarrierProfile::verizon_lte());
        s.master_seed = 2012;
        s.shard_size = 32;
        s.app_mix = vec![(AppKind::Im, 3.0), (AppKind::Email, 2.0)];
        s.cells = Some(crate::topology::NetworkTopology::with_rncs(3, 12));
        s
    }

    /// The request header of `storm_like()` cut to `users` users.
    fn tiny_header(users: u64) -> RequestCacheHeader {
        let mut tiny = storm_like();
        tiny.users = users;
        request_header(&tiny)
    }

    #[test]
    fn identity_changes_miss_and_policy_changes_hit() {
        let base = request_header(&storm_like());

        // Identity fields: each change must invalidate.
        let mut reseeded = storm_like();
        reseeded.master_seed = 2013;
        assert_ne!(request_header(&reseeded), base, "master seed must invalidate");

        let mut resized = storm_like();
        resized.users = 601;
        assert_ne!(request_header(&resized), base, "user count must invalidate");

        let mut remixed = storm_like();
        remixed.app_mix = vec![(AppKind::Im, 3.0), (AppKind::Email, 2.5)];
        assert_ne!(request_header(&remixed), base, "app mix must invalidate");

        let mut recarriered = storm_like();
        recarriered.carrier_mix = vec![(CarrierProfile::att_hspa(), 1.0)];
        assert_ne!(request_header(&recarriered), base, "carrier mix must invalidate");

        let mut longer = storm_like();
        longer.days_per_user = 2;
        assert_ne!(request_header(&longer), base, "day count must invalidate");

        // The scheme keys the extraction, never the population: it
        // changes the scheme token alone, and the spill stem not at all.
        let mut reschemed = storm_like();
        reschemed.scheme = Scheme::FixedTail45;
        let header = request_header(&reschemed);
        assert_eq!(header.scheme, "tail45");
        assert_eq!(stem(&header), stem(&base), "scheme axis must not move the population");
        assert_eq!(RequestCacheHeader { scheme: base.scheme.clone(), ..header }, base);

        // Policy axes: sweeping them must NOT invalidate — that reuse
        // is the whole point of the cache.
        let mut readmitted = storm_like();
        readmitted.cells.as_mut().unwrap().rnc_admission =
            crate::admission::AdmissionSpec::LoadReactive { watermark_per_s: 50, window_s: 5 };
        assert_eq!(request_header(&readmitted), base, "admission axis must not invalidate");

        let mut resharded = storm_like();
        resharded.shard_size = 64;
        assert_eq!(request_header(&resharded), base, "shard size must not invalidate");

        // Mobility is a topology axis: it moves requests between cells
        // but never changes which requests exist, so a mobility sweep
        // must share the static run's extraction pass.
        let mut commuted = storm_like();
        commuted.cells.as_mut().unwrap().mobility = crate::mobility::MobilitySpec::commute();
        assert_eq!(request_header(&commuted), base, "mobility axis must not invalidate");
    }

    #[test]
    fn golden_fingerprint_hash_values_are_pinned() {
        // Pinned literals: the on-disk `.twc` naming contract. If a
        // deliberate hashing change lands, re-pin these — silently
        // drifting values would orphan every existing spill directory.
        assert_eq!(stem(&request_header(&storm_like())), 0x7defa3bb02aa2399);
        let mut reseeded = storm_like();
        reseeded.master_seed = 1;
        assert_eq!(stem(&request_header(&reseeded)), 0x66c706f38c02825a);
    }

    #[test]
    fn day_clamp_is_fingerprint_visible() {
        // days_per_user 0 and 1 synthesize the same population (the
        // runner clamps to ≥ 1), so they must share a header.
        let mut zero = storm_like();
        zero.days_per_user = 0;
        assert_eq!(request_header(&zero), request_header(&storm_like()));
    }

    #[test]
    fn memory_cache_round_trips_and_counts() {
        let cache = RequestCache::in_memory();
        let header = tiny_header(3);
        let obs = Obs::none();
        assert!(cache.lookup(&header, obs).is_none());
        let streams: Streams =
            streams_of(vec![vec![Instant::from_secs(1)], vec![], vec![Instant::from_secs(2)]]);
        cache.store(&header, Arc::clone(&streams), obs);
        assert_eq!(cache.lookup(&header, obs).as_deref(), Some(&*streams));
        // A different scheme is a different entry.
        let tail45 = RequestCacheHeader { scheme: "tail45".into(), ..header };
        assert!(cache.lookup(&tail45, obs).is_none());
    }

    #[test]
    fn disk_cache_spills_and_warm_starts() {
        let dir = std::env::temp_dir().join(format!("tailwise-cache-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // The spill header claims the population's user count, so the
        // stream vector must match it — two users here.
        let header = tiny_header(2);
        let streams = streams_of(vec![vec![Instant::ZERO, Instant::from_secs(3)], vec![]]);

        let writer = RequestCache::with_dir(&dir).unwrap();
        writer.store(&header, Arc::clone(&streams), Obs::none());
        let spilled = dir.join(format!("{:016x}-makeidle.twc", stem(&header)));
        assert!(spilled.is_file(), "missing spill file {}", spilled.display());

        // A fresh cache (fresh process, conceptually) warm-starts from
        // the spill file alone.
        let reader = RequestCache::with_dir(&dir).unwrap();
        assert_eq!(reader.lookup(&header, Obs::none()).as_deref(), Some(&*streams));

        // Corrupt the file: a third cache must fall back cleanly.
        let mut bytes = std::fs::read(&spilled).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&spilled, &bytes).unwrap();
        let fallback = RequestCache::with_dir(&dir).unwrap();
        assert!(fallback.lookup(&header, Obs::none()).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_stores_of_one_key_never_corrupt_the_spill() {
        // Regression: the spill tmp filename used to be pid-only, so
        // two threads in one process storing the same header
        // interleaved writes into a single tmp file — a corrupt spill
        // surfacing later as silent cache_fallbacks.
        let dir = std::env::temp_dir().join(format!("tailwise-cache-race-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let header = tiny_header(2);
        let streams = streams_of(vec![vec![Instant::ZERO, Instant::from_secs(7)], vec![]]);

        let recorder = tailwise_obs::StatsRecorder::new();
        for _round in 0..4 {
            let writer = RequestCache::with_dir(&dir).unwrap();
            std::thread::scope(|scope| {
                for _thread in 0..8 {
                    let writer = &writer;
                    let header = &header;
                    let streams = Arc::clone(&streams);
                    let recorder = &recorder;
                    scope.spawn(move || {
                        let obs = Obs { recorder, progress: None };
                        writer.store(header, streams, obs);
                    });
                }
            });
        }

        // Every store spilled cleanly: no interleaved tmp writes, no
        // swallowed spill failures, no stray tmp litter.
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("cache_fallbacks"), 0, "some store fell back");
        assert_eq!(snapshot.counter("cache_spills"), 32, "every store must spill");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| !name.ends_with(".twc"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");

        // A fresh cache (conceptually a fresh process) warm-reads the
        // final file with a hit and zero fallbacks.
        let read_recorder = tailwise_obs::StatsRecorder::new();
        let read_obs = Obs { recorder: &read_recorder, progress: None };
        let reader = RequestCache::with_dir(&dir).unwrap();
        assert_eq!(reader.lookup(&header, read_obs).as_deref(), Some(&*streams));
        let read_snapshot = read_recorder.snapshot();
        assert_eq!(read_snapshot.counter("cache_hits"), 1);
        assert_eq!(read_snapshot.counter("cache_fallbacks"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_entry(energy: f64, triples: Vec<(u64, i64, u64)>) -> ReplayOutcome {
        ReplayOutcome {
            packets: 100,
            energy_bits: energy.to_bits(),
            switches: 5,
            false_switches: 1,
            missed_switches: 2,
            decisions: 20,
            delay_bits: vec![0.25f64.to_bits()],
            load: tailwise_trace::load::LoadDeltas::from_triples(triples).unwrap(),
        }
    }

    #[test]
    fn verdict_hash_separates_streams_and_packs_beyond_one_word() {
        assert_eq!(verdict_hash(&[]), verdict_hash(&[]));
        assert_ne!(verdict_hash(&[]), verdict_hash(&[true]));
        assert_ne!(verdict_hash(&[true]), verdict_hash(&[false]));
        assert_ne!(verdict_hash(&[true, false]), verdict_hash(&[false, true]));
        // Length is folded first: a trailing deny is not a no-op.
        assert_ne!(verdict_hash(&[true]), verdict_hash(&[true, false]));
        // Streams longer than one packing word stay order-sensitive.
        let mut long = vec![true; 130];
        let base = verdict_hash(&long);
        long[129] = false;
        assert_ne!(verdict_hash(&long), base);
        long[129] = true;
        assert_eq!(verdict_hash(&long), base);
    }

    #[test]
    fn topo_hash_pins_attribution_facts_and_ignores_admission_axes() {
        let base = crate::topology::NetworkTopology::with_rncs(3, 12);
        let h = topo_hash(&base);

        // The facts the per-user (cell, second) attribution depends on
        // must invalidate…
        let mut recelled = crate::topology::NetworkTopology::with_rncs(3, 13);
        recelled.rncs = 3;
        assert_ne!(topo_hash(&recelled), h, "cell count must invalidate");
        let mut moved = base.clone();
        moved.mobility = crate::mobility::MobilitySpec::commute();
        assert_ne!(topo_hash(&moved), h, "mobility must invalidate");
        let mut reweighted = base.clone();
        reweighted.signaling.per_promotion += 1;
        assert_ne!(topo_hash(&reweighted), h, "signaling weights must invalidate");

        // …while the axes an admission sweep moves must not: that reuse
        // is the whole point of the memo.
        let mut readmitted = base.clone();
        readmitted.rnc_admission =
            crate::admission::AdmissionSpec::LoadReactive { watermark_per_s: 50, window_s: 5 };
        assert_eq!(topo_hash(&readmitted), h, "admission axis must not invalidate");
        let mut regrouped = base.clone();
        regrouped.rncs = 4;
        assert_eq!(topo_hash(&regrouped), h, "RNC grouping must not invalidate");
        let mut rebudgeted = base.clone();
        rebudgeted.cell_budget = tailwise_radio::SignalingBudget::per_second(7);
        assert_eq!(topo_hash(&rebudgeted), h, "budgets must not invalidate");
        let mut rehandoffed = base.clone();
        rehandoffed.signaling.per_handoff += 1;
        assert_eq!(topo_hash(&rehandoffed), h, "per_handoff is charged at adjudication");
    }

    #[test]
    fn replay_memo_round_trips_in_memory_and_on_disk() {
        let dir = std::env::temp_dir().join(format!("tailwise-memo-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let topology = storm_like().cells.unwrap();
        let header =
            ReplayCacheHeader { requests: tiny_header(2), topo_hash: topo_hash(&topology) };
        let recorder = tailwise_obs::StatsRecorder::new();
        let obs = Obs { recorder: &recorder, progress: None };

        let cache = RequestCache::with_dir(&dir).unwrap();
        assert!(cache.lookup_outcomes(&header, topology.cells, obs).is_empty());
        // Storing nothing fresh must not create a spill file.
        cache.store_outcomes(header.clone(), Vec::new());
        cache.write_memos(obs);
        let spill = dir.join(format!(
            "{:016x}-makeidle-{:016x}.twr",
            stem(&header.requests),
            header.topo_hash
        ));
        assert!(!spill.exists(), "empty store must not spill");

        let fresh = vec![
            ((0u64, 11u64), sample_entry(10.0, vec![(0, 5, 28), (1, 9, 3)])),
            ((1u64, 22u64), sample_entry(20.0, vec![])),
        ];
        cache.store_outcomes(header.clone(), fresh.clone());
        // A store merges in memory; the write step spills, once.
        assert!(!spill.exists(), "a store must leave the spill to the write step");
        cache.write_memos(obs);
        cache.write_memos(obs);
        assert!(spill.is_file(), "missing spill file {}", spill.display());
        assert_eq!(recorder.snapshot().counter("replay_spills"), 1, "one write per change");
        let served = cache.lookup_outcomes(&header, topology.cells, obs);
        assert_eq!(served.len(), 2);
        assert_eq!(served.get(&(0, 11)), Some(&fresh[0].1));

        // A fresh cache (fresh process, conceptually) warm-starts from
        // the `.twr` file alone; a later merge keeps prior entries.
        let warm = RequestCache::with_dir(&dir).unwrap();
        let served = warm.lookup_outcomes(&header, topology.cells, obs);
        assert_eq!(served.len(), 2);
        assert_eq!(served.get(&(1, 22)), Some(&fresh[1].1));
        warm.store_outcomes(
            header.clone(),
            vec![((1u64, 33u64), sample_entry(30.0, vec![(0, 1, 1)]))],
        );
        let served = warm.lookup_outcomes(&header, topology.cells, obs);
        assert_eq!(served.len(), 3, "merge must keep prior entries");

        // A different topology hash is a different memo entirely.
        let mut reweighted = topology.clone();
        reweighted.signaling.per_promotion += 1;
        let other = ReplayCacheHeader { topo_hash: topo_hash(&reweighted), ..header.clone() };
        assert!(warm.lookup_outcomes(&other, reweighted.cells, obs).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_replay_spills_fall_back_and_count() {
        let dir = std::env::temp_dir().join(format!("tailwise-memo-bad-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let topology = storm_like().cells.unwrap();
        let header =
            ReplayCacheHeader { requests: tiny_header(1), topo_hash: topo_hash(&topology) };
        let seeder = RequestCache::with_dir(&dir).unwrap();
        seeder.store_outcomes(
            header.clone(),
            vec![((0u64, 7u64), sample_entry(1.5, vec![(0, 0, 4)]))],
        );
        seeder.write_memos(Obs::none());
        let spill = dir.join(format!(
            "{:016x}-makeidle-{:016x}.twr",
            stem(&header.requests),
            header.topo_hash
        ));
        let pristine = std::fs::read(&spill).unwrap();
        std::fs::write(&spill, &pristine[..pristine.len() - 3]).unwrap();

        let recorder = tailwise_obs::StatsRecorder::new();
        let obs = Obs { recorder: &recorder, progress: None };
        let reader = RequestCache::with_dir(&dir).unwrap();
        assert!(reader.lookup_outcomes(&header, topology.cells, obs).is_empty());
        assert_eq!(recorder.snapshot().counter("replay_fallbacks"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fractional_iat_scheme_token_survives_the_spill_filename() {
        // `iat92.5` round-trips Display → FromStr …
        let scheme = Scheme::PercentileIat(0.925);
        let token = scheme.to_string();
        assert_eq!(token, "iat92.5");
        assert_eq!(token.parse::<Scheme>().unwrap(), scheme);

        // … and the dot inside the token survives path_for → warm
        // lookup (with_extension-style suffix surgery on the tmp file
        // must not eat the token's fractional part).
        let dir = std::env::temp_dir().join(format!("tailwise-cache-frac-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut tiny = storm_like();
        tiny.users = 1;
        tiny.scheme = scheme;
        let header = request_header(&tiny);
        assert_eq!(header.scheme, token);
        let streams = streams_of(vec![vec![Instant::from_secs(11)]]);
        let writer = RequestCache::with_dir(&dir).unwrap();
        writer.store(&header, Arc::clone(&streams), Obs::none());
        let spilled = dir.join(format!("{:016x}-iat92.5.twc", stem(&header)));
        assert!(spilled.is_file(), "missing spill file {}", spilled.display());

        let read_recorder = tailwise_obs::StatsRecorder::new();
        let read_obs = Obs { recorder: &read_recorder, progress: None };
        let reader = RequestCache::with_dir(&dir).unwrap();
        assert_eq!(reader.lookup(&header, read_obs).as_deref(), Some(&*streams));
        assert_eq!(read_recorder.snapshot().counter("cache_hits"), 1);
        assert_eq!(read_recorder.snapshot().counter("cache_fallbacks"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
