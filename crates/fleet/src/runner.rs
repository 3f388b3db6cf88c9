//! Sharded, multi-threaded fleet execution over any [`UserSource`].
//!
//! Every run reaches its users through one seam, the crate-private
//! `Population`: synthetic users are generated from a [`Scenario`],
//! corpus users are loaded from a resolved trace-file walk, and nothing
//! else in the runner knows which. The population is partitioned into
//! fixed shards of `shard_size` users. Worker threads claim shards from
//! an atomic cursor (work stealing keeps long shards from serializing
//! the run), and each worker streams its shard
//! materialize→simulate→discard: one user's trace is generated or
//! loaded, pushed through the scheme under test and the status-quo
//! baseline, folded into the shard's partial [`FleetReport`], and
//! dropped before the next user is touched. Peak memory is one trace per
//! worker thread plus O(threads) buffered shard partials at the merge
//! frontier — independent of population (and corpus) size. Populations
//! with a cell topology take the two-pass runner in
//! [`crate::topology`] instead of the radio-isolated fold, over the same
//! seam and the same sharded core.
//!
//! Entry points: [`run`] is the infallible synthetic shortcut;
//! [`run_source`] runs any source under an [`Obs`] handle with an
//! optional phase-1 [`RequestCache`]; the sweep entry points live in
//! [`crate::sweep`].
//!
//! Determinism: which thread simulates a shard never matters. Synthetic
//! user synthesis is a pure function of `(scenario, user index)`
//! ([hierarchical seeding](crate::scenario::user_seed)); a corpus's
//! index→file assignment is fixed by its deterministic sorted walk.
//! Folds happen in user order within each shard, and shard partials
//! merge in shard-index order at a streaming frontier — fixing the
//! floating-point reduction tree, so the same source yields a
//! bit-identical report at any thread count. Corpus runs are
//! additionally fallible (disk contents can rot); on the first
//! unreadable trace the run aborts with a positioned error instead of a
//! report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use tailwise_core::schemes::Scheme;
use tailwise_obs::{span, Counter, Obs, ProgressSlot, Recorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_scenfile::ScenError;
use tailwise_sim::engine::SimConfig;
use tailwise_trace::corpus::Corpus;
use tailwise_trace::io::RequestCacheHeader;
use tailwise_trace::Trace;

use crate::cache::{request_header, RequestCache};
use crate::report::{FleetReport, RunTimings};
use crate::scenario::{draw_carrier, Scenario};
use crate::source::{CorpusScenario, UserSource};
use crate::topology::NetworkTopology;

/// A per-shard result the sharded core can fold in shard order.
///
/// The absorb order is fixed (strictly ascending shard index), so any
/// implementation whose `absorb` is deterministic — float folds
/// included — yields a bit-identical total at any thread count.
pub(crate) trait Partial: Send {
    /// Folds `other` (the next shard, in shard order) into `self`.
    fn absorb(&mut self, other: Self);
}

impl Partial for FleetReport {
    fn absorb(&mut self, other: FleetReport) {
        self.merge(&other);
    }
}

/// Shards that only have side effects (`synth_corpus` writing trace
/// files) fold nothing.
impl Partial for () {
    fn absorb(&mut self, _: ()) {}
}

/// Ordered accumulation: concatenating per-shard vectors in shard order
/// yields the population in user-index order (the topology runner's
/// pass-1 request collection).
impl<T: Send> Partial for Vec<T> {
    fn absorb(&mut self, mut other: Vec<T>) {
        self.append(&mut other);
    }
}

/// Merge frontier: folds shard partials into the total strictly in
/// shard-index order, buffering only partials that finish ahead of the
/// frontier. Keeps the reduction tree fixed — and therefore the report
/// bit-identical — while the worker loop bounds the buffer, so memory
/// stays O(threads) rather than O(shard_count) even when one slow shard
/// stalls the frontier.
struct Frontier<P: Partial> {
    total: P,
    next: u64,
    pending: BTreeMap<u64, P>,
}

impl<P: Partial> Frontier<P> {
    /// Inserts a partial and advances the frontier as far as it now
    /// reaches. Returns true if the frontier moved.
    fn push(&mut self, shard: u64, partial: P) -> bool {
        self.pending.insert(shard, partial);
        let before = self.next;
        while let Some(partial) = self.pending.remove(&self.next) {
            self.total.absorb(partial);
            self.next += 1;
        }
        self.next != before
    }
}

/// The one way a run reaches its users: what every run shares (scheme,
/// engine config, seed, topology, shard tiling) plus how user `i` is
/// materialized, on demand, in any order, from any worker.
///
/// Materialization is deterministic — the topology runner's two passes
/// both call [`user`](Self::user) for every user, and pass 2 must see
/// pass 1's trace — and it is the only place a run generates or loads a
/// trace.
pub(crate) struct Population<'a> {
    /// The scheme under test, compared against the status quo.
    pub(crate) scheme: Scheme,
    /// Engine configuration shared by every user.
    pub(crate) sim: &'a SimConfig,
    /// Seed of every per-user draw (carrier, cell, mobility).
    pub(crate) master_seed: u64,
    /// The network topology, when the population runs on one.
    pub(crate) cells: Option<&'a NetworkTopology>,
    /// Population size.
    pub(crate) users: u64,
    shard_size: u64,
    members: Members<'a>,
}

/// Where a [`Population`]'s users come from.
enum Members<'a> {
    Synthetic(&'a Scenario),
    /// A resolved corpus walk; `loaded` counts `traces_loaded`.
    Corpus {
        scenario: &'a CorpusScenario,
        walk: &'a Corpus,
        loaded: Counter,
    },
}

impl<'a> Population<'a> {
    /// The synthetic population of `scenario`.
    pub(crate) fn synthetic(scenario: &'a Scenario) -> Population<'a> {
        Population {
            scheme: scenario.scheme,
            sim: &scenario.sim,
            master_seed: scenario.master_seed,
            cells: scenario.cells.as_ref(),
            users: scenario.users,
            shard_size: scenario.shard_size.max(1),
            members: Members::Synthetic(scenario),
        }
    }

    /// The population of `source`. A corpus source replays `walk`, its
    /// already-resolved file list, so callers that run one corpus
    /// several times (sweep cells) replay the identical index→file
    /// assignment. Fails before any worker starts on an empty corpus
    /// carrier mix, so a misconfigured mix is a typed error rather than a
    /// panic inside a worker thread.
    pub(crate) fn of(
        source: &'a UserSource,
        walk: Option<&'a Corpus>,
        obs: Obs<'_>,
    ) -> Result<Population<'a>, ScenError> {
        let scenario = match source {
            UserSource::Synthetic(scenario) => return Ok(Population::synthetic(scenario)),
            UserSource::Corpus(scenario) => scenario,
        };
        let walk = walk.expect("corpus sources run against a resolved walk");
        if scenario.carrier_mix.is_empty() {
            return Err(scenario
                .runtime_err("corpus scenario has an empty carrier mix; replay needs one".into()));
        }
        Ok(Population {
            scheme: scenario.scheme,
            sim: &scenario.sim,
            master_seed: scenario.master_seed,
            cells: scenario.cells.as_ref(),
            users: walk.len() as u64,
            shard_size: scenario.shard_size.max(1),
            members: Members::Corpus {
                scenario,
                walk,
                loaded: obs.recorder.counter("traces_loaded"),
            },
        })
    }

    /// Number of shards the population tiles into.
    pub(crate) fn shard_count(&self) -> u64 {
        self.users.div_ceil(self.shard_size)
    }

    /// The user-index range of shard `shard` (empty past the end).
    pub(crate) fn shard_range(&self, shard: u64) -> std::ops::Range<u64> {
        let lo = (shard * self.shard_size).min(self.users);
        let hi = ((shard + 1) * self.shard_size).min(self.users);
        lo..hi
    }

    /// An empty report named for this run, its `source` line saying
    /// where the users come from.
    pub(crate) fn empty_report(&self) -> FleetReport {
        match &self.members {
            Members::Synthetic(scenario) => {
                FleetReport::empty(scenario.name.clone(), scenario.scheme.label())
            }
            Members::Corpus { scenario, walk, .. } => {
                let mut report = FleetReport::empty(scenario.name.clone(), scenario.scheme.label());
                report.source =
                    format!("corpus {} ({} traces)", scenario.spec.dir.display(), walk.len());
                report
            }
        }
    }

    /// The header a [`RequestCache`] keys this population's request
    /// streams on. Only synthetic populations have one: a corpus is
    /// whatever its directory holds, so corpus replays never touch the
    /// cache.
    pub(crate) fn cache_header(&self) -> Option<RequestCacheHeader> {
        match &self.members {
            Members::Synthetic(scenario) => Some(request_header(scenario)),
            Members::Corpus { .. } => None,
        }
    }

    /// Materializes user `index` — carrier, trace, and the user-days it
    /// counts — under the `synthesize` span. A corpus trace that cannot
    /// be read is published on `ctx` and becomes the run's positioned
    /// error, naming the file.
    pub(crate) fn user(
        &self,
        index: u64,
        recorder: &dyn Recorder,
        ctx: &ShardCtx<'_>,
    ) -> Result<(CarrierProfile, Trace, u32), ScenError> {
        let _synthesize = span(recorder, "synthesize");
        match &self.members {
            Members::Synthetic(scenario) => {
                let (carrier, model) = scenario.user(index);
                Ok((carrier, model.generate(), model.days))
            }
            Members::Corpus { scenario, walk, loaded } => {
                let trace = walk.load(index as usize).map_err(|e| {
                    ctx.trace_failed();
                    scenario.runtime_err(format!(
                        "cannot replay trace file {}: {e}",
                        walk.path(index as usize).display()
                    ))
                })?;
                loaded.incr();
                let carrier = draw_carrier(&scenario.carrier_mix, scenario.master_seed, index);
                let days = days_spanned(&trace);
                Ok((carrier, trace, days))
            }
        }
    }
}

/// Runs `scenario` across `threads` worker threads: the infallible
/// synthetic shortcut of [`run_source`], unobserved and uncached.
///
/// `threads` is purely an execution knob: any value ≥ 1 produces the
/// same [`FleetReport`] (see the module docs). Zero is treated as 1.
pub fn run(scenario: &Scenario, threads: usize) -> FleetReport {
    run_population(&Population::synthetic(scenario), threads, Obs::none(), None)
        .expect("synthetic populations never fail")
}

/// Runs any [`UserSource`] across `threads` worker threads, under an
/// [`Obs`] handle and an optional phase-1 [`RequestCache`].
///
/// Synthetic sources never fail; corpus sources fail — with a
/// positioned [`ScenError`] — when the directory is missing or empty,
/// or when a trace file cannot be read mid-run. On success the
/// determinism contract is identical for both: a bit-identical report
/// at any thread count.
///
/// Observation never perturbs the result: spans, counters, worker busy
/// time and live progress flow into `obs`, and the report additionally
/// carries a [`RunTimings`] phase breakdown when the recorder is
/// enabled. Neither does caching: the cache applies to synthetic
/// cell-topology runs (the two-pass runner is where phase 1 exists as a
/// separate artifact), and a cached run is bit-identical to an uncached
/// one — only the `cache_*` counters and the wall clock differ. The
/// replay memo the run changed is written to the cache's directory
/// before this returns, whether the run succeeded or not.
pub fn run_source(
    source: &UserSource,
    threads: usize,
    obs: Obs<'_>,
    cache: Option<&RequestCache>,
) -> Result<FleetReport, ScenError> {
    let walk = resolve_walk(source, obs)?;
    let report = run_population(&Population::of(source, walk.as_ref(), obs)?, threads, obs, cache);
    if let Some(cache) = cache {
        cache.write_memos(obs);
    }
    report
}

/// Walks a corpus source's directory once (`None` for synthetic
/// sources), pinning the index→file assignment its runs replay.
pub(crate) fn resolve_walk(source: &UserSource, obs: Obs<'_>) -> Result<Option<Corpus>, ScenError> {
    match source {
        UserSource::Synthetic(_) => Ok(None),
        UserSource::Corpus(corpus) => corpus.resolve_observed(obs).map(Some),
    }
}

/// The one run path every entry point ends in: the radio-isolated fold,
/// or the two-pass topology runner when the population has cells.
pub(crate) fn run_population(
    population: &Population<'_>,
    threads: usize,
    obs: Obs<'_>,
    cache: Option<&RequestCache>,
) -> Result<FleetReport, ScenError> {
    timed(threads, obs, || match population.cells {
        Some(topology) => crate::topology::run_topology(population, topology, threads, obs, cache),
        None => run_isolated(population, threads, obs),
    })
}

/// Shared wall-clock shell for every run: snapshots the recorder, times
/// `body`, stamps `wall_seconds`/`threads` on the report, records the
/// whole run under the `"run"` span, and — when the recorder is enabled
/// — attaches the [`RunTimings`] extracted from exactly this run's
/// recorder delta.
fn timed(
    threads: usize,
    obs: Obs<'_>,
    body: impl FnOnce() -> Result<FleetReport, ScenError>,
) -> Result<FleetReport, ScenError> {
    let before = obs.recorder.enabled().then(|| obs.recorder.snapshot());
    let started = std::time::Instant::now();
    let mut report = body()?;
    let wall = started.elapsed();
    report.wall_seconds = wall.as_secs_f64();
    report.threads = threads.max(1);
    if let Some(before) = before {
        obs.recorder.record_span("run", wall.as_nanos() as u64);
        let delta = obs.recorder.snapshot().since(&before);
        report.timings = Some(RunTimings::from_snapshot(&delta, report.wall_seconds));
    }
    Ok(report)
}

/// The radio-isolated fold: each user through the scheme under test and
/// the status-quo baseline, in user order within each shard.
fn run_isolated(
    population: &Population<'_>,
    threads: usize,
    obs: Obs<'_>,
) -> Result<FleetReport, ScenError> {
    if let Some(table) = obs.progress {
        table.add_users_total(population.users);
    }
    let empty = || population.empty_report();
    run_sharded(population.shard_count(), threads, obs, &empty, &|shard, ctx| {
        let users_simulated = obs.recorder.counter("users_simulated");
        let days_counter = obs.recorder.counter("user_days");
        let mut partial = population.empty_report();
        for index in population.shard_range(shard) {
            let (carrier, trace, days) = population.user(index, obs.recorder, ctx)?;
            {
                let _simulate = span(obs.recorder, "simulate");
                fold_one(&mut partial, population.scheme, &carrier, population.sim, &trace, days);
            }
            users_simulated.incr();
            days_counter.add(days as u64);
            ctx.user_done(days as u64);
            // `trace` drops here: materialize-simulate-discard.
        }
        Ok(partial)
    })
}

/// Per-worker context handed to every `shard_fn` call: where to
/// publish live progress (when a [`ProgressTable`](tailwise_obs::ProgressTable)
/// is attached). Both methods are no-ops when progress is off.
pub(crate) struct ShardCtx<'a> {
    slot: Option<&'a ProgressSlot>,
}

impl ShardCtx<'_> {
    /// Publishes one finished user contributing `days` user-days.
    pub(crate) fn user_done(&self, days: u64) {
        if let Some(slot) = self.slot {
            slot.add_user(days);
        }
    }

    /// Publishes one failed trace load.
    pub(crate) fn trace_failed(&self) {
        if let Some(slot) = self.slot {
            slot.add_failure();
        }
    }
}

/// The sharded execution core shared by radio-isolated and
/// cell-topology runs: work-stealing shard claims, bounded out-of-order
/// buffering, and the in-order merge frontier over any [`Partial`].
/// `shard_fn` is called once per shard index; its first error (if any)
/// aborts the run — remaining workers stop claiming shards — and
/// becomes the overall result.
///
/// Observation rides along without touching the schedule: workers
/// publish the claimed shard and per-user progress through the
/// [`ShardCtx`], and per-worker busy time (clock read only when the
/// recorder is enabled) lands in `obs.recorder`.
pub(crate) fn run_sharded<P: Partial>(
    shard_count: u64,
    threads: usize,
    obs: Obs<'_>,
    empty: &(dyn Fn() -> P + Sync),
    shard_fn: &(dyn Fn(u64, &ShardCtx) -> Result<P, ScenError> + Sync),
) -> Result<P, ScenError> {
    let threads = threads.max(1);
    let cursor = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<ScenError>> = Mutex::new(None);
    let frontier = Mutex::new(Frontier { total: empty(), next: 0, pending: BTreeMap::new() });
    let merged = Condvar::new();
    // Out-of-order partials a worker may buffer before it must wait for
    // the frontier to catch up. The worker holding the frontier shard is
    // always allowed to push, so the wait cannot deadlock.
    let pending_cap = threads * 2 + 4;

    std::thread::scope(|scope| {
        for worker in 0..threads.min(shard_count.max(1) as usize) {
            let cursor = &cursor;
            let failed = &failed;
            let error = &error;
            let frontier = &frontier;
            let merged = &merged;
            scope.spawn(move || loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let shard = cursor.fetch_add(1, Ordering::Relaxed);
                if shard >= shard_count {
                    break;
                }
                let slot = obs.progress.map(|table| table.slot(worker));
                if let Some(slot) = slot {
                    slot.begin_shard(shard);
                }
                let busy_clock = obs.recorder.enabled().then(std::time::Instant::now);
                let outcome = shard_fn(shard, &ShardCtx { slot });
                if let Some(started) = busy_clock {
                    obs.recorder.record_worker(worker, started.elapsed().as_nanos() as u64);
                }
                let partial = match outcome {
                    Ok(partial) => partial,
                    Err(e) => {
                        error.lock().expect("fleet error slot").get_or_insert(e);
                        failed.store(true, Ordering::Relaxed);
                        // Wake workers parked on the frontier so they
                        // observe the failure and exit. Taking the
                        // frontier lock first makes the store visible to
                        // any worker about to park, so the wakeup cannot
                        // be lost.
                        let _frontier = frontier.lock().expect("fleet frontier lock");
                        merged.notify_all();
                        break;
                    }
                };
                let mut f = frontier.lock().expect("fleet frontier lock");
                while shard != f.next
                    && f.pending.len() >= pending_cap
                    && !failed.load(Ordering::Relaxed)
                {
                    f = merged.wait(f).expect("fleet frontier lock");
                }
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                if f.push(shard, partial) {
                    merged.notify_all();
                }
            });
        }
    });

    if let Some(e) = error.into_inner().expect("fleet error slot") {
        return Err(e);
    }
    let frontier = frontier.into_inner().expect("fleet frontier lock");
    debug_assert!(frontier.pending.is_empty(), "all shards merged");
    Ok(frontier.total)
}

/// Runs one user's trace through the scheme under test and the
/// status-quo baseline, folding both into `partial`.
fn fold_one(
    partial: &mut FleetReport,
    scheme: Scheme,
    carrier: &CarrierProfile,
    sim: &SimConfig,
    trace: &Trace,
    days: u32,
) {
    let baseline = Scheme::StatusQuo.run(carrier, sim, trace);
    let scheme_run = if scheme == Scheme::StatusQuo {
        baseline.clone()
    } else {
        scheme.run(carrier, sim, trace)
    };
    partial.fold_user(days, &scheme_run, &baseline);
}

/// Calendar days a trace spans, for user-day accounting of replayed
/// corpora (synthetic users carry their day count in the model).
/// Always at least 1: an empty or sub-day trace is one user-day.
fn days_spanned(trace: &Trace) -> u32 {
    (trace.span().as_secs_f64() / 86_400.0).ceil().clamp(1.0, u32::MAX as f64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_radio::profile::CarrierProfile;

    fn tiny(users: u64) -> Scenario {
        let mut s = Scenario::new(users, Scheme::MakeIdle, CarrierProfile::verizon_lte());
        s.shard_size = 4;
        s
    }

    fn corpus_run(c: CorpusScenario, threads: usize) -> Result<FleetReport, ScenError> {
        run_source(&UserSource::Corpus(c), threads, Obs::none(), None)
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let s = tiny(3);
        let r = run(&s, 64);
        assert_eq!(r.users, 3);
        assert!(r.wall_seconds > 0.0);
    }

    #[test]
    fn zero_users_yields_empty_report() {
        let r = run(&tiny(0), 4);
        assert_eq!(r.users, 0);
        assert_eq!(r.energy_j, 0.0);
        assert_eq!(r.savings.count(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let s = tiny(2);
        assert_eq!(run(&s, 0), run(&s, 1));
    }

    #[test]
    fn status_quo_scenario_reports_zero_savings() {
        let mut s = tiny(4);
        s.scheme = Scheme::StatusQuo;
        let r = run(&s, 2);
        assert_eq!(r.users, 4);
        assert_eq!(r.energy_j.to_bits(), r.baseline_energy_j.to_bits());
        assert_eq!(r.aggregate_savings_pct(), 0.0);
        assert_eq!(r.switches, r.baseline_switches);
    }

    #[test]
    fn run_source_matches_run_for_synthetic_sources() {
        let s = tiny(5);
        let direct = run(&s, 2);
        let via_source = run_source(&UserSource::Synthetic(s), 2, Obs::none(), None).unwrap();
        assert_eq!(direct, via_source);
        assert_eq!(via_source.source, "synthetic population");
    }

    #[test]
    fn corpus_runs_against_missing_directories_fail_not_hang() {
        // Errors must propagate out of the thread scope even at high
        // thread counts (the abort path wakes parked workers).
        let c = CorpusScenario::new(
            "/nonexistent/tailwise-runner",
            Scheme::MakeIdle,
            CarrierProfile::att_hspa(),
        );
        let err = corpus_run(c, 8).unwrap_err();
        assert!(err.message.contains("cannot read corpus directory"), "{err}");
    }

    #[test]
    fn empty_carrier_mix_is_a_typed_error_not_a_worker_panic() {
        let dir =
            std::env::temp_dir().join(format!("tailwise-runner-nomix-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let t = tailwise_trace::Trace::from_sorted(vec![tailwise_trace::Packet::new(
            tailwise_trace::Instant::ZERO,
            tailwise_trace::Direction::Down,
            64,
        )])
        .unwrap();
        tailwise_trace::io::save(&t, &dir.join("user_0.twt")).unwrap();
        let mut c = CorpusScenario::new(&dir, Scheme::MakeIdle, CarrierProfile::att_hspa());
        c.carrier_mix.clear();
        let err = corpus_run(c, 2).unwrap_err();
        assert!(err.message.contains("empty carrier mix"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_run_corrupt_traces_abort_with_the_file_name() {
        let dir =
            std::env::temp_dir().join(format!("tailwise-runner-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Three good single-packet traces and one rotten file.
        for i in 0..3 {
            let t = tailwise_trace::Trace::from_sorted(vec![tailwise_trace::Packet::new(
                tailwise_trace::Instant::from_secs(i),
                tailwise_trace::Direction::Down,
                100,
            )])
            .unwrap();
            tailwise_trace::io::save(&t, &dir.join(format!("user_{i}.twt"))).unwrap();
        }
        std::fs::write(dir.join("user_1.twt"), b"rotten").unwrap();
        let mut c = CorpusScenario::new(&dir, Scheme::MakeIdle, CarrierProfile::att_hspa());
        c.shard_size = 1;
        let err = corpus_run(c, 4).unwrap_err();
        assert!(err.message.contains("user_1.twt"), "{err}");
        assert_eq!(err.kind, tailwise_scenfile::ScenErrorKind::Run);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn days_spanned_rounds_up_and_floors_at_one() {
        use tailwise_trace::{Direction, Instant, Packet, Trace};
        let empty = Trace::new();
        assert_eq!(days_spanned(&empty), 1);
        let two_days = Trace::from_sorted(vec![
            Packet::new(Instant::ZERO, Direction::Up, 1),
            Packet::new(Instant::from_secs(86_400 + 60), Direction::Up, 1),
        ])
        .unwrap();
        assert_eq!(days_spanned(&two_days), 2);
    }
}
