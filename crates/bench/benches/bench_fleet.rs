//! Fleet-simulation throughput: user-days per second through the full
//! generate→simulate→fold pipeline, single- versus multi-threaded.
//!
//! This is the repo's first scalability benchmark: it measures the whole
//! population path (hierarchical seeding, workload synthesis, two engine
//! runs per user, streaming aggregation), not just the inner engine loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run, run_source, run_source_sweep_cached, AdmissionSpec, FleetReport, NetworkTopology,
    RequestCache, Scenario, SourceSet, SweepAxis, SweepReport, UserSource,
};
use tailwise_obs::{Obs, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;

fn fleet_scenario(users: u64) -> Scenario {
    let mut s = Scenario::new(users, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    s.shard_size = 8;
    s.master_seed = 0xBEAC4;
    s
}

/// A synthetic run under `obs` against `cache`.
fn run_under(scenario: &Scenario, obs: Obs<'_>, cache: Option<&RequestCache>) -> FleetReport {
    let source = UserSource::Synthetic(scenario.clone());
    run_source(&source, 2, obs, cache).expect("synthetic runs never fail")
}

/// A synthetic sweep on `threads` threads against `cache`.
fn sweep_under(
    set: &SourceSet,
    threads: usize,
    obs: Obs<'_>,
    cache: Option<&RequestCache>,
) -> SweepReport {
    run_source_sweep_cached(set, threads, obs, cache).expect("synthetic sweeps never fail")
}

/// The admission sweep `sweep_cached` and `sweep_replay_memo` measure.
fn admission_sweep(base: &Scenario) -> SourceSet {
    let set = SourceSet {
        source: UserSource::Synthetic(base.clone()),
        axes: vec![SweepAxis::Admission(vec![
            AdmissionSpec::Always,
            AdmissionSpec::RateLimited { min_interval: tailwise_trace::Duration::from_secs(2) },
            AdmissionSpec::LoadReactive { watermark_per_s: 50, window_s: 5 },
            AdmissionSpec::LoadReactive { watermark_per_s: 10, window_s: 5 },
        ])],
    };
    assert_eq!(set.expansion_count(), 4);
    set
}

fn fleet_throughput(c: &mut Criterion) {
    let scenario = fleet_scenario(24);
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut group = c.benchmark_group("fleet_throughput");
    group.throughput(Throughput::Elements(scenario.user_days()));
    // One case per distinct count: on a 2-core host `max_threads` is 2,
    // and a repeated label would be a duplicate key in the `--json` ledger.
    let mut thread_counts = vec![1usize, 2, max_threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    for threads in thread_counts {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}threads")),
            &threads,
            |b, &threads| b.iter(|| black_box(run(black_box(&scenario), threads))),
        );
    }
    group.finish();
}

fn fleet_scheme_cost(c: &mut Criterion) {
    // Per-scheme population cost: how much slower is the full learning
    // pipeline than plain MakeIdle at fleet scale?
    let mut group = c.benchmark_group("fleet_scheme");
    group.throughput(Throughput::Elements(8));
    for scheme in [Scheme::MakeIdle, Scheme::Oracle, Scheme::MakeIdleActiveLearn] {
        let mut scenario = fleet_scenario(8);
        scenario.scheme = scheme;
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scenario,
            |b, scenario| b.iter(|| black_box(run(scenario, 2))),
        );
    }
    group.finish();
}

/// Where fleet time goes, and what watching it costs. One observed
/// topology run prints the per-span phase breakdown (the same numbers
/// `--metrics` manifests carry), then the group times the identical
/// scenario under a `NullRecorder` versus a full `StatsRecorder` —
/// the measurable cost of the recording itself, which the determinism
/// contract requires to perturb nothing but wall time.
fn fleet_phases(c: &mut Criterion) {
    let mut scenario = fleet_scenario(16);
    scenario.cells = Some(NetworkTopology::with_rncs(3, 12));
    let recorder = StatsRecorder::new();
    let report = run_under(&scenario, Obs { recorder: &recorder, progress: None }, None);
    eprintln!("fleet phase breakdown ({} user-days, 3 RNCs x 12 cells):", report.user_days);
    if let Some(timings) = &report.timings {
        for (name, seconds) in timings.phases() {
            eprintln!("  {name:<11} {seconds:>8.3} s");
        }
    }

    let mut group = c.benchmark_group("fleet_phases");
    group.throughput(Throughput::Elements(scenario.user_days()));
    group.bench_function("null_recorder", |b| b.iter(|| black_box(run(black_box(&scenario), 2))));
    group.bench_function("stats_recorder", |b| {
        b.iter(|| {
            let recorder = StatsRecorder::new();
            let obs = Obs { recorder: &recorder, progress: None };
            black_box(run_under(black_box(&scenario), obs, None))
        })
    });
    group.finish();
}

/// Phase-1 caching across an admission sweep. `single_run` is the
/// normalizer; `sweep_uncached` pays 4 full two-pass runs; `sweep_warm`
/// serves every cell's extraction and baselines from a pre-warmed
/// in-memory cache, leaving only the per-cell adjudicate + replay
/// (plus pass-2 trace synthesis — replay consumes traces, which the
/// runner regenerates rather than holds). The replay memo
/// (`sweep_replay_memo` below) serves pass-2 outcomes too: after the
/// first measured iteration every `(user, verdict-stream)` pair is
/// cached, so iterations fold stored outcomes instead of re-running the
/// engine per cell.
fn sweep_cached(c: &mut Criterion) {
    let mut base = fleet_scenario(16);
    base.cells = Some(NetworkTopology::with_rncs(3, 12));
    let set = admission_sweep(&base);

    let mut group = c.benchmark_group("sweep_cached");
    group.throughput(Throughput::Elements(base.user_days()));
    group.bench_function("single_run", |b| b.iter(|| black_box(run(black_box(&base), 2))));
    group.bench_function("sweep_uncached", |b| {
        b.iter(|| black_box(sweep_under(black_box(&set), 2, Obs::none(), None)))
    });
    group.bench_function("sweep_warm", |b| {
        // Warm the cache once; every measured iteration then replays
        // all four cells from it.
        let cache = RequestCache::in_memory();
        run_under(&base, Obs::none(), Some(&cache));
        b.iter(|| black_box(sweep_under(black_box(&set), 2, Obs::none(), Some(&cache))))
    });
    group.finish();
}

/// Phase-2 replay memoization across the same admission sweep as
/// `sweep_cached`. The warm path here has seen the *whole sweep* once,
/// so every cell's `(user, verdict-stream)` pairs are memoized: cells
/// fold stored outcomes instead of synthesizing traces and re-running
/// the engine, and only adjudication + folding remain per cell. The
/// honest miss rate of the measured shape prints alongside (0% once
/// warm — the sweep's verdict streams are deterministic). The warm sweep
/// runs on 2 threads and on 1: adjudication runs one RNC partition per
/// worker, so the pair shows how that layer scales.
fn sweep_replay_memo(c: &mut Criterion) {
    let mut base = fleet_scenario(16);
    base.cells = Some(NetworkTopology::with_rncs(3, 12));
    let set = admission_sweep(&base);

    let mut group = c.benchmark_group("sweep_replay_memo");
    group.throughput(Throughput::Elements(base.user_days()));
    // A warm sweep takes tens of milliseconds: the default 300 ms of
    // samples cannot tell the thread counts apart on a noisy host.
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("single_run", |b| b.iter(|| black_box(run(black_box(&base), 2))));
    // Warm with one full sweep: phase-1 extraction, baselines, and
    // every cell's replay outcomes all land in the cache.
    let cache = RequestCache::in_memory();
    sweep_under(&set, 2, Obs::none(), Some(&cache));
    // Record the measured shape's honest hit/miss split once.
    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    sweep_under(&set, 2, obs, Some(&cache));
    let snapshot = recorder.snapshot();
    let hits = snapshot.counters.get("replay_hits").copied().unwrap_or(0);
    let misses = snapshot.counters.get("replay_misses").copied().unwrap_or(0);
    eprintln!(
        "sweep_replay_memo warm shape: {hits} replay hits, {misses} misses \
         ({:.1}% miss rate)",
        100.0 * misses as f64 / (hits + misses).max(1) as f64
    );
    for (label, threads) in [("sweep_warm_memo", 2), ("sweep_warm_memo_1thread", 1)] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(sweep_under(black_box(&set), threads, Obs::none(), Some(&cache))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    fleet_throughput,
    fleet_scheme_cost,
    fleet_phases,
    sweep_cached,
    sweep_replay_memo
);
criterion_main!(benches);
