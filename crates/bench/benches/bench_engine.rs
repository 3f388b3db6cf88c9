//! Simulation-engine throughput: packets per second through the full
//! accounting pipeline, per scheme, and through the phase-2 replay of
//! MakeIdle's recorded requests — the per-packet work a topology run's
//! pass 2 pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tailwise_core::schemes::Scheme;
use tailwise_radio::profile::CarrierProfile;
use tailwise_sim::engine::SimConfig;
use tailwise_sim::twophase::replay_requests;
use tailwise_trace::time::Duration;
use tailwise_trace::Trace;
use tailwise_workload::apps::AppKind;

fn workload() -> Trace {
    // A one-hour mixed trace: IM + News + Email merged.
    let span = Duration::from_secs(3600);
    let parts: Vec<Trace> = [AppKind::Im, AppKind::News, AppKind::Email]
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let mut rng = StdRng::seed_from_u64(0xBE00 + i as u64);
            k.default_model().generate(span, &mut rng)
        })
        .collect();
    Trace::merge(parts)
}

fn engine_throughput(c: &mut Criterion) {
    let profile = CarrierProfile::att_hspa();
    let cfg = SimConfig::default();
    let trace = workload();
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for scheme in [Scheme::StatusQuo, Scheme::MakeIdle, Scheme::Oracle, Scheme::MakeIdleActiveLearn]
    {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| black_box(scheme.run(&profile, &cfg, black_box(&trace))))
        });
    }
    let requests = Scheme::MakeIdle.request_trace(&profile, &cfg, &trace).expect("scriptable");
    let verdicts = vec![true; requests.len()];
    group.bench_function("MakeIdle recorded replay", |b| {
        b.iter(|| {
            black_box(replay_requests(&profile, &cfg, black_box(&trace), &requests, &verdicts))
        })
    });
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
