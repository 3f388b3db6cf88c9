//! §6.6 — the CPU cost of running the control algorithms.
//!
//! The paper implemented MakeIdle+MakeActive on phones and measured a
//! 1.7–1.9% energy overhead. Without a phone we measure the per-event CPU
//! cost of the same decision paths. Turning ns/packet into an energy
//! fraction takes a phone's CPU power draw, which the paper does not
//! report, so this bench stops at time.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use tailwise_core::control::{ControlModule, SocketEvent};
use tailwise_core::makeactive::LearningDelay;
use tailwise_core::makeidle::MakeIdle;
use tailwise_radio::profile::CarrierProfile;
use tailwise_sim::policy::{ActivePolicy, IdleContext, IdlePolicy};
use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::time::{Duration, Instant};

fn makeidle_decision(c: &mut Criterion) {
    let profile = CarrierProfile::att_hspa();
    // Gap streams cycle with a prime period, so pushes evict samples that
    // differ from the ones they insert. n = 100: a realistic mix of bursty
    // small gaps and session gaps; n = 400: small gaps only.
    let mixed = |i: i32| if i % 5 == 0 { 12.0 + (i % 7) as f64 } else { 0.02 * (1 + i % 9) as f64 };
    let small = |i: i32| 0.01 * (1 + i % 50) as f64;
    let streams = [
        ("makeidle_decide_and_push_n100", 100, (0..251).map(mixed).collect::<Vec<f64>>()),
        ("makeidle_decide_and_push_n400", 400, (0..251).map(small).collect()),
    ];
    for (label, n, secs) in streams {
        let gaps: Vec<Duration> = secs.into_iter().map(Duration::from_secs_f64).collect();
        let mut next = gaps.iter().cycle();
        let mut window = SlidingWindow::new(n);
        for &g in next.by_ref().take(n) {
            window.push(g);
        }
        let mut mi = MakeIdle::new();
        // One packet as the engine handles it: decide on the window, then
        // push the gap that followed.
        c.bench_function(label, |b| {
            b.iter(|| {
                let ctx = IdleContext { profile: &profile, window: &window, now: Instant::ZERO };
                let decision = black_box(mi.decide(&ctx, Duration::FOREVER));
                window.push(*next.next().expect("cycle is endless"));
                decision
            })
        });
    }
}

fn makeactive_round(c: &mut Criterion) {
    let offsets: Vec<f64> = (0..8).map(|i| i as f64 * 1.3).collect();
    c.bench_function("makeactive_learn_round", |b| {
        b.iter_batched(
            LearningDelay::new,
            |mut learner| {
                let hold = learner.open_round(Instant::ZERO);
                learner.close_round(black_box(&offsets));
                black_box(hold)
            },
            BatchSize::SmallInput,
        )
    });
}

fn control_module_event(c: &mut Criterion) {
    // A module whose MakeIdle has followed 120 sends, 7 s apart.
    let warm = || {
        let mut m = ControlModule::new(CarrierProfile::att_hspa());
        for i in 0..120 {
            m.on_event(Instant::from_millis(i * 7_000), 1, SocketEvent::Send { bytes: 100 });
        }
        (m, Instant::from_millis(120 * 7_000))
    };
    // One push since the last decision: MakeIdle follows the window.
    c.bench_function("control_module_on_event", |b| {
        b.iter_batched(
            warm,
            |(mut m, t)| black_box(m.on_event(t, 1, SocketEvent::Recv { bytes: 1400 })),
            BatchSize::SmallInput,
        )
    });
    // A connect pushes a gap without deciding, so the send's decision
    // sees two pushes and MakeIdle recounts the window.
    c.bench_function("control_module_connect_then_send", |b| {
        b.iter_batched(
            warm,
            |(mut m, t)| {
                m.on_event(t, 2, SocketEvent::Connect);
                black_box(m.on_event(
                    t + Duration::from_millis(50),
                    2,
                    SocketEvent::Send { bytes: 300 },
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, makeidle_decision, makeactive_round, control_module_event);
criterion_main!(benches);
