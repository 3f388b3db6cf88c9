//! # tailwise-core
//!
//! The primary contribution of *"Traffic-Aware Techniques to Reduce 3G/LTE
//! Wireless Energy Consumption"* (Deng & Balakrishnan, CoNEXT 2012),
//! reproduced as a Rust library:
//!
//! * [`makeidle`] — the §4 online demotion predictor: after each packet,
//!   choose from the windowed inter-arrival distribution how long to wait
//!   before triggering fast dormancy;
//! * [`makeactive`] — the §5 session batchers that restore status-quo
//!   signaling levels: a fixed delay bound and the Learn-α bank-of-experts
//!   learner;
//! * [`schemes`] — the full §6.2 evaluation line-up (status quo,
//!   4.5-second tail, 95% IAT, MakeIdle, Oracle, and the two combined
//!   pipelines) behind one dispatchable [`schemes::Scheme`] enum;
//! * [`control`] — the deployable Figure-4 control module: a poll-based
//!   socket-event API suitable for an OS integration, built on the same
//!   policies the simulator measures.
//!
//! ## Quick start
//!
//! ```
//! use tailwise_core::prelude::*;
//!
//! // A chatty background app: one packet every 20 s for an hour.
//! let trace = tailwise_trace::Trace::from_sorted(
//!     (0..180)
//!         .map(|i| tailwise_trace::Packet::new(
//!             tailwise_trace::Instant::from_secs(i * 20),
//!             tailwise_trace::Direction::Down,
//!             120,
//!         ))
//!         .collect(),
//! )
//! .unwrap();
//!
//! let profile = CarrierProfile::att_hspa();
//! let config = SimConfig::default();
//! let baseline = Scheme::StatusQuo.run(&profile, &config, &trace);
//! let makeidle = Scheme::MakeIdle.run(&profile, &config, &trace);
//! assert!(makeidle.savings_vs(&baseline) > 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confidence;
pub mod control;
mod cuts;
pub mod makeactive;
pub mod makeidle;
pub mod schemes;

pub use confidence::ConfidenceRule;
pub use control::{Action, ControlModule, SocketEvent};
pub use makeactive::{FixedDelayBound, LearningConfig, LearningDelay};
pub use makeidle::{MakeIdle, MakeIdleConfig};
pub use schemes::{percentile_iat, Scheme};

/// One-stop imports for library users.
pub mod prelude {
    pub use crate::control::{Action, ControlModule, SocketEvent};
    pub use crate::makeactive::{FixedDelayBound, LearningDelay};
    pub use crate::makeidle::MakeIdle;
    pub use crate::schemes::Scheme;
    pub use tailwise_radio::profile::CarrierProfile;
    pub use tailwise_sim::engine::SimConfig;
    pub use tailwise_sim::report::SimReport;
}

#[cfg(test)]
mod proptests {
    //! End-to-end invariants of the contribution algorithms on random
    //! workloads.

    use proptest::prelude::*;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_sim::engine::{run, SimConfig};
    use tailwise_sim::oracle::OracleIdle;
    use tailwise_sim::policy::StatusQuo;
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::time::{Duration, Instant};
    use tailwise_trace::Trace;

    use crate::makeidle::{MakeIdle, MakeIdleConfig};
    use crate::schemes::Scheme;

    /// The paper's n = 100 half the time, otherwise 1–64.
    fn window_capacity() -> impl Strategy<Value = usize> {
        (prop::bool::ANY, 1usize..=64).prop_map(|(paper, small)| if paper { 100 } else { small })
    }

    fn trace_from_gaps(gaps_ms: &[i64]) -> Trace {
        let mut t = Instant::ZERO;
        let mut pkts = vec![Packet::new(t, Direction::Down, 400)];
        for &g in gaps_ms {
            t += Duration::from_millis(g);
            pkts.push(Packet::new(t, Direction::Down, 400));
        }
        Trace::from_sorted(pkts).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// MakeIdle never beats the Oracle and never panics, whatever the
        /// workload or carrier.
        #[test]
        fn makeidle_is_bounded_by_the_oracle(
            gaps_ms in prop::collection::vec(1i64..50_000, 5..150),
            carrier in 0usize..4,
        ) {
            let p = &CarrierProfile::paper_carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);
            let oracle = run(p, &cfg, &t, &mut OracleIdle);
            let mi = run(p, &cfg, &t, &mut MakeIdle::new());
            prop_assert!(oracle.total_energy() <= mi.total_energy() + 1e-6);
        }

        /// The combined pipelines keep every packet: batching shifts
        /// sessions but never drops or reorders data within one.
        #[test]
        fn batched_schemes_conserve_packets(
            gaps_ms in prop::collection::vec(1i64..50_000, 5..120),
            carrier in 0usize..4,
        ) {
            let p = &CarrierProfile::paper_carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);
            for s in [Scheme::MakeIdleActiveFix, Scheme::MakeIdleActiveLearn] {
                let r = s.run(p, &cfg, &t);
                prop_assert_eq!(r.packets, t.len());
                // Delays are bounded by the batchers' maximum holds.
                for &d in &r.session_delays {
                    prop_assert!((0.0..=30.0 + 1e-9).contains(&d));
                }
            }
        }

        /// The closed-form MakeIdle evaluation agrees with the direct
        /// per-sample formula on arbitrary windows and carriers: the
        /// optimum values match to float tolerance (the argmax itself may
        /// legitimately differ only between exactly-tied candidates).
        #[test]
        fn makeidle_closed_form_matches_reference(
            gaps_ms in prop::collection::vec(1i64..60_000, 10..120),
            carrier in 0usize..6,
        ) {
            use tailwise_sim::policy::IdleContext;
            use tailwise_trace::stats::SlidingWindow;

            let p = &CarrierProfile::all_presets()[carrier];
            let mut window = SlidingWindow::new(100);
            for &g in &gaps_ms {
                window.push(Duration::from_millis(g));
            }
            let ctx = IdleContext { profile: p, window: &window, now: Instant::ZERO };
            let mut mi = MakeIdle::new();
            let fast = mi.best_wait(&ctx).expect("window is warm");
            let reference = mi.best_wait_reference(&ctx).expect("window is warm");
            let scale = reference.1.abs().max(1.0);
            prop_assert!(
                (fast.1 - reference.1).abs() <= 1e-9 * scale,
                "f mismatch: fast {:?} vs reference {:?}",
                fast,
                reference
            );
        }

        /// MakeIdle's cut counts follow a window push by push. One
        /// instance decides over two interleaved windows, 0–3 pushes
        /// apart, under four profiles in turn; each decision must be
        /// bit-identical to a fresh instance's on a clone of the window
        /// (a clone is a new stream, so the fresh instance rebuilds).
        /// Beside two presets, AT&T HSPA with t2 = 2 s has the same grid
        /// with the tail window at 8.2 s instead of 16.6 s, and with
        /// t1 = 0.5 s its threshold lies past t1, so the grid waits are
        /// not all below the t1 cut. Samples take 28 distinct values
        /// from 0 to 18.9 s, so duplicates and evictions of a value
        /// still present are common.
        #[test]
        fn makeidle_following_matches_rebuild(
            cap_a in window_capacity(),
            cap_b in window_capacity(),
            steps in prop::collection::vec((0u8..8, 0usize..9, prop::collection::vec(0i64..28, 3)), 1..150),
        ) {
            use tailwise_sim::policy::IdleContext;
            use tailwise_trace::stats::SlidingWindow;

            let att = CarrierProfile::att_hspa;
            let short_t2 = CarrierProfile { t2: Duration::from_secs(2), ..att() };
            let short_t1 = CarrierProfile { t1: Duration::from_millis(500), ..att() };
            prop_assert!(short_t1.t_threshold() > short_t1.t1);
            let profiles = [att(), CarrierProfile::verizon_lte(), short_t2, short_t1];
            let mut windows = [SlidingWindow::new(cap_a), SlidingWindow::new(cap_b)];
            let config = MakeIdleConfig { candidates: 25, min_samples: 1 };
            let mut follower = MakeIdle::with_config(config.clone());
            let (mut w, mut p) = (0, 0);
            for (switch, pushes, values) in steps {
                // 0 moves to the other window, 1 to the next profile.
                match switch {
                    0 => w = 1 - w,
                    1 => p = (p + 1) % profiles.len(),
                    _ => {}
                }
                // One push in 5 of 9 steps, otherwise 0–3.
                let pushes = if pushes < 5 { 1 } else { pushes - 5 };
                for &k in &values[..pushes] {
                    windows[w].push(Duration::from_micros(k * 700_000));
                }
                let bits = |d: Option<(Duration, f64)>| d.map(|(wait, f)| (wait, f.to_bits()));
                let ctx = IdleContext { profile: &profiles[p], window: &windows[w], now: Instant::ZERO };
                let followed = bits(follower.best_wait(&ctx));
                let copy = windows[w].clone();
                let fresh = bits(
                    MakeIdle::with_config(config.clone())
                        .best_wait(&IdleContext { window: &copy, ..ctx }),
                );
                prop_assert_eq!(followed, fresh);
            }
        }

        /// MakeIdle's phase-1 extraction asks the narrower question
        /// (`demotion`, whose scan stops once each gap's verdict is
        /// settled) and must send exactly the requests, and score
        /// exactly the confusion, of the lock-step engine keeping its
        /// decision log, which asks `decide` for every gap. Gaps mix
        /// intra-burst, in-session and session lengths over all six
        /// presets; the grant rule denies about a third of the requests
        /// by a hash of their instant. The unlogged lock-step run (the
        /// narrower question again) must match the logged one's report
        /// bit for bit.
        #[test]
        fn extraction_matches_the_logged_lockstep_run(
            gaps in prop::collection::vec((0usize..3, 0i64..60_000), 12..200),
            carrier in 0usize..6,
            seed in 0u64..1_000,
        ) {
            use tailwise_sim::engine::run_with_release;
            use tailwise_sim::twophase::record_requests;
            use tailwise_trace::mix::splitmix64;

            let p = &CarrierProfile::all_presets()[carrier];
            let gaps_ms: Vec<i64> = gaps
                .iter()
                .map(|&(scale, ms)| [ms % 40, ms % 3_000, ms][scale])
                .collect();
            let t = trace_from_gaps(&gaps_ms);
            let grant = |at: Instant| !splitmix64(seed ^ at.as_micros() as u64).is_multiple_of(3);
            let logged_cfg = SimConfig { record_decisions: true, ..SimConfig::default() };
            let mut asked = Vec::new();
            let logged = run_with_release(p, &logged_cfg, &t, &mut MakeIdle::new(), |at| {
                asked.push(at);
                grant(at)
            });
            let requests = record_requests(p, &SimConfig::default(), &t, &mut MakeIdle::new());
            prop_assert_eq!(&requests.times, &asked);
            prop_assert_eq!(requests.confusion, logged.confusion);

            let unlogged =
                run_with_release(p, &SimConfig::default(), &t, &mut MakeIdle::new(), grant);
            prop_assert!(logged.decisions.is_some() && unlogged.decisions.is_none());
            prop_assert_eq!(unlogged.total_energy().to_bits(), logged.total_energy().to_bits());
            prop_assert_eq!(unlogged.energy, logged.energy);
            prop_assert_eq!(unlogged.counters, logged.counters);
            prop_assert_eq!(unlogged.confusion, logged.confusion);
            prop_assert_eq!(unlogged.denied_fd, logged.denied_fd);
            prop_assert_eq!(unlogged.premature_promotions, logged.premature_promotions);
        }

        /// On workloads whose every gap is longer than the tail window,
        /// the status quo is the worst possible scheme — everything else
        /// must save energy (or tie).
        #[test]
        fn long_gap_workloads_always_favor_proactive_schemes(
            gaps_s in prop::collection::vec(20i64..120, 15..60),
            carrier in 0usize..4,
        ) {
            let p = &CarrierProfile::paper_carriers()[carrier];
            let cfg = SimConfig::default();
            let gaps_ms: Vec<i64> = gaps_s.iter().map(|&s| s * 1000).collect();
            let t = trace_from_gaps(&gaps_ms);
            let base = run(p, &cfg, &t, &mut StatusQuo);
            for s in [Scheme::MakeIdle, Scheme::Oracle] {
                let r = s.run(p, &cfg, &t);
                prop_assert!(
                    r.total_energy() <= base.total_energy() + 1e-6,
                    "{} used more than status quo", s.label()
                );
            }
        }
    }
}
