//! # tailwise-sim
//!
//! The trace-driven simulation engine of the tailwise reproduction of
//! *"Traffic-Aware Techniques to Reduce 3G/LTE Wireless Energy
//! Consumption"* (Deng & Balakrishnan, CoNEXT 2012).
//!
//! * [`policy`] — the two decision interfaces every scheme implements
//!   ([`policy::IdlePolicy`] for demotion, [`policy::ActivePolicy`] for
//!   session batching) plus the trivial baselines (status quo, fixed
//!   waits);
//! * [`engine`] — the deterministic single-pass simulator: gap-by-gap
//!   energy accounting, fast-dormancy negotiation, Oracle-scored decision
//!   quality, optional decision and power-timeline logs;
//! * [`twophase`] — the two-phase API on top of the engine: phase 1
//!   extracts a device's fast-dormancy request stream without a full
//!   simulation, phase 2 replays the engine exactly from those recorded
//!   requests against a scripted grant/deny sequence, without running
//!   the policy again — the substrate of the fleet's cell topologies,
//!   the one multi-device coordinator;
//! * [`batching`] — the MakeActive trace transform (§5) and the combined
//!   MakeIdle+MakeActive pipeline;
//! * [`oracle`] — the offline-optimal comparator (§6.2);
//! * [`report`] — run outcomes and the paper's relative metrics;
//! * [`metrics`] — false/missed switch accounting (§6.3);
//! * [`faults`] — deterministic trace perturbations for robustness tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod batching;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod oracle;
pub mod policy;
pub mod report;
pub mod twophase;

pub use attribution::{attribute, AppEnergy, AttributionReport};
pub use batching::{batch_sessions, run_batched, BatchingOutcome};
pub use engine::{run, run_with_release, PowerSegment, SegmentKind, SimConfig};
pub use metrics::Confusion;
pub use oracle::OracleIdle;
pub use policy::{
    ActivePolicy, FixedWait, IdleContext, IdleDecision, IdlePolicy, NoBatching, StatusQuo,
};
pub use report::SimReport;
pub use twophase::{record_requests, replay_outcome, replay_requests, RequestTrace};

#[cfg(test)]
mod proptests {
    //! Cross-cutting engine invariants on random workloads.

    use proptest::prelude::*;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::time::{Duration, Instant};
    use tailwise_trace::Trace;

    use crate::engine::{run, SimConfig};
    use crate::oracle::OracleIdle;
    use crate::policy::{FixedWait, StatusQuo};

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

    fn carriers() -> Vec<CarrierProfile> {
        CarrierProfile::paper_carriers()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The Oracle is per-gap optimal: no wait-based policy can consume
        /// less energy on any trace (§6.2's "upper bound" claim).
        #[test]
        fn oracle_lower_bounds_every_wait_policy(
            gaps_ms in prop::collection::vec(1i64..60_000, 1..120),
            wait_ms in 0i64..20_000,
            carrier in 0usize..4,
        ) {
            let p = &carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);
            let oracle = run(p, &cfg, &t, &mut OracleIdle);
            let fixed = run(p, &cfg, &t, &mut FixedWait::new(Duration::from_millis(wait_ms), "w"));
            let sq = run(p, &cfg, &t, &mut StatusQuo);
            prop_assert!(oracle.total_energy() <= fixed.total_energy() + 1e-6);
            prop_assert!(oracle.total_energy() <= sq.total_energy() + 1e-6);
        }

        /// Energy components always sum to the total, and all are
        /// non-negative.
        #[test]
        fn energy_breakdown_is_consistent(
            gaps_ms in prop::collection::vec(1i64..30_000, 1..100),
            wait_ms in 0i64..10_000,
            carrier in 0usize..4,
        ) {
            let p = &carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);
            let r = run(p, &cfg, &t, &mut FixedWait::new(Duration::from_millis(wait_ms), "w"));
            let e = r.energy;
            let sum = e.data_up + e.data_down + e.tail_dch + e.tail_fach + e.promote + e.demote;
            prop_assert!((sum - e.total()).abs() < 1e-9);
            for part in [e.data_up, e.data_down, e.tail_dch, e.tail_fach, e.promote, e.demote] {
                prop_assert!(part >= 0.0);
            }
        }

        /// Promotions and demotions stay balanced (every cycle closes),
        /// and the confusion matrix covers every gap exactly once.
        #[test]
        fn cycle_and_decision_conservation(
            gaps_ms in prop::collection::vec(1i64..30_000, 1..100),
            wait_ms in 0i64..10_000,
            carrier in 0usize..4,
        ) {
            let p = &carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);
            let r = run(p, &cfg, &t, &mut FixedWait::new(Duration::from_millis(wait_ms), "w"));
            let c = r.counters;
            // The trailing flush always demotes at the end, closing the
            // final cycle.
            prop_assert_eq!(c.promotions, c.demotions());
            // One decision per gap plus the trailing one.
            prop_assert_eq!(r.confusion.total(), gaps_ms.len() as u64 + 1);
        }

        /// Status-quo total energy equals the closed-form sum of E(gap)
        /// over tail gaps plus data and promotion terms — the engine agrees
        /// with the paper's Figure 5 model on every workload.
        #[test]
        fn status_quo_equals_closed_form(
            gaps_ms in prop::collection::vec(1i64..40_000, 1..80),
            carrier in 0usize..4,
        ) {
            let p = &carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);
            let r = run(p, &cfg, &t, &mut StatusQuo);

            let mut expect = p.e_promote; // first promotion
            let pkts = t.packets();
            for i in 1..pkts.len() {
                let gap = pkts[i].ts - pkts[i - 1].ts;
                if gap <= cfg.intra_burst_gap {
                    expect += p.p_data(pkts[i].dir) * gap.as_secs_f64();
                } else {
                    // gap_energy already includes the switch cycle for
                    // gaps that outlast the timers.
                    expect += p.gap_energy(gap);
                }
            }
            // Trailing flush: full tail + timer demotion.
            expect += p.hold_energy(p.tail_window()) + p.e_demote_timer();
            prop_assert!(
                (r.total_energy() - expect).abs() < 1e-6,
                "engine {} vs closed form {}",
                r.total_energy(),
                expect
            );
        }
    }
}
