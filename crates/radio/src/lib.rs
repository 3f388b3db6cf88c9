//! # tailwise-radio
//!
//! The 3G/LTE radio substrate of the tailwise reproduction of *"Traffic-Aware
//! Techniques to Reduce 3G/LTE Wireless Energy Consumption"* (Deng &
//! Balakrishnan, CoNEXT 2012): everything §2 of the paper measures or
//! standardizes, as deterministic simulation components.
//!
//! * [`profile`] — carrier parameter sets (Table 2 + §2.1) and the
//!   piecewise tail-energy model `E(t)` of §4.1, including the derived
//!   `t_threshold`;
//! * [`rrc`] — the Figure 2 RRC state machines (3G three-state, LTE
//!   two-state) with inactivity timers and fast dormancy;
//! * [`energy`] — the single energy integrator every scheme is measured by,
//!   decomposed per Figure 1;
//! * [`admission`] — network-side admission of fast-dormancy requests
//!   (always-accept per the paper, plus rate-limited and load-reactive
//!   policies for the §8 future-work questions);
//! * [`signaling`] — switch-cycle and message-level signaling accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod energy;
pub mod profile;
pub mod rrc;
pub mod signaling;

pub use admission::{AdmissionPolicy, AlwaysAccept, LoadReactive, RateLimited};
pub use energy::{EnergyBreakdown, EnergyMeter};
pub use profile::{CarrierProfile, RadioTech};
pub use rrc::{
    Advance, Residence, RrcMachine, RrcState, Transition, TransitionCause, TransitionCounters,
};
pub use signaling::{SignalingBudget, SignalingModel};

#[cfg(test)]
mod proptests {
    //! Property-based invariants of the radio substrate.

    use proptest::prelude::*;
    use tailwise_trace::time::{Duration, Instant};

    use crate::profile::CarrierProfile;
    use crate::rrc::{RrcMachine, RrcState};

    fn carriers() -> Vec<CarrierProfile> {
        CarrierProfile::all_presets()
    }

    proptest! {
        #[test]
        fn gap_energy_monotone_for_all_presets(
            a_ms in 0i64..60_000,
            b_ms in 0i64..60_000,
            carrier in 0usize..6,
        ) {
            let p = &carriers()[carrier];
            let (lo, hi) = if a_ms <= b_ms { (a_ms, b_ms) } else { (b_ms, a_ms) };
            let e_lo = p.gap_energy(Duration::from_millis(lo));
            let e_hi = p.gap_energy(Duration::from_millis(hi));
            prop_assert!(e_hi + 1e-12 >= e_lo);
        }

        #[test]
        fn hold_energy_never_exceeds_gap_energy(
            t_ms in 0i64..60_000,
            carrier in 0usize..6,
        ) {
            let p = &carriers()[carrier];
            let d = Duration::from_millis(t_ms);
            prop_assert!(p.hold_energy(d) <= p.gap_energy(d) + 1e-12);
        }

        #[test]
        fn threshold_separates_hold_from_switch(
            t_ms in 1i64..60_000,
            carrier in 0usize..6,
        ) {
            // Defining property of t_threshold: switching beats holding
            // exactly for gaps above it (within the timer window).
            let p = &carriers()[carrier];
            let d = Duration::from_millis(t_ms);
            let th = p.t_threshold();
            if d < th {
                prop_assert!(p.gap_energy(d) <= p.e_switch() + 1e-9);
            } else if d > th && d <= p.tail_window() {
                prop_assert!(p.gap_energy(d) + 1e-9 >= p.e_switch());
            }
        }

        #[test]
        fn machine_residences_cover_time_exactly(
            gaps_ms in prop::collection::vec(1i64..40_000, 1..60),
            carrier in 0usize..6,
        ) {
            // Random packet schedule: residences from advance() must tile
            // the timeline with no gaps or overlaps, for every preset.
            let p = &carriers()[carrier];
            let mut m = RrcMachine::new(p, Instant::ZERO);
            let mut now = Instant::ZERO;
            let mut covered = Duration::ZERO;
            m.notify_data(now);
            for g in gaps_ms {
                let next = now + Duration::from_millis(g);
                let adv = m.advance(next);
                covered += adv.total();
                m.notify_data(next);
                now = next;
            }
            prop_assert_eq!(covered, now - Instant::ZERO);
        }

        #[test]
        fn machine_state_is_a_function_of_silence(
            gap_ms in 1i64..60_000,
            carrier in 0usize..6,
        ) {
            // After a single packet and `gap` of silence the state is fully
            // determined by the timers.
            let p = &carriers()[carrier];
            let mut m = RrcMachine::new(p, Instant::ZERO);
            m.notify_data(Instant::ZERO);
            let gap = Duration::from_millis(gap_ms);
            m.advance(Instant::ZERO + gap);
            let expect = if gap <= p.t1 {
                RrcState::Dch
            } else if gap <= p.t1 + p.t2 {
                RrcState::Fach
            } else {
                RrcState::Idle
            };
            prop_assert_eq!(m.state(), expect);
        }

        #[test]
        fn promotions_equal_idle_departures(
            gaps_ms in prop::collection::vec(1i64..50_000, 1..80),
            carrier in 0usize..6,
        ) {
            // Every promotion leaves Idle; every demotion enters it. The two
            // counts can differ by at most one (the final state).
            let p = &carriers()[carrier];
            let mut m = RrcMachine::new(p, Instant::ZERO);
            let mut now = Instant::ZERO;
            m.notify_data(now);
            for g in gaps_ms {
                now += Duration::from_millis(g);
                m.advance(now);
                m.notify_data(now);
            }
            let c = m.counters();
            let demotions = c.demotions();
            prop_assert!(c.promotions >= demotions);
            prop_assert!(c.promotions - demotions <= 1);
        }
    }
}
