//! The RRC state machine of Figure 2, as a deterministic event-driven
//! simulation component.
//!
//! One [`RrcMachine`] type covers both shapes in the paper:
//!
//! * **3G** (Fig. 2a): `Cell_DCH → Cell_FACH → {Cell_PCH, IDLE}`, driven by
//!   inactivity timers `t1` and `t2`. The paper folds `Cell_PCH` and `IDLE`
//!   into one "Idle" state because both are ≈0 power; so do we.
//! * **LTE** (Fig. 2b): `RRC_CONNECTED → RRC_IDLE` with a single timer —
//!   expressed here as `t2 = 0`, which removes the FACH state entirely.
//!
//! The machine is *pure*: it tracks state, applies timer expiries when told
//! to advance, and reports exactly where time went ([`Residence`]) and what
//! transitions fired ([`Transition`]). It never computes energy — that is
//! the engine's job (`tailwise-sim`), which keeps every policy measured by
//! one integrator.

use tailwise_trace::time::{Duration, Instant};

use crate::profile::CarrierProfile;

/// Radio state, following the paper's three-level abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrcState {
    /// Active: Cell_DCH (3G) or RRC_CONNECTED (LTE). Power `P_t1`.
    Dch,
    /// High-power idle: Cell_FACH. Power `P_t2`. Absent when `t2 = 0`.
    Fach,
    /// Idle: Cell_PCH / IDLE / RRC_IDLE. ≈0 W.
    Idle,
}

impl RrcState {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            RrcState::Dch => "DCH",
            RrcState::Fach => "FACH",
            RrcState::Idle => "IDLE",
        }
    }
}

/// Why a transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionCause {
    /// An inactivity timer expired (network-driven demotion).
    Timer,
    /// The device requested fast dormancy (policy-driven demotion, §2.2).
    FastDormancy,
    /// Data activity forced a promotion.
    Data,
}

/// A state transition record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When the transition fired.
    pub at: Instant,
    /// State before.
    pub from: RrcState,
    /// State after.
    pub to: RrcState,
    /// What triggered it.
    pub cause: TransitionCause,
}

/// Time spent in one state during an [`RrcMachine::advance`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residence {
    /// The state occupied.
    pub state: RrcState,
    /// How long it was occupied.
    pub dur: Duration,
}

/// Outcome of an [`RrcMachine::advance`]: at most three residences
/// (DCH → FACH → Idle) and two timer transitions, in order. Fixed-capacity
/// so advancing never allocates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Advance {
    residences: [Option<Residence>; 3],
    transitions: [Option<Transition>; 2],
}

impl Advance {
    fn push_residence(&mut self, state: RrcState, dur: Duration) {
        if dur.is_zero() {
            return;
        }
        for slot in &mut self.residences {
            if slot.is_none() {
                *slot = Some(Residence { state, dur });
                return;
            }
        }
        unreachable!("advance never produces more than three residences");
    }

    fn push_transition(&mut self, t: Transition) {
        for slot in &mut self.transitions {
            if slot.is_none() {
                *slot = Some(t);
                return;
            }
        }
        unreachable!("advance never produces more than two transitions");
    }

    /// The residences, in time order.
    pub fn residences(&self) -> impl Iterator<Item = Residence> + '_ {
        self.residences.iter().flatten().copied()
    }

    /// The timer transitions that fired, in time order.
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        self.transitions.iter().flatten().copied()
    }

    /// Total time covered by the residences.
    pub fn total(&self) -> Duration {
        self.residences().fold(Duration::ZERO, |acc, r| acc + r.dur)
    }
}

/// Cumulative transition counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionCounters {
    /// Idle → DCH promotions (each one costs `e_promote` and
    /// `promotion_delay`). This is the paper's "number of state switches"
    /// metric: one per demote→promote cycle.
    pub promotions: u64,
    /// FACH → DCH re-promotions (cheap, not counted as switches by the
    /// paper; tracked for completeness).
    pub fach_promotions: u64,
    /// DCH → FACH timer demotions.
    pub t1_demotions: u64,
    /// Demotions to Idle caused by timer expiry.
    pub timer_demotions: u64,
    /// Demotions to Idle caused by fast dormancy.
    pub fd_demotions: u64,
}

impl TransitionCounters {
    /// Total demotions to Idle, however caused.
    pub fn demotions(&self) -> u64 {
        self.timer_demotions + self.fd_demotions
    }
}

/// The deterministic RRC state machine.
#[derive(Debug, Clone)]
pub struct RrcMachine {
    t1: Duration,
    t2: Duration,
    state: RrcState,
    now: Instant,
    /// Time of the most recent data activity; timers measure from here.
    last_data: Instant,
    counters: TransitionCounters,
}

impl RrcMachine {
    /// Creates a machine in the Idle state at time `start`.
    pub fn new(profile: &CarrierProfile, start: Instant) -> RrcMachine {
        debug_assert!(profile.validate().is_ok());
        RrcMachine {
            t1: profile.t1,
            t2: profile.t2,
            state: RrcState::Idle,
            now: start,
            last_data: start,
            counters: TransitionCounters::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// Current machine time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Cumulative transition counters.
    pub fn counters(&self) -> TransitionCounters {
        self.counters
    }

    /// Whether the FACH state exists in this profile.
    fn has_fach(&self) -> bool {
        self.t2 > Duration::ZERO
    }

    /// Advances machine time to `to`, firing any timer demotions that fall
    /// in the interval, and reports where the time went.
    ///
    /// # Panics
    /// Panics (debug) if `to` precedes the current machine time.
    pub fn advance(&mut self, to: Instant) -> Advance {
        debug_assert!(to >= self.now, "advance must move forward: {} -> {}", self.now, to);
        let mut out = Advance::default();
        if to <= self.now {
            return out;
        }

        // DCH segment: until t1 expires (measured from last activity).
        if self.state == RrcState::Dch {
            let t1_expiry = self.last_data + self.t1;
            if to <= t1_expiry {
                out.push_residence(RrcState::Dch, to - self.now);
                self.now = to;
                return out;
            }
            out.push_residence(RrcState::Dch, t1_expiry - self.now);
            self.now = t1_expiry;
            if self.has_fach() {
                self.state = RrcState::Fach;
                self.counters.t1_demotions += 1;
                out.push_transition(Transition {
                    at: t1_expiry,
                    from: RrcState::Dch,
                    to: RrcState::Fach,
                    cause: TransitionCause::Timer,
                });
            } else {
                self.state = RrcState::Idle;
                self.counters.timer_demotions += 1;
                out.push_transition(Transition {
                    at: t1_expiry,
                    from: RrcState::Dch,
                    to: RrcState::Idle,
                    cause: TransitionCause::Timer,
                });
            }
        }

        // FACH segment: until t1 + t2 expires.
        if self.state == RrcState::Fach {
            let t2_expiry = self.last_data + self.t1 + self.t2;
            if to <= t2_expiry {
                out.push_residence(RrcState::Fach, to - self.now);
                self.now = to;
                return out;
            }
            out.push_residence(RrcState::Fach, t2_expiry - self.now);
            self.now = t2_expiry;
            self.state = RrcState::Idle;
            self.counters.timer_demotions += 1;
            out.push_transition(Transition {
                at: t2_expiry,
                from: RrcState::Fach,
                to: RrcState::Idle,
                cause: TransitionCause::Timer,
            });
        }

        // Idle segment: the rest.
        if self.state == RrcState::Idle && to > self.now {
            out.push_residence(RrcState::Idle, to - self.now);
            self.now = to;
        }
        out
    }

    /// Registers data activity at the current machine time, promoting the
    /// radio if necessary. Call [`advance`](Self::advance) to the packet
    /// time first.
    ///
    /// Returns the promotion transition if one fired (`Idle → DCH` costs
    /// `e_promote`/`promotion_delay`; `FACH → DCH` is modeled free, matching
    /// the paper's accounting).
    pub fn notify_data(&mut self, at: Instant) -> Option<Transition> {
        debug_assert_eq!(at, self.now, "advance() to the packet time before notify_data()");
        self.last_data = at;
        match self.state {
            RrcState::Dch => None,
            RrcState::Fach => {
                self.state = RrcState::Dch;
                self.counters.fach_promotions += 1;
                Some(Transition {
                    at,
                    from: RrcState::Fach,
                    to: RrcState::Dch,
                    cause: TransitionCause::Data,
                })
            }
            RrcState::Idle => {
                self.state = RrcState::Dch;
                self.counters.promotions += 1;
                Some(Transition {
                    at,
                    from: RrcState::Idle,
                    to: RrcState::Dch,
                    cause: TransitionCause::Data,
                })
            }
        }
    }

    /// Requests fast dormancy at the current machine time: demotes DCH or
    /// FACH straight to Idle (§2.2; we model the base station as always
    /// accepting, per the paper's simplification — configurable
    /// admission policies live in [`crate::admission`]).
    ///
    /// Returns the demotion transition, or `None` if the radio was already
    /// Idle (the request is idempotent).
    pub fn fast_dormancy(&mut self, at: Instant) -> Option<Transition> {
        debug_assert_eq!(at, self.now, "advance() to the decision time before fast_dormancy()");
        match self.state {
            RrcState::Idle => None,
            from @ (RrcState::Dch | RrcState::Fach) => {
                self.state = RrcState::Idle;
                self.counters.fd_demotions += 1;
                Some(Transition {
                    at,
                    from,
                    to: RrcState::Idle,
                    cause: TransitionCause::FastDormancy,
                })
            }
        }
    }

    /// Instant at which the next timer demotion will fire if no more data
    /// arrives, or `None` when already Idle.
    pub fn next_timer_expiry(&self) -> Option<Instant> {
        match self.state {
            RrcState::Dch => Some(self.last_data + self.t1),
            RrcState::Fach => Some(self.last_data + self.t1 + self.t2),
            RrcState::Idle => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn att() -> CarrierProfile {
        CarrierProfile::att_hspa()
    }

    fn secs(s: f64) -> Instant {
        Instant::from_secs_f64(s)
    }

    #[test]
    fn starts_idle() {
        let m = RrcMachine::new(&att(), Instant::ZERO);
        assert_eq!(m.state(), RrcState::Idle);
        assert_eq!(m.next_timer_expiry(), None);
    }

    #[test]
    fn first_data_promotes_from_idle() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.advance(secs(5.0));
        let tr = m.notify_data(secs(5.0)).expect("promotion expected");
        assert_eq!(tr.from, RrcState::Idle);
        assert_eq!(tr.to, RrcState::Dch);
        assert_eq!(tr.cause, TransitionCause::Data);
        assert_eq!(m.counters().promotions, 1);
        assert_eq!(m.state(), RrcState::Dch);
    }

    #[test]
    fn timer_cascade_matches_figure_2a() {
        // AT&T: t1 = 6.2, t2 = 10.4. From a packet at t=0, the radio should
        // be DCH until 6.2, FACH until 16.6, then Idle.
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        let adv = m.advance(secs(20.0));
        let res: Vec<Residence> = adv.residences().collect();
        assert_eq!(res.len(), 3);
        assert_eq!(res[0], Residence { state: RrcState::Dch, dur: Duration::from_secs_f64(6.2) });
        assert_eq!(res[1], Residence { state: RrcState::Fach, dur: Duration::from_secs_f64(10.4) });
        assert_eq!(res[2], Residence { state: RrcState::Idle, dur: Duration::from_secs_f64(3.4) });
        let trs: Vec<Transition> = adv.transitions().collect();
        assert_eq!(trs.len(), 2);
        assert_eq!((trs[0].from, trs[0].to), (RrcState::Dch, RrcState::Fach));
        assert_eq!(trs[0].at, secs(6.2));
        assert_eq!((trs[1].from, trs[1].to), (RrcState::Fach, RrcState::Idle));
        assert_eq!(trs[1].at, secs(16.6));
        assert_eq!(m.counters().t1_demotions, 1);
        assert_eq!(m.counters().timer_demotions, 1);
        assert_eq!(adv.total(), Duration::from_secs(20));
    }

    #[test]
    fn lte_skips_fach_entirely() {
        // Verizon LTE: t1 = 10.2, t2 = 0 → DCH demotes straight to Idle.
        let lte = CarrierProfile::verizon_lte();
        let mut m = RrcMachine::new(&lte, Instant::ZERO);
        m.notify_data(Instant::ZERO);
        let adv = m.advance(secs(15.0));
        let res: Vec<Residence> = adv.residences().collect();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].state, RrcState::Dch);
        assert_eq!(res[0].dur, Duration::from_secs_f64(10.2));
        assert_eq!(res[1].state, RrcState::Idle);
        let trs: Vec<Transition> = adv.transitions().collect();
        assert_eq!(trs.len(), 1);
        assert_eq!((trs[0].from, trs[0].to), (RrcState::Dch, RrcState::Idle));
        assert_eq!(m.counters().timer_demotions, 1);
        assert_eq!(m.counters().t1_demotions, 0);
    }

    #[test]
    fn data_resets_the_inactivity_timer() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        // 5 s later (before t1 = 6.2) more data arrives.
        let adv = m.advance(secs(5.0));
        assert_eq!(adv.transitions().count(), 0);
        assert_eq!(m.notify_data(secs(5.0)), None); // still DCH, no transition
                                                    // Timer now measures from t=5: DCH until 11.2.
        assert_eq!(m.next_timer_expiry(), Some(secs(11.2)));
        let adv = m.advance(secs(11.0));
        assert_eq!(m.state(), RrcState::Dch);
        assert_eq!(adv.transitions().count(), 0);
    }

    #[test]
    fn data_in_fach_repromotes_cheaply() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        m.advance(secs(8.0)); // inside FACH window (6.2..16.6)
        assert_eq!(m.state(), RrcState::Fach);
        let tr = m.notify_data(secs(8.0)).expect("FACH->DCH expected");
        assert_eq!((tr.from, tr.to), (RrcState::Fach, RrcState::Dch));
        assert_eq!(m.counters().fach_promotions, 1);
        // Only the initial Idle→DCH promotion counts as a switch cycle; the
        // FACH→DCH re-promotion does not.
        assert_eq!(m.counters().promotions, 1);
    }

    #[test]
    fn fast_dormancy_demotes_immediately() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        m.advance(secs(1.5));
        let tr = m.fast_dormancy(secs(1.5)).expect("demotion expected");
        assert_eq!((tr.from, tr.to), (RrcState::Dch, RrcState::Idle));
        assert_eq!(tr.cause, TransitionCause::FastDormancy);
        assert_eq!(m.counters().fd_demotions, 1);
        // Idempotent when already Idle.
        assert_eq!(m.fast_dormancy(secs(1.5)), None);
        assert_eq!(m.counters().fd_demotions, 1);
    }

    #[test]
    fn fast_dormancy_from_fach() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        m.advance(secs(7.0));
        assert_eq!(m.state(), RrcState::Fach);
        let tr = m.fast_dormancy(secs(7.0)).unwrap();
        assert_eq!(tr.from, RrcState::Fach);
        assert_eq!(m.state(), RrcState::Idle);
    }

    #[test]
    fn advance_to_exact_expiry_boundary() {
        // Advancing exactly to the t1 expiry leaves the machine in DCH
        // (timers are "no activity for t1 seconds", i.e. strict).
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        let adv = m.advance(secs(6.2));
        assert_eq!(m.state(), RrcState::Dch);
        assert_eq!(adv.transitions().count(), 0);
        // The next microsecond tips it over.
        let adv = m.advance(secs(6.2) + Duration::from_micros(1));
        assert_eq!(m.state(), RrcState::Fach);
        assert_eq!(adv.transitions().count(), 1);
    }

    #[test]
    fn residences_always_cover_the_advance_interval() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        let mut t = Instant::ZERO;
        let steps = [0.5, 3.0, 6.3, 10.0, 20.0, 20.5, 40.0];
        for (i, s) in steps.iter().enumerate() {
            let to = secs(*s);
            let adv = m.advance(to);
            assert_eq!(adv.total(), to - t, "step {i}");
            t = to;
        }
    }

    #[test]
    fn full_cycle_counts_one_switch() {
        let mut m = RrcMachine::new(&att(), Instant::ZERO);
        m.notify_data(Instant::ZERO);
        m.advance(secs(1.0));
        m.fast_dormancy(secs(1.0));
        m.advance(secs(30.0));
        m.notify_data(secs(30.0));
        let c = m.counters();
        assert_eq!(c.promotions, 2); // initial + re-promotion
        assert_eq!(c.fd_demotions, 1);
        assert_eq!(c.demotions(), 1);
    }

    #[test]
    fn zero_length_advance_is_a_noop() {
        let mut m = RrcMachine::new(&att(), secs(1.0));
        let adv = m.advance(secs(1.0));
        assert_eq!(adv.residences().count(), 0);
        assert_eq!(adv.total(), Duration::ZERO);
    }

    #[test]
    fn verizon_3g_t2_zero_behaves_like_lte_shape() {
        let v = CarrierProfile::verizon_3g();
        let mut m = RrcMachine::new(&v, Instant::ZERO);
        m.notify_data(Instant::ZERO);
        m.advance(secs(12.0)); // t1 = 9.8
        assert_eq!(m.state(), RrcState::Idle);
        assert_eq!(m.counters().t1_demotions, 0);
        assert_eq!(m.counters().timer_demotions, 1);
    }
}
