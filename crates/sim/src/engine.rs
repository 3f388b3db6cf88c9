//! The trace-driven simulation engine (§6.1's methodology, generalized).
//!
//! One pass over a packet trace, against one carrier profile and one
//! [`IdlePolicy`]. For every inter-packet gap the engine:
//!
//! 1. asks the policy how long it would wait before requesting fast
//!    dormancy (the decision may not inspect the future);
//! 2. plays the gap forward on the [`RrcMachine`], applying the demotion if
//!    the gap outlasts the chosen wait and the base station grants the
//!    request;
//! 3. charges every joule to the shared [`EnergyMeter`]: intra-burst gaps
//!    (≤ `intra_burst_gap`) at the direction's bulk power (the paper's
//!    per-second data model), tail time at the state powers, and switch
//!    events at the profile's switch energies;
//! 4. scores the decision against the Oracle rule (`gap > t_threshold`)
//!    for the §6.3 false/missed switch rates.
//!
//! The engine is deterministic: same trace, profile and policies ⇒ the
//! same report, bit for bit.
//!
//! Steps 2 and 3 do not depend on how a request was decided, only on
//! when it was sent and whether it was granted. The phase-2 replay of
//! [`crate::twophase`] walks the same gaps through the same accounting,
//! with recorded requests in place of the policy.

use tailwise_radio::energy::EnergyMeter;
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::rrc::{RrcMachine, RrcState, Transition, TransitionCause};
use tailwise_trace::packet::Packet;
use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::time::{Duration, Instant};
use tailwise_trace::Trace;

use crate::metrics::Confusion;
use crate::policy::{IdleContext, IdleDecision, IdlePolicy};
use crate::report::SimReport;

/// Maximum decision-log entries a run keeps (`record_decisions`).
pub const DECISION_LOG_LIMIT: usize = 200_000;

/// Maximum power-timeline segments a run keeps (`record_timeline`).
pub const TIMELINE_LIMIT: usize = 200_000;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Gaps at or below this are charged as data transfer at bulk power;
    /// longer gaps are tail time owned by the RRC policy. Must stay below
    /// every profile's `t1` (default 0.5 s), so that no timer can expire
    /// inside a gap charged as data; [`SimConfig::validate`] enforces it.
    pub intra_burst_gap: Duration,
    /// Capacity of the inter-arrival sliding window handed to policies
    /// (the paper's n; default 100, swept in Fig. 13).
    pub window_capacity: usize,
    /// Record per-gap `(time, wait)` decisions (Fig. 14). Bounded by
    /// [`DECISION_LOG_LIMIT`].
    pub record_decisions: bool,
    /// Record the power timeline (Fig. 3). Bounded by [`TIMELINE_LIMIT`].
    pub record_timeline: bool,
    /// Record every RRC transition with its timestamp (used by the
    /// cell-level signaling analysis). Bounded by `transition_log_limit`.
    pub record_transitions: bool,
    /// Maximum transition-log entries kept.
    pub transition_log_limit: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            intra_burst_gap: Duration::from_millis(500),
            window_capacity: 100,
            record_decisions: false,
            record_timeline: false,
            record_transitions: false,
            transition_log_limit: 2_000_000,
        }
    }
}

impl SimConfig {
    /// Checks config consistency against a profile.
    pub fn validate(&self, profile: &CarrierProfile) -> Result<(), String> {
        if self.window_capacity == 0 {
            return Err("window_capacity must be at least 1".into());
        }
        if self.intra_burst_gap <= Duration::ZERO {
            return Err("intra_burst_gap must be positive".into());
        }
        if self.intra_burst_gap >= profile.t1 {
            return Err(format!(
                "intra_burst_gap ({}) must stay below the profile's t1 ({}) so data time \
                 cannot hide timer expiries",
                self.intra_burst_gap, profile.t1
            ));
        }
        Ok(())
    }
}

/// One piece of the power timeline (Fig. 3): constant draw over an
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// Segment start.
    pub start: Instant,
    /// Segment end.
    pub end: Instant,
    /// Power drawn over the segment, W.
    pub power: f64,
    /// What the radio was doing.
    pub kind: SegmentKind,
}

/// Classification of a power-timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Transmitting or receiving data.
    Data,
    /// Tail residence in DCH / RRC_CONNECTED.
    TailDch,
    /// Tail residence in FACH.
    TailFach,
    /// Idle (≈0 W).
    Idle,
    /// Promotion (switch energy spread over the promotion delay).
    Promotion,
}

/// Runs `idle_policy` over `trace`, with the base station granting the
/// fast-dormancy request sent at `at` iff `grant(at)`, in request order.
///
/// Use [`run`] for the paper's always-accept assumption. This lock-step
/// form is the reference the two-phase replay of [`crate::twophase`] is
/// held to.
pub fn run_with_release(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    idle_policy: &mut dyn IdlePolicy,
    mut grant: impl FnMut(Instant) -> bool,
) -> SimReport {
    check_inputs(profile, config);
    let scheme = idle_policy.name();
    let mut rule = RequestRule::new(profile, config, idle_policy);
    let mut decisions: Vec<(Instant, Duration)> = Vec::new();
    let mut report = walk(profile, config, trace, scheme, |gap| {
        // Only the decision log needs the chosen wait of a gap that
        // does not demote.
        let request = if config.record_decisions {
            let (decision, request) = rule.decide(gap);
            if let IdleDecision::DemoteAfter(w) = decision {
                if decisions.len() < DECISION_LOG_LIMIT && gap.len > config.intra_burst_gap {
                    decisions.push((gap.start, w));
                }
            }
            request
        } else {
            rule.request(gap)
        };
        request.map(|at| (at, grant(at)))
    });
    report.confusion = rule.confusion;
    report.decisions = config.record_decisions.then_some(decisions);
    report
}

/// Runs with the paper's always-accept fast-dormancy assumption (§2.2).
pub fn run(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    idle_policy: &mut dyn IdlePolicy,
) -> SimReport {
    run_with_release(profile, config, trace, idle_policy, |_| true)
}

/// Panics on an invalid profile or config, before any run starts.
pub(crate) fn check_inputs(profile: &CarrierProfile, config: &SimConfig) {
    profile.validate().expect("invalid carrier profile");
    config.validate(profile).expect("invalid simulation config");
}

/// One inter-packet gap, as the engine walks it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gap {
    /// Arrival of the packet that opens the gap.
    pub(crate) start: Instant,
    /// The silence until the next packet: [`Duration::FOREVER`] after
    /// the last one.
    pub(crate) len: Duration,
    /// Where the walk ends the gap: the next packet's arrival or, after
    /// the last packet, just past the tail window, which flushes the
    /// tail so short traces account their last cycle fully.
    pub(crate) end: Instant,
    /// True only for the synthetic gap after the last packet, which no
    /// packet closes.
    pub(crate) last: bool,
}

impl Gap {
    /// The gap after packet `i` of `pkts`.
    pub(crate) fn after(pkts: &[Packet], i: usize, tail_window: Duration) -> Gap {
        let start = pkts[i].ts;
        match pkts.get(i + 1) {
            Some(next) => Gap { start, len: next.ts - start, end: next.ts, last: false },
            None => Gap {
                start,
                len: Duration::FOREVER,
                end: start + tail_window + Duration::from_micros(1),
                last: true,
            },
        }
    }
}

/// The device's request rule, gap by gap: after the packet that opens a
/// gap, ask the policy whether the gap demotes and after which wait
/// `w`, and request fast dormancy at `start + w` iff it does and `w` is
/// inside the tail window (a request is only worth sending while the
/// timers still have the radio up). The lock-step engine and phase-1
/// extraction ([`record_requests`](crate::twophase::record_requests))
/// both decide through it, which is what keeps their request streams
/// identical.
///
/// [`request`](Self::request) asks the policy's narrower
/// [`IdlePolicy::demotion`]; [`decide`](Self::decide) asks
/// [`IdlePolicy::decide`] for the chosen wait as well, which only the
/// decision log reads. Both record the same confusion entry, push the
/// same window sample and send the same request.
pub(crate) struct RequestRule<'a> {
    profile: &'a CarrierProfile,
    policy: &'a mut dyn IdlePolicy,
    window: SlidingWindow,
    maintain_window: bool,
    threshold: Duration,
    tail_window: Duration,
    /// Every decision so far, scored against the Oracle rule (§6.3).
    pub(crate) confusion: Confusion,
}

impl<'a> RequestRule<'a> {
    pub(crate) fn new(
        profile: &'a CarrierProfile,
        config: &SimConfig,
        policy: &'a mut dyn IdlePolicy,
    ) -> RequestRule<'a> {
        RequestRule {
            profile,
            maintain_window: policy.uses_window(),
            policy,
            window: SlidingWindow::new(config.window_capacity),
            threshold: profile.t_threshold(),
            tail_window: profile.tail_window(),
            confusion: Confusion::default(),
        }
    }

    /// Decides `gap` and returns the request instant, if the device
    /// sends one.
    pub(crate) fn request(&mut self, gap: Gap) -> Option<Instant> {
        let ctx = IdleContext { profile: self.profile, window: &self.window, now: gap.start };
        let demotion = self.policy.demotion(&ctx, gap.len);
        self.settle(gap, demotion)
    }

    /// Decides `gap` as [`request`](Self::request) does, and also
    /// returns the policy's full decision.
    pub(crate) fn decide(&mut self, gap: Gap) -> (IdleDecision, Option<Instant>) {
        let ctx = IdleContext { profile: self.profile, window: &self.window, now: gap.start };
        let decision = self.policy.decide(&ctx, gap.len);
        (decision, self.settle(gap, decision.demotion(gap.len)))
    }

    /// Scores the gap's `demotion` and lets the window learn the gap;
    /// returns the request instant. The policy decides before the
    /// window learns the gap; the synthetic last gap is never learned.
    fn settle(&mut self, gap: Gap, demotion: Option<Duration>) -> Option<Instant> {
        self.confusion.record(demotion.is_some(), gap.len > self.threshold);
        if self.maintain_window && !gap.last {
            self.window.push(gap.len);
        }
        demotion.filter(|&w| w < self.tail_window).map(|w| gap.start + w)
    }
}

/// Plays `trace` forward on the RRC machine and the energy meter, gap
/// by gap. `request` names each gap's fast-dormancy request, if any,
/// with the base station's verdict on it; a granted request demotes
/// the radio at its instant, and a denied one changes nothing but the
/// `denied_fd` count — the gap then plays out exactly as if no request
/// had been sent.
///
/// The walk leaves `confusion` and `decisions` at their defaults: they
/// belong to whoever decided the requests.
pub(crate) fn walk(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    scheme: String,
    mut request: impl FnMut(Gap) -> Option<(Instant, bool)>,
) -> SimReport {
    let mut report = SimReport::new(scheme, profile.name.to_string());
    let pkts = trace.packets();
    report.packets = pkts.len();
    report.span = trace.span();
    if pkts.is_empty() {
        return report;
    }

    let mut meter = EnergyMeter::new(profile.clone());
    let mut machine = RrcMachine::new(profile, pkts[0].ts);
    let mut timeline: Vec<PowerSegment> = Vec::new();
    let mut transitions: Vec<Transition> = Vec::new();
    let tail_window = profile.tail_window();

    // First packet: the radio promotes out of Idle.
    handle_packet_arrival(
        &mut machine,
        &mut meter,
        &mut report,
        profile,
        pkts[0].ts,
        /*gap_for_latency=*/ Duration::FOREVER,
        tail_window,
        config,
        &mut timeline,
        &mut transitions,
    );

    for i in 1..=pkts.len() {
        let gap = Gap::after(pkts, i - 1, tail_window);
        let demote_at = match request(gap) {
            Some((at, true)) => Some(at),
            Some((_, false)) => {
                report.denied_fd += 1;
                None
            }
            None => None,
        };
        if let Some(demote_at) = demote_at {
            // The synthetic trailing gap ends at the tail-window flush,
            // which a long policy wait can overshoot; never run backwards.
            let next_ts = gap.end.max(demote_at);
            charge_advance(
                &mut machine,
                &mut meter,
                demote_at,
                config,
                &mut timeline,
                &mut transitions,
            );
            let tr = machine
                .fast_dormancy(demote_at)
                .expect("wait below the tail window, radio must still be up");
            meter.add_fd_demotion();
            record_transition(&mut transitions, config, tr);
            // Remainder of the gap is spent Idle.
            charge_advance(
                &mut machine,
                &mut meter,
                next_ts,
                config,
                &mut timeline,
                &mut transitions,
            );
        } else if gap.len <= config.intra_burst_gap {
            // Intra-burst: data energy at bulk power for the packet that
            // closes the gap (§6.1's per-second model). Timers cannot fire
            // inside a data gap (intra_burst_gap < t1, validated).
            let adv = machine.advance(gap.end);
            debug_assert_eq!(adv.transitions().count(), 0);
            meter.add_data(pkts[i].dir, gap.len);
            push_segment(
                &mut timeline,
                config,
                gap.start,
                gap.end,
                profile.p_data(pkts[i].dir),
                SegmentKind::Data,
            );
        } else {
            charge_advance(
                &mut machine,
                &mut meter,
                gap.end,
                config,
                &mut timeline,
                &mut transitions,
            );
        }

        // Next packet arrives (skipped for the synthetic trailing gap).
        if !gap.last {
            handle_packet_arrival(
                &mut machine,
                &mut meter,
                &mut report,
                profile,
                gap.end,
                gap.len,
                tail_window,
                config,
                &mut timeline,
                &mut transitions,
            );
        }
    }

    report.energy = meter.breakdown();
    report.counters = machine.counters();
    report.timeline = config.record_timeline.then_some(timeline);
    report.transitions = config.record_transitions.then_some(transitions);
    report
}

/// Advances the machine to `to`, charging residences and timer-demotion
/// energy, and recording timeline segments.
fn charge_advance(
    machine: &mut RrcMachine,
    meter: &mut EnergyMeter,
    to: Instant,
    config: &SimConfig,
    timeline: &mut Vec<PowerSegment>,
    transitions: &mut Vec<Transition>,
) {
    let mut cursor = machine.now();
    let adv = machine.advance(to);
    for r in adv.residences() {
        meter.add_residence(r);
        let (power, kind) = match r.state {
            RrcState::Dch => (meter.profile().p_dch, SegmentKind::TailDch),
            RrcState::Fach => (meter.profile().p_fach, SegmentKind::TailFach),
            RrcState::Idle => (0.0, SegmentKind::Idle),
        };
        push_segment(timeline, config, cursor, cursor + r.dur, power, kind);
        cursor += r.dur;
    }
    for t in adv.transitions() {
        if t.cause == TransitionCause::Timer && t.to == RrcState::Idle {
            meter.add_timer_demotion();
        }
        record_transition(transitions, config, t);
    }
}

/// Appends to the transition log if recording is on and under the cap.
fn record_transition(transitions: &mut Vec<Transition>, config: &SimConfig, t: Transition) {
    if config.record_transitions && transitions.len() < config.transition_log_limit {
        transitions.push(t);
    }
}

/// Handles a packet arriving at `at`: promotion accounting and the
/// policy-added-latency bookkeeping.
#[allow(clippy::too_many_arguments)]
fn handle_packet_arrival(
    machine: &mut RrcMachine,
    meter: &mut EnergyMeter,
    report: &mut SimReport,
    profile: &CarrierProfile,
    at: Instant,
    preceding_gap: Duration,
    tail_window: Duration,
    config: &SimConfig,
    timeline: &mut Vec<PowerSegment>,
    transitions: &mut Vec<Transition>,
) {
    if let Some(tr) = machine.notify_data(at) {
        record_transition(transitions, config, tr);
        if tr.from == RrcState::Idle {
            meter.add_promotion();
            // A promotion inside the status-quo tail window exists only
            // because the policy demoted early: the promotion delay it
            // imposes is policy-added latency.
            if preceding_gap <= tail_window {
                report.premature_promotions += 1;
            }
            push_segment(
                timeline,
                config,
                at,
                at + profile.promotion_delay,
                if profile.promotion_delay > Duration::ZERO {
                    profile.e_promote / profile.promotion_delay.as_secs_f64()
                } else {
                    0.0
                },
                SegmentKind::Promotion,
            );
        }
    }
}

fn push_segment(
    timeline: &mut Vec<PowerSegment>,
    config: &SimConfig,
    start: Instant,
    end: Instant,
    power: f64,
    kind: SegmentKind,
) {
    if !config.record_timeline || timeline.len() >= TIMELINE_LIMIT || end <= start {
        return;
    }
    timeline.push(PowerSegment { start, end, power, kind });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedWait, StatusQuo};
    use tailwise_trace::packet::{Direction, Packet};

    fn att() -> CarrierProfile {
        CarrierProfile::att_hspa()
    }

    fn trace_at_secs(secs: &[f64]) -> Trace {
        Trace::from_sorted(
            secs.iter()
                .map(|&s| Packet::new(Instant::from_secs_f64(s), Direction::Down, 1000))
                .collect(),
        )
        .unwrap()
    }

    /// Status-quo energy of a two-packet trace must equal the closed-form
    /// E(gap) plus the data/promotion bookkeeping shared by every scheme.
    #[test]
    fn status_quo_matches_closed_form_gap_energy() {
        let p = att();
        let cfg = SimConfig::default();
        for gap_s in [1.0, 3.0, 8.0, 16.6, 20.0, 120.0] {
            let t = trace_at_secs(&[0.0, gap_s]);
            let r = run(&p, &cfg, &t, &mut StatusQuo);
            // Components: initial promotion + E(gap) [tail + possible cycle]
            // + trailing flush (full tail + timer demotion).
            let trailing = p.hold_energy(p.tail_window()) + p.e_demote_timer();
            let expect = p.e_promote + p.gap_energy(Duration::from_secs_f64(gap_s)) + trailing;
            assert!(
                (r.energy.total() - expect).abs() < 1e-6,
                "gap {gap_s}: got {} expected {expect}",
                r.energy.total()
            );
        }
    }

    #[test]
    fn oracle_style_immediate_demotion_costs_one_switch() {
        let p = att();
        let cfg = SimConfig::default();
        let t = trace_at_secs(&[0.0, 30.0]);
        // Demote immediately after every packet.
        let mut pol = FixedWait::new(Duration::ZERO, "immediate");
        let r = run(&p, &cfg, &t, &mut pol);
        // promotion + FD demote + promotion + FD demote (trailing flush).
        let expect = 2.0 * (p.e_promote + p.e_demote_fd());
        assert!((r.energy.total() - expect).abs() < 1e-9, "got {}", r.energy.total());
        assert_eq!(r.counters.promotions, 2);
        assert_eq!(r.counters.fd_demotions, 2);
        assert_eq!(r.counters.timer_demotions, 0);
    }

    #[test]
    fn proactive_beats_status_quo_on_long_gaps() {
        let p = att();
        let cfg = SimConfig::default();
        // Heartbeat-ish: packets every 30 s — the classic tail-energy hog.
        let secs: Vec<f64> = (0..40).map(|i| i as f64 * 30.0).collect();
        let t = trace_at_secs(&secs);
        let base = run(&p, &cfg, &t, &mut StatusQuo);
        let mut pol = FixedWait::new(Duration::from_millis(1500), "1.5s");
        let r = run(&p, &cfg, &t, &mut pol);
        assert!(
            r.energy.total() < base.energy.total() * 0.5,
            "{} vs {}",
            r.energy.total(),
            base.energy.total()
        );
        assert!(r.savings_vs(&base) > 50.0);
    }

    #[test]
    fn proactive_loses_on_short_gaps() {
        let p = att();
        let cfg = SimConfig::default();
        // Gaps of 1 s: below t_threshold (1.2 s), demoting wastes energy.
        // Long enough that the per-gap waste dominates the one-off trailing
        // tail flush that every run pays.
        let secs: Vec<f64> = (0..500).map(|i| i as f64 * 1.0).collect();
        let t = trace_at_secs(&secs);
        let base = run(&p, &cfg, &t, &mut StatusQuo);
        let mut eager = FixedWait::new(Duration::from_millis(10), "eager");
        let r = run(&p, &cfg, &t, &mut eager);
        assert!(r.energy.total() > base.energy.total());
        assert!(r.savings_vs(&base) < 0.0);
        // And it thrashes the signaling plane.
        assert!(r.counters.promotions > base.counters.promotions * 10);
    }

    #[test]
    fn intra_burst_gaps_charge_data_energy() {
        let p = att();
        let cfg = SimConfig::default();
        // 10 packets 100 ms apart: one burst, all data.
        let secs: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let t = trace_at_secs(&secs);
        let r = run(&p, &cfg, &t, &mut StatusQuo);
        let expect_data = 9.0 * 0.1 * p.p_recv;
        assert!((r.energy.data_down - expect_data).abs() < 1e-9);
        assert_eq!(r.energy.data_up, 0.0);
        // Exactly one promotion, and the trailing tail flush.
        assert_eq!(r.counters.promotions, 1);
        assert!(r.energy.tail() > 0.0);
    }

    #[test]
    fn confusion_matrix_against_oracle_rule() {
        let p = att(); // threshold 1.2 s
        let cfg = SimConfig::default();
        // Gaps: 0.5 (short), 10 (long), 0.8 (short), 30 (long) + trailing ∞.
        let t = trace_at_secs(&[0.0, 0.5, 10.5, 11.3, 41.3]);
        // Policy waits 2 s: demotes only on gaps > 2 s (the two long ones
        // plus the trailing flush).
        let mut pol = FixedWait::new(Duration::from_secs(2), "2s");
        let r = run(&p, &cfg, &t, &mut pol);
        assert_eq!(r.confusion.tp, 3); // 10, 30, trailing
        assert_eq!(r.confusion.tn, 2); // 0.5, 0.8
        assert_eq!(r.confusion.fp, 0);
        assert_eq!(r.confusion.fn_, 0);
        // An always-on policy misses every long gap.
        let r = run(&p, &cfg, &t, &mut StatusQuo);
        assert_eq!(r.confusion.fn_, 3);
        assert_eq!(r.confusion.missed_switch_rate(), 1.0);
        // A hair-trigger policy false-switches on the short gaps.
        let mut eager = FixedWait::new(Duration::from_millis(100), "eager");
        let r = run(&p, &cfg, &t, &mut eager);
        assert_eq!(r.confusion.fp, 2);
        assert_eq!(r.confusion.false_switch_rate(), 1.0);
    }

    #[test]
    fn denied_fast_dormancy_falls_back_to_timers() {
        let p = att();
        let cfg = SimConfig::default();
        let t = trace_at_secs(&[0.0, 30.0]);
        let mut pol = FixedWait::new(Duration::ZERO, "immediate");
        let accepted = run(&p, &cfg, &t, &mut pol);
        let mut pol = FixedWait::new(Duration::ZERO, "immediate");
        let denied = run_with_release(&p, &cfg, &t, &mut pol, |_| false);
        assert_eq!(denied.denied_fd, 2);
        assert_eq!(denied.counters.fd_demotions, 0);
        // With every request denied the energy reverts to status quo.
        let base = run(&p, &cfg, &t, &mut StatusQuo);
        assert!((denied.energy.total() - base.energy.total()).abs() < 1e-9);
        assert!(accepted.energy.total() < denied.energy.total());
    }

    #[test]
    fn premature_promotions_are_counted() {
        let p = att();
        let cfg = SimConfig::default();
        // Gap of 3 s: inside the 16.6 s status-quo tail, so a promotion
        // after an eager demote is policy-added latency.
        let t = trace_at_secs(&[0.0, 3.0]);
        let mut eager = FixedWait::new(Duration::from_millis(100), "eager");
        let r = run(&p, &cfg, &t, &mut eager);
        assert_eq!(r.premature_promotions, 1);
        let base = run(&p, &cfg, &t, &mut StatusQuo);
        assert_eq!(base.premature_promotions, 0);
    }

    #[test]
    fn decision_log_records_waits() {
        let p = att();
        let cfg = SimConfig { record_decisions: true, ..Default::default() };
        let t = trace_at_secs(&[0.0, 5.0, 10.0]);
        let mut pol = FixedWait::new(Duration::from_secs(2), "2s");
        let r = run(&p, &cfg, &t, &mut pol);
        let d = r.decisions.as_ref().unwrap();
        assert_eq!(d.len(), 3); // two real gaps + trailing
        assert!(d.iter().all(|&(_, w)| w == Duration::from_secs(2)));
    }

    #[test]
    fn timeline_segments_tile_the_trace() {
        let p = att();
        let cfg = SimConfig { record_timeline: true, ..Default::default() };
        let t = trace_at_secs(&[0.0, 0.2, 8.0, 40.0]);
        let r = run(&p, &cfg, &t, &mut StatusQuo);
        let tl = r.timeline.as_ref().unwrap();
        assert!(!tl.is_empty());
        // Non-promotion segments must be contiguous and non-overlapping.
        let mut cursor = Instant::ZERO;
        for s in tl.iter().filter(|s| s.kind != SegmentKind::Promotion) {
            assert_eq!(s.start, cursor, "segment gap at {cursor}");
            assert!(s.end > s.start);
            cursor = s.end;
        }
        // Total timeline energy matches the meter, minus demotions (which
        // are instantaneous impulses the timeline cannot depict).
        let tl_energy: f64 = tl.iter().map(|s| s.power * (s.end - s.start).as_secs_f64()).sum();
        assert!((tl_energy - (r.energy.total() - r.energy.demote)).abs() < 1e-6);
    }

    #[test]
    fn empty_and_single_packet_traces() {
        let p = att();
        let cfg = SimConfig::default();
        let empty = run(&p, &cfg, &Trace::new(), &mut StatusQuo);
        assert_eq!(empty.energy.total(), 0.0);
        assert_eq!(empty.packets, 0);

        let single = run(&p, &cfg, &trace_at_secs(&[0.0]), &mut StatusQuo);
        // Promotion + full tail + timer demotion (trailing flush).
        let expect = p.e_promote + p.hold_energy(p.tail_window()) + p.e_demote_timer();
        assert!((single.energy.total() - expect).abs() < 1e-9);
        assert_eq!(single.counters.promotions, 1);
    }

    #[test]
    fn engine_is_deterministic() {
        let p = att();
        let cfg = SimConfig::default();
        let secs: Vec<f64> = (0..200).map(|i| (i as f64) * 1.7 % 97.0).collect();
        let mut sorted = secs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let t = trace_at_secs(&sorted);
        let a = run(&p, &cfg, &t, &mut FixedWait::new(Duration::from_secs(1), "x"));
        let b = run(&p, &cfg, &t, &mut FixedWait::new(Duration::from_secs(1), "x"));
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.confusion, b.confusion);
    }

    #[test]
    fn config_validation_rejects_bad_combos() {
        let p = att();
        let cfg = SimConfig { window_capacity: 0, ..Default::default() };
        assert!(cfg.validate(&p).is_err());
        // intra_burst_gap above t1 = 6.2 s would hide timer expiries.
        let cfg = SimConfig { intra_burst_gap: Duration::from_secs(10), ..Default::default() };
        assert!(cfg.validate(&p).is_err());
        assert!(SimConfig::default().validate(&p).is_ok());
    }
}
