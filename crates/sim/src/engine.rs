//! The trace-driven simulation engine (§6.1's methodology, generalized).
//!
//! One pass over a packet trace, against one carrier profile and one
//! [`IdlePolicy`]. For every inter-packet gap the engine:
//!
//! 1. asks the policy how long it would wait before requesting fast
//!    dormancy (the decision may not inspect the future);
//! 2. plays the gap forward on the [`RrcMachine`], applying the demotion if
//!    the gap outlasts the chosen wait and the base station's
//!    [`ReleasePolicy`] accepts;
//! 3. charges every joule to the shared [`EnergyMeter`]: intra-burst gaps
//!    (≤ `intra_burst_gap`) at the direction's bulk power (the paper's
//!    per-second data model), tail time at the state powers, and switch
//!    events at the profile's switch energies;
//! 4. scores the decision against the Oracle rule (`gap > t_threshold`)
//!    for the §6.3 false/missed switch rates.
//!
//! The engine is deterministic: same trace, profile and policies ⇒ the
//! same report, bit for bit.

use tailwise_radio::energy::EnergyMeter;
use tailwise_radio::fastdormancy::{AlwaysAccept, ReleasePolicy};
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::rrc::{RrcMachine, RrcState, Transition, TransitionCause};
use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::time::{Duration, Instant};
use tailwise_trace::Trace;

use crate::metrics::Confusion;
use crate::policy::{IdleContext, IdleDecision, IdlePolicy};
use crate::report::SimReport;

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
    /// `decision_log_limit`.
    pub record_decisions: bool,
    /// Maximum decision-log entries kept.
    pub decision_log_limit: usize,
    /// Record the power timeline (Fig. 3). Bounded by `timeline_limit`.
    pub record_timeline: bool,
    /// Maximum timeline segments kept.
    pub timeline_limit: usize,
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
            decision_log_limit: 200_000,
            record_timeline: false,
            timeline_limit: 200_000,
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

/// Runs `idle_policy` over `trace`, with the base station honoring
/// fast-dormancy requests per `release`.
///
/// Use [`run`] for the paper's always-accept assumption.
pub fn run_with_release(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    idle_policy: &mut dyn IdlePolicy,
    release: &mut dyn ReleasePolicy,
) -> SimReport {
    profile.validate().expect("invalid carrier profile");
    config.validate(profile).expect("invalid simulation config");

    let mut report = SimReport::new(idle_policy.name(), profile.name.to_string());
    let pkts = trace.packets();
    report.packets = pkts.len();
    report.span = trace.span();
    if pkts.is_empty() {
        return report;
    }

    let mut meter = EnergyMeter::new(profile.clone());
    let mut machine = RrcMachine::new(profile, pkts[0].ts);
    let mut window = SlidingWindow::new(config.window_capacity);
    let maintain_window = idle_policy.uses_window();
    let mut confusion = Confusion::default();
    let mut decisions: Vec<(Instant, Duration)> = Vec::new();
    let mut timeline: Vec<PowerSegment> = Vec::new();
    let mut transitions: Vec<Transition> = Vec::new();
    let threshold = profile.t_threshold();
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
        let prev = pkts[i - 1];
        // The trailing "gap" after the final packet is effectively infinite:
        // flush the tail so short traces account their last cycle fully.
        let (gap, next_ts) = if i < pkts.len() {
            (pkts[i].ts - prev.ts, pkts[i].ts)
        } else {
            (Duration::FOREVER, prev.ts + tail_window + Duration::from_micros(1))
        };

        // 1. Policy decision (before the window learns this gap).
        let ctx = IdleContext { profile, window: &window, now: prev.ts };
        let decision = idle_policy.decide(&ctx, gap);
        let wants_demote = match decision {
            IdleDecision::Timers => false,
            IdleDecision::DemoteAfter(w) => gap > w,
        };
        if config.record_decisions && decisions.len() < config.decision_log_limit {
            if let IdleDecision::DemoteAfter(w) = decision {
                if gap > config.intra_burst_gap {
                    decisions.push((prev.ts, w));
                }
            }
        }

        // 2. Oracle comparison (§6.3).
        confusion.record(wants_demote, gap > threshold);

        // 3. Play the gap forward. A fast-dormancy request is only worth
        // sending while the timers still have the radio up, and a denied
        // request changes nothing except the wasted signaling message —
        // the gap then plays out exactly as if the policy had deferred.
        let demote_wait = match decision {
            IdleDecision::DemoteAfter(w) if wants_demote && w < tail_window => {
                let demote_at = prev.ts + w;
                if release.accept(demote_at) {
                    Some(demote_at)
                } else {
                    report.denied_fd += 1;
                    None
                }
            }
            _ => None,
        };
        if let Some(demote_at) = demote_wait {
            // The synthetic trailing gap ends at the tail-window flush,
            // which a long policy wait can overshoot; never run backwards.
            let next_ts = next_ts.max(demote_at);
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
        } else if gap <= config.intra_burst_gap {
            // Intra-burst: data energy at bulk power for the packet that
            // closes the gap (§6.1's per-second model). Timers cannot fire
            // inside a data gap (intra_burst_gap < t1, validated).
            let adv = machine.advance(next_ts);
            debug_assert_eq!(adv.transitions().count(), 0);
            meter.add_data(pkts[i].dir, gap);
            push_segment(
                &mut timeline,
                config,
                prev.ts,
                next_ts,
                profile.p_data(pkts[i].dir),
                SegmentKind::Data,
            );
        } else {
            charge_advance(
                &mut machine,
                &mut meter,
                next_ts,
                config,
                &mut timeline,
                &mut transitions,
            );
        }

        // 4. Next packet arrives (skipped for the synthetic trailing gap).
        if i < pkts.len() {
            handle_packet_arrival(
                &mut machine,
                &mut meter,
                &mut report,
                profile,
                next_ts,
                gap,
                tail_window,
                config,
                &mut timeline,
                &mut transitions,
            );
            if maintain_window {
                window.push(gap);
            }
        }
    }

    report.energy = meter.breakdown();
    report.counters = machine.counters();
    report.confusion = confusion;
    report.decisions = config.record_decisions.then_some(decisions);
    report.timeline = config.record_timeline.then_some(timeline);
    report.transitions = config.record_transitions.then_some(transitions);
    report
}

/// Runs with the paper's always-accept fast-dormancy assumption (§2.2).
pub fn run(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    idle_policy: &mut dyn IdlePolicy,
) -> SimReport {
    run_with_release(profile, config, trace, idle_policy, &mut AlwaysAccept)
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
    if !config.record_timeline || timeline.len() >= config.timeline_limit || end <= start {
        return;
    }
    timeline.push(PowerSegment { start, end, power, kind });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedWait, StatusQuo};
    use tailwise_radio::fastdormancy::NeverAccept;
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
        let denied = run_with_release(&p, &cfg, &t, &mut pol, &mut NeverAccept);
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
