//! The two-phase simulation API: request extraction and recorded replay.
//!
//! A device's fast-dormancy *requests* are a function of its trace
//! alone. The engine's request rule — after the packet that opens a gap,
//! ask the [`IdlePolicy`] for a wait `w`, and request dormancy at
//! `prev + w` iff `gap > w` and `w` is inside the tail window — reads
//! only the packet timestamps and the policy's view of them (the
//! inter-arrival window, which the engine feeds from gaps regardless of
//! whether earlier requests were granted: a denial changes the *radio's*
//! state, never the observed gaps). That independence is what made the
//! in-memory cell simulation ([`crate::cell`]) exact; this module
//! promotes it from an implementation detail to the engine's public
//! surface:
//!
//! * **Phase 1** — [`record_requests`]: a cheap streaming pass that
//!   runs the policy once over the trace and keeps what it decided: the
//!   time-stamped demotion-request stream and the confusion matrix of
//!   its decisions ([`RequestTrace`]). It builds no [`RrcMachine`], no
//!   energy meter and no [`SimReport`]. A coordinator (one shared base
//!   station, a cell topology, an RNC model) can run phase 1 over an
//!   entire population, adjudicate the merged request streams however
//!   it likes, and only then pay for full simulation.
//! * **Phase 2** — [`replay_requests`]: an exact replay of the full
//!   engine from phase 1's product against a scripted grant/deny
//!   sequence, one verdict per recorded request, in request order. It
//!   needs no policy: the gap a request belongs to is the one whose
//!   `[prev, next)` interval holds its instant, so one cursor over the
//!   request times replaces every decision, at O(1) per gap. A
//!   population replayed under several admission policies therefore
//!   runs its policy once, in phase 1.
//!
//! ## Exactness contract
//!
//! For any trace, profile, config and deterministic grant rule `R` (a
//! closure from request time to verdict), feeding phase 1's request
//! times through `R` and replaying the verdicts yields a report
//! **bit-identical** to the lock-step
//! `run_with_release(.., R)` — same energy bits, same counters, same
//! confusion matrix, same denials and premature promotions. Pinned by
//! the property tests below over random traces × policies × release
//! behaviors. Three things make it hold:
//!
//! * both phases decide through the engine's one request rule, so the
//!   recorded stream is the one the lock-step engine sends; this needs
//!   the idle policy's decisions to be a pure function of
//!   `(profile, window)`, true of every [`IdlePolicy`] in the tree
//!   (MakeIdle's mutable state is scratch buffers and a profile-keyed
//!   cache, not learned history);
//! * the replay plays each gap through the engine's own accounting;
//! * the confusion matrix is a phase-1 product, carried in the
//!   [`RequestTrace`]. The request times do not determine it: a wait at
//!   or past the tail window counts a demotion without sending a
//!   request.
//!
//! A replay keeps no decision log (`SimConfig::record_decisions` has
//! nothing to record there); the lock-step engine keeps it. The
//! contract does **not** extend to MakeActive batching, whose trace
//! rewriting depends on the radio being Idle and therefore on earlier
//! grants.
//!
//! [`RrcMachine`]: tailwise_radio::rrc::RrcMachine

use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::io::ReplayOutcome;
use tailwise_trace::load::LoadDeltas;
use tailwise_trace::time::Instant;
use tailwise_trace::Trace;

use crate::engine::{check_inputs, walk, Gap, RequestRule, SimConfig};
use crate::metrics::Confusion;
use crate::policy::IdlePolicy;
use crate::report::SimReport;

/// Phase-1 output: when a device would request fast dormancy, and how
/// the decisions behind those requests scored against the Oracle rule.
///
/// Times are in trace order (strictly non-decreasing) — exactly the
/// order the lock-step engine asks its grant rule about them
/// ([`run_with_release`](crate::engine::run_with_release)), so a
/// coordinator can merge streams from many devices and hand each device
/// back one verdict per entry.
///
/// This is the stable serialization contract: a `RequestTrace` is
/// *exactly* its times and its confusion counts — no hidden state. A
/// [`RequestStream`](tailwise_trace::io::RequestStream) stores both (the
/// confusion as its four counts, `tp, fp, tn, fn_`) beside the user's
/// status-quo baseline, so it round-trips the trace bit for bit: the
/// fleet moves each user's times into one, and its request cache holds
/// and spills that stream as it is. [`replay_requests`] reads the two
/// fields straight from either.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// Timestamp of each fast-dormancy request.
    pub times: Vec<Instant>,
    /// The confusion matrix of every decision phase 1 made, requested
    /// or not.
    pub confusion: Confusion,
}

impl RequestTrace {
    /// Number of requests the device would send.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the device never requests dormancy (e.g. status quo).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Phase 1: streams `trace` through `idle_policy`'s decision rule and
/// records every fast-dormancy request the engine would send, with the
/// confusion matrix of every decision.
///
/// This is the cheap pass: no RRC machine, no energy metering — per gap
/// it does exactly the work the policy's decision needs (one `decide`
/// call plus, for window-using policies, one sliding-window insert), so
/// populations can be scanned for their signaling footprint at a
/// fraction of full-simulation cost.
pub fn record_requests(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    idle_policy: &mut dyn IdlePolicy,
) -> RequestTrace {
    check_inputs(profile, config);
    let pkts = trace.packets();
    let tail_window = profile.tail_window();
    let mut rule = RequestRule::new(profile, config, idle_policy);
    let mut times: Vec<Instant> =
        (0..pkts.len()).filter_map(|i| rule.decide(Gap::after(pkts, i, tail_window)).1).collect();
    // A request cache may keep the stream for the rest of the process:
    // drop the growth slack rather than hold it there.
    times.shrink_to_fit();
    RequestTrace { times, confusion: rule.confusion }
}

/// Captures the memoizable outcome of a finished run, with every float
/// carried as its exact bits (see [`ReplayOutcome`] for why that makes
/// a memoized fold bit-identical to the live one). The signaling-load
/// deltas are left empty: they belong to the caller that attributes the
/// run's transitions to cells.
pub fn replay_outcome(report: &SimReport) -> ReplayOutcome {
    ReplayOutcome {
        packets: report.packets as u64,
        energy_bits: report.total_energy().to_bits(),
        switches: report.switch_cycles(),
        false_switches: report.confusion.fp,
        missed_switches: report.confusion.fn_,
        decisions: report.confusion.total(),
        delay_bits: report.session_delays.iter().map(|d| d.to_bits()).collect(),
        load: LoadDeltas::default(),
    }
}

/// Phase 2: replays the full engine over `trace` from phase 1's
/// request `times` and decision `confusion`, with the base station
/// scripted to answer request `i` with `verdicts[i]`.
///
/// No policy runs: a gap is demoted at recorded request `t` iff `t`
/// falls in the gap's `[prev, next)` interval, and the report's
/// confusion matrix is the one phase 1 recorded. The report keeps no
/// decision log and names no scheme; callers label it.
///
/// `times` and `confusion` must be the fields of what
/// [`record_requests`] returned for the same `(profile, config,
/// trace)`, and `verdicts` must hold exactly one entry per request —
/// that is the two-phase contract. Every mismatch the replay can see
/// panics: a verdict count that differs, a request that falls in no
/// gap, or a request the walk never reaches. A drifted trace is a bug,
/// not an input to report on.
pub fn replay_requests(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    times: &[Instant],
    confusion: Confusion,
    verdicts: &[bool],
) -> SimReport {
    check_inputs(profile, config);
    assert_eq!(
        verdicts.len(),
        times.len(),
        "phase-2 replay needs one verdict per recorded request"
    );
    let mut next = 0;
    let mut report = walk(profile, config, trace, String::new(), |gap| {
        let at = *times.get(next).filter(|&&at| at < gap.end)?;
        assert!(
            at >= gap.start,
            "recorded request at {at} falls in no gap of the replayed trace: phase 1 ran on \
             another trace"
        );
        next += 1;
        Some((at, verdicts[next - 1]))
    });
    assert_eq!(
        next,
        times.len(),
        "phase-2 replay reached fewer requests than phase 1 recorded: phase 1 ran on another \
         trace"
    );
    report.confusion = confusion;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_with_release};
    use crate::oracle::OracleIdle;
    use crate::policy::{FixedWait, IdleContext, IdleDecision, StatusQuo};
    use proptest::prelude::*;
    use tailwise_radio::admission::{AdmissionPolicy, LoadReactive, RateLimited, REQUEST_MESSAGES};
    use tailwise_trace::mix::splitmix64;
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::time::Duration;

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

    /// Adjudicates a request trace through a grant rule, the way a
    /// single-device coordinator would.
    fn adjudicate(requests: &RequestTrace, mut grant: impl FnMut(Instant) -> bool) -> Vec<bool> {
        requests.times.iter().map(|&at| grant(at)).collect()
    }

    #[test]
    fn recorded_request_times_hold_no_growth_slack() {
        // A request cache keeps a stream as long as it lives, so the
        // stream is stored at its length: 21 requests, one after each
        // packet, not the 32 slots a doubling collect would leave.
        let p = CarrierProfile::verizon_lte();
        let t = trace_from_gaps(&[3_000; 20]);
        let mut wait_zero = FixedWait::new(Duration::ZERO, "x");
        let r = record_requests(&p, &SimConfig::default(), &t, &mut wait_zero);
        assert_eq!(r.len(), 21);
        assert_eq!(r.times.capacity(), r.len());
    }

    #[test]
    fn status_quo_requests_nothing() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[500, 30_000, 200]);
        let r = record_requests(&p, &cfg, &t, &mut StatusQuo);
        assert!(r.is_empty());
        // And the empty trace is empty for everyone.
        let r = record_requests(&p, &cfg, &Trace::new(), &mut FixedWait::new(Duration::ZERO, "x"));
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn request_times_are_packet_time_plus_wait() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        // Gaps: 30 s (request), 0.4 s (below wait: none), 20 s (request),
        // plus the trailing flush (request).
        let t = trace_from_gaps(&[30_000, 400, 20_000]);
        let wait = Duration::from_millis(1500);
        let r = record_requests(&p, &cfg, &t, &mut FixedWait::new(wait, "1.5s"));
        let pkts = t.packets();
        assert_eq!(r.times, vec![pkts[0].ts + wait, pkts[2].ts + wait, pkts[3].ts + wait],);
    }

    #[test]
    fn waits_at_or_beyond_the_tail_window_never_request() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[60_000]);
        let mut at_window = FixedWait::new(p.tail_window(), "tail");
        let at_window = record_requests(&p, &cfg, &t, &mut at_window);
        assert!(at_window.is_empty());
        // Yet both gaps outlast the wait: the decisions still count as
        // demotions, which is why the confusion travels with the times.
        assert_eq!(at_window.confusion.tp, 2);
        let mut inside = FixedWait::new(p.tail_window() - Duration::from_micros(1), "in");
        assert_eq!(record_requests(&p, &cfg, &t, &mut inside).len(), 2);
    }

    #[test]
    fn replay_with_all_grants_matches_always_accept() {
        let p = CarrierProfile::verizon_lte();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[30_000, 800, 12_000, 45_000]);
        let requests =
            record_requests(&p, &cfg, &t, &mut FixedWait::new(Duration::from_secs(1), "1s"));
        let verdicts = vec![true; requests.len()];
        let replayed =
            replay_requests(&p, &cfg, &t, &requests.times, requests.confusion, &verdicts);
        let direct = run(&p, &cfg, &t, &mut FixedWait::new(Duration::from_secs(1), "1s"));
        assert_eq!(replayed.energy, direct.energy);
        assert_eq!(replayed.counters, direct.counters);
        assert_eq!(replayed.confusion, direct.confusion);
    }

    #[test]
    fn replay_outcome_captures_the_fold_exactly() {
        let p = CarrierProfile::verizon_lte();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[30_000, 800, 12_000, 45_000]);
        let requests =
            record_requests(&p, &cfg, &t, &mut FixedWait::new(Duration::from_secs(1), "1s"));
        let verdicts: Vec<bool> = (0..requests.len()).map(|i| i % 2 == 0).collect();
        let report = replay_requests(&p, &cfg, &t, &requests.times, requests.confusion, &verdicts);
        let outcome = replay_outcome(&report);
        assert_eq!(outcome.packets, report.packets as u64);
        assert_eq!(outcome.energy_j().to_bits(), report.total_energy().to_bits());
        assert_eq!(outcome.switches, report.switch_cycles());
        assert_eq!(outcome.decisions, report.confusion.total());
        let delays: Vec<f64> = outcome.session_delays().collect();
        assert_eq!(delays.len(), report.session_delays.len());
        // The savings arithmetic must agree bit for bit with the live
        // report's, for any baseline (including the degenerate one).
        for base in [0.0, 1.0, report.total_energy() * 1.75] {
            assert_eq!(
                outcome.savings_vs_energy(base).to_bits(),
                report.savings_vs_energy(base).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "one verdict per recorded request")]
    fn surplus_verdicts_panic() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[30_000]);
        // StatusQuo sends no requests; one scripted verdict is a bug.
        let requests = record_requests(&p, &cfg, &t, &mut StatusQuo);
        replay_requests(&p, &cfg, &t, &requests.times, requests.confusion, &[true]);
    }

    #[test]
    #[should_panic(expected = "one verdict per recorded request")]
    fn missing_verdicts_panic() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[30_000]);
        let requests = record_requests(&p, &cfg, &t, &mut FixedWait::new(Duration::ZERO, "now"));
        replay_requests(&p, &cfg, &t, &requests.times, requests.confusion, &[]);
    }

    #[test]
    #[should_panic(expected = "falls in no gap")]
    fn two_requests_in_one_gap_panic() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[30_000]);
        let times = [Instant::from_secs(1), Instant::from_secs(2)];
        replay_requests(&p, &cfg, &t, &times, Confusion::default(), &[true, true]);
    }

    #[test]
    #[should_panic(expected = "reached fewer requests")]
    fn requests_past_the_trace_panic() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = trace_from_gaps(&[30_000]);
        // The walk ends at the trailing tail flush, 46.6 s here.
        let times = [Instant::from_secs(100)];
        replay_requests(&p, &cfg, &t, &times, Confusion::default(), &[true]);
    }

    /// The exactness contract, exhaustively: phase 1 + external
    /// adjudication + phase 2 reproduces the lock-step engine bit for
    /// bit, across policies × release behaviors × random traces.
    #[derive(Debug, Clone, Copy)]
    enum PolicyChoice {
        StatusQuo,
        Fixed(i64),
        Oracle,
        MakeIdleLike, // FixedWait built from a percentile-ish constant
    }

    fn build_policy(choice: PolicyChoice) -> Box<dyn IdlePolicy> {
        match choice {
            PolicyChoice::StatusQuo => Box::new(StatusQuo),
            PolicyChoice::Fixed(ms) => Box::new(FixedWait::new(Duration::from_millis(ms), "fixed")),
            PolicyChoice::Oracle => Box::new(OracleIdle),
            PolicyChoice::MakeIdleLike => Box::new(WindowMedianWait),
        }
    }

    /// A window-using policy with MakeIdle's shape (reads the window,
    /// returns a data-dependent wait) without depending on
    /// tailwise-core (which depends on this crate).
    #[derive(Debug, Clone, Default)]
    struct WindowMedianWait;

    impl IdlePolicy for WindowMedianWait {
        fn name(&self) -> String {
            "window-median".into()
        }
        fn decide(&mut self, ctx: &IdleContext<'_>, _actual_gap: Duration) -> IdleDecision {
            let samples = ctx.window.sorted_samples();
            if samples.len() < 5 {
                return IdleDecision::Timers;
            }
            IdleDecision::DemoteAfter(samples[samples.len() / 2])
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum ReleaseChoice {
        Always,
        Never,
        Fractional(u8),
        RateLimited(i64),
        /// The load-coupled [`AdmissionPolicy`]: watermark msg/s over a
        /// window, fed the adjudication-time message model.
        Reactive(u64, u64),
    }

    /// A fresh grant rule for `choice`. Every rule is deterministic, so
    /// two instances give the lock-step reference and the external
    /// adjudication the same verdicts.
    fn build_release(choice: ReleaseChoice) -> Box<dyn FnMut(Instant) -> bool> {
        match choice {
            ReleaseChoice::Always => Box::new(|_| true),
            ReleaseChoice::Never => Box::new(|_| false),
            ReleaseChoice::Fractional(p) => {
                // About p/255 of requests, by a hash of the request count.
                let mut count = 0u64;
                Box::new(move |_| {
                    count += 1;
                    splitmix64(42 ^ count) % 255 < u64::from(p)
                })
            }
            ReleaseChoice::RateLimited(ms) => {
                let mut policy = RateLimited::new(Duration::from_millis(ms));
                Box::new(move |at| policy.admit(at))
            }
            ReleaseChoice::Reactive(watermark, window) => {
                // Each verdict's adjudication-time messages are charged
                // back into the policy, exactly as a cell coordinator
                // does.
                let mut policy = LoadReactive::new(watermark, window);
                Box::new(move |at| {
                    let ok = policy.admit(at);
                    policy.observe(at, if ok { 3 } else { REQUEST_MESSAGES });
                    ok
                })
            }
        }
    }

    // The vendored proptest stub has no `prop_oneof!`; pick variants by
    // mapping an index + payload tuple instead.
    fn arb_policy() -> impl Strategy<Value = PolicyChoice> {
        // Fixed waits reach 20 s, past every drawn carrier's tail window
        // (at most 19.5 s): decisions that count without a request.
        (0usize..4, 0i64..=20_000).prop_map(|(which, ms)| match which {
            0 => PolicyChoice::StatusQuo,
            1 => PolicyChoice::Fixed(ms),
            2 => PolicyChoice::Oracle,
            _ => PolicyChoice::MakeIdleLike,
        })
    }

    fn arb_release() -> impl Strategy<Value = ReleaseChoice> {
        (0usize..5, 0u64..256, 1i64..60_000).prop_map(|(which, frac, ms)| match which {
            0 => ReleaseChoice::Always,
            1 => ReleaseChoice::Never,
            2 => ReleaseChoice::Fractional(frac as u8),
            3 => ReleaseChoice::RateLimited(ms),
            // Low watermarks over small windows keep the reactive
            // governor engaging on CI-sized traces.
            _ => ReleaseChoice::Reactive(frac % 8, 1 + ms as u64 % 4),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn two_phase_replay_is_bit_identical_to_lockstep(
            gaps_ms in prop::collection::vec(1i64..60_000, 1..120),
            policy in arb_policy(),
            release in arb_release(),
            carrier in 0usize..4,
        ) {
            let p = &CarrierProfile::paper_carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);

            // Reference: the lock-step engine consulting the release
            // policy inline.
            let reference =
                run_with_release(p, &cfg, &t, build_policy(policy).as_mut(), build_release(release));

            // Two-phase: extract requests, adjudicate externally with a
            // fresh instance of the same release policy, replay.
            let requests = record_requests(p, &cfg, &t, build_policy(policy).as_mut());
            let verdicts = adjudicate(&requests, build_release(release));
            let replayed =
                replay_requests(p, &cfg, &t, &requests.times, requests.confusion, &verdicts);

            prop_assert_eq!(replayed.energy, reference.energy);
            prop_assert_eq!(replayed.counters, reference.counters);
            prop_assert_eq!(replayed.confusion, reference.confusion);
            prop_assert_eq!(replayed.denied_fd, reference.denied_fd);
            prop_assert_eq!(replayed.premature_promotions, reference.premature_promotions);
            prop_assert_eq!(&replayed.session_delays, &reference.session_delays);
            // Denials observed by the engine = denials scripted.
            let scripted_denials = verdicts.iter().filter(|v| !**v).count() as u64;
            prop_assert_eq!(replayed.denied_fd, scripted_denials);
        }

        /// Deny-heavy and alternating grant/deny scripts: a verdict
        /// script granting every `n`-th request (starting at `offset`)
        /// must replay bit-identically to the lock-step engine running
        /// the equivalent stateful policy. `n = 2` is the alternating
        /// script (both phases), large `n` the deny-heavy storm; the
        /// all-deny limit is `offset ≥` the request count.
        #[test]
        fn scripted_grant_patterns_replay_exactly(
            gaps_ms in prop::collection::vec(1i64..60_000, 1..120),
            policy in arb_policy(),
            (n, offset) in (1u64..6, 0u64..6),
            carrier in 0usize..4,
        ) {
            let p = &CarrierProfile::paper_carriers()[carrier];
            let cfg = SimConfig::default();
            let t = trace_from_gaps(&gaps_ms);

            let requests = record_requests(p, &cfg, &t, build_policy(policy).as_mut());
            let verdicts: Vec<bool> =
                (0..requests.len() as u64).map(|i| i % n == offset % n).collect();
            let replayed =
                replay_requests(p, &cfg, &t, &requests.times, requests.confusion, &verdicts);
            // Grants request `i` iff `i % n == offset % n` — the
            // stateful twin of the pattern script.
            let mut counter = 0u64;
            let every_nth = move |_| {
                let ok = counter % n == offset % n;
                counter += 1;
                ok
            };
            let reference = run_with_release(p, &cfg, &t, build_policy(policy).as_mut(), every_nth);

            prop_assert_eq!(replayed.energy, reference.energy);
            prop_assert_eq!(replayed.counters, reference.counters);
            prop_assert_eq!(replayed.confusion, reference.confusion);
            prop_assert_eq!(replayed.denied_fd, reference.denied_fd);
            prop_assert_eq!(
                replayed.denied_fd,
                verdicts.iter().filter(|v| !**v).count() as u64
            );
            prop_assert_eq!(replayed.premature_promotions, reference.premature_promotions);
            prop_assert_eq!(&replayed.session_delays, &reference.session_delays);
        }
    }
}
