//! MakeActive session batching: the trace transform of §5.
//!
//! When the radio is Idle and a new session (burst) wants to start, the
//! control module may hold it so that sessions arriving shortly after share
//! one Idle→Active promotion: "other new sessions that might come between
//! time t and t+T_fix_delay will all get buffered and will start together
//! at time t+T_fix_delay". Held sessions shift *rigidly* — "once a session
//! begins, its packets do not get further delayed" — so TCP dynamics inside
//! a session are unaffected.
//!
//! In the trace-driven setting this is a trace→trace transform: the engine
//! then replays the batched trace under MakeIdle (the paper's
//! "MakeIdle+MakeActive" rows). A burst finds the radio Idle when it
//! arrives more than the carrier's `t_threshold` after the last activity —
//! the horizon by which MakeIdle will have demoted (its candidate waits are
//! capped at `t_threshold`, where switching provably beats holding).

use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::bursts::{self, Burst};
use tailwise_trace::time::{Duration, Instant};
use tailwise_trace::Trace;

use crate::engine::{run, SimConfig};
use crate::policy::{ActivePolicy, IdlePolicy};
use crate::report::SimReport;

/// Result of batching a trace.
#[derive(Debug, Clone)]
pub struct BatchingOutcome {
    /// The time-shifted trace.
    pub trace: Trace,
    /// Delay of every buffered session, seconds (the Fig. 15 / Table 3
    /// population). Sessions that found the radio active are not delayed
    /// and do not appear.
    pub delays: Vec<f64>,
    /// Number of batching rounds closed.
    pub rounds: u64,
}

struct OpenRound {
    opener: Instant,
    release: Instant,
    /// (burst index, arrival) of each buffered session.
    buffered: Vec<(usize, Instant)>,
}

/// Applies MakeActive batching to `trace`.
pub fn batch_sessions(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    active: &mut dyn ActivePolicy,
) -> BatchingOutcome {
    let bursts = bursts::segment(trace, config.intra_burst_gap);
    let horizon = profile.t_threshold();
    let mut shifts: Vec<Duration> = vec![Duration::ZERO; bursts.len()];
    let mut delays: Vec<f64> = Vec::new();
    let mut rounds: u64 = 0;

    let mut active_until = Instant::ZERO - Duration::FOREVER; // radio starts Idle
    let mut open: Option<OpenRound> = None;

    for (i, b) in bursts.iter().enumerate() {
        if let Some(round) = &mut open {
            if b.start <= round.release {
                round.buffered.push((i, b.start));
                continue;
            }
            // Release before handling this burst.
            let closed = open.take().expect("round is open");
            close_round(
                &closed,
                &bursts,
                &mut shifts,
                &mut delays,
                &mut active_until,
                horizon,
                active,
            );
            rounds += 1;
        }
        if b.start <= active_until {
            // Radio still active: transmit as scheduled.
            active_until = b.end + horizon;
        } else {
            // Radio idle: open a batching round (a zero hold means the
            // policy does not batch — transmit immediately).
            let hold = active.open_round(b.start).max_zero();
            if hold.is_zero() {
                active_until = b.end + horizon;
            } else {
                open = Some(OpenRound {
                    opener: b.start,
                    release: b.start + hold,
                    buffered: vec![(i, b.start)],
                });
            }
        }
    }
    if let Some(round) = open.take() {
        close_round(&round, &bursts, &mut shifts, &mut delays, &mut active_until, horizon, active);
        rounds += 1;
    }

    // Rebuild the trace with per-burst shifts.
    let pkts = trace.packets();
    let mut shifted = Vec::with_capacity(pkts.len());
    for (i, b) in bursts.iter().enumerate() {
        let shift = shifts[i];
        for p in &pkts[b.first..b.end_index()] {
            shifted.push(p.shifted(shift));
        }
    }
    BatchingOutcome { trace: Trace::from_unsorted(shifted), delays, rounds }
}

fn close_round(
    round: &OpenRound,
    bursts: &[Burst],
    shifts: &mut [Duration],
    delays: &mut Vec<f64>,
    active_until: &mut Instant,
    horizon: Duration,
    active: &mut dyn ActivePolicy,
) {
    let mut offsets: Vec<f64> = Vec::with_capacity(round.buffered.len());
    for &(idx, arrival) in &round.buffered {
        let shift = round.release - arrival;
        debug_assert!(!shift.is_negative());
        shifts[idx] = shift;
        delays.push(shift.as_secs_f64());
        offsets.push((arrival - round.opener).as_secs_f64());
        let shifted_end = bursts[idx].end + shift;
        *active_until = (*active_until).max(shifted_end + horizon);
    }
    active.close_round(&offsets);
}

/// Runs the full MakeIdle+MakeActive pipeline: batch sessions, then replay
/// the batched trace under `idle_policy`, with the paper's always-accept
/// fast-dormancy assumption.
pub fn run_batched(
    profile: &CarrierProfile,
    config: &SimConfig,
    trace: &Trace,
    idle_policy: &mut dyn IdlePolicy,
    active: &mut dyn ActivePolicy,
) -> SimReport {
    let outcome = batch_sessions(profile, config, trace, active);
    let mut report = run(profile, config, &outcome.trace, idle_policy);
    report.scheme = format!("{}+{}", report.scheme, active.name());
    report.session_delays = outcome.delays;
    report.batching_rounds = outcome.rounds;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoBatching;
    use tailwise_trace::packet::{Direction, Packet};

    fn att() -> CarrierProfile {
        CarrierProfile::att_hspa()
    }

    fn trace_at_secs(secs: &[f64]) -> Trace {
        Trace::from_sorted(
            secs.iter()
                .map(|&s| Packet::new(Instant::from_secs_f64(s), Direction::Down, 500))
                .collect(),
        )
        .unwrap()
    }

    /// A fixed-hold test policy.
    struct Hold(f64, Vec<Vec<f64>>);
    impl ActivePolicy for Hold {
        fn name(&self) -> String {
            "hold".into()
        }
        fn open_round(&mut self, _at: Instant) -> Duration {
            Duration::from_secs_f64(self.0)
        }
        fn close_round(&mut self, offsets: &[f64]) {
            self.1.push(offsets.to_vec());
        }
    }

    #[test]
    fn no_batching_is_identity() {
        let t = trace_at_secs(&[0.0, 10.0, 20.0]);
        let out = batch_sessions(&att(), &SimConfig::default(), &t, &mut NoBatching);
        assert_eq!(out.trace, t);
        assert!(out.delays.is_empty());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn sessions_inside_hold_window_merge() {
        // Sessions at 0 s, 3 s, 30 s; hold = 5 s. The first two join one
        // round releasing at t=5; the third opens its own round.
        let t = trace_at_secs(&[0.0, 3.0, 30.0]);
        let mut pol = Hold(5.0, Vec::new());
        let out = batch_sessions(&att(), &SimConfig::default(), &t, &mut pol);
        assert_eq!(out.rounds, 2);
        // First two packets both now start at t=5.
        let ts: Vec<f64> = out.trace.iter().map(|p| p.ts.as_secs_f64()).collect();
        assert!((ts[0] - 5.0).abs() < 1e-9);
        assert!((ts[1] - 5.0).abs() < 1e-9);
        assert!((ts[2] - 35.0).abs() < 1e-9);
        // Delays: 5 s (opener), 2 s (second), 5 s (third round's opener).
        let mut d = out.delays.clone();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(d.len(), 3);
        assert!((d[0] - 2.0).abs() < 1e-9);
        assert!((d[1] - 5.0).abs() < 1e-9);
        assert!((d[2] - 5.0).abs() < 1e-9);
        // The learner saw the offsets of the first round.
        assert_eq!(pol.1[0], vec![0.0, 3.0]);
        assert_eq!(pol.1[1], vec![0.0]);
    }

    #[test]
    fn bursts_arriving_while_active_are_not_delayed() {
        // Burst at 0 released at 2 s; burst at 2.5 s arrives within the
        // post-release activity horizon (t_threshold = 1.2 s after the
        // shifted end) → not delayed.
        let t = trace_at_secs(&[0.0, 2.5, 60.0]);
        let mut pol = Hold(2.0, Vec::new());
        let out = batch_sessions(&att(), &SimConfig::default(), &t, &mut pol);
        let ts: Vec<f64> = out.trace.iter().map(|p| p.ts.as_secs_f64()).collect();
        assert!((ts[0] - 2.0).abs() < 1e-9, "opener shifted to release");
        assert!((ts[1] - 2.5).abs() < 1e-9, "active-window burst untouched");
        // Two rounds: the opener at 0 and the far burst at 60.
        assert_eq!(out.rounds, 2);
        assert_eq!(out.delays.len(), 2);
    }

    #[test]
    fn batching_reduces_switches_without_burning_energy() {
        let p = att();
        let cfg = SimConfig::default();
        // Background chatter: sessions every 8 s (inside a 20 s hold window
        // several batch together).
        let secs: Vec<f64> = (0..60).map(|i| i as f64 * 8.0).collect();
        let t = trace_at_secs(&secs);
        let mut idle = crate::policy::FixedWait::new(Duration::from_millis(1000), "1s");
        let plain = crate::engine::run(&p, &cfg, &t, &mut idle);
        let mut idle = crate::policy::FixedWait::new(Duration::from_millis(1000), "1s");
        let mut hold = Hold(20.0, Vec::new());
        let batched = run_batched(&p, &cfg, &t, &mut idle, &mut hold);
        assert!(
            batched.switch_cycles() < plain.switch_cycles() / 2,
            "{} vs {}",
            batched.switch_cycles(),
            plain.switch_cycles()
        );
        assert!(batched.total_energy() < plain.total_energy());
        assert!(batched.batching_rounds > 0);
        assert!(!batched.session_delays.is_empty());
        assert!(batched.scheme.contains("hold"));
    }

    #[test]
    fn batched_trace_preserves_packet_count_and_intra_burst_shape() {
        // One three-packet burst, then a lone far session, so each round
        // holds exactly one burst and rigid shifting is observable.
        let t = trace_at_secs(&[0.0, 0.1, 0.2, 40.0]);
        let mut pol = Hold(5.0, Vec::new());
        let out = batch_sessions(&att(), &SimConfig::default(), &t, &mut pol);
        assert_eq!(out.trace.len(), t.len());
        let ts: Vec<f64> = out.trace.iter().map(|p| p.ts.as_secs_f64()).collect();
        // Burst shifted rigidly to its release at t=5, spacing intact.
        assert!((ts[0] - 5.0).abs() < 1e-9);
        assert!((ts[1] - ts[0] - 0.1).abs() < 1e-9);
        assert!((ts[2] - ts[1] - 0.1).abs() < 1e-9);
        assert!((ts[3] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_batches_to_empty() {
        let out = batch_sessions(
            &att(),
            &SimConfig::default(),
            &Trace::new(),
            &mut Hold(5.0, Vec::new()),
        );
        assert!(out.trace.is_empty());
        assert_eq!(out.rounds, 0);
    }
}
