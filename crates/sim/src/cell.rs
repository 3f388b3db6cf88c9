//! Cell-level simulation: many devices, one base station (§8 future work).
//!
//! The paper closes by asking what happens "on the base station side,
//! considering issues such as handling multiple phones triggering the
//! feature". This module answers with a multi-device simulation:
//!
//! * every device runs its own trace and [`IdlePolicy`];
//! * all fast-dormancy requests flow through **one shared**
//!   [`AdmissionPolicy`] (the base station), in global timestamp order;
//!   load-reactive policies additionally observe the adjudication-time
//!   message load ([`tailwise_radio::admission`]);
//! * the cell report aggregates energy, grants/denials, and the
//!   RRC-message load the base station actually absorbs (total and
//!   per-second peak).
//!
//! ## Built on the two-phase API
//!
//! The coordination runs on [`crate::twophase`], whose exactness
//! argument (demotion *requests* depend only on the trace, never on
//! grants) this module originally proved in-line: phase 1
//! ([`record_requests`]) collects every device's request stream without
//! a full simulation; the shared policy adjudicates the merged,
//! time-ordered stream; phase 2 ([`replay_requests`]) replays each
//! device exactly from its recorded requests and scripted verdicts. The
//! result is identical to a lock-step co-simulation, and each device's
//! policy runs once, in pass 1, which costs a window scan per device
//! instead of a full engine run. The fleet's cell topologies scale the
//! same recipe to whole populations.

use tailwise_radio::admission::{AdmissionPolicy, REQUEST_MESSAGES};
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::signaling::SignalingModel;
use tailwise_trace::time::Instant;
use tailwise_trace::Trace;

use crate::engine::SimConfig;
use crate::policy::IdlePolicy;
use crate::report::SimReport;
use crate::twophase::{record_requests, replay_requests, RequestTrace};

/// One device entering the cell: its traffic and its control policy.
pub struct CellDevice {
    /// Display name ("phone 3").
    pub name: String,
    /// The device's packet trace.
    pub trace: Trace,
    /// The device's demotion policy.
    pub policy: Box<dyn IdlePolicy>,
}

/// Outcome of a cell simulation.
#[derive(Debug)]
pub struct CellReport {
    /// Per-device reports, in input order.
    pub devices: Vec<SimReport>,
    /// Fast-dormancy requests granted by the base station.
    pub granted: u64,
    /// Fast-dormancy requests denied.
    pub denied: u64,
    /// Total RRC messages the cell absorbed (per [`SignalingModel`]).
    pub total_messages: u64,
    /// Peak RRC messages in any one-second window.
    pub peak_messages_per_s: u64,
}

impl CellReport {
    /// Total energy across all devices, J.
    pub fn total_energy(&self) -> f64 {
        self.devices.iter().map(|d| d.total_energy()).sum()
    }
}

/// Runs `devices` against one shared base-station `admission` policy.
///
/// A load-reactive policy ([`tailwise_radio::admission::LoadReactive`])
/// observes the adjudication-time message load (grants cost
/// [`SignalingModel::per_fd_demotion`] messages, denials
/// [`REQUEST_MESSAGES`]), while stateless policies
/// (e.g. [`tailwise_radio::admission::RateLimited`]) ignore it.
pub fn run_cell(
    profile: &CarrierProfile,
    config: &SimConfig,
    mut devices: Vec<CellDevice>,
    admission: &mut dyn AdmissionPolicy,
    signaling: &SignalingModel,
) -> CellReport {
    // Pass 1: collect each device's fast-dormancy requests — the cheap
    // streaming pass, no energy simulation.
    let requests: Vec<RequestTrace> = devices
        .iter_mut()
        .map(|dev| record_requests(profile, config, &dev.trace, dev.policy.as_mut()))
        .collect();

    // Base station adjudicates the merged request stream in time order
    // (ties broken by device index, deterministically).
    let mut merged: Vec<(Instant, usize, usize)> = Vec::new();
    for (dev, recorded) in requests.iter().enumerate() {
        for (seq, &at) in recorded.times.iter().enumerate() {
            merged.push((at, dev, seq));
        }
    }
    merged.sort_by_key(|&(at, dev, seq)| (at, dev, seq));
    let mut verdicts: Vec<Vec<bool>> = requests.iter().map(|r| vec![false; r.len()]).collect();
    let (mut granted, mut denied) = (0u64, 0u64);
    for &(at, dev, seq) in &merged {
        let ok = admission.admit(at);
        admission.observe(at, if ok { signaling.per_fd_demotion } else { REQUEST_MESSAGES });
        verdicts[dev][seq] = ok;
        if ok {
            granted += 1;
        } else {
            denied += 1;
        }
    }

    // Pass 2: replay each device against its scripted verdicts, recording
    // transitions for the load analysis. The transition-log cap is
    // lifted: a truncated log would silently undercount the cell's
    // message load.
    let replay_config =
        SimConfig { record_transitions: true, transition_log_limit: usize::MAX, ..config.clone() };
    let mut reports = Vec::with_capacity(devices.len());
    let mut message_events: Vec<(Instant, u32)> = Vec::new();
    for ((dev, recorded), verdict_list) in devices.iter().zip(&requests).zip(verdicts) {
        let RequestTrace { times, confusion } = recorded;
        let mut r =
            replay_requests(profile, &replay_config, &dev.trace, times, *confusion, &verdict_list);
        r.scheme = format!("{} ({})", dev.policy.name(), dev.name);
        if let Some(ts) = r.transitions.take() {
            message_events.extend(ts.iter().map(|t| (t.at, signaling.messages_for(t))));
        }
        reports.push(r);
    }

    // Per-second load histogram.
    message_events.sort_by_key(|&(at, _)| at);
    let total_messages: u64 = message_events.iter().map(|&(_, m)| m as u64).sum();
    let mut peak = 0u64;
    let mut idx = 0;
    while idx < message_events.len() {
        let second = message_events[idx].0.as_micros().div_euclid(1_000_000);
        let mut load = 0u64;
        while idx < message_events.len()
            && message_events[idx].0.as_micros().div_euclid(1_000_000) == second
        {
            load += message_events[idx].1 as u64;
            idx += 1;
        }
        peak = peak.max(load);
    }

    CellReport { devices: reports, granted, denied, total_messages, peak_messages_per_s: peak }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedWait;
    use tailwise_radio::admission::{AlwaysAccept, RateLimited};
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::time::Duration;

    fn heartbeat_device(name: &str, offset_ms: i64, n: usize) -> CellDevice {
        let pkts: Vec<Packet> = (0..n)
            .map(|i| {
                Packet::new(
                    Instant::from_millis(offset_ms + i as i64 * 30_000),
                    Direction::Down,
                    120,
                )
            })
            .collect();
        CellDevice {
            name: name.into(),
            trace: Trace::from_sorted(pkts).unwrap(),
            policy: Box::new(FixedWait::new(Duration::from_millis(500), "0.5s")),
        }
    }

    fn cell(n_devices: usize) -> Vec<CellDevice> {
        (0..n_devices)
            .map(|i| heartbeat_device(&format!("phone {i}"), i as i64 * 1_000, 40))
            .collect()
    }

    #[test]
    fn always_accept_cell_matches_independent_runs() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let report = run_cell(&p, &cfg, cell(4), &mut AlwaysAccept, &SignalingModel::default());
        assert_eq!(report.devices.len(), 4);
        assert_eq!(report.denied, 0);
        // Each device independently: one request per gap + trailing.
        assert_eq!(report.granted, 4 * 40);
        // And each device's energy equals a standalone run.
        let mut solo_policy = FixedWait::new(Duration::from_millis(500), "0.5s");
        let solo = crate::engine::run(&p, &cfg, &cell(4)[0].trace, &mut solo_policy);
        assert!((report.devices[0].total_energy() - solo.total_energy()).abs() < 1e-9);
    }

    #[test]
    fn shared_rate_limit_spreads_denials_across_devices() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        // 8 devices × a request every 30 s, but the cell only grants one
        // release per 10 s: about 2/3 of requests must be denied.
        let mut release = RateLimited::new(Duration::from_secs(10));
        let report = run_cell(&p, &cfg, cell(8), &mut release, &SignalingModel::default());
        assert!(report.denied > 0, "a shared rate limit must deny someone");
        assert!(report.granted > 0);
        // Denials hit more than one device (fairness of time-ordering).
        let devices_denied = report.devices.iter().filter(|d| d.denied_fd > 0).count();
        assert!(devices_denied >= 2, "only {devices_denied} device(s) saw denials");
        // Denied devices fall back to timers: cell energy must exceed the
        // always-accept cell's.
        let free = run_cell(&p, &cfg, cell(8), &mut AlwaysAccept, &SignalingModel::default());
        assert!(report.total_energy() > free.total_energy());
    }

    #[test]
    fn message_load_accounting_is_conserved() {
        let p = CarrierProfile::verizon_lte();
        let cfg = SimConfig::default();
        let model = SignalingModel::default();
        let report = run_cell(&p, &cfg, cell(3), &mut AlwaysAccept, &model);
        // Total messages must equal the per-device counter accounting.
        let expect: u64 = report.devices.iter().map(|d| model.total_messages(&d.counters)).sum();
        assert_eq!(report.total_messages, expect);
        assert!(report.peak_messages_per_s > 0);
    }

    #[test]
    fn load_reactive_cell_governs_the_storm() {
        use tailwise_radio::admission::LoadReactive;
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let model = SignalingModel::default();
        // Chatty 10 s heartbeats sit *inside* AT&T's 16.6 s tail window:
        // a granted release buys a full 28-message re-promotion the
        // timers would never have caused — the §8 storm. Phase-locked
        // devices collide in the same seconds, so a 1 msg/s watermark
        // must deny part of it…
        let storm = || -> Vec<CellDevice> {
            (0..8)
                .map(|i| {
                    let pkts: Vec<Packet> = (0..30)
                        .map(|k| {
                            Packet::new(Instant::from_millis(k * 10_000), Direction::Down, 120)
                        })
                        .collect();
                    CellDevice {
                        name: format!("p{i}"),
                        trace: Trace::from_sorted(pkts).unwrap(),
                        policy: Box::new(FixedWait::new(Duration::from_millis(500), "0.5s")),
                    }
                })
                .collect()
        };
        let mut reactive = LoadReactive::new(1, 5);
        let governed = run_cell(&p, &cfg, storm(), &mut reactive, &model);
        assert!(governed.denied > 0, "watermark never engaged");
        assert!(governed.granted > 0, "governor latched shut");
        // …and each denied release keeps the radio in the FACH tail
        // instead of buying an Idle→DCH re-promotion: fewer total RRC
        // messages than the always-accept cell absorbing the same storm.
        let free = run_cell(&p, &cfg, storm(), &mut AlwaysAccept, &model);
        assert!(
            governed.total_messages < free.total_messages,
            "reactive admission must shed signaling load: {} vs {}",
            governed.total_messages,
            free.total_messages
        );
        assert!(governed.total_energy() > free.total_energy(), "shedding load costs energy");
    }

    #[test]
    fn empty_cell_is_empty() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let r = run_cell(&p, &cfg, Vec::new(), &mut AlwaysAccept, &SignalingModel::default());
        assert_eq!(r.total_energy(), 0.0);
        assert_eq!(r.total_messages, 0);
        assert_eq!(r.peak_messages_per_s, 0);
    }
}
