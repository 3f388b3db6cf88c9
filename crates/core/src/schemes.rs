//! The evaluation schemes of §6.2, as one dispatchable enum.
//!
//! Every bar group in Figures 9–11 and 17–18 compares the same six
//! schemes. [`Scheme`] gives the harness (and downstream users) a single
//! entry point that builds the right policy stack and runs the engine:
//!
//! | Scheme | Paper legend | Construction |
//! |--------|--------------|--------------|
//! | [`Scheme::StatusQuo`] | status quo (normalizer) | inactivity timers only |
//! | [`Scheme::FixedTail45`] | "4.5-second" | demote after a fixed 4.5 s |
//! | [`Scheme::PercentileIat`] | "95% IAT" | demote after the trace's 95th-percentile inter-arrival |
//! | [`Scheme::MakeIdle`] | "MakeIdle" | §4 online predictor |
//! | [`Scheme::Oracle`] | "Oracle" | offline optimum (§6.2) |
//! | [`Scheme::MakeIdleActiveFix`] | "MakeIdle+MakeActive Fix" | §4 + §5.1 batching |
//! | [`Scheme::MakeIdleActiveLearn`] | "MakeIdle+MakeActive Learn" | §4 + §5.2 learning batcher |
//!
//! Note the paper's caveat, which holds here too: the 95% IAT scheme is
//! "tested over the same data on which it has been trained" — its wait is
//! computed from the full trace before the run.

use tailwise_radio::profile::CarrierProfile;
use tailwise_sim::batching::run_batched;
use tailwise_sim::engine::{run, SimConfig};
use tailwise_sim::oracle::OracleIdle;
use tailwise_sim::policy::{FixedWait, IdlePolicy, StatusQuo};
use tailwise_sim::report::SimReport;
use tailwise_sim::twophase::{record_requests, replay_requests, RequestTrace};
use tailwise_trace::stats::EmpiricalDist;
use tailwise_trace::time::Duration;
use tailwise_trace::Trace;

use crate::makeactive::{FixedDelayBound, LearningDelay};
use crate::makeidle::MakeIdle;

/// One of the paper's evaluation schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Carrier inactivity timers only — the normalizer for every figure.
    StatusQuo,
    /// The "4.5-second tail" proposal of Falaki et al. (ref. \[6\]).
    FixedTail45,
    /// Demote after the trace's `q`-quantile inter-arrival time
    /// (the paper's "95% IAT" with `q = 0.95`).
    PercentileIat(f64),
    /// The §4 online predictor.
    MakeIdle,
    /// The §6.2 offline optimum.
    Oracle,
    /// MakeIdle plus the §5.1 fixed-delay batcher.
    MakeIdleActiveFix,
    /// MakeIdle plus the §5.2 learning batcher.
    MakeIdleActiveLearn,
}

impl Scheme {
    /// The six schemes shown in the paper's comparison figures, in legend
    /// order.
    pub fn paper_set() -> Vec<Scheme> {
        vec![
            Scheme::FixedTail45,
            Scheme::PercentileIat(0.95),
            Scheme::MakeIdle,
            Scheme::Oracle,
            Scheme::MakeIdleActiveLearn,
            Scheme::MakeIdleActiveFix,
        ]
    }

    /// Figure-legend label.
    pub fn label(&self) -> String {
        match self {
            Scheme::StatusQuo => "status quo".into(),
            Scheme::FixedTail45 => "4.5-second".into(),
            Scheme::PercentileIat(q) => format!("{:.0}% IAT", q * 100.0),
            Scheme::MakeIdle => "MakeIdle".into(),
            Scheme::Oracle => "Oracle".into(),
            Scheme::MakeIdleActiveFix => "MakeIdle+MakeActive Fix".into(),
            Scheme::MakeIdleActiveLearn => "MakeIdle+MakeActive Learn".into(),
        }
    }

    /// The canonical scheme names accepted by `Scheme::from_str`,
    /// for error messages and documentation.
    pub const NAMES: [&'static str; 7] = [
        "statusquo",
        "tail45",
        "iat95",
        "makeidle",
        "oracle",
        "makeidle-activefix",
        "makeidle-activelearn",
    ];

    /// Runs the scheme over `trace` on `profile`, with the paper's
    /// always-accept fast-dormancy assumption.
    pub fn run(&self, profile: &CarrierProfile, config: &SimConfig, trace: &Trace) -> SimReport {
        let mut report = match self {
            Scheme::MakeIdleActiveFix => {
                let mut batcher = FixedDelayBound::from_trace(profile, config, trace);
                run_batched(profile, config, trace, &mut MakeIdle::new(), &mut batcher)
            }
            Scheme::MakeIdleActiveLearn => {
                run_batched(profile, config, trace, &mut MakeIdle::new(), &mut LearningDelay::new())
            }
            _ => {
                let mut policy = self.idle_policy(trace).expect("every other scheme is scriptable");
                run(profile, config, trace, policy.as_mut())
            }
        };
        report.scheme = self.label();
        report
    }

    /// Whether the scheme can run through the two-phase
    /// request/replay API ([`tailwise_sim::twophase`]).
    ///
    /// True for every scheme whose demotion requests are a pure function
    /// of the trace — all of them except the MakeActive variants, whose
    /// session batching rewrites the trace based on the radio being
    /// Idle, and therefore on earlier grant outcomes. Cell-topology
    /// fleets require a scriptable scheme.
    pub fn scriptable(&self) -> bool {
        !matches!(self, Scheme::MakeIdleActiveFix | Scheme::MakeIdleActiveLearn)
    }

    /// Builds the scheme's demotion policy for `trace`, or `None` for
    /// the MakeActive variants (see [`scriptable`](Self::scriptable)).
    ///
    /// `trace` is needed because the 95%-IAT baseline computes its wait
    /// from the whole trace (§6.2 grants that baseline its training
    /// data); the other schemes ignore it.
    pub fn idle_policy(&self, trace: &Trace) -> Option<Box<dyn IdlePolicy>> {
        Some(match self {
            Scheme::StatusQuo => Box::new(StatusQuo),
            Scheme::FixedTail45 => Box::new(FixedWait::four_and_a_half_seconds()),
            Scheme::PercentileIat(q) => {
                Box::new(FixedWait::new(percentile_iat(trace, *q), self.label()))
            }
            Scheme::MakeIdle => Box::new(MakeIdle::new()),
            Scheme::Oracle => Box::new(OracleIdle),
            Scheme::MakeIdleActiveFix | Scheme::MakeIdleActiveLearn => return None,
        })
    }

    /// Phase 1 of the two-phase API at scheme granularity: the
    /// time-stamped fast-dormancy requests this scheme would send over
    /// `trace` — without a full simulation. `None` for the MakeActive
    /// variants.
    pub fn request_trace(
        &self,
        profile: &CarrierProfile,
        config: &SimConfig,
        trace: &Trace,
    ) -> Option<RequestTrace> {
        let mut policy = self.idle_policy(trace)?;
        Some(record_requests(profile, config, trace, policy.as_mut()))
    }

    /// Both phases at scheme granularity: extracts the scheme's
    /// requests ([`request_trace`](Self::request_trace)) and replays
    /// them exactly against a scripted grant/deny sequence (one verdict
    /// per request, in order). `None` for the MakeActive variants.
    ///
    /// With all-true verdicts this is bit-identical to
    /// [`run`](Self::run)'s always-accept world — the property cell
    /// topologies lean on for their unlimited-capacity baseline. A
    /// coordinator that already holds the requests replays them with
    /// [`replay_requests`] and skips the extraction.
    pub fn run_scripted(
        &self,
        profile: &CarrierProfile,
        config: &SimConfig,
        trace: &Trace,
        verdicts: &[bool],
    ) -> Option<SimReport> {
        let requests = self.request_trace(profile, config, trace)?;
        let mut report =
            replay_requests(profile, config, trace, &requests.times, requests.confusion, verdicts);
        report.scheme = self.label();
        Some(report)
    }
}

/// The stable on-disk/CLI token of each scheme.
///
/// Round-trips through `Scheme::from_str` for every scheme in
/// [`Scheme::NAMES`] (scenario files and the `tailwise` CLI rely on
/// this). `PercentileIat(q)` renders as `iat<percent>` with the percent
/// in shortest round-trip float form (`iat95`, `iat87.5`); re-parsing
/// recovers `q` exactly whenever `q` itself came from such a token.
impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::StatusQuo => f.write_str("statusquo"),
            Scheme::FixedTail45 => f.write_str("tail45"),
            Scheme::PercentileIat(q) => {
                let pct = q * 100.0;
                if pct.fract() == 0.0 {
                    write!(f, "iat{}", pct as i64)
                } else {
                    write!(f, "iat{pct:?}")
                }
            }
            Scheme::MakeIdle => f.write_str("makeidle"),
            Scheme::Oracle => f.write_str("oracle"),
            Scheme::MakeIdleActiveFix => f.write_str("makeidle-activefix"),
            Scheme::MakeIdleActiveLearn => f.write_str("makeidle-activelearn"),
        }
    }
}

/// Parses a scheme token (canonical names plus a few historical CLI
/// aliases), case-insensitively.
impl std::str::FromStr for Scheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Scheme, String> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "statusquo" | "status-quo" => return Ok(Scheme::StatusQuo),
            "tail45" | "4.5s" => return Ok(Scheme::FixedTail45),
            "95iat" => return Ok(Scheme::PercentileIat(0.95)),
            "makeidle" => return Ok(Scheme::MakeIdle),
            "oracle" => return Ok(Scheme::Oracle),
            "makeidle-activefix" | "activefix" => return Ok(Scheme::MakeIdleActiveFix),
            "makeidle-activelearn" | "activelearn" => return Ok(Scheme::MakeIdleActiveLearn),
            _ => {}
        }
        if let Some(pct) = lower.strip_prefix("iat") {
            let pct: f64 =
                pct.parse().map_err(|_| format!("invalid IAT percentile in scheme {s:?}"))?;
            if !(0.0..100.0).contains(&pct) || pct <= 0.0 {
                return Err(format!("IAT percentile must be in (0, 100), got {pct}"));
            }
            return Ok(Scheme::PercentileIat(pct / 100.0));
        }
        Err(format!("unknown scheme {s:?}; one of {}", Scheme::NAMES.join(", ")))
    }
}

/// The `q`-quantile of a trace's inter-arrival distribution — the "95%
/// IAT" statistic (§6.2), computed over the whole trace exactly as the
/// paper grants that baseline.
pub fn percentile_iat(trace: &Trace, q: f64) -> Duration {
    let dist = EmpiricalDist::from_samples(trace.gaps());
    dist.quantile(q).unwrap_or(Duration::from_millis(4500))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::Instant;

    /// A heartbeat-plus-bursts trace long enough for MakeIdle to warm up.
    fn workload() -> Trace {
        let mut pkts = Vec::new();
        let mut t = 0.0;
        for i in 0..300 {
            // A small burst: 4 packets, 50 ms apart.
            for j in 0..4 {
                pkts.push(Packet::new(
                    Instant::from_secs_f64(t + j as f64 * 0.05),
                    if j == 0 { Direction::Up } else { Direction::Down },
                    600,
                ));
            }
            // Inter-burst gap alternates 8 s / 25 s.
            t += if i % 2 == 0 { 8.0 } else { 25.0 };
        }
        Trace::from_sorted(pkts).unwrap()
    }

    #[test]
    fn all_schemes_run_and_label_correctly() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = workload();
        let base = Scheme::StatusQuo.run(&p, &cfg, &t);
        assert_eq!(base.scheme, "status quo");
        for s in Scheme::paper_set() {
            let r = s.run(&p, &cfg, &t);
            assert_eq!(r.scheme, s.label());
            assert!(r.total_energy() > 0.0, "{}", s.label());
        }
    }

    #[test]
    fn figure9_ordering_holds_on_heartbeat_workload() {
        // The qualitative ordering the paper reports: MakeIdle tracks the
        // Oracle closely and beats the naive baselines; batching saves at
        // least as much as plain MakeIdle.
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = workload();
        let base = Scheme::StatusQuo.run(&p, &cfg, &t);
        let oracle = Scheme::Oracle.run(&p, &cfg, &t);
        let makeidle = Scheme::MakeIdle.run(&p, &cfg, &t);
        let tail45 = Scheme::FixedTail45.run(&p, &cfg, &t);

        let s_oracle = oracle.savings_vs(&base);
        let s_makeidle = makeidle.savings_vs(&base);
        let s_tail45 = tail45.savings_vs(&base);

        assert!(s_oracle > 40.0, "oracle saves {s_oracle}%");
        assert!(s_makeidle > 30.0, "makeidle saves {s_makeidle}%");
        assert!(s_oracle + 1e-9 >= s_makeidle, "oracle bounds makeidle");
        assert!(s_makeidle > s_tail45, "makeidle {s_makeidle}% vs 4.5s {s_tail45}%");
    }

    #[test]
    fn batching_restores_switch_counts() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = workload();
        let base = Scheme::StatusQuo.run(&p, &cfg, &t);
        let makeidle = Scheme::MakeIdle.run(&p, &cfg, &t);
        let learn = Scheme::MakeIdleActiveLearn.run(&p, &cfg, &t);
        // MakeIdle alone inflates switches; batching pulls them back down.
        assert!(makeidle.switch_cycles() > base.switch_cycles());
        assert!(learn.switch_cycles() < makeidle.switch_cycles());
        // And the batched run actually delayed some sessions.
        assert!(!learn.session_delays.is_empty());
        assert!(learn.batching_rounds > 0);
    }

    #[test]
    fn scheme_names_round_trip() {
        let mut all = vec![Scheme::StatusQuo];
        all.extend(Scheme::paper_set());
        for scheme in all {
            let token = scheme.to_string();
            assert!(Scheme::NAMES.contains(&token.as_str()), "{token} not in NAMES");
            assert_eq!(token.parse::<Scheme>().unwrap(), scheme, "{token}");
        }
        // Fractional percentiles round-trip through the iat<pct> form.
        let odd = Scheme::PercentileIat(0.875);
        assert_eq!(odd.to_string(), "iat87.5");
        assert_eq!("iat87.5".parse::<Scheme>().unwrap(), odd);
        // Aliases and case-insensitivity.
        assert_eq!("MakeIdle".parse::<Scheme>().unwrap(), Scheme::MakeIdle);
        assert_eq!("95iat".parse::<Scheme>().unwrap(), Scheme::PercentileIat(0.95));
        assert_eq!("activelearn".parse::<Scheme>().unwrap(), Scheme::MakeIdleActiveLearn);
        // Rejections name the valid set.
        let err = "makeactive".parse::<Scheme>().unwrap_err();
        assert!(err.contains("makeidle-activefix"), "{err}");
        assert!("iat0".parse::<Scheme>().is_err());
        assert!("iat100".parse::<Scheme>().is_err());
        assert!("iatx".parse::<Scheme>().is_err());
    }

    #[test]
    fn scripted_all_grants_matches_run_for_every_scriptable_scheme() {
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let t = workload();
        let mut all = vec![Scheme::StatusQuo];
        all.extend(Scheme::paper_set());
        for s in all {
            let (Some(requests), true) = (s.request_trace(&p, &cfg, &t), s.scriptable()) else {
                // MakeActive variants are excluded from the two-phase API.
                assert!(!s.scriptable());
                assert!(s.request_trace(&p, &cfg, &t).is_none());
                assert!(s.run_scripted(&p, &cfg, &t, &[]).is_none());
                continue;
            };
            let verdicts = vec![true; requests.len()];
            let scripted = s.run_scripted(&p, &cfg, &t, &verdicts).unwrap();
            let direct = s.run(&p, &cfg, &t);
            assert_eq!(scripted.scheme, direct.scheme);
            assert_eq!(
                scripted.total_energy().to_bits(),
                direct.total_energy().to_bits(),
                "{} drifted through the two-phase path",
                s.label()
            );
            assert_eq!(scripted.counters, direct.counters);
            assert_eq!(scripted.confusion, direct.confusion);
        }
        // Request counts mirror the engine's accepted demotions.
        let requests = Scheme::MakeIdle.request_trace(&p, &cfg, &t).unwrap();
        let direct = Scheme::MakeIdle.run(&p, &cfg, &t);
        assert_eq!(requests.len() as u64, direct.counters.fd_demotions);
    }

    #[test]
    fn percentile_iat_matches_distribution() {
        let t = workload();
        let p95 = percentile_iat(&t, 0.95);
        let dist = EmpiricalDist::from_samples(t.gaps());
        assert_eq!(dist.quantile(0.95).unwrap(), p95);
        // Empty traces fall back to the 4.5 s default.
        assert_eq!(percentile_iat(&Trace::new(), 0.95), Duration::from_millis(4500));
    }
}
