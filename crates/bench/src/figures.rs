//! One reproduction function per table and figure of the paper.
//!
//! Each function returns [`Table`]s carrying exactly the rows/series the
//! paper plots; [`crate::experiments`] names each function, gives its
//! tables their CSV stems, and is what the `repro` binary runs.
//!
//! Carrier notes: Figures 1 and 9 come from the paper's HTC G1 (a
//! T-Mobile device), so those use the T-Mobile 3G profile; Figures 10/12a/
//! 14/15a use Verizon 3G with the six-user population; Figures 11/12b/15b
//! use Verizon LTE with the three-user population; Figures 17/18 and
//! Table 3 sweep all four Table-2 carriers over all nine users.

use std::collections::HashMap;

use tailwise_core::makeactive::{LearningConfig, LearningDelay};
use tailwise_core::makeidle::{MakeIdle, MakeIdleConfig};
use tailwise_core::schemes::Scheme;
use tailwise_radio::profile::CarrierProfile;
use tailwise_sim::batching::run_batched;
use tailwise_sim::engine::{run, SimConfig};
use tailwise_sim::policy::StatusQuo;
use tailwise_sim::report::SimReport;
use tailwise_trace::packet::{Direction, Packet};
use tailwise_trace::time::Instant;
use tailwise_trace::Trace;

use crate::datasets;
use crate::groundtruth;
use crate::table::{f1, f2, f3, Table};

/// Shared dataset handles plus a memo of completed runs.
pub struct Harness {
    /// Engine configuration used throughout (paper defaults).
    pub cfg: SimConfig,
    users_3g: Vec<(String, Trace)>,
    users_lte: Vec<(String, Trace)>,
    memo: HashMap<(String, String, String), SimReport>,
}

impl Harness {
    /// Loads (or generates) every dataset.
    pub fn new() -> Harness {
        Harness {
            cfg: SimConfig::default(),
            users_3g: datasets::users_3g(),
            users_lte: datasets::users_lte(),
            memo: HashMap::new(),
        }
    }

    /// The Verizon-3G user population `(name, trace)`.
    pub fn users_3g(&self) -> &[(String, Trace)] {
        &self.users_3g
    }

    /// The Verizon-LTE user population.
    pub fn users_lte(&self) -> &[(String, Trace)] {
        &self.users_lte
    }

    fn user_trace(&self, name: &str) -> &Trace {
        self.users_3g
            .iter()
            .chain(&self.users_lte)
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .unwrap_or_else(|| panic!("unknown user {name}"))
    }

    /// Runs (memoized) one scheme for one user on one carrier.
    pub fn report(&mut self, profile: &CarrierProfile, user: &str, scheme: Scheme) -> SimReport {
        let key = (profile.name.to_string(), user.to_string(), scheme.label());
        if let Some(r) = self.memo.get(&key) {
            return r.clone();
        }
        let trace = self.user_trace(user).clone();
        let r = scheme.run(profile, &self.cfg, &trace);
        self.memo.insert(key, r.clone());
        r
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// The schemes of the comparison figures, in legend order.
fn paper_schemes() -> Vec<Scheme> {
    Scheme::paper_set()
}

// ================================================================ Fig 1 ==

/// Figure 1: % of status-quo energy per component, per application.
pub fn fig01_energy_breakdown() -> Table {
    let profile = CarrierProfile::tmobile_3g(); // the HTC G1's network
    let cfg = SimConfig::default();
    let mut t = Table::new(
        "Fig 1 — energy consumed by the 3G interface, by component (%, status quo, T-Mobile 3G)",
        &["app", "data", "dch_timer", "fach_timer", "state_switch"],
    );
    for (kind, trace) in datasets::all_app_traces() {
        let r = run(&profile, &cfg, &trace, &mut StatusQuo);
        let (data, dch, fach, sw) = r.energy.fractions();
        t.push(vec![
            kind.name().into(),
            f1(data * 100.0),
            f1(dch * 100.0),
            f1(fach * 100.0),
            f1(sw * 100.0),
        ]);
    }
    t
}

// ================================================================ Fig 3 ==

/// Figure 3: measured power across one burst + tail cycle, for AT&T 3G
/// and Verizon LTE.
pub fn fig03_power_timeline() -> Vec<Table> {
    let burst: Vec<Packet> = vec![
        Packet::new(Instant::from_millis(0), Direction::Up, 400),
        Packet::new(Instant::from_millis(120), Direction::Down, 1400),
        Packet::new(Instant::from_millis(240), Direction::Down, 1400),
        Packet::new(Instant::from_millis(380), Direction::Up, 52),
    ];
    let trace = Trace::from_sorted(burst).unwrap();
    let cfg = SimConfig { record_timeline: true, ..Default::default() };
    let mut out = Vec::new();
    for profile in [CarrierProfile::att_hspa(), CarrierProfile::verizon_lte()] {
        let r = run(&profile, &cfg, &trace, &mut StatusQuo);
        let mut t = Table::new(
            format!("Fig 3 — power timeline of one burst + tail ({})", profile.name),
            &["start_s", "end_s", "power_w", "phase"],
        );
        for s in r.timeline.as_ref().expect("timeline recorded") {
            t.push(vec![
                f3(s.start.as_secs_f64()),
                f3(s.end.as_secs_f64()),
                f3(s.power),
                format!("{:?}", s.kind),
            ]);
        }
        out.push(t);
    }
    out
}

// ================================================================ Fig 8 ==

/// Figure 8: relative error of the per-second energy model against the
/// fine-grained ground truth (five-number summaries).
///
/// Calibrated, not reproduced. [`groundtruth::model_error`] reduces to
/// `1/(efficiency × (1 + noise)) − 1`: the carrier's power and the
/// transfer's throughput cancel, so both networks' rows are the same
/// numbers, and the ±10% envelope holds because the efficiency factor
/// and the noise were calibrated to it, not because the per-second
/// model was measured against anything.
pub fn fig08_energy_error() -> Table {
    let mut t = Table::new(
        "Fig 8 — simulation energy error vs fine-grained ground truth",
        &["network", "min", "q1", "median", "q3", "max"],
    );
    for (profile, tput) in
        [(CarrierProfile::verizon_3g(), 3_000_000.0), (CarrierProfile::verizon_lte(), 12_000_000.0)]
    {
        let errors = groundtruth::error_population(&profile, tput);
        let (min, q1, med, q3, max) = groundtruth::five_number(&errors);
        t.push(vec![profile.name.into(), f3(min), f3(q1), f3(med), f3(q3), f3(max)]);
    }
    t
}

// ================================================================ Fig 9 ==

/// Figure 9: energy saved per application, per scheme (% vs status quo).
pub fn fig09_apps() -> Table {
    let profile = CarrierProfile::tmobile_3g();
    let cfg = SimConfig::default();
    let schemes = paper_schemes();
    let mut cols: Vec<String> = vec!["app".into()];
    cols.extend(schemes.iter().map(|s| s.label()));
    let mut t = Table::new(
        "Fig 9 — energy savings per application (%, T-Mobile 3G)",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (kind, trace) in datasets::all_app_traces() {
        let base = Scheme::StatusQuo.run(&profile, &cfg, &trace);
        let mut row = vec![kind.name().to_string()];
        for s in &schemes {
            let r = s.run(&profile, &cfg, &trace);
            row.push(f1(r.savings_vs(&base)));
        }
        t.push(row);
    }
    t
}

// =========================================================== Figs 10/11 ==

fn per_user_panels(
    h: &mut Harness,
    profile: &CarrierProfile,
    users: Vec<String>,
    fig: &str,
) -> Vec<Table> {
    let schemes = paper_schemes();
    let mut cols: Vec<String> = vec!["user".into()];
    cols.extend(schemes.iter().map(|s| s.label()));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut savings =
        Table::new(format!("{fig}a — energy savings (%, {})", profile.name), &col_refs);
    let mut switches = Table::new(
        format!("{fig}b — state switches normalized by status quo ({})", profile.name),
        &col_refs,
    );
    let mut per_switch = Table::new(
        format!("{fig}c — energy saved per state switch (J, {})", profile.name),
        &col_refs,
    );
    for user in users {
        let base = h.report(profile, &user, Scheme::StatusQuo);
        let mut row_s = vec![user.clone()];
        let mut row_n = vec![user.clone()];
        let mut row_j = vec![user.clone()];
        for s in &schemes {
            let r = h.report(profile, &user, *s);
            row_s.push(f1(r.savings_vs(&base)));
            row_n.push(f2(r.normalized_switches(&base)));
            row_j.push(f2(r.energy_saved_per_switch(&base)));
        }
        savings.push(row_s);
        switches.push(row_n);
        per_switch.push(row_j);
    }
    vec![savings, switches, per_switch]
}

/// Figure 10: the Verizon 3G per-user panels (savings, normalized
/// switches, J per switch).
pub fn fig10_verizon3g(h: &mut Harness) -> Vec<Table> {
    let users: Vec<String> = h.users_3g().iter().map(|(n, _)| n.clone()).collect();
    per_user_panels(h, &CarrierProfile::verizon_3g(), users, "Fig 10")
}

/// Figure 11: the Verizon LTE per-user panels.
pub fn fig11_verizonlte(h: &mut Harness) -> Vec<Table> {
    let users: Vec<String> = h.users_lte().iter().map(|(n, _)| n.clone()).collect();
    per_user_panels(h, &CarrierProfile::verizon_lte(), users, "Fig 11")
}

// ================================================================ Fig 12 ==

/// Figure 12: false (FP) and missed (FN) switch rates vs the Oracle.
pub fn fig12_fpfn(h: &mut Harness) -> Vec<Table> {
    let mut out = Vec::new();
    for (profile, users, panel) in [
        (
            CarrierProfile::verizon_3g(),
            h.users_3g().iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "Fig 12a (Verizon 3G)",
        ),
        (
            CarrierProfile::verizon_lte(),
            h.users_lte().iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "Fig 12b (Verizon LTE)",
        ),
    ] {
        let mut t = Table::new(
            format!("{panel} — false/missed switches vs Oracle (%)"),
            &[
                "user",
                "4.5s FP",
                "4.5s FN",
                "95% IAT FP",
                "95% IAT FN",
                "MakeIdle FP",
                "MakeIdle FN",
            ],
        );
        for user in users {
            let mut row = vec![user.clone()];
            for s in [Scheme::FixedTail45, Scheme::PercentileIat(0.95), Scheme::MakeIdle] {
                let r = h.report(&profile, &user, s);
                row.push(f1(r.confusion.false_switch_rate() * 100.0));
                row.push(f1(r.confusion.missed_switch_rate() * 100.0));
            }
            t.push(row);
        }
        out.push(t);
    }
    out
}

// ================================================================ Fig 13 ==

/// Figure 13: MakeIdle FP/FN as a function of the window size n.
pub fn fig13_window_sweep(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let (user, trace) = h.users_3g()[0].clone();
    let mut t = Table::new(
        format!("Fig 13 — MakeIdle FP/FN vs window size n ({user}, Verizon 3G)"),
        &["n", "fp_pct", "fn_pct"],
    );
    for n in [10usize, 25, 50, 100, 150, 200, 300, 400] {
        let cfg = SimConfig { window_capacity: n, ..h.cfg.clone() };
        let r = run(&profile, &cfg, &trace, &mut MakeIdle::new());
        t.push(vec![
            n.to_string(),
            f2(r.confusion.false_switch_rate() * 100.0),
            f2(r.confusion.missed_switch_rate() * 100.0),
        ]);
    }
    t
}

// ================================================================ Fig 14 ==

/// Figure 14: the wait MakeIdle chooses over time (first 600 s with
/// decisions, Verizon 3G).
pub fn fig14_twait_series(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let (user, trace) = h.users_3g()[0].clone();
    let cfg = SimConfig { record_decisions: true, ..h.cfg.clone() };
    let r = run(&profile, &cfg, &trace, &mut MakeIdle::new());
    let decisions = r.decisions.as_ref().expect("decisions recorded");
    let mut t = Table::new(
        format!("Fig 14 — t_wait over time ({user}, Verizon 3G, first 600 s of decisions)"),
        &["time_s", "t_wait_s"],
    );
    let start = decisions.first().map(|&(at, _)| at).unwrap_or(Instant::ZERO);
    for &(at, w) in decisions {
        let rel = (at - start).as_secs_f64();
        if rel > 600.0 {
            break;
        }
        t.push(vec![f2(rel), f3(w.as_secs_f64())]);
    }
    t
}

// ================================================================ Fig 15 ==

/// Figure 15: mean/median session delay, learning vs fixed bound.
pub fn fig15_delays(h: &mut Harness) -> Vec<Table> {
    let mut out = Vec::new();
    for (profile, users, panel) in [
        (
            CarrierProfile::verizon_3g(),
            h.users_3g().iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "Fig 15a (Verizon 3G)",
        ),
        (
            CarrierProfile::verizon_lte(),
            h.users_lte().iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "Fig 15b (Verizon LTE)",
        ),
    ] {
        let mut t = Table::new(
            format!("{panel} — session delays, learning vs fixed (s)"),
            &["user", "learn_mean", "learn_median", "fix_mean", "fix_median"],
        );
        for user in users {
            let learn = h.report(&profile, &user, Scheme::MakeIdleActiveLearn);
            let fix = h.report(&profile, &user, Scheme::MakeIdleActiveFix);
            t.push(vec![
                user.clone(),
                f2(learn.mean_session_delay()),
                f2(learn.median_session_delay()),
                f2(fix.mean_session_delay()),
                f2(fix.median_session_delay()),
            ]);
        }
        out.push(t);
    }
    out
}

// ================================================================ Fig 16 ==

/// Figure 16: learned delay and buffered-burst count per learning
/// iteration.
pub fn fig16_learning_dynamics(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let (user, trace) = h.users_3g()[0].clone();
    let mut idle = MakeIdle::new();
    let mut learner = LearningDelay::new();
    let _ = run_batched(&profile, &h.cfg, &trace, &mut idle, &mut learner);
    let mut t = Table::new(
        format!("Fig 16 — delay value vs learning iteration ({user}, Verizon 3G)"),
        &["iteration", "delay_s", "buffered_bursts"],
    );
    for (i, rec) in learner.history().iter().take(30).enumerate() {
        t.push(vec![i.to_string(), f2(rec.proposed_delay), rec.buffered.to_string()]);
    }
    t
}

// =========================================================== Figs 17/18 ==

/// One scheme's aggregate over the nine-user population.
type SchemeAggregate = (String, f64, u64);
/// A carrier's aggregates: per-scheme rows plus the status-quo reference
/// `(energy, switches)`.
type CarrierAggregate = (CarrierProfile, Vec<SchemeAggregate>, f64, u64);

/// Aggregated per-carrier runs over the full nine-user population.
fn carrier_aggregates(h: &mut Harness) -> Vec<CarrierAggregate> {
    let all_users: Vec<String> =
        h.users_3g().iter().chain(h.users_lte()).map(|(n, _)| n.clone()).collect();
    let mut out = Vec::new();
    for profile in CarrierProfile::paper_carriers() {
        let mut base_energy = 0.0;
        let mut base_switches = 0u64;
        for u in &all_users {
            let r = h.report(&profile, u, Scheme::StatusQuo);
            base_energy += r.total_energy();
            base_switches += r.switch_cycles();
        }
        let mut rows = Vec::new();
        for s in paper_schemes() {
            let mut energy = 0.0;
            let mut switches = 0u64;
            for u in &all_users {
                let r = h.report(&profile, u, s);
                energy += r.total_energy();
                switches += r.switch_cycles();
            }
            rows.push((s.label(), energy, switches));
        }
        out.push((profile, rows, base_energy, base_switches));
    }
    out
}

/// Figure 17: energy saved per carrier per scheme (%, all nine users).
pub fn fig17_carriers(h: &mut Harness) -> Table {
    let mut cols: Vec<String> = vec!["carrier".into()];
    cols.extend(paper_schemes().iter().map(|s| s.label()));
    let mut t = Table::new(
        "Fig 17 — energy saved per carrier (%, aggregated over all users)",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (profile, rows, base_energy, _) in carrier_aggregates(h) {
        let mut row = vec![profile.name.to_string()];
        for (_, energy, _) in &rows {
            row.push(f1((base_energy - energy) / base_energy * 100.0));
        }
        t.push(row);
    }
    t
}

/// Figure 18: switch counts normalized by the status quo, per carrier.
pub fn fig18_carrier_switches(h: &mut Harness) -> Table {
    let mut cols: Vec<String> = vec!["carrier".into()];
    cols.extend(paper_schemes().iter().map(|s| s.label()));
    let mut t = Table::new(
        "Fig 18 — state switches normalized by status quo, per carrier",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (profile, rows, _, base_switches) in carrier_aggregates(h) {
        let mut row = vec![profile.name.to_string()];
        for (_, _, switches) in &rows {
            row.push(f2(*switches as f64 / base_switches.max(1) as f64));
        }
        t.push(row);
    }
    t
}

// ================================================================ Tables ==

/// Table 1: bulk send/receive power.
pub fn tab01_power() -> Table {
    let mut t = Table::new(
        "Table 1 — average bulk-transfer power (mW)",
        &["network", "sending_mw", "receiving_mw"],
    );
    for p in [CarrierProfile::att_hspa(), CarrierProfile::verizon_lte()] {
        t.push(vec![p.name.into(), f1(p.p_send * 1000.0), f1(p.p_recv * 1000.0)]);
    }
    t
}

/// Table 2: the full RRC parameter set per carrier (plus the derived
/// switch energy and threshold this reproduction calibrates).
pub fn tab02_rrc_params() -> Table {
    let mut t = Table::new(
        "Table 2 — RRC power and timer values per carrier",
        &[
            "network",
            "Psnd_mw",
            "Prcv_mw",
            "Pt1_mw",
            "Pt2_mw",
            "t1_s",
            "t2_s",
            "promo_s",
            "E_switch_J",
            "t_threshold_s",
        ],
    );
    for p in CarrierProfile::paper_carriers() {
        t.push(vec![
            p.name.into(),
            f1(p.p_send * 1000.0),
            f1(p.p_recv * 1000.0),
            f1(p.p_dch * 1000.0),
            f1(p.p_fach * 1000.0),
            f1(p.t1.as_secs_f64()),
            f1(p.t2.as_secs_f64()),
            f1(p.promotion_delay.as_secs_f64()),
            f2(p.e_switch()),
            f2(p.t_threshold().as_secs_f64()),
        ]);
    }
    t
}

/// Table 3: mean/median MakeActive session delays per carrier
/// (learning batcher, all users).
pub fn tab03_session_delays(h: &mut Harness) -> Table {
    let all_users: Vec<String> =
        h.users_3g().iter().chain(h.users_lte()).map(|(n, _)| n.clone()).collect();
    let mut t = Table::new(
        "Table 3 — MakeActive session delays per carrier (s)",
        &["network", "mean_delay", "median_delay"],
    );
    for profile in CarrierProfile::paper_carriers() {
        let mut delays: Vec<f64> = Vec::new();
        for u in &all_users {
            let r = h.report(&profile, u, Scheme::MakeIdleActiveLearn);
            delays.extend_from_slice(&r.session_delays);
        }
        let mean = tailwise_sim::metrics::mean_f64(&delays).unwrap_or(0.0);
        let median = tailwise_sim::metrics::median_f64(&delays).unwrap_or(0.0);
        t.push(vec![profile.name.into(), f2(mean), f2(median)]);
    }
    t
}

// ============================================================= Ablations ==

/// §6.1 robustness: fast-dormancy demotion cost at {10, 20, 40, 50}% of
/// the radio-off cost — "the results did not change appreciably".
pub fn ablation_fd_fraction(h: &mut Harness) -> Table {
    let users: Vec<(String, Trace)> = h.users_3g().to_vec();
    let mut t = Table::new(
        "Ablation — MakeIdle savings vs fast-dormancy energy fraction (Verizon 3G, %)",
        &["fd_fraction", "makeidle_savings_pct", "oracle_savings_pct"],
    );
    for frac in [0.1, 0.2, 0.4, 0.5] {
        let mut profile = CarrierProfile::verizon_3g();
        profile.fd_energy_fraction = frac;
        let mut base_e = 0.0;
        let mut mi_e = 0.0;
        let mut or_e = 0.0;
        for (_, trace) in &users {
            base_e += Scheme::StatusQuo.run(&profile, &h.cfg, trace).total_energy();
            mi_e += Scheme::MakeIdle.run(&profile, &h.cfg, trace).total_energy();
            or_e += Scheme::Oracle.run(&profile, &h.cfg, trace).total_energy();
        }
        t.push(vec![
            f2(frac),
            f1((base_e - mi_e) / base_e * 100.0),
            f1((base_e - or_e) / base_e * 100.0),
        ]);
    }
    t
}

/// MakeActive loss-scale sweep: the γ = 0.008 choice (§5.2).
pub fn ablation_gamma(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let users: Vec<(String, Trace)> = h.users_3g().to_vec();
    let mut t = Table::new(
        "Ablation — MakeActive-Learn vs loss scale gamma (Verizon 3G)",
        &["gamma", "savings_pct", "norm_switches", "mean_delay_s"],
    );
    for gamma in [0.001, 0.004, 0.008, 0.016, 0.064] {
        let mut base_e = 0.0;
        let mut base_sw = 0u64;
        let mut e = 0.0;
        let mut sw = 0u64;
        let mut delays: Vec<f64> = Vec::new();
        for (_, trace) in &users {
            let base = Scheme::StatusQuo.run(&profile, &h.cfg, trace);
            base_e += base.total_energy();
            base_sw += base.switch_cycles();
            let mut learner =
                LearningDelay::with_config(LearningConfig { gamma, ..Default::default() });
            let r = run_batched(&profile, &h.cfg, trace, &mut MakeIdle::new(), &mut learner);
            e += r.total_energy();
            sw += r.switch_cycles();
            delays.extend_from_slice(&r.session_delays);
        }
        t.push(vec![
            f3(gamma),
            f1((base_e - e) / base_e * 100.0),
            f2(sw as f64 / base_sw.max(1) as f64),
            f2(tailwise_sim::metrics::mean_f64(&delays).unwrap_or(0.0)),
        ]);
    }
    t
}

/// MakeIdle candidate-grid resolution sweep.
pub fn ablation_candidate_grid(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let (_, trace) = h.users_3g()[0].clone();
    let base = Scheme::StatusQuo.run(&profile, &h.cfg, &trace);
    let mut t = Table::new(
        "Ablation — MakeIdle savings vs candidate-grid resolution (Verizon 3G, user 1)",
        &["candidates", "savings_pct", "fp_pct", "fn_pct"],
    );
    for candidates in [3usize, 5, 10, 25, 50, 100] {
        let mut mi = MakeIdle::with_config(MakeIdleConfig { candidates, ..Default::default() });
        let r = run(&profile, &h.cfg, &trace, &mut mi);
        t.push(vec![
            candidates.to_string(),
            f1(r.savings_vs(&base)),
            f2(r.confusion.false_switch_rate() * 100.0),
            f2(r.confusion.missed_switch_rate() * 100.0),
        ]);
    }
    t
}

/// Decision-rule ablation: the energy rule MakeIdle uses (§4.2 step 2)
/// against the paper-literal `P(t_wait) ≥ θ` confidence rule (step 1
/// alone), on the same user.
pub fn ablation_decision_rule(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let (_, trace) = h.users_3g()[0].clone();
    let base = Scheme::StatusQuo.run(&profile, &h.cfg, &trace);
    let mut t = Table::new(
        "Ablation — energy rule vs literal confidence rule (Verizon 3G, user 1)",
        &["rule", "savings_pct", "fp_pct", "fn_pct", "norm_switches"],
    );
    let mut row = |name: String, r: &SimReport| {
        t.push(vec![
            name,
            f1(r.savings_vs(&base)),
            f2(r.confusion.false_switch_rate() * 100.0),
            f2(r.confusion.missed_switch_rate() * 100.0),
            f2(r.normalized_switches(&base)),
        ]);
    };
    let energy = run(&profile, &h.cfg, &trace, &mut MakeIdle::new());
    row("energy (MakeIdle)".into(), &energy);
    for theta in [0.5, 0.7, 0.9, 0.95] {
        let mut pol = tailwise_core::confidence::ConfidenceRule::new(theta);
        let r = run(&profile, &h.cfg, &trace, &mut pol);
        row(format!("confidence θ={theta}"), &r);
    }
    t
}

/// §8 future work: base-station signaling load as the cell fills with
/// MakeIdle devices, with and without MakeActive batching, and the effect
/// of a base-station rate limit. Each cell is a one-cell fleet whose
/// phones replay their one-day traces from a corpus, adjudicated and
/// counted by the fleet's topology runner.
pub fn ext_cell_signaling(h: &mut Harness) -> Table {
    use tailwise_fleet::{AdmissionSpec, CorpusScenario, FleetReport, NetworkTopology, UserSource};
    use tailwise_trace::time::Duration as D;

    let profile = CarrierProfile::verizon_3g();
    // One-day slices of the user population as the phones in the cell.
    let day = tailwise_workload::DAY;
    let slice = |trace: &Trace| trace.slice(Instant::ZERO, Instant::ZERO + day);
    let population: Vec<Trace> =
        h.users_3g().iter().chain(h.users_lte()).map(|(_, t)| slice(t)).collect();
    let dir = std::env::temp_dir().join(format!("tailwise-cell-signaling-{}", std::process::id()));

    // `n` phones in one cell behind `admission`. The corpus holds exactly
    // their traces, named so the walk keeps phone order, and one shard
    // sums their energy in that order.
    let cell = |n: usize, batched: bool, admission: AdmissionSpec| -> FleetReport {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the phone corpus directory");
        for i in 0..n {
            let trace = &population[i % population.len()];
            let trace = if batched {
                tailwise_sim::batching::batch_sessions(
                    &profile,
                    &h.cfg,
                    trace,
                    &mut tailwise_core::makeactive::LearningDelay::new(),
                )
                .trace
            } else {
                trace.clone()
            };
            tailwise_trace::io::save(&trace, &dir.join(format!("phone-{i:03}.twt")))
                .expect("write a phone trace");
        }
        let mut scenario = CorpusScenario::new(&dir, Scheme::MakeIdle, profile.clone());
        scenario.shard_size = n as u64;
        scenario.sim = h.cfg.clone();
        let mut topology = NetworkTopology::new(1);
        topology.cell_admission = admission;
        scenario.cells = Some(topology);
        let source = UserSource::Corpus(scenario);
        tailwise_fleet::run_source(&source, 1, tailwise_obs::Obs::none(), None)
            .expect("the phone corpus replays")
    };

    let mut t = Table::new(
        "Extension (§8) — base-station load vs cell population (Verizon 3G)",
        &["devices", "scheme", "release", "msgs_total", "peak_msgs_per_s", "denied", "energy_kJ"],
    );
    let mut row = |n: usize, scheme: &str, release: &str, report: FleetReport| {
        let load = report.signaling.expect("a cell run reports its signaling load");
        t.push(vec![
            n.to_string(),
            scheme.into(),
            release.into(),
            load.total_messages().to_string(),
            load.peak_messages_per_s().to_string(),
            load.denied().to_string(),
            f2(report.energy_j / 1000.0),
        ]);
    };
    for n in [3usize, 6, 12] {
        for (batched, scheme) in [(false, "MakeIdle"), (true, "MakeIdle+MakeActive")] {
            row(n, scheme, "always-accept", cell(n, batched, AdmissionSpec::Always));
        }
        // A protective base station: at most one release grant per second
        // across the whole cell.
        let limited = AdmissionSpec::RateLimited { min_interval: D::from_secs(1) };
        row(n, "MakeIdle", "rate-limited 1/s", cell(n, false, limited));
    }
    std::fs::remove_dir_all(&dir).ok();
    t
}

/// Extension — per-application energy attribution (the Fig-1 motivation
/// as a library feature): who burns the battery on a full user-day?
pub fn ext_energy_attribution(h: &mut Harness) -> Table {
    let profile = CarrierProfile::att_hspa();
    let (user, trace) = h.users_3g()[0].clone();
    let day = trace.slice(Instant::ZERO, Instant::ZERO + tailwise_workload::DAY);
    let attr = tailwise_sim::attribution::attribute(&profile, &h.cfg, &day);
    let mut t = Table::new(
        format!("Extension — per-app energy attribution ({user}, day 1, AT&T)"),
        &["app", "packets", "energy_J", "share_pct", "data_J", "tail_J", "switch_J"],
    );
    for a in &attr.apps {
        let name = tailwise_workload::AppKind::ALL
            .iter()
            .find(|k| k.id() == a.app)
            .map(|k| k.name().to_string())
            .unwrap_or_else(|| a.app.to_string());
        t.push(vec![
            name,
            a.packets.to_string(),
            f1(a.energy.total()),
            f1(attr.share(a.app) * 100.0),
            f1(a.energy.data()),
            f1(a.energy.tail()),
            f1(a.energy.switch()),
        ]);
    }
    t
}

/// Learn-α outer-layer sweep: number of α-experts (m), including the
/// degenerate single-α case.
pub fn ablation_alpha_experts(h: &mut Harness) -> Table {
    let profile = CarrierProfile::verizon_3g();
    let (_, trace) = h.users_3g()[0].clone();
    let base = Scheme::StatusQuo.run(&profile, &h.cfg, &trace);
    let mut t = Table::new(
        "Ablation — MakeActive-Learn vs alpha-expert count m (Verizon 3G, user 1)",
        &["m", "savings_pct", "norm_switches", "mean_delay_s"],
    );
    for m in [1usize, 2, 4, 8, 16] {
        let mut learner =
            LearningDelay::with_config(LearningConfig { alpha_experts: m, ..Default::default() });
        let r = run_batched(&profile, &h.cfg, &trace, &mut MakeIdle::new(), &mut learner);
        t.push(vec![
            m.to_string(),
            f1(r.savings_vs(&base)),
            f2(r.normalized_switches(&base)),
            f2(r.mean_session_delay()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Dataset-free figures run fast enough to test directly.

    #[test]
    fn fig03_has_expected_phases() {
        let tables = fig03_power_timeline();
        assert_eq!(tables.len(), 2);
        for t in &tables {
            let phases: Vec<&String> = t.rows.iter().map(|r| &r[3]).collect();
            assert!(phases.iter().any(|p| p.contains("Data")), "{:?}", t.title);
            assert!(phases.iter().any(|p| p.contains("TailDch")));
            assert!(phases.iter().any(|p| p.contains("Promotion")));
        }
        // The 3G table has a FACH phase; the LTE one must not.
        assert!(tables[0].rows.iter().any(|r| r[3].contains("TailFach")));
        assert!(!tables[1].rows.iter().any(|r| r[3].contains("TailFach")));
    }

    #[test]
    fn fig08_errors_within_envelope() {
        // Calibrated, not reproduced: the ground truth is the estimate
        // times a size factor and per-run noise that were tuned to the
        // paper's ±10% envelope, so this holds by construction. Power
        // and throughput cancel, so the carriers' rows are equal; a
        // carrier-dependent ground truth has to change this assertion.
        let t = fig08_energy_error();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][1..], t.rows[1][1..], "Fig 8's rows differ only in the network");
        for row in &t.rows {
            let min: f64 = row[1].parse().unwrap();
            let max: f64 = row[5].parse().unwrap();
            assert!(min >= -0.15 && max <= 0.15, "{row:?}");
        }
    }

    #[test]
    fn tables_1_and_2_match_the_paper_constants() {
        let t1 = tab01_power();
        assert!(t1.render().contains("2928.0")); // Verizon LTE Psnd
        let t2 = tab02_rrc_params();
        let r = t2.render();
        assert!(r.contains("916.0")); // AT&T Pt1
        assert!(r.contains("16.3")); // T-Mobile t2
                                     // AT&T threshold anchor.
        let att_row = t2.rows.iter().find(|row| row[0].contains("AT&T")).unwrap();
        let th: f64 = att_row[9].parse().unwrap();
        assert!((th - 1.2).abs() < 0.05, "threshold {th}");
    }
}
