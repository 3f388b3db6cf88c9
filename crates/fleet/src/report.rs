//! Population-scale run outcomes.
//!
//! A [`FleetReport`] is the streaming fold of per-user
//! [`SimReport`]s: totals, a
//! savings-distribution histogram, session-delay percentiles, and
//! decision-quality counts — plus, for cell-topology runs, the
//! per-cell signaling load ([`FleetSignaling`]). Folds happen per shard
//! in user order, and shard partials merge in shard order — so the
//! report is a deterministic function of the scenario, independent of
//! how many threads produced it. Wall-clock fields are measured, not
//! derived, and are excluded from equality.

use tailwise_sim::replay_outcome;
use tailwise_sim::report::SimReport;
use tailwise_trace::io::ReplayOutcome;

use crate::histogram::Histogram;

/// Signaling load one cell absorbed over a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellLoad {
    /// Users assigned to the cell.
    pub users: u64,
    /// Fast-dormancy requests the cell granted.
    pub granted: u64,
    /// Fast-dormancy requests the cell denied.
    pub denied: u64,
    /// Total RRC messages absorbed (per the run's
    /// [`SignalingModel`](tailwise_radio::signaling::SignalingModel)).
    pub total_messages: u64,
    /// Peak RRC messages in any one-second window.
    pub peak_messages_per_s: u64,
    /// Seconds in which the message load exceeded the configured
    /// capacity (zero when no capacity was set).
    pub overload_seconds: u64,
    /// Handoffs that entered the cell (users arriving). Nonzero only
    /// under a mobile [`MobilitySpec`](crate::mobility::MobilitySpec);
    /// each side of a handoff charges its own cell's message load.
    pub handoffs_in: u64,
    /// Handoffs that left the cell (users departing).
    pub handoffs_out: u64,
}

/// Signaling load one RNC absorbed over a fleet run: the summed load of
/// its contiguous block of member cells, plus the denials the RNC
/// itself issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RncLoad {
    /// Member cells under this RNC.
    pub cells: u64,
    /// Users across the member cells.
    pub users: u64,
    /// Fast-dormancy requests granted (sum over member cells).
    pub granted: u64,
    /// Fast-dormancy requests denied at either level (sum over member
    /// cells).
    pub denied: u64,
    /// Denials attributable to the RNC itself: the cell forwarded the
    /// request, the RNC refused it.
    pub denied_by_rnc: u64,
    /// Total RRC messages across the member cells.
    pub total_messages: u64,
    /// Peak RRC messages the RNC absorbed in any one-second window
    /// (member-cell loads summed per second — **not** the max of the
    /// cells' peaks).
    pub peak_messages_per_s: u64,
    /// Seconds in which the RNC's summed message load exceeded the
    /// configured RNC capacity (zero when no capacity was set).
    pub overload_seconds: u64,
    /// Handoffs that crossed out of this RNC into another (attributed
    /// to the source RNC, like `denied_by_rnc` is attributed where the
    /// decision happened). These charge the RNC's own message load on
    /// top of the member cells'.
    pub inter_rnc_handoffs: u64,
}

/// The network-side outcome of a topology fleet run: one [`CellLoad`]
/// per cell and one [`RncLoad`] per RNC, each in index order. Attached
/// to the final [`FleetReport`] by the two-pass topology runner (shard
/// partials carry `None`), and part of the report's deterministic
/// identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSignaling {
    /// RRC-message capacity each cell can absorb per second (`None` =
    /// unbounded; cell overload seconds are then always zero).
    pub cell_capacity_per_s: Option<u64>,
    /// RRC-message capacity each RNC can absorb per second, against the
    /// summed load of its member cells (`None` = unbounded).
    pub rnc_capacity_per_s: Option<u64>,
    /// Per-cell loads, indexed by cell.
    pub cells: Vec<CellLoad>,
    /// Per-RNC loads, indexed by RNC (cells map to RNCs in contiguous
    /// blocks — see [`rnc_of_cell`](crate::topology::rnc_of_cell)).
    pub rncs: Vec<RncLoad>,
}

impl FleetSignaling {
    /// Requests granted across every cell.
    pub fn granted(&self) -> u64 {
        self.cells.iter().map(|c| c.granted).sum()
    }

    /// Requests denied across every cell.
    pub fn denied(&self) -> u64 {
        self.cells.iter().map(|c| c.denied).sum()
    }

    /// Total RRC messages across every cell.
    pub fn total_messages(&self) -> u64 {
        self.cells.iter().map(|c| c.total_messages).sum()
    }

    /// The worst single-cell one-second peak.
    pub fn peak_messages_per_s(&self) -> u64 {
        self.cells.iter().map(|c| c.peak_messages_per_s).max().unwrap_or(0)
    }

    /// Overloaded seconds summed over cells.
    pub fn overload_seconds(&self) -> u64 {
        self.cells.iter().map(|c| c.overload_seconds).sum()
    }

    /// Number of cells that spent at least one second over capacity.
    pub fn overloaded_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.overload_seconds > 0).count()
    }

    /// Denials the RNC level itself issued (cell forwarded, RNC
    /// refused), summed over RNCs.
    pub fn denied_by_rnc(&self) -> u64 {
        self.rncs.iter().map(|r| r.denied_by_rnc).sum()
    }

    /// The worst single-RNC one-second peak (member cells summed per
    /// second).
    pub fn rnc_peak_messages_per_s(&self) -> u64 {
        self.rncs.iter().map(|r| r.peak_messages_per_s).max().unwrap_or(0)
    }

    /// RNC overloaded seconds summed over RNCs.
    pub fn rnc_overload_seconds(&self) -> u64 {
        self.rncs.iter().map(|r| r.overload_seconds).sum()
    }

    /// Number of RNCs that spent at least one second over capacity.
    pub fn overloaded_rncs(&self) -> usize {
        self.rncs.iter().filter(|r| r.overload_seconds > 0).count()
    }

    /// Total handoffs across the run. Handoffs are conserved — every
    /// one has exactly one in-side — so the in-sides count them.
    pub fn handoffs(&self) -> u64 {
        self.cells.iter().map(|c| c.handoffs_in).sum()
    }

    /// Handoffs that crossed an RNC boundary, summed over RNCs.
    pub fn inter_rnc_handoffs(&self) -> u64 {
        self.rncs.iter().map(|r| r.inter_rnc_handoffs).sum()
    }
}

/// Where a run's wall-clock went, phase by phase.
///
/// Phase seconds are summed across worker threads, so on parallel runs
/// they can exceed `wall_seconds` — they answer "where did the work
/// go", not "how long did you wait". Built from a recorder
/// [`Snapshot`](tailwise_obs::Snapshot) and, like `wall_seconds`,
/// measured rather than simulated: excluded from report equality and
/// rendered only when positive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTimings {
    /// Seconds materializing users: synthetic trace generation or
    /// corpus trace loading (summed across both topology passes).
    pub synthesize_s: f64,
    /// Seconds simulating: per-user engine folds plus the pass-1
    /// request-extraction scan of topology runs.
    pub simulate_s: f64,
    /// Seconds adjudicating admission at cells and RNCs (topology runs
    /// only; 0.0 for radio-isolated runs).
    pub adjudicate_s: f64,
    /// Seconds in the exact scripted pass-2 replay (topology runs
    /// only; 0.0 for radio-isolated runs).
    pub replay_s: f64,
    /// Busy fraction per worker thread: the share of the run's
    /// wall-clock each worker spent executing shards.
    pub worker_busy: Vec<f64>,
}

impl RunTimings {
    /// Extracts the phase breakdown from a recorder snapshot (usually a
    /// [`since`](tailwise_obs::Snapshot::since) delta covering exactly
    /// one run) against the run's wall-clock seconds.
    pub fn from_snapshot(snapshot: &tailwise_obs::Snapshot, wall_seconds: f64) -> RunTimings {
        let worker_busy = if wall_seconds > 0.0 {
            snapshot.workers.iter().map(|nanos| (*nanos as f64 / 1e9) / wall_seconds).collect()
        } else {
            Vec::new()
        };
        RunTimings {
            synthesize_s: snapshot.span_seconds("synthesize"),
            simulate_s: snapshot.span_seconds("simulate"),
            adjudicate_s: snapshot.span_seconds("adjudicate"),
            replay_s: snapshot.span_seconds("replay"),
            worker_busy,
        }
    }

    /// True when at least one phase recorded time — the render gate.
    pub fn any_positive(&self) -> bool {
        self.synthesize_s > 0.0
            || self.simulate_s > 0.0
            || self.adjudicate_s > 0.0
            || self.replay_s > 0.0
    }

    /// `(name, seconds)` for each of the four phases, in pipeline
    /// order. The manifest writer and the render share this list.
    pub fn phases(&self) -> [(&'static str, f64); 4] {
        [
            ("synthesize", self.synthesize_s),
            ("simulate", self.simulate_s),
            ("adjudicate", self.adjudicate_s),
            ("replay", self.replay_s),
        ]
    }
}

/// Aggregate outcome of one fleet run (or one shard of it).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Scenario display name.
    pub scenario: String,
    /// Scheme label under test.
    pub scheme: String,
    /// Provenance of the population: `"synthetic population"` for
    /// scenario-synthesized users, or a corpus description naming the
    /// directory and trace-file count. Deterministic (part of equality).
    pub source: String,
    /// Users simulated.
    pub users: u64,
    /// Total user-days simulated.
    pub user_days: u64,
    /// Total packets pushed through the engine (scheme run).
    pub packets: u64,
    /// Total energy under the scheme, J.
    pub energy_j: f64,
    /// Total energy under the status quo, J.
    pub baseline_energy_j: f64,
    /// Total demote→promote switch cycles under the scheme.
    pub switches: u64,
    /// Switch cycles under the status quo.
    pub baseline_switches: u64,
    /// False switches (§6.3 FP) summed over users.
    pub false_switches: u64,
    /// Missed switches (§6.3 FN) summed over users.
    pub missed_switches: u64,
    /// Total demotion decisions scored.
    pub decisions: u64,
    /// Per-user savings-vs-status-quo distribution, percent.
    pub savings: Histogram,
    /// Population distribution of MakeActive session delays, seconds
    /// (one sample per delayed session; empty unless the scheme
    /// batches).
    pub session_delays: Histogram,
    /// Per-cell signaling load, for cell-topology runs (`None` for
    /// radio-isolated runs and unmerged shard partials).
    pub signaling: Option<FleetSignaling>,
    /// Wall-clock seconds the run took (0 for unmerged partials;
    /// excluded from equality).
    pub wall_seconds: f64,
    /// Threads the run used (execution detail; excluded from equality).
    pub threads: usize,
    /// Phase breakdown when the run was observed by an enabled
    /// recorder (`None` otherwise; measurement detail, excluded from
    /// equality like `wall_seconds`).
    pub timings: Option<RunTimings>,
}

impl FleetReport {
    /// An empty report shell for streaming folds.
    pub fn empty(scenario: String, scheme: String) -> FleetReport {
        FleetReport {
            scenario,
            scheme,
            source: "synthetic population".into(),
            users: 0,
            user_days: 0,
            packets: 0,
            energy_j: 0.0,
            baseline_energy_j: 0.0,
            switches: 0,
            baseline_switches: 0,
            false_switches: 0,
            missed_switches: 0,
            decisions: 0,
            savings: Histogram::savings_percent(),
            session_delays: Histogram::session_delay_seconds(),
            signaling: None,
            wall_seconds: 0.0,
            threads: 1,
            timings: None,
        }
    }

    /// Folds one user's pair of runs (scheme, status-quo baseline) into
    /// the aggregate.
    pub fn fold_user(&mut self, days: u32, scheme_run: &SimReport, baseline: &SimReport) {
        let baseline = (baseline.total_energy().to_bits(), baseline.switch_cycles());
        self.fold_user_outcome(days, baseline, &replay_outcome(scheme_run));
    }

    /// Folds one user's run in its memoizable [`ReplayOutcome`] form,
    /// scored against `baseline`, the user's status-quo run as `(energy
    /// bits, switch cycles)`. Live runs fold through here too (via
    /// [`replay_outcome`]), so a user served from the replay memo and one
    /// replayed afresh are aggregated by the same arithmetic, with every
    /// float round-tripped losslessly through its bits.
    pub fn fold_user_outcome(&mut self, days: u32, baseline: (u64, u64), outcome: &ReplayOutcome) {
        let (baseline_energy_bits, baseline_switches) = baseline;
        let baseline_energy_j = f64::from_bits(baseline_energy_bits);
        self.users += 1;
        self.user_days += days as u64;
        self.packets += outcome.packets;
        self.energy_j += outcome.energy_j();
        self.baseline_energy_j += baseline_energy_j;
        self.switches += outcome.switches;
        self.baseline_switches += baseline_switches;
        self.false_switches += outcome.false_switches;
        self.missed_switches += outcome.missed_switches;
        self.decisions += outcome.decisions;
        self.savings.record(outcome.savings_vs_energy(baseline_energy_j));
        for delay in outcome.session_delays() {
            self.session_delays.record(delay);
        }
    }

    /// Appends another partial (typically the next shard, in shard
    /// order).
    ///
    /// # Panics
    /// If both reports carry [`FleetSignaling`] (see the comment on the
    /// signaling arm) or their histograms have mismatched shapes.
    pub fn merge(&mut self, other: &FleetReport) {
        self.users += other.users;
        self.user_days += other.user_days;
        self.packets += other.packets;
        self.energy_j += other.energy_j;
        self.baseline_energy_j += other.baseline_energy_j;
        self.switches += other.switches;
        self.baseline_switches += other.baseline_switches;
        self.false_switches += other.false_switches;
        self.missed_switches += other.missed_switches;
        self.decisions += other.decisions;
        self.savings.merge(&other.savings);
        self.session_delays.merge(&other.session_delays);
        // Signaling is attached once, by the cell runner, after the
        // final shard merge — partials never carry it. Adopting a lone
        // Some keeps that flow working; two Somes have no well-defined
        // sum (the per-second data behind peak/overload is gone), so —
        // like a histogram shape mismatch — that is a loud error, never
        // a silently inconsistent aggregate.
        match (&self.signaling, &other.signaling) {
            (Some(_), Some(_)) => panic!(
                "cannot merge two fleet reports that both carry cell signaling; \
                 per-cell loads are attached once, after the final shard merge"
            ),
            (None, Some(signaling)) => self.signaling = Some(signaling.clone()),
            _ => {}
        }
    }

    /// Population-level savings: joules saved over the whole fleet as a
    /// percentage of the status-quo total (energy-weighted, so heavy
    /// users count more than in the per-user mean).
    pub fn aggregate_savings_pct(&self) -> f64 {
        if self.baseline_energy_j <= 0.0 {
            return 0.0;
        }
        (self.baseline_energy_j - self.energy_j) / self.baseline_energy_j * 100.0
    }

    /// Mean of the per-user savings percentages.
    pub fn mean_user_savings_pct(&self) -> f64 {
        self.savings.mean()
    }

    /// Mean energy per user-day, J.
    pub fn mean_energy_per_user_day(&self) -> f64 {
        if self.user_days == 0 {
            return 0.0;
        }
        self.energy_j / self.user_days as f64
    }

    /// Switches relative to status quo (1.0 = parity).
    pub fn normalized_switches(&self) -> f64 {
        if self.baseline_switches == 0 {
            return if self.switches == 0 { 1.0 } else { f64::INFINITY };
        }
        self.switches as f64 / self.baseline_switches as f64
    }

    /// Simulation throughput in user-days per wall-clock second.
    pub fn user_days_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.user_days as f64 / self.wall_seconds
    }

    /// Population `q`-quantile of the MakeActive session delays, seconds
    /// (`None` when no session was ever delayed — non-batching schemes).
    pub fn session_delay_percentile(&self, q: f64) -> Option<f64> {
        self.session_delays.percentile(q)
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |q: f64| {
            self.savings.percentile(q).map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!("fleet    : {}\n", self.scenario));
        out.push_str(&format!("source   : {}\n", self.source));
        out.push_str(&format!(
            "population: {} users, {} user-days, {} packets\n",
            self.users, self.user_days, self.packets
        ));
        out.push_str(&format!(
            "energy   : {:.1} J under {} vs {:.1} J status quo — {:.1}% saved in aggregate\n",
            self.energy_j,
            self.scheme,
            self.baseline_energy_j,
            self.aggregate_savings_pct()
        ));
        out.push_str(&format!(
            "per user : savings mean {:.1}%  p5 {}  p25 {}  p50 {}  p75 {}  p95 {}\n",
            self.mean_user_savings_pct(),
            pct(0.05),
            pct(0.25),
            pct(0.50),
            pct(0.75),
            pct(0.95)
        ));
        out.push_str(&format!(
            "switches : {} vs {} status quo ({:.2}× normalized)\n",
            self.switches,
            self.baseline_switches,
            self.normalized_switches()
        ));
        out.push_str(&format!(
            "decisions: {} scored — {} false switches, {} missed switches\n",
            self.decisions, self.false_switches, self.missed_switches
        ));
        if self.session_delays.count() > 0 {
            let dpct = |q: f64| {
                self.session_delays
                    .percentile(q)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into())
            };
            out.push_str(&format!(
                "delays   : {} sessions held by MakeActive — added delay p50 {} s  p95 {} s  \
                 p99 {} s (max {:.2} s)\n",
                self.session_delays.count(),
                dpct(0.50),
                dpct(0.95),
                dpct(0.99),
                self.session_delays.max().unwrap_or(0.0),
            ));
        }
        if let Some(signaling) = &self.signaling {
            let capacity = |cap: Option<u64>| match cap {
                Some(cap) => format!("{cap} msg/s capacity"),
                None => "unbounded capacity".into(),
            };
            out.push_str(&format!(
                "network  : {} RNC(s) over {} cell(s) — {} FD requests granted, {} denied \
                 ({} at the RNC level)\n",
                signaling.rncs.len(),
                signaling.cells.len(),
                signaling.granted(),
                signaling.denied(),
                signaling.denied_by_rnc(),
            ));
            out.push_str(&format!(
                "cell load: {}, {} RRC messages total, worst per-cell peak {} msg/s, \
                 {} overload second(s) across {} cell(s)\n",
                capacity(signaling.cell_capacity_per_s),
                signaling.total_messages(),
                signaling.peak_messages_per_s(),
                signaling.overload_seconds(),
                signaling.overloaded_cells(),
            ));
            out.push_str(&format!(
                "rnc load : {}, worst per-RNC peak {} msg/s, {} overload second(s) across \
                 {} RNC(s)\n",
                capacity(signaling.rnc_capacity_per_s),
                signaling.rnc_peak_messages_per_s(),
                signaling.rnc_overload_seconds(),
                signaling.overloaded_rncs(),
            ));
            // Mobility lines appear only when handoffs happened, so a
            // static fleet's rendered text is byte-identical to the
            // pre-mobility format.
            let moved = signaling.handoffs() > 0;
            if moved {
                out.push_str(&format!(
                    "handoffs : {} between cells, {} across RNC boundaries\n",
                    signaling.handoffs(),
                    signaling.inter_rnc_handoffs(),
                ));
            }
            // Small hierarchies get full per-element tables; large ones
            // keep the aggregate lines above.
            if signaling.rncs.len() > 1 && signaling.rncs.len() <= 8 {
                for (index, rnc) in signaling.rncs.iter().enumerate() {
                    out.push_str(&format!(
                        "  rnc  {index:>2}: {} cells, {} users, peak {} msg/s, {} msgs, \
                         {} granted, {} denied ({} at RNC), {} overload s",
                        rnc.cells,
                        rnc.users,
                        rnc.peak_messages_per_s,
                        rnc.total_messages,
                        rnc.granted,
                        rnc.denied,
                        rnc.denied_by_rnc,
                        rnc.overload_seconds,
                    ));
                    if moved {
                        out.push_str(&format!(", {} inter-RNC handoffs", rnc.inter_rnc_handoffs));
                    }
                    out.push('\n');
                }
            }
            if signaling.cells.len() <= 12 {
                for (index, cell) in signaling.cells.iter().enumerate() {
                    out.push_str(&format!(
                        "  cell {index:>2}: {} users, peak {} msg/s, {} msgs, {} granted, \
                         {} denied, {} overload s",
                        cell.users,
                        cell.peak_messages_per_s,
                        cell.total_messages,
                        cell.granted,
                        cell.denied,
                        cell.overload_seconds,
                    ));
                    if moved {
                        out.push_str(&format!(
                            ", {} in / {} out handoffs",
                            cell.handoffs_in, cell.handoffs_out
                        ));
                    }
                    out.push('\n');
                }
            }
        }
        if self.wall_seconds > 0.0 {
            out.push_str(&format!(
                "speed    : {:.2} s wall on {} thread(s) — {:.1} user-days/sec\n",
                self.wall_seconds,
                self.threads,
                self.user_days_per_sec()
            ));
        }
        if let Some(timings) = self.timings.as_ref().filter(|t| t.any_positive()) {
            let phases: Vec<String> = timings
                .phases()
                .iter()
                .filter(|(_, seconds)| *seconds > 0.0)
                .map(|(name, seconds)| format!("{name} {seconds:.2} s"))
                .collect();
            out.push_str(&format!("phases   : {}", phases.join("  ")));
            if !timings.worker_busy.is_empty() {
                let busy: Vec<String> =
                    timings.worker_busy.iter().map(|b| format!("{:.0}%", b * 100.0)).collect();
                out.push_str(&format!(" (worker busy {})", busy.join(" ")));
            }
            out.push('\n');
        }
        out
    }
}

// Equality covers only the deterministic aggregate — wall-clock and
// thread count are measurement details. This is the comparison the
// thread-count invariance guarantee is stated in terms of: every f64 is
// compared exactly, not within a tolerance.
impl PartialEq for FleetReport {
    fn eq(&self, other: &FleetReport) -> bool {
        self.scenario == other.scenario
            && self.scheme == other.scheme
            && self.source == other.source
            && self.users == other.users
            && self.user_days == other.user_days
            && self.packets == other.packets
            && self.energy_j.to_bits() == other.energy_j.to_bits()
            && self.baseline_energy_j.to_bits() == other.baseline_energy_j.to_bits()
            && self.switches == other.switches
            && self.baseline_switches == other.baseline_switches
            && self.false_switches == other.false_switches
            && self.missed_switches == other.missed_switches
            && self.decisions == other.decisions
            && self.savings == other.savings
            && self.session_delays == other.session_delays
            && self.signaling == other.signaling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_report(energy: f64, promotions: u64, packets: usize) -> SimReport {
        let mut r = SimReport::new("s".into(), "c".into());
        r.energy.tail_dch = energy;
        r.counters.promotions = promotions;
        r.packets = packets;
        r
    }

    #[test]
    fn fold_accumulates_and_savings_distribute() {
        let mut f = FleetReport::empty("test".into(), "MakeIdle".into());
        let base = sim_report(100.0, 10, 500);
        f.fold_user(1, &sim_report(40.0, 15, 500), &base);
        f.fold_user(2, &sim_report(80.0, 12, 700), &base);
        assert_eq!(f.users, 2);
        assert_eq!(f.user_days, 3);
        assert_eq!(f.packets, 1200);
        assert_eq!(f.switches, 27);
        assert_eq!(f.baseline_switches, 20);
        assert!((f.energy_j - 120.0).abs() < 1e-12);
        assert!((f.aggregate_savings_pct() - 40.0).abs() < 1e-12);
        assert!((f.mean_user_savings_pct() - 40.0).abs() < 1e-12);
        assert_eq!(f.savings.count(), 2);
    }

    #[test]
    fn merge_matches_sequential_fold() {
        // Merging shard partials must agree with a sequential fold on
        // every count exactly; the float totals agree to tolerance (the
        // reduction *tree* differs, which is precisely why shard size is
        // part of the scenario identity while thread count is not).
        let base = sim_report(90.0, 9, 300);
        let runs: Vec<SimReport> =
            (0..10).map(|i| sim_report(30.0 + i as f64 * 5.0, 8 + i, 300)).collect();
        let mut whole = FleetReport::empty("x".into(), "s".into());
        for r in &runs {
            whole.fold_user(1, r, &base);
        }
        let mut a = FleetReport::empty("x".into(), "s".into());
        let mut b = FleetReport::empty("x".into(), "s".into());
        for (i, r) in runs.iter().enumerate() {
            if i < 5 { &mut a } else { &mut b }.fold_user(1, r, &base);
        }
        a.merge(&b);
        assert_eq!(a.users, whole.users);
        assert_eq!(a.user_days, whole.user_days);
        assert_eq!(a.packets, whole.packets);
        assert_eq!(a.switches, whole.switches);
        assert_eq!(a.baseline_switches, whole.baseline_switches);
        assert_eq!(a.savings.bins(), whole.savings.bins());
        assert_eq!(a.savings.min(), whole.savings.min());
        assert_eq!(a.savings.max(), whole.savings.max());
        assert!((a.energy_j - whole.energy_j).abs() < 1e-9);
        assert!((a.baseline_energy_j - whole.baseline_energy_j).abs() < 1e-9);
        assert!((a.mean_user_savings_pct() - whole.mean_user_savings_pct()).abs() < 1e-9);
    }

    #[test]
    fn identical_merge_trees_are_bit_identical() {
        // The guarantee the runner actually relies on: the same shard
        // partition merged twice gives the same bits.
        let base = sim_report(90.0, 9, 300);
        let runs: Vec<SimReport> =
            (0..10).map(|i| sim_report(30.0 + i as f64 * 5.0, 8 + i, 300)).collect();
        let build = || {
            let mut shards: Vec<FleetReport> = Vec::new();
            for chunk in runs.chunks(3) {
                let mut s = FleetReport::empty("x".into(), "s".into());
                for r in chunk {
                    s.fold_user(1, r, &base);
                }
                shards.push(s);
            }
            let mut total = FleetReport::empty("x".into(), "s".into());
            for s in &shards {
                total.merge(s);
            }
            total
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let mut a = FleetReport::empty("x".into(), "s".into());
        let mut b = a.clone();
        b.wall_seconds = 9.0;
        b.threads = 8;
        b.timings = Some(RunTimings { simulate_s: 4.5, ..RunTimings::default() });
        assert_eq!(a, b);
        a.users = 1;
        assert_ne!(a, b);
        // Provenance, by contrast, is part of the deterministic identity.
        a.users = 0;
        a.source = "corpus ./elsewhere (3 traces)".into();
        assert_ne!(a, b);
    }

    #[test]
    fn timings_render_only_when_positive() {
        let mut r = FleetReport::empty("x".into(), "s".into());
        assert!(!r.render().contains("phases"));
        r.timings = Some(RunTimings::default());
        assert!(!r.render().contains("phases"), "all-zero timings must stay silent");
        r.timings = Some(RunTimings {
            synthesize_s: 0.5,
            simulate_s: 1.25,
            adjudicate_s: 0.0,
            replay_s: 0.75,
            worker_busy: vec![0.97, 0.5],
        });
        let text = r.render();
        assert!(
            text.contains("phases   : synthesize 0.50 s  simulate 1.25 s  replay 0.75 s"),
            "{text}"
        );
        assert!(!text.contains("adjudicate"), "zero phases must be omitted: {text}");
        assert!(text.contains("(worker busy 97% 50%)"), "{text}");
    }

    #[test]
    fn timings_from_snapshot_reads_spans_and_workers() {
        let mut s = tailwise_obs::Snapshot::empty();
        s.spans
            .insert("synthesize".into(), tailwise_obs::SpanStat { count: 2, nanos: 500_000_000 });
        s.spans
            .insert("simulate".into(), tailwise_obs::SpanStat { count: 2, nanos: 1_000_000_000 });
        s.workers = vec![2_000_000_000, 1_000_000_000];
        let t = RunTimings::from_snapshot(&s, 2.0);
        assert_eq!(t.synthesize_s, 0.5);
        assert_eq!(t.simulate_s, 1.0);
        assert_eq!(t.adjudicate_s, 0.0);
        assert_eq!(t.replay_s, 0.0);
        assert_eq!(t.worker_busy, vec![1.0, 0.5]);
        assert!(t.any_positive());
        // Without a wall clock there is no meaningful busy fraction.
        assert!(RunTimings::from_snapshot(&s, 0.0).worker_busy.is_empty());
        assert!(!RunTimings::default().any_positive());
    }

    #[test]
    fn session_delays_fold_into_population_percentiles() {
        let mut f = FleetReport::empty("d".into(), "MakeIdle+MakeActive Learn".into());
        let base = sim_report(100.0, 10, 100);
        let mut a = sim_report(50.0, 10, 100);
        a.session_delays = vec![1.0, 2.0, 3.0];
        let mut b = sim_report(60.0, 10, 100);
        b.session_delays = vec![4.0, 100.0]; // 100 s clamps into the top bin
        f.fold_user(1, &a, &base);
        f.fold_user(1, &b, &base);
        assert_eq!(f.session_delays.count(), 5);
        let p50 = f.session_delay_percentile(0.5).unwrap();
        assert!((p50 - 3.0).abs() < 0.2, "p50 {p50}");
        assert_eq!(f.session_delays.max(), Some(100.0));
        assert!(f.render().contains("5 sessions held by MakeActive"), "{}", f.render());
        // Delay-free reports render no delay line and report None.
        let quiet = FleetReport::empty("q".into(), "MakeIdle".into());
        assert_eq!(quiet.session_delay_percentile(0.95), None);
        assert!(!quiet.render().contains("MakeActive"));
    }

    #[test]
    fn signaling_aggregates_and_identity() {
        let cell = |granted, denied, peak, overload| CellLoad {
            users: 2,
            granted,
            denied,
            total_messages: granted * 3 + 100,
            peak_messages_per_s: peak,
            overload_seconds: overload,
            ..CellLoad::default()
        };
        let signaling = FleetSignaling {
            cell_capacity_per_s: Some(50),
            rnc_capacity_per_s: Some(90),
            cells: vec![cell(10, 2, 40, 0), cell(20, 5, 80, 3)],
            rncs: vec![RncLoad {
                cells: 2,
                users: 4,
                granted: 30,
                denied: 7,
                denied_by_rnc: 4,
                total_messages: 190,
                peak_messages_per_s: 100,
                overload_seconds: 2,
                ..RncLoad::default()
            }],
        };
        assert_eq!(signaling.granted(), 30);
        assert_eq!(signaling.denied(), 7);
        assert_eq!(signaling.peak_messages_per_s(), 80);
        assert_eq!(signaling.overload_seconds(), 3);
        assert_eq!(signaling.overloaded_cells(), 1);
        assert_eq!(signaling.denied_by_rnc(), 4);
        assert_eq!(signaling.rnc_peak_messages_per_s(), 100);
        assert_eq!(signaling.rnc_overload_seconds(), 2);
        assert_eq!(signaling.overloaded_rncs(), 1);

        let mut a = FleetReport::empty("x".into(), "s".into());
        let b = a.clone();
        assert_eq!(a, b);
        a.signaling = Some(signaling.clone());
        assert_ne!(a, b, "signaling is part of the deterministic identity");
        let rendered = a.render();
        assert!(rendered.contains("1 RNC(s) over 2 cell(s)"), "{rendered}");
        assert!(rendered.contains("50 msg/s capacity"), "{rendered}");
        assert!(rendered.contains("rnc load : 90 msg/s capacity"), "{rendered}");
        assert!(rendered.contains("(4 at the RNC level)"), "{rendered}");
        assert!(rendered.contains("cell  1: 2 users, peak 80 msg/s"), "{rendered}");

        // Merge attaches a partial's signaling only when self has none.
        let mut c = FleetReport::empty("x".into(), "s".into());
        c.merge(&a);
        assert_eq!(c.signaling.as_ref(), Some(&signaling));
    }

    #[test]
    fn handoff_counters_render_only_when_handoffs_happened() {
        // Static runs (all handoff counters zero) must render the exact
        // pre-mobility text — no "handoffs" line, no table suffixes.
        let mut r = FleetReport::empty("x".into(), "s".into());
        let mut signaling = FleetSignaling {
            cell_capacity_per_s: None,
            rnc_capacity_per_s: None,
            cells: vec![CellLoad { users: 3, ..CellLoad::default() }; 2],
            rncs: vec![RncLoad { cells: 1, users: 3, ..RncLoad::default() }; 2],
        };
        r.signaling = Some(signaling.clone());
        let quiet = r.render();
        assert!(!quiet.contains("handoff"), "{quiet}");
        assert_eq!(signaling.handoffs(), 0);

        signaling.cells[0].handoffs_in = 4;
        signaling.cells[0].handoffs_out = 3;
        signaling.cells[1].handoffs_in = 3;
        signaling.cells[1].handoffs_out = 4;
        signaling.rncs[1].inter_rnc_handoffs = 2;
        assert_eq!(signaling.handoffs(), 7);
        assert_eq!(signaling.inter_rnc_handoffs(), 2);
        r.signaling = Some(signaling);
        let moved = r.render();
        assert!(moved.contains("handoffs : 7 between cells, 2 across RNC boundaries"), "{moved}");
        assert!(moved.contains("4 in / 3 out handoffs"), "{moved}");
        assert!(moved.contains("0 overload s, 2 inter-RNC handoffs"), "{moved}");
    }

    #[test]
    fn multi_rnc_hierarchies_render_the_rnc_table() {
        let rnc = |users, overload| RncLoad {
            cells: 2,
            users,
            granted: 5,
            denied: 1,
            denied_by_rnc: 1,
            total_messages: 50,
            peak_messages_per_s: 25,
            overload_seconds: overload,
            ..RncLoad::default()
        };
        let mut a = FleetReport::empty("x".into(), "s".into());
        a.signaling = Some(FleetSignaling {
            cell_capacity_per_s: None,
            rnc_capacity_per_s: Some(20),
            cells: vec![CellLoad::default(); 4],
            rncs: vec![rnc(3, 2), rnc(1, 0)],
        });
        let rendered = a.render();
        assert!(rendered.contains("2 RNC(s) over 4 cell(s)"), "{rendered}");
        assert!(rendered.contains("rnc   0: 2 cells, 3 users"), "{rendered}");
        assert!(rendered.contains("(1 at RNC), 2 overload s"), "{rendered}");
        assert!(rendered.contains("cell load: unbounded capacity"), "{rendered}");
    }

    #[test]
    #[should_panic(expected = "both carry cell signaling")]
    fn merging_two_signaling_reports_is_a_loud_error() {
        let signaling = FleetSignaling {
            cell_capacity_per_s: None,
            rnc_capacity_per_s: None,
            cells: vec![CellLoad::default()],
            rncs: vec![RncLoad::default()],
        };
        let mut a = FleetReport::empty("x".into(), "s".into());
        a.signaling = Some(signaling.clone());
        let mut b = FleetReport::empty("x".into(), "s".into());
        b.signaling = Some(signaling);
        a.merge(&b);
    }

    #[test]
    fn zero_population_edge_cases() {
        let f = FleetReport::empty("x".into(), "s".into());
        assert_eq!(f.aggregate_savings_pct(), 0.0);
        assert_eq!(f.mean_energy_per_user_day(), 0.0);
        assert_eq!(f.normalized_switches(), 1.0);
        assert_eq!(f.user_days_per_sec(), 0.0);
        assert!(f.render().contains("0 users"));
    }
}
