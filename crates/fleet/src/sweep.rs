//! Sweeps: one on-disk file expanding into a matrix of fleet runs with
//! a side-by-side comparison table.
//!
//! The paper's evaluation (§6) is exactly this shape — the same
//! population pushed through every scheme (Fig. 9–11), or the same
//! scheme across every carrier (Fig. 17–18). A [`SourceSet`] captures
//! it declaratively: a base [`UserSource`] plus `[[sweep]]` axes over
//! schemes, carriers, population sizes, admission policies, or
//! mobility models. [`SourceSet::expand_labeled`] takes the Cartesian
//! product (axes in declared order, later axes varying fastest) and
//! [`run_source_sweep_cached`] executes every expansion through the
//! sharded runner.
//!
//! Determinism: expansion only rewrites the swept fields, so each
//! expanded source is complete and self-contained — its cell in the
//! comparison table is **bit-identical** to running that source
//! individually (e.g. after `tailwise fleet export`) at any thread
//! count. Tests pin this.

use tailwise_core::schemes::Scheme;
use tailwise_obs::Obs;
use tailwise_radio::profile::CarrierProfile;
use tailwise_scenfile::{Pos, ScenError};

use crate::admission::AdmissionSpec;
use crate::cache::RequestCache;
use crate::mobility::MobilitySpec;
use crate::report::FleetReport;
use crate::runner::{resolve_walk, run_population, Population};
use crate::scenario::Scenario;
use crate::source::{SourceSet, UserSource};

/// One `[[sweep]]` axis: the values substituted into the base scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Sweep the scheme under test.
    Schemes(Vec<Scheme>),
    /// Sweep the carrier (each value replaces the whole carrier mix
    /// with that single preset at weight 1).
    Carriers(Vec<CarrierProfile>),
    /// Sweep the population size.
    Users(Vec<u64>),
    /// Sweep the **RNC-level** admission policy of the scenario's
    /// network topology (values are the compact
    /// [`AdmissionSpec`] tokens — `always`, `rate-limited:<secs>`,
    /// `reactive:<watermark>[:<window>]`). Requires a `[cells]`
    /// topology; the classic storm comparison holds the population
    /// fixed while the controller's policy varies.
    Admission(Vec<AdmissionSpec>),
    /// Sweep the mobility model of the scenario's network topology
    /// (values are the compact [`MobilitySpec`] tokens — `static`,
    /// `commute[:<home_hour>:<work_hour>[:<jitter_pct>[:<hint_s>]]]`).
    /// Requires a `[cells]` topology, like `admission`; the handoff
    /// comparison holds the population fixed while movement varies —
    /// and, because mobility is excluded from the request cache's
    /// population header, every cell shares one extraction pass.
    Mobility(Vec<MobilitySpec>),
}

impl SweepAxis {
    /// The axis name used in scenario files and expansion labels.
    pub fn label(&self) -> &'static str {
        match self {
            SweepAxis::Schemes(_) => "scheme",
            SweepAxis::Carriers(_) => "carrier",
            SweepAxis::Users(_) => "users",
            SweepAxis::Admission(_) => "admission",
            SweepAxis::Mobility(_) => "mobility",
        }
    }

    /// Number of values on this axis (always ≥ 1 after parsing).
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::Schemes(v) => v.len(),
            SweepAxis::Carriers(v) => v.len(),
            SweepAxis::Users(v) => v.len(),
            SweepAxis::Admission(v) => v.len(),
            SweepAxis::Mobility(v) => v.len(),
        }
    }

    /// True when the axis has no values (never the case for parsed
    /// files; the schema rejects empty `values`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies value `index` of this axis to `source`, returning the
    /// `axis=value` label fragment. Scheme and carrier axes apply to
    /// both kinds of [`UserSource`]; the `users` axis needs a synthetic
    /// population (a corpus is sized by its directory), and the
    /// `admission` and `mobility` axes a `[cells]` topology — impossible
    /// combinations for parsed files (the schema rejects them), errors
    /// for programmatic construction.
    pub(crate) fn apply(&self, index: usize, source: &mut UserSource) -> Result<String, ScenError> {
        const NEEDS_CELLS: &str = "a [cells] topology to apply to";
        let misfit = |needs: &str| {
            ScenError::at(Pos::START, format!("sweep axis `{}` requires {needs}", self.label()))
        };
        if let SweepAxis::Users(v) = self {
            let UserSource::Synthetic(scenario) = source else {
                return Err(misfit(
                    "a synthetic scenario; a [corpus] population is sized by its directory",
                ));
            };
            scenario.users = v[index];
            return Ok(format!("users={}", v[index]));
        }
        let (scheme, carrier_mix, cells) = match source {
            UserSource::Synthetic(s) => (&mut s.scheme, &mut s.carrier_mix, &mut s.cells),
            UserSource::Corpus(c) => (&mut c.scheme, &mut c.carrier_mix, &mut c.cells),
        };
        Ok(match self {
            SweepAxis::Schemes(v) => {
                *scheme = v[index];
                format!("scheme={}", v[index])
            }
            SweepAxis::Carriers(v) => {
                *carrier_mix = vec![(v[index].clone(), 1.0)];
                format!("carrier={}", v[index])
            }
            SweepAxis::Admission(v) => {
                let topology = cells.as_mut().ok_or_else(|| misfit(NEEDS_CELLS))?;
                topology.rnc_admission = v[index].clone();
                format!("admission={}", v[index])
            }
            SweepAxis::Mobility(v) => {
                cells.as_mut().ok_or_else(|| misfit(NEEDS_CELLS))?.mobility = v[index];
                format!("mobility={}", v[index])
            }
            SweepAxis::Users(_) => unreachable!("applied above"),
        })
    }
}

/// One row of a sweep comparison: the expanded source's swept-axis
/// label and its full fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The `axis=value …` fragment naming this cell (empty for a
    /// no-sweep file's single row).
    pub label: String,
    /// The user source that produced the row (synthetic scenario or
    /// corpus replay).
    pub source: UserSource,
    /// The aggregate outcome (identical to `run_source(&source, t)` for
    /// any `t ≥ 1`).
    pub report: FleetReport,
}

impl SweepRow {
    /// The synthetic scenario behind this row, when there is one.
    pub fn scenario(&self) -> Option<&Scenario> {
        match &self.source {
            UserSource::Synthetic(scenario) => Some(scenario),
            UserSource::Corpus(_) => None,
        }
    }
}

/// The outcome of running every expansion of a [`SourceSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The base scenario's name.
    pub name: String,
    /// One row per expansion, in [`SourceSet::expand_labeled`] order.
    pub rows: Vec<SweepRow>,
}

/// Runs every expansion of `set` on `threads` worker threads, folding
/// the results into a side-by-side comparison: the batch form of
/// [`run_source_sweep_streamed`].
///
/// Expansions run sequentially — each one already saturates the thread
/// pool via the sharded runner — so peak memory stays one trace per
/// worker regardless of how many cells the sweep has. Every cell shares
/// `obs` (each row's report still carries its own phase breakdown) and
/// `cache`: over a synthetic cell topology, an admission or scheme sweep
/// against one [`RequestCache`] pays one phase-1 extraction and replays
/// it for every later cell. That shows only in the `cache_*` counters
/// and the wall clock — every cell stays bit-identical to running its
/// expansion individually. A disk-backed cache warms later processes,
/// `None` disables caching.
///
/// A corpus sweep holds the corpus fixed while varying the other axes:
/// the directory walk is resolved **once**, before the first cell, and
/// every cell replays that pinned index→file assignment — a file
/// appearing or vanishing mid-sweep cannot make cells compare different
/// populations (an unreadable file still aborts the cell that touches
/// it). Fails on the first expansion that cannot be resolved or run.
pub fn run_source_sweep_cached(
    set: &SourceSet,
    threads: usize,
    obs: Obs<'_>,
    cache: Option<&RequestCache>,
) -> Result<SweepReport, ScenError> {
    let report = run_source_sweep_streamed(set, threads, obs, cache, &mut |_, _| true)?;
    Ok(report.expect("an always-continue callback never cancels a sweep"))
}

/// [`run_source_sweep_cached`] with a per-row callback: `on_row(index,
/// row)` fires as soon as each cell finishes, before the next cell
/// starts. This is the fleet service's streaming hook — rows reach a
/// watching client while later cells are still running — and its
/// cancellation point: returning `false` stops the sweep between cells
/// and the whole call returns `Ok(None)`.
///
/// The rows a callback observes are exactly the rows of the final
/// [`SweepReport`] — one implementation produces both, so a streamed
/// sweep stays bit-identical to a batch [`run_source_sweep_cached`] of
/// the same set.
///
/// The cells share one replay memo per population and topology: each
/// memo the sweep changed is written to the cache's directory once,
/// before this returns — after the last row, a cancellation or an
/// error alike.
pub fn run_source_sweep_streamed(
    set: &SourceSet,
    threads: usize,
    obs: Obs<'_>,
    cache: Option<&RequestCache>,
    on_row: &mut dyn FnMut(usize, &SweepRow) -> bool,
) -> Result<Option<SweepReport>, ScenError> {
    let walk = resolve_walk(&set.source, obs)?;
    let mut rows = Vec::with_capacity(set.expansion_count());
    let mut run_cells = || -> Result<bool, ScenError> {
        for (index, (label, source)) in set.expand_labeled()?.into_iter().enumerate() {
            let population = Population::of(&source, walk.as_ref(), obs)?;
            let report = run_population(&population, threads, obs, cache)?;
            let row = SweepRow { label, source, report };
            let keep_going = on_row(index, &row);
            rows.push(row);
            if !keep_going {
                return Ok(false);
            }
        }
        Ok(true)
    };
    let finished = run_cells();
    if let Some(cache) = cache {
        cache.write_memos(obs);
    }
    Ok(finished?.then(|| SweepReport { name: set.source.name().to_string(), rows }))
}

impl SweepReport {
    /// The side-by-side comparison table (the Fig. 10/11 shape: one row
    /// per cell, savings and switch columns against the shared status
    /// quo normalizer, a MakeActive delay column, and — when any row ran
    /// a cell topology — the signaling-load columns).
    pub fn render(&self) -> String {
        let label_width =
            self.rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max("variant".len());
        let signaling = self.rows.iter().any(|r| r.report.signaling.is_some());
        let mut out = String::new();
        out.push_str(&format!("sweep    : {} ({} runs)\n", self.name, self.rows.len()));
        out.push_str(&format!(
            "{:<label_width$} {:>9} {:>13} {:>8} {:>8} {:>8} {:>9} {:>9}",
            "variant", "users", "energy (J)", "saved", "p50", "p95", "switch×", "dly p95"
        ));
        if signaling {
            out.push_str(&format!(
                " {:>9} {:>7} {:>7} {:>8}",
                "peak m/s", "ovl s", "rnc ovl", "denied"
            ));
        }
        out.push_str(&format!(" {:>10}\n", "ud/sec"));
        for row in &self.rows {
            let r = &row.report;
            let pct =
                |q: f64| r.savings.percentile(q).map(|v| format!("{v:.1}")).unwrap_or("-".into());
            let delay = r
                .session_delay_percentile(0.95)
                .map(|v| format!("{v:.2}s"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<label_width$} {:>9} {:>13.1} {:>7.1}% {:>8} {:>8} {:>8.2}× {:>9}",
                if row.label.is_empty() { "(base)" } else { &row.label },
                r.users,
                r.energy_j,
                r.aggregate_savings_pct(),
                pct(0.50),
                pct(0.95),
                r.normalized_switches(),
                delay,
            ));
            if signaling {
                match &r.signaling {
                    Some(s) => out.push_str(&format!(
                        " {:>9} {:>7} {:>7} {:>8}",
                        s.peak_messages_per_s(),
                        s.overload_seconds(),
                        s.rnc_overload_seconds(),
                        s.denied(),
                    )),
                    None => out.push_str(&format!(" {:>9} {:>7} {:>7} {:>8}", "-", "-", "-", "-")),
                }
            }
            out.push_str(&format!(" {:>10.1}\n", r.user_days_per_sec()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use tailwise_workload::apps::AppKind;

    fn base() -> Scenario {
        let mut s = Scenario::new(6, Scheme::MakeIdle, CarrierProfile::verizon_lte());
        s.shard_size = 4;
        s.app_mix = vec![(AppKind::Im, 3.0), (AppKind::Finance, 1.0)];
        s
    }

    fn synthetic_set(axes: Vec<SweepAxis>) -> SourceSet {
        SourceSet { source: UserSource::Synthetic(base()), axes }
    }

    fn sweep_set() -> SourceSet {
        synthetic_set(vec![
            SweepAxis::Schemes(vec![Scheme::StatusQuo, Scheme::MakeIdle]),
            SweepAxis::Users(vec![4, 6, 9]),
        ])
    }

    /// The set's expanded scenarios, labels dropped.
    fn expand(set: &SourceSet) -> Vec<Scenario> {
        set.expand_labeled()
            .unwrap()
            .into_iter()
            .map(|(_, source)| match source {
                UserSource::Synthetic(scenario) => scenario,
                UserSource::Corpus(_) => unreachable!("synthetic sets expand to scenarios"),
            })
            .collect()
    }

    fn sweep_of(set: &SourceSet, threads: usize) -> SweepReport {
        run_source_sweep_cached(set, threads, Obs::none(), None).unwrap()
    }

    #[test]
    fn expansion_is_a_cartesian_product_in_declared_order() {
        let set = sweep_set();
        assert_eq!(set.expansion_count(), 6);
        let expanded = expand(&set);
        assert_eq!(expanded.len(), 6);
        // First axis slowest: statusquo×{4,6,9}, then makeidle×{4,6,9}.
        assert_eq!(expanded[0].scheme, Scheme::StatusQuo);
        assert_eq!(expanded[0].users, 4);
        assert_eq!(expanded[2].users, 9);
        assert_eq!(expanded[3].scheme, Scheme::MakeIdle);
        assert_eq!(expanded[3].users, 4);
        assert!(expanded[5].name.ends_with("[scheme=makeidle users=9]"), "{}", expanded[5].name);
        // Non-swept identity fields are untouched.
        for s in &expanded {
            assert_eq!(s.master_seed, base().master_seed);
            assert_eq!(s.shard_size, base().shard_size);
            assert_eq!(s.app_mix, base().app_mix);
        }
    }

    #[test]
    fn empty_axes_expand_to_the_base_alone() {
        let set = synthetic_set(vec![]);
        assert_eq!(expand(&set), vec![base()]);
        let report = sweep_of(&set, 2);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].label, "");
        assert!(report.render().contains("(base)"));
    }

    #[test]
    fn sweep_cells_match_individual_runs_at_any_thread_count() {
        // The acceptance claim: per-cell numbers are bit-identical to
        // running each expanded scenario on its own, at any thread
        // count.
        let set = sweep_set();
        let sweep = sweep_of(&set, 4);
        for (row, scenario) in sweep.rows.iter().zip(expand(&set)) {
            assert_eq!(row.scenario(), Some(&scenario));
            assert_eq!(row.report, run(&scenario, 1), "{}", scenario.name);
            assert_eq!(row.report, run(&scenario, 8), "{}", scenario.name);
        }
    }

    #[test]
    fn corpus_sources_sweep_schemes_but_not_users() {
        use crate::source::CorpusScenario;
        let base = UserSource::Corpus(CorpusScenario::new(
            "corpus",
            Scheme::MakeIdle,
            CarrierProfile::att_hspa(),
        ));
        let set = SourceSet {
            source: base.clone(),
            axes: vec![SweepAxis::Schemes(vec![Scheme::FixedTail45, Scheme::Oracle])],
        };
        let expanded = set.expand_labeled().unwrap();
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0].0, "scheme=tail45");
        assert_eq!(expanded[1].1.scheme(), Scheme::Oracle);
        assert!(expanded[1].1.name().ends_with("[scheme=oracle]"), "{}", expanded[1].1.name());

        let set = SourceSet { source: base, axes: vec![SweepAxis::Users(vec![5, 10])] };
        let err = set.expand_labeled().unwrap_err();
        assert!(err.message.contains("requires a synthetic scenario"), "{err}");
    }

    #[test]
    fn carrier_axis_replaces_the_mix() {
        let set = synthetic_set(vec![SweepAxis::Carriers(vec![
            CarrierProfile::att_hspa(),
            CarrierProfile::verizon_lte(),
        ])]);
        let expanded = expand(&set);
        assert_eq!(expanded[0].carrier_mix, vec![(CarrierProfile::att_hspa(), 1.0)]);
        assert!(expanded[0].name.contains("carrier=att-hspa"), "{}", expanded[0].name);
    }

    #[test]
    fn render_lines_up_one_row_per_cell() {
        let set = sweep_set();
        let table = sweep_of(&set, 2).render();
        assert_eq!(table.lines().count(), 2 + 6, "{table}");
        assert!(table.contains("scheme=statusquo users=4"), "{table}");
        assert!(table.contains("scheme=makeidle users=9"), "{table}");
    }
}
