//! The experiment list: every table, figure, ablation and extension the
//! `repro` binary can run, each with the CSV stems its tables are
//! written under.
//!
//! [`EXPERIMENTS`] is in the order a full reproduction runs them: the
//! six experiments that need no user dataset first, then the ones that
//! read the §6.1 user populations through one shared [`Harness`].

use crate::figures as f;
use crate::{Harness, Table};

/// How an experiment computes its tables.
#[derive(Debug, Clone, Copy)]
enum Tables {
    /// From the carrier profiles and application traces alone.
    Standalone(fn() -> Vec<Table>),
    /// From the user datasets, through the shared [`Harness`].
    Harness(fn(&mut Harness) -> Vec<Table>),
}

/// One reproduction experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` selects it by, e.g. `fig10_verizon3g`.
    pub name: &'static str,
    /// One CSV stem per table, in the order the tables are produced.
    pub stems: &'static [&'static str],
    tables: Tables,
}

impl Experiment {
    /// Computes the experiment's tables, prints each and writes it
    /// under its stem in [`results_dir`](crate::table::results_dir),
    /// stopping at the first CSV that cannot be written. The harness is
    /// built on the first experiment that needs it and shared by every
    /// later one.
    pub fn emit(&self, harness: &mut Option<Harness>) -> std::io::Result<()> {
        let tables = match self.tables {
            Tables::Standalone(tables) => tables(),
            Tables::Harness(tables) => tables(harness.get_or_insert_with(Harness::new)),
        };
        assert_eq!(tables.len(), self.stems.len(), "{} table/stem count mismatch", self.name);
        for (table, stem) in tables.iter().zip(self.stems) {
            table.emit(stem)?;
        }
        Ok(())
    }
}

/// An experiment computed from the carrier profiles and application
/// traces alone.
const fn standalone(
    name: &'static str,
    stems: &'static [&'static str],
    tables: fn() -> Vec<Table>,
) -> Experiment {
    Experiment { name, stems, tables: Tables::Standalone(tables) }
}

/// An experiment that reads the user datasets through the [`Harness`].
const fn harness(
    name: &'static str,
    stems: &'static [&'static str],
    tables: fn(&mut Harness) -> Vec<Table>,
) -> Experiment {
    Experiment { name, stems, tables: Tables::Harness(tables) }
}

/// Every experiment, in the order a full reproduction runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    standalone("tab01_power", &["tab01_power"], || vec![f::tab01_power()]),
    standalone("tab02_rrc_params", &["tab02_rrc_params"], || vec![f::tab02_rrc_params()]),
    standalone("fig01_energy_breakdown", &["fig01_energy_breakdown"], || {
        vec![f::fig01_energy_breakdown()]
    }),
    standalone(
        "fig03_power_timeline",
        &["fig03_power_timeline_att3g", "fig03_power_timeline_verizonlte"],
        f::fig03_power_timeline,
    ),
    standalone("fig08_energy_error", &["fig08_energy_error"], || vec![f::fig08_energy_error()]),
    standalone("fig09_apps", &["fig09_apps"], || vec![f::fig09_apps()]),
    harness(
        "fig10_verizon3g",
        &["fig10a_savings", "fig10b_switches", "fig10c_energy_per_switch"],
        f::fig10_verizon3g,
    ),
    harness(
        "fig11_verizonlte",
        &["fig11a_savings", "fig11b_switches", "fig11c_energy_per_switch"],
        f::fig11_verizonlte,
    ),
    harness("fig12_fpfn", &["fig12a_fpfn_3g", "fig12b_fpfn_lte"], f::fig12_fpfn),
    harness("fig13_window_sweep", &["fig13_window_sweep"], |h| vec![f::fig13_window_sweep(h)]),
    harness("fig14_twait_series", &["fig14_twait_series"], |h| vec![f::fig14_twait_series(h)]),
    harness("fig15_delays", &["fig15a_delays_3g", "fig15b_delays_lte"], f::fig15_delays),
    harness("fig16_learning_dynamics", &["fig16_learning_dynamics"], |h| {
        vec![f::fig16_learning_dynamics(h)]
    }),
    harness("fig17_carriers", &["fig17_carriers"], |h| vec![f::fig17_carriers(h)]),
    harness("fig18_carrier_switches", &["fig18_carrier_switches"], |h| {
        vec![f::fig18_carrier_switches(h)]
    }),
    harness("tab03_session_delays", &["tab03_session_delays"], |h| {
        vec![f::tab03_session_delays(h)]
    }),
    harness("ablation_fd_fraction", &["ablation_fd_fraction"], |h| {
        vec![f::ablation_fd_fraction(h)]
    }),
    harness("ablation_gamma", &["ablation_gamma"], |h| vec![f::ablation_gamma(h)]),
    harness("ablation_candidate_grid", &["ablation_candidate_grid"], |h| {
        vec![f::ablation_candidate_grid(h)]
    }),
    harness("ablation_alpha_experts", &["ablation_alpha_experts"], |h| {
        vec![f::ablation_alpha_experts(h)]
    }),
    harness("ablation_decision_rule", &["ablation_decision_rule"], |h| {
        vec![f::ablation_decision_rule(h)]
    }),
    harness("ext_cell_signaling", &["ext_cell_signaling"], |h| vec![f::ext_cell_signaling(h)]),
    harness("ext_energy_attribution", &["ext_energy_attribution"], |h| {
        vec![f::ext_energy_attribution(h)]
    }),
];

/// The experiments `names` selects, in [`EXPERIMENTS`] order; every
/// experiment when `names` is empty. Every name is checked before
/// anything runs: an unknown one is an error that lists the valid
/// names.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) =
        names.iter().find(|name| !EXPERIMENTS.iter().any(|e| e.name == name.as_str()))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; valid experiments:\n  {}",
            valid.join("\n  ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|name| name == e.name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_no_two_experiments_write_the_same_stem() {
        let mut names = HashSet::new();
        let mut stems = HashSet::new();
        for e in EXPERIMENTS {
            assert!(names.insert(e.name), "experiment {} is listed twice", e.name);
            assert!(!e.stems.is_empty(), "{} writes no CSV", e.name);
            for stem in e.stems {
                assert!(stems.insert(*stem), "stem {stem} is written by two experiments");
            }
        }
        assert_eq!(EXPERIMENTS.len(), 23);
        assert_eq!(stems.len(), 30);
    }

    #[test]
    fn select_checks_every_name_before_choosing() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        let picked = select(&["fig09_apps".into(), "tab01_power".into()]).unwrap();
        let picked: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(picked, ["tab01_power", "fig09_apps"], "list order, not argument order");
        let err = select(&["tab01_power".into(), "nosuch".into()]).unwrap_err();
        assert!(err.contains("\"nosuch\""), "{err}");
        assert!(EXPERIMENTS.iter().all(|e| err.contains(e.name)), "{err}");
    }
}
