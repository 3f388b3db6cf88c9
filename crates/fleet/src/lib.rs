//! # tailwise-fleet
//!
//! Population-scale parallel simulation for the tailwise reproduction of
//! *"Traffic-Aware Techniques to Reduce 3G/LTE Wireless Energy
//! Consumption"* (Deng & Balakrishnan, CoNEXT 2012).
//!
//! The paper evaluates MakeIdle/MakeActive on 28 user-days of traces.
//! The interesting deployment questions — how much energy does a scheme
//! save across a *population*, how is the saving distributed over users,
//! what does the network-wide signaling load look like — need orders of
//! magnitude more user-days than any single trace. This crate runs the
//! paper's schemes over synthetic populations of hundreds of thousands
//! of users, in parallel, deterministically:
//!
//! * [`Scenario`] — the declarative experiment: population size, app-mix
//!   weights over [`tailwise_workload::AppKind`], carrier mix, scheme
//!   under test, days per user, master seed;
//! * [`scenario`] — hierarchical seeding: user `i` is a pure function of
//!   `(master_seed, i)`, so any worker can materialize any user;
//! * [`source`] — the [`UserSource`] abstraction: synthetic populations
//!   or on-disk `.twt`/`.twt.csv` corpora ([`CorpusScenario`]) replayed
//!   through the same sharded runner, plus [`synth_corpus`] to
//!   materialize any synthetic scenario into a corpus;
//! * [`mod@file`]/[`sweep`] — the on-disk scenario format
//!   (`docs/SCENARIO_FORMAT.md`): [`Scenario::from_file`] /
//!   [`Scenario::to_file`] round-tripping, [`SourceSet`] files whose
//!   `[corpus]` table replays measured traffic, and `[[sweep]]` axes
//!   that expand into a matrix of runs folded into a side-by-side
//!   [`SweepReport`];
//! * [`runner`] — sharded multi-threaded execution,
//!   materialize→simulate→discard (peak memory: one trace per worker,
//!   for corpora too), behind four entry points: [`run`] (the
//!   infallible synthetic shortcut), [`run_source`] (any source, under
//!   an observation handle and an optional [`RequestCache`]), and the
//!   sweep pair [`run_source_sweep_cached`] /
//!   [`run_source_sweep_streamed`];
//! * [`cache`] — phase-1 request caching for sweeps: a [`RequestCache`]
//!   keyed on the scenario's scheme-independent [`Fingerprint`] lets an
//!   N-cell admission or scheme sweep pay one extraction pass and serve
//!   every later cell from memory (or a `.twc` spill directory), with a
//!   corrupt-or-mismatched file always falling back to recomputation;
//! * [`topology`]/[`admission`] — the hierarchical radio network: a
//!   [`NetworkTopology`] partitions users across cells and groups the
//!   cells under RNCs; every fast-dormancy request passes two pluggable
//!   [`AdmissionSpec`] gates (cell, then RNC — static, rate-limited, or
//!   load-reactive), and the two-pass runner (built on
//!   [`tailwise_sim::twophase`]) reports per-cell and per-RNC signaling
//!   load — the paper's §7/§8 population question;
//! * [`mobility`] — how users move between cells: [`MobilitySpec`]
//!   keeps membership a pure function of `(master seed, user, time)`
//!   (static pinning or a seeded diurnal commute with random-walk
//!   jitter), so handoffs generate deterministic signaling load and a
//!   residence-time hint lets schemes demote ahead of a predicted
//!   handoff;
//! * [`Histogram`] — fixed-bin streaming distribution with percentile
//!   readout;
//! * [`FleetReport`] — the merged aggregate: total/mean energy, the
//!   per-user savings distribution, MakeActive session-delay
//!   percentiles, false/missed switch totals, per-cell signaling load
//!   ([`FleetSignaling`]), and throughput in user-days per second.
//!
//! ## Determinism contract
//!
//! `run(&scenario, t)` — and [`run_source`] on any source — returns a
//! bit-identical [`FleetReport`] for every `t ≥ 1`. The reduction order is fixed by the scenario's shard size,
//! not by thread scheduling: users fold in index order within a shard,
//! shards merge in index order at the end. The tests in this crate pin
//! that contract at 1, 2, and 8 threads. Sweep expansion preserves it
//! cell-by-cell: every [`SweepReport`] cell is bit-identical to running
//! that expansion individually.
//!
//! ## Quick start
//!
//! ```
//! use tailwise_core::schemes::Scheme;
//! use tailwise_fleet::{run, Scenario};
//! use tailwise_radio::profile::CarrierProfile;
//!
//! let mut scenario =
//!     Scenario::new(12, Scheme::MakeIdle, CarrierProfile::verizon_lte());
//! scenario.shard_size = 4;
//! let report = run(&scenario, 2);
//! assert_eq!(report.users, 12);
//! // MakeIdle reclaims tail energy on any plausible population.
//! assert!(report.aggregate_savings_pct() > 0.0);
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod cache;
pub mod file;
pub mod histogram;
pub mod manifest;
pub mod mobility;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod source;
pub mod sweep;
pub mod topology;

pub use admission::AdmissionSpec;
pub use cache::{CacheSizes, Fingerprint, RequestCache, StoreSize};
pub use histogram::Histogram;
pub use manifest::{ManifestReport, ManifestSignaling, RunManifest};
pub use mobility::{Handoff, MobilitySpec};
pub use report::{CellLoad, FleetReport, FleetSignaling, RncLoad, RunTimings};
pub use runner::{run, run_source};
pub use scenario::{user_seed, Scenario};
pub use source::{synth_corpus, CorpusScenario, CorpusSpec, SourceSet, UserSource};
pub use sweep::{
    run_source_sweep_cached, run_source_sweep_streamed, SweepAxis, SweepReport, SweepRow,
};
pub use topology::{cell_of, merge_requests, rnc_of_cell, NetworkTopology};

#[cfg(test)]
mod tests {
    //! The fleet's two headline guarantees: thread-count invariance and
    //! paper-consistent aggregate savings.

    use tailwise_core::schemes::Scheme;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_workload::apps::AppKind;

    use crate::{run, Scenario};

    /// A population small enough for CI but large enough to span several
    /// shards and exercise work stealing. The app mix is restricted to
    /// the two lightest §6.1 categories so debug-mode CI stays fast; the
    /// savings test below keeps the full default mix.
    fn scenario(scheme: Scheme) -> Scenario {
        let mut s = Scenario::new(12, scheme, CarrierProfile::verizon_lte());
        s.shard_size = 5; // 3 shards, last one ragged
        s.master_seed = 0xF1EE7;
        s.app_mix = vec![(AppKind::Im, 3.0), (AppKind::Finance, 1.0)];
        s
    }

    #[test]
    fn reports_are_bit_identical_across_thread_counts() {
        let s = scenario(Scheme::MakeIdle);
        let single = run(&s, 1);
        let double = run(&s, 2);
        let octo = run(&s, 8);
        // PartialEq on FleetReport compares every f64 via to_bits.
        assert_eq!(single, double);
        assert_eq!(single, octo);
        assert!(single.users == 12 && single.packets > 0);
    }

    #[test]
    fn makeidle_saves_energy_in_aggregate() {
        // Full default app mix: this is the aggregate-savings acceptance
        // claim in miniature.
        let mut s = Scenario::new(8, Scheme::MakeIdle, CarrierProfile::verizon_lte());
        s.shard_size = 3;
        s.master_seed = 0xF1EE7;
        let r = run(&s, 4);
        // The paper's per-trace results put MakeIdle around 50% on
        // Verizon LTE; a mixed background-heavy population lands in the
        // same regime. Be generous to stochastic population draws while
        // still catching sign errors and broken folds.
        let agg = r.aggregate_savings_pct();
        assert!(agg > 30.0, "aggregate savings {agg}%");
        assert!(agg < 95.0, "aggregate savings implausibly high: {agg}%");
        // Savings should also hold user-by-user in the median.
        let p50 = r.savings.percentile(0.5).unwrap();
        assert!(p50 > 20.0, "median user saves {p50}%");
        // MakeIdle trades switches for energy: more cycles than the
        // status quo, and some scored decisions.
        assert!(r.switches > r.baseline_switches);
        assert!(r.decisions > 0);
    }

    #[test]
    fn master_seed_changes_the_population() {
        let a = run(&scenario(Scheme::MakeIdle), 4);
        let mut s = scenario(Scheme::MakeIdle);
        s.master_seed ^= 1;
        let b = run(&s, 4);
        assert_ne!(a.packets, b.packets);
    }

    #[test]
    fn oracle_dominates_makeidle_in_aggregate() {
        let mi = run(&scenario(Scheme::MakeIdle), 4);
        let oracle = run(&scenario(Scheme::Oracle), 4);
        // Identical populations (same seed), so totals are comparable.
        assert_eq!(mi.baseline_energy_j.to_bits(), oracle.baseline_energy_j.to_bits());
        assert!(oracle.energy_j <= mi.energy_j + 1e-6);
    }
}
