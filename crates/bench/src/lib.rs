//! # tailwise-bench
//!
//! The reproduction harness: one experiment per table and figure of
//! *"Traffic-Aware Techniques to Reduce 3G/LTE Wireless Energy
//! Consumption"* (Deng & Balakrishnan, CoNEXT 2012), plus ablations of
//! choices the paper leaves open: MakeIdle's candidate grid and decision
//! rule, the fast-dormancy demotion cost, the Learn-α width and
//! MakeActive's loss scale γ.
//!
//! * [`experiments`] — the experiment list: each experiment's name, CSV
//!   stems and the figure function behind it;
//! * [`figures`] — one function per experiment, returning the same
//!   rows/series the paper plots;
//! * [`datasets`] — deterministic, disk-cached generation of the §6.1
//!   application and user datasets;
//! * [`groundtruth`] — the fine-grained energy model behind the Figure 8
//!   validation;
//! * [`table`] — console/CSV result tables.
//!
//! One binary, `repro`, runs the experiments: with no arguments every one
//! of them, in list order, filling `results/`; with names (`repro
//! fig10_verizon3g tab03_session_delays`) only those. Criterion benches
//! measure the §6.6 per-packet control overhead and the engine/generator
//! throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod figures;
pub mod groundtruth;
pub mod table;

pub use figures::Harness;
pub use table::Table;
