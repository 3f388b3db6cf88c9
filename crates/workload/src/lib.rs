//! # tailwise-workload
//!
//! Synthetic smartphone traffic for the tailwise reproduction of *"Traffic-
//! Aware Techniques to Reduce 3G/LTE Wireless Energy Consumption"* (Deng &
//! Balakrishnan, CoNEXT 2012).
//!
//! The paper evaluates on proprietary tcpdump captures: 2-hour traces of
//! seven application categories plus 28 days of real-user data (§6.1).
//! This crate synthesizes structural stand-ins from the paper's own
//! descriptions. Every scheme under study reads only packet times and
//! directions, so a stand-in with the inter-arrival structure the paper
//! describes (bursts, think times, periodic syncs, daily sessions) drives
//! the same decisions; the absolute numbers it yields are this
//! reproduction's, not the paper's:
//!
//! * [`apps`] — the seven application models (News, IM, MicroBlog, Game,
//!   Email, Social, Finance) as parameterized renewal processes;
//! * [`burst`] — the shared request/response burst shape;
//! * [`diurnal`] — time-of-day usage-session structure for multi-day traces;
//! * [`user`] — the 9-user / 28-day populations mirroring the figure
//!   panels;
//! * [`dist`] — the few sampling primitives the above need (exponential,
//!   bounded Pareto, log-normal, Poisson), implemented over `rand`'s
//!   uniform source.
//!
//! Everything is deterministic given the model seeds: regenerating a
//! dataset is bit-stable across runs and platforms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod burst;
pub mod dist;
pub mod diurnal;
pub mod user;

pub use apps::{AppKind, AppParams};
pub use diurnal::{DiurnalProfile, DAY};
pub use user::UserModel;

#[cfg(test)]
mod proptests {
    //! Property-based tests over generator invariants.

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tailwise_trace::time::Duration;

    use crate::apps::AppKind;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn app_traces_are_always_valid(
            seed in 0u64..1_000,
            kind_idx in 0usize..7,
            span_min in 5i64..40,
        ) {
            let kind = AppKind::ALL[kind_idx];
            let span = Duration::from_secs(span_min * 60);
            let mut rng = StdRng::seed_from_u64(seed);
            let t = kind.default_model().generate(span, &mut rng);
            // Valid ordering (enforced by construction) and bounded span.
            for w in t.packets().windows(2) {
                prop_assert!(w[0].ts <= w[1].ts);
            }
            prop_assert!(t.span() <= span);
            for p in t.iter() {
                prop_assert_eq!(p.app, kind.id());
                prop_assert!(p.len > 0);
            }
        }

        #[test]
        fn packet_volume_scales_with_span(
            seed in 0u64..200,
            kind_idx in 0usize..7,
        ) {
            // Twice the span must produce meaningfully more packets
            // (within stochastic slack) — guards against generators that
            // stop early or run away.
            let kind = AppKind::ALL[kind_idx];
            let short = kind.default_model().generate(
                Duration::from_secs(1800), &mut StdRng::seed_from_u64(seed));
            let long = kind.default_model().generate(
                Duration::from_secs(3600), &mut StdRng::seed_from_u64(seed));
            prop_assert!(!short.is_empty());
            prop_assert!(long.len() as f64 >= short.len() as f64 * 1.2);
            prop_assert!(long.len() as f64 <= short.len() as f64 * 4.0 + 200.0);
        }
    }
}
