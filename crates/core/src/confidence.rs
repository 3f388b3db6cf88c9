//! The paper-literal confidence rule — an ablation comparator for
//! MakeIdle's energy rule.
//!
//! §4.2 step 1 defines the conditional probability
//! `P(t_wait) = P(no packet within t_wait + t_threshold | none within
//! t_wait)` and asks for the smallest wait that makes it "high enough";
//! step 2 then defines "high enough" through expected energy, which is
//! what [`crate::makeidle::MakeIdle`] implements. This module implements
//! the *literal* alternative — a fixed confidence threshold θ — so the
//! `ablation_decision_rule` bench can quantify what the energy
//! formulation buys:
//!
//! > demote after the smallest `w` with `P(w) ≥ θ`.
//!
//! A pure θ rule has no notion of how much energy is at stake, so it
//! over-switches on cheap gaps and under-switches on expensive ones; the
//! ablation shows it trailing the energy rule at every θ
//! (`crates/bench/tests/paper_claims.rs` pins the ordering).
//!
//! Like MakeIdle, the rule reads counts at cut points (each candidate
//! `w` and `w + t_threshold`), not the sorted window, through the
//! empirical distribution's float expressions: its answers match a
//! query of the sorted window bit for bit.

use tailwise_sim::policy::{IdleContext, IdleDecision, IdlePolicy};
use tailwise_trace::time::Duration;

use crate::cuts::CutCounts;
use crate::makeidle::candidate_waits;

/// MakeIdle with the literal `P(t_wait) ≥ θ` decision rule.
#[derive(Debug, Clone)]
pub struct ConfidenceRule {
    /// Confidence threshold θ ∈ (0, 1].
    theta: f64,
    /// Candidate-grid resolution over `[0, t_threshold]`.
    candidates: usize,
    /// Cold-start sample requirement.
    min_samples: usize,
    /// The candidate waits of the last profile's threshold.
    grid: Option<Grid>,
    /// The window's counts at each wait `w` and at `w + t_threshold`.
    cuts: CutCounts,
}

/// The candidate waits for one `t_threshold`, the only profile field
/// the rule reads.
#[derive(Debug, Clone)]
struct Grid {
    threshold_us: i64,
    /// Each wait with its cuts at `w` and at `w + t_threshold`.
    waits: Vec<(Duration, usize, usize)>,
}

impl ConfidenceRule {
    /// Creates a rule with threshold θ and defaults matching
    /// [`crate::makeidle::MakeIdleConfig`].
    ///
    /// # Panics
    /// Panics if θ is outside `(0, 1]`.
    pub fn new(theta: f64) -> ConfidenceRule {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0,1], got {theta}");
        ConfidenceRule {
            theta,
            candidates: 25,
            min_samples: 10,
            grid: None,
            cuts: CutCounts::default(),
        }
    }

    /// The threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Smallest candidate wait whose conditional confidence reaches θ,
    /// if any. Mutable because the rule's counts follow the window
    /// from one call to the next.
    pub fn first_confident_wait(&mut self, ctx: &IdleContext<'_>) -> Option<Duration> {
        if ctx.window.len() < self.min_samples {
            return None;
        }
        let threshold = ctx.profile.t_threshold();
        let grid = match &mut self.grid {
            Some(grid) if grid.threshold_us == threshold.as_micros() => grid,
            slot => {
                let waits = candidate_waits(threshold, self.candidates.max(2));
                let c = waits.len();
                let ends = waits.iter().map(|&w| w + threshold);
                let index =
                    self.cuts.reset(waits.iter().copied().chain(ends).map(|d| d.as_micros()));
                let waits =
                    waits.iter().enumerate().map(|(i, &w)| (w, index[i], index[c + i])).collect();
                slot.insert(Grid { threshold_us: threshold.as_micros(), waits })
            }
        };
        let cuts = &mut self.cuts;
        cuts.follow(ctx.window);
        let n = cuts.totals().0 as f64;
        let survival = |cut: usize| 1.0 - cuts.at(cut).0 as f64 / n;
        for &(w, at_w, at_end) in &grid.waits {
            // Conditional survival is the paper's P(t_wait); beyond the
            // window support it degenerates to 1 ("nothing observed this
            // long"), mirroring MakeIdle's virtual-sample optimism.
            let s_w = survival(at_w);
            let p = if s_w == 0.0 { 1.0 } else { survival(at_end) / s_w };
            if p >= self.theta {
                return Some(w);
            }
        }
        None
    }
}

impl IdlePolicy for ConfidenceRule {
    fn name(&self) -> String {
        format!("confidence-{:.2}", self.theta)
    }

    fn decide(&mut self, ctx: &IdleContext<'_>, _actual_gap: Duration) -> IdleDecision {
        match self.first_confident_wait(ctx) {
            Some(w) => IdleDecision::DemoteAfter(w),
            None => IdleDecision::Timers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_trace::stats::SlidingWindow;
    use tailwise_trace::time::Instant;

    /// The rule as it stood before the counts: each candidate's `P(w)`
    /// is a conditional-survival query of the sorted window.
    fn sorted_reference(theta: f64, ctx: &IdleContext<'_>) -> Option<Duration> {
        if ctx.window.len() < 10 {
            return None;
        }
        let threshold = ctx.profile.t_threshold();
        (0..25)
            .map(|i| {
                Duration::from_micros(
                    (threshold.as_micros() as f64 * i as f64 / 24.0).round() as i64
                )
            })
            .find(|&w| ctx.window.dist().conditional_survival(w, w + threshold) >= theta)
    }

    /// The six presets, then AT&T HSPA with `t1` = 0.5 s (its threshold
    /// moves past `t1`) and that profile with `p_fach` = 0 (its
    /// threshold is the tail window): eight distinct thresholds.
    fn oracle_profiles() -> Vec<CarrierProfile> {
        let short_t1 =
            CarrierProfile { t1: Duration::from_millis(500), ..CarrierProfile::att_hspa() };
        let no_fach = CarrierProfile { p_fach: 0.0, ..short_t1.clone() };
        let mut profiles = CarrierProfile::all_presets();
        profiles.extend([short_t1, no_fach]);
        profiles
    }

    /// A drawn sample: 0 µs, a candidate wait `w` exactly or 1 µs either
    /// side, `w + t_threshold` exactly or 1 µs either side, or any value
    /// up to 40 s.
    fn pick(profile: &CarrierProfile, (kind, j, raw): (u8, usize, i64)) -> Duration {
        let threshold = profile.t_threshold().as_micros();
        let w = (threshold as f64 * j as f64 / 24.0).round() as i64;
        let us = match kind {
            0 => 0,
            1 => w,
            2 => w + 1,
            3 => w - 1,
            4 => w + threshold,
            5 => w + threshold + 1,
            6 => w + threshold - 1,
            _ => raw,
        };
        Duration::from_micros(us.max(0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The counted rule answers as the sorted-window query does,
        /// after every push of a window filled push by push, with runs
        /// of equal samples (`repeat`), 0-µs gaps and samples on the
        /// cuts; the capacity is often `min_samples` (10). One instance
        /// serves all eight profiles, switching in about one step in
        /// four, so it follows pushes between switches and moves its
        /// cuts at each one.
        #[test]
        fn counted_rule_matches_the_sorted_window(
            theta in (0usize..6, 0.01f64..1.0).prop_map(|(which, any)| {
                [0.5, 0.7, 0.9, 0.95, 1.0].get(which).copied().unwrap_or(any)
            }),
            capacity in (0usize..3, 1usize..=64).prop_map(|(which, small)| match which {
                0 => 10,
                1 => 100,
                _ => small,
            }),
            steps in prop::collection::vec(
                (0usize..32, (0u8..9, 0usize..25, 0i64..40_000_000), 0usize..4),
                1..160,
            ),
        ) {
            let profiles = oracle_profiles();
            let mut rule = ConfidenceRule::new(theta);
            let mut window = SlidingWindow::new(capacity);
            let (mut profile, mut previous) = (0, Duration::ZERO);
            for (switch, draw, repeat) in steps {
                if switch < profiles.len() {
                    profile = switch;
                }
                let sample = if repeat == 0 { previous } else { pick(&profiles[profile], draw) };
                window.push(sample);
                previous = sample;
                let ctx = IdleContext { profile: &profiles[profile], window: &window, now: Instant::ZERO };
                prop_assert_eq!(
                    rule.first_confident_wait(&ctx),
                    sorted_reference(theta, &ctx),
                    "on {}",
                    profiles[profile].name
                );
            }
        }
    }

    fn window_of(gaps_s: &[f64]) -> SlidingWindow {
        let mut w = SlidingWindow::new(100);
        for &g in gaps_s {
            w.push(Duration::from_secs_f64(g));
        }
        w
    }

    fn ctx<'a>(p: &'a CarrierProfile, w: &'a SlidingWindow) -> IdleContext<'a> {
        IdleContext { profile: p, window: w, now: Instant::ZERO }
    }

    #[test]
    fn cold_window_defers() {
        let p = CarrierProfile::att_hspa();
        let w = window_of(&[5.0; 3]);
        let mut r = ConfidenceRule::new(0.9);
        assert_eq!(r.decide(&ctx(&p, &w), Duration::FOREVER), IdleDecision::Timers);
    }

    #[test]
    fn long_gaps_trigger_immediate_confidence() {
        // Every gap 30 s: P(0) = P(gap > 1.2 | gap > 0) = 1 ≥ θ.
        let p = CarrierProfile::att_hspa();
        let w = window_of(&[30.0; 50]);
        let mut r = ConfidenceRule::new(0.9);
        match r.decide(&ctx(&p, &w), Duration::FOREVER) {
            IdleDecision::DemoteAfter(d) => assert_eq!(d, Duration::ZERO),
            other => panic!("expected demote, got {other:?}"),
        }
    }

    #[test]
    fn mixed_gaps_need_some_waiting() {
        // Half 0.4 s, half 30 s: at w = 0, P = 25/50 = 0.5 < 0.9; past the
        // short mode P = 1.
        let p = CarrierProfile::att_hspa();
        let mut gaps = vec![0.4; 25];
        gaps.extend(vec![30.0; 25]);
        let w = window_of(&gaps);
        let mut r = ConfidenceRule::new(0.9);
        let wait = r.first_confident_wait(&ctx(&p, &w)).unwrap();
        assert!(wait >= Duration::from_millis(400), "wait {wait}");
    }

    #[test]
    fn lower_theta_is_more_eager() {
        let p = CarrierProfile::att_hspa();
        let mut gaps = vec![0.4; 30];
        gaps.extend(vec![0.9; 10]);
        gaps.extend(vec![30.0; 10]);
        let w = window_of(&gaps);
        let eager = ConfidenceRule::new(0.2).first_confident_wait(&ctx(&p, &w));
        let strict = ConfidenceRule::new(0.95).first_confident_wait(&ctx(&p, &w));
        match (eager, strict) {
            (Some(e), Some(s)) => assert!(e <= s, "eager {e} vs strict {s}"),
            other => panic!("both thresholds should find a wait: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "theta must be in (0,1]")]
    fn rejects_bad_theta() {
        let _ = ConfidenceRule::new(0.0);
    }
}
