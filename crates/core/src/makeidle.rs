//! MakeIdle: the online demotion predictor of §4.
//!
//! After each packet, MakeIdle chooses how long to wait before requesting
//! fast dormancy, using the empirical inter-arrival distribution of the
//! last *n* packets (§4.2). The paper's recipe:
//!
//! 1. `P(t_wait) = P(no packet in t_wait + t_threshold | none in t_wait)` —
//!    the conditional confidence that the burst has ended, which grows with
//!    the observed silence (exposed here as
//!    [`MakeIdle::p_gap_exceeds_threshold`]);
//! 2. pick the wait by *energy*: choose the `t_wait` that maximizes
//!    `f(t_wait) = E[E_no_switch] − E[E_wait_switch]` (eqs. 1–2).
//!
//! ### Formula reconstruction (documented deviation)
//!
//! Read literally, the paper's eq. 1 does not depend on `t_wait` and its
//! integrand `P(iat = t)·dE/dt` has units of power, not energy. We use the
//! reading that makes the surrounding argument go through, one in which
//! `f` is an energy and depends on the wait: for each candidate wait `w`,
//! compare the *expected gap energy* of
//! the strategy "hold for `w`, then demote if still silent" against the
//! status quo, both under the windowed empirical distribution `F`:
//!
//! ```text
//! E_status_quo   = E_F[ E(T) ]                       (E = Fig. 5 tail energy)
//! E_strategy(w)  = E_F[ E(T) · 1{T ≤ w} ]
//!                + P_F(T > w) · (hold(w) + E_switch)
//! f(w)           = E_status_quo − E_strategy(w)
//! ```
//!
//! The chosen wait is `argmax f(w)` over a grid of candidates in
//! `[0, t_threshold]`; if even the best candidate has `f(w) ≤ 0` the radio
//! is left to the inactivity timers. Waits above `t_threshold` are never
//! useful: past the threshold, switching immediately already beats holding
//! (§4.1), so the grid is capped there.
//!
//! One virtual sample augments the window: a single *session-ending gap*
//! (full tail energy). A window of `n` packets cannot witness a gap longer
//! than the burst that fills it — after a 200-packet transfer every
//! windowed inter-arrival is a millisecond, and the raw empirical
//! distribution would "prove" that long gaps never happen, pinning the
//! radio up forever. The paper's conditional formulation has the same
//! escape hatch (silence beyond the observed support drives
//! `P(t_wait) → 1`); the virtual sample expresses it in the energy
//! formulation with weight `1/(n+1)`, which also reproduces the Fig. 13
//! trend — small windows are more optimistic, so false switches fall as
//! `n` grows. Missed switches do not stay flat: on the Fig. 13 user they
//! rise from 0.01% at n = 10 to 4.44% at n = 400
//! (`crates/bench/tests/paper_claims.rs` pins both trends).
//!
//! Each decision is O(C) (C = grid size): it reads integer counts that
//! follow the window at O(C) per push instead of walking the `n` samples —
//! fast enough to run per-packet on a phone; the §6.6 overhead bench
//! measures this path, window push included. A window the counts did not
//! follow push by push (another window, or several pushes since the last
//! decision) is recounted in one O(n + C) walk.

use tailwise_sim::policy::{IdleContext, IdleDecision, IdlePolicy};
use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::time::Duration;

/// Configuration for [`MakeIdle`].
#[derive(Debug, Clone, PartialEq)]
pub struct MakeIdleConfig {
    /// Number of candidate waits on the `[0, t_threshold]` grid
    /// (endpoints included). Swept by `ablation_candidate_grid`.
    pub candidates: usize,
    /// Gaps observed before the predictor engages; until then it defers to
    /// the inactivity timers (cold start).
    pub min_samples: usize,
}

impl Default for MakeIdleConfig {
    fn default() -> MakeIdleConfig {
        MakeIdleConfig { candidates: 25, min_samples: 10 }
    }
}

/// Fingerprint of every profile/config input the cached candidate grid
/// and cut points depend on (`t_threshold` fixes the waits; `t1`, the
/// tail window, `p_dch` and `p_fach` fix each wait's hold energy; `t1`
/// and the tail window are also cut points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridKey {
    threshold_us: i64,
    candidates: usize,
    t1_us: i64,
    tail_us: i64,
    p_dch_bits: u64,
    p_fach_bits: u64,
}

/// The MakeIdle policy. The inter-arrival window itself is owned by the
/// simulation engine (its capacity is the paper's *n*, default 100,
/// swept in Fig. 13) and handed in through the [`IdleContext`].
#[derive(Debug, Clone, Default)]
pub struct MakeIdle {
    config: MakeIdleConfig,
    /// Cached candidate grid for the current profile: `(wait,
    /// hold_energy(wait))` per candidate. Profiles are fixed for a whole
    /// run, so this builds once; the key fingerprints every profile
    /// field the cached values depend on, so a policy instance reused
    /// across carriers stays correct.
    grid: Vec<(Duration, f64)>,
    grid_key: Option<GridKey>,
    /// The window's sample count and µs sum at every point `f(w)` cuts
    /// it, following the window push by push.
    cuts: CutCounts,
}

/// Integer statistics of a window at fixed cut points, kept current by
/// one insert and one evict per push.
///
/// Cut point `i` holds the number of samples `≤ at_us[i]` and their µs
/// sum. The points are the grid waits in grid order, then `t1`, the tail
/// window and `i64::MAX` (the whole window), so every integer `f(w)`
/// reads is one lookup.
#[derive(Debug, Clone, Default)]
struct CutCounts {
    at_us: Vec<i64>,
    /// Cut indices by ascending `at_us`, for the one-walk rebuild.
    ascending: Vec<usize>,
    count: Vec<i64>,
    sum_us: Vec<i64>,
    /// `(stream, pushes)` of the window the counts describe; `None`
    /// after the cut points change.
    synced: Option<(u64, u64)>,
}

impl CutCounts {
    /// Moves the cut points to `at_us`; the counts wait for the next
    /// [`follow`](Self::follow) to rebuild them.
    fn reset(&mut self, at_us: impl IntoIterator<Item = i64>) {
        self.at_us.clear();
        self.at_us.extend(at_us);
        self.ascending = (0..self.at_us.len()).collect();
        self.ascending.sort_by_key(|&i| self.at_us[i]);
        self.count = vec![0; self.at_us.len()];
        self.sum_us = vec![0; self.at_us.len()];
        self.synced = None;
    }

    /// Brings the counts up to date with `window`: nothing if it is the
    /// window last seen, one insert and at most one evict if it is that
    /// window plus one push, a rebuild from its samples otherwise.
    fn follow(&mut self, window: &SlidingWindow) {
        let now = (window.stream(), window.pushes());
        match (self.synced, window.last_push()) {
            (Some(seen), _) if seen == now => return,
            (Some((stream, pushes)), Some((inserted, evicted)))
                if stream == now.0 && pushes + 1 == now.1 =>
            {
                self.add(inserted, 1);
                if let Some(evicted) = evicted {
                    self.add(evicted, -1);
                }
            }
            _ => self.rebuild(window.sorted_samples()),
        }
        self.synced = Some(now);
    }

    /// Recounts from the sorted samples in one walk: the cuts are
    /// visited in ascending order, each taking the samples the walk has
    /// passed so far.
    fn rebuild(&mut self, sorted: &[Duration]) {
        let (mut k, mut sum) = (0, 0);
        for &i in &self.ascending {
            while k < sorted.len() && sorted[k].as_micros() <= self.at_us[i] {
                sum += sorted[k].as_micros();
                k += 1;
            }
            self.count[i] = k as i64;
            self.sum_us[i] = sum;
        }
    }

    /// Adds (`sign` 1) or removes (`sign` −1) one sample at every cut
    /// point at or above it.
    fn add(&mut self, sample: Duration, sign: i64) {
        let us = sample.as_micros();
        for ((&at, count), sum) in self.at_us.iter().zip(&mut self.count).zip(&mut self.sum_us) {
            let hit = sign * i64::from(us <= at);
            *count += hit;
            *sum += hit * us;
        }
    }

    /// `(count, µs sum)` at cut point `i`.
    fn at(&self, i: usize) -> (i64, i64) {
        (self.count[i], self.sum_us[i])
    }
}

impl MakeIdle {
    /// Creates a MakeIdle policy with the default configuration.
    pub fn new() -> MakeIdle {
        MakeIdle::default()
    }

    /// Creates a MakeIdle policy with a custom configuration.
    pub fn with_config(config: MakeIdleConfig) -> MakeIdle {
        MakeIdle { config, ..MakeIdle::default() }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MakeIdleConfig {
        &self.config
    }

    /// The paper's step-1 diagnostic: `P(no packet within w + t_threshold |
    /// no packet within w)` under the window distribution.
    pub fn p_gap_exceeds_threshold(ctx: &IdleContext<'_>, w: Duration) -> f64 {
        ctx.window.conditional_survival(w, w + ctx.profile.t_threshold())
    }

    /// Evaluates `f(w)` for every candidate and returns the best
    /// `(wait, f)` pair, or `None` when the window is still cold.
    ///
    /// Public so the Fig. 14 harness can plot the chosen waits without
    /// running a full simulation.
    ///
    /// ### Hot-path note
    ///
    /// This runs once per packet gap over the whole fleet, so it reads no
    /// samples. `E(t)` is piecewise linear in `t` below the tail window
    /// and constant above it, so Σ `E(sᵢ)` over the samples at or below
    /// any cut reduces to the count and µs sum of the samples at or below
    /// that cut, `t1` and the tail window. Those integers follow the window
    /// one push at a time (one insert and one evict per cut point), and
    /// the float expressions start from them in a fixed order, so the
    /// result does not depend on the history of the counts.
    /// [`best_wait_reference`](Self::best_wait_reference) keeps the
    /// direct per-sample evaluation and the equivalence is pinned by
    /// property tests.
    pub fn best_wait(&mut self, ctx: &IdleContext<'_>) -> Option<(Duration, f64)> {
        let len = ctx.window.len();
        if len < self.config.min_samples {
            return None;
        }
        let profile = ctx.profile;
        let e_switch = profile.e_switch();
        let t1 = profile.t1;
        let tail_window = profile.tail_window();
        let t1_secs = t1.as_secs_f64();
        // Past both timers E(t) is the constant full status-quo cycle —
        // also the energy of the virtual session-ending pseudo-sample
        // (see module docs).
        let e_cycle = profile.gap_energy(tail_window + Duration::from_secs(1));
        let n = len as f64 + 1.0;

        // The candidate grid (and each candidate's hold energy) depends
        // only on the profile, which is fixed for a whole run: build once.
        let c = self.config.candidates.max(2);
        let threshold = profile.t_threshold();
        let key = GridKey {
            threshold_us: threshold.as_micros(),
            candidates: c,
            t1_us: t1.as_micros(),
            tail_us: tail_window.as_micros(),
            p_dch_bits: profile.p_dch.to_bits(),
            p_fach_bits: profile.p_fach.to_bits(),
        };
        if self.grid_key != Some(key) {
            self.grid.clear();
            for i in 0..c {
                let w = Duration::from_micros(
                    (threshold.as_micros() as f64 * i as f64 / (c - 1) as f64).round() as i64,
                );
                self.grid.push((w, profile.hold_energy(w)));
            }
            let waits = self.grid.iter().map(|&(w, _)| w.as_micros());
            let pieces = [t1.as_micros(), tail_window.as_micros(), i64::MAX];
            self.cuts.reset(waits.chain(pieces));
            self.grid_key = Some(key);
        }
        self.cuts.follow(ctx.window);

        let secs = |us: i64| us as f64 * 1e-6;
        // Samples at or below t1 and the tail window: the piece
        // boundaries of E.
        let (k1, us1) = self.cuts.at(c);
        let (k2, us2) = self.cuts.at(c + 1);
        // Σ E(sᵢ) over the k smallest samples (µs sum `us_k`), in closed
        // form (E is linear within each piece).
        let energy_prefix = |k: i64, us_k: i64| -> f64 {
            if k <= k1 {
                // Piece 1 only (s ≤ t1): E = p_dch·s.
                return profile.p_dch * secs(us_k);
            }
            let mut sum = profile.p_dch * secs(us1);
            // Piece 2 (t1 < s ≤ t1+t2): E = p_dch·t1 + p_fach·(s − t1).
            let (b, us_b) = if k <= k2 { (k, us_k) } else { (k2, us2) };
            let m = (b - k1) as f64;
            let piece_secs = secs(us_b - us1);
            sum += m * profile.p_dch * t1_secs + profile.p_fach * (piece_secs - m * t1_secs);
            // Piece 3 (s beyond the timers): E is the constant cycle.
            if k > k2 {
                sum += (k - k2) as f64 * e_cycle;
            }
            sum
        };
        let (total, total_us) = self.cuts.at(c + 2);
        debug_assert_eq!(total, len as i64, "cut counts out of step with the window");
        let e_status_quo = (energy_prefix(total, total_us) + e_cycle) / n;

        let mut best: Option<(Duration, f64)> = None;
        for (i, &(w, hold)) in self.grid.iter().enumerate() {
            let (k, us_k) = self.cuts.at(i);
            // k samples interrupt the hold; the virtual long gap survives
            // every candidate.
            let survivors = total - k + 1;
            let e_strategy = (energy_prefix(k, us_k) + survivors as f64 * (hold + e_switch)) / n;
            let f = e_status_quo - e_strategy;
            if best.is_none_or(|(_, fb)| f > fb) {
                best = Some((w, f));
            }
        }
        best
    }

    /// The direct per-sample evaluation of `f(w)` — the formula as
    /// written in the module docs, with no algebraic regrouping. Kept as
    /// the oracle for the [`best_wait`](Self::best_wait) equivalence
    /// property test and for ablation studies that want to instrument
    /// per-sample energies.
    pub fn best_wait_reference(&self, ctx: &IdleContext<'_>) -> Option<(Duration, f64)> {
        let samples = ctx.window.sorted_samples();
        if samples.len() < self.config.min_samples {
            return None;
        }
        let profile = ctx.profile;
        let threshold = profile.t_threshold();
        let e_switch = profile.e_switch();
        let e_virtual = profile.gap_energy(profile.tail_window() + Duration::from_secs(1));
        let n = samples.len() as f64 + 1.0;

        let mut energies = Vec::with_capacity(samples.len());
        let mut acc = 0.0;
        for &s in samples {
            acc += profile.gap_energy(s);
            energies.push(acc);
        }
        let e_status_quo = (acc + e_virtual) / n;
        let prefix = |k: usize| if k == 0 { 0.0 } else { energies[k - 1] };

        let c = self.config.candidates.max(2);
        let mut best: Option<(Duration, f64)> = None;
        for i in 0..c {
            let w = Duration::from_micros(
                (threshold.as_micros() as f64 * i as f64 / (c - 1) as f64).round() as i64,
            );
            let k = samples.partition_point(|&s| s <= w);
            let survivors = samples.len() - k + 1;
            let e_strategy =
                (prefix(k) + survivors as f64 * (profile.hold_energy(w) + e_switch)) / n;
            let f = e_status_quo - e_strategy;
            if best.is_none_or(|(_, fb)| f > fb) {
                best = Some((w, f));
            }
        }
        best
    }
}

impl IdlePolicy for MakeIdle {
    fn name(&self) -> String {
        "makeidle".into()
    }

    fn decide(&mut self, ctx: &IdleContext<'_>, _actual_gap: Duration) -> IdleDecision {
        match self.best_wait(ctx) {
            Some((w, f)) if f > 0.0 => IdleDecision::DemoteAfter(w),
            // Cold window, or every candidate loses to the status quo.
            _ => IdleDecision::Timers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_radio::profile::CarrierProfile;
    use tailwise_trace::stats::SlidingWindow;
    use tailwise_trace::time::Instant;

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
    fn cold_window_defers_to_timers() {
        let p = CarrierProfile::att_hspa();
        let w = window_of(&[10.0; 5]); // below min_samples = 10
        let mut mi = MakeIdle::new();
        assert_eq!(mi.decide(&ctx(&p, &w), Duration::from_secs(30)), IdleDecision::Timers);
        assert!(mi.best_wait(&ctx(&p, &w)).is_none());
    }

    #[test]
    fn long_gap_history_demotes_immediately() {
        // Every observed gap is 30 s: holding is pure waste, so the best
        // wait is (near) zero and f is strongly positive.
        let p = CarrierProfile::att_hspa();
        let w = window_of(&[30.0; 50]);
        let mut mi = MakeIdle::new();
        let (wait, f) = mi.best_wait(&ctx(&p, &w)).unwrap();
        assert!(f > 0.0);
        assert_eq!(wait, Duration::ZERO);
        match mi.decide(&ctx(&p, &w), Duration::from_secs(30)) {
            IdleDecision::DemoteAfter(d) => assert_eq!(d, Duration::ZERO),
            other => panic!("expected demote, got {other:?}"),
        }
    }

    #[test]
    fn short_gap_history_waits_out_the_support() {
        // Every observed gap is 0.3 s: in-burst silence must be waited
        // out, but silence *beyond* the observed support means the session
        // ended (the virtual-sample prior) — so the chosen wait sits just
        // past 0.3 s and never below it.
        let p = CarrierProfile::att_hspa();
        let w = window_of(&[0.3; 50]);
        let mut mi = MakeIdle::new();
        let (wait, f) = mi.best_wait(&ctx(&p, &w)).unwrap();
        assert!(f > 0.0, "f = {f}");
        // Samples exactly at the wait count as interrupting the hold
        // (the engine demotes only when gap > wait), so w* = 0.3 itself
        // is the tightest safe wait.
        assert!(wait >= Duration::from_millis(300), "w* = {wait}");
        assert!(wait <= p.t_threshold());
        // A 0.25 s gap (inside the support) therefore never demotes…
        match mi.decide(&ctx(&p, &w), Duration::from_millis(250)) {
            IdleDecision::DemoteAfter(chosen) => {
                assert!(chosen >= Duration::from_millis(250));
            }
            IdleDecision::Timers => {}
        }
    }

    #[test]
    fn bimodal_history_waits_out_the_short_mode() {
        // Half the gaps are 0.4 s (in-burst), half are 30 s (session ends).
        // The optimal strategy holds just past the short mode, then
        // demotes: 0 < w* ≤ threshold, and demoting must win (f > 0).
        let p = CarrierProfile::att_hspa();
        let mut gaps = vec![0.4; 25];
        gaps.extend(vec![30.0; 25]);
        let w = window_of(&gaps);
        let mut mi = MakeIdle::new();
        let (wait, f) = mi.best_wait(&ctx(&p, &w)).unwrap();
        assert!(f > 0.0, "f = {f}");
        // Samples exactly at the wait count as interrupting the hold, so
        // w* = 0.4 s itself already excludes the short mode.
        assert!(wait >= Duration::from_millis(400), "w* = {wait}");
        assert!(wait <= p.t_threshold());
    }

    #[test]
    fn chosen_wait_never_exceeds_threshold() {
        let p = CarrierProfile::verizon_lte();
        for pattern in [&[0.1, 5.0][..], &[1.0, 1.0, 20.0], &[8.0; 3]] {
            let gaps: Vec<f64> = pattern.iter().cycle().take(60).copied().collect();
            let w = window_of(&gaps);
            let mut mi = MakeIdle::new();
            if let Some((wait, _)) = mi.best_wait(&ctx(&p, &w)) {
                assert!(wait <= p.t_threshold());
            }
        }
    }

    #[test]
    fn p_twait_increases_with_wait_on_bursty_traffic() {
        // The paper's observation: "P(t_wait) increases as t_wait
        // increases" on real (bursty) inter-arrival distributions.
        let p = CarrierProfile::att_hspa();
        let mut gaps = vec![0.05; 40]; // dense in-burst gaps
        gaps.extend(vec![10.0; 20]); // session gaps
        let w = window_of(&gaps);
        let c = ctx(&p, &w);
        let p0 = MakeIdle::p_gap_exceeds_threshold(&c, Duration::ZERO);
        let p_half = MakeIdle::p_gap_exceeds_threshold(&c, Duration::from_millis(600));
        assert!(p_half >= p0, "{p_half} < {p0}");
    }

    #[test]
    fn decision_ignores_the_actual_gap() {
        // MakeIdle is online: whatever the future holds, the decision is a
        // function of the window only.
        let p = CarrierProfile::att_hspa();
        let w = window_of(&[30.0; 50]);
        let mut mi = MakeIdle::new();
        let a = mi.decide(&ctx(&p, &w), Duration::from_millis(1));
        let b = mi.decide(&ctx(&p, &w), Duration::from_secs(1000));
        assert_eq!(a, b);
    }

    #[test]
    fn reused_instance_refreshes_grid_across_profiles() {
        // Profiles with the same t_threshold must not share cached hold
        // energies or cut points when one MakeIdle instance serves them:
        // `b` scales all powers and switch energies ×2 (so the ratio is
        // invariant); `c` cuts t2 to 2 s, which moves the tail window
        // from 16.6 s to 8.2 s, below the 12 s gaps.
        let a = CarrierProfile::att_hspa();
        let mut b = a.clone();
        b.p_dch *= 2.0;
        b.p_fach *= 2.0;
        b.e_promote *= 2.0;
        b.e_demote_base *= 2.0;
        assert_eq!(a.t_threshold(), b.t_threshold());
        let mut c = a.clone();
        c.t2 = Duration::from_secs(2);
        assert_eq!(a.t_threshold(), c.t_threshold());
        assert_eq!(c.tail_window(), Duration::from_millis(8_200));

        let mut gaps = vec![0.4; 25];
        gaps.extend(vec![12.0; 10]);
        gaps.extend(vec![30.0; 25]);
        let w = window_of(&gaps);
        let mut mi = MakeIdle::new();
        for p in [&a, &b, &a, &c, &a] {
            let fast = mi.best_wait(&ctx(p, &w)).unwrap();
            let reference = mi.best_wait_reference(&ctx(p, &w)).unwrap();
            assert_eq!(fast.0, reference.0, "wait mismatch on {}", p.name);
            assert!(
                (fast.1 - reference.1).abs() <= 1e-9 * reference.1.abs().max(1.0),
                "f mismatch on {}: {fast:?} vs {reference:?}",
                p.name
            );
        }
    }

    #[test]
    fn grid_resolution_changes_granularity_not_direction() {
        let p = CarrierProfile::att_hspa();
        let mut gaps = vec![0.4; 25];
        gaps.extend(vec![30.0; 25]);
        let w = window_of(&gaps);
        let mut coarse = MakeIdle::with_config(MakeIdleConfig { candidates: 3, min_samples: 10 });
        let mut fine = MakeIdle::with_config(MakeIdleConfig { candidates: 200, min_samples: 10 });
        let (_, f_coarse) = coarse.best_wait(&ctx(&p, &w)).unwrap();
        let (_, f_fine) = fine.best_wait(&ctx(&p, &w)).unwrap();
        // Finer grids can only find an equal-or-better optimum.
        assert!(f_fine + 1e-12 >= f_coarse);
    }
}
