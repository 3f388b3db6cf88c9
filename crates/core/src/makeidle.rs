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
//! Each decision reads integer counts instead of walking the `n`
//! samples, and does only the work its gap's verdict needs — fast
//! enough to run per packet on a phone; the §6.6 overhead bench
//! measures this path, window push included:
//!
//! * **Counts above each cut.** Per cut point (the candidate waits,
//!   `t1` and the tail window, in ascending order) MakeIdle keeps the
//!   count and µs sum of the window's samples *above* it, plus the
//!   window's totals. A push inserts one sample and evicts at most one,
//!   and each walks the ascending cuts only while they lie below the
//!   sample, so an intra-burst gap of a few ms touches one cut instead
//!   of all of them. The count at or below a cut is the total minus the
//!   count above it. A window the counts did not follow push by push
//!   (another window, or several pushes since the last decision) is
//!   recounted from its sorted view, which the window sorts for that
//!   query: an engine run recounts once, at its first warm decision.
//! * **Skip candidates that cannot win.** A candidate whose count equals
//!   the previous candidate's has the same samples below it, so its
//!   `f(w)` differs only by a larger hold energy. Every float step from
//!   there is monotone, so its `f` cannot rise above the previous one,
//!   and the strict `>` of the argmax keeps the earlier best: it is
//!   skipped.
//! * **Stop once the verdict is settled.** The request rule only asks
//!   whether a gap demotes, and after which wait
//!   ([`IdlePolicy::demotion`]). The candidates are scanned in
//!   ascending order, so a later best can only wait longer: once the
//!   running best's wait reaches the gap, or the scan reaches a wait at
//!   or above the gap while the best so far has `f ≤ 0`, no later
//!   candidate can demote inside the gap and the answer is "no". For a
//!   gap no longer than the first non-zero candidate only wait 0 can
//!   demote: `f(0) ≤ 0` settles it after one evaluation, and so does the
//!   first later candidate that beats `f(0)`, usually the next one.
//!   [`best_wait`](MakeIdle::best_wait) and [`IdlePolicy::decide`],
//!   which the decision log reads, still scan every candidate that can
//!   win.
//!
//! The per-profile constants (the grid, each wait's hold energy,
//! `t_threshold`, `E_switch`, the tail window and the virtual sample's
//! energy) are built once per profile.

use tailwise_radio::profile::CarrierProfile;
use tailwise_sim::policy::{IdleContext, IdleDecision, IdlePolicy};
use tailwise_trace::time::Duration;

use crate::cuts::CutCounts;

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

/// The key over every raw input the cached [`Grid`] reads: the profile
/// fields behind `t_threshold`, `E_switch`, the tail window, the hold
/// energies and the virtual sample's energy, and the candidate count.
/// A key on derived values alone (the threshold's µs, say) would reuse
/// a stale `E_switch` for two profiles whose thresholds round alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridKey {
    candidates: usize,
    t1_us: i64,
    t2_us: i64,
    p_dch_bits: u64,
    p_fach_bits: u64,
    e_promote_bits: u64,
    e_demote_base_bits: u64,
    fd_fraction_bits: u64,
}

impl GridKey {
    fn of(profile: &CarrierProfile, candidates: usize) -> GridKey {
        GridKey {
            candidates,
            t1_us: profile.t1.as_micros(),
            t2_us: profile.t2.as_micros(),
            p_dch_bits: profile.p_dch.to_bits(),
            p_fach_bits: profile.p_fach.to_bits(),
            e_promote_bits: profile.e_promote.to_bits(),
            e_demote_base_bits: profile.e_demote_base.to_bits(),
            fd_fraction_bits: profile.fd_energy_fraction.to_bits(),
        }
    }
}

/// One candidate wait of the grid.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    wait: Duration,
    /// `hold_energy(wait) + E_switch`: what each surviving gap costs
    /// under this wait.
    hold_switch: f64,
    /// This wait's cut in the [`CutCounts`].
    cut: usize,
}

/// Everything a decision needs that depends only on the profile and the
/// candidate count. Profiles are fixed for a whole run, so this builds
/// once; the key makes a policy instance reused across carriers stay
/// correct.
#[derive(Debug, Clone)]
struct Grid {
    key: GridKey,
    /// The waits in ascending order, `[0, t_threshold]`.
    candidates: Vec<Candidate>,
    t1_secs: f64,
    /// `E(t)` past both timers, the full status-quo cycle — also the
    /// energy of the virtual session-ending sample (see module docs).
    e_cycle: f64,
    /// The cuts of `t1` and the tail window in the [`CutCounts`].
    t1_cut: usize,
    tail_cut: usize,
}

impl Grid {
    /// Builds the grid for `key` (of `profile`) and moves `cuts` to its
    /// cut points.
    fn build(key: GridKey, profile: &CarrierProfile, cuts: &mut CutCounts) -> Grid {
        let c = key.candidates;
        let e_switch = profile.e_switch();
        let tail_window = profile.tail_window();
        let waits = candidate_waits(profile.t_threshold(), c);
        // Cut points: the waits (origins 0..c), then t1 and the tail
        // window, sorted ascending (stable, so ties keep that order).
        let points = waits.iter().copied().chain([profile.t1, tail_window]);
        let index = cuts.reset(points.map(|d| d.as_micros()));
        Grid {
            key,
            candidates: waits
                .iter()
                .enumerate()
                .map(|(i, &wait)| Candidate {
                    wait,
                    hold_switch: profile.hold_energy(wait) + e_switch,
                    cut: index[i],
                })
                .collect(),
            t1_secs: profile.t1.as_secs_f64(),
            e_cycle: profile.gap_energy(tail_window + Duration::from_secs(1)),
            t1_cut: index[c],
            tail_cut: index[c + 1],
        }
    }
}

/// The `c` ≥ 2 candidate waits, evenly spaced over `[0, threshold]`
/// and rounded to the µs, in ascending order.
pub(crate) fn candidate_waits(threshold: Duration, c: usize) -> Vec<Duration> {
    let threshold_us = threshold.as_micros() as f64;
    (0..c)
        .map(|i| Duration::from_micros((threshold_us * i as f64 / (c - 1) as f64).round() as i64))
        .collect()
}

/// The MakeIdle policy. The inter-arrival window itself is owned by the
/// simulation engine (its capacity is the paper's *n*, default 100,
/// swept in Fig. 13) and handed in through the [`IdleContext`].
#[derive(Debug, Clone, Default)]
pub struct MakeIdle {
    config: MakeIdleConfig,
    /// The per-profile constants, built at the first warm decision.
    grid: Option<Grid>,
    /// The window's sample count and µs sum above every point `f(w)`
    /// cuts it, following the window push by push.
    cuts: CutCounts,
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
        ctx.window.dist().conditional_survival(w, w + ctx.profile.t_threshold())
    }

    /// Evaluates `f(w)` for every candidate that can win and returns the
    /// best `(wait, f)` pair, or `None` when the window is still cold.
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
    /// that cut, `t1` and the tail window. Those integers are the
    /// window's totals minus the counts above each cut, which follow the
    /// window one push at a time (an insert or an evict touches only the
    /// cuts below its sample). A candidate whose count equals the
    /// previous one's cannot beat it and is skipped. The float
    /// expressions start from the integers in a fixed order, so the
    /// result does not depend on the history of the counts.
    /// [`best_wait_reference`](Self::best_wait_reference) keeps the
    /// direct per-sample evaluation and the equivalence is pinned by
    /// property tests.
    pub fn best_wait(&mut self, ctx: &IdleContext<'_>) -> Option<(Duration, f64)> {
        self.scan(ctx, Duration::FOREVER)
    }

    /// The ascending candidate scan behind [`best_wait`](Self::best_wait)
    /// and [`IdlePolicy::demotion`]: the best `(wait, f)` pair, or
    /// `None` once it is settled that a gap of length `gap` does not
    /// demote (and for a cold window). A returned wait is below `gap`;
    /// with `gap` = [`Duration::FOREVER`] the scan never stops early.
    fn scan(&mut self, ctx: &IdleContext<'_>, gap: Duration) -> Option<(Duration, f64)> {
        let len = ctx.window.len();
        if len < self.config.min_samples {
            return None;
        }
        let profile = ctx.profile;
        let key = GridKey::of(profile, self.config.candidates.max(2));
        let grid = match &mut self.grid {
            Some(grid) if grid.key == key => grid,
            slot => slot.insert(Grid::build(key, profile, &mut self.cuts)),
        };
        let cuts = &mut self.cuts;
        cuts.follow(ctx.window);
        let n = len as f64 + 1.0;

        let secs = |us: i64| us as f64 * 1e-6;
        // Samples at or below t1 and the tail window: the piece
        // boundaries of E.
        let (k1, us1) = cuts.at(grid.t1_cut);
        let (k2, us2) = cuts.at(grid.tail_cut);
        let (t1_secs, e_cycle) = (grid.t1_secs, grid.e_cycle);
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
        let (total, total_us) = cuts.totals();
        debug_assert_eq!(total, len as i64, "cut counts out of step with the window");
        let e_status_quo = (energy_prefix(total, total_us) + e_cycle) / n;

        let mut best: Option<(Duration, f64)> = None;
        let mut previous_k = -1;
        for candidate in &grid.candidates {
            // Every later best waits at least this long: with nothing
            // to beat, the gap cannot demote.
            if candidate.wait >= gap && best.is_none_or(|(_, fb)| fb <= 0.0) {
                return None;
            }
            let (k, us_k) = cuts.at(candidate.cut);
            // The previous candidate's samples and a hold no shorter:
            // f cannot rise (see module docs).
            if k == previous_k {
                continue;
            }
            previous_k = k;
            // k samples interrupt the hold; the virtual long gap survives
            // every candidate.
            let survivors = total - k + 1;
            let e_strategy =
                (energy_prefix(k, us_k) + survivors as f64 * candidate.hold_switch) / n;
            let f = e_status_quo - e_strategy;
            if best.is_none_or(|(_, fb)| f > fb) {
                // A best that waits out the gap stays at or past it.
                if candidate.wait >= gap {
                    return None;
                }
                best = Some((candidate.wait, f));
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
        let samples = ctx.window.dist().sorted_samples();
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

    /// The candidate scan of [`decide`](IdlePolicy::decide), stopped as
    /// soon as no later candidate can demote inside `gap` (see module
    /// docs). A wait the scan returns is already below the gap.
    fn demotion(&mut self, ctx: &IdleContext<'_>, gap: Duration) -> Option<Duration> {
        match self.scan(ctx, gap) {
            Some((w, f)) if f > 0.0 => Some(w),
            _ => None,
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

    /// The full scan as it stood before the skip and the stop: every
    /// candidate evaluated, every constant derived from the profile at
    /// each call, and each count taken from the sorted samples. The
    /// float expressions are [`MakeIdle::best_wait`]'s, so the two agree
    /// bit for bit.
    fn full_scan(config: &MakeIdleConfig, ctx: &IdleContext<'_>) -> Option<(Duration, f64)> {
        let samples = ctx.window.dist().sorted_samples();
        if samples.len() < config.min_samples {
            return None;
        }
        let profile = ctx.profile;
        let e_switch = profile.e_switch();
        let t1 = profile.t1;
        let tail_window = profile.tail_window();
        let t1_secs = t1.as_secs_f64();
        let e_cycle = profile.gap_energy(tail_window + Duration::from_secs(1));
        let n = samples.len() as f64 + 1.0;
        let threshold = profile.t_threshold();
        let c = config.candidates.max(2);
        let at = |cut: Duration| -> (i64, i64) {
            let k = samples.partition_point(|&s| s <= cut);
            (k as i64, samples[..k].iter().map(|s| s.as_micros()).sum())
        };
        let secs = |us: i64| us as f64 * 1e-6;
        let (k1, us1) = at(t1);
        let (k2, us2) = at(tail_window);
        let energy_prefix = |k: i64, us_k: i64| -> f64 {
            if k <= k1 {
                return profile.p_dch * secs(us_k);
            }
            let mut sum = profile.p_dch * secs(us1);
            let (b, us_b) = if k <= k2 { (k, us_k) } else { (k2, us2) };
            let m = (b - k1) as f64;
            let piece_secs = secs(us_b - us1);
            sum += m * profile.p_dch * t1_secs + profile.p_fach * (piece_secs - m * t1_secs);
            if k > k2 {
                sum += (k - k2) as f64 * e_cycle;
            }
            sum
        };
        let (total, total_us) = at(Duration::FOREVER);
        let e_status_quo = (energy_prefix(total, total_us) + e_cycle) / n;
        let mut best: Option<(Duration, f64)> = None;
        for i in 0..c {
            let w = Duration::from_micros(
                (threshold.as_micros() as f64 * i as f64 / (c - 1) as f64).round() as i64,
            );
            let (k, us_k) = at(w);
            let survivors = total - k + 1;
            let hold = profile.hold_energy(w);
            let e_strategy = (energy_prefix(k, us_k) + survivors as f64 * (hold + e_switch)) / n;
            let f = e_status_quo - e_strategy;
            if best.is_none_or(|(_, fb)| f > fb) {
                best = Some((w, f));
            }
        }
        best
    }

    fn bits(best: Option<(Duration, f64)>) -> Option<(Duration, u64)> {
        best.map(|(w, f)| (w, f.to_bits()))
    }

    /// The six presets, then AT&T HSPA edited three ways: `t1` = 0.5 s
    /// below its 1.2-s threshold; `t2` = 0; and `p_fach` = 0 with that
    /// short `t1`, whose threshold is then the tail window itself, so the
    /// last wait and the tail cut coincide.
    fn oracle_profiles() -> Vec<CarrierProfile> {
        let att = CarrierProfile::att_hspa;
        let short_t1 = CarrierProfile { t1: Duration::from_millis(500), ..att() };
        let no_t2 = CarrierProfile { t2: Duration::ZERO, ..att() };
        let no_fach = CarrierProfile { p_fach: 0.0, ..short_t1.clone() };
        assert!(short_t1.t_threshold() > short_t1.t1);
        assert_eq!(no_fach.t_threshold(), no_fach.tail_window());
        let mut profiles = CarrierProfile::all_presets();
        assert_eq!(profiles.len(), 6);
        profiles.extend([short_t1, no_t2, no_fach]);
        profiles
    }

    /// A drawn duration: 0 µs, a grid wait exactly or 1 µs either side,
    /// `t1` or the tail window exactly, or any value up to 40 s.
    fn pick(profile: &CarrierProfile, (kind, j, raw): (u8, usize, i64)) -> Duration {
        let grid_us = (profile.t_threshold().as_micros() as f64 * j as f64 / 24.0).round() as i64;
        let us = match kind {
            0 => 0,
            1 => grid_us,
            2 => grid_us + 1,
            3 => (grid_us - 1).max(0),
            4 if j % 2 == 0 => profile.t1.as_micros(),
            4 => profile.tail_window().as_micros(),
            _ => raw,
        };
        Duration::from_micros(us)
    }

    fn draw() -> impl Strategy<Value = (u8, usize, i64)> {
        (0u8..7, 0usize..25, 0i64..40_000_000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The scan with its skips, its stop and its followed counts
        /// answers both questions as the full scan does, bit for bit.
        /// Windows fill push by push (one instance follows them), with
        /// runs of equal samples (`repeat`), 0-µs gaps and samples on
        /// the grid's waits; the capacity is often `min_samples` (10).
        /// After each push `best_wait` must equal the full scan on the
        /// wait and on `f`'s bits, and a second instance that is only
        /// ever asked `demotion` — so its scans often stop early — must
        /// answer what `decide` and the engine's `gap > w` test would,
        /// for gaps drawn the same way or [`Duration::FOREVER`].
        #[test]
        fn best_wait_and_demotion_match_the_full_scan(
            profile in 0usize..9,
            capacity in (0usize..3, 1usize..=64).prop_map(|(which, small)| match which {
                0 => 10,
                1 => 100,
                _ => small,
            }),
            steps in prop::collection::vec((draw(), 0usize..4, draw()), 1..160),
        ) {
            let profile = &oracle_profiles()[profile];
            let config = MakeIdleConfig::default();
            let mut window = SlidingWindow::new(capacity);
            let mut scanner = MakeIdle::new();
            let mut asker = MakeIdle::new();
            let mut previous = Duration::ZERO;
            for (sample, repeat, gap) in steps {
                let sample = if repeat == 0 { previous } else { pick(profile, sample) };
                window.push(sample);
                previous = sample;
                let ctx = IdleContext { profile, window: &window, now: Instant::ZERO };
                let reference = full_scan(&config, &ctx);
                prop_assert_eq!(bits(scanner.best_wait(&ctx)), bits(reference));
                let gap = if gap.0 == 6 && gap.1 == 0 { Duration::FOREVER } else { pick(profile, gap) };
                let expected = match reference {
                    Some((w, f)) if f > 0.0 => IdleDecision::DemoteAfter(w),
                    _ => IdleDecision::Timers,
                };
                prop_assert_eq!(asker.demotion(&ctx, gap), expected.demotion(gap));
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

        // `d` and `e` differ from `a` only in `fd_energy_fraction` and
        // `e_promote`, by too little to move the threshold by 1 µs: a key
        // on the threshold would keep `a`'s E_switch for them.
        let d = CarrierProfile { fd_energy_fraction: a.fd_energy_fraction + 1e-9, ..a.clone() };
        let e = CarrierProfile { e_promote: a.e_promote + 1e-9, ..a.clone() };
        for edited in [&d, &e] {
            assert_eq!(a.t_threshold(), edited.t_threshold());
            assert_ne!(a.e_switch(), edited.e_switch());
        }

        let mut gaps = vec![0.4; 25];
        gaps.extend(vec![12.0; 10]);
        gaps.extend(vec![30.0; 25]);
        let w = window_of(&gaps);
        let mut mi = MakeIdle::new();
        for p in [&a, &b, &a, &c, &a, &d, &a, &e, &a] {
            let fast = mi.best_wait(&ctx(p, &w)).unwrap();
            let reference = mi.best_wait_reference(&ctx(p, &w)).unwrap();
            assert_eq!(fast.0, reference.0, "wait mismatch on {}", p.name);
            assert!(
                (fast.1 - reference.1).abs() <= 1e-9 * reference.1.abs().max(1.0),
                "f mismatch on {}: {fast:?} vs {reference:?}",
                p.name
            );
            let full = full_scan(mi.config(), &ctx(p, &w));
            assert_eq!(bits(Some(fast)), bits(full), "not the full scan's bits on {p:?}");
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
