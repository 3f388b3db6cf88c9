//! Policy interfaces: the two decision points every scheme implements.
//!
//! The paper's control module (Fig. 4) makes exactly two kinds of decision:
//!
//! * **after a packet** — how long to wait before demoting the radio
//!   ([`IdlePolicy`]; MakeIdle, the 4.5-second tail, 95% IAT, the Oracle and
//!   the status quo are all instances);
//! * **when a session arrives while Idle** — how long to hold it so more
//!   sessions batch into one promotion ([`ActivePolicy`]; MakeActive fixed
//!   and learning variants).
//!
//! Policies are pure state machines over observed history: the engine owns
//! all side effects (radio state, energy, counters), which is what makes
//! every scheme directly comparable.

use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::time::{Duration, Instant};

/// Everything an [`IdlePolicy`] may observe when deciding.
pub struct IdleContext<'a> {
    /// The carrier's parameters (timers, powers, switch energies).
    pub profile: &'a CarrierProfile,
    /// Sliding window of recent inter-arrival times (the paper's
    /// "latest n packets", §4.2). Maintained by the engine.
    pub window: &'a SlidingWindow,
    /// Timestamp of the packet just processed.
    pub now: Instant,
}

/// Outcome of an idle decision for the upcoming gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleDecision {
    /// Leave the inactivity timers in charge (the status-quo behaviour).
    Timers,
    /// Request fast dormancy after this much further silence.
    DemoteAfter(Duration),
}

impl IdleDecision {
    /// The wait after which a gap of length `gap` demotes under this
    /// decision: `Some(w)` iff the decision is `DemoteAfter(w)` and the
    /// gap outlasts `w` (a packet arriving exactly at the wait closes
    /// the gap first).
    pub fn demotion(self, gap: Duration) -> Option<Duration> {
        match self {
            IdleDecision::DemoteAfter(w) if gap > w => Some(w),
            _ => None,
        }
    }
}

/// A demotion policy: decides, after each packet, when to give up the
/// channel.
///
/// The engine asks one of two questions per gap. The lock-step engine
/// asks [`decide`](Self::decide) when it keeps the decision log (Fig.
/// 14 plots the chosen waits); otherwise every run asks the narrower
/// [`demotion`](Self::demotion), whose answer is all the request rule
/// and the §6.3 confusion matrix read.
pub trait IdlePolicy {
    /// Scheme name as used in the paper's figure legends.
    fn name(&self) -> String;

    /// Decides for the gap that follows a packet at `ctx.now`.
    ///
    /// `actual_gap` is the true time until the next packet (or
    /// `Duration::FOREVER` at end of trace). It exists so *offline*
    /// comparators (the Oracle) can be expressed in the same interface;
    /// online policies must not read it — the engine's confusion-matrix
    /// accounting (§6.3) would be meaningless otherwise.
    fn decide(&mut self, ctx: &IdleContext<'_>, actual_gap: Duration) -> IdleDecision;

    /// Does the gap of length `gap` that follows a packet at `ctx.now`
    /// demote, and after which wait? `Some(w)` iff
    /// [`decide`](Self::decide) would return `DemoteAfter(w)` and the
    /// gap outlasts `w`; the default asks `decide` exactly that.
    ///
    /// An override must give the same answer for every window and gap,
    /// and may use `gap` only to stop deciding once the answer is
    /// settled: the wait it returns is the one `decide` would choose
    /// without looking at the gap. MakeIdle overrides it to stop its
    /// candidate scan early.
    fn demotion(&mut self, ctx: &IdleContext<'_>, gap: Duration) -> Option<Duration> {
        self.decide(ctx, gap).demotion(gap)
    }

    /// Whether [`decide`](Self::decide) reads the inter-arrival window.
    ///
    /// The engine maintains the window (one ring-buffer push per gap;
    /// the window sorts only when a query asks for its
    /// [`dist`](SlidingWindow::dist)) only when this returns true; the
    /// baselines that ignore it — status quo, fixed waits, the Oracle —
    /// override this to skip that work. Purely a performance hint: a
    /// policy that returns false simply sees an empty window.
    fn uses_window(&self) -> bool {
        true
    }
}

/// The status quo: never request fast dormancy.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatusQuo;

impl IdlePolicy for StatusQuo {
    fn name(&self) -> String {
        "status-quo".into()
    }
    fn decide(&mut self, _ctx: &IdleContext<'_>, _actual_gap: Duration) -> IdleDecision {
        IdleDecision::Timers
    }
    fn uses_window(&self) -> bool {
        false
    }
}

/// Demote after a fixed silence — the shape of both the "4.5-second tail"
/// baseline (Falaki et al., §6.2) and the "95% IAT" baseline (same rule
/// with a per-trace percentile as the constant).
#[derive(Debug, Clone)]
pub struct FixedWait {
    wait: Duration,
    label: String,
}

impl FixedWait {
    /// A fixed-wait policy with a custom legend label.
    pub fn new(wait: Duration, label: impl Into<String>) -> FixedWait {
        FixedWait { wait, label: label.into() }
    }

    /// The "4.5-second tail" baseline.
    pub fn four_and_a_half_seconds() -> FixedWait {
        FixedWait::new(Duration::from_millis(4500), "4.5-second")
    }

    /// The configured wait.
    pub fn wait(&self) -> Duration {
        self.wait
    }
}

impl IdlePolicy for FixedWait {
    fn name(&self) -> String {
        self.label.clone()
    }
    fn decide(&mut self, _ctx: &IdleContext<'_>, _actual_gap: Duration) -> IdleDecision {
        IdleDecision::DemoteAfter(self.wait)
    }
    fn uses_window(&self) -> bool {
        false
    }
}

/// A session-batching policy: decides how long to hold sessions that arrive
/// while the radio is Idle (§5).
pub trait ActivePolicy {
    /// Scheme name as used in the paper's figure legends.
    fn name(&self) -> String;

    /// A session arrived at `at` with the radio Idle and no round open.
    /// Returns the hold window; buffered sessions all start at
    /// `at + hold`.
    fn open_round(&mut self, at: Instant) -> Duration;

    /// The round that opened most recently has released. `arrival_offsets`
    /// are the buffered sessions' arrival times in seconds relative to the
    /// round opener (first element 0.0, non-decreasing). Learning policies
    /// update here.
    fn close_round(&mut self, arrival_offsets: &[f64]);
}

/// The degenerate batcher: never holds anything (used to express plain
/// MakeIdle in the combined harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBatching;

impl ActivePolicy for NoBatching {
    fn name(&self) -> String {
        "no-batching".into()
    }
    fn open_round(&mut self, _at: Instant) -> Duration {
        Duration::ZERO
    }
    fn close_round(&mut self, _arrival_offsets: &[f64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_trace::stats::SlidingWindow;

    fn ctx<'a>(profile: &'a CarrierProfile, window: &'a SlidingWindow) -> IdleContext<'a> {
        IdleContext { profile, window, now: Instant::ZERO }
    }

    #[test]
    fn status_quo_always_defers_to_timers() {
        let p = CarrierProfile::att_hspa();
        let w = SlidingWindow::new(4);
        let mut sq = StatusQuo;
        for gap_s in [0.0, 1.0, 100.0] {
            assert_eq!(
                sq.decide(&ctx(&p, &w), Duration::from_secs_f64(gap_s)),
                IdleDecision::Timers
            );
        }
        assert_eq!(sq.name(), "status-quo");
    }

    #[test]
    fn fixed_wait_is_constant_and_labeled() {
        let p = CarrierProfile::att_hspa();
        let w = SlidingWindow::new(4);
        let mut f = FixedWait::four_and_a_half_seconds();
        assert_eq!(f.name(), "4.5-second");
        assert_eq!(
            f.decide(&ctx(&p, &w), Duration::from_secs(1)),
            IdleDecision::DemoteAfter(Duration::from_millis(4500))
        );
        let mut iat = FixedWait::new(Duration::from_millis(850), "95% IAT");
        assert_eq!(iat.name(), "95% IAT");
        assert_eq!(
            iat.decide(&ctx(&p, &w), Duration::FOREVER),
            IdleDecision::DemoteAfter(Duration::from_millis(850))
        );
    }

    #[test]
    fn no_batching_opens_zero_rounds() {
        let mut nb = NoBatching;
        assert_eq!(nb.open_round(Instant::from_secs(5)), Duration::ZERO);
        nb.close_round(&[0.0]); // must not panic
    }
}
