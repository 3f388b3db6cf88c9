//! User mobility: where each user *is* over time, as a pure function.
//!
//! PR 5's hierarchy pinned every user to one cell forever
//! ([`cell_of`]), so the network never saw the signaling load that
//! dominates real RNCs: handoffs. A [`MobilitySpec`] makes cell
//! membership piecewise over time while preserving the fleet's core
//! invariant — **bit-identical reports at any thread count** — by
//! making the whole trajectory a pure function of `(master seed, user
//! index, time)`. No per-user state is carried across shards or
//! threads; any worker can ask "where is user `i` at time `t`?" and
//! get the same answer.
//!
//! ## Models
//!
//! * [`Static`](MobilitySpec::Static) — today's behavior, exactly:
//!   `cell_at` is [`cell_of`] for every `t`, zero handoffs, zero new
//!   messages. A static fleet is bit-identical to a pre-mobility fleet,
//!   rendered text included (pinned by `tests/mobility_fleet.rs`).
//! * [`Commute`](MobilitySpec::Commute) — each user gets a seeded
//!   **home cell** (their [`cell_of`] anchor, so the overnight
//!   population matches the static assignment), a seeded **work cell**,
//!   and a diurnal schedule: they leave home at a per-user minute inside
//!   the configured `home_hour`, sit in the work cell until a per-user
//!   minute inside `work_hour`, and are home otherwise. On top of the
//!   commute, a **random-walk jitter** component sends the user to a
//!   seeded detour cell for whole hour-slots with probability
//!   `jitter_pct`% per slot (lunch, errands) — each slot's draw is an
//!   independent hash of `(user seed, absolute hour)`, so consecutive
//!   detours can chain into multi-hop walks.
//!
//! ## Handoffs
//!
//! The trajectory is piecewise-constant with breakpoints only at hour
//! boundaries and the two per-user commute instants, so handoffs are
//! enumerable exactly: [`MobilitySpec::handoffs`] walks the breakpoints
//! of `[0, horizon_days)` and reports every cell change. The topology
//! runner charges each handoff [`SignalingModel`] `per_handoff`
//! messages at the source *and* target cell (and at both RNCs when the
//! handoff crosses an RNC boundary), interleaved into the adjudication
//! stream in `(time, user)` order so load-reactive admission observes
//! handoff storms as they happen.
//!
//! Handoffs are charged over each user's *active span*: through the end
//! of the calendar day of their last fast-dormancy request. A user who
//! never requests loads no one. Deriving the horizon from the request
//! stream (rather than from trace metadata) needs nothing in the `.twc`
//! phase-1 cache beyond the request times, and keeps cached runs
//! bit-identical to uncached ones.
//!
//! ## The residence-time release hint
//!
//! [`MobilitySpec::handoff_within`] answers "will this user hand off in
//! the next `hint_s` seconds?" — the predictive lever of *Predictive
//! Green Wireless Access* (PAPERS.md). The adjudicator grants any
//! fast-dormancy request inside that window unconditionally (bypassing
//! both admission gates): the network *wants* the device dormant before
//! the handoff, because an idle-mode cell reselection is far cheaper
//! than an active handover. Static fleets never hint (no handoffs
//! exist to predict), so the hint cannot perturb static bit-identity.
//!
//! [`SignalingModel`]: tailwise_radio::signaling::SignalingModel

use tailwise_trace::mix::splitmix64 as splitmix;
use tailwise_trace::time::Instant;

use crate::scenario::user_seed;
use crate::topology::cell_of;

/// Salt for the seeded work-cell draw (the home cell is the user's
/// [`cell_of`] anchor and needs no extra salt).
const WORK_SALT: u64 = 0x3093_BA5E_0000_0000;
/// Salt for the per-user leave-home minute inside `home_hour`.
const DEPART_SALT: u64 = 0x0800_C0DE_0000_0000;
/// Salt for the per-user leave-work minute inside `work_hour`.
const RETURN_SALT: u64 = 0x1700_C0DE_0000_0000;
/// Salt for the per-slot random-walk jitter draw.
const JITTER_SALT: u64 = 0x3177_E200_0000_0000;

/// Seconds per jitter slot: detours last whole hours.
const SLOT_S: u64 = 3600;
/// Seconds per day.
const DAY_S: u64 = 86_400;

/// Default hour the commute leaves home.
pub const DEFAULT_HOME_HOUR: u32 = 8;
/// Default hour the commute leaves work.
pub const DEFAULT_WORK_HOUR: u32 = 17;
/// Default per-slot detour probability, percent.
pub const DEFAULT_JITTER_PCT: u32 = 5;
/// Default residence-time hint window, seconds.
pub const DEFAULT_HINT_S: u32 = 60;

/// A declarative (file-representable) mobility model: where each user
/// is at each instant, as a pure function of `(master seed, user index,
/// time)`. See the module docs for the trajectory construction and the
/// determinism contract; the on-disk `[mobility]` table is documented
/// in `docs/SCENARIO_FORMAT.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MobilitySpec {
    /// Users never move: `cell_at` is [`cell_of`] for every `t`. The
    /// default, and bit-identical to the pre-mobility runner.
    #[default]
    Static,
    /// Home↔work diurnal commute plus hourly random-walk detours.
    Commute {
        /// Hour of day (0–23) the user leaves home; the exact second is
        /// a per-user draw inside this hour.
        home_hour: u32,
        /// Hour of day (0–23, must exceed `home_hour`) the user leaves
        /// work; the exact second is a per-user draw inside this hour.
        work_hour: u32,
        /// Probability (percent, 0–100) that any given hour-slot is
        /// spent in a seeded detour cell instead of the scheduled one.
        jitter_pct: u32,
        /// Residence-time release hint window, seconds: fast-dormancy
        /// requests within this many seconds of a predicted handoff are
        /// granted unconditionally. Zero disables the hint.
        hint_s: u32,
    },
}

/// One enumerated handoff: at `at`, the user leaves `from` for `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// The boundary instant. The user occupies `to` from `at` onward
    /// (boundaries are inclusive on the new-cell side, matching
    /// [`MobilitySpec::cell_at`]).
    pub at: Instant,
    /// Cell vacated.
    pub from: u64,
    /// Cell entered.
    pub to: u64,
}

/// A user's deterministic commute parameters, derived once per user.
struct CommutePlan {
    home: u64,
    work: u64,
    /// Second-of-day the user leaves home.
    leave_home: u64,
    /// Second-of-day the user leaves work.
    leave_work: u64,
    jitter_pct: u64,
    /// Pre-mixed per-user jitter seed (`splitmix` once more per slot).
    jitter_seed: u64,
}

impl CommutePlan {
    fn derive(
        master_seed: u64,
        index: u64,
        cells: u64,
        home_hour: u32,
        work_hour: u32,
        jitter_pct: u32,
    ) -> CommutePlan {
        let seed = user_seed(master_seed, index);
        CommutePlan {
            home: cell_of(master_seed, index, cells),
            work: splitmix(seed ^ WORK_SALT) % cells,
            leave_home: home_hour as u64 * SLOT_S + splitmix(seed ^ DEPART_SALT) % SLOT_S,
            leave_work: work_hour as u64 * SLOT_S + splitmix(seed ^ RETURN_SALT) % SLOT_S,
            jitter_pct: jitter_pct as u64,
            jitter_seed: splitmix(seed ^ JITTER_SALT),
        }
    }

    /// The cell this plan occupies at absolute second `s`. Tolerant of
    /// degenerate parameters (a schedule that never reaches work simply
    /// stays home), so programmatic construction cannot panic here.
    fn cell_at_second(&self, s: u64, cells: u64) -> u64 {
        let tod = s % DAY_S;
        let base =
            if self.leave_work > self.leave_home && tod >= self.leave_home && tod < self.leave_work
            {
                self.work
            } else {
                self.home
            };
        if cells > 1 && self.jitter_pct > 0 {
            let draw = splitmix(self.jitter_seed ^ (s / SLOT_S));
            if draw % 100 < self.jitter_pct {
                // A detour cell guaranteed distinct from the scheduled
                // one; the draw differs per slot, so chained detours
                // walk randomly.
                return (base + 1 + splitmix(draw) % (cells - 1)) % cells;
            }
        }
        base
    }

    /// Candidate trajectory breakpoints inside `(lo, hi]`, unordered
    /// and possibly repeated: hour-slot boundaries plus the two commute
    /// instants of every day the window touches. The trajectory is
    /// constant between consecutive distinct candidates.
    fn breakpoints_between(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        let slots = (lo / SLOT_S + 1..=hi / SLOT_S).map(|slot| slot * SLOT_S);
        let commutes = (lo / DAY_S..=hi / DAY_S)
            .flat_map(move |day| [self.leave_home, self.leave_work].map(|at| day * DAY_S + at))
            .filter(move |&at| at > lo && at <= hi);
        slots.chain(commutes)
    }

    /// The first candidate breakpoint after second `s`: the next slot
    /// boundary, or one of the day's commute instants if that comes
    /// first. A day is a whole number of slots, so no later day's
    /// commute can come first.
    fn next_breakpoint(&self, s: u64) -> u64 {
        let day = s - s % DAY_S;
        [self.leave_home, self.leave_work]
            .into_iter()
            .map(|at| day + at)
            .filter(|&at| at > s)
            .fold((s / SLOT_S + 1) * SLOT_S, u64::min)
    }
}

/// One user's [`MobilitySpec`], resolved once: answers where the user
/// is and whether a handoff is near without deriving the user's
/// commute plan again. Built by [`MobilitySpec::trajectory`]; the
/// spec-level queries build one per call, so they give the same
/// answers.
pub struct Trajectory {
    cells: u64,
    path: Path,
}

/// How a [`Trajectory`] moves.
enum Path {
    /// Pinned to one cell.
    Fixed(u64),
    /// A commute plan, with the hint window in seconds.
    Commute(CommutePlan, u32),
}

impl Trajectory {
    /// The cell the user occupies at `at` (see
    /// [`MobilitySpec::cell_at`]).
    pub fn cell_at(&self, at: Instant) -> u64 {
        match &self.path {
            Path::Fixed(cell) => *cell,
            Path::Commute(plan, _) => plan.cell_at_second(second_of(at), self.cells),
        }
    }

    /// The cell the user occupies through whole second `second`, and the
    /// last second they are sure to stay there: [`cell_at`](Self::cell_at)
    /// names that cell at every instant of `second..=last`. A commuter's
    /// residence ends at their next candidate breakpoint, at most an
    /// hour later; a fixed user never leaves (`i64::MAX`).
    pub(crate) fn residence(&self, second: i64) -> (u64, i64) {
        match &self.path {
            Path::Fixed(cell) => (*cell, i64::MAX),
            Path::Commute(plan, _) => {
                // Seconds before day 0 clamp to it, as `cell_at` does.
                let s = second.max(0) as u64;
                let last = (plan.next_breakpoint(s) - 1).min(i64::MAX as u64) as i64;
                (plan.cell_at_second(s, self.cells), last)
            }
        }
    }

    /// Every handoff in `[0, horizon_days)` days, in time order (see
    /// [`MobilitySpec::handoffs`]).
    pub fn handoffs(&self, horizon_days: u64) -> Vec<Handoff> {
        let Path::Commute(plan, _) = &self.path else { return Vec::new() };
        if self.cells <= 1 || horizon_days == 0 {
            return Vec::new();
        }
        let mut points: Vec<u64> =
            plan.breakpoints_between(0, (horizon_days * DAY_S).saturating_sub(1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut handoffs = Vec::new();
        let mut cell = plan.cell_at_second(0, self.cells);
        for at in points {
            let next = plan.cell_at_second(at, self.cells);
            if next != cell {
                handoffs.push(Handoff { at: Instant::from_secs(at as i64), from: cell, to: next });
                cell = next;
            }
        }
        handoffs
    }

    /// Whether a handoff falls within `(at, at + hint_s]` (see
    /// [`MobilitySpec::handoff_within`]).
    pub fn handoff_within(&self, at: Instant) -> bool {
        let Path::Commute(plan, hint_s) = &self.path else { return false };
        if self.cells <= 1 || *hint_s == 0 {
            return false;
        }
        let now = second_of(at);
        let here = plan.cell_at_second(now, self.cells);
        plan.breakpoints_between(now, now + *hint_s as u64)
            .any(|bp| plan.cell_at_second(bp, self.cells) != here)
    }
}

impl MobilitySpec {
    /// A [`Commute`](MobilitySpec::Commute) with every parameter at its
    /// default (leave home inside hour 8, leave work inside hour 17,
    /// 5% hourly detours, 60 s hint window).
    pub fn commute() -> MobilitySpec {
        MobilitySpec::Commute {
            home_hour: DEFAULT_HOME_HOUR,
            work_hour: DEFAULT_WORK_HOUR,
            jitter_pct: DEFAULT_JITTER_PCT,
            hint_s: DEFAULT_HINT_S,
        }
    }

    /// The stable on-disk kind token (`model = "..."` in the
    /// `[mobility]` table). Parameters ride in separate keys there; the
    /// compact one-token spelling is [`Display`](std::fmt::Display).
    pub fn token(&self) -> &'static str {
        match self {
            MobilitySpec::Static => "static",
            MobilitySpec::Commute { .. } => "commute",
        }
    }

    /// User `index`'s trajectory through `cells` cells, derived once
    /// for any number of queries.
    pub fn trajectory(&self, master_seed: u64, index: u64, cells: u64) -> Trajectory {
        assert!(cells >= 1, "a network topology needs at least one cell");
        let path = match *self {
            MobilitySpec::Static => Path::Fixed(cell_of(master_seed, index, cells)),
            MobilitySpec::Commute { home_hour, work_hour, jitter_pct, hint_s } => {
                let plan = CommutePlan::derive(
                    master_seed,
                    index,
                    cells,
                    home_hour,
                    work_hour,
                    jitter_pct,
                );
                Path::Commute(plan, hint_s)
            }
        };
        Trajectory { cells, path }
    }

    /// The cell user `index` occupies at `at` — a pure function of its
    /// arguments (the determinism seam both topology passes share).
    ///
    /// Boundaries are inclusive on the new-cell side: a request stamped
    /// exactly at a handoff instant is adjudicated in the cell being
    /// entered.
    pub fn cell_at(&self, master_seed: u64, index: u64, cells: u64, at: Instant) -> u64 {
        self.trajectory(master_seed, index, cells).cell_at(at)
    }

    /// Every handoff user `index` performs in `[0, horizon_days)` days,
    /// in time order. Empty for [`Static`](MobilitySpec::Static) and
    /// for single-cell topologies.
    pub fn handoffs(
        &self,
        master_seed: u64,
        index: u64,
        cells: u64,
        horizon_days: u64,
    ) -> Vec<Handoff> {
        self.trajectory(master_seed, index, cells).handoffs(horizon_days)
    }

    /// True when the model predicts a handoff within `(at, at +
    /// hint_s]` — the residence-time release hint. Always false for
    /// [`Static`](MobilitySpec::Static), for single-cell topologies,
    /// and when the spec's hint window is zero.
    pub fn handoff_within(&self, master_seed: u64, index: u64, cells: u64, at: Instant) -> bool {
        self.trajectory(master_seed, index, cells).handoff_within(at)
    }
}

/// Floor-seconds of an instant, clamped at zero (trajectories are
/// defined from midnight of day 0).
fn second_of(at: Instant) -> u64 {
    at.as_micros().div_euclid(1_000_000).max(0) as u64
}

impl std::fmt::Display for MobilitySpec {
    /// The compact one-token spelling used by sweep values and CLI
    /// flags: `static`, or `commute[:<home_hour>:<work_hour>
    /// [:<jitter_pct>[:<hint_s>]]]` with trailing default components
    /// omitted. Round-trips through [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MobilitySpec::Static => write!(f, "static"),
            MobilitySpec::Commute { home_hour, work_hour, jitter_pct, hint_s } => {
                write!(f, "commute")?;
                let defaults = [
                    (home_hour, DEFAULT_HOME_HOUR),
                    (work_hour, DEFAULT_WORK_HOUR),
                    (jitter_pct, DEFAULT_JITTER_PCT),
                    (hint_s, DEFAULT_HINT_S),
                ];
                let keep = defaults
                    .iter()
                    .rposition(|&(value, default)| value != default)
                    .map_or(0, |last| last + 1)
                    // The hour pair travels together: emitting only one
                    // would be ambiguous to read back.
                    .max(if home_hour != DEFAULT_HOME_HOUR || work_hour != DEFAULT_WORK_HOUR {
                        2
                    } else {
                        0
                    });
                for &(value, _) in &defaults[..keep] {
                    write!(f, ":{value}")?;
                }
                Ok(())
            }
        }
    }
}

/// Validates one commute parameter set (shared by the token parser and
/// the `[mobility]` table decoder, so both reject with the same words).
pub(crate) fn check_commute(home_hour: u32, work_hour: u32, jitter_pct: u32) -> Result<(), String> {
    if home_hour >= 24 || work_hour >= 24 {
        return Err(format!(
            "commute hours must be hours of day (0-23), got {home_hour} and {work_hour}"
        ));
    }
    if work_hour <= home_hour {
        return Err(format!(
            "commute must leave home before leaving work, got hours {home_hour} and {work_hour}"
        ));
    }
    if jitter_pct > 100 {
        return Err(format!("jitter_pct is a percentage (0-100), got {jitter_pct}"));
    }
    Ok(())
}

impl std::str::FromStr for MobilitySpec {
    type Err = String;

    fn from_str(token: &str) -> Result<MobilitySpec, String> {
        let mut parts = token.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let usage = "one of static, commute[:<home_hour>:<work_hour>[:<jitter_pct>[:<hint_s>]]]";
        let number = |what: &str, raw: &str| -> Result<u32, String> {
            raw.parse::<u32>().map_err(|_| format!("commute {what} {raw:?} is not a number"))
        };
        match kind {
            "static" => match args.is_empty() {
                true => Ok(MobilitySpec::Static),
                false => Err(format!("`static` takes no parameters; {usage}")),
            },
            "commute" => {
                let (home_hour, work_hour, jitter_pct, hint_s) = match args.as_slice() {
                    [] => {
                        (DEFAULT_HOME_HOUR, DEFAULT_WORK_HOUR, DEFAULT_JITTER_PCT, DEFAULT_HINT_S)
                    }
                    [home, work] => (
                        number("home hour", home)?,
                        number("work hour", work)?,
                        DEFAULT_JITTER_PCT,
                        DEFAULT_HINT_S,
                    ),
                    [home, work, jitter] => (
                        number("home hour", home)?,
                        number("work hour", work)?,
                        number("jitter", jitter)?,
                        DEFAULT_HINT_S,
                    ),
                    [home, work, jitter, hint] => (
                        number("home hour", home)?,
                        number("work hour", work)?,
                        number("jitter", jitter)?,
                        number("hint window", hint)?,
                    ),
                    _ => {
                        return Err(format!(
                            "`commute` parameters come as the hour pair, optionally followed by \
                             jitter and hint window; {usage}"
                        ))
                    }
                };
                check_commute(home_hour, work_hour, jitter_pct)?;
                Ok(MobilitySpec::Commute { home_hour, work_hour, jitter_pct, hint_s })
            }
            other => Err(format!("unknown mobility model {other:?}; {usage}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELLS: u64 = 12;
    const SEED: u64 = 2012;

    #[test]
    fn static_mobility_is_cell_of_forever() {
        for index in 0..50 {
            for t in [0i64, 3599, 86_400, 777_777] {
                assert_eq!(
                    MobilitySpec::Static.cell_at(SEED, index, CELLS, Instant::from_secs(t)),
                    cell_of(SEED, index, CELLS)
                );
            }
            assert!(MobilitySpec::Static.handoffs(SEED, index, CELLS, 7).is_empty());
            assert!(!MobilitySpec::Static.handoff_within(
                SEED,
                index,
                CELLS,
                Instant::from_secs(28_800)
            ));
        }
    }

    /// A jitter-free commute, so the diurnal schedule is directly
    /// observable.
    fn plain_commute() -> MobilitySpec {
        MobilitySpec::Commute { home_hour: 8, work_hour: 17, jitter_pct: 0, hint_s: 60 }
    }

    #[test]
    fn commute_anchors_home_at_the_static_cell() {
        // Midnight finds every user in their cell_of anchor: the
        // overnight population matches the static assignment exactly.
        // (Jitter-free spec — the random walk may detour any slot,
        // including midnight.)
        for index in 0..100 {
            assert_eq!(
                plain_commute().cell_at(SEED, index, CELLS, Instant::ZERO),
                cell_of(SEED, index, CELLS),
                "user {index} overnights away from home"
            );
        }
    }

    #[test]
    fn commute_sits_at_work_between_the_scheduled_hours() {
        let spec = plain_commute();
        for index in 0..100 {
            let home = spec.cell_at(SEED, index, CELLS, Instant::ZERO);
            // Strictly inside the work block for every per-user minute
            // draw: after 09:00, before 17:00.
            let noon = spec.cell_at(SEED, index, CELLS, Instant::from_secs(12 * 3600));
            let seed = user_seed(SEED, index);
            let work = splitmix(seed ^ WORK_SALT) % CELLS;
            assert_eq!(noon, work, "user {index} not at work at noon");
            // And home again in the evening (after 18:00) and at 07:00.
            for t in [7 * 3600, 19 * 3600] {
                assert_eq!(
                    spec.cell_at(SEED, index, CELLS, Instant::from_secs(t)),
                    home,
                    "user {index} away from home at {t}s"
                );
            }
        }
    }

    #[test]
    fn handoff_enumeration_matches_a_brute_force_second_scan() {
        // The exact claim the adjudicator relies on: the breakpoint
        // walk reports precisely the seconds where cell_at changes.
        let spec = MobilitySpec::Commute { home_hour: 8, work_hour: 17, jitter_pct: 20, hint_s: 0 };
        for index in [0u64, 3, 7] {
            let listed = spec.handoffs(SEED, index, CELLS, 2);
            let mut scanned = Vec::new();
            let mut prev = spec.cell_at(SEED, index, CELLS, Instant::ZERO);
            for s in 1..(2 * 86_400i64) {
                let next = spec.cell_at(SEED, index, CELLS, Instant::from_secs(s));
                if next != prev {
                    scanned.push(Handoff { at: Instant::from_secs(s), from: prev, to: next });
                    prev = next;
                }
            }
            assert_eq!(listed, scanned, "user {index}");
            assert!(!listed.is_empty(), "a jittery commuter must hand off within two days");
            // Consecutive handoffs chain: each leaves the cell the
            // previous one entered.
            for pair in listed.windows(2) {
                assert_eq!(pair[0].to, pair[1].from);
            }
        }
    }

    #[test]
    fn residences_hold_their_cell_through_their_last_second() {
        // The pass-2 fold cuts a commuter's load run where a residence
        // ends, so every second of a residence, asked from its start or
        // from inside it, must lie in its cell, however close to day 0
        // (or before it) the residence starts.
        let spec = MobilitySpec::Commute { home_hour: 8, work_hour: 17, jitter_pct: 20, hint_s: 0 };
        for index in [0u64, 3, 7] {
            let trajectory = spec.trajectory(SEED, index, CELLS);
            let mut start = -5_000i64;
            while start < 2 * 86_400 {
                let (cell, last) = trajectory.residence(start);
                assert!(last >= start.max(0) && last - start.max(0) < 3600, "{start}..={last}");
                for s in start..=last {
                    assert_eq!(
                        trajectory.cell_at(Instant::from_secs(s)),
                        cell,
                        "user {index} at {s}"
                    );
                }
                assert_eq!(trajectory.residence(start + (last - start) / 2), (cell, last));
                start = last + 1;
            }
            assert_eq!(
                trajectory.residence(i64::MAX).1,
                i64::MAX,
                "the last second ends a residence"
            );
        }
        let fixed = MobilitySpec::Static.trajectory(SEED, 5, CELLS);
        assert_eq!(fixed.residence(i64::MIN), (cell_of(SEED, 5, CELLS), i64::MAX));
    }

    #[test]
    fn handoff_within_agrees_with_the_enumeration() {
        let spec =
            MobilitySpec::Commute { home_hour: 8, work_hour: 17, jitter_pct: 10, hint_s: 90 };
        for index in 0..5u64 {
            let handoffs = spec.handoffs(SEED, index, CELLS, 1);
            for h in &handoffs {
                // Just inside the window: predicted.
                let before = Instant::from_micros(h.at.as_micros() - 1_000_000);
                assert!(
                    spec.handoff_within(SEED, index, CELLS, before),
                    "user {index}: handoff at {:?} not predicted 1s out",
                    h.at
                );
            }
            // A quiet stretch far from any breakpoint: no prediction.
            let quiet = Instant::from_secs(2 * 3600 + 100);
            let predicted = spec.handoff_within(SEED, index, CELLS, quiet);
            let actual = handoffs
                .iter()
                .any(|h| h.at > quiet && h.at.as_micros() <= quiet.as_micros() + 90_000_000);
            assert_eq!(predicted, actual, "user {index} at 02:01:40");
        }
    }

    #[test]
    fn single_cell_topologies_never_hand_off() {
        let spec = MobilitySpec::commute();
        assert!(spec.handoffs(SEED, 1, 1, 30).is_empty());
        assert!(!spec.handoff_within(SEED, 1, 1, Instant::from_secs(28_800)));
        assert_eq!(spec.cell_at(SEED, 1, 1, Instant::from_secs(12 * 3600)), 0);
    }

    #[test]
    fn trajectories_are_seed_sensitive_and_deterministic() {
        let spec = MobilitySpec::commute();
        let a: Vec<Handoff> = spec.handoffs(SEED, 5, CELLS, 3);
        assert_eq!(a, spec.handoffs(SEED, 5, CELLS, 3), "must be replayable");
        let moved = (0..200u64)
            .filter(|&i| {
                spec.cell_at(SEED, i, CELLS, Instant::from_secs(43_200))
                    != spec.cell_at(SEED ^ 1, i, CELLS, Instant::from_secs(43_200))
            })
            .count();
        assert!(moved > 100, "only {moved} of 200 users moved on reseed");
    }

    #[test]
    fn tokens_round_trip_with_trailing_defaults_omitted() {
        for (spec, token) in [
            (MobilitySpec::Static, "static"),
            (MobilitySpec::commute(), "commute"),
            (
                MobilitySpec::Commute { home_hour: 7, work_hour: 18, jitter_pct: 5, hint_s: 60 },
                "commute:7:18",
            ),
            (
                MobilitySpec::Commute { home_hour: 8, work_hour: 17, jitter_pct: 25, hint_s: 60 },
                "commute:8:17:25",
            ),
            (
                MobilitySpec::Commute { home_hour: 8, work_hour: 17, jitter_pct: 5, hint_s: 300 },
                "commute:8:17:5:300",
            ),
        ] {
            assert_eq!(spec.to_string(), token);
            assert_eq!(token.parse::<MobilitySpec>().unwrap(), spec, "token {token:?}");
        }
    }

    #[test]
    fn malformed_tokens_explain_themselves() {
        for (token, needle) in [
            ("teleport", "unknown mobility model"),
            ("static:1", "takes no parameters"),
            ("commute:8", "hour pair"),
            ("commute:8:17:5:60:1", "hour pair"),
            ("commute:late:17", "not a number"),
            ("commute:8:25", "hours of day"),
            ("commute:17:8", "leave home before leaving work"),
            ("commute:8:17:120", "percentage"),
        ] {
            let err = token.parse::<MobilitySpec>().unwrap_err();
            assert!(err.contains(needle), "{token:?}: {err}");
        }
    }
}
