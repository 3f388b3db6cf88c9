//! The hierarchical radio network: RNCs over cells, population-scale
//! signaling load on the network side (the paper's §7/§8 open question,
//! at fleet scale).
//!
//! A [`NetworkTopology`] partitions a fleet's users across base-station
//! cells and groups the cells under radio network controllers (RNCs) —
//! the two-level hierarchy where the paper's energy/signaling trade-off
//! is actually adjudicated. Every fast-dormancy request passes **two**
//! pluggable [`AdmissionSpec`] gates: its cell's, then — if the cell
//! forwards it — its RNC's. Both levels carry a
//! [`SignalingBudget`] for overload accounting, and the run reports
//! what each element absorbed: per-cell [`CellLoad`] and per-RNC
//! [`RncLoad`] (grants, denials, denials attributable to the RNC,
//! total RRC messages, per-second peak, overload seconds).
//!
//! ## The two-pass fleet runner
//!
//! The execution is the fleet-scale instance of the two-phase engine
//! API ([`tailwise_sim::twophase`]):
//!
//! 1. **Pass 1** — the sharded runner streams every user through the
//!    cheap phase-1 request scan ([`Scheme::request_trace`]) and the
//!    status-quo run the user is scored against: one trace materialized
//!    per worker, dropped immediately, only the user's
//!    [`RequestStream`] kept: the time-stamped requests, the confusion
//!    counts of the decisions behind them and the status quo's energy
//!    and switch cycles — the record a request cache holds and a `.twc`
//!    file stores as it is. This is the only pass that runs the
//!    scheme's policy.
//! 2. **Adjudication** — every request belongs to the partition of the
//!    RNC owning the cell its user occupies at that instant, beside both
//!    sides of every handoff its cells see (none under static
//!    mobility). A partition touches only its own cells, its own RNC's
//!    policy and verdicts no other partition holds, so the sharded
//!    runner adjudicates the RNCs in parallel, one partition per shard.
//!    The worker walks the partition's residence segments once, counting
//!    each segment's requests as its cell's grants and their handoff
//!    hints, and sorts and charges the handoff sides. Then it gates only
//!    where a denial is possible: every verdict's adjudication-time
//!    message cost (`per_fd_demotion` per grant, [`REQUEST_MESSAGES`]
//!    per denial) is observed by both levels, so load-reactive policies
//!    see the rate they are protecting, and the load with every request
//!    charged the larger of the two bounds that rate from above. A
//!    request whose bound stays under the watermark at every `reactive`
//!    level is a certain grant; around the others, the *contested*
//!    ones, the worker builds each span's events from one window before
//!    its first contested request through its last, sorts them into
//!    `(time, user, kind)` order and feeds them through fresh
//!    admission-policy instances — the request's cell decides first,
//!    then the RNC; a denial at either level denies. `rate-limited` has
//!    no such bound, so its partitions are gated whole; when both
//!    levels are [`AdmissionSpec::Always`] (the paper's §2.2
//!    assumption), nothing is. The frontier absorbs the partitions in
//!    RNC order: per-cell counts, handoff loads and the denied `(user,
//!    seq)` pairs.
//! 3. **Pass 2** — the sharded runner *re-materializes* each user's
//!    trace (synthesis and corpus walks are deterministic, so the same
//!    index yields the same trace) and replays it exactly from the
//!    user's pass-1 requests and scripted verdicts
//!    ([`replay_requests`]): no policy runs, each gap is demoted or not
//!    by the recorded request that falls in it, and the confusion matrix
//!    is pass 1's. The replay folds energy into the [`FleetReport`],
//!    scored against pass 1's baseline; one walk over the time-ordered
//!    transition log sums its RRC messages per second into the user's
//!    `(second, msgs)` run, encoded as [`LoadDeltas`] bytes — exactly
//!    what the memo holds and a `.twr` record stores, for any cell
//!    count or mobility model. The fold attributes cells, for live
//!    replays and memo hits alike: it decodes the run once, cuts it
//!    where the user's [`Trajectory`] leaves a cell (`cell_at` floors
//!    the instant, so a whole second's messages share one cell) and
//!    merges each cell's pairs into the shard's load for that cell.
//!    Loads are sorted `(second, msgs)` runs that add by linear merge:
//!    users into their shard's, shards into the frontier's, handoff
//!    charges into their cells', and cells into their RNC's. A sweep
//!    that replays one population under several admission policies or
//!    mobility models thus runs the scheme's policy once per user, not
//!    once per cell, and replays a user again only when their verdicts
//!    change.
//!
//! Peak memory stays **one trace per worker** in both passes — the
//! re-synthesis/re-load is exactly what buys that bound. Between the
//! passes the run holds O(total requests) timestamps plus four
//! confusion counts and two baseline words per user and, afterwards,
//! one verdict byte per request plus one `(second, msgs)` pair per
//! active second of each cell and RNC — never an array over the time
//! span, which corpus traces and `.twr` files choose — and, per worker,
//! one user's load cut by cell. Adjudication holds, per partition in
//! flight, its residence segments and handoff sides, for the bound a
//! block of per-second counters for the RNC and — when the cells are
//! `reactive` — a window sum per cell and about two blocks' cell
//! charges, and the events of its gated spans only — all of its
//! requests' events when a level is `rate-limited`.
//!
//! ## Determinism
//!
//! User→cell assignment is a pure function of `(master_seed, user
//! index, cell count)` ([`cell_of`]) — and, under a mobility model, of
//! time as well ([`NetworkTopology::user_cell`], the one seam both
//! passes resolve membership through; see [`crate::mobility`]); cells
//! map to RNCs in contiguous blocks ([`rnc_of_cell`]); the per-RNC
//! event sort realizes the total `(time, user, kind)` order, which
//! without handoffs is the `(time, user, seq)` order of
//! [`merge_requests`]; admission policies are deterministic by
//! contract; per-second loads are integer adds, and a merge of sorted
//! runs yields the same run in any grouping. With the
//! frontier merging shard partials in shard order, a topology run is
//! bit-identical at any thread count — the same contract the
//! radio-isolated runner makes, pinned by `tests/cell_fleet.rs` and
//! `tests/mobility_fleet.rs`.
//!
//! ## Scheme restrictions
//!
//! Network topologies require a *scriptable* scheme
//! ([`Scheme::scriptable`]): the MakeActive variants batch sessions
//! based on the radio being Idle — i.e. on earlier grant outcomes — so
//! their two-pass replay would not be exact. Scenario files reject the
//! combination at parse time with a positioned error; programmatic
//! misuse panics here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tailwise_core::schemes::Scheme;
use tailwise_obs::{span, Obs, Recorder};
use tailwise_radio::admission::REQUEST_MESSAGES;
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::rrc::Transition;
use tailwise_radio::signaling::{SignalingBudget, SignalingModel};
use tailwise_scenfile::ScenError;
use tailwise_sim::engine::SimConfig;
use tailwise_sim::twophase::{replay_outcome, replay_requests, RequestTrace};
use tailwise_sim::Confusion;
use tailwise_trace::io::{ReplayCacheHeader, ReplayOutcome, RequestStream};
use tailwise_trace::load::LoadDeltas;
use tailwise_trace::mix::splitmix64 as splitmix;
use tailwise_trace::time::Instant;
use tailwise_trace::Trace;

use crate::admission::AdmissionSpec;
use crate::cache::{signaling_hash, verdict_hash, RequestCache};
use crate::mobility::{MobilitySpec, Trajectory};
use crate::report::{CellLoad, FleetReport, FleetSignaling, RncLoad};
use crate::runner::{run_sharded, Partial, Population};
use crate::scenario::user_seed;

/// A fleet's radio network: how many RNCs and cells, what each level
/// can absorb, and how each level admits fast-dormancy requests.
///
/// Part of the scenario's deterministic identity (and of the on-disk
/// format, as the `[cells]` and `[rnc]` tables — see
/// `docs/SCENARIO_FORMAT.md` §6).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    /// Number of RNCs (≥ 1, ≤ `cells`). Cells map to RNCs in
    /// contiguous, near-equal blocks ([`rnc_of_cell`]).
    pub rncs: u64,
    /// Number of cells (≥ 1). Users are assigned by [`cell_of`].
    pub cells: u64,
    /// Per-cell RRC message budget (overload accounting only —
    /// admission is the policies' job).
    pub cell_budget: SignalingBudget,
    /// Per-RNC RRC message budget, against the summed load of the
    /// RNC's member cells.
    pub rnc_budget: SignalingBudget,
    /// Per-cell admission policy for fast-dormancy requests.
    pub cell_admission: AdmissionSpec,
    /// RNC-level admission policy, consulted for every request its
    /// cells forward.
    pub rnc_admission: AdmissionSpec,
    /// RRC message weights per transition kind. Not expressible in
    /// scenario files (they always use the default); `to_file` refuses
    /// a customized model rather than silently dropping it.
    pub signaling: SignalingModel,
    /// How users move between cells over time.
    /// [`MobilitySpec::Static`] (the default) reproduces the fixed
    /// [`cell_of`] assignment bit-identically — rendered text included;
    /// commute mobility makes membership piecewise over time and
    /// generates handoff signaling (the `[mobility]` table, see
    /// `docs/SCENARIO_FORMAT.md`).
    pub mobility: MobilitySpec,
}

impl NetworkTopology {
    /// A flat topology: one RNC over `cells` always-admitting,
    /// unbounded-budget cells.
    ///
    /// # Panics
    /// If `cells` is zero.
    pub fn new(cells: u64) -> NetworkTopology {
        assert!(cells >= 1, "a network topology needs at least one cell");
        NetworkTopology {
            rncs: 1,
            cells,
            cell_budget: SignalingBudget::UNBOUNDED,
            rnc_budget: SignalingBudget::UNBOUNDED,
            cell_admission: AdmissionSpec::Always,
            rnc_admission: AdmissionSpec::Always,
            signaling: SignalingModel::default(),
            mobility: MobilitySpec::Static,
        }
    }

    /// A hierarchy of `cells` cells in contiguous blocks under `rncs`
    /// RNCs, everything always-admitting and unbounded.
    ///
    /// # Panics
    /// If `rncs` is zero or exceeds `cells`.
    pub fn with_rncs(rncs: u64, cells: u64) -> NetworkTopology {
        let mut topology = NetworkTopology::new(cells);
        assert!(rncs >= 1, "a network topology needs at least one RNC");
        assert!(rncs <= cells, "cannot spread {cells} cell(s) over {rncs} RNCs");
        topology.rncs = rncs;
        topology
    }

    /// The cell user `index` occupies at `at` — **the** assignment seam
    /// both topology passes share: pass-1 adjudication resolves every
    /// request (and handoff) through it, and the pass-2 fold charges
    /// every second's messages to the cell it names. A pure function
    /// of its arguments (see [`MobilitySpec::cell_at`]), so any worker
    /// computes the same answer.
    pub fn user_cell(&self, master_seed: u64, index: u64, at: Instant) -> u64 {
        self.mobility.cell_at(master_seed, index, self.cells, at)
    }

    /// User `index`'s trajectory through this topology's cells: the
    /// [`user_cell`](Self::user_cell) answers, and the handoff hint,
    /// with the user's mobility derived once.
    pub fn trajectory(&self, master_seed: u64, index: u64) -> Trajectory {
        self.mobility.trajectory(master_seed, index, self.cells)
    }

    /// The user's anchor cell — [`cell_of`] under every mobility model.
    /// Per-cell `users` counts key on it, so population shares stay
    /// comparable between static and mobile runs of the same fleet.
    pub fn home_cell(&self, master_seed: u64, index: u64) -> u64 {
        cell_of(master_seed, index, self.cells)
    }

    /// Asserts the count invariants programmatic construction can
    /// violate (scenario files reject them at parse time).
    fn validate_counts(&self) {
        assert!(self.cells >= 1, "a network topology needs at least one cell");
        assert!(self.rncs >= 1, "a network topology needs at least one RNC");
        assert!(
            self.rncs <= self.cells,
            "cannot spread {} cell(s) over {} RNCs",
            self.cells,
            self.rncs
        );
    }
}

/// The deterministic user→cell assignment: a pure function of the
/// scenario master seed, the user index, and the cell count.
///
/// Derived from [`user_seed`] with an extra mixing round so cell
/// assignment does not correlate with any draw the user's own RNG makes
/// (carrier, app mix, trace). The modulo over a well-mixed 64-bit hash
/// gives each cell a near-uniform share; the bias for any realistic
/// cell count is < 2⁻⁵⁰ and, crucially, identical on every machine.
pub fn cell_of(master_seed: u64, index: u64, cells: u64) -> u64 {
    assert!(cells >= 1, "a network topology needs at least one cell");
    splitmix(user_seed(master_seed, index) ^ 0xCE11_BA5E_0000_0000) % cells
}

/// The deterministic cell→RNC assignment: contiguous near-equal blocks
/// (`cell * rncs / cells`), so RNC `r` owns cells
/// `[⌈r·cells/rncs⌉, ⌈(r+1)·cells/rncs⌉)` and reports read naturally.
pub fn rnc_of_cell(cell: u64, cells: u64, rncs: u64) -> u64 {
    assert!(rncs >= 1 && rncs <= cells, "cannot spread {cells} cell(s) over {rncs} RNCs");
    assert!(cell < cells, "cell {cell} out of range for {cells} cell(s)");
    // cells ≤ realistic topology sizes, so the product cannot overflow
    // u128; go wide to keep the assignment exact for any u64 input.
    ((cell as u128 * rncs as u128) / cells as u128) as u64
}

/// The static adjudication order of per-user request streams: every
/// `(time, user, seq)` triple, sorted.
///
/// Each input is `(user index, times)`. The triple is a strict total
/// order, so the result does not depend on input order. The topology
/// runner derives the same order from its event sort — a fleet without
/// handoffs has only request events, whose `(time, user, kind)` key
/// reduces to `(time, user, seq)` — and a property test holds that
/// order to this reference.
pub fn merge_requests(streams: &[(u64, Vec<Instant>)]) -> Vec<(Instant, u64, u32)> {
    let mut merged: Vec<(Instant, u64, u32)> = streams
        .iter()
        .flat_map(|(user, times)| {
            times.iter().enumerate().map(move |(seq, &at)| (at, *user, seq as u32))
        })
        .collect();
    merged.sort_unstable();
    merged
}

/// One adjudication-stream event. The derived order — time, then user,
/// then kind — is a strict total order over a run's events (a user has
/// at most one handoff per instant and unique request `seq`s), so a
/// plain sort yields the same deterministic stream on every machine.
/// Without handoffs it reduces to the `(time, user, seq)` order of
/// [`merge_requests`]. Handoff sides order before requests at the same
/// instant, matching [`MobilitySpec::cell_at`]'s boundary-inclusive
/// semantics: a request stamped exactly at a handoff is adjudicated in
/// the cell being entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AdjEvent {
    at: Instant,
    user: u64,
    kind: AdjEventKind,
    /// The cell this event charges in its RNC's partition.
    cell: u64,
}

/// What an [`AdjEvent`] is. A handoff side's `crosses` says whether the
/// handoff crosses an RNC boundary (and therefore also charges this
/// RNC's own policy and budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AdjEventKind {
    /// Source side of a handoff: the user vacates `cell`.
    HandoffOut { crosses: bool },
    /// Target side of a handoff: the user enters `cell`.
    HandoffIn { crosses: bool },
    /// Fast-dormancy request number `seq` of the user's stream;
    /// `hinted` when the mobility model predicts a handoff within its
    /// hint window ([`MobilitySpec::handoff_within`]).
    Request { seq: u32, hinted: bool },
}

/// The RNC owning each cell, indexed by cell: [`rnc_of_cell`] computed
/// once per run rather than once per event.
fn rnc_table(topology: &NetworkTopology) -> Vec<usize> {
    (0..topology.cells)
        .map(|cell| rnc_of_cell(cell, topology.cells, topology.rncs) as usize)
        .collect()
}

/// One user's pass-1 record over `trace`: `scheme`'s request stream,
/// its times moved out of the [`RequestTrace`] and its confusion kept
/// as the four counts, beside the energy bits and switch cycles of the
/// status-quo run pass 2 scores the user against. The two walks record
/// under the `extract` and `status_quo` spans.
fn pass_one_record(
    scheme: Scheme,
    carrier: &CarrierProfile,
    sim: &SimConfig,
    trace: &Trace,
    recorder: &dyn Recorder,
) -> RequestStream {
    let RequestTrace { times, confusion: Confusion { tp, fp, tn, fn_ } } = {
        let _extract = span(recorder, "extract");
        scheme
            .request_trace(carrier, sim, trace)
            .expect("scriptable scheme always yields a request trace")
    };
    let status_quo = {
        let _status_quo = span(recorder, "status_quo");
        Scheme::StatusQuo.run(carrier, sim, trace)
    };
    RequestStream {
        times,
        confusion: [tp, fp, tn, fn_],
        baseline_energy_bits: status_quo.total_energy().to_bits(),
        baseline_switches: status_quo.switch_cycles(),
    }
}

/// Walks RNC `rnc`'s share of every user, the way its adjudication
/// partition is built: pushes each handoff side the RNC owns into
/// `events`, and hands `segment` every residence segment spent in one
/// of its cells, as `(events, user, cell, first seq, request times,
/// trajectory)`. `streams[i]` is user `i`'s pass-1 record, with
/// time-sorted requests, and `rnc_of` the [`rnc_table`].
///
/// A request belongs to the partition of the RNC owning the cell the
/// user occupies at that instant. Handoffs are charged over the user's
/// active span: through the end of the calendar day of their last
/// request (see the mobility module docs for why the horizon derives
/// from the request stream). A handoff charges its source side in the
/// source cell's RNC partition and its target side in the target's —
/// each partition is self-contained, so it builds and adjudicates
/// without looking at any other.
///
/// Each user's time-sorted handoff list cuts their requests into
/// residence segments, one cell each; a segment outside this RNC is
/// skipped whole, found by binary search, with no per-request cell
/// lookup (debug builds check every request's cell against
/// [`NetworkTopology::user_cell`]). The list is empty under static
/// mobility: a static user's one segment is their home cell, so a user
/// homed in another RNC is skipped outright. Each user's [`Trajectory`]
/// is derived once and lent to `segment` for the handoff hints.
fn walk_partition<'a>(
    topology: &NetworkTopology,
    master_seed: u64,
    streams: &'a [RequestStream],
    rnc_of: &[usize],
    rnc: usize,
    events: &mut Vec<AdjEvent>,
    mut segment: impl FnMut(&mut Vec<AdjEvent>, u64, u64, usize, &'a [Instant], &Trajectory),
) {
    for (user, stream) in streams.iter().enumerate() {
        let user = user as u64;
        let times = &stream.times;
        let (Some(&first), Some(&last)) = (times.first(), times.last()) else { continue };
        let horizon_days = (second_of(last).max(0) as u64) / 86_400 + 1;
        let trajectory = topology.trajectory(master_seed, user);
        let handoffs = trajectory.handoffs(horizon_days);
        for h in &handoffs {
            let (from_rnc, to_rnc) = (rnc_of[h.from as usize], rnc_of[h.to as usize]);
            let crosses = from_rnc != to_rnc;
            let side = |kind, cell| AdjEvent { at: h.at, user, kind, cell };
            if from_rnc == rnc {
                events.push(side(AdjEventKind::HandoffOut { crosses }, h.from));
            }
            if to_rnc == rnc {
                events.push(side(AdjEventKind::HandoffIn { crosses }, h.to));
            }
        }
        // The cell held before the first handoff — or, with none, over
        // the whole active span — then each handoff's target from its
        // instant on.
        let mut cell = handoffs.first().map_or_else(|| trajectory.cell_at(first), |h| h.from);
        let mut start = 0;
        for next in handoffs.iter().map(Some).chain([None]) {
            let end = next
                .map_or(times.len(), |h| start + times[start..].partition_point(|&at| at < h.at));
            if rnc_of[cell as usize] == rnc {
                for &at in &times[start..end] {
                    debug_assert_eq!(
                        cell,
                        topology.user_cell(master_seed, user, at),
                        "user {user} at {at:?}"
                    );
                }
                segment(events, user, cell, start, &times[start..end], &trajectory);
            }
            if let Some(h) = next {
                cell = h.to;
            }
            start = end;
        }
    }
}

/// Whether user `user`'s `trajectory` hints a handoff at `at`; debug
/// builds check it against the spec-level [`MobilitySpec::handoff_within`].
fn hinted(
    topology: &NetworkTopology,
    master_seed: u64,
    user: u64,
    trajectory: &Trajectory,
    at: Instant,
) -> bool {
    let hinted = trajectory.handoff_within(at);
    debug_assert_eq!(
        hinted,
        topology.mobility.handoff_within(master_seed, user, topology.cells, at),
        "user {user} at {at:?}"
    );
    hinted
}

/// One residence segment of an RNC partition ([`walk_partition`]): the
/// requests `times`, numbered from `first` in user `user`'s stream,
/// made while the user sat in cell `cell`. Those from `hinted_from` on
/// fall inside a handoff hint window.
struct Segment<'a> {
    user: u64,
    cell: u64,
    first: usize,
    times: &'a [Instant],
    hinted_from: usize,
}

impl<'a> Segment<'a> {
    /// The segment of `times`, finding where its hinted requests begin.
    /// The hint asks whether the user's next handoff lies within the
    /// hint window, and inside one residence segment every request's
    /// next handoff is the same, so the hinted requests are a suffix and
    /// one binary search finds it (debug builds check every request).
    fn new(
        topology: &NetworkTopology,
        master_seed: u64,
        user: u64,
        cell: u64,
        first: usize,
        times: &'a [Instant],
        trajectory: &Trajectory,
    ) -> Segment<'a> {
        let hinted_at = |at| hinted(topology, master_seed, user, trajectory, at);
        let hinted_from = times.partition_point(|&at| !hinted_at(at));
        debug_assert!(
            times.iter().enumerate().all(|(i, &at)| hinted_at(at) == (i >= hinted_from)),
            "user {user}: a segment's hinted requests must be its suffix"
        );
        Segment { user, cell, first, times, hinted_from }
    }
}

/// What adjudication hands pass 2 and the load accounting: one RNC's
/// partition as [`adjudicate_rnc`] returns it, or the whole run's once
/// the frontier has absorbed every partition in RNC order. RNCs own
/// contiguous cell blocks, so appending the partitions' per-cell
/// vectors in RNC order yields them in cell order.
#[derive(Default)]
struct Adjudication {
    /// Per cell: users homed there, grants, denials and handoff
    /// counts. The message-load fields are scored after pass 2.
    cells: Vec<CellLoad>,
    /// Per RNC: the denials it issued and the handoffs leaving it for
    /// another RNC. The rest is summed and scored after pass 2.
    rncs: Vec<RncLoad>,
    /// Per cell: the handoff messages charged to it, per second.
    cell_handoffs: Vec<Load>,
    /// Per RNC: its own boundary-crossing handoff exchanges, per
    /// second.
    rnc_handoffs: Vec<Load>,
    /// Requests granted on the mobility hint, bypassing both gates.
    hint_grants: u64,
    /// Every denied request as `(user, seq)`; every other is a grant.
    denials: Vec<(u64, u32)>,
    /// Requests fed through an admission policy: the non-hinted
    /// requests of the gated spans.
    requests_gated: u64,
}

impl Partial for Adjudication {
    fn absorb(&mut self, mut other: Adjudication) {
        self.cells.append(&mut other.cells);
        self.rncs.append(&mut other.rncs);
        self.cell_handoffs.append(&mut other.cell_handoffs);
        self.rnc_handoffs.append(&mut other.rnc_handoffs);
        self.hint_grants += other.hint_grants;
        self.denials.append(&mut other.denials);
        self.requests_gated += other.requests_gated;
    }
}

/// Adjudicates RNC `rnc`'s partition. The result's per-cell vectors
/// cover exactly the RNC's cells, its per-RNC vectors the RNC alone.
///
/// One walk ([`walk_partition`]) counts each residence segment's
/// requests as its cell's grants and their handoff hints into
/// `hint_grants`, and collects the handoff sides, which are sorted and
/// charged: the counts, and the per-second handoff loads. Then only the
/// [`contested_spans`] are gated ([`gate_spans`]): a request outside
/// them is a grant whatever the policies decide elsewhere. With both
/// levels `always` there are none, so the partition builds no event.
fn adjudicate_rnc(
    topology: &NetworkTopology,
    master_seed: u64,
    streams: &[RequestStream],
    rnc_of: &[usize],
    rnc: usize,
) -> Adjudication {
    let first_cell = rnc_of.partition_point(|&owner| owner < rnc);
    let cell_count = rnc_of.partition_point(|&owner| owner <= rnc) - first_cell;
    let mut cells = vec![CellLoad::default(); cell_count];
    for user in 0..streams.len() as u64 {
        let home = topology.home_cell(master_seed, user) as usize;
        if rnc_of[home] == rnc {
            cells[home - first_cell].users += 1;
        }
    }
    let mut hint_grants = 0;
    let mut segments = Vec::new();
    let mut handoffs = Vec::new();
    walk_partition(
        topology,
        master_seed,
        streams,
        rnc_of,
        rnc,
        &mut handoffs,
        |_, user, cell, first, times, trajectory| {
            if times.is_empty() {
                return;
            }
            let segment = Segment::new(topology, master_seed, user, cell, first, times, trajectory);
            cells[cell as usize - first_cell].granted += times.len() as u64;
            hint_grants += (times.len() - segment.hinted_from) as u64;
            segments.push(segment);
        },
    );
    handoffs.sort();
    // Handoff messages per second, charged here and merged into the
    // replay-time loads after pass 2 so handoff storms count against
    // the same budgets as everything else. The sides come in time
    // order, so the runs build by appending.
    let mut cell_handoffs = vec![Load::new(); cell_count];
    let mut rnc_handoffs = Load::new();
    let mut rnc_load = RncLoad::default();
    let messages = topology.signaling.per_handoff as u64;
    for e in &handoffs {
        let cell = e.cell as usize - first_cell;
        let second = second_of(e.at);
        charge_load(&mut cell_handoffs[cell], second, messages);
        let crosses = match e.kind {
            AdjEventKind::HandoffOut { crosses } => {
                cells[cell].handoffs_out += 1;
                // Attributed to the source RNC, like denied_by_rnc is
                // attributed where the decision happened.
                rnc_load.inter_rnc_handoffs += crosses as u64;
                crosses
            }
            AdjEventKind::HandoffIn { crosses } => {
                cells[cell].handoffs_in += 1;
                crosses
            }
            AdjEventKind::Request { .. } => unreachable!("the walk collects only handoff sides"),
        };
        if crosses {
            // Boundary-crossing handoffs cost the RNC its own exchange
            // on top of the member cells'.
            charge_load(&mut rnc_handoffs, second, messages);
        }
    }
    let spans = contested_spans(topology, &segments, &handoffs, first_cell, cell_count);
    let mut adjudication = Adjudication {
        cells,
        rncs: vec![rnc_load],
        cell_handoffs,
        rnc_handoffs: vec![rnc_handoffs],
        hint_grants,
        denials: Vec::new(),
        requests_gated: 0,
    };
    gate_spans(topology, &spans, &segments, &handoffs, first_cell, &mut adjudication);
    adjudication
}

/// Seconds of the contested-span bound's block: the charges it buckets
/// at once, and the longest `reactive` window it bounds.
const BOUND_BLOCK_S: i64 = 4096;

/// A stretch of an RNC partition gated through fresh admission
/// policies: every event from `start` through `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    start: Instant,
    end: Instant,
}

/// What the all-grant load bound proves about one admission level.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Certainty {
    /// Every request is admitted (`always`).
    Always,
    /// A request is admitted while the messages of its window, the
    /// `window_s` whole seconds up to its own, stay under `limit`
    /// (`reactive`).
    Below { limit: u64, window_s: i64 },
    /// Nothing: `rate-limited` state reaches back to the last grant,
    /// however old, and a window longer than [`BOUND_BLOCK_S`] outgrows
    /// the bound's block. Every non-hinted request is contested.
    Never,
}

impl Certainty {
    fn of(spec: &AdmissionSpec) -> Certainty {
        match *spec {
            AdmissionSpec::Always => Certainty::Always,
            AdmissionSpec::LoadReactive { watermark_per_s, window_s }
                if (1..=BOUND_BLOCK_S as u64).contains(&window_s) =>
            {
                // The same saturating product the policy compares with.
                let limit = watermark_per_s.saturating_mul(window_s);
                Certainty::Below { limit, window_s: window_s as i64 }
            }
            AdmissionSpec::LoadReactive { .. } | AdmissionSpec::RateLimited { .. } => {
                Certainty::Never
            }
        }
    }

    /// A `reactive` level's `(limit, window_s)`.
    fn bound(self) -> Option<(u64, i64)> {
        match self {
            Certainty::Below { limit, window_s } => Some((limit, window_s)),
            Certainty::Always | Certainty::Never => None,
        }
    }
}

/// One all-grant charge of a cell in the [`contested_spans`] bound:
/// `messages` at `at`, in whole second `second`, in the partition's cell
/// `cell` (counted from its first cell).
#[derive(Debug, Clone, Copy)]
struct Charge {
    at: Instant,
    second: i64,
    cell: usize,
    messages: u32,
    /// A request that meets both gates: the one charge a window that
    /// reaches its limit contests.
    gated: bool,
}

/// Appends `charges`, all inside the [`BOUND_BLOCK_S`] seconds from
/// `base`, to `sorted` in second order: a counting sort, `starts` (one
/// slot per second of the block) its scratch.
fn sort_by_second(charges: &[Charge], base: i64, starts: &mut [usize], sorted: &mut Vec<Charge>) {
    let j = |c: &Charge| (c.second - base) as usize;
    starts.fill(0);
    for c in charges {
        starts[j(c)] += 1;
    }
    let mut next = sorted.len();
    for start in starts.iter_mut() {
        let count = *start;
        *start = next;
        next += count;
    }
    // Every appended slot is overwritten below; the copy only sizes them.
    sorted.extend_from_slice(charges);
    for c in charges {
        let slot = &mut starts[j(c)];
        sorted[*slot] = *c;
        *slot += 1;
    }
}

/// The spans of an RNC partition that must be gated, ascending and
/// disjoint.
///
/// The all-grant load — every request charged `max(per_fd_demotion,
/// REQUEST_MESSAGES)`, every handoff side `per_handoff` wherever
/// [`gate_spans`] charges it — bounds the load a policy observes from
/// above at every instant, since neither verdict costs more than that
/// max. So a non-hinted request whose window of that load stays under
/// the limit at every `reactive` level is a certain grant; the others
/// are *contested*. A span starts `W − 1` seconds before its first
/// contested second, `W` the larger reactive window, and ends at its
/// last contested request; it merges into the span before it when it
/// does not start after that span's last contested second. No state
/// older than one window changes a `reactive` verdict, and everything
/// in a span before its first contested request is a certain grant, so
/// fresh policies decide a span exactly as the whole stream would.
///
/// The load is counted one aligned block of [`BOUND_BLOCK_S`] seconds
/// at a time. The RNC, one element, counts its load per second of the
/// block, after the previous block's last `W − 1` seconds, beside each
/// second's latest gated request. The cells, as many as the RNC holds,
/// keep one window sum each when their level is `reactive`: the block's
/// cell charges are sorted by second ([`sort_by_second`]) behind those
/// still inside the window, and a charge leaves its cell's sum once the
/// swept second has moved the window past its own. Segments wait in a
/// queue keyed by their next request's second, so a block touches only
/// its own requests, and empty stretches are skipped. Memory is a block
/// of counters, a sum per cell and about two blocks' charges, and the
/// work the partition's charges plus one pass over each visited block —
/// whatever seconds the traces choose and however many cells the RNC
/// holds. A level with no bound ([`Certainty::Never`]) contests every
/// non-hinted request, so the partition is gated whole, through its
/// last one.
fn contested_spans(
    topology: &NetworkTopology,
    segments: &[Segment<'_>],
    handoffs: &[AdjEvent],
    first_cell: usize,
    cell_count: usize,
) -> Vec<Span> {
    let levels = [Certainty::of(&topology.cell_admission), Certainty::of(&topology.rnc_admission)];
    if levels.contains(&Certainty::Never) {
        let last =
            segments.iter().filter(|s| s.hinted_from > 0).map(|s| s.times[s.hinted_from - 1]).max();
        let start = Instant::from_micros(i64::MIN);
        return last.map(|end| vec![Span { start, end }]).unwrap_or_default();
    }
    let [cell_bound, rnc_bound] = levels.map(Certainty::bound);
    let Some(window_s) = cell_bound.iter().chain(&rnc_bound).map(|&(_, window_s)| window_s).max()
    else {
        return Vec::new();
    };
    let per_request = topology.signaling.per_fd_demotion.max(REQUEST_MESSAGES);
    let per_handoff = topology.signaling.per_handoff;
    let block_len = BOUND_BLOCK_S as usize;
    // The RNC's loads: the `pre` seconds before the block, then the
    // block's; and per block second, its latest gated request. An
    // unbounded RNC's are counted but never read.
    let rnc_window = rnc_bound.map_or(1, |(_, window_s)| window_s) as usize;
    let pre = rnc_window - 1;
    let mut rnc_loads = vec![0u64; pre + block_len];
    let mut latest: Vec<Option<Instant>> = vec![None; block_len];
    // The cells' charges in second order, from the oldest still inside
    // the window; the sums hold those from `kept` on.
    let mut cell_charges = Vec::new();
    let mut sorted: Vec<Charge> = Vec::new();
    let mut starts = vec![0; block_len];
    let mut cell_sums = vec![0u64; cell_count];
    let mut kept = 0;
    let mut queue: BinaryHeap<Reverse<(i64, usize, usize)>> = segments
        .iter()
        .enumerate()
        .map(|(index, segment)| Reverse((second_of(segment.times[0]), index, 0)))
        .collect();
    let mut sides = handoffs.iter().peekable();
    let mut spans: Vec<Span> = Vec::new();
    let mut previous = None;
    loop {
        let next_request = queue.peek().map(|&Reverse((second, ..))| second);
        let next_side = sides.peek().map(|e| second_of(e.at));
        let Some(next) = next_request.into_iter().chain(next_side).min() else { break };
        let base = next.div_euclid(BOUND_BLOCK_S) * BOUND_BLOCK_S;
        if previous == Some(base - BOUND_BLOCK_S) {
            rnc_loads.copy_within(block_len.., 0);
            rnc_loads[pre..].fill(0);
        } else {
            // The seconds before the block saw nothing.
            rnc_loads.fill(0);
        }
        latest.fill(None);
        previous = Some(base);
        let end = base + BOUND_BLOCK_S;
        cell_charges.clear();
        while let Some(&Reverse((second, index, from))) = queue.peek() {
            if second >= end {
                break;
            }
            queue.pop();
            let segment = &segments[index];
            let cell = segment.cell as usize - first_cell;
            for (i, &at) in (from..).zip(&segment.times[from..]) {
                let second = second_of(at);
                if second >= end {
                    queue.push(Reverse((second, index, i)));
                    break;
                }
                let j = (second - base) as usize;
                let gated = i < segment.hinted_from;
                rnc_loads[pre + j] += per_request as u64;
                if gated {
                    latest[j] = latest[j].max(Some(at));
                }
                if cell_bound.is_some() {
                    let messages = per_request;
                    cell_charges.push(Charge { at, second, cell, messages, gated });
                }
            }
        }
        while let Some(e) = sides.next_if(|e| second_of(e.at) < end) {
            let (at, second, cell) = (e.at, second_of(e.at), e.cell as usize - first_cell);
            if let AdjEventKind::HandoffOut { crosses: true }
            | AdjEventKind::HandoffIn { crosses: true } = e.kind
            {
                rnc_loads[pre + (second - base) as usize] += per_handoff as u64;
            }
            if cell_bound.is_some() {
                let messages = per_handoff;
                cell_charges.push(Charge { at, second, cell, messages, gated: false });
            }
        }
        // Drop the cell charges the window has left, then sort the
        // block's in behind the rest.
        sorted.drain(..kept);
        kept = 0;
        let from = sorted.len();
        sort_by_second(&cell_charges, base, &mut starts, &mut sorted);
        let mut seconds = sorted[from..].chunk_by(|a, b| a.second == b.second).peekable();
        let mut rnc_sum: u64 = rnc_loads[..pre].iter().sum();
        for j in 0..block_len {
            // The RNC's window `(j − window, j]`: its latest gated
            // request is contested when the sum reaches the limit.
            rnc_sum += rnc_loads[pre + j];
            let mut contested =
                latest[j].filter(|_| rnc_bound.is_some_and(|(limit, _)| rnc_sum >= limit));
            rnc_sum -= rnc_loads[pre + j + 1 - rnc_window];
            let second = base + j as i64;
            if let (Some((limit, window_s)), Some(charges)) =
                (cell_bound, seconds.next_if(|charges| charges[0].second == second))
            {
                while let Some(c) = sorted.get(kept).filter(|c| c.second <= second - window_s) {
                    cell_sums[c.cell] -= c.messages as u64;
                    kept += 1;
                }
                for c in charges {
                    cell_sums[c.cell] += c.messages as u64;
                }
                // So is a cell's latest gated request when its sum does.
                let over = charges.iter().filter(|c| c.gated && cell_sums[c.cell] >= limit);
                contested = contested.max(over.map(|c| c.at).max());
            }
            let Some(at) = contested else { continue };
            let start = second.saturating_sub(window_s - 1);
            match spans.last_mut() {
                Some(span) if start <= second_of(span.end) => span.end = at,
                _ => {
                    let start = Instant::from_micros(start.saturating_mul(1_000_000));
                    spans.push(Span { start, end: at });
                }
            }
        }
    }
    spans
}

/// Gates `spans` (ascending, disjoint) of an RNC partition whose walk
/// counted every request as a grant. Each span's events — the requests
/// of `segments` inside it and the sorted `handoffs` sides inside it —
/// are sorted into the `(time, user, kind)` order and fed through fresh
/// admission policies: the RNC's, and one for each cell the span
/// charges, built at its first event. The request's cell decides first,
/// then the RNC; a denial at either level turns the counted grant into
/// a denial. Every verdict's adjudication-time cost (`per_fd_demotion`
/// per grant, [`REQUEST_MESSAGES`] per denial) is observed by both
/// levels, and each handoff side by its cell and, when it crosses an
/// RNC boundary, by the RNC.
///
/// A segment's requests are found by one binary search into the spans,
/// then one into the segment per span that holds any of them, so
/// building costs the spans' events, never segments × spans, and a
/// span's policies cost the cells it charges, never the RNC's.
fn gate_spans(
    topology: &NetworkTopology,
    spans: &[Span],
    segments: &[Segment<'_>],
    handoffs: &[AdjEvent],
    first_cell: usize,
    adjudication: &mut Adjudication,
) {
    let mut events = Vec::new();
    for segment in segments {
        let times = segment.times;
        let mut i = 0;
        let mut k = spans.partition_point(|span| span.end < times[0]);
        while let Some(span) = spans.get(k) {
            i += times[i..].partition_point(|&at| at < span.start);
            while let Some(&at) = times.get(i).filter(|&&at| at <= span.end) {
                let seq = (segment.first + i) as u32;
                let kind = AdjEventKind::Request { seq, hinted: i >= segment.hinted_from };
                events.push(AdjEvent { at, user: segment.user, kind, cell: segment.cell });
                i += 1;
            }
            let Some(&next) = times.get(i) else { break };
            k += 1 + spans[k + 1..].partition_point(|span| span.end < next);
        }
    }
    for span in spans {
        let from = handoffs.partition_point(|e| e.at < span.start);
        let to = from + handoffs[from..].partition_point(|e| e.at <= span.end);
        events.extend_from_slice(&handoffs[from..to]);
    }
    // Each segment's requests arrive as presorted runs, which the
    // stable sort merges rather than re-sorts. The order is strict, so
    // stability itself changes nothing.
    events.sort();

    let Adjudication { cells, rncs, denials, requests_gated, .. } = adjudication;
    let signaling = &topology.signaling;
    let mut cell_policies: Vec<Option<_>> = (0..cells.len()).map(|_| None).collect();
    let mut charged = Vec::new();
    let mut events = events.into_iter().peekable();
    for span in spans {
        for cell in charged.drain(..) {
            cell_policies[cell] = None;
        }
        let mut rnc_policy = topology.rnc_admission.build();
        while let Some(e) = events.next_if(|e| e.at <= span.end) {
            let cell = e.cell as usize - first_cell;
            let cell_policy = cell_policies[cell].get_or_insert_with(|| {
                charged.push(cell);
                topology.cell_admission.build()
            });
            match e.kind {
                AdjEventKind::HandoffOut { crosses } | AdjEventKind::HandoffIn { crosses } => {
                    // The cell's policy observes the load even though
                    // handoffs are never admission decisions.
                    cell_policy.observe(e.at, signaling.per_handoff);
                    if crosses {
                        rnc_policy.observe(e.at, signaling.per_handoff);
                    }
                }
                AdjEventKind::Request { seq, hinted } => {
                    // Two gates: the cell decides whether to forward,
                    // the RNC whether to admit. A cell-level denial
                    // never reaches the RNC's decision logic, but its
                    // request message still transits the RNC, so both
                    // levels observe every request's cost. Forwarding
                    // commits the cell's own policy state: a
                    // rate-limited cell that forwards a request the RNC
                    // then refuses has still spent its grant slot.
                    //
                    // Hinted requests — the mobility model predicts a
                    // handoff within its hint window — bypass both
                    // gates: the network wants the device dormant
                    // *before* the handoff (an idle-mode cell
                    // reselection is far cheaper than an active
                    // handover), and the release still costs its grant
                    // messages. Static mobility never hints.
                    let (cell_ok, ok) = if hinted {
                        (true, true)
                    } else {
                        *requests_gated += 1;
                        let cell_ok = cell_policy.admit(e.at);
                        (cell_ok, cell_ok && rnc_policy.admit(e.at))
                    };
                    let messages = if ok { signaling.per_fd_demotion } else { REQUEST_MESSAGES };
                    cell_policy.observe(e.at, messages);
                    rnc_policy.observe(e.at, messages);
                    if !ok {
                        cells[cell].granted -= 1;
                        cells[cell].denied += 1;
                        denials.push((e.user, seq));
                        if cell_ok {
                            rncs[0].denied_by_rnc += 1;
                        }
                    }
                }
            }
        }
    }
}

/// The whole second `at` falls in.
fn second_of(at: Instant) -> i64 {
    at.as_micros().div_euclid(1_000_000)
}

/// Per-second RRC-message load: `(second, msgs)` pairs, strictly
/// ascending by second. It holds only the seconds that saw a message
/// (or a zero-weight transition), never an array over the time span —
/// corpus traces and `.twr` files choose the seconds, so the span can
/// be anything an `i64` holds.
type Load = Vec<(i64, u64)>;

/// Adds the strictly ascending `(second, msgs)` run `run` into `load`
/// in one linear merge; a second both hold sums. The result is strictly
/// ascending again, so loads add in any grouping to the same run.
///
/// The merge runs backward inside `load`'s own buffer, grown by
/// `run.len()` slots: a fold adds thousands of runs, and a fresh
/// buffer per merge would allocate and fault in a whole cell load each
/// time.
fn add_load(load: &mut Load, run: &[(i64, u64)]) {
    let held = load.len();
    load.resize(held + run.len(), (0, 0));
    // `load[..earlier]` holds the entries still to merge and
    // `load[next..]` the merged tail; the slots between are free, one
    // per run entry still to merge and one per second summed so far, so
    // a write never lands on an unread entry.
    let (mut earlier, mut next) = (held, load.len());
    for &(second, messages) in run.iter().rev() {
        while earlier > 0 && load[earlier - 1].0 > second {
            next -= 1;
            earlier -= 1;
            load[next] = load[earlier];
        }
        let same = if earlier > 0 && load[earlier - 1].0 == second {
            earlier -= 1;
            load[earlier].1
        } else {
            0
        };
        next -= 1;
        load[next] = (second, same + messages);
    }
    // `load[..earlier]` never moved; each summed second left one unused
    // slot between it and the merged tail.
    load.drain(earlier..next);
    debug_assert!(load.windows(2).all(|w| w[0].0 < w[1].0), "load runs must be strictly ascending");
}

/// Charges `messages` at `second` to a load built in time order: the
/// last entry absorbs a repeat of its second, a later second appends.
fn charge_load(load: &mut Load, second: i64, messages: u64) {
    match load.last_mut() {
        Some((last, held)) if *last == second => *held += messages,
        last => {
            debug_assert!(
                last.is_none_or(|&mut (at, _)| at < second),
                "charges come in time order"
            );
            load.push((second, messages));
        }
    }
}

/// What a load adds up to: `(total messages, peak messages in one
/// second, seconds over budget)`.
type LoadScore = (u64, u64, u64);

fn score_load(load: &[(i64, u64)], budget: &SignalingBudget) -> LoadScore {
    load.iter().fold((0, 0, 0), |(total, peak, overloaded), &(_, messages)| {
        (total + messages, peak.max(messages), overloaded + budget.overloaded(messages) as u64)
    })
}

/// Scores every cell and RNC of a run. A cell's load is its replay-time
/// load plus the handoff messages charged to it at adjudication time,
/// so handoff storms overload the same budgets as everything else; an
/// RNC's is its own handoff exchanges (boundary crossings, `rnc_loads`
/// on entry) plus its member cells' loads.
fn score_loads(
    topology: &NetworkTopology,
    rnc_of: &[usize],
    cell_loads: Vec<Load>,
    cell_handoffs: Vec<Load>,
    mut rnc_loads: Vec<Load>,
) -> (Vec<LoadScore>, Vec<LoadScore>) {
    let mut cell_scores = Vec::with_capacity(cell_loads.len());
    for ((mut load, handoffs), &rnc) in cell_loads.into_iter().zip(cell_handoffs).zip(rnc_of) {
        add_load(&mut load, &handoffs);
        cell_scores.push(score_load(&load, &topology.cell_budget));
        add_load(&mut rnc_loads[rnc], &load);
    }
    let rnc_scores = rnc_loads.iter().map(|load| score_load(load, &topology.rnc_budget)).collect();
    (cell_scores, rnc_scores)
}

/// A user's pass-2 load: the RRC messages of their replay's
/// time-ordered transition log, each weighed by the topology's
/// signaling model and summed per second. It names no cell, so it is
/// what the memo and `.twr` keep whatever the topology's shape.
fn user_load(signaling: &SignalingModel, transitions: &[Transition]) -> LoadDeltas {
    let mut load = Load::new();
    for t in transitions {
        charge_load(&mut load, second_of(t.at), signaling.messages_for(t) as u64);
    }
    LoadDeltas::from_pairs(load).expect("a time-ordered log sums to ascending seconds")
}

/// Pass-2 shard partial: the energy fold plus each cell's per-second
/// RRC-message [`Load`]. Users' loads merge in as they replay or hit
/// the memo; the frontier merges partials in shard order. Load addition
/// commutes, so the order only keeps the whole partial deterministic.
struct TopologyPartial {
    report: FleetReport,
    /// Per cell: the summed load of this partial's users, one sorted run.
    seconds: Vec<Load>,
    /// Freshly replayed memo entries, keyed `(user index, verdict
    /// hash)`, collected only when a request cache is configured
    /// (empty otherwise) and taught back to it after the run.
    fresh: Vec<((u64, u64), ReplayOutcome)>,
    /// One user's decoded load, its cuts `(cell, start, end)` into it,
    /// and one cell's pairs gathered from several cuts: buffers reused
    /// from user to user.
    decoded: Load,
    cuts: Vec<(u64, usize, usize)>,
    gathered: Load,
}

impl TopologyPartial {
    /// Attributes one user's load to cells and adds it into the
    /// per-cell loads: the one place a second's messages meet the cell
    /// the user's [`Trajectory`] names for that second — the seam pass-1
    /// adjudication resolves requests through. The run decodes once and
    /// is cut where a residence ends (a fixed user's never does),
    /// neighbors in one cell joined, and each cell's cuts merge into its
    /// load at once — no sort of the pairs, and no walk of the
    /// trajectory from day 0.
    fn add_user_load(&mut self, deltas: &LoadDeltas, trajectory: &Trajectory) {
        let TopologyPartial { seconds, decoded, cuts, gathered, .. } = self;
        deltas.decode_into(decoded);
        cuts.clear();
        let mut start = 0;
        while let Some(&(second, _)) = decoded.get(start) {
            let (cell, last) = trajectory.residence(second);
            let end = start + decoded[start..].partition_point(|&(s, _)| s <= last);
            match cuts.last_mut() {
                Some((held, _, held_end)) if *held == cell => *held_end = end,
                _ => cuts.push((cell, start, end)),
            }
            start = end;
        }
        // A few cuts a day: the stable sort keeps each cell's in time
        // order.
        cuts.sort_by_key(|&(cell, ..)| cell);
        for group in cuts.chunk_by(|a, b| a.0 == b.0) {
            let run = match group {
                [(_, start, end)] => &decoded[*start..*end],
                _ => {
                    gathered.clear();
                    for &(_, start, end) in group {
                        gathered.extend_from_slice(&decoded[start..end]);
                    }
                    &gathered[..]
                }
            };
            let load = &mut seconds[group[0].0 as usize];
            if load.is_empty() {
                load.extend_from_slice(run);
            } else {
                add_load(load, run);
            }
        }
    }
}

impl Partial for TopologyPartial {
    fn absorb(&mut self, mut other: TopologyPartial) {
        self.report.merge(&other.report);
        for (mine, theirs) in self.seconds.iter_mut().zip(other.seconds) {
            add_load(mine, &theirs);
        }
        self.fresh.append(&mut other.fresh);
    }
}

/// Runs `population` through `topology`: the two-pass runner behind
/// every cell-topology run. See the module docs for the pass structure
/// and memory bounds.
///
/// Observation: trace materialization in either pass records under the
/// `synthesize` span, pass-1 request extraction and status-quo run
/// under `simulate` (and inside it under `extract` and `status_quo`,
/// one span each per user), each RNC partition's adjudication under one
/// `adjudicate` span on the worker that ran it, and pass-2 scripted
/// replay under `replay`, one span per user, plus one on the calling
/// thread for the load scoring after it. Live progress counts each user
/// once per executed pass, so the expected total published to the table
/// is `2 × users` — or `1 × users` when a request-cache hit skips pass 1
/// entirely; adjudication publishes none.
///
/// `cache`: an optional [`RequestCache`], consulted when the population
/// has a request header (synthetic populations do). On a hit, pass 1 is
/// skipped and the cached streams, baselines included, adjudicated
/// directly; on a miss, the extracted streams are stored for the next
/// cell. Pass 2's fresh outcomes merge into the replay memo, which the
/// run entry points write once as they return. Cached and uncached runs
/// are bit-identical — the harness in `tests/cache_fleet.rs` pins this.
pub(crate) fn run_topology(
    population: &Population<'_>,
    topology: &NetworkTopology,
    threads: usize,
    obs: Obs<'_>,
    cache: Option<&RequestCache>,
) -> Result<FleetReport, ScenError> {
    let (scheme, sim, master_seed) = (population.scheme, population.sim, population.master_seed);
    assert!(
        scheme.scriptable(),
        "scheme {:?} cannot run on a network topology: MakeActive batching depends on grant \
         outcomes, so the two-pass replay is not exact (scenario files reject this at parse \
         time)",
        scheme
    );
    topology.validate_counts();
    let users = population.users;
    let shard_count = population.shard_count();
    let cache = cache.zip(population.cache_header());

    // ---- Pass 1: request extraction and the status-quo baseline ------
    // (one trace per worker). Or, on a cache hit, no pass at all: the
    // streams were extracted by an earlier cell of the same population
    // and scheme.
    let cached_streams = cache.as_ref().and_then(|(cache, header)| cache.lookup(header, obs));
    if let Some(table) = obs.progress {
        // Each executed pass touches every user; a cache hit runs only
        // pass 2. Published before the work so the denominator is
        // truthful from the first progress frame.
        table.add_users_total(if cached_streams.is_some() { users } else { users * 2 });
    }
    let streams: Arc<Vec<RequestStream>> = match cached_streams {
        Some(streams) => streams,
        None => {
            // Shards append in shard order, which is user-index order,
            // into a vector that grows as it absorbs them: the declared
            // user count is no promise the process can hold that many.
            let extracted = run_sharded(shard_count, threads, obs, &Vec::new, &|shard, ctx| {
                let mut partial = Vec::new();
                for index in population.shard_range(shard) {
                    let (carrier, trace, days) = population.user(index, obs.recorder, ctx)?;
                    let record = {
                        let _simulate = span(obs.recorder, "simulate");
                        pass_one_record(scheme, &carrier, sim, &trace, obs.recorder)
                    };
                    partial.push(record);
                    ctx.user_done(days as u64);
                    // `trace` drops here: pass 1 keeps only the record.
                }
                Ok(partial)
            })?;
            // The cache may hold the streams for the rest of the
            // process, so they keep no growth slack: the boxed slice
            // sheds it.
            let streams = Arc::new(Vec::from(extracted.into_boxed_slice()));
            if let Some((cache, header)) = &cache {
                cache.store(header, Arc::clone(&streams), obs);
            }
            streams
        }
    };
    debug_assert_eq!(
        streams.len() as u64,
        users,
        "request streams must cover the population exactly (the cache validates this \
         against its header before serving an entry)"
    );

    // ---- Adjudication: one RNC partition per shard, counted and ------
    // gated where contested by whichever worker claims it, absorbed in
    // RNC order. Live progress counts users, so this pass publishes
    // none.
    let rnc_of = rnc_table(topology);
    let Adjudication {
        cells: mut cell_loads,
        rncs: mut rnc_loads,
        cell_handoffs,
        rnc_handoffs,
        hint_grants,
        denials,
        requests_gated,
    } = run_sharded(
        topology.rncs,
        threads,
        Obs { progress: None, ..obs },
        &Adjudication::default,
        &|rnc, _| {
            let _adjudicate = span(obs.recorder, "adjudicate");
            Ok(adjudicate_rnc(topology, master_seed, &streams, &rnc_of, rnc as usize))
        },
    )?;
    let granted: u64 = cell_loads.iter().map(|c| c.granted).sum();
    let denied: u64 = cell_loads.iter().map(|c| c.denied).sum();
    // Conservation: a request no partition adjudicated would replay as a
    // grant.
    assert_eq!(
        granted + denied,
        streams.iter().map(|s| s.times.len() as u64).sum::<u64>(),
        "every request must be adjudicated by exactly one RNC partition"
    );
    debug_assert_eq!(denials.len() as u64, denied);
    let mut verdicts: Vec<Vec<bool>> = streams.iter().map(|s| vec![true; s.times.len()]).collect();
    for (user, seq) in denials {
        verdicts[user as usize][seq as usize] = false;
    }
    let verdicts = &verdicts;
    let streams = &streams;
    if obs.recorder.enabled() {
        obs.recorder.counter("requests_granted").add(granted);
        obs.recorder.counter("requests_denied").add(denied);
        obs.recorder.counter("requests_gated").add(requests_gated);
        let denied_by_rnc = rnc_loads.iter().map(|r| r.denied_by_rnc).sum();
        obs.recorder.counter("requests_denied_by_rnc").add(denied_by_rnc);
        // Handoffs are conserved: every one has exactly one in-side.
        let handoffs: u64 = cell_loads.iter().map(|c| c.handoffs_in).sum();
        if handoffs > 0 {
            obs.recorder.counter("handoffs").add(handoffs);
            let inter_rnc = rnc_loads.iter().map(|r| r.inter_rnc_handoffs).sum();
            obs.recorder.counter("inter_rnc_handoffs").add(inter_rnc);
        }
        if hint_grants > 0 {
            obs.recorder.counter("hint_grants").add(hint_grants);
        }
    }

    // ---- Pass 2: exact replay, energy fold + per-second load. --------
    // The default transition_log_limit is a safety cap for interactive
    // use; here a truncated log would silently undercount cell load, so
    // lift it — the log is per user and dropped before the next one.
    let replay_sim =
        SimConfig { record_transitions: true, transition_log_limit: usize::MAX, ..sim.clone() };
    // The replay memo: per-user outcomes from earlier cells of the same
    // population, keyed by each user's verdict-stream hash. A hit folds
    // the stored outcome — no trace materialization, no engine run —
    // so a sweep cell pays only for the users whose verdicts changed.
    let memo = cache.map(|(cache, requests)| {
        let header =
            ReplayCacheHeader { requests, signaling_hash: signaling_hash(&topology.signaling) };
        let known = cache.lookup_outcomes(&header, obs);
        (cache, header, known)
    });
    let verdict_hashes: Vec<u64> = match &memo {
        Some(_) => verdicts.iter().map(|v| verdict_hash(v)).collect(),
        None => Vec::new(),
    };
    let empty_partial = || TopologyPartial {
        report: population.empty_report(),
        seconds: vec![Load::new(); topology.cells as usize],
        fresh: Vec::new(),
        decoded: Load::new(),
        cuts: Vec::new(),
        gathered: Load::new(),
    };
    let folded: TopologyPartial =
        run_sharded(shard_count, threads, obs, &empty_partial, &|shard, ctx| {
            let users_simulated = obs.recorder.counter("users_simulated");
            let days_counter = obs.recorder.counter("user_days");
            let replay_counters = memo.as_ref().map(|_| {
                (obs.recorder.counter("replay_hits"), obs.recorder.counter("replay_misses"))
            });
            let mut partial = empty_partial();
            for index in population.shard_range(shard) {
                let user = &streams[index as usize];
                let baseline = (user.baseline_energy_bits, user.baseline_switches);
                let trajectory = topology.trajectory(master_seed, index);
                // Memo hit: fold the cached outcome and load without
                // materializing the trace or running the engine.
                if let Some((_, header, known)) = &memo {
                    if let Some(outcome) = known.get(&(index, verdict_hashes[index as usize])) {
                        let (hits, _) = replay_counters.as_ref().expect("memo implies counters");
                        hits.incr();
                        let _replay = span(obs.recorder, "replay");
                        partial.add_user_load(&outcome.load, &trajectory);
                        // Synthetic populations carry a uniform
                        // days-per-user, pinned by the request header.
                        let days = header.requests.days;
                        partial.report.fold_user_outcome(days, baseline, outcome);
                        drop(_replay);
                        users_simulated.incr();
                        days_counter.add(days as u64);
                        ctx.user_done(days as u64);
                        continue;
                    }
                    let (_, misses) = replay_counters.as_ref().expect("memo implies counters");
                    misses.incr();
                }
                let (carrier, trace, days) = population.user(index, obs.recorder, ctx)?;
                let _replay = span(obs.recorder, "replay");
                let [tp, fp, tn, fn_] = user.confusion;
                let scheme_run = replay_requests(
                    &carrier,
                    &replay_sim,
                    &trace,
                    &user.times,
                    Confusion { tp, fp, tn, fn_ },
                    &verdicts[index as usize],
                );
                let mut outcome = replay_outcome(&scheme_run);
                let transitions = scheme_run.transitions.as_deref().unwrap_or_default();
                outcome.load = user_load(&topology.signaling, transitions);
                partial.add_user_load(&outcome.load, &trajectory);
                partial.report.fold_user_outcome(days, baseline, &outcome);
                if memo.is_some() {
                    partial.fresh.push(((index, verdict_hashes[index as usize]), outcome));
                }
                drop(_replay);
                users_simulated.incr();
                days_counter.add(days as u64);
                ctx.user_done(days as u64);
                // `trace` drops here: pass 2 is load→replay→discard again.
            }
            Ok(partial)
        })?;

    // ---- Per-cell and per-RNC load accounting. -----------------------
    let TopologyPartial { mut report, seconds, fresh, .. } = folded;
    if let Some((cache, header, known)) = memo {
        // Teach the memo what this cell had to replay (a no-op when
        // everything hit, so warm runs leave spill files untouched).
        // The run's handle goes first, so the store extends the cache's
        // copy in place.
        drop(known);
        cache.store_outcomes(header, fresh);
        if obs.recorder.enabled() {
            cache.sizes().record(obs.recorder);
        }
    }
    // The scoring and the roll-up are pass 2's last work: one `replay`
    // span on this thread.
    let scoring = span(obs.recorder, "replay");
    let (cell_scores, rnc_scores) =
        score_loads(topology, &rnc_of, seconds, cell_handoffs, rnc_handoffs);
    for (load, score) in cell_loads.iter_mut().zip(cell_scores) {
        (load.total_messages, load.peak_messages_per_s, load.overload_seconds) = score;
    }
    for (load, score) in rnc_loads.iter_mut().zip(rnc_scores) {
        (load.total_messages, load.peak_messages_per_s, load.overload_seconds) = score;
    }
    for (cell, load) in cell_loads.iter().enumerate() {
        let rnc = &mut rnc_loads[rnc_of[cell]];
        rnc.cells += 1;
        rnc.users += load.users;
        rnc.granted += load.granted;
        rnc.denied += load.denied;
    }
    drop(scoring);
    report.signaling = Some(FleetSignaling {
        cell_capacity_per_s: topology.cell_budget.capacity_per_s,
        rnc_capacity_per_s: topology.rnc_budget.capacity_per_s,
        cells: cell_loads,
        rncs: rnc_loads,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_trace::time::Duration;

    /// RNC `rnc`'s adjudication partition ([`walk_partition`]), every
    /// request an event beside the handoff sides, sorted into its
    /// deterministic `(time, user, kind)` order.
    fn rnc_events(
        topology: &NetworkTopology,
        master_seed: u64,
        streams: &[RequestStream],
        rnc_of: &[usize],
        rnc: usize,
    ) -> Vec<AdjEvent> {
        let mut events = Vec::new();
        walk_partition(
            topology,
            master_seed,
            streams,
            rnc_of,
            rnc,
            &mut events,
            |events, user, cell, first, times, trajectory| {
                for (seq, &at) in (first..).zip(times) {
                    let hinted = hinted(topology, master_seed, user, trajectory, at);
                    let kind = AdjEventKind::Request { seq: seq as u32, hinted };
                    events.push(AdjEvent { at, user, kind, cell });
                }
            },
        );
        // Each user's requests arrive as presorted runs, which the stable
        // sort merges rather than re-sorts. The order is strict, so
        // stability itself changes nothing.
        events.sort();
        events
    }

    /// The full event path, the oracle [`adjudicate_rnc`] is held to:
    /// every event of RNC `rnc`'s partition ([`rnc_events`]) fed through
    /// fresh admission policies for the RNC and each of its cells.
    fn reference_adjudication(
        topology: &NetworkTopology,
        master_seed: u64,
        streams: &[RequestStream],
        rnc_of: &[usize],
        rnc: usize,
    ) -> Adjudication {
        let first_cell = rnc_of.partition_point(|&owner| owner < rnc);
        let cell_count = rnc_of.partition_point(|&owner| owner <= rnc) - first_cell;
        let mut cells = vec![CellLoad::default(); cell_count];
        for user in 0..streams.len() as u64 {
            let home = topology.home_cell(master_seed, user) as usize;
            if rnc_of[home] == rnc {
                cells[home - first_cell].users += 1;
            }
        }
        let mut hint_grants = 0;
        let mut requests_gated = 0;
        let events = rnc_events(topology, master_seed, streams, rnc_of, rnc);
        let mut cell_handoffs = vec![Load::new(); cell_count];
        let mut rnc_handoffs = Load::new();
        let mut rnc_load = RncLoad::default();
        let mut denials = Vec::new();
        let mut cell_policies: Vec<_> =
            (0..cell_count).map(|_| topology.cell_admission.build()).collect();
        let mut rnc_policy = topology.rnc_admission.build();
        let signaling = &topology.signaling;
        for e in events {
            let cell = e.cell as usize - first_cell;
            match e.kind {
                AdjEventKind::HandoffOut { crosses } | AdjEventKind::HandoffIn { crosses } => {
                    let messages = signaling.per_handoff;
                    let second = e.at.as_micros().div_euclid(1_000_000);
                    cell_policies[cell].observe(e.at, messages);
                    charge_load(&mut cell_handoffs[cell], second, messages as u64);
                    if let AdjEventKind::HandoffOut { .. } = e.kind {
                        cells[cell].handoffs_out += 1;
                        if crosses {
                            rnc_load.inter_rnc_handoffs += 1;
                        }
                    } else {
                        cells[cell].handoffs_in += 1;
                    }
                    if crosses {
                        rnc_policy.observe(e.at, messages);
                        charge_load(&mut rnc_handoffs, second, messages as u64);
                    }
                }
                AdjEventKind::Request { seq, hinted } => {
                    let (cell_ok, ok) = if hinted {
                        (true, true)
                    } else {
                        requests_gated += 1;
                        let cell_ok = cell_policies[cell].admit(e.at);
                        (cell_ok, cell_ok && rnc_policy.admit(e.at))
                    };
                    let messages = if ok { signaling.per_fd_demotion } else { REQUEST_MESSAGES };
                    cell_policies[cell].observe(e.at, messages);
                    rnc_policy.observe(e.at, messages);
                    if ok {
                        cells[cell].granted += 1;
                        hint_grants += hinted as u64;
                    } else {
                        cells[cell].denied += 1;
                        denials.push((e.user, seq));
                        if cell_ok {
                            rnc_load.denied_by_rnc += 1;
                        }
                    }
                }
            }
        }
        Adjudication {
            cells,
            rncs: vec![rnc_load],
            cell_handoffs,
            rnc_handoffs: vec![rnc_handoffs],
            hint_grants,
            denials,
            requests_gated,
        }
    }

    #[test]
    fn cell_assignment_is_deterministic_and_roughly_uniform() {
        let cells = 8u64;
        let counts = (0..8000).fold(vec![0u64; cells as usize], |mut acc, i| {
            acc[cell_of(7, i, cells) as usize] += 1;
            acc
        });
        for (cell, &n) in counts.iter().enumerate() {
            assert!((800..1200).contains(&n), "cell {cell} holds {n} of 8000 users");
        }
        assert_eq!(cell_of(7, 42, cells), cell_of(7, 42, cells));
        // The assignment is seed-sensitive: a different master seed
        // shuffles users across cells.
        let moved = (0..1000).filter(|&i| cell_of(7, i, cells) != cell_of(8, i, cells)).count();
        assert!(moved > 500, "only {moved} of 1000 users moved on reseed");
    }

    #[test]
    fn single_cell_topologies_pin_everyone_to_cell_zero() {
        for i in 0..100 {
            assert_eq!(cell_of(1, i, 1), 0);
        }
    }

    #[test]
    fn rnc_blocks_are_contiguous_and_near_equal() {
        // 12 cells over 3 RNCs: blocks of 4.
        let owners: Vec<u64> = (0..12).map(|c| rnc_of_cell(c, 12, 3)).collect();
        assert_eq!(owners, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        // Ragged split: 7 cells over 3 RNCs — block sizes within ±1.
        let owners: Vec<u64> = (0..7).map(|c| rnc_of_cell(c, 7, 3)).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]), "blocks must be contiguous: {owners:?}");
        let mut sizes = vec![0u64; 3];
        for rnc in owners {
            sizes[rnc as usize] += 1;
        }
        assert_eq!(sizes.iter().sum::<u64>(), 7);
        assert!(sizes.iter().all(|&s| (2..=3).contains(&s)), "{sizes:?}");
        // Degenerate hierarchies: one RNC owns everything; one cell per
        // RNC is the identity.
        assert!((0..50).all(|c| rnc_of_cell(c, 50, 1) == 0));
        assert!((0..50).all(|c| rnc_of_cell(c, 50, 50) == c));
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn more_rncs_than_cells_is_rejected() {
        NetworkTopology::with_rncs(5, 4);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cell_topologies_are_rejected() {
        NetworkTopology::new(0);
    }

    mod merge_props {
        use super::*;
        use proptest::prelude::*;
        use proptest::prop::collection::vec;

        /// A pass-1 record of `times` alone.
        fn recorded(times: Vec<Instant>) -> RequestStream {
            RequestStream { times, ..RequestStream::default() }
        }

        /// The partition tests' fleet: `rncs` RNCs over `rncs +
        /// extra_cells` cells, static or commuting, one user per
        /// request-time shape.
        fn partition_fleet(
            shapes: Vec<Vec<i64>>,
            rncs: u64,
            extra_cells: u64,
            commute: bool,
        ) -> (NetworkTopology, Vec<usize>, Vec<RequestStream>) {
            let mut topology = NetworkTopology::with_rncs(rncs, rncs + extra_cells);
            if commute {
                topology.mobility = MobilitySpec::commute();
            }
            let rnc_of = rnc_table(&topology);
            let recorded = shapes
                .into_iter()
                .map(|mut times| {
                    times.sort_unstable();
                    recorded(times.into_iter().map(Instant::from_micros).collect())
                })
                .collect();
            (topology, rnc_of, recorded)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A static fleet's adjudication order is `merge_requests`
            /// over each RNC's member users, over arbitrary stream
            /// shapes and hierarchies — duplicate timestamps across
            /// users, empty streams, and ties within a user included.
            /// Every event is a request charged to its user's home cell:
            /// static fleets never hand off.
            #[test]
            fn static_event_order_matches_merge_requests(
                shapes in proptest::prop::collection::vec(
                    (0u64..64, proptest::prop::collection::vec(0i64..500_000, 0..24)),
                    0..40,
                ),
                (rncs, extra_cells, seed) in (1u64..4, 0u64..6, 0u64..1_000),
            ) {
                let streams: Vec<Vec<Instant>> = shapes
                    .into_iter()
                    .map(|(jitter, mut gaps)| {
                        gaps.sort_unstable();
                        let mut at = jitter as i64;
                        gaps.into_iter()
                            .map(|g| {
                                at += g;
                                Instant::from_micros(at)
                            })
                            .collect()
                    })
                    .collect();
                let topology = NetworkTopology::with_rncs(rncs, rncs + extra_cells);
                let rnc_of = rnc_table(&topology);
                let recorded: Vec<RequestStream> =
                    streams.iter().map(|times| recorded(times.clone())).collect();
                for rnc in 0..rncs as usize {
                    let events = rnc_events(&topology, seed, &recorded, &rnc_of, rnc);
                    let members: Vec<(u64, Vec<Instant>)> = streams
                        .iter()
                        .enumerate()
                        .map(|(user, times)| (user as u64, times.clone()))
                        .filter(|(user, _)| rnc_of[topology.home_cell(seed, *user) as usize] == rnc)
                        .collect();
                    let expect: Vec<(Instant, u64, u32, u64)> = merge_requests(&members)
                        .into_iter()
                        .map(|(at, user, seq)| (at, user, seq, topology.home_cell(seed, user)))
                        .collect();
                    let order: Vec<(Instant, u64, u32, u64)> = events
                        .iter()
                        .map(|e| match e.kind {
                            AdjEventKind::Request { seq, hinted: false } => {
                                (e.at, e.user, seq, e.cell)
                            }
                            _ => panic!("a static fleet handed off: {e:?}"),
                        })
                        .collect();
                    prop_assert_eq!(order, expect);
                }
            }

            /// The RNC partitions split a run's events without loss or
            /// duplication, static or commuting: every `(user, seq)`
            /// sits in exactly one partition — the RNC owning the cell
            /// the user occupies at that instant, charged to that cell
            /// — every handoff side appears once, the out-side in the
            /// source cell's RNC and the in-side in the target's, and
            /// each partition is strictly ascending. Request times
            /// spread over a day and a bit, so commuters cross RNCs.
            #[test]
            fn rnc_partitions_hold_every_event_exactly_once(
                shapes in vec(vec(0i64..108_000_000_000, 0..24), 0..24),
                (rncs, extra_cells, seed, commute) in
                    (1u64..=4, 0u64..6, 0u64..1_000, prop::bool::ANY),
            ) {
                let (topology, rnc_of, recorded) =
                    partition_fleet(shapes, rncs, extra_cells, commute);

                // Every event once, tagged with the RNC it belongs to,
                // from the spec-level oracles.
                let mut expect: Vec<(usize, AdjEvent)> = Vec::new();
                for (user, record) in recorded.iter().enumerate() {
                    let user = user as u64;
                    let times = &record.times;
                    for (seq, &at) in times.iter().enumerate() {
                        let cell = topology.user_cell(seed, user, at);
                        let hinted =
                            topology.mobility.handoff_within(seed, user, topology.cells, at);
                        let kind = AdjEventKind::Request { seq: seq as u32, hinted };
                        expect.push((rnc_of[cell as usize], AdjEvent { at, user, kind, cell }));
                    }
                    let Some(last) = times.last() else { continue };
                    let days = last.as_micros() as u64 / 86_400_000_000 + 1;
                    for h in topology.mobility.handoffs(seed, user, topology.cells, days) {
                        let (from, to) = (rnc_of[h.from as usize], rnc_of[h.to as usize]);
                        let crosses = from != to;
                        let side = |kind, cell| AdjEvent { at: h.at, user, kind, cell };
                        expect.push((from, side(AdjEventKind::HandoffOut { crosses }, h.from)));
                        expect.push((to, side(AdjEventKind::HandoffIn { crosses }, h.to)));
                    }
                }
                expect.sort();

                let mut held: Vec<(usize, AdjEvent)> = Vec::new();
                for rnc in 0..rncs as usize {
                    let events = rnc_events(&topology, seed, &recorded, &rnc_of, rnc);
                    prop_assert!(
                        events.windows(2).all(|w| w[0] < w[1]),
                        "RNC {} is not strictly ascending",
                        rnc
                    );
                    held.extend(events.into_iter().map(|e| (rnc, e)));
                }
                held.sort();
                prop_assert_eq!(held, expect);
            }

            /// With both levels `always`, the counting walk adjudicates
            /// every RNC partition exactly as gating its full event
            /// stream through `AlwaysAccept` does, and gates nothing:
            /// the same per-cell users, grants, denials and handoff
            /// counts, the same per-cell and per-RNC handoff loads,
            /// inter-RNC handoffs and hint grants, and no denials. Same
            /// fleets as above: commuters cross RNCs and some requests
            /// fall inside a handoff hint window.
            #[test]
            fn counted_adjudication_matches_the_gated_event_path(
                shapes in vec(vec(0i64..108_000_000_000, 0..24), 0..24),
                (rncs, extra_cells, seed, commute) in
                    (1u64..=4, 0u64..6, 0u64..1_000, prop::bool::ANY),
            ) {
                let (topology, rnc_of, recorded) =
                    partition_fleet(shapes, rncs, extra_cells, commute);
                for rnc in 0..rncs as usize {
                    let counted = adjudicate_rnc(&topology, seed, &recorded, &rnc_of, rnc);
                    let gated = reference_adjudication(&topology, seed, &recorded, &rnc_of, rnc);
                    same_adjudication(&counted, &gated, rnc)?;
                    prop_assert!(gated.denials.is_empty());
                    prop_assert_eq!(counted.requests_gated, 0, "RNC {}", rnc);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Gating only the contested spans adjudicates every RNC
            /// partition exactly as the full event path does, at
            /// settings that deny: dense requests, each user's over 1 s
            /// to four minutes around an hour boundary, where half the
            /// commuters detour and hand off — half the time one a bound
            /// block also starts at, so window loads carry into the next
            /// block;
            /// `always`,
            /// `rate-limited` (up to 10 s) and `reactive` (0–6 msg/s
            /// over 1–5 s) at both levels; handoff sides costing 0–4
            /// messages, and grants 0–4, free half the time, where the
            /// bound's `max` with a denial's cost matters. Only the
            /// gated spans' requests reach a policy.
            #[test]
            fn span_gating_matches_the_full_event_path(
                users in vec((1i64..=240, vec(0i64..1_000_000, 0..96)), 0..16),
                (hour, rncs, extra_cells, seed, commute, at_block) in
                    (1i64..40, 1u64..=4, 0u64..4, 0u64..1_000, prop::bool::ANY, prop::bool::ANY),
                (cell_admission, rnc_admission) in (admission(), admission()),
                (per_fd_demotion, per_handoff) in
                    ((0u32..=8).prop_map(|d| d.saturating_sub(4)), 0u32..=4),
            ) {
                // Block 29 starts 16 s before hour 33: both boundaries.
                let boundary_s = if at_block { 29 * BOUND_BLOCK_S } else { hour * 3_600 };
                // Each user's requests spread over their own 1–240 s
                // around the boundary.
                let shapes = users.into_iter().map(|(spread_s, draws)| {
                    let start = boundary_s * 1_000_000 - spread_s * 500_000;
                    draws.into_iter().map(|d| start + d * spread_s).collect()
                });
                let (mut topology, rnc_of, recorded) =
                    partition_fleet(shapes.collect(), rncs, extra_cells, commute);
                if commute {
                    topology.mobility = MobilitySpec::Commute {
                        home_hour: 8,
                        work_hour: 17,
                        jitter_pct: 50,
                        hint_s: 60,
                    };
                }
                topology.cell_admission = cell_admission;
                topology.rnc_admission = rnc_admission;
                topology.signaling.per_fd_demotion = per_fd_demotion;
                topology.signaling.per_handoff = per_handoff;
                for rnc in 0..rncs as usize {
                    let spans = adjudicate_rnc(&topology, seed, &recorded, &rnc_of, rnc);
                    let full = reference_adjudication(&topology, seed, &recorded, &rnc_of, rnc);
                    same_adjudication(&spans, &full, rnc)?;
                    prop_assert!(spans.requests_gated >= full.denials.len() as u64);
                    prop_assert!(spans.requests_gated <= full.requests_gated);
                }
            }
        }

        /// A `reactive` window as long as a bound block is bounded like
        /// any other; a longer one is not, so its partitions are gated
        /// whole. Both adjudicate exactly.
        #[test]
        fn windows_longer_than_a_bound_block_gate_their_partitions_whole() {
            let shapes = (0..6)
                .map(|user| (0..40).map(|i| (user * 7 + i * 3) * 1_000_000).collect())
                .collect();
            let (mut topology, rnc_of, recorded) = partition_fleet(shapes, 2, 1, false);
            // 240 requests of 3 messages: no 4,096-s window reaches 4,096.
            let all = recorded.iter().map(|r| r.times.len() as u64).sum();
            for (window_s, gated) in [(BOUND_BLOCK_S as u64, 0), (BOUND_BLOCK_S as u64 + 1, all)] {
                topology.rnc_admission =
                    AdmissionSpec::LoadReactive { watermark_per_s: 1, window_s };
                let mut held = 0;
                for rnc in 0..2 {
                    let spans = adjudicate_rnc(&topology, 7, &recorded, &rnc_of, rnc);
                    let full = reference_adjudication(&topology, 7, &recorded, &rnc_of, rnc);
                    same_adjudication(&spans, &full, rnc).unwrap();
                    held += spans.requests_gated;
                }
                assert_eq!(held, gated, "window {window_s} s");
            }
        }

        /// A window reaching back across a bound block's start carries
        /// the previous block's load, at either level: three grants
        /// (9 messages) in the last two seconds of one block and the
        /// first of the next leave a `reactive:2:5` window one grant
        /// short of its limit, so the next second's first request is
        /// granted and its second denied. Counted from the block's start
        /// alone, that second would look certain.
        #[test]
        fn window_loads_carry_across_bound_blocks() {
            let block_s = 29 * BOUND_BLOCK_S;
            let at = |second: i64, micros: i64| (block_s + second) * 1_000_000 + micros;
            let shapes = vec![vec![at(-2, 0), at(-1, 0), at(0, 0), at(1, 0)], vec![at(1, 500_000)]];
            let (mut topology, rnc_of, recorded) = partition_fleet(shapes, 1, 0, false);
            let reactive = AdmissionSpec::LoadReactive { watermark_per_s: 2, window_s: 5 };
            for cell_level in [false, true] {
                (topology.cell_admission, topology.rnc_admission) = if cell_level {
                    (reactive.clone(), AdmissionSpec::Always)
                } else {
                    (AdmissionSpec::Always, reactive.clone())
                };
                let spans = adjudicate_rnc(&topology, 3, &recorded, &rnc_of, 0);
                let full = reference_adjudication(&topology, 3, &recorded, &rnc_of, 0);
                assert_eq!(full.denials, [(1, 0)], "cell level {cell_level}");
                same_adjudication(&spans, &full, 0).unwrap();
            }
        }

        /// Hundreds of `reactive` cells on one RNC, static or
        /// commuting, under an `always` or a `reactive` RNC, adjudicate
        /// exactly: the bound keeps one window sum per cell, and each
        /// span builds policies only for the cells it charges. Cells
        /// that hold two overlapping users deny, and most requests stay
        /// ungated.
        #[test]
        fn hundreds_of_reactive_cells_on_one_rnc_adjudicate_exactly() {
            // 400 users over 300 cells, each requesting every 2–6 s for
            // a few minutes around 09:00, when commuters have left home.
            let shapes: Vec<Vec<i64>> = (0..400i64)
                .map(|user| {
                    let (start, step) = (9 * 3_600 + user * 7, 2 + user % 5);
                    (0..60).map(|i| (start + i * step) * 1_000_000 + user).collect()
                })
                .collect();
            for commute in [false, true] {
                let (mut topology, rnc_of, recorded) =
                    partition_fleet(shapes.clone(), 1, 299, commute);
                topology.cell_admission =
                    AdmissionSpec::LoadReactive { watermark_per_s: 3, window_s: 3 };
                for rnc_admission in [
                    AdmissionSpec::Always,
                    AdmissionSpec::LoadReactive { watermark_per_s: 30, window_s: 5 },
                ] {
                    topology.rnc_admission = rnc_admission;
                    let spans = adjudicate_rnc(&topology, 11, &recorded, &rnc_of, 0);
                    let full = reference_adjudication(&topology, 11, &recorded, &rnc_of, 0);
                    same_adjudication(&spans, &full, 0).unwrap();
                    let context = format!("commute {commute}, RNC {:?}", topology.rnc_admission);
                    assert!(!full.denials.is_empty(), "{context}: nothing denied");
                    assert!(spans.requests_gated < full.requests_gated / 2, "{context}");
                }
            }
        }

        /// An admission level that can deny the dense fleets above, or
        /// `always`: reactive half the time, the others a quarter each.
        fn admission() -> impl Strategy<Value = AdmissionSpec> {
            (0u8..4, 1i64..=10_000, 0u64..=6, 1u64..=5).prop_map(
                |(kind, ms, watermark_per_s, window_s)| match kind {
                    0 => AdmissionSpec::Always,
                    1 => AdmissionSpec::RateLimited { min_interval: Duration::from_millis(ms) },
                    _ => AdmissionSpec::LoadReactive { watermark_per_s, window_s },
                },
            )
        }

        /// Holds RNC `rnc`'s two adjudications equal in everything pass 2
        /// and the load accounting read: per-cell and per-RNC counts,
        /// both handoff loads, hint grants and the denied requests.
        fn same_adjudication(
            new: &Adjudication,
            reference: &Adjudication,
            rnc: usize,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(&new.cells, &reference.cells, "RNC {} cells", rnc);
            prop_assert_eq!(&new.rncs, &reference.rncs, "RNC {}", rnc);
            prop_assert_eq!(
                &new.cell_handoffs,
                &reference.cell_handoffs,
                "RNC {} cell handoff loads",
                rnc
            );
            prop_assert_eq!(&new.rnc_handoffs, &reference.rnc_handoffs, "RNC {} handoff load", rnc);
            prop_assert_eq!(new.hint_grants, reference.hint_grants, "RNC {} hints", rnc);
            let sorted = |denials: &[(u64, u32)]| {
                let mut denials = denials.to_vec();
                denials.sort_unstable();
                denials
            };
            prop_assert_eq!(sorted(&new.denials), sorted(&reference.denials), "RNC {}", rnc);
            Ok(())
        }
    }

    mod load_props {
        use super::*;
        use proptest::prelude::*;
        use proptest::prop::collection::vec;
        use std::collections::BTreeMap;

        const CELLS: u64 = 4;

        /// One step of a transition log: the µs gap before it (mostly
        /// inside a second or two, a quarter of the time up to two
        /// hours) and its kind.
        fn step() -> impl Strategy<Value = (i64, usize)> {
            let gap = (0usize..4, 0i64..1_500_000, 0i64..7_200_000_000)
                .prop_map(|(pick, short, long)| if pick == 0 { long } else { short });
            (gap, 0usize..5)
        }

        /// A transition at `at` of each kind the signaling model weighs
        /// apart.
        fn transition(at: Instant, kind: usize) -> Transition {
            use tailwise_radio::rrc::{RrcState::*, TransitionCause::*};
            let (cause, from, to) = [
                (Data, Idle, Dch),
                (Data, Fach, Dch),
                (Timer, Dch, Fach),
                (Timer, Fach, Idle),
                (FastDormancy, Dch, Idle),
            ][kind];
            Transition { at, from, to, cause }
        }

        /// The reference fold: every charge summed into a per-cell
        /// `second → msgs` map, every RNC's map the sum of its own
        /// charges and its member cells' maps.
        fn reference_scores(
            topology: &NetworkTopology,
            rnc_of: &[usize],
            charges: &[(u64, i64, u64)],
            rnc_charges: &[(usize, i64, u64)],
        ) -> (Vec<LoadScore>, Vec<LoadScore>) {
            let mut cells = vec![BTreeMap::<i64, u64>::new(); CELLS as usize];
            let mut rncs = vec![BTreeMap::<i64, u64>::new(); topology.rncs as usize];
            for &(cell, second, messages) in charges {
                *cells[cell as usize].entry(second).or_insert(0) += messages;
            }
            for &(rnc, second, messages) in rnc_charges {
                *rncs[rnc].entry(second).or_insert(0) += messages;
            }
            for (cell, map) in cells.iter().enumerate() {
                for (&second, &messages) in map {
                    *rncs[rnc_of[cell]].entry(second).or_insert(0) += messages;
                }
            }
            let score = |map: &BTreeMap<i64, u64>, budget: &SignalingBudget| {
                let total = map.values().sum();
                let peak = map.values().copied().max().unwrap_or(0);
                let overloaded = map.values().filter(|&&m| budget.overloaded(m)).count() as u64;
                (total, peak, overloaded)
            };
            (
                cells.iter().map(|m| score(m, &topology.cell_budget)).collect(),
                rncs.iter().map(|m| score(m, &topology.rnc_budget)).collect(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Per-user loads attributed to cells at fold time, shard
            /// partials absorbed in shard order, handoff charges and the
            /// per-RNC fold, all on sorted runs, score every cell and RNC
            /// exactly as a `BTreeMap` fold does of the same transitions,
            /// each charged to the cell the assignment seam names at its
            /// own instant — over negative and zero seconds, zero-weight
            /// transitions, several transitions in one second, and
            /// commuters whose cells change by the hour.
            #[test]
            fn sorted_run_fold_matches_a_btreemap_fold(
                users in vec((0u64..1_000, -20_000_000_000i64..200_000_000_000, vec(step(), 0..24)), 0..10),
                cuts in vec(prop::bool::ANY, 10),
                mut handoffs in vec((0..CELLS, -4i64..30, 0u64..4, prop::bool::ANY), 0..16),
                (rncs, cell_cap, rnc_cap) in (1..=CELLS, 0u64..8, 0u64..20),
                (moves, home_hour, work_hour, jitter_pct) in (prop::bool::ANY, 0u32..24, 0u32..24, 0u32..=100),
                weights in vec(0u32..9, 5),
            ) {
                let mut topology = NetworkTopology::with_rncs(rncs, CELLS);
                topology.cell_budget = SignalingBudget::per_second(cell_cap);
                topology.rnc_budget = SignalingBudget::per_second(rnc_cap);
                if moves {
                    topology.mobility =
                        MobilitySpec::Commute { home_hour, work_hour, jitter_pct, hint_s: 0 };
                }
                topology.signaling = SignalingModel {
                    per_promotion: weights[0],
                    per_fach_promotion: weights[1],
                    per_t1_demotion: weights[2],
                    per_timer_demotion: weights[3],
                    per_fd_demotion: weights[4],
                    per_handoff: 0,
                };
                let rnc_of = rnc_table(&topology);
                let seed = 0xF01D;

                let empty = || TopologyPartial {
                    report: FleetReport::empty("prop".into(), "makeidle".into()),
                    seconds: vec![Load::new(); CELLS as usize],
                    fresh: Vec::new(),
                    decoded: Load::new(),
                    cuts: Vec::new(),
                    gathered: Load::new(),
                };
                let mut shards = vec![empty()];
                let mut charges: Vec<(u64, i64, u64)> = Vec::new();
                for (user, (index, start, steps)) in users.iter().enumerate() {
                    let mut at = *start;
                    let transitions: Vec<Transition> = steps.iter().map(|&(gap, kind)| {
                        at += gap;
                        transition(Instant::from_micros(at), kind)
                    }).collect();
                    let weigh = |t: &Transition| topology.signaling.messages_for(t) as u64;
                    let deltas = user_load(&topology.signaling, &transitions);
                    // Exactly what a per-user second map holds.
                    let mut map = BTreeMap::<i64, u64>::new();
                    for t in &transitions {
                        *map.entry(second_of(t.at)).or_insert(0) += weigh(t);
                    }
                    prop_assert_eq!(deltas.to_pairs(), map.into_iter().collect::<Vec<_>>(), "user {}", user);
                    shards.last_mut().unwrap().add_user_load(&deltas, &topology.trajectory(seed, *index));
                    charges.extend(transitions.iter().map(|t| {
                        (topology.user_cell(seed, *index, t.at), second_of(t.at), weigh(t))
                    }));
                    if cuts[user] {
                        shards.push(empty());
                    }
                }
                let mut shards = shards.into_iter();
                let mut total = shards.next().unwrap();
                for shard in shards {
                    total.absorb(shard);
                }

                handoffs.sort_by_key(|&(_, second, _, _)| second);
                let mut cell_handoffs = vec![Load::new(); CELLS as usize];
                let mut rnc_handoffs = vec![Load::new(); rncs as usize];
                let mut rnc_charges = Vec::new();
                for &(cell, second, messages, crosses) in &handoffs {
                    charge_load(&mut cell_handoffs[cell as usize], second, messages);
                    if crosses {
                        let rnc = rnc_of[cell as usize];
                        charge_load(&mut rnc_handoffs[rnc], second, messages);
                        rnc_charges.push((rnc, second, messages));
                    }
                }

                charges.extend(handoffs.iter().map(|&(cell, second, messages, _)| (cell, second, messages)));
                let expect = reference_scores(&topology, &rnc_of, &charges, &rnc_charges);
                let scored = score_loads(&topology, &rnc_of, total.seconds, cell_handoffs, rnc_handoffs);
                prop_assert_eq!(scored, expect);
            }
        }
    }

    #[test]
    fn both_passes_share_the_assignment_seam() {
        // Regression for the hoisted per-user cell assignment: pass 1
        // (adjudication grouping) and pass 2 (load attribution) both go
        // through `NetworkTopology::user_cell` / `home_cell`, so the
        // helper must agree with the primitives each pass used to call
        // directly — `cell_of` when static, `MobilitySpec::cell_at`
        // when mobile — at every instant either pass can ask about.
        let mut t = NetworkTopology::with_rncs(3, 12);
        let seed = 0xCE11;
        let instants =
            [Instant::ZERO, Instant::from_secs(7 * 3600), Instant::from_secs(86_400 + 61_000)];
        for index in 0..200u64 {
            assert_eq!(t.home_cell(seed, index), cell_of(seed, index, t.cells));
            for at in instants {
                assert_eq!(t.user_cell(seed, index, at), cell_of(seed, index, t.cells));
            }
        }
        t.mobility = MobilitySpec::commute();
        for index in 0..200u64 {
            // The anchor stays put under mobility (population shares
            // remain comparable)…
            assert_eq!(t.home_cell(seed, index), cell_of(seed, index, t.cells));
            // …while instantaneous membership follows the model.
            for at in instants {
                assert_eq!(
                    t.user_cell(seed, index, at),
                    t.mobility.cell_at(seed, index, t.cells, at)
                );
            }
        }
    }

    #[test]
    fn default_topologies_are_flat_and_permissive() {
        let t = NetworkTopology::new(4);
        assert_eq!(t.rncs, 1);
        assert_eq!(t.cell_admission, AdmissionSpec::Always);
        assert_eq!(t.rnc_admission, AdmissionSpec::Always);
        assert_eq!(t.cell_budget, SignalingBudget::UNBOUNDED);
        let h = NetworkTopology::with_rncs(3, 12);
        assert_eq!((h.rncs, h.cells), (3, 12));
        // Spec-built policies stay usable through the topology surface.
        let mut limited =
            AdmissionSpec::RateLimited { min_interval: Duration::from_secs(5) }.build();
        assert!(limited.admit(Instant::ZERO));
        assert!(!limited.admit(Instant::from_secs(1)));
    }

    #[test]
    fn pass_one_records_replay_exactly_like_their_request_trace() {
        // A pass-1 record is exactly the scheme's request trace — its
        // times, held at their length, and its confusion counts — plus
        // the status quo's baseline words, so pass 2 replaying from the
        // record is the scheme's scripted run, bit for bit.
        use tailwise_trace::packet::{Direction, Packet};
        let p = CarrierProfile::att_hspa();
        let cfg = SimConfig::default();
        let mut at = Instant::ZERO;
        let mut packets = vec![Packet::new(at, Direction::Down, 500)];
        for gap_ms in [30_000, 400, 20_000, 9_000, 45_000] {
            at += Duration::from_millis(gap_ms);
            packets.push(Packet::new(at, Direction::Up, 500));
        }
        let t = Trace::from_sorted(packets).unwrap();
        let scheme = Scheme::FixedTail45;
        let record = pass_one_record(scheme, &p, &cfg, &t, &tailwise_obs::NullRecorder);

        let requests = scheme.request_trace(&p, &cfg, &t).unwrap();
        assert_eq!(record.times, requests.times);
        assert!(record.times.len() >= 3, "{:?}", record.times);
        assert_eq!(record.times.capacity(), record.times.len());
        let Confusion { tp, fp, tn, fn_ } = requests.confusion;
        assert_eq!(record.confusion, [tp, fp, tn, fn_]);
        let status_quo = Scheme::StatusQuo.run(&p, &cfg, &t);
        assert_eq!(record.baseline_energy_bits, status_quo.total_energy().to_bits());
        assert_eq!(record.baseline_switches, status_quo.switch_cycles());

        let verdicts: Vec<bool> = (0..record.times.len()).map(|i| i % 2 == 0).collect();
        let [tp, fp, tn, fn_] = record.confusion;
        let confusion = Confusion { tp, fp, tn, fn_ };
        let replayed = replay_requests(&p, &cfg, &t, &record.times, confusion, &verdicts);
        let scripted = scheme.run_scripted(&p, &cfg, &t, &verdicts).unwrap();
        assert_eq!(replayed.total_energy().to_bits(), scripted.total_energy().to_bits());
        assert_eq!(replayed.counters, scripted.counters);
        assert_eq!(replayed.confusion, scripted.confusion);
        assert_eq!(replayed.denied_fd, scripted.denied_fd);
    }
}
