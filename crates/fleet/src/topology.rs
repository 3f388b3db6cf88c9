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
//! 2. **Adjudication** — every request becomes an event in the
//!    partition of the RNC owning the cell its user occupies at that
//!    instant, beside both sides of every handoff its cells see (none
//!    under static mobility). A partition touches only its own cells,
//!    its own RNC's policy and verdicts no other partition holds, so the
//!    sharded runner adjudicates the RNCs in parallel, one partition per
//!    shard: the worker builds the RNC's events, sorts them into
//!    `(time, user, kind)` order and feeds them through fresh
//!    admission-policy instances — the request's cell decides first,
//!    then the RNC; a denial at either level denies. Every verdict's
//!    adjudication-time message cost (`per_fd_demotion` per grant,
//!    [`REQUEST_MESSAGES`] per denial) is observed by both levels, so
//!    load-reactive policies see the rate they are protecting. When
//!    both levels are [`AdmissionSpec::Always`] (the paper's §2.2
//!    assumption), no verdict can be a denial, so the partition builds
//!    no request events: the same walk counts each residence segment's
//!    requests as its cell's grants and their handoff hints, and only
//!    the handoff sides are sorted and charged. The frontier absorbs the
//!    partitions in RNC order: per-cell counts, handoff loads and the
//!    denied `(user, seq)` pairs.
//! 3. **Pass 2** — the sharded runner *re-materializes* each user's
//!    trace (synthesis and corpus walks are deterministic, so the same
//!    index yields the same trace) and replays it exactly from the
//!    user's pass-1 requests and scripted verdicts
//!    ([`replay_requests`]): no policy runs, each gap is demoted or not
//!    by the recorded request that falls in it, and the confusion matrix
//!    is pass 1's. The replay folds energy into the [`FleetReport`],
//!    scored against pass 1's baseline; one walk over the time-ordered
//!    transition log turns its RRC messages into the user's `(cell,
//!    second, msgs)` load deltas, each transition in the cell the user's
//!    [`Trajectory`] names, strictly ascending by `(cell, second)`,
//!    encoded as [`LoadDeltas`] byte runs — exactly what the memo holds
//!    and a `.twr` record stores. Loads are sorted `(second, msgs)` runs
//!    that add by linear merge: each cell run of a live user's deltas or
//!    a memo hit's stored ones decodes in one pass and merges into the
//!    shard's load for that cell, shards into the frontier's, handoff
//!    charges into their cells', and cells into their RNC's. A sweep
//!    that replays one population under several admission policies thus
//!    runs the scheme's policy once per user, not once per cell.
//!
//! Peak memory stays **one trace per worker** in both passes — the
//! re-synthesis/re-load is exactly what buys that bound. Between the
//! passes the run holds O(total requests) timestamps plus four
//! confusion counts and two baseline words per user and, afterwards,
//! one verdict byte per request plus one `(second, msgs)` pair per
//! active second of each cell and RNC — never an array over the time
//! span, which corpus traces and `.twr` files choose. Adjudication's
//! events live only while their partition is in flight, so at most
//! `threads` RNCs' events exist at once.
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

use std::sync::Arc;

use tailwise_core::schemes::Scheme;
use tailwise_obs::{span, Obs};
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
use crate::cache::{topo_hash, verdict_hash, RequestCache};
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
    /// request (and handoff) through it, and pass-2 load attribution
    /// folds every transition into the cell it names. A pure function
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

    /// Whether either admission level can deny a fast-dormancy request.
    /// When neither can — both `always`, the paper's §2.2 assumption —
    /// every verdict is a grant by construction, and adjudication counts
    /// requests instead of gating them.
    fn can_deny(&self) -> bool {
        self.cell_admission != AdmissionSpec::Always || self.rnc_admission != AdmissionSpec::Always
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
/// status-quo run pass 2 scores the user against.
fn pass_one_record(
    scheme: Scheme,
    carrier: &CarrierProfile,
    sim: &SimConfig,
    trace: &Trace,
) -> RequestStream {
    let RequestTrace { times, confusion: Confusion { tp, fp, tn, fn_ } } = scheme
        .request_trace(carrier, sim, trace)
        .expect("scriptable scheme always yields a request trace");
    let status_quo = Scheme::StatusQuo.run(carrier, sim, trace);
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
fn walk_partition(
    topology: &NetworkTopology,
    master_seed: u64,
    streams: &[RequestStream],
    rnc_of: &[usize],
    rnc: usize,
    events: &mut Vec<AdjEvent>,
    mut segment: impl FnMut(&mut Vec<AdjEvent>, u64, u64, usize, &[Instant], &Trajectory),
) {
    for (user, stream) in streams.iter().enumerate() {
        let user = user as u64;
        let times = &stream.times;
        let (Some(&first), Some(&last)) = (times.first(), times.last()) else { continue };
        let horizon_days = (last.as_micros().div_euclid(1_000_000).max(0) as u64) / 86_400 + 1;
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
}

impl Partial for Adjudication {
    fn absorb(&mut self, mut other: Adjudication) {
        self.cells.append(&mut other.cells);
        self.rncs.append(&mut other.rncs);
        self.cell_handoffs.append(&mut other.cell_handoffs);
        self.rnc_handoffs.append(&mut other.rnc_handoffs);
        self.hint_grants += other.hint_grants;
        self.denials.append(&mut other.denials);
    }
}

/// Adjudicates RNC `rnc`'s partition. The result's per-cell vectors
/// cover exactly the RNC's cells, its per-RNC vectors the RNC alone.
///
/// With `gate`, every request is an event ([`rnc_events`]) fed through
/// fresh admission policies for the RNC and each of its cells. Without
/// it — [`NetworkTopology::can_deny`] is false, so every verdict is a
/// grant by construction — the partition's walk counts each residence
/// segment's requests into its cell's grants and their handoff hints
/// into `hint_grants`, and only the handoff sides become events, sorted
/// and charged exactly as the gated path charges them.
fn adjudicate_rnc(
    topology: &NetworkTopology,
    master_seed: u64,
    streams: &[RequestStream],
    rnc_of: &[usize],
    rnc: usize,
    gate: bool,
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
    let events = if gate {
        rnc_events(topology, master_seed, streams, rnc_of, rnc)
    } else {
        let mut handoffs = Vec::new();
        walk_partition(
            topology,
            master_seed,
            streams,
            rnc_of,
            rnc,
            &mut handoffs,
            |_, user, cell, _, times, trajectory| {
                cells[cell as usize - first_cell].granted += times.len() as u64;
                hint_grants += times
                    .iter()
                    .filter(|&&at| hinted(topology, master_seed, user, trajectory, at))
                    .count() as u64;
            },
        );
        handoffs.sort();
        handoffs
    };
    // Handoff messages per second, charged here and merged into the
    // replay-time loads after pass 2 so handoff storms count against
    // the same budgets as everything else. The events come in time
    // order, so the runs build by appending.
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
                // Each side charges its own cell — the cell's policy
                // observes the load even though handoffs are never
                // admission decisions.
                cell_policies[cell].observe(e.at, messages);
                charge_load(&mut cell_handoffs[cell], second, messages as u64);
                if let AdjEventKind::HandoffOut { .. } = e.kind {
                    cells[cell].handoffs_out += 1;
                    if crosses {
                        // Attributed to the source RNC, like
                        // denied_by_rnc is attributed where the
                        // decision happened.
                        rnc_load.inter_rnc_handoffs += 1;
                    }
                } else {
                    cells[cell].handoffs_in += 1;
                }
                if crosses {
                    // Boundary-crossing handoffs cost the RNC its own
                    // exchange on top of the member cells' — the
                    // reactive governor sees it.
                    rnc_policy.observe(e.at, messages);
                    charge_load(&mut rnc_handoffs, second, messages as u64);
                }
            }
            AdjEventKind::Request { seq, hinted } => {
                // Two gates: the cell decides whether to forward, the RNC
                // whether to admit. A cell-level denial never reaches
                // the RNC's decision logic, but its request message
                // still transits the RNC, so both levels observe every
                // request's adjudication-time cost. Forwarding commits
                // the cell's own policy state: a rate-limited cell that
                // forwards a request the RNC then refuses has still
                // spent its grant slot.
                //
                // Hinted requests — the mobility model predicts a
                // handoff within its hint window — bypass both gates:
                // the network wants the device dormant *before* the
                // handoff (an idle-mode cell reselection is far cheaper
                // than an active handover), and the release still costs
                // its grant messages. Static mobility never hints.
                let (cell_ok, ok) = if hinted {
                    (true, true)
                } else {
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
    }
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

/// Load deltas from time-ordered `(cell, second, msgs)` charges:
/// triples strictly ascending by `(cell, second)`, each summing the
/// charges of its pair, encoded as the memo and `.twr` keep them.
///
/// One walk run-length encodes the charges per `(cell, second)`. A
/// static user's list comes out sorted; a commuter's, whose cells
/// alternate over the day, is sorted and coalesced afterwards.
fn load_deltas(charges: impl IntoIterator<Item = (u64, i64, u64)>) -> LoadDeltas {
    let mut deltas: Vec<(u64, i64, u64)> = Vec::new();
    let mut ascending = true;
    for (cell, second, messages) in charges {
        match deltas.last_mut() {
            Some((c, s, held)) if (*c, *s) == (cell, second) => *held += messages,
            last => {
                ascending &= last.is_none_or(|&mut (c, s, _)| (c, s) < (cell, second));
                deltas.push((cell, second, messages));
            }
        }
    }
    if !ascending {
        deltas.sort_unstable_by_key(|&(cell, second, _)| (cell, second));
        deltas.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
    }
    LoadDeltas::from_triples(deltas).expect("coalesced charges are strictly ascending")
}

/// User `index`'s [`load_deltas`] from the time-ordered transition log
/// of their pass-2 replay, each transition charged to the cell the
/// user's trajectory names when it fires.
fn user_load(
    topology: &NetworkTopology,
    master_seed: u64,
    index: u64,
    transitions: &[Transition],
) -> LoadDeltas {
    let trajectory = topology.trajectory(master_seed, index);
    load_deltas(transitions.iter().map(|t| {
        // Pass 2 attributes each transition to the cell the user
        // occupies when it happens — the same assignment seam pass-1
        // adjudication resolves requests through
        // ([`NetworkTopology::user_cell`]).
        let cell = trajectory.cell_at(t.at);
        debug_assert_eq!(
            cell,
            topology.user_cell(master_seed, index, t.at),
            "user {index} at {:?}",
            t.at
        );
        let second = t.at.as_micros().div_euclid(1_000_000);
        (cell, second, topology.signaling.messages_for(t) as u64)
    }))
}

/// Pass-2 shard partial: the energy fold plus each cell's per-second
/// RRC-message [`Load`]. Users' deltas merge in as they replay or hit
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
    /// One cell run's decoded `(second, msgs)` entries, reused from
    /// user to user.
    decoded: Load,
}

impl TopologyPartial {
    /// Adds one user's load deltas into the per-cell loads: each cell
    /// run decodes in one pass, straight into a cell no user has loaded
    /// yet, else into the reused buffer, which then merges.
    fn add_user_load(&mut self, deltas: &LoadDeltas) {
        for run in deltas.runs() {
            let load = &mut self.seconds[run.cell as usize];
            if load.is_empty() {
                run.decode_into(load);
            } else {
                run.decode_into(&mut self.decoded);
                add_load(load, &self.decoded);
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
/// under `simulate`, each RNC partition's adjudication under one
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
            // into a vector sized for the population: the cache may hold
            // it for the rest of the process, so it keeps no growth
            // slack.
            let presized = || Vec::with_capacity(users as usize);
            let extracted = run_sharded(shard_count, threads, obs, &presized, &|shard, ctx| {
                let mut partial = Vec::new();
                for index in population.shard_range(shard) {
                    let (carrier, trace, days) = population.user(index, obs.recorder, ctx)?;
                    let record = {
                        let _simulate = span(obs.recorder, "simulate");
                        pass_one_record(scheme, &carrier, sim, &trace)
                    };
                    partial.push(record);
                    ctx.user_done(days as u64);
                    // `trace` drops here: pass 1 keeps only the record.
                }
                Ok(partial)
            })?;
            let streams = Arc::new(extracted);
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

    // ---- Adjudication: one RNC partition per shard, built, sorted ----
    // and gated by whichever worker claims it (its requests only counted
    // when no level can deny), absorbed in RNC order. Live progress
    // counts users, so this pass publishes none.
    let rnc_of = rnc_table(topology);
    let gate = topology.can_deny();
    let Adjudication {
        cells: mut cell_loads,
        rncs: mut rnc_loads,
        cell_handoffs,
        rnc_handoffs,
        hint_grants,
        denials,
    } = run_sharded(
        topology.rncs,
        threads,
        Obs { progress: None, ..obs },
        &Adjudication::default,
        &|rnc, _| {
            let _adjudicate = span(obs.recorder, "adjudicate");
            Ok(adjudicate_rnc(topology, master_seed, &streams, &rnc_of, rnc as usize, gate))
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
        let header = ReplayCacheHeader { requests, topo_hash: topo_hash(topology) };
        let known = cache.lookup_outcomes(&header, topology.cells, obs);
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
                // Memo hit: fold the cached outcome and load deltas
                // without materializing the trace or running the engine.
                if let Some((_, header, known)) = &memo {
                    if let Some(outcome) = known.get(&(index, verdict_hashes[index as usize])) {
                        let (hits, _) = replay_counters.as_ref().expect("memo implies counters");
                        hits.incr();
                        let _replay = span(obs.recorder, "replay");
                        partial.add_user_load(&outcome.load);
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
                outcome.load = user_load(topology, master_seed, index, transitions);
                partial.add_user_load(&outcome.load);
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

            /// With both levels `always`, counting each residence
            /// segment's requests adjudicates every RNC partition
            /// exactly as gating its full event stream through
            /// `AlwaysAccept` does: the same per-cell users, grants,
            /// denials and handoff counts, the same per-cell and per-RNC
            /// handoff loads, inter-RNC handoffs and hint grants, and no
            /// denials. Same fleets as above: commuters cross RNCs and
            /// some requests fall inside a handoff hint window.
            #[test]
            fn counted_adjudication_matches_the_gated_event_path(
                shapes in vec(vec(0i64..108_000_000_000, 0..24), 0..24),
                (rncs, extra_cells, seed, commute) in
                    (1u64..=4, 0u64..6, 0u64..1_000, prop::bool::ANY),
            ) {
                let (topology, rnc_of, recorded) =
                    partition_fleet(shapes, rncs, extra_cells, commute);
                prop_assert!(!topology.can_deny());
                for rnc in 0..rncs as usize {
                    let counted = adjudicate_rnc(&topology, seed, &recorded, &rnc_of, rnc, false);
                    let gated = adjudicate_rnc(&topology, seed, &recorded, &rnc_of, rnc, true);
                    prop_assert_eq!(&counted.cells, &gated.cells, "RNC {} cells", rnc);
                    prop_assert_eq!(&counted.rncs, &gated.rncs, "RNC {}", rnc);
                    prop_assert_eq!(
                        &counted.cell_handoffs,
                        &gated.cell_handoffs,
                        "RNC {} cell handoff loads",
                        rnc
                    );
                    prop_assert_eq!(
                        &counted.rnc_handoffs,
                        &gated.rnc_handoffs,
                        "RNC {} handoff load",
                        rnc
                    );
                    prop_assert_eq!(counted.hint_grants, gated.hint_grants, "RNC {} hints", rnc);
                    prop_assert!(counted.denials.is_empty() && gated.denials.is_empty());
                }
            }
        }
    }

    mod load_props {
        use super::*;
        use proptest::prelude::*;
        use proptest::prop::collection::vec;
        use std::collections::BTreeMap;

        const CELLS: u64 = 4;

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

            /// Per-user deltas, shard partials absorbed in shard order,
            /// handoff charges and the per-RNC fold, all on sorted runs,
            /// score every cell and RNC exactly as a `BTreeMap` fold of
            /// the same charges does — over negative and zero seconds,
            /// zero-message charges, and a commuter who leaves a cell
            /// and re-enters it within one second.
            #[test]
            fn sorted_run_fold_matches_a_btreemap_fold(
                users in vec((-4i64..3, vec((0..CELLS, 0i64..3, 0u64..5), 0..24)), 0..10),
                cuts in vec(prop::bool::ANY, 11),
                mut handoffs in vec((0..CELLS, -4i64..30, 0u64..4, prop::bool::ANY), 0..16),
                (rncs, cell_cap, rnc_cap) in (1..=CELLS, 0u64..8, 0u64..20),
            ) {
                let mut topology = NetworkTopology::with_rncs(rncs, CELLS);
                topology.cell_budget = SignalingBudget::per_second(cell_cap);
                topology.rnc_budget = SignalingBudget::per_second(rnc_cap);
                let rnc_of = rnc_table(&topology);

                // Time-ordered charges per user; the first user commutes
                // 1 → 2 → 1 within second 5.
                let mut per_user = vec![vec![(1, 5, 2), (2, 5, 1), (1, 5, 3), (1, 6, 0)]];
                per_user.extend(users.into_iter().map(|(start, steps)| {
                    let mut second = start;
                    steps.into_iter().map(|(cell, gap, messages)| {
                        second += gap;
                        (cell, second, messages)
                    }).collect::<Vec<_>>()
                }));

                let empty = || TopologyPartial {
                    report: FleetReport::empty("prop".into(), "makeidle".into()),
                    seconds: vec![Load::new(); CELLS as usize],
                    fresh: Vec::new(),
                    decoded: Load::new(),
                };
                let mut shards = vec![empty()];
                for (user, charges) in per_user.iter().enumerate() {
                    let deltas = load_deltas(charges.iter().copied());
                    // Exactly what a per-user `(cell, second)` map holds.
                    let mut map = BTreeMap::<(u64, i64), u64>::new();
                    for &(cell, second, messages) in charges {
                        *map.entry((cell, second)).or_insert(0) += messages;
                    }
                    let expect: Vec<_> = map.into_iter().map(|((c, s), m)| (c, s, m)).collect();
                    prop_assert_eq!(deltas.to_triples(), expect, "user {}", user);
                    shards.last_mut().unwrap().add_user_load(&deltas);
                    if cuts.get(user).copied().unwrap_or(false) {
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

                let mut charges: Vec<(u64, i64, u64)> = per_user.concat();
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
        let record = pass_one_record(scheme, &p, &cfg, &t);

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
