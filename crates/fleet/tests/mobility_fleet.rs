//! End-to-end mobile fleets: the mobility subsystem's acceptance
//! claims.
//!
//! * A `mobility = "static"` fleet is **bit-identical** to the same
//!   scenario with no mobility spelled at all — rendered text included
//!   — at 1, 2, and 8 threads, and reports zero handoffs. Movement is
//!   strictly opt-in; today's outputs never change underneath anyone.
//! * A commuting fleet is itself bit-identical at 1, 2, and 8 threads
//!   (rendered text included) with nonzero handoff counters: movement
//!   is a pure function of (seed, user, time), so the thread count can
//!   never leak into where a request lands.
//! * Handoffs are conserved (every departure arrives), the manifest
//!   round-trips the counters, and the rendered report names them.
//! * Commute handoff waves add signaling load on top of the release
//!   storm, and the load-reactive RNC governor claws a fraction of the
//!   overload back — the `scenarios/handoff_storm.toml` claim at test
//!   scale.
//! * The residence-time hint lets schemes demote early: requests made
//!   within the hint window of an upcoming handoff bypass admission,
//!   so a hinted fleet grants strictly more than its unhinted twin.

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    run, run_source, AdmissionSpec, FleetReport, MobilitySpec, NetworkTopology, RunManifest,
    Scenario, UserSource,
};
use tailwise_obs::{Obs, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::signaling::SignalingBudget;
use tailwise_trace::time::Duration;
use tailwise_workload::apps::AppKind;

/// The harness population: the smallest that still spans several
/// shards with a ragged last one, and still denies, overloads and hands
/// off wherever a test claims it does.
const USERS: u64 = 10;

fn base_scenario() -> Scenario {
    let mut s = Scenario::new(USERS, Scheme::MakeIdle, CarrierProfile::verizon_lte());
    s.master_seed = 0xCE11;
    s.shard_size = 3; // 4 shards, the last one ragged
    s.sim.window_capacity = 25; // smaller predictor window: CI speed
    s.app_mix = vec![(AppKind::Im, 1.0)];
    s.carrier_mix = vec![(CarrierProfile::verizon_lte(), 2.0), (CarrierProfile::att_hspa(), 1.0)];
    s
}

/// Rendered text with the measured wall-clock fields (excluded from
/// the determinism contract) normalized away.
fn rendered(r: &FleetReport) -> String {
    let mut r = r.clone();
    r.wall_seconds = 0.0;
    r.threads = 1;
    r.render()
}

#[test]
fn explicit_static_mobility_is_bit_identical_to_none_at_any_thread_count() {
    let mut implicit = base_scenario();
    let mut topology = NetworkTopology::with_rncs(3, 12);
    topology.cell_budget = SignalingBudget::per_second(90);
    implicit.cells = Some(topology);
    let mut explicit = implicit.clone();
    explicit.cells.as_mut().unwrap().mobility = MobilitySpec::Static;

    let reference = run(&implicit, 4);
    for threads in [1, 2, 8] {
        let report = run(&explicit, threads);
        assert_eq!(report, reference, "threads={threads}");
        assert_eq!(rendered(&report), rendered(&reference), "threads={threads}");
    }
    let signaling = reference.signaling.as_ref().unwrap();
    assert_eq!(signaling.handoffs(), 0, "a static fleet never hands off");
    assert_eq!(signaling.inter_rnc_handoffs(), 0);
    assert!(
        !rendered(&reference).contains("handoff"),
        "static reports must not grow handoff lines:\n{}",
        rendered(&reference)
    );
}

#[test]
fn commute_fleets_are_bit_identical_at_any_thread_count_with_nonzero_handoffs() {
    let mut scenario = base_scenario();
    let mut topology = NetworkTopology::with_rncs(3, 12);
    topology.cell_budget = SignalingBudget::per_second(90);
    topology.mobility = MobilitySpec::commute();
    scenario.cells = Some(topology);

    let single = run(&scenario, 1);
    let double = run(&scenario, 2);
    let octo = run(&scenario, 8);
    assert_eq!(single, double);
    assert_eq!(single, octo);
    assert_eq!(rendered(&single), rendered(&double));
    assert_eq!(rendered(&single), rendered(&octo));

    let signaling = single.signaling.as_ref().unwrap();
    assert!(signaling.handoffs() > 0, "a commuting fleet must hand off");
    assert!(
        signaling.inter_rnc_handoffs() > 0,
        "commutes across 3 RNC blocks must cross a boundary"
    );
    // Conservation: every departure arrives somewhere.
    let (ins, outs): (u64, u64) =
        signaling.cells.iter().fold((0, 0), |(i, o), c| (i + c.handoffs_in, o + c.handoffs_out));
    assert_eq!(ins, outs, "handoffs in and out must balance across the fleet");
    // The rendered report names the movement.
    let text = rendered(&single);
    assert!(text.contains("handoffs"), "{text}");
    assert!(text.contains("across RNC boundaries"), "{text}");

    // The manifest round-trips the counters bit for bit.
    let manifest = RunManifest::for_report(
        &single,
        1,
        scenario.master_seed,
        &tailwise_obs::StatsRecorder::new().snapshot(),
    );
    let again = RunManifest::from_toml_str(&manifest.to_toml_string()).unwrap();
    let parsed = again.reports[0].signaling.as_ref().unwrap();
    assert_eq!(parsed.handoffs, signaling.handoffs());
    assert_eq!(parsed.inter_rnc_handoffs, signaling.inter_rnc_handoffs());
    assert_eq!(again.digest(), manifest.digest());
}

#[test]
fn commute_raises_rnc_load_and_the_reactive_governor_claws_back() {
    // The handoff_storm.toml claim at test scale: same storm
    // population, one static topology, one commuting. Handoff
    // exchanges add messages on top of the release storm, raising RNC
    // overload; a load-reactive governor then sheds releases (never
    // handoffs — phones move regardless) and recovers a fraction.
    let mut scenario = base_scenario();
    scenario.carrier_mix = vec![(CarrierProfile::verizon_lte(), 1.0)];
    let mut topology = NetworkTopology::with_rncs(3, 12);
    topology.rnc_budget = SignalingBudget::per_second(20);
    scenario.cells = Some(topology.clone());
    let still = run(&scenario, 4);

    let mut moving = scenario.clone();
    moving.cells.as_mut().unwrap().mobility = MobilitySpec::commute();
    let commuting = run(&moving, 4);

    let still_signaling = still.signaling.as_ref().unwrap();
    let commuting_signaling = commuting.signaling.as_ref().unwrap();
    assert!(
        commuting_signaling.total_messages() > still_signaling.total_messages(),
        "handoff exchanges must add messages: {} vs {}",
        commuting_signaling.total_messages(),
        still_signaling.total_messages()
    );
    assert!(
        still_signaling.rnc_overload_seconds() > 0,
        "storm scenario must overload the always-accept RNCs"
    );
    assert!(
        commuting_signaling.rnc_overload_seconds() > still_signaling.rnc_overload_seconds(),
        "handoff waves must raise RNC overload: {} vs {}",
        commuting_signaling.rnc_overload_seconds(),
        still_signaling.rnc_overload_seconds()
    );

    let mut governed = moving.clone();
    governed.cells.as_mut().unwrap().rnc_admission =
        AdmissionSpec::LoadReactive { watermark_per_s: 1, window_s: 5 };
    let clawed = run(&governed, 4);
    let clawed_signaling = clawed.signaling.as_ref().unwrap();
    assert!(clawed_signaling.denied_by_rnc() > 0, "watermark never engaged");
    assert!(
        clawed_signaling.rnc_overload_seconds() < commuting_signaling.rnc_overload_seconds(),
        "the governor must claw overload back: {} vs {}",
        clawed_signaling.rnc_overload_seconds(),
        commuting_signaling.rnc_overload_seconds()
    );
    assert!(
        clawed_signaling.handoffs() == commuting_signaling.handoffs(),
        "admission governs releases, never movement"
    );
    assert!(clawed.energy_j > commuting.energy_j, "shedding load costs device energy");
}

#[test]
fn residence_hints_bypass_admission_near_handoffs() {
    // A commuting fleet under a blunt rate limit, with and without the
    // residence-time hint. Requests inside the hint window of an
    // upcoming handoff bypass both admission gates (the device is
    // about to leave; holding its tail to protect this cell's budget
    // buys nothing), so the hinted twin grants more and the
    // `hint_grants` counter says why.
    let mut scenario = base_scenario();
    let mut topology = NetworkTopology::with_rncs(3, 12);
    topology.cell_admission = AdmissionSpec::RateLimited { min_interval: Duration::from_secs(8) };
    topology.mobility = MobilitySpec::Commute {
        home_hour: 8,
        work_hour: 17,
        jitter_pct: 5,
        hint_s: 1800, // a wide window so the storm population hits it
    };
    scenario.cells = Some(topology);

    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let hinted = run_source(&UserSource::Synthetic(scenario.clone()), 4, obs, None).unwrap();
    let snapshot = recorder.snapshot();
    let hint_grants = snapshot.counters.get("hint_grants").copied().unwrap_or(0);
    assert!(hint_grants > 0, "the hint window never fired on a commuting storm");

    let mut unhinted = scenario.clone();
    match &mut unhinted.cells.as_mut().unwrap().mobility {
        MobilitySpec::Commute { hint_s, .. } => *hint_s = 0,
        MobilitySpec::Static => unreachable!(),
    }
    let muted = run(&unhinted, 4);
    let hinted_signaling = hinted.signaling.as_ref().unwrap();
    let muted_signaling = muted.signaling.as_ref().unwrap();
    assert!(
        hinted_signaling.granted() > muted_signaling.granted(),
        "hints must grant requests the rate limit would have denied: {} vs {}",
        hinted_signaling.granted(),
        muted_signaling.granted()
    );
    assert_eq!(
        hinted_signaling.handoffs(),
        muted_signaling.handoffs(),
        "the hint changes admission, not movement"
    );
}
