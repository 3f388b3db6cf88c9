//! End-to-end hierarchical-network fleets: the two-pass runner's
//! acceptance claims.
//!
//! * A multi-RNC, multi-cell fleet run reports per-cell and per-RNC
//!   signaling load (peak msgs/sec, overload seconds, grants/denials,
//!   RNC-attributed denials) **bit-identically** at any thread count,
//!   including the rendered text.
//! * The degenerate configuration — one RNC, one cell, always-admit at
//!   both levels, unlimited budgets — reproduces the radio-isolated
//!   fleet report's deterministic aggregates exactly, at 1, 2, and 8
//!   threads.
//! * Corpus replays run through the same topology path: a `fleet
//!   synth`-materialized corpus under a network topology matches its
//!   synthetic twin bit for bit.
//! * Rate-limited cells deny requests, and denials cost energy.
//! * Load-reactive RNC admission measurably cuts RNC overload seconds
//!   versus `always` on a storm population — the energy/signaling
//!   trade adjudicated at the controller — and the same watermark on
//!   the cells sheds messages at the base stations.
//! * Only contested requests reach an admission policy: none when both
//!   levels are `always`, a fraction when a reactive RNC denies a few.

use tailwise_core::schemes::Scheme;
use tailwise_fleet::{
    cell_of, rnc_of_cell, run, run_source, run_source_sweep_cached, synth_corpus, AdmissionSpec,
    CorpusScenario, FleetReport, NetworkTopology, RequestCache, Scenario, SourceSet, SweepAxis,
    SweepReport, UserSource,
};
use tailwise_obs::{Obs, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::signaling::SignalingBudget;
use tailwise_trace::time::Duration;
use tailwise_trace::TraceFormat;
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

fn run_unobserved(source: &UserSource, threads: usize) -> FleetReport {
    run_source(source, threads, Obs::none(), None).unwrap()
}

/// A sweep against a fresh in-memory request cache.
fn sweep(set: &SourceSet, threads: usize) -> SweepReport {
    run_source_sweep_cached(set, threads, Obs::none(), Some(&RequestCache::in_memory())).unwrap()
}

/// The deterministic fields the radio-isolated and topology paths must
/// agree on when the topology is a no-op (signaling/source aside).
fn assert_same_aggregates(a: &FleetReport, b: &FleetReport) {
    assert_eq!(a.users, b.users);
    assert_eq!(a.user_days, b.user_days);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.baseline_energy_j.to_bits(), b.baseline_energy_j.to_bits());
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.baseline_switches, b.baseline_switches);
    assert_eq!(a.false_switches, b.false_switches);
    assert_eq!(a.missed_switches, b.missed_switches);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.savings, b.savings);
    assert_eq!(a.session_delays, b.session_delays);
}

#[test]
fn unlimited_single_rnc_single_cell_matches_radio_isolated_exactly() {
    let isolated = base_scenario();
    let mut celled = isolated.clone();
    celled.cells = Some(NetworkTopology::new(1));

    let reference = run(&isolated, 4);
    for threads in [1, 2, 8] {
        let report = run(&celled, threads);
        assert_same_aggregates(&report, &reference);
        let signaling = report.signaling.as_ref().expect("topology runs carry signaling");
        assert_eq!(signaling.cells.len(), 1);
        assert_eq!(signaling.rncs.len(), 1);
        assert_eq!(signaling.cells[0].users, USERS);
        assert_eq!(signaling.rncs[0].users, USERS);
        assert_eq!(signaling.rncs[0].cells, 1);
        // Always-admit at both levels: every request granted.
        assert_eq!(signaling.denied(), 0);
        assert_eq!(signaling.denied_by_rnc(), 0);
        assert!(signaling.granted() > 0);
        assert!(signaling.peak_messages_per_s() > 0);
        assert_eq!(signaling.overload_seconds(), 0, "no capacity configured");
        assert_eq!(signaling.rnc_overload_seconds(), 0);
        // One RNC over one cell: the RNC load *is* the cell load.
        assert_eq!(signaling.rncs[0].total_messages, signaling.cells[0].total_messages);
        assert_eq!(signaling.rncs[0].peak_messages_per_s, signaling.cells[0].peak_messages_per_s);
    }

    // An empty cell absorbs nothing.
    let empty = run(&Scenario { users: 0, ..celled }, 2);
    let signaling = empty.signaling.as_ref().expect("topology runs carry signaling");
    assert_eq!(empty.energy_j, 0.0);
    assert_eq!((signaling.granted(), signaling.total_messages()), (0, 0));
    assert_eq!(signaling.peak_messages_per_s(), 0);
}

#[test]
fn multi_cell_reports_are_bit_identical_at_any_thread_count() {
    let mut scenario = base_scenario();
    let mut topology = NetworkTopology::new(5);
    topology.cell_budget = SignalingBudget::per_second(60);
    topology.cell_admission = AdmissionSpec::RateLimited { min_interval: Duration::from_secs(8) };
    scenario.cells = Some(topology);

    let single = run(&scenario, 1);
    let double = run(&scenario, 2);
    let octo = run(&scenario, 8);
    assert_eq!(single, double);
    assert_eq!(single, octo);

    // Rendered reports agree byte for byte once the measured wall-clock
    // fields are normalized away.
    let rendered = |r: &FleetReport| {
        let mut r = r.clone();
        r.wall_seconds = 0.0;
        r.threads = 1;
        r.render()
    };
    assert_eq!(rendered(&single), rendered(&double));
    assert_eq!(rendered(&single), rendered(&octo));

    let signaling = single.signaling.as_ref().unwrap();
    assert_eq!(signaling.cells.len(), 5);
    assert_eq!(signaling.rncs.len(), 1);
    // Every user landed in the cell the pure assignment function names.
    let users_per_cell: Vec<u64> = signaling.cells.iter().map(|c| c.users).collect();
    let mut expect = vec![0u64; 5];
    for index in 0..scenario.users {
        expect[cell_of(scenario.master_seed, index, 5) as usize] += 1;
    }
    assert_eq!(users_per_cell, expect);
    assert_eq!(users_per_cell.iter().sum::<u64>(), USERS);

    // An 8-second shared rate limit against chatty IM users must deny —
    // and with an always-admitting RNC, no denial is RNC-attributed.
    assert!(signaling.denied() > 0, "rate limit never engaged");
    assert!(signaling.granted() > 0);
    assert_eq!(signaling.denied_by_rnc(), 0);

    // Denials push devices back onto timers: energy exceeds the
    // free-release run of the same population.
    let mut free = scenario.clone();
    free.cells = Some(NetworkTopology::new(5));
    let free = run(&free, 4);
    assert!(single.energy_j > free.energy_j, "denials must cost energy");
    assert_eq!(
        free.energy_j.to_bits(),
        run(&base_scenario(), 4).energy_j.to_bits(),
        "always-admit topologies are energy-transparent"
    );
}

#[test]
fn three_rnc_twelve_cell_hierarchy_is_bit_identical_at_any_thread_count() {
    // The full hierarchy: 12 cells in contiguous blocks of 4 under 3
    // RNCs, budgets and a load-reactive admission policy at the RNC
    // level, rate-limited cells below.
    let mut scenario = base_scenario();
    let mut topology = NetworkTopology::with_rncs(3, 12);
    topology.cell_budget = SignalingBudget::per_second(90);
    topology.rnc_budget = SignalingBudget::per_second(200);
    topology.cell_admission =
        AdmissionSpec::RateLimited { min_interval: Duration::from_secs_f64(0.5) };
    topology.rnc_admission = AdmissionSpec::LoadReactive { watermark_per_s: 2, window_s: 5 };
    scenario.cells = Some(topology);

    let single = run(&scenario, 1);
    let double = run(&scenario, 2);
    let octo = run(&scenario, 8);
    assert_eq!(single, double);
    assert_eq!(single, octo);
    let rendered = |r: &FleetReport| {
        let mut r = r.clone();
        r.wall_seconds = 0.0;
        r.threads = 1;
        r.render()
    };
    assert_eq!(rendered(&single), rendered(&double));
    assert_eq!(rendered(&single), rendered(&octo));

    let signaling = single.signaling.as_ref().unwrap();
    assert_eq!(signaling.cells.len(), 12);
    assert_eq!(signaling.rncs.len(), 3);
    // RNC aggregates are exactly the fold of their contiguous member
    // cells.
    for (r, rnc) in signaling.rncs.iter().enumerate() {
        assert_eq!(rnc.cells, 4);
        let members = signaling
            .cells
            .iter()
            .enumerate()
            .filter(|(c, _)| rnc_of_cell(*c as u64, 12, 3) == r as u64);
        let (mut users, mut granted, mut denied, mut messages) = (0, 0, 0, 0);
        for (_, cell) in members {
            users += cell.users;
            granted += cell.granted;
            denied += cell.denied;
            messages += cell.total_messages;
        }
        assert_eq!(rnc.users, users);
        assert_eq!(rnc.granted, granted);
        assert_eq!(rnc.denied, denied);
        assert_eq!(rnc.total_messages, messages);
        // Summed-per-second peak is at least any single cell's peak and
        // at most the cells' message total.
        assert!(rnc.peak_messages_per_s <= rnc.total_messages);
    }
    // The tight reactive watermark must attribute denials to the RNC.
    assert!(signaling.denied_by_rnc() > 0, "reactive RNC admission never engaged");
    assert!(signaling.granted() > 0);
    // The rendered report names the hierarchy.
    assert!(rendered(&single).contains("3 RNC(s) over 12 cell(s)"), "{}", rendered(&single));
}

#[test]
fn reactive_rnc_admission_cuts_overload_versus_always() {
    // The ISSUE acceptance claim at test scale: on a storm population
    // (chatty IM phones whose gaps sit inside the LTE tail window),
    // load-reactive RNC admission sheds enough release→re-promotion
    // cycles to measurably reduce RNC overload seconds versus the
    // paper's always-accept assumption — at the cost of energy.
    let mut scenario = base_scenario();
    scenario.carrier_mix = vec![(CarrierProfile::verizon_lte(), 1.0)];
    let mut always = NetworkTopology::with_rncs(1, 4);
    always.rnc_budget = SignalingBudget::per_second(60);
    scenario.cells = Some(always);
    let free = run(&scenario, 4);

    let watermark = AdmissionSpec::LoadReactive { watermark_per_s: 1, window_s: 5 };
    let mut reactive = scenario.clone();
    reactive.cells.as_mut().unwrap().rnc_admission = watermark.clone();
    let governed = run(&reactive, 4);

    let free_signaling = free.signaling.as_ref().unwrap();
    let governed_signaling = governed.signaling.as_ref().unwrap();
    assert!(
        free_signaling.rnc_overload_seconds() > 0,
        "storm scenario must overload the always-accept RNC"
    );
    assert!(governed_signaling.denied_by_rnc() > 0, "watermark never engaged");
    assert!(governed_signaling.granted() > 0, "governor latched shut");
    assert!(
        governed_signaling.rnc_overload_seconds() < free_signaling.rnc_overload_seconds(),
        "reactive admission must cut RNC overload seconds: {} vs {}",
        governed_signaling.rnc_overload_seconds(),
        free_signaling.rnc_overload_seconds()
    );
    assert!(
        governed_signaling.total_messages() < free_signaling.total_messages(),
        "shed releases must shed messages"
    );
    assert!(governed.energy_j > free.energy_j, "shedding load costs device energy");

    // The same watermark on each cell governs the storm at the base
    // stations instead: the cells deny, still grant, shed messages, and
    // the devices pay in energy.
    let mut reactive_cells = scenario.clone();
    reactive_cells.cells.as_mut().unwrap().cell_admission = watermark;
    let governed = run(&reactive_cells, 4);
    let governed_signaling = governed.signaling.as_ref().unwrap();
    assert!(governed_signaling.denied() > 0, "cell watermark never engaged");
    assert_eq!(governed_signaling.denied_by_rnc(), 0, "an always-accept RNC denies nothing");
    assert!(governed_signaling.granted() > 0, "cell governors latched shut");
    assert!(governed_signaling.total_messages() < free_signaling.total_messages());
    assert!(governed.energy_j > free.energy_j);
}

#[test]
fn corpus_replay_through_topology_matches_the_synthetic_run() {
    let mut scenario = base_scenario();
    let mut topology = NetworkTopology::with_rncs(2, 3);
    topology.cell_budget = SignalingBudget::per_second(80);
    topology.cell_admission = AdmissionSpec::RateLimited { min_interval: Duration::from_secs(5) };
    topology.rnc_admission = AdmissionSpec::LoadReactive { watermark_per_s: 3, window_s: 2 };
    scenario.cells = Some(topology);

    let dir = std::env::temp_dir().join(format!("tailwise-cell-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // The corpus is synthesized from the topology-free twin (topologies
    // don't change traces), then replayed under the same hierarchy.
    let mut synth_twin = scenario.clone();
    synth_twin.cells = None;
    assert_eq!(synth_corpus(&synth_twin, &dir, TraceFormat::Binary, 4).unwrap(), USERS);

    let mut corpus = CorpusScenario::new(&dir, scenario.scheme, CarrierProfile::verizon_lte());
    corpus.carrier_mix = scenario.carrier_mix.clone();
    corpus.master_seed = scenario.master_seed;
    corpus.shard_size = scenario.shard_size;
    corpus.sim = scenario.sim.clone();
    corpus.cells = scenario.cells.clone();

    let recorder = StatsRecorder::new();
    let obs = Obs { recorder: &recorder, progress: None };
    let replayed = run_source(&UserSource::Corpus(corpus.clone()), 2, obs, None).unwrap();
    // Both passes load every trace, and every load counts.
    assert_eq!(recorder.snapshot().counter("traces_loaded"), 2 * USERS);
    let synthetic = run(&scenario, 4);
    assert_same_aggregates(&replayed, &synthetic);
    assert_eq!(replayed.signaling, synthetic.signaling, "per-element loads must match");
    // And the corpus topology run is itself thread-count invariant.
    assert_eq!(replayed, run_unobserved(&UserSource::Corpus(corpus), 8));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cell_scheme_sweeps_carry_signaling_columns() {
    let mut scenario = base_scenario();
    let mut topology = NetworkTopology::new(2);
    topology.cell_budget = SignalingBudget::per_second(40);
    scenario.cells = Some(topology);
    let set = SourceSet {
        source: UserSource::Synthetic(scenario.clone()),
        axes: vec![SweepAxis::Schemes(vec![Scheme::StatusQuo, Scheme::MakeIdle, Scheme::Oracle])],
    };
    let sweep = sweep(&set, 2);
    assert_eq!(sweep.rows.len(), 3);
    for row in &sweep.rows {
        let signaling = row.report.signaling.as_ref().expect("every topology run has signaling");
        assert_eq!(signaling.cells.len(), 2);
        assert_eq!(signaling.cell_capacity_per_s, Some(40));
        // Each cell reproduces standalone at a different thread count.
        assert_eq!(row.report, run_unobserved(&row.source, 1), "{}", row.label);
    }
    // Status quo never requests fast dormancy; MakeIdle does.
    assert_eq!(sweep.rows[0].report.signaling.as_ref().unwrap().granted(), 0);
    assert!(sweep.rows[1].report.signaling.as_ref().unwrap().granted() > 0);
    let table = sweep.render();
    assert!(table.contains("peak m/s"), "{table}");
    assert!(table.contains("rnc ovl"), "{table}");
    assert!(table.contains("denied"), "{table}");
    assert!(table.contains("dly p95"), "{table}");
}

#[test]
fn admission_sweeps_vary_the_rnc_policy_only() {
    let mut scenario = base_scenario();
    scenario.carrier_mix = vec![(CarrierProfile::verizon_lte(), 1.0)];
    let mut topology = NetworkTopology::with_rncs(1, 2);
    topology.rnc_budget = SignalingBudget::per_second(60);
    scenario.cells = Some(topology);
    let set = SourceSet {
        source: UserSource::Synthetic(scenario),
        axes: vec![SweepAxis::Admission(vec![
            AdmissionSpec::Always,
            AdmissionSpec::LoadReactive { watermark_per_s: 1, window_s: 5 },
        ])],
    };
    let sweep = sweep(&set, 2);
    assert_eq!(sweep.rows.len(), 2);
    assert_eq!(sweep.rows[0].label, "admission=always");
    assert_eq!(sweep.rows[1].label, "admission=reactive:1:5");
    // Both rows reproduce standalone, and the reactive row denies at
    // the RNC while the always row cannot.
    for row in &sweep.rows {
        assert_eq!(row.report, run_unobserved(&row.source, 1), "{}", row.label);
    }
    assert_eq!(sweep.rows[0].report.signaling.as_ref().unwrap().denied_by_rnc(), 0);
    assert!(sweep.rows[1].report.signaling.as_ref().unwrap().denied_by_rnc() > 0);
    let table = sweep.render();
    assert!(table.contains("admission=reactive:1:5"), "{table}");
}

#[test]
fn makeactive_delays_surface_as_population_percentiles() {
    // The MakeActive accounting satellite: a batching fleet reports
    // session-delay percentiles; a plain MakeIdle fleet reports none.
    let mut scenario = base_scenario();
    scenario.scheme = Scheme::MakeIdleActiveLearn;
    let report = run(&scenario, 4);
    assert!(report.session_delays.count() > 0, "learning batcher never delayed a session");
    let p50 = report.session_delay_percentile(0.50).unwrap();
    let p95 = report.session_delay_percentile(0.95).unwrap();
    let p99 = report.session_delay_percentile(0.99).unwrap();
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone: {p50} {p95} {p99}");
    assert!(report.render().contains("sessions held by MakeActive"), "{}", report.render());
    // Bit-identical across thread counts, like every other aggregate.
    assert_eq!(report.session_delays, run(&scenario, 1).session_delays);

    let plain = run(&base_scenario(), 4);
    assert_eq!(plain.session_delays.count(), 0);
    assert_eq!(plain.session_delay_percentile(0.95), None);
}

#[test]
fn only_contested_requests_reach_an_admission_policy() {
    // `requests_gated` counts the requests fed through an admission
    // policy. With both levels `always` no verdict can be a denial, so
    // none is; a reactive RNC gates at least the requests it denies,
    // but not the ones its all-grant load bound proves it grants.
    let mut scenario = base_scenario();
    scenario.carrier_mix = vec![(CarrierProfile::verizon_lte(), 1.0)];
    scenario.cells = Some(NetworkTopology::with_rncs(1, 4));
    let counters = |scenario: &Scenario| {
        let recorder = StatsRecorder::new();
        let obs = Obs { recorder: &recorder, progress: None };
        run_source(&UserSource::Synthetic(scenario.clone()), 2, obs, None).unwrap();
        let snapshot = recorder.snapshot();
        let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        (count("requests_granted"), count("requests_denied"), count("requests_gated"))
    };
    let (granted, denied, gated) = counters(&scenario);
    assert!(granted > 0);
    assert_eq!((denied, gated), (0, 0), "an all-`always` run gates nothing");

    scenario.cells.as_mut().unwrap().rnc_admission =
        AdmissionSpec::LoadReactive { watermark_per_s: 8, window_s: 5 };
    let (granted, denied, gated) = counters(&scenario);
    assert!(denied > 0, "the watermark never engaged");
    assert!(
        (denied..granted + denied).contains(&gated),
        "{gated} requests gated of {granted} granted and {denied} denied"
    );
}
