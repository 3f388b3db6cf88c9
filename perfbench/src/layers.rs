//! The traced run's own instrumentation: an in-memory span log, and
//! replays of a workload's users through each layer's public function
//! with a span around every call.

use std::fs::File;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tailwise_core::{MakeIdle, Scheme};
use tailwise_fleet::{cell_of, merge_requests, rnc_of_cell, Scenario};
use tailwise_sim::engine::SimConfig;
use tailwise_sim::policy::IdleContext;
use tailwise_trace::io::{
    read_replay_outcomes, read_request_streams, write_replay_outcomes, write_request_streams,
};
use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::Instant as SimInstant;

use crate::json::{self, Obj};

/// Schemes whose full engine run is timed per user.
const RUN_SCHEMES: [Scheme; 4] =
    [Scheme::StatusQuo, Scheme::MakeIdle, Scheme::Oracle, Scheme::MakeIdleActiveLearn];

/// `merge_requests` is fast next to the other layers; repeating it
/// keeps its span well above clock resolution.
const MERGE_REPS: u64 = 50;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, run: u64) -> usize {
        let start_ns = self.now_ns();
        let name = name.into();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run, attrs: Vec::new() });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, attrs: &[(&'static str, f64)]) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.attrs.extend_from_slice(attrs);
    }

    pub fn json(&self) -> String {
        json::array(self.spans.iter().map(|s| {
            let attrs = s.attrs.iter().fold(Obj::new(), |obj, (k, v)| obj.num(k, *v));
            let obj = Obj::new()
                .str("name", &s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("run", s.run);
            match s.parent {
                Some(parent) => obj.int("parent", parent as u64),
                None => obj.raw("parent", "null".into()),
            }
            .raw("attrs", attrs.render())
            .render()
        }))
    }
}

/// Replays users `0..users` of `scenario` through every per-user layer,
/// then merges their request streams per RNC of a `cells` × `rncs`
/// topology. Every call gets its own span under `parent`.
pub fn replay_users(
    tracer: &mut Tracer,
    parent: usize,
    scenario: &Scenario,
    users: u64,
    (cells, rncs): (u64, u64),
) {
    let sim = &scenario.sim;
    let replay_sim =
        SimConfig { record_transitions: true, transition_log_limit: usize::MAX, ..sim.clone() };
    let mut by_rnc: Vec<Vec<(u64, Vec<SimInstant>)>> = vec![Vec::new(); rncs as usize];
    for index in 0..users {
        let user = tracer.open("user", Some(parent), index);
        let span = tracer.open("workload.generate", Some(user), index);
        let (profile, model) = scenario.user(index);
        let trace = black_box(model.generate());
        let packets = trace.len() as f64;
        tracer.close(span, &[("packets", packets)]);

        // The window as the engine keeps it: one push per packet gap.
        let gaps = trace.gaps();
        let span = tracer.open("trace.window_push", Some(user), index);
        let mut window = SlidingWindow::new(sim.window_capacity);
        for &gap in &gaps {
            window.push(gap);
        }
        black_box(&window);
        tracer.close(span, &[("pushes", gaps.len() as f64)]);

        // The same pushes with a MakeIdle decision before each one, as
        // the engine asks for it; the decision's own cost is this span
        // minus the push-only span above.
        let span = tracer.open("core.window_push_and_decide", Some(user), index);
        let mut window = SlidingWindow::new(sim.window_capacity);
        let mut policy = MakeIdle::new();
        let mut engaged = 0u64;
        for (packet, &gap) in trace.packets().iter().zip(&gaps) {
            let ctx = IdleContext { profile: &profile, window: &window, now: packet.ts };
            if black_box(policy.best_wait(&ctx)).is_some() {
                engaged += 1;
            }
            window.push(gap);
        }
        tracer.close(
            span,
            &[
                ("pushes", gaps.len() as f64),
                ("decisions", gaps.len() as f64),
                ("engaged", engaged as f64),
            ],
        );

        let span = tracer.open("core.extract", Some(user), index);
        let requests =
            Scheme::MakeIdle.request_trace(&profile, sim, &trace).expect("MakeIdle is scriptable");
        tracer.close(span, &[("packets", packets), ("requests", requests.len() as f64)]);

        for scheme in RUN_SCHEMES {
            let span = tracer.open(format!("core.run.{scheme}"), Some(user), index);
            black_box(scheme.run(&profile, sim, &trace));
            tracer.close(span, &[("packets", packets)]);
        }

        let verdicts = vec![true; requests.len()];
        let span = tracer.open("sim.replay", Some(user), index);
        black_box(Scheme::MakeIdle.run_scripted(&profile, &replay_sim, &trace, &verdicts));
        tracer.close(span, &[("packets", packets)]);

        tracer.close(user, &[("packets", packets)]);
        let rnc = rnc_of_cell(cell_of(scenario.master_seed, index, cells), cells, rncs);
        by_rnc[rnc as usize].push((index, requests.times));
    }

    for (rnc, streams) in by_rnc.iter().enumerate() {
        let requests: usize = streams.iter().map(|(_, times)| times.len()).sum();
        let span = tracer.open("fleet.merge", Some(parent), rnc as u64);
        for _ in 0..MERGE_REPS {
            black_box(merge_requests(black_box(streams)));
        }
        tracer.close(
            span,
            &[
                ("requests", (requests as u64 * MERGE_REPS) as f64),
                ("streams", streams.len() as f64),
            ],
        );
    }
}

/// Reads every `.twc` and `.twr` spill in `dir` back, and writes what
/// it read to `scratch`, with a span around each call.
pub fn roundtrip_spills(
    tracer: &mut Tracer,
    parent: usize,
    dir: &Path,
    scratch: &Path,
) -> Result<(), String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .collect();
    paths.sort();
    let copy = scratch.join("spill.copy");
    for (run, path) in paths.iter().enumerate() {
        let kind = match path.extension().and_then(|e| e.to_str()) {
            Some(kind @ ("twc" | "twr")) => kind,
            _ => continue,
        };
        let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
        let open = |p: &Path| File::open(p).map_err(|e| format!("{}: {e}", p.display()));
        let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let attrs = [("bytes", bytes)];
        if kind == "twc" {
            let span = tracer.open("trace.spill_read.twc", Some(parent), run as u64);
            let (header, streams) = read_request_streams(open(path)?).map_err(|e| e.to_string())?;
            tracer.close(span, &attrs);
            let span = tracer.open("trace.spill_write.twc", Some(parent), run as u64);
            write_request_streams(&header, &streams, create(&copy)?).map_err(|e| e.to_string())?;
            tracer.close(span, &attrs);
        } else {
            let span = tracer.open("trace.spill_read.twr", Some(parent), run as u64);
            let (header, records) = read_replay_outcomes(open(path)?).map_err(|e| e.to_string())?;
            tracer.close(span, &attrs);
            let span = tracer.open("trace.spill_write.twr", Some(parent), run as u64);
            write_replay_outcomes(&header, &records, create(&copy)?).map_err(|e| e.to_string())?;
            tracer.close(span, &attrs);
        }
    }
    let _ = std::fs::remove_file(&copy);
    Ok(())
}
