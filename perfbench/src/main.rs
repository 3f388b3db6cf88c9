//! `perfbench`: runs one benchmark workload of the tailwise workspace
//! through its public APIs and writes the raw measurements as one JSON
//! document. `perfbench/run.py` builds and runs this binary, checks
//! the outputs and derives the reported metrics (see
//! `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <storm_sweep|serve_jobs> --seed <n> --seconds <s>
//!           --trace <0|1> --out <file.json> --work <dir>
//! ```
//!
//! With `--trace 0` the document holds the untraced end-to-end
//! samples. With `--trace 1` it holds the traced run instead: the span
//! log of the layer replays and of one traced pass of the workload, and
//! the recorder snapshots of that pass.

mod json;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tailwise_fleet::{RequestCache, Scenario, SourceSet, UserSource};
use tailwise_obs::{Obs, Recorder, Snapshot, StatsRecorder};

use json::Obj;
use layers::Tracer;
use workloads::{Env, JobRecord, Op, Service};

/// Set-up samples per run, taken before the timed body; run.py reports
/// their median.
const SETUP_SAMPLES: usize = 25;
/// Each sample is the mean of this many set-ups.
const SETUP_BATCH: usize = 10;
/// Pause before each sample. One set-up takes tens to hundreds of
/// microseconds, and on a shared host its cost varies up to twofold
/// from one moment to the next; pacing the samples over a second keeps
/// one busy moment from setting a run's median.
const SETUP_PAUSE: Duration = Duration::from_millis(40);
/// A served run holds at least this many jobs, so its p90 has ten
/// samples beyond it.
const MIN_JOBS: usize = 100;
/// Otherwise it holds this many jobs per second of `--seconds`: a fixed
/// count, so memory retained per job compares across runs.
const JOBS_PER_SECOND: f64 = 4.0;
/// No timed body runs past this, whatever `--seconds` asks.
const HARD_CAP_S: f64 = 150.0;
/// Warm sweeps after each cold one.
const WARM_REPS: usize = 2;
/// Users of each workload replayed through the layer functions.
const LAYER_USERS: u64 = 16;
/// Population of the scenario a sweep's traced run submits to a server.
const SERVE_LEG_USERS: u64 = 24;
/// Jobs in each session of the served workload's traced run.
const TRACE_JOBS: usize = 25;

const USAGE: &str = "usage: perfbench --workload <storm_sweep|serve_jobs> \
                     --seed <n> --seconds <s> --trace <0|1> --out <file.json> --work <dir>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    work: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            values.insert(key.to_string(), value);
        }
        let mut take = |key: &str| values.remove(key).ok_or(format!("--{key} is required"));
        let args = Args {
            workload: take("workload")?,
            seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            out: take("out")?.into(),
            work: take("work")?.into(),
        };
        if let Some(key) = values.keys().next() {
            return Err(format!("unknown flag --{key}"));
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|doc| {
        std::fs::write(&args.out, doc).map_err(|e| format!("{}: {e}", args.out.display()))
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env { seed: args.seed, threads: nproc.min(2) };
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let mut ops = Vec::new();
    let doc = Obj::new()
        .str("workload", &args.workload)
        .int("seed", env.seed)
        .int("threads", env.threads as u64)
        .int("nproc", nproc as u64)
        .bool("trace", args.trace);
    let doc = match args.workload.as_str() {
        "storm_sweep" => sweep_workload(args, env, &mut ops, doc)?,
        "serve_jobs" => serve_workload(args, env, &mut ops, doc)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(doc.raw("ops", json::array(ops.iter().map(Op::json))).render() + "\n")
}

/// A new empty directory at `path`.
fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    remove_dir(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

/// Times set-up `SETUP_SAMPLES` times. Each sample is the mean of
/// `SETUP_BATCH` calls of `set_up`, each on a new directory under
/// `work`; `tear_down` undoes them after the sample, untimed.
fn time_setups<T>(
    work: &Path,
    set_up: impl Fn(&Path) -> Result<T, String>,
    tear_down: impl Fn(T) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let dirs: Vec<PathBuf> = (0..SETUP_BATCH).map(|i| work.join(format!("setup-{i}"))).collect();
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        std::thread::sleep(SETUP_PAUSE);
        let start = Instant::now();
        let made = dirs.iter().map(|dir| set_up(dir)).collect::<Result<Vec<T>, String>>()?;
        samples.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        made.into_iter().try_for_each(&tear_down)?;
        dirs.iter().for_each(|dir| remove_dir(dir));
    }
    Ok(samples)
}

/// The base scenario of `set` and its cells × RNCs.
fn base_scenario(set: &SourceSet) -> Result<(Scenario, (u64, u64)), String> {
    match &set.source {
        UserSource::Synthetic(scenario) => {
            let cells = scenario.cells.as_ref().ok_or("benchmark workloads have cells")?;
            Ok((scenario.clone(), (cells.cells, cells.rncs)))
        }
        UserSource::Corpus(_) => Err("benchmark workloads are synthetic".into()),
    }
}

fn sweep_workload(args: &Args, env: Env, ops: &mut Vec<Op>, doc: Obj) -> Result<Obj, String> {
    let text = workloads::storm_text(env.seed);
    let set = workloads::parse(&text)?;
    let cache_dir = args.work.join("cache");
    if args.trace {
        return sweep_traced(args, env, &set, &text, ops, doc);
    }

    // Set-up: parse the scenario and open a disk cache on a new directory.
    let set_up = |dir: &Path| {
        let set = workloads::parse(&text)?;
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let cache = RequestCache::with_dir(dir).map_err(|e| e.to_string())?;
        Ok((set, cache))
    };
    let setup_s = time_setups(&args.work, set_up, |_| Ok(()))?;

    // A warm sweep only adjudicates and folds memoized outcomes, so a
    // few of them fit next to each cold sweep.
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_start = Instant::now();
        let dir = fresh_dir(cache_dir.clone())?;
        let none = (Obs::none(), Obs::none());
        match workloads::sweep_rep(&set, env, &dir, none, WARM_REPS, ops) {
            Ok(rep) => reps.push(rep),
            Err(error) => {
                ops.push(Op { phase: "cold", key: "sweep".into(), digest: Err(error) });
                break;
            }
        }
        // Another cold sweep starts only while it should end within half
        // a sweep of the budget.
        let elapsed = start.elapsed().as_secs_f64();
        let last = rep_start.elapsed().as_secs_f64();
        if elapsed + last / 2.0 > args.seconds || elapsed > HARD_CAP_S {
            break;
        }
        remove_dir(&dir);
    }
    let measured_s = start.elapsed().as_secs_f64();
    // The last cold sweep's spills stay for one recorded, untimed warm
    // sweep that shows whether the warm phase recomputed anything.
    let warm_check =
        if reps.is_empty() { None } else { Some(workloads::warm_snapshot(&set, env, &cache_dir)?) };
    remove_dir(&cache_dir);
    let mut doc = doc
        .raw("setup_s", json::numbers(&setup_s))
        .num("measured_s", measured_s)
        .raw("reps", json::array(reps.iter().map(|rep| rep.json())));
    if let Some(snapshot) = warm_check {
        doc = doc.raw("warm_check", snapshot_json(&snapshot, 0.0, 0.0));
    }
    Ok(doc)
}

fn sweep_traced(
    args: &Args,
    env: Env,
    set: &SourceSet,
    text: &str,
    ops: &mut Vec<Op>,
    doc: Obj,
) -> Result<Obj, String> {
    let (base, topology) = base_scenario(set)?;
    let mut tracer = Tracer::new();
    let root = tracer.open("run", None, 0);

    let span = tracer.open("layers", Some(root), 0);
    layers::replay_users(&mut tracer, span, &base, LAYER_USERS.min(base.users), topology);
    tracer.close(span, &[]);

    // A warm-up pass, then the untraced pass the traced one is compared
    // with: the first pass of a process runs measurably slower.
    let cache_dir = args.work.join("cache");
    for name in ["fleet.warmup", "fleet.untraced"] {
        let span = tracer.open(name, Some(root), 0);
        let dir = fresh_dir(cache_dir.clone())?;
        workloads::sweep_rep(set, env, &dir, (Obs::none(), Obs::none()), 1, ops)?;
        tracer.close(span, &[]);
    }

    let cold = StatsRecorder::new();
    let warm = StatsRecorder::new();
    let span = tracer.open("fleet.traced", Some(root), 1);
    let dir = fresh_dir(cache_dir)?;
    let cpu = workloads::cpu_seconds();
    let rep = workloads::sweep_rep(
        set,
        env,
        &dir,
        (Obs { recorder: &cold, progress: None }, Obs { recorder: &warm, progress: None }),
        1,
        ops,
    )?;
    let cpu = workloads::cpu_seconds() - cpu;
    let warm_s = rep.warm_s[0];
    tracer.close(span, &[("cold_s", rep.cold_s), ("warm_s", warm_s), ("cpu_s", cpu)]);

    let span = tracer.open("spills", Some(root), 0);
    layers::roundtrip_spills(&mut tracer, span, &dir, &args.work)?;
    tracer.close(span, &[]);
    remove_dir(&dir);

    let leg = workloads::with_users(text, SERVE_LEG_USERS);
    let span = tracer.open("serve", Some(root), 0);
    let jobs = traced_session(&mut tracer, span, env, &args.work, vec![leg.clone(), leg], ops)?;
    tracer.close(span, &[]);
    tracer.close(root, &[]);

    let phases = Obj::new()
        .raw("cold", snapshot_json(&cold.snapshot(), rep.cold_s, cpu))
        .raw("warm", snapshot_json(&warm.snapshot(), warm_s, 0.0));
    Ok(doc
        .raw("jobs", json::array(jobs.iter().map(JobRecord::json)))
        .raw("phases", phases.render())
        .raw("spans", tracer.json()))
}

/// Runs `texts` as jobs on a new service over a new cache directory,
/// with a `serve.job` span around each.
fn traced_session(
    tracer: &mut Tracer,
    parent: usize,
    env: Env,
    work: &Path,
    texts: Vec<String>,
    ops: &mut Vec<Op>,
) -> Result<Vec<JobRecord>, String> {
    let dir = fresh_dir(work.join("serve-cache"))?;
    let mut service = Service::start(env, &dir)?;
    let specs = texts.into_iter().enumerate().map(|(i, text)| workloads::JobSpec {
        key: "leg".into(),
        text,
        repeat: i > 0,
    });
    let jobs = traced_jobs(tracer, parent, &mut service, specs, ops);
    service.stop()?;
    remove_dir(&dir);
    Ok(jobs)
}

fn traced_jobs(
    tracer: &mut Tracer,
    parent: usize,
    service: &mut Service,
    specs: impl Iterator<Item = workloads::JobSpec>,
    ops: &mut Vec<Op>,
) -> Vec<JobRecord> {
    let mut jobs = Vec::new();
    for (run, spec) in specs.enumerate() {
        let span = tracer.open("serve.job", Some(parent), run as u64);
        let mut record = workloads::serve_session(service, std::iter::once(spec), |_| true, ops);
        match record.pop() {
            Some(job) => {
                tracer.close(
                    span,
                    &[
                        ("latency_s", job.latency_s),
                        ("wall_s", job.wall_s),
                        ("rss_kib", job.rss_kib as f64),
                        ("repeat", f64::from(u8::from(job.repeat))),
                    ],
                );
                jobs.push(job);
            }
            None => tracer.close(span, &[]),
        }
    }
    jobs
}

fn serve_workload(args: &Args, env: Env, ops: &mut Vec<Op>, doc: Obj) -> Result<Obj, String> {
    if args.trace {
        return serve_traced(args, env, ops, doc);
    }
    // Set-up: parse one population's job texts, create the cache
    // directory, bind and start the server, connect the client.
    let first: Vec<_> = workloads::job_sequence(env.seed).take(5).collect();
    let set_up = |dir: &Path| {
        for spec in &first {
            workloads::parse(&spec.text)?;
        }
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        Service::start(env, dir)
    };
    let setup_s = time_setups(&args.work, set_up, Service::stop)?;
    let cache_dir = fresh_dir(args.work.join("serve-cache"))?;
    let mut service = Service::start(env, &cache_dir)?;

    let count = MIN_JOBS.max((JOBS_PER_SECOND * args.seconds) as usize);
    let start = Instant::now();
    let jobs = workloads::serve_session(
        &mut service,
        workloads::job_sequence(env.seed).take(count),
        |_| start.elapsed().as_secs_f64() < HARD_CAP_S,
        ops,
    );
    let measured_s = start.elapsed().as_secs_f64();
    service.stop()?;
    remove_dir(&cache_dir);
    Ok(doc
        .raw("setup_s", json::numbers(&setup_s))
        .num("measured_s", measured_s)
        .raw("jobs", json::array(jobs.iter().map(JobRecord::json))))
}

fn serve_traced(args: &Args, env: Env, ops: &mut Vec<Op>, doc: Obj) -> Result<Obj, String> {
    let first = workloads::job_sequence(env.seed).next().expect("an endless sequence");
    let (base, topology) = base_scenario(&workloads::parse(&first.text)?)?;
    let mut tracer = Tracer::new();
    let root = tracer.open("run", None, 0);

    let span = tracer.open("layers", Some(root), 0);
    layers::replay_users(&mut tracer, span, &base, LAYER_USERS.min(base.users), topology);
    tracer.close(span, &[]);

    // Warm-up, untraced and traced sessions, as for the sweeps.
    let cache_dir = args.work.join("serve-cache");
    for name in ["fleet.warmup", "fleet.untraced"] {
        let span = tracer.open(name, Some(root), 0);
        let dir = fresh_dir(cache_dir.clone())?;
        let mut service = Service::start(env, &dir)?;
        let specs = workloads::job_sequence(env.seed).take(TRACE_JOBS);
        workloads::serve_session(&mut service, specs, |_| true, ops);
        service.stop()?;
        tracer.close(span, &[]);
    }

    let span = tracer.open("fleet.traced", Some(root), 1);
    let dir = fresh_dir(cache_dir)?;
    let mut service = Service::start(env, &dir)?;
    let cpu = workloads::cpu_seconds();
    let specs = workloads::job_sequence(env.seed).take(TRACE_JOBS);
    let jobs = traced_jobs(&mut tracer, span, &mut service, specs, ops);
    let cpu = workloads::cpu_seconds() - cpu;
    tracer.close(span, &[("cpu_s", cpu)]);

    let span = tracer.open("spills", Some(root), 0);
    layers::roundtrip_spills(&mut tracer, span, &dir, &args.work)?;
    tracer.close(span, &[]);
    service.stop()?;
    remove_dir(&dir);
    tracer.close(root, &[]);

    let all: Vec<&JobRecord> = jobs.iter().collect();
    let repeats: Vec<&JobRecord> = jobs.iter().filter(|job| job.repeat).collect();
    let wall: f64 = all.iter().map(|job| job.wall_s).sum();
    let phases = Obj::new()
        .raw("cold", manifests_json(&all, cpu, wall))
        .raw("warm", manifests_json(&repeats, 0.0, repeats.iter().map(|j| j.wall_s).sum()));
    Ok(doc
        .raw("jobs", json::array(jobs.iter().map(JobRecord::json)))
        .raw("phases", phases.render())
        .raw("spans", tracer.json()))
}

/// A recorder snapshot as the trace file stores it: span totals,
/// counters, and busy seconds per worker, next to the phase's wall and
/// CPU seconds.
fn snapshot_json(snapshot: &Snapshot, wall_s: f64, cpu_s: f64) -> String {
    let spans = snapshot.spans.iter().fold(Obj::new(), |obj, (name, stat)| {
        obj.raw(name, Obj::new().int("count", stat.count).num("s", stat.seconds()).render())
    });
    let counters =
        snapshot.counters.iter().fold(Obj::new(), |obj, (name, value)| obj.int(name, *value));
    let busy: Vec<f64> = snapshot.workers.iter().map(|nanos| *nanos as f64 / 1e9).collect();
    Obj::new()
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .raw("spans", spans.render())
        .raw("counters", counters.render())
        .raw("worker_busy_s", json::numbers(&busy))
        .render()
}

/// The same shape summed over served jobs, from each job manifest's
/// phase timings and counters (the service records every job).
fn manifests_json(jobs: &[&JobRecord], cpu_s: f64, wall_s: f64) -> String {
    let mut snapshot = Snapshot::empty();
    for manifest in jobs.iter().map(|job| &job.manifest) {
        for (name, seconds) in manifest.timings.phases() {
            if seconds > 0.0 {
                let stat = snapshot.spans.entry(name.to_string()).or_default();
                stat.count += 1;
                stat.nanos += (seconds * 1e9) as u64;
            }
        }
        for (name, value) in &manifest.counters {
            *snapshot.counters.entry(name.clone()).or_default() += value;
        }
        for (worker, busy) in manifest.timings.worker_busy.iter().enumerate() {
            if snapshot.workers.len() <= worker {
                snapshot.workers.resize(worker + 1, 0);
            }
            snapshot.workers[worker] += (busy * manifest.wall_seconds * 1e9) as u64;
        }
    }
    snapshot_json(&snapshot, wall_s, cpu_s)
}
