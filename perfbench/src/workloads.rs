//! The two workloads, driven only through the fleet and service public
//! APIs: a sweep (cold on a fresh disk cache, then warm on a new cache
//! over the same spill directory) and a served-job session.

use std::path::Path;
use std::time::Instant;

use tailwise_fleet::{
    run_source_sweep_cached, run_source_sweep_streamed, user_seed, RequestCache, RunManifest,
    SourceSet, SweepReport, SweepRow,
};
use tailwise_obs::{Obs, Snapshot};
use tailwise_serve::{Client, ClientMsg, ServeConfig, Server, ServerMsg};

use crate::json::{self, Obj};

const STORM: &str = include_str!("../workloads/storm_sweep.toml");
const SERVE_JOB: &str = include_str!("../workloads/serve_job.toml");

/// The seed the scenario files carry; digests are pinned at this seed.
pub const DEFAULT_SEED: u64 = 2012;

/// Execution settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub seed: u64,
    pub threads: usize,
}

/// One checked operation: a sweep cell or a served job.
#[derive(Debug)]
pub struct Op {
    pub phase: &'static str,
    pub key: String,
    pub digest: Result<u64, String>,
}

impl Op {
    pub fn json(&self) -> String {
        let obj = Obj::new().str("phase", self.phase).str("key", &self.key);
        match &self.digest {
            Ok(digest) => obj.str("digest", &format!("{digest:016x}")),
            Err(error) => obj.str("error", error),
        }
        .render()
    }
}

/// The `storm_sweep` text with its population drawn from `seed`.
pub fn storm_text(seed: u64) -> String {
    seeded(STORM, seed)
}

fn seeded(template: &str, seed: u64) -> String {
    let line = format!("master_seed = {DEFAULT_SEED}");
    assert!(template.contains(&line), "workload file must carry `{line}`");
    template.replacen(&line, &format!("master_seed = {seed}"), 1)
}

/// `text` with its population resized to `users`.
pub fn with_users(text: &str, users: u64) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut done = false;
    for line in text.lines() {
        if !done && line.starts_with("users = ") {
            out.push(format!("users = {users}"));
            done = true;
        } else {
            out.push(line.to_string());
        }
    }
    assert!(done, "scenario text has no `users = ` line");
    out.join("\n") + "\n"
}

pub fn parse(text: &str) -> Result<SourceSet, String> {
    SourceSet::from_toml_str(text).map_err(|e| e.to_string())
}

fn cell_digest(row: &SweepRow, env: Env) -> u64 {
    let seed = row.scenario().map_or(env.seed, |scenario| scenario.master_seed);
    RunManifest::for_report(&row.report, env.threads, seed, &Snapshot::empty()).digest()
}

/// Timings and checks of one cold sweep and the warm sweeps after it.
#[derive(Debug)]
pub struct SweepRun {
    pub cold_s: f64,
    /// One entry per warm sweep.
    pub warm_s: Vec<f64>,
    pub user_days: u64,
    /// Wall time of each cold cell, taken between row callbacks.
    pub cell_s: Vec<f64>,
    /// Fewest releases denied by any `reactive` admission cell.
    pub reactive_denied_min: Option<u64>,
}

impl SweepRun {
    pub fn json(&self) -> String {
        let mut obj = Obj::new()
            .num("cold_s", self.cold_s)
            .raw("warm_s", json::numbers(&self.warm_s))
            .int("user_days", self.user_days)
            .raw("cell_s", json::numbers(&self.cell_s));
        if let Some(denied) = self.reactive_denied_min {
            obj = obj.int("reactive_denied_min", denied);
        }
        obj.render()
    }
}

/// Runs `set` cold on a new cache over the empty directory `dir`, then
/// `warm_reps` times warm, each on a new cache over the spills the cold
/// run left there. Every cell of every sweep is pushed onto `ops`, and
/// so is every cell of the expansion a sweep returned no row for.
pub fn sweep_rep(
    set: &SourceSet,
    env: Env,
    dir: &Path,
    (cold_obs, warm_obs): (Obs<'_>, Obs<'_>),
    warm_reps: usize,
    ops: &mut Vec<Op>,
) -> Result<SweepRun, String> {
    let cold_cache = RequestCache::with_dir(dir).map_err(|e| e.to_string())?;
    let mut cell_s = Vec::new();
    let start = Instant::now();
    let mut last = start;
    let cold =
        run_source_sweep_streamed(set, env.threads, cold_obs, Some(&cold_cache), &mut |_, _| {
            let now = Instant::now();
            cell_s.push((now - last).as_secs_f64());
            last = now;
            true
        })
        .map_err(|e| e.to_string())?
        .ok_or("an always-continue sweep was cancelled")?;
    let cold_s = start.elapsed().as_secs_f64();
    drop(cold_cache);
    let expected = set.expand_labeled().map_err(|e| e.to_string())?;
    let mut record = |phase, report: &SweepReport| {
        for row in &report.rows {
            ops.push(Op { phase, key: row.label.clone(), digest: Ok(cell_digest(row, env)) });
        }
        for (label, _) in &expected {
            if !report.rows.iter().any(|row| &row.label == label) {
                let digest = Err("the sweep returned no row for this cell".into());
                ops.push(Op { phase, key: label.clone(), digest });
            }
        }
        if report.rows.len() > expected.len() {
            let error = format!("{} rows for {} cells", report.rows.len(), expected.len());
            ops.push(Op { phase, key: "rows".into(), digest: Err(error) });
        }
    };
    record("cold", &cold);

    let mut warm_s = Vec::with_capacity(warm_reps);
    for _ in 0..warm_reps {
        let warm_cache = RequestCache::with_dir(dir).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let warm = run_source_sweep_cached(set, env.threads, warm_obs, Some(&warm_cache))
            .map_err(|e| e.to_string())?;
        warm_s.push(start.elapsed().as_secs_f64());
        record("warm", &warm);
    }

    let reactive_denied_min = cold
        .rows
        .iter()
        .filter(|row| row.label.contains("admission=reactive"))
        .filter_map(|row| row.report.signaling.as_ref().map(|s| s.denied()))
        .min();
    Ok(SweepRun {
        cold_s,
        warm_s,
        user_days: cold.rows.iter().map(|row| row.report.user_days).sum(),
        cell_s,
        reactive_denied_min,
    })
}

/// The counters of one more warm sweep over `dir`, recorded by a
/// `StatsRecorder` (the timed warm sweep runs unobserved).
pub fn warm_snapshot(set: &SourceSet, env: Env, dir: &Path) -> Result<Snapshot, String> {
    let recorder = tailwise_obs::StatsRecorder::new();
    let cache = RequestCache::with_dir(dir).map_err(|e| e.to_string())?;
    let obs = Obs { recorder: &recorder, progress: None };
    run_source_sweep_cached(set, env.threads, obs, Some(&cache)).map_err(|e| e.to_string())?;
    Ok(tailwise_obs::Recorder::snapshot(&recorder))
}

/// One served job of the `serve_jobs` sequence.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// `p<population>/<variant>`; a repeat shares its first run's key.
    pub key: String,
    pub text: String,
    /// An exact resubmission of an earlier text of the population.
    pub repeat: bool,
}

const ALWAYS: &str = "admission = \"always\"";
const REACTIVE: &str = "admission = \"reactive\"\nwatermark_per_s = 50\nwindow_s = 5";
const COMMUTE: &str =
    "\n[mobility]\nmodel = \"commute\"\nhome_hour = 8\nwork_hour = 17\njitter_pct = 5\nhint_s = 60\n";

/// The endless, seeded job sequence: per population (a master seed
/// derived from `seed`), its base text (cold), three admission and
/// mobility variants sharing its phase-1 extraction, and a repeat of
/// the base that the cache and replay memo answer in full.
pub fn job_sequence(seed: u64) -> impl Iterator<Item = JobSpec> {
    const VARIANTS: [(&str, &str, bool, bool); 5] = [
        ("base", ALWAYS, false, false),
        ("reactive", REACTIVE, false, false),
        ("commute", ALWAYS, true, false),
        ("reactive-commute", REACTIVE, true, false),
        ("base", ALWAYS, false, true),
    ];
    (0u64..).flat_map(move |population| {
        let master = user_seed(seed, population);
        VARIANTS.iter().map(move |&(variant, admission, commute, repeat)| JobSpec {
            key: format!("p{population}/{variant}"),
            text: job_text(master, admission, commute),
            repeat,
        })
    })
}

fn job_text(master_seed: u64, admission: &str, commute: bool) -> String {
    SERVE_JOB
        .replace("{seed}", &master_seed.to_string())
        .replace("{admission}", admission)
        .replace("{mobility}", if commute { COMMUTE } else { "" })
}

/// An in-process fleet service (one worker) with one client connection.
#[derive(Debug)]
pub struct Service {
    server: Server,
    client: Client,
}

/// What the client saw of one finished job.
#[derive(Debug)]
pub struct Served {
    /// From sending `Submit` to receiving `Done`.
    pub latency_s: f64,
    pub manifest: RunManifest,
}

impl Service {
    pub fn start(env: Env, cache_dir: &Path) -> Result<Service, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            threads: env.threads,
            cache_dir: Some(cache_dir.to_path_buf()),
            read_timeout: std::time::Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Service { server, client })
    }

    /// Submits `text` and waits for the job to finish.
    pub fn submit(&mut self, text: &str) -> Result<Served, String> {
        let start = Instant::now();
        let msg = ClientMsg::Submit { scenario: text.to_string() };
        self.client.send(&msg).map_err(|e| format!("send: {e}"))?;
        let mut manifest = None;
        loop {
            match self.client.recv().map_err(|e| format!("recv: {e}"))? {
                Some(ServerMsg::Manifest { text, .. }) => {
                    manifest = Some(RunManifest::from_toml_str(&text).map_err(|e| e.to_string())?);
                }
                Some(ServerMsg::Done { .. }) => break,
                Some(ServerMsg::Failed { error, .. }) => return Err(error),
                Some(ServerMsg::Error { message }) => return Err(message),
                Some(ServerMsg::Cancelled { .. }) => return Err("job cancelled".into()),
                None => return Err("server closed the connection".into()),
                Some(_) => {}
            }
        }
        let latency_s = start.elapsed().as_secs_f64();
        let manifest = manifest.ok_or("job finished without a manifest")?;
        Ok(Served { latency_s, manifest })
    }

    /// Graceful shutdown: drains, then joins every server thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.client.send(&ClientMsg::Shutdown).map_err(|e| format!("send: {e}"))?;
        self.client.recv_until_eof().map_err(|e| format!("recv: {e}"))?;
        self.server.join();
        Ok(())
    }
}

/// The per-job record of a served session.
#[derive(Debug)]
pub struct JobRecord {
    pub key: String,
    pub repeat: bool,
    pub latency_s: f64,
    /// The job manifest's own `wall_seconds` (time inside the runner).
    pub wall_s: f64,
    pub user_days: u64,
    /// Resident memory after the job.
    pub rss_kib: u64,
    pub manifest: RunManifest,
}

impl JobRecord {
    pub fn json(&self) -> String {
        let counters = Obj::new()
            .int("cache_hits", self.counter("cache_hits"))
            .int("cache_misses", self.counter("cache_misses"))
            .int("replay_hits", self.counter("replay_hits"))
            .int("replay_misses", self.counter("replay_misses"))
            .int("replay_fallbacks", self.counter("replay_fallbacks"));
        Obj::new()
            .str("key", &self.key)
            .bool("repeat", self.repeat)
            .num("latency_s", self.latency_s)
            .num("wall_s", self.wall_s)
            .int("user_days", self.user_days)
            .int("rss_kib", self.rss_kib)
            .raw("counters", counters.render())
            .render()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.manifest.counters.get(name).copied().unwrap_or(0)
    }
}

/// Submits jobs of `specs` one at a time (closed loop) while
/// `keep_going(jobs_done)` holds, recording each job and its check. A
/// job left unsubmitted counts as a failed operation.
pub fn serve_session(
    service: &mut Service,
    specs: impl Iterator<Item = JobSpec>,
    mut keep_going: impl FnMut(usize) -> bool,
    ops: &mut Vec<Op>,
) -> Vec<JobRecord> {
    let mut records = Vec::new();
    let mut stopped = false;
    for spec in specs {
        stopped = stopped || !keep_going(records.len());
        if stopped {
            let digest = Err("not submitted: the session stopped early".into());
            ops.push(Op { phase: "served", key: spec.key, digest });
            continue;
        }
        match service.submit(&spec.text) {
            Ok(served) => {
                let digest = served.manifest.digest();
                ops.push(Op { phase: "served", key: spec.key.clone(), digest: Ok(digest) });
                records.push(JobRecord {
                    key: spec.key,
                    repeat: spec.repeat,
                    latency_s: served.latency_s,
                    wall_s: served.manifest.wall_seconds,
                    user_days: served.manifest.reports.iter().map(|r| r.user_days).sum(),
                    rss_kib: rss_kib(),
                    manifest: served.manifest,
                });
            }
            Err(error) => ops.push(Op { phase: "served", key: spec.key, digest: Err(error) }),
        }
    }
    records
}

/// Resident set size of this process (0 where `/proc` is absent).
pub fn rss_kib() -> u64 {
    proc_status_kib("VmRSS:")
}

fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?.trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

/// User + system CPU seconds of this process, all threads (0 where
/// `/proc` is absent). `/proc` reports clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use tailwise_fleet::UserSource;

    use super::*;

    #[test]
    fn every_workload_text_parses_at_any_seed() {
        let set = parse(&storm_text(7)).unwrap();
        assert_eq!(set.expansion_count(), 4);
        for spec in job_sequence(7).take(10) {
            let set = parse(&spec.text).unwrap();
            let cells = matches!(&set.source, UserSource::Synthetic(s) if s.cells.is_some());
            assert!(cells && !set.is_sweep(), "{}", spec.key);
        }
    }

    #[test]
    fn repeats_resubmit_the_base_text() {
        let jobs: Vec<JobSpec> = job_sequence(3).take(10).collect();
        assert_eq!(jobs[4].key, jobs[0].key);
        assert_eq!(jobs[4].text, jobs[0].text);
        assert!(jobs[4].repeat && !jobs[0].repeat);
        assert_ne!(jobs[5].text, jobs[0].text, "each population has its own seed");
    }

    #[test]
    fn resizing_touches_only_the_population() {
        let text = with_users(&storm_text(1), 24);
        assert!(text.contains("users = 24\n"));
        assert!(text.contains("master_seed = 1\n"));
    }
}
