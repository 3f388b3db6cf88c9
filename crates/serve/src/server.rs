//! The resident TCP server: accept loop, per-connection reader/writer
//! threads, and the bounded worker pool that executes jobs.
//!
//! Everything is hand-rolled on `std::net` + threads (the offline
//! build has no async runtime), in the same spirit as the hand-rolled
//! scenario parser. The moving parts:
//!
//! * **accept thread** — one per server, spawning a connection handler
//!   per client; unblocked at shutdown by a loopback self-connect.
//! * **connection handler** — a reader loop with a read timeout (so it
//!   can poll the shutdown flag) plus a writer thread draining the
//!   connection's outgoing line channel. Replies and job-stream
//!   fan-out share that one channel, so concurrent writes never
//!   interleave mid-line. The socket has `TCP_NODELAY` set and each
//!   line leaves in one write with its `\n`, so no line waits for the
//!   client's delayed ACK.
//! * **worker pool** — `workers` threads looping over
//!   [`JobRegistry::next_job`]; each runs one job at a time against
//!   the process-wide shared [`RequestCache`].
//!
//! Malformed lines are answered with a positioned error (the scenario
//! parser's `ScenError` rendering) and the connection lives on; a
//! vanished client is pruned at the next publish and never wedges a
//! job; graceful shutdown rejects new submissions, drains every
//! accepted job, then closes all connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tailwise_fleet::{
    run_source, run_source_sweep_streamed, RequestCache, RunManifest, SourceSet, SweepRow,
    UserSource,
};
use tailwise_obs::{Obs, ProgressTable, ProgressUpdate, ProgressWatcher, StatsRecorder};
use tailwise_scenfile::ScenError;

use crate::jobs::{CancelOutcome, Job, JobRegistry, JobState};
use crate::protocol::{ClientMsg, ServerMsg};

/// A single protocol line may carry a whole scenario file or manifest;
/// anything beyond this is a hostile or broken client.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// In-band close marker on a connection's outgoing channel: the reader
/// enqueues it last, so the writer flushes every previously queued
/// line (FIFO) before exiting. Protocol lines never contain NUL — every
/// string value is escaped — so the marker cannot collide.
const CLOSE_SENTINEL: &str = "\0close\0";

/// How the service is run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7433` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads — how many jobs run concurrently.
    pub workers: usize,
    /// Simulation threads *per job* (each worker saturates this many).
    pub threads: usize,
    /// Spill directory for the shared phase-1 cache (`None` keeps the
    /// cache purely in-memory — still shared across every job).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-connection read timeout — the poll interval for shutdown
    /// and drain checks.
    pub read_timeout: Duration,
    /// How often job progress ticks are sampled and streamed.
    pub progress_every: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7433".into(),
            workers: 2,
            threads: 2,
            cache_dir: None,
            read_timeout: Duration::from_millis(250),
            progress_every: Duration::from_millis(200),
        }
    }
}

/// A running fleet service. [`Server::join`] blocks until a client's
/// `shutdown` request has fully drained the job queue.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    registry: Arc<JobRegistry>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop and worker pool.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(JobRegistry::new());
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => RequestCache::with_dir(dir)?,
            None => RequestCache::in_memory(),
        });

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for index in 0..config.workers.max(1) {
            let registry = Arc::clone(&registry);
            let cache = Arc::clone(&cache);
            let config = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tailwise-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = registry.next_job() {
                            execute_job(&job, &config, &cache);
                            registry.finish_job();
                        }
                    })
                    .expect("spawning a fleet service worker failed"),
            );
        }

        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let registry = Arc::clone(&registry);
            let connections = Arc::clone(&connections);
            let read_timeout = config.read_timeout;
            std::thread::Builder::new()
                .name("tailwise-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if registry.is_shutting_down() {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let registry = Arc::clone(&registry);
                        let local = local_addr;
                        let handle = std::thread::Builder::new()
                            .name("tailwise-conn".into())
                            .spawn(move || {
                                handle_connection(stream, registry, local, read_timeout);
                            })
                            .expect("spawning a connection handler failed");
                        connections.lock().expect("connection handles").push(handle);
                    }
                })
                .expect("spawning the accept thread failed")
        };

        Ok(Server { local_addr, registry, accept: Some(accept), workers, connections })
    }

    /// The bound address (resolves port 0 to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's job registry (shared with tests and tooling).
    pub fn registry(&self) -> &Arc<JobRegistry> {
        &self.registry
    }

    /// Blocks until graceful shutdown completes: every accepted job
    /// drained, every worker and connection thread joined.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let handles: Vec<JoinHandle<()>> =
            self.connections.lock().expect("connection handles").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Runs one job to its terminal state, streaming progress and rows.
fn execute_job(job: &Arc<Job>, config: &ServeConfig, cache: &Arc<RequestCache>) {
    if job.cancel_requested() {
        job.publish(ServerMsg::Cancelled { job: job.id });
        job.set_state(JobState::Cancelled);
        return;
    }
    let recorder = StatsRecorder::new();
    let table = Arc::new(ProgressTable::new(config.threads));
    let obs = Obs { recorder: &recorder, progress: Some(&table) };

    // Progress ticks ride the existing obs pipeline: a ProgressWatcher
    // samples the same table the run's workers publish into, and the
    // sink republishes changed samples to the job's subscribers.
    let watcher = {
        let job = Arc::clone(job);
        let mut last: Option<(u64, u64, u64)> = None;
        ProgressWatcher::start(Arc::clone(&table), config.progress_every, move |update| {
            let ProgressUpdate { totals, users_total, elapsed_seconds } = update;
            let key = (totals.users_done, totals.user_days, users_total);
            if totals.users_done > 0 && last != Some(key) {
                last = Some(key);
                job.publish(ServerMsg::Progress {
                    job: job.id,
                    users_done: totals.users_done,
                    users_total,
                    user_days: totals.user_days,
                    elapsed_s: elapsed_seconds,
                });
            }
        })
    };

    let outcome = run_job(job, config.threads, obs, cache);
    watcher.finish();

    match outcome {
        Ok(Some((report_text, manifest))) => {
            job.publish(ServerMsg::Report { job: job.id, text: report_text });
            job.publish(ServerMsg::Manifest { job: job.id, text: manifest.to_toml_string() });
            job.publish(ServerMsg::Done { job: job.id });
            job.set_state(JobState::Done);
        }
        Ok(None) => {
            job.publish(ServerMsg::Cancelled { job: job.id });
            job.set_state(JobState::Cancelled);
        }
        Err(e) => {
            job.publish(ServerMsg::Failed { job: job.id, error: e.to_string() });
            job.set_state(JobState::Failed);
        }
    }
}

/// The run itself: sweep files stream a row per cell (and honor
/// cancellation between cells); single runs produce one report.
/// Returns `Ok(None)` when the job was cancelled mid-sweep.
fn run_job(
    job: &Arc<Job>,
    threads: usize,
    obs: Obs<'_>,
    cache: &Arc<RequestCache>,
) -> Result<Option<(String, RunManifest)>, ScenError> {
    let set = &job.set;
    let seed = match &set.source {
        UserSource::Synthetic(base) => base.master_seed,
        UserSource::Corpus(base) => base.master_seed,
    };
    if set.is_sweep() {
        let mut on_row = |index: usize, row: &SweepRow| {
            job.publish(ServerMsg::Row {
                job: job.id,
                index: index as u64,
                label: row.label.clone(),
                users: row.report.users,
                energy_j: row.report.energy_j,
                saved_pct: row.report.aggregate_savings_pct(),
            });
            !job.cancel_requested()
        };
        let Some(report) = run_source_sweep_streamed(set, threads, obs, Some(cache), &mut on_row)?
        else {
            return Ok(None);
        };
        let manifest = RunManifest::for_sweep(&report, threads, seed, &obs.recorder.snapshot());
        Ok(Some((report.render(), manifest)))
    } else {
        let report = run_source(&set.source, threads, obs, Some(cache))?;
        // Stream the single run as row 0 too, so watchers get one
        // uniform "a result landed" shape for sweeps and plain runs.
        job.publish(ServerMsg::Row {
            job: job.id,
            index: 0,
            label: String::new(),
            users: report.users,
            energy_j: report.energy_j,
            saved_pct: report.aggregate_savings_pct(),
        });
        let manifest = RunManifest::for_report(&report, threads, seed, &obs.recorder.snapshot());
        Ok(Some((report.render(), manifest)))
    }
}

/// One client connection: a writer thread draining the outgoing line
/// channel, and this (reader) loop decoding requests line by line.
fn handle_connection(
    stream: TcpStream,
    registry: Arc<JobRegistry>,
    local_addr: SocketAddr,
    read_timeout: Duration,
) {
    let _ = stream.set_nodelay(true);
    let Ok(write_stream) = stream.try_clone() else { return };
    let (tx, rx) = channel::<String>();
    let writer = std::thread::Builder::new()
        .name("tailwise-conn-writer".into())
        .spawn(move || write_lines(write_stream, rx))
        .expect("spawning a connection writer failed");

    let _ = stream.set_read_timeout(Some(read_timeout));
    reader_loop(&stream, &registry, &tx, local_addr);

    // Reader is done (client gone, shutdown drained, or oversized
    // line): the sentinel releases the writer after it has flushed
    // everything already queued, then the socket closes for real.
    let _ = tx.send(CLOSE_SENTINEL.to_string());
    drop(tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The writer half: serializes every outgoing line — direct replies
/// and job-stream fan-out share one channel, so lines never interleave
/// — until the close sentinel, a failed write (client vanished), or
/// every sender hanging up.
fn write_lines(mut stream: TcpStream, rx: Receiver<String>) {
    while let Ok(mut line) = rx.recv() {
        if line == CLOSE_SENTINEL {
            return;
        }
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            return;
        }
    }
}

/// Reads and dispatches protocol lines until the client disconnects or
/// shutdown drains. Returns when the connection should close.
fn reader_loop(
    stream: &TcpStream,
    registry: &Arc<JobRegistry>,
    tx: &Sender<String>,
    local_addr: SocketAddr,
) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF: client closed its half.
            Ok(_) => {
                line_no += 1;
                let trimmed = line.trim_end_matches(['\n', '\r']);
                if !trimmed.is_empty() {
                    let shutdown = dispatch(trimmed, line_no, registry, tx, local_addr);
                    if shutdown == Dispatch::CloseAfterDrain {
                        line.clear();
                        registry.wait_drained();
                        return;
                    }
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timeout: poll the shutdown flag, cap any
                // partial line a stalled client is dribbling in.
                if registry.drained() {
                    return;
                }
                if line.len() > MAX_LINE_BYTES {
                    send_error(tx, line_no + 1, "line exceeds the 8 MiB protocol limit");
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Non-UTF-8 bytes: answer positioned, drop the partial
                // line, keep the connection.
                line_no += 1;
                send_error(tx, line_no, "line is not valid UTF-8");
                line.clear();
            }
            Err(_) => return,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    KeepReading,
    CloseAfterDrain,
}

/// Decodes and executes one request line.
fn dispatch(
    line: &str,
    line_no: usize,
    registry: &Arc<JobRegistry>,
    tx: &Sender<String>,
    local_addr: SocketAddr,
) -> Dispatch {
    let msg = match ClientMsg::decode(line) {
        Ok(msg) => msg,
        Err(mut e) => {
            // Decoders position within the line; rebase onto the
            // connection's running line count so the rendered error
            // reads like a file position.
            e.pos.line = line_no;
            send(tx, &ServerMsg::Error { message: e.to_string() });
            return Dispatch::KeepReading;
        }
    };
    match msg {
        ClientMsg::Submit { scenario } => {
            let set = match SourceSet::from_toml_str(&scenario) {
                Ok(set) => set,
                Err(e) => {
                    let e = e.with_origin("submitted scenario");
                    send(tx, &ServerMsg::Error { message: e.to_string() });
                    return Dispatch::KeepReading;
                }
            };
            let name = set.source.name().to_string();
            match registry.submit(name.clone(), set) {
                Some((job, queue)) => {
                    // Auto-subscribe the submitting connection, then
                    // publish so the accepted event reaches it (and
                    // any future watcher) through the job log.
                    job.subscribe(tx.clone());
                    job.publish(ServerMsg::Accepted { job: job.id, name, queue });
                }
                None => {
                    send_error(tx, line_no, "server is shutting down; submission rejected");
                }
            }
        }
        ClientMsg::Watch { job } => match registry.get(job) {
            Some(job) => job.subscribe(tx.clone()),
            None => send_error(tx, line_no, format!("no such job {job}")),
        },
        ClientMsg::Jobs => {
            let jobs = registry.list();
            let count = jobs.len() as u64;
            for (id, state, name) in jobs {
                send(tx, &ServerMsg::Job { job: id, state: state.token().into(), name });
            }
            send(tx, &ServerMsg::End { count });
        }
        ClientMsg::Cancel { job: id } => match registry.cancel(id) {
            CancelOutcome::Unknown => send_error(tx, line_no, format!("no such job {id}")),
            _ => {
                let job = registry.get(id).expect("cancelled job exists");
                send(
                    tx,
                    &ServerMsg::Job {
                        job: id,
                        state: job.state().token().into(),
                        name: job.name.clone(),
                    },
                );
            }
        },
        ClientMsg::Shutdown => {
            let unfinished = registry.begin_shutdown();
            send(tx, &ServerMsg::ShuttingDown { unfinished });
            // The accept loop blocks in accept(); a loopback connect
            // wakes it so it can observe the flag and exit.
            let _ = TcpStream::connect(local_addr);
            return Dispatch::CloseAfterDrain;
        }
    }
    Dispatch::KeepReading
}

fn send(tx: &Sender<String>, msg: &ServerMsg) {
    let _ = tx.send(msg.encode());
}

fn send_error(tx: &Sender<String>, line_no: usize, message: impl Into<String>) {
    let e = ScenError::at(tailwise_scenfile::Pos::new(line_no, 1), message);
    send(tx, &ServerMsg::Error { message: e.to_string() });
}
