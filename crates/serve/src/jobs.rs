//! Job lifecycle and fan-out: the registry connections submit into and
//! the worker pool drains.
//!
//! A [`Job`] owns its replayable event log and its live subscribers. A
//! subscriber is just the `Sender` side of a connection's outgoing
//! line channel: publishing encodes the message once and fans the line
//! out, pruning any subscriber whose connection has gone away — a dead
//! client can never wedge a job. Late subscribers (`watch` after rows
//! already streamed) receive the replayable history first, under the
//! same lock publication takes, so no event is skipped or duplicated.
//!
//! Progress ticks are deliberately *not* part of the replayable log —
//! a long job would grow it without bound. Only the latest tick is
//! kept, and replayed so a late watcher paints a current progress line
//! immediately.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use tailwise_fleet::SourceSet;

use crate::protocol::ServerMsg;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished successfully (report + manifest + done published).
    Done,
    /// Failed (failure published with the rendered error).
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// The protocol token for this state (`jobs` listing rows).
    pub fn token(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can still make progress.
    pub fn is_open(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One submitted job: the parsed scenario set plus its streaming state.
#[derive(Debug)]
pub struct Job {
    /// The job's id (assigned at submission, strictly increasing).
    pub id: u64,
    /// The scenario's display name.
    pub name: String,
    /// The parsed submission (parsing happened at submit time, so a
    /// job can never fail on malformed scenario text).
    pub set: SourceSet,
    inner: Mutex<JobInner>,
}

#[derive(Debug)]
struct JobInner {
    state: JobState,
    /// Replayable history: accepted, rows, report, manifest, terminal.
    log: Vec<ServerMsg>,
    /// Latest progress tick (replayed to late watchers, never logged).
    last_progress: Option<ServerMsg>,
    /// Live outgoing line channels, one per watching connection.
    subscribers: Vec<Sender<String>>,
    /// Set by `cancel`; the executor checks it between sweep cells.
    cancel_requested: bool,
}

impl Job {
    fn new(id: u64, name: String, set: SourceSet) -> Job {
        Job {
            id,
            name,
            set,
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                log: Vec::new(),
                last_progress: None,
                subscribers: Vec::new(),
                cancel_requested: false,
            }),
        }
    }

    /// The job's current state.
    pub fn state(&self) -> JobState {
        self.inner.lock().expect("job state").state
    }

    /// Whether `cancel` has been requested (the executor's between-
    /// cells check).
    pub fn cancel_requested(&self) -> bool {
        self.inner.lock().expect("job state").cancel_requested
    }

    /// Publishes an event to every live subscriber, pruning the dead
    /// ones. Progress ticks replace the retained last tick; everything
    /// else appends to the replayable log.
    pub fn publish(&self, msg: ServerMsg) {
        let mut inner = self.inner.lock().expect("job state");
        let line = msg.encode();
        if matches!(msg, ServerMsg::Progress { .. }) {
            inner.last_progress = Some(msg);
        } else {
            inner.log.push(msg);
        }
        inner.subscribers.retain(|tx| tx.send(line.clone()).is_ok());
    }

    /// Subscribes a connection: replays the history (log, then the
    /// latest progress tick) and registers for everything live. Replay
    /// and registration happen under one lock acquisition, so a
    /// concurrent `publish` can neither be missed nor delivered twice.
    pub fn subscribe(&self, tx: Sender<String>) {
        let mut inner = self.inner.lock().expect("job state");
        let mut replay_failed = false;
        for msg in &inner.log {
            if tx.send(msg.encode()).is_err() {
                replay_failed = true;
                break;
            }
        }
        if let Some(progress) = &inner.last_progress {
            replay_failed = replay_failed || tx.send(progress.encode()).is_err();
        }
        if !replay_failed && inner.state.is_open() {
            inner.subscribers.push(tx);
        }
        // A finished job needs no live registration: the replay already
        // delivered its terminal event.
    }

    /// Transitions the state (no event — callers publish the matching
    /// protocol message themselves).
    pub fn set_state(&self, state: JobState) {
        let mut inner = self.inner.lock().expect("job state");
        inner.state = state;
        if !state.is_open() {
            // Terminal: live subscribers have received the terminal
            // event via publish; drop the channel ends.
            inner.subscribers.clear();
        }
    }
}

/// What `JobRegistry::cancel` found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was queued: dequeued and terminally cancelled here.
    Dequeued,
    /// The job is running: the flag is set, the executor will stop
    /// between sweep cells.
    Signalled,
    /// The job had already reached a terminal state.
    AlreadyFinished,
    /// No such job id.
    Unknown,
}

#[derive(Debug)]
struct RegistryInner {
    next_id: u64,
    jobs: BTreeMap<u64, Arc<Job>>,
    queue: VecDeque<u64>,
    running: usize,
    shutting_down: bool,
}

impl RegistryInner {
    fn drained(&self) -> bool {
        self.shutting_down && self.queue.is_empty() && self.running == 0
    }
}

/// The server-wide job table: submissions enter, the worker pool
/// drains, connections watch.
#[derive(Debug)]
pub struct JobRegistry {
    inner: Mutex<RegistryInner>,
    /// Signalled on queue pushes, job completions, dequeues and
    /// shutdown: workers wait on it in `next_job`, drain waiters in
    /// `wait_drained`.
    wake: Condvar,
}

impl Default for JobRegistry {
    fn default() -> JobRegistry {
        JobRegistry::new()
    }
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> JobRegistry {
        JobRegistry {
            inner: Mutex::new(RegistryInner {
                next_id: 1,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                running: 0,
                shutting_down: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Accepts a parsed submission as a new queued job. Returns the
    /// job and its queue position, or `None` when the server is
    /// shutting down (new work is rejected during drain).
    pub fn submit(&self, name: String, set: SourceSet) -> Option<(Arc<Job>, u64)> {
        let mut inner = self.inner.lock().expect("job registry");
        if inner.shutting_down {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job::new(id, name, set));
        inner.jobs.insert(id, Arc::clone(&job));
        inner.queue.push_back(id);
        let position = inner.queue.len() as u64 - 1;
        drop(inner);
        self.wake.notify_all();
        Some((job, position))
    }

    /// Blocks until a job is available (returning it marked running)
    /// or the registry is shutting down with an empty queue (returning
    /// `None` — the worker should exit). Graceful shutdown therefore
    /// *drains* the queue: jobs accepted before shutdown still run.
    pub fn next_job(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().expect("job registry");
        loop {
            if let Some(id) = inner.queue.pop_front() {
                let job = Arc::clone(inner.jobs.get(&id).expect("queued job exists"));
                inner.running += 1;
                job.set_state(JobState::Running);
                return Some(job);
            }
            if inner.shutting_down {
                return None;
            }
            inner = self.wake.wait(inner).expect("job registry");
        }
    }

    /// Marks a running job finished (whatever its terminal state — the
    /// executor has already set it and published the terminal event).
    pub fn finish_job(&self) {
        let mut inner = self.inner.lock().expect("job registry");
        inner.running = inner.running.saturating_sub(1);
        drop(inner);
        // Connections waiting for the drain (shutdown path) re-check on
        // every wake.
        self.wake.notify_all();
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner.lock().expect("job registry").jobs.get(&id).map(Arc::clone)
    }

    /// Every job, in id order: `(id, state, name)`.
    pub fn list(&self) -> Vec<(u64, JobState, String)> {
        let inner = self.inner.lock().expect("job registry");
        inner.jobs.values().map(|job| (job.id, job.state(), job.name.clone())).collect()
    }

    /// Cancels a job (see [`CancelOutcome`] for what can happen).
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut inner = self.inner.lock().expect("job registry");
        let Some(job) = inner.jobs.get(&id).map(Arc::clone) else {
            return CancelOutcome::Unknown;
        };
        match job.state() {
            JobState::Queued => {
                inner.queue.retain(|&queued| queued != id);
                drop(inner);
                // Dequeuing the last queued job can complete a drain.
                self.wake.notify_all();
                job.publish(ServerMsg::Cancelled { job: id });
                job.set_state(JobState::Cancelled);
                CancelOutcome::Dequeued
            }
            JobState::Running => {
                drop(inner);
                let mut job_inner = job.inner.lock().expect("job state");
                job_inner.cancel_requested = true;
                CancelOutcome::Signalled
            }
            _ => CancelOutcome::AlreadyFinished,
        }
    }

    /// Begins graceful shutdown: rejects future submissions, wakes the
    /// worker pool so idle workers exit, and returns how many jobs are
    /// still queued or running.
    pub fn begin_shutdown(&self) -> u64 {
        let mut inner = self.inner.lock().expect("job registry");
        inner.shutting_down = true;
        let unfinished = inner.queue.len() + inner.running;
        drop(inner);
        self.wake.notify_all();
        unfinished as u64
    }

    /// Whether graceful shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.lock().expect("job registry").shutting_down
    }

    /// Whether shutdown has begun *and* every accepted job has
    /// finished — the point where connections may close.
    pub fn drained(&self) -> bool {
        self.inner.lock().expect("job registry").drained()
    }

    /// Blocks until [`JobRegistry::drained`] holds (the shutdown path).
    /// Woken by every job completion and every dequeue, so it returns
    /// as soon as the last accepted job ends.
    pub fn wait_drained(&self) {
        let inner = self.inner.lock().expect("job registry");
        drop(self.wake.wait_while(inner, |inner| !inner.drained()).expect("job registry"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn tiny_set() -> SourceSet {
        SourceSet::from_toml_str(
            "[scenario]\nname = \"t\"\nusers = 2\nscheme = \"makeidle\"\n\n[[carrier]]\n\
             profile = \"verizon-lte\"\n\n[[app]]\nkind = \"im\"\nweight = 1.0\n",
        )
        .expect("tiny scenario parses")
    }

    #[test]
    fn submit_queue_and_drain_lifecycle() {
        let registry = JobRegistry::new();
        let (a, pos_a) = registry.submit("a".into(), tiny_set()).unwrap();
        let (b, pos_b) = registry.submit("b".into(), tiny_set()).unwrap();
        assert_eq!((a.id, pos_a), (1, 0));
        assert_eq!((b.id, pos_b), (2, 1));
        assert_eq!(a.state(), JobState::Queued);

        let first = registry.next_job().unwrap();
        assert_eq!(first.id, 1);
        assert_eq!(first.state(), JobState::Running);

        let unfinished = registry.begin_shutdown();
        assert_eq!(unfinished, 2, "one queued + one running");
        assert!(registry.submit("c".into(), tiny_set()).is_none(), "drain rejects new work");

        // Shutdown drains the queue: b still runs.
        let second = registry.next_job().unwrap();
        assert_eq!(second.id, 2);
        second.set_state(JobState::Done);
        registry.finish_job();
        first.set_state(JobState::Done);
        registry.finish_job();
        assert!(registry.drained());
        assert!(registry.next_job().is_none(), "workers exit after the drain");
    }

    #[test]
    fn publish_replays_to_late_subscribers_and_prunes_dead_ones() {
        let registry = JobRegistry::new();
        let (job, _) = registry.submit("x".into(), tiny_set()).unwrap();
        job.publish(ServerMsg::Accepted { job: job.id, name: "x".into(), queue: 0 });
        job.publish(ServerMsg::Progress {
            job: job.id,
            users_done: 1,
            users_total: 2,
            user_days: 1,
            elapsed_s: 0.5,
        });
        job.publish(ServerMsg::Progress {
            job: job.id,
            users_done: 2,
            users_total: 2,
            user_days: 2,
            elapsed_s: 0.9,
        });

        // A dead subscriber (receiver dropped) must not wedge publish.
        let (dead_tx, dead_rx) = channel::<String>();
        job.subscribe(dead_tx);
        drop(dead_rx);

        // A late subscriber replays accepted + only the LATEST tick.
        let (tx, rx) = channel::<String>();
        job.subscribe(tx);
        let replay: Vec<String> = rx.try_iter().collect();
        assert_eq!(replay.len(), 2, "{replay:?}");
        assert!(replay[0].starts_with("accepted "), "{replay:?}");
        assert!(replay[1].contains("users_done=2"), "{replay:?}");

        // Live publish reaches the live subscriber and prunes the dead.
        job.publish(ServerMsg::Done { job: job.id });
        job.set_state(JobState::Done);
        let live: Vec<String> = rx.try_iter().collect();
        assert_eq!(live, vec![ServerMsg::Done { job: job.id }.encode()]);
    }

    #[test]
    fn cancel_covers_all_three_liveness_cases() {
        let registry = JobRegistry::new();
        let (queued, _) = registry.submit("q".into(), tiny_set()).unwrap();
        let (tx, rx) = channel::<String>();
        queued.subscribe(tx);
        assert_eq!(registry.cancel(queued.id), CancelOutcome::Dequeued);
        assert_eq!(queued.state(), JobState::Cancelled);
        let lines: Vec<String> = rx.try_iter().collect();
        assert!(lines.iter().any(|l| l.starts_with("cancelled ")), "{lines:?}");

        let (running, _) = registry.submit("r".into(), tiny_set()).unwrap();
        // The cancelled job left the queue: the next claim is `r`.
        let claimed = registry.next_job().unwrap();
        assert_eq!(claimed.id, running.id);
        assert_eq!(registry.cancel(running.id), CancelOutcome::Signalled);
        assert!(running.cancel_requested());
        running.set_state(JobState::Cancelled);
        registry.finish_job();
        assert_eq!(registry.cancel(running.id), CancelOutcome::AlreadyFinished);
        assert_eq!(registry.cancel(999), CancelOutcome::Unknown);
    }

    /// Blocks a thread in `wait_drained`, runs `release`, and requires
    /// the waiter to return. Both waits are timed, so a missing notify
    /// fails the test instead of hanging it.
    fn assert_release_wakes_drain_waiter(
        registry: &Arc<JobRegistry>,
        what: &str,
        release: impl FnOnce(),
    ) {
        let (tx, rx) = channel();
        let waiter = {
            let registry = Arc::clone(registry);
            std::thread::spawn(move || {
                registry.wait_drained();
                let _ = tx.send(());
            })
        };
        // Not drained yet: the waiter stays blocked, and the pause lets
        // it reach the condvar before the release.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "released before the drain");
        release();
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{what} must wake drain waiters"));
        waiter.join().expect("drain waiter");
    }

    #[test]
    fn the_last_finish_or_dequeue_wakes_drain_waiters() {
        let registry = Arc::new(JobRegistry::new());
        registry.submit("r".into(), tiny_set()).unwrap();
        let running = registry.next_job().unwrap();
        assert_eq!(registry.begin_shutdown(), 1);
        assert_release_wakes_drain_waiter(&registry, "finish_job", || {
            running.set_state(JobState::Done);
            registry.finish_job();
        });

        let registry = Arc::new(JobRegistry::new());
        let (queued, _) = registry.submit("q".into(), tiny_set()).unwrap();
        assert_eq!(registry.begin_shutdown(), 1);
        assert_release_wakes_drain_waiter(&registry, "cancelling a queued job", || {
            assert_eq!(registry.cancel(queued.id), CancelOutcome::Dequeued);
        });
    }
}
