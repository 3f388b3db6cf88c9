//! Lock-free live progress: workers publish per-shard counts into a
//! [`ProgressTable`], a [`ProgressSampler`] thread renders them as a
//! single self-overwriting stderr line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One worker's publication slot: the shard it is on and its running
/// totals. All fields are relaxed atomics — the sampler reads a
/// slightly-stale view, which is exactly what a progress line needs.
#[derive(Debug, Default)]
pub struct ProgressSlot {
    shard: AtomicU64,
    users_done: AtomicU64,
    user_days: AtomicU64,
    traces_failed: AtomicU64,
}

impl ProgressSlot {
    /// Publishes that this worker started `shard`.
    pub fn begin_shard(&self, shard: u64) {
        self.shard.store(shard, Ordering::Relaxed);
    }

    /// Publishes one finished user contributing `days` user-days.
    pub fn add_user(&self, days: u64) {
        self.users_done.fetch_add(1, Ordering::Relaxed);
        self.user_days.fetch_add(days, Ordering::Relaxed);
    }

    /// Publishes one failed trace load.
    pub fn add_failure(&self) {
        self.traces_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Current `(shard, users_done, user_days, traces_failed)`.
    pub fn read(&self) -> (u64, u64, u64, u64) {
        (
            self.shard.load(Ordering::Relaxed),
            self.users_done.load(Ordering::Relaxed),
            self.user_days.load(Ordering::Relaxed),
            self.traces_failed.load(Ordering::Relaxed),
        )
    }
}

/// Summed progress across every worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressTotals {
    /// Users finished so far (topology runs count each of the two
    /// passes, so a finished run reports `2 × users`).
    pub users_done: u64,
    /// User-days folded so far.
    pub user_days: u64,
    /// Trace loads that failed.
    pub traces_failed: u64,
}

/// The shared progress table: one [`ProgressSlot`] per worker plus the
/// run-wide expected-user total the runner publishes once it knows it.
#[derive(Debug)]
pub struct ProgressTable {
    users_total: AtomicU64,
    started: Instant,
    slots: Box<[ProgressSlot]>,
}

impl ProgressTable {
    /// A table with `workers` slots (at least one).
    pub fn new(workers: usize) -> ProgressTable {
        let slots = (0..workers.max(1)).map(|_| ProgressSlot::default()).collect();
        ProgressTable { users_total: AtomicU64::new(0), started: Instant::now(), slots }
    }

    /// Publishes how many user completions the upcoming run will add.
    /// The runner calls this once per run as soon as the population is
    /// known; topology runs publish `2 × users` because both passes
    /// count. Additive, not absolute, because the per-worker done
    /// counts also accumulate — a sweep sharing one table across rows
    /// keeps a truthful done/total ratio.
    pub fn add_users_total(&self, total: u64) {
        self.users_total.fetch_add(total, Ordering::Relaxed);
    }

    /// The published expected total (0 until the runner knows it).
    pub fn users_total(&self) -> u64 {
        self.users_total.load(Ordering::Relaxed)
    }

    /// The slot worker `worker` publishes into. Indices wrap so a
    /// caller can never panic by over-provisioning workers.
    pub fn slot(&self, worker: usize) -> &ProgressSlot {
        &self.slots[worker % self.slots.len()]
    }

    /// Seconds since the table was created.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Sums every slot.
    pub fn totals(&self) -> ProgressTotals {
        let mut users_done = 0;
        let mut user_days = 0;
        let mut traces_failed = 0;
        for slot in self.slots.iter() {
            let (_, users, days, failed) = slot.read();
            users_done += users;
            user_days += days;
            traces_failed += failed;
        }
        ProgressTotals { users_done, user_days, traces_failed }
    }

    /// The one-line human rendering the sampler prints: users
    /// done/total, user-days/s throughput, an ETA extrapolated from
    /// the current rate, and the failure count when nonzero.
    pub fn render_line(&self) -> String {
        let totals = self.totals();
        let total = self.users_total();
        let elapsed = self.elapsed_seconds();
        let mut line = if total > 0 {
            format!("run: {}/{} users", totals.users_done, total)
        } else {
            format!("run: {} users", totals.users_done)
        };
        line.push_str(&format!(" · {} user-days", totals.user_days));
        if elapsed > 0.0 && totals.user_days > 0 {
            line.push_str(&format!(" · {:.1} user-days/s", totals.user_days as f64 / elapsed));
        }
        if total > totals.users_done && totals.users_done > 0 && elapsed > 0.0 {
            let rate = totals.users_done as f64 / elapsed;
            let eta = (total - totals.users_done) as f64 / rate;
            line.push_str(&format!(" · ETA {}", render_eta(eta)));
        }
        if totals.traces_failed > 0 {
            line.push_str(&format!(" · {} trace(s) failed", totals.traces_failed));
        }
        line
    }
}

fn render_eta(seconds: f64) -> String {
    if seconds >= 90.0 {
        // Round to whole seconds first, then split: formatting the
        // remainder with `{:02.0}` rounds it independently, so 119.7
        // would render as "1m60s" (and 3599.7 as "59m60s").
        let whole = seconds.round() as u64;
        if whole >= 3600 {
            format!("{}h{:02}m", whole / 3600, (whole % 3600) / 60)
        } else {
            format!("{}m{:02}s", whole / 60, whole % 60)
        }
    } else {
        format!("{seconds:.0}s")
    }
}

/// One observation of a [`ProgressTable`], as delivered to a
/// [`ProgressWatcher`] sink: the summed totals plus the published
/// expected total and the table's elapsed clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressUpdate {
    /// Summed per-worker totals at sampling time.
    pub totals: ProgressTotals,
    /// The published expected user total (0 until the runner knows it).
    pub users_total: u64,
    /// Seconds since the table was created.
    pub elapsed_seconds: f64,
}

impl ProgressTable {
    /// Samples the table into one [`ProgressUpdate`].
    pub fn update(&self) -> ProgressUpdate {
        ProgressUpdate {
            totals: self.totals(),
            users_total: self.users_total(),
            elapsed_seconds: self.elapsed_seconds(),
        }
    }
}

/// Background thread that samples a [`ProgressTable`] every interval
/// and hands each [`ProgressUpdate`] to a sink callback. This is the
/// one subscription primitive over the progress pipeline: the stderr
/// [`ProgressSampler`] and the fleet service's live job streams are
/// both sinks, so there is no second telemetry path.
///
/// [`ProgressWatcher::finish`] stops the thread after delivering one
/// final up-to-date sample, so a sink always sees the completed run.
#[derive(Debug)]
pub struct ProgressWatcher {
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressWatcher {
    /// Spawns the watcher thread sampling every `every` into `sink`.
    pub fn start(
        table: Arc<ProgressTable>,
        every: Duration,
        mut sink: impl FnMut(ProgressUpdate) + Send + 'static,
    ) -> ProgressWatcher {
        let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tailwise-progress".into())
            .spawn(move || {
                let (lock, cvar) = &*thread_stop;
                loop {
                    let stopping = *lock.lock().expect("progress watcher stop flag");
                    sink(table.update());
                    if stopping {
                        break;
                    }
                    let guard = lock.lock().expect("progress watcher stop flag");
                    // Condvar wait (not sleep) so finish() interrupts a
                    // long interval promptly for its final sample.
                    let _unused = cvar.wait_timeout(guard, every);
                }
            })
            .expect("spawning the progress watcher thread failed");
        ProgressWatcher { stop, handle: Some(handle) }
    }

    /// Stops the watcher after one final sample and joins the thread.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("progress watcher stop flag") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressWatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Background thread that repaints [`ProgressTable::render_line`] on
/// stderr every sampling interval, overwriting itself with `\r`.
/// Implemented as a [`ProgressWatcher`] whose sink paints.
///
/// [`ProgressSampler::finish`] stops the thread and prints the final
/// state followed by a newline; dropping an unfinished sampler stops
/// the thread and just closes the line so later output starts clean.
#[derive(Debug)]
pub struct ProgressSampler {
    watcher: Option<ProgressWatcher>,
}

impl ProgressSampler {
    /// Spawns the sampler thread repainting every `every`.
    pub fn start(table: Arc<ProgressTable>, every: Duration) -> ProgressSampler {
        let paint_table = Arc::clone(&table);
        let mut width = 0;
        let watcher = ProgressWatcher::start(table, every, move |_update| {
            paint(&paint_table.render_line(), &mut width);
        });
        ProgressSampler { watcher: Some(watcher) }
    }

    /// Stops the sampler and prints the final progress state on its
    /// own completed line. (The watcher delivers a final sample before
    /// stopping, so the last paint reflects the finished run.)
    pub fn finish(mut self) {
        if let Some(watcher) = self.watcher.take() {
            watcher.finish();
        }
        eprintln!();
    }
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        if let Some(watcher) = self.watcher.take() {
            watcher.finish();
            eprintln!();
        }
    }
}

/// Repaints the current line in place, padding over whatever the
/// previous (possibly longer) paint left behind.
///
/// Goes through `eprint!`, like the closing newline, so a test harness
/// that captures output captures the paint too. A raw `stderr()` write
/// bypasses that capture: the paint lands on the real stderr without
/// its newline and splices into the harness's next result line.
fn paint(line: &str, width: &mut usize) {
    *width = (*width).max(line.len());
    eprint!("\r{line:<pad$}", pad = *width);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_accumulate_and_totals_sum() {
        let table = ProgressTable::new(2);
        table.add_users_total(10);
        table.slot(0).begin_shard(3);
        table.slot(0).add_user(2);
        table.slot(1).add_user(5);
        table.slot(1).add_failure();
        assert_eq!(table.slot(0).read(), (3, 1, 2, 0));
        assert_eq!(
            table.totals(),
            ProgressTotals { users_done: 2, user_days: 7, traces_failed: 1 }
        );
        assert_eq!(table.users_total(), 10);
    }

    #[test]
    fn slot_index_wraps_instead_of_panicking() {
        let table = ProgressTable::new(2);
        table.slot(5).add_user(1); // 5 % 2 == slot 1
        assert_eq!(table.slot(1).read().1, 1);
    }

    #[test]
    fn zero_worker_table_still_has_a_slot() {
        let table = ProgressTable::new(0);
        table.slot(0).add_user(1);
        assert_eq!(table.totals().users_done, 1);
    }

    #[test]
    fn render_line_names_users_days_and_failures() {
        let table = ProgressTable::new(1);
        table.add_users_total(8);
        table.slot(0).add_user(3);
        table.slot(0).add_user(4);
        table.slot(0).add_failure();
        let line = table.render_line();
        assert!(line.contains("2/8 users"), "{line}");
        assert!(line.contains("7 user-days"), "{line}");
        assert!(line.contains("user-days/s"), "{line}");
        assert!(line.contains("ETA"), "{line}");
        assert!(line.contains("1 trace(s) failed"), "{line}");
    }

    #[test]
    fn eta_renders_minutes_past_ninety_seconds() {
        assert_eq!(render_eta(12.0), "12s");
        assert_eq!(render_eta(125.0), "2m05s");
    }

    #[test]
    fn eta_never_renders_sixty_seconds_at_the_minute_boundary() {
        // 119.7 used to render "1m60s": the seconds remainder was
        // rounded up by the formatter after the minutes were floored.
        assert_eq!(render_eta(119.7), "2m00s");
        assert_eq!(render_eta(119.4), "1m59s");
        assert_eq!(render_eta(179.9), "3m00s");
        assert_eq!(render_eta(90.0), "1m30s");
    }

    #[test]
    fn eta_renders_hours_past_the_hour_boundary() {
        // The rounding-then-splitting order matters at the hour edge
        // just as it did at the minute edge: 3599.7 rounds to 3600
        // whole seconds and must pick the hour branch, never "59m60s".
        for (seconds, expect) in [
            (3599.7, "1h00m"),
            (3599.4, "59m59s"),
            (3600.0, "1h00m"),
            (3659.9, "1h01m"),
            (5400.0, "1h30m"),
            (7199.7, "2h00m"),
            (7200.0, "2h00m"),
            (86_400.0, "24h00m"),
        ] {
            assert_eq!(render_eta(seconds), expect, "render_eta({seconds})");
        }
    }

    #[test]
    fn watcher_delivers_updates_and_a_final_sample() {
        let table = Arc::new(ProgressTable::new(1));
        table.add_users_total(2);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let watcher =
            ProgressWatcher::start(Arc::clone(&table), Duration::from_millis(5), move |update| {
                sink_seen.lock().unwrap().push(update);
            });
        table.slot(0).add_user(1);
        std::thread::sleep(Duration::from_millis(15));
        table.slot(0).add_user(3);
        watcher.finish();
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "watcher delivered no updates");
        let last = seen.last().unwrap();
        // finish() samples once more after the stop flag, so the final
        // update reflects everything published before finish().
        assert_eq!(last.totals.users_done, 2);
        assert_eq!(last.totals.user_days, 4);
        assert_eq!(last.users_total, 2);
    }

    #[test]
    fn watcher_stopped_before_its_first_sample_still_delivers_one() {
        // finish() immediately after start(), with an interval far
        // longer than the test: the condvar must interrupt the first
        // wait promptly (no full-interval stall) and the sink must
        // still see one final, current sample — never zero updates
        // and never a tick after finish() returns.
        let table = Arc::new(ProgressTable::new(1));
        table.add_users_total(5);
        table.slot(0).add_user(2);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let started = std::time::Instant::now();
        let watcher =
            ProgressWatcher::start(Arc::clone(&table), Duration::from_secs(60), move |update| {
                sink_seen.lock().unwrap().push(update);
            });
        watcher.finish();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "finish() must interrupt the interval wait, not ride it out"
        );
        let count = {
            let seen = seen.lock().unwrap();
            assert!(!seen.is_empty(), "a stopped watcher still owes its final sample");
            let last = *seen.last().unwrap();
            assert_eq!(last.totals.users_done, 1);
            assert_eq!(last.totals.user_days, 2);
            assert_eq!(last.users_total, 5);
            seen.len()
        };
        // The thread is joined: nothing ticks after finish() returns.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(seen.lock().unwrap().len(), count, "no stale tick after finish()");
    }

    #[test]
    fn sampler_paints_and_finishes_cleanly() {
        let table = Arc::new(ProgressTable::new(1));
        table.add_users_total(2);
        let sampler = ProgressSampler::start(Arc::clone(&table), Duration::from_millis(5));
        table.slot(0).add_user(1);
        std::thread::sleep(Duration::from_millis(15));
        table.slot(0).add_user(1);
        sampler.finish();
        // All we can assert portably is that finish() joined the thread
        // and the table kept counting.
        assert_eq!(table.totals().users_done, 2);
    }
}
