//! Network-side admission control for fast-dormancy requests.
//!
//! 3GPP Release 8 turned fast dormancy into a *request*: the device
//! asks, the network decides (§2.2). The paper's simulations assume
//! every request is granted and flag carrier policy as an open question
//! (§8, future work). An [`AdmissionPolicy`] is that decision point: a
//! request arrives, the policy says yes or no, and a denied request
//! leaves the inactivity timers in charge. Real controllers decide
//! *under load* — the RNC that the paper's §8 signaling-storm concern
//! is about sees every RRC message its cells carry — so a policy can
//! also **observe** the signaling traffic charged to its network
//! element (cell or RNC) and fold it into future verdicts.
//!
//! [`AlwaysAccept`] is the paper's assumption and [`RateLimited`] a
//! base station that spaces its grants; both ignore the load feed.
//! [`LoadReactive`] is the load-coupled one: it denies requests while
//! the rolling message rate over its window sits at or above a
//! watermark.
//!
//! ## Message accounting at the admission point
//!
//! Admission decisions happen *before* a simulation replay exists, so
//! the load an admission policy observes is the deterministic
//! adjudication-time model, not the replayed transition log: a granted
//! fast-dormancy request costs
//! [`SignalingModel::per_fd_demotion`](crate::signaling::SignalingModel)
//! messages (request + release + confirm), a denied request still
//! costs [`REQUEST_MESSAGES`] (the request reached the controller).
//! Coordinators feed exactly those counts through [`observe`]
//! (`AdmissionPolicy::observe`), in adjudication order, which keeps
//! every verdict a pure function of the merged request stream — the
//! property the fleet's bit-identical-at-any-thread-count contract
//! rests on.
//!
//! Neither verdict costs more than `max(per_fd_demotion,
//! REQUEST_MESSAGES)`, so the load with every request charged that much
//! bounds what a policy observes from above at every instant. Where
//! that bound keeps a [`LoadReactive`] window under its watermark, the
//! request is a certain grant, and a certain grant never reaches a
//! policy: the fleet's adjudicator feeds fresh policies only the spans
//! around the other requests, each from one window before them — no
//! older state changes a load-reactive verdict — so every verdict is
//! the one the whole stream would give. [`RateLimited`] state reaches
//! back to the last grant, however old, so it is fed the whole stream.
//!
//! [`observe`]: AdmissionPolicy::observe

use std::collections::VecDeque;

use tailwise_trace::time::{Duration, Instant};

/// RRC messages a *denied* fast-dormancy request still costs the
/// network element that refused it: the request itself transited the
/// element. Granted requests cost the signaling model's
/// `per_fd_demotion` instead.
pub const REQUEST_MESSAGES: u32 = 1;

/// Decides whether a network element (cell or RNC) admits a
/// fast-dormancy request, optionally reacting to the signaling load the
/// element carries.
///
/// Implementations must be deterministic: verdicts may depend only on
/// the `admit`/`observe` call sequence, never on wall-clock time or
/// randomness, so a merged request stream adjudicates identically on
/// every machine.
pub trait AdmissionPolicy {
    /// Returns `true` to admit a request arriving at `at`.
    fn admit(&mut self, at: Instant) -> bool;

    /// Informs the policy of RRC messages charged to its element at
    /// `at` (its own grants and denials included). Load-reactive
    /// policies integrate this into a rolling rate; stateless policies
    /// keep the default no-op.
    fn observe(&mut self, at: Instant, messages: u32) {
        let _ = (at, messages);
    }
}

/// The paper's modeling assumption: every request is honored (§2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysAccept;

impl AdmissionPolicy for AlwaysAccept {
    fn admit(&mut self, _at: Instant) -> bool {
        true
    }
}

/// Rate-limited admission: requests within `min_interval` of the last
/// *admitted* request are denied. Models a base station protecting
/// itself from signaling storms — the §8 concern about "multiple phones
/// triggering the feature".
#[derive(Debug, Clone, Copy)]
pub struct RateLimited {
    min_interval: Duration,
    last_admit: Option<Instant>,
}

impl RateLimited {
    /// Creates a policy that admits at most one request per
    /// `min_interval`.
    pub fn new(min_interval: Duration) -> RateLimited {
        RateLimited { min_interval, last_admit: None }
    }
}

impl AdmissionPolicy for RateLimited {
    fn admit(&mut self, at: Instant) -> bool {
        match self.last_admit {
            Some(prev) if at - prev < self.min_interval => false,
            _ => {
                self.last_admit = Some(at);
                true
            }
        }
    }
}

/// Load-reactive admission: deny while the rolling message rate is at
/// or above a watermark — the controller-protecting policy the paper's
/// §8 storm scenario calls for.
///
/// The policy keeps a rolling window of the last `window_s` seconds of
/// observed messages (second-granularity buckets). A request at time
/// `t` is denied iff the messages observed in `(t - window_s, t]`
/// average at least `watermark_per_s` per second. Denials themselves
/// feed back into the window (a denied request still cost a message),
/// so the policy behaves as a governor: load oscillates just under the
/// watermark instead of running away.
#[derive(Debug, Clone)]
pub struct LoadReactive {
    watermark_per_s: u64,
    window_s: i64,
    /// `(second, messages)` buckets, seconds strictly ascending.
    buckets: VecDeque<(i64, u64)>,
    in_window: u64,
}

impl LoadReactive {
    /// Denies requests while the rolling mean rate over `window_s`
    /// seconds is at or above `watermark_per_s` messages per second.
    ///
    /// # Panics
    /// If `window_s` is zero.
    pub fn new(watermark_per_s: u64, window_s: u64) -> LoadReactive {
        assert!(window_s >= 1, "load-reactive admission needs a window of at least one second");
        LoadReactive {
            watermark_per_s,
            window_s: window_s as i64,
            buckets: VecDeque::new(),
            in_window: 0,
        }
    }

    /// Messages currently inside the rolling window ending at the last
    /// eviction point.
    pub fn messages_in_window(&self) -> u64 {
        self.in_window
    }

    /// Drops buckets older than the window ending at `second`.
    fn evict(&mut self, second: i64) {
        while let Some(&(s, messages)) = self.buckets.front() {
            if s > second - self.window_s {
                break;
            }
            self.in_window -= messages;
            self.buckets.pop_front();
        }
    }
}

fn second_of(at: Instant) -> i64 {
    at.as_micros().div_euclid(1_000_000)
}

impl AdmissionPolicy for LoadReactive {
    fn admit(&mut self, at: Instant) -> bool {
        self.evict(second_of(at));
        self.in_window < self.watermark_per_s.saturating_mul(self.window_s as u64)
    }

    fn observe(&mut self, at: Instant, messages: u32) {
        let second = second_of(at);
        self.evict(second);
        match self.buckets.back_mut() {
            Some((s, bucket)) if *s == second => *bucket += messages as u64,
            _ => self.buckets.push_back((second, messages as u64)),
        }
        self.in_window += messages as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> Instant {
        Instant::from_secs(s)
    }

    #[test]
    fn always_and_rate_limited_ignore_the_load_feed() {
        let mut always: Box<dyn AdmissionPolicy> = Box::new(AlwaysAccept);
        always.observe(t(0), 1_000_000);
        assert!((0..10).all(|s| always.admit(t(s))));

        let mut limited: Box<dyn AdmissionPolicy> =
            Box::new(RateLimited::new(Duration::from_secs(10)));
        assert!(limited.admit(t(0)));
        limited.observe(t(1), 9999); // no effect on spacing
        assert!(!limited.admit(t(5)));
        assert!(limited.admit(t(10)));
    }

    #[test]
    fn rate_limit_enforces_spacing() {
        let mut p = RateLimited::new(Duration::from_secs(10));
        let s = Instant::from_secs_f64;
        assert!(p.admit(s(0.0)));
        assert!(!p.admit(s(5.0)));
        assert!(!p.admit(s(9.9)));
        assert!(p.admit(s(10.0)));
        assert!(!p.admit(s(15.0)));
        assert!(p.admit(s(20.0)));
    }

    #[test]
    fn rate_limit_denials_do_not_reset_the_clock() {
        let mut p = RateLimited::new(Duration::from_secs(10));
        assert!(p.admit(t(0)));
        for s in 1..=3 {
            assert!(!p.admit(t(s)));
        }
        // Still measured from the admit at t=0, not the last denial.
        assert!(p.admit(Instant::from_secs_f64(10.5)));
    }

    #[test]
    fn load_reactive_denies_at_the_watermark() {
        // Watermark 5 msg/s over a 1 s window: admit until 5 messages
        // land in the current second.
        let mut p = LoadReactive::new(5, 1);
        assert!(p.admit(t(0)), "empty window admits");
        for _ in 0..4 {
            p.observe(t(0), 1);
        }
        assert!(p.admit(t(0)), "4 < 5 still admits");
        p.observe(t(0), 1);
        assert!(!p.admit(t(0)), "watermark reached denies");
        // The next second the bucket ages out.
        assert!(p.admit(t(1)));
    }

    #[test]
    fn rolling_window_spans_multiple_seconds() {
        // Watermark 2 msg/s × 3 s window = 6 messages in any 3 s span.
        let mut p = LoadReactive::new(2, 3);
        p.observe(t(0), 3);
        p.observe(t(1), 3);
        assert!(!p.admit(t(2)), "6 messages inside (−1..=2]");
        // At second 3 the window is (0, 3]: second 0 ages out, only
        // second 1's 3 messages remain — under the 6-message budget.
        assert!(p.admit(t(3)));
        assert_eq!(p.messages_in_window(), 3);
        assert!(p.admit(t(4)), "window (1, 4] holds nothing");
        assert_eq!(p.messages_in_window(), 0);
    }

    #[test]
    fn governor_oscillates_under_sustained_storm() {
        // A storm of one request every 100 ms, each grant costing 3
        // messages, each denial 1, against a 10 msg/s watermark: the
        // policy must deny some and admit some — a governor, not a
        // latch.
        let mut p = LoadReactive::new(10, 1);
        let (mut granted, mut denied) = (0u64, 0u64);
        for i in 0..200 {
            let at = Instant::from_millis(i * 100);
            let ok = p.admit(at);
            p.observe(at, if ok { 3 } else { REQUEST_MESSAGES });
            if ok {
                granted += 1;
            } else {
                denied += 1;
            }
        }
        assert!(granted > 0, "governor latched shut");
        assert!(denied > 0, "watermark never engaged");
        // Deterministic: the same stream adjudicates identically.
        let rerun = |_: ()| {
            let mut p = LoadReactive::new(10, 1);
            (0..200)
                .map(|i| {
                    let at = Instant::from_millis(i * 100);
                    let ok = p.admit(at);
                    p.observe(at, if ok { 3 } else { REQUEST_MESSAGES });
                    ok
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(rerun(()), rerun(()));
    }

    #[test]
    fn zero_watermark_denies_everything_after_first_message() {
        let mut p = LoadReactive::new(0, 1);
        // watermark 0: budget is 0 messages, so even an empty window
        // refuses (0 < 0 is false).
        assert!(!p.admit(t(0)));
    }

    #[test]
    #[should_panic(expected = "at least one second")]
    fn zero_window_is_rejected() {
        LoadReactive::new(5, 0);
    }
}
