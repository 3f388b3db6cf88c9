//! Fault injection for robustness testing (the smoltcp idiom: every
//! simulator ships its own adverse conditions).
//!
//! The paper's results rest on clean captures and an always-accepting base
//! station. These transforms let tests and ablations ask what happens when
//! reality intrudes: jittered timestamps (scheduler noise, middlebox
//! buffering), dropped packets (loss before the capture point), and time
//! dilation (slower networks). All transforms are deterministic in the
//! seed; the engine side of fault injection (denied fast dormancy) lives
//! in `tailwise-radio`'s release policies.

use tailwise_trace::mix::{splitmix64, GAMMA};
use tailwise_trace::time::Duration;
use tailwise_trace::Trace;

/// Deterministic splitmix64 stream, so this crate stays rand-free.
#[derive(Debug, Clone)]
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream { state: seed.wrapping_add(GAMMA) }
    }

    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Adds independent uniform jitter in `[-max_jitter, +max_jitter]` to every
/// timestamp, then restores time order.
pub fn jitter_timestamps(trace: &Trace, seed: u64, max_jitter: Duration) -> Trace {
    let mut s = Stream::new(seed ^ 0x4A17);
    let pkts: Vec<_> = trace
        .iter()
        .map(|p| {
            let u = s.next_f64() * 2.0 - 1.0;
            p.shifted(max_jitter * u)
        })
        .collect();
    Trace::from_unsorted(pkts)
}

/// Drops each packet independently with probability `prob`.
pub fn drop_packets(trace: &Trace, seed: u64, prob: f64) -> Trace {
    let prob = prob.clamp(0.0, 1.0);
    let mut s = Stream::new(seed ^ 0xD409);
    let pkts: Vec<_> = trace.iter().copied().filter(|_| s.next_f64() >= prob).collect();
    Trace::from_unsorted(pkts)
}

/// Scales every timestamp by `factor` (> 0): `factor > 1` stretches the
/// trace (slower network), `< 1` compresses it.
pub fn dilate_time(trace: &Trace, factor: f64) -> Trace {
    assert!(factor > 0.0, "time dilation factor must be positive");
    let pkts: Vec<_> = trace
        .iter()
        .map(|p| {
            let mut q = *p;
            q.ts = tailwise_trace::Instant::from_micros(
                (p.ts.as_micros() as f64 * factor).round() as i64
            );
            q
        })
        .collect();
    Trace::from_unsorted(pkts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_trace::packet::{Direction, Packet};
    use tailwise_trace::Instant;

    fn trace(n: usize, step_ms: i64) -> Trace {
        Trace::from_sorted(
            (0..n)
                .map(|i| Packet::new(Instant::from_millis(i as i64 * step_ms), Direction::Up, 100))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn jitter_preserves_count_and_order() {
        let t = trace(500, 1000);
        let j = jitter_timestamps(&t, 1, Duration::from_millis(300));
        assert_eq!(j.len(), t.len());
        for w in j.packets().windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
        assert_ne!(j, t);
    }

    #[test]
    fn jitter_is_bounded() {
        let t = trace(200, 10_000);
        let j = jitter_timestamps(&t, 2, Duration::from_millis(500));
        // With 10 s spacing and 0.5 s jitter, packet i stays within
        // [i*10 - 0.5, i*10 + 0.5] and ordering is never ambiguous.
        for (i, p) in j.iter().enumerate() {
            let center = i as i64 * 10_000;
            assert!((p.ts.as_millis() - center).abs() <= 500);
        }
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let t = trace(10_000, 10);
        let d = drop_packets(&t, 3, 0.3);
        let rate = 1.0 - d.len() as f64 / t.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
        assert_eq!(drop_packets(&t, 3, 0.0).len(), t.len());
        assert_eq!(drop_packets(&t, 3, 1.0).len(), 0);
    }

    #[test]
    fn dilation_scales_gaps() {
        let t = trace(10, 1000);
        let d = dilate_time(&t, 2.0);
        assert_eq!(d.gaps()[0], Duration::from_millis(2000));
        let c = dilate_time(&t, 0.5);
        assert_eq!(c.gaps()[0], Duration::from_millis(500));
    }

    #[test]
    fn faults_are_deterministic() {
        let t = trace(300, 137);
        assert_eq!(
            jitter_timestamps(&t, 9, Duration::from_millis(50)),
            jitter_timestamps(&t, 9, Duration::from_millis(50))
        );
        assert_eq!(drop_packets(&t, 9, 0.2), drop_packets(&t, 9, 0.2));
        assert_ne!(drop_packets(&t, 9, 0.2), drop_packets(&t, 10, 0.2));
    }
}
