//! The fine-grained "measured" energy model behind the Figure 8
//! validation.
//!
//! §6.1 justifies the per-second energy model by comparing its estimates
//! against power-monitor measurements of TCP bulk transfers (10 kB, 100 kB
//! and 1000 kB, five runs each), finding errors "within 10% or less".
//! Without the hardware, we substitute a finer ground-truth model built
//! from the effect the paper cites: "the value of the energy consumed per
//! bit changes as the size of traffic bursts changes" (ref. \[8\], Huang et
//! al., MobiSys 2012 — small transfers are less energy-efficient because
//! fixed per-transfer costs do not amortize). Ground truth = bulk power ×
//! duration × a size-dependent efficiency factor × deterministic per-run
//! measurement noise; the estimate under test is the paper's plain
//! `power × duration`.

use tailwise_radio::profile::CarrierProfile;
use tailwise_trace::mix::splitmix64;
use tailwise_trace::Direction;

/// Transfer sizes of the §6.1 validation runs, bytes.
pub const TRANSFER_SIZES: [u64; 3] = [10_000, 100_000, 1_000_000];
/// Runs per size ("each experiment contains five runs").
pub const RUNS_PER_SIZE: usize = 5;

/// Size-dependent inefficiency: small transfers burn more energy per bit
/// (per-transfer overheads — channel ramp-up, scheduling grants — do not
/// amortize). Calibrated so the model error spans roughly ±10%, matching
/// the paper's reported envelope.
pub fn efficiency_factor(bytes: u64) -> f64 {
    // 10 kB → ~1.10, 100 kB → ~1.03, 1 MB → ~0.97.
    let decades_above_10kb = (bytes as f64 / 10_000.0).log10();
    1.10 - 0.065 * decades_above_10kb
}

/// Deterministic per-run "measurement noise" in `[-0.04, +0.04]`,
/// splitmix-hashed from the run index.
pub fn run_noise(run: usize) -> f64 {
    let u = (splitmix64(run as u64) >> 11) as f64 / (1u64 << 53) as f64;
    (u * 2.0 - 1.0) * 0.04
}

/// One validation sample: the relative error of the per-second model
/// against the fine-grained ground truth for a bulk transfer.
pub fn model_error(
    profile: &CarrierProfile,
    dir: Direction,
    bytes: u64,
    run: usize,
    throughput_bps: f64,
) -> f64 {
    let duration_s = bytes as f64 * 8.0 / throughput_bps;
    let power = profile.p_data(dir);
    let estimated = power * duration_s;
    let truth = power * duration_s * efficiency_factor(bytes) * (1.0 + run_noise(run));
    (estimated - truth) / truth
}

/// All errors for one profile across the §6.1 grid (sizes × runs × both
/// directions).
pub fn error_population(profile: &CarrierProfile, throughput_bps: f64) -> Vec<f64> {
    let mut out = Vec::new();
    for &size in &TRANSFER_SIZES {
        for run in 0..RUNS_PER_SIZE {
            for dir in [Direction::Up, Direction::Down] {
                out.push(model_error(profile, dir, size, run, throughput_bps));
            }
        }
    }
    out
}

/// Five-number summary `(min, q1, median, q3, max)` of an error
/// population.
pub fn five_number(errors: &[f64]) -> (f64, f64, f64, f64, f64) {
    assert!(!errors.is_empty());
    let mut v = errors.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    (v[0], q(0.25), q(0.5), q(0.75), v[v.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_transfers_are_less_efficient() {
        assert!(efficiency_factor(10_000) > efficiency_factor(100_000));
        assert!(efficiency_factor(100_000) > efficiency_factor(1_000_000));
        assert!((efficiency_factor(10_000) - 1.10).abs() < 1e-9);
    }

    #[test]
    fn errors_stay_within_the_papers_envelope() {
        // Fig. 8's whiskers sit within ±0.15; §6.1 claims ≤10% average.
        for p in [CarrierProfile::verizon_3g(), CarrierProfile::verizon_lte()] {
            let errors = error_population(&p, 5_000_000.0);
            assert_eq!(errors.len(), 30);
            let mean_abs: f64 = errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64;
            assert!(mean_abs <= 0.10, "{}: mean |err| {mean_abs}", p.name);
            let (lo, _, _, _, hi) = five_number(&errors);
            assert!(lo >= -0.15 && hi <= 0.15, "{}: [{lo}, {hi}]", p.name);
        }
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        for run in 0..100 {
            let n = run_noise(run);
            assert!((-0.04..=0.04).contains(&n));
            assert_eq!(n, run_noise(run));
        }
    }

    #[test]
    fn five_number_summary_is_ordered() {
        let errors = error_population(&CarrierProfile::verizon_lte(), 20_000_000.0);
        let (min, q1, med, q3, max) = five_number(&errors);
        assert!(min <= q1 && q1 <= med && med <= q3 && q3 <= max);
    }
}
