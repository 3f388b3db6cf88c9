//! The paper's comparisons, pinned as orderings and bands at small scale.
//!
//! Each test names the figure it pins and states where the reproduction
//! departs from the figure, and by how much.

use tailwise_core::makeidle::MakeIdle;
use tailwise_radio::profile::CarrierProfile;
use tailwise_sim::engine::{run, SimConfig};
use tailwise_workload::user::UserModel;

/// Fig. 13: MakeIdle's false-switch rate falls as the window *n* grows.
///
/// On the Fig. 13 harness user (3G user 1, five days, Verizon 3G) false
/// switches fall from 3.53% at n = 10 to 1.48% at 100 and 1.04% at 400.
/// Missed switches do not stay flat: they rise from 0.01% at n = 10 to
/// 0.66% at 100 and 4.44% at 400, so from n = 100 to 400 the window
/// trades 0.44 points of false switches for 3.78 points of missed ones.
/// Why missed switches rise is unverified. The band below holds each
/// rate to within about a tenth of these values.
#[test]
fn fig13_false_switches_fall_and_missed_switches_rise_with_window_n() {
    let profile = CarrierProfile::verizon_3g();
    let trace = UserModel::verizon_3g_users()[0].generate();
    let rates = [10usize, 100, 400].map(|n| {
        let config = SimConfig { window_capacity: n, ..SimConfig::default() };
        let report = run(&profile, &config, &trace, &mut MakeIdle::new());
        (
            report.confusion.false_switch_rate() * 100.0,
            report.confusion.missed_switch_rate() * 100.0,
        )
    });
    let [(fp10, fn10), (fp100, fn100), (fp400, fn400)] = rates;
    assert!(fp10 > fp100 && fp100 > fp400, "false switches must fall with n: {rates:?}");
    assert!(fn10 < fn100 && fn100 < fn400, "missed switches must rise with n: {rates:?}");
    for (rate, expect) in [(fp10, 3.53), (fp100, 1.48), (fp400, 1.04), (fn100, 0.66), (fn400, 4.44)]
    {
        assert!((rate - expect).abs() <= 0.1 * expect, "{rate:.2}% is not within 10% of {expect}%");
    }
    assert!(fn10 < 0.05, "missed switches at n = 10: {fn10:.3}%");
}
