//! Declarative admission policies for the fleet's network hierarchy.
//!
//! An [`AdmissionSpec`] is the file-representable description of an
//! [`AdmissionPolicy`]: the runner builds one fresh policy instance per
//! network element (cell or RNC), so elements never share admission
//! state. The same three specs serve both hierarchy levels:
//!
//! * [`Always`](AdmissionSpec::Always) — the paper's §2.2 modeling
//!   assumption: every request honored;
//! * [`RateLimited`](AdmissionSpec::RateLimited) — at most one grant
//!   per interval per element (the PR 4 storm guard);
//! * [`LoadReactive`](AdmissionSpec::LoadReactive) — deny while the
//!   element's rolling message rate sits at or above a watermark
//!   ([`tailwise_radio::admission::LoadReactive`]), the §8
//!   controller-protecting policy.
//!
//! ## Token grammar
//!
//! Scenario-file *tables* spell a spec structurally (`admission =
//! "reactive"` plus `watermark_per_s`/`window_s` keys — see
//! `docs/SCENARIO_FORMAT.md` §6). Sweep values and CLI flags use the
//! compact one-token form parsed by [`FromStr`](std::str::FromStr) and printed by
//! [`Display`](std::fmt::Display):
//!
//! | Token | Spec |
//! |---|---|
//! | `always` | every request admitted |
//! | `rate-limited:<secs>` | one grant per `<secs>` seconds |
//! | `reactive:<watermark>` | deny at ≥ `<watermark>` msg/s over a 1 s window |
//! | `reactive:<watermark>:<window>` | same, over a `<window>`-second rolling window |

use tailwise_radio::admission::{AdmissionPolicy, AlwaysAccept, LoadReactive, RateLimited};
use tailwise_trace::time::Duration;

/// `secs` as a [`Duration`] when it is finite and rounds to at least one
/// microsecond, the grain a `Duration` holds. Every interval a scenario
/// file or token gives is checked here, on the value the run will use:
/// a positive float under half a microsecond would otherwise become a
/// zero interval.
pub(crate) fn positive_duration(secs: f64) -> Option<Duration> {
    let duration = Duration::from_secs_f64(secs);
    (secs.is_finite() && duration > Duration::ZERO).then_some(duration)
}

/// A declarative (file-representable) admission policy for one level of
/// the network hierarchy. See the module docs for the variants and the
/// token grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionSpec {
    /// The paper's modeling assumption: every request is honored (§2.2).
    Always,
    /// At most one grant per `min_interval` per element — an element
    /// protecting itself from fast-dormancy storms by spacing (§8).
    RateLimited {
        /// Minimum spacing between grants.
        min_interval: Duration,
    },
    /// Deny while the element's rolling message rate is at or above the
    /// watermark — admission that *reacts* to load (§8's storm, closed
    /// loop). Messages are the adjudication-time model:
    /// `per_fd_demotion` per grant, one per denial.
    LoadReactive {
        /// Rolling mean message rate (per second) at which requests are
        /// denied.
        watermark_per_s: u64,
        /// Rolling window length, whole seconds (≥ 1).
        window_s: u64,
    },
}

impl AdmissionSpec {
    /// The stable on-disk kind token (`admission = "..."` in `[cells]`
    /// and `[rnc]` tables). Parameters ride in separate keys there; the
    /// compact one-token spelling is [`Display`](std::fmt::Display).
    pub fn token(&self) -> &'static str {
        match self {
            AdmissionSpec::Always => "always",
            AdmissionSpec::RateLimited { .. } => "rate-limited",
            AdmissionSpec::LoadReactive { .. } => "reactive",
        }
    }

    /// Builds one element's fresh admission-policy instance.
    pub fn build(&self) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionSpec::Always => Box::new(AlwaysAccept),
            AdmissionSpec::RateLimited { min_interval } => {
                Box::new(RateLimited::new(*min_interval))
            }
            AdmissionSpec::LoadReactive { watermark_per_s, window_s } => {
                Box::new(LoadReactive::new(*watermark_per_s, *window_s))
            }
        }
    }
}

impl std::fmt::Display for AdmissionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionSpec::Always => write!(f, "always"),
            AdmissionSpec::RateLimited { min_interval } => {
                write!(f, "rate-limited:{}", min_interval.as_secs_f64())
            }
            AdmissionSpec::LoadReactive { watermark_per_s, window_s: 1 } => {
                write!(f, "reactive:{watermark_per_s}")
            }
            AdmissionSpec::LoadReactive { watermark_per_s, window_s } => {
                write!(f, "reactive:{watermark_per_s}:{window_s}")
            }
        }
    }
}

impl std::str::FromStr for AdmissionSpec {
    type Err = String;

    fn from_str(token: &str) -> Result<AdmissionSpec, String> {
        let mut parts = token.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let usage = "one of always, rate-limited:<secs>, reactive:<watermark>[:<window_s>]";
        match kind {
            "always" => match args.is_empty() {
                true => Ok(AdmissionSpec::Always),
                false => Err(format!("`always` takes no parameters; {usage}")),
            },
            "rate-limited" => {
                let [secs] = args.as_slice() else {
                    return Err(format!(
                        "`rate-limited` needs exactly one parameter (seconds between grants); \
                         {usage}"
                    ));
                };
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| format!("rate-limited interval {secs:?} is not a number"))?;
                let Some(min_interval) = positive_duration(secs) else {
                    return Err(format!(
                        "rate-limited interval must be positive in whole microseconds, got {secs}"
                    ));
                };
                Ok(AdmissionSpec::RateLimited { min_interval })
            }
            "reactive" => {
                let (watermark, window) = match args.as_slice() {
                    [watermark] => (*watermark, None),
                    [watermark, window] => (*watermark, Some(*window)),
                    _ => {
                        return Err(format!(
                            "`reactive` needs a watermark and an optional window; {usage}"
                        ))
                    }
                };
                let watermark_per_s: u64 = watermark.parse().map_err(|_| {
                    format!("reactive watermark {watermark:?} is not a message rate")
                })?;
                let window_s: u64 = match window {
                    None => 1,
                    Some(w) => match w.parse() {
                        Ok(w) if w >= 1 => w,
                        _ => {
                            return Err(format!(
                                "reactive window {w:?} must be a whole number of seconds ≥ 1"
                            ))
                        }
                    },
                };
                Ok(AdmissionSpec::LoadReactive { watermark_per_s, window_s })
            }
            other => Err(format!("unknown admission policy {other:?}; {usage}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_trace::time::Instant;

    #[test]
    fn tokens_and_builders() {
        assert_eq!(AdmissionSpec::Always.token(), "always");
        let limited = AdmissionSpec::RateLimited { min_interval: Duration::from_secs(5) };
        assert_eq!(limited.token(), "rate-limited");
        let mut policy = limited.build();
        assert!(policy.admit(Instant::ZERO));
        assert!(!policy.admit(Instant::from_secs(1)));
        assert!(policy.admit(Instant::from_secs(5)));
        let mut always = AdmissionSpec::Always.build();
        assert!((0..10).all(|i| always.admit(Instant::from_secs(i))));

        let reactive = AdmissionSpec::LoadReactive { watermark_per_s: 2, window_s: 1 };
        assert_eq!(reactive.token(), "reactive");
        let mut policy = reactive.build();
        assert!(policy.admit(Instant::ZERO));
        policy.observe(Instant::ZERO, 2);
        assert!(!policy.admit(Instant::ZERO), "watermark engages");
    }

    #[test]
    fn compound_tokens_round_trip() {
        for spec in [
            AdmissionSpec::Always,
            AdmissionSpec::RateLimited { min_interval: Duration::from_secs_f64(2.5) },
            AdmissionSpec::RateLimited { min_interval: Duration::from_micros(1) },
            AdmissionSpec::LoadReactive { watermark_per_s: 120, window_s: 1 },
            AdmissionSpec::LoadReactive { watermark_per_s: 0, window_s: 7 },
        ] {
            let token = spec.to_string();
            assert_eq!(token.parse::<AdmissionSpec>().unwrap(), spec, "token {token:?}");
        }
        assert_eq!("reactive:120".parse::<AdmissionSpec>().unwrap().to_string(), "reactive:120");
        // The shortest interval a token can hold: half a microsecond
        // rounds up to one.
        assert_eq!(
            "rate-limited:0.0000005".parse::<AdmissionSpec>().unwrap(),
            AdmissionSpec::RateLimited { min_interval: Duration::from_micros(1) }
        );
    }

    #[test]
    fn malformed_tokens_explain_themselves() {
        for (token, needle) in [
            ("sometimes", "unknown admission policy"),
            ("always:1", "takes no parameters"),
            ("rate-limited", "exactly one parameter"),
            ("rate-limited:0", "must be positive"),
            ("rate-limited:0.0000001", "must be positive in whole microseconds, got 0.0000001"),
            ("rate-limited:-1", "must be positive"),
            ("rate-limited:inf", "must be positive"),
            ("rate-limited:soon", "not a number"),
            ("reactive", "needs a watermark"),
            ("reactive:fast", "not a message rate"),
            ("reactive:10:0", "≥ 1"),
            ("reactive:10:2:3", "optional window"),
        ] {
            let err = token.parse::<AdmissionSpec>().unwrap_err();
            assert!(err.contains(needle), "{token:?}: {err}");
        }
    }
}
