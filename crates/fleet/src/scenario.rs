//! Declarative fleet scenarios and deterministic per-user synthesis.
//!
//! A [`Scenario`] names a synthetic population — how many users, what mix
//! of the §6.1 applications they run, which carrier profiles they are on,
//! which scheme is under test — plus a master seed. Everything about user
//! `i` (its carrier, app mix, usage habits, and every packet of its
//! trace) is a pure function of `(master_seed, i)`: seeding is
//! hierarchical, so any worker thread can materialize any user without
//! coordination, and the same scenario yields the same population at any
//! thread count or shard schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tailwise_core::schemes::Scheme;
use tailwise_radio::profile::CarrierProfile;
use tailwise_scenfile::ScenError;
use tailwise_sim::engine::SimConfig;
use tailwise_trace::mix::splitmix64 as splitmix;
use tailwise_trace::time::Duration;
use tailwise_workload::apps::{AppKind, AppParams};
use tailwise_workload::diurnal::DiurnalProfile;
use tailwise_workload::user::UserModel;

use crate::source::{SourceSet, UserSource};

/// Derives the seed of user `index` from the scenario master seed.
///
/// The inner round turns the master seed into a well-mixed per-scenario
/// constant (so structured master seeds like 1, 2, 3 don't produce
/// structured constants); the outer round is the one that decorrelates
/// the index — a single SplitMix64 finalizer fully avalanches, and
/// `StdRng::seed_from_u64` mixes once more on top.
pub fn user_seed(master_seed: u64, index: u64) -> u64 {
    splitmix(splitmix(master_seed ^ 0xF1EE_7000_0000_0000) ^ index)
}

/// A declarative population-scale experiment.
///
/// The deterministic identity of a fleet run is the full `Scenario`
/// value: every field (including `shard_size`, which fixes the
/// floating-point reduction order) feeds the resulting
/// [`FleetReport`](crate::FleetReport). Thread count deliberately does
/// *not* appear here — it is an execution knob passed to
/// [`run`](crate::run), and can never change the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name for reports.
    pub name: String,
    /// Population size.
    pub users: u64,
    /// Days of traffic synthesized per user (the paper's per-user traces
    /// run 2–5 days; fleets default to 1 for throughput).
    pub days_per_user: u32,
    /// The scheme under test, compared against [`Scheme::StatusQuo`].
    pub scheme: Scheme,
    /// Carrier profiles and their population weights.
    pub carrier_mix: Vec<(CarrierProfile, f64)>,
    /// Application kinds and their adoption weights. Background kinds
    /// populate always-on app slots, foreground kinds populate
    /// usage-session slots (see [`AppKind::is_background`]).
    pub app_mix: Vec<(AppKind, f64)>,
    /// Master seed; all per-user randomness derives from it.
    pub master_seed: u64,
    /// Users per shard. Fixes the deterministic reduction order, so it is
    /// part of the scenario identity — changing it changes the report in
    /// the last floating-point bits.
    pub shard_size: u64,
    /// Engine configuration shared by every user simulation.
    pub sim: SimConfig,
    /// Optional cell topology: partitions users across base-station
    /// cells and routes fast-dormancy requests through each cell's
    /// shared release policy (the `[cells]` file table). `None` keeps
    /// users radio-isolated. Requires a
    /// [scriptable](tailwise_core::schemes::Scheme::scriptable) scheme.
    pub cells: Option<crate::topology::NetworkTopology>,
}

impl Scenario {
    /// A scenario with the paper's seven-app mix, weighted toward the
    /// chatty background apps that dominate real phone populations.
    pub fn new(users: u64, scheme: Scheme, carrier: CarrierProfile) -> Scenario {
        Scenario {
            name: format!("{} × {} on {}", users, scheme.label(), carrier.name),
            users,
            days_per_user: 1,
            scheme,
            carrier_mix: vec![(carrier, 1.0)],
            app_mix: vec![
                (AppKind::Im, 3.0),
                (AppKind::Email, 2.5),
                (AppKind::News, 1.5),
                (AppKind::MicroBlog, 1.5),
                (AppKind::GameAds, 1.0),
                (AppKind::Social, 2.0),
                (AppKind::Finance, 1.0),
            ],
            master_seed: 1,
            shard_size: 64,
            sim: SimConfig::default(),
            cells: None,
        }
    }

    /// Loads a scenario from an on-disk file (see
    /// `docs/SCENARIO_FORMAT.md` for the format).
    ///
    /// Errors — including the file declaring `[[sweep]]` axes or a
    /// `[corpus]` source, which a single `Scenario` cannot represent —
    /// carry the file path and a line/column position. Use
    /// [`SourceSet::from_file`] to load those files.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenError> {
        let path = path.as_ref();
        Scenario::from_set(SourceSet::from_file(path)?)
            .map_err(|e| e.with_origin(path.display().to_string()))
    }

    /// Parses a scenario from document text (no sweep axes or corpus
    /// allowed; see [`from_file`](Self::from_file)).
    pub fn from_toml_str(src: &str) -> Result<Scenario, ScenError> {
        Scenario::from_set(SourceSet::from_toml_str(src)?)
    }

    /// The single synthetic scenario a parsed document declares.
    fn from_set(set: SourceSet) -> Result<Scenario, ScenError> {
        match set {
            SourceSet { source: UserSource::Synthetic(base), axes } if axes.is_empty() => Ok(base),
            SourceSet { source: UserSource::Synthetic(_), .. } => Err(ScenError::at(
                tailwise_scenfile::Pos::START,
                "document declares [[sweep]] axes; load it with SourceSet::from_file \
                 (or run it with `tailwise fleet run`)",
            )),
            SourceSet { source: UserSource::Corpus(corpus), .. } => Err(ScenError::at(
                corpus.spec.dir_pos,
                "document declares a [corpus] source; load it with SourceSet::from_file \
                 (or run it with `tailwise fleet run`)",
            )),
        }
    }

    /// Serializes the scenario to document text that
    /// [`from_toml_str`](Self::from_toml_str) parses back to an equal
    /// value: the writer reads its text back and returns it only when
    /// it reads back equal.
    ///
    /// Errors — with
    /// [`ScenErrorKind::Emit`](tailwise_scenfile::ScenErrorKind::Emit),
    /// the same [`ScenError`] type the read path uses — when the
    /// scenario does not read back equal: the error carries the
    /// parser's message, or names the first field that reads back
    /// differently.
    pub fn to_toml_string(&self) -> Result<String, ScenError> {
        SourceSet { source: UserSource::Synthetic(self.clone()), axes: Vec::new() }.to_toml_string()
    }

    /// Writes [`to_toml_string`](Self::to_toml_string) to `path`.
    /// I/O failures are emit-kind [`ScenError`]s carrying the path as
    /// their origin.
    pub fn to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), ScenError> {
        let path = path.as_ref();
        let text = self.to_toml_string()?;
        std::fs::write(path, text).map_err(|e| {
            ScenError::emit(format!("cannot write scenario file: {e}"))
                .with_origin(path.display().to_string())
        })
    }

    /// Total synthesized user-days. Applies the same ≥ 1 day clamp as
    /// [`user`](Self::user), so the count always matches what the runner
    /// actually simulates.
    pub fn user_days(&self) -> u64 {
        self.users * self.days_per_user.max(1) as u64
    }

    /// Materializes user `index`: its carrier and its [`UserModel`].
    ///
    /// Pure in `(self, index)` — no shared state, no ordering dependence.
    pub fn user(&self, index: u64) -> (CarrierProfile, UserModel) {
        assert!(index < self.users, "user index {index} out of range");
        assert!(!self.carrier_mix.is_empty(), "scenario needs at least one carrier");
        assert!(!self.app_mix.is_empty(), "scenario needs at least one app kind");
        let seed = user_seed(self.master_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);

        let carrier = self.carrier_mix
            [weighted_index(&mut rng, self.carrier_mix.iter().map(|(_, w)| *w))]
        .0
        .clone();

        let background: Vec<(AppKind, f64)> =
            self.app_mix.iter().filter(|(k, w)| k.is_background() && *w > 0.0).copied().collect();
        let foreground: Vec<(AppKind, f64)> =
            self.app_mix.iter().filter(|(k, w)| !k.is_background() && *w > 0.0).copied().collect();

        // Every phone runs at least one background app (push/IM keeps
        // real phones chattering); foreground use varies more.
        let n_back = if background.is_empty() { 0 } else { rng.random_range(1usize..=3) };
        let n_fore = if foreground.is_empty() { 0 } else { rng.random_range(0usize..=2) };
        let background_apps = pick_apps(&mut rng, &background, n_back);
        let foreground_apps = pick_apps(&mut rng, &foreground, n_fore);

        let diurnal = match rng.random_range(0u32..4) {
            0 => DiurnalProfile::light(),
            1 | 2 => DiurnalProfile::typical(),
            _ => DiurnalProfile::heavy(),
        };
        let sessions_per_day =
            if foreground_apps.is_empty() { 0.0 } else { rng.random_range(4.0f64..=14.0) };
        let median_session = Duration::from_secs(rng.random_range(180i64..=600));

        let model = UserModel {
            name: format!("fleet user {index}"),
            // Re-mix so the trace streams don't share state with the
            // composition draws above.
            seed: splitmix(seed ^ 0x7124_CE00),
            days: self.days_per_user.max(1),
            background_apps,
            foreground_apps,
            diurnal,
            sessions_per_day,
            median_session,
        };
        (carrier, model)
    }
}

/// The deterministic carrier draw shared by synthetic synthesis and
/// corpus replay: seeds a fresh RNG from `(master_seed, index)` and
/// takes one weighted draw — exactly the first draw [`Scenario::user`]
/// makes, so a corpus written by
/// [`synth_corpus`](crate::source::synth_corpus) replays each user on
/// the carrier it was synthesized for (pinned by a test below).
pub(crate) fn draw_carrier(
    carrier_mix: &[(CarrierProfile, f64)],
    master_seed: u64,
    index: u64,
) -> CarrierProfile {
    assert!(!carrier_mix.is_empty(), "corpus replay needs at least one carrier");
    let mut rng = StdRng::seed_from_u64(user_seed(master_seed, index));
    carrier_mix[weighted_index(&mut rng, carrier_mix.iter().map(|(_, w)| *w))].0.clone()
}

/// Draws an index with probability proportional to its weight.
fn weighted_index<R: Rng + ?Sized>(
    rng: &mut R,
    weights: impl Iterator<Item = f64> + Clone,
) -> usize {
    let total: f64 = weights.clone().filter(|w| *w > 0.0).sum();
    assert!(total > 0.0, "weights must have positive mass");
    let mut ticket = rng.random::<f64>() * total;
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        if w <= 0.0 {
            continue;
        }
        last = i;
        if ticket < w {
            return i;
        }
        ticket -= w;
    }
    last
}

/// Picks up to `n` distinct app kinds by weight (without replacement).
fn pick_apps<R: Rng + ?Sized>(rng: &mut R, pool: &[(AppKind, f64)], n: usize) -> Vec<AppParams> {
    let mut remaining: Vec<(AppKind, f64)> = pool.to_vec();
    let mut chosen = Vec::with_capacity(n);
    for _ in 0..n.min(pool.len()) {
        let i = weighted_index(rng, remaining.iter().map(|(_, w)| *w));
        let (kind, _) = remaining.swap_remove(i);
        chosen.push(AppParams::defaults(kind));
    }
    // swap_remove scrambles order; sort so the app list (and therefore
    // the UserModel's per-app seed assignment) is canonical.
    chosen.sort_by_key(|a| a.kind);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Population;

    fn scenario(users: u64) -> Scenario {
        Scenario::new(users, Scheme::MakeIdle, CarrierProfile::verizon_lte())
    }

    #[test]
    fn user_synthesis_is_deterministic_and_index_sensitive() {
        let s = scenario(100);
        let (c1, u1) = s.user(17);
        let (c2, u2) = s.user(17);
        assert_eq!(c1, c2);
        assert_eq!(u1, u2);
        let (_, u3) = s.user(18);
        assert_ne!(u1.seed, u3.seed);
    }

    #[test]
    fn master_seed_changes_every_user() {
        let a = scenario(10);
        let mut b = scenario(10);
        b.master_seed = 2;
        for i in 0..10 {
            assert_ne!(a.user(i).1.seed, b.user(i).1.seed, "user {i}");
        }
    }

    #[test]
    fn every_user_has_background_traffic() {
        let s = scenario(50);
        for i in 0..50 {
            let (_, u) = s.user(i);
            assert!(!u.background_apps.is_empty(), "user {i} is silent");
            assert!(u.days >= 1);
            if u.foreground_apps.is_empty() {
                assert_eq!(u.sessions_per_day, 0.0);
            } else {
                assert!(u.sessions_per_day > 0.0);
            }
        }
    }

    #[test]
    fn carrier_mix_weights_are_respected() {
        let mut s = scenario(400);
        s.carrier_mix =
            vec![(CarrierProfile::verizon_lte(), 3.0), (CarrierProfile::att_hspa(), 1.0)];
        let lte = (0..400).filter(|&i| s.user(i).0.name == "Verizon LTE").count();
        // Expect ~300 of 400; allow generous stochastic slack.
        assert!((240..=360).contains(&lte), "lte count {lte}");
    }

    #[test]
    fn shard_partition_tiles_the_population() {
        let mut s = scenario(1000);
        s.shard_size = 64;
        let population = Population::synthetic(&s);
        let mut covered = 0u64;
        for shard in 0..population.shard_count() {
            let r = population.shard_range(shard);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, s.users);
        assert!(population.shard_range(population.shard_count() + 5).is_empty());
        assert_eq!(Population::synthetic(&scenario(0)).shard_count(), 0);
    }

    #[test]
    fn file_round_trip_through_disk() {
        let mut s = scenario(120);
        s.master_seed = 0xDEADBEEF_00C0FFEE;
        s.shard_size = 17;
        s.days_per_user = 2;
        let path = std::env::temp_dir().join("tailwise_scenario_roundtrip_test.toml");
        s.to_file(&path).unwrap();
        let loaded = Scenario::from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, s);
    }

    #[test]
    fn from_file_reports_missing_files_and_rejects_sweeps() {
        let err = Scenario::from_file("/nonexistent/scenario.toml").unwrap_err();
        assert!(err.message.contains("cannot read scenario file"), "{err}");
        assert!(err.to_string().contains("/nonexistent/scenario.toml"), "{err}");

        let sweep_doc = concat!(
            "[scenario]\nusers = 4\n",
            "[[carrier]]\nprofile = \"verizon-lte\"\n",
            "[[app]]\nkind = \"im\"\n",
            "[[sweep]]\naxis = \"users\"\nvalues = [4, 8]\n",
        );
        let err = Scenario::from_toml_str(sweep_doc).unwrap_err();
        assert!(err.message.contains("[[sweep]]"), "{err}");
    }

    #[test]
    fn draw_carrier_matches_synthetic_user_synthesis() {
        // The coupling corpus replay relies on: the standalone carrier
        // draw reproduces the carrier `Scenario::user` assigns.
        let mut s = scenario(64);
        s.master_seed = 0xC0FFEE;
        s.carrier_mix =
            vec![(CarrierProfile::verizon_lte(), 2.0), (CarrierProfile::att_hspa(), 1.0)];
        for i in 0..64 {
            assert_eq!(
                s.user(i).0,
                draw_carrier(&s.carrier_mix, s.master_seed, i),
                "user {i} carrier drifted"
            );
        }
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[weighted_index(&mut rng, weights.iter().copied())] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 4000, "{counts:?}");
        assert!(counts[2] > 250, "{counts:?}");
    }
}
