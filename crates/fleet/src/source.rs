//! Fleet user sources: synthetic populations and replayed trace
//! corpora behind one abstraction.
//!
//! A fleet run needs a way to materialize user `i`'s traffic. The
//! original runner knew exactly one: synthesize it from a
//! [`Scenario`]. A [`UserSource`] generalizes that to the paper's own
//! methodology — replaying *measured* packet traces — without touching
//! the runner's invariants:
//!
//! * **Stable indices.** A [`CorpusScenario`] enumerates its directory
//!   with the deterministic sorted walk of
//!   [`tailwise_trace::corpus::Corpus`], so trace file `i` is the same
//!   user on every machine and at every thread count.
//! * **Streaming.** Workers load one trace file at a time
//!   (load→simulate→discard), so peak memory stays one trace per
//!   worker, independent of corpus size.
//! * **Bit-identical reports.** Shards tile the file list exactly as
//!   they tile a synthetic population; folds and merges keep their
//!   fixed order, so [`run_source`](crate::runner::run_source) is
//!   thread-count invariant for corpora too.
//!
//! [`synth_corpus`] closes the loop: it materializes any synthetic
//! scenario into an on-disk corpus (one trace file per user), giving
//! every installation an instant self-test corpus — and this repo a
//! fixture generator that keeps binary blobs out of git.

use std::path::{Path, PathBuf};

use tailwise_core::schemes::Scheme;
use tailwise_obs::Obs;
use tailwise_radio::profile::CarrierProfile;
use tailwise_scenfile::{Pos, ScenError};
use tailwise_sim::engine::SimConfig;
use tailwise_trace::corpus::{Corpus, TraceFormat};

use crate::runner::run_sharded;
use crate::scenario::Scenario;
use crate::sweep::SweepAxis;

/// Where a fleet's users come from: synthesized from a declarative
/// [`Scenario`], or replayed from an on-disk trace corpus.
#[derive(Debug, Clone, PartialEq)]
pub enum UserSource {
    /// Today's path: hierarchically seeded synthetic users.
    Synthetic(Scenario),
    /// Replay of a directory of `.twt` / `.twt.csv` / `.pcap` trace
    /// files.
    Corpus(CorpusScenario),
}

impl UserSource {
    /// The display name used in reports.
    pub fn name(&self) -> &str {
        match self {
            UserSource::Synthetic(s) => &s.name,
            UserSource::Corpus(c) => &c.name,
        }
    }

    /// The scheme under test.
    pub fn scheme(&self) -> Scheme {
        match self {
            UserSource::Synthetic(s) => s.scheme,
            UserSource::Corpus(c) => c.scheme,
        }
    }

    /// The master seed every user's seed derives from (a run
    /// manifest's `seed`).
    pub fn master_seed(&self) -> u64 {
        match self {
            UserSource::Synthetic(s) => s.master_seed,
            UserSource::Corpus(c) => c.master_seed,
        }
    }
}

/// The on-disk footprint of a corpus: which directory, how to walk it,
/// which formats to admit.
///
/// `dir_pos` and `origin` record where in a scenario file the corpus
/// was declared, so *runtime* failures (missing directory, unreadable
/// trace) still render compiler-style with a line and column. They are
/// provenance, not identity: equality compares only `dir`, `recursive`,
/// and `formats`.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// The corpus directory. Relative paths resolve against the process
    /// working directory, like any CLI path.
    pub dir: PathBuf,
    /// Walk subdirectories too (default true).
    pub recursive: bool,
    /// Trace encodings to admit (default: all of them).
    pub formats: Vec<TraceFormat>,
    /// Device IPv4 address `.pcap` members attribute packet direction
    /// against (the `pcap_device` key). Required when the walk admits
    /// pcap captures and finds any; ignored otherwise.
    pub pcap_device: Option<std::net::Ipv4Addr>,
    /// Position of the `dir` key in the declaring file ([`Pos::START`]
    /// for programmatic construction).
    pub dir_pos: Pos,
    /// The declaring file's path, when known.
    pub origin: Option<String>,
}

impl CorpusSpec {
    /// A spec with the default walk (recursive, every format).
    pub fn new(dir: impl Into<PathBuf>) -> CorpusSpec {
        CorpusSpec {
            dir: dir.into(),
            recursive: true,
            formats: TraceFormat::ALL.to_vec(),
            pcap_device: None,
            dir_pos: Pos::START,
            origin: None,
        }
    }

    /// The format filter in canonical form: sorted (enum order, the
    /// order the parser normalizes to) with duplicates removed. Used by
    /// equality and serialization so a programmatically built spec
    /// round-trips through a file to an equal value regardless of how
    /// its `formats` vector was ordered.
    pub fn canonical_formats(&self) -> Vec<TraceFormat> {
        let mut formats = self.formats.clone();
        formats.sort();
        formats.dedup();
        formats
    }
}

impl PartialEq for CorpusSpec {
    fn eq(&self, other: &CorpusSpec) -> bool {
        self.dir == other.dir
            && self.recursive == other.recursive
            && self.canonical_formats() == other.canonical_formats()
            && self.pcap_device == other.pcap_device
    }
}

/// A corpus-backed fleet experiment: the corpus footprint plus
/// everything the simulation still decides — scheme, carrier mix,
/// engine config, and the shard size that fixes the reduction order.
///
/// The population size is *not* a field: it is the number of trace
/// files the walk finds, discovered at [`resolve`](Self::resolve) time.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusScenario {
    /// Display name for reports.
    pub name: String,
    /// The scheme under test, compared against the status quo.
    pub scheme: Scheme,
    /// Carrier profiles and their population weights. Each trace file
    /// draws one carrier deterministically from `(master_seed, index)`,
    /// with the same draw a synthetic scenario would make — so a corpus
    /// written by [`synth_corpus`] replays on the same carriers.
    pub carrier_mix: Vec<(CarrierProfile, f64)>,
    /// Seed of the per-user carrier draw.
    pub master_seed: u64,
    /// Trace files per shard (fixes the reduction order, exactly as in
    /// [`Scenario::shard_size`]).
    pub shard_size: u64,
    /// Engine configuration shared by every replay.
    pub sim: SimConfig,
    /// Optional cell topology, exactly as in [`Scenario`]: replayed
    /// users are assigned to cells by `(master_seed, index)` and their
    /// fast-dormancy requests adjudicated per cell.
    pub cells: Option<crate::topology::NetworkTopology>,
    /// The corpus directory and walk settings.
    pub spec: CorpusSpec,
}

impl CorpusScenario {
    /// A corpus scenario with defaults mirroring [`Scenario::new`].
    pub fn new(dir: impl Into<PathBuf>, scheme: Scheme, carrier: CarrierProfile) -> CorpusScenario {
        let spec = CorpusSpec::new(dir);
        CorpusScenario {
            name: format!("corpus {} × {}", spec.dir.display(), scheme.label()),
            scheme,
            carrier_mix: vec![(carrier, 1.0)],
            master_seed: 1,
            shard_size: 64,
            sim: SimConfig::default(),
            cells: None,
            spec,
        }
    }

    /// Walks the corpus directory and pins the stable index→file
    /// assignment for this run.
    ///
    /// Errors — a missing/unreadable directory, or a directory with no
    /// matching trace files (an empty population is always a
    /// misconfiguration, never a silent no-op run) — are
    /// [`ScenErrorKind::Run`](tailwise_scenfile::ScenErrorKind::Run)
    /// errors anchored at the declaring file's `dir` key.
    pub fn resolve(&self) -> Result<Corpus, ScenError> {
        self.resolve_observed(tailwise_obs::Obs::none())
    }

    /// [`resolve`](Self::resolve) under an [`Obs`]
    /// handle: every directory walk counts on `corpus_walks`, which is
    /// how the sweep tests pin that an N-row corpus sweep resolves the
    /// walk exactly once and replays the pinned file list for every row.
    pub fn resolve_observed(&self, obs: tailwise_obs::Obs<'_>) -> Result<Corpus, ScenError> {
        obs.recorder.counter("corpus_walks").incr();
        let mut corpus = Corpus::open(&self.spec.dir, self.spec.recursive, &self.spec.formats)
            .map_err(|e| {
                self.runtime_err(format!(
                    "cannot read corpus directory {}: {e}",
                    self.spec.dir.display()
                ))
            })?;
        if corpus.is_empty() {
            return Err(self.runtime_err(format!(
                "corpus directory {} contains no trace files (formats: {})",
                self.spec.dir.display(),
                self.spec.formats.iter().map(|f| f.token()).collect::<Vec<_>>().join(", ")
            )));
        }
        match self.spec.pcap_device {
            Some(device) => corpus = corpus.with_pcap_device(device),
            // Fail the whole walk up front rather than mid-run at the
            // first capture: the device address is part of the replay's
            // meaning (direction inference), not a per-file detail.
            None => {
                let captures = corpus.pcap_members();
                if captures > 0 {
                    return Err(self.runtime_err(format!(
                        "corpus directory {} holds {captures} pcap capture(s) but no \
                         `pcap_device` is set; add it to the [corpus] table (direction \
                         inference needs the capturing device's IPv4 address)",
                        self.spec.dir.display()
                    )));
                }
            }
        }
        Ok(corpus)
    }

    /// A runtime error anchored at this corpus's declaration site.
    pub(crate) fn runtime_err(&self, message: String) -> ScenError {
        let err = ScenError::runtime(self.spec.dir_pos, message);
        match &self.spec.origin {
            Some(origin) => err.with_origin(origin.clone()),
            None => err,
        }
    }
}

/// A parsed scenario file in full generality: a [`UserSource`] —
/// synthetic or corpus — plus any `[[sweep]]` axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSet {
    /// The source described by the file's non-sweep tables.
    pub source: UserSource,
    /// The `[[sweep]]` axes, in declaration order. The `users` axis
    /// needs a synthetic population (a corpus stays fixed) and is
    /// rejected at parse time for corpus sources.
    pub axes: Vec<SweepAxis>,
}

impl SourceSet {
    /// Parses a scenario file from disk. For `[corpus]` files, relative
    /// corpus directories stay as written (resolved against the process
    /// working directory at run time), and runtime errors cite this
    /// file's path and the `dir` key's position.
    pub fn from_file(path: impl AsRef<Path>) -> Result<SourceSet, ScenError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| {
            ScenError::at(Pos::START, format!("cannot read scenario file: {e}"))
                .with_origin(path.display().to_string())
        })?;
        let mut set =
            Self::from_toml_str(&src).map_err(|e| e.with_origin(path.display().to_string()))?;
        if let UserSource::Corpus(c) = &mut set.source {
            c.spec.origin = Some(path.display().to_string());
        }
        Ok(set)
    }

    /// Parses a scenario document from a string.
    pub fn from_toml_str(src: &str) -> Result<SourceSet, ScenError> {
        crate::file::source_set_from_str(src)
    }

    /// Serializes the set back to document text that parses to an equal
    /// value: the writer reads its text back and refuses, with an emit
    /// error, anything that does not read back equal (see
    /// [`Scenario::to_toml_string`]).
    pub fn to_toml_string(&self) -> Result<String, ScenError> {
        crate::file::source_set_to_toml(&self.source, &self.axes)
    }

    /// True when the file declared at least one `[[sweep]]` axis.
    pub fn is_sweep(&self) -> bool {
        !self.axes.is_empty()
    }

    /// Number of sources the set expands into.
    pub fn expansion_count(&self) -> usize {
        self.axes.iter().map(SweepAxis::len).product()
    }

    /// Expands the Cartesian product of the sweep axes over the base
    /// source (axes in declared order, later axes varying fastest),
    /// returning each expansion with its `axis=value …` label.
    ///
    /// Each expansion is named `base-name [axis=value …]`, and every
    /// non-swept field (master seed, shard size, mixes, …) is copied
    /// verbatim, so an expanded source run individually reproduces its
    /// sweep cell bit-for-bit. A set with no axes expands to the base
    /// source alone, with an empty label.
    ///
    /// Errors only on an axis the source cannot take (see
    /// [`SweepAxis`]) — impossible for parsed files (the schema rejects
    /// them), reachable for programmatic construction.
    pub fn expand_labeled(&self) -> Result<Vec<(String, UserSource)>, ScenError> {
        let total = self.expansion_count();
        let mut out = Vec::with_capacity(total);
        for mut flat in 0..total {
            let mut source = self.source.clone();
            // Mixed-radix decomposition, most significant digit first,
            // so the first declared axis varies slowest.
            let mut labels = Vec::with_capacity(self.axes.len());
            let mut stride = total;
            for axis in &self.axes {
                stride /= axis.len();
                let index = flat / stride;
                flat %= stride;
                labels.push(axis.apply(index, &mut source)?);
            }
            let label = labels.join(" ");
            if !label.is_empty() {
                let name = format!("{} [{label}]", self.source.name());
                match &mut source {
                    UserSource::Synthetic(s) => s.name = name,
                    UserSource::Corpus(c) => c.name = name,
                }
            }
            out.push((label, source));
        }
        Ok(out)
    }
}

/// Materializes a synthetic scenario into an on-disk trace corpus: one
/// file per user, named `user_<index>` with enough zero padding that
/// the corpus walk's sorted order reproduces the synthetic user order.
///
/// Generation runs on the fleet runner's sharded core, one shard per
/// user, across `threads` workers, each writing one user's trace and
/// dropping it before the next — the synth side keeps the runner's
/// one-trace-per-worker memory bound. Replaying the resulting corpus
/// with the same master seed and carrier mix reproduces the synthetic
/// run's energy numbers user for user (pinned by
/// `tests/corpus_fleet.rs`).
///
/// Refuses to write into a directory that already holds trace files:
/// the walk would interleave stale files with fresh ones and silently
/// shift every user index. Symmetrically, a failed synthesis (disk
/// full, permissions) removes whatever it already wrote before
/// returning the error, so the guard never blocks a retry with its own
/// debris.
///
/// Returns the number of trace files written.
pub fn synth_corpus(
    scenario: &Scenario,
    dir: &Path,
    format: TraceFormat,
    threads: usize,
) -> Result<u64, ScenError> {
    if scenario.users == 0 {
        return Err(ScenError::emit("cannot synthesize an empty corpus (scenario has 0 users)"));
    }
    if format == TraceFormat::Pcap {
        return Err(ScenError::emit(
            "cannot synthesize pcap corpora (pcap is a read-only capture format); \
             use twt or csv",
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| {
        ScenError::emit(format!("cannot create corpus directory {}: {e}", dir.display()))
    })?;
    let existing = Corpus::open(dir, true, &TraceFormat::ALL)
        .map_err(|e| {
            ScenError::emit(format!("cannot inspect corpus directory {}: {e}", dir.display()))
        })?
        .len();
    if existing > 0 {
        return Err(ScenError::emit(format!(
            "refusing to synthesize into {}: it already holds {existing} trace file(s), \
             which would scramble the corpus's user indices",
            dir.display()
        )));
    }

    // Enough zero padding that lexicographic file order equals numeric
    // user order (min 6 digits so small corpora can grow in place).
    let width = scenario.users.saturating_sub(1).to_string().len().max(6);
    let written = run_sharded(scenario.users, threads, Obs::none(), &|| (), &|index, _| {
        let (_, model) = scenario.user(index);
        let path = dir.join(format!("user_{index:0width$}.{}", format.extension()));
        tailwise_trace::io::save(&model.generate(), &path)
            .map_err(|e| ScenError::emit(format!("cannot write {}: {e}", path.display())))
    });

    match written {
        Ok(()) => Ok(scenario.users),
        Err(e) => {
            // Best-effort cleanup of this run's partial output. The
            // directory held no trace files when we started (checked
            // above), so every trace file present now is ours to remove
            // — leaving them would make the occupied-directory guard
            // reject the retry.
            if let Ok(partial) = Corpus::open(dir, true, &TraceFormat::ALL) {
                for file in partial.files() {
                    std::fs::remove_file(file).ok();
                }
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_trace::corpus::TraceFormat;
    use tailwise_workload::apps::AppKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tailwise-source-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_scenario(users: u64) -> Scenario {
        let mut s = Scenario::new(users, Scheme::MakeIdle, CarrierProfile::verizon_lte());
        s.app_mix = vec![(AppKind::Im, 1.0)];
        s.shard_size = 2;
        s
    }

    #[test]
    fn synth_writes_sorted_stable_filenames() {
        let dir = temp_dir("synth");
        let scenario = tiny_scenario(5);
        assert_eq!(synth_corpus(&scenario, &dir, TraceFormat::Binary, 4).unwrap(), 5);
        let corpus = Corpus::open(&dir, true, &TraceFormat::ALL).unwrap();
        assert_eq!(corpus.len(), 5);
        let names: Vec<_> = corpus
            .files()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names[0], "user_000000.twt");
        assert_eq!(names[4], "user_000004.twt");
        // Sorted walk order is numeric user order.
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // File i really is user i's trace.
        assert_eq!(corpus.load(3).unwrap(), scenario.user(3).1.generate());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synth_refuses_occupied_directories_and_empty_populations() {
        let dir = temp_dir("occupied");
        assert_eq!(synth_corpus(&tiny_scenario(2), &dir, TraceFormat::Binary, 1).unwrap(), 2);
        let err = synth_corpus(&tiny_scenario(2), &dir, TraceFormat::Binary, 1).unwrap_err();
        assert!(err.message.contains("refusing to synthesize"), "{err}");
        assert_eq!(err.kind, tailwise_scenfile::ScenErrorKind::Emit);
        std::fs::remove_dir_all(&dir).unwrap();

        let err = synth_corpus(&tiny_scenario(0), &dir, TraceFormat::Binary, 1).unwrap_err();
        assert!(err.message.contains("empty corpus"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_synth_cleans_up_and_stays_retryable() {
        let dir = temp_dir("cleanup");
        // A directory squatting on user 0's file name forces a write
        // failure mid-synthesis (it passes the occupied check: the walk
        // sees an empty directory, not a trace file).
        std::fs::create_dir_all(dir.join("user_000000.twt")).unwrap();
        let err = synth_corpus(&tiny_scenario(4), &dir, TraceFormat::Binary, 2).unwrap_err();
        assert!(err.message.contains("cannot write"), "{err}");
        // Whatever the other workers wrote was removed again…
        let leftover = Corpus::open(&dir, true, &TraceFormat::ALL).unwrap();
        assert!(leftover.is_empty(), "partial output left behind: {:?}", leftover.files());
        // …so fixing the obstruction makes a plain retry succeed.
        std::fs::remove_dir(dir.join("user_000000.twt")).unwrap();
        assert_eq!(synth_corpus(&tiny_scenario(4), &dir, TraceFormat::Binary, 2).unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_corpora_synthesize_with_compound_extension() {
        let dir = temp_dir("csv");
        synth_corpus(&tiny_scenario(2), &dir, TraceFormat::Csv, 2).unwrap();
        let corpus = Corpus::open(&dir, true, &[TraceFormat::Csv]).unwrap();
        assert_eq!(corpus.len(), 2);
        assert!(corpus.path(0).to_str().unwrap().ends_with("user_000000.twt.csv"));
        assert_eq!(corpus.load(0).unwrap(), tiny_scenario(2).user(0).1.generate());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolve_errors_are_positioned_runtime_errors() {
        let mut c = CorpusScenario::new(
            "/nonexistent/tailwise-corpus",
            Scheme::MakeIdle,
            CarrierProfile::att_hspa(),
        );
        c.spec.dir_pos = Pos::new(4, 7);
        c.spec.origin = Some("replay.toml".into());
        let err = c.resolve().unwrap_err();
        assert_eq!(err.pos, Pos::new(4, 7));
        assert_eq!(err.kind, tailwise_scenfile::ScenErrorKind::Run);
        assert_eq!(err.origin.as_deref(), Some("replay.toml"));
        assert!(err.message.contains("cannot read corpus directory"), "{err}");

        let dir = temp_dir("resolve-empty");
        std::fs::create_dir_all(&dir).unwrap();
        c.spec.dir = dir.clone();
        let err = c.resolve().unwrap_err();
        assert!(err.message.contains("contains no trace files"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_spec_equality_ignores_provenance() {
        let mut a = CorpusSpec::new("corpus");
        let mut b = CorpusSpec::new("corpus");
        b.dir_pos = Pos::new(9, 9);
        b.origin = Some("elsewhere.toml".into());
        assert_eq!(a, b);
        a.recursive = false;
        assert_ne!(a, b);
        // The pcap device, by contrast, changes the replay's meaning.
        a.recursive = true;
        a.pcap_device = Some(std::net::Ipv4Addr::new(10, 0, 0, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn pcap_corpora_need_a_device_and_cannot_be_synthesized() {
        let err =
            synth_corpus(&tiny_scenario(2), &temp_dir("pcap"), TraceFormat::Pcap, 1).unwrap_err();
        assert!(err.message.contains("read-only capture format"), "{err}");

        // A corpus with a capture but no pcap_device fails at resolve
        // time, anchored at the dir key.
        let dir = temp_dir("pcap-resolve");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("capture.pcap"), b"irrelevant").unwrap();
        let mut c = CorpusScenario::new(&dir, Scheme::MakeIdle, CarrierProfile::att_hspa());
        let err = c.resolve().unwrap_err();
        assert!(err.message.contains("no `pcap_device` is set"), "{err}");
        assert_eq!(err.kind, tailwise_scenfile::ScenErrorKind::Run);
        // With a device the walk resolves and pins the address.
        c.spec.pcap_device = Some(std::net::Ipv4Addr::new(10, 0, 0, 2));
        let corpus = c.resolve().unwrap();
        assert_eq!(corpus.pcap_device(), c.spec.pcap_device);
        assert_eq!(corpus.pcap_members(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
