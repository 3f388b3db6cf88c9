//! Machine-readable run manifests: what `--metrics <path>` writes.
//!
//! A [`RunManifest`] captures one observed fleet run — provenance
//! (scenario name, source, scheme, seed, thread count), the recorder's
//! phase timings and counters, and the headline figures of every
//! report the run produced (one for a plain run, one per row for a
//! sweep). It is emitted through the [`DocWriter`] of
//! `tailwise-scenfile` and re-parses through the same crate's parser,
//! so downstream tooling needs nothing beyond this workspace.
//!
//! Schema (see `docs/OBSERVABILITY.md` for the key-by-key contract):
//!
//! ```toml
//! [run]       # provenance: name, scheme, source, seed, threads, runs, wall_seconds
//! [timings]   # synthesize_s / simulate_s / adjudicate_s / replay_s, worker_busy = [...]
//! [counters]  # every recorder counter, verbatim
//! [gauges]    # every recorder gauge's last value, verbatim
//! [[report]]  # one per produced FleetReport: headline figures
//! ```

use std::collections::BTreeMap;

use tailwise_obs::Snapshot;
use tailwise_scenfile::{float_elements, parse, DocWriter, ScenError, Table};

use crate::report::{FleetReport, RunTimings};
use crate::sweep::SweepReport;

/// Headline figures of one produced [`FleetReport`], flattened for the
/// manifest's `[[report]]` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestReport {
    /// Sweep-cell label (empty for a plain single run).
    pub label: String,
    /// Scenario display name.
    pub scenario: String,
    /// Scheme label under test.
    pub scheme: String,
    /// Users simulated.
    pub users: u64,
    /// Total user-days simulated.
    pub user_days: u64,
    /// Total packets pushed through the engine.
    pub packets: u64,
    /// Total energy under the scheme, J.
    pub energy_j: f64,
    /// Total energy under the status quo, J.
    pub baseline_energy_j: f64,
    /// Aggregate savings vs status quo, percent.
    pub saved_pct: f64,
    /// Switch cycles under the scheme.
    pub switches: u64,
    /// Switch cycles under the status quo.
    pub baseline_switches: u64,
    /// False switches (§6.3 FP).
    pub false_switches: u64,
    /// Missed switches (§6.3 FN).
    pub missed_switches: u64,
    /// Demotion decisions scored.
    pub decisions: u64,
    /// Wall-clock seconds of this run/row.
    pub wall_seconds: f64,
    /// Signaling figures, for cell-topology runs.
    pub signaling: Option<ManifestSignaling>,
}

/// Signaling-load figures of one cell-topology report row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSignaling {
    /// Fast-dormancy requests granted fleet-wide.
    pub granted: u64,
    /// Requests denied (by either level).
    pub denied: u64,
    /// Denials attributable to RNC-level admission.
    pub denied_by_rnc: u64,
    /// Peak cell messages in any one second.
    pub peak_messages_per_s: u64,
    /// Cell-seconds over the cell signaling budget.
    pub cell_overload_s: u64,
    /// RNC-seconds over the RNC signaling budget.
    pub rnc_overload_s: u64,
    /// Handoffs between cells (zero for static-mobility runs, and when
    /// reading manifests written before the mobility subsystem).
    pub handoffs: u64,
    /// Handoffs that crossed an RNC boundary.
    pub inter_rnc_handoffs: u64,
}

/// One observed run, ready to write to (or read back from) disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Scenario (or sweep) display name.
    pub name: String,
    /// Scheme label of the base scenario.
    pub scheme: String,
    /// Population provenance (synthetic, or the corpus description).
    pub source: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Worker threads the run was asked to use.
    pub threads: usize,
    /// Total wall-clock seconds across every run in the manifest.
    pub wall_seconds: f64,
    /// Phase breakdown summed over every run in the manifest.
    pub timings: RunTimings,
    /// Every recorder counter, verbatim (names are bare keys).
    pub counters: BTreeMap<String, u64>,
    /// Every recorder gauge's last value, verbatim (names are bare
    /// keys): the request cache's store sizes after a cached run.
    pub gauges: BTreeMap<String, u64>,
    /// Headline figures: one row per produced report.
    pub reports: Vec<ManifestReport>,
}

impl ManifestReport {
    fn from_report(label: &str, report: &FleetReport) -> ManifestReport {
        ManifestReport {
            label: label.to_string(),
            scenario: report.scenario.clone(),
            scheme: report.scheme.clone(),
            users: report.users,
            user_days: report.user_days,
            packets: report.packets,
            energy_j: report.energy_j,
            baseline_energy_j: report.baseline_energy_j,
            saved_pct: report.aggregate_savings_pct(),
            switches: report.switches,
            baseline_switches: report.baseline_switches,
            false_switches: report.false_switches,
            missed_switches: report.missed_switches,
            decisions: report.decisions,
            wall_seconds: report.wall_seconds,
            signaling: report.signaling.as_ref().map(|s| ManifestSignaling {
                granted: s.granted(),
                denied: s.denied(),
                denied_by_rnc: s.denied_by_rnc(),
                peak_messages_per_s: s.peak_messages_per_s(),
                cell_overload_s: s.overload_seconds(),
                rnc_overload_s: s.rnc_overload_seconds(),
                handoffs: s.handoffs(),
                inter_rnc_handoffs: s.inter_rnc_handoffs(),
            }),
        }
    }
}

impl RunManifest {
    /// Builds the manifest of a plain (non-sweep) run from its report
    /// and the recorder snapshot covering it.
    pub fn for_report(
        report: &FleetReport,
        threads: usize,
        seed: u64,
        snapshot: &Snapshot,
    ) -> RunManifest {
        RunManifest::build(
            report.scenario.clone(),
            report.scheme.clone(),
            report.source.clone(),
            seed,
            threads,
            vec![ManifestReport::from_report("", report)],
            snapshot,
        )
    }

    /// Builds the manifest of a sweep run: one `[[report]]` row per
    /// sweep cell, timings and counters cumulative over the whole
    /// sweep (each row additionally carries its own `wall_seconds`).
    pub fn for_sweep(
        sweep: &SweepReport,
        threads: usize,
        seed: u64,
        snapshot: &Snapshot,
    ) -> RunManifest {
        let (scheme, source) = sweep
            .rows
            .first()
            .map(|row| (row.report.scheme.clone(), row.report.source.clone()))
            .unwrap_or_default();
        let reports = sweep
            .rows
            .iter()
            .map(|row| ManifestReport::from_report(&row.label, &row.report))
            .collect();
        RunManifest::build(sweep.name.clone(), scheme, source, seed, threads, reports, snapshot)
    }

    fn build(
        name: String,
        scheme: String,
        source: String,
        seed: u64,
        threads: usize,
        reports: Vec<ManifestReport>,
        snapshot: &Snapshot,
    ) -> RunManifest {
        // The runner records one "run" span per run; its total is the
        // manifest's wall-clock. Fall back to the per-report walls for
        // snapshots that never saw the runner (defensive only).
        let mut wall_seconds = snapshot.span_seconds("run");
        if wall_seconds <= 0.0 {
            wall_seconds = reports.iter().map(|r| r.wall_seconds).sum();
        }
        RunManifest {
            name,
            scheme,
            source,
            seed,
            threads: threads.max(1),
            wall_seconds,
            timings: RunTimings::from_snapshot(snapshot, wall_seconds),
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            reports,
        }
    }

    /// Renders the manifest through the scenfile writer. The output
    /// re-parses losslessly via [`RunManifest::from_toml_str`].
    pub fn to_toml_string(&self) -> String {
        let mut w = DocWriter::new();
        w.comment("tailwise run manifest — written by `--metrics`, read by `fleet manifest`")
            .blank()
            .table("run")
            .str("name", &self.name)
            .str("scheme", &self.scheme)
            .str("source", &self.source)
            .uint("seed", self.seed)
            .uint("threads", self.threads as u64)
            .uint("runs", self.reports.len() as u64)
            .float("wall_seconds", self.wall_seconds);
        w.blank().table("timings");
        for (phase, seconds) in self.timings.phases() {
            w.float(&format!("{phase}_s"), seconds);
        }
        w.float_array("worker_busy", &self.timings.worker_busy);
        w.blank().table("counters");
        for (name, value) in &self.counters {
            w.uint(name, *value);
        }
        w.blank().table("gauges");
        for (name, value) in &self.gauges {
            w.uint(name, *value);
        }
        for report in &self.reports {
            w.blank()
                .array_table("report")
                .str("label", &report.label)
                .str("scenario", &report.scenario)
                .str("scheme", &report.scheme)
                .uint("users", report.users)
                .uint("user_days", report.user_days)
                .uint("packets", report.packets)
                .float("energy_j", report.energy_j)
                .float("baseline_energy_j", report.baseline_energy_j)
                .float("saved_pct", report.saved_pct)
                .uint("switches", report.switches)
                .uint("baseline_switches", report.baseline_switches)
                .uint("false_switches", report.false_switches)
                .uint("missed_switches", report.missed_switches)
                .uint("decisions", report.decisions)
                .float("wall_seconds", report.wall_seconds);
            if let Some(signaling) = &report.signaling {
                w.uint("granted", signaling.granted)
                    .uint("denied", signaling.denied)
                    .uint("denied_by_rnc", signaling.denied_by_rnc)
                    .uint("peak_messages_per_s", signaling.peak_messages_per_s)
                    .uint("cell_overload_s", signaling.cell_overload_s)
                    .uint("rnc_overload_s", signaling.rnc_overload_s)
                    .uint("handoffs", signaling.handoffs)
                    .uint("inter_rnc_handoffs", signaling.inter_rnc_handoffs);
            }
        }
        w.finish()
    }

    /// Writes the manifest to `path`.
    pub fn to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), ScenError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_toml_string()).map_err(|e| {
            ScenError::emit(format!("cannot write run manifest: {e}"))
                .with_origin(path.display().to_string())
        })
    }

    /// Parses a manifest document, strictly: unknown keys are
    /// positioned errors, exactly like scenario files.
    pub fn from_toml_str(src: &str) -> Result<RunManifest, ScenError> {
        let doc = parse(src)?;
        doc.deny_unknown(&[], &["run", "timings", "counters", "gauges"], &["report"])?;

        let run = doc.table("run").ok_or_else(|| missing_table("run"))?;
        run.deny_unknown(
            &["name", "scheme", "source", "seed", "threads", "runs", "wall_seconds"],
            &[],
            &[],
        )?;
        let name = run.req_str("name")?.to_string();
        let scheme = run.req_str("scheme")?.to_string();
        let source = run.req_str("source")?.to_string();
        let seed = run.req_u64("seed")?;
        let threads = run.req_u64("threads")? as usize;
        let runs = run.req_u64("runs")?;
        let wall_seconds = run.req_float("wall_seconds")?;

        let timings_table = doc.table("timings").ok_or_else(|| missing_table("timings"))?;
        timings_table.deny_unknown(
            &["synthesize_s", "simulate_s", "adjudicate_s", "replay_s", "worker_busy"],
            &[],
            &[],
        )?;
        let timings = RunTimings {
            synthesize_s: timings_table.req_float("synthesize_s")?,
            simulate_s: timings_table.req_float("simulate_s")?,
            adjudicate_s: timings_table.req_float("adjudicate_s")?,
            replay_s: timings_table.req_float("replay_s")?,
            worker_busy: float_elements("worker_busy", timings_table.req_array("worker_busy")?)?,
        };

        // Both optional: a run may record neither, and manifests written
        // before gauges were recorded carry no `[gauges]` table.
        let uints = |name: &str| -> Result<BTreeMap<String, u64>, ScenError> {
            let mut values = BTreeMap::new();
            if let Some(table) = doc.table(name) {
                for key in table.keys() {
                    values.insert(key.to_string(), table.req_u64(key)?);
                }
            }
            Ok(values)
        };
        let counters = uints("counters")?;
        let gauges = uints("gauges")?;

        let mut reports = Vec::new();
        for row in doc.array_of_tables("report") {
            reports.push(parse_report_row(row)?);
        }
        if reports.len() as u64 != runs {
            return Err(ScenError::emit(format!(
                "manifest declares runs = {runs} but carries {} [[report]] row(s)",
                reports.len()
            )));
        }

        Ok(RunManifest {
            name,
            scheme,
            source,
            seed,
            threads,
            wall_seconds,
            timings,
            counters,
            gauges,
            reports,
        })
    }

    /// Reads and parses a manifest file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<RunManifest, ScenError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            ScenError::emit(format!("cannot read run manifest: {e}"))
                .with_origin(path.display().to_string())
        })?;
        RunManifest::from_toml_str(&text).map_err(|e| e.with_origin(path.display().to_string()))
    }

    /// One well-mixed word over the manifest's *deterministic* content:
    /// provenance (name, scheme, source, seed) and every `[[report]]`
    /// row's simulation figures. Measurement details — thread count,
    /// wall clocks, phase timings, recorder counters and gauges — are
    /// excluded,
    /// mirroring [`FleetReport`]'s `PartialEq`. Two runs of the same
    /// scenario digest equally at any thread count, observed or not,
    /// batch or streamed through the fleet service; `fleet manifest
    /// --digest` exposes this for shell-level comparisons.
    pub fn digest(&self) -> u64 {
        use tailwise_trace::mix::{fold, fold_bytes};
        // Length first, so adjacent strings cannot trade bytes.
        let fold_text =
            |h: u64, text: &str| fold_bytes(fold(h, text.len() as u64), text.as_bytes());
        let mut h = 0xD16E_0000_0000_0000u64;
        h = fold_text(h, &self.name);
        h = fold_text(h, &self.scheme);
        h = fold_text(h, &self.source);
        h = fold(h, self.seed);
        h = fold(h, self.reports.len() as u64);
        for report in &self.reports {
            h = fold_text(h, &report.label);
            h = fold_text(h, &report.scenario);
            h = fold_text(h, &report.scheme);
            for word in [
                report.users,
                report.user_days,
                report.packets,
                report.energy_j.to_bits(),
                report.baseline_energy_j.to_bits(),
                report.saved_pct.to_bits(),
                report.switches,
                report.baseline_switches,
                report.false_switches,
                report.missed_switches,
                report.decisions,
            ] {
                h = fold(h, word);
            }
            match &report.signaling {
                None => h = fold(h, 0),
                Some(s) => {
                    h = fold(h, 1);
                    for word in [
                        s.granted,
                        s.denied,
                        s.denied_by_rnc,
                        s.peak_messages_per_s,
                        s.cell_overload_s,
                        s.rnc_overload_s,
                        // Extending the digest is safe: digests are only
                        // compared between runs of the same binary.
                        s.handoffs,
                        s.inter_rnc_handoffs,
                    ] {
                        h = fold(h, word);
                    }
                }
            }
        }
        h
    }

    /// The phase timings that are missing or zero — empty for a
    /// manifest whose run recorded all four phases (what
    /// `fleet manifest --require-phases` enforces for topology runs).
    pub fn zero_phases(&self) -> Vec<&'static str> {
        self.timings
            .phases()
            .iter()
            .filter(|(_, seconds)| *seconds <= 0.0)
            .map(|(name, _)| *name)
            .collect()
    }
}

fn missing_table(name: &str) -> ScenError {
    ScenError::emit(format!("run manifest is missing its [{name}] table"))
}

fn parse_report_row(row: &Table) -> Result<ManifestReport, ScenError> {
    row.deny_unknown(
        &[
            "label",
            "scenario",
            "scheme",
            "users",
            "user_days",
            "packets",
            "energy_j",
            "baseline_energy_j",
            "saved_pct",
            "switches",
            "baseline_switches",
            "false_switches",
            "missed_switches",
            "decisions",
            "wall_seconds",
            "granted",
            "denied",
            "denied_by_rnc",
            "peak_messages_per_s",
            "cell_overload_s",
            "rnc_overload_s",
            "handoffs",
            "inter_rnc_handoffs",
        ],
        &[],
        &[],
    )?;
    let signaling = match row.get_u64("granted")? {
        Some(granted) => Some(ManifestSignaling {
            granted,
            denied: row.req_u64("denied")?,
            denied_by_rnc: row.req_u64("denied_by_rnc")?,
            peak_messages_per_s: row.req_u64("peak_messages_per_s")?,
            cell_overload_s: row.req_u64("cell_overload_s")?,
            rnc_overload_s: row.req_u64("rnc_overload_s")?,
            // Optional with default 0 so manifests written before the
            // mobility subsystem still parse.
            handoffs: row.get_u64("handoffs")?.unwrap_or(0),
            inter_rnc_handoffs: row.get_u64("inter_rnc_handoffs")?.unwrap_or(0),
        }),
        None => None,
    };
    Ok(ManifestReport {
        label: row.req_str("label")?.to_string(),
        scenario: row.req_str("scenario")?.to_string(),
        scheme: row.req_str("scheme")?.to_string(),
        users: row.req_u64("users")?,
        user_days: row.req_u64("user_days")?,
        packets: row.req_u64("packets")?,
        energy_j: row.req_float("energy_j")?,
        baseline_energy_j: row.req_float("baseline_energy_j")?,
        saved_pct: row.req_float("saved_pct")?,
        switches: row.req_u64("switches")?,
        baseline_switches: row.req_u64("baseline_switches")?,
        false_switches: row.req_u64("false_switches")?,
        missed_switches: row.req_u64("missed_switches")?,
        decisions: row.req_u64("decisions")?,
        wall_seconds: row.req_float("wall_seconds")?,
        signaling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailwise_obs::SpanStat;

    fn sample_snapshot() -> Snapshot {
        let mut s = Snapshot::empty();
        s.spans.insert("run".into(), SpanStat { count: 1, nanos: 2_000_000_000 });
        s.spans.insert("synthesize".into(), SpanStat { count: 4, nanos: 400_000_000 });
        s.spans.insert("simulate".into(), SpanStat { count: 4, nanos: 900_000_000 });
        s.counters.insert("users_simulated".into(), 4);
        s.workers = vec![1_900_000_000, 1_000_000_000];
        s
    }

    fn sample_report() -> FleetReport {
        let mut r = FleetReport::empty("manifest sample".into(), "makeidle".into());
        r.users = 4;
        r.user_days = 4;
        r.packets = 1000;
        r.energy_j = 10.0;
        r.baseline_energy_j = 20.0;
        r.wall_seconds = 2.0;
        r
    }

    #[test]
    fn manifest_round_trips_through_the_scenfile_parser() {
        let manifest = RunManifest::for_report(&sample_report(), 2, 77, &sample_snapshot());
        let text = manifest.to_toml_string();
        let parsed = RunManifest::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.wall_seconds, 2.0);
        assert_eq!(parsed.timings.synthesize_s, 0.4);
        assert_eq!(parsed.timings.worker_busy, vec![0.95, 0.5]);
        assert_eq!(parsed.counters["users_simulated"], 4);
        assert_eq!(parsed.reports.len(), 1);
        assert_eq!(parsed.reports[0].saved_pct, 50.0);
        assert!(parsed.reports[0].signaling.is_none());
    }

    #[test]
    fn cache_counters_round_trip_through_the_manifest() {
        // The CI cache-smoke step greps these out of a reparsed
        // manifest, so their names must survive the TOML round trip
        // verbatim.
        let mut snapshot = sample_snapshot();
        snapshot.counters.insert("cache_hits".into(), 3);
        snapshot.counters.insert("cache_misses".into(), 1);
        snapshot.counters.insert("cache_spills".into(), 1);
        snapshot.counters.insert("cache_fallbacks".into(), 2);
        snapshot.counters.insert("corpus_walks".into(), 1);
        let manifest = RunManifest::for_report(&sample_report(), 2, 77, &snapshot);
        let parsed = RunManifest::from_toml_str(&manifest.to_toml_string()).unwrap();
        assert_eq!(parsed.counters["cache_hits"], 3);
        assert_eq!(parsed.counters["cache_misses"], 1);
        assert_eq!(parsed.counters["cache_spills"], 1);
        assert_eq!(parsed.counters["cache_fallbacks"], 2);
        assert_eq!(parsed.counters["corpus_walks"], 1);
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn gauges_round_trip_and_stay_out_of_the_digest() {
        let mut snapshot = sample_snapshot();
        snapshot.gauges.insert("cache_memo_bytes".into(), 123_456);
        snapshot.gauges.insert("cache_memo_entries".into(), 16);
        let manifest = RunManifest::for_report(&sample_report(), 2, 77, &snapshot);
        let text = manifest.to_toml_string();
        assert!(text.contains("\n[gauges]\ncache_memo_bytes = 123456\n"), "{text}");
        let parsed = RunManifest::from_toml_str(&text).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.gauges["cache_memo_entries"], 16);
        // Measurement, like the counters: the digest ignores them.
        let bare = RunManifest::for_report(&sample_report(), 2, 77, &sample_snapshot());
        assert!(bare.gauges.is_empty());
        assert_eq!(bare.digest(), manifest.digest());
        // A manifest written before gauges existed has no table at all.
        let old =
            text.replace("\n[gauges]\ncache_memo_bytes = 123456\ncache_memo_entries = 16\n", "\n");
        assert!(!old.contains("[gauges]"), "{old}");
        let parsed_old = RunManifest::from_toml_str(&old).unwrap();
        assert!(parsed_old.gauges.is_empty());
        assert_eq!(parsed_old.digest(), manifest.digest());
    }

    #[test]
    fn handoff_counters_round_trip_and_old_manifests_still_parse() {
        use crate::report::{CellLoad, FleetSignaling, RncLoad};
        let mut report = sample_report();
        report.signaling = Some(FleetSignaling {
            cell_capacity_per_s: Some(100),
            rnc_capacity_per_s: Some(500),
            cells: vec![CellLoad {
                users: 4,
                granted: 7,
                handoffs_in: 9,
                handoffs_out: 9,
                ..CellLoad::default()
            }],
            rncs: vec![RncLoad { cells: 1, users: 4, inter_rnc_handoffs: 3, ..RncLoad::default() }],
        });
        let manifest = RunManifest::for_report(&report, 2, 77, &sample_snapshot());
        let text = manifest.to_toml_string();
        // The CI handoff smoke greps these keys out of the rendered
        // manifest, so the writer must emit them verbatim.
        assert!(text.contains("handoffs = 9"), "{text}");
        assert!(text.contains("inter_rnc_handoffs = 3"), "{text}");
        let parsed = RunManifest::from_toml_str(&text).unwrap();
        assert_eq!(parsed, manifest);
        let signaling = parsed.reports[0].signaling.as_ref().unwrap();
        assert_eq!((signaling.handoffs, signaling.inter_rnc_handoffs), (9, 3));

        // Pre-mobility manifests carry no handoff keys; they parse with
        // zero counts (and digest differently from the mobile run).
        let old = text
            .lines()
            .filter(|l| !l.starts_with("handoffs") && !l.starts_with("inter_rnc_handoffs"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed_old = RunManifest::from_toml_str(&old).unwrap();
        let signaling = parsed_old.reports[0].signaling.as_ref().unwrap();
        assert_eq!((signaling.handoffs, signaling.inter_rnc_handoffs), (0, 0));
        assert_ne!(parsed_old.digest(), manifest.digest());
    }

    #[test]
    fn zero_phases_names_the_silent_ones() {
        let manifest = RunManifest::for_report(&sample_report(), 2, 77, &sample_snapshot());
        assert_eq!(manifest.zero_phases(), vec!["adjudicate", "replay"]);
    }

    #[test]
    fn unknown_manifest_keys_are_positioned_errors() {
        let manifest = RunManifest::for_report(&sample_report(), 1, 0, &sample_snapshot());
        let text = manifest.to_toml_string().replace("seed = 0", "sede = 0");
        let err = RunManifest::from_toml_str(&text).unwrap_err();
        assert!(err.message.contains("unknown key `sede`"), "{err}");
    }

    #[test]
    fn run_count_mismatch_is_an_error() {
        let manifest = RunManifest::for_report(&sample_report(), 1, 0, &sample_snapshot());
        let text = manifest.to_toml_string().replace("runs = 1", "runs = 3");
        let err = RunManifest::from_toml_str(&text).unwrap_err();
        assert!(err.message.contains("runs = 3"), "{err}");
    }

    #[test]
    fn digest_ignores_measurement_but_not_simulation() {
        let base = RunManifest::for_report(&sample_report(), 2, 77, &sample_snapshot());

        // Measurement details: different thread count, wall clock,
        // timings, and counters must digest identically.
        let mut remeasured = RunManifest::for_report(&sample_report(), 8, 77, &Snapshot::empty());
        remeasured.wall_seconds = 123.0;
        for row in &mut remeasured.reports {
            row.wall_seconds = 9.9;
        }
        assert_eq!(remeasured.digest(), base.digest());

        // Simulation content: any figure change must change the digest.
        let mut report = sample_report();
        report.energy_j += 1e-9;
        let redone = RunManifest::for_report(&report, 2, 77, &sample_snapshot());
        assert_ne!(redone.digest(), base.digest());

        let reseeded = RunManifest::for_report(&sample_report(), 2, 78, &sample_snapshot());
        assert_ne!(reseeded.digest(), base.digest());
    }

    #[test]
    fn file_round_trip_and_missing_file_error() {
        let path =
            std::env::temp_dir().join(format!("tailwise-manifest-{}.toml", std::process::id()));
        let manifest = RunManifest::for_report(&sample_report(), 2, 9, &sample_snapshot());
        manifest.to_file(&path).unwrap();
        assert_eq!(RunManifest::from_file(&path).unwrap(), manifest);
        std::fs::remove_file(&path).unwrap();
        let err = RunManifest::from_file(&path).unwrap_err();
        assert!(err.message.contains("cannot read run manifest"), "{err}");
    }
}
