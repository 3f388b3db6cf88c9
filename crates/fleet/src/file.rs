//! The on-disk scenario schema: mapping between [`SourceSet`] (and the
//! [`Scenario`] it wraps) and the TOML-subset documents of
//! `tailwise-scenfile`.
//!
//! The format itself is specified key-by-key in
//! `docs/SCENARIO_FORMAT.md`; this module is the single point where
//! that spec is enforced. Schema errors reuse the parser's
//! line/column-carrying [`ScenError`], so `scheme = "makeidel"` fails
//! with the exact position of the bad token, and unknown keys are
//! rejected rather than ignored (`deny_unknown`).
//!
//! A file populates its users in exactly one of two ways: `[[app]]`
//! tables plus `users` (a synthetic population), or a `[corpus]` table
//! naming a directory of trace files to replay. The two are mutually
//! exclusive, and mixing them is a positioned error, never a guess.
//! Either kind may add a `[cells]` table routing the population's
//! fast-dormancy requests through a base-station cell topology — which
//! in turn requires a scriptable scheme (the MakeActive variants are
//! positioned errors there, base value and sweep values alike).
//!
//! Round-trip contract: the writer reads its own text back with the
//! parser and returns it only when it reads back equal to the value
//! written, so the parser alone decides what a file can hold. Anything
//! else — a value the parser rejects, or one the format cannot spell
//! and reads back differently — is a
//! [`ScenErrorKind::Emit`](tailwise_scenfile::ScenErrorKind::Emit)
//! error, the same type the read path uses, carrying the parser's
//! message or the first field that reads back differently. Property
//! tests in this module pin both halves.

use std::path::PathBuf;

use tailwise_core::schemes::Scheme;
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::signaling::SignalingBudget;
use tailwise_scenfile::{parse, str_elements, u64_elements, DocWriter, Pos, ScenError, Table};
use tailwise_sim::engine::SimConfig;
use tailwise_trace::corpus::TraceFormat;
use tailwise_workload::apps::AppKind;

use crate::admission::{positive_duration, AdmissionSpec};
use crate::mobility::{self, MobilitySpec};
use crate::scenario::Scenario;
use crate::source::{CorpusScenario, CorpusSpec, SourceSet, UserSource};
use crate::sweep::SweepAxis;
use crate::topology::NetworkTopology;

/// Parses a full scenario document into the general source form:
/// synthetic or corpus base, plus any sweep axes.
pub(crate) fn source_set_from_str(src: &str) -> Result<SourceSet, ScenError> {
    let doc = parse(src)?;
    doc.deny_unknown(
        &[],
        &["scenario", "sim", "corpus", "cells", "rnc", "mobility"],
        &["carrier", "app", "sweep"],
    )?;

    let scenario_table = doc
        .table("scenario")
        .ok_or_else(|| ScenError::at(doc.pos(), "missing required table `[scenario]`"))?;
    scenario_table.deny_unknown(
        &["name", "users", "days_per_user", "scheme", "master_seed", "shard_size"],
        &[],
        &[],
    )?;

    let scheme = match scenario_table.get_str("scheme")? {
        None => Scheme::MakeIdle,
        Some(token) => parse_token::<Scheme>(scenario_table, "scheme", token)?,
    };
    let master_seed = scenario_table.get_u64("master_seed")?.unwrap_or(1);
    let shard_size = match scenario_table.get_u64("shard_size")? {
        Some(0) => return Err(at_least_one(scenario_table, "shard_size")),
        Some(shard) => shard,
        None => 64,
    };
    let carrier_mix = weighted_entries(&doc, "carrier", "profile", |table, token| {
        parse_token::<CarrierProfile>(table, "profile", token)
    })?;
    let sim = sim_from_doc(&doc)?;
    let cells = topology_from_doc(&doc)?;
    if cells.is_some() && !scheme.scriptable() {
        let pos = scenario_table.get("scheme").map(|i| i.pos).unwrap_or(scenario_table.pos());
        return Err(ScenError::at(pos, unscriptable_scheme_message(&scheme)));
    }

    let Some(corpus_table) = doc.table("corpus") else {
        // ------------------------------------------------ synthetic ----
        let users = scenario_table.req_u64("users")?;
        let days_per_user = match scenario_table.get_u32("days_per_user")? {
            Some(0) => return Err(at_least_one(scenario_table, "days_per_user")),
            Some(days) => days,
            None => 1,
        };
        let app_mix = weighted_entries(&doc, "app", "kind", |table, token| {
            parse_token::<AppKind>(table, "kind", token)
        })?;
        let name = match scenario_table.get_str("name")? {
            Some(name) => name.to_string(),
            None => default_name(users, &scheme, &carrier_mix),
        };
        let base = Scenario {
            name,
            users,
            days_per_user,
            scheme,
            carrier_mix,
            app_mix,
            master_seed,
            shard_size,
            sim,
            cells,
        };
        let axes = sweep_axes(&doc, false, base.cells.is_some())?;
        return Ok(SourceSet { source: UserSource::Synthetic(base), axes });
    };

    // --------------------------------------------------------- corpus ----
    // The corpus sizes and describes the population; the synthetic-only
    // knobs are conflicts, not unknowns, so the error says *why*.
    for key in ["users", "days_per_user"] {
        if let Some(item) = scenario_table.get(key) {
            return Err(ScenError::at(
                item.pos,
                format!(
                    "`{key}` cannot be combined with `[corpus]`: \
                     the population is sized by the corpus's trace files"
                ),
            ));
        }
    }
    if let Some(first) = doc.array_of_tables("app").first() {
        return Err(ScenError::at(
            first.pos(),
            "`[[app]]` cannot be combined with `[corpus]`: \
             replayed traces already define each user's workload",
        ));
    }

    corpus_table.deny_unknown(&["dir", "recursive", "formats", "pcap_device"], &[], &[])?;
    let dir = corpus_table.req_str("dir")?;
    let dir_pos = corpus_table.get("dir").map(|i| i.pos).unwrap_or(corpus_table.pos());
    if dir.is_empty() {
        return Err(ScenError::at(dir_pos, "`dir` must not be empty"));
    }
    let recursive = corpus_table.get_bool("recursive")?.unwrap_or(true);
    let pcap_device = match corpus_table.get_str("pcap_device")? {
        None => None,
        Some(token) => {
            let pos = corpus_table.get("pcap_device").map(|i| i.pos).unwrap_or(corpus_table.pos());
            Some(token.parse::<std::net::Ipv4Addr>().map_err(|_| {
                ScenError::at(
                    pos,
                    format!(
                        "`pcap_device` must be an IPv4 address (e.g. \"10.0.0.2\"), got {token:?}"
                    ),
                )
            })?)
        }
    };
    let formats = match corpus_table.get_array("formats")? {
        None => TraceFormat::ALL.to_vec(),
        Some(items) => {
            let pos = corpus_table.get("formats").map(|i| i.pos).unwrap_or(corpus_table.pos());
            if items.is_empty() {
                return Err(ScenError::at(pos, "`formats` must not be empty"));
            }
            let mut formats = str_elements("formats", items)?
                .into_iter()
                .map(|token| token.parse::<TraceFormat>().map_err(|e| ScenError::at(pos, e)))
                .collect::<Result<Vec<TraceFormat>, ScenError>>()?;
            formats.sort();
            formats.dedup();
            formats
        }
    };
    let name = match scenario_table.get_str("name")? {
        Some(name) => name.to_string(),
        None => format!("corpus {dir} × {}", scheme.label()),
    };
    let base = CorpusScenario {
        name,
        scheme,
        carrier_mix,
        master_seed,
        shard_size,
        sim,
        cells,
        spec: CorpusSpec {
            dir: PathBuf::from(dir),
            recursive,
            formats,
            pcap_device,
            dir_pos,
            origin: None,
        },
    };
    let axes = sweep_axes(&doc, true, base.cells.is_some())?;
    Ok(SourceSet { source: UserSource::Corpus(base), axes })
}

/// The error body for a non-scriptable scheme meeting a `[cells]`
/// topology (the base scheme and sweep values share the wording).
fn unscriptable_scheme_message(scheme: &Scheme) -> String {
    format!(
        "scheme \"{scheme}\" cannot run on a [cells] topology: MakeActive batching depends \
         on grant outcomes, so the exact two-pass replay does not apply; pick a \
         non-batching scheme or drop [cells]"
    )
}

/// Parses one table's admission-policy keys (`admission`,
/// `min_interval_s`, `watermark_per_s`, `window_s`) into an
/// [`AdmissionSpec`]. Parameter keys that do not belong to the chosen
/// policy are positioned errors, never ignored.
fn admission_from_table(table: &Table) -> Result<AdmissionSpec, ScenError> {
    let token = table.get_str("admission")?;
    let pos = table.get("admission").map(|i| i.pos).unwrap_or(table.pos());
    let reject_param = |param: &str, wanted: &str| -> Result<(), ScenError> {
        match table.get(param) {
            Some(item) => {
                Err(ScenError::at(item.pos, format!("`{param}` requires admission = \"{wanted}\"")))
            }
            None => Ok(()),
        }
    };
    match token.unwrap_or("always") {
        "always" => {
            reject_param("min_interval_s", "rate-limited")?;
            reject_param("watermark_per_s", "reactive")?;
            reject_param("window_s", "reactive")?;
            Ok(AdmissionSpec::Always)
        }
        "rate-limited" => {
            reject_param("watermark_per_s", "reactive")?;
            reject_param("window_s", "reactive")?;
            let interval_pos = table.get("min_interval_s").map(|i| i.pos).unwrap_or(table.pos());
            let Some(interval) = table.get_float("min_interval_s")? else {
                return Err(ScenError::at(
                    table.pos(),
                    "admission = \"rate-limited\" needs `min_interval_s`",
                ));
            };
            let Some(min_interval) = positive_duration(interval) else {
                return Err(ScenError::at(
                    interval_pos,
                    format!(
                        "`min_interval_s` must be positive in whole microseconds, got {interval}"
                    ),
                ));
            };
            Ok(AdmissionSpec::RateLimited { min_interval })
        }
        "reactive" => {
            reject_param("min_interval_s", "rate-limited")?;
            let Some(watermark_per_s) = table.get_u64("watermark_per_s")? else {
                return Err(ScenError::at(
                    table.pos(),
                    "admission = \"reactive\" needs `watermark_per_s`",
                ));
            };
            let window_s = match table.get_u64("window_s")? {
                Some(0) => return Err(at_least_one(table, "window_s")),
                Some(window) => window,
                None => 1,
            };
            Ok(AdmissionSpec::LoadReactive { watermark_per_s, window_s })
        }
        other => Err(ScenError::at(
            pos,
            format!("unknown admission policy {other:?}; one of always, rate-limited, reactive"),
        )),
    }
}

/// Parses the optional `[cells]` + `[rnc]` tables into a
/// [`NetworkTopology`]. `[rnc]` without `[cells]` is a positioned
/// error: the hierarchy needs cells to group.
fn topology_from_doc(doc: &Table) -> Result<Option<NetworkTopology>, ScenError> {
    const ADMISSION_KEYS: [&str; 3] = ["min_interval_s", "watermark_per_s", "window_s"];
    let Some(table) = doc.table("cells") else {
        if let Some(rnc) = doc.table("rnc") {
            return Err(ScenError::at(
                rnc.pos(),
                "`[rnc]` requires a `[cells]` table: RNCs group cells",
            ));
        }
        if let Some(mobility) = doc.table("mobility") {
            return Err(ScenError::at(
                mobility.pos(),
                "`[mobility]` requires a `[cells]` table: movement happens between cells",
            ));
        }
        return Ok(None);
    };
    let mut keys = vec!["count", "capacity_per_s", "admission"];
    keys.extend(ADMISSION_KEYS);
    table.deny_unknown(&keys, &[], &[])?;
    let count = match table.req_u64("count")? {
        0 => return Err(at_least_one(table, "count")),
        count => count,
    };
    let cell_budget = SignalingBudget { capacity_per_s: table.get_u64("capacity_per_s")? };
    let cell_admission = admission_from_table(table)?;

    let mut topology = NetworkTopology::new(count);
    topology.cell_budget = cell_budget;
    topology.cell_admission = cell_admission;

    if let Some(rnc) = doc.table("rnc") {
        let mut keys = vec!["count", "capacity_per_s", "admission"];
        keys.extend(ADMISSION_KEYS);
        rnc.deny_unknown(&keys, &[], &[])?;
        let rncs = match rnc.get_u64("count")? {
            Some(0) => return Err(at_least_one(rnc, "count")),
            Some(rncs) => rncs,
            None => 1,
        };
        if rncs > count {
            let pos = rnc.get("count").map(|i| i.pos).unwrap_or(rnc.pos());
            return Err(ScenError::at(
                pos,
                format!("cannot spread {count} cell(s) over {rncs} RNCs; `count` must be ≤ the [cells] count"),
            ));
        }
        topology.rncs = rncs;
        topology.rnc_budget = SignalingBudget { capacity_per_s: rnc.get_u64("capacity_per_s")? };
        topology.rnc_admission = admission_from_table(rnc)?;
    }
    if let Some(mobility) = doc.table("mobility") {
        topology.mobility = mobility_from_table(mobility)?;
    }
    Ok(Some(topology))
}

/// Parses the `[mobility]` table. `model = "static"` treats the commute
/// parameter keys as conflicts (named errors, not unknowns): a static
/// model has no schedule to configure.
fn mobility_from_table(table: &Table) -> Result<MobilitySpec, ScenError> {
    const COMMUTE_KEYS: [&str; 4] = ["home_hour", "work_hour", "jitter_pct", "hint_s"];
    let mut keys = vec!["model"];
    keys.extend(COMMUTE_KEYS);
    table.deny_unknown(&keys, &[], &[])?;
    let model = table.req_str("model")?;
    match model {
        "static" => {
            for key in COMMUTE_KEYS {
                if let Some(item) = table.get(key) {
                    return Err(ScenError::at(
                        item.pos,
                        format!(
                            "`{key}` configures the commute model, but `model` is \"static\"; \
                             set model = \"commute\" or drop the key"
                        ),
                    ));
                }
            }
            Ok(MobilitySpec::Static)
        }
        "commute" => {
            let home_hour = table.get_u32("home_hour")?.unwrap_or(mobility::DEFAULT_HOME_HOUR);
            let work_hour = table.get_u32("work_hour")?.unwrap_or(mobility::DEFAULT_WORK_HOUR);
            let jitter_pct = table.get_u32("jitter_pct")?.unwrap_or(mobility::DEFAULT_JITTER_PCT);
            let hint_s = table.get_u32("hint_s")?.unwrap_or(mobility::DEFAULT_HINT_S);
            mobility::check_commute(home_hour, work_hour, jitter_pct)
                .map_err(|message| ScenError::at(table.pos(), message))?;
            Ok(MobilitySpec::Commute { home_hour, work_hour, jitter_pct, hint_s })
        }
        other => {
            let pos = table.get("model").map(|i| i.pos).unwrap_or(table.pos());
            Err(ScenError::at(
                pos,
                format!("unknown mobility model {other:?}; one of static, commute"),
            ))
        }
    }
}

/// Serializes either kind of source, plus sweep axes, to document text,
/// then reads that text back with [`source_set_from_str`]: the text is
/// returned only when it reads back equal to what was written. The
/// parser is the only judge of what a file can hold, so anything it
/// rejects or reads differently is an emit error, never a file that
/// fails to load or loads as another scenario. A rejection quotes the
/// refused line and its table ("at `count = 5` in `[rnc]`") before the
/// parser's reason.
pub(crate) fn source_set_to_toml(
    source: &UserSource,
    axes: &[SweepAxis],
) -> Result<String, ScenError> {
    let text = match source {
        UserSource::Synthetic(base) => synthetic_to_toml(base, axes)?,
        UserSource::Corpus(base) => corpus_to_toml(base, axes)?,
    };
    let back = source_set_from_str(&text).map_err(|e| {
        // The quoted line and the table holding it, so a caller can map
        // the error back to the field that wrote it.
        let lines: Vec<&str> = text.lines().take(e.pos.line).collect();
        let at = match lines.last() {
            Some(line) if e.pos != Pos::START => {
                match lines.iter().rev().find(|line| line.starts_with('[')) {
                    Some(table) if table != line => format!(" at `{}` in `{table}`", line.trim()),
                    _ => format!(" at `{}`", line.trim()),
                }
            }
            _ => String::new(),
        };
        ScenError::emit(format!("the written text does not read back{at}: {}", e.message))
    })?;
    if back.source != *source || back.axes != axes {
        return Err(ScenError::emit(first_difference(source, axes, back)));
    }
    Ok(text)
}

/// Names the first field of a written set that reads back differently:
/// the first line where the two `{:#?}` renderings differ. Corpus
/// provenance (`dir_pos`, `origin`) is not identity, so it is copied
/// across before rendering.
fn first_difference(source: &UserSource, axes: &[SweepAxis], mut back: SourceSet) -> String {
    if let (UserSource::Corpus(written), UserSource::Corpus(read)) = (source, &mut back.source) {
        read.spec.dir_pos = written.spec.dir_pos;
        read.spec.origin.clone_from(&written.spec.origin);
    }
    let written = format!("{:#?}", (source, axes));
    let read = format!("{:#?}", (&back.source, &back.axes));
    let mut lines = written.lines().zip(read.lines());
    match lines.find(|(w, r)| w != r) {
        Some((w, r)) => format!("`{}` reads back as `{}`", w.trim(), r.trim()),
        None => "the written text reads back as a different scenario".into(),
    }
}

/// Serializes a synthetic scenario: the shared envelope plus `users`,
/// `days_per_user` and the `[[app]]` mix.
fn synthetic_to_toml(base: &Scenario, axes: &[SweepAxis]) -> Result<String, ScenError> {
    let mut w = header();
    w.blank().table("scenario");
    w.str("name", &base.name);
    w.uint("users", base.users);
    w.uint("days_per_user", u64::from(base.days_per_user));
    w.str("scheme", &base.scheme.to_string());
    w.uint("master_seed", base.master_seed);
    w.uint("shard_size", base.shard_size);
    write_sim(&mut w, &base.sim);
    write_topology(&mut w, &base.cells);
    write_carriers(&mut w, &base.carrier_mix)?;
    for (kind, weight) in &base.app_mix {
        w.blank().array_table("app").str("kind", kind.token());
        write_weight(&mut w, kind.token(), *weight)?;
    }
    write_axes(&mut w, axes)?;
    Ok(w.finish())
}

/// Serializes a corpus scenario: the shared envelope plus the
/// `[corpus]` table instead of `users`/`[[app]]`.
fn corpus_to_toml(base: &CorpusScenario, axes: &[SweepAxis]) -> Result<String, ScenError> {
    let dir = base.spec.dir.to_str().ok_or_else(|| {
        ScenError::emit(format!(
            "corpus directory {:?} is not valid UTF-8 and cannot be written to a scenario file",
            base.spec.dir
        ))
    })?;
    let mut w = header();
    w.blank().table("scenario");
    w.str("name", &base.name);
    w.str("scheme", &base.scheme.to_string());
    w.uint("master_seed", base.master_seed);
    w.uint("shard_size", base.shard_size);
    write_sim(&mut w, &base.sim);
    write_topology(&mut w, &base.cells);
    // Canonical order is the enum order (the same order the parser
    // normalizes to), so emit→parse round-trips to an equal spec.
    let tokens: Vec<&str> =
        base.spec.canonical_formats().into_iter().map(TraceFormat::token).collect();
    w.blank().table("corpus");
    w.str("dir", dir);
    w.bool("recursive", base.spec.recursive);
    w.str_array("formats", &tokens);
    if let Some(device) = base.spec.pcap_device {
        w.str("pcap_device", &device.to_string());
    }
    write_carriers(&mut w, &base.carrier_mix)?;
    write_axes(&mut w, axes)?;
    Ok(w.finish())
}

fn header() -> DocWriter {
    let mut w = DocWriter::new();
    w.comment("tailwise fleet scenario — run with: tailwise fleet run <this file>")
        .comment("format spec: docs/SCENARIO_FORMAT.md");
    w
}

fn write_sim(w: &mut DocWriter, sim: &SimConfig) {
    w.blank().table("sim");
    w.float("intra_burst_gap_s", sim.intra_burst_gap.as_secs_f64());
    w.uint("window_capacity", sim.window_capacity as u64);
}

/// Writes one level's admission keys (the structured spelling the
/// parser reads back).
fn write_admission(w: &mut DocWriter, spec: &AdmissionSpec) {
    w.str("admission", spec.token());
    match spec {
        AdmissionSpec::Always => {}
        AdmissionSpec::RateLimited { min_interval } => {
            w.float("min_interval_s", min_interval.as_secs_f64());
        }
        AdmissionSpec::LoadReactive { watermark_per_s, window_s } => {
            w.uint("watermark_per_s", *watermark_per_s);
            w.uint("window_s", *window_s);
        }
    }
}

fn write_topology(w: &mut DocWriter, cells: &Option<NetworkTopology>) {
    let Some(topology) = cells else { return };
    w.blank().table("cells");
    w.uint("count", topology.cells);
    if let Some(capacity) = topology.cell_budget.capacity_per_s {
        w.uint("capacity_per_s", capacity);
    }
    write_admission(w, &topology.cell_admission);
    // The [rnc] table is emitted only when the RNC count is not the
    // default one or the RNC level is configured; a flat default parses
    // back identically without one.
    if topology.rncs != 1
        || topology.rnc_budget != SignalingBudget::UNBOUNDED
        || topology.rnc_admission != AdmissionSpec::Always
    {
        w.blank().table("rnc");
        w.uint("count", topology.rncs);
        if let Some(capacity) = topology.rnc_budget.capacity_per_s {
            w.uint("capacity_per_s", capacity);
        }
        write_admission(w, &topology.rnc_admission);
    }
    // [mobility] is emitted only for mobile models: a static default
    // parses back identically without one.
    if let MobilitySpec::Commute { home_hour, work_hour, jitter_pct, hint_s } = topology.mobility {
        w.blank().table("mobility");
        w.str("model", topology.mobility.token());
        w.uint("home_hour", u64::from(home_hour));
        w.uint("work_hour", u64::from(work_hour));
        w.uint("jitter_pct", u64::from(jitter_pct));
        w.uint("hint_s", u64::from(hint_s));
    }
}

fn write_carriers(
    w: &mut DocWriter,
    carrier_mix: &[(CarrierProfile, f64)],
) -> Result<(), ScenError> {
    for (profile, weight) in carrier_mix {
        let slug = preset_slug(profile)?;
        w.blank().array_table("carrier").str("profile", slug);
        write_weight(w, slug, *weight)?;
    }
    Ok(())
}

/// The preset slug a carrier is written as: the format names carriers
/// only by preset, so a customized profile has no spelling at all.
fn preset_slug(profile: &CarrierProfile) -> Result<&'static str, ScenError> {
    profile.slug().ok_or_else(|| {
        ScenError::emit(format!(
            "carrier profile {:?} does not match any built-in preset; \
             scenario files can only name presets ({})",
            profile.name,
            CarrierProfile::PRESET_SLUGS.join(", ")
        ))
    })
}

/// Writes a mix entry's `weight`. The format has no spelling for a
/// non-finite number, so such a weight is refused here; every other
/// weight rule is the parser's.
fn write_weight(w: &mut DocWriter, what: &str, weight: f64) -> Result<(), ScenError> {
    if !weight.is_finite() {
        return Err(ScenError::emit(format!(
            "weight of {what:?} is {weight}; scenario files hold only finite numbers"
        )));
    }
    w.float("weight", weight);
    Ok(())
}

fn write_axes(w: &mut DocWriter, axes: &[SweepAxis]) -> Result<(), ScenError> {
    for axis in axes {
        w.blank().array_table("sweep");
        match axis {
            SweepAxis::Schemes(schemes) => {
                let tokens: Vec<String> = schemes.iter().map(Scheme::to_string).collect();
                w.str("axis", "scheme").str_array("values", &tokens);
            }
            SweepAxis::Carriers(carriers) => {
                let slugs = carriers.iter().map(preset_slug).collect::<Result<Vec<_>, _>>()?;
                w.str("axis", "carrier").str_array("values", &slugs);
            }
            SweepAxis::Users(sizes) => {
                w.str("axis", "users").uint_array("values", sizes);
            }
            SweepAxis::Admission(specs) => {
                let tokens: Vec<String> = specs.iter().map(AdmissionSpec::to_string).collect();
                w.str("axis", "admission").str_array("values", &tokens);
            }
            SweepAxis::Mobility(specs) => {
                let tokens: Vec<String> = specs.iter().map(MobilitySpec::to_string).collect();
                w.str("axis", "mobility").str_array("values", &tokens);
            }
        }
    }
    Ok(())
}

/// A positioned "must be at least 1" error for `key` — zero is always a
/// bug in the file (the format's rule is loud failure, never a silent
/// clamp that runs a different experiment than the author wrote).
fn at_least_one(table: &Table, key: &str) -> ScenError {
    let pos = table.get(key).map(|i| i.pos).unwrap_or(table.pos());
    ScenError::at(pos, format!("`{key}` must be at least 1"))
}

/// Parses the `[[carrier]]` / `[[app]]` weighted-entry arrays.
fn weighted_entries<T>(
    doc: &Table,
    array: &str,
    token_key: &str,
    parse_entry: impl Fn(&Table, &str) -> Result<T, ScenError>,
) -> Result<Vec<(T, f64)>, ScenError> {
    let tables = doc.array_of_tables(array);
    if tables.is_empty() {
        return Err(ScenError::at(
            doc.pos(),
            format!("scenario needs at least one `[[{array}]]` entry"),
        ));
    }
    let mut out = Vec::with_capacity(tables.len());
    for table in tables {
        table.deny_unknown(&[token_key, "weight"], &[], &[])?;
        let token = table.req_str(token_key)?;
        let value = parse_entry(table, token)?;
        let weight = table.get_float("weight")?.unwrap_or(1.0);
        if !(weight.is_finite() && weight > 0.0) {
            let pos = table.get("weight").map(|i| i.pos).unwrap_or(table.pos());
            return Err(ScenError::at(pos, format!("`weight` must be positive, got {weight}")));
        }
        out.push((value, weight));
    }
    Ok(out)
}

fn sim_from_doc(doc: &Table) -> Result<SimConfig, ScenError> {
    let mut sim = SimConfig::default();
    let Some(table) = doc.table("sim") else { return Ok(sim) };
    table.deny_unknown(&["intra_burst_gap_s", "window_capacity"], &[], &[])?;
    if let Some(gap) = table.get_float("intra_burst_gap_s")? {
        let Some(gap) = positive_duration(gap) else {
            let pos = table.get("intra_burst_gap_s").map(|i| i.pos).unwrap_or(table.pos());
            return Err(ScenError::at(
                pos,
                format!("`intra_burst_gap_s` must be positive in whole microseconds, got {gap}"),
            ));
        };
        sim.intra_burst_gap = gap;
    }
    match table.get_u64("window_capacity")? {
        Some(0) => return Err(at_least_one(table, "window_capacity")),
        Some(capacity) => sim.window_capacity = capacity as usize,
        None => {}
    }
    Ok(sim)
}

/// Parses `[[sweep]]` axes. With `corpus`, the `users` axis is rejected
/// (a corpus population is sized by its directory, not a knob); with
/// `cells`, scheme values must be scriptable (see
/// [`Scheme::scriptable`]).
fn sweep_axes(doc: &Table, corpus: bool, cells: bool) -> Result<Vec<SweepAxis>, ScenError> {
    let mut axes = Vec::new();
    for table in doc.array_of_tables("sweep") {
        table.deny_unknown(&["axis", "values"], &[], &[])?;
        let axis = table.req_str("axis")?;
        let values = table.req_array("values")?;
        if values.is_empty() {
            let pos = table.get("values").map(|i| i.pos).unwrap_or(table.pos());
            return Err(ScenError::at(pos, "sweep `values` must not be empty"));
        }
        let axis_pos = table.get("axis").map(|i| i.pos).unwrap_or(table.pos());
        axes.push(match axis {
            "scheme" => {
                let schemes = str_elements("values", values)?
                    .into_iter()
                    .map(|token| token.parse::<Scheme>().map_err(|e| ScenError::at(axis_pos, e)))
                    .collect::<Result<Vec<Scheme>, ScenError>>()?;
                if cells {
                    if let Some(bad) = schemes.iter().find(|s| !s.scriptable()) {
                        return Err(ScenError::at(axis_pos, unscriptable_scheme_message(bad)));
                    }
                }
                SweepAxis::Schemes(schemes)
            }
            "carrier" => SweepAxis::Carriers(
                str_elements("values", values)?
                    .into_iter()
                    .map(|token| {
                        token.parse::<CarrierProfile>().map_err(|e| ScenError::at(axis_pos, e))
                    })
                    .collect::<Result<Vec<CarrierProfile>, ScenError>>()?,
            ),
            "users" if corpus => {
                return Err(ScenError::at(
                    axis_pos,
                    "sweep axis `users` requires a synthetic scenario; \
                     a [corpus] population is sized by its directory",
                ))
            }
            "users" => SweepAxis::Users(u64_elements("values", values)?),
            "admission" if !cells => {
                return Err(ScenError::at(
                    axis_pos,
                    "sweep axis `admission` requires a [cells] topology to apply to",
                ))
            }
            "admission" => SweepAxis::Admission(
                str_elements("values", values)?
                    .into_iter()
                    .map(|token| {
                        token.parse::<AdmissionSpec>().map_err(|e| ScenError::at(axis_pos, e))
                    })
                    .collect::<Result<Vec<AdmissionSpec>, ScenError>>()?,
            ),
            "mobility" if !cells => {
                return Err(ScenError::at(
                    axis_pos,
                    "sweep axis `mobility` requires a [cells] topology to apply to",
                ))
            }
            "mobility" => SweepAxis::Mobility(
                str_elements("values", values)?
                    .into_iter()
                    .map(|token| {
                        token.parse::<MobilitySpec>().map_err(|e| ScenError::at(axis_pos, e))
                    })
                    .collect::<Result<Vec<MobilitySpec>, ScenError>>()?,
            ),
            other => {
                return Err(ScenError::at(
                    axis_pos,
                    format!(
                        "unknown sweep axis {other:?}; one of scheme, carrier, users, \
                         admission, mobility"
                    ),
                ))
            }
        });
    }
    Ok(axes)
}

/// Parses a string token bound to `key` into `T`, anchoring failures at
/// the token's position in the file.
fn parse_token<T: std::str::FromStr<Err = String>>(
    table: &Table,
    key: &str,
    token: &str,
) -> Result<T, ScenError> {
    token.parse::<T>().map_err(|message| {
        let pos = table.get(key).map(|i| i.pos).unwrap_or(table.pos());
        ScenError::at(pos, message)
    })
}

fn default_name(users: u64, scheme: &Scheme, carrier_mix: &[(CarrierProfile, f64)]) -> String {
    match carrier_mix {
        [(only, _)] => format!("{} × {} on {}", users, scheme.label(), only.name),
        _ => format!("{} × {} on {} carriers", users, scheme.label(), carrier_mix.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tailwise_radio::signaling::SignalingModel;
    use tailwise_scenfile::ScenErrorKind;
    use tailwise_trace::time::Duration;

    const MINIMAL: &str = concat!(
        "[scenario]\n",
        "users = 40\n",
        "\n",
        "[[carrier]]\n",
        "profile = \"verizon-lte\"\n",
        "\n",
        "[[app]]\n",
        "kind = \"im\"\n",
    );

    /// A synthetic document's base scenario and sweep axes.
    fn parse_synthetic(src: &str) -> (Scenario, Vec<SweepAxis>) {
        match source_set_from_str(src).unwrap() {
            SourceSet { source: UserSource::Synthetic(base), axes } => (base, axes),
            other => panic!("expected a synthetic document: {other:?}"),
        }
    }

    fn write_synthetic(base: &Scenario, axes: &[SweepAxis]) -> Result<String, ScenError> {
        source_set_to_toml(&UserSource::Synthetic(base.clone()), axes)
    }

    /// The scenarios a synthetic set expands into.
    fn expand(base: &Scenario, axes: &[SweepAxis]) -> Vec<Scenario> {
        let set = SourceSet { source: UserSource::Synthetic(base.clone()), axes: axes.to_vec() };
        set.expand_labeled()
            .unwrap()
            .into_iter()
            .map(|(_, source)| match source {
                UserSource::Synthetic(scenario) => scenario,
                UserSource::Corpus(_) => unreachable!("synthetic sets expand to scenarios"),
            })
            .collect()
    }

    #[test]
    fn minimal_file_fills_defaults() {
        let (s, axes) = parse_synthetic(MINIMAL);
        assert!(axes.is_empty());
        assert_eq!(s.users, 40);
        assert_eq!(s.days_per_user, 1);
        assert_eq!(s.scheme, Scheme::MakeIdle);
        assert_eq!(s.master_seed, 1);
        assert_eq!(s.shard_size, 64);
        assert_eq!(s.carrier_mix.len(), 1);
        assert_eq!(s.carrier_mix[0].1, 1.0);
        assert_eq!(s.app_mix, vec![(AppKind::Im, 1.0)]);
        assert_eq!(s.sim, SimConfig::default());
        assert_eq!(s.name, "40 × MakeIdle on Verizon LTE");
    }

    #[test]
    fn full_file_round_trips_every_field() {
        let src = concat!(
            "[scenario]\n",
            "name = \"full house\"\n",
            "users = 1_000\n",
            "days_per_user = 3\n",
            "scheme = \"makeidle-activelearn\"\n",
            "master_seed = 0xF1EE7\n",
            "shard_size = 32\n",
            "\n",
            "[sim]\n",
            "intra_burst_gap_s = 0.25\n",
            "window_capacity = 150\n",
            "\n",
            "[[carrier]]\n",
            "profile = \"att-hspa\"\n",
            "weight = 3.0\n",
            "\n",
            "[[carrier]]\n",
            "profile = \"verizon-lte\"\n",
            "\n",
            "[[app]]\n",
            "kind = \"im\"\n",
            "weight = 2.5\n",
            "\n",
            "[[app]]\n",
            "kind = \"finance\"\n",
        );
        let (s, axes) = parse_synthetic(src);
        assert_eq!(s.name, "full house");
        assert_eq!((s.users, s.days_per_user, s.master_seed, s.shard_size), (1000, 3, 0xF1EE7, 32));
        assert_eq!(s.scheme, Scheme::MakeIdleActiveLearn);
        assert_eq!(s.sim.intra_burst_gap, Duration::from_secs_f64(0.25));
        assert_eq!(s.sim.window_capacity, 150);
        assert_eq!(s.carrier_mix[0].0, CarrierProfile::att_hspa());
        assert_eq!(s.carrier_mix[0].1, 3.0);
        assert_eq!(s.carrier_mix[1].1, 1.0);

        // And through the writer: emitted text reparses to an equal set.
        let text = write_synthetic(&s, &axes).unwrap();
        assert_eq!(parse_synthetic(&text), (s, axes));
    }

    #[test]
    fn sweep_axes_parse_and_serialize() {
        let src = concat!(
            "[scenario]\n",
            "users = 10\n",
            "[[carrier]]\n",
            "profile = \"att-hspa\"\n",
            "[[app]]\n",
            "kind = \"im\"\n",
            "[[sweep]]\n",
            "axis = \"scheme\"\n",
            "values = [\"statusquo\", \"makeidle\", \"oracle\"]\n",
            "[[sweep]]\n",
            "axis = \"users\"\n",
            "values = [10, 100]\n",
        );
        let (base, axes) = parse_synthetic(src);
        assert_eq!(axes.len(), 2);
        assert_eq!(
            axes[0],
            SweepAxis::Schemes(vec![Scheme::StatusQuo, Scheme::MakeIdle, Scheme::Oracle])
        );
        assert_eq!(axes[1], SweepAxis::Users(vec![10, 100]));

        let text = write_synthetic(&base, &axes).unwrap();
        assert_eq!(parse_synthetic(&text).1, axes);
    }

    // ------------------------------------------------------------------
    // [cells] files.

    #[test]
    fn cells_table_parses_with_defaults_and_round_trips() {
        let src = concat!(
            "[scenario]\nusers = 40\n",
            "[cells]\ncount = 16\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
        );
        let (base, _) = parse_synthetic(src);
        let topology = base.cells.as_ref().expect("cells parsed");
        assert_eq!(topology.cells, 16);
        assert_eq!(topology.rncs, 1, "no [rnc] table means a flat single-RNC hierarchy");
        assert_eq!(topology.cell_budget, SignalingBudget::UNBOUNDED);
        assert_eq!(topology.rnc_budget, SignalingBudget::UNBOUNDED);
        assert_eq!(topology.cell_admission, AdmissionSpec::Always);
        assert_eq!(topology.rnc_admission, AdmissionSpec::Always);
        assert_eq!(topology.signaling, SignalingModel::default());
        let text = write_synthetic(&base, &[]).unwrap();
        assert!(!text.contains("[rnc]"), "flat defaults emit no [rnc] table:\n{text}");
        assert_eq!(parse_synthetic(&text).0, base);
    }

    #[test]
    fn rate_limited_cells_round_trip_with_capacity() {
        let src = concat!(
            "[scenario]\nusers = 10\nscheme = \"oracle\"\n",
            "[cells]\n",
            "count = 3\n",
            "capacity_per_s = 120\n",
            "admission = \"rate-limited\"\n",
            "min_interval_s = 2.5\n",
            "[[carrier]]\nprofile = \"verizon-lte\"\n",
            "[[app]]\nkind = \"im\"\n",
            "[[sweep]]\naxis = \"scheme\"\nvalues = [\"makeidle\", \"oracle\"]\n",
        );
        let (base, axes) = parse_synthetic(src);
        let topology = base.cells.as_ref().unwrap();
        assert_eq!(topology.cell_budget.capacity_per_s, Some(120));
        assert_eq!(
            topology.cell_admission,
            AdmissionSpec::RateLimited { min_interval: Duration::from_secs_f64(2.5) }
        );
        let text = write_synthetic(&base, &axes).unwrap();
        assert!(text.contains("admission = \"rate-limited\""), "{text}");
        assert_eq!(parse_synthetic(&text), (base, axes));
    }

    #[test]
    fn rnc_hierarchy_parses_and_round_trips() {
        let src = concat!(
            "[scenario]\nusers = 40\n",
            "[cells]\n",
            "count = 12\n",
            "capacity_per_s = 120\n",
            "admission = \"rate-limited\"\n",
            "min_interval_s = 2.0\n",
            "[rnc]\n",
            "count = 3\n",
            "capacity_per_s = 400\n",
            "admission = \"reactive\"\n",
            "watermark_per_s = 50\n",
            "window_s = 5\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
        );
        let (base, _) = parse_synthetic(src);
        let topology = base.cells.as_ref().unwrap();
        assert_eq!((topology.rncs, topology.cells), (3, 12));
        assert_eq!(topology.rnc_budget.capacity_per_s, Some(400));
        assert_eq!(
            topology.rnc_admission,
            AdmissionSpec::LoadReactive { watermark_per_s: 50, window_s: 5 }
        );
        assert_eq!(
            topology.cell_admission,
            AdmissionSpec::RateLimited { min_interval: Duration::from_secs(2) }
        );
        let text = write_synthetic(&base, &[]).unwrap();
        assert!(text.contains("[rnc]"), "{text}");
        assert_eq!(parse_synthetic(&text).0, base);
    }

    #[test]
    fn admission_sweep_axis_parses_and_round_trips() {
        let src = concat!(
            "[scenario]\nusers = 12\n",
            "[cells]\ncount = 4\n",
            "[rnc]\ncount = 2\ncapacity_per_s = 90\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",
            "axis = \"admission\"\n",
            "values = [\"always\", \"rate-limited:2.5\", \"reactive:120:5\"]\n",
        );
        let (base, axes) = parse_synthetic(src);
        assert_eq!(
            axes,
            vec![SweepAxis::Admission(vec![
                AdmissionSpec::Always,
                AdmissionSpec::RateLimited { min_interval: Duration::from_secs_f64(2.5) },
                AdmissionSpec::LoadReactive { watermark_per_s: 120, window_s: 5 },
            ])]
        );
        // Expansion rewrites the RNC admission only.
        let expanded = expand(&base, &axes);
        assert_eq!(expanded.len(), 3);
        assert_eq!(
            expanded[2].cells.as_ref().unwrap().rnc_admission,
            AdmissionSpec::LoadReactive { watermark_per_s: 120, window_s: 5 }
        );
        assert_eq!(expanded[2].cells.as_ref().unwrap().cell_admission, AdmissionSpec::Always);
        assert!(expanded[1].name.ends_with("[admission=rate-limited:2.5]"), "{}", expanded[1].name);
        let text = write_synthetic(&base, &axes).unwrap();
        assert_eq!(parse_synthetic(&text), (base, axes));
    }

    #[test]
    fn commute_mobility_parses_and_round_trips() {
        let src = concat!(
            "[scenario]\nusers = 20\n",
            "[cells]\ncount = 6\n",
            "[mobility]\n",
            "model = \"commute\"\n",
            "home_hour = 7\n",
            "work_hour = 18\n",
            "[[carrier]]\nprofile = \"verizon-lte\"\n",
            "[[app]]\nkind = \"im\"\n",
        );
        let (base, _) = parse_synthetic(src);
        let topology = base.cells.as_ref().unwrap();
        assert_eq!(
            topology.mobility,
            MobilitySpec::Commute {
                home_hour: 7,
                work_hour: 18,
                jitter_pct: mobility::DEFAULT_JITTER_PCT,
                hint_s: mobility::DEFAULT_HINT_S,
            },
            "omitted keys fall back to the documented defaults"
        );
        let text = write_synthetic(&base, &[]).unwrap();
        assert!(text.contains("[mobility]"), "{text}");
        assert!(text.contains("model = \"commute\""), "{text}");
        assert_eq!(parse_synthetic(&text).0, base);

        // An explicit static model parses, but the writer omits the
        // table entirely: the default spelling is no table at all.
        let src = concat!(
            "[scenario]\nusers = 20\n",
            "[cells]\ncount = 6\n",
            "[mobility]\nmodel = \"static\"\n",
            "[[carrier]]\nprofile = \"verizon-lte\"\n",
            "[[app]]\nkind = \"im\"\n",
        );
        let (base, _) = parse_synthetic(src);
        assert_eq!(base.cells.as_ref().unwrap().mobility, MobilitySpec::Static);
        let text = write_synthetic(&base, &[]).unwrap();
        assert!(!text.contains("[mobility]"), "static emits no table:\n{text}");
        assert_eq!(parse_synthetic(&text).0, base);
    }

    #[test]
    fn mobility_sweep_axis_parses_and_round_trips() {
        let src = concat!(
            "[scenario]\nusers = 12\n",
            "[cells]\ncount = 4\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",
            "axis = \"mobility\"\n",
            "values = [\"static\", \"commute\", \"commute:6:19:10:30\"]\n",
        );
        let (base, axes) = parse_synthetic(src);
        assert_eq!(
            axes,
            vec![SweepAxis::Mobility(vec![
                MobilitySpec::Static,
                MobilitySpec::commute(),
                MobilitySpec::Commute { home_hour: 6, work_hour: 19, jitter_pct: 10, hint_s: 30 },
            ])]
        );
        let expanded = expand(&base, &axes);
        assert_eq!(expanded.len(), 3);
        assert_eq!(expanded[0].cells.as_ref().unwrap().mobility, MobilitySpec::Static);
        assert_eq!(
            expanded[2].cells.as_ref().unwrap().mobility,
            MobilitySpec::Commute { home_hour: 6, work_hour: 19, jitter_pct: 10, hint_s: 30 }
        );
        assert!(expanded[1].name.ends_with("[mobility=commute]"), "{}", expanded[1].name);
        let text = write_synthetic(&base, &axes).unwrap();
        assert_eq!(parse_synthetic(&text), (base, axes));
    }

    #[test]
    fn golden_mobility_schema_errors() {
        // [mobility] without [cells] has nothing to move between.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",          // 1-2
            "[mobility]\nmodel = \"static\"\n", // 3-4
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(3, 1));
        assert!(e.message.contains("`[mobility]` requires a `[cells]` table"), "{e}");

        // A commute parameter on the static model is a named conflict,
        // not an unknown key.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",          // 1-2
            "[cells]\ncount = 2\n",             // 3-4
            "[mobility]\nmodel = \"static\"\n", // 5-6
            "home_hour = 9\n",                  // 7 (value at col 13)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(7, 13));
        assert!(e.message.contains("but `model` is \"static\""), "{e}");

        // Unknown models name the alternatives.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\n",
            "[mobility]\nmodel = \"teleport\"\n", // 6 (value at col 9)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(6, 9));
        assert!(e.message.contains("unknown mobility model \"teleport\""), "{e}");

        // Commute hours are validated with the shared wording.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\n",
            "[mobility]\nmodel = \"commute\"\nhome_hour = 20\nwork_hour = 8\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert!(e.message.contains("leave home before leaving work"), "{e}");

        // Unknown keys are rejected, with the schema in the message.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\n",
            "[mobility]\nmodel = \"commute\"\nspeed = 3\n", // 7
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert!(e.message.contains("unknown key `speed`"), "{e}");
        assert!(e.message.contains("home_hour"), "suggests valid keys: {e}");

        // A mobility sweep without a topology has nothing to apply to.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",           // 7
            "axis = \"mobility\"\n", // 8 (value at col 8)
            "values = [\"static\"]\n",
        ));
        assert_eq!(e.pos, Pos::new(8, 8));
        assert!(e.message.contains("requires a [cells] topology"), "{e}");

        // Malformed mobility tokens carry the token parser's reason.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",
            "axis = \"mobility\"\n", // 10 (value at col 8)
            "values = [\"commute:9\"]\n",
        ));
        assert_eq!(e.pos, Pos::new(10, 8));
        assert!(e.message.contains("hour pair"), "{e}");
    }

    #[test]
    fn golden_cells_schema_errors() {
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n", // 1-2
            "[cells]\n",               // 3
            "count = 0\n",             // 4 (value at col 9)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(4, 9));
        assert!(e.message.contains("`count` must be at least 1"), "{e}");

        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\ncells = 9\n", // 5: unknown key
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 1));
        assert!(e.message.contains("unknown key `cells`"), "{e}");
        assert!(e.message.contains("capacity_per_s"), "suggests valid keys: {e}");

        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\nmin_interval_s = 1.0\n", // 5 (value at col 18)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 18));
        assert!(e.message.contains("requires admission = \"rate-limited\""), "{e}");

        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\nadmission = \"rate-limited\"\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert!(e.message.contains("needs `min_interval_s`"), "{e}");

        // Checked after rounding to whole microseconds: a positive
        // interval under half a microsecond would be a zero interval.
        let limited = "admission = \"rate-limited\"\nmin_interval_s = 0.0000001\n";
        for (levels, line) in [
            (format!("[cells]\ncount = 2\n{limited}"), 6),
            (format!("[cells]\ncount = 2\n[rnc]\ncount = 1\n{limited}"), 8),
        ] {
            let e = err_of(&format!(
                "[scenario]\nusers = 5\n{levels}[[carrier]]\nprofile = \"att-hspa\"\n\
                 [[app]]\nkind = \"im\"\n"
            ));
            assert_eq!(e.pos, Pos::new(line, 18), "{e}");
            let expect = "`min_interval_s` must be positive in whole microseconds, got 0.0000001";
            assert!(e.message.contains(expect), "{e}");
        }

        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\nadmission = \"sometimes\"\n", // 5 (value at col 13)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 13));
        assert!(e.message.contains("unknown admission policy \"sometimes\""), "{e}");

        // `release` is not a [cells] key: the policy is `admission`.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",                      // 1-2
            "[cells]\ncount = 2\nadmission = \"always\"\n", // 3-5
            "release = \"always\"\n",                       // 6
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(6, 1));
        assert!(e.message.contains("unknown key `release`"), "{e}");
    }

    #[test]
    fn golden_reactive_and_rnc_schema_errors() {
        // Reactive parameters on the wrong policy kind.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",                   // 1-2
            "[cells]\ncount = 2\nwatermark_per_s = 9\n", // 3-5 (value at col 19)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 19));
        assert!(e.message.contains("requires admission = \"reactive\""), "{e}");

        // Reactive without its watermark.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\nadmission = \"reactive\"\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert!(e.message.contains("needs `watermark_per_s`"), "{e}");

        // Zero windows are rejected, never clamped.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\nadmission = \"reactive\"\nwatermark_per_s = 9\n",
            "window_s = 0\n", // 7 (value at col 12)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(7, 12));
        assert!(e.message.contains("`window_s` must be at least 1"), "{e}");

        // [rnc] needs cells to group.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n", // 1-2
            "[rnc]\ncount = 2\n",      // 3-4
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(3, 1));
        assert!(e.message.contains("`[rnc]` requires a `[cells]` table"), "{e}");

        // More RNCs than cells cannot form contiguous blocks.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n", // 1-2
            "[cells]\ncount = 2\n",    // 3-4
            "[rnc]\ncount = 3\n",      // 5-6 (value at col 9)
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(6, 9));
        assert!(e.message.contains("cannot spread 2 cell(s) over 3 RNCs"), "{e}");

        // `release` is not an [rnc] key either.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 4\n",
            "[rnc]\nrelease = \"always\"\n", // 6
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(6, 1));
        assert!(e.message.contains("unknown key `release`"), "{e}");

        // An admission sweep without a topology has nothing to apply to.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",            // 7
            "axis = \"admission\"\n", // 8 (value at col 8)
            "values = [\"always\"]\n",
        ));
        assert_eq!(e.pos, Pos::new(8, 8));
        assert!(e.message.contains("requires a [cells] topology"), "{e}");

        // Malformed admission tokens in sweep values carry the parse
        // failure's reason.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",
            "axis = \"admission\"\n", // 10 (value at col 8)
            "values = [\"reactive\"]\n",
        ));
        assert_eq!(e.pos, Pos::new(10, 8));
        assert!(e.message.contains("needs a watermark"), "{e}");
    }

    #[test]
    fn golden_cells_reject_batched_schemes_in_base_and_sweeps() {
        // Base scheme: positioned at the scheme value.
        let e = err_of(concat!(
            "[scenario]\n",                        // 1
            "users = 5\n",                         // 2
            "scheme = \"makeidle-activelearn\"\n", // 3 (value at col 10)
            "[cells]\ncount = 2\n",                // 4-5
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(3, 10));
        assert!(e.message.contains("cannot run on a [cells] topology"), "{e}");

        // Sweep values are checked too, anchored at the axis key.
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[cells]\ncount = 2\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n[[app]]\nkind = \"im\"\n",
            "[[sweep]]\n",         // 9
            "axis = \"scheme\"\n", // 10 (value at col 8)
            "values = [\"makeidle\", \"makeidle-activefix\"]\n",
        ));
        assert_eq!(e.pos, Pos::new(10, 8));
        assert!(e.message.contains("cannot run on a [cells] topology"), "{e}");
    }

    #[test]
    fn unscriptable_or_customized_cells_cannot_serialize() {
        let mut s = Scenario::new(4, Scheme::MakeIdleActiveLearn, CarrierProfile::att_hspa());
        s.cells = Some(NetworkTopology::new(4));
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert_eq!(err.kind, ScenErrorKind::Emit);
        assert!(err.message.contains("cannot run on a [cells] topology"), "{err}");

        // A sweep smuggling a batched scheme past a scriptable base.
        s.scheme = Scheme::MakeIdle;
        let axes = vec![SweepAxis::Schemes(vec![Scheme::Oracle, Scheme::MakeIdleActiveFix])];
        let err = write_synthetic(&s, &axes).unwrap_err();
        assert!(err.message.contains("cannot run on a [cells] topology"), "{err}");

        // A customized signaling model has no on-disk spelling.
        let mut topology = NetworkTopology::new(4);
        topology.signaling.per_promotion = 99;
        s.cells = Some(topology);
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert!(err.message.contains("`per_promotion: 99,` reads back as"), "{err}");
    }

    // ------------------------------------------------------------------
    // [corpus] files.

    const CORPUS_MINIMAL: &str = concat!(
        "[scenario]\n",             // 1
        "name = \"replay\"\n",      // 2
        "\n",                       // 3
        "[corpus]\n",               // 4
        "dir = \"traces\"\n",       // 5  (value at col 7)
        "\n",                       // 6
        "[[carrier]]\n",            // 7
        "profile = \"att-hspa\"\n", // 8
    );

    #[test]
    fn corpus_file_parses_with_defaults() {
        let set = source_set_from_str(CORPUS_MINIMAL).unwrap();
        assert!(!set.is_sweep());
        let UserSource::Corpus(c) = &set.source else { panic!("expected a corpus source") };
        assert_eq!(c.name, "replay");
        assert_eq!(c.scheme, Scheme::MakeIdle);
        assert_eq!(c.spec.dir, PathBuf::from("traces"));
        assert!(c.spec.recursive);
        assert_eq!(c.spec.formats, TraceFormat::ALL.to_vec());
        assert_eq!(c.spec.dir_pos, Pos::new(5, 7));
        assert_eq!((c.master_seed, c.shard_size), (1, 64));
        assert_eq!(c.carrier_mix, vec![(CarrierProfile::att_hspa(), 1.0)]);
    }

    #[test]
    fn corpus_file_round_trips_through_the_writer() {
        let src = concat!(
            "[scenario]\n",
            "scheme = \"oracle\"\n",
            "master_seed = 99\n",
            "shard_size = 16\n",
            "[corpus]\n",
            "dir = \"data/field-study\"\n",
            "recursive = false\n",
            "formats = [\"twt\"]\n",
            "[[carrier]]\n",
            "profile = \"verizon-lte\"\n",
            "weight = 2.0\n",
            "[[sweep]]\n",
            "axis = \"scheme\"\n",
            "values = [\"tail45\", \"oracle\"]\n",
        );
        let set = source_set_from_str(src).unwrap();
        let UserSource::Corpus(c) = &set.source else { panic!("expected a corpus source") };
        // Default name mentions the directory and scheme.
        assert_eq!(c.name, "corpus data/field-study × Oracle");
        assert!(!c.spec.recursive);
        assert_eq!(c.spec.formats, vec![TraceFormat::Binary]);

        let text = set.to_toml_string().unwrap();
        let again = SourceSet::from_toml_str(&text).unwrap();
        assert_eq!(again, set, "corpus round trip drifted:\n{text}");
    }

    #[test]
    fn unordered_format_filters_round_trip_to_an_equal_spec() {
        // Emission and parsing both canonicalize to enum order, so a
        // programmatically built spec with reversed/duplicated formats
        // still satisfies the to_toml_string→from_toml_str == contract.
        let mut c = CorpusScenario::new("corpus", Scheme::MakeIdle, CarrierProfile::att_hspa());
        c.spec.formats = vec![TraceFormat::Csv, TraceFormat::Binary, TraceFormat::Csv];
        let source = UserSource::Corpus(c);
        let text = source_set_to_toml(&source, &[]).unwrap();
        assert!(text.contains("formats = [\"twt\", \"csv\"]"), "{text}");
        let reparsed = source_set_from_str(&text).unwrap();
        assert_eq!(reparsed.source, source);
    }

    #[test]
    fn scenario_set_rejects_corpus_files_with_a_pointer() {
        let e = Scenario::from_toml_str(CORPUS_MINIMAL).unwrap_err();
        assert_eq!(e.pos, Pos::new(5, 7));
        assert!(e.message.contains("SourceSet::from_file"), "{e}");
    }

    // ------------------------------------------------------------------
    // Golden schema errors: position and message.

    fn err_of(src: &str) -> ScenError {
        source_set_from_str(src).expect_err("expected a schema error")
    }

    #[test]
    fn golden_missing_scenario_table() {
        let e = err_of("[[carrier]]\nprofile = \"att-hspa\"\n");
        assert_eq!(e.pos, Pos::new(1, 1));
        assert!(e.message.contains("missing required table `[scenario]`"), "{e}");
    }

    #[test]
    fn golden_missing_users_points_at_scenario_header() {
        let e = err_of(
            "[scenario]\nname = \"x\"\n[[carrier]]\nprofile = \"att\"\n[[app]]\nkind = \"im\"\n",
        );
        assert_eq!(e.pos, Pos::new(1, 1));
        assert!(e.message.contains("missing required key `users`"), "{e}");
    }

    #[test]
    fn golden_unknown_key_is_rejected_with_position() {
        let e = err_of("[scenario]\nusers = 5\nshardsize = 8\n");
        assert_eq!(e.pos, Pos::new(3, 1));
        assert!(e.message.contains("unknown key `shardsize`"), "{e}");
        assert!(e.message.contains("shard_size"), "suggests the valid keys: {e}");
    }

    #[test]
    fn golden_bad_scheme_token_points_at_value() {
        let e = err_of("[scenario]\nusers = 5\nscheme = \"makeidel\"\n");
        assert_eq!(e.pos, Pos::new(3, 10));
        assert!(e.message.contains("unknown scheme \"makeidel\""), "{e}");
    }

    #[test]
    fn golden_bad_carrier_slug() {
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[[carrier]]\nprofile = \"verizon\"\n",
            "[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(4, 11));
        assert!(e.message.contains("unknown carrier \"verizon\""), "{e}");
        assert!(e.message.contains("verizon-lte"), "{e}");
    }

    #[test]
    fn golden_missing_carrier_array() {
        let e = err_of("[scenario]\nusers = 5\n[[app]]\nkind = \"im\"\n");
        assert!(e.message.contains("at least one `[[carrier]]`"), "{e}");
    }

    #[test]
    fn golden_negative_weight() {
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[[carrier]]\nprofile = \"att-hspa\"\nweight = -1.0\n",
            "[[app]]\nkind = \"im\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 10));
        assert!(e.message.contains("`weight` must be positive"), "{e}");
    }

    #[test]
    fn golden_bad_sweep_axis() {
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
            "[[sweep]]\naxis = \"shards\"\nvalues = [1]\n",
        ));
        assert_eq!(e.pos, Pos::new(8, 8));
        assert!(e.message.contains("unknown sweep axis \"shards\""), "{e}");
    }

    #[test]
    fn golden_empty_sweep_values() {
        let e = err_of(concat!(
            "[scenario]\nusers = 5\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
            "[[sweep]]\naxis = \"users\"\nvalues = []\n",
        ));
        assert_eq!(e.pos, Pos::new(9, 10));
        assert!(e.message.contains("must not be empty"), "{e}");
    }

    #[test]
    fn golden_zero_values_are_rejected_not_clamped() {
        let zero_shard = concat!(
            "[scenario]\nusers = 5\nshard_size = 0\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
        );
        let e = err_of(zero_shard);
        assert_eq!(e.pos, Pos::new(3, 14));
        assert!(e.message.contains("`shard_size` must be at least 1"), "{e}");

        let zero_days = zero_shard.replace("shard_size", "days_per_user");
        let e = err_of(&zero_days);
        assert!(e.message.contains("`days_per_user` must be at least 1"), "{e}");

        let zero_window = concat!(
            "[scenario]\nusers = 5\n",
            "[sim]\nwindow_capacity = 0\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[app]]\nkind = \"im\"\n",
        );
        let e = err_of(zero_window);
        assert_eq!(e.pos, Pos::new(4, 19));
        assert!(e.message.contains("`window_capacity` must be at least 1"), "{e}");

        // A gap under half a microsecond rounds to zero: refused as one.
        let e = err_of(&zero_window.replace("window_capacity = 0", "intra_burst_gap_s = 4e-7"));
        assert_eq!(e.pos, Pos::new(4, 21));
        let expect = "`intra_burst_gap_s` must be positive in whole microseconds, got 0.0000004";
        assert!(e.message.contains(expect), "{e}");
        let half = zero_window.replace("window_capacity = 0", "intra_burst_gap_s = 5e-7");
        let shortest = source_set_from_str(&half).expect("half a microsecond rounds up to one");
        let UserSource::Synthetic(scenario) = shortest.source else { panic!("synthetic") };
        assert_eq!(scenario.sim.intra_burst_gap, Duration::from_micros(1));
    }

    // ------------------------------------------------------------------
    // Golden [corpus] schema errors.

    #[test]
    fn golden_corpus_missing_dir() {
        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n", // 1-2
            "[corpus]\n",                 // 3
            "recursive = true\n",         // 4
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert_eq!(e.pos, Pos::new(3, 1));
        assert_eq!(e.message, "missing required key `dir`");
    }

    #[test]
    fn golden_corpus_unknown_key() {
        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n", // 1-2
            "[corpus]\n",                 // 3
            "dir = \"traces\"\n",         // 4
            "recursiv = true\n",          // 5
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 1));
        assert_eq!(
            e.message,
            "unknown key `recursiv`; expected one of: dir, recursive, formats, pcap_device"
        );
    }

    #[test]
    fn golden_corpus_conflicts_with_app_tables() {
        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n",   // 1-2
            "[corpus]\ndir = \"traces\"\n", // 3-4
            "[[app]]\n",                    // 5
            "kind = \"im\"\n",              // 6
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 1));
        assert_eq!(
            e.message,
            "`[[app]]` cannot be combined with `[corpus]`: \
             replayed traces already define each user's workload"
        );
    }

    #[test]
    fn golden_corpus_conflicts_with_users() {
        let e = err_of(concat!(
            "[scenario]\n",                 // 1
            "users = 100\n",                // 2 (value at col 9)
            "[corpus]\ndir = \"traces\"\n", // 3-4
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert_eq!(e.pos, Pos::new(2, 9));
        assert_eq!(
            e.message,
            "`users` cannot be combined with `[corpus]`: \
             the population is sized by the corpus's trace files"
        );
    }

    #[test]
    fn golden_corpus_rejects_users_sweep_and_bad_formats() {
        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n",
            "[corpus]\ndir = \"traces\"\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
            "[[sweep]]\n",        // 7
            "axis = \"users\"\n", // 8 (value at col 8)
            "values = [5]\n",     // 9
        ));
        assert_eq!(e.pos, Pos::new(8, 8));
        assert!(e.message.contains("sweep axis `users` requires a synthetic scenario"), "{e}");

        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n",
            "[corpus]\ndir = \"traces\"\n",
            "formats = [\"pcapng\"]\n", // 5 (value at col 11)
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 11));
        assert!(e.message.contains("unknown trace format \"pcapng\""), "{e}");

        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n",
            "[corpus]\ndir = \"traces\"\n",
            "formats = []\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert!(e.message.contains("`formats` must not be empty"), "{e}");
    }

    #[test]
    fn pcap_corpora_parse_and_round_trip_the_device() {
        let src = concat!(
            "[scenario]\nname = \"captures\"\n",
            "[corpus]\n",
            "dir = \"captures\"\n",
            "formats = [\"pcap\"]\n",
            "pcap_device = \"10.0.0.2\"\n",
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        );
        let set = source_set_from_str(src).unwrap();
        let UserSource::Corpus(c) = &set.source else { panic!("expected a corpus source") };
        assert_eq!(c.spec.formats, vec![TraceFormat::Pcap]);
        assert_eq!(c.spec.pcap_device, Some(std::net::Ipv4Addr::new(10, 0, 0, 2)));
        let text = set.to_toml_string().unwrap();
        assert!(text.contains("pcap_device = \"10.0.0.2\""), "{text}");
        assert_eq!(SourceSet::from_toml_str(&text).unwrap(), set);
    }

    #[test]
    fn golden_bad_pcap_device() {
        let e = err_of(concat!(
            "[scenario]\nname = \"x\"\n",    // 1-2
            "[corpus]\n",                    // 3
            "dir = \"traces\"\n",            // 4
            "pcap_device = \"not-an-ip\"\n", // 5 (value at col 15)
            "[[carrier]]\nprofile = \"att-hspa\"\n",
        ));
        assert_eq!(e.pos, Pos::new(5, 15));
        assert!(e.message.contains("`pcap_device` must be an IPv4 address"), "{e}");
    }

    #[test]
    fn unloadable_schemes_cannot_serialize() {
        // PercentileIat(1.0) would print `iat100`, which from_file
        // rejects — to_file must refuse up front instead of writing an
        // unloadable file.
        let mut s = Scenario::new(4, Scheme::PercentileIat(1.0), CarrierProfile::att_hspa());
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert_eq!(err.kind, ScenErrorKind::Emit);
        assert!(err.message.contains("IAT percentile must be in (0, 100), got 100"), "{err}");
        // …and the same guard covers sweep axis values.
        s.scheme = Scheme::MakeIdle;
        let axes = vec![SweepAxis::Schemes(vec![Scheme::MakeIdle, Scheme::PercentileIat(0.0)])];
        let err = write_synthetic(&s, &axes).unwrap_err();
        assert!(err.message.contains("IAT percentile must be in (0, 100), got 0"), "{err}");
    }

    #[test]
    fn hidden_sim_fields_cannot_serialize_silently() {
        let mut s = Scenario::new(4, Scheme::MakeIdle, CarrierProfile::att_hspa());
        s.sim.record_decisions = true;
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert!(err.message.contains("`record_decisions: true,`"), "{err}");
        assert!(err.message.contains("reads back as `record_decisions: false,`"), "{err}");

        s.sim.record_decisions = false;
        s.sim.transition_log_limit = 7;
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert!(err.message.contains("`transition_log_limit: 7,`"), "{err}");

        // Zero-valued identity fields are equally unrepresentable.
        s.sim = SimConfig::default();
        s.shard_size = 0;
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert!(err.message.contains("`shard_size` must be at least 1"), "{err}");
        assert_eq!(err.kind, ScenErrorKind::Emit);
    }

    #[test]
    fn mutated_profiles_cannot_serialize() {
        let mut s = Scenario::new(4, Scheme::MakeIdle, CarrierProfile::att_hspa());
        s.carrier_mix[0].0.fd_energy_fraction = 0.2;
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert!(err.message.contains("does not match any built-in preset"), "{err}");
    }

    #[test]
    fn empty_carrier_mixes_cannot_serialize() {
        // Emitting zero [[carrier]] tables would write a document the
        // parser rejects; both source kinds refuse instead.
        let mut s = Scenario::new(4, Scheme::MakeIdle, CarrierProfile::att_hspa());
        s.carrier_mix.clear();
        let err = write_synthetic(&s, &[]).unwrap_err();
        assert!(err.message.contains("at least one `[[carrier]]` entry"), "{err}");
        let mut c = CorpusScenario::new("corpus", Scheme::MakeIdle, CarrierProfile::att_hspa());
        c.carrier_mix.clear();
        let err = source_set_to_toml(&UserSource::Corpus(c), &[]).unwrap_err();
        assert!(err.message.contains("at least one `[[carrier]]` entry"), "{err}");
        assert_eq!(err.kind, ScenErrorKind::Emit);
    }

    #[test]
    fn values_the_parser_rejects_cannot_serialize() {
        let synthetic = || Scenario::new(4, Scheme::MakeIdle, CarrierProfile::att_hspa());
        let celled = || Scenario { cells: Some(NetworkTopology::new(4)), ..synthetic() };
        let corpus = || CorpusScenario::new("traces", Scheme::MakeIdle, CarrierProfile::att_hspa());
        let late_commute = MobilitySpec::Commute {
            home_hour: 17,
            work_hour: 8,
            jitter_pct: mobility::DEFAULT_JITTER_PCT,
            hint_s: mobility::DEFAULT_HINT_S,
        };
        let counts = |rncs: u64, cells: u64| {
            let topology = NetworkTopology { rncs, cells, ..NetworkTopology::new(4) };
            UserSource::Synthetic(Scenario { cells: Some(topology), ..synthetic() })
        };
        let cases: Vec<(&str, UserSource, Vec<SweepAxis>)> = vec![
            // The error names the table of the line it quotes, and a
            // zero RNC count is written, not dropped as the default.
            ("`count = 0` in `[cells]`", counts(1, 0), vec![]),
            ("`count = 0` in `[rnc]`", counts(0, 4), vec![]),
            ("`count = 5` in `[rnc]`", counts(5, 4), vec![]),
            (
                "`[[app]]`",
                UserSource::Synthetic(Scenario { app_mix: vec![], ..synthetic() }),
                vec![],
            ),
            ("`values = []`", UserSource::Synthetic(synthetic()), vec![SweepAxis::Schemes(vec![])]),
            (
                "`values = []`",
                UserSource::Synthetic(synthetic()),
                vec![SweepAxis::Carriers(vec![])],
            ),
            ("sweep axis `users`", UserSource::Corpus(corpus()), vec![SweepAxis::Users(vec![5])]),
            (
                "`axis = \"admission\"`",
                UserSource::Synthetic(celled()),
                vec![SweepAxis::Admission(vec![AdmissionSpec::RateLimited {
                    min_interval: Duration::ZERO,
                }])],
            ),
            (
                "`axis = \"admission\"`",
                UserSource::Synthetic(celled()),
                vec![SweepAxis::Admission(vec![AdmissionSpec::LoadReactive {
                    watermark_per_s: 5,
                    window_s: 0,
                }])],
            ),
            (
                "`[mobility]`",
                UserSource::Synthetic(Scenario {
                    cells: Some(NetworkTopology {
                        mobility: late_commute,
                        ..NetworkTopology::new(4)
                    }),
                    ..synthetic()
                }),
                vec![],
            ),
            (
                "`axis = \"mobility\"`",
                UserSource::Synthetic(celled()),
                vec![SweepAxis::Mobility(vec![late_commute])],
            ),
            (
                "`intra_burst_gap_s`",
                UserSource::Synthetic(Scenario {
                    sim: SimConfig { intra_burst_gap: Duration::ZERO, ..SimConfig::default() },
                    ..synthetic()
                }),
                vec![],
            ),
            (
                "`dir`",
                UserSource::Corpus(CorpusScenario { spec: CorpusSpec::new(""), ..corpus() }),
                vec![],
            ),
        ];
        for (key, source, axes) in cases {
            let err = source_set_to_toml(&source, &axes).expect_err(key);
            assert_eq!(err.kind, ScenErrorKind::Emit, "{err}");
            assert!(err.message.contains(key), "{key}: {err}");
        }
    }

    // ------------------------------------------------------------------
    // Property: Scenario → to_file text → from_file → equal scenario,
    // over the full expressible space (preset carriers, canonical
    // schemes, µs-grained sim gaps, cell topologies).

    /// Decodes one level's [`AdmissionSpec`] from plain proptest
    /// integers (the vendored stub has no `prop_oneof!`).
    fn admission_from_ints(which: usize, interval_us: i64, watermark: u64) -> AdmissionSpec {
        match which % 3 {
            0 => AdmissionSpec::Always,
            1 => AdmissionSpec::RateLimited { min_interval: Duration::from_micros(interval_us) },
            _ => AdmissionSpec::LoadReactive {
                watermark_per_s: watermark,
                window_s: 1 + watermark % 9,
            },
        }
    }

    /// Decodes a [`MobilitySpec`] from plain proptest integers: even
    /// `which` stays static, odd draws a valid commute schedule (home
    /// before work, both inside the day, jitter a real percentage).
    fn mobility_from_ints(which: usize, hours: u64, jitter: u64, hint: u64) -> MobilitySpec {
        if which.is_multiple_of(2) {
            return MobilitySpec::Static;
        }
        let home_hour = (hours % 23) as u32;
        let span = u64::from(23 - home_hour);
        let work_hour = home_hour + 1 + ((hours / 23) % span) as u32;
        MobilitySpec::Commute {
            home_hour,
            work_hour,
            jitter_pct: (jitter % 101) as u32,
            hint_s: (hint % 100_000) as u32,
        }
    }

    /// Decodes an `Option<NetworkTopology>` from plain proptest
    /// integers: `which` of 0 is none, otherwise it picks both levels'
    /// admission kinds; a `cap` of 0 means unbounded at that level.
    fn topology_from_ints(
        which: usize,
        count: u64,
        rncs: u64,
        cap: u64,
        rnc_cap: u64,
        interval_us: i64,
        watermark: u64,
    ) -> Option<NetworkTopology> {
        if which == 0 {
            return None;
        }
        let mut topology = NetworkTopology::with_rncs(1 + rncs % count, count);
        topology.cell_budget = SignalingBudget { capacity_per_s: (cap > 0).then_some(cap) };
        topology.rnc_budget = SignalingBudget { capacity_per_s: (rnc_cap > 0).then_some(rnc_cap) };
        topology.cell_admission = admission_from_ints(which, interval_us, watermark);
        topology.rnc_admission = admission_from_ints(which / 3, interval_us * 2 + 1, watermark + 7);
        topology.mobility =
            mobility_from_ints(which / 2, watermark + rncs, watermark, interval_us as u64);
        Some(topology)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn to_toml_from_toml_round_trips(
            (users, days, scheme_i, seed) in (0u64..100_000, 1u32..6, 0usize..7, 0u64..u64::MAX),
            (shard, gap_us, window) in (1u64..512, 1_000i64..2_000_000, 1u64..500),
            carrier_bits in 1u32..64,
            app_bits in 1u32..128,
            weights in proptest::prop::collection::vec(0.001f64..50.0, 14),
            (cells_which, cell_count, cell_cap, interval_us) in
                (0usize..10, 1u64..2_000, 0u64..500, 1_000i64..60_000_000),
            (rnc_count, rnc_cap, watermark) in (0u64..50, 0u64..1_000, 0u64..300),
        ) {
            let schemes = [
                Scheme::StatusQuo,
                Scheme::FixedTail45,
                Scheme::PercentileIat(0.95),
                Scheme::MakeIdle,
                Scheme::Oracle,
                Scheme::MakeIdleActiveFix,
                Scheme::MakeIdleActiveLearn,
            ];
            let carrier_mix: Vec<(CarrierProfile, f64)> = CarrierProfile::all_presets()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| carrier_bits & (1 << i) != 0)
                .map(|(i, c)| (c, weights[i]))
                .collect();
            let app_mix: Vec<(AppKind, f64)> = AppKind::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| app_bits & (1 << i) != 0)
                .map(|(i, k)| (k, weights[7 + i]))
                .collect();
            prop_assert!(!carrier_mix.is_empty() && !app_mix.is_empty());
            let sim = SimConfig {
                intra_burst_gap: Duration::from_micros(gap_us),
                window_capacity: window as usize,
                ..SimConfig::default()
            };
            let scheme = schemes[scheme_i];
            // [cells] requires a scriptable scheme; the batched draws
            // keep exercising the cell-free path.
            let cells = if scheme.scriptable() {
                topology_from_ints(
                    cells_which, cell_count, rnc_count, cell_cap, rnc_cap, interval_us, watermark,
                )
            } else {
                None
            };
            let scenario = Scenario {
                name: format!("prop {users} × {seed}"),
                users,
                days_per_user: days,
                scheme,
                carrier_mix,
                app_mix,
                master_seed: seed,
                shard_size: shard,
                sim,
                cells,
            };
            let text = write_synthetic(&scenario, &[]).unwrap();
            let reparsed = Scenario::from_toml_str(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}\n---\n{text}")))?;
            prop_assert_eq!(reparsed, scenario);
        }

        #[test]
        fn corpus_to_toml_round_trips(
            (scheme_i, seed, shard) in (0usize..7, 0u64..u64::MAX, 1u64..512),
            (recursive, format_bits) in (prop::bool::ANY, 1u8..8),
            carrier_bits in 1u32..64,
            weights in proptest::prop::collection::vec(0.001f64..50.0, 7),
            dir_i in 0usize..4,
            device_bits in 0u64..=u32::MAX as u64 * 2,
            (cells_which, cell_count, cell_cap, interval_us) in
                (0usize..10, 1u64..2_000, 0u64..500, 1_000i64..60_000_000),
            (rnc_count, rnc_cap, watermark) in (0u64..50, 0u64..1_000, 0u64..300),
        ) {
            let schemes = [
                Scheme::StatusQuo,
                Scheme::FixedTail45,
                Scheme::PercentileIat(0.95),
                Scheme::MakeIdle,
                Scheme::Oracle,
                Scheme::MakeIdleActiveFix,
                Scheme::MakeIdleActiveLearn,
            ];
            let dirs = ["corpus", "data/field study", "a/b/c", "./rel"];
            let carrier_mix: Vec<(CarrierProfile, f64)> = CarrierProfile::all_presets()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| carrier_bits & (1 << i) != 0)
                .map(|(i, c)| (c, weights[i]))
                .collect();
            prop_assert!(!carrier_mix.is_empty());
            let formats: Vec<TraceFormat> = TraceFormat::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| format_bits & (1 << i) != 0)
                .map(|(_, f)| f)
                .collect();
            let scheme = schemes[scheme_i];
            let cells = if scheme.scriptable() {
                topology_from_ints(
                    cells_which, cell_count, rnc_count, cell_cap, rnc_cap, interval_us, watermark,
                )
            } else {
                None
            };
            // The upper half of the device range means "no device".
            let pcap_device = (device_bits <= u32::MAX as u64)
                .then(|| std::net::Ipv4Addr::from(device_bits as u32));
            let source = UserSource::Corpus(CorpusScenario {
                name: format!("prop corpus {seed}"),
                scheme,
                carrier_mix,
                master_seed: seed,
                shard_size: shard,
                sim: SimConfig::default(),
                cells,
                spec: CorpusSpec {
                    dir: PathBuf::from(dirs[dir_i]),
                    recursive,
                    formats,
                    pcap_device,
                    dir_pos: Pos::START,
                    origin: None,
                },
            });
            let text = source_set_to_toml(&source, &[]).unwrap();
            let reparsed = source_set_from_str(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}\n---\n{text}")))?;
            prop_assert!(reparsed.axes.is_empty());
            prop_assert_eq!(reparsed.source, source);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inputs drawn around the format's limits — zero counts, empty
        /// mixes and axes, unordered commute hours, zero admission
        /// intervals and windows, a `users` axis on a corpus, non-finite
        /// weights — each about one draw in eight, so most cases hold
        /// none or one of them: the writer either refuses with an emit
        /// error or writes text that reads back equal.
        #[test]
        fn written_text_always_reads_back_equal(
            (corpus, users, days, shard, scheme_i) in
                (prop::bool::ANY, 0u64..8, 0u32..8, 0u64..8, 0usize..8),
            (gap_us, window, carriers, apps, weight_i) in
                (0i64..8, 0u64..8, 0usize..8, 0usize..8, 0usize..16),
            (cells_which, cell_count, rncs, interval_us, window_s) in
                (0usize..4, 0u64..8, 0u64..8, 0i64..8, 0u64..8),
            (home_hour, work_hour, axis_kind, axis_len, dir_i) in
                (5u32..12, 10u32..25, 0usize..6, 0usize..6, 0usize..8),
        ) {
            let scheme = match scheme_i {
                0 => Scheme::PercentileIat(1.0),
                1 => Scheme::MakeIdleActiveFix,
                _ => Scheme::MakeIdle,
            };
            let weight = [f64::NAN, 0.0, -1.0].get(weight_i).copied().unwrap_or(weight_i as f64);
            let carrier_mix = vec![(CarrierProfile::att_hspa(), weight); carriers];
            let sim = SimConfig {
                intra_burst_gap: Duration::from_micros(gap_us),
                window_capacity: window as usize,
                ..SimConfig::default()
            };
            let admission = match cells_which {
                2 => AdmissionSpec::RateLimited { min_interval: Duration::from_micros(interval_us) },
                3 => AdmissionSpec::LoadReactive { watermark_per_s: 5, window_s },
                _ => AdmissionSpec::Always,
            };
            let commute =
                MobilitySpec::Commute { home_hour, work_hour, jitter_pct: 5, hint_s: 60 };
            let cells = (cells_which > 0).then(|| NetworkTopology {
                cells: cell_count,
                rncs: if rncs == 7 { cell_count + 1 } else { rncs.min(cell_count) },
                cell_admission: admission.clone(),
                mobility: if cells_which == 1 { commute } else { MobilitySpec::Static },
                ..NetworkTopology::new(1)
            });
            let axes = match axis_kind {
                0 => vec![],
                1 => vec![SweepAxis::Schemes(vec![scheme; axis_len])],
                2 => vec![SweepAxis::Carriers(vec![CarrierProfile::verizon_lte(); axis_len])],
                3 => vec![SweepAxis::Users(vec![users; axis_len])],
                4 => vec![SweepAxis::Admission(vec![admission; axis_len])],
                _ => vec![SweepAxis::Mobility(vec![commute; axis_len])],
            };
            let source = if corpus {
                let mut spec = CorpusSpec::new(if dir_i == 0 { "" } else { "traces" });
                spec.formats.truncate(apps);
                UserSource::Corpus(CorpusScenario {
                    name: "limits".into(),
                    scheme,
                    carrier_mix,
                    master_seed: 7,
                    shard_size: shard,
                    sim,
                    cells,
                    spec,
                })
            } else {
                UserSource::Synthetic(Scenario {
                    name: "limits".into(),
                    users,
                    days_per_user: days,
                    scheme,
                    carrier_mix,
                    app_mix: vec![(AppKind::Im, weight); apps],
                    master_seed: 7,
                    shard_size: shard,
                    sim,
                    cells,
                })
            };
            let set = SourceSet { source, axes };
            match set.to_toml_string() {
                Err(e) => prop_assert_eq!(e.kind, ScenErrorKind::Emit),
                Ok(text) => {
                    let back = SourceSet::from_toml_str(&text)
                        .map_err(|e| TestCaseError::fail(format!("{e}\n---\n{text}")))?;
                    prop_assert_eq!(back, set);
                }
            }
        }
    }
}
