//! `tailwise` — the command-line face of the toolkit.
//!
//! ```text
//! tailwise gen --app im --hours 2 --seed 7 out.twt     synthesize a workload
//! tailwise info trace.twt                              inspect a trace
//! tailwise convert in.pcap --device 10.0.0.2 out.twt   ingest tcpdump output
//! tailwise sim trace.twt --carrier verizon-lte         compare all schemes
//! tailwise attribute trace.twt --carrier att           per-app energy blame
//! tailwise carriers                                    list carrier presets
//! ```
//!
//! Every subcommand works on the `.twt`/`.csv` trace formats of
//! `tailwise-trace`; `convert` additionally reads classic libpcap.

mod args;

use std::io::{self, Write};
use std::net::Ipv4Addr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use args::{ArgError, Args};
use tailwise_core::schemes::Scheme;
use tailwise_fleet::{AdmissionSpec, MobilitySpec, RunManifest, SourceSet, UserSource};
use tailwise_obs::{Obs, ProgressSampler, ProgressTable, Recorder, StatsRecorder};
use tailwise_radio::profile::CarrierProfile;
use tailwise_radio::signaling::SignalingBudget;
use tailwise_serve::{Client, ClientMsg, ServeConfig, Server, ServerMsg};
use tailwise_sim::engine::SimConfig;
use tailwise_trace::time::Duration;
use tailwise_trace::Trace;
use tailwise_workload::apps::AppKind;
use tailwise_workload::user::UserModel;

const HELP: &str = "\
tailwise — traffic-aware 3G/LTE RRC energy toolkit
  (reproduction of Deng & Balakrishnan, CoNEXT 2012)

USAGE
  tailwise <command> [options] [operands]

COMMANDS
  gen <out>        synthesize a workload trace
                     --app <news|im|microblog|game|email|social|finance>
                     --user <1..6>        (3G user presets, each with its own apps and seed;
                                          not with --app/--hours/--seed)
                     --days <n>           (with --user; default preset days)
                     --hours <h>          (not with --user; default 2)
                     --seed <n>           (not with --user; default 1)
  info <trace>     summary, burst stats and IAT percentiles
  convert <in> <out>
                   convert between trace formats; reads .pcap/.csv/.twt
                     --device <ipv4>      (required for pcap input)
  sim <trace>      run every evaluation scheme over a trace
                     --carrier <tmobile|att|verizon-3g|verizon-lte|sprint-3g|sprint-lte>
                     --window <n>         (MakeIdle history, default 100; at least 1)
  attribute <trace>
                   per-application energy attribution (status quo)
                     --carrier <...>
  fleet            population-scale parallel simulation (tailwise-fleet);
                   each scenario flag is judged as the scenario-file key
                   it sets (docs/SCENARIO_FORMAT.md §2.7)
                     --users <n>          (default 1000)
                     --scheme <statusquo|tail45|iat95|makeidle|oracle|
                               makeidle-activefix|makeidle-activelearn>
                                          (default makeidle)
                     --carrier <...>      (default verizon-lte)
                     --days <n>           (days per user, default 1)
                     --threads <t>        (default: all hardware threads)
                     --seed <n>           (master seed, default 1)
                     --shard <n>          (users per shard, default 64)
                     --cells <n>          (base-station cells; users share
                                          each cell's admission policy and the
                                          report adds per-cell signaling load)
                     --capacity <m>       (RRC msgs/sec a cell absorbs before
                                          a second counts as overloaded;
                                          needs --cells)
                     --admission <p>      (per-cell admission policy: always |
                                          rate-limited:<secs> |
                                          reactive:<watermark>[:<window_s>];
                                          needs --cells)
                     --rncs <n>           (group the cells under n RNCs in
                                          contiguous blocks; the report adds
                                          per-RNC signaling load; needs --cells)
                     --rnc-capacity <m>   (RRC msgs/sec an RNC absorbs before
                                          a second counts as overloaded;
                                          needs --cells; one RNC unless
                                          --rncs says otherwise)
                     --rnc-admission <p>  (RNC-level admission policy, same
                                          tokens as --admission; needs
                                          --cells; one RNC unless --rncs
                                          says otherwise)
                     --mobility <m>       (user movement between cells: static |
                                          commute[:<home_hour>:<work_hour>
                                          [:<jitter_pct>[:<hint_s>]]];
                                          needs --cells)
                     --progress           (live per-shard status line on stderr)
                     --quiet              (suppress preamble chatter; the report
                                          still prints)
                     --metrics <path>     (write a machine-readable run manifest,
                                          re-readable with `fleet manifest`)
                     --cache <dir>        (spill phase-1 request extractions to
                                          <dir> as .twc files and warm-start
                                          later runs from them; cell-topology
                                          runs only — results are always
                                          bit-identical, cached or not)
                     --no-cache           (disable the default in-memory
                                          phase-1 cache)
  fleet run <file.toml>
                   run an on-disk scenario file (docs/SCENARIO_FORMAT.md):
                   a synthetic population, or a [corpus] table replaying a
                   directory of .twt/.twt.csv/.pcap traces; a [cells] table
                   routes fast dormancy through a cell topology; files with
                   [[sweep]] axes expand into a matrix of runs and fold into
                   one side-by-side comparison table
                     --threads <t>        (default: all hardware threads)
                     --progress / --quiet / --metrics <path>
                     --cache <dir> / --no-cache
                                          (as for `fleet` above; sweeps cache
                                          in memory by default, so every cell
                                          after the first replays the shared
                                          phase-1 extraction)
  fleet manifest <run.toml>
                   re-parse a --metrics run manifest (strict) and
                   print its provenance, phase timings, counters and gauges
                     --require-phases     (error unless every phase
                                          timing is positive)
                     --digest             (print only the 16-hex-digit
                                          digest of the deterministic
                                          fields — identical across
                                          machines and thread counts)
  fleet serve      resident fleet service (docs/SERVICE.md): accept
                   scenario jobs over TCP, run them on a worker pool
                   against one shared phase-1 cache, stream results
                     --addr <ip:port>     (default 127.0.0.1:7433;
                                          port 0 picks a free port)
                     --workers <n>        (concurrent jobs, default 2)
                     --threads <t>        (simulation threads per job)
                     --cache <dir>        (spill the shared cache to
                                          .twc files, as `fleet run`)
                     --quiet
  fleet submit <file.toml>
                   submit a scenario file to a running service and
                   stream the job live: rows as sweep cells finish,
                   then the report (the served twin of `fleet run`)
                     --addr <ip:port> / --quiet
                     --metrics <path>     (write the streamed manifest)
                     --detach             (print the job id and exit;
                                          re-attach with `fleet watch`)
  fleet watch <job>
                   re-attach to a job's stream; finished history
                   replays first, live messages follow
                     --addr <ip:port> / --quiet / --metrics <path>
  fleet jobs       list the service's jobs            --addr <ip:port>
  fleet cancel <job>
                   cancel a job: dequeued if still queued, stopped
                   at the end of its current cell    --addr <ip:port>
  fleet shutdown   drain every accepted job, then stop the service
                   (waits for the drain)             --addr <ip:port>
  fleet export <out.toml>
                   write the flag-built fleet scenario to a scenario file
                     (accepts the scenario flags of `fleet`, none of its
                     run flags)
  fleet synth <scenario.toml>
                   materialize a synthetic scenario into an on-disk trace
                   corpus: one trace file per user, named so the corpus
                   walk replays users in synthesis order
                     --out <dir>          (required; must hold no traces)
                     --format <twt|csv>   (default twt)
                     --threads <t>        (default: all hardware threads)
  carriers         print the built-in carrier profiles
  help             this text
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw, &mut Stdout::new(io::stdout())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tailwise: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Standard output as the subcommands write it. It remembers whether
/// the reader went away, so [`run`] can tell a closed pipe from a
/// broken connection to a fleet service, which fails the command.
struct Stdout<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> Stdout<W> {
    fn new(inner: W) -> Stdout<W> {
        Stdout { inner, closed: false }
    }

    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        self.closed |= result.as_ref().is_err_and(|e| e.kind() == io::ErrorKind::BrokenPipe);
        result
    }
}

impl<W: Write> Write for Stdout<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf);
        self.note(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        let flushed = self.inner.flush();
        self.note(flushed)
    }
}

/// Runs one command line against `out`. A reader that closes the pipe
/// early — `tailwise sim x.twt | head -2` — ends the command quietly
/// and successfully: it has everything it asked for.
fn run<W: Write>(raw: Vec<String>, out: &mut Stdout<W>) -> Result<(), Box<dyn std::error::Error>> {
    match dispatch(raw, out).and_then(|()| Ok(out.flush()?)) {
        Err(_) if out.closed => Ok(()),
        result => result,
    }
}

fn dispatch(raw: Vec<String>, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        write!(out, "{HELP}")?;
        return Ok(());
    }
    let args = Args::parse_with_switches(raw, SWITCHES)?;
    match args.command.as_str() {
        "gen" => cmd_gen(&args, out),
        "info" => cmd_info(&args, out),
        "convert" => cmd_convert(&args, out),
        "sim" => cmd_sim(&args, out),
        "attribute" => cmd_attribute(&args, out),
        "fleet" => cmd_fleet(&args, out),
        "carriers" => cmd_carriers(&args, out),
        other => Err(Box::new(ArgError(format!("unknown command {other:?}; try `tailwise help`")))),
    }
}

fn carrier_from(args: &Args) -> Result<CarrierProfile, ArgError> {
    args.opt_or("carrier", "att").parse().map_err(ArgError)
}

fn app_from(name: &str) -> Result<AppKind, ArgError> {
    name.parse().map_err(ArgError)
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn std::error::Error>> {
    Ok(tailwise_trace::io::load(Path::new(path))?)
}

fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["app", "user", "days", "hours", "seed"])?;
    let path = args.positional(0).ok_or_else(|| ArgError("gen needs an output path".into()))?;
    // Each mode rejects the flags only the other one reads, so no flag
    // is ever silently ignored.
    let trace = if let Some(user) = args.opt_parse::<usize>("user")? {
        if let Some(flag) =
            ["app", "hours", "seed"].into_iter().find(|flag| args.opt(flag).is_some())
        {
            return Err(Box::new(ArgError(format!(
                "--{flag} conflicts with --user: a user preset carries its own apps, length \
                 and seed"
            ))));
        }
        let presets = UserModel::verizon_3g_users();
        let model = presets
            .get(user.wrapping_sub(1))
            .ok_or_else(|| ArgError(format!("--user must be 1..={}", presets.len())))?;
        let model = match count_flag::<u32>(args, "days")? {
            Some(d) => model.scaled_to_days(d),
            None => model.clone(),
        };
        writeln!(out, "generating {} ({} days)…", model.name, model.days)?;
        model.generate()
    } else {
        if args.opt("days").is_some() {
            return Err(Box::new(ArgError(
                "--days needs --user: it sets a preset's length; an --app trace is --hours long"
                    .into(),
            )));
        }
        let seed: u64 = args.opt_parse("seed")?.unwrap_or(1);
        let kind = app_from(args.opt_or("app", "im"))?;
        let hours: f64 = args.opt_parse("hours")?.unwrap_or(2.0);
        // `Duration::from_secs_f64` saturates an overlong span (a trace
        // that never ends) and zeroes a NaN one.
        if !(hours > 0.0 && hours * 3600.0 * 1e6 < i64::MAX as f64) {
            return Err(Box::new(ArgError(format!(
                "--hours {:?}: must be positive and finite, and fit a trace's µs clock (at \
                 most {:.0} h)",
                args.opt_or("hours", ""),
                i64::MAX as f64 / 3.6e9
            ))));
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        writeln!(out, "generating {} for {hours} h (seed {seed})…", kind.name())?;
        kind.default_model().generate(Duration::from_secs_f64(hours * 3600.0), &mut rng)
    };
    tailwise_trace::io::save(&trace, Path::new(path))?;
    writeln!(out, "wrote {path}: {}", trace.summary())?;
    Ok(())
}

fn cmd_info(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&[])?;
    let path = args.positional(0).ok_or_else(|| ArgError("info needs a trace path".into()))?;
    let trace = load_trace(path)?;
    writeln!(out, "{path}: {}", trace.summary())?;
    if trace.is_empty() {
        return Ok(());
    }
    let bursts = tailwise_trace::bursts::segment_default(&trace);
    if let Some(s) = tailwise_trace::bursts::stats(&bursts) {
        writeln!(
            out,
            "bursts : {} (mean {:.1} pkts, mean inter-burst gap {:.2} s)",
            s.count,
            s.mean_len,
            s.mean_interburst_gap.as_secs_f64()
        )?;
    }
    let dist = tailwise_trace::stats::EmpiricalDist::from_samples(trace.gaps());
    for q in [0.5, 0.9, 0.95, 0.99] {
        if let Some(v) = dist.quantile(q) {
            writeln!(out, "IAT p{:<4}: {:.4} s", q * 100.0, v.as_secs_f64())?;
        }
    }
    for (app, count) in trace.apps() {
        let name = AppKind::ALL
            .iter()
            .find(|k| k.id() == app)
            .map(|k| k.name().to_string())
            .unwrap_or_else(|| app.to_string());
        writeln!(out, "app    : {name} — {count} packets")?;
    }
    Ok(())
}

fn cmd_convert(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["device"])?;
    let input = args.positional(0).ok_or_else(|| ArgError("convert needs an input path".into()))?;
    let output =
        args.positional(1).ok_or_else(|| ArgError("convert needs an output path".into()))?;
    let is_pcap = Path::new(input)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("pcap") || e.eq_ignore_ascii_case("cap"));
    let trace = if is_pcap {
        let device: Ipv4Addr = args
            .opt("device")
            .ok_or_else(|| ArgError("pcap input needs --device <ipv4>".into()))?
            .parse()
            .map_err(|e| ArgError(format!("--device: {e}")))?;
        tailwise_trace::pcap::load_pcap(Path::new(input), device)?
    } else {
        load_trace(input)?
    };
    tailwise_trace::io::save(&trace, Path::new(output))?;
    writeln!(out, "wrote {output}: {}", trace.summary())?;
    Ok(())
}

fn cmd_sim(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["carrier", "window"])?;
    let path = args.positional(0).ok_or_else(|| ArgError("sim needs a trace path".into()))?;
    let mut config = SimConfig::default();
    if let Some(n) = count_flag(args, "window")? {
        config.window_capacity = n;
    }
    let trace = load_trace(path)?;
    let profile = carrier_from(args)?;
    writeln!(
        out,
        "{} on {} — {} packets over {:.1} h\n",
        path,
        profile.name,
        trace.len(),
        trace.span().as_secs_f64() / 3600.0
    )?;
    let base = Scheme::StatusQuo.run(&profile, &config, &trace);
    writeln!(
        out,
        "{:<28} {:>12} {:>8} {:>10} {:>9}",
        "scheme", "energy (J)", "saved", "switches", "delay(s)"
    )?;
    let mut schemes = vec![Scheme::StatusQuo];
    schemes.extend(Scheme::paper_set());
    for scheme in schemes {
        let r = scheme.run(&profile, &config, &trace);
        writeln!(
            out,
            "{:<28} {:>12.1} {:>7.1}% {:>10} {:>9.2}",
            r.scheme,
            r.total_energy(),
            r.savings_vs(&base),
            r.switch_cycles(),
            r.mean_session_delay(),
        )?;
    }
    Ok(())
}

fn cmd_attribute(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["carrier"])?;
    let path = args.positional(0).ok_or_else(|| ArgError("attribute needs a trace path".into()))?;
    let trace = load_trace(path)?;
    let profile = carrier_from(args)?;
    let attr = tailwise_sim::attribution::attribute(&profile, &SimConfig::default(), &trace);
    writeln!(
        out,
        "{:<12} {:>9} {:>12} {:>7} {:>10} {:>10}",
        "app", "packets", "energy (J)", "share", "data (J)", "tail (J)"
    )?;
    for a in &attr.apps {
        let name = AppKind::ALL
            .iter()
            .find(|k| k.id() == a.app)
            .map(|k| k.name().to_string())
            .unwrap_or_else(|| a.app.to_string());
        writeln!(
            out,
            "{:<12} {:>9} {:>12.1} {:>6.1}% {:>10.1} {:>10.1}",
            name,
            a.packets,
            a.energy.total(),
            attr.share(a.app) * 100.0,
            a.energy.data(),
            a.energy.tail(),
        )?;
    }
    Ok(())
}

fn scheme_from(name: &str) -> Result<Scheme, ArgError> {
    name.parse().map_err(ArgError)
}

/// The value of count flag `--key`, if given. Zero is an error, never
/// clamped to one: the matching scenario-file keys reject it too.
fn count_flag<T>(args: &Args, key: &str) -> Result<Option<T>, ArgError>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    match args.opt_parse::<T>(key)? {
        Some(n) if n == T::default() => Err(ArgError(format!("--{key} must be at least 1"))),
        n => Ok(n),
    }
}

fn threads_from(args: &Args) -> Result<usize, Box<dyn std::error::Error>> {
    match args.opt_parse("threads")? {
        Some(t) if t > 0 => Ok(t),
        Some(_) => Err(Box::new(ArgError("--threads must be positive".into()))),
        None => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
    }
}

/// Boolean `--switch` flags (no value) known anywhere on the command
/// line; subcommands that do not take one still reject it by name via
/// `check_known`.
const SWITCHES: &[&str] = &["progress", "quiet", "require-phases", "no-cache", "detach", "digest"];

/// Observability flags shared by the run subcommands (`fleet`,
/// `fleet run`): `--progress` (live status line), `--quiet` (suppress
/// preamble chatter), `--metrics <path>` (machine-readable manifest).
///
/// Owns the recorder and progress table so borrows into [`Obs`] stay
/// alive for the whole run. When neither flag asks for observation the
/// run gets [`Obs::none`] — the hot path stays recording-free.
struct RunObservability {
    recorder: StatsRecorder,
    table: Arc<ProgressTable>,
    progress: bool,
    quiet: bool,
    metrics: Option<String>,
}

impl RunObservability {
    fn from_args(args: &Args, threads: usize) -> Result<RunObservability, ArgError> {
        let progress = args.flag("progress");
        let quiet = args.flag("quiet");
        if progress && quiet {
            return Err(ArgError(
                "--progress conflicts with --quiet: one asks for a live status line, the \
                 other asks for silence; drop one"
                    .into(),
            ));
        }
        Ok(RunObservability {
            recorder: StatsRecorder::new(),
            table: Arc::new(ProgressTable::new(threads)),
            progress,
            quiet,
            metrics: args.opt("metrics").map(str::to_string),
        })
    }

    /// Whether anything asked for observation this run.
    fn enabled(&self) -> bool {
        self.progress || self.metrics.is_some()
    }

    /// The handle threaded through the fleet runner.
    fn obs(&self) -> Obs<'_> {
        if !self.enabled() {
            return Obs::none();
        }
        Obs { recorder: &self.recorder, progress: self.progress.then_some(&*self.table) }
    }

    /// Starts the stderr sampler thread when `--progress` was given.
    fn start_sampler(&self) -> Option<ProgressSampler> {
        self.progress.then(|| {
            ProgressSampler::start(Arc::clone(&self.table), std::time::Duration::from_millis(200))
        })
    }

    /// Writes the `--metrics` manifest, if one was requested.
    fn write_manifest(
        &self,
        manifest: &RunManifest,
        out: &mut dyn Write,
    ) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(path) = &self.metrics {
            manifest.to_file(path)?;
            if !self.quiet {
                writeln!(out, "wrote run manifest to {path}")?;
            }
        }
        Ok(())
    }
}

/// The phase-1 request cache described by `--cache <dir>` /
/// `--no-cache`: `None` disables caching, the default is a fresh
/// in-memory cache (free single-run reuse within sweeps), and a
/// directory adds `.twc` spills that warm-start later processes.
fn cache_from_args(args: &Args) -> Result<Option<tailwise_fleet::RequestCache>, ArgError> {
    let dir = args.opt("cache");
    if args.flag("no-cache") && dir.is_some() {
        return Err(ArgError(
            "--cache conflicts with --no-cache: one asks for an on-disk cache directory, \
             the other asks for no caching at all; drop one"
                .into(),
        ));
    }
    if args.flag("no-cache") {
        return Ok(None);
    }
    match dir {
        Some(dir) => tailwise_fleet::RequestCache::with_dir(dir)
            .map(Some)
            .map_err(|e| ArgError(format!("--cache {dir}: cannot prepare cache directory: {e}"))),
        None => Ok(Some(tailwise_fleet::RequestCache::in_memory())),
    }
}

/// The observability flags observe a *live* simulation, so the fleet
/// subcommands that never run one reject them by name instead of
/// silently ignoring them (checked before `check_known` so the message
/// explains the why, not just the typo).
fn reject_run_only_flags(args: &Args, subcommand: &str) -> Result<(), ArgError> {
    for flag in ["progress", "quiet", "metrics"] {
        if args.flag(flag) || args.opt(flag).is_some() {
            return Err(ArgError(format!(
                "--{flag} needs a run subcommand (`fleet` or `fleet run`): it observes a \
                 live simulation, and `fleet {subcommand}` never runs one"
            )));
        }
    }
    Ok(())
}

/// The scenario flags of `fleet` and `fleet export`, each with the
/// table and key of the scenario-file line it sets. The file's parser
/// judges every value: [`flag_scenario`] writes the flag-built set and
/// reads it back, and [`blame_flag`] reports a refused line on its flag.
const SCENARIO_FLAGS: [(&str, &str, &str); 13] = [
    ("users", "[scenario]", "users"),
    ("scheme", "[scenario]", "scheme"),
    ("days", "[scenario]", "days_per_user"),
    ("seed", "[scenario]", "master_seed"),
    ("shard", "[scenario]", "shard_size"),
    ("carrier", "[[carrier]]", "profile"),
    ("cells", "[cells]", "count"),
    ("capacity", "[cells]", "capacity_per_s"),
    ("admission", "[cells]", "admission"),
    ("rncs", "[rnc]", "count"),
    ("rnc-capacity", "[rnc]", "capacity_per_s"),
    ("rnc-admission", "[rnc]", "admission"),
    ("mobility", "[mobility]", "model"),
];

/// The flags of the run subcommands, `fleet` and `fleet run`, beside
/// the scenario they run.
const RUN_FLAGS: [&str; 6] = ["threads", "progress", "quiet", "metrics", "cache", "no-cache"];

/// The flags `check_known` admits for a subcommand taking the scenario
/// flags plus `extra`.
fn scenario_flags_and<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    SCENARIO_FLAGS.iter().map(|&(flag, ..)| flag).chain(extra.iter().copied()).collect()
}

/// Builds the scenario the `fleet` / `fleet export` flags describe from
/// the flag types alone, and returns it with its file text: the set is
/// a scenario file that is never written, judged by the file's parser
/// through [`SourceSet::to_toml_string`]'s read-back. A value the parser
/// refuses is reported on the flag that set it ([`blame_flag`]).
fn flag_scenario(args: &Args) -> Result<(SourceSet, String), Box<dyn std::error::Error>> {
    let users: u64 = args.opt_parse("users")?.unwrap_or(1000);
    let scheme = scheme_from(args.opt_or("scheme", "makeidle"))?;
    let carrier = match args.opt("carrier") {
        Some(_) => carrier_from(args)?,
        None => CarrierProfile::verizon_lte(),
    };
    let mut scenario = tailwise_fleet::Scenario::new(users, scheme, carrier);
    scenario.master_seed = args.opt_parse("seed")?.unwrap_or(scenario.master_seed);
    scenario.days_per_user = args.opt_parse("days")?.unwrap_or(scenario.days_per_user);
    scenario.shard_size = args.opt_parse("shard")?.unwrap_or(scenario.shard_size);
    scenario.cells = topology_from_flags(args)?;
    let set = SourceSet { source: UserSource::Synthetic(scenario), axes: Vec::new() };
    let text = set.to_toml_string().map_err(|e| blame_flag(args, e))?;
    Ok((set, text))
}

/// Builds the optional network topology from the `--cells`-family
/// flags. The one rule kept here: a topology flag given *without*
/// `--cells` is an error, since it would configure nothing. Without
/// `--rncs` the cells sit under one RNC, which the RNC-level flags
/// configure — the topology a scenario file's `[cells]` and `[rnc]`
/// tables build.
fn topology_from_flags(
    args: &Args,
) -> Result<Option<tailwise_fleet::NetworkTopology>, Box<dyn std::error::Error>> {
    let Some(cells) = args.opt_parse("cells")? else {
        let topology_flag = SCENARIO_FLAGS.iter().find(|&&(flag, table, _)| {
            matches!(table, "[cells]" | "[rnc]" | "[mobility]") && args.opt(flag).is_some()
        });
        if let Some((flag, ..)) = topology_flag {
            return Err(Box::new(ArgError(format!(
                "--{flag} needs --cells: the flag configures a network topology, and without \
                 one it would be silently ignored"
            ))));
        }
        return Ok(None);
    };
    Ok(Some(tailwise_fleet::NetworkTopology {
        rncs: args.opt_parse("rncs")?.unwrap_or(1),
        cells,
        cell_budget: SignalingBudget { capacity_per_s: args.opt_parse("capacity")? },
        rnc_budget: SignalingBudget { capacity_per_s: args.opt_parse("rnc-capacity")? },
        cell_admission: args.opt_parse("admission")?.unwrap_or(AdmissionSpec::Always),
        rnc_admission: args.opt_parse("rnc-admission")?.unwrap_or(AdmissionSpec::Always),
        mobility: args.opt_parse("mobility")?.unwrap_or(MobilitySpec::Static),
        ..tailwise_fleet::NetworkTopology::new(1)
    }))
}

/// Reports the writer's refusal of a flag-built scenario on the flag
/// that set the refused line, as `--<flag> <value>: <the parser's
/// reason>`; the writer's error names the line and its table.
fn blame_flag(args: &Args, err: impl std::error::Error + 'static) -> Box<dyn std::error::Error> {
    let message = err.to_string();
    let blamed = SCENARIO_FLAGS.iter().find_map(|&(flag, table, key)| {
        let value = args.opt(flag)?;
        let (line, reason) = message.split_once(&format!("` in `{table}`: "))?;
        line.contains(&format!(" at `{key} = ")).then(|| format!("--{flag} {value:?}: {reason}"))
    });
    match blamed {
        Some(message) => Box::new(ArgError(message)),
        None => Box::new(err),
    }
}

fn cmd_fleet(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    match args.positional(0) {
        Some("run") => return cmd_fleet_run(args, out),
        Some("export") => return cmd_fleet_export(args, out),
        Some("synth") => return cmd_fleet_synth(args, out),
        Some("manifest") => return cmd_fleet_manifest(args, out),
        Some("serve") => return cmd_fleet_serve(args, out),
        Some("submit") => return cmd_fleet_submit(args, out),
        Some("watch") => return cmd_fleet_watch(args, out),
        Some("jobs") => return cmd_fleet_jobs(args, out),
        Some("cancel") => return cmd_fleet_cancel(args, out),
        Some("shutdown") => return cmd_fleet_shutdown(args, out),
        Some(other) => {
            return Err(Box::new(ArgError(format!(
                "unknown fleet subcommand {other:?}; expected `run <file.toml>`, \
                 `export <out.toml>`, `synth <scenario.toml>`, `manifest <run.toml>`, \
                 `serve`, `submit <file.toml>`, `watch <job>`, `jobs`, `cancel <job>`, \
                 `shutdown`, or flags only"
            ))))
        }
        None => {}
    }
    args.check_known(&scenario_flags_and(&RUN_FLAGS))?;
    let (set, _) = flag_scenario(args)?;
    run_scenario(args, &set, "flags", out)
}

/// Runs `set`, read from `from` (a scenario file, or the flags), under
/// the run flags: the preamble line, then [`run_set`].
fn run_scenario(
    args: &Args,
    set: &SourceSet,
    from: &str,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let threads = threads_from(args)?;
    let obs = RunObservability::from_args(args, threads)?;
    let cache = cache_from_args(args)?;
    let topology = |cells: &Option<tailwise_fleet::NetworkTopology>| match cells {
        Some(topology) => {
            format!(" across {} RNC(s) / {} cell(s)", topology.rncs, topology.cells)
        }
        None => String::new(),
    };
    if !obs.quiet {
        match &set.source {
            _ if set.is_sweep() => writeln!(
                out,
                "running {} from {from}: {} scenario(s) across {} sweep axis(es), {} threads…",
                set.source.name(),
                set.expansion_count(),
                set.axes.len(),
                threads,
            )?,
            UserSource::Synthetic(base) => writeln!(
                out,
                "running {} from {from}: {} users × {} day(s) of {}{} ({} threads, seed {})…",
                base.name,
                base.users,
                base.days_per_user,
                base.scheme.label(),
                topology(&base.cells),
                threads,
                base.master_seed,
            )?,
            UserSource::Corpus(base) => writeln!(
                out,
                "replaying {} from {from}: corpus {} under {}{} ({} threads)…",
                base.name,
                base.spec.dir.display(),
                base.scheme.label(),
                topology(&base.cells),
                threads,
            )?,
        }
    }
    run_set(set, threads, &obs, cache.as_ref(), out)
}

/// Runs `set` as a sweep — a set without axes is a one-row sweep — and
/// writes its report (the run's own for a bare set, the comparison
/// table for a sweep) and the `--metrics` manifest.
fn run_set(
    set: &SourceSet,
    threads: usize,
    obs: &RunObservability,
    cache: Option<&tailwise_fleet::RequestCache>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let sampler = obs.start_sampler();
    let report = tailwise_fleet::run_source_sweep_cached(set, threads, obs.obs(), cache)?;
    if let Some(sampler) = sampler {
        sampler.finish();
    }
    if set.is_sweep() {
        write!(out, "{}", report.render())?;
    } else {
        write!(out, "{}", report.rows[0].report.render())?;
    }
    if obs.metrics.is_some() {
        let seed = set.source.master_seed();
        let manifest = RunManifest::for_sweep(&report, threads, seed, &obs.recorder.snapshot());
        obs.write_manifest(&manifest, out)?;
    }
    Ok(())
}

/// `tailwise fleet manifest <run.toml>`: strictly re-parse a
/// `--metrics` manifest and summarize it — the self-test for the
/// machine-readable contract. `--require-phases` additionally errors
/// when any phase timing is zero (the CI assertion that observation
/// actually saw work in every phase).
fn cmd_fleet_manifest(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    reject_run_only_flags(args, "manifest")?;
    args.check_known(&["require-phases", "digest"])?;
    if args.flag("digest") && args.flag("require-phases") {
        return Err(Box::new(ArgError(
            "--digest conflicts with --require-phases: --digest promises the digest as \
             the only output; run the checks as a separate invocation"
                .into(),
        )));
    }
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("fleet manifest needs a manifest file path".into()))?;
    if let Some(extra) = args.positional(2) {
        return Err(Box::new(ArgError(format!(
            "fleet manifest takes exactly one manifest file, got extra operand {extra:?}"
        ))));
    }
    let manifest = RunManifest::from_file(path)?;
    if args.flag("digest") {
        // Only the digest, so `$(tailwise fleet manifest --digest a.toml)`
        // compares runs across machines and thread counts.
        writeln!(out, "{:016x}", manifest.digest())?;
        return Ok(());
    }
    writeln!(
        out,
        "{path}: {} — {} run(s) of {} ({}), seed {}, {} thread(s), {:.2} s wall",
        manifest.name,
        manifest.reports.len(),
        manifest.scheme,
        manifest.source,
        manifest.seed,
        manifest.threads,
        manifest.wall_seconds,
    )?;
    for (name, seconds) in manifest.timings.phases() {
        writeln!(out, "  {name:<11} {seconds:>8.2} s")?;
    }
    for (name, value) in manifest.counters.iter().chain(&manifest.gauges) {
        writeln!(out, "  {name:<24} {value}")?;
    }
    if args.flag("require-phases") {
        let zero = manifest.zero_phases();
        if !zero.is_empty() {
            return Err(Box::new(ArgError(format!(
                "manifest {path} has zero phase timing(s): {} — the run recorded no time \
                 in those phases",
                zero.join(", ")
            ))));
        }
        writeln!(out, "all phase timings present and positive")?;
    }
    Ok(())
}

/// Where the resident service listens by default; every service
/// subcommand overrides it with `--addr <ip:port>`.
const DEFAULT_SERVICE_ADDR: &str = "127.0.0.1:7433";

fn service_addr(args: &Args) -> String {
    args.opt_or("addr", DEFAULT_SERVICE_ADDR).to_string()
}

/// Connects to a running service with a diagnosis that names the fix.
fn service_connect(addr: &str) -> Result<Client, ArgError> {
    Client::connect(addr).map_err(|e| {
        ArgError(format!(
            "cannot reach a fleet service at {addr}: {e} (start one with \
             `tailwise fleet serve --addr {addr}`)"
        ))
    })
}

/// `tailwise fleet serve`: run the resident fleet service — accept
/// scenario jobs over TCP, execute them on a bounded worker pool
/// against one process-wide phase-1 cache, and stream results live.
/// Blocks until a client's `shutdown` request drains the job queue.
fn cmd_fleet_serve(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["addr", "workers", "threads", "cache", "quiet"])?;
    if let Some(extra) = args.positional(1) {
        return Err(Box::new(ArgError(format!(
            "fleet serve takes no operands, got {extra:?} (submit scenarios with \
             `tailwise fleet submit <file.toml>`)"
        ))));
    }
    let workers = count_flag(args, "workers")?.unwrap_or(2);
    let quiet = args.flag("quiet");
    let config = ServeConfig {
        addr: service_addr(args),
        workers,
        threads: threads_from(args)?,
        cache_dir: args.opt("cache").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let threads = config.threads;
    let spill = match &config.cache_dir {
        Some(dir) => format!(", cache spills to {}", dir.display()),
        None => ", in-memory cache".into(),
    };
    let server = Server::start(config)?;
    if !quiet {
        writeln!(
            out,
            "fleet service listening on {} ({} worker(s) × {} thread(s){})",
            server.local_addr(),
            workers,
            threads,
            spill,
        )?;
        writeln!(
            out,
            "submit with `tailwise fleet submit <file.toml> --addr {0}`; stop with \
             `tailwise fleet shutdown --addr {0}`",
            server.local_addr(),
        )?;
    }
    server.join();
    if !quiet {
        writeln!(out, "fleet service drained and stopped")?;
    }
    Ok(())
}

/// Follows one job's stream to its terminal message: rows as cells
/// finish, the report to stdout, the manifest to `--metrics` (when
/// asked), errors as errors. Shared by `fleet submit` and
/// `fleet watch`.
fn stream_job(
    client: &mut Client,
    quiet: bool,
    metrics: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    loop {
        let Some(msg) = client.recv()? else {
            return Err(Box::new(ArgError(
                "the service closed the connection before the job finished \
                 (was it shut down?)"
                    .into(),
            )));
        };
        match msg {
            ServerMsg::Accepted { job, name, queue } => {
                if !quiet {
                    writeln!(out, "job {job} accepted: {name} (queue position {queue})")?;
                }
            }
            ServerMsg::Progress { users_done, users_total, user_days, elapsed_s, .. } => {
                if !quiet {
                    eprintln!(
                        "  job progress: {users_done}/{users_total} users, \
                         {user_days} user-days, {elapsed_s:.1} s elapsed"
                    );
                }
            }
            ServerMsg::Row { index, label, users, energy_j, saved_pct, .. } => {
                if !quiet {
                    let label = if label.is_empty() { "run".to_string() } else { label };
                    writeln!(
                        out,
                        "  cell {index} done: {label} — {users} users, \
                         {energy_j:.1} J, {saved_pct:.1}% saved"
                    )?;
                }
            }
            ServerMsg::Report { text, .. } => write!(out, "{text}")?,
            ServerMsg::Manifest { text, .. } => {
                if let Some(path) = metrics {
                    std::fs::write(path, &text)?;
                    if !quiet {
                        writeln!(out, "wrote run manifest to {path}")?;
                    }
                }
            }
            ServerMsg::Done { .. } => return Ok(()),
            ServerMsg::Failed { job, error } => {
                return Err(Box::new(ArgError(format!("job {job} failed: {error}"))))
            }
            ServerMsg::Cancelled { job } => {
                return Err(Box::new(ArgError(format!("job {job} was cancelled"))))
            }
            ServerMsg::Error { message } => return Err(Box::new(ArgError(message))),
            // Listing rows and shutdown notices can interleave with a
            // stream; neither terminates the job.
            ServerMsg::Job { .. } | ServerMsg::End { .. } | ServerMsg::ShuttingDown { .. } => {}
        }
    }
}

/// `tailwise fleet submit <file.toml>`: hand a scenario file to a
/// running service and (unless `--detach`) stream the job to
/// completion — the served twin of `fleet run`.
fn cmd_fleet_submit(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["addr", "detach", "metrics", "quiet"])?;
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("fleet submit needs a scenario file path".into()))?;
    if let Some(extra) = args.positional(2) {
        return Err(Box::new(ArgError(format!(
            "fleet submit takes exactly one scenario file, got extra operand {extra:?}"
        ))));
    }
    if args.flag("detach") && args.opt("metrics").is_some() {
        return Err(Box::new(ArgError(
            "--detach conflicts with --metrics: the manifest arrives at the end of the \
             stream, and --detach hangs up before it; re-attach with `fleet watch`"
                .into(),
        )));
    }
    let scenario = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read scenario file {path}: {e}")))?;
    let addr = service_addr(args);
    let mut client = service_connect(&addr)?;
    client.send(&ClientMsg::Submit { scenario })?;
    if args.flag("detach") {
        // One reply decides: accepted (print the id for `fleet watch`)
        // or rejected.
        return match client.recv()? {
            Some(ServerMsg::Accepted { job, name, queue }) => {
                writeln!(out, "job {job} accepted: {name} (queue position {queue})")?;
                if !args.flag("quiet") {
                    writeln!(out, "follow it with `tailwise fleet watch {job} --addr {addr}`")?;
                }
                Ok(())
            }
            Some(ServerMsg::Error { message }) => Err(Box::new(ArgError(message))),
            other => {
                Err(Box::new(ArgError(format!("unexpected reply to a submission: {other:?}"))))
            }
        };
    }
    stream_job(&mut client, args.flag("quiet"), args.opt("metrics"), out)
}

/// `tailwise fleet watch <job>`: re-attach to a job's stream — the
/// replayable history (acceptance, finished rows, final payloads)
/// first, then everything live.
fn cmd_fleet_watch(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["addr", "metrics", "quiet"])?;
    let job: u64 = args
        .positional(1)
        .ok_or_else(|| ArgError("fleet watch needs a job id (see `fleet jobs`)".into()))?
        .parse()
        .map_err(|_| ArgError("fleet watch needs a numeric job id".into()))?;
    let mut client = service_connect(&service_addr(args))?;
    client.send(&ClientMsg::Watch { job })?;
    stream_job(&mut client, args.flag("quiet"), args.opt("metrics"), out)
}

/// `tailwise fleet jobs`: list every job the service knows about.
fn cmd_fleet_jobs(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["addr"])?;
    let mut client = service_connect(&service_addr(args))?;
    client.send(&ClientMsg::Jobs)?;
    loop {
        match client.recv()? {
            Some(ServerMsg::Job { job, state, name }) => {
                writeln!(out, "job {job:>4}  {state:<10} {name}")?;
            }
            Some(ServerMsg::End { count }) => {
                writeln!(out, "{count} job(s)")?;
                return Ok(());
            }
            Some(ServerMsg::Error { message }) => return Err(Box::new(ArgError(message))),
            other => {
                return Err(Box::new(ArgError(format!(
                    "unexpected reply to a jobs listing: {other:?}"
                ))))
            }
        }
    }
}

/// `tailwise fleet cancel <job>`: cancel a job — dequeued on the spot
/// if it has not started, stopped at the end of its current cell if it
/// has.
fn cmd_fleet_cancel(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["addr"])?;
    let job: u64 = args
        .positional(1)
        .ok_or_else(|| ArgError("fleet cancel needs a job id (see `fleet jobs`)".into()))?
        .parse()
        .map_err(|_| ArgError("fleet cancel needs a numeric job id".into()))?;
    let mut client = service_connect(&service_addr(args))?;
    client.send(&ClientMsg::Cancel { job })?;
    match client.recv()? {
        Some(ServerMsg::Job { job, state, name }) => {
            if state == "running" {
                writeln!(
                    out,
                    "job {job} ({name}) is running; it stops at the end of its current cell"
                )?;
            } else {
                writeln!(out, "job {job} ({name}) is now {state}")?;
            }
            Ok(())
        }
        Some(ServerMsg::Error { message }) => Err(Box::new(ArgError(message))),
        other => Err(Box::new(ArgError(format!("unexpected reply to a cancel: {other:?}")))),
    }
}

/// `tailwise fleet shutdown`: ask the service to drain every accepted
/// job and stop, then wait for the drain to finish (connection EOF).
fn cmd_fleet_shutdown(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["addr", "quiet"])?;
    let mut client = service_connect(&service_addr(args))?;
    client.send(&ClientMsg::Shutdown)?;
    match client.recv()? {
        Some(ServerMsg::ShuttingDown { unfinished }) => {
            if !args.flag("quiet") {
                writeln!(
                    out,
                    "fleet service shutting down: {unfinished} unfinished job(s) draining…"
                )?;
            }
        }
        Some(ServerMsg::Error { message }) => return Err(Box::new(ArgError(message))),
        other => {
            return Err(Box::new(ArgError(format!("unexpected reply to a shutdown: {other:?}"))))
        }
    }
    client.recv_until_eof()?;
    if !args.flag("quiet") {
        writeln!(out, "fleet service stopped")?;
    }
    Ok(())
}

/// `tailwise fleet run <file.toml>`: execute an on-disk scenario file —
/// a single fleet run (synthetic or corpus replay), or a sweep matrix
/// folded into one comparison table.
fn cmd_fleet_run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&RUN_FLAGS)?;
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("fleet run needs a scenario file path".into()))?;
    if let Some(extra) = args.positional(2) {
        return Err(Box::new(ArgError(format!(
            "fleet run takes exactly one scenario file, got extra operand {extra:?} \
             (run files one at a time, or express the matrix as [[sweep]] axes in one file)"
        ))));
    }
    run_scenario(args, &SourceSet::from_file(path)?, path, out)
}

/// `tailwise fleet synth <scenario.toml> --out <dir>`: materialize a
/// synthetic scenario into an on-disk trace corpus — one file per user,
/// zero-padded so the deterministic corpus walk replays users in
/// synthesis order. The instant self-test fixture for `[corpus]` runs.
fn cmd_fleet_synth(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    reject_run_only_flags(args, "synth")?;
    args.check_known(&["out", "format", "threads"])?;
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("fleet synth needs a scenario file path".into()))?;
    let dir = args
        .opt("out")
        .ok_or_else(|| ArgError("fleet synth needs --out <dir> for the corpus".into()))?;
    let format: tailwise_trace::TraceFormat =
        args.opt_or("format", "twt").parse().map_err(ArgError)?;
    let threads = threads_from(args)?;
    let scenario = tailwise_fleet::Scenario::from_file(path)?;
    writeln!(
        out,
        "synthesizing {} users × {} day(s) into {dir} ({} format, {threads} threads)…",
        scenario.users, scenario.days_per_user, format,
    )?;
    let written = tailwise_fleet::synth_corpus(&scenario, Path::new(dir), format, threads)?;
    writeln!(
        out,
        "wrote {written} trace files to {dir} — replay them with a [corpus] scenario \
         (see docs/SCENARIO_FORMAT.md §5)"
    )?;
    Ok(())
}

/// `tailwise fleet export <out.toml>`: write the flag-built scenario to
/// a scenario file (the starting point for hand-edited experiments).
fn cmd_fleet_export(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    reject_run_only_flags(args, "export")?;
    args.check_known(&scenario_flags_and(&[]))?;
    let path =
        args.positional(1).ok_or_else(|| ArgError("fleet export needs an output path".into()))?;
    if let Some(extra) = args.positional(2) {
        return Err(Box::new(ArgError(format!(
            "fleet export takes exactly one output path, got extra operand {extra:?}"
        ))));
    }
    let (set, text) = flag_scenario(args)?;
    std::fs::write(path, text)
        .map_err(|e| ArgError(format!("cannot write scenario file {path}: {e}")))?;
    let UserSource::Synthetic(scenario) = &set.source else {
        unreachable!("the flags build a synthetic population")
    };
    writeln!(
        out,
        "wrote {path}: {} users × {} day(s) of {} (run with `tailwise fleet run {path}`)",
        scenario.users,
        scenario.days_per_user,
        scenario.scheme.label(),
    )?;
    Ok(())
}

fn cmd_carriers(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&[])?;
    writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>6} {:>6} {:>8} {:>10} {:>11}",
        "carrier", "Pt1(mW)", "Pt2(mW)", "t1(s)", "t2(s)", "promo(s)", "Esw(J)", "thresh(s)"
    )?;
    for p in CarrierProfile::all_presets() {
        writeln!(
            out,
            "{:<14} {:>8.0} {:>8.0} {:>6.1} {:>6.1} {:>8.1} {:>10.2} {:>11.2}",
            p.name,
            p.p_dch * 1000.0,
            p.p_fach * 1000.0,
            p.t1.as_secs_f64(),
            p.t2.as_secs_f64(),
            p.promotion_delay.as_secs_f64(),
            p.e_switch(),
            p.t_threshold().as_secs_f64(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Flag-validation coverage for the fleet scenario builder: every
    //! topology flag given without its prerequisite is a loud error,
    //! never a silently ignored knob.

    use super::*;
    use tailwise_fleet::AdmissionSpec;

    fn fleet_args(extra: &[&str]) -> Args {
        let mut words = vec!["fleet".to_string()];
        words.extend(extra.iter().map(|s| s.to_string()));
        Args::parse_with_switches(words, &[]).expect("test flags parse")
    }

    fn build_err(extra: &[&str]) -> String {
        flag_scenario(&fleet_args(extra)).unwrap_err().to_string()
    }

    /// The synthetic scenario the flags build.
    fn build(extra: &[&str]) -> tailwise_fleet::Scenario {
        match flag_scenario(&fleet_args(extra)).expect("flags build").0.source {
            UserSource::Synthetic(scenario) => scenario,
            UserSource::Corpus(_) => unreachable!("the flags build a synthetic population"),
        }
    }

    #[test]
    fn topology_flags_without_cells_are_errors_not_noops() {
        for flag in ["--capacity", "--admission", "--rncs", "--rnc-capacity", "--rnc-admission"] {
            let value = if flag.contains("admission") { "always" } else { "5" };
            let err = build_err(&[flag, value]);
            assert!(err.contains("needs --cells"), "{flag}: {err}");
        }
        let err = build_err(&["--mobility", "commute"]);
        assert!(err.contains("needs --cells"), "{err}");
        // The guard names the offending flag.
        assert!(build_err(&["--admission", "always"]).contains("--admission"));
    }

    #[test]
    fn mobility_flag_parses_tokens_and_rejects_bad_ones() {
        let scenario = build(&["--cells", "4", "--mobility", "commute:6:19"]);
        assert_eq!(
            scenario.cells.expect("topology built").mobility,
            tailwise_fleet::MobilitySpec::Commute {
                home_hour: 6,
                work_hour: 19,
                jitter_pct: 5,
                hint_s: 60,
            }
        );
        let err = build_err(&["--cells", "4", "--mobility", "commute:19:6"]);
        assert!(err.contains("leave home before leaving work"), "{err}");
        let err = build_err(&["--cells", "4", "--mobility", "teleport"]);
        assert!(err.contains("unknown mobility model"), "{err}");
    }

    #[test]
    fn rnc_level_flags_build_what_the_file_builds() {
        // Without --rncs the RNC-level flags configure the one RNC the
        // cells sit under, exactly as a file's [rnc] table without a
        // count does.
        let file = |rnc: &str| {
            let text = format!(
                "[scenario]\nname = \"x\"\nusers = 8\n\n[cells]\ncount = 4\n\n[rnc]\n{rnc}\n\n\
                 [[carrier]]\nprofile = \"verizon-lte\"\n\n[[app]]\nkind = \"im\"\nweight = 1.0\n"
            );
            let set =
                tailwise_fleet::SourceSet::from_toml_str(&text).expect("scenario text parses");
            let tailwise_fleet::UserSource::Synthetic(scenario) = set.source else {
                panic!("a synthetic scenario")
            };
            scenario.cells.expect("the file builds a topology")
        };
        for (flags, rnc) in [
            (&["--rnc-capacity", "400"][..], "capacity_per_s = 400"),
            (&["--rnc-admission", "reactive:9"], "admission = \"reactive\"\nwatermark_per_s = 9"),
            (
                &["--rnc-capacity", "400", "--rnc-admission", "rate-limited:2"],
                "capacity_per_s = 400\nadmission = \"rate-limited\"\nmin_interval_s = 2",
            ),
        ] {
            let mut args = vec!["--users", "8", "--cells", "4"];
            args.extend(flags);
            let scenario = build(&args);
            let topology = scenario.cells.expect("the flags build a topology");
            assert_eq!(topology.rncs, 1, "{flags:?}");
            assert_eq!(topology, file(rnc), "{flags:?}");
        }
    }

    #[test]
    fn counts_are_validated() {
        // The scenario parser judges the flag-built file; its refusal
        // names the flag, the value, and the parser's rule, and neither
        // `fleet` nor `fleet export` writes anything.
        let dir = std::env::temp_dir().join(format!("tailwise-cli-counts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (file, manifest) = (dir.join("c.toml"), dir.join("m.toml"));
        let (path, metrics) = (file.to_str().unwrap(), manifest.to_str().unwrap());
        for (flags, blamed, rule) in [
            (&["--cells", "0"][..], "--cells \"0\": ", "`count` must be at least 1"),
            (&["--cells", "4", "--rncs", "0"], "--rncs \"0\": ", "`count` must be at least 1"),
            (&["--cells", "4", "--rncs", "5"], "--rncs \"5\": ", "cannot spread 4 cell(s) over 5"),
            (
                &["--cells", "4", "--scheme", "makeidle-activelearn"],
                "--scheme \"makeidle-activelearn\": ",
                "cannot run on a [cells] topology",
            ),
        ] {
            let err = build_err(flags);
            assert!(err.starts_with(blamed), "{flags:?}: {err}");
            assert!(err.contains(rule), "{flags:?}: {err}");
            let mut export = vec!["export", path, "--users", "2"];
            export.extend(flags);
            let exported = cmd_fleet_export(&obs_args(&export), &mut io::sink()).unwrap_err();
            assert_eq!(exported.to_string(), err);
            let mut run = vec!["--users", "2", "--threads", "1", "--metrics", metrics];
            run.extend(flags);
            let ran = cmd_fleet(&obs_args(&run), &mut io::sink()).unwrap_err();
            assert_eq!(ran.to_string(), err);
            assert!(!file.exists() && !manifest.exists(), "{flags:?} must write nothing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let err = build_err(&["--cells", "4", "--admission", "reactive"]);
        assert!(err.contains("watermark"), "{err}");
        // An interval that rounds to zero microseconds is no interval.
        for flag in ["--admission", "--rnc-admission"] {
            let err = build_err(&["--cells", "4", "--rncs", "2", flag, "rate-limited:0.0000001"]);
            assert!(err.contains(&format!("{flag} \"rate-limited:0.0000001\"")), "{err}");
            assert!(err.contains("must be positive in whole microseconds"), "{err}");
        }
    }

    #[test]
    fn zero_days_and_shard_sizes_are_errors_not_clamped() {
        // Scenario files reject both keys at zero; the flags that set
        // them do too, in every subcommand that takes them.
        let dir = std::env::temp_dir().join(format!("tailwise-cli-zero-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("e.toml");
        let path = file.to_str().unwrap();
        for (flag, key) in [("--days", "days_per_user"), ("--shard", "shard_size")] {
            // The parser's rule for the file key, blamed on the flag.
            let blamed = format!("{flag} \"0\": `{key}` must be at least 1");
            let mut export = vec!["export", path, "--users", "3"];
            export.extend([flag, "0"]);
            let err = cmd_fleet_export(&obs_args(&export), &mut io::sink()).unwrap_err();
            assert_eq!(err.to_string(), blamed);
            assert!(!file.exists(), "{flag} 0 must not write a scenario");
            let mut run = vec!["--users", "1", "--threads", "1"];
            run.extend([flag, "0"]);
            let err = cmd_fleet(&obs_args(&run), &mut io::sink()).unwrap_err();
            assert_eq!(err.to_string(), blamed);
        }
        // `sim --window 0` is an error too, before the trace is read.
        let sim = Args::parse_with_switches(
            ["sim", path, "--window", "0"].map(String::from).to_vec(),
            &[],
        )
        .unwrap();
        let err = cmd_sim(&sim, &mut io::sink()).unwrap_err();
        assert_eq!(err.to_string(), "--window must be at least 1");
        let gen = Args::parse_with_switches(
            ["gen", path, "--user", "1", "--days", "0"].map(String::from).to_vec(),
            &[],
        )
        .unwrap();
        let err = cmd_gen(&gen, &mut io::sink()).unwrap_err();
        assert!(err.to_string().contains("--days must be at least 1"), "{err}");
        assert!(!file.exists(), "--days 0 must not write a trace");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gen_rejects_the_flags_its_mode_ignores() {
        let dir = std::env::temp_dir().join(format!("tailwise-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.twt");
        let path = file.to_str().unwrap();
        let gen = |extra: &[&str]| {
            let mut words = vec!["gen".to_string(), path.to_string()];
            words.extend(extra.iter().map(|s| s.to_string()));
            cmd_gen(&Args::parse_with_switches(words, &[]).unwrap(), &mut io::sink())
        };
        for (extra, message) in [
            (&["--app", "im", "--hours", "1", "--days", "3"][..], "--days needs --user"),
            (&["--days", "3"], "--days needs --user"),
            (&["--user", "1", "--app", "im"], "--app conflicts with --user"),
            (&["--user", "1", "--hours", "1"], "--hours conflicts with --user"),
            (&["--user", "1", "--days", "2", "--seed", "7"], "--seed conflicts with --user"),
            // A span that is no number, no finite number, or no µs count
            // an i64 holds is refused before anything is generated.
            (&["--hours", "nan"], "--hours \"nan\": must be positive and finite"),
            (&["--hours", "inf"], "--hours \"inf\": must be positive and finite"),
            (&["--hours", "1e300"], "--hours \"1e300\": must be positive and finite"),
            (&["--hours", "2562047789"], "at most 2562047788 h"),
            (&["--hours", "0"], "--hours \"0\": must be positive and finite"),
        ] {
            let err = gen(extra).unwrap_err();
            assert!(err.to_string().contains(message), "{extra:?}: {err}");
            assert!(!file.exists(), "{extra:?} must not write a trace");
        }
        // The README's invocation still writes its trace.
        gen(&["--app", "im", "--hours", "2", "--seed", "7"]).unwrap();
        assert!(file.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_hierarchy_flags_build_the_topology() {
        let scenario = build(&[
            "--users",
            "50",
            "--cells",
            "12",
            "--capacity",
            "120",
            "--admission",
            "rate-limited:2.5",
            "--rncs",
            "3",
            "--rnc-capacity",
            "400",
            "--rnc-admission",
            "reactive:50:5",
        ]);
        let topology = scenario.cells.expect("topology built");
        assert_eq!((topology.rncs, topology.cells), (3, 12));
        assert_eq!(topology.cell_budget.capacity_per_s, Some(120));
        assert_eq!(topology.rnc_budget.capacity_per_s, Some(400));
        assert_eq!(
            topology.cell_admission,
            AdmissionSpec::RateLimited {
                min_interval: tailwise_trace::time::Duration::from_secs_f64(2.5)
            }
        );
        assert_eq!(
            topology.rnc_admission,
            AdmissionSpec::LoadReactive { watermark_per_s: 50, window_s: 5 }
        );

        // The flat default: --cells alone is one always-admitting RNC.
        let scenario = build(&["--cells", "4"]);
        let topology = scenario.cells.expect("topology built");
        assert_eq!(topology.rncs, 1);
        assert_eq!(topology.cell_admission, AdmissionSpec::Always);
        assert_eq!(topology.rnc_admission, AdmissionSpec::Always);

        // No topology flags at all: no topology.
        let scenario = build(&["--users", "10"]);
        assert!(scenario.cells.is_none());
    }

    fn obs_args(extra: &[&str]) -> Args {
        let mut words = vec!["fleet".to_string()];
        words.extend(extra.iter().map(|s| s.to_string()));
        Args::parse_with_switches(words, SWITCHES).expect("test flags parse")
    }

    #[test]
    fn service_subcommand_flags_are_validated() {
        // serve: no operands, positive workers.
        let err = cmd_fleet_serve(&obs_args(&["serve", "stray.toml"]), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("takes no operands"), "{err}");
        let err = cmd_fleet_serve(&obs_args(&["serve", "--workers", "0"]), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--workers must be at least 1"), "{err}");

        // submit: needs a file; --detach hangs up before the manifest.
        let err =
            cmd_fleet_submit(&obs_args(&["submit"]), &mut io::sink()).unwrap_err().to_string();
        assert!(err.contains("needs a scenario file"), "{err}");
        let err = cmd_fleet_submit(
            &obs_args(&["submit", "a.toml", "--detach", "--metrics", "m.toml"]),
            &mut io::sink(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("--detach conflicts with --metrics"), "{err}");

        // watch / cancel: numeric job ids only.
        for sub in ["watch", "cancel"] {
            let run = |extra: &[&str]| -> String {
                let args = obs_args(extra);
                let result = match sub {
                    "watch" => cmd_fleet_watch(&args, &mut io::sink()),
                    _ => cmd_fleet_cancel(&args, &mut io::sink()),
                };
                result.unwrap_err().to_string()
            };
            assert!(run(&[sub]).contains("needs a job id"), "{sub}");
            assert!(run(&[sub, "seven"]).contains("numeric job id"), "{sub}");
        }
    }

    #[test]
    fn digest_conflicts_with_require_phases() {
        let err = cmd_fleet_manifest(
            &obs_args(&["manifest", "/nonexistent/run.toml", "--digest", "--require-phases"]),
            &mut io::sink(),
        )
        .unwrap_err()
        .to_string();
        // Flags are validated before I/O: the conflict is diagnosed
        // even though the file is also missing.
        assert!(err.contains("--digest conflicts with --require-phases"), "{err}");
    }

    #[test]
    fn progress_with_quiet_is_a_named_error() {
        let err = RunObservability::from_args(&obs_args(&["--progress", "--quiet"]), 2)
            .map(|_| ())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--progress conflicts with --quiet"), "{err}");
        // Either alone is fine.
        assert!(RunObservability::from_args(&obs_args(&["--progress"]), 2).is_ok());
        assert!(RunObservability::from_args(&obs_args(&["--quiet"]), 2).is_ok());
    }

    #[test]
    fn cache_flags_conflict_and_default_on() {
        let err = cache_from_args(&obs_args(&["--cache", "/tmp/x", "--no-cache"]))
            .map(|_| ())
            .unwrap_err()
            .to_string();
        assert!(err.contains("--cache conflicts with --no-cache"), "{err}");
        // --no-cache alone disables; no flags defaults to in-memory.
        assert!(cache_from_args(&obs_args(&["--no-cache"])).unwrap().is_none());
        let default = cache_from_args(&obs_args(&[])).unwrap().expect("default cache");
        assert!(default.dir().is_none(), "default cache must be memory-only");
    }

    #[test]
    fn observability_flags_need_a_run_subcommand() {
        for (extra, sub) in [
            (&["export", "out.toml", "--metrics", "m.toml"][..], "export"),
            (&["synth", "s.toml", "--progress"][..], "synth"),
            (&["manifest", "m.toml", "--quiet"][..], "manifest"),
        ] {
            let err = reject_run_only_flags(&obs_args(extra), sub).unwrap_err().to_string();
            assert!(err.contains("needs a run subcommand"), "{sub}: {err}");
            assert!(err.contains(&format!("fleet {sub}")), "{sub}: {err}");
        }
        // Without any observability flag the guard passes through.
        assert!(reject_run_only_flags(&obs_args(&["export", "out.toml"]), "export").is_ok());
    }

    #[test]
    fn observability_is_off_unless_asked_for() {
        let off = RunObservability::from_args(&obs_args(&[]), 4).unwrap();
        assert!(!off.enabled());
        assert!(!off.obs().recorder.enabled());
        assert!(off.obs().progress.is_none());
        assert!(off.start_sampler().is_none());

        // --metrics alone records but renders no progress line.
        let metrics = RunObservability::from_args(&obs_args(&["--metrics", "m.toml"]), 4).unwrap();
        assert!(metrics.enabled());
        assert!(metrics.obs().recorder.enabled());
        assert!(metrics.obs().progress.is_none());
        assert!(metrics.start_sampler().is_none());

        // --progress attaches the live table.
        let progress = RunObservability::from_args(&obs_args(&["--progress"]), 4).unwrap();
        assert!(progress.obs().progress.is_some());
    }

    /// A writer whose every write fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_the_command_quietly() {
        // Regression: writes to a closed pipe panicked ("failed
        // printing to stdout: Broken pipe", exit 101). They now fail
        // the subcommand with the write error…
        let carriers = || vec!["carriers".to_string()];
        let err = dispatch(carriers(), &mut Failing(io::ErrorKind::BrokenPipe)).unwrap_err();
        let kind = err.downcast_ref::<io::Error>().map(io::Error::kind);
        assert_eq!(kind, Some(io::ErrorKind::BrokenPipe), "{err}");
        // …which `run` turns into a quiet success when stdout closed…
        let mut closed = Stdout::new(Failing(io::ErrorKind::BrokenPipe));
        assert!(run(carriers(), &mut closed).is_ok());
        assert!(closed.closed);
        // …while any other write failure still fails the command.
        let mut full = Stdout::new(Failing(io::ErrorKind::Other));
        assert!(run(carriers(), &mut full).is_err());
        assert!(!full.closed);
    }
}
