#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds `perfbench/` (a package of its
own over the repository's crates) with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in a child process, checks
every output against its digests, prints every metric by name and unit,
writes the results to `.bench_out/`, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's end-to-end metrics;
with `--trace 1` they are its per-layer metrics, derived from the traced
run's span file. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

DEFAULT_SEED = 2012
WORKLOADS = ("storm_sweep", "serve_jobs")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
OUT_DIR = ".bench_out"
PINS = os.path.join(HERE, "pinned_digests.json")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build(target_dir):
    """Builds the benchmark binary; returns its path or None. Not
    `--locked`: a change to the workspace's dependencies updates the
    benchmark's lock file in place rather than breaking the build."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"run.py: build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir, "release", "perfbench")


def run_child(cmd):
    """Runs `cmd` to completion; returns (exit code, peak RSS in KiB).

    `os.wait4` reports the rusage of this one child, so the peak is the
    workload process's own, not the compiler's.
    """
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


# --- correctness -----------------------------------------------------------

def check_ops(workload, seed, ops, full_run):
    """Failures among `ops`: errors, digests that differ from the first
    computation of the same key, and, at the default seed, digests that
    differ from the pinned ones and, in a `full_run` (untraced; a traced
    run serves fewer jobs), pinned keys that no op has. Returns the
    problems and the number of pinned keys missing."""
    pins = {}
    if seed == DEFAULT_SEED:
        with open(PINS) as f:
            pins = json.load(f).get(workload, {})
    missing = sorted(set(pins) - {op["key"] for op in ops}) if full_run else []
    problems = [f"pinned {key}: no such operation ran" for key in missing]
    first = {}
    for op in ops:
        key = op["key"]
        if "error" in op:
            problems.append(f"{op['phase']} {key}: {op['error']}")
            continue
        digest = op["digest"]
        if key not in first:
            first[key] = digest
        elif digest != first[key]:
            problems.append(f"{op['phase']} {key}: digest {digest} != first {first[key]}")
            continue
        if key in pins and digest != pins[key]:
            problems.append(f"{op['phase']} {key}: digest {digest} != pinned {pins[key]}")
    return problems, len(missing)


def guards(workload, raw):
    """Reasons the run is degenerate (it did not exercise what it is for)."""
    reasons = []
    if workload == "storm_sweep" and not raw["trace"]:
        for rep in raw["reps"]:
            if rep.get("reactive_denied_min", 0) == 0:
                reasons.append("a reactive admission cell denied no request")
        warm = raw.get("warm_check")
        if warm is None:
            reasons.append("the warm sweep was not checked")
        else:
            if warm["counters"].get("replay_misses", 0) != 0:
                reasons.append("the warm sweep missed the replay memo")
            if {"synthesize", "simulate"} & set(warm["spans"]):
                reasons.append("the warm sweep synthesized or simulated users")
    if workload == "serve_jobs":
        jobs = raw["jobs"]
        if sum(j["counters"]["cache_misses"] for j in jobs) == 0:
            reasons.append("no served job missed the phase-1 cache")
        if sum(j["counters"]["replay_hits"] for j in jobs) == 0:
            reasons.append("no served job hit the replay memo")
    if workload == "storm_sweep" and raw["trace"]:
        warm = raw["phases"]["warm"]
        if warm["counters"].get("replay_misses", 0) != 0 or {"synthesize", "simulate"} & set(warm["spans"]):
            reasons.append("the traced warm sweep did MakeIdle work")
    return reasons


# --- end-to-end metrics ----------------------------------------------------

def end_to_end(workload, raw, peak_rss_kib):
    """Metric values and notes from an untraced run."""
    notes = {}
    if workload == "serve_jobs":
        jobs = raw["jobs"]
        latencies = [j["latency_s"] for j in jobs]
        repeats = [j["latency_s"] for j in jobs if j["repeat"]]
        colds = [j["latency_s"] for j in jobs if j["counters"]["cache_misses"]]
        values = {
            "user_days_per_s": sum(j["user_days"] for j in jobs) / sum(latencies),
            "warm_s": statistics.median(repeats),
        }
        notes["warm/cold"] = statistics.median(repeats) / statistics.median(colds)
        notes["job samples"] = f"{len(latencies)} served jobs ({len(repeats)} repeats)"
    else:
        reps = raw["reps"]
        latencies = [s for rep in reps for s in rep["cell_s"]]
        warm = [s for rep in reps for s in rep["warm_s"]]
        cold = sum(r["cold_s"] for r in reps)
        values = {
            "user_days_per_s": sum(r["user_days"] for r in reps) / cold,
            "warm_s": statistics.median(warm),
        }
        notes["warm/cold"] = statistics.median(warm) / (cold / len(reps))
        notes["job samples"] = (f"{len(latencies)} cold sweep cells over {len(reps)} cold "
                                f"and {len(warm)} warm sweep(s)")
    values["job_p50_s"] = statistics.median(latencies)
    values["job_p90_s"] = stats.percentile(latencies, 0.9)
    values["setup_s"] = statistics.median(raw["setup_s"])
    values["peak_rss_mib"] = peak_rss_kib / 1024.0
    notes["p90 samples beyond"] = stats.samples_beyond(len(latencies), 0.9)
    return values, notes


# --- per-layer metrics -----------------------------------------------------

class Spans:
    """Sums over the traced run's span log."""

    def __init__(self, spans):
        self.spans = spans

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name):
        return sum(s["end_ns"] - s["start_ns"] for s in self.named(name)) / 1e9

    def attr(self, name, key):
        return sum(s["attrs"].get(key, 0.0) for s in self.named(name))

    def ns_per(self, name, key, minus=None):
        total = self.seconds(name) - (self.seconds(minus) if minus else 0.0)
        count = self.attr(name, key)
        return total * 1e9 / count if count else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(raw):
    """Every per-layer metric, derived from the trace file alone."""
    sp = Spans(raw["spans"])
    cold, warm = raw["phases"]["cold"], raw["phases"]["warm"]
    counters = cold["counters"]
    m = {
        "workload.generate_ns_per_packet": sp.ns_per("workload.generate", "packets"),
        "trace.window_push_ns": sp.ns_per("trace.window_push", "pushes"),
        "core.makeidle_decide_ns": sp.ns_per("core.window_push_and_decide", "decisions",
                                             minus="trace.window_push"),
        "core.makeidle_decisions": sp.attr("core.window_push_and_decide", "decisions"),
        "core.extract_ns_per_packet": sp.ns_per("core.extract", "packets"),
        "sim.replay_ns_per_packet": sp.ns_per("sim.replay", "packets"),
        "fleet.merge_ns_per_request": sp.ns_per("fleet.merge", "requests"),
    }
    for scheme in ("statusquo", "makeidle", "oracle", "makeidle-activelearn"):
        m[f"core.run_ns_per_packet.{scheme}"] = sp.ns_per(f"core.run.{scheme}", "packets")
    m["experts.learn_ns_per_packet"] = sp.ns_per("core.run.makeidle-activelearn", "packets",
                                                 minus="core.run.makeidle")

    mib = 1024.0 * 1024.0
    reads = sp.named("trace.spill_read.twc") + sp.named("trace.spill_read.twr")
    writes = sp.named("trace.spill_write.twc") + sp.named("trace.spill_write.twr")
    for label, group in (("read", reads), ("write", writes)):
        seconds = sum(s["end_ns"] - s["start_ns"] for s in group) / 1e9
        m[f"trace.spill_{label}_mib_per_s"] = ratio(sum(s["attrs"]["bytes"] for s in group) / mib,
                                                    seconds)
    m["trace.spill_bytes"] = sum(s["attrs"]["bytes"] for s in reads)

    for phase in ("synthesize", "simulate", "adjudicate", "replay"):
        m[f"fleet.phase.{phase}_s"] = cold["spans"].get(phase, {}).get("s", 0.0)
    hits = counters.get("cache_hits", 0)
    m["fleet.cache_hit_ratio"] = ratio(hits, hits + counters.get("cache_misses", 0)
                                       + counters.get("cache_fallbacks", 0))
    replay_hits = counters.get("replay_hits", 0)
    m["fleet.replay_hit_ratio"] = ratio(replay_hits, replay_hits + counters.get("replay_misses", 0))
    m["fleet.replay_fallbacks"] = counters.get("replay_fallbacks", 0)
    m["fleet.worker_busy_frac"] = ratio(sum(cold["worker_busy_s"]), raw["threads"] * cold["wall_s"])
    m["fleet.cpu_per_wall"] = ratio(sp.attr("fleet.traced", "cpu_s"), sp.seconds("fleet.traced"))
    m["fleet.warm_makeidle_spans"] = sum(warm["spans"].get(p, {}).get("count", 0)
                                         for p in ("synthesize", "simulate"))
    m["fleet.warm_replay_misses"] = warm["counters"].get("replay_misses", 0)

    jobs = sp.named("serve.job")
    overheads = [j["attrs"]["latency_s"] - j["attrs"]["wall_s"] for j in jobs]
    m["serve.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    m["serve.rss_growth_mib"] = ((jobs[-1]["attrs"]["rss_kib"] - jobs[0]["attrs"]["rss_kib"]) / 1024.0
                                 if jobs else 0.0)
    m["obs.tracing_overhead_frac"] = ratio(sp.seconds("fleet.traced"), sp.seconds("fleet.untraced")) - 1.0
    return m


# --- provenance --------------------------------------------------------------

def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    roots = ["Cargo.lock", "crates", "vendor", "perfbench"]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            if path.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(raw, args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": raw["threads"],
    }


# --- main ----------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=OUT_DIR,
                        help="where results and span files go (default %(default)s)")
    parser.add_argument("--pin", action="store_true",
                        help="record the digests of a 1-s run at the default seed as the pinned "
                        "ones; every longer run computes the same keys")
    args = parser.parse_args()
    spec = load_spec()
    if args.pin:
        if args.seed != DEFAULT_SEED or args.trace:
            parser.error("--pin needs the default seed and --trace 0")
        args.seconds = 1
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    binary = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if binary is None:
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(args.out_dir, f"raw-{stem}.json")
    work = os.path.join(args.out_dir, f"work-{stem}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--work", work]
    code, peak_rss_kib = run_child(cmd)
    shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        log(f"run.py: the workload exited with code {code}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    if not raw.get("reps", raw.get("jobs")):
        log("run.py: the workload finished no sweep or job: " + "; ".join(
            op.get("error", "") for op in raw["ops"]))
        return 1

    problems, missing = check_ops(args.workload, args.seed, raw["ops"], not args.trace)
    degenerate = guards(args.workload, raw)
    if args.trace:
        values, notes = per_layer(raw), {}
        declared = spec["per_layer"]
    else:
        values, notes = end_to_end(args.workload, raw, peak_rss_kib)
        declared = spec["end_to_end"]
    attempted = len(raw["ops"]) + missing
    notes["error_rate"] = f"{len(problems) / attempted:g} ({len(problems)} of {attempted} operations failed)"

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    host = provenance(raw, args)
    print(f"workload {args.workload}  seed {args.seed}  threads {raw['threads']}  "
          f"nproc {host['nproc']}  trace {args.trace}")
    for m in declared:
        print(f"  {m['name']:<46} {values[m['name']]:>14.6g} {m['unit']:<12} ({m['better']} is better)")
    for key, note in notes.items():
        print(f"  {key:<46} {note}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for reason in degenerate:
        print(f"  DEGENERATE: {reason}")

    result = {
        "correct": not problems and not degenerate,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    results_path = os.path.join(args.out_dir, f"results-{stem}.json")
    with open(results_path, "w") as f:
        json.dump({"host": host, "notes": {k: str(v) for k, v in notes.items()},
                   "problems": problems, "degenerate": degenerate, **result}, f, indent=1)
    print(f"  results: {results_path}" + (f"  spans: {raw_path}" if args.trace else ""))

    if args.pin:
        errors = [op for op in raw["ops"] if "error" in op]
        if errors or any("!= first" in p for p in problems):
            log("run.py: --pin needs a run without errors or mismatches")
            return 1
        with open(PINS) as f:
            pins = json.load(f)
        pins[args.workload] = {op["key"]: op["digest"] for op in raw["ops"]}
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
