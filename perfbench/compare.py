#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Run from the repository root. Each directory holds `results-*.json`
files written by `run.py --out-dir DIR`. Runs pair up by workload, trace
mode and seed. For each workload and metric the report gives both sides'
median and quartiles, the pair wins of the change, and, for end-to-end
metrics, a verdict against the metric's bound in BENCHMARK.json (see
`stats.verdict`). Sets from different hosts are never compared.
"""

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

HOST_KEYS = ("cpu_model", "nproc", "threads")


def load_set(directory):
    """{(workload, trace): {seed: result}} and the set's host identities."""
    runs, hosts = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "results-*.json"))):
        with open(path) as f:
            result = json.load(f)
        host = result["host"]
        hosts.add(tuple(host[k] for k in HOST_KEYS))
        runs.setdefault((host["workload"], host["trace"]), {})[host["seed"]] = result
    return runs, hosts


def metric_specs(spec):
    specs = {m["name"]: m for m in spec["per_layer"]}
    specs.update({m["name"]: m for m in spec["end_to_end"]})
    return specs


def values(runs, name, seeds):
    return [runs[seed]["metrics"][name]["value"] for seed in seeds]


def fmt(value):
    return f"{value:.4g}"


def compare_report(parent, change, specs):
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        print(f"{workload} trace={trace}: {len(seeds)} paired runs (by seed)")
        for side, runs in (("parent", parent[key]), ("change", change[key])):
            bad = [s for s in seeds if not runs[s]["correct"]]
            if bad:
                regressed = True
                print(f"  {side} NOT CORRECT at seeds {bad}")
        print(f"  {'metric':<46} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
              f" {'delta':>8} {'wins':>7}  verdict")
        for name in parent[key][seeds[0]]["metrics"]:
            spec = specs.get(name, {})
            higher = spec.get("better") == "higher"
            p = values(parent[key], name, seeds)
            c = values(change[key], name, seeds)
            pq1, pm, pq3 = stats.quartiles(p)
            cq1, cm, cq3 = stats.quartiles(c)
            wins, losses = stats.pair_wins(p, c, higher)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            if "bound" in spec:
                verdict = stats.verdict(p, c, higher, spec["bound"])
                regressed |= verdict == stats.REGRESSED
            else:
                verdict = "-"
            print(f"  {name:<46} {fmt(pm):>10} [{fmt(pq1)}, {fmt(pq3)}]".ljust(81)
                  + f"{fmt(cm):>10} [{fmt(cq1)}, {fmt(cq3)}]".ljust(33)
                  + f"{delta:+8.2%} {wins:>3}/{wins + losses:<3}  {verdict}")
    return not regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        specs = metric_specs(json.load(f))
    parent, parent_hosts = load_set(args.parent_dir)
    change, change_hosts = load_set(args.change_dir)
    hosts = parent_hosts | change_hosts
    if len(hosts) > 1:
        print(f"refusing to compare results from different hosts: {sorted(hosts)}")
        return 2
    return 0 if compare_report(parent, change, specs) else 1


if __name__ == "__main__":
    sys.exit(main())
