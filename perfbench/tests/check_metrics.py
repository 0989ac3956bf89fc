#!/usr/bin/env python3
"""Self-check: the benchmark emits exactly the metrics BENCHMARK.json lists.

Usage, from the repository root:

    python3 perfbench/tests/check_metrics.py [--seconds S] [workload ...]

It checks BENCHMARK.json's shape, that the driver's metric table
(--list-metrics) names exactly its end_to_end and per_layer metrics with
the same units, and then runs every listed workload (all by default)
through perfbench/run.py with --trace 0 and --trace 1: each run must exit
0, end with one JSON line whose metrics are exactly the listed end-to-end
(resp. per-layer) names, each with a finite value and its unit, and
report every answer correct. Exits 1 on the first mismatch.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print("check_metrics: FAIL: " + message)
    sys.exit(1)


def check_shape(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]):
            fail("bad workload %r" % w)
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload %s: why must be one line of <= 200 chars" % w["name"])
    for group, extra in (("end_to_end", {"bound"}), ("per_layer", set())):
        for m in bench[group]:
            if set(m) != {"name", "unit", "better"} | extra:
                fail("bad %s entry %r" % (group, m))
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                fail("bad name or unit %r" % m)
            if m["better"] not in ("lower", "higher") or m["name"] in names:
                fail("bad or repeated metric %r" % m)
            names.add(m["name"])
            if extra and not 0 < m["bound"] <= 0.25:
                fail("bound of %s must be in (0, 0.25]" % m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end must list setup_s in s, lower is better")


def expected(bench, group):
    return {m["name"]: m["unit"] for m in bench[group]}


def check_table(bench):
    driver = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
    out = subprocess.run([driver, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    table = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        group, name, unit = line.split()
        table[group][name] = unit
    for group in table:
        if table[group] != expected(bench, group):
            fail("driver %s table differs from BENCHMARK.json" % group)


def check_run(bench, workload, trace, seconds):
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace",
               str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        fail("%s exited %d:\n%s" % (where, done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s reported failures" % where)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s attempted %r" % (where, result["attempted"]))
    want = expected(bench, "per_layer" if trace else "end_to_end")
    got = result["metrics"]
    if set(got) != set(want):
        fail("%s metric names differ: missing %s, extra %s" % (
            where, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, entry in got.items():
        if entry.get("unit") != want[name]:
            fail("%s: %s has unit %r, want %r" % (
                where, name, entry.get("unit"), want[name]))
        if not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            fail("%s: %s has no finite value" % (where, name))
    print("ok %s: %d metrics, %d attempted" % (where, len(got),
                                               result["attempted"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_shape(bench)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for trace in (0, 1):
        for workload in workloads:
            check_run(bench, workload, trace, args.seconds)
    check_table(bench)  # the runs above built the driver
    print("check_metrics: all metrics match BENCHMARK.json")


if __name__ == "__main__":
    main()
