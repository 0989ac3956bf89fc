#!/usr/bin/env python3
"""Validates BENCH_<name>.json files against the schema-v1 contract.

Usage: check_bench_json.py BENCH_explain.json [more.json...]

The schema is documented in src/obs/bench_report.h. CI runs this against
every bench report it produces; a missing key, wrong type, or *unknown
top-level key* fails the build, so the schema cannot drift silently in
either direction — additions must land here and in bench_report.h
together.
"""

import json
import sys

REQUIRED = {
    "schema_version": int,
    "bench": str,
    "git_sha": str,
    "timestamp_unix": int,
    "config": dict,
    "wall_seconds": (int, float),
    "metrics": dict,
    "summaries": dict,
}

# Every key schema v1 may emit. REQUIRED keys must appear; OPTIONAL ones
# may; anything else is a schema violation.
OPTIONAL = frozenset()
KNOWN = frozenset(REQUIRED) | OPTIONAL

SUMMARY_KEYS = ("count", "mean", "stddev", "min", "max", "sum",
                "p50", "p90", "p99")


def check(path):
    errors = []
    with open(path) as f:
        doc = json.load(f)
    for key, kind in REQUIRED.items():
        if key not in doc:
            errors.append(f"missing required key '{key}'")
        elif not isinstance(doc[key], kind):
            errors.append(f"key '{key}' has type {type(doc[key]).__name__}, "
                          f"expected {kind}")
    for key in doc:
        if key not in KNOWN:
            errors.append(f"unknown top-level key '{key}' "
                          "(schema v1 allows: " + ", ".join(sorted(KNOWN)) +
                          ")")
    if doc.get("schema_version") != 1:
        errors.append(f"schema_version is {doc.get('schema_version')!r}, "
                      "expected 1")
    if not doc.get("bench"):
        errors.append("'bench' must be a non-empty name")
    for key, value in doc.get("config", {}).items():
        if not isinstance(value, str):
            errors.append(f"config['{key}'] must be a string")
    for name, value in doc.get("metrics", {}).items():
        if isinstance(value, dict):  # histogram
            for k in ("count", "sum", "mean"):
                if k not in value:
                    errors.append(f"histogram metric '{name}' missing '{k}'")
        elif not isinstance(value, (int, float)):
            errors.append(f"metric '{name}' must be a number or histogram")
    for name, summary in doc.get("summaries", {}).items():
        for k in SUMMARY_KEYS:
            if k not in summary:
                errors.append(f"summary '{name}' missing '{k}'")
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in sys.argv[1:]:
        errors = check(path)
        if errors:
            failed = True
            print(f"FAIL {path}")
            for e in errors:
                print(f"  - {e}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
