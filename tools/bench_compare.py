#!/usr/bin/env python3
"""Compares the deterministic counters of regenerated BENCH_*.json files
with the committed ones.

Each bench writes wall-clock fields, which are free to move, and counters
(evaluations, answers, emissions, byte-identity flags, heap allocations),
which must not. This
script reads every counter of each regenerated file, reads the same counters
from `git show HEAD:<file>`, prints both side by side and exits 1 if any
differs. Wall clock is not judged.

Usage, from the repository root after regenerating every file in COUNTERS
in place (see .github/workflows/ci.yml for the bench command lines):
    python3 tools/bench_compare.py

Python 3 standard library only.
"""

import json
import subprocess
import sys


def core_counters(doc):
    yield "plans_emitted", doc["plans_emitted"]
    for key in ("persistent_total", "rebuild_total"):
        yield f"evaluations.{key}", doc["evaluations"][key]


def runtime_counters(doc):
    for i, point in enumerate(doc["latency_sweep"]):
        yield f"latency_sweep[{i}].answers", point["answers"]
    for i, point in enumerate(doc["failure_recovery"]):
        for key in ("baseline_answers", "recovered_answers", "failed_plans"):
            yield f"failure_recovery[{i}].{key}", point[key]
    # The kernel's heap work is exact; its us_per_plan is wall clock.
    for key in ("plans", "allocations", "bytes"):
        yield f"kernel.{key}", doc["kernel"][key]


def adaptive_counters(doc):
    yield "store_entries_loaded", doc["store_entries_loaded"]
    yield "warm.byte_identical", doc["warm"]["byte_identical"]
    for key in ("emissions", "rebuilds"):
        yield f"drifted.{key}", doc["drifted"][key]


def anyk_counters(doc):
    for i, point in enumerate(doc["sweep"]):
        for key in ("bucket_size", "k", "plans", "answers", "emitted",
                    "relations_indexed"):
            yield f"sweep[{i}].{key}", point[key]


# Only counters that two regenerations on one host agreed on are listed.
COUNTERS = {
    "BENCH_core.json": core_counters,
    "BENCH_runtime.json": runtime_counters,
    "BENCH_adaptive.json": adaptive_counters,
    "BENCH_anyk.json": anyk_counters,
}


def compare(name, extract):
    """Prints `name`'s counters, committed against regenerated; returns
    True when they are equal."""
    with open(name) as f:
        got = list(extract(json.load(f)))
    committed = subprocess.check_output(["git", "show", f"HEAD:{name}"])
    want = list(extract(json.loads(committed)))
    ok = want == got
    for (key, w), (_, g) in zip(want, got):
        mark = "" if w == g else "  <-- differs"
        print(f"{name} {key}: committed {w}, regenerated {g}{mark}")
    if len(want) != len(got):
        print(f"{name}: committed {len(want)} counters, "
              f"regenerated {len(got)}")
    return ok


def main():
    results = [compare(name, extract) for name, extract in COUNTERS.items()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
