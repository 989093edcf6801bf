#!/usr/bin/env python3
"""Toy-sized smoke test of the benchmark itself; not a timing gate.

Runs every workload shrunk to a few dozen documents, untraced and traced,
and fails unless every metric named in BENCHMARK.json is reported, every
kind of correctness check ran, and none failed. Takes well under a minute:

    python3 perfbench/smoke.py
"""

import dataclasses
import shutil
import sys

import run

EXPECTED_CHECKS = (
    "exits 0",
    "search prints hits",
    "every query has a ranking",
    "run file matches the first cycle byte for byte",
    "traced",
    "warm replay is byte-identical to the cold run",
    "warm replay adds no cache entries",
    "warm replay sends no stub requests",
    "stub extractions are verbatim",
    "mock extractions are verbatim",
    "nDCG@10 is in [0, 1]",
)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    bench = run.load_benchmark()
    end_to_end = {name for name, _ in bench["end_to_end"]}
    per_layer = dict(bench["per_layer"])
    problems = []
    if set(bench["why"]) != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    tally = run.Tally()
    work = run.OUT / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, workload in WORKLOADS.items():
            toy = dataclasses.replace(workload, docs=60, queries=6)
            figures = run.measure(toy, 7, 0.0, work / name, tally)
            missing = end_to_end - set(figures)
            if missing:
                problems.append(f"{name}: end-to-end metrics missing: {sorted(missing)}")
            layers = run.trace(toy, 7, 0.0, work / f"{name}-traced", tally,
                               work / f"{name}.spans.jsonl")
            missing = set(per_layer) - set(layers)
            if missing:
                problems.append(f"{name}: per-layer metrics missing: {sorted(missing)}")
            wrong = sorted(m for m, unit in per_layer.items() if m in layers
                           and layers[m][1] != unit)
            if wrong:
                problems.append(f"{name}: per-layer units differ from BENCHMARK.json: {wrong}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for fragment in EXPECTED_CHECKS:
        if not any(fragment in seen for seen in tally.seen):
            problems.append(f"no check ran matching {fragment!r}")
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} checks failed")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print(f"smoke: {tally.attempted} checks, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
