#!/usr/bin/env python3
"""Benchmark for the csqe toolkit: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload retrieve --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.WORKLOADS``; BENCHMARK.json at the root
names them with why each was chosen, and lists the metrics. The program is driven only through ``csqe.cli.main``
and public functions, imported from ``src/`` of the checkout this file sits
in. With ``--trace 0`` the end-to-end figures are measured untraced; with
``--trace 1`` one untraced cycle is followed by traced cycles, and the
per-layer figures, the tracing overhead and the span file are reported.
Each timing is adjusted for the host's speed around it (see timing.py);
raw wall times are printed too.

A human-readable report goes to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 whenever a result was printed, also when a check failed
(``correct`` is then false), and 2 when the sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_CYCLES = 2

def load_benchmark() -> dict:
    """Workload reasons and end-to-end metric names and units from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"why": {w["name"]: w["why"] for w in bench["workloads"]},
            "end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in bench["per_layer"]]}


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tally:
    """Correctness checks counted against attempts; failures are printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seen = set()

    def add(self, checks) -> None:
        for description, passed in checks:
            self.attempted += 1
            self.seen.add(description)
            if not passed:
                self.failed += 1
                print(f"CHECK FAILED: {description}")


def measure(workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """Untraced set-ups and cycles; medians of every end-to-end figure."""
    from timing import REFERENCE_PROBE_S, timed
    from workloads import Setup

    times = {"setup_s": [], "index_s": []}
    setup = None
    for i in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
        setup, timing = timed(lambda: Setup(workload, seed, work / f"setup{i}"))
        times["setup_s"].append(timing)
        times["index_s"].append(setup.index_timing)
        tally.add(setup.checks)
    try:
        cycles = run_cycles(workload, setup, seconds, work, tally)
    finally:
        setup.close()
    for cycle in cycles:
        for metric, values in cycle.times.items():
            times.setdefault(metric, []).extend(values)
    figures = {"peak_rss_mb": peak_rss_mb(), "index_mb": setup.index.stat().st_size / 1e6}
    run_probe = statistics.median(t.probe for values in times.values() for t in values)
    print(f"cycles: {len(cycles)}; host-speed probe median {run_probe:.6f} s "
          f"(reference {REFERENCE_PROBE_S} s)")
    for metric, values in times.items():
        adjusted = [t.adjusted() for t in values]
        figures[metric] = statistics.median(adjusted)
        print(f"{metric}: adjusted {json.dumps(adjusted)}")
        print(f"{metric}: raw wall {json.dumps([t.wall for t in values])} "
              f"(median {statistics.median(t.wall for t in values):.6f})")
    for method, value in cycles[0].ndcg.items():
        figures[f"{method}.ndcg_cut.10"] = value
    for label, digest in cycles[0].digests.items():
        print(f"run-file sha256 {label}: {digest}")
    return figures


def run_cycles(workload, setup, seconds, work, tally, call=None) -> list:
    """Cycles for about ``seconds`` (at least MIN_CYCLES).

    A cycle is started when it would end, at the mean pace so far, less than
    half a cycle past ``seconds``, so the measured time is ``seconds`` on
    average instead of about half a cycle less.
    """
    from workloads import run_cycle

    cycles = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        cycle = run_cycle(workload, setup, work / f"cycle{len(cycles)}", call)
        shutil.rmtree(work / f"cycle{len(cycles)}", ignore_errors=True)
        cycle.wall = time.perf_counter() - begun
        tally.add(cycle.checks)
        if cycles:
            tally.add((f"{label} run file matches the first cycle byte for byte",
                       digest == cycles[0].digests.get(label))
                      for label, digest in cycle.digests.items())
        cycles.append(cycle)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(cycles)
        if len(cycles) >= MIN_CYCLES and elapsed + mean / 2 > seconds:
            return cycles


def trace(workload, seed: int, seconds: float, work: Path, tally: Tally, spans_path: Path) -> dict:
    """One untraced cycle, then traced cycles; per-layer figures per traced cycle."""
    from tracing import Tracer, breakdown, summarize
    from workloads import Setup, run_cycle

    setup = Setup(workload, seed, work / "setup")
    tally.add(setup.checks)
    tracer = Tracer({text: qid for qid, text in setup.inputs.queries})
    try:
        start = time.perf_counter()
        untraced = run_cycle(workload, setup, work / "untraced")
        untraced.wall = time.perf_counter() - start
        tally.add(untraced.checks)
        tracer.install()
        try:
            traced = run_cycles(workload, setup, seconds - untraced.wall, work, tally,
                                call=tracer.cli)
        finally:
            tracer.uninstall()
    finally:
        setup.close()
    tally.add((f"traced {label} run file matches the untraced one",
               digest == untraced.digests.get(label))
              for cycle in traced for label, digest in cycle.digests.items())
    tracer.write(spans_path)
    figures = summarize(tracer.spans, tracer.stems, len(traced))
    n = float(len(traced))
    for key in ("requests", "retries"):
        figures[f"stub.{key}"] = (sum(c.stub.get(key, 0) for c in traced) / n, "count")
    figures["stub.inflight_max"] = (max(c.stub.get("inflight_max", 0) for c in traced), "count")
    traced_wall = statistics.mean(c.wall for c in traced)
    figures["trace.overhead_frac"] = (traced_wall / untraced.wall - 1.0, "ratio")
    figures["trace.spans"] = (len(tracer.spans) / n, "count")
    print(f"traced cycles: {len(traced)}; untraced cycle {untraced.wall:.3f} s, "
          f"traced cycle {traced_wall:.3f} s")
    print(f"spans written to {spans_path}")
    for label in ("csqe", "csqe_warm", "rm3", "index"):
        top = ", ".join(f"{name} {share:.1%}" for name, share in breakdown(tracer.spans, label)[:5])
        print(f"self time of {label} invocations (workers overlap, so shares can sum "
              f"past 100%): {top}")
    statuses = {}
    for c in traced:
        for status, count in c.stub.get("statuses", {}).items():
            statuses[status] = statuses.get(status, 0) + count
    if statuses:
        print(f"stub status codes: {statuses}")
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "csqe" / "__init__.py").is_file():
        print(f"perfbench: no csqe sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = load_benchmark()

    print(f"host: {json.dumps(host_info(), sort_keys=True)}")
    print(f"workload {workload.name}: {bench['why'][workload.name]}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            spans = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
            layers = trace(workload, args.seed, args.seconds, work, tally, spans)
            metrics = {name: (layers[name][0], unit) for name, unit in bench["per_layer"]}
        else:
            figures = measure(workload, args.seed, args.seconds, work, tally)
            metrics = {name: (figures[name], unit) for name, unit in bench["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(f"failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
