"""Workloads: sizes, set-up, and one measured cycle with its correctness checks.

Set-up writes the generated inputs, builds their index with ``csqe index``
(the mock fixtures need its first pass) and starts the stub if there is
one. Every cycle then runs the same chain of ``csqe`` invocations, the way a
user would: ``index``, ``search``, ``run`` for bm25, rm3 and csqe (cold
caches, then warm replays from the last one) and ``eval`` with its default
metrics. The sizes and the backend decide where the time goes.
All invocations go through ``csqe.cli.main`` in this process, one at a
time; a ``run`` is a closed loop of ``--jobs`` workers inside the program.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import csqe.cli
from csqe.expansion import parse_csqe_response, verify_extraction
from csqe.index import InvertedIndex
from csqe.llm import GenerationCache

import gen
from stub import StubLlm
from timing import timed

METHODS = ("bm25", "rm3", "csqe")
# Steps are repeated within a cycle for more samples per run:
SEARCHES = 3     # `csqe search` invocations per cycle
REPEATS = 2      # `csqe index`, and runs of each method (a cold csqe run with a fresh cache)
EVAL_PASSES = 6  # passes of the three evaluations per cycle: one pass takes ~0.1 s


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    queries: int
    jobs: int              # `csqe run --jobs` for the csqe runs
    stub_latency_s: float  # 0: mock backend; else remote backend against the stub


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("index-build", docs=1500, queries=24, jobs=1, stub_latency_s=0.0),
    Workload("retrieve", docs=1000, queries=40, jobs=1, stub_latency_s=0.0),
    Workload("csqe-stub", docs=400, queries=40, jobs=min(2, os.cpu_count() or 1),
             stub_latency_s=0.05),
)}


def verbatim_rate(extractions) -> float:
    """Lowest verbatim rate over (response, prompt docs) pairs; 1.0 when none."""
    return min((verify_extraction(parse_csqe_response(r, len(docs)).sentences, docs)
                for r, docs in extractions), default=1.0)


class Setup:
    """Generated input files and their index for one seed, plus the LLM the runs use."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        root.mkdir(parents=True)
        self.inputs = gen.generate(seed, workload.docs, workload.queries)
        self.paths = gen.write_inputs(self.inputs, root)
        self.index = root / "index.bin"
        code, self.index_timing, _ = invoke(["index", "--input", self.paths["corpus.jsonl"],
                                             "--output", self.index])
        self.checks = [("csqe index exits 0", code == 0)]
        self.stub = None
        if workload.stub_latency_s:
            self.stub = StubLlm(self.inputs.words, workload.stub_latency_s)
            self.llm_args = ["--backend", "remote", "--endpoint", self.stub.endpoint]
        else:
            index = InvertedIndex.load(self.index)
            fixtures, extractions = gen.mock_fixtures(self.inputs, index)
            gen.write_fixtures(fixtures, root / "fixtures.json")
            self.llm_args = ["--backend", "mock", "--mock-fixtures", root / "fixtures.json"]
            self.checks.append(("mock extractions are verbatim", verbatim_rate(extractions) == 1.0))

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


def run_cli(argv: list, call=None) -> tuple:
    """``(exit code, stdout)`` of one ``csqe`` invocation.

    ``call(thunk)`` may wrap the bare ``csqe.cli.main`` call (the tracer does).
    """
    out = io.StringIO()

    def main():
        with redirect_stdout(out):
            return csqe.cli.main([str(a) for a in argv])

    code = call(main) if call else main()
    return code, out.getvalue()


def invoke(argv: list, call=None) -> tuple:
    """``(exit code, Timing, stdout)`` of one ``csqe`` invocation."""
    (code, out), timing = timed(lambda: run_cli(argv, call))
    return code, timing, out


@dataclass
class Cycle:
    times: dict = field(default_factory=dict)    # metric -> [Timing]
    ndcg: dict = field(default_factory=dict)     # method -> nDCG@10
    digests: dict = field(default_factory=dict)  # run label -> sha256 of the run file
    checks: list = field(default_factory=list)   # (description, passed)
    stub: dict = field(default_factory=dict)
    wall: float = 0.0


def run_cycle(workload: Workload, setup: Setup, work: Path, call=None) -> Cycle:
    """One pass of the chain; ``call(label, thunk)`` may wrap each ``csqe.cli.main``."""
    work.mkdir(parents=True)
    cycle = Cycle()
    qids = [q for q, _ in setup.inputs.queries]

    def csqe(label, metric, argv):
        code, timing, out = invoke(argv, call and (lambda thunk: call(label, thunk)))
        cycle.checks.append((f"csqe {label} exits 0", code == 0))
        cycle.times.setdefault(metric, []).append(timing)
        return code, out

    def check_run(label, path):
        text = path.read_bytes() if path.exists() else b""
        cycle.digests[label] = hashlib.sha256(text).hexdigest()
        ranked = {line.split()[0] for line in text.decode("utf-8").splitlines() if line}
        cycle.checks.append((f"{label}: every query has a ranking", ranked == set(qids)))
        return text

    if setup.stub is not None:
        setup.stub.reset()
    index = work / "index.bin"
    for _ in range(REPEATS):
        csqe("index", "index_s",
             ["index", "--input", setup.paths["corpus.jsonl"], "--output", index])
        cycle.checks.append(("index file is byte-identical to set-up's",
                             index.exists() and index.read_bytes() == setup.index.read_bytes()))
    for _, text in setup.inputs.queries[:SEARCHES]:
        _, out = csqe("search", "search_s",
                      ["search", "--index", index, "--query", text, "--topk", "10"])
        cycle.checks.append(("search prints hits", bool(out.strip())))

    def llm(cache):
        return setup.llm_args + ["--cache-dir", cache, "--jobs", workload.jobs]

    # each cold run fills a cache of its own; the warm replays read the last one
    cache = work / f"cache{REPEATS - 1}"
    runs = {}
    for label, method, extra in (("bm25", "bm25", lambda i: []), ("rm3", "rm3", lambda i: []),
                                 ("csqe", "csqe", lambda i: llm(work / f"cache{i}")),
                                 ("csqe_warm", "csqe", lambda i: llm(cache))):
        if label == "csqe_warm":
            entries = GenerationCache(cache).stats()["entries"]
            requests = setup.stub.requests if setup.stub else 0
        output = work / f"{label}.txt"
        for i in range(REPEATS):
            csqe(label, f"{label}.run_s",
                 ["run", "--method", method, "--queries", setup.paths["queries.tsv"],
                  "--index", index, "--output", output] + extra(i))
            text = check_run(label, output)
            if label in runs:
                cycle.checks.append((f"repeated {label} run is byte-identical",
                                     text == runs[label]))
            runs.setdefault(label, text)
    cycle.checks.append(("warm replay is byte-identical to the cold run",
                         runs["csqe"] == runs["csqe_warm"]))
    cycle.checks.append(("warm replay adds no cache entries",
                         GenerationCache(cache).stats()["entries"] == entries))
    if setup.stub is not None:
        stub = setup.stub
        cycle.checks.append(("warm replay sends no stub requests", stub.requests == requests))
        cycle.checks.append(("stub extractions are verbatim",
                             bool(stub.extractions) and verbatim_rate(stub.extractions) == 1.0))
        cycle.stub = {"requests": stub.requests, "retries": stub.retries,
                      "inflight_max": stub.inflight_max, "statuses": dict(stub.statuses)}

    wrap = call and (lambda thunk: call("eval", thunk))
    for _ in range(EVAL_PASSES):
        # the three evaluations of a pass are timed together: one alone takes milliseconds
        results, timing = timed(lambda: [run_cli(
            ["eval", "--run", work / f"{method}.txt", "--qrels", setup.paths["qrels.txt"],
             "--json"], wrap) for method in METHODS])
        cycle.times.setdefault("eval_s", []).append(timing)
        for method, (code, out) in zip(METHODS, results):
            cycle.checks.append(("csqe eval exits 0", code == 0))
            value = json.loads(out)["macro"]["ndcg_cut.10"] if code == 0 else None
            cycle.checks.append((f"{method} nDCG@10 is in [0, 1]",
                                 value is not None and 0.0 <= value <= 1.0))
            cycle.ndcg[method] = value or 0.0
    return cycle
