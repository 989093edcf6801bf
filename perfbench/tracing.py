"""Span tracer that wraps the program's public layer functions from outside.

Spans (name, start, end, parent, query id, attributes) are kept in memory
and summarized when the traced cycles end. Parents come from a per-thread
span stack; a span opened in a ``--jobs`` worker thread, whose stack is
empty, takes the open top-level ``cli`` span as its parent. A span's self
time is its duration minus the union of its children's intervals, so the
first-pass search nested inside ``rm3`` and ``csqe`` is charged to
``index.search`` and not to its caller.

Bookkeeping the tracer does inside a span (tokenizing a query to count its
terms, checking verbatimness) is itself recorded as a ``trace.bookkeeping``
child, so no layer's self time includes it.
"""

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import csqe.cli
import csqe.corpus
import csqe.expansion
import csqe.index
import csqe.llm
import csqe.evaluation
import csqe.prf

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    qid: str = ""
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, query_ids: dict):
        self.query_ids = query_ids  # original query text -> qid
        self.spans = []
        self.stems = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._undo = []

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, qid: str = "") -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), name, time.perf_counter())
        if parent is not None:
            span.parent = parent.id
            span.qid = qid or parent.qid
        else:
            span.qid = qid
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def cli(self, label: str, call):
        """Run one top-level ``csqe`` invocation inside a ``cli`` span."""
        span = self.open("cli")
        span.attrs["label"] = label
        self._root = span
        try:
            return call()
        finally:
            self._root = None
            self.close(span)

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _spanned(self, name: str, after=None, qid_of=None):
        def wrap(original):
            def traced(*args, **kwargs):
                span = self.open(name, qid_of(args) if qid_of else "")
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    book = self.open(BOOKKEEPING)
                    self._local.quiet = True
                    try:
                        after(span, args, result)
                    finally:
                        self._local.quiet = False
                        self.close(book)
                return result
            return traced
        return wrap

    def install(self) -> None:
        """Wrap every traced public function in each module that binds it."""
        tokenize = csqe.corpus.tokenize
        stems = self.stems
        local = self._local

        def count_stem(original):
            def counted(word):
                if not getattr(local, "quiet", False):
                    stems.append(word)
                return original(word)
            return counted

        def tokens(span, args, result):
            span.attrs["tokens"] = len(result)

        def search_kind(span, args, result):
            index, text = args[0], args[1]
            tokens = tokenize(text)
            terms = set(tokens)
            span.name = "index.search.short" if text in self.query_ids else "index.search.composed"
            span.attrs["tokens"] = len(tokens)
            span.attrs["terms"] = len(terms)
            span.attrs["postings"] = sum(index.df(t) for t in terms)
            if not span.qid:
                span.qid = self.query_ids.get(text, "")

        def saved(span, args, result):
            span.attrs["bytes"] = Path(args[1]).stat().st_size

        def prompt(span, args, result):
            self._local.prompt_docs = list(args[1])
            span.attrs["chars"] = len(result)

        def parsed(span, args, result):
            span.attrs["sentences"] = len(result.sentences)
            docs = getattr(self._local, "prompt_docs", [])
            span.attrs["verbatim"] = csqe.expansion.verify_extraction(result.sentences, docs)

        def cache_get(span, args, result):
            span.attrs["hit"] = result is not None

        self._patch(csqe.corpus, "stem", count_stem)
        for module in (csqe.corpus, csqe.index, csqe.prf):
            self._patch(module, "tokenize", self._spanned("corpus.tokenize", tokens))
        for module in (csqe.corpus, csqe.cli):
            self._patch(module, "parse_jsonl_corpus", self._spanned("corpus.parse_jsonl_corpus"))
        for module in (csqe.index, csqe.cli):
            self._patch(module, "build_index", self._spanned("index.build_index"))
        InvertedIndex = csqe.index.InvertedIndex
        self._patch(InvertedIndex, "save", self._spanned("index.save", saved))
        self._patch(InvertedIndex, "search", self._spanned("index.search", search_kind))
        self._patch(InvertedIndex, "search_weighted", self._spanned("index.search_weighted"))
        load = InvertedIndex.load.__func__
        self._undo.append((InvertedIndex, "load", InvertedIndex.__dict__["load"]))
        InvertedIndex.load = classmethod(self._spanned("index.load")(load))
        self._patch(csqe.prf, "rm3_expand", self._spanned("prf.rm3_expand"))
        self._patch(csqe.prf, "rm3_search", self._spanned(
            "query", qid_of=lambda a: self.query_ids.get(a[1], "")))
        self._patch(csqe.expansion, "csqe_pipeline", self._spanned(
            "query", qid_of=lambda a: a[0].id))
        self._patch(csqe.expansion, "build_csqe_prompt",
                    self._spanned("expansion.build_csqe_prompt", prompt))
        self._patch(csqe.expansion, "parse_csqe_response",
                    self._spanned("expansion.parse_csqe_response", parsed))
        self._patch(csqe.llm.LlmClient, "sample", self._spanned("llm.sample"))
        for backend in (csqe.llm.MockBackend, csqe.llm.RemoteBackend):
            self._patch(backend, "fetch", self._spanned("llm.fetch"))
        for name in ("sample_fingerprint", "request_fingerprint"):
            self._patch(csqe.llm, name, self._spanned("llm.fingerprint"))
        self._patch(csqe.llm.GenerationCache, "get", self._spanned("llm.cache.get", cache_get))
        self._patch(csqe.llm.GenerationCache, "put", self._spanned("llm.cache.put"))
        for name in ("write_trec_run", "parse_trec_run", "evaluate_run"):
            self._patch(csqe.evaluation, name, self._spanned(f"evaluation.{name}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON line per span, in the order they closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# Percentiles tried for a tail figure, highest first; the first one with at
# least ten samples beyond it is reported.
_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

METHODS = ("bm25", "rm3", "csqe", "csqe_warm")


def tail(values: list) -> tuple:
    """(percentile, value) for the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    for pct in _TAIL_PCTS:
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]
    return 50.0, statistics.median(ordered)


def _self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.end - span.start
            - _covered(children.get(span.id, []), span.start, span.end) for span in spans}


def _label_of(span, by_id: dict) -> str:
    while span.name != "cli" and span.parent in by_id:
        span = by_id[span.parent]
    return span.attrs.get("label", "")


def breakdown(spans: list, label: str) -> list:
    """(name, share) of the self time inside the ``label`` invocations, largest first.

    Shares are of the invocations' wall time less the tracer's bookkeeping.
    """
    by_id = {span.id: span for span in spans}
    own = _self_times(spans)
    totals = {}
    for span in spans:
        if _label_of(span, by_id) == label:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    wall = sum(s.end - s.start for s in spans if s.name == "cli" and s.attrs["label"] == label)
    wall -= totals.pop(BOOKKEEPING, 0.0)
    return sorted(((name, t / wall) for name, t in totals.items()), key=lambda nt: -nt[1])


def summarize(spans: list, stems: list, cycles: int) -> dict:
    """Per-layer figures per traced cycle: ``{name: (value, unit)}``.

    Every ``.s`` figure is self time; counts are per cycle; sizes
    (chars, tokens, terms, bytes) are means per call.
    """
    by_id = {span.id: span for span in spans}
    own = _self_times(spans)
    self_time = {}
    calls = {}
    for span in spans:
        self_time[span.name] = self_time.get(span.name, 0.0) + own[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1

    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def mean_attr(name, key):
        found = named(name)
        return attr_sum(name, key) / len(found) if found else 0.0

    per = float(cycles)
    out = {}
    for name in ("corpus.tokenize", "corpus.parse_jsonl_corpus", "index.build_index",
                 "index.save", "index.load", "index.search.short", "index.search.composed",
                 "index.search_weighted", "prf.rm3_expand", "expansion.build_csqe_prompt",
                 "expansion.parse_csqe_response", "llm.sample", "llm.fetch",
                 "llm.fingerprint", "llm.cache.get", "llm.cache.put",
                 "evaluation.write_trec_run", "evaluation.parse_trec_run",
                 "evaluation.evaluate_run"):
        out[f"{name}.s"] = (self_time.get(name, 0.0) / per, "s")
    for name in ("corpus.tokenize", "index.search.short", "index.search.composed",
                 "llm.sample", "llm.fetch"):
        out[f"{name}.calls"] = (calls.get(name, 0) / per, "count")
    out["corpus.tokenize.tokens"] = (attr_sum("corpus.tokenize", "tokens") / per, "count")
    out["stemmer.stem.calls"] = (len(stems) / per, "count")
    out["stemmer.stem.distinct_ratio"] = (len(set(stems)) / len(stems) if stems else 0.0, "ratio")
    out["index.save.bytes"] = (mean_attr("index.save", "bytes"), "bytes")
    out["index.search.composed.terms"] = (mean_attr("index.search.composed", "terms"), "terms")
    out["index.search.postings"] = (
        (attr_sum("index.search.short", "postings")
         + attr_sum("index.search.composed", "postings")) / per, "count")
    out["expansion.prompt_chars"] = (mean_attr("expansion.build_csqe_prompt", "chars"), "chars")
    out["expansion.sentences"] = (attr_sum("expansion.parse_csqe_response", "sentences") / per,
                                  "count")
    out["expansion.verbatim_rate"] = (mean_attr("expansion.parse_csqe_response", "verbatim"),
                                      "ratio")
    out["expansion.composed_tokens"] = (mean_attr("index.search.composed", "tokens"), "tokens")
    gets = named("llm.cache.get")
    out["llm.cache.hits"] = (sum(1 for s in gets if s.attrs.get("hit")) / per, "count")
    out["llm.cache.misses"] = (sum(1 for s in gets if not s.attrs.get("hit")) / per, "count")

    # Shares of the cold csqe runs' wall time (less the tracer's bookkeeping):
    # waiting on the backend, and the final retrieval of the composed query.
    cold = [s for s in named("cli") if s.attrs.get("label") == "csqe"]
    books = [(s.start, s.end) for s in named(BOOKKEEPING)]
    wall = sum(s.end - s.start - _covered(books, s.start, s.end) for s in cold)
    fetches = [(s.start, s.end) for s in named("llm.fetch")]
    composed = [(s.start, s.end) for s in named("index.search.composed")]

    def share(intervals):
        # the part of the cold runs' time that ``intervals`` cover and bookkeeping does not
        part = sum(_covered(intervals + books, s.start, s.end) - _covered(books, s.start, s.end)
                   for s in cold)
        return part / wall if wall else 0.0

    out["llm.wait_share"] = (share(fetches), "ratio")
    out["index.search.composed.share"] = (share(composed), "ratio")
    out["cli.self.s"] = (self_time.get("cli", 0.0) / per, "s")

    latencies = {m: [] for m in METHODS}
    for span in spans:
        if span.name == "query" or (span.name == "index.search.short"
                                    and by_id.get(span.parent, span).name == "cli"):
            label = _label_of(span, by_id)
            if label in latencies:
                latencies[label].append(span.end - span.start)
    for method, values in latencies.items():
        pct, value = tail(values) if values else (0.0, 0.0)
        out[f"{method}.query.p50_s"] = (statistics.median(values) if values else 0.0, "s")
        out[f"{method}.query.tail_s"] = (value, "s")
        out[f"{method}.query.tail_pct"] = (pct, "pct")
        out[f"{method}.query.samples"] = (len(values), "count")
    return out
