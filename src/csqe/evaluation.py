"""TREC-style evaluation: mAP, nDCG@k, Recall@k over run files and qrels.

Conventions match the classic trec_eval behavior: nDCG uses linear gain
grade/log2(rank+1) with the ideal ranking computed over all judged
documents (exponential gain is available behind a flag); mAP and recall
binarize at a configurable grade threshold; queries with no relevant
documents are excluded from macro averages.

One divergence: documents whose run-file scores tie keep their file order
(``parse_trec_run`` sorts stably), while trec_eval orders tied documents by
docno, descending. On a run with tied scores the two can report different
values.

Runs and qrels are plain dicts: a run maps query id -> ``Ranking`` (its doc
ids and scores as two parallel lists, best first), the mapping
``write_trec_run`` takes and ``parse_trec_run`` returns; qrels map query id ->
doc id -> grade. Both parsers take a file opened ``"rb"``, split it into
lines on ``"\\n"`` only and each line into fields on whitespace, so query
ids, document ids and run tags contain no whitespace (``csqe`` refuses such
ids in corpus and query files, and such a tag). A run score that is not a
number, NaN included, is an error that names its line.
"""

import json
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import BinaryIO, Mapping, Optional, Sequence, Union

from .corpus import _iter_lines
from .errors import DataFormatError
from .index import Ranking

log = logging.getLogger(__name__)

DEFAULT_REL_THRESHOLD = 1
DEFAULT_RUN_DEPTH = 1000


def parse_qrels(stream: BinaryIO) -> dict[str, dict[str, int]]:
    """Parse ``qid 0 docid grade`` lines into qid -> docid -> grade; later duplicates overwrite."""
    judgments: dict[str, dict[str, int]] = {}
    for lineno, line in _iter_lines(stream, "qrels"):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise DataFormatError(f"qrels line {lineno}: expected 4 fields, got {len(parts)}")
        qid, _iteration, docid, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise DataFormatError(f"qrels line {lineno}: grade '{grade_str}' is not an integer")
        if grade < 0:
            raise DataFormatError(f"qrels line {lineno}: grade must be >= 0")
        judgments.setdefault(qid, {})[docid] = grade
    return judgments


# The template of the deepest ranking written so far, and the end offset of each of
# its lines. Line r is "%s Q0 %s r %.6f%s" with the rank r baked in, so the template of
# a shallower ranking is a prefix of it. Replaced as one tuple, never mutated, so a
# thread always slices a template with its own offsets.
_run_template: tuple[str, list[int]] = ("", [])


def _template_for(depth: int) -> str:
    """The template of ``depth`` lines, cut from the shared one (grown first if too short)."""
    global _run_template
    template, ends = _run_template
    if depth > len(ends):
        lines = ["%%s Q0 %%s %d %%.6f%%s" % rank
                 for rank in range(1, max(depth, 2 * len(ends)) + 1)]
        template, ends = "".join(lines), list(accumulate(map(len, lines)))
        _run_template = template, ends
    return template[:ends[depth - 1]]


def write_trec_run(rankings: Mapping[str, Ranking], tag: str = "run") -> str:
    """Render rankings as ``qid Q0 docid rank score tag`` lines.

    Each query's ranking is rendered by one ``%`` on a template with the ranks
    baked in, cut from a module-level template shared by every call; calls
    from several threads at once are safe. The query id, doc ids and tag are
    ``%s`` arguments, so a ``%`` or brace in them prints as itself.
    """
    tail = f" {tag}\n"
    blocks = []
    for qid, ranking in rankings.items():
        depth = len(ranking.doc_ids)
        if not depth:
            continue
        args = [qid, None, None, tail] * depth
        args[1::4] = ranking.doc_ids
        args[2::4] = ranking.scores
        blocks.append(_template_for(depth) % tuple(args))
    return "".join(blocks)


def parse_trec_run(stream: BinaryIO) -> dict[str, Ranking]:
    """Parse a TREC run file, re-sorting each query by score descending.

    The sort is stable so documents whose printed scores collide keep their
    file order (trec_eval would order them by docno, descending); duplicate
    documents within a query and NaN scores are errors.
    """
    by_query: dict[str, dict[str, float]] = {}  # qid -> docid -> score, in file order
    qid = docs = None
    for lineno, line in _iter_lines(stream, "run"):
        try:
            line_qid, _q0, docid, _rank, score_str, _tag = line.split()
        except ValueError:
            parts = line.split()
            if not parts:
                continue
            raise DataFormatError(f"run line {lineno}: expected 6 fields, got {len(parts)}")
        if line_qid != qid:
            qid = line_qid
            docs = by_query.setdefault(qid, {})
        try:
            score = float(score_str)
        except ValueError:
            score = math.nan
        if score != score:  # not a number, or NaN, which compares false with every score
            raise DataFormatError(f"run line {lineno}: score '{score_str}' is not a number")
        # float() made a new object, so getting any other one back means docid was there
        if docs.setdefault(docid, score) is not score:
            raise DataFormatError(f"run line {lineno}: duplicate doc '{docid}' for query '{qid}'")
    # each query's dict is dropped as its ranking is built, so at most one query is held twice
    return {qid: _ranked(by_query.pop(qid)) for qid in list(by_query)}


def _ranked(scores: dict[str, float]) -> Ranking:
    """The documents of ``scores`` by score descending; a stable sort, so ties keep their order."""
    doc_ids = sorted(scores, key=scores.__getitem__, reverse=True)
    return Ranking(doc_ids, list(map(scores.__getitem__, doc_ids)))


# -- metrics ---------------------------------------------------------------


def ndcg_at_k(
    ranking: Sequence[str],
    judged: Mapping[str, int],
    k: int,
    exponential: bool = False,
) -> Optional[float]:
    """nDCG@k with linear gain by default; None when nothing is judged relevant."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gain = (lambda g: float(2 ** g - 1)) if exponential else float
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)[:k]
    idcg = sum(gain(g) / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0.0:
        return None
    dcg = sum(
        gain(judged.get(d, 0)) / math.log2(i + 2) for i, d in enumerate(ranking[:k])
    )
    return dcg / idcg


def average_precision(
    ranking: Sequence[str],
    judged: Mapping[str, int],
    rel_threshold: int = DEFAULT_REL_THRESHOLD,
) -> Optional[float]:
    """AP with binary relevance grade >= rel_threshold; None when R == 0."""
    if rel_threshold < 1:
        raise ValueError("rel_threshold must be >= 1")
    relevant = {d for d, g in judged.items() if g >= rel_threshold}
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for i, docid in enumerate(ranking, start=1):
        if docid in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def recall_at_k(
    ranking: Sequence[str],
    judged: Mapping[str, int],
    k: int,
    rel_threshold: int = DEFAULT_REL_THRESHOLD,
) -> Optional[float]:
    """Fraction of relevant documents in the top k; None when R == 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if rel_threshold < 1:
        raise ValueError("rel_threshold must be >= 1")
    relevant = {d for d, g in judged.items() if g >= rel_threshold}
    if not relevant:
        return None
    return len(relevant.intersection(ranking[:k])) / len(relevant)


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    name: str
    kind: str  # map | ndcg | recall
    k: Optional[int] = None


def parse_metric_spec(spec: str) -> MetricSpec:
    """Accepts ``map``, ``ndcg_cut.K`` and ``recall.K``."""
    if spec == "map":
        return MetricSpec("map", "map")
    for prefix, kind in (("ndcg_cut.", "ndcg"), ("recall.", "recall")):
        if spec.startswith(prefix):
            try:
                k = int(spec[len(prefix):])
            except ValueError:
                raise ValueError(f"bad cutoff in metric spec '{spec}'")
            if k < 1:
                raise ValueError(f"cutoff must be >= 1 in metric spec '{spec}'")
            return MetricSpec(spec, kind, k)
    raise ValueError(f"unknown metric spec '{spec}' (try map, ndcg_cut.K, recall.K)")


@dataclass
class MetricReport:
    """Per-query metric values plus macro averages over evaluated queries."""

    per_query: dict[str, dict[str, float]]  # metric name -> qid -> value
    macro: dict[str, Optional[float]]
    skipped_queries: list[str]

    def to_json(self) -> str:
        payload = {
            "macro": self.macro,
            "per_query": self.per_query,
            "skipped_queries": self.skipped_queries,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def format_table(self) -> str:
        names = list(self.per_query)
        width = max([len(n) for n in names] + [6])
        lines = [f"{'metric'.ljust(width)}  {'queries':>7}  {'value':>8}"]
        for name in names:
            value = self.macro[name]
            rendered = f"{value:.4f}" if value is not None else "n/a"
            lines.append(f"{name.ljust(width)}  {len(self.per_query[name]):>7}  {rendered:>8}")
        return "\n".join(lines)


def evaluate_run(
    run: Mapping[str, Ranking],
    qrels: Mapping[str, Mapping[str, int]],
    metric_specs: Sequence[Union[str, MetricSpec]],
    rel_threshold: int = DEFAULT_REL_THRESHOLD,
    exponential_gain: bool = False,
) -> MetricReport:
    """Score every run query found in the qrels (the dicts the parsers return).

    Queries missing from the qrels are skipped with a warning; queries with
    no relevant documents are excluded per metric. Output ordering is by
    query id, so reports are deterministic.
    """
    specs = [parse_metric_spec(s) if isinstance(s, str) else s for s in metric_specs]
    per_query: dict[str, dict[str, float]] = {spec.name: {} for spec in specs}
    skipped: list[str] = []
    for qid in sorted(run):
        judged = qrels.get(qid)
        if judged is None:
            log.warning("query %s has no qrels entry; skipped", qid)
            skipped.append(qid)
            continue
        ranking = run[qid].doc_ids
        for spec in specs:
            if spec.kind == "map":
                value = average_precision(ranking, judged, rel_threshold)
            elif spec.kind == "ndcg":
                value = ndcg_at_k(ranking, judged, spec.k, exponential=exponential_gain)
            else:
                value = recall_at_k(ranking, judged, spec.k, rel_threshold)
            if value is not None:
                per_query[spec.name][qid] = value
    macro = {name: sum(values.values()) / len(values) if values else None
             for name, values in per_query.items()}
    if not any(per_query.values()):
        log.warning("no queries were evaluated (empty run or disjoint qrels)")
    return MetricReport(per_query=per_query, macro=macro, skipped_queries=skipped)
