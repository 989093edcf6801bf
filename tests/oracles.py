"""Independent reference implementations used as test oracles.

Everything here recomputes results directly from the defining formulas on
plain Python structures and shares no code with the package modules it
checks, apart from the error type the line reader and the run-file parser
raise; that parser returns a plain dict.
"""

import math
import zlib
from collections import Counter
from itertools import accumulate
from operator import sub
from typing import BinaryIO, Iterator

from csqe.errors import DataFormatError


def bm25_scores(doc_token_lists, query_tokens, k1=0.9, b=0.4):
    """Brute-force BM25: score every document against the bag of query tokens.

    Duplicate query tokens act as integer weights: each distinct term adds
    count times its contribution, once. The product is grouped as
    ``(count * idf) * (tf saturation)``, the query part times the part no
    query changes, so scores match a kernel that caches the second factor
    per posting to the last bit, and near-ties within an ulp order alike.
    """
    n_docs = len(doc_token_lists)
    total_len = sum(len(d) for d in doc_token_lists)
    avgdl = total_len / n_docs
    df = Counter()
    for tokens in doc_token_lists:
        for term in set(tokens):
            df[term] += 1
    scores = []
    for tokens in doc_token_lists:
        tf = Counter(tokens)
        score = 0.0
        for term, count in Counter(query_tokens).items():
            freq = tf[term]
            if freq == 0:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            norm = 1.0 - b + b * len(tokens) / avgdl
            score += count * idf * (freq * (k1 + 1.0) / (freq + k1 * norm))
        scores.append(score)
    return scores


def build_postings(token_lists):
    """``(terms, offsets, gaps, tfs, doc_lens)`` of an index over documents with these tokens.

    The dict-of-lists builder that ``csqe.index.build_index`` replaced: each
    term's ``[ordinal, tf, ...]`` list is grown document by document, then
    gap-coded and appended term by term in sorted order.
    """
    flat = {}
    for ordinal, tokens in enumerate(token_lists):
        for term, tf in Counter(tokens).items():
            flat.setdefault(term, []).extend((ordinal, tf))
    terms = sorted(flat)
    gaps, tfs = [], []
    for term in terms:
        entry = flat[term]
        run = entry[0::2]
        gaps.extend(map(sub, run, [0, *run]))
        tfs.extend(entry[1::2])
    offsets = [0, *accumulate(len(flat[term]) // 2 for term in terms)]
    return terms, offsets, gaps, tfs, [len(tokens) for tokens in token_lists]


def texts_stream(texts, level=5):
    """The texts stream of an index file, and the UTF-8 byte length of each text.

    One ``zlib.compressobj`` is fed each text's UTF-8 on its own, then flushed.
    """
    packer, raws = zlib.compressobj(level), [text.encode("utf-8") for text in texts]
    return b"".join([*map(packer.compress, raws), packer.flush()]), list(map(len, raws))


def bm25_weighted_scores(doc_token_lists, weights, k1=0.9, b=0.4):
    n_docs = len(doc_token_lists)
    avgdl = sum(len(d) for d in doc_token_lists) / n_docs
    df = Counter()
    for tokens in doc_token_lists:
        for term in set(tokens):
            df[term] += 1
    scores = []
    for tokens in doc_token_lists:
        tf = Counter(tokens)
        score = 0.0
        for term in sorted(weights):
            weight = weights[term]
            freq = tf[term]
            if freq == 0 or weight == 0.0:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            norm = 1.0 - b + b * len(tokens) / avgdl
            score += weight * idf * (freq * (k1 + 1.0) / (freq + k1 * norm))
        scores.append(score)
    return scores


def ranking_from_scores(doc_ids, scores):
    """Docs with positive score ordered by score desc, id asc."""
    pairs = [(d, s) for d, s in zip(doc_ids, scores) if s > 0.0]
    pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    return pairs


class DictIndex:
    """Lookups by dict and brute-force BM25 over documents given as ``(doc_id, tokens)``.

    Documents are numbered in ascending id order. ``df`` and ``ordinal`` read
    dicts built from the token lists, as ``csqe.index.InvertedIndex`` did before
    it bisected its sorted lists; ``ordinal`` raises ``KeyError`` for an id it
    does not hold. The searches return ``(doc_id, score)`` pairs.
    """

    def __init__(self, docs):
        docs = sorted(docs)
        self.doc_ids = [doc_id for doc_id, _ in docs]
        self.token_lists = [tokens for _, tokens in docs]
        self._ordinal_of = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}
        self._df = Counter(term for tokens in self.token_lists for term in set(tokens))

    def df(self, term):
        return self._df.get(term, 0)

    def ordinal(self, doc_id):
        return self._ordinal_of[doc_id]

    def search(self, query_tokens, k):
        return ranking_from_scores(self.doc_ids, bm25_scores(self.token_lists, query_tokens))[:k]

    def search_weighted(self, weights, k):
        return ranking_from_scores(
            self.doc_ids, bm25_weighted_scores(self.token_lists, weights))[:k]


def rm3_weights(doc_ids, doc_token_lists, query_tokens, fb_docs, fb_terms,
                original_weight, k1=0.9, b=0.4, stopwords=frozenset()):
    """Step-by-step RM3 reference over token lists."""
    q_counts = Counter(query_tokens)
    q_dist = {t: c / len(query_tokens) for t, c in q_counts.items()}

    first_pass = ranking_from_scores(
        doc_ids, bm25_scores(doc_token_lists, query_tokens, k1, b)
    )[:fb_docs]
    if not first_pass:
        return dict(q_dist)

    top_score = max(s for _, s in first_pass)
    exp_scores = [math.exp(s - top_score) for _, s in first_pass]
    z = sum(exp_scores)

    feedback = {}
    for (doc_id, _), e in zip(first_pass, exp_scores):
        tokens = doc_token_lists[doc_ids.index(doc_id)]
        if not tokens:
            continue
        for term, count in Counter(tokens).items():
            if term in stopwords:
                continue
            feedback[term] = feedback.get(term, 0.0) + (e / z) * count / len(tokens)

    chosen = sorted(feedback.items(), key=lambda kv: (-kv[1], kv[0]))[:fb_terms]
    total = sum(p for _, p in chosen)
    result = {}
    if total > 0.0 and original_weight < 1.0:
        for term, p in chosen:
            result[term] = (1.0 - original_weight) * p / total
    if original_weight > 0.0:
        for term, p in q_dist.items():
            result[term] = result.get(term, 0.0) + original_weight * p
    return result or dict(q_dist)


# -- metric oracles (trec_eval conventions) ---------------------------------


def ndcg_oracle(ranking, judged, k):
    gains = [judged.get(doc, 0) for doc in ranking[:k]]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains))
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0:
        return None
    return dcg / idcg


def ap_oracle(ranking, judged, rel_threshold=1):
    relevant = {d for d, g in judged.items() if g >= rel_threshold}
    if not relevant:
        return None
    precision_sum = 0.0
    hits = 0
    for i, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / len(relevant)


def recall_oracle(ranking, judged, k, rel_threshold=1):
    relevant = {d for d, g in judged.items() if g >= rel_threshold}
    if not relevant:
        return None
    return sum(1 for d in relevant if d in ranking[:k]) / len(relevant)


# -- line reader oracle ------------------------------------------------------


def iter_lines_whole_file(stream: BinaryIO, kind: str) -> Iterator[tuple[int, str]]:
    """The lines of a binary file as ``csqe.corpus._iter_lines`` must yield them.

    Reads the whole file and yields ``enumerate(data.decode().split("\\n"), 1)``.
    On bytes that are not UTF-8 it yields the lines before the bad line,
    then raises ``DataFormatError`` naming the bad line.
    """
    data = stream.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = data.count(b"\n", 0, exc.start) + 1
        yield from enumerate((raw.decode("utf-8") for raw in data.split(b"\n")[:bad - 1]), 1)
        raise DataFormatError(f"{kind} line {bad}: not valid UTF-8") from exc
    yield from enumerate(text.split("\n"), 1)


# -- run-file parser oracle --------------------------------------------------
#
# The line-by-line parser that the one-pass ``csqe.evaluation.parse_trec_run``
# replaced, kept as it was apart from its input and return types: the binary
# file is iterated line by line, each line decoded on its own, and each
# query's pairs re-sorted with a negated key.


def _iter_lines(stream: BinaryIO, kind: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` pairs; ``kind`` names the file in errors."""
    for lineno, raw in enumerate(stream, start=1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{kind} line {lineno}: not valid UTF-8") from exc
        yield lineno, raw


def parse_trec_run(stream: BinaryIO) -> dict[str, list[tuple[str, float]]]:
    """Parse a TREC run file, re-sorting each query by score descending.

    The sort is stable so documents whose printed scores collide keep their
    file order (trec_eval would order them by docno, descending); duplicate
    documents within a query are an error.
    """
    rankings: dict[str, list[tuple[str, float]]] = {}
    seen: dict[str, set] = {}
    for lineno, line in _iter_lines(stream, "run"):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise DataFormatError(f"run line {lineno}: expected 6 fields, got {len(parts)}")
        qid, _q0, docid, _rank, score_str, _tag = parts
        try:
            score = float(score_str)
        except ValueError:
            raise DataFormatError(f"run line {lineno}: score '{score_str}' is not a number")
        if docid in seen.setdefault(qid, set()):
            raise DataFormatError(f"run line {lineno}: duplicate doc '{docid}' for query '{qid}'")
        seen[qid].add(docid)
        rankings.setdefault(qid, []).append((docid, score))
    for qid in rankings:
        rankings[qid].sort(key=lambda pair: -pair[1])
    return rankings


# -- run-file writer oracle --------------------------------------------------


def write_trec_run(rankings, tag="run"):
    """``qid Q0 docid rank score tag`` lines, one f-string per hit."""
    return "".join(f"{qid} Q0 {doc} {rank} {score:.6f} {tag}\n"
                   for qid, hits in rankings.items()
                   for rank, (doc, score) in enumerate(hits, start=1))
