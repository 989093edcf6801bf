"""RM3 pseudo-relevance feedback.

Feedback document weights are the softmax of their first-pass BM25 scores;
the relevance model P(t|R) mixes each feedback document's maximum-likelihood
term distribution by that weight. The top fb_terms terms are renormalized
and interpolated with the original query's term distribution:

    w(t) = original_weight * P_orig(t) + (1 - original_weight) * P_fb(t)

Defaults (fb_docs=10, fb_terms=10, original_weight=0.5) follow the common
toolkit defaults; they are assumptions, not tuned values.
"""

import heapq
import math
from collections import Counter
from dataclasses import dataclass

from .corpus import STOPWORDS, tokenize
from .index import InvertedIndex, Ranking

DEFAULT_FB_DOCS = 10
DEFAULT_FB_TERMS = 10
DEFAULT_ORIGINAL_WEIGHT = 0.5


@dataclass(frozen=True)
class Rm3Config:
    fb_docs: int = DEFAULT_FB_DOCS
    fb_terms: int = DEFAULT_FB_TERMS
    original_weight: float = DEFAULT_ORIGINAL_WEIGHT

    def __post_init__(self):
        if self.fb_docs < 1:
            raise ValueError("fb_docs must be >= 1")
        if self.fb_terms < 1:
            raise ValueError("fb_terms must be >= 1")
        if not 0.0 <= self.original_weight <= 1.0:
            raise ValueError("original_weight must lie in [0, 1]")


def rm3_expand(index: InvertedIndex, query_text: str, cfg: Rm3Config) -> dict[str, float]:
    """Expand a query into RM3 term weights, the mapping ``search_weighted`` takes.

    Falls back to the plain normalized query distribution when the first
    pass retrieves nothing (degenerate PRF).

    Raises:
        ValueError: if the query tokenizes to nothing.
    """
    q_tokens = tokenize(query_text)
    if not q_tokens:
        raise ValueError("query has no indexable terms")
    q_dist = {t: c / len(q_tokens) for t, c in Counter(q_tokens).items()}

    hits = index.search(query_text, cfg.fb_docs)
    if not hits:
        return q_dist

    # softmax-normalize the feedback scores
    top = max(hits.scores)
    exps = [math.exp(score - top) for score in hits.scores]
    z = sum(exps)

    feedback: dict[str, float] = {}
    for doc_id, e in zip(hits.doc_ids, exps):
        doc_weight = e / z
        tokens = tokenize(index.doc_texts[index.ordinal(doc_id)])
        if not tokens:
            continue
        length = len(tokens)
        for term, tf in Counter(tokens).items():
            if term in STOPWORDS:
                continue
            feedback[term] = feedback.get(term, 0.0) + doc_weight * tf / length

    # the fb_terms heaviest terms, ties by term: equal to the sorted list's prefix
    selected = heapq.nsmallest(cfg.fb_terms, feedback.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(p for _, p in selected)

    ow = cfg.original_weight
    weights: dict[str, float] = {}
    if total > 0.0 and ow < 1.0:
        for term, p in selected:
            weights[term] = (1.0 - ow) * (p / total)
    if ow > 0.0:
        for term, p in q_dist.items():
            weights[term] = weights.get(term, 0.0) + ow * p
    # the query's own distribution when original_weight == 0 and the feedback docs were empty
    return weights or q_dist


def rm3_search(index: InvertedIndex, query_text: str, cfg: Rm3Config, k: int) -> Ranking:
    """First-pass BM25, RM3 expansion, then weighted re-retrieval."""
    return index.search_weighted(rm3_expand(index, query_text, cfg), k)
