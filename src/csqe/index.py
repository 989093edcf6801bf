"""Inverted index over a document collection with Okapi BM25 ranking.

Scoring uses idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) and the usual
tf saturation with length normalization; defaults k1=0.9, b=0.4. Result
lists are ordered by score descending with ties broken by external doc id
ascending, so rankings do not depend on corpus input order.
"""

import json
import math
import os
import struct
import uuid
import zlib
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Document, tokenize
from .errors import DataFormatError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

_MAGIC = b"CSQEIDX1"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScoredHit:
    doc_id: str
    score: float


@dataclass(frozen=True)
class WeightedQuery:
    """Bag of term weights used by weighted retrieval (RM3 output)."""

    weights: Mapping[str, float]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weighted query must contain at least one term")
        positive = False
        for term, w in self.weights.items():
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weight for term '{term}' must be finite and >= 0")
            positive = positive or w > 0.0
        if not positive:
            raise ValueError("weighted query needs at least one positive weight")


class InvertedIndex:
    """Immutable postings index. Build once, search from any thread."""

    def __init__(
        self,
        postings: dict[str, list[tuple[int, int]]],
        doc_ids: list[str],
        doc_lens: list[int],
        doc_texts: list[str],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ):
        self.postings = postings
        self.doc_ids = doc_ids
        self.doc_lens = doc_lens
        self.doc_texts = doc_texts
        self.k1 = k1
        self.b = b
        self.doc_count = len(doc_ids)
        self.avg_doc_len = sum(doc_lens) / self.doc_count if self.doc_count else 0.0
        self._ordinals = {doc_id: i for i, doc_id in enumerate(doc_ids)}

    # -- statistics ---------------------------------------------------------

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        df = self.df(term)
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def ordinal(self, doc_id: str) -> int:
        return self._ordinals[doc_id]

    def term_frequency(self, term: str, ordinal: int) -> int:
        plist = self.postings.get(term)
        if not plist:
            return 0
        pos = bisect_left(plist, (ordinal,))
        if pos < len(plist) and plist[pos][0] == ordinal:
            return plist[pos][1]
        return 0

    # -- scoring ------------------------------------------------------------

    def bm25_term_score(self, term: str, ordinal: int) -> float:
        """BM25 contribution of one term for one document (0 if absent)."""
        tf = self.term_frequency(term, ordinal)
        if tf == 0:
            return 0.0
        norm = 1.0 - self.b + self.b * self.doc_lens[ordinal] / self.avg_doc_len
        return self.idf(term) * tf * (self.k1 + 1.0) / (tf + self.k1 * norm)

    def _rank(self, term_weights: Mapping[str, float], k: int) -> list[ScoredHit]:
        scores: dict[int, float] = {}
        for term, weight in term_weights.items():
            if weight == 0.0:
                continue
            plist = self.postings.get(term)
            if not plist:
                continue
            idf = self.idf(term)
            k1 = self.k1
            b = self.b
            for ordinal, tf in plist:
                norm = 1.0 - b + b * self.doc_lens[ordinal] / self.avg_doc_len
                contribution = weight * idf * tf * (k1 + 1.0) / (tf + k1 * norm)
                scores[ordinal] = scores.get(ordinal, 0.0) + contribution
        hits = [ScoredHit(self.doc_ids[o], s) for o, s in scores.items()]
        hits.sort(key=lambda h: (-h.score, h.doc_id))
        return hits[:k]

    def search(self, query_text: str, k: int) -> list[ScoredHit]:
        """Top-k BM25 search. Duplicate query tokens act as integer weights."""
        if k < 1:
            raise ValueError("k must be >= 1")
        tokens = tokenize(query_text)
        if not tokens:
            return []
        return self._rank(Counter(tokens), k)

    def search_weighted(self, wq: WeightedQuery, k: int) -> list[ScoredHit]:
        """Top-k search where each term contributes weight * bm25_term_score."""
        if k < 1:
            raise ValueError("k must be >= 1")
        # sorted term order keeps float accumulation reproducible
        ordered = {t: wq.weights[t] for t in sorted(wq.weights)}
        return self._rank(ordered, k)

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "k1": self.k1,
            "b": self.b,
            "doc_ids": self.doc_ids,
            "doc_lens": self.doc_lens,
            "doc_texts": self.doc_texts,
            "postings": {t: [[o, f] for o, f in pl] for t, pl in self.postings.items()},
        }
        blob = zlib.compress(json.dumps(payload, ensure_ascii=False, sort_keys=True).encode("utf-8"))
        # unique per call: concurrent or nested saves to one path never share it
        tmp = f"{path}.tmp.{uuid.uuid4().hex}"
        with open(tmp, "xb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _FORMAT_VERSION))
            fh.write(blob)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        with open(path, "rb") as fh:
            header = fh.read(len(_MAGIC) + 4)
            if len(header) < len(_MAGIC) + 4 or header[: len(_MAGIC)] != _MAGIC:
                raise DataFormatError(f"{path}: not an index file (bad magic)")
            (version,) = struct.unpack("<I", header[len(_MAGIC):])
            if version != _FORMAT_VERSION:
                raise DataFormatError(f"{path}: unsupported index format version {version}")
            try:
                payload = json.loads(zlib.decompress(fh.read()).decode("utf-8"))
            except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataFormatError(f"{path}: corrupt index payload ({exc})") from exc
        postings = {t: [(o, f) for o, f in pl] for t, pl in payload["postings"].items()}
        return cls(
            postings=postings,
            doc_ids=payload["doc_ids"],
            doc_lens=payload["doc_lens"],
            doc_texts=payload["doc_texts"],
            k1=payload["k1"],
            b=payload["b"],
        )


def build_index(
    docs: Sequence[Document],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> InvertedIndex:
    """Tokenize and index a document collection.

    Raises:
        DataFormatError: on an empty collection or duplicate document ids.
    """
    if not docs:
        raise DataFormatError("cannot build an index over an empty collection")
    seen: set[str] = set()
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_ids: list[str] = []
    doc_lens: list[int] = []
    doc_texts: list[str] = []
    for ordinal, doc in enumerate(docs):
        if doc.id in seen:
            raise DataFormatError(f"duplicate document id '{doc.id}'")
        seen.add(doc.id)
        tokens = tokenize(doc.text)
        doc_ids.append(doc.id)
        doc_lens.append(len(tokens))
        doc_texts.append(doc.text)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((ordinal, tf))
    return InvertedIndex(postings, doc_ids, doc_lens, doc_texts, k1=k1, b=b)
