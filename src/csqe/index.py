"""Inverted index over a document collection with Okapi BM25 ranking.

Scoring uses idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) and the usual
tf saturation with length normalization; defaults k1=0.9, b=0.4. Result
lists are ordered by score descending with ties broken by external doc id
ascending, so rankings do not depend on corpus input order.

On-disk layout (format version 2): the 8-byte magic ``CSQEIDX1``, the
version as a little-endian u32, then one zlib stream. Decompressed, it holds
a header ``<dd5Q`` (k1, b, and the byte size of each of the five sections
that follow) and the sections in order:

1. UTF-8 JSON ``[doc_ids, doc_texts, terms]`` with terms sorted;
2. ``doc_lens``, one u32 per document;
3. ``dfs``, one u32 per term: the length of its postings list;
4. posting ordinals, u32, gap-coded within each term's list (the first
   entry is the ordinal itself, each later one the distance to the one
   before);
5. posting tfs, u32, aligned with the ordinals.

All u32 arrays are little-endian. ``load`` checks that the section sizes
add up to the payload, that the array lengths agree and that every posting
ordinal names a document, and raises ``DataFormatError`` otherwise.
"""

import json
import math
import os
import struct
import uuid
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .corpus import Document, tokenize
from .errors import DataFormatError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

_MAGIC = b"CSQEIDX1"
_FORMAT_VERSION = 2
_HEADER = struct.Struct("<dd5Q")  # k1, b, byte size of each section


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

    # -- scoring ------------------------------------------------------------

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
        """Top-k search where each term contributes weight times its BM25 term score."""
        if k < 1:
            raise ValueError("k must be >= 1")
        # sorted term order keeps float accumulation reproducible
        ordered = {t: wq.weights[t] for t in sorted(wq.weights)}
        return self._rank(ordered, k)

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        terms = sorted(self.postings)
        dfs, gaps, tfs = [], [], []
        for term in terms:
            plist = self.postings[term]
            dfs.append(len(plist))
            prev = 0
            for ordinal, tf in plist:
                gaps.append(ordinal - prev)
                tfs.append(tf)
                prev = ordinal
        strings = json.dumps([self.doc_ids, self.doc_texts, terms],
                             ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        sections = [strings] + [struct.pack(f"<{len(values)}I", *values)
                                for values in (self.doc_lens, dfs, gaps, tfs)]
        blob = zlib.compress(_HEADER.pack(self.k1, self.b, *map(len, sections))
                             + b"".join(sections))
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
                payload = zlib.decompress(fh.read())
            except zlib.error as exc:
                raise DataFormatError(f"{path}: corrupt index payload ({exc})") from exc
        if len(payload) < _HEADER.size:
            raise DataFormatError(f"{path}: corrupt index payload (truncated header)")
        k1, b, *sizes = _HEADER.unpack_from(payload)
        if _HEADER.size + sum(sizes) != len(payload):
            raise DataFormatError(
                f"{path}: corrupt index payload (section sizes {sizes} do not sum to "
                f"{len(payload) - _HEADER.size} bytes)"
            )
        offsets = list(accumulate(sizes, initial=_HEADER.size))
        try:
            strings = json.loads(payload[offsets[0]:offsets[1]])
            if not (isinstance(strings, list) and len(strings) == 3 and all(
                    isinstance(part, list) and all(isinstance(s, str) for s in part)
                    for part in strings)):
                raise ValueError("strings section is not three lists of strings")
            doc_ids, doc_texts, terms = strings
            doc_lens, dfs, gaps, tfs = (_unpack_u32(payload, offset, size)
                                        for offset, size in zip(offsets[1:], sizes[1:]))
        except ValueError as exc:
            raise DataFormatError(f"{path}: corrupt index payload ({exc})") from exc
        if not (len(doc_ids) == len(doc_texts) == len(doc_lens) and len(terms) == len(dfs)
                and sum(dfs) == len(gaps) == len(tfs)):
            raise DataFormatError(f"{path}: corrupt index payload (section lengths disagree)")
        postings = {}
        start = 0
        for term, df in zip(terms, dfs):
            end = start + df
            postings[term] = list(zip(accumulate(gaps[start:end]), tfs[start:end]))
            start = end
        if any(plist and plist[-1][0] >= len(doc_ids) for plist in postings.values()):
            raise DataFormatError(f"{path}: corrupt index payload (posting ordinal out of range)")
        return cls(postings, doc_ids, list(doc_lens), doc_texts, k1=k1, b=b)


def _unpack_u32(payload: bytes, offset: int, size: int) -> tuple[int, ...]:
    if size % 4:
        raise ValueError(f"u32 section of {size} bytes")
    return struct.unpack_from(f"<{size // 4}I", payload, offset)


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
