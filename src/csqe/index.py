"""Inverted index over a document collection with Okapi BM25 ranking.

Scoring uses idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) and the usual
tf saturation with length normalization; defaults k1=0.9, b=0.4. Result
lists are ordered by score descending with ties broken by external doc id
ascending, so rankings do not depend on corpus input order. That holds for
equal float scores. A document's score sums its terms' contributions in
query term order, so two documents whose scores are equal in exact
arithmetic can still differ in the last bit when their equal contributions
are summed in a different order, and are then ordered by that rounding. The
benchmark's ``csqe-stub`` workload, seed 1719, q0009 has such a pair:
d000315 and d000155, with tfs (1, 1, 3) and (3, 1, 1) on three query terms,
print the same score and are ranked by how ``(x1 + y) + x3`` and ``(x3 + y)
+ x1`` round.

In memory the postings are compressed sparse rows: the posting lists of the
sorted terms laid end to end in two ``array``s, ``gaps`` and ``tfs``, with
term ``i``'s list at ``offsets[i]:offsets[i + 1]``. ``gaps`` holds each list's
document ordinals, ascending, gap-coded as in the file (the first entry is the
ordinal itself, each later one the distance to the one before), and a loaded
index keeps both arrays at the width the file stored. On a term's first use a
search decodes its ordinals and computes each posting's impact, the part of
its BM25 term score that no query changes,
``c = tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avglen))``, and keeps the
pair for later searches: a query decodes only the lists it reads, and a term
of weight ``w`` adds ``w * idf * c`` to each of its documents, one multiply
per posting. The pair costs 12 bytes per decoded posting.

A search first decodes every list it reads and sums their lengths ``P``;
nothing is scored before each of them has passed its first-use checks. The
scores then go to one of two accumulators, picked by how much of the
collection the query reaches. When ``2 * P >= doc_count`` most documents are
candidates: each gets a slot in a list of ``doc_count`` floats, and the
candidates are read off that list in doc-id order, through the permutation of
ordinals by doc id that the index keeps. Below that, a dict holds the scores
of the documents reached, and its keys are sorted into doc-id order. A stable
sort by score follows, so ties stay in doc-id order. Either way only
documents with a positive score are ranked: one whose contributions all round
to 0.0 is left out, like one that no term reaches. Both accumulators add a
document's contributions in query term order, so they give bit-identical
scores. CSQE's composed query reaches 4.5-11 postings per document of the
benchmark corpora and RM3's weighted query 1.1-4.3, so both take the list; a
first pass reaches under 0.04 and takes the dict.

On-disk layout (format version 5): the 8-byte magic ``CSQEIDX1``, the
version as a little-endian u32, a header ``<dd3QI5Q5B`` (k1, b, the byte size
of each of the three zlib streams that follow, the crc32 of the second
stream as stored, then the count and the byte width of each of the five
arrays below), and the three streams, each at zlib level 5:

1. the document ids, then the sorted terms, as UTF-8 joined with ``"\n"``;
   a document id is never empty and holds no whitespace, and neither does a
   term, so the names split back at whitespace and the first ``doc_count`` of
   them are the ids;
2. the document texts as UTF-8, end to end;
3. the unsigned arrays, end to end: ``doc_lens``, one per document;
   ``dfs``, one per term, the length of its postings list; posting
   ordinals, gap-coded within each term's list (the first entry is the
   ordinal itself, each later one the distance to the one before); posting
   tfs, aligned with the ordinals; ``text_lens``, the UTF-8 byte length of
   each document's text. Each array is 1, 2 or 4 bytes wide, the narrowest
   that holds its largest value, and is stored in byte planes: byte 0 of
   every value (the least significant), then byte 1 of every value, up to
   its width (the "shuffle" filter of HDF5 and Blosc). Gaps and tfs are
   mostly small, so their high planes are runs of zeros that compress well.

Only RM3 and CSQE read document texts, so ``load`` keeps the texts stream
compressed and ``doc_texts`` decodes it on its first read, once per index:
a bm25 run or ``csqe search`` never decompresses a text.

``load`` checks that k1 and b pass ``check_bm25_params``, that the stream
sizes add up to the file, that the texts stream matches its crc32, that the
names stream is UTF-8 and splits at whitespace into one name per document
and term (a name that is empty or holds whitespace breaks the count), that
there is a document, that the array widths and lengths agree, and that the
document ids are distinct and the terms strictly ascending, and raises
``DataFormatError`` otherwise. A postings list that names a document twice,
or one that does not exist, raises ``DataFormatError`` from the first search
that reads it, before its pair is kept, so it is never scored and every later
search of the term raises again: a search reads a few hundred of the lists,
and checking all of them was about half of a load. A texts stream that passes its crc32 but whose text lengths
do not add up to its size, or whose texts are not UTF-8, raises
``DataFormatError`` from the first read of ``doc_texts``. Files of earlier
format versions, 4 included, are refused with ``unsupported index format
version <n>``.
"""

import math
import os
import struct
import sys
import threading
import uuid
import zlib
from array import array
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import lt, sub
from typing import Callable, Mapping, NamedTuple, Sequence

from .corpus import Document, is_single_field, tokenize
from .errors import DataFormatError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

_MAGIC = b"CSQEIDX1"
_FORMAT_VERSION = 5
# k1, b, byte size of each zlib stream, crc32 of the texts stream, count of each array,
# byte width of each array
_HEADER = struct.Struct("<dd3QI5Q5B")
_TYPECODES = {array(code).itemsize: code for code in "LIHB"}  # byte width -> typecode
_U32 = _TYPECODES[4]
# every stream's; the texts are most of the file and of the time save spends compressing
_ZLIB_LEVEL = 5


def check_bm25_params(k1: float, b: float) -> None:
    """Refuse a k1 that is not finite or is negative, and a b outside [0, 1].

    A NaN or infinite k1 or b makes every score NaN; a negative k1 zeroes or
    reorders the scores; a b above 1 can make a length norm negative and a
    score divide by zero.

    Raises:
        ValueError: naming the parameter and its value.
    """
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ValueError(f"k1 must be finite and >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be >= 0 and <= 1, got {b}")


class ScoredHit(NamedTuple):
    """One ranked document; unpacks as the ``(doc_id, score)`` pair a run file takes."""

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
    """Immutable postings index. Build once, search from any thread.

    ``doc_texts`` is given as the list of texts, or as a function that
    returns it, which the first read of ``doc_texts`` calls.
    """

    def __init__(
        self,
        terms: list[str],
        offsets: list[int],
        gaps: array,
        tfs: array,
        doc_ids: list[str],
        doc_lens: list[int],
        doc_texts: list[str] | Callable[[], list[str]],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        source: str = "in-memory index",
    ):
        self.terms = terms
        self.offsets = offsets
        self.gaps = gaps
        self.tfs = tfs
        # each slot's (ordinals, impacts) pair, filled on the term's first use by _rank; the
        # impacts are 8 bytes per decoded posting on top of the ordinals' 4
        self._postings: list[tuple[array, array] | None] = [None] * len(terms)
        self.doc_ids = doc_ids
        self.doc_lens = doc_lens
        self._texts = doc_texts
        self._texts_lock = threading.Lock()
        self.k1 = k1
        self.b = b
        self._source = source  # names the index in the error a damaged postings list raises
        self.doc_count = len(doc_ids)
        avg = sum(doc_lens) / self.doc_count if self.doc_count else 0.0
        self._slots = {term: slot for slot, term in enumerate(terms)}
        self._ordinal_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        # k1 times the length norm of each document; avg is 0 only when every length is
        self._knorm = ([k1 * (1.0 - b + b * n / avg) for n in doc_lens] if avg
                       else [k1 * (1.0 - b)] * len(doc_lens))
        # the ordinals in doc-id order, and each ordinal's place in it
        self._by_id = sorted(range(self.doc_count), key=doc_ids.__getitem__)
        self._id_rank = [0] * self.doc_count
        for rank, ordinal in enumerate(self._by_id):
            self._id_rank[ordinal] = rank

    @property
    def doc_texts(self) -> list[str]:
        """The document texts in ordinal order, decoded on the first read."""
        texts = self._texts
        if callable(texts):
            with self._texts_lock:  # concurrent first readers decode once
                if callable(self._texts):
                    self._texts = self._texts()
                texts = self._texts
        return texts

    # -- statistics ---------------------------------------------------------

    def df(self, term: str) -> int:
        slot = self._slots.get(term)
        return 0 if slot is None else self.offsets[slot + 1] - self.offsets[slot]

    def _idf(self, df: int) -> float:
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal_of[doc_id]

    # -- scoring ------------------------------------------------------------

    def _rank(self, term_weights: Mapping[str, float], k: int) -> list[ScoredHit]:
        knorm = self._knorm
        decoded = self._postings
        k1p1 = self.k1 + 1.0
        lists: list[tuple[float, tuple[array, array]]] = []
        reached = 0  # postings the query reads
        for term, weight in term_weights.items():
            if weight == 0.0:
                continue
            slot = self._slots.get(term)
            if slot is None:
                continue
            start, end = self.offsets[slot], self.offsets[slot + 1]
            postings = decoded[slot]
            if postings is None:
                # threads racing on a term's first use each build an equal pair, and a
                # list item store is atomic, so every reader sees a whole pair: no lock
                gaps = self.gaps[start:end]
                # the sum is checked before the u32 array is built, which it could overflow
                problem = ("duplicate ordinal in a postings list" if 0 in gaps[1:]
                           else "posting ordinal out of range"
                           if gaps and sum(gaps) >= self.doc_count else None)
                if problem:
                    raise DataFormatError(f"{self._source}: corrupt index payload ({problem})")
                ordinals = array(_U32, accumulate(gaps))
                impacts = array("d", [tf * k1p1 / (tf + knorm[o])
                                      for o, tf in zip(ordinals, self.tfs[start:end])])
                postings = decoded[slot] = ordinals, impacts
            # weight * idf * c is the term's weighted BM25 score in document o
            lists.append((weight * self._idf(end - start), postings))
            reached += end - start
        if 2 * reached >= self.doc_count:
            # most documents are candidates: a slot per document, taken in doc-id order
            acc = [0.0] * self.doc_count
            for wi, (ordinals, impacts) in lists:
                for o, c in zip(ordinals, impacts):
                    acc[o] += wi * c
            score = acc.__getitem__
            ranked = list(compress(self._by_id, map(score, self._by_id)))
        else:
            scores: dict[int, float] = {}
            get = scores.get
            for wi, (ordinals, impacts) in lists:
                for o, c in zip(ordinals, impacts):
                    scores[o] = get(o, 0.0) + wi * c
            score = scores.__getitem__
            ranked = sorted(scores, key=self._id_rank.__getitem__)
        # candidates in doc-id order, then a stable sort by score: ties stay in doc-id order
        ranked.sort(key=score, reverse=True)
        top = ranked[:k]
        # no score is below 0.0, so documents whose contributions all rounded to 0.0 come
        # last, and are not ranked (compress never takes one from the slots)
        while top and not score(top[-1]):
            top.pop()
        # tuple.__new__ is ScoredHit._make without a Python call per hit
        return list(map(tuple.__new__, repeat(ScoredHit),
                        zip(map(self.doc_ids.__getitem__, top), map(score, top))))

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
        texts = [text.encode("utf-8") for text in self.doc_texts]
        dfs = array(_U32, map(sub, self.offsets[1:], self.offsets))
        arrays = [array(_U32, self.doc_lens), dfs, self.gaps, self.tfs,
                  array(_U32, map(len, texts))]
        widths, planes = zip(*map(_planes, arrays))
        streams = [zlib.compress(raw, _ZLIB_LEVEL) for raw in (
            "\n".join(chain(self.doc_ids, self.terms)).encode("utf-8"),
            b"".join(texts),
            b"".join(planes),
        )]
        header = _HEADER.pack(self.k1, self.b, *map(len, streams), zlib.crc32(streams[1]),
                              *map(len, arrays), *widths)
        # unique per call: concurrent or nested saves to one path never share it
        tmp = f"{path}.tmp.{uuid.uuid4().hex}"
        try:
            with open(tmp, "xb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<I", _FORMAT_VERSION))
                fh.write(header)
                fh.writelines(streams)
            os.replace(tmp, path)
        except BaseException:
            with suppress(FileNotFoundError):  # open itself failed
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        prefix = len(_MAGIC) + 4
        with open(path, "rb") as fh:
            head = fh.read(prefix + _HEADER.size)
            if len(head) < prefix or head[: len(_MAGIC)] != _MAGIC:
                raise DataFormatError(f"{path}: not an index file (bad magic)")
            (version,) = struct.unpack_from("<I", head, len(_MAGIC))
            if version != _FORMAT_VERSION:
                raise DataFormatError(f"{path}: unsupported index format version {version}")
            if len(head) < prefix + _HEADER.size:
                raise DataFormatError(f"{path}: corrupt index payload (truncated header)")
            k1, b, *fields = _HEADER.unpack_from(head, prefix)
            sizes, texts_crc, shape = fields[:3], fields[3], fields[4:]
            body = os.fstat(fh.fileno()).st_size - len(head)
            if sum(sizes) != body:
                raise DataFormatError(
                    f"{path}: corrupt index payload (stream sizes {sizes} do not sum to "
                    f"{body} bytes)"
                )
            # one read per stream: only the texts stream is kept, still compressed
            names, texts, packed = map(fh.read, sizes)
        try:
            check_bm25_params(k1, b)
            if zlib.crc32(texts) != texts_crc:
                raise ValueError("texts stream fails its crc32 check")
            # at any whitespace, so a name that is empty or holds some fails the count below
            names = zlib.decompress(names).decode("utf-8").split()
            doc_lens, dfs, gaps, tfs, text_lens = _read_arrays(
                zlib.decompress(packed), shape[:5], shape[5:])
            doc_count = len(doc_lens)
            if not doc_count:
                raise ValueError("index holds no documents")
            if len(names) != doc_count + len(dfs):
                raise ValueError(f"names stream holds {len(names)} names, not "
                                 f"{doc_count} document ids and {len(dfs)} terms")
            doc_ids, terms = names[:doc_count], names[doc_count:]
            if len(set(doc_ids)) != doc_count:
                raise ValueError("duplicate document id")
            if not all(map(lt, terms, terms[1:])):
                raise ValueError("terms are not strictly ascending")
            if not (sum(dfs) == len(gaps) == len(tfs) and len(text_lens) == doc_count):
                raise ValueError("section lengths disagree")
        except (zlib.error, ValueError) as exc:
            raise DataFormatError(f"{path}: corrupt index payload ({exc})") from exc
        return cls(terms, [0, *accumulate(dfs)], gaps, tfs, doc_ids, doc_lens.tolist(),
                   partial(_decode_texts, path, texts, text_lens), k1=k1, b=b, source=path)


def _decode_texts(path: str, stream: bytes, lengths: array) -> list[str]:
    """The texts stream of the index file at ``path``, cut at the byte ``lengths``.

    Raises:
        DataFormatError: if the lengths do not add up to the stream, or a text
            is not UTF-8.
    """
    try:
        blob = zlib.decompress(stream)
        total = sum(lengths)
        if total != len(blob):
            raise ValueError(f"text lengths sum to {total} bytes, not the texts "
                             f"stream's {len(blob)}")
        view, ends = memoryview(blob), list(accumulate(lengths))
        texts = [str(view[start:end], "utf-8") for start, end in zip([0, *ends], ends)]
    except (zlib.error, ValueError) as exc:
        raise DataFormatError(f"{path}: corrupt index payload ({exc})") from exc
    return texts


def _planes(values: array) -> tuple[int, bytes]:
    """The narrowest width that holds ``values``, and their byte planes at that width."""
    top = max(values, default=0)
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    raw, step = values.tobytes(), values.itemsize  # the planes past width are all zero
    return width, b"".join(raw[plane::step] for plane in range(width))


def _read_arrays(raw: bytes, counts: Sequence[int], widths: Sequence[int]) -> list[array]:
    bad = [w for w in widths if w not in (1, 2, 4)]
    if bad:
        raise ValueError(f"array width {bad[0]} is not 1, 2 or 4")
    if sum(c * w for c, w in zip(counts, widths)) != len(raw):
        raise ValueError(f"array sizes do not sum to {len(raw)} bytes")
    arrays, offset, view = [], 0, memoryview(raw)
    for count, width in zip(counts, widths):
        interleaved = bytearray(count * width)
        for plane in range(width):
            start = offset + plane * count
            interleaved[plane::width] = view[start:start + count]
        values = array(_TYPECODES[width])
        values.frombytes(interleaved)
        if sys.byteorder == "big":
            values.byteswap()
        arrays.append(values)
        offset += count * width
    return arrays


def build_index(
    docs: Sequence[Document],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> InvertedIndex:
    """Tokenize and index a document collection.

    Raises:
        ValueError: on a k1 or b that ``check_bm25_params`` refuses.
        DataFormatError: on an empty collection, a document id that is empty or
            holds whitespace (``is_single_field``), or duplicate document ids.
    """
    check_bm25_params(k1, b)
    if not docs:
        raise DataFormatError("cannot build an index over an empty collection")
    seen: set[str] = set()
    flat: dict[str, list[int]] = {}  # term -> [ordinal, tf, ordinal, tf, ...]
    doc_ids: list[str] = []
    doc_lens: list[int] = []
    doc_texts: list[str] = []
    for ordinal, doc in enumerate(docs):
        if not is_single_field(doc.id):
            raise DataFormatError(f"document id {doc.id!r} is empty or contains whitespace")
        if doc.id in seen:
            raise DataFormatError(f"duplicate document id '{doc.id}'")
        seen.add(doc.id)
        tokens = tokenize(doc.text)
        doc_ids.append(doc.id)
        doc_lens.append(len(tokens))
        doc_texts.append(doc.text)
        for term, tf in Counter(tokens).items():
            entry = flat.get(term)
            if entry is None:
                flat[term] = [ordinal, tf]
            else:
                entry += (ordinal, tf)
    terms = sorted(flat)
    gaps, tfs = array(_U32), array(_U32)
    for term in terms:
        entry = flat[term]
        run = entry[0::2]
        gaps.extend(map(sub, run, chain((0,), run)))
        tfs.extend(entry[1::2])
    offsets = [0, *accumulate(len(flat[term]) // 2 for term in terms)]
    return InvertedIndex(terms, offsets, gaps, tfs, doc_ids, doc_lens, doc_texts, k1=k1, b=b)
