"""Inverted index over a document collection with Okapi BM25 ranking.

Scoring uses idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) and the usual
tf saturation with length normalization; defaults k1=0.9, b=0.4. A search
returns a ``Ranking``: the doc ids and the scores as two parallel lists,
ordered by score descending with ties broken by external doc id ascending, so
rankings do not depend on corpus input order. That holds for
equal float scores. A document's score sums its terms' contributions in
query term order, so two documents whose scores are equal in exact
arithmetic can still differ in the last bit when their equal contributions
are summed in a different order, and are then ordered by that rounding. The
benchmark's ``csqe-stub`` workload, seed 1719, q0009 has such a pair:
d000315 and d000155, with tfs (1, 1, 3) and (3, 1, 1) on three query terms,
print the same score and are ranked by how ``(x1 + y) + x3`` and ``(x3 + y)
+ x1`` round.

Documents are numbered in doc-id order, whatever order the corpus lists them
in: ordinal ``i`` is the ``i``-th smallest id. In memory the postings are
compressed sparse rows: the posting lists of the sorted terms laid end to end
in two ``array``s, ``gaps`` and ``tfs``, with term ``i``'s list at
``offsets[i]:offsets[i + 1]``. A term's slot ``i`` and a document's ordinal
are found by bisection in the sorted ``terms`` and ``doc_ids``, so opening an
index builds nothing per term or per document. ``gaps`` holds each list's
document ordinals, ascending, gap-coded as in the file (the first entry is the
ordinal itself, each later one the distance to the one before), and a loaded
index keeps both arrays at the width the file stored. On a term's first use a
search decodes its ordinals and computes the term's idf and each posting's
impact, the part of its BM25 term score that no query changes,
``c = tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avglen))``, and keeps the
``(idf, ordinals, impacts)`` triple, in a dict keyed by term, for later
searches (a term the index lacks is not kept): a query decodes only
the lists it reads, and a term of weight ``w`` adds ``w * idf * c`` to each of
its documents, one multiply per posting. The arrays cost 12 bytes per decoded
posting.

A search first decodes every list it reads and sums their lengths ``P``;
nothing is scored before each of them has passed its first-use checks. The
scores then go to one of two accumulators, picked by how much of the
collection the query reaches. When ``2 * P >= doc_count`` most documents are
candidates: each gets a slot in a list of ``doc_count`` floats, and the
candidates are read off that list in ordinal order. Below that, a dict holds
the scores of the documents reached, and its keys are sorted. A stable sort by
score follows, so ties stay in ordinal order, which is doc-id order. Either
way only documents with a positive score are ranked: one whose contributions
all round to 0.0 is left out, like one that no term reaches. Both accumulators add a
document's contributions in query term order, so they give bit-identical
scores. CSQE's composed query reaches 4.5-11 postings per document of the
benchmark corpora and RM3's weighted query 1.1-4.3, so both take the list; a
first pass reaches under 0.04 and takes the dict.

On-disk layout (format version 6): the 8-byte magic ``CSQEIDX1``, the
version as a little-endian u32, a header ``<dd3QI5Q5BI`` (k1, b, the byte size
of each of the three zlib streams that follow, the crc32 of the second
stream as stored, the count and the byte width of each of the five arrays
below, then the crc32 of every byte before it, magic and version included),
and the three streams, each at zlib level 5:

1. the document ids, then the terms, each sorted, as UTF-8 joined with ``"\n"``;
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

An index holds its texts in one form, a function that returns the texts
stream and each text's byte length: a built index's deflate worker (below), or
a loaded index's stream as the file stored it. ``save`` writes what it
returns, and ``doc_texts`` decodes it on the first read, once per index, so a
built index decompresses the stream its own worker deflated. Only RM3 and CSQE
read texts: a bm25 run or ``csqe search`` never decompresses one.

zlib releases the interpreter lock while it works, so three of its calls run
on a worker thread (``_Worker``, named ``csqe-<function>``) beside the thread
that started it:

- ``build_index`` deflates the texts stream, from once the documents are
  sorted by id, while it tokenizes them;
- ``save`` deflates the names stream while it lays out the arrays' byte
  planes and deflates them itself;
- ``load`` inflates the arrays stream while it checks the texts stream's
  crc32, then inflates, decodes, splits and checks the names.

Each return from zlib takes the lock back, which can wait one switch interval,
so zlib is handed few, large calls: the texts worker gives it ``_TEXTS_CHUNK``
bytes of whole texts per call rather than a text per call, and ``load`` gives
the arrays' inflate their byte size as its buffer, so that it returns once.
``save`` and ``load`` join their worker before they return, whatever they
raise. An exception a worker raised, such as ``UnicodeEncodeError`` for a
text holding a lone surrogate, is raised afresh, with its type and chained to
it, by each wait for the worker: by every ``save`` of a built index, before
any file is opened, and by every read of its ``doc_texts``; searches still
answer.

``load`` checks that the header matches its crc32, that k1 and b pass
``check_bm25_params``, that the stream sizes add up to the file, that the
texts stream matches its crc32, that the names stream is UTF-8 and splits at
whitespace into one name per document and term (a name that is empty or holds
whitespace breaks the count), that there is a document, that the array widths
and lengths agree, and that the document ids and the terms are each strictly
ascending, and raises ``DataFormatError`` otherwise. Of several problems, the
first in this order is reported: the header's, the stream sizes, k1 and b, the
texts crc32, the names stream's inflate and UTF-8, the arrays stream's
inflate, widths and size, then no document, the names count, the names' order
and the section lengths. A postings list that names a document twice, or one
that does not exist, raises ``DataFormatError`` from the first search that
reads it, before its triple is kept, so it is never scored and every later
search of the term raises again: a search reads a few hundred of the lists,
and checking all of them was about half of a load. A texts stream that passes
its crc32 but whose text lengths do not add up to its size, or whose texts are
not UTF-8, raises ``DataFormatError`` from the first read of ``doc_texts``.
Files of earlier format versions, 5 included (its ids may be out of order),
are refused with ``unsupported index format version <n>``.
"""

import math
import os
import struct
import sys
import threading
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from itertools import accumulate, chain, compress
from operator import attrgetter, lt, mul, sub
from typing import Callable, Mapping, NamedTuple

from .corpus import Document, is_single_field, replacing, tokenize
from .errors import DataFormatError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

_MAGIC = b"CSQEIDX1"
_FORMAT_VERSION = 6
# k1, b, byte size of each zlib stream, crc32 of the texts stream, count of each array,
# byte width of each array; a u32 crc32 of the magic, the version and these fields follows
_HEADER = struct.Struct("<dd3QI5Q5B")
_TYPECODES = {array(code).itemsize: code for code in "LIHB"}  # byte width -> typecode
_U32 = _TYPECODES[4]
# every stream's; the texts are most of the file and of the time save spends compressing
_ZLIB_LEVEL = 5
# bytes of UTF-8 text the deflate worker hands zlib per call, whole texts at a time. zlib
# releases the interpreter lock while it compresses, and each return takes the lock back,
# which can wait one switch interval (5 ms) while the build holds it: a call per text
# waits more than it overlaps, a few large calls do not. One chunk bounds the input copy.
_TEXTS_CHUNK = 256 * 1024


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
    """One ranked document, as a ``Ranking`` yields it; unpacks as ``(doc_id, score)``."""

    doc_id: str
    score: float


class Ranking(Sequence):
    """Ranked documents as two parallel lists, ``doc_ids`` and ``scores``.

    A read-only sequence of ``ScoredHit``s, each made when it is read; a slice
    is a ``Ranking``. It equals another ``Ranking`` with equal lists. Code that
    reads every hit reads the two lists instead.
    """

    __slots__ = ("doc_ids", "scores")

    def __init__(self, doc_ids: list[str], scores: list[float]):
        self.doc_ids = doc_ids
        self.scores = scores

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ranking(self.doc_ids[i], self.scores[i])
        return ScoredHit(self.doc_ids[i], self.scores[i])

    def __iter__(self):
        return map(ScoredHit, self.doc_ids, self.scores)

    def __eq__(self, other):
        if isinstance(other, Ranking):
            return self.doc_ids == other.doc_ids and self.scores == other.scores
        return NotImplemented

    def __repr__(self) -> str:
        return f"Ranking({self.doc_ids!r}, {self.scores!r})"


class InvertedIndex:
    """Immutable postings index. Build once, search from any thread.

    ``terms`` and ``doc_ids`` are each strictly ascending. ``texts`` returns
    the texts stream and each text's UTF-8 byte length, for a built index from
    its deflate worker: ``save`` writes them, and the first read of
    ``doc_texts`` decodes them, so a built index decompresses its own stream.
    """

    def __init__(
        self,
        terms: list[str],
        offsets: list[int],
        gaps: array,
        tfs: array,
        doc_ids: list[str],
        doc_lens: list[int],
        texts: Callable[[], tuple[bytes, array]],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        source: str = "in-memory index",
    ):
        self.terms = terms
        self.offsets = offsets
        self.gaps = gaps
        self.tfs = tfs
        # term -> its (idf, ordinals, impacts) triple, stored on the term's first use by
        # _rank; the impacts are 8 bytes per decoded posting on top of the ordinals' 4
        self._postings: dict[str, tuple[float, array, array]] = {}
        self.doc_ids = doc_ids
        self.doc_lens = doc_lens
        self._texts = texts
        self._decoded: list[str] | None = None
        self._texts_lock = threading.Lock()
        self.k1 = k1
        self.b = b
        self._source = source  # names the index in the error a damaged postings list raises
        self.doc_count = len(doc_ids)
        avg = sum(doc_lens) / self.doc_count if self.doc_count else 0.0
        # k1 times the length norm of each document; avg is 0 only when every length is
        self._knorm = ([k1 * (1.0 - b + b * n / avg) for n in doc_lens] if avg
                       else [k1 * (1.0 - b)] * len(doc_lens))

    @property
    def doc_texts(self) -> list[str]:
        """The document texts in ordinal order, decoded on the first read."""
        texts = self._decoded
        if texts is None:
            with self._texts_lock:  # concurrent first readers decode once
                if self._decoded is None:
                    self._decoded = _decode_texts(self._source, *self._texts())
                texts = self._decoded
        return texts

    # -- statistics ---------------------------------------------------------

    def df(self, term: str) -> int:
        slot = _find(self.terms, term)
        return 0 if slot is None else self.offsets[slot + 1] - self.offsets[slot]

    def _idf(self, df: int) -> float:
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def ordinal(self, doc_id: str) -> int:
        """The ordinal of ``doc_id``; raises ``KeyError`` if the index lacks it."""
        ordinal = _find(self.doc_ids, doc_id)
        if ordinal is None:
            raise KeyError(doc_id)
        return ordinal

    # -- scoring ------------------------------------------------------------

    def _rank(self, term_weights: Mapping[str, float], k: int) -> Ranking:
        knorm = self._knorm
        decoded = self._postings
        k1p1 = self.k1 + 1.0
        lists: list[tuple[float, array, array]] = []
        reached = 0  # postings the query reads
        for term, weight in term_weights.items():
            if weight == 0.0:
                continue
            postings = decoded.get(term)
            if postings is None:
                slot = _find(self.terms, term)
                if slot is None:
                    continue
                start, end = self.offsets[slot], self.offsets[slot + 1]
                # threads racing on a term's first use each build an equal triple, and a
                # dict item store is atomic, so every reader sees a whole triple: no lock
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
                postings = decoded[term] = self._idf(end - start), ordinals, impacts
            idf, ordinals, impacts = postings
            # weight * idf * c is the term's weighted BM25 score in document o
            lists.append((weight * idf, ordinals, impacts))
            reached += len(ordinals)
        if 2 * reached >= self.doc_count:
            # most documents are candidates: a slot per document, taken in ordinal order
            acc = [0.0] * self.doc_count
            for wi, ordinals, impacts in lists:
                for o, c in zip(ordinals, impacts):
                    acc[o] += wi * c
            score = acc.__getitem__
            ranked = list(compress(range(self.doc_count), acc))
        else:
            scores: dict[int, float] = {}
            get = scores.get
            for wi, ordinals, impacts in lists:
                for o, c in zip(ordinals, impacts):
                    scores[o] = get(o, 0.0) + wi * c
            score = scores.__getitem__
            ranked = sorted(scores)
        # candidates in ordinal (doc-id) order, then a stable sort by score: ties keep it
        ranked.sort(key=score, reverse=True)
        top = ranked[:k]
        # no score is below 0.0, so documents whose contributions all rounded to 0.0 come
        # last, and are not ranked (compress never takes one from the slots)
        while top and not score(top[-1]):
            top.pop()
        return Ranking(list(map(self.doc_ids.__getitem__, top)), list(map(score, top)))

    def search(self, query_text: str, k: int) -> Ranking:
        """Top-k BM25 search. Duplicate query tokens act as integer weights."""
        if k < 1:
            raise ValueError("k must be >= 1")
        tokens = tokenize(query_text)
        if not tokens:
            return Ranking([], [])
        return self._rank(Counter(tokens), k)

    def search_weighted(self, weights: Mapping[str, float], k: int) -> Ranking:
        """Top-k search where each term contributes weight times its BM25 term score.

        Raises:
            ValueError: on a k below 1, a weight that is not finite or is
                negative, or no positive weight (an empty mapping included).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        for term, w in weights.items():
            if not (math.isfinite(w) and w >= 0.0):  # _rank takes no weight below 0.0
                raise ValueError(f"weight for term '{term}' must be finite and >= 0")
        if not any(weights.values()):
            raise ValueError("weighted query needs at least one positive weight")
        # sorted term order keeps float accumulation reproducible
        return self._rank({t: weights[t] for t in sorted(weights)}, k)

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        texts, text_lens = self._texts()  # a built index's worker: waits for the deflate
        names = "\n".join(chain(self.doc_ids, self.terms)).encode("utf-8")
        # zlib releases the interpreter lock: the names deflate beside the arrays below
        with _Worker(zlib.compress, names, _ZLIB_LEVEL) as names_stream:
            dfs = array(_U32, map(sub, self.offsets[1:], self.offsets))
            arrays = [array(_U32, self.doc_lens), dfs, self.gaps, self.tfs, text_lens]
            widths, planes = zip(*map(_planes, arrays))
            packed = zlib.compress(b"".join(planes), _ZLIB_LEVEL)
            streams = [names_stream(), texts, packed]
        header = _MAGIC + struct.pack("<I", _FORMAT_VERSION) + _HEADER.pack(
            self.k1, self.b, *map(len, streams), zlib.crc32(streams[1]), *map(len, arrays),
            *widths)
        with replacing(path) as fh:
            fh.write(header + struct.pack("<I", zlib.crc32(header)))
            fh.writelines(streams)

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        prefix = len(_MAGIC) + 4
        end = prefix + _HEADER.size  # where the header's crc32 starts
        with open(path, "rb") as fh:
            head = fh.read(end + 4)
            if len(head) < prefix or head[: len(_MAGIC)] != _MAGIC:
                raise DataFormatError(f"{path}: not an index file (bad magic)")
            (version,) = struct.unpack_from("<I", head, len(_MAGIC))
            if version != _FORMAT_VERSION:
                raise DataFormatError(f"{path}: unsupported index format version {version}")
            if len(head) < end + 4:
                raise DataFormatError(f"{path}: corrupt index payload (truncated header)")
            if struct.unpack_from("<I", head, end)[0] != zlib.crc32(head[:end]):
                raise DataFormatError(f"{path}: corrupt index payload (header fails its crc32 "
                                      "check)")
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
        doc_count, term_count = shape[:2]
        # the arrays' byte size as the inflate's buffer, so that zlib fills it in one call
        # and takes the interpreter lock back once, not once per block of a growing
        # buffer; deflate expands at most 1032-fold, which bounds what a damaged header asks
        size = min(sum(map(mul, shape[:5], shape[5:])), 1032 * len(packed)) + 1
        # zlib releases the interpreter lock: the arrays inflate beside the names below
        with _Worker(zlib.decompress, packed, zlib.MAX_WBITS, size) as unpacked:
            try:
                check_bm25_params(k1, b)
                if zlib.crc32(texts) != texts_crc:
                    raise ValueError("texts stream fails its crc32 check")
                # at any whitespace, so a name that is empty or holds some fails the count
                names = zlib.decompress(names).decode("utf-8").split()
                doc_ids, terms = names[:doc_count], names[doc_count:]
                # found beside the inflate, raised after the arrays' own problems
                problem = _names_problem(doc_ids, terms, doc_count, term_count)
                doc_lens, dfs, gaps, tfs, text_lens = _read_arrays(
                    unpacked(), shape[:5], shape[5:])
                if problem:
                    raise ValueError(problem)
                offsets = [0, *accumulate(dfs)]
                if not (offsets[-1] == len(gaps) == len(tfs) and len(text_lens) == doc_count):
                    raise ValueError("section lengths disagree")
            except (zlib.error, ValueError) as exc:
                raise DataFormatError(f"{path}: corrupt index payload ({exc})") from exc
        return cls(terms, offsets, gaps, tfs, doc_ids, doc_lens.tolist(),
                   lambda: (texts, text_lens), k1=k1, b=b, source=path)


def _find(names: list[str], name: str) -> int | None:
    """The position of ``name`` in the strictly ascending ``names``, or None."""
    i = bisect_left(names, name)
    return i if i < len(names) and names[i] == name else None


def _names_problem(doc_ids: list[str], terms: list[str], doc_count: int,
                   term_count: int) -> str | None:
    """What is wrong with the names of a file whose header counts ``doc_count``
    documents and ``term_count`` terms, split into its first ``doc_count`` and
    the rest, or None: no document, a count that does not add up, or names that
    are not strictly ascending."""
    if not doc_count:
        return "index holds no documents"
    if len(doc_ids) + len(terms) != doc_count + term_count:
        return (f"names stream holds {len(doc_ids) + len(terms)} names, not {doc_count} "
                f"document ids and {term_count} terms")
    for what, sorted_names in (("document ids", doc_ids), ("terms", terms)):
        if not all(map(lt, sorted_names, sorted_names[1:])):
            return f"{what} are not strictly ascending"
    return None


def _decode_texts(source: str, stream: bytes, lengths: array) -> list[str]:
    """The texts ``stream`` of the index ``source`` names, cut at the byte ``lengths``.

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
        raise DataFormatError(f"{source}: corrupt index payload ({exc})") from exc
    return texts


class _Worker:
    """Runs ``fn(*args)`` on a thread of its own, named ``csqe-<fn>``, started at once.

    ``fn`` is meant to spend its time in a call that releases the interpreter
    lock, such as zlib's, so that it runs beside the thread that started it.
    Calling the worker waits for the thread, then returns what ``fn``
    returned, or raises a fresh exception of the type ``fn`` raised, chained to
    it, so that each call's traceback holds only its own frames. Leaving a
    ``with`` block over the worker waits for the thread, whatever the block
    raised.
    """

    def __init__(self, fn: Callable, *args):
        self._result = self._error = None
        self._thread = threading.Thread(target=self._run, args=(fn, args),
                                        name="csqe-" + fn.__name__.lstrip("_"))
        self._thread.start()

    def _run(self, fn: Callable, args: tuple) -> None:
        try:
            self._result = fn(*args)
        except BaseException as exc:  # raised again on each thread that calls the worker
            self._error = exc

    def __call__(self):
        self._thread.join()
        if self._error is not None:
            raise type(self._error)(*self._error.args) from self._error
        return self._result

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        self._thread.join()


def _deflate_texts(texts: list[str]) -> tuple[bytes, array]:
    """The texts as UTF-8, end to end, deflated; and each text's byte length.

    Deflate's output does not depend on how its input is cut, so the stream is
    the same whatever ``_TEXTS_CHUNK`` is.
    """
    packer, packed, lens, chunk = zlib.compressobj(_ZLIB_LEVEL), [], array(_U32), bytearray()
    for raw in map(str.encode, texts):
        lens.append(len(raw))
        chunk += raw
        if len(chunk) >= _TEXTS_CHUNK:
            packed.append(packer.compress(chunk))
            chunk.clear()
    packed += packer.compress(chunk), packer.flush()
    return b"".join(packed), lens


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
    """Tokenize and index a document collection, numbering it in doc-id order.

    Raises:
        ValueError: on a k1 or b that ``check_bm25_params`` refuses.
        DataFormatError: on an empty collection, a document id that is empty or
            holds whitespace (``is_single_field``), or duplicate document ids.
    """
    check_bm25_params(k1, b)
    if not docs:
        raise DataFormatError("cannot build an index over an empty collection")
    seen: set[str] = set()
    for doc in docs:
        if not is_single_field(doc.id):
            raise DataFormatError(f"document id {doc.id!r} is empty or contains whitespace")
        if doc.id in seen:
            raise DataFormatError(f"duplicate document id '{doc.id}'")
        seen.add(doc.id)
    docs = sorted(docs, key=attrgetter("id"))
    doc_ids = [doc.id for doc in docs]
    doc_texts = [doc.text for doc in docs]
    # zlib releases the interpreter lock, so the texts deflate while the loop below tokenizes
    texts = _Worker(_deflate_texts, doc_texts)
    doc_lens: list[int] = []
    flat: dict[str, list[int]] = {}  # term -> [ordinal, tf, ordinal, tf, ...]
    for ordinal, text in enumerate(doc_texts):
        tokens = tokenize(text)
        doc_lens.append(len(tokens))
        for term, tf in Counter(tokens).items():
            entry = flat.get(term)
            if entry is None:
                flat[term] = [ordinal, tf]
            else:
                entry += (ordinal, tf)
    terms = sorted(flat)
    offsets = [0, *accumulate(len(flat[term]) >> 1 for term in terms)]
    # each term's list goes into one array and out of the dict, so the lists and
    # the array never both hold every posting
    pairs = array(_U32)
    for term in terms:
        pairs.fromlist(flat.pop(term))
    ordinals, tfs = pairs[0::2], pairs[1::2]
    del pairs
    # each ordinal's predecessor in its list, 0 for the first: their differences are the gaps
    before = array(_U32, [0]) + ordinals[:-1]
    for start in offsets[:-1]:
        before[start] = 0
    gaps = array(_U32, map(sub, ordinals, before))
    return InvertedIndex(terms, offsets, gaps, tfs, doc_ids, doc_lens, texts, k1=k1, b=b)
