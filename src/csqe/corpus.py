"""Corpus, query and token handling.

File formats:
    corpus   JSONL, one object per line with string fields "id" (no
             whitespace) and "contents" and an optional "title" (prepended
             with one space)
    queries  TSV, ``qid<TAB>query text``; the qid has no whitespace

Each parser takes a file opened ``"rb"`` and reads it in 64 KiB chunks,
decoding each as UTF-8 and splitting it into lines on "\\n" only; memory
holds one chunk and one line of the file, not the whole file.

Tokenization is lowercase, split on runs of non-alphanumeric characters,
stopword removal (bundled English list), then Porter stemming. A character
is alphanumeric when ``str.isalnum()`` says so, which on every code point is
the regex class ``[^\\W_]``. Lowercased ASCII text is split by one
``str.translate`` pass that turns every other character into a space, then
``str.split()``; that gives the same tokens as the regex, which splits any
other text.

``tokenize`` keeps each word's index term in one module-level memo, a dict
of at most ``1 << 16`` words (a stopword's term is ``""``) that is cleared
when it would outgrow that bound; a corpus repeats a small vocabulary many
times over, so most words are read from it and only the others are stemmed.
"""

import json
import re
import threading
from dataclasses import dataclass
from importlib import resources
from typing import BinaryIO, Iterator

from .errors import DataFormatError
from .stemmer import stem

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# All 128 ASCII codes, so translate never misses a key: alphanumerics map to
# themselves and every other code to a space
_ASCII_SEPARATORS = {c: c if chr(c).isalnum() else ord(" ") for c in range(128)}
# Bytes per read of a corpus, queries, qrels or run file (see _iter_lines)
_CHUNK_SIZE = 1 << 16
# word -> index term ("" for a stopword); tokenize reads it, _term fills it
_TERMS: dict[str, str] = {}
_TERMS_LOCK = threading.Lock()  # held to check the bound, clear and store
_MEMO_SIZE = 1 << 16


@dataclass(frozen=True)
class Document:
    """A corpus unit: stable external id plus raw text."""

    id: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str


def _load_stopwords() -> frozenset:
    data = resources.files("csqe").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in data.splitlines() if line.strip())


STOPWORDS = _load_stopwords()


def tokenize(text: str) -> list[str]:
    """Normalize raw text into index terms.

    Lowercases, splits on any maximal run of non-alphanumeric characters
    (``str.isalnum()``, the regex ``[^\\W_]``), drops stopwords, and
    Porter-stems each surviving token. Empty input yields an empty list.
    ASCII text is split by the translate pass, into the tokens the regex
    would give. Each word's term is read from the memo; a word it does not
    hold is stemmed and stored.
    """
    text = text.lower()
    if text.isascii():
        words = text.translate(_ASCII_SEPARATORS).split()
    else:
        words = _TOKEN_RE.findall(text)
    try:
        return list(filter(None, map(_TERMS.__getitem__, words)))
    except KeyError:  # a word the memo does not hold
        return list(filter(None, map(_term, words)))


def _term(word: str) -> str:
    """The index term of a lowercase ``word``, ``""`` for a stopword; a miss fills the memo."""
    term = _TERMS.get(word)
    if term is None:
        term = "" if word in STOPWORDS else stem(word)
        with _TERMS_LOCK:
            if len(_TERMS) >= _MEMO_SIZE:
                _TERMS.clear()
            _TERMS[word] = term
    return term


def truncate_whitespace_tokens(text: str, max_tokens: int) -> str:
    """Keep at most ``max_tokens`` whitespace-separated pieces.

    Pieces are rejoined with single spaces, so runs of whitespace are
    normalized even when the text is under budget.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    return " ".join(text.split()[:max_tokens])


def is_single_field(text: str) -> bool:
    """True when ``text`` is non-empty and has no whitespace (``str.isspace``).

    Ids and run tags are written as fields of whitespace-separated lines, so
    each must stay one field when such a line is split.
    """
    return text.split() == [text]


def _iter_lines(stream: BinaryIO, kind: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` pairs of a binary file; ``kind`` names it in errors.

    The pairs are those of ``enumerate(data.decode("utf-8").split("\\n"), 1)``
    for the file's bytes ``data``: lines end at ``"\\n"`` only, so ``"\\r"``,
    form feeds, U+0085 and U+2028 stay inside their line, and a file that ends
    with ``"\\n"``, or is empty, ends with an empty line. The file is read in
    ``_CHUNK_SIZE`` chunks. Each chunk is cut after its last ``b"\\n"`` and the
    part before the cut decoded once; the rest is carried into the next
    chunk. So memory holds one chunk and one line, not the file. On bytes that
    are not UTF-8 the lines before the bad one are yielded first, then
    ``DataFormatError`` names the bad line.
    """
    lineno = 0
    pending: list[bytes] = []  # the unterminated line so far, one piece per read
    while chunk := stream.read(_CHUNK_SIZE):
        end = chunk.rfind(b"\n")
        if end < 0:
            pending.append(chunk)
            continue
        # decoded through a view, not a copy; a multi-byte sequence never spans b"\n"
        head = memoryview(chunk)[:end]
        if pending:
            head = b"".join([*pending, head])
        try:
            lines = str(head, "utf-8").split("\n")
        except UnicodeDecodeError as exc:
            yield from _lines_before_bad_bytes(bytes(head), exc, kind, lineno)
        yield from enumerate(lines, start=lineno + 1)
        lineno += len(lines)
        pending = [chunk[end + 1:]]
    last = b"".join(pending)
    try:
        text = last.decode("utf-8")
    except UnicodeDecodeError as exc:
        yield from _lines_before_bad_bytes(last, exc, kind, lineno)
    yield lineno + 1, text


def _lines_before_bad_bytes(data: bytes, exc: UnicodeDecodeError, kind: str, lineno: int):
    """Yield the lines of ``data`` (after line ``lineno``) before the one ``exc`` found not
    UTF-8, then raise ``DataFormatError`` naming that line."""
    good = data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8").split("\n")[:-1]
    yield from enumerate(good, start=lineno + 1)
    raise DataFormatError(f"{kind} line {lineno + len(good) + 1}: not valid UTF-8") from exc


def parse_jsonl_corpus(stream: BinaryIO) -> list[Document]:
    """Parse a JSONL corpus file opened ``"rb"`` into documents, in file order.

    Raises:
        DataFormatError: on bytes that are not UTF-8, malformed JSON, or a
            missing/invalid field (including an id with whitespace, and a
            lone surrogate escape, which cannot be written back as UTF-8);
            the message carries the line number. Duplicate document ids are
            left to ``build_index``.
    """
    docs: list[Document] = []
    for lineno, line in _iter_lines(stream, "corpus"):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"corpus line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise DataFormatError(f"corpus line {lineno}: expected a JSON object")
        doc_id = obj.get("id")
        contents = obj.get("contents")
        if not isinstance(doc_id, str) or not doc_id:
            raise DataFormatError(f"corpus line {lineno}: missing or empty string field 'id'")
        if not is_single_field(doc_id):
            raise DataFormatError(f"corpus line {lineno}: field 'id' contains whitespace")
        if not isinstance(contents, str):
            raise DataFormatError(f"corpus line {lineno}: missing string field 'contents'")
        title = obj.get("title")
        if title is not None and not isinstance(title, str):
            raise DataFormatError(f"corpus line {lineno}: field 'title' must be a string")
        for name, value in (("id", doc_id), ("title", title or ""), ("contents", contents)):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:  # a \ud800-style escape decodes to a lone surrogate
                raise DataFormatError(
                    f"corpus line {lineno}: field '{name}' is not valid UTF-8 ({exc.reason})"
                ) from exc
        text = f"{title} {contents}" if title else contents
        docs.append(Document(id=doc_id, text=text))
    return docs


def parse_queries_tsv(stream: BinaryIO) -> list[Query]:
    """Parse the ``qid<TAB>text`` lines of a file opened ``"rb"`` into queries.

    Raises:
        DataFormatError: on a line without a tab, an empty id or text, an
            id with whitespace, or a duplicate query id.
    """
    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, line in _iter_lines(stream, "queries"):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataFormatError(f"queries line {lineno}: expected 'qid<TAB>text'")
        qid, text = line.split("\t", 1)
        qid = qid.strip()
        text = text.strip()
        if not qid:
            raise DataFormatError(f"queries line {lineno}: empty query id")
        if not is_single_field(qid):
            raise DataFormatError(f"queries line {lineno}: query id '{qid}' contains whitespace")
        if not text:
            raise DataFormatError(f"queries line {lineno}: empty query text")
        if qid in seen:
            raise DataFormatError(f"queries line {lineno}: duplicate query id '{qid}'")
        seen.add(qid)
        queries.append(Query(id=qid, text=text))
    return queries
