import io
import json
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import csqe.corpus
from csqe.corpus import (
    _ASCII_SEPARATORS,
    _TOKEN_RE,
    _iter_lines,
    Document,
    STOPWORDS,
    parse_jsonl_corpus,
    parse_queries_tsv,
    tokenize,
    truncate_whitespace_tokens,
)
from csqe.errors import DataFormatError
from csqe.stemmer import stem

from oracles import iter_lines_whole_file


def _bytes_stream(text):
    return io.BytesIO(text.encode("utf-8"))


# -- tokenize ----------------------------------------------------------------


def test_tokenize_stems_and_lowercases():
    assert tokenize("Biology definition") == ["biolog", "definit"]


def test_tokenize_drops_stopwords():
    assert tokenize("the of and") == []


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_nonalnum_runs():
    assert tokenize("warm-blooded?? sharks!!") == ["warm", "blood", "shark"]


def test_tokenize_keeps_digits():
    assert tokenize("top 128 tokens") == ["top", "128", "token"]


# Porter is not idempotent on arbitrary English (agreed -> agre -> agr, and
# stems can land back in the stopword list: willing -> will), so the
# idempotence property is checked over a stem-stable vocabulary.
_STABLE_VOCAB = [
    "shark", "warm", "cold", "fish", "water", "light", "storm",
    "blood", "green", "solar", "polar", "tea", "sky", "ion",
]


def test_stable_vocab_is_actually_stable():
    for word in _STABLE_VOCAB:
        assert stem(word) == word
        assert word not in STOPWORDS


@given(
    st.lists(st.sampled_from(_STABLE_VOCAB), min_size=0, max_size=30),
    st.randoms(use_true_random=False),
)
def test_tokenize_idempotent_on_joined_output(words, rng):
    # random casing and separators exercise normalization, not just stemming
    seps = [" ", "  ", ", ", "! ", "\t", " - "]
    text = "".join(w.upper() if rng.random() < 0.3 else w + rng.choice(seps) for w in words)
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text())
def test_tokenize_output_shape(text):
    for token in tokenize(text):
        assert token
        assert token == token.lower()


def _tokenize_uncached(text):
    return [stem(t) for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


@settings(max_examples=300)
@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
def test_tokenize_matches_the_regex_definition(text):
    # the ASCII alphabet draws punctuation, digits, "_" and every whitespace character
    assert tokenize(text) == _tokenize_uncached(text)


@pytest.mark.parametrize("text, expected", [
    ("\u212aelvin_7", ["kelvin", "7"]),  # Kelvin sign: lowercases to an ASCII "k"
    ("\u0130stanbul_7", ["i", "stanbul", "7"]),  # lowercases to "i\u0307", a letter and a mark
    ("\u212a_\u0130x", ["k", "i", "x"]),
])
def test_tokenize_where_lowercasing_changes_asciiness(text, expected):
    assert tokenize(text) == _tokenize_uncached(text) == expected


def test_ascii_separators_space_out_exactly_what_the_regex_rejects():
    assert sorted(_ASCII_SEPARATORS) == list(range(128))
    for code in range(128):
        char = chr(code)
        assert char.translate(_ASCII_SEPARATORS) == (char if _TOKEN_RE.fullmatch(char) else " ")


_words_and_text = st.lists(
    st.one_of(st.sampled_from(["running", "runs", "ponies", "relational", "The", "sky"]),
              st.text(max_size=12)),
    max_size=20,
).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(st.lists(_words_and_text, min_size=1, max_size=6))
def test_memoized_tokenize_matches_uncached_stemming_from_four_threads(texts):
    expected = [_tokenize_uncached(t) for t in texts]
    csqe.corpus._TERMS.clear()  # the threads race to fill the memo
    barrier = threading.Barrier(4, timeout=5)
    results = [None] * 4

    def work(i):
        barrier.wait()
        results[i] = [tokenize(t) for t in texts]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # a bound of 4 words clears the memo many times while the threads read it
        with mock.patch.object(csqe.corpus, "_MEMO_SIZE", 4):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
    assert [tokenize(t) for t in texts] == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(_words_and_text, min_size=1, max_size=8))
def test_tokenize_matches_the_definition_before_across_and_after_a_memo_clear(texts):
    memo = csqe.corpus._TERMS
    memo.clear()
    sizes = []
    with mock.patch.object(csqe.corpus, "_MEMO_SIZE", 3):
        for text in texts * 2:  # the second round reads words the first stored or lost
            assert tokenize(text) == _tokenize_uncached(text)
            sizes.append(len(memo))
    assert max(sizes) <= 3
    assert [tokenize(t) for t in texts] == [_tokenize_uncached(t) for t in texts]


def test_word_memo_stays_within_its_bound():
    memo, bound = csqe.corpus._TERMS, csqe.corpus._MEMO_SIZE
    assert bound == 1 << 16
    memo.clear()
    try:
        words = [f"w{i}" for i in range(bound + 5000)]
        for start in range(0, len(words), 8192):
            chunk = words[start:start + 8192]
            assert tokenize(" ".join(chunk)) == chunk  # no Porter rule changes "w<digits>"
            assert len(memo) <= bound
        assert memo.keys() == set(words[bound:])  # cleared once, at the bound
    finally:
        memo.clear()


# -- truncate_whitespace_tokens ----------------------------------------------


@pytest.mark.parametrize(
    "text,max_tokens,expected",
    [
        ("a b c d", 2, "a b"),
        ("a b", 5, "a b"),
        ("a  b\tc", 3, "a b c"),
    ],
)
def test_truncate_examples(text, max_tokens, expected):
    assert truncate_whitespace_tokens(text, max_tokens) == expected


def test_truncate_rejects_zero_budget():
    with pytest.raises(ValueError):
        truncate_whitespace_tokens("a b", 0)


@given(st.text(), st.integers(min_value=1, max_value=50))
def test_truncate_never_exceeds_budget(text, max_tokens):
    out = truncate_whitespace_tokens(text, max_tokens)
    assert len(out.split()) <= max_tokens


# -- parse_jsonl_corpus --------------------------------------------------------


def test_parse_corpus_basic():
    docs = parse_jsonl_corpus(_bytes_stream('{"id":"d1","contents":"sharks are fish"}\n'))
    assert docs == [Document("d1", "sharks are fish")]


def test_parse_corpus_title_prepended():
    stream = _bytes_stream('{"id":"d2","title":"Biology","contents":"the study of life"}\n')
    assert parse_jsonl_corpus(stream) == [Document("d2", "Biology the study of life")]


def test_parse_corpus_bad_json_reports_line():
    stream = _bytes_stream('{"id":"d1","contents":"x"}\nnot json\n')
    with pytest.raises(DataFormatError, match="line 2"):
        parse_jsonl_corpus(stream)


def test_parse_corpus_missing_contents():
    with pytest.raises(DataFormatError, match="contents"):
        parse_jsonl_corpus(_bytes_stream('{"id":"d1"}\n'))


@pytest.mark.parametrize("line", [
    '{"id":"a","contents":"bad \\ud800 text"}',
    '{"id":"a\\udfff","contents":"x"}',
    '{"id":"a","title":"\\udc00","contents":"x"}',
])
def test_parse_corpus_rejects_lone_surrogates_with_line(line):
    stream = _bytes_stream('{"id":"ok","contents":"fine"}\n' + line + "\n")
    with pytest.raises(DataFormatError, match="corpus line 2: field '.*' is not valid UTF-8"):
        parse_jsonl_corpus(stream)


def test_parse_corpus_accepts_an_escaped_surrogate_pair():
    docs = parse_jsonl_corpus(_bytes_stream('{"id":"a","contents":"\\ud83d\\ude00"}\n'))
    assert docs == [Document("a", "\U0001f600")]


def test_parse_corpus_rejects_bytes_that_are_not_utf8():
    stream = io.BytesIO(b'{"id":"a","contents":"x"}\n{"id":"b","contents":"caf\xe9"}\n')
    with pytest.raises(DataFormatError, match="corpus line 2: not valid UTF-8"):
        parse_jsonl_corpus(stream)


@pytest.mark.parametrize("doc_id", ["d 1", "d\t1", "d\u20281"])
def test_parse_corpus_rejects_an_id_with_whitespace(doc_id):
    line = json.dumps({"id": doc_id, "contents": "x"}, ensure_ascii=False)
    stream = _bytes_stream('{"id":"ok","contents":"fine"}\n' + line + "\n")
    with pytest.raises(DataFormatError, match="^corpus line 2: field 'id' contains whitespace$"):
        parse_jsonl_corpus(stream)


@pytest.mark.parametrize("char", ["\u2028", "\x85"])
@pytest.mark.parametrize("crlf", [False, True])
def test_parse_corpus_keeps_a_raw_line_separator_inside_its_document(char, crlf):
    end = "\r\n" if crlf else "\n"
    stream = _bytes_stream('{"id":"a","contents":"one' + char + 'two"}' + end
                           + '{"id":"b","contents":"three"}' + end)
    assert parse_jsonl_corpus(stream) == [Document("a", f"one{char}two"), Document("b", "three")]


_doc_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    max_size=40,
)


@given(st.lists(_doc_text, min_size=0, max_size=8))
def test_parse_corpus_round_trip(texts):
    docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
    lines = [json.dumps({"id": d.id, "contents": d.text}, ensure_ascii=False) for d in docs]
    assert parse_jsonl_corpus(_bytes_stream("".join(line + "\n" for line in lines))) == docs


# -- _iter_lines -----------------------------------------------------------------


def _lines_outcome(read, data, kind="run"):
    """The pairs ``read`` yields for ``data`` and the error it ends with, or None."""
    pairs = []
    try:
        for pair in read(io.BytesIO(data), kind):
            pairs.append(pair)
    except DataFormatError as exc:
        return pairs, str(exc)
    return pairs, None


# Pieces that make chunk cuts fall inside multi-byte sequences and "\r\n", lines
# longer than a chunk, and bytes that are not UTF-8 (a lone byte, a truncated
# sequence, an encoded surrogate).
_LINE_PIECES = [b"a", b"q1 Q0", b" ", b"\t", b"\n", b"\n", b"\r\n", b"\r",
                "\u00e9".encode(), "\u20ac".encode(), "\U0001d11e".encode(), b"x" * 40,
                b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=30),
       chunk_size=st.integers(1, 16))
def test_chunked_reader_matches_the_whole_file_reader(pieces, chunk_size):
    data = b"".join(pieces)
    with mock.patch.object(csqe.corpus, "_CHUNK_SIZE", chunk_size):
        assert _lines_outcome(_iter_lines, data) == _lines_outcome(iter_lines_whole_file, data)


@pytest.mark.parametrize("data, expected", [
    (b"", ([(1, "")], None)),
    (b"a\nb", ([(1, "a"), (2, "b")], None)),
    (b"a\n", ([(1, "a"), (2, "")], None)),
    ("\u00e9\u20ac\U0001d11e\n\u20ac".encode(),
     ([(1, "\u00e9\u20ac\U0001d11e"), (2, "\u20ac")], None)),
    (b"a\r\nbc\r\n\r\n", ([(1, "a\r"), (2, "bc\r"), (3, "\r"), (4, "")], None)),
    (b"x" * 100 + b"\n" + b"y" * 50, ([(1, "x" * 100), (2, "y" * 50)], None)),
    (b"ok\n\n" + b"z" * 30 + b"caf\xe9\nnext\n",
     ([(1, "ok"), (2, "")], "run line 3: not valid UTF-8")),
    (b"ok\n" + "\u20ac".encode()[:2], ([(1, "ok")], "run line 2: not valid UTF-8")),
], ids=["empty", "no-final-newline", "final-newline", "multi-byte", "crlf", "long-lines",
        "bad-bytes-in-a-long-line", "truncated-sequence-at-the-end"])
def test_chunked_reader_cuts_anywhere(data, expected):
    assert _lines_outcome(_iter_lines, data) == expected
    for chunk_size in range(1, len(data) + 2):  # every cut, inside sequences and "\r\n" too
        with mock.patch.object(csqe.corpus, "_CHUNK_SIZE", chunk_size):
            assert _lines_outcome(_iter_lines, data) == expected, chunk_size


def test_chunked_reader_holds_one_chunk_not_the_file():
    line = b"q0001 Q0 d000123 1 12.345678 rm3\n"
    stream = io.BytesIO(line * (8_000_000 // len(line)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in _iter_lines(stream, "run"):
            pass
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- parse_queries_tsv ---------------------------------------------------------


def test_parse_queries_basic():
    queries = parse_queries_tsv(_bytes_stream("q1\tBiology definition\n"))
    assert queries[0].id == "q1" and queries[0].text == "Biology definition"


def test_parse_queries_strips_surrounding_whitespace():
    queries = parse_queries_tsv(_bytes_stream("q2\t how are some sharks warm blooded \n"))
    assert queries[0].text == "how are some sharks warm blooded"


def test_parse_queries_missing_tab_reports_line():
    stream = _bytes_stream("q1\ta\nq2\tb\nq3 no tab here\n")
    with pytest.raises(DataFormatError, match="line 3"):
        parse_queries_tsv(stream)


def test_parse_queries_duplicate_id():
    with pytest.raises(DataFormatError, match="q1"):
        parse_queries_tsv(_bytes_stream("q1\ta\nq1\tb\n"))


def test_parse_queries_rejects_an_id_with_whitespace():
    with pytest.raises(DataFormatError,
                       match="^queries line 2: query id 'q 1' contains whitespace$"):
        parse_queries_tsv(_bytes_stream("q0\ta\nq 1\tb\n"))
