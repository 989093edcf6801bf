import json
import math
import os
import random
import struct
import sys
import tempfile
import threading
import time
import zlib
from array import array
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import csqe.index
from csqe.cli import main
from csqe.corpus import Document, tokenize
from csqe.errors import DataFormatError
from csqe.index import InvertedIndex, Ranking, ScoredHit, build_index
from csqe.prf import Rm3Config, rm3_search

from oracles import (DictIndex, bm25_scores, bm25_weighted_scores, build_postings,
                     ranking_from_scores, texts_stream)

# porter-stable, non-stopword alphabet for generated corpora
TOKENS = ["d2", "f3", "g5", "h7", "j9", "k4", "m6", "n8"]


def _docs_from_token_lists(token_lists):
    return [Document(f"doc{i:03d}", " ".join(toks)) for i, toks in enumerate(token_lists)]


# -- build_index ---------------------------------------------------------------


def test_build_index_statistics():
    # token streams: [d e], [e e], [f]
    index = build_index([Document("a", "d e"), Document("b", "e e"), Document("c", "f")])
    assert index.doc_count == 3
    assert sum(index.doc_lens) / index.doc_count == pytest.approx(5 / 3)  # avgdl
    assert index.df("e") == 2
    assert index.df("d") == 1
    assert index.df("zzz") == 0


def test_build_index_allows_empty_document():
    index = build_index([Document("a", ""), Document("b", "f3")])
    assert index.doc_lens[index.ordinal("a")] == 0
    [hit] = index.search("f3", 5)
    assert hit.doc_id == "b"
    assert hit.score == pytest.approx(bm25_scores([[], ["f3"]], ["f3"])[1], rel=1e-12)


def test_build_index_rejects_empty_collection():
    with pytest.raises(DataFormatError):
        build_index([])


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(DataFormatError, match="dup"):
        build_index([Document("dup", "x1"), Document("dup", "x2")])


def test_build_index_names_the_first_bad_id_in_corpus_order():
    # in doc-id order "a b" would come first; the ids are checked before they are sorted
    with pytest.raises(DataFormatError, match="duplicate document id 'z'"):
        build_index([Document("z", "x1"), Document("z", "x2"), Document("a b", "x3")])


@pytest.mark.parametrize("doc_id", ["a b", "a\nb", "a\tb", "a\u2028b", ""])
def test_build_index_refuses_an_id_that_is_empty_or_holds_whitespace(doc_id):
    # ids are fields of run file lines, and the index file separates them with "\n"
    with pytest.raises(DataFormatError, match="is empty or contains whitespace"):
        build_index([Document("ok", "x1"), Document(doc_id, "x2")])


def _decoded_lists(index):
    """Each term's postings ordinals, decoded from ``index.gaps``."""
    return [list(accumulate(index.gaps[start:end]))
            for start, end in zip(index.offsets, index.offsets[1:])]


def test_postings_sorted_and_df_consistent(shark_index):
    index = shark_index
    assert index.terms == sorted(set(index.terms))
    assert index.offsets[0] == 0
    assert index.offsets[-1] == len(index.gaps) == len(index.tfs)
    for term, run in zip(index.terms, _decoded_lists(index), strict=True):
        assert run == sorted(set(run))  # ascending, each document once
        assert index.df(term) == len(run) > 0


# -- term scores (single-term searches) ------------------------------------------


def _scores_by_doc(index, query):
    return {h.doc_id: h.score for h in index.search(query, index.doc_count)}


def test_term_score_single_doc_base_case():
    index = build_index([Document("d1", "zebra")])
    assert _scores_by_doc(index, "zebra")["d1"] == pytest.approx(math.log(4 / 3), rel=1e-12)


def test_term_score_absent_term_is_zero(shark_index):
    assert "d1" not in _scores_by_doc(shark_index, "cold")
    assert _scores_by_doc(shark_index, "shark cold")["d1"] == _scores_by_doc(shark_index, "shark")["d1"]


def test_term_score_monotone_in_tf_and_bounded():
    # one term present in every doc with increasing tf; equal doc lengths
    docs = [Document(f"d{i}", " ".join(["k4"] * (i + 1) + ["f3"] * (8 - i)))
            for i in range(8)]
    index = build_index(docs)
    by_doc = _scores_by_doc(index, "k4")
    scores = [by_doc[f"d{i}"] for i in range(8)]
    assert all(a < b for a, b in zip(scores, scores[1:]))
    df = index.df("k4")
    bound = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5)) * (index.k1 + 1.0)
    assert all(s < bound for s in scores)


# -- search ---------------------------------------------------------------------


def test_search_toy_ranking(shark_index):
    hits = shark_index.search("shark", 10)
    assert [h.doc_id for h in hits] == ["d1", "d2"]
    expected = ranking_from_scores(
        ["d1", "d2", "d3"],
        bm25_scores([["shark", "shark"], ["shark", "warm"], ["cold"]], ["shark"]),
    )
    assert [d for d, _ in expected] == ["d1", "d2"]
    for hit, (_, score) in zip(hits, expected):
        assert hit.score == pytest.approx(score, rel=1e-9)


def test_search_stopword_query_is_empty(shark_index):
    assert shark_index.search("the of and", 10) == Ranking([], [])


def test_search_tie_broken_by_doc_id():
    index = build_index([Document("b", "k4 f3"), Document("a", "k4 f3")])
    hits = index.search("k4", 10)
    assert [h.doc_id for h in hits] == ["a", "b"]
    assert hits[0].score == hits[1].score


def test_search_requires_positive_k(shark_index):
    with pytest.raises(ValueError):
        shark_index.search("shark", 0)


def test_search_duplicate_query_tokens_upweight(shark_index):
    once = {h.doc_id: h.score for h in shark_index.search("shark warm", 10)}
    twice = {h.doc_id: h.score for h in shark_index.search("shark shark warm", 10)}
    base = _scores_by_doc(shark_index, "shark")["d2"]
    assert twice["d2"] - once["d2"] == pytest.approx(base, rel=1e-9)


# -- search_weighted -------------------------------------------------------------


def test_weighted_unit_weight_matches_search(shark_index):
    plain = shark_index.search("shark", 10)
    weighted = shark_index.search_weighted({"shark": 1.0}, 10)
    assert plain == weighted


def test_weighted_scaling_preserves_ranking(shark_index):
    wq1 = {"shark": 1.0, "warm": 0.25}
    wq2 = {"shark": 2.0, "warm": 0.5}
    first = [h.doc_id for h in shark_index.search_weighted(wq1, 10)]
    second = [h.doc_id for h in shark_index.search_weighted(wq2, 10)]
    assert first == second


def test_weighted_toy_oracle(shark_index):
    hits = shark_index.search_weighted({"shark": 1.0, "cold": 10.0}, 10)
    expected = ranking_from_scores(
        ["d1", "d2", "d3"],
        bm25_weighted_scores(
            [["shark", "shark"], ["shark", "warm"], ["cold"]],
            {"shark": 1.0, "cold": 10.0},
        ),
    )
    assert hits[0].doc_id == "d3"
    assert [h.doc_id for h in hits] == [d for d, _ in expected]
    for hit, (_, score) in zip(hits, expected):
        assert hit.score == pytest.approx(score, rel=1e-9)


# at this weight every shark posting adds a term score that rounds to 0.0; the 3-document
# corpus reaches two of three documents (a slot per document), the 31-document one one of 31
# (a dict of candidates)
@pytest.mark.parametrize("docs", [
    [Document("a", "shark warm blood"), Document("b", "shark cold"), Document("c", "tuna fish")],
    [Document("a", "shark " + "tuna " * 999)] + [Document(f"b{i:02d}", "cold") for i in range(30)],
], ids=["most-documents", "few-documents"])
def test_a_document_whose_score_rounds_to_zero_is_not_ranked(docs):
    index = build_index(docs)
    assert index.search_weighted({"shark": 5e-324}, 10) == Ranking([], [])


def test_weighted_query_validation(shark_index):
    # search_weighted is public, and _rank takes no weight below 0.0
    for weights, message in [({}, "positive weight"),
                             ({"shark": 1.0, "warm": -0.1}, "'warm' must be finite and >= 0"),
                             ({"shark": float("nan")}, "'shark' must be finite and >= 0"),
                             ({"shark": float("inf")}, "'shark' must be finite and >= 0"),
                             ({"shark": 0.0, "warm": 0.0}, "positive weight")]:
        with pytest.raises(ValueError, match=message):
            shark_index.search_weighted(weights, 10)


# -- Ranking ----------------------------------------------------------------------


def test_a_ranking_reads_as_a_sequence_of_scored_hits():
    ranking = Ranking(["a", "b", "c"], [3.0, 2.0, 1.0])
    assert len(ranking) == 3 and ranking and not Ranking([], [])
    assert ranking[0] == ScoredHit("a", 3.0) and type(ranking[0]) is ScoredHit
    assert (ranking[-1].doc_id, ranking[-1].score) == ("c", 1.0)
    with pytest.raises(IndexError):
        ranking[3]
    assert ranking[1:] == Ranking(["b", "c"], [2.0, 1.0])
    assert type(ranking[:0]) is Ranking and not ranking[:0]
    assert ranking[::-1] == Ranking(["c", "b", "a"], [1.0, 2.0, 3.0])
    hits = list(ranking)
    assert all(type(hit) is ScoredHit for hit in hits)
    assert [(hit.doc_id, hit.score) for hit in hits] == [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    assert [doc_id for doc_id, _ in ranking] == ranking.doc_ids == ["a", "b", "c"]
    assert ranking.scores == [3.0, 2.0, 1.0]
    # only a Ranking with equal lists is equal
    assert ranking == Ranking(["a", "b", "c"], [3.0, 2.0, 1.0])
    assert ranking != Ranking(["a", "b", "c"], [3.0, 2.0, 0.5]) and ranking != hits
    with pytest.raises(TypeError):
        hash(ranking)


def test_every_search_returns_a_ranking(shark_index):
    searches = [shark_index.search("shark", 10), shark_index.search("the of and", 10),
                shark_index.search_weighted({"shark": 1.0}, 10),
                rm3_search(shark_index, "shark", Rm3Config(fb_docs=2, fb_terms=2), 10)]
    assert all(type(hits) is Ranking for hits in searches)
    assert searches[0].doc_ids == ["d1", "d2"] and searches[1] == Ranking([], [])


# -- properties -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    token_lists=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=0, max_size=12),
        min_size=1,
        max_size=20,
    ),
    query=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8),
    weights=st.dictionaries(st.sampled_from(TOKENS), st.floats(0.0, 10.0, allow_subnormal=True),
                            min_size=1),
)
# a query that reaches fewer postings than half the documents, and one that reaches more
@example(token_lists=[["d2", "f3"], ["f3"], ["g5"]], query=["d2"], weights={"d2": 1.0})
@example(token_lists=[TOKENS, ["d2", "f3"], []], query=TOKENS,
         weights={token: 1.0 for token in TOKENS})
def test_search_matches_bruteforce_oracle(token_lists, query, weights):
    docs = _docs_from_token_lists(token_lists)
    ids = [d.id for d in docs]
    index = build_index(docs)
    # hits unpack as (doc_id, score) and tuples compare their scores with ==, so the
    # ranking and every score's bits must agree
    hits = index.search(" ".join(query), len(docs))
    assert list(hits) == ranking_from_scores(ids, bm25_scores(token_lists, query))
    if any(weights.values()):
        hits = index.search_weighted(weights, len(docs))
        assert list(hits) == ranking_from_scores(ids, bm25_weighted_scores(token_lists, weights))


@settings(max_examples=40, deadline=None)
@given(
    token_lists=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=0, max_size=10),
        min_size=1,
        max_size=15,
    ),
    query=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6),
    k=st.integers(min_value=1, max_value=15),
)
def test_topk_is_prefix_of_larger_k(token_lists, query, k):
    index = build_index(_docs_from_token_lists(token_lists))
    small = index.search(" ".join(query), k)
    large = index.search(" ".join(query), k + 5)
    assert large[: len(small)] == small
    assert len(small) <= k


@settings(max_examples=40, deadline=None)
@given(
    token_lists=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=0, max_size=10),
        min_size=2,
        max_size=12,
    ),
    query=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ranking_invariant_to_corpus_order(tmp_path_factory, token_lists, query, seed):
    docs = _docs_from_token_lists(token_lists)
    shuffled = docs[:]
    random.Random(seed).shuffle(shuffled)
    index_a, index_b = build_index(docs), build_index(shuffled)
    hits_a = index_a.search(" ".join(query), len(docs))
    hits_b = index_b.search(" ".join(query), len(docs))
    assert hits_a == hits_b  # scores are bit-identical, not merely close
    # both number the documents in id order, so they save the same file
    path_a, path_b = (tmp_path_factory.mktemp("idx") / name for name in ("a.bin", "b.bin"))
    index_a.save(str(path_a))
    index_b.save(str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_search_and_oracle_agree_on_an_exact_tie():
    # doc001 and doc002 tie exactly; an oracle that summed "d2 h7 d2" one
    # token at a time split the tie by one ulp and ranked doc002 first
    token_lists = [["d2"], ["d2"] * 3 + ["f3"] * 3 + ["h7"] * 2,
                   ["d2"] * 3 + ["f3"] * 3 + ["g5"] * 2]
    query = ["d2", "h7", "d2", "g5"]
    docs = _docs_from_token_lists(token_lists)
    hits = build_index(docs).search(" ".join(query), len(docs))
    expected = ranking_from_scores([d.id for d in docs], bm25_scores(token_lists, query))
    assert [h.doc_id for h in hits[:2]] == ["doc001", "doc002"]
    assert hits[0].score == hits[1].score
    assert [h.doc_id for h in hits] == [d for d, _ in expected]


def test_search_is_deterministic(shark_index):
    first = shark_index.search("shark warm cold", 10)
    second = shark_index.search("shark warm cold", 10)
    assert first == second


# -- persistence -------------------------------------------------------------------


@pytest.mark.parametrize("k1, b", [
    (math.nan, 0.4), (math.inf, 0.4), (-0.5, 0.4), (0.9, math.nan), (0.9, -math.inf),
    (0.9, -0.1), (0.9, 1.5),
])
def test_build_index_refuses_bm25_parameters_that_break_scoring(shark_docs, k1, b):
    with pytest.raises(ValueError, match="k1 must be finite|b must be >= 0"):
        build_index(shark_docs, k1=k1, b=b)


def test_save_load_round_trip(tmp_path, shark_docs):
    index = build_index(shark_docs, k1=1.2, b=0.75)
    path = tmp_path / "toy.bin"
    index.save(str(path))
    loaded = InvertedIndex.load(str(path))
    assert loaded.k1 == index.k1 and loaded.b == index.b
    for query in ("shark", "shark warm", "cold warm shark"):
        assert loaded.search(query, 10) == index.search(query, 10)
    loaded.save(str(tmp_path / "again.bin"))  # the texts stream as stored
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_save_survives_a_nested_save_to_the_same_path(tmp_path, shark_index, monkeypatch):
    path = tmp_path / "toy.bin"
    real_replace = os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            shark_index.save(str(path))  # a second writer finishes inside the first
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    shark_index.save(str(path))
    assert nested
    assert InvertedIndex.load(str(path)).search("shark", 10) == shark_index.search("shark", 10)
    assert [p.name for p in tmp_path.iterdir()] == ["toy.bin"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        InvertedIndex.load(str(path))


def test_load_rejects_truncated_payload(tmp_path, shark_docs):
    path = tmp_path / "toy.bin"
    build_index(shark_docs).save(str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataFormatError):
        InvertedIndex.load(str(path))
    assert main(["search", "--index", str(path), "--query", "shark"]) == 2


# the documented on-disk layout, restated here so the tests pin it
MAGIC = b"CSQEIDX1"
# k1, b, stream sizes, crc32 of the texts stream, array counts, array widths; the crc32
# of every byte before it follows at HEADER_CRC, and the streams at BODY
HEADER = struct.Struct("<dd3QI5Q5B")
HEADER_CRC = len(MAGIC) + 4 + HEADER.size
BODY = HEADER_CRC + 4
FORMATS = {1: "B", 2: "H", 4: "I"}


def _planes(values, width):
    """Byte 0 of every value, then byte 1, up to ``width``: the v5 and v6 array layout."""
    return bytes(value >> 8 * plane & 0xFF for plane in range(width) for value in values)


def _values(planes, count, width):
    """The ``count`` values whose ``width`` byte planes are ``planes``."""
    return [sum(planes[plane * count + i] << 8 * plane for plane in range(width))
            for i in range(count)]


def _read(path):
    """k1, b, the decompressed names and texts streams, the arrays and widths of a v6 file."""
    data = path.read_bytes()
    k1, b, *fields = HEADER.unpack_from(data, len(MAGIC) + 4)
    sizes, shape = fields[:3], fields[4:]
    ends = list(accumulate(sizes, initial=BODY))
    names, texts, raw = (zlib.decompress(data[start:end]) for start, end in zip(ends, ends[1:]))
    arrays, offset = [], 0
    for count, width in zip(shape[:5], shape[5:]):
        arrays.append(_values(raw[offset:offset + count * width], count, width))
        offset += count * width
    return k1, b, (names, texts), arrays, shape[5:]


def _with_header_crc(data):
    """``data`` with the crc32 of its header recomputed, so that a damaged field passes it."""
    return data[:HEADER_CRC] + struct.pack("<I", zlib.crc32(data[:HEADER_CRC])) + data[BODY:]


def _write(path, k1, b, strings, arrays, widths):
    raw = b"".join(map(_planes, arrays, widths))
    streams = [*map(zlib.compress, strings), zlib.compress(raw)]
    header = MAGIC + struct.pack("<I", 6) + HEADER.pack(
        k1, b, *map(len, streams), zlib.crc32(streams[1]), *map(len, arrays), *widths)
    path.write_bytes(header + struct.pack("<I", zlib.crc32(header)) + b"".join(streams))


def test_saved_file_has_the_documented_v6_layout(tmp_path):
    # d1's dash is 3 UTF-8 bytes, and d4's 300 "!" make its text 305 bytes long, so the text
    # lengths take 2 bytes; "!" and the dash are not tokens. The corpus lists the documents
    # out of order, and the file numbers them in doc-id order.
    docs = [Document("d3", "shark warm shark"), Document("d1", "cold \u2014"),
            Document("d4", "shark" + "!" * 300), Document("d2", "shark")]
    path = tmp_path / "toy.bin"
    build_index(docs, k1=1.5, b=0.25).save(str(path))
    data = path.read_bytes()
    assert data[:12] == MAGIC + struct.pack("<I", 6)
    k1, b, names_size, text_size, array_size, text_crc, *shape = HEADER.unpack_from(data, 12)
    assert data[HEADER_CRC:BODY] == struct.pack("<I", zlib.crc32(data[:HEADER_CRC]))
    assert (k1, b) == (1.5, 0.25)
    assert BODY + names_size + text_size + array_size == len(data)
    assert data[BODY:BODY + names_size] == zlib.compress(b"d1\nd2\nd3\nd4\ncold\nshark\nwarm", 5)
    texts = b"cold \xe2\x80\x94" + b"shark" + b"shark warm shark" + b"shark" + b"!" * 300
    text_stream = data[BODY + names_size:BODY + names_size + text_size]
    assert text_stream == zlib.compress(texts, 5)
    assert text_crc == zlib.crc32(text_stream)
    arrays = bytes([
        1, 1, 3, 1,  # doc_lens
        1, 3, 1,  # dfs of cold, shark, warm
        # ordinals: cold 0; shark 1, 2, 3; warm 2 -- each list gap-coded on its own
        0, 1, 1, 1, 2,
        1, 1, 2, 1, 1,  # tfs
        # text byte lengths 8, 5, 16 and 305 = 0x131: the low bytes, then the high bytes
        8, 5, 16, 0x31,
        0, 0, 0, 0x01,
    ])
    assert shape == [4, 3, 5, 5, 4, 1, 1, 1, 1, 2]
    assert data[BODY + names_size + text_size:] == zlib.compress(arrays, 5)


def test_saved_arrays_take_the_narrowest_width(tmp_path):
    # doc_lens 300 and 70001 need 4 bytes; tfs up to 70000 need 4, and so does the
    # 350,005-byte text; dfs and gaps fit in 1
    docs = [Document("a", "shark " * 300), Document("b", "warm " * 70000 + "shark")]
    path = tmp_path / "wide.bin"
    build_index(docs).save(str(path))
    _k1, _b, _strings, arrays, widths = _read(path)
    assert arrays == [[300, 70001], [2, 1], [0, 1, 1], [300, 1, 70000], [1800, 350005]]
    assert widths == [4, 1, 1, 4, 4]
    docs[1] = Document("b", "warm " * 600 + "shark")
    build_index(docs).save(str(path))
    assert _read(path)[3:] == ([[300, 601], [2, 1], [0, 1, 1], [300, 1, 600], [1800, 3005]],
                               [2, 1, 1, 2, 2])
    build_index([Document("a", "shark"), Document("b", "warm shark")]).save(str(path))
    assert _read(path)[3:] == ([[1, 2], [2, 1], [0, 1, 1], [1, 1, 1], [5, 10]], [1] * 5)


def _texts_stream_of(path):
    """The texts stream of a v6 file as stored, and the text lengths its arrays hold."""
    data = path.read_bytes()
    _k1, _b, names_size, texts_size, *_ = HEADER.unpack_from(data, len(MAGIC) + 4)
    return data[BODY + names_size:BODY + names_size + texts_size], _read(path)[3][4]


@settings(max_examples=60, deadline=None)
@example(texts=["", "abc", "", "\u00e9" * 5, "x\U0001f600"], chunk=4)
@example(texts=["a" * 30], chunk=1)
@given(texts=st.lists(st.one_of(st.just(""), st.text(max_size=20)), min_size=1, max_size=12),
       chunk=st.integers(min_value=1, max_value=48))
def test_the_texts_stream_does_not_depend_on_where_the_worker_cuts_it(tmp_path_factory, texts,
                                                                       chunk):
    # the ids sort in list order, so the texts keep it; against texts of up to 80 UTF-8
    # bytes, a chunk of 1-48 bytes takes one text or several, and the flush the rest
    docs = [Document(f"d{i:02d}", text) for i, text in enumerate(texts)]
    path = tmp_path_factory.mktemp("idx") / "index.bin"
    with patch.object(csqe.index, "_TEXTS_CHUNK", chunk):
        build_index(docs).save(str(path))
    assert _texts_stream_of(path) == texts_stream(texts)


def test_a_text_that_is_not_utf8_fails_every_save_and_leaves_no_file(tmp_path, capsys):
    # build_index takes any str; parse_jsonl_corpus refuses a lone surrogate, the API does not
    before = set(threading.enumerate())
    index = build_index([Document("a", "shark"), Document("b", "warm \ud800 shark")])
    assert index.search("warm", 10).doc_ids == ["b"]
    for _ in range(2):  # the worker's error is raised again, with its own type
        with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
            index.save(str(tmp_path / "bad.bin"))
        with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
            index.doc_texts  # decoded from the stream the worker failed to make
    assert index.search("warm", 10).doc_ids == ["b"]
    assert list(tmp_path.iterdir()) == []
    assert set(threading.enumerate()) <= before  # the deflate worker has ended
    assert capsys.readouterr().err == ""


def test_concurrent_first_saves_of_a_built_index_write_one_file(tmp_path):
    docs = [Document(f"d{i:03d}", f"shark warm {i} " * 40) for i in range(300)]
    index = build_index(docs)
    start, paths = threading.Barrier(8), [tmp_path / f"{i}.bin" for i in range(8)]

    def save(path):
        start.wait(timeout=10)
        index.save(str(path))

    threads = [threading.Thread(target=save, args=(path,)) for path in paths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert {path.read_bytes() for path in paths} == {paths[0].read_bytes()}
    assert _texts_stream_of(paths[0]) == texts_stream([doc.text for doc in docs])


@settings(max_examples=40, deadline=None)
@example(texts=[""], k1=0.9, b=0.4, query=["d2"])
@example(texts=["a\nb", "\x00", "x \U0001f600 y\n"], k1=0.9, b=0.4, query=["d2"])
@given(
    texts=st.lists(st.text(max_size=40), min_size=1, max_size=12),
    k1=st.floats(min_value=0.0, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    query=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4),
)
def test_save_load_round_trips_exactly(tmp_path_factory, texts, k1, b, query):
    docs = [Document(f"d{i}\u00e9", text) for i, text in enumerate(texts)]
    docs.append(Document("tokens", " ".join(TOKENS + query)))
    index = build_index(docs, k1=k1, b=b)
    path = tmp_path_factory.mktemp("idx") / "index.bin"
    index.save(str(path))
    loaded = InvertedIndex.load(str(path))
    assert (loaded.terms, loaded.offsets) == (index.terms, index.offsets)
    assert (loaded.gaps, loaded.tfs) == (index.gaps, index.tfs)
    assert _decoded_lists(loaded) == _decoded_lists(index)
    assert (loaded.doc_ids, loaded.doc_lens) == (index.doc_ids, index.doc_lens)
    # both sides decode one stream, so each is held to the documents' own texts too
    own_texts = [doc.text for doc in sorted(docs, key=lambda doc: doc.id)]
    assert loaded.doc_texts == index.doc_texts == own_texts
    assert (loaded.k1, loaded.b) == (index.k1, index.b)
    for text in [" ".join(query)] + texts[:3]:
        assert loaded.search(text, 10) == index.search(text, 10)


_corpus_text = st.one_of(
    st.just(""),
    # repeated terms, a stopword, a plural that stems to its singular, and non-ASCII words
    st.lists(st.sampled_from(["shark", "sharks", "warm", "the", "caf\u00e9", "\u0436\u0443\u043a",
                              "x\U0001f600y", "d2"]), max_size=12).map(" ".join),
    st.text(max_size=30),
)


@settings(max_examples=60, deadline=None)
@example(docs=[("only", "shark shark warm")])
@example(docs=[("b", ""), ("a", "caf\u00e9 shark caf\u00e9"), ("c", "")])
@given(docs=st.lists(st.tuples(st.text("abcz09\u00e9", min_size=1, max_size=4), _corpus_text),
                     min_size=1, max_size=10, unique_by=lambda doc: doc[0]))
def test_build_and_save_match_the_per_term_reference_builder(tmp_path_factory, docs):
    index = build_index([Document(doc_id, text) for doc_id, text in docs])
    docs = sorted(docs)  # the ids are distinct: ordinals number the documents in id order
    terms, offsets, gaps, tfs, doc_lens = build_postings([tokenize(text) for _, text in docs])
    assert index.doc_ids == [doc_id for doc_id, _ in docs]
    assert (index.terms, index.offsets, index.doc_lens) == (terms, offsets, doc_lens)
    assert (index.gaps.tolist(), index.tfs.tolist()) == (gaps, tfs)
    path = tmp_path_factory.mktemp("idx") / "index.bin"
    index.save(str(path))
    data = path.read_bytes()
    names_size, texts_size = HEADER.unpack_from(data, len(MAGIC) + 4)[2:4]
    texts_stream = data[BODY + names_size:BODY + names_size + texts_size]
    assert texts_stream == zlib.compress(b"".join(text.encode("utf-8") for _, text in docs), 5)


def _v1_file(path):
    body = json.dumps({"k1": 0.9, "b": 0.4, "doc_ids": [], "doc_lens": [],
                       "doc_texts": [], "postings": {}}).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", 1) + zlib.compress(body))


def _contents(path):
    """k1, b, doc ids, terms, texts, the first four arrays and their widths of a v6 file."""
    k1, b, (names, blob), arrays, widths = _read(path)
    names = names.decode("utf-8").split("\n")
    doc_ids, terms = names[:len(arrays[0])], names[len(arrays[0]):]
    ends = list(accumulate(arrays[4]))
    texts = [blob[start:end].decode("utf-8") for start, end in zip([0, *ends], ends)]
    return k1, b, doc_ids, terms, texts, arrays[:4], widths[:4]


def _v3_strings(doc_ids, terms, texts):
    """The v2 and v3 strings section ``[doc_ids, doc_texts, terms]``."""
    return json.dumps([doc_ids, texts, terms]).encode("utf-8")


def _v2_file(path):
    # the same index in format version 2: one zlib stream of a <dd5Q header,
    # the strings section and u32 arrays
    k1, b, doc_ids, terms, texts, arrays, _widths = _contents(path)
    sections = ([_v3_strings(doc_ids, terms, texts)]
                + [struct.pack(f"<{len(a)}I", *a) for a in arrays])
    payload = struct.pack("<dd5Q", k1, b, *map(len, sections)) + b"".join(sections)
    path.write_bytes(MAGIC + struct.pack("<I", 2) + zlib.compress(payload))


def _v3_file(path):
    # the same index in format version 3: a <dd2Q4Q4B header, then the
    # strings section and the arrays as two zlib streams
    k1, b, doc_ids, terms, texts, arrays, widths = _contents(path)
    raw = b"".join(struct.pack(f"<{len(a)}{FORMATS[w]}", *a) for a, w in zip(arrays, widths))
    streams = [zlib.compress(_v3_strings(doc_ids, terms, texts)), zlib.compress(raw)]
    path.write_bytes(MAGIC + struct.pack("<I", 3)
                     + struct.pack("<dd2Q4Q4B", k1, b, *map(len, streams), *map(len, arrays),
                                   *widths)
                     + b"".join(streams))


def _v4_file(path):
    # the same index in format version 4: a <dd3QI4Q4B header, then the names and the
    # texts as JSON and the four arrays value by value, as three zlib streams
    k1, b, doc_ids, terms, texts, arrays, widths = _contents(path)
    raw = b"".join(struct.pack(f"<{len(a)}{FORMATS[w]}", *a) for a, w in zip(arrays, widths))
    streams = [zlib.compress(json.dumps(value).encode("utf-8"))
               for value in ([doc_ids, terms], texts)]
    streams.append(zlib.compress(raw))
    path.write_bytes(MAGIC + struct.pack("<I", 4)
                     + struct.pack("<dd3QI4Q4B", k1, b, *map(len, streams),
                                   zlib.crc32(streams[1]), *map(len, arrays), *widths)
                     + b"".join(streams))


def _v5_file(path):
    # the same index in format version 5: the v6 layout without the header's crc32
    data = path.read_bytes()
    path.write_bytes(MAGIC + struct.pack("<I", 5) + data[12:HEADER_CRC] + data[BODY:])


def _header_fields(edit):
    """Rewrite the header fields with ``edit``, then the header's crc32 to match them."""
    def corrupt(path):
        data = bytearray(path.read_bytes())
        fields = list(HEADER.unpack_from(data, 12))
        edit(fields)
        HEADER.pack_into(data, 12, *fields)
        path.write_bytes(_with_header_crc(bytes(data)))
    return corrupt


def _header_bit_flipped(path):
    data = bytearray(path.read_bytes())
    data[12] ^= 1  # the lowest bit of k1's mantissa; the crc32 is left as it was
    path.write_bytes(bytes(data))


def _texts_byte_flipped(path):
    data = bytearray(path.read_bytes())
    names_size = HEADER.unpack_from(data, 12)[2]
    data[BODY + names_size + 2] ^= 0xFF  # inside the texts stream, after the zlib header
    path.write_bytes(bytes(data))


def _edit_arrays(i, edit):
    def corrupt(path):
        k1, b, strings, arrays, widths = _read(path)
        edit(arrays[i])
        _write(path, k1, b, strings, arrays, widths)
    return corrupt


def _bump(position, by):
    def edit(values):
        values[position] += by
    return edit


def _set(position, value):
    def edit(values):
        values[position] = value
    return edit


def _strings(raw):
    def corrupt(path):
        k1, b, (_names, texts), arrays, widths = _read(path)
        _write(path, k1, b, (raw, texts), arrays, widths)
    return corrupt


def _width(width):
    def edit(fields):
        fields[-5] = width  # doc_lens' width, the first of the five
    return _header_fields(edit)


def _bm25_params(k1, b):
    def edit(fields):
        fields[:2] = k1, b
    return _header_fields(edit)


def _no_documents(path):
    k1, b, _strings, _arrays, widths = _read(path)
    _write(path, k1, b, (b"", b""), [[]] * 5, widths)


def _header_only_part(path):
    path.write_bytes(path.read_bytes()[:BODY - 1])


# shark_index: terms cold, shark, warm with dfs 1, 2, 1 and gaps 2; 0 1; 1
@pytest.mark.parametrize("corrupt, message", [
    (_v1_file, "unsupported index format version 1"),
    (_v2_file, "unsupported index format version 2"),
    (_v3_file, "unsupported index format version 3"),
    (_v4_file, "unsupported index format version 4"),
    (_v5_file, "unsupported index format version 5"),
    (_header_bit_flipped, "header fails its crc32 check"),
    (_header_fields(_bump(4, 1)), "do not sum"),  # the arrays stream's size
    (_texts_byte_flipped, "texts stream fails its crc32 check"),
    # same byte size, but sum(dfs) != number of postings
    (_edit_arrays(1, _bump(0, 1)), "section lengths disagree"),
    # one text length fewer than there are documents
    (_edit_arrays(4, list.pop), "section lengths disagree"),
    (_strings(b"d1\nd1\nd3\ncold\nshark\nwarm"), "document ids are not strictly ascending"),
    (_strings(b"d2\nd1\nd3\ncold\nshark\nwarm"), "document ids are not strictly ascending"),
    (_strings(b"d1\nd2\nd3\ncold\nwarm\nshark"), "terms are not strictly ascending"),
    (_strings(b"d1\nd2\nd3\ncold\nshark\nshark"), "terms are not strictly ascending"),
    (_strings(b"d1\nd2\nd3\ncold\nshark\nwarm\nzebra"),
     "names stream holds 7 names, not 3 document ids and 3 terms"),
    (_width(3), "array width 3 is not 1, 2 or 4"),
    (_width(8), "array width 8 is not 1, 2 or 4"),
    (_strings(b"d1\nd2\xff\nd3\ncold\nshark\nwarm"), "codec can't decode byte 0xff"),
    # an empty id, or one holding whitespace, splits into a count that does not add up
    (_strings(b"a b\nd2\nd3\ncold\nshark\nwarm"),
     "names stream holds 7 names, not 3 document ids and 3 terms"),
    (_strings(b"\nd2\nd3\ncold\nshark\nwarm"),
     "names stream holds 5 names, not 3 document ids and 3 terms"),
    (_strings("a\u2028b\nd2\nd3\ncold\nshark\nwarm".encode("utf-8")),
     "names stream holds 7 names, not 3 document ids and 3 terms"),
    (_no_documents, "index holds no documents"),
    (_header_only_part, "truncated header"),
    (_bm25_params(math.nan, 0.4), "k1 must be finite and >= 0, got nan"),
    (_bm25_params(math.inf, 0.4), "k1 must be finite and >= 0, got inf"),
    (_bm25_params(-1.0, 0.4), "k1 must be finite and >= 0, got -1.0"),
    (_bm25_params(0.9, math.nan), "b must be >= 0 and <= 1, got nan"),
    (_bm25_params(0.9, math.inf), "b must be >= 0 and <= 1, got inf"),
    (_bm25_params(0.9, 3.0), "b must be >= 0 and <= 1, got 3.0"),
], ids=["v1", "v2", "v3", "v4", "v5", "header-crc32", "sizes", "texts-crc32", "dfs", "text-lens",
        "duplicate-doc-id", "unsorted-ids", "unsorted-terms", "repeated-term", "names-count",
        "width3", "width8", "strings",
        "id-with-space", "empty-id", "id-with-line-separator", "no-documents", "header",
        "k1-nan", "k1-inf", "k1-negative", "b-nan", "b-inf", "b-above-1"])
def test_load_rejects_a_damaged_file_as_data_error(tmp_path, shark_index, capsys,
                                                   corrupt, message):
    path = tmp_path / "toy.bin"
    shark_index.save(str(path))
    corrupt(path)
    with pytest.raises(DataFormatError, match=message):
        InvertedIndex.load(str(path))
    assert main(["search", "--index", str(path), "--query", "shark"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err


# listed out of id order, and of lengths 4, 1 and 6, so that k1 and b each change every score
_DAMAGE_DOCS = [Document("d3", "shark warm shark cold"), Document("d1", "shark"),
                Document("d2", "warm cold cold warm warm shark")]


def _damaged_bytes(data, kind, at, value):
    """``data`` damaged in one of five ways, at ``at`` modulo its length."""
    if kind == "flip":  # bit ``value % 8`` of one byte
        at %= len(data)
        return data[:at] + bytes([data[at] ^ 1 << value % 8]) + data[at + 1:]
    if kind == "truncate":
        return data[:at % len(data)]
    if kind == "insert":
        at %= len(data) + 1
        return data[:at] + bytes([value]) + data[at:]
    if kind == "delete":
        at %= len(data)
        return data[:at] + data[at + 1:]
    return data + bytes([value]) * (1 + at % 8)  # "append"


def _everything_read(path, terms):
    """The hits of each of ``terms`` and of all of them at once, and every text."""
    index = InvertedIndex.load(path)
    hits = [index.search(query, 10) for query in [*terms, " ".join(terms)]]
    return hits, index.doc_texts


@settings(max_examples=300, deadline=None)
# a flip in k1's and one in b's mantissa: each gives a valid value and other scores
@example(kind="flip", at=18, value=0)
@example(kind="flip", at=26, value=0)
@given(kind=st.sampled_from(["flip", "truncate", "insert", "delete", "append"]),
       at=st.integers(0, 1 << 16), value=st.integers(0, 255))
def test_a_damaged_file_is_refused_or_reads_as_the_undamaged_one(kind, at, value):
    index = build_index(_DAMAGE_DOCS)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.bin")
        index.save(path)
        expected = _everything_read(path, index.terms)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(_damaged_bytes(data, kind, at, value))
        try:
            seen = _everything_read(path, index.terms)
        except DataFormatError:
            return
    # a flip in the padding bits that end a zlib stream changes nothing that is read
    assert seen == expected


def _shark_gaps_past_u32(path):
    k1, b, strings, arrays, widths = _read(path)
    arrays[2][1:3] = [2**32 - 1, 5]  # shark's gaps, stored 4 bytes wide
    widths[2] = 4
    _write(path, k1, b, strings, arrays, widths)


# shark's list d1, d2 (gaps 0 1) becomes d1, d5, or d1, d1, or has gaps that sum past
# 2**32; a search of the term is the first to read it
_BAD_SHARK_LISTS = pytest.mark.parametrize("corrupt, message", [
    (_edit_arrays(2, _bump(2, 3)), "posting ordinal out of range"),
    (_edit_arrays(2, _set(2, 0)), "duplicate ordinal in a postings list"),
    (_shark_gaps_past_u32, "posting ordinal out of range"),
], ids=["ordinal", "duplicate", "past-u32"])


def _damaged(tmp_path, shark_index, corrupt):
    path = tmp_path / "toy.bin"
    shark_index.save(str(path))
    corrupt(path)
    return path


@_BAD_SHARK_LISTS
def test_a_damaged_postings_list_is_refused_on_its_first_search(tmp_path, shark_index, capsys,
                                                                corrupt, message):
    path = _damaged(tmp_path, shark_index, corrupt)
    index = InvertedIndex.load(str(path))
    expected = f"{path}: corrupt index payload ({message})"
    with pytest.raises(DataFormatError) as refused:
        index.search("shark", 10)
    assert str(refused.value) == expected
    assert main(["search", "--index", str(path), "--query", "shark"]) == 2
    assert capsys.readouterr().err == f"data error: {expected}\n"


@_BAD_SHARK_LISTS
def test_a_file_with_one_bad_list_refuses_only_that_term(tmp_path, shark_index, corrupt,
                                                          message):
    index = InvertedIndex.load(str(_damaged(tmp_path, shark_index, corrupt)))
    good = {"cold": 1.0, "warm": 0.5}
    bad = {"cold": 1.0, "shark": 0.5}
    for search in (lambda index: index.search("shark", 10),
                   lambda index: index.search_weighted(bad, 10)):
        for _ in range(2):  # nothing was kept, so a second search raises again
            with pytest.raises(DataFormatError, match=message):
                search(index)
            assert "shark" not in index._postings
        for query in ("cold", "warm", "cold warm"):
            assert index.search(query, 10) == shark_index.search(query, 10)
        assert index.search_weighted(good, 10) == shark_index.search_weighted(good, 10)


@_BAD_SHARK_LISTS
def test_concurrent_first_uses_of_a_bad_list_all_raise(tmp_path, shark_index, corrupt, message):
    index = InvertedIndex.load(str(_damaged(tmp_path, shark_index, corrupt)))
    start = threading.Barrier(8)
    errors = []

    def search():
        start.wait(timeout=10)
        try:
            index.search("shark cold", 10)
        except DataFormatError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=search) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(errors) == 8 and all(message in error for error in errors)
    assert "shark" not in index._postings


def test_a_run_over_a_bad_list_fails_and_leaves_its_output(tmp_path, shark_index, capsys):
    path = _damaged(tmp_path, shark_index, _edit_arrays(2, _set(2, 0)))
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tcold\nq2\twarm\nq3\tshark\nq4\tcold warm\n", encoding="utf-8")
    output = tmp_path / "out" / "run.txt"
    output.parent.mkdir()
    output.write_text("an earlier run\n", encoding="utf-8")
    assert main(["run", "--method", "bm25", "--jobs", "2", "--queries", str(queries),
                 "--index", str(path), "--output", str(output)]) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: corrupt index payload (duplicate ordinal" in err
    assert output.read_text(encoding="utf-8") == "an earlier run\n"
    assert [p.name for p in output.parent.iterdir()] == ["run.txt"]  # no tmp, no manifest


@pytest.mark.parametrize("kind", ["built", "loaded"])
def test_concurrent_first_reads_of_doc_texts_share_one_decoded_list(tmp_path, shark_docs,
                                                                   monkeypatch, kind):
    path = tmp_path / "toy.bin"
    build_index(shark_docs).save(str(path))
    decode, calls = csqe.index._decode_texts, []

    def slow_decode(*args):
        calls.append(args)
        time.sleep(0.05)  # every reader arrives while the first one decodes
        return decode(*args)

    monkeypatch.setattr(csqe.index, "_decode_texts", slow_decode)
    index = build_index(shark_docs) if kind == "built" else InvertedIndex.load(str(path))
    start = threading.Barrier(8)
    seen = []

    def read():
        start.wait(timeout=10)
        seen.append(index.doc_texts)

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and len(calls) == 1
    assert all(texts is seen[0] for texts in seen)
    assert seen[0] == [d.text for d in shark_docs]


def test_a_one_term_search_on_a_loaded_index_decodes_one_list(tmp_path, shark_index):
    path = tmp_path / "toy.bin"
    shark_index.save(str(path))
    index = InvertedIndex.load(str(path))
    assert index.terms == ["cold", "shark", "warm"]
    assert index._postings == {}
    hits = index.search("shark", 10)
    assert hits == shark_index.search("shark", 10)
    assert list(index._postings) == ["shark"]
    decoded = index._postings["shark"]
    idf, ordinals, impacts = decoded
    assert idf == index._idf(2)
    assert ordinals == array("I", [0, 1])
    assert [hit.score for hit in hits] == [index._idf(2) * c for c in impacts]
    assert index.search("shark", 10) == hits
    assert index._postings["shark"] is decoded  # a later search reuses the decoded triple


def test_concurrent_first_uses_of_a_term_all_get_the_same_hits(tmp_path):
    # long lists, so the first decodes overlap
    docs = [Document(f"d{i:04d}", "shark " * (1 + i % 3) + "warm " * (i % 4)) for i in range(3000)]
    built = build_index(docs)
    path = tmp_path / "long.bin"
    built.save(str(path))
    weighted = {"shark": 0.7, "warm": 0.3}
    for query in (lambda index: index.search("shark", 50),
                  lambda index: index.search_weighted(weighted, 50)):
        index = InvertedIndex.load(str(path))
        expected = query(built)
        start = threading.Barrier(8)
        seen = []

        def search():
            start.wait(timeout=10)
            seen.append(query(index))

        threads = [threading.Thread(target=search) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(hits == expected for hits in seen)
        assert query(index) == expected


def test_concurrent_long_and_short_queries_all_get_the_same_hits():
    # shark and warm are in most documents and cold in one of ten, so the long query reaches
    # more postings than there are documents and the short one fewer than half of them
    docs = [Document(f"d{i:04d}", "shark " * (1 + i % 3) + "warm " * (i % 4)
                     + ("cold" if i % 10 == 0 else "")) for i in range(3000)]
    queries = ("shark warm cold cold", "cold")
    reference = build_index(docs)
    expected = {query: reference.search(query, 50) for query in queries}
    index = build_index(docs)  # no list decoded yet
    assert sum(map(index.df, ("shark", "warm", "cold"))) >= index.doc_count > 2 * index.df("cold")
    start = threading.Barrier(8)
    seen = []

    def search(order):
        start.wait(timeout=10)
        seen.append({query: index.search(query, 50) for query in order})

    # half the threads run the short query first, so both kinds race on cold's first use
    threads = [threading.Thread(target=search, args=(queries[::1 - 2 * (i % 2)],))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and all(hits == expected for hits in seen)


@settings(max_examples=40, deadline=None)
@given(
    token_lists=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=0, max_size=10),
        min_size=1,
        max_size=15,
    ),
    query=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6),
    earlier=st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4), max_size=4),
    weights=st.dictionaries(st.sampled_from(TOKENS), st.floats(0.01, 10.0), min_size=1),
)
def test_decoded_postings_left_by_earlier_queries_never_change_a_result(
        token_lists, query, earlier, weights):
    docs = _docs_from_token_lists(token_lists)
    built = build_index(docs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.bin")
        built.save(path)
        fresh, used = InvertedIndex.load(path), InvertedIndex.load(path)
    for tokens in earlier:  # fills other slots, and maybe the query's own
        used.search(" ".join(tokens), 3)
    searches = [lambda index: index.search(" ".join(query), len(docs)),
                lambda index: index.search_weighted(weights, len(docs))]
    for search in searches:
        expected = search(built)
        # tuples compare their float scores with ==, so the score bits must agree
        assert search(fresh) == expected
        assert search(used) == expected
        assert search(fresh) == expected  # now from the pairs the first search left


# neighbours and prefixes ("a" itself is a stopword, so no index holds it), and ids
# whose string order is not their numeric order
_LOOKUP_TERMS = ["ab", "abc", "abd", "b", "ba", "bc", "d1", "d10", "d2"]
# before the first term, between two neighbours, and after the last
_ABSENT_TERMS = ["0", "aa", "abca", "abz", "bb", "zz"]
_LOOKUP_IDS = ["d1", "d10", "d2", "d20", "d3"]
_ABSENT_IDS = ["", "d", "d0", "d11", "d15", "d4", "e"]


@settings(max_examples=60, deadline=None)
@example(docs=[("d1", ["ab"])], queries=[["aa", "ab", "abc", "zz"]], weights={"0": 1.0})
@given(
    docs=st.lists(st.tuples(st.sampled_from(_LOOKUP_IDS),
                            st.lists(st.sampled_from(_LOOKUP_TERMS), max_size=8)),
                  min_size=1, max_size=5, unique_by=lambda doc: doc[0]),
    queries=st.lists(st.lists(st.sampled_from(_LOOKUP_TERMS + _ABSENT_TERMS), min_size=1,
                              max_size=5), min_size=1, max_size=4),
    weights=st.dictionaries(st.sampled_from(_LOOKUP_TERMS + _ABSENT_TERMS),
                            st.floats(0.01, 10.0), min_size=1),
)
def test_terms_and_ids_are_looked_up_as_a_dict_would(tmp_path_factory, docs, queries, weights):
    oracle = DictIndex(docs)
    built = build_index([Document(doc_id, " ".join(tokens)) for doc_id, tokens in docs])
    path = tmp_path_factory.mktemp("idx") / "index.bin"
    built.save(str(path))
    for index in (built, InvertedIndex.load(str(path))):
        for term in _LOOKUP_TERMS + _ABSENT_TERMS + [""]:
            assert index.df(term) == oracle.df(term)
        for doc_id in _LOOKUP_IDS + _ABSENT_IDS:
            if doc_id in oracle.doc_ids:
                assert index.ordinal(doc_id) == oracle.ordinal(doc_id)
            else:
                with pytest.raises(KeyError):
                    index.ordinal(doc_id)
        for query in queries:
            hits = index.search(" ".join(query), 10)
            assert list(zip(hits.doc_ids, hits.scores)) == oracle.search(query, 10)
        hits = index.search_weighted(weights, 10)
        assert list(zip(hits.doc_ids, hits.scores)) == oracle.search_weighted(weights, 10)
        assert set(index._postings) <= set(index.terms)  # an absent term is not kept


def _one_byte_more(blob):
    return blob + b"!"


def _not_utf8(blob):
    return blob[:-1] + b"\xff"  # the last text's last byte; the byte total is unchanged


@pytest.mark.parametrize("damage, message", [
    (_one_byte_more, "text lengths sum to 25 bytes, not the texts stream's 26"),
    (_not_utf8, "codec can't decode byte 0xff"),
], ids=["byte-total", "not-utf8"])
def test_a_texts_stream_that_passes_its_crc32_but_does_not_decode_fails_only_its_readers(
        tmp_path, shark_index, capsys, damage, message):
    path, queries = tmp_path / "toy.bin", tmp_path / "queries.tsv"
    shark_index.save(str(path))
    search = ["search", "--index", str(path), "--query", "shark warm"]
    assert main(search) == 0
    hits = capsys.readouterr().out
    k1, b, (names, texts), arrays, widths = _read(path)
    _write(path, k1, b, (names, damage(texts)), arrays, widths)

    index = InvertedIndex.load(str(path))  # the crc32 matches, so load succeeds
    with pytest.raises(DataFormatError, match=message):
        index.doc_texts
    assert main(search) == 0
    assert capsys.readouterr().out == hits
    queries.write_text("q1\tshark warm\n", encoding="utf-8")
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text("{}", encoding="utf-8")
    for method, extra in [("rm3", []),
                          ("csqe", ["--backend", "mock", "--mock-fixtures", str(fixtures)])]:
        output = tmp_path / f"{method}.txt"
        assert main(["run", "--method", method, "--queries", str(queries), "--index", str(path),
                     "--output", str(output), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert not output.exists()
