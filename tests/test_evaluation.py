import io
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import csqe.corpus
import csqe.evaluation
from csqe.errors import DataFormatError
from csqe.index import Ranking, ScoredHit
from csqe.evaluation import (
    average_precision,
    evaluate_run,
    ndcg_at_k,
    parse_metric_spec,
    parse_qrels,
    parse_trec_run,
    recall_at_k,
    write_trec_run,
)

from oracles import ap_oracle, ndcg_oracle, recall_oracle
from oracles import parse_trec_run as line_by_line_parse_trec_run
from oracles import write_trec_run as oracle_write_trec_run


def _stream(text):
    return io.BytesIO(text.encode("utf-8"))


# -- qrels parsing ------------------------------------------------------------


def test_parse_qrels_basic():
    qrels = parse_qrels(_stream("q1 0 d1 2\n"))
    assert qrels == {"q1": {"d1": 2}}
    assert qrels["q1"]["d1"] == 2
    assert "missing" not in qrels["q1"]


def test_parse_qrels_duplicates_overwrite():
    qrels = parse_qrels(_stream("q1 0 d1 0\nq1 0 d1 1\n"))
    assert qrels["q1"]["d1"] == 1


@pytest.mark.parametrize("parse, kind, good", [
    (parse_qrels, "qrels", b"q1 0 d1 1\n"),
    (parse_trec_run, "run", b"q1 Q0 d1 1 1.0 t\n"),
])
def test_parsers_reject_bytes_that_are_not_utf8_with_line(parse, kind, good):
    with pytest.raises(DataFormatError, match=f"{kind} line 2: not valid UTF-8"):
        parse(io.BytesIO(good + b"q2 0 caf\xe9 1\n"))


def test_parse_qrels_bad_grade_reports_line():
    with pytest.raises(DataFormatError, match="line 1"):
        parse_qrels(_stream("q1 0 d1 x\n"))


def test_parse_qrels_wrong_field_count():
    with pytest.raises(DataFormatError, match="4 fields"):
        parse_qrels(_stream("q1 d1 1\n"))


# -- metric parity fixtures ------------------------------------------------------
#
# Expected values are frozen from hand derivations of the trec_eval
# definitions (linear-gain ndcg_cut, map, recall; ideal ranking over all
# judged documents; queries without relevant documents excluded).

INV_LOG2_3 = 0.6309297535714575

PARITY_FIXTURES = [
    # (name, qrels-for-query, ranking, rel_threshold, {metric: expected})
    (
        "perfect_order",
        {"d1": 2, "d2": 1},
        ["d1", "d2"],
        1,
        {"map": 1.0, "ndcg@1": 1.0, "ndcg@5": 1.0, "ndcg@10": 1.0, "recall@1": 0.5, "recall@1000": 1.0},
    ),
    (
        "swapped_grades",
        {"d1": 2, "d2": 1},
        ["d2", "d1"],
        1,
        {"map": 1.0, "ndcg@1": 0.5, "ndcg@10": 0.8597186998521972, "recall@1000": 1.0},
    ),
    (
        "single_relevant_at_rank_two",
        {"d1": 1},
        ["d2", "d1"],
        1,
        {"map": 0.5, "ndcg@1": 0.0, "ndcg@10": INV_LOG2_3, "recall@10": 1.0},
    ),
    (
        "relevant_at_ranks_one_and_three",
        {"a": 1, "b": 1},
        ["a", "x", "b"],
        1,
        {"map": 5 / 6, "ndcg@1": 1.0, "ndcg@10": 0.9197207891481876, "recall@10": 1.0},
    ),
    (
        "one_of_two_retrieved",
        {"a": 1, "b": 1},
        ["a"],
        1,
        {"map": 0.5, "ndcg@10": 0.6131471927654584, "recall@10": 0.5, "recall@1": 0.5},
    ),
    (
        "graded_reverse_order",
        {"a": 3, "b": 2, "c": 1},
        ["c", "b", "a"],
        1,
        {"map": 1.0, "ndcg@1": 1 / 3, "ndcg@10": 0.7899980042460358, "recall@10": 1.0},
    ),
    (
        "threshold_two_binarization",
        {"a": 1, "b": 2},
        ["a", "b"],
        2,
        {"map": 0.5, "ndcg@10": 0.8597186998521972, "recall@1": 0.0, "recall@10": 1.0},
    ),
    (
        "relevant_at_rank_five",
        {"a": 1},
        ["x", "y", "z", "w", "a"],
        1,
        {"map": 0.2, "ndcg@1": 0.0, "ndcg@5": 0.38685280723454163, "ndcg@10": 0.38685280723454163, "recall@1": 0.0, "recall@1000": 1.0},
    ),
    (
        "all_relevant_on_top",
        {"a": 1, "b": 1, "c": 1},
        ["a", "b", "c", "x", "y"],
        1,
        {"map": 1.0, "ndcg@10": 1.0, "recall@3": 1.0, "recall@1": 1 / 3},
    ),
    (
        "empty_ranking",
        {"a": 1},
        [],
        1,
        {"map": 0.0, "ndcg@10": 0.0, "recall@10": 0.0},
    ),
    (
        "deep_qrels_truncated_ideal",
        {"a": 3, "b": 3, "c": 2, "d": 1},
        ["a", "c"],
        1,
        # DCG@2 = 3 + 2/log2(3); IDCG@2 = 3 + 3/log2(3) over all judged docs
        {"ndcg@2": (3 + 2 * INV_LOG2_3) / (3 + 3 * INV_LOG2_3), "recall@2": 0.5},
    ),
]


def _compute(metric, ranking, judged, rel_threshold):
    if metric == "map":
        return average_precision(ranking, judged, rel_threshold)
    kind, _, k = metric.partition("@")
    if kind == "ndcg":
        return ndcg_at_k(ranking, judged, int(k))
    return recall_at_k(ranking, judged, int(k), rel_threshold)


def _compute_oracle(metric, ranking, judged, rel_threshold):
    if metric == "map":
        return ap_oracle(ranking, judged, rel_threshold)
    kind, _, k = metric.partition("@")
    if kind == "ndcg":
        return ndcg_oracle(ranking, judged, int(k))
    return recall_oracle(ranking, judged, int(k), rel_threshold)


@pytest.mark.parametrize("name,judged,ranking,rel_threshold,expected", PARITY_FIXTURES)
def test_metric_parity_fixture(name, judged, ranking, rel_threshold, expected):
    for metric, value in expected.items():
        got = _compute(metric, ranking, judged, rel_threshold)
        assert got == pytest.approx(value, abs=1e-4), f"{name}:{metric}"
        oracle = _compute_oracle(metric, ranking, judged, rel_threshold)
        assert got == pytest.approx(oracle, abs=1e-9), f"{name}:{metric} vs oracle"


def test_metrics_exclude_queries_without_relevant():
    assert ndcg_at_k(["d1"], {"d1": 0}, 10) is None
    assert average_precision(["d1"], {"d1": 0}) is None
    assert recall_at_k(["d1"], {"d1": 0}, 10) is None
    assert average_precision(["d1"], {"d1": 1}, rel_threshold=2) is None


def test_ndcg_exponential_gain_flag():
    judged = {"a": 2, "b": 1}
    linear = ndcg_at_k(["b", "a"], judged, 10)
    exponential = ndcg_at_k(["b", "a"], judged, 10, exponential=True)
    # gains 3 and 1 instead of 2 and 1 penalize the swap harder
    assert exponential < linear


# -- metric properties -------------------------------------------------------------


_grades = st.dictionaries(
    st.sampled_from([f"d{i}" for i in range(8)]),
    st.integers(min_value=0, max_value=3),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(judged=_grades, seed=st.randoms(use_true_random=False), k=st.integers(1, 8))
def test_metrics_bounded(judged, seed, k):
    docs = sorted(judged) + ["extra1", "extra2"]
    seed.shuffle(docs)
    for value in (
        ndcg_at_k(docs, judged, k),
        average_precision(docs, judged),
        recall_at_k(docs, judged, k),
    ):
        assert value is None or 0.0 <= value <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(judged=_grades, seed=st.randoms(use_true_random=False), k=st.integers(1, 5))
def test_tail_permutation_below_k_does_not_change_cutoff_metrics(judged, seed, k):
    docs = sorted(judged) + [f"pad{i}" for i in range(5)]
    seed.shuffle(docs)
    head, tail = docs[:k], docs[k:]
    shuffled_tail = tail[:]
    seed.shuffle(shuffled_tail)
    a, b = head + tail, head + shuffled_tail
    assert ndcg_at_k(a, judged, k) == ndcg_at_k(b, judged, k)
    assert recall_at_k(a, judged, k) == recall_at_k(b, judged, k)


def test_ndcg_depends_only_on_order_not_scores():
    # identical rankings expressed with different score scales
    rankings = {"q1": Ranking(["a", "b"], [100.0, 10.0])}
    transformed = {"q1": Ranking(["a", "b"], [0.9, 0.8])}
    qrels = {"q1": {"a": 1, "b": 1}}
    r1 = evaluate_run(rankings, qrels, ["ndcg_cut.10"])
    r2 = evaluate_run(transformed, qrels, ["ndcg_cut.10"])
    assert r1.macro == r2.macro


# -- run files -----------------------------------------------------------------------


def test_write_trec_run_format():
    text = write_trec_run({"q1": Ranking(["d1"], [2.5])}, tag="csqe")
    assert text == "q1 Q0 d1 1 2.500000 csqe\n"


def test_write_trec_run_ranks_sequentially():
    text = write_trec_run({"q1": Ranking(["d1", "d9", "d2"], [2.0, 1.0, 1.0])})
    lines = text.splitlines()
    assert lines[0].split()[3] == "1"
    assert lines[1].split()[3] == "2"
    assert lines[2].split()[3] == "3"


# Ids are one field each: no whitespace (every str.isspace character is in one
# of these categories) and no lone surrogate, which UTF-8 cannot carry.
_run_id = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                  min_size=1, max_size=6)


@st.composite
def _rankings(draw):
    """Distinct query ids, each with distinct doc ids and descending scores
    (ties included) that ``%.6f`` prints exactly."""
    rankings = {}
    for qid in draw(st.lists(_run_id, unique=True, max_size=4)):
        docids = draw(st.lists(_run_id, unique=True, min_size=1, max_size=8))
        scores = draw(st.lists(st.integers(-16, 16), min_size=len(docids),
                               max_size=len(docids)))
        rankings[qid] = Ranking(docids, [k / 64 for k in sorted(scores, reverse=True)])
    return rankings


@given(_rankings())
def test_run_round_trip_preserves_order(rankings):
    assert parse_trec_run(_stream(write_trec_run(rankings))) == rankings


def test_parse_run_rejects_duplicate_docs():
    text = "q1 Q0 d1 1 2.0 x\nq1 Q0 d1 2 1.0 x\n"
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_trec_run(_stream(text))


def test_parse_run_resorts_by_score():
    text = "q1 Q0 low 1 1.0 x\nq1 Q0 high 2 9.0 x\n"
    parsed = parse_trec_run(_stream(text))
    assert [d for d, _ in parsed["q1"]] == ["high", "low"]


def test_parse_run_returns_a_ranking_per_query():
    parsed = parse_trec_run(_stream("q1 Q0 a 1 1.0 x\nq2 Q0 b 1 2.0 x\nq1 Q0 c 2 3.0 x\n"))
    assert list(parsed) == ["q1", "q2"]
    assert all(type(ranking) is Ranking for ranking in parsed.values())
    assert parsed["q1"].doc_ids == ["c", "a"] and parsed["q1"].scores == [3.0, 1.0]
    assert parsed["q2"][0] == ScoredHit("b", 2.0)



def test_tied_scores_keep_file_order_unlike_trec_eval():
    # "a" and "b" tie; only "b" is relevant. File order a, b gives
    # nDCG@1 = 0 and nDCG@2 = (1 / log2(3)) / 1; trec_eval would rank b
    # (docno descending) first and report 1.0 for both.
    qrels = {"q1": {"b": 1}}
    run = parse_trec_run(_stream("q1 Q0 a 1 1.500000 x\nq1 Q0 b 2 1.500000 x\n"))
    assert [d for d, _ in run["q1"]] == ["a", "b"]
    report = evaluate_run(run, qrels, ["ndcg_cut.1", "ndcg_cut.2"])
    assert report.macro["ndcg_cut.1"] == 0.0
    assert report.macro["ndcg_cut.2"] == pytest.approx(1 / math.log2(3), rel=1e-12)
    swapped = parse_trec_run(_stream("q1 Q0 b 1 1.500000 x\nq1 Q0 a 2 1.500000 x\n"))
    report = evaluate_run(swapped, qrels, ["ndcg_cut.1", "ndcg_cut.2"])
    assert report.macro == {"ndcg_cut.1": 1.0, "ndcg_cut.2": 1.0}


def test_write_trec_run_prints_percent_and_braces_literally():
    text = write_trec_run({"q%d{0}": Ranking(["d%s{}"], [1.5])}, tag="t%%{tag}")
    assert text == "q%d{0} Q0 d%s{} 1 1.500000 t%%{tag}\n"


# Ids and tags the writer must print as themselves: format characters, braces
# and non-ASCII text, besides arbitrary strings.
_writer_id = st.text(st.sampled_from("%%{}sd0.é€中") | st.characters(), max_size=6)
_writer_score = (st.floats(allow_nan=False) | st.integers(-10 ** 6, 10 ** 6)
                 | st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, math.inf, -math.inf]))


@st.composite
def _writer_rankings(draw):
    """Several queries of depth 0-40, in an order that both grows and cuts the template."""
    rankings = {}
    for qid in draw(st.lists(_writer_id, unique=True, min_size=1, max_size=5)):
        depth = draw(st.integers(0, 40))
        rankings[qid] = Ranking(draw(st.lists(_writer_id, min_size=depth, max_size=depth)),
                                draw(st.lists(_writer_score, min_size=depth, max_size=depth)))
    return rankings


@settings(max_examples=100, deadline=None)
@given(rankings=_writer_rankings(), tag=_writer_id)
def test_write_trec_run_matches_the_per_line_writer(rankings, tag):
    # each example starts from an empty shared template, so the call must grow it
    with mock.patch.object(csqe.evaluation, "_run_template", ("", [])):
        assert write_trec_run(rankings, tag) == oracle_write_trec_run(rankings, tag)


def test_write_trec_run_from_many_threads_at_once():
    # 8 threads write rankings of different depths while the shared template grows
    def ranking(thread, depth):
        return {f"q%{thread}": Ranking([f"d{{{i}}}" for i in range(depth)],
                                       [(depth - i) / 7 for i in range(depth)])}

    barrier = threading.Barrier(8)
    mismatches = []

    def write(thread):
        barrier.wait(timeout=30)
        for depth in range(thread + 1, 1200, 8 + 13 * thread):
            rankings = ranking(thread, depth)
            if write_trec_run(rankings, "t%s") != oracle_write_trec_run(rankings, "t%s"):
                mismatches.append((thread, depth))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(csqe.evaluation, "_run_template", ("", [])):
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(write, range(8), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert mismatches == []


def test_parse_run_rejects_a_nan_score():
    text = "q1 Q0 a 1 2.0 x\nq1 Q0 b 2 nan x\nq1 Q0 c 3 3.0 x\nq1 Q0 d 4 1.0 x\n"
    with pytest.raises(DataFormatError, match="^run line 2: score 'nan' is not a number$"):
        parse_trec_run(_stream(text))


def test_parse_run_checks_the_lines_before_one_that_is_not_utf8():
    with pytest.raises(DataFormatError, match="^run line 1: expected 6 fields, got 3$"):
        parse_trec_run(io.BytesIO(b"q1 Q0 d1\nq1 Q0 caf\xe9 1 1.0 t\n"))


# Run-like lines for the differential test against the line-by-line parser:
# a small pool of query and doc ids (so duplicates and interleaved queries
# occur), scores that tie, are signed or infinite, and separators that
# str.split() splits on but "\n"-only line splitting must leave inside the
# line. One line may have a bad field count or score, and one may hold bytes
# that are not UTF-8. NaN is left out: the old parser accepted it.
_SEPARATORS = [" ", "  ", "\t", "\r", "\x0c", "\x85", "\u2028"]
_SCORES = ["1.0", "1.000000", "2.5", "-0.0", "0", "1e3", "1000", "inf", "-inf"]


def _fields(scores=st.sampled_from(_SCORES)):
    return st.tuples(st.sampled_from(["q1", "q2", "q3"]), st.just("Q0"), st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
                     st.integers(1, 9).map(str), scores, st.just("t")).map(list)


def _line(fields):
    return st.tuples(
        fields, st.lists(st.sampled_from(_SEPARATORS), min_size=8, max_size=8),
        st.sampled_from(["\n", "\n", "\r\n"]),
    ).map(lambda t: "".join(f + sep for f, sep in zip(t[0], t[1])).rstrip(" ") + t[2])


_good_line = _line(_fields() | st.just([]))
_bad_line = _line(_fields(scores=st.sampled_from(["x", "1.0.0", "0x1"]))
                  | st.lists(st.sampled_from(["q1", "Q0", "d1", "2.5", "é"]), max_size=8))


def _outcome(parse, source):
    try:
        return "ok", [(qid, list(ranking)) for qid, ranking in parse(source).items()]
    except DataFormatError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_good_line, max_size=12),
       bad_line=st.none() | st.tuples(st.integers(0, 12), _bad_line),
       bad_bytes=st.none() | st.tuples(st.integers(0, 12), st.sampled_from(
           [b"\xff", b"\xe9 ", b"\xe2\x82", b"\xed\xa0\x80"])),
       unterminated=st.booleans(), chunk_size=st.integers(1, 16))
def test_one_pass_parser_matches_the_line_by_line_parser(lines, bad_line, bad_bytes,
                                                         unterminated, chunk_size):
    if bad_line is not None:
        lines.insert(bad_line[0] % (len(lines) + 1), bad_line[1])
    if unterminated and lines:
        lines[-1] = lines[-1].rstrip("\r\n")
    raw = [line.encode("utf-8") for line in lines]
    if bad_bytes is not None and raw:
        at = bad_bytes[0] % len(raw)
        raw[at] = bad_bytes[1] + raw[at]
    data = b"".join(raw)
    expected = _outcome(line_by_line_parse_trec_run, io.BytesIO(data))
    # chunks of 1-16 bytes cut lines, multi-byte sequences and "\r\n" pairs anywhere
    with mock.patch.object(csqe.corpus, "_CHUNK_SIZE", chunk_size):
        assert _outcome(parse_trec_run, io.BytesIO(data)) == expected


# -- evaluate_run ----------------------------------------------------------------------


def test_evaluate_ideal_run_is_all_ones():
    qrels = {"q1": {"a": 2, "b": 1}, "q2": {"c": 1}}
    run = {"q1": Ranking(["a", "b"], [2.0, 1.0]), "q2": Ranking(["c"], [1.0])}
    report = evaluate_run(run, qrels, ["map", "ndcg_cut.10", "recall.1000"])
    assert all(value == pytest.approx(1.0) for value in report.macro.values())


def test_evaluate_two_line_fixture():
    qrels = {"q1": {"d1": 1}}
    run = {"q1": Ranking(["d2", "d1"], [2.0, 1.0])}
    report = evaluate_run(run, qrels, ["ndcg_cut.10", "map"])
    assert report.macro["ndcg_cut.10"] == pytest.approx(INV_LOG2_3, abs=1e-4)
    assert report.macro["map"] == pytest.approx(0.5)


def test_evaluate_macro_is_arithmetic_mean():
    qrels = {"q1": {"a": 1}, "q2": {"b": 1}}
    run = {"q1": Ranking(["a"], [1.0]), "q2": Ranking(["x", "b"], [2.0, 1.0])}
    report = evaluate_run(run, qrels, ["map"])
    assert report.per_query["map"] == {"q1": 1.0, "q2": 0.5}
    assert report.macro["map"] == pytest.approx(0.75)


def test_evaluate_skips_unjudged_queries_with_warning(caplog):
    qrels = {"q1": {"a": 1}}
    run = {"q1": Ranking(["a"], [1.0]), "q9": Ranking(["a"], [1.0])}
    with caplog.at_level("WARNING"):
        report = evaluate_run(run, qrels, ["map"])
    assert report.skipped_queries == ["q9"]
    assert "q9" in caplog.text
    assert len(report.per_query["map"]) == 1


def test_evaluate_empty_run_warns(caplog):
    with caplog.at_level("WARNING"):
        report = evaluate_run({}, {"q1": {"a": 1}}, ["map"])
    assert len(report.per_query["map"]) == 0
    assert report.macro["map"] is None
    assert "no queries" in caplog.text


def test_evaluate_excludes_all_zero_query_from_averages():
    qrels = {"q1": {"a": 1}, "q2": {"b": 0}}
    run = {"q1": Ranking(["a"], [1.0]), "q2": Ranking(["b"], [1.0])}
    report = evaluate_run(run, qrels, ["map", "ndcg_cut.10"])
    assert len(report.per_query["map"]) == 1
    assert report.macro["map"] == pytest.approx(1.0)


def test_metric_spec_parsing():
    assert parse_metric_spec("map").kind == "map"
    assert parse_metric_spec("ndcg_cut.10").k == 10
    assert parse_metric_spec("recall.1000").k == 1000
    with pytest.raises(ValueError):
        parse_metric_spec("bleu")
    with pytest.raises(ValueError):
        parse_metric_spec("ndcg_cut.zero")


def test_report_rendering():
    qrels = {"q1": {"a": 1}}
    run = {"q1": Ranking(["a"], [1.0])}
    report = evaluate_run(run, qrels, ["map", "ndcg_cut.10"])
    table = report.format_table()
    assert "map" in table and "ndcg_cut.10" in table and "1.0000" in table
    assert '"macro"' in report.to_json()
