"""Acceptance suite.

One test per criterion; each prints an ACCEPTANCE <n> PASS/FAIL line
(visible with ``pytest -s tests/test_acceptance.py``).
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from csqe.cli import main
from csqe.corpus import Document, STOPWORDS
from csqe.evaluation import evaluate_run, parse_qrels, parse_trec_run
from csqe.expansion import (
    EXAMPLE_ANSWER,
    EXAMPLE_DOCS,
    EXAMPLE_QUERY,
    build_csqe_prompt,
    build_keqe_prompt,
    parse_csqe_response,
    verify_extraction,
)
from csqe.index import build_index
from csqe.prf import Rm3Config, rm3_expand

from conftest import DATA_DIR, TOY_DIR
from oracles import bm25_scores, ranking_from_scores, rm3_weights
from test_evaluation import PARITY_FIXTURES, _compute


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}")


# 1 -------------------------------------------------------------------------------


def test_criterion_1_bm25_oracle_equivalence():
    with criterion(1, "BM25 matches the brute-force oracle on 200 random corpora"):
        rng = random.Random(42)
        alphabet = ["d2", "f3", "g5", "h7", "j9", "k4", "m6", "n8", "p2", "r4"]
        started = time.monotonic()
        for _ in range(200):
            n_docs = rng.randint(1, 20)
            token_lists = [
                [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
                for _ in range(n_docs)
            ]
            query = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            docs = [Document(f"doc{i:03d}", " ".join(toks)) for i, toks in enumerate(token_lists)]
            index = build_index(docs)
            hits = index.search(" ".join(query), n_docs)
            expected = ranking_from_scores(
                [d.id for d in docs], bm25_scores(token_lists, query)
            )
            assert [h.doc_id for h in hits] == [d for d, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, rel=1e-9)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


# 2 -------------------------------------------------------------------------------


def test_criterion_2_rm3_oracle_equivalence(shark_index):
    with criterion(2, "RM3 weights match the step-by-step oracle on the 3-doc corpus"):
        token_lists = [["shark", "shark"], ["shark", "warm"], ["cold"]]
        cfg = Rm3Config(fb_docs=2, fb_terms=2, original_weight=0.5)
        wq = rm3_expand(shark_index, "shark", cfg)
        expected = rm3_weights(
            ["d1", "d2", "d3"], token_lists, ["shark"],
            fb_docs=2, fb_terms=2, original_weight=0.5, stopwords=STOPWORDS,
        )
        assert set(wq.weights) == set(expected)
        for term, weight in expected.items():
            assert abs(wq.weights[term] - weight) <= 1e-9
        # interpolation endpoints hold exactly
        at_one = rm3_expand(shark_index, "shark shark warm", Rm3Config(original_weight=1.0))
        assert at_one.weights == {"shark": 2 / 3, "warm": 1 / 3}
        at_zero = rm3_expand(
            shark_index, "shark", Rm3Config(fb_docs=1, fb_terms=10, original_weight=0.0)
        )
        assert at_zero.weights == {"shark": 1.0}


# 3 -------------------------------------------------------------------------------


def test_criterion_3_metric_parity():
    with criterion(3, f"metrics match the evaluator oracle on {len(PARITY_FIXTURES)} fixtures"):
        assert len(PARITY_FIXTURES) >= 10
        checked = 0
        for name, judged, ranking, rel_threshold, expected in PARITY_FIXTURES:
            for metric, value in expected.items():
                got = _compute(metric, ranking, judged, rel_threshold)
                assert got == pytest.approx(value, abs=1e-4), f"{name}:{metric}"
                checked += 1
        # the hand-derived nDCG = 1/log2(3) fixture is present
        got = _compute("ndcg@10", ["d2", "d1"], {"d1": 1}, 1)
        assert got == pytest.approx(0.6309, abs=1e-4)
        assert checked >= 30


# 4 -------------------------------------------------------------------------------


def test_criterion_4_prompt_golden():
    with criterion(4, "prompt builders reproduce the templates byte-for-byte"):
        assert build_keqe_prompt("Biology definition") == (
            "Please write a passage to answer the question"
            "\n\nQuestion: Biology definition\n\nPassage:"
        )
        golden = (DATA_DIR / "csqe_prompt_golden.txt").read_bytes()
        built = build_csqe_prompt(EXAMPLE_QUERY, EXAMPLE_DOCS).encode("utf-8")
        assert built == golden
        assert b"You will begin by examining the initially retrieved documents" in built


# 5 -------------------------------------------------------------------------------


def test_criterion_5_parser_golden_and_verbatimness():
    with criterion(5, "worked answer parses to [1,3,4] and verifies strictly below 1.0"):
        result = parse_csqe_response(EXAMPLE_ANSWER, 4)
        assert result.relevant_doc_ordinals == [1, 3, 4]
        assert len(result.sentences) == 5
        altered = "Actually, the Salmon Shark is a warm-blooded shark."
        assert altered in result.sentences

        # independent substring oracle over whitespace-normalized text
        def normalized(text):
            return " ".join(text.split())

        oracle_hits = sum(
            1
            for s in result.sentences
            if any(normalized(s) in normalized(d) for d in EXAMPLE_DOCS)
        )
        oracle_fraction = oracle_hits / len(result.sentences)
        fraction = verify_extraction(result.sentences, EXAMPLE_DOCS)
        assert fraction == pytest.approx(oracle_fraction)
        assert fraction < 1.0
        assert fraction == pytest.approx(0.4)  # 2 of the 5 sentences are verbatim
        assert not any(normalized(altered) in normalized(d) for d in EXAMPLE_DOCS)


# 6 -------------------------------------------------------------------------------


def _cli_run(method, index_path, output, extra=()):
    args = [
        "run", "--method", method,
        "--queries", str(TOY_DIR / "queries.tsv"),
        "--index", str(index_path),
        "--output", str(output),
    ]
    args.extend(extra)
    assert main(args) == 0


_MOCK = ("--backend", "mock", "--mock-fixtures", str(TOY_DIR / "fixtures.json"))


def test_criterion_6_end_to_end_improvement(tmp_path):
    with criterion(6, "CSQE beats BM25 on the toy dataset and never demotes a relevant doc"):
        started = time.monotonic()
        index_path = tmp_path / "toy.bin"
        assert main(["index", "--input", str(TOY_DIR / "corpus.jsonl"),
                     "--output", str(index_path)]) == 0
        bm25_out, csqe_out = tmp_path / "bm25.txt", tmp_path / "csqe.txt"
        _cli_run("bm25", index_path, bm25_out)
        _cli_run("csqe", index_path, csqe_out, _MOCK)

        with open(TOY_DIR / "qrels.txt", "rb") as fh:
            qrels = parse_qrels(fh)
        with open(bm25_out, "rb") as fh:
            bm25_run = parse_trec_run(fh)
        with open(csqe_out, "rb") as fh:
            csqe_run = parse_trec_run(fh)

        bm25_ndcg = evaluate_run(bm25_run, qrels, ["ndcg_cut.10"]).macro["ndcg_cut.10"]
        csqe_ndcg = evaluate_run(csqe_run, qrels, ["ndcg_cut.10"]).macro["ndcg_cut.10"]
        assert csqe_ndcg > bm25_ndcg, f"csqe {csqe_ndcg} vs bm25 {bm25_ndcg}"

        def rank_of(run, qid, doc_id):
            ids = [d for d, _ in run[qid]]
            assert doc_id in ids, f"{doc_id} missing from {qid} ranking"
            return ids.index(doc_id) + 1

        for qid, judged in qrels.items():
            for doc_id, grade in judged.items():
                if grade > 0:
                    assert rank_of(csqe_run, qid, doc_id) <= rank_of(bm25_run, qid, doc_id)

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"


# 7 -------------------------------------------------------------------------------


def test_criterion_7_reproducibility(tmp_path):
    with criterion(7, "consecutive mock runs produce byte-identical run files and manifests"):
        index_path = tmp_path / "toy.bin"
        assert main(["index", "--input", str(TOY_DIR / "corpus.jsonl"),
                     "--output", str(index_path)]) == 0
        output = tmp_path / "csqe.txt"
        manifest = tmp_path / "csqe.txt.manifest.json"
        _cli_run("csqe", index_path, output, _MOCK)
        first_run, first_manifest = output.read_bytes(), manifest.read_bytes()
        _cli_run("csqe", index_path, output, _MOCK)
        assert output.read_bytes() == first_run
        assert manifest.read_bytes() == first_manifest


# 8 -------------------------------------------------------------------------------


def test_criterion_8_replication_documented():
    with criterion(8, "README documents the full-scale replication procedure"):
        readme = (TOY_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
        for needle in ("MS MARCO", "DL19", "50.6", "temperature 1.0", "nDCG@10"):
            assert needle in readme, f"README is missing {needle!r}"
