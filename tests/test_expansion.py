import json
import math
import re
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from csqe.corpus import Document, Query, tokenize
from csqe.errors import BackendError
from csqe.expansion import (
    EXAMPLE_ANSWER,
    EXAMPLE_DOCS,
    EXAMPLE_QUERY,
    PipelineConfig,
    build_csqe_prompt,
    build_keqe_prompt,
    compose_expanded_query,
    csqe_pipeline,
    format_extraction_response,
    parse_csqe_response,
    verify_extraction,
    write_prompt_dump,
)
from csqe.index import InvertedIndex, Ranking, build_index
from csqe.llm import GenerationCache, LlmClient, MockBackend, RemoteBackend, fixture_key

from conftest import DATA_DIR


# -- prompt builders -----------------------------------------------------------


def test_keqe_prompt_template():
    assert build_keqe_prompt("Biology definition") == (
        "Please write a passage to answer the question"
        "\n\nQuestion: Biology definition\n\nPassage:"
    )


def test_keqe_prompt_preserves_newlines():
    prompt = build_keqe_prompt("line one\nline two")
    assert "Question: line one\nline two\n\nPassage:" in prompt


def test_keqe_prompt_rejects_empty_query():
    with pytest.raises(ValueError):
        build_keqe_prompt("")


def test_csqe_prompt_matches_golden_bytes():
    golden = (DATA_DIR / "csqe_prompt_golden.txt").read_bytes()
    built = build_csqe_prompt(EXAMPLE_QUERY, EXAMPLE_DOCS).encode("utf-8")
    assert built == golden


def test_csqe_prompt_numbers_documents():
    prompt = build_csqe_prompt(
        "Biology definition",
        ["Biology is the study of life", "Physics is the study of matter"],
    )
    tail = prompt.split('Query: "Biology definition"')[1]
    assert "\n1. Biology is the study of life\n" in tail
    assert "\n2. Physics is the study of matter\n" in tail
    assert "3." not in tail


def test_csqe_prompt_rejects_empty_docs():
    with pytest.raises(ValueError):
        build_csqe_prompt("q", [])


def test_csqe_prompt_starts_with_one_shot_example():
    prompt = build_csqe_prompt("unrelated query", ["some doc"])
    assert prompt.startswith('Query: "how are some sharks warm blooded"')
    assert "Please write a passage" not in prompt


# -- response parsing ------------------------------------------------------------


def test_parse_worked_answer_golden():
    raw = (DATA_DIR / "csqe_worked_answer.txt").read_text(encoding="utf-8")
    result = parse_csqe_response(raw, 4)
    assert result.relevant_doc_ordinals == [1, 3, 4]
    assert len(result.sentences) == 5
    assert result.sentences[0] == (
        "Most sharks are cold-blooded. Some, like the Mako and the Great white "
        "shark, are partially warm-blooded (they are endotherms)."
    )
    assert result.sentences[4] == (
        "Salmon sharks can elevate their body temperatures by up to 20 degrees "
        "compared to the surrounding water, for example."
    )


def test_worked_answer_constant_matches_golden_file():
    golden = (DATA_DIR / "csqe_worked_answer.txt").read_text(encoding="utf-8")
    assert EXAMPLE_ANSWER == golden


def test_parse_no_relevant_documents():
    result = parse_csqe_response("I found no relevant documents.", 4)
    assert result.relevant_doc_ordinals == []
    assert result.sentences == []


def test_parse_out_of_range_header_ignored(caplog):
    raw = 'Document 7:\n"should be dropped"\nDocument 2:\n"kept"'
    with caplog.at_level("WARNING"):
        result = parse_csqe_response(raw, 3)
    assert result.relevant_doc_ordinals == [2]
    assert result.sentences == ["kept"]
    assert "outside" in caplog.text


def test_parse_sentence_on_header_line():
    result = parse_csqe_response('Document 2: "same line sentence"', 5)
    assert result.relevant_doc_ordinals == [2]
    assert result.sentences == ["same line sentence"]


def test_parse_unquoted_prose_fallback(caplog):
    raw = "Document 1:\nThe key fact is stated without quotes.\n"
    with caplog.at_level("WARNING"):
        result = parse_csqe_response(raw, 2)
    assert result.sentences == ["The key fact is stated without quotes."]


def test_parse_punctuation_only_lines_skipped():
    raw = "Document 1:\n---\n...\n"
    assert parse_csqe_response(raw, 2).sentences == []


def test_parse_deduplicates_sentences():
    raw = 'Document 1:\n"twice"\n\n"twice"\nDocument 2:\n"twice"\n"once"'
    result = parse_csqe_response(raw, 2)
    assert result.sentences == ["twice", "once"]
    assert result.relevant_doc_ordinals == [1, 2]


def test_parse_duplicate_headers_record_ordinal_once():
    raw = 'Document 1:\n"a"\nDocument 1:\n"b"'
    result = parse_csqe_response(raw, 2)
    assert result.relevant_doc_ordinals == [1]
    assert result.sentences == ["a", "b"]


def test_parse_case_insensitive_headers():
    raw = 'DOCUMENT 2:\n"shouty"'
    result = parse_csqe_response(raw, 3)
    assert result.relevant_doc_ordinals == [2]


def test_parse_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        parse_csqe_response("x", 0)


_SENTENCE_CHARS = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" ,.'-"
)
_sentences = (
    st.text(alphabet=_SENTENCE_CHARS, min_size=1, max_size=60)
    .map(str.strip)
    .filter(lambda s: s and re.search(r"[^\W_]", s))
)


@st.composite
def _extraction_cases(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    ordinals = draw(
        st.lists(st.integers(min_value=1, max_value=k), min_size=1, max_size=min(k, 4), unique=True)
    )
    pool = draw(
        st.lists(_sentences, min_size=len(ordinals), max_size=len(ordinals) * 3, unique=True)
    )
    sections = []
    start = 0
    per_section = max(1, len(pool) // len(ordinals))
    for ordinal in ordinals:
        sections.append((ordinal, pool[start:start + per_section]))
        start += per_section
    return k, sections


@settings(max_examples=80, deadline=None)
@given(_extraction_cases())
def test_parse_round_trips_formatted_responses(case):
    k, sections = case
    raw = format_extraction_response("any query", sections)
    result = parse_csqe_response(raw, k)
    assert result.relevant_doc_ordinals == [o for o, _ in sections]
    expected = []
    for _, chunk in sections:
        expected.extend(chunk)
    assert result.sentences == expected


_response_lines = st.one_of(
    st.text(max_size=40),
    st.builds("Document {}:{}".format,
              st.one_of(st.integers(min_value=0, max_value=25), st.just("9" * 5000)),
              st.text(max_size=30)),
    st.builds('"{}"'.format, st.text(max_size=30)),
)


@settings(max_examples=200, deadline=None)
@given(raw=st.one_of(st.text(), st.lists(_response_lines, max_size=12).map("\n".join)),
       k=st.integers(min_value=1, max_value=20))
def test_parse_any_text_yields_clean_ordinals_and_sentences(raw, k):
    result = parse_csqe_response(raw, k)
    ordinals = result.relevant_doc_ordinals
    assert len(set(ordinals)) == len(ordinals)
    assert all(1 <= o <= k for o in ordinals)
    assert all(s and s == s.strip() for s in result.sentences)
    assert len(set(result.sentences)) == len(result.sentences)


# -- extraction verification ------------------------------------------------------


def test_verify_copied_sentences_is_one():
    docs = ["alpha beta gamma. delta epsilon.", "zeta eta theta."]
    assert verify_extraction(["delta epsilon.", "zeta eta theta."], docs) == 1.0


def test_verify_counts_fabrications():
    docs = ["alpha beta gamma"]
    assert verify_extraction(["alpha beta", "made up entirely"], docs) == 0.5


def test_verify_empty_is_vacuously_one():
    assert verify_extraction([], ["doc"]) == 1.0


def test_verify_normalizes_whitespace():
    docs = ["spread  over\n lines here"]
    assert verify_extraction(["spread over lines"], docs) == 1.0


def test_verify_worked_answer_strictly_below_one():
    # the one-shot answer edits three sentences (added hyphens and a comma),
    # so only 2 of 5 survive the substring check
    result = parse_csqe_response(EXAMPLE_ANSWER, 4)
    fraction = verify_extraction(result.sentences, EXAMPLE_DOCS)
    assert fraction < 1.0
    assert fraction == pytest.approx(0.4)


@settings(max_examples=40, deadline=None)
@given(_extraction_cases())
def test_sentences_quoted_from_docs_always_verify(case):
    k, sections = case
    # build docs so every quoted sentence is verbatim inside its document
    docs = ["padding start. " + " ".join(chunk) + " padding end." for _, chunk in sections]
    raw = format_extraction_response("q", sections)
    parsed = parse_csqe_response(raw, k)
    assert verify_extraction(parsed.sentences, docs) == 1.0


# -- query composition -------------------------------------------------------------


@pytest.mark.parametrize(
    "query,expansions,expected",
    [
        ("abc", ["x", "y"], "abc abc x y"),
        ("abc", [], "abc"),
        ("abc", ["x"], "abc x"),
    ],
)
def test_compose_examples(query, expansions, expected):
    assert compose_expanded_query(query, expansions) == expected


def test_compose_rejects_empty_query():
    with pytest.raises(ValueError):
        compose_expanded_query("", ["x"])


@given(
    query=st.text(alphabet="abcdef ", min_size=1, max_size=20).filter(str.split),
    expansions=st.lists(
        st.text(alphabet="ghijkl \n\t", min_size=1, max_size=20).filter(str.split),
        max_size=5,
    ),
)
def test_compose_token_arithmetic(query, expansions):
    composed = compose_expanded_query(query, expansions)
    expected = len(expansions) * len(query.split()) + sum(len(e.split()) for e in expansions)
    if not expansions:
        expected = len(query.split())
    assert len(composed.split()) == expected



_WORDS = ["sharks", "shark", "the", "warm", "running", "ran", "ΑΣ", "İstanbul", "co-op", "x1"]
_TEXT = st.one_of(st.text(max_size=30),
                  st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join))


@settings(max_examples=200, deadline=None)
@given(query=_TEXT.filter(bool), expansions=st.lists(_TEXT, min_size=1, max_size=5))
def test_compose_term_counts_are_the_repeated_query_plus_the_expansions(query, expansions):
    composed = Counter(tokenize(compose_expanded_query(query, expansions)))
    expected = Counter()
    for _ in expansions:
        expected.update(tokenize(query))
    for expansion in expansions:
        expected.update(tokenize(expansion))
    assert composed == expected
    assert compose_expanded_query(query, []) == query

# -- pipelines ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_index():
    docs = [
        Document("rel", "penguin huddle conserve heat antarctic winter blubber feather"),
        Document("near", "penguin colony antarctic tourism marked path"),
        Document("off1", "warm front ocean weather mild station"),
        Document("off2", "sled dog thick coat blizzard"),
        Document("off3", "battery energy lithium cell"),
    ]
    return build_index(docs)


def _client(fixtures):
    return LlmClient(MockBackend(fixtures))


def test_keqe_pipeline_equals_manual_composition(pipeline_index, monkeypatch):
    query = Query("q1", "penguin heat")
    prompt = build_keqe_prompt(query.text)
    passages = [f"passage {i} about penguin huddle heat" for i in range(5)]
    fixtures = {fixture_key(prompt, i): p for i, p in enumerate(passages)}
    cfg = PipelineConfig(n_keqe=5, n_csqe=0)
    searched = []
    search = InvertedIndex.search

    def spy(self, text, k):
        searched.append(text)
        return search(self, text, k)

    monkeypatch.setattr(InvertedIndex, "search", spy)
    hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    composed = compose_expanded_query(query.text, passages)
    assert searched == [composed]  # n_csqe=0 runs no first pass
    manual = pipeline_index.search(composed, 10)
    assert isinstance(hits, Ranking)
    assert hits == manual


def test_keqe_pipeline_empty_completions_fall_back_to_bm25(pipeline_index):
    query = Query("q1", "penguin heat")
    prompt = build_keqe_prompt(query.text)
    fixtures = {fixture_key(prompt, i): "" for i in range(5)}
    cfg = PipelineConfig(n_keqe=5, n_csqe=0)
    hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    assert hits == pipeline_index.search(query.text, 10)


def test_keqe_pipeline_passage_matching_relevant_doc_ranks_it_first(pipeline_index):
    query = Query("q1", "antarctic penguin")
    prompt = build_keqe_prompt(query.text)
    relevant_text = pipeline_index.doc_texts[pipeline_index.ordinal("rel")]
    fixtures = {fixture_key(prompt, 0): relevant_text}
    cfg = PipelineConfig(n_keqe=1, n_csqe=0)
    hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    assert hits[0].doc_id == "rel"


def _csqe_fixtures(index, query, cfg, responses, keqe_passages):
    from csqe.corpus import truncate_whitespace_tokens

    first_pass = index.search(query.text, cfg.k_feedback)
    docs = [
        truncate_whitespace_tokens(index.doc_texts[index.ordinal(h.doc_id)], cfg.doc_token_budget)
        for h in first_pass
    ]
    prompt = build_csqe_prompt(query.text, docs)
    fixtures = {fixture_key(prompt, i): r for i, r in enumerate(responses)}
    keqe_prompt = build_keqe_prompt(query.text)
    fixtures.update({fixture_key(keqe_prompt, i): p for i, p in enumerate(keqe_passages)})
    return fixtures, first_pass


def test_csqe_pipeline_composition_and_determinism(pipeline_index):
    query = Query("q1", "penguin heat")
    cfg = PipelineConfig(n_keqe=2, n_csqe=2, k_feedback=5)
    first_pass = pipeline_index.search(query.text, cfg.k_feedback)
    rel_pos = [h.doc_id for h in first_pass].index("rel") + 1
    sentence = "penguin huddle conserve heat antarctic winter blubber feather"
    response = format_extraction_response(query.text, [(rel_pos, [sentence])])
    fixtures, _ = _csqe_fixtures(
        pipeline_index, query, cfg,
        responses=[response, response],  # identical samples pool to one sentence
        keqe_passages=["huddle keeps penguin heat", "penguin blubber holds heat"],
    )
    hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    manual = pipeline_index.search(
        compose_expanded_query(
            query.text,
            [sentence, "huddle keeps penguin heat", "penguin blubber holds heat"],
        ),
        10,
    )
    assert isinstance(hits, Ranking)
    assert hits == manual
    again, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    assert hits == again


def test_csqe_pipeline_headerless_responses_reduce_to_keqe(pipeline_index):
    query = Query("q1", "penguin heat")
    cfg = PipelineConfig(n_keqe=2, n_csqe=2, k_feedback=5)
    fixtures, _ = _csqe_fixtures(
        pipeline_index, query, cfg,
        responses=["No relevant documents found.", "Nothing matches."],
        keqe_passages=["penguin heat passage one", "penguin heat passage two"],
    )
    csqe_hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    keqe_cfg = PipelineConfig(n_keqe=2, n_csqe=0, k_feedback=5)
    keqe_hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), keqe_cfg, top_k=10)
    assert csqe_hits == keqe_hits


def test_csqe_pipeline_improves_relevant_rank(pipeline_index):
    query = Query("q1", "penguin antarctic")
    cfg = PipelineConfig(n_keqe=0, n_csqe=1, k_feedback=5)
    plain = [h.doc_id for h in pipeline_index.search(query.text, 10)]
    first_pass = pipeline_index.search(query.text, cfg.k_feedback)
    rel_pos = [h.doc_id for h in first_pass].index("rel") + 1
    sentence = "penguin huddle conserve heat antarctic winter blubber feather"
    response = format_extraction_response(query.text, [(rel_pos, [sentence])])
    fixtures, _ = _csqe_fixtures(pipeline_index, query, cfg, [response], [])
    hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    expanded = [h.doc_id for h in hits]
    assert expanded.index("rel") <= plain.index("rel")


def test_csqe_pipeline_empty_first_pass_uses_keqe_only(pipeline_index):
    query = Query("q1", "zz9 qq8")  # indexable, matches nothing
    assert list(pipeline_index.search(query.text, 5)) == []
    keqe_prompt = build_keqe_prompt(query.text)
    fixtures = {
        fixture_key(keqe_prompt, 0): "penguin huddle heat",
        fixture_key(keqe_prompt, 1): "antarctic blubber",
    }
    cfg = PipelineConfig(n_keqe=2, n_csqe=2, k_feedback=5)
    hits, _ = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    manual = pipeline_index.search(
        compose_expanded_query(query.text, ["penguin huddle heat", "antarctic blubber"]),
        10,
    )
    assert hits == manual


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(k_feedback=0)
    with pytest.raises(ValueError):
        PipelineConfig(n_keqe=0, n_csqe=0)
    with pytest.raises(ValueError):
        PipelineConfig(doc_token_budget=0)
    with pytest.raises(ValueError):
        PipelineConfig(temperature=-0.1)
    for temperature in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            PipelineConfig(temperature=temperature)


def test_prompt_dump_records_files(tmp_path, pipeline_index):
    query = Query("q one", "penguin heat")  # id needs sanitizing
    prompt = build_keqe_prompt(query.text)
    fixtures = {fixture_key(prompt, 0): "a passage"}
    cfg = PipelineConfig(n_keqe=1, n_csqe=0)
    _, generations = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=5)
    assert generations == [("q one", "keqe", prompt, ["a passage"])]
    write_prompt_dump(tmp_path, generations)
    [record] = json.loads((tmp_path / "prompts.json").read_text(encoding="utf-8"))
    assert record["prompt_file"].startswith("q_one~")
    assert (tmp_path / record["prompt_file"]).read_text(encoding="utf-8") == prompt
    responses = [(tmp_path / f).read_text(encoding="utf-8") for f in record["response_files"]]
    assert responses == ["a passage"]


def test_prompt_dump_ids_that_sanitize_alike_keep_their_own_files(tmp_path):
    write_prompt_dump(tmp_path, [("q 1", "keqe", "prompt of q 1", ["answer of q 1"]),
                                 ("q_1", "keqe", "prompt of q_1", ["answer of q_1"])])
    records = json.loads((tmp_path / "prompts.json").read_text(encoding="utf-8"))
    assert [r["query_id"] for r in records] == ["q 1", "q_1"]
    assert records[1]["prompt_file"] == "q_1.keqe.prompt.txt"  # safe ids keep their name
    for record in records:
        qid = record["query_id"]
        assert (tmp_path / record["prompt_file"]).read_text(encoding="utf-8") == f"prompt of {qid}"
        [response] = record["response_files"]
        assert (tmp_path / response).read_text(encoding="utf-8") == f"answer of {qid}"


def test_prompt_dump_order_does_not_depend_on_call_order(tmp_path):
    payloads = []
    for order in (["t2", "t1"], ["t1", "t2"]):
        root = tmp_path / "".join(order)
        root.mkdir()
        write_prompt_dump(root, [generation for qid in order for generation in (
            (qid, "keqe", f"keqe {qid}", []), (qid, "csqe", f"csqe {qid}", []))])
        payloads.append((root / "prompts.json").read_bytes())
    assert payloads[0] == payloads[1]
    records = json.loads(payloads[0])
    assert [(r["query_id"], r["kind"]) for r in records] == [
        ("t1", "csqe"), ("t1", "keqe"), ("t2", "csqe"), ("t2", "keqe")
    ]


# -- overlapped extraction and KEQE requests ------------------------------------------


class _OverlapRemote(RemoteBackend):
    """Remote backend served from mock fixtures, never contacting an endpoint.

    Each fetch waits until two fetches are in flight together. A fetch whose
    kind (csqe or keqe) is in ``failing`` raises a BackendError; every other
    one finishes a little later and logs its kind in ``finished``.
    """

    def __init__(self, fixtures, failing=()):
        super().__init__("http://127.0.0.1:9/unused", model_id="mock")
        self.mock = MockBackend(fixtures)
        self.barrier = threading.Barrier(2, timeout=5)
        self.failing = set(failing)
        self.finished = []

    def fetch(self, prompt, temperature, ordinals):
        self.barrier.wait()
        kind = "keqe" if prompt == build_keqe_prompt("penguin heat") else "csqe"
        if kind in self.failing:
            raise BackendError(f"{kind} request refused", status=500)
        time.sleep(0.05)
        self.finished.append(kind)
        return self.mock.fetch(prompt, temperature, ordinals)


def _overlap_case(pipeline_index):
    query = Query("q1", "penguin heat")
    cfg = PipelineConfig(n_keqe=2, n_csqe=2, k_feedback=5)
    first_pass = pipeline_index.search(query.text, cfg.k_feedback)
    rel_pos = [h.doc_id for h in first_pass].index("rel") + 1
    sentence = "penguin huddle conserve heat antarctic winter blubber feather"
    response = format_extraction_response(query.text, [(rel_pos, [sentence])])
    fixtures, _ = _csqe_fixtures(
        pipeline_index, query, cfg, responses=[response, "Nothing relevant."],
        keqe_passages=["huddle keeps penguin heat", "penguin blubber holds heat"],
    )
    return query, cfg, fixtures


def test_csqe_pipeline_keeps_extraction_and_keqe_in_flight_together(pipeline_index):
    query, cfg, fixtures = _overlap_case(pipeline_index)
    threads_before = set(threading.enumerate())
    backend = _OverlapRemote(fixtures)
    overlapped = csqe_pipeline(query, pipeline_index, LlmClient(backend), cfg, top_k=10)
    assert overlapped == csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    assert len(backend.finished) == 2
    assert set(threading.enumerate()) == threads_before


@pytest.mark.parametrize("failing", [("csqe",), ("keqe",), ("csqe", "keqe")])
def test_csqe_pipeline_raises_backend_error_after_joining_the_other_request(
        pipeline_index, failing):
    query, cfg, fixtures = _overlap_case(pipeline_index)
    threads_before = set(threading.enumerate())
    backend = _OverlapRemote(fixtures, failing)
    # the extraction request comes first, so its error wins when both fail
    with pytest.raises(BackendError, match=f"{failing[0]} request refused"):
        csqe_pipeline(query, pipeline_index, LlmClient(backend), cfg, top_k=10)
    assert backend.finished == [k for k in ("csqe", "keqe") if k not in failing]
    assert set(threading.enumerate()) == threads_before


class _BatchSpy(MockBackend):
    def __init__(self, fixtures):
        super().__init__(fixtures)
        self.batches = []

    def fetch_many(self, jobs):
        self.batches.append([(prompt[:8], list(ordinals)) for prompt, _, ordinals in jobs])
        return super().fetch_many(jobs)


def test_csqe_pipeline_sends_both_requests_in_one_call_and_warm_cache_sends_none(
        pipeline_index, tmp_path):
    query, cfg, fixtures = _overlap_case(pipeline_index)
    backend = _BatchSpy(fixtures)
    client = LlmClient(backend, cache=GenerationCache(tmp_path / "cache"))
    cold = csqe_pipeline(query, pipeline_index, client, cfg, top_k=10)
    assert [[ordinals for _, ordinals in batch] for batch in backend.batches] == [[[0, 1], [0, 1]]]
    warm = csqe_pipeline(query, pipeline_index, client, cfg, top_k=10)
    assert warm == cold
    assert len(backend.batches) == 1


def test_csqe_pipeline_dump_records_csqe_before_keqe(pipeline_index, tmp_path):
    query, cfg, fixtures = _overlap_case(pipeline_index)
    _, generations = csqe_pipeline(query, pipeline_index, _client(fixtures), cfg, top_k=10)
    assert [(qid, kind, len(texts)) for qid, kind, _, texts in generations] == [
        ("q1", "csqe", 2), ("q1", "keqe", 2)
    ]
    write_prompt_dump(tmp_path, generations)
    records = json.loads((tmp_path / "prompts.json").read_text(encoding="utf-8"))
    assert [r["kind"] for r in records] == ["csqe", "keqe"]
    assert [len(r["response_files"]) for r in records] == [2, 2]
