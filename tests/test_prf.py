import pytest
from hypothesis import given, settings, strategies as st

from csqe.corpus import STOPWORDS, Document, tokenize
from csqe.index import build_index
from csqe.prf import Rm3Config, rm3_expand, rm3_search

from oracles import rm3_weights

_SHARK_TOKEN_LISTS = [["shark", "shark"], ["shark", "warm"], ["cold"]]
_SHARK_IDS = ["d1", "d2", "d3"]


def test_config_validation():
    with pytest.raises(ValueError):
        Rm3Config(fb_docs=0)
    with pytest.raises(ValueError):
        Rm3Config(fb_terms=0)
    with pytest.raises(ValueError):
        Rm3Config(original_weight=1.5)


def test_empty_query_rejected(shark_index):
    with pytest.raises(ValueError):
        rm3_expand(shark_index, "the of and", Rm3Config())


# -- interpolation endpoints -----------------------------------------------------


def test_original_weight_one_returns_query_distribution(shark_index):
    weights = rm3_expand(shark_index, "shark shark warm", Rm3Config(original_weight=1.0))
    assert weights == {"shark": pytest.approx(2 / 3), "warm": pytest.approx(1 / 3)}


def test_original_weight_zero_single_doc_is_its_distribution(shark_index):
    # fb_docs=1 keeps only d1 ("shark shark"); softmax over one doc is 1
    cfg = Rm3Config(fb_docs=1, fb_terms=10, original_weight=0.0)
    weights = rm3_expand(shark_index, "shark", cfg)
    assert weights == {"shark": pytest.approx(1.0)}


# -- oracle case ------------------------------------------------------------------


def test_expand_matches_step_by_step_oracle(shark_index):
    cfg = Rm3Config(fb_docs=2, fb_terms=2, original_weight=0.5)
    weights = rm3_expand(shark_index, "shark", cfg)
    expected = rm3_weights(
        _SHARK_IDS, _SHARK_TOKEN_LISTS, ["shark"],
        fb_docs=2, fb_terms=2, original_weight=0.5, stopwords=STOPWORDS,
    )
    assert set(weights) == set(expected)
    for term, weight in expected.items():
        assert weights[term] == pytest.approx(weight, abs=1e-9)
    # hand-derived literals guard against a shared structural bug
    assert weights["shark"] == pytest.approx(0.8842395868413049, abs=1e-9)
    assert weights["warm"] == pytest.approx(0.11576041315869513, abs=1e-9)


def test_rm3_search_matches_oracle_ranking(shark_index):
    cfg = Rm3Config(fb_docs=2, fb_terms=2, original_weight=0.5)
    hits = rm3_search(shark_index, "shark", cfg, 10)
    # both feedback terms point at d1/d2; d3 shares nothing
    assert [h.doc_id for h in hits] == ["d1", "d2"]


# -- degenerate and endpoint searches ---------------------------------------------


def test_zero_hit_query_falls_back_to_plain_search(shark_index):
    # q9 is indexable but matches nothing
    assert list(shark_index.search("q9", 10)) == []
    assert list(rm3_search(shark_index, "q9", Rm3Config(), 10)) == []


def test_original_weight_one_preserves_plain_ranking(shark_index):
    plain = [h.doc_id for h in shark_index.search("shark warm", 10)]
    rm3 = [h.doc_id for h in rm3_search(shark_index, "shark warm", Rm3Config(original_weight=1.0), 10)]
    assert rm3 == plain


# -- invariants --------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    ow=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    fb_docs=st.integers(min_value=1, max_value=3),
    fb_terms=st.integers(min_value=1, max_value=5),
)
def test_weights_form_a_distribution(shark_index, ow, fb_docs, fb_terms):
    cfg = Rm3Config(fb_docs=fb_docs, fb_terms=fb_terms, original_weight=ow)
    weights = rm3_expand(shark_index, "shark warm", cfg)
    assert all(w >= 0.0 for w in weights.values())
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_at_most_fb_terms_feedback_terms(shark_index):
    cfg = Rm3Config(fb_docs=3, fb_terms=1, original_weight=0.0)
    weights = rm3_expand(shark_index, "shark", cfg)
    assert len(weights) == 1


# Porter fixed points that are not stopwords, so a document's text tokenizes
# to the token list it was made from.
_VOCAB = ["crab", "kelp", "reef", "sand", "shark", "tide", "warm"]
assert all(tokenize(word) == [word] for word in _VOCAB)


@st.composite
def _corpus_with_duplicates(draw):
    """Token lists in which some documents repeat, so their feedback weights tie
    exactly, and terms that occur together with equal counts tie too."""
    bases = draw(st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=5),
                          min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=len(bases) + 1,
                          max_size=len(bases) + 4))
    return [bases[i] for i in picks]


@settings(max_examples=200, deadline=None)
@given(
    token_lists=_corpus_with_duplicates(),
    query=st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=3),
    fb_docs=st.integers(1, 4),
    fb_terms=st.integers(1, 4),
    ow=st.sampled_from([0.0, 0.3, 0.5]),
)
def test_expand_selects_the_oracle_s_terms_on_corpora_with_ties(token_lists, query, fb_docs,
                                                               fb_terms, ow):
    doc_ids = [f"d{i:02d}" for i in range(len(token_lists))]
    index = build_index([Document(d, " ".join(t)) for d, t in zip(doc_ids, token_lists)])
    cfg = Rm3Config(fb_docs=fb_docs, fb_terms=fb_terms, original_weight=ow)
    weights = rm3_expand(index, " ".join(query), cfg)
    expected = rm3_weights(doc_ids, token_lists, query, fb_docs=fb_docs, fb_terms=fb_terms,
                           original_weight=ow, stopwords=STOPWORDS)
    assert set(weights) == set(expected)
    for term, weight in expected.items():
        assert weights[term] == pytest.approx(weight, rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    low=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    high=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_monotone_in_original_weight(shark_index, low, high):
    if low > high:
        low, high = high, low
    weights_low = rm3_expand(shark_index, "shark", Rm3Config(original_weight=low))
    weights_high = rm3_expand(shark_index, "shark", Rm3Config(original_weight=high))
    # "shark" is the sole original term; more original weight never hurts it
    assert weights_high.get("shark", 0.0) >= weights_low.get("shark", 0.0) - 1e-12
