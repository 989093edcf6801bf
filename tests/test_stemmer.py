"""Reference vectors for the stemmer.

The expectations were derived by hand from the published algorithm (rule by
rule, including suffix interactions across steps) plus the two maintained
revisions the module documents; they act as the frozen oracle for the
tokenizer's stemming stage.
"""

import pytest
from hypothesis import given, strategies as st

from csqe.stemmer import stem

VECTORS = {
    # step 1a
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    # step 1b and its cleanup
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi",
    "sky": "sky",
    # step 2 (with downstream steps applied)
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "differently": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "biology": "biolog",
    # step 3
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    # step 4
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "definition": "definit",
    "expansion": "expans",
    # step 5
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controlling": "control",
    "rolling": "roll",
    # everyday words used elsewhere in the suite
    "university": "univers",
    "studies": "studi",
    "retrieval": "retriev",
    "sharks": "shark",
    "blooded": "blood",
    "running": "run",
    "warm": "warm",
    "penguins": "penguin",
}


@pytest.mark.parametrize("word,expected", sorted(VECTORS.items()))
def test_reference_vectors(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word", ["a", "is", "be", "ox", "x", ""])
def test_short_words_unchanged(word):
    assert stem(word) == word


def test_output_is_lowercase_prefix_preserving():
    for word in VECTORS:
        out = stem(word)
        assert out == out.lower()
        assert out  # never empties a word


@given(st.one_of(st.text(min_size=1), st.text("abeilnostuyz", min_size=1, max_size=12),
                 st.sampled_from(sorted(VECTORS))))
def test_stem_never_returns_an_empty_term_for_a_non_empty_word(word):
    # tokenize's memo stores a stopword as "", so a stem of "" would drop the word
    assert stem(word)
