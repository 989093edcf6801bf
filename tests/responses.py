"""Extraction responses built from labelled parts, with what parsing them must give.

``extraction_responses(k)`` draws the text an LLM might answer an extraction
prompt over ``PROMPT_DOCS[:k]`` with, section by section, and knows the label of
every part it puts in:

- a header ``Document <n>:`` in range (1 to ``k``), out of range (0 or past
  ``k``), or with more digits than ``int()`` converts; an in-range one may
  repeat an earlier one, and may claim a document ``RELEVANT`` leaves out;
- under it, lines that quote a sentence of a prompt document verbatim, quote a
  paraphrase of one (a word dropped from inside it, or two neighbours
  swapped), quote an invented sentence, or hold one of those unquoted, as
  prose.

Every word of the prompt documents is ``w`` and three digits and occurs once in
all of them, and invented words are ``v`` and three digits. So a paraphrase or
an invented sentence occurs in no document, even as a substring, and a
sentence is verbatim exactly when it is one of the prompt documents' own.
"""

import sys
from typing import NamedTuple

from hypothesis import strategies as st

# three sentences of 3-6 words each per document, every word used once
_LENGTHS = [[4, 3, 6], [5, 5, 3], [6, 4, 4], [3, 6, 5], [4, 4, 4]]
_words = iter(f"w{i:03d}" for i in range(1000))
DOC_SENTENCES = [[" ".join(next(_words) for _ in range(n)) for n in lengths]
                 for lengths in _LENGTHS]
PROMPT_DOCS = [". ".join(sentences) + "." for sentences in DOC_SENTENCES]
SENTENCES = [sentence for sentences in DOC_SENTENCES for sentence in sentences]
RELEVANT = {1, 3, 4}  # the prompt ordinals a judge would call relevant

# more digits than int() converts (4300 by default since Python 3.11); where it converts
# any number, such a header still names a document far past any k
_TOO_MANY_DIGITS = max(getattr(sys, "get_int_max_str_digits", int)(), 4300) + 1


class Response(NamedTuple):
    raw: str
    ordinals: list[int]  # what parse_csqe_response must return, in order
    sentences: list[str]
    verbatim: int  # how many of ``sentences`` occur in a prompt document
    irrelevant_claims: set[int]  # in-range ordinals that RELEVANT leaves out


def _paraphrase(draw) -> str:
    words = draw(st.sampled_from(SENTENCES)).split()
    at = draw(st.integers(1, len(words) - 2))
    if draw(st.booleans()):  # drop a word from inside, so the rest is no substring either
        return " ".join(words[:at] + words[at + 1:])
    words[at - 1], words[at] = words[at], words[at - 1]
    return " ".join(words)


def _sentence(draw, k: int) -> tuple[str, bool]:
    """A sentence, and whether it occurs verbatim in one of the first ``k`` documents."""
    kind = draw(st.sampled_from(["verbatim", "paraphrase", "invented"]))
    if kind == "verbatim":
        return draw(st.sampled_from(DOC_SENTENCES[:k]).flatmap(st.sampled_from)), True
    if kind == "paraphrase":
        return _paraphrase(draw), False
    words = draw(st.lists(st.integers(0, 999), min_size=2, max_size=6))
    return " ".join(f"v{i:03d}" for i in words), False


def _body_line(draw, k: int) -> tuple[str, list[tuple[str, bool]]]:
    """A line under a header, and the sentences a parser takes from it."""
    form = draw(st.sampled_from(["quoted", "two quoted", "prose", "blank"]))
    if form == "blank":
        return draw(st.sampled_from(["", "   ", "--", "..."])), []
    first = _sentence(draw, k)
    if form == "prose":
        return f"  {first[0]} ", [first]
    if form == "quoted":
        return f'"{first[0]}"', [first]
    second = _sentence(draw, k)
    return f'"{first[0]}" and also "{second[0]}"', [first, second]


def _header(draw, k: int) -> tuple[str, int | None]:
    """A header line, and the ordinal it names if that is in 1..``k``."""
    word = draw(st.sampled_from(["Document", "document", "DOCUMENT"]))
    kind = draw(st.sampled_from(["in range", "in range", "out of range", "too many digits"]))
    if kind == "too many digits":
        digits = "1" * draw(st.integers(_TOO_MANY_DIGITS, _TOO_MANY_DIGITS + 50))
        number = None
    else:
        value = (draw(st.integers(1, k)) if kind == "in range"
                 else draw(st.sampled_from([0, k + 1, k + 7, 10 ** 12])))
        digits, number = str(value), value if kind == "in range" else None
    return f"{draw(st.sampled_from(['', ' ']))}{word} {digits}:", number


@st.composite
def extraction_responses(draw, k: int) -> Response:
    """A response over ``PROMPT_DOCS[:k]`` and what parsing it must give."""
    lines = ['Based on the query "w000 w001", here are the relevant documents:']
    ordinals, sentences, verbatim = [], [], 0
    for _ in range(draw(st.integers(0, 6))):
        header, number = _header(draw, k)
        lines.append(header)
        if number is not None and number not in ordinals:
            ordinals.append(number)
        for _ in range(draw(st.integers(0, 4))):
            line, taken = _body_line(draw, k)
            lines.append(line)
            for sentence, is_verbatim in taken if number is not None else ():
                if sentence not in sentences:
                    sentences.append(sentence)
                    verbatim += is_verbatim
    return Response("\n".join(lines), ordinals, sentences, verbatim,
                    set(ordinals) - RELEVANT)
