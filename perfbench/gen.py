"""Seeded benchmark inputs: corpus, planted queries, graded qrels, LLM outputs.

Everything here is a pure function of the seed and the sizes, so one seed
always yields byte-identical files. The program under test only ever sees the
files written by :func:`write_inputs` and :func:`write_fixtures`.

Corpus shape: documents of ``DOC_TOKENS`` tokens drawn from a Zipf
background over pronounceable synthetic words (stems plus English suffixes,
so the Porter stemmer does real suffix work), mixed with the words of one
topic per document. Topics give RM3 and CSQE something to find: a query is
three topic words planted from a target document (grade 2), and the other
documents of that topic that share a query word are grade 1.
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass
from itertools import accumulate

from csqe.corpus import STOPWORDS, truncate_whitespace_tokens
from csqe.expansion import (
    DEFAULT_DOC_TOKEN_BUDGET,
    DEFAULT_K_FEEDBACK,
    DEFAULT_N_CSQE,
    DEFAULT_N_KEQE,
    build_csqe_prompt,
    build_keqe_prompt,
    format_extraction_response,
)
from csqe.index import InvertedIndex
from csqe.llm import fixture_key

DOC_TOKENS = 60
VOCAB = 20000
DOCS_PER_TOPIC = 10
TOPIC_WORDS = 20
TOPIC_SHARE = 0.3
QUERY_WORDS = 3
PASSAGE_WORDS = 16

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "cr", "dr", "gl", "pl", "st", "tr", "sh", "ch")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_CODAS = ("", "", "n", "r", "l", "s", "t", "m")
_SUFFIXES = ("", "", "", "s", "ing", "ed", "ation", "ness", "ment", "ful", "ly",
             "ize", "ous", "ive", "able", "er", "al", "ity", "ies", "ement",
             "ational", "fulness", "iveness", "ization")

_SENTENCE_RE = re.compile(r"[^.]+\.")


@dataclass
class Inputs:
    words: list          # vocabulary by Zipf rank
    docs: list           # (doc_id, text)
    queries: list        # (qid, text)
    qrels: dict          # qid -> {doc_id: grade}


def _vocabulary(rng: random.Random, size: int) -> list:
    words, seen = [], set()
    while len(words) < size:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.randint(2, 3))
        )
        word = stem + rng.choice(_SUFFIXES)
        if word not in seen and word not in STOPWORDS:
            seen.add(word)
            words.append(word)
    return words


def _as_sentences(rng: random.Random, tokens: list) -> str:
    sentences, i = [], 0
    while i < len(tokens):
        n = rng.randint(8, 14)
        chunk = tokens[i:i + n]
        i += n
        sentences.append(" ".join([chunk[0].capitalize()] + chunk[1:]) + ".")
    return " ".join(sentences)


def generate(seed: int, n_docs: int, n_queries: int) -> Inputs:
    """Corpus of ``n_docs`` documents with ``n_queries`` planted queries."""
    rng = random.Random(seed)
    words = _vocabulary(rng, VOCAB)
    cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(words))))
    n_topics = max(1, n_docs // DOCS_PER_TOPIC)
    topics = [rng.sample(words[len(words) // 10:], TOPIC_WORDS) for _ in range(n_topics)]

    docs, doc_topic, doc_words = [], [], []
    for ordinal in range(n_docs):
        topic = ordinal % n_topics
        tokens = rng.choices(words, cum_weights=cum, k=DOC_TOKENS)
        for i in range(DOC_TOKENS):
            if rng.random() < TOPIC_SHARE:
                tokens[i] = rng.choice(topics[topic])
        docs.append((f"d{ordinal:06d}", _as_sentences(rng, tokens)))
        doc_topic.append(topic)
        doc_words.append(set(tokens))

    queries, qrels = [], {}
    for i, target in enumerate(rng.sample(range(n_docs), min(n_queries, n_docs))):
        topic = doc_topic[target]
        present = sorted(w for w in topics[topic] if w in doc_words[target])
        picked = rng.sample(present, min(QUERY_WORDS, len(present)))
        if len(picked) < QUERY_WORDS:
            rest = sorted(doc_words[target] - set(picked))
            picked += rng.sample(rest, QUERY_WORDS - len(picked))
        qid = f"q{i:04d}"
        queries.append((qid, " ".join(picked)))
        judged = {docs[target][0]: 2}
        for other in range(topic, n_docs, n_topics):
            if other != target and doc_words[other] & set(picked):
                judged[docs[other][0]] = 1
        qrels[qid] = judged
    return Inputs(words, docs, queries, qrels)


def write_inputs(inputs: Inputs, root) -> dict:
    """Write corpus.jsonl, queries.tsv and qrels.txt under ``root``."""
    paths = {name: root / name for name in ("corpus.jsonl", "queries.tsv", "qrels.txt")}
    paths["corpus.jsonl"].write_text(
        "".join(json.dumps({"id": d, "contents": t}) + "\n" for d, t in inputs.docs),
        encoding="utf-8",
    )
    paths["queries.tsv"].write_text(
        "".join(f"{q}\t{t}\n" for q, t in inputs.queries), encoding="utf-8"
    )
    paths["qrels.txt"].write_text(
        "".join(f"{q} 0 {d} {g}\n" for q, judged in inputs.qrels.items()
                for d, g in sorted(judged.items())),
        encoding="utf-8",
    )
    return paths


def sentences_of(text: str) -> list:
    return [s.strip() for s in _SENTENCE_RE.findall(text)]


def key_sentences(doc_text: str, query_text: str) -> list:
    """Up to two sentences of a document that mention a query word (else the first)."""
    qwords = set(query_text.lower().split())
    sentences = sentences_of(doc_text)
    hits = [s for s in sentences if qwords & set(s.lower().rstrip(".").split())]
    return (hits or sentences)[:2]


def passage(query_text: str, ordinal: int, words: list) -> str:
    """Deterministic hypothetical passage: the query plus hash-chosen words."""
    digest = hashlib.sha256(f"{query_text}\x00{ordinal}".encode("utf-8")).digest()
    rng = random.Random(digest)
    filler = [rng.choice(words[:2000]) for _ in range(PASSAGE_WORDS)]
    return " ".join([query_text.capitalize()] + filler) + "."


def mock_fixtures(inputs: Inputs, index: InvertedIndex) -> tuple:
    """Mock backend table for the default csqe run, plus every extraction sample.

    Extraction sample 0 quotes key sentences of every judged-relevant
    first-pass document, sample 1 only those of the best-graded one,
    addressed by their first-pass position (as ``make_toy_fixtures.py``
    does for the toy set). Returns ``(fixtures, [(response, prompt_docs)])``.
    """
    fixtures, extractions = {}, []
    for qid, text in inputs.queries:
        ranked = [h.doc_id for h in index.search(text, DEFAULT_K_FEEDBACK)]
        docs = [
            truncate_whitespace_tokens(index.doc_texts[index.ordinal(d)], DEFAULT_DOC_TOKEN_BUDGET)
            for d in ranked
        ]
        judged = inputs.qrels[qid]
        relevant = [(pos, d) for pos, d in enumerate(ranked, start=1) if judged.get(d, 0) > 0]
        sections = [(pos, key_sentences(docs[pos - 1], text)) for pos, _ in relevant]
        best = sorted(relevant, key=lambda pd: (-judged[pd[1]], pd[0]))[:1]
        samples = [sections, [(pos, key_sentences(docs[pos - 1], text)) for pos, _ in best]]
        prompt = build_csqe_prompt(text, docs)
        for ordinal in range(DEFAULT_N_CSQE):
            response = format_extraction_response(text, samples[ordinal % len(samples)])
            fixtures[fixture_key(prompt, ordinal)] = response
            extractions.append((response, docs))
        keqe_prompt = build_keqe_prompt(text)
        for ordinal in range(DEFAULT_N_KEQE):
            fixtures[fixture_key(keqe_prompt, ordinal)] = passage(text, ordinal, inputs.words)
    return fixtures, extractions


def write_fixtures(fixtures: dict, path) -> None:
    path.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
