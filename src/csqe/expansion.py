"""Query expansion with LLM generations.

One pipeline serves both expansion styles:

* KEQE asks the model to write hypothetical passages answering the query
  and appends the passages to the query.
* CSQE is KEQE plus an extraction step: it shows the model the first-pass
  retrieved documents inside a one-shot prompt, asks it to pick the relevant
  ones and extract their key sentences, and appends those corpus-originated
  sentences before the KEQE passages.

``csqe_pipeline`` with ``n_csqe=0`` is KEQE: no first pass and no
extraction prompt. The composed query repeats the original query once per
expansion so the original terms keep their weight under bag-of-words BM25
scoring. The pipeline writes nothing: it returns its hits together with the
prompts it sent and the raw responses, and ``write_prompt_dump`` turns the
generations of a whole run into the ``--dump-prompts`` audit files.
"""

import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import Query, replacing, truncate_whitespace_tokens
from .index import InvertedIndex, Ranking
from .llm import DEFAULT_TEMPERATURE, LlmClient, prompt_hash

log = logging.getLogger(__name__)

DEFAULT_K_FEEDBACK = 10
DEFAULT_DOC_TOKEN_BUDGET = 128
DEFAULT_N_KEQE_ALONE = 5
DEFAULT_N_KEQE = 2
DEFAULT_N_CSQE = 2

_EXTRACTION_INSTRUCTION = (
    "You will begin by examining the initially retrieved documents and identifying "
    "the ones that are relevant, even partially, to the query. Once the relevant "
    "documents are identified, you will extract the key sentences from each document "
    "that contribute to their relevance."
)

# One-shot learning context: a worked extraction over four retrieved documents.
EXAMPLE_QUERY = "how are some sharks warm blooded"

EXAMPLE_DOCS = (
    "Most sharks are cold-blooded. Some, like the Mako and the Great white shark, "
    "are partially warmblooded (they are endotherms). Cold blooded although if "
    "you've ever seen a Great White Shark hunt sea lions you'd be thinking they "
    "would have to be hotblooded. Actually the Salmon Shark is a warm blooded shark.",
    "Are sharks cold-blooded or warm-blooded? Sharks have a reputation as "
    "cold-blooded and despite how negative that term is, it is not entirely "
    "inaccurate. Sharks are by no means evil, vicious killers like that quote "
    "suggests. Nonetheless, sharks are, for the most part anyways, efficient "
    "ectothermic predators. Endo vs Ecto.",
    "Great white sharks are some of the only warm blooded sharks. This allows them "
    "to swim in colder waters in addition to warm, tropical waters. Great White "
    "sharks can be found asâ¦ north as Alaska and as south as the southern "
    "tip of South America. They exist worldwide, everywhere in-between. 5 people "
    "found this useful.",
    "Sharks' blood gives them turbo speed. Several species of shark and tuna have "
    "something special going on inside their bodies. For a long time, scientists "
    "have known that some fish species appear warm-blooded. Salmon sharks can "
    "elevate their body temperatures by up to 20 degrees compared to the "
    "surrounding water, for example.",
)

EXAMPLE_EXTRACTIONS = (
    (1, (
        "Most sharks are cold-blooded. Some, like the Mako and the Great white "
        "shark, are partially warm-blooded (they are endotherms).",
        "Actually, the Salmon Shark is a warm-blooded shark.",
    )),
    (3, (
        "Great white sharks are some of the only warm-blooded sharks.",
        "This allows them to swim in colder waters in addition to warm, tropical waters.",
    )),
    (4, (
        "Salmon sharks can elevate their body temperatures by up to 20 degrees "
        "compared to the surrounding water, for example.",
    )),
)


def build_keqe_prompt(query_text: str) -> str:
    """Hypothetical-passage prompt."""
    if not query_text:
        raise ValueError("query text must be non-empty")
    return (
        "Please write a passage to answer the question"
        f"\n\nQuestion: {query_text}\n\nPassage:"
    )


def _query_section(query_text: str, docs: Sequence[str]) -> str:
    lines = [f'Query: "{query_text}"', "", "Retrieved documents:", ""]
    for number, doc in enumerate(docs, start=1):
        lines.append(f"{number}. {doc}")
        lines.append("")
    lines.append(_EXTRACTION_INSTRUCTION)
    return "\n".join(lines)


def format_extraction_response(query_text: str, sections) -> str:
    """Render (ordinal, sentences) pairs in the worked answer's layout.

    Inverse of :func:`parse_csqe_response`; used to synthesize mock fixtures.
    """
    lines = [
        f'Based on the query "{query_text}", I have examined the initially '
        "retrieved documents. Here are the relevant documents and the key "
        "sentences extracted from each:"
    ]
    for ordinal, sentences in sections:
        lines.append("")
        lines.append(f"Document {ordinal}:")
        for i, sentence in enumerate(sentences):
            if i:
                lines.append("")
            lines.append(f'"{sentence}"')
    return "\n".join(lines)


EXAMPLE_ANSWER = format_extraction_response(EXAMPLE_QUERY, EXAMPLE_EXTRACTIONS)

_ONE_SHOT_BLOCK = _query_section(EXAMPLE_QUERY, EXAMPLE_DOCS) + "\n\n" + EXAMPLE_ANSWER


def build_csqe_prompt(query_text: str, docs: Sequence[str]) -> str:
    """One-shot extraction prompt over the first-pass documents.

    ``docs`` must already be truncated to the document token budget.

    Raises:
        ValueError: on an empty query or an empty document list.
    """
    if not query_text:
        raise ValueError("query text must be non-empty")
    if not docs:
        raise ValueError("CSQE needs at least one feedback document")
    return _ONE_SHOT_BLOCK + "\n\n" + _query_section(query_text, docs)


@dataclass
class ExtractionResult:
    """Parsed extraction output: claimed-relevant prompt ordinals plus sentences."""

    relevant_doc_ordinals: list[int]
    sentences: list[str]


_HEADER_RE = re.compile(r"^\s*document\s+(\d+)\s*:\s*", re.IGNORECASE)
_QUOTED_RE = re.compile(r'"([^"]+)"')
_PROSE_RE = re.compile(r"[^\W_]", re.UNICODE)


def parse_csqe_response(raw: str, k: int) -> ExtractionResult:
    """Scan a generation for ``Document <n>:`` sections and their sentences.

    Under each in-range header, every double-quoted span becomes a sentence;
    a quote-free prose line is taken whole as a fallback. Out-of-range
    headers are dropped with a warning, duplicates keep their first
    occurrence, and a response with no recognizable sections yields an
    empty result (the no-relevant-documents case).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ordinals: list[int] = []
    sentences: list[str] = []
    seen: set[str] = set()
    in_section = False
    muted = False

    def consume(line: str) -> None:
        spans = _QUOTED_RE.findall(line)
        if spans:
            candidates = spans
        else:
            stripped = line.strip()
            if not stripped or not _PROSE_RE.search(stripped):
                return
            log.warning("unquoted extraction line taken verbatim: %.60s", stripped)
            candidates = [stripped]
        for cand in candidates:
            cand = cand.strip()
            if cand and cand not in seen:
                seen.add(cand)
                sentences.append(cand)

    for line in raw.splitlines():
        match = _HEADER_RE.match(line)
        if match:
            digits = match.group(1)
            try:
                number = int(digits)
            except ValueError:  # more digits than int() converts: far outside 1..k
                number = 0
            if 1 <= number <= k:
                if number not in ordinals:
                    ordinals.append(number)
                in_section, muted = True, False
            else:
                log.warning("extraction names document %.12s outside 1..%d; ignored", digits, k)
                in_section, muted = True, True
            rest = line[match.end():]
            if rest.strip() and not muted:
                consume(rest)
            continue
        if in_section and not muted:
            consume(line)
    return ExtractionResult(ordinals, sentences)


_WS_RE = re.compile(r"\s+")


def _normalize_ws(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def verify_extraction(sentences: Sequence[str], docs: Sequence[str]) -> float:
    """Fraction of sentences found verbatim (whitespace-normalized) in the docs.

    Vacuously 1.0 for an empty sentence list.
    """
    if not sentences:
        return 1.0
    normalized_docs = [_normalize_ws(d) for d in docs]
    found = sum(
        1 for s in sentences if any(_normalize_ws(s) in doc for doc in normalized_docs)
    )
    return found / len(sentences)


def compose_expanded_query(query_text: str, expansions: Sequence[str]) -> str:
    """Repeat the query once per expansion, then append every expansion.

    All parts are joined with single spaces; with no expansions the composed
    query is the original query (plain retrieval fallback).
    """
    if not query_text:
        raise ValueError("query text must be non-empty")
    if not expansions:
        return query_text
    return " ".join([query_text] * len(expansions) + list(expansions))


@dataclass(frozen=True)
class PipelineConfig:
    k_feedback: int = DEFAULT_K_FEEDBACK
    doc_token_budget: int = DEFAULT_DOC_TOKEN_BUDGET
    n_keqe: int = DEFAULT_N_KEQE
    n_csqe: int = DEFAULT_N_CSQE
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.k_feedback < 1:
            raise ValueError("k_feedback must be >= 1")
        if self.doc_token_budget < 1:
            raise ValueError("doc_token_budget must be >= 1")
        if self.n_keqe < 0 or self.n_csqe < 0:
            raise ValueError("sample counts must be >= 0")
        if self.n_keqe + self.n_csqe < 1:
            raise ValueError("need at least one generation (n_keqe + n_csqe >= 1)")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")


def write_prompt_dump(root, generations) -> None:
    """Write every prompt and raw response of a run into the directory ``root``.

    ``generations`` are ``csqe_pipeline``'s ``(query id, kind, prompt,
    responses)`` tuples. Files are named after the query id with every
    character outside ``[\\w.-]`` replaced by ``_``; an id that needed a
    replacement also gets ``~`` and 12 hex digits of its sha256, so ids that
    sanitize alike (``q 1`` and ``q_1``) keep their own files.
    ``prompts.json`` lists one record per generation sorted by query id, then
    kind (csqe before keqe), so it does not depend on the order queries ran in.
    """
    root = Path(root)
    records = []
    for query_id, kind, prompt, responses in sorted(generations, key=lambda g: g[:2]):
        safe = re.sub(r"[^\w.-]", "_", query_id)
        if safe != query_id:
            safe += "~" + prompt_hash(query_id)[:12]
        prompt_file = f"{safe}.{kind}.prompt.txt"
        (root / prompt_file).write_text(prompt, encoding="utf-8")
        response_files = []
        for i, response in enumerate(responses):
            name = f"{safe}.{kind}.{i}.response.txt"
            (root / name).write_text(response, encoding="utf-8")
            response_files.append(name)
        records.append({"query_id": query_id, "kind": kind, "prompt_file": prompt_file,
                        "prompt_sha256": prompt_hash(prompt), "response_files": response_files})
    with replacing(root / "prompts.json", "x", encoding="utf-8") as fh:
        fh.write(json.dumps(records, indent=2, sort_keys=True) + "\n")


def csqe_pipeline(
    query: Query,
    index: InvertedIndex,
    llm: LlmClient,
    cfg: PipelineConfig,
    top_k: int = 1000,
) -> tuple[Ranking, list[tuple[str, str, str, list[str]]]]:
    """Expand with extraction sentences plus KEQE passages, then retrieve.

    With ``cfg.n_csqe == 0`` this is KEQE: the first pass and the extraction
    prompt are skipped. Otherwise one first pass feeds every extraction
    sample. The extraction and KEQE requests do not depend on each other, so
    both go to the LLM in one call. When the first pass is empty the
    corpus-originated step is skipped; with no expansions at all the
    retrieval degrades to plain BM25.

    Returns the hits and the query's generations: one ``(query id, kind,
    prompt, responses)`` tuple per prompt sent, ``csqe`` before ``keqe``.
    """
    first_pass = Ranking([], [])
    requests = []  # (kind, prompt, n)
    if cfg.n_csqe > 0:
        first_pass = index.search(query.text, cfg.k_feedback)
        if first_pass:
            docs = [
                truncate_whitespace_tokens(
                    index.doc_texts[index.ordinal(doc_id)], cfg.doc_token_budget
                )
                for doc_id in first_pass.doc_ids
            ]
            requests.append(("csqe", build_csqe_prompt(query.text, docs), cfg.n_csqe))
        else:
            log.warning("query %s: empty first pass, skipping corpus-originated expansion",
                        query.id)
    if cfg.n_keqe > 0:
        requests.append(("keqe", build_keqe_prompt(query.text), cfg.n_keqe))
    samples = llm.sample_many([(prompt, n) for _, prompt, n in requests],
                              temperature=cfg.temperature)

    generations = [(query.id, kind, prompt, texts)
                   for (kind, prompt, _), texts in zip(requests, samples)]
    sentences: list[str] = []
    seen: set[str] = set()
    passages: list[str] = []
    for _, kind, _, texts in generations:
        if kind == "keqe":
            passages = [t for t in texts if t.strip()]
        else:
            for raw in texts:
                for sentence in parse_csqe_response(raw, len(first_pass)).sentences:
                    if sentence not in seen:
                        seen.add(sentence)
                        sentences.append(sentence)
    hits = index.search(compose_expanded_query(query.text, sentences + passages), top_k)
    return hits, generations
