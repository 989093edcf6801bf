"""Zero-shot lexical retrieval toolkit.

BM25 first-pass retrieval over an inverted index, RM3 pseudo-relevance
feedback, LLM query expansion (hypothetical passages and corpus-steered key
sentence extraction), and TREC-style evaluation.
"""

from .corpus import (
    Document,
    Query,
    parse_jsonl_corpus,
    parse_queries_tsv,
    tokenize,
    truncate_whitespace_tokens,
)
from .evaluation import (
    MetricReport,
    Qrels,
    RunFile,
    average_precision,
    evaluate_run,
    ndcg_at_k,
    parse_qrels,
    parse_trec_run,
    recall_at_k,
    write_trec_run,
)
from .expansion import (
    ExtractionResult,
    PipelineConfig,
    build_csqe_prompt,
    build_keqe_prompt,
    compose_expanded_query,
    csqe_pipeline,
    parse_csqe_response,
    verify_extraction,
)
from .index import InvertedIndex, ScoredHit, WeightedQuery, build_index
from .llm import (
    GenerationCache,
    GenerationRequest,
    LlmClient,
    MockBackend,
    RemoteBackend,
    generate,
    prompt_hash,
)
from .prf import Rm3Config, rm3_expand, rm3_search

__version__ = "0.1.0"
