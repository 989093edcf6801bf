"""Zero-shot lexical retrieval toolkit.

BM25 first-pass retrieval over an inverted index, RM3 pseudo-relevance
feedback, LLM query expansion (hypothetical passages and corpus-steered key
sentence extraction), and TREC-style evaluation.
"""

__version__ = "0.1.0"
