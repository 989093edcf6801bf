"""Command line interface.

Subcommands: ``index``, ``search``, ``run``, ``eval``, ``cache``. Exit codes:
0 success, 1 usage error, 2 data error, 3 backend error. Configuration
precedence for ``run`` is flags > config file (--config, JSON) > defaults.
"""

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

from . import evaluation, expansion, llm, prf
from .corpus import parse_jsonl_corpus, parse_queries_tsv
from .errors import BackendError, CsqeError, DataFormatError, UsageError
from .index import DEFAULT_B, DEFAULT_K1, InvertedIndex, build_index

log = logging.getLogger("csqe")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

# defaults that the run subcommand resolves against flags and the config file
_RUN_DEFAULTS = {
    "topk": evaluation.DEFAULT_RUN_DEPTH,
    "k_feedback": expansion.DEFAULT_K_FEEDBACK,
    "doc_tokens": expansion.DEFAULT_DOC_TOKEN_BUDGET,
    "n_keqe": None,  # depends on method: 5 for keqe, 2 for csqe
    "n_csqe": expansion.DEFAULT_N_CSQE,
    "fb_docs": prf.DEFAULT_FB_DOCS,
    "fb_terms": prf.DEFAULT_FB_TERMS,
    "orig_weight": prf.DEFAULT_ORIGINAL_WEIGHT,
    "temperature": llm.DEFAULT_TEMPERATURE,
    "model": llm.DEFAULT_MODEL_ID,
    "backend": "remote",
    "endpoint": None,
    "mock_fixtures": None,
    "cache_dir": None,
    "tag": None,
    "jobs": 1,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="csqe", description="BM25 / RM3 / LLM query-expansion retrieval toolkit")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index from a JSONL corpus")
    p_index.add_argument("--input", required=True, help="corpus .jsonl file")
    p_index.add_argument("--output", required=True, help="index file to write")
    p_index.add_argument("--k1", type=float, default=DEFAULT_K1, help="BM25 k1 (default %(default)s)")
    p_index.add_argument("--b", type=float, default=DEFAULT_B, help="BM25 b (default %(default)s)")

    p_search = sub.add_parser("search", help="run one query against an index")
    p_search.add_argument("--index", required=True)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--topk", type=int, default=10)

    p_run = sub.add_parser("run", help="batch retrieval to a TREC run file")
    p_run.add_argument("--method", required=True, choices=["bm25", "rm3", "keqe", "csqe"])
    p_run.add_argument("--queries", required=True, help="TSV query file")
    p_run.add_argument("--index", required=True, help="index file from `csqe index`")
    p_run.add_argument("--output", required=True, help="run file to write")
    p_run.add_argument("--config", help="JSON config file (flags still win)")
    p_run.add_argument("--topk", type=int, help="run depth (default 1000)")
    p_run.add_argument("--tag", help="run tag in the output (default: the method name)")
    p_run.add_argument("--jobs", type=int, help="parallel queries (default 1)")
    p_run.add_argument("--dump-prompts", metavar="DIR",
                       help="write every prompt and raw response into DIR")
    p_run.add_argument("--k-feedback", dest="k_feedback", type=int,
                       help="first-pass documents shown to the LLM (default 10)")
    p_run.add_argument("--doc-tokens", dest="doc_tokens", type=int,
                       help="whitespace-token budget per prompt document (default 128)")
    p_run.add_argument("--n-keqe", dest="n_keqe", type=int,
                       help="hypothetical-passage samples (default: 5 for keqe, 2 for csqe)")
    p_run.add_argument("--n-csqe", dest="n_csqe", type=int,
                       help="extraction samples (default 2)")
    p_run.add_argument("--fb-docs", dest="fb_docs", type=int,
                       help="RM3 feedback documents (default 10, assumed)")
    p_run.add_argument("--fb-terms", dest="fb_terms", type=int,
                       help="RM3 feedback terms (default 10, assumed)")
    p_run.add_argument("--orig-weight", dest="orig_weight", type=float,
                       help="RM3 original-query weight (default 0.5, assumed)")
    p_run.add_argument("--backend", choices=["remote", "mock"],
                       help="generation backend (default remote)")
    p_run.add_argument("--endpoint", help="chat-completion endpoint URL (remote backend)")
    p_run.add_argument("--model", help="model identifier (default %s)" % llm.DEFAULT_MODEL_ID)
    p_run.add_argument("--temperature", type=float, help="sampling temperature (default 1.0)")
    p_run.add_argument("--mock-fixtures", dest="mock_fixtures",
                       help="JSON fixture file for the mock backend")
    p_run.add_argument("--cache-dir", dest="cache_dir", help="generation cache directory")

    p_eval = sub.add_parser("eval", help="score a run file against qrels")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--metrics", default="map,ndcg_cut.10,recall.1000",
                        help="comma-separated: map, ndcg_cut.K, recall.K (default %(default)s)")
    p_eval.add_argument("--rel-threshold", dest="rel_threshold", type=int, default=1,
                        help="grade threshold for binary relevance (default 1)")
    p_eval.add_argument("--exp-gain", action="store_true",
                        help="use exponential nDCG gain 2^grade-1 instead of linear")
    p_eval.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p_cache = sub.add_parser("cache", help="inspect or clear the generation cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--cache-dir", dest="cache_dir", required=True)

    return parser


def _configure_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_timestamp(input_paths) -> str:
    """Deterministic for unchanged inputs: SOURCE_DATE_EPOCH, else max input mtime."""
    env = os.environ.get("SOURCE_DATE_EPOCH")
    if env:
        ts = int(env)
    else:
        ts = max(int(os.stat(p).st_mtime) for p in input_paths)
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()


def _resolve_run_config(args) -> dict:
    file_config = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"config file {args.config}: {exc}")
        if not isinstance(file_config, dict):
            raise DataFormatError(f"config file {args.config}: expected a JSON object")
        unknown = set(file_config) - set(_RUN_DEFAULTS)
        if unknown:
            raise DataFormatError(
                f"config file {args.config}: unknown keys {sorted(unknown)}"
            )
    resolved = {}
    for key, default in _RUN_DEFAULTS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_config:
            resolved[key] = file_config[key]
        else:
            resolved[key] = default
    if resolved["n_keqe"] is None:
        resolved["n_keqe"] = (
            expansion.DEFAULT_N_KEQE_ALONE if args.method == "keqe" else expansion.DEFAULT_N_KEQE
        )
    if args.method == "keqe":
        resolved["n_csqe"] = 0  # KEQE draws no extraction samples
    if resolved["tag"] is None:
        resolved["tag"] = args.method
    if resolved["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    if resolved["topk"] < 1:
        raise UsageError("--topk must be >= 1")
    return resolved


def _build_llm_client(config: dict) -> llm.LlmClient:
    if config["backend"] == "mock":
        if not config["mock_fixtures"]:
            raise UsageError("--backend mock requires --mock-fixtures")
        backend = llm.MockBackend.from_file(config["mock_fixtures"], model_id=config["model"])
    else:
        if not config["endpoint"]:
            raise UsageError("--backend remote requires --endpoint")
        backend = llm.RemoteBackend(endpoint=config["endpoint"], model_id=config["model"])
    cache = llm.GenerationCache(config["cache_dir"]) if config["cache_dir"] else None
    return llm.LlmClient(backend, cache=cache)


def cmd_index(args) -> int:
    with open(args.input, "rb") as fh:
        docs = parse_jsonl_corpus(fh)
    index = build_index(docs, k1=args.k1, b=args.b)
    index.save(args.output)
    log.info("indexed %d documents (%d terms) -> %s",
             index.doc_count, len(index.postings), args.output)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.topk < 1:
        raise UsageError("--topk must be >= 1")
    index = InvertedIndex.load(args.index)
    hits = index.search(args.query, args.topk)
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank}\t{hit.doc_id}\t{hit.score:.6f}")
    return EXIT_OK


def _query_runner(method: str, config: dict, index: InvertedIndex):
    """Validate ``method``'s settings; return its query runner and LLM client.

    The runner maps a ``Query`` and the prompt dump (or None) to its ranked
    hits. The client is None for the methods that need no LLM. KEQE is the
    CSQE pipeline without the extraction step (``n_csqe=0``).
    """
    topk = config["topk"]
    if method == "bm25":
        return (lambda query, _dump: index.search(query.text, topk)), None
    if method == "rm3":
        try:
            rm3_cfg = prf.Rm3Config(
                fb_docs=config["fb_docs"],
                fb_terms=config["fb_terms"],
                original_weight=config["orig_weight"],
            )
        except ValueError as exc:
            raise UsageError(str(exc))

        def rm3(query, _dump):
            try:
                return prf.rm3_search(index, query.text, rm3_cfg, topk)
            except ValueError:
                log.warning("query %s has no indexable terms; empty result", query.id)
                return []
        return rm3, None

    client = _build_llm_client(config)
    if method == "keqe" and config["n_keqe"] < 1:
        raise UsageError("--n-keqe must be >= 1 for keqe")
    if method == "csqe" and config["n_csqe"] < 1:
        raise UsageError("--n-csqe must be >= 1 for csqe")
    try:
        cfg = expansion.PipelineConfig(
            k_feedback=config["k_feedback"],
            doc_token_budget=config["doc_tokens"],
            n_keqe=config["n_keqe"],
            n_csqe=config["n_csqe"],
            temperature=config["temperature"],
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    return (lambda query, dump: expansion.csqe_pipeline(query, index, client, cfg,
                                                        top_k=topk, dump=dump)), client


def cmd_run(args) -> int:
    config = _resolve_run_config(args)
    with open(args.queries, "rb") as fh:
        queries = parse_queries_tsv(fh)
    index = InvertedIndex.load(args.index)
    run_one, client = _query_runner(args.method, config, index)
    dump = expansion.PromptDump(args.dump_prompts) if args.dump_prompts else None

    def run_query(query):
        log.info("query %s: %s", query.id, query.text)
        return run_one(query, dump)

    if config["jobs"] > 1:
        with ThreadPoolExecutor(max_workers=config["jobs"]) as pool:
            all_hits = list(pool.map(run_query, queries))
    else:
        all_hits = [run_query(q) for q in queries]

    rankings = {
        query.id: [(hit.doc_id, hit.score) for hit in hits]
        for query, hits in zip(queries, all_hits)
    }
    run_text = evaluation.write_trec_run(rankings, tag=config["tag"])
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(run_text)
    if dump:
        dump.finalize()

    input_paths = [args.queries, args.index]
    inputs = {"queries_sha256": _file_digest(args.queries), "index_sha256": _file_digest(args.index)}
    backend_identity = {"kind": None, "model": config["model"]}
    if client is not None:
        backend_identity["kind"] = config["backend"]
        if config["backend"] == "mock":
            inputs["fixtures_sha256"] = _file_digest(config["mock_fixtures"])
            input_paths.append(config["mock_fixtures"])
        else:
            backend_identity["endpoint"] = config["endpoint"]
    manifest = {
        "method": args.method,
        "config": {k: v for k, v in sorted(config.items())},
        "inputs": inputs,
        "backend": backend_identity,
        "queries": len(queries),
        "output": os.path.basename(args.output),
        "timestamp": _manifest_timestamp(input_paths),
    }
    manifest_path = f"{args.output}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s and %s", args.output, manifest_path)
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.run, "rb") as fh:
        run = evaluation.parse_trec_run(fh)
    with open(args.qrels, "rb") as fh:
        qrels = evaluation.parse_qrels(fh)
    try:
        metric_specs = [evaluation.parse_metric_spec(m.strip())
                        for m in args.metrics.split(",") if m.strip()]
    except ValueError as exc:
        raise UsageError(str(exc))
    if not metric_specs:
        raise UsageError("no metrics requested")
    overlap = set(run.rankings) & set(qrels.judgments)
    if not overlap:
        raise DataFormatError(
            "run and qrels share no query ids; check that the right files were paired"
        )
    report = evaluation.evaluate_run(
        run, qrels, metric_specs,
        rel_threshold=args.rel_threshold,
        exponential_gain=args.exp_gain,
    )
    sys.stdout.write(report.to_json() if args.json else report.format_table() + "\n")
    return EXIT_OK


def cmd_cache(args) -> int:
    cache = llm.GenerationCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"entries\t{stats['entries']}")
        print(f"bytes\t{stats['bytes']}")
    else:
        removed = cache.clear()
        print(f"removed\t{removed}")
    return EXIT_OK


_COMMANDS = {
    "index": cmd_index,
    "search": cmd_search,
    "run": cmd_run,
    "eval": cmd_eval,
    "cache": cmd_cache,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _configure_logging(args.verbose)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except CsqeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
