"""Command line interface.

Subcommands: ``index``, ``search``, ``run``, ``eval``, ``cache``. Exit codes:
0 success, 1 usage error, 2 data error (a path that cannot be opened or
created is one too), 3 backend error. Configuration precedence for ``run``
is flags > config file (--config, JSON) > defaults.
"""

import argparse
import errno
import hashlib
import json
import logging
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from datetime import datetime, timezone

from . import evaluation, expansion, llm, prf
from .corpus import is_single_field, parse_jsonl_corpus, parse_queries_tsv, replacing
from .errors import BackendError, CsqeError, DataFormatError, UsageError
from .index import DEFAULT_B, DEFAULT_K1, InvertedIndex, Ranking, build_index, check_bm25_params

log = logging.getLogger("csqe")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

# Each `csqe run` setting once: key -> (type, default, help). The key is the
# config-file key and, with "-" for "_", the flag; a tuple type lists the allowed
# values. A default of None is resolved per run (see _resolve_run_config).
# `csqe run --help` lists the flags in this order.
_RUN_SETTINGS = {
    "topk": (int, evaluation.DEFAULT_RUN_DEPTH, "run depth"),
    "tag": (str, None, "run tag in the output (default: the method name)"),
    "jobs": (int, 1, "parallel queries"),
    "k_feedback": (int, expansion.DEFAULT_K_FEEDBACK, "first-pass documents shown to the LLM"),
    "doc_tokens": (int, expansion.DEFAULT_DOC_TOKEN_BUDGET,
                   "whitespace-token budget per prompt document"),
    "n_keqe": (int, None, "hypothetical-passage samples (default: %d for keqe, %d for csqe)"
               % (expansion.DEFAULT_N_KEQE_ALONE, expansion.DEFAULT_N_KEQE)),
    "n_csqe": (int, expansion.DEFAULT_N_CSQE, "extraction samples"),
    "fb_docs": (int, prf.DEFAULT_FB_DOCS, "RM3 feedback documents, an assumed value"),
    "fb_terms": (int, prf.DEFAULT_FB_TERMS, "RM3 feedback terms, an assumed value"),
    "orig_weight": (float, prf.DEFAULT_ORIGINAL_WEIGHT,
                    "RM3 original-query weight, an assumed value"),
    "backend": (("remote", "mock"), "remote", "generation backend"),
    "endpoint": (str, None, "chat-completion endpoint URL (remote backend)"),
    "model": (str, llm.DEFAULT_MODEL_ID, "model identifier"),
    "temperature": (float, llm.DEFAULT_TEMPERATURE, "sampling temperature"),
    "mock_fixtures": (str, None, "JSON fixture file for the mock backend"),
    "cache_dir": (str, None, "generation cache directory"),
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


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
    for key, (kind, default, text) in _RUN_SETTINGS.items():
        choices = kind if isinstance(kind, tuple) else None
        p_run.add_argument("--" + key.replace("_", "-"), type=str if choices else kind,
                           choices=choices,
                           help=text if default is None else f"{text} (default {default})")
        if key == "jobs":  # --help has always listed --dump-prompts here
            p_run.add_argument("--dump-prompts", metavar="DIR",
                               help="write every prompt and raw response into DIR")

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


def _utc_iso(seconds: int) -> str:
    return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat()


def _source_date_epoch():
    """SOURCE_DATE_EPOCH as the manifest timestamp, or None when it is unset."""
    env = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        return _utc_iso(int(env)) if env else None
    except (ValueError, OverflowError, OSError):
        raise UsageError(
            f"SOURCE_DATE_EPOCH must be a Unix time in whole seconds, got {env!r}") from None


def _checked(path: str, key: str, value):
    """A config-file ``value`` as setting ``key`` takes it; None for JSON null."""
    kind = _RUN_SETTINGS[key][0]
    if value is None or type(value) is kind or (isinstance(kind, tuple) and value in kind):
        return value
    if kind is float and type(value) is int:
        return float(value)
    expected = f"one of {list(kind)}" if isinstance(kind, tuple) else _TYPE_NAMES[kind]
    raise DataFormatError(f"config file {path}: {key!r} must be {expected}, got {value!r}")


def _resolve_run_config(args) -> dict:
    """Each run setting from its flag, else the config file, else its default; checked."""
    file_config = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"config file {args.config}: {exc}")
        if not isinstance(file_config, dict):
            raise DataFormatError(f"config file {args.config}: expected a JSON object")
        unknown = set(file_config) - set(_RUN_SETTINGS)
        if unknown:
            raise DataFormatError(f"config file {args.config}: unknown keys {sorted(unknown)}")
    resolved = {}
    for key, (kind, default, _text) in _RUN_SETTINGS.items():
        flag, from_file = getattr(args, key), _checked(args.config, key, file_config.get(key))
        resolved[key] = (flag if flag is not None else
                         from_file if from_file is not None else default)
        if kind is float and not math.isfinite(resolved[key]):  # the manifest must stay JSON
            raise UsageError(f"--{key.replace('_', '-')} must be a finite number, "
                             f"got {resolved[key]}")
    if resolved["n_keqe"] is None:
        resolved["n_keqe"] = (
            expansion.DEFAULT_N_KEQE_ALONE if args.method == "keqe" else expansion.DEFAULT_N_KEQE
        )
    if args.method == "keqe":
        if resolved["n_keqe"] < 1:
            raise UsageError("--n-keqe must be >= 1 for keqe")
        resolved["n_csqe"] = 0  # KEQE draws no extraction samples
    if args.method == "csqe" and resolved["n_csqe"] < 1:
        raise UsageError("--n-csqe must be >= 1 for csqe")
    if resolved["tag"] is None:
        resolved["tag"] = args.method
    if not is_single_field(resolved["tag"]):
        raise UsageError(f"--tag must be non-empty with no whitespace, got {resolved['tag']!r}")
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
        try:
            backend = llm.RemoteBackend(endpoint=config["endpoint"], model_id=config["model"])
        except ValueError as exc:
            raise UsageError(str(exc))
    cache = llm.GenerationCache(config["cache_dir"]) if config["cache_dir"] else None
    return llm.LlmClient(backend, cache=cache)


def _refuse_outputs_among_inputs(outputs: list[str], inputs: dict) -> None:
    """Refuse any of ``outputs`` that is one of the ``inputs`` (flag -> path or None):
    writing it would replace that input."""
    for output in filter(os.path.exists, outputs):
        for flag, path in inputs.items():
            if path and os.path.exists(path) and os.path.samefile(output, path):
                raise UsageError(f"output {output} is the {flag} file")


def cmd_index(args) -> int:
    try:
        check_bm25_params(args.k1, args.b)
    except ValueError as exc:
        raise UsageError(str(exc))
    _refuse_outputs_among_inputs([args.output], {"--input": args.input})
    with open(args.input, "rb") as fh:
        docs = parse_jsonl_corpus(fh)
    index = build_index(docs, k1=args.k1, b=args.b)
    index.save(args.output)
    log.info("indexed %d documents (%d terms) -> %s",
             index.doc_count, len(index.terms), args.output)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.topk < 1:
        raise UsageError("--topk must be >= 1")
    index = InvertedIndex.load(args.index)
    hits = index.search(args.query, args.topk)
    for rank, (doc_id, score) in enumerate(zip(hits.doc_ids, hits.scores), start=1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    return EXIT_OK


def _query_runner(method: str, config: dict, index: InvertedIndex):
    """Build ``method``'s query runner from resolved settings.

    The runner maps a ``Query`` to its ranked hits and its generations (see
    ``csqe_pipeline``; bm25 and rm3 have none). KEQE is the CSQE pipeline
    without the extraction step (``n_csqe=0``).
    """
    topk = config["topk"]
    if method == "bm25":
        return lambda query: (index.search(query.text, topk), [])
    if method == "rm3":
        try:
            rm3_cfg = prf.Rm3Config(
                fb_docs=config["fb_docs"],
                fb_terms=config["fb_terms"],
                original_weight=config["orig_weight"],
            )
        except ValueError as exc:
            raise UsageError(str(exc))

        def rm3(query):
            try:
                return prf.rm3_search(index, query.text, rm3_cfg, topk), []
            except ValueError:
                log.warning("query %s has no indexable terms; empty result", query.id)
                return Ranking([], []), []
        return rm3

    client = _build_llm_client(config)
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
    return lambda query: expansion.csqe_pipeline(query, index, client, cfg, top_k=topk)


def _map_ahead(pool: ThreadPoolExecutor, fn, items, ahead: int):
    """Yield ``fn(item)`` for each item in order, running on ``pool`` at most
    ``ahead`` items past the one whose result is being taken."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def cmd_run(args) -> int:
    config = _resolve_run_config(args)
    manifest_path = f"{args.output}.manifest.json"
    _refuse_outputs_among_inputs([args.output, manifest_path], {
        "--queries": args.queries, "--index": args.index, "--config": args.config,
        "--mock-fixtures": config["mock_fixtures"],
    })
    fixed_time = _source_date_epoch()
    with open(args.queries, "rb") as fh:
        queries = parse_queries_tsv(fh)
    index = InvertedIndex.load(args.index)
    if args.method in ("rm3", "csqe"):
        # decode the texts on this thread: a --jobs worker would decode them into its own
        # malloc arena, which adds to the peak RSS of a process that runs several commands
        index.doc_texts
    run_one = _query_runner(args.method, config, index)
    if args.dump_prompts:  # a directory that cannot be made fails before any backend call
        os.makedirs(args.dump_prompts, exist_ok=True)

    def run_query(query):
        log.info("query %s: %s", query.id, query.text)
        return run_one(query)

    # The run file is written under a temporary name, one query at a time as its
    # result arrives, and renamed after the last one: memory holds the ranking being
    # written and at most 2 x jobs queries' results ahead of it (none, for --jobs 1),
    # an output that cannot be created fails before any backend call, and a failed run
    # leaves an existing output untouched.
    if os.path.isdir(args.output):  # the rename would refuse it only after the last query
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    generations = []
    with replacing(args.output, "x", encoding="utf-8") as fh, ExitStack() as stack:
        if config["jobs"] > 1:
            pool = ThreadPoolExecutor(max_workers=config["jobs"])
            # on failure, the queries not yet started are dropped rather than run
            stack.callback(pool.shutdown, cancel_futures=True)
            results = _map_ahead(pool, run_query, queries, 2 * config["jobs"])
        else:
            results = map(run_query, queries)
        for query, (hits, gens) in zip(queries, results):
            fh.write(evaluation.write_trec_run({query.id: hits}, tag=config["tag"]))
            if args.dump_prompts:
                generations.extend(gens)
    if args.dump_prompts:
        expansion.write_prompt_dump(args.dump_prompts, generations)

    input_paths = [args.queries, args.index]
    inputs = {"queries_sha256": _file_digest(args.queries), "index_sha256": _file_digest(args.index)}
    backend_identity = {"kind": None, "model": config["model"]}
    if args.method in ("keqe", "csqe"):
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
        # deterministic for unchanged inputs: SOURCE_DATE_EPOCH, else the newest input's mtime
        "timestamp": fixed_time or _utc_iso(max(int(os.stat(p).st_mtime) for p in input_paths)),
    }
    with replacing(manifest_path, "x", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s and %s", args.output, manifest_path)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.rel_threshold < 1:
        raise UsageError(f"--rel-threshold must be >= 1, got {args.rel_threshold}")
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
    if not run.keys() & qrels.keys():
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
    if not os.path.isdir(args.cache_dir):  # GenerationCache would create it
        raise DataFormatError(f"{args.cache_dir}: no such cache directory")
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
    except (DataFormatError, OSError) as exc:
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
