import hashlib
import json

import pytest

from csqe.cli import main
from csqe.errors import BackendError
from csqe.expansion import build_keqe_prompt
from csqe.llm import GenerationCache, RemoteBackend

from conftest import TOY_DIR


@pytest.fixture(scope="module")
def toy_index(tmp_path_factory):
    path = tmp_path_factory.mktemp("idx") / "toy.bin"
    rc = main(["index", "--input", str(TOY_DIR / "corpus.jsonl"), "--output", str(path)])
    assert rc == 0
    return path


def _run_args(method, toy_index, output, *extra):
    args = [
        "run", "--method", method,
        "--queries", str(TOY_DIR / "queries.tsv"),
        "--index", str(toy_index),
        "--output", str(output),
    ]
    args.extend(extra)
    return args


def _mock_args():
    return ["--backend", "mock", "--mock-fixtures", str(TOY_DIR / "fixtures.json")]


# -- exit codes ------------------------------------------------------------------


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["run", "--method", "csqe"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_corpus_is_data_error(tmp_path, capsys):
    rc = main(["index", "--input", str(tmp_path / "nope.jsonl"), "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_mock_without_fixtures_is_usage_error(toy_index, tmp_path):
    rc = main(_run_args("csqe", toy_index, tmp_path / "r.txt", "--backend", "mock"))
    assert rc == 1


def test_remote_without_endpoint_is_usage_error(toy_index, tmp_path):
    rc = main(_run_args("csqe", toy_index, tmp_path / "r.txt"))
    assert rc == 1


@pytest.mark.parametrize("method, flag", [("csqe", "--n-csqe"), ("keqe", "--n-keqe")])
def test_zero_sample_count_is_usage_error(toy_index, tmp_path, capsys, method, flag):
    output, dump_dir = tmp_path / "r.txt", tmp_path / "dump"
    rc = main(_run_args(method, toy_index, output, *_mock_args(), flag, "0",
                        "--dump-prompts", str(dump_dir)))
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert flag in err
    assert not output.exists()
    assert not dump_dir.exists()


def test_fixture_miss_is_backend_error(toy_index, tmp_path, capsys):
    fixtures = tmp_path / "empty.json"
    fixtures.write_text("{}", encoding="utf-8")
    rc = main(_run_args("csqe", toy_index, tmp_path / "r.txt",
                        "--backend", "mock", "--mock-fixtures", str(fixtures)))
    assert rc == 3
    assert "backend error" in capsys.readouterr().err


def test_remote_error_on_either_csqe_request_is_backend_error(toy_index, tmp_path,
                                                             monkeypatch, capsys):
    def fetch(self, prompt, temperature, ordinals):
        if prompt.startswith(build_keqe_prompt("x")[:20]):  # the request on the worker thread
            raise BackendError("backend returned HTTP 500: keqe refused", status=500)
        return ["" for _ in ordinals]

    monkeypatch.setattr(RemoteBackend, "fetch", fetch)
    rc = main(_run_args("csqe", toy_index, tmp_path / "o.txt", "--jobs", "2",
                        "--backend", "remote", "--endpoint", "http://127.0.0.1:9/unused"))
    assert rc == 3
    assert "keqe refused" in capsys.readouterr().err


def test_eval_disjoint_qrels_is_data_error(toy_index, tmp_path, capsys):
    run_path = tmp_path / "bm25.txt"
    assert main(_run_args("bm25", toy_index, run_path)) == 0
    qrels = tmp_path / "other.txt"
    qrels.write_text("zz 0 d1 1\n", encoding="utf-8")
    rc = main(["eval", "--run", str(run_path), "--qrels", str(qrels)])
    assert rc == 2
    assert "share no query ids" in capsys.readouterr().err


def test_eval_bad_metric_is_usage_error(toy_index, tmp_path):
    run_path = tmp_path / "bm25.txt"
    assert main(_run_args("bm25", toy_index, run_path)) == 0
    rc = main(["eval", "--run", str(run_path), "--qrels", str(TOY_DIR / "qrels.txt"),
               "--metrics", "rouge"])
    assert rc == 1


def test_index_of_the_toy_corpus_is_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
    for path in paths:
        assert main(["index", "--input", str(TOY_DIR / "corpus.jsonl"), "--output", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("line, message", [
    (b'{"id":"a","contents":"bad \\ud800 text"}', "corpus line 2: field 'contents'"),
    (b'{"id":"a","contents":"caf\xe9"}', "corpus line 2: not valid UTF-8"),
])
def test_index_rejects_a_corpus_that_is_not_utf8_as_data_error(tmp_path, capsys, line, message):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"id":"ok","contents":"fine"}\n' + line + b"\n")
    output = tmp_path / "index.bin"
    assert main(["index", "--input", str(corpus), "--output", str(output)]) == 2
    assert message in capsys.readouterr().err
    assert not output.exists()


# -- search subcommand --------------------------------------------------------------


def test_search_prints_ranked_hits(toy_index, capsys):
    rc = main(["search", "--index", str(toy_index), "--query", "green tea", "--topk", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    rank, doc_id, score = lines[0].split("\t")
    assert rank == "1" and doc_id.startswith("tea") and float(score) > 0


# -- run + manifest -------------------------------------------------------------------


def test_bm25_run_writes_run_and_manifest(toy_index, tmp_path):
    out = tmp_path / "bm25.txt"
    assert main(_run_args("bm25", toy_index, out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines, "run file should not be empty"
    assert all(line.split()[1] == "Q0" for line in lines)
    manifest = json.loads((tmp_path / "bm25.txt.manifest.json").read_text(encoding="utf-8"))
    assert manifest["method"] == "bm25"
    assert manifest["inputs"]["queries_sha256"]
    assert manifest["config"]["topk"] == 1000
    assert "timestamp" in manifest


def test_csqe_run_mock_backend_end_to_end(toy_index, tmp_path):
    out = tmp_path / "csqe.txt"
    assert main(_run_args("csqe", toy_index, out, *_mock_args())) == 0
    manifest = json.loads((tmp_path / "csqe.txt.manifest.json").read_text(encoding="utf-8"))
    assert manifest["backend"]["kind"] == "mock"
    assert manifest["inputs"]["fixtures_sha256"]
    assert "endpoint" not in manifest["backend"]
    tags = {line.split()[5] for line in out.read_text(encoding="utf-8").splitlines()}
    assert tags == {"csqe"}


def test_consecutive_mock_runs_are_byte_identical(toy_index, tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(_run_args("csqe", toy_index, out1, *_mock_args())) == 0
    assert main(_run_args("csqe", toy_index, out2, *_mock_args())) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "a.txt.manifest.json").read_text(encoding="utf-8"))
    m2 = json.loads((tmp_path / "b.txt.manifest.json").read_text(encoding="utf-8"))
    m1.pop("output"), m2.pop("output")  # differs only by the chosen file name
    assert m1 == m2


def test_run_with_jobs_parallel_matches_serial(toy_index, tmp_path):
    serial, parallel = tmp_path / "s.txt", tmp_path / "p.txt"
    assert main(_run_args("csqe", toy_index, serial, *_mock_args())) == 0
    assert main(_run_args("csqe", toy_index, parallel, "--jobs", "4", *_mock_args())) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# sha256 of the toy run files (mock backend). Every ranking and printed score
# is pinned: a change that moves one must update these digests on purpose.
_TOY_RUN_SHA256 = {
    "bm25": "079d8cb4f660d57f4d1b98810b26273966765895bb80df1dc1045b68ba95772d",
    "rm3": "703bf54c108b515c80f1877b6a975f80d8dea7ad910c2d0cef285ddb23a97d62",
    "keqe": "9da058bb9bc5b6679fca8ec07933ca8d3717ef89685929ef022cae7b5deeffb6",
    "csqe": "5557df65814329def2ef60deaa9cf4069d8ec23ce7406c9137a4fc295961415e",
}


@pytest.mark.parametrize("jobs", ["1", "4"])
@pytest.mark.parametrize("method", sorted(_TOY_RUN_SHA256))
def test_toy_run_files_match_pinned_digests(toy_index, tmp_path, method, jobs):
    out = tmp_path / f"{method}.txt"
    assert main(_run_args(method, toy_index, out, "--jobs", jobs, *_mock_args())) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _TOY_RUN_SHA256[method]


def test_rm3_run_flags(toy_index, tmp_path):
    out = tmp_path / "rm3.txt"
    rc = main(_run_args("rm3", toy_index, out,
                        "--fb-docs", "5", "--fb-terms", "8", "--orig-weight", "0.6"))
    assert rc == 0
    manifest = json.loads((tmp_path / "rm3.txt.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["fb_docs"] == 5
    assert manifest["config"]["orig_weight"] == 0.6


def test_keqe_run_defaults_to_five_samples(toy_index, tmp_path):
    out = tmp_path / "keqe.txt"
    assert main(_run_args("keqe", toy_index, out, *_mock_args())) == 0
    manifest = json.loads((tmp_path / "keqe.txt.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["n_keqe"] == 5
    assert manifest["config"]["n_csqe"] == 0


def test_keqe_manifest_records_no_extraction_samples_whatever_the_flag(toy_index, tmp_path):
    out = tmp_path / "keqe.txt"
    assert main(_run_args("keqe", toy_index, out, *_mock_args(), "--n-csqe", "3")) == 0
    manifest = json.loads((tmp_path / "keqe.txt.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["n_csqe"] == 0


def test_config_file_precedence(toy_index, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"topk": 7, "tag": "from-config"}), encoding="utf-8")
    out = tmp_path / "cfg.txt"
    rc = main(_run_args("bm25", toy_index, out, "--config", str(config), "--topk", "3"))
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    per_query = {}
    for line in lines:
        per_query.setdefault(line.split()[0], []).append(line)
    assert all(len(v) <= 3 for v in per_query.values())  # flag beat config
    assert lines[0].split()[5] == "from-config"  # config beat default


def test_config_file_unknown_key_is_data_error(toy_index, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no_such_option": 1}), encoding="utf-8")
    rc = main(_run_args("bm25", toy_index, tmp_path / "o.txt", "--config", str(config)))
    assert rc == 2


def test_dump_prompts_writes_audit_files(toy_index, tmp_path):
    dump_dir = tmp_path / "dump"
    out = tmp_path / "csqe.txt"
    rc = main(_run_args("csqe", toy_index, out, "--dump-prompts", str(dump_dir), *_mock_args()))
    assert rc == 0
    assert (dump_dir / "t1.csqe.prompt.txt").exists()
    assert (dump_dir / "t1.csqe.0.response.txt").exists()
    assert (dump_dir / "t1.keqe.prompt.txt").exists()
    records = json.loads((dump_dir / "prompts.json").read_text(encoding="utf-8"))
    assert any(r["kind"] == "csqe" for r in records)
    assert all(len(r["prompt_sha256"]) == 64 for r in records)


def test_dump_prompts_identical_for_serial_and_parallel_runs(toy_index, tmp_path):
    dumps = {}
    for jobs in ("1", "4"):
        dump_dir = tmp_path / f"dump{jobs}"
        rc = main(_run_args("csqe", toy_index, tmp_path / f"run{jobs}.txt", "--jobs", jobs,
                            "--dump-prompts", str(dump_dir), *_mock_args()))
        assert rc == 0
        dumps[jobs] = {p.name: p.read_bytes() for p in dump_dir.iterdir()}
    assert dumps["1"] == dumps["4"]
    # prompts.json, then per query: 2 prompts and 2 + 2 responses
    assert len(dumps["1"]) == 1 + 5 * 6


def test_run_with_cache_then_cache_subcommands(toy_index, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    out = tmp_path / "csqe.txt"
    assert main(_run_args("csqe", toy_index, out, "--cache-dir", str(cache_dir), *_mock_args())) == 0
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    stats_out = capsys.readouterr().out
    entries = int(stats_out.splitlines()[0].split("\t")[1])
    assert entries == 20  # 5 queries x (2 csqe + 2 keqe) samples
    # warm cache serves a re-run even with an empty fixture table
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    out2 = tmp_path / "csqe2.txt"
    rc = main(_run_args("csqe", toy_index, out2, "--cache-dir", str(cache_dir),
                        "--backend", "mock", "--mock-fixtures", str(empty)))
    assert rc == 0
    assert out.read_bytes() == out2.read_bytes()
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert GenerationCache(cache_dir).stats()["entries"] == 0


def test_eval_table_and_json_output(toy_index, tmp_path, capsys):
    out = tmp_path / "bm25.txt"
    assert main(_run_args("bm25", toy_index, out)) == 0
    rc = main(["eval", "--run", str(out), "--qrels", str(TOY_DIR / "qrels.txt"),
               "--metrics", "map,ndcg_cut.10,recall.1000"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "ndcg_cut.10" in table and "metric" in table
    rc = main(["eval", "--run", str(out), "--qrels", str(TOY_DIR / "qrels.txt"),
               "--metrics", "map", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["macro"]["map"] <= 1.0
    assert "per_query" in payload
