import hashlib
import json
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from csqe.cli import _RUN_SETTINGS, main
from csqe.errors import BackendError
from csqe.expansion import build_keqe_prompt
from csqe.llm import GenerationCache, MockBackend, RemoteBackend, fixture_key

from conftest import REPO_ROOT, TOY_DIR


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
    fixtures, output, dump_dir = tmp_path / "partial.json", tmp_path / "r.txt", tmp_path / "dump"
    # the last query misses its first KEQE sample: the four queries before it succeed
    toy = json.loads((TOY_DIR / "fixtures.json").read_text(encoding="utf-8"))
    last = (TOY_DIR / "queries.tsv").read_text(encoding="utf-8").splitlines()[-1]
    del toy[fixture_key(build_keqe_prompt(last.split("\t", 1)[1]), 0)]
    fixtures.write_text(json.dumps(toy), encoding="utf-8")
    output.write_bytes(b"q0 Q0 d0 1 1.000000 earlier\n")
    for jobs in ("1", "4"):
        for extra in ([], ["--dump-prompts", str(dump_dir)]):
            rc = main(_run_args("csqe", toy_index, output, "--jobs", jobs, *extra,
                                "--backend", "mock", "--mock-fixtures", str(fixtures)))
            assert rc == 3
            err = capsys.readouterr().err
            assert "backend error" in err
            assert "Traceback" not in err
            # the four finished queries were written to a temporary file, which is gone
            assert output.read_bytes() == b"q0 Q0 d0 1 1.000000 earlier\n"
            assert list(tmp_path.glob("r.txt.tmp.*")) == []
            assert not (tmp_path / "r.txt.manifest.json").exists()
    # the dump directory is made before the first query and filled only after the last one
    assert list(dump_dir.iterdir()) == []


def test_run_refuses_an_endpoint_that_is_not_http_before_any_query_runs(toy_index, tmp_path,
                                                                       monkeypatch, capsys):
    def fetch(self, prompt, temperature, ordinals):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(RemoteBackend, "fetch", fetch)
    output = tmp_path / "r.txt"
    rc = main(_run_args("csqe", toy_index, output, "--backend", "remote",
                        "--endpoint", "file:///etc/hostname"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: endpoint must be an http(s) URL with a host, got 'file:///etc/hostname'")
    assert not output.exists()


def test_run_refuses_an_endpoint_port_that_is_not_a_number_before_any_query_runs(
        toy_index, tmp_path, monkeypatch, capsys):
    def fetch(self, prompt, temperature, ordinals):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(RemoteBackend, "fetch", fetch)
    output = tmp_path / "r.txt"
    rc = main(_run_args("csqe", toy_index, output, "--backend", "remote",
                        "--endpoint", "http://127.0.0.1:abc/v1"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "usage error: endpoint must be an http(s) URL with a host, got 'http://127.0.0.1:abc/v1'")
    assert not output.exists()


@pytest.mark.parametrize("data", [b'{"a": ', b'{"a": "caf\xe9"}'])
def test_run_with_a_mock_fixtures_file_that_is_not_json_is_backend_error(toy_index, tmp_path,
                                                                         capsys, data):
    fixtures, output = tmp_path / "fixtures.json", tmp_path / "r.txt"
    fixtures.write_bytes(data)
    rc = main(_run_args("csqe", toy_index, output, "--backend", "mock",
                        "--mock-fixtures", str(fixtures)))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"backend error: {fixtures}: mock fixtures must be a JSON object")
    assert "Traceback" not in err
    assert not output.exists()


@pytest.mark.parametrize("command", ["cache-dir", "dump-prompts", "cache-stats", "index",
                                     "output", "output-directory"])
def test_a_path_that_cannot_be_opened_or_created_is_data_error(toy_index, tmp_path, capsys,
                                                               monkeypatch, command):
    def fetch(self, prompt, temperature, ordinals):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(MockBackend, "fetch", fetch)
    a_file, output, cache_dir = tmp_path / "a_file", tmp_path / "r.txt", tmp_path / "cache"
    a_file.write_text("", encoding="utf-8")
    argv = {
        "cache-dir": _run_args("csqe", toy_index, output, *_mock_args(), "--cache-dir", str(a_file)),
        "dump-prompts": _run_args("csqe", toy_index, output, *_mock_args(),
                                  "--dump-prompts", str(a_file)),
        "cache-stats": ["cache", "stats", "--cache-dir", str(a_file)],
        "index": _run_args("bm25", a_file / "x", output),
        # the run file is opened before the first query: no backend call is spent on a
        # run whose output cannot be written
        "output": _run_args("csqe", toy_index, tmp_path / "missing" / "r.txt", *_mock_args(),
                            "--cache-dir", str(cache_dir)),
        "output-directory": _run_args("csqe", toy_index, tmp_path, *_mock_args(),
                                      "--cache-dir", str(cache_dir)),
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err
    assert not output.exists()
    assert not cache_dir.exists() or list(cache_dir.iterdir()) == []


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


# sha256 of `csqe index` on the toy corpus: the index bytes are pinned, whatever builds them
_TOY_INDEX_SHA256 = "fc62ca47af402767b3a89d1491663cd532213a476a060aa8d431a66ab4485132"


def test_index_of_the_toy_corpus_matches_the_pinned_digest(toy_index):
    assert hashlib.sha256(toy_index.read_bytes()).hexdigest() == _TOY_INDEX_SHA256


def test_index_refuses_an_output_that_is_its_input(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    shutil.copyfile(TOY_DIR / "corpus.jsonl", corpus)
    (tmp_path / "sub").mkdir()
    output = tmp_path / "sub" / ".." / "c.jsonl"  # another name for the same file
    assert main(["index", "--input", str(corpus), "--output", str(output)]) == 1
    assert capsys.readouterr().err == f"usage error: output {output} is the --input file\n"
    assert corpus.read_bytes() == (TOY_DIR / "corpus.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "sub"]


@pytest.mark.parametrize("manifest", [False, True])
@pytest.mark.parametrize("flag", ["--queries", "--index", "--config", "--mock-fixtures"])
def test_run_refuses_an_output_that_is_one_of_its_inputs(toy_index, tmp_path, capsys, flag,
                                                         manifest):
    inputs = {"--queries": tmp_path / "queries.tsv", "--index": tmp_path / "toy.bin",
              "--config": tmp_path / "config.json", "--mock-fixtures": tmp_path / "fixtures.json"}
    shutil.copyfile(TOY_DIR / "queries.tsv", inputs["--queries"])
    shutil.copyfile(toy_index, inputs["--index"])
    inputs["--config"].write_text('{"topk": 10}', encoding="utf-8")
    shutil.copyfile(TOY_DIR / "fixtures.json", inputs["--mock-fixtures"])
    if manifest:  # the input is where the run's manifest would go
        inputs[flag] = inputs[flag].rename(tmp_path / "r.txt.manifest.json")
    before = {path: path.read_bytes() for path in inputs.values()}
    output = tmp_path / "r.txt" if manifest else inputs[flag]
    argv = ["run", "--method", "csqe", "--output", str(output), "--backend", "mock"]
    for name, path in inputs.items():
        argv += [name, str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: output {inputs[flag]} is the {flag} file\n"
    assert {path: path.read_bytes() for path in inputs.values()} == before
    assert sorted(tmp_path.iterdir()) == sorted(inputs.values())  # no manifest, no tmp file


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



def test_index_rejects_a_duplicate_document_id_as_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"id":"d1","contents":"x"}\n{"id":"d2","contents":"y"}\n'
                       b'{"id":"d1","contents":"z"}\n')
    output = tmp_path / "index.bin"
    assert main(["index", "--input", str(corpus), "--output", str(output)]) == 2
    assert "duplicate document id 'd1'" in capsys.readouterr().err
    assert not output.exists()

@pytest.mark.parametrize("flag, value", [
    ("--k1", "nan"), ("--k1", "inf"), ("--k1", "-1"), ("--k1", "-0.5"),
    ("--b", "nan"), ("--b", "inf"), ("--b", "-0.5"), ("--b", "3"),
])
def test_index_refuses_bm25_parameters_that_break_scoring(tmp_path, capsys, flag, value):
    output = tmp_path / "index.bin"
    rc = main(["index", "--input", str(TOY_DIR / "corpus.jsonl"), "--output", str(output),
               flag, value])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"usage error: {flag[2:]} must")
    assert not output.exists()


# -- search subcommand --------------------------------------------------------------


def test_search_prints_ranked_hits(toy_index, capsys):
    rc = main(["search", "--index", str(toy_index), "--query", "green tea", "--topk", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    rank, doc_id, score = lines[0].split("\t")
    assert rank == "1" and doc_id.startswith("tea") and float(score) > 0


# sha256 of `csqe search --topk 1000` stdout on the toy index: "green tea" reaches 12
# postings of the 50 documents and is scored in a dict, the battery query 27 and is
# scored in a slot per document
_TOY_SEARCH_SHA256 = {
    "green tea": "f24dc4a5aaccf749bf335b1dda3dc7bfb1b85d211b4557c9607c815750dcae29",
    "how does a lithium ion battery store and release energy":
        "45a6d02930141cb8db208f1f769ec46dffceb408931f539de771ae81eff11256",
}


@pytest.mark.parametrize("query", sorted(_TOY_SEARCH_SHA256))
def test_search_stdout_matches_pinned_digests(toy_index, capsys, query):
    rc = main(["search", "--index", str(toy_index), "--query", query, "--topk", "1000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _TOY_SEARCH_SHA256[query]


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


# sha256 of the sorted (file name, bytes) pairs of the csqe toy run's --dump-prompts directory
_TOY_DUMP_SHA256 = "ce1e11eda2fe592e535b3a9596fa189ad5af46c3e229b6ddff62a6f11dceca27"


# sha256 of `csqe eval --json` (default metrics) on the toy run of each method
_TOY_EVAL_JSON_SHA256 = {
    "bm25": "748ff5de29788b18c4391f05117b0092d73ddda8ee662099e0c42452b6365911",
    "rm3": "6a75a4ccf54057ee6fdf4be4677bf79f8ddf72b11cdb0e4f593ab07ba44e190c",
    "keqe": "8200e9c524d510dd2af8865740aea51fdac92887a54eaff50ea924dacda27047",
    "csqe": "ffb3ddff387574a2f28f1e3afaf4686a2380ba45b81e6ab0fb76c2e7743b5475",
}


@pytest.mark.parametrize("jobs", ["1", "4"])
@pytest.mark.parametrize("method", sorted(_TOY_RUN_SHA256))
def test_toy_run_files_match_pinned_digests(toy_index, tmp_path, method, jobs):
    out = tmp_path / f"{method}.txt"
    assert main(_run_args(method, toy_index, out, "--jobs", jobs, *_mock_args())) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _TOY_RUN_SHA256[method]


@pytest.mark.parametrize("method", sorted(_TOY_EVAL_JSON_SHA256))
def test_toy_eval_json_matches_pinned_digests(toy_index, tmp_path, capsys, method):
    run = tmp_path / f"{method}.txt"
    assert main(_run_args(method, toy_index, run, *_mock_args())) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--qrels", str(TOY_DIR / "qrels.txt"), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _TOY_EVAL_JSON_SHA256[method]


class _FixtureStub(BaseHTTPRequestHandler):
    """Answers each chat completion from the toy mock fixtures, like ``MockBackend``."""

    fixtures = json.loads((TOY_DIR / "fixtures.json").read_text(encoding="utf-8"))
    requests = 0
    lock = threading.Lock()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        texts = [type(self).fixtures[fixture_key(prompt, i)] for i in range(body["n"])]
        data = json.dumps({"choices": [{"message": {"content": t}} for t in texts]}).encode()
        with type(self).lock:
            type(self).requests += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_remote_toy_run_through_a_fixture_stub_matches_the_mock_digest(toy_index, tmp_path,
                                                                       jobs):
    _FixtureStub.requests = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixtureStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        out = tmp_path / "csqe.txt"
        assert main(_run_args("csqe", toy_index, out, "--jobs", jobs,
                              "--backend", "remote", "--endpoint", endpoint)) == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _TOY_RUN_SHA256["csqe"]
    assert _FixtureStub.requests == 5 * 2  # per query: one extraction and one keqe request


@pytest.mark.parametrize("method", ["bm25", "keqe"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_refuses_a_non_finite_temperature_flag(toy_index, tmp_path, capsys, method, value):
    output = tmp_path / "r.txt"
    assert main(_run_args(method, toy_index, output, *_mock_args(),
                          f"--temperature={value}")) == 1
    assert capsys.readouterr().err.startswith("usage error: --temperature must be a finite")
    assert not output.exists()
    assert not (tmp_path / "r.txt.manifest.json").exists()


@pytest.mark.parametrize("method", ["bm25", "keqe"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_run_refuses_a_non_finite_temperature_in_the_config_file(toy_index, tmp_path, capsys,
                                                                 method, value):
    config = tmp_path / "config.json"
    config.write_text('{"temperature": %s}' % value, encoding="utf-8")
    output = tmp_path / "r.txt"
    assert main(_run_args(method, toy_index, output, *_mock_args(), "--config", str(config))) == 1
    assert capsys.readouterr().err.startswith("usage error: --temperature must be a finite")
    assert not output.exists()
    assert not (tmp_path / "r.txt.manifest.json").exists()


def test_importing_the_cli_loads_no_third_party_http_client():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import csqe.cli; "
            "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(REPO_ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("tag", ["", "my tag", "tab\tted"])
def test_run_refuses_a_tag_that_is_empty_or_has_whitespace(toy_index, tmp_path, capsys, tag):
    output, dump_dir = tmp_path / "r.txt", tmp_path / "dump"
    rc = main(_run_args("csqe", toy_index, output, *_mock_args(), "--tag", tag,
                        "--dump-prompts", str(dump_dir)))
    assert rc == 1
    assert "usage error: --tag" in capsys.readouterr().err
    assert not output.exists()
    assert not dump_dir.exists()


def test_run_refuses_a_config_tag_with_whitespace(toy_index, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tag": "my tag"}), encoding="utf-8")
    output = tmp_path / "r.txt"
    assert main(_run_args("bm25", toy_index, output, "--config", str(config))) == 1
    assert "usage error: --tag" in capsys.readouterr().err
    assert not output.exists()


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


@pytest.mark.parametrize("method, setting", [
    ("bm25", {"topk": "10"}),
    ("bm25", {"topk": True}),
    ("bm25", {"jobs": 2.5}),
    ("bm25", {"tag": 5}),
    ("rm3", {"orig_weight": "0.5"}),
    ("rm3", {"fb_docs": 2.5}),
    ("csqe", {"temperature": "hot"}),
    ("csqe", {"doc_tokens": 1.5}),
    ("csqe", {"cache_dir": 5}),
    ("csqe", {"backend": "grpc"}),
])
def test_config_value_of_the_wrong_type_is_data_error(toy_index, tmp_path, capsys,
                                                      method, setting):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(setting), encoding="utf-8")
    output = tmp_path / "r.txt"
    backend = [] if "backend" in setting else _mock_args()
    assert main(_run_args(method, toy_index, output, "--config", str(config), *backend)) == 2
    (key,) = setting
    err = capsys.readouterr().err
    assert err.startswith(f"data error: config file {config}: {key!r} must be")
    assert not output.exists()


def test_config_value_of_the_wrong_type_is_refused_under_a_flag(toy_index, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"topk": "10"}), encoding="utf-8")
    output = tmp_path / "r.txt"
    assert main(_run_args("bm25", toy_index, output, "--config", str(config), "--topk", "5")) == 2
    assert "'topk' must be an integer, got '10'" in capsys.readouterr().err
    assert not output.exists()


def test_config_temperature_given_as_an_integer_replays_the_flag_s_cache(toy_index, tmp_path):
    cache_dir = tmp_path / "cache"
    first = tmp_path / "flag.txt"
    assert main(_run_args("csqe", toy_index, first, "--temperature", "1",
                          "--cache-dir", str(cache_dir), *_mock_args())) == 0
    assert GenerationCache(cache_dir).stats()["entries"] == 10
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"temperature": 1, "cache_dir": str(cache_dir)}), encoding="utf-8")
    second = tmp_path / "config.txt"
    assert main(_run_args("csqe", toy_index, second, "--config", str(config), *_mock_args())) == 0
    assert GenerationCache(cache_dir).stats()["entries"] == 10
    assert first.read_bytes() == second.read_bytes()


def test_config_null_means_not_set(toy_index, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jobs": None, "topk": None}), encoding="utf-8")
    out = tmp_path / "bm25.txt"
    assert main(_run_args("bm25", toy_index, out, "--config", str(config))) == 0
    manifest = json.loads((tmp_path / "bm25.txt.manifest.json").read_text(encoding="utf-8"))
    assert (manifest["config"]["jobs"], manifest["config"]["topk"]) == (1, 1000)


# the `config` block of each toy manifest as JSON text, so that 1 against 1.0 shows
_TOY_MANIFEST_CONFIG = {
    method: (
        '{"backend": "mock", "cache_dir": null, "doc_tokens": 128, "endpoint": null, '
        '"fb_docs": 10, "fb_terms": 10, "jobs": 1, "k_feedback": 10, '
        '"mock_fixtures": "<fixtures>", "model": "gpt-3.5-turbo", '
        f'"n_csqe": {n_csqe}, "n_keqe": {n_keqe}, "orig_weight": 0.5, "tag": "{method}", '
        '"temperature": 1.0, "topk": 1000}'
    )
    for method, n_csqe, n_keqe in [("bm25", 2, 2), ("rm3", 2, 2), ("keqe", 0, 5), ("csqe", 2, 2)]
}


@pytest.mark.parametrize("method", sorted(_TOY_MANIFEST_CONFIG))
def test_toy_manifest_config_block_matches_pinned_text(toy_index, tmp_path, method):
    out = tmp_path / f"{method}.txt"
    assert main(_run_args(method, toy_index, out, *_mock_args())) == 0
    config = json.loads((tmp_path / f"{method}.txt.manifest.json").read_text(encoding="utf-8"))
    config = config["config"]
    assert config["mock_fixtures"] == str(TOY_DIR / "fixtures.json")
    config["mock_fixtures"] = "<fixtures>"
    assert json.dumps(config, sort_keys=True) == _TOY_MANIFEST_CONFIG[method]


@pytest.mark.parametrize("method", ["bm25", "rm3", "keqe", "csqe"])
def test_manifest_config_fed_back_as_config_file_reproduces_the_run(toy_index, tmp_path,
                                                                    method):
    first = tmp_path / "flags" / f"{method}.txt"
    first.parent.mkdir()
    assert main(_run_args(method, toy_index, first, *_mock_args())) == 0
    manifest = first.with_name(first.name + ".manifest.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(manifest.read_text(encoding="utf-8"))["config"]),
                      encoding="utf-8")
    again = tmp_path / "config" / f"{method}.txt"
    again.parent.mkdir()
    assert main(_run_args(method, toy_index, again, "--config", str(config))) == 0
    assert again.read_bytes() == first.read_bytes()
    assert again.with_name(again.name + ".manifest.json").read_bytes() == manifest.read_bytes()


def test_run_refuses_a_source_date_epoch_that_is_not_an_integer(toy_index, tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    output = tmp_path / "r.txt"
    assert main(_run_args("bm25", toy_index, output)) == 1
    assert capsys.readouterr().err.startswith("usage error: SOURCE_DATE_EPOCH")
    assert not output.exists()


def test_run_help_lists_every_setting_with_its_default(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    options = out[out.index("  -h, --help"):]
    flags = re.findall(r"^  (--[\w-]+)", options, re.MULTILINE)
    assert flags == [
        "--method", "--queries", "--index", "--output", "--config", "--topk", "--tag",
        "--jobs", "--dump-prompts", "--k-feedback", "--doc-tokens", "--n-keqe", "--n-csqe",
        "--fb-docs", "--fb-terms", "--orig-weight", "--backend", "--endpoint", "--model",
        "--temperature", "--mock-fixtures", "--cache-dir",
    ]
    text = " ".join(options.split())  # undo argparse's line wrapping
    for key, (_kind, default, _text) in _RUN_SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        assert flag in flags
        if default is not None:
            help_text = re.search(rf"{flag} \S+ (.*?)(?= --|$)", text).group(1)
            assert f"(default {default})" in help_text, flag


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
    digest = hashlib.sha256(repr(sorted(dumps["1"].items())).encode("utf-8")).hexdigest()
    assert digest == _TOY_DUMP_SHA256


def test_run_with_cache_then_cache_subcommands(toy_index, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    out = tmp_path / "csqe.txt"
    assert main(_run_args("csqe", toy_index, out, "--cache-dir", str(cache_dir), *_mock_args())) == 0
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    stats_out = capsys.readouterr().out
    entries = int(stats_out.splitlines()[0].split("\t")[1])
    assert entries == 10  # 5 queries x (1 csqe + 1 keqe) requests
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


def test_two_processes_sharing_one_cache_dir_write_the_pinned_run(toy_index, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    outputs = [tmp_path / "a" / "csqe.txt", tmp_path / "b" / "csqe.txt"]
    procs = []
    for out in outputs:
        out.parent.mkdir()
        argv = _run_args("csqe", toy_index, out, "--cache-dir", str(cache_dir), *_mock_args())
        procs.append(subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "from csqe.cli import main; sys.exit(main(sys.argv[2:]))",
             str(REPO_ROOT / "src"), *argv]))
    try:
        for proc in procs:  # started together, so both fill the cache at once
            assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            proc.kill()  # does nothing to a process that has exited
    for out in outputs:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _TOY_RUN_SHA256["csqe"]
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "entries\t10"  # as one run leaves
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_keqe_run_reuses_the_keqe_samples_a_csqe_run_cached(toy_index, tmp_path):
    cache_dir = tmp_path / "cache"
    assert main(_run_args("csqe", toy_index, tmp_path / "csqe.txt", "--cache-dir", str(cache_dir),
                          *_mock_args())) == 0
    # the csqe run cached KEQE samples 0-1 of each query; keqe (n=5) fetches only 2-4
    fixtures = json.loads((TOY_DIR / "fixtures.json").read_text(encoding="utf-8"))
    queries = (TOY_DIR / "queries.tsv").read_text(encoding="utf-8").splitlines()
    keys = [fixture_key(build_keqe_prompt(line.split("\t", 1)[1]), i)
            for line in queries for i in range(2, 5)]
    only_new = tmp_path / "keqe_2_to_4.json"
    only_new.write_text(json.dumps({key: fixtures[key] for key in keys}), encoding="utf-8")
    out = tmp_path / "keqe.txt"
    assert main(_run_args("keqe", toy_index, out, "--cache-dir", str(cache_dir),
                          "--backend", "mock", "--mock-fixtures", str(only_new))) == 0
    assert GenerationCache(cache_dir).stats()["entries"] == 10
    uncached = tmp_path / "keqe_uncached.txt"
    assert main(_run_args("keqe", toy_index, uncached, *_mock_args())) == 0
    assert out.read_bytes() == uncached.read_bytes()


def _traced_bm25_run_peaks(tmp_path, query_counts, *options):
    """Traced peak of a bm25 run over each number of queries, where every one of
    the 1000 documents holds the query's one term, so every query ranks all 1000."""
    corpus, index = tmp_path / "corpus.jsonl", tmp_path / "index.bin"
    corpus.write_text("".join(json.dumps({"id": f"d{i:04d}", "contents": f"shark w{i}"}) + "\n"
                              for i in range(1000)), encoding="utf-8")
    assert main(["index", "--input", str(corpus), "--output", str(index)]) == 0

    def traced_peak(n_queries):
        queries = tmp_path / f"queries{n_queries}.tsv"
        queries.write_text("".join(f"q{i:03d}\tshark\n" for i in range(n_queries)),
                           encoding="utf-8")
        run = tmp_path / f"run{n_queries}.txt"
        argv = ["run", "--method", "bm25", "--queries", str(queries), "--index", str(index),
                "--output", str(run), *options]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(run.read_bytes().splitlines()) == n_queries * 1000
        return peak

    return [traced_peak(n) for n in query_counts]


def test_run_memory_grows_with_one_query_s_ranking_not_with_the_query_count(tmp_path):
    one, four = _traced_bm25_run_peaks(tmp_path, [10, 40])
    assert four < 1.5 * one, (one, four)


def test_parallel_run_memory_does_not_grow_with_the_query_count(tmp_path):
    # --jobs 4 runs at most 8 queries ahead of the one being written
    one, four = _traced_bm25_run_peaks(tmp_path, [20, 80], "--jobs", "4")
    assert four < 1.5 * one, (one, four)


@pytest.mark.parametrize("command", ["index", "run"])
def test_a_failed_write_leaves_no_temporary_file(toy_index, tmp_path, monkeypatch, capsys,
                                                 command):
    def replace(src, dst):
        raise OSError(28, "No space left on device")

    target = tmp_path / "out"
    target.mkdir()
    argv = {
        "index": ["index", "--input", str(TOY_DIR / "corpus.jsonl"),
                  "--output", str(target / "toy.bin")],
        "run": _run_args("csqe", toy_index, tmp_path / "r.txt", "--cache-dir", str(target),
                         *_mock_args()),
    }[command]
    monkeypatch.setattr("os.replace", replace)
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(target.iterdir()) == []


def test_a_failed_manifest_write_leaves_no_manifest_and_no_temporary_file(toy_index, tmp_path,
                                                                         monkeypatch, capsys):
    def dump(obj, fh, **kwargs):
        fh.write('{"method": ')  # half a manifest, then the disk is full
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("csqe.cli.json.dump", dump)
    assert main(_run_args("bm25", toy_index, tmp_path / "r.txt")) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.glob("*.manifest.json")) == []
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_cache_stats_and_clear_leave_files_that_are_not_entries(tmp_path, capsys):
    root = tmp_path / "cache"
    GenerationCache(root).put("c" * 64, ["x"])
    (root / "notes.txt").write_text("not a cache entry", encoding="utf-8")
    (root / ("C" * 64)).write_text("not lowercase hex", encoding="utf-8")
    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "entries\t1"
    assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
    assert capsys.readouterr().out == "removed\t1\n"
    assert sorted(p.name for p in root.iterdir()) == ["C" * 64, "notes.txt"]


@pytest.mark.parametrize("action", ["stats", "clear"])
def test_cache_subcommands_refuse_a_cache_dir_that_does_not_exist(tmp_path, capsys, action):
    missing = tmp_path / "no" / "cache"
    assert main(["cache", action, "--cache-dir", str(missing)]) == 2
    assert capsys.readouterr().err == f"data error: {missing}: no such cache directory\n"
    assert not (tmp_path / "no").exists()


def test_run_creates_its_cache_dir(toy_index, tmp_path):
    cache_dir = tmp_path / "new" / "cache"
    assert main(_run_args("csqe", toy_index, tmp_path / "r.txt", "--cache-dir", str(cache_dir),
                          *_mock_args())) == 0
    assert GenerationCache(cache_dir).stats()["entries"] == 10


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_eval_refuses_a_rel_threshold_below_one_before_reading_files(tmp_path, capsys,
                                                                      threshold):
    rc = main(["eval", "--run", str(tmp_path / "missing.txt"), "--qrels",
               str(tmp_path / "missing-qrels.txt"), "--rel-threshold", threshold])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error: --rel-threshold must be >= 1")


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
