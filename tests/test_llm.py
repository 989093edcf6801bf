import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from csqe.errors import BackendError, FixtureMissError
from csqe.llm import (
    GenerationCache,
    LlmClient,
    MockBackend,
    RemoteBackend,
    fixture_key,
    prompt_hash,
    sample_fingerprint,
)


class SpyBackend:
    """Counts fetches; replies '<hash prefix>/<ordinal>' deterministically."""

    def __init__(self):
        self.calls = []
        self.batches = []
        self.model_id = "spy"

    def fetch(self, prompt, temperature, ordinals):
        self.calls.append(list(ordinals))
        return [f"{prompt_hash(prompt)[:8]}/{i}" for i in ordinals]

    def fetch_many(self, jobs):
        self.batches.append(len(jobs))
        return [self.fetch(*job) for job in jobs]


# -- fingerprints ------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["m1", "m2"]),
            st.text(min_size=1, max_size=20),
            st.sampled_from([0.0, 0.7, 1.0]),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=2,
        max_size=30,
        unique=True,
    )
)
def test_fingerprints_injective(tuples):
    fingerprints = [sample_fingerprint(*t) for t in tuples]
    assert len(set(fingerprints)) == len(fingerprints)


def test_fingerprint_stable_across_runs():
    fp = sample_fingerprint("m", "p", 1.0, 0)
    # pinned: a different value would orphan every cache entry already written
    assert fp == "7ae22f99009083537fd8c39058818e50fd1b72ba657684cd7280074d2b04018b"
    assert fp != sample_fingerprint("m", "p", 0.5, 0)
    assert fp != sample_fingerprint("m", "p", 1.0, 1)


# -- mock backend ------------------------------------------------------------------


def test_mock_returns_fixtures_in_order():
    fixtures = {fixture_key("p", 0): "x", fixture_key("p", 1): "y"}
    texts = LlmClient(MockBackend(fixtures)).sample_many([("p", 2)])
    assert texts == [["x", "y"]]


def test_mock_unknown_prompt_is_fixture_miss():
    backend = MockBackend({fixture_key("p", 0): "x"})
    with pytest.raises(FixtureMissError, match=prompt_hash("other")):
        LlmClient(backend).sample_many([("other", 1)])


def test_mock_from_file_round_trip(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({fixture_key("p", 0): "hello"}), encoding="utf-8")
    backend = MockBackend.from_file(str(path))
    assert backend.fetch("p", 1.0, [0]) == ["hello"]


def test_mock_from_file_rejects_non_string_map(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"k": 7}), encoding="utf-8")
    with pytest.raises(BackendError):
        MockBackend.from_file(str(path))


# -- remote backend against a stub server ------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, payload_dict_or_text_or_raw_bytes[, extra headers])
    by_prompt = {}  # prompt -> (status, payload): replies that ignore the script
    seen = []
    delay = 0.0  # seconds to wait before each reply

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        type(self).seen.append(
            {"body": body, "authorization": self.headers.get("Authorization")}
        )
        prompt = body["messages"][0]["content"]
        if prompt in type(self).by_prompt:
            status, payload, *headers = type(self).by_prompt[prompt]
        else:
            status, payload, *headers = (
                type(self).script.pop(0) if type(self).script else (200, {"choices": []})
            )
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        if type(self).delay:  # only then: some tests record the client's time.sleep calls
            time.sleep(type(self).delay)
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.script = []
    _StubHandler.by_prompt = {}
    _StubHandler.seen = []
    _StubHandler.delay = 0.0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", _StubHandler
    server.shutdown()
    thread.join()


def _choices(*texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


def test_remote_reads_choices_in_order(stub_server):
    endpoint, handler = stub_server
    handler.script = [(200, _choices("first", "second"))]
    backend = RemoteBackend(endpoint, model_id="test-model", api_key="sk-test", backoff=0.0)
    texts = LlmClient(backend).sample_many([("p", 2)])
    assert texts == [["first", "second"]]
    request = handler.seen[0]
    assert request["body"] == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "p"}],
        "temperature": 1.0,
        "n": 2,
    }
    assert request["authorization"] == "Bearer sk-test"


def test_remote_retries_server_errors(stub_server):
    endpoint, handler = stub_server
    handler.script = [(500, {"error": "boom"}), (500, {"error": "boom"}), (200, _choices("ok"))]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0, max_retries=3)
    assert backend.fetch("p", 1.0, [0]) == ["ok"]
    assert len(handler.seen) == 3


def test_remote_client_error_fails_fast_with_status(stub_server):
    endpoint, handler = stub_server
    handler.script = [(400, {"error": "bad request"})]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0, max_retries=3)
    with pytest.raises(BackendError) as excinfo:
        backend.fetch("p", 1.0, [0])
    assert excinfo.value.status == 400
    assert len(handler.seen) == 1


def test_remote_exhausted_retries_raise(stub_server):
    endpoint, handler = stub_server
    handler.script = [(503, {}), (503, {}), (503, {}), (503, {})]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0, max_retries=3)
    with pytest.raises(BackendError) as excinfo:
        backend.fetch("p", 1.0, [0])
    assert excinfo.value.status == 503


@pytest.mark.parametrize("status, retry_after, expected", [
    (429, "2", 2.0),  # longer than the backoff: honoured
    (503, "999", 5.0),  # capped at the timeout
    (429, "0", 0.5),  # shorter than the backoff: the backoff wins
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # date form: not honoured
    (500, "2", 0.5),  # only 429 and 503 are read
])
def test_remote_retry_waits_for_retry_after(stub_server, monkeypatch, status, retry_after,
                                            expected):
    endpoint, handler = stub_server
    handler.script = [(status, {}, {"Retry-After": retry_after}), (200, _choices("ok"))]
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.5, timeout=5.0)
    assert backend.fetch("p", 1.0, [0]) == ["ok"]
    assert sleeps == [expected]


def test_remote_truncated_json_is_malformed_without_retry(stub_server):
    endpoint, handler = stub_server
    handler.script = [(200, json.dumps(_choices("cut short")).encode("utf-8")[:-5])]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0, max_retries=3)
    with pytest.raises(BackendError, match="malformed backend response"):
        backend.fetch("p", 1.0, [0])
    assert len(handler.seen) == 1


def test_remote_reply_slower_than_timeout_is_retried_then_raised(stub_server):
    endpoint, handler = stub_server
    handler.delay = 0.3
    backend = RemoteBackend(endpoint, api_key="k", timeout=0.1, max_retries=1, backoff=0.0)
    with pytest.raises(BackendError, match="failed"):
        backend.fetch("p", 1.0, [0])
    assert len(handler.seen) == 2


def test_remote_fetch_many_returns_each_job_in_order(stub_server):
    endpoint, handler = stub_server
    handler.script = [(200, _choices("a", "b")), (200, _choices("a", "b"))]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0)
    assert backend.fetch_many([("p", 1.0, [0]), ("q", 1.0, [0, 1])]) == [["a"], ["a", "b"]]
    assert sorted(req["body"]["n"] for req in handler.seen) == [1, 2]
    assert backend.fetch_many([]) == []


@pytest.mark.parametrize("keqe_first", [False, True])
def test_cache_keeps_the_jobs_that_succeeded_when_another_fails(stub_server, tmp_path,
                                                                keqe_first):
    endpoint, handler = stub_server
    csqe, keqe = "extract the key sentences", "write a passage"
    order = [(keqe, 2), (csqe, 2)] if keqe_first else [(csqe, 2), (keqe, 2)]
    handler.by_prompt = {csqe: (200, _choices("e0", "e1")), keqe: (400, {"error": "refused"})}
    cache = GenerationCache(tmp_path / "cache")
    client = LlmClient(RemoteBackend(endpoint, model_id="m", backoff=0.0), cache=cache)
    with pytest.raises(BackendError, match="HTTP 400"):
        client.sample_many(order)
    assert [cache.get(sample_fingerprint("m", csqe, 1.0, i)) for i in range(2)] == ["e0", "e1"]
    assert cache.stats()["entries"] == 2
    handler.by_prompt[keqe] = (200, _choices("k0", "k1"))
    handler.seen.clear()
    texts = client.sample_many(order)
    assert dict(zip([p for p, _ in order], texts)) == {csqe: ["e0", "e1"], keqe: ["k0", "k1"]}
    assert [r["body"]["messages"][0]["content"] for r in handler.seen] == [keqe]


def test_fetch_many_reports_a_failed_job_in_its_slot():
    prompt = "known"
    backend = MockBackend({fixture_key(prompt, 0): "x"})
    outcomes = backend.fetch_many([("unknown", 1.0, [0]), (prompt, 1.0, [0])])
    assert isinstance(outcomes[0], FixtureMissError)
    assert outcomes[1] == ["x"]


def test_remote_empty_completion_is_empty_string(stub_server):
    endpoint, handler = stub_server
    handler.script = [(200, {"choices": [{"message": {"content": None}}]})]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0)
    assert backend.fetch("p", 1.0, [0]) == [""]


def test_remote_api_key_from_environment(stub_server, monkeypatch):
    endpoint, handler = stub_server
    handler.script = [(200, _choices("ok"))]
    monkeypatch.setenv("LLM_API_KEY", "sk-env")
    backend = RemoteBackend(endpoint, backoff=0.0)
    backend.fetch("p", 1.0, [0])
    assert handler.seen[0]["authorization"] == "Bearer sk-env"


# -- cache --------------------------------------------------------------------------


def test_cache_hit_skips_backend(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    first = client.sample_many([("p", 2)])
    second = client.sample_many([("p", 2)])
    assert first == second
    assert backend.calls == [[0, 1]]  # second call never reached the backend


def test_cache_distinguishes_temperature(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    client.sample_many([("p", 1)], temperature=1.0)
    client.sample_many([("p", 1)], temperature=0.5)
    assert backend.calls == [[0], [0]]


def test_cache_fetches_only_new_ordinals(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    client.sample_many([("p", 2)])
    [texts] = client.sample_many([("p", 3)])
    assert backend.calls == [[0, 1], [2]]
    assert texts == [f"{prompt_hash('p')[:8]}/{i}" for i in range(3)]


def test_cache_survives_newlines_and_unicode(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    text = "line one\n\nline two — café\n"
    cache.put("f" * 64, text)
    assert cache.get("f" * 64) == text


def test_cache_corruption_refetches_with_warning(tmp_path, caplog):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    client.sample_many([("p", 1)])
    fp = sample_fingerprint("spy", "p", 1.0, 0)
    entry = cache.root / fp
    entry.write_bytes(entry.read_bytes()[:-1] + b"?")
    with caplog.at_level("WARNING"):
        client.sample_many([("p", 1)])
    assert "integrity" in caplog.text
    assert backend.calls == [[0], [0]]
    # the refetched entry was rewritten and now verifies
    assert cache.get(fp) is not None


def test_cache_put_survives_a_nested_put_of_the_same_fingerprint(tmp_path, monkeypatch):
    cache = GenerationCache(tmp_path / "cache")
    fp = "c" * 64
    real_replace = os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            cache.put(fp, "inner")  # a second writer of the fingerprint finishes first
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    cache.put(fp, "outer")
    assert nested
    assert cache.get(fp) == "outer"
    assert [p.name for p in cache.root.iterdir()] == [fp]


def test_sample_many_sends_every_miss_in_one_backend_call(tmp_path):
    backend = SpyBackend()
    client = LlmClient(backend, GenerationCache(tmp_path / "cache"))
    client.sample_many([("a", 1)])
    texts = client.sample_many([("a", 2), ("b", 1), ("a", 1)])  # the last is fully cached
    assert backend.batches == [1, 2]  # jobs per fetch_many call
    assert backend.calls == [[0], [1], [0]]
    assert texts == [
        [f"{prompt_hash('a')[:8]}/0", f"{prompt_hash('a')[:8]}/1"],
        [f"{prompt_hash('b')[:8]}/0"],
        [f"{prompt_hash('a')[:8]}/0"],
    ]


def test_cache_stats_and_clear(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    cache.put("a" * 64, "x")
    cache.put("b" * 64, "y")
    stats = cache.stats()
    assert stats["entries"] == 2 and stats["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats() == {"entries": 0, "bytes": 0}


def test_llm_client_uses_cache(tmp_path):
    backend = SpyBackend()
    client = LlmClient(backend, cache=GenerationCache(tmp_path / "c"))
    first = client.sample("p", 2)
    second = client.sample("p", 2)
    assert first == second
    assert backend.calls == [[0, 1]]
