import hashlib
import json
import os
import socket
import tempfile
import threading
import time
import urllib.request
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
    request_fingerprint,
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
        ),
        min_size=2,
        max_size=30,
        unique=True,
    )
)
def test_fingerprints_injective(tuples):
    fingerprints = [request_fingerprint(*t) for t in tuples]
    assert len(set(fingerprints)) == len(fingerprints)


def test_fingerprint_stable_across_runs():
    fp = request_fingerprint("m", "p", 1.0)
    # pinned: a different value would orphan every cache entry already written
    assert fp == "3f4da142b4db034d1e3e7ad74c08b79f78d7e7e2dea8a6987bee2fca7ed1b376"
    assert fp != request_fingerprint("m", "p", 0.5)
    assert fp != request_fingerprint("n", "p", 1.0)
    assert fp != sample_fingerprint("m", "p", 1.0, 0)  # an entry of the per-sample layout


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
    # the wrong shape, JSON cut short, and bytes that are not UTF-8
    for data in (json.dumps({"k": 7}).encode(), b'{"a": ', b'{"a": "caf\xe9"}'):
        path.write_bytes(data)
        with pytest.raises(BackendError, match="mock fixtures must be a JSON object of strings"):
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
    server.server_close()
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



def test_remote_extra_choices_are_dropped_with_a_warning(stub_server, caplog):
    endpoint, handler = stub_server
    handler.script = [(200, _choices("first", "second", "third"))]
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0)
    with caplog.at_level("WARNING", logger="csqe.llm"):
        assert backend.fetch("p", 1.0, [0, 1]) == ["first", "second"]
    assert "backend returned 3 choices, expected 2" in caplog.text

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


# The backoff of this test's request: 0.5 s scaled by the fraction its body and
# attempt 1 hash to
_FIRST_BACKOFF = 0.4525207750501195


@pytest.mark.parametrize("status, retry_after, expected", [
    (429, "2", 2.0),  # longer than the backoff: honoured
    (503, "999", 5.0),  # capped at the timeout
    (429, "0", _FIRST_BACKOFF),  # shorter than the backoff: the backoff wins
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", _FIRST_BACKOFF),  # date form: not honoured
    (500, "2", _FIRST_BACKOFF),  # only 429 and 503 are read
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


def test_remote_retries_of_different_requests_wait_different_repeatable_times(
        stub_server, monkeypatch):
    endpoint, handler = stub_server
    handler.by_prompt = {"p": (503, {}), "q": (503, {})}
    waits = {}  # thread -> the seconds it slept
    monkeypatch.setattr(
        time, "sleep", lambda s: waits.setdefault(threading.current_thread(), []).append(s))
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.5, max_retries=3)

    def retry_waits(*prompts):
        waits.clear()
        outcomes = backend.fetch_many([(prompt, 1.0, [0]) for prompt in prompts])
        assert all(isinstance(outcome, BackendError) for outcome in outcomes)
        return sorted(waits.values())

    together = retry_waits("p", "q")
    assert [len(each) for each in together] == [3, 3] and together[0] != together[1]
    for each in together:  # retry i + 1 waits within [base / 2, base], base = 0.5 * 2**i
        assert all(0.25 * 2 ** i <= wait <= 0.5 * 2 ** i for i, wait in enumerate(each))
    assert sorted(retry_waits("p") + retry_waits("q")) == together


def test_remote_truncated_json_is_malformed_without_retry(stub_server):
    endpoint, handler = stub_server
    backend = RemoteBackend(endpoint, api_key="k", backoff=0.0, max_retries=3)
    truncated = json.dumps(_choices("cut short")).encode("utf-8")[:-5]
    # content that is neither a string nor null is as malformed as JSON cut short
    for sent, payload in enumerate((truncated, _choices(5), _choices(["a"]), _choices({})), 1):
        handler.script = [(200, payload)]
        with pytest.raises(BackendError, match="malformed backend response"):
            backend.fetch("p", 1.0, [0])
        assert len(handler.seen) == sent


def test_remote_reply_slower_than_timeout_is_retried_then_raised(stub_server):
    endpoint, handler = stub_server
    handler.delay = 0.3
    backend = RemoteBackend(endpoint, api_key="k", timeout=0.1, max_retries=1, backoff=0.0)
    with pytest.raises(BackendError, match="failed"):
        backend.fetch("p", 1.0, [0])
    assert len(handler.seen) == 2


@pytest.mark.parametrize("endpoint", [
    "not-a-url", "file:///etc/hostname", "ftp://127.0.0.1/v1/chat/completions", "http://",
    "http://127.0.0.1:abc/v1", "http://127.0.0.1:99999/v1",
])
def test_remote_refuses_an_endpoint_that_is_not_http_with_a_host(endpoint):
    with pytest.raises(ValueError, match=r"endpoint must be an http\(s\) URL with a host"):
        RemoteBackend(endpoint, api_key="k")


def test_remote_connection_refused_is_retried_then_raised(monkeypatch):
    with socket.socket() as sock:  # a port that was just free, so nothing listens on it
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    attempts = []
    real_urlopen = urllib.request.urlopen

    def urlopen(*args, **kwargs):
        attempts.append(args[0].full_url)
        return real_urlopen(*args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"
    backend = RemoteBackend(endpoint, api_key="k", max_retries=1, backoff=0.0)
    with pytest.raises(BackendError, match=f"request to {endpoint} failed") as excinfo:
        backend.fetch("p", 1.0, [0])
    assert excinfo.value.status is None
    assert attempts == [endpoint, endpoint]


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
    assert cache.get(request_fingerprint("m", csqe, 1.0)) == ["e0", "e1"]
    assert cache.stats()["entries"] == 1
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
    texts = ["line one\n\nline two — café\n", "", "a lone \ud800 surrogate"]
    cache.put("f" * 64, texts)
    assert cache.get("f" * 64) == texts


def test_cache_corruption_refetches_with_warning(tmp_path, caplog):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    client.sample_many([("p", 1)])
    fp = request_fingerprint("spy", "p", 1.0)
    entry = cache.root / fp
    entry.write_bytes(entry.read_bytes()[:-1] + b"?")
    with caplog.at_level("WARNING"):
        client.sample_many([("p", 1)])
    assert "integrity" in caplog.text
    assert backend.calls == [[0], [0]]
    # the refetched entry was rewritten and now verifies
    assert cache.get(fp) is not None


def test_cache_entry_that_passes_its_checksum_but_is_not_utf8_refetches_with_warning(
        tmp_path, caplog):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    fp = request_fingerprint("spy", "p", 1.0)
    (cache.root / fp).write_bytes(
        b"sha256:" + hashlib.sha256(b"\xff").hexdigest().encode("ascii") + b"\n\xff")
    with caplog.at_level("WARNING"):
        assert cache.get(fp) is None
        client.sample_many([("p", 1)])
    assert "is not UTF-8" in caplog.text
    assert backend.calls == [[0]]
    assert cache.get(fp) is not None  # the refetched entry replaced it


@pytest.mark.parametrize("body", [b'"one text"', b'{"0": "x"}', b'["x", 1]', b'["x"', b""],
                         ids=["string", "object", "non-string-item", "truncated", "empty"])
def test_cache_entry_that_passes_its_checksum_but_is_not_a_list_of_strings_refetches(
        tmp_path, caplog, body):
    cache = GenerationCache(tmp_path / "cache")
    backend = SpyBackend()
    client = LlmClient(backend, cache)
    fp = request_fingerprint("spy", "p", 1.0)
    (cache.root / fp).write_bytes(
        b"sha256:" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body)
    with caplog.at_level("WARNING"):
        assert cache.get(fp) is None
        client.sample_many([("p", 1)])
    assert "is not a JSON list of strings" in caplog.text
    assert backend.calls == [[0]]
    assert cache.get(fp) == [f"{prompt_hash('p')[:8]}/0"]


def test_cache_put_survives_a_nested_put_of_the_same_fingerprint(tmp_path, monkeypatch):
    cache = GenerationCache(tmp_path / "cache")
    fp = "c" * 64
    real_replace = os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            cache.put(fp, ["inner"])  # a second writer of the fingerprint finishes first
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    cache.put(fp, ["outer"])
    assert nested
    assert cache.get(fp) == ["outer"]
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


_PROMPTS = st.sampled_from(["a", "b", "c"])
_CALLS = st.lists(
    st.tuples(st.dictionaries(_PROMPTS, st.integers(min_value=0, max_value=4), max_size=3),
              st.sampled_from([0.5, 1.0])),
    max_size=8,
)


@given(_CALLS)
def test_cached_client_returns_what_an_uncached_one_does_and_refetches_nothing(calls):
    plain, cached = SpyBackend(), SpyBackend()
    stored = {}  # (prompt, temperature) -> samples stored so far
    with tempfile.TemporaryDirectory() as root:
        client = LlmClient(cached, GenerationCache(root))
        for wanted, temperature in calls:
            requests = list(wanted.items())
            cached.calls.clear()
            assert (client.sample_many(requests, temperature)
                    == LlmClient(plain).sample_many(requests, temperature))
            jobs = iter(cached.calls)
            for prompt, n in requests:
                have = stored.get((prompt, temperature), 0)
                if n > have:
                    assert next(jobs) == list(range(have, n))
                    stored[(prompt, temperature)] = n
            assert next(jobs, None) is None


def test_entries_of_the_per_sample_layout_are_never_read_but_are_cleared(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    old = cache.root / sample_fingerprint("spy", "p", 1.0, 0)
    body = b"an old sample"
    old.write_bytes(b"sha256:" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body)
    backend = SpyBackend()
    assert LlmClient(backend, cache).sample_many([("p", 1)]) == [[f"{prompt_hash('p')[:8]}/0"]]
    assert backend.calls == [[0]]
    assert cache.stats()["entries"] == 2
    assert cache.clear() == 2
    assert not old.exists()


def test_cache_stats_and_clear(tmp_path):
    cache = GenerationCache(tmp_path / "cache")
    cache.put("a" * 64, ["x"])
    cache.put("b" * 64, ["y"])
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
