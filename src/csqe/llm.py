"""Text-generation backends with per-request fingerprinting and a file cache.

``LlmClient.sample_many`` is the one entry point: it takes ``(prompt, n)``
requests, looks each request up in the cache, sends every request with
samples missing to the backend in one ``fetch_many`` call and stores what
came back. When a job fails, the jobs that succeeded are still stored before
the first failure is raised, so a failed job never costs the samples fetched
beside it.

A backend provides ``model_id``, ``fetch(prompt, temperature, ordinals)``,
which returns one text per ordinal, and ``fetch_many(jobs)``, which takes a
list of such ``(prompt, temperature, ordinals)`` jobs and returns each job's
outcome in job order: its texts, or the exception its fetch raised.

* ``RemoteBackend`` posts a chat-completion request
  ``{model, messages:[{role:"user",content:prompt}], temperature, n}`` to an
  http(s) endpoint with ``urllib.request``, one connection per request, and
  reads ``choices[i].message.content`` in order: null is an empty sample, and
  content that is neither a string nor null makes the reply malformed. Its
  ``fetch_many`` keeps every job's request in flight at once, one thread per
  extra job, so a call waits about one round-trip however many jobs it has;
  no connection is shared between threads.
* ``MockBackend`` serves completions from a fixture table keyed by
  ``"<sha256(prompt)>:<ordinal>"`` and errors on unknown keys, which makes
  whole pipeline runs deterministic and offline. It never waits, so its
  ``fetch_many`` runs the jobs one after another on the calling thread.

Every request is addressed by a stable fingerprint of (the backend's
``model_id``, prompt, temperature); the cache stores one file per
fingerprint, holding the request's samples in ordinal order under an
integrity checksum line, so warm runs never touch a backend and a bumped
sample count fetches only the new ordinals. Entries written by earlier
versions, one file per sample fingerprint, are never read; ``stats`` counts
them and ``clear`` removes them.
"""

import hashlib
import http.client
import json
import logging
import os
import re
import threading
import time
import urllib.error
import urllib.request
import uuid
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import urlsplit

from .errors import BackendError, FixtureMissError

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 1.0
DEFAULT_MODEL_ID = "gpt-3.5-turbo"
API_KEY_ENV_VAR = "LLM_API_KEY"


def prompt_hash(prompt: str) -> str:
    """Stable identifier for a prompt; keys the mock fixture table."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def sample_fingerprint(model_id: str, prompt: str, temperature: float, ordinal: int) -> str:
    """Name of one sample's entry in caches written before entries held whole requests."""
    key = json.dumps(
        {"model": model_id, "prompt": prompt, "temperature": temperature, "ordinal": ordinal},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def request_fingerprint(model_id: str, prompt: str, temperature: float) -> str:
    """Cache key of one request: every sample of (model_id, prompt, temperature)."""
    key = json.dumps(
        {"model": model_id, "prompt": prompt, "temperature": temperature},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def fixture_key(prompt: str, ordinal: int) -> str:
    return f"{prompt_hash(prompt)}:{ordinal}"


class MockBackend:
    """Deterministic backend backed by an in-memory fixture table."""

    def __init__(self, fixtures: dict[str, str], model_id: str = "mock"):
        self.fixtures = dict(fixtures)
        self.model_id = model_id

    @classmethod
    def from_file(cls, path: str, model_id: str = "mock") -> "MockBackend":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError:  # invalid JSON, or bytes that are not UTF-8
            data = None
        if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in data.items()
        ):
            raise BackendError(f"{path}: mock fixtures must be a JSON object of strings")
        return cls(data, model_id=model_id)

    def fetch(self, prompt: str, temperature: float, ordinals: Sequence[int]) -> list[str]:
        del temperature  # fixtures are keyed by prompt and ordinal only
        digest = prompt_hash(prompt)
        out = []
        for ordinal in ordinals:
            key = f"{digest}:{ordinal}"
            if key not in self.fixtures:
                raise FixtureMissError(
                    f"no mock fixture for prompt hash {digest} sample {ordinal}"
                )
            out.append(self.fixtures[key])
        return out

    def fetch_many(self, jobs: Sequence[tuple]) -> list:
        """Fetch each ``(prompt, temperature, ordinals)`` job in turn.

        Each job's outcome is its texts or the exception its fetch raised.
        """
        outcomes: list = []
        for job in jobs:
            try:
                outcomes.append(self.fetch(*job))
            except BackendError as exc:  # reported per job, raised by LlmClient.sample_many
                outcomes.append(exc)
        return outcomes


class RemoteBackend:
    """Chat-completion HTTP backend with retry/backoff.

    ``endpoint`` must be an http or https URL with a host, and any port it
    names must be a number in 0-65535. Retry ``attempt`` waits between half
    and all of ``backoff * 2**(attempt-1)`` seconds, at a fraction taken from
    the sha256 of the request body and the attempt number: requests that
    fail together retry at different instants, and a repeated request waits
    the same times. It waits longer when a 429 or 503 reply carries
    ``Retry-After`` in integer seconds (capped at ``timeout``).
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str = DEFAULT_MODEL_ID,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ):
        parts = urlsplit(endpoint)
        refused = f"endpoint must be an http(s) URL with a host, got {endpoint!r}"
        # urlopen would also read file: URLs and try ftp: ones as the "response"
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(refused)
        try:
            parts.port  # every attempt would fail on a port that is not a number in 0-65535
        except ValueError as exc:
            raise ValueError(f"{refused} ({exc})") from None
        self.endpoint = endpoint
        self.model_id = model_id
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def fetch_many(self, jobs: Sequence[tuple]) -> list:
        """Fetch each ``(prompt, temperature, ordinals)`` job, all at once.

        The first job runs on the calling thread and every other job on a
        short-lived thread of its own. All of them are joined before this
        returns; each job's outcome is its texts or the exception it raised.
        """
        outcomes: list = [None] * len(jobs)

        def run(i: int) -> None:
            try:
                outcomes[i] = self.fetch(*jobs[i])
            except BaseException as exc:  # reported per job, raised by LlmClient.sample_many
                outcomes[i] = exc

        workers = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(1, len(jobs))]
        for worker in workers:
            worker.start()
        try:
            if jobs:
                run(0)
        finally:
            for worker in workers:
                worker.join()
        return outcomes

    def _retry_after(self, status: int, headers) -> float:
        """Seconds a 429 or 503 reply asks to wait: integer form only, capped at the timeout."""
        if status not in (429, 503):
            return 0.0
        value = (headers.get("Retry-After") or "").strip()
        if not (value.isascii() and value.isdigit()):
            return 0.0  # absent, or the HTTP-date form, which is not honoured
        return min(float(value), self.timeout)

    def _backoff(self, data: bytes, attempt: int) -> float:
        """Seconds before retry ``attempt`` of the request ``data``, before ``Retry-After``."""
        digest = hashlib.sha256(b"%d\n%b" % (attempt, data)).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64  # in [0, 1]
        return self.backoff * 2 ** (attempt - 1) * (1 + fraction) / 2

    def fetch(self, prompt: str, temperature: float, ordinals: Sequence[int]) -> list[str]:
        n = len(ordinals)
        body = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "n": n,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(body, allow_nan=False).encode("utf-8"),
            headers=headers,
        )
        error: BackendError = BackendError("no request attempted")
        retry_after = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(max(self._backoff(request.data, attempt), retry_after))
            retry_after = 0.0
            try:  # one connection per request: urllib closes it after each reply
                try:
                    with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                        status, reply_headers, raw = resp.status, resp.headers, resp.read()
                except urllib.error.HTTPError as exc:  # a non-2xx reply, read like any other
                    with exc:
                        status, reply_headers, raw = exc.code, exc.headers, exc.read()
            except (OSError, http.client.HTTPException) as exc:
                error = BackendError(f"request to {self.endpoint} failed: {exc}")
                log.warning("backend request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if status == 200:
                return self._parse_choices(raw, n)
            error = BackendError(
                f"backend returned HTTP {status}: "
                f"{raw.decode('utf-8', errors='replace')[:200]}",
                status=status,
            )
            if status < 500 and status != 429:
                break  # client errors do not get better on retry
            retry_after = self._retry_after(status, reply_headers)
            log.warning("backend HTTP %d (attempt %d)", status, attempt + 1)
        raise error

    @staticmethod
    def _parse_choices(raw: bytes, n: int) -> list[str]:
        try:
            choices = json.loads(raw)["choices"]
            texts = [choice["message"]["content"] for choice in choices]
            if not all(text is None or isinstance(text, str) for text in texts):
                raise TypeError("a message content is neither a string nor null")
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        if len(texts) < n:
            raise BackendError(f"backend returned {len(texts)} choices, expected {n}")
        if len(texts) > n:
            log.warning("backend returned %d choices, expected %d; keeping the first %d",
                        len(texts), n, n)
        return [text or "" for text in texts[:n]]  # null content is an empty sample


_ENTRY_NAME = re.compile(r"[0-9a-f]{64}")  # a request fingerprint


class GenerationCache:
    """One file per request fingerprint under a root directory.

    Entry layout: a ``sha256:<hex>`` checksum line, then the request's
    samples in ordinal order as a UTF-8 JSON list of strings. An entry that
    fails its checksum, is not UTF-8 or is not such a list is dropped with a
    warning and refetched. An entry's name is its fingerprint, 64 lowercase
    hex digits; ``stats`` and ``clear`` leave every other file in the
    directory alone. Entries of earlier versions, named by sample
    fingerprints, are never looked up, but ``stats`` counts them and
    ``clear`` removes them.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def get(self, fingerprint: str) -> Optional[list[str]]:
        try:
            blob = (self.root / fingerprint).read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning("cache read failed for %s: %s", fingerprint, exc)
            return None
        head, sep, body = blob.partition(b"\n")
        if not sep or not head.startswith(b"sha256:"):
            log.warning("cache entry %s is malformed; refetching", fingerprint)
            return None
        if hashlib.sha256(body).hexdigest().encode("ascii") != head[len(b"sha256:"):]:
            log.warning("cache entry %s failed its integrity check; refetching", fingerprint)
            return None
        try:
            texts = json.loads(body.decode("utf-8"))
        except UnicodeDecodeError:
            log.warning("cache entry %s is not UTF-8; refetching", fingerprint)
            return None
        except ValueError:
            texts = None
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            log.warning("cache entry %s is not a JSON list of strings; refetching", fingerprint)
            return None
        return texts

    def put(self, fingerprint: str, texts: list[str]) -> None:
        body = json.dumps(texts).encode("ascii")  # escapes keep lone surrogates storable
        payload = b"sha256:" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body
        # unique per call: writers of one fingerprint, even nested on one thread, never share it
        tmp = self.root / f"{fingerprint}.tmp.{uuid.uuid4().hex}"
        try:
            with open(tmp, "xb") as fh:
                fh.write(payload)
            os.replace(tmp, self.root / fingerprint)
        except BaseException:
            tmp.unlink(missing_ok=True)  # no entry name: `clear` would never remove it
            raise

    def _entries(self):
        return [p for p in self.root.iterdir() if _ENTRY_NAME.fullmatch(p.name) and p.is_file()]

    def stats(self) -> dict:
        entries = self._entries()
        return {"entries": len(entries), "bytes": sum(p.stat().st_size for p in entries)}

    def clear(self) -> int:
        entries = self._entries()
        for p in entries:
            p.unlink()
        return len(entries)


class LlmClient:
    """Backend plus optional cache: the expansion pipeline's one path to a backend."""

    def __init__(self, backend, cache: Optional[GenerationCache] = None):
        self.backend = backend
        self.cache = cache

    def sample_many(self, requests: Sequence[tuple[str, int]],
                    temperature: float = DEFAULT_TEMPERATURE) -> list[list[str]]:
        """``n`` texts for each ``(prompt, n)`` request, in request and sample order.

        With a cache, each request is looked up by its fingerprint, and only
        the ordinals past the stored samples reach the backend; the whole
        list is then stored again. Every request with samples missing goes
        to the backend in one ``fetch_many`` call, so a backend that
        overlaps its jobs waits once per call. Lookups and stores run on the
        calling thread. When a job fails, the jobs that succeeded are still
        stored, and then the first failure in job order is raised.
        """
        model_id = self.backend.model_id
        texts: list[list[str]] = []
        jobs = []
        pending = []  # (texts slot, fingerprint) for each job
        for prompt, n in requests:
            fingerprint = None
            stored: list[str] = []
            if self.cache is not None:
                fingerprint = request_fingerprint(model_id, prompt, temperature)
                stored = self.cache.get(fingerprint) or []
            slot = stored[:n]
            texts.append(slot)
            if len(slot) < n:
                jobs.append((prompt, temperature, list(range(len(slot), n))))
                pending.append((slot, fingerprint))
        outcomes = self.backend.fetch_many(jobs) if jobs else []
        failure = None
        for (_, _, missing), (slot, fingerprint), fetched in zip(jobs, pending, outcomes):
            if isinstance(fetched, BaseException):
                failure = failure or fetched
            elif len(fetched) != len(missing):
                failure = failure or BackendError(
                    f"backend produced {len(fetched)} samples, expected {len(missing)}"
                )
            else:
                slot.extend(fetched)
                if self.cache is not None:
                    self.cache.put(fingerprint, slot)
        if failure is not None:
            raise failure
        return texts

    def sample(self, prompt: str, n: int, temperature: float = DEFAULT_TEMPERATURE) -> list[str]:
        return self.sample_many([(prompt, n)], temperature)[0]
