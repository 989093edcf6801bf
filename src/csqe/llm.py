"""Text-generation backends with per-sample fingerprinting and a file cache.

``LlmClient.sample_many`` is the one entry point: it takes ``(prompt, n)``
requests, looks each sample up in the cache, sends every miss to the backend
in one ``fetch_many`` call and stores what came back. When a job fails, the
jobs that succeeded are still stored before the first failure is raised, so
a failed job never costs the samples fetched beside it.

A backend provides ``model_id``, ``fetch(prompt, temperature, ordinals)``,
which returns one text per ordinal, and ``fetch_many(jobs)``, which takes a
list of such ``(prompt, temperature, ordinals)`` jobs and returns each job's
outcome in job order: its texts, or the exception its fetch raised.

* ``RemoteBackend`` posts a chat-completion request
  ``{model, messages:[{role:"user",content:prompt}], temperature, n}`` and
  reads ``choices[i].message.content`` in order. Its ``fetch_many`` keeps
  every job's request in flight at once, one thread per extra job, so a
  call waits about one round-trip however many jobs it has.
* ``MockBackend`` serves completions from a fixture table keyed by
  ``"<sha256(prompt)>:<ordinal>"`` and errors on unknown keys, which makes
  whole pipeline runs deterministic and offline. It never waits, so its
  ``fetch_many`` runs the jobs one after another on the calling thread.

Every sample is addressed by a stable fingerprint of (the backend's
``model_id``, prompt, temperature, ordinal); the cache stores one file per
fingerprint with an integrity checksum line, so warm runs never touch a
backend and a bumped sample count fetches only the new ordinals.
"""

import hashlib
import json
import logging
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Optional, Sequence

import requests

from .errors import BackendError, FixtureMissError

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 1.0
DEFAULT_MODEL_ID = "gpt-3.5-turbo"
API_KEY_ENV_VAR = "LLM_API_KEY"


def prompt_hash(prompt: str) -> str:
    """Stable identifier for a prompt; keys the mock fixture table."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def sample_fingerprint(model_id: str, prompt: str, temperature: float, ordinal: int) -> str:
    key = json.dumps(
        {"model": model_id, "prompt": prompt, "temperature": temperature, "ordinal": ordinal},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def request_fingerprint(req) -> str:
    """Digest of the sample fingerprints of ``req`` (model_id, prompt, temperature, n_samples)."""
    parts = "".join(
        sample_fingerprint(req.model_id, req.prompt, req.temperature, i)
        for i in range(req.n_samples)
    )
    return hashlib.sha256(parts.encode("ascii")).hexdigest()


def fixture_key(prompt: str, ordinal: int) -> str:
    return f"{prompt_hash(prompt)}:{ordinal}"


class MockBackend:
    """Deterministic backend backed by an in-memory fixture table."""

    def __init__(self, fixtures: dict[str, str], model_id: str = "mock"):
        self.fixtures = dict(fixtures)
        self.model_id = model_id

    @classmethod
    def from_file(cls, path: str, model_id: str = "mock") -> "MockBackend":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
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

    A retry waits ``backoff * 2**(attempt-1)`` seconds, or longer when a 429
    or 503 reply carries ``Retry-After`` in integer seconds (capped at
    ``timeout``).
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str = DEFAULT_MODEL_ID,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.model_id = model_id
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._session = session or requests.Session()

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

    def _retry_after(self, resp: requests.Response) -> float:
        """Seconds a 429 or 503 reply asks to wait: integer form only, capped at the timeout."""
        if resp.status_code not in (429, 503):
            return 0.0
        value = resp.headers.get("Retry-After", "").strip()
        if not (value.isascii() and value.isdigit()):
            return 0.0  # absent, or the HTTP-date form, which is not honoured
        return min(float(value), self.timeout)

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
        error: BackendError = BackendError("no request attempted")
        retry_after = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(max(self.backoff * 2 ** (attempt - 1), retry_after))
            retry_after = 0.0
            try:
                resp = self._session.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                error = BackendError(f"request to {self.endpoint} failed: {exc}")
                log.warning("backend request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if resp.status_code == 200:
                return self._parse_choices(resp, n)
            error = BackendError(
                f"backend returned HTTP {resp.status_code}: {resp.text[:200]}",
                status=resp.status_code,
            )
            if resp.status_code < 500 and resp.status_code != 429:
                break  # client errors do not get better on retry
            retry_after = self._retry_after(resp)
            log.warning("backend HTTP %d (attempt %d)", resp.status_code, attempt + 1)
        raise error

    @staticmethod
    def _parse_choices(resp: requests.Response, n: int) -> list[str]:
        try:
            choices = resp.json()["choices"]
            texts = [choice["message"]["content"] or "" for choice in choices]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        if len(texts) < n:
            raise BackendError(f"backend returned {len(texts)} choices, expected {n}")
        return texts[:n]


class GenerationCache:
    """One file per sample fingerprint under a root directory.

    Entry layout: a ``sha256:<hex>`` checksum line, then the completion
    bytes verbatim. Corrupt entries are dropped with a warning and refetched.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def get(self, fingerprint: str) -> Optional[str]:
        try:
            blob = self._path(fingerprint).read_bytes()
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
        return body.decode("utf-8")

    def put(self, fingerprint: str, text: str) -> None:
        body = text.encode("utf-8")
        payload = b"sha256:" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body
        # unique per call: writers of one fingerprint, even nested on one thread, never share it
        tmp = self.root / f"{fingerprint}.tmp.{uuid.uuid4().hex}"
        with open(tmp, "xb") as fh:
            fh.write(payload)
        os.replace(tmp, self._path(fingerprint))

    def _entries(self):
        return [p for p in self.root.iterdir() if p.is_file() and ".tmp." not in p.name]

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

        With a cache, samples are looked up by fingerprint and only the
        missing ordinals reach the backend. Every miss of every request goes
        to the backend in one ``fetch_many`` call, so a backend that overlaps
        its jobs waits once per call. Lookups and stores run on the calling
        thread. When a job fails, the jobs that succeeded are still stored,
        and then the first failure in job order is raised.
        """
        model_id = self.backend.model_id
        texts: list[list[Optional[str]]] = []
        jobs = []
        pending = []  # (texts slot, fingerprints, missing ordinals) for each job
        for prompt, n in requests:
            if self.cache is None:
                fingerprints = None
                slot: list[Optional[str]] = [None] * n
            else:
                fingerprints = [sample_fingerprint(model_id, prompt, temperature, i)
                                for i in range(n)]
                slot = [self.cache.get(fp) for fp in fingerprints]
            texts.append(slot)
            missing = [i for i, t in enumerate(slot) if t is None]
            if missing:
                jobs.append((prompt, temperature, missing))
                pending.append((slot, fingerprints, missing))
        outcomes = self.backend.fetch_many(jobs) if jobs else []
        failure = None
        for (slot, fingerprints, missing), fetched in zip(pending, outcomes):
            if isinstance(fetched, BaseException):
                failure = failure or fetched
            elif len(fetched) != len(missing):
                failure = failure or BackendError(
                    f"backend produced {len(fetched)} samples, expected {len(missing)}"
                )
            else:
                for ordinal, text in zip(missing, fetched):
                    if self.cache is not None:
                        self.cache.put(fingerprints[ordinal], text)
                    slot[ordinal] = text
        if failure is not None:
            raise failure
        return texts

    def sample(self, prompt: str, n: int, temperature: float = DEFAULT_TEMPERATURE) -> list[str]:
        return self.sample_many([(prompt, n)], temperature)[0]
