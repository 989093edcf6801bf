"""In-process chat-completion stub with a fixed injected latency.

Answers the wire format ``RemoteBackend`` speaks. Every answer is a pure
function of the prompt and the choice ordinal:

* extraction prompts (the CSQE one-shot prompt) get sentences quoted
  verbatim from the numbered documents of the prompt's last query section;
* KEQE prompts get hash-derived passages (:func:`gen.passage`).

It counts requests, repeated requests (retries), the most requests in
flight at once and the HTTP status codes it sent, and keeps every
extraction with its prompt documents so the caller can check verbatimness.
"""

import hashlib
import json
import re
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from csqe.expansion import format_extraction_response

import gen

_QUERY_RE = re.compile(r'Query: "(.*)"\n')
_DOC_RE = re.compile(r"^(\d+)\. (.*)$", re.MULTILINE)
_KEQE_RE = re.compile(r"Question: (.*)\n\nPassage:$", re.DOTALL)


def extraction(query_text: str, docs: list, ordinal: int) -> str:
    """Sample 0 quotes every document that mentions a query word, later samples the first."""
    qwords = set(query_text.lower().split())
    mentioned = [pos for pos, doc in enumerate(docs, start=1)
                 if qwords & set(doc.lower().replace(".", " ").split())]
    chosen = mentioned if ordinal == 0 else mentioned[:1]
    return format_extraction_response(
        query_text, [(pos, gen.key_sentences(docs[pos - 1], query_text)) for pos in chosen]
    )


class StubLlm:
    """Owns the server thread; ``close`` stops it and waits for it to end."""

    def __init__(self, words: list, latency_s: float):
        self.words = words
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.reset()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                stub._handle(self)

            def log_message(self, fmt, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.retries = 0
            self.inflight = 0
            self.inflight_max = 0
            self.statuses = Counter()
            self.extractions = []  # (response, prompt docs)
            self._seen = set()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        raw = handler.rfile.read(int(handler.headers.get("Content-Length", "0")))
        digest = hashlib.sha256(raw).hexdigest()
        with self._lock:
            self.requests += 1
            self.retries += digest in self._seen
            self._seen.add(digest)
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            time.sleep(self.latency_s)
            status, payload, pairs = self._answer(raw)
        finally:
            with self._lock:
                self.inflight -= 1
        body = json.dumps(payload).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
        with self._lock:
            self.statuses[status] += 1
            self.extractions.extend(pairs)

    def _answer(self, raw: bytes):
        try:
            request = json.loads(raw)
            prompt = request["messages"][0]["content"]
            n = int(request.get("n", 1))
        except (ValueError, KeyError, IndexError, TypeError):
            return 400, {"error": "malformed request"}, []
        pairs = []
        if "Retrieved documents:" in prompt:
            section = prompt[prompt.rindex('Query: "'):]
            query = _QUERY_RE.match(section).group(1)
            docs = [text for _, text in _DOC_RE.findall(section)]
            texts = [extraction(query, docs, i) for i in range(n)]
            pairs = [(t, docs) for t in texts]
        else:
            match = _KEQE_RE.search(prompt)
            if not match:
                return 400, {"error": "unrecognized prompt"}, []
            texts = [gen.passage(match.group(1), i, self.words) for i in range(n)]
        choices = [{"index": i, "message": {"role": "assistant", "content": t}}
                   for i, t in enumerate(texts)]
        return 200, {"choices": choices}, pairs
