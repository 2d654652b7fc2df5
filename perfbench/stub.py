"""Local chat-completion stub for the http-stub-169 workload.

It answers OpenAI-style chat-completion POSTs with the template backend's
text for the received prompts, after a fixed injected latency. A first
attempt whose body hash falls in a fixed share is answered 429 or 503
instead; the client's retry carries the same body and is answered. Counts
are kept per request path, so each iteration can use its own path and get
its own failure schedule and counts.

os.cpu_count() threads each accept and serve one connection at a time, so up
to that many requests overlap. The HTTP handling is a minimal keep-alive loop
rather than http.server: no thread is started per connection and the stub's
own CPU time per request stays small next to the client's.
"""
from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time

REASONS = {200: b"OK", 429: b"Too Many Requests", 503: b"Service Unavailable"}


class StubServer:
    def __init__(self, backend, latency_s: float, fail_permille: int):
        self.backend = backend
        self.latency_s = latency_s
        self.fail_permille = fail_permille
        self.requests: dict[str, int] = {}
        self.injected: dict[str, int] = {}
        self._seen: set[tuple[str, bytes]] = set()
        self._lock = threading.Lock()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._threads = [threading.Thread(target=self._serve, daemon=True)
                         for _ in range(os.cpu_count() or 1)]

    @property
    def url(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._sock.shutdown(socket.SHUT_RDWR)  # wakes the threads blocked in accept()
        self._sock.close()
        for thread in self._threads:
            thread.join()

    def _admit(self, path: str, body: bytes) -> int:
        """Count one request and decide its status (200, or an injected 429/503)."""
        digest = hashlib.sha256(body).digest()
        with self._lock:
            self.requests[path] = self.requests.get(path, 0) + 1
            first = (path, digest) not in self._seen
            self._seen.add((path, digest))
            if first and int.from_bytes(digest[:4], "big") % 1000 < self.fail_permille:
                self.injected[path] = self.injected.get(path, 0) + 1
                return 429 if digest[4] % 2 == 0 else 503
        return 200

    def _respond(self, path: str, body: bytes) -> tuple[int, bytes]:
        status = self._admit(path, body)
        time.sleep(self.latency_s)
        if status != 200:
            return status, b'{"error": "injected failure"}'
        messages = json.loads(body)["messages"]
        text = self.backend.complete(messages[0]["content"], messages[1]["content"], {})
        return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8")

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # the listening socket was shut down
                return
            with conn, conn.makefile("rb") as rfile:
                self._handle(conn, rfile)

    def _handle(self, conn: socket.socket, rfile) -> None:
        """Answer the requests of one keep-alive connection until the client closes it."""
        while True:
            request_line = rfile.readline()
            if not request_line.strip():
                return
            path = request_line.split()[1].decode("latin-1")
            length = 0
            for line in iter(rfile.readline, b"\r\n"):
                if not line:
                    return
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            status, payload = self._respond(path, rfile.read(length))
            conn.sendall(
                b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s"
                % (status, REASONS[status], len(payload), payload)
            )
