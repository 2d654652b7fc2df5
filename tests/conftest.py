"""Shared fixtures: small hand-built populations, shipped data, template backend."""

from __future__ import annotations

import json
import selectors
import ssl
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from botforge.content import TemplateBackend, default_pools_path, load_pools
from botforge.cues import default_lexicon_dir, load_lexicons
from botforge.persona import Persona, Population, default_population_path, load_seed_personas


def make_persona(
    pid: str,
    community: str = "alpha",
    *,
    display: str | None = None,
    narratives=("Rollout of the new stage format #StageWatch",),
    stance: str = "neutral",
    posts=(3, 10),
    retweets=(2, 5),
    replies=(1, 5),
    quotes=(0, 2),
    leader: bool = False,
) -> Persona:
    return Persona(
        id=pid,
        display_name=display or pid.replace("_", ""),
        community=community,
        narratives=tuple(narratives),
        stance=stance,
        posts_per_run=posts,
        retweets_per_run=retweets,
        replies_per_run=replies,
        quotes_per_run=quotes,
        is_leader=leader,
    )


@contextmanager
def selector_guard(monkeypatch):
    """Yield a list of every selectors.DefaultSelector made inside the block;
    at its end, close the ones still open and fail naming how many there were.
    monkeypatch puts DefaultSelector back when it is undone.

    An epoll selector left open gives no ResourceWarning when it is collected,
    so the error::ResourceWarning filter cannot see one. socketserver and
    subprocess use PollSelector, so only the package's selectors are counted.
    """
    made, make = [], selectors.DefaultSelector

    def recording():
        made.append(make())
        return made[-1]

    monkeypatch.setattr(selectors, "DefaultSelector", recording)
    yield made
    left_open = [s for s in made if s.get_map() is not None]
    for s in left_open:
        s.close()
    if left_open:
        pytest.fail(f"{len(left_open)} of {len(made)} selectors left open")


@pytest.fixture(autouse=True)
def selectors_made(monkeypatch):
    """Every selector a test makes; the test fails if one is still open at its end."""
    with selector_guard(monkeypatch) as made:
        yield made


@pytest.fixture(scope="session")
def lexicons():
    return load_lexicons(default_lexicon_dir())


@pytest.fixture(scope="session")
def seed_pop():
    return load_seed_personas(default_population_path())


@pytest.fixture(scope="session")
def pools():
    return load_pools(default_pools_path())


@pytest.fixture()
def micro_pop():
    """Two communities, four agents, one leader each."""
    return Population(
        personas=[
            make_persona("a_01", "alpha", leader=True, stance="support"),
            make_persona("a_02", "alpha", stance="oppose"),
            make_persona("b_01", "beta", leader=True,
                         narratives=("Venue logistics for the semifinal #VenueNotes",)),
            make_persona("b_02", "beta",
                         narratives=("Venue logistics for the semifinal #VenueNotes",)),
        ]
    )


@pytest.fixture()
def pair_pop():
    """Minimal two-agent population sharing one community."""
    return Population(
        personas=[
            make_persona("p_01", "gamma", leader=True),
            make_persona("p_02", "gamma"),
        ]
    )


@pytest.fixture()
def backend():
    return TemplateBackend(seed=7)


# A self-signed certificate for 127.0.0.1 (valid until 2126) and its key.
TLS_CERT = Path(__file__).parent / "data" / "tls-cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "tls-key.pem"


class ChatServer:
    """An in-process chat-completion endpoint on 127.0.0.1.

    Each POST is recorded as (path, headers, parsed body) and answered by
    answer(body) -> (status, headers, payload). By default the answers are
    the scripted replies, in order, with the last one repeating; payload is
    JSON-encoded unless it is bytes already. With tls, it serves https://
    with TLS_CERT. A client that has gone (its connection reset or closed
    under a read or write) ends its request quietly; any other error in a
    handler is still printed, with its traceback, to stderr.
    """

    def __init__(self, tls: bool = False):
        self.replies: list[tuple[int, dict, object]] = []
        self.requests: list[tuple[str, dict, dict]] = []
        self.answer = self._scripted
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with server._lock:
                    server.requests.append((self.path, dict(self.headers), body))
                status, headers, payload = server.answer(body)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                if not isinstance(sys.exc_info()[1], ConnectionError):
                    super().handle_error(request, client_address)

        self._httpd = Server(("127.0.0.1", 0), Handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self._httpd.server_port}/v1/chat/completions"

    def _scripted(self, body):
        with self._lock:
            return self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]


def ok_payload(content="generated text"):
    return {"choices": [{"message": {"content": content}}]}


def _serving(server: ChatServer):
    thread = threading.Thread(target=server._httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server._httpd.shutdown()
        server._httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture()
def chat_server():
    yield from _serving(ChatServer())


@pytest.fixture()
def tls_chat_server():
    """A ChatServer on https://, whose certificate only TLS_CERT trusts."""
    yield from _serving(ChatServer(tls=True))
