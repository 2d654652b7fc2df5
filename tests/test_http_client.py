"""The llm-http backend's wire format, its reply parser, TLS, its address lookups, the
one-thread loop, and the module boundary of botforge.llm_http.

http.client, which the backend used before it sent requests itself, is the
reference: the same URL must give the same request bytes, and the same
reply the same (status, Retry-After, body) or an error on both sides. The
last tests drive llm-http simulations, whose requests one thread serves
through a selector, against servers that answer slowly or not at all.
"""
from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import re
import selectors
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
from datetime import timezone
from email.utils import format_datetime
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botforge import content, llm_http
from botforge.cli import main
from botforge.content import (POOL_SAMPLE_CAP, RETRY_SUFFIX, GenerationTask, TemplateBackend,
                              build_system_prompt, generate_post)
from botforge.errors import BackendError, ValidationError
from botforge.llm_http import LlmHttpBackend, _BadReply, _read_reply
from botforge.persona import Population, default_population_path
from botforge.simcore import SimulationAborted, config_from_dict, run_simulation, simulate_to_dir

from conftest import TLS_CERT, ChatServer, _serving, ok_payload, selector_guard

KEY = "k-test"


# --- Replies ----------------------------------------------------------------


class _ReplySocket:
    """A connection whose peer sends data and then closes: recv in pieces of the
    given sizes, in turn (all at once without any), where a size of 0 is a
    recv that would block; makefile for http.client. It records what is sent
    and the address it is connected to."""

    def __init__(self, data: bytes, pieces=()):
        self._data = data
        self._pieces = list(pieces) or [len(data) + 1]
        self.sent = b""
        self.connected = []

    def recv(self, bufsize: int) -> bytes:
        self._pieces.append(self._pieces.pop(0))
        if not self._pieces[-1]:
            raise BlockingIOError
        size = min(bufsize, self._pieces[-1])
        data, self._data = self._data[:size], self._data[size:]
        return data

    def makefile(self, mode):
        return io.BytesIO(self._data)

    def send(self, data: bytes) -> int:
        self.sent += data
        return len(data)

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def connect_ex(self, address) -> int:
        self.connected.append(address)
        return 0

    def do_handshake(self) -> None:
        pass

    def setblocking(self, flag) -> None:
        pass

    def setsockopt(self, *args) -> None:
        pass

    def close(self) -> None:
        pass


def _without_waiting(exchange):
    """The value of a generator of waits (see LlmHttpBackend._exchange), each wait
    ended at once: for a socket that is ready again by the time it is asked."""
    try:
        while True:
            sock, event, seconds = next(exchange)
            assert event == selectors.EVENT_READ and seconds > 0
    except StopIteration as done:
        return done.value


def _reference_reply(raw: bytes):
    response = http.client.HTTPResponse(_ReplySocket(raw), method="POST")
    try:
        response.begin()
        return response.status, response.getheader("Retry-After"), response.read()
    except http.client.HTTPException:
        return "error"


def _parsed_reply(raw: bytes, pieces=()):
    try:
        return _without_waiting(_read_reply(_ReplySocket(raw, pieces)))
    except _BadReply:
        return "error"


_PRINTABLE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=24)
_HTTP_DATES = st.datetimes(timezones=st.just(timezone.utc)).map(
    lambda when: format_datetime(when, usegmt=True))
_RETRY_AFTER = st.tuples(st.sampled_from(["", " ", "\t"]),
                         st.one_of(st.integers(0, 10**6).map(str), _HTTP_DATES, _PRINTABLE),
                         st.sampled_from(["", " "])).map("".join)
_BAD_STATUS_LINES = (
    "", "\r\n", "HTTP/1.1\r\n", "HTTX/1.1 200 OK\r\n", "HTTP/1.1 2x0 OK\r\n", "HTTP/1.1 99 Low\r\n",
    "HTTP/1.1 1000 High\r\n", "ICY 200 OK\r\n", "HTTP/2 200\r\n", "HTTP/0.91 200\r\n",
    "HTTP/1.1 200 " + "x" * 70_000,
)


def _name(draw, name: str) -> str:
    return draw(st.sampled_from([name, name.lower(), name.upper()]))


@st.composite
def _chunked(draw, body: bytes) -> bytes:
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
    pieces = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
    out = b""
    for piece in pieces:
        size = draw(st.sampled_from(["%x", "%X"])) % len(piece)
        out += size.encode() + draw(st.sampled_from([b"", b";ext=1"])) + b"\r\n" + piece + b"\r\n"
    return out + b"0\r\n" + draw(st.sampled_from([b"", b"Trailer-Field: x\r\n"])) + b"\r\n"


@st.composite
def _replies(draw) -> bytes:
    """Raw replies: 100 Continue preambles, a status line (sometimes a bad one),
    Retry-After in both forms, Content-Length, chunked or close-delimited bodies,
    header blocks around the 100-line limit, lines around the 64 KiB limit,
    CRLF or bare LF line ends, and any of it cut short."""
    preambles = draw(st.integers(0, 2))
    raw = b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" * preambles
    status = draw(st.sampled_from([200, 201, 204, 304, 400, 404, 408, 429, 500, 503, 599, 999]))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    status_line = draw(st.one_of(
        st.sampled_from([f"HTTP/1.1 {status} Reason{eol}", f"HTTP/1.0 {status} Reason{eol}",
                         f"HTTP/0.9 {status}{eol}", f"HTTP/1.1 {status}{eol}"]),
        st.sampled_from(_BAD_STATUS_LINES)))
    headers = [f"{_name(draw, 'Retry-After')}: {value}"
               for value in draw(st.lists(_RETRY_AFTER, max_size=2))]
    body = draw(st.binary(max_size=200))
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    if framing == "chunked" and status in (204, 304):
        framing = "length"  # no body whatever the headers say; see test_no_body_statuses
    wire_body = body
    if framing == "length":
        headers.append(f"{_name(draw, 'Content-Length')}: {len(body)}")
    elif framing == "chunked":
        headers.append(f"{_name(draw, 'Transfer-Encoding')}: chunked")
        wire_body = draw(_chunked(body))
    headers += [f"X-Pad-{i}: {i}" for i in range(draw(st.sampled_from([0, 1, 97, 98, 99])))]
    long_value = draw(st.sampled_from([0, 65_525, 65_526, 65_527]))  # 8 + n + 2 bytes a line
    if long_value:
        headers.append("X-Long: " + "y" * long_value)
    headers = draw(st.permutations(headers))
    raw += (status_line + "".join(h + eol for h in headers) + eol).encode("latin-1")
    raw += wire_body
    if draw(st.booleans()):
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


class TestReplyParser:
    """_read_reply against http.client.HTTPResponse over the same bytes."""

    @settings(max_examples=400, deadline=None)
    @given(raw=_replies(),
           pieces=st.lists(st.integers(0, 64), max_size=4).filter(lambda p: not p or any(p)))
    def test_equals_http_client(self, raw, pieces):
        assert _parsed_reply(raw, pieces) == _reference_reply(raw)

    @pytest.mark.parametrize("status", [102, 103])
    def test_every_interim_reply_is_skipped(self, status):
        # http.client skips only 100 Continue; RFC 9110 section 15.2 lets a
        # client ignore every interim reply it did not ask for.
        raw = (b"HTTP/1.1 %d Interim\r\nLink: </a>\r\n\r\n"
               b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" % status)
        assert _parsed_reply(raw) == (200, None, b"ok")

    @pytest.mark.parametrize("status", [204, 304])
    def test_no_body_statuses(self, status):
        # RFC 9112 section 6.3: no body, even with Transfer-Encoding (where
        # http.client would wait for chunks on a connection left open).
        raw = b"HTTP/1.1 %d Nothing\r\nTransfer-Encoding: chunked\r\n\r\n" % status
        assert _parsed_reply(raw) == (status, None, b"")

    def test_body_ends_at_content_length(self):
        # A server that keeps the connection open: nothing after the body is read.
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n"
        assert _parsed_reply(raw) == (200, None, b"ok")


# --- Requests ---------------------------------------------------------------


def _reference_post(url: str, body: bytes, key: str, sock=None):
    """The http.client exchange the backend made before it sent requests itself."""
    u = urlsplit(url)
    connection_class = (http.client.HTTPSConnection if u.scheme == "https"
                        else http.client.HTTPConnection)
    conn = connection_class(u.hostname, u.port or (443 if u.scheme == "https" else 80),
                            timeout=30)
    conn.sock = sock  # a given socket is used as it is: no connect, no TLS
    try:
        conn.request("POST", (u.path or "/") + (f"?{u.query}" if u.query else ""), body=body,
                     headers={"Authorization": f"Bearer {key}",
                              "Content-Type": "application/json", "Connection": "close"})
        response = conn.getresponse()
        return response.status, response.getheader("Retry-After"), response.read()
    finally:
        conn.close()


def _reply_bytes() -> bytes:
    payload = json.dumps(ok_payload("hello")).encode()
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload)


def _capture_requests(*senders) -> list[bytes]:
    """The bytes of the request each send(url) makes, in turn, to one raw socket
    server on 127.0.0.1.

    The server answers each with a Content-Length body and then waits for the
    client to close the connection, as the benchmark's stub does.
    """
    seen = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(10)
        url = f"http://127.0.0.1:{server.getsockname()[1]}/v1/chat?x=1"

        def serve():
            conn, _ = server.accept()
            with conn:
                conn.settimeout(10)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                length = int(re.search(rb"(?im)^content-length: *(\d+)", data)[1])
                while len(data) - data.index(b"\r\n\r\n") - 4 < length:
                    data += conn.recv(65536)
                conn.sendall(_reply_bytes())
                if conn.recv(1) == b"":  # the client closed the connection
                    seen.append(data)

        for send in senders:
            thread = threading.Thread(target=serve)
            thread.start()
            try:
                assert send(url) == "hello"
            finally:
                thread.join(timeout=20)
            assert not thread.is_alive()
    assert len(seen) == len(senders)
    return seen


def test_request_bytes_equal_http_client(monkeypatch):
    """http.client, sending the body the backend sent, sends the same bytes."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setattr("botforge.llm_http.HTTP_TIMEOUT_S", 5.0)  # reading to EOF would hang
    params = {"model_name": "m", "temperature": 0.5, "max_tokens": 40}

    def new(url):
        return LlmHttpBackend(url).complete("sys ü", 'user "q"', params)

    body = _capture_requests(new)[0].partition(b"\r\n\r\n")[2]

    def reference(url):
        payload = _reference_post(url, body, KEY)[2]
        return json.loads(payload)["choices"][0]["message"]["content"]

    sent, expected = _capture_requests(new, reference)
    assert sent == expected
    head, _, body = sent.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0] == b"POST /v1/chat?x=1 HTTP/1.1"
    assert b"Connection: close" in head.split(b"\r\n")
    assert json.loads(body)["messages"][0] == {"role": "system", "content": "sys ü"}


@pytest.mark.parametrize("url", [
    "http://api.example/v1/chat",
    "http://api.example:80/v1",
    "http://api.example:8080/v1?q=a%20b",
    "https://api.example/v1",
    "https://api.example:443/v1",
    "https://api.example:80/v1",
    "HTTP://API.Example:8443",
    "http://[::1]:8080/v1",
    "http://[fe80::1%25eth0]/v1",
    "http://bücher.example/v1",
])
def test_host_header_equals_http_client(monkeypatch, url):
    """Host carries the port only when it is not the scheme's default, and IPv6 in brackets."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    resolved, hostnames = [], []
    ours = _ReplySocket(_reply_bytes())

    def getaddrinfo(host, port, family, kind):  # no name is looked up
        resolved.append((host, port))
        return [(socket.AF_INET, kind, 6, "", ("192.0.2.1", port))]

    def wrap(context, sock, server_hostname, do_handshake_on_connect):
        hostnames.append(server_hostname)
        return sock

    def new_socket(family, kind, proto, fileno=None):  # socketpair's, for a name's lookup, are real
        return ours if fileno is None else real_socket(family, kind, proto, fileno)

    real_socket = socket.socket
    monkeypatch.setattr("botforge.llm_http.socket.getaddrinfo", getaddrinfo)
    monkeypatch.setattr("botforge.llm_http.socket.socket", new_socket)
    monkeypatch.setattr(ssl.SSLContext, "wrap_socket", wrap)
    assert LlmHttpBackend(url).complete("s", "u", {}) == "hello"
    reference = _ReplySocket(_reply_bytes())
    _reference_post(url, ours.sent.partition(b"\r\n\r\n")[2], KEY, sock=reference)
    assert ours.sent == reference.sent
    u = urlsplit(url)
    port = u.port or (443 if u.scheme == "https" else 80)
    assert resolved == [(u.hostname, port)]
    assert ours.connected == [("192.0.2.1", port)]
    assert hostnames == ([u.hostname] if u.scheme == "https" else [])


def test_next_address_after_a_refused_one(monkeypatch, chat_server):
    """As socket.create_connection does, a host's address that refuses gives way to its next."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    with socket.create_server(("127.0.0.1", 0)) as sock:
        refused = sock.getsockname()  # closed again before the backend connects
    served = ("127.0.0.1", urlsplit(chat_server.url).port)
    monkeypatch.setattr("botforge.llm_http.socket.getaddrinfo", lambda host, port, family, kind: [
        (socket.AF_INET, kind, 6, "", refused), (socket.AF_INET, kind, 6, "", served)])
    chat_server.replies.append((200, {}, ok_payload("from the second address")))
    assert LlmHttpBackend(chat_server.url).complete("s", "u", {}) == "from the second address"


def _counted_lookups(monkeypatch, addresses) -> list[str]:
    """The hosts looked up, in turn; the n-th lookup gives the socket address
    addresses(n, port) on 127.0.0.1."""
    lookups = []

    def getaddrinfo(host, port, family, kind):
        lookups.append(host)
        return [(socket.AF_INET, kind, 6, "", addresses(len(lookups), port))]

    monkeypatch.setattr("botforge.llm_http.socket.getaddrinfo", getaddrinfo)
    return lookups


def test_repeated_calls_look_up_once(monkeypatch, chat_server):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    lookups = _counted_lookups(monkeypatch, lambda n, port: ("127.0.0.1", port))
    chat_server.replies.append((200, {}, ok_payload()))
    backend = LlmHttpBackend(chat_server.url.replace("127.0.0.1", "chat.botforge.test"))
    for _ in range(5):
        assert backend.complete("s", "u", {}) == "generated text"
    assert lookups == ["chat.botforge.test"]
    assert len(chat_server.requests) == 5


@pytest.mark.parametrize("server", ["chat_server", "tls_chat_server"])
def test_refused_connection_is_looked_up_again(monkeypatch, request, server):
    """A transport error drops the kept addresses: the retry looks the host up again and
    connects where the new lookup says, and later calls keep that. For http://, whose
    request goes out while the connection to its one address is still being made, and
    for https://, whose connection is awaited."""
    server = request.getfixturevalue(server)
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    monkeypatch.setattr("botforge.llm_http.time.sleep", lambda s: None)
    with socket.create_server(("127.0.0.1", 0)) as sock:
        refused = sock.getsockname()  # closed again before the backend connects
    lookups = _counted_lookups(monkeypatch, lambda n, port: refused if n == 1 else
                               ("127.0.0.1", port))
    server.replies.append((200, {}, ok_payload("after a new lookup")))
    backend = LlmHttpBackend(server.url, max_retries=1)
    for _ in range(3):
        assert backend.complete("s", "u", {}) == "after a new lookup"
    assert lookups == ["127.0.0.1", "127.0.0.1"]
    assert len(server.requests) == 3


# --- Refusals at construction -------------------------------------------------


@pytest.mark.parametrize("key", ["k\nx", "k\r", "k\x00", "k\x7f", "kä"])
def test_key_with_control_or_non_ascii_character_refused(key):
    with pytest.raises(BackendError, match="control or non-ASCII"):
        LlmHttpBackend("http://127.0.0.1:9/v1", api_key=key)


@pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1 chat", "http://127.0.0.1:9/v1?q=a b",
                                 "http://127.0.0.1:9/v1\x00", "http://127.0.0.1:9/vä",
                                 "http://a..b/v1"])
def test_unsendable_url_refused(monkeypatch, url):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    with pytest.raises(ValidationError, match="cannot be sent"):
        LlmHttpBackend(url)


def _simulate_args(out):
    return ["simulate", "--backend", "llm-http", "--runs", "1", "--seed", "1",
            "--population", str(default_population_path()), "--out-dir", str(out)]


def test_cli_refuses_bad_key_before_writing(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("BOTFORGE_API_KEY", "k\nx")
    out = tmp_path / "out"
    assert main(_simulate_args(out) + ["--base-url", "http://127.0.0.1:9/v1"]) == 3
    assert "control or non-ASCII" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_url_with_space_before_writing(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setattr("botforge.llm_http.time.sleep", pytest.fail)  # no request, no backoff
    out = tmp_path / "out"
    assert main(_simulate_args(out) + ["--base-url", "http://127.0.0.1:9/v1 chat"]) == 1
    assert "cannot be sent" in capsys.readouterr().err
    assert not out.exists()


# --- TLS ------------------------------------------------------------------------


class TestHttps:
    def test_trusted_certificate(self, monkeypatch, tls_chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        tls_chat_server.replies.append((200, {}, ok_payload("over tls")))
        backend = LlmHttpBackend(tls_chat_server.url)
        assert backend.complete("s", "u", {}) == "over tls"
        assert tls_chat_server.requests[0][1]["Authorization"] == f"Bearer {KEY}"

    def test_untrusted_certificate(self, monkeypatch, tls_chat_server):
        """A certificate that fails verification fails the call at once: no retry can change it."""
        monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        monkeypatch.setattr("botforge.llm_http.time.sleep", pytest.fail)  # no backoff
        handshakes = []
        wrap_socket = ssl.SSLContext.wrap_socket

        def recording(context, *args, **kwargs):
            if not kwargs.get("server_side"):  # the server wraps each connection it accepts
                handshakes.append(context)
            return wrap_socket(context, *args, **kwargs)

        monkeypatch.setattr(ssl.SSLContext, "wrap_socket", recording)
        tls_chat_server.replies.append((200, {}, ok_payload()))
        backend = LlmHttpBackend(tls_chat_server.url, max_retries=3)
        with pytest.raises(BackendError, match="not retried.*certificate verify failed"):
            backend.complete("s", "u", {})
        assert len(handshakes) == 1
        assert tls_chat_server.requests == []

    def test_calls_share_one_context(self, monkeypatch, tls_chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        tls_chat_server.replies.append((200, {}, ok_payload()))
        contexts = []  # kept alive, so no two contexts share an id
        wrap_socket = ssl.SSLContext.wrap_socket

        def recording(context, *args, **kwargs):
            if not kwargs.get("server_side"):  # the server wraps each connection it accepts
                contexts.append(context)
            return wrap_socket(context, *args, **kwargs)

        monkeypatch.setattr(ssl.SSLContext, "wrap_socket", recording)
        backend = LlmHttpBackend(tls_chat_server.url)
        for _ in range(5):
            assert backend.complete("s", "u", {}) == "generated text"
        assert len(contexts) == 5
        assert len({id(context) for context in contexts}) == 1


# --- The simulation's request loop ---------------------------------------------

SEED = 20250801


@pytest.fixture(scope="module")
def few_pop(seed_pop):
    """Every twelfth shipped persona: a run of about a hundred and fifty requests."""
    return Population(personas=list(seed_pop.personas[::12]))


def _llm_config(out_dir, base_url, **extra):
    return config_from_dict({"seed": SEED, "runs": 1, "backend": "llm-http", "base_url": base_url,
                             "out_dir": str(out_dir), **extra})


def _template_answer(body):
    system_text, user_text = (m["content"] for m in body["messages"])
    return 200, {}, ok_payload(TemplateBackend(SEED).complete(system_text, user_text, {}))


def _same_corpus(out, few_pop, pools, tmp_path) -> bool:
    reference = tmp_path / "template"
    simulate_to_dir(config_from_dict({"seed": SEED, "runs": 1, "out_dir": str(reference)}),
                    pop=few_pop, pools=pools)
    return all((out / name).read_bytes() == (reference / name).read_bytes()
               for name in ("tweets.jsonl", "graph.csv"))


def test_one_thread_drives_every_request(monkeypatch, chat_server, few_pop, pools, tmp_path):
    """At 4 in flight the server holds more than 1 and at most 4 requests at once, and the
    client starts no thread pool to send them."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    lock = threading.Lock()
    held, peak, executor_threads = 0, 0, set()

    def answer(body):
        nonlocal held, peak
        with lock:
            held += 1
            peak = max(peak, held)
            executor_threads.update(t.name for t in threading.enumerate()
                              if t.name.startswith("ThreadPoolExecutor"))
        time.sleep(0.002)
        with lock:
            held -= 1
        return _template_answer(body)

    chat_server.answer = answer
    out = tmp_path / "http"
    simulate_to_dir(_llm_config(out, chat_server.url, max_in_flight=4), pop=few_pop, pools=pools)
    assert executor_threads == set()
    assert 1 < peak <= 4
    assert _same_corpus(out, few_pop, pools, tmp_path)


def test_stalled_request_does_not_hold_the_others(monkeypatch, chat_server, few_pop, pools,
                                                  tmp_path):
    """The first request to arrive is answered only after 20 others have been."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    lock = threading.Lock()
    others = threading.Event()
    answered, stalled = [], []

    def answer(body):
        with lock:
            stall = not stalled and not answered
            if stall:
                stalled.append(None)
        if stall:
            stalled[0] = others.wait(10)
        else:
            with lock:
                answered.append(None)
                if len(answered) == 20:
                    others.set()
        return _template_answer(body)

    chat_server.answer = answer
    out = tmp_path / "http"
    simulate_to_dir(_llm_config(out, chat_server.url, max_in_flight=4), pop=few_pop, pools=pools)
    assert stalled == [True]
    assert _same_corpus(out, few_pop, pools, tmp_path)


def test_slow_lookup_does_not_hold_open_requests(monkeypatch, chat_server, few_pop, pools,
                                                tmp_path):
    """A host name is looked up off the loop's thread: while the first lookup is still
    running, 20 other requests are answered, on the addresses another lookup gave."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    lock = threading.Lock()
    others = threading.Event()
    answered, stalled = [], []

    def getaddrinfo(host, port, family, kind):
        assert host == "chat.botforge.test"
        with lock:
            stall = not stalled
            stalled.append(None)
        if stall:
            stalled[0] = others.wait(10)
        return [(socket.AF_INET, kind, 6, "", ("127.0.0.1", port))]

    def answer(body):
        with lock:
            answered.append(None)
            if len(answered) == 20:
                others.set()
        return _template_answer(body)

    monkeypatch.setattr("botforge.llm_http.socket.getaddrinfo", getaddrinfo)
    chat_server.answer = answer
    out = tmp_path / "http"
    url = chat_server.url.replace("127.0.0.1", "chat.botforge.test")
    simulate_to_dir(_llm_config(out, url, max_in_flight=4), pop=few_pop, pools=pools)
    assert stalled[0] is True
    assert len(stalled) <= 4  # only the requests opened before a lookup had ended
    assert _same_corpus(out, few_pop, pools, tmp_path)  # every request answered


@pytest.mark.parametrize("host", ["127.0.0.1", "chat.botforge.test"])
def test_one_lookup_for_a_whole_run(monkeypatch, chat_server, few_pop, pools, tmp_path, host):
    """At max_in_flight 1 a simulate looks its host up once, an IP address or a name alike."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    lookups = _counted_lookups(monkeypatch, lambda n, port: ("127.0.0.1", port))
    chat_server.answer = _template_answer
    out = tmp_path / "http"
    url = chat_server.url.replace("127.0.0.1", host)
    simulate_to_dir(_llm_config(out, url, max_in_flight=1), pop=few_pop, pools=pools)
    assert lookups == [host]
    assert len(chat_server.requests) > 100
    assert _same_corpus(out, few_pop, pools, tmp_path)


def test_lookup_times_out(monkeypatch):
    """A lookup that outlasts HTTP_TIMEOUT_S fails its attempt as a socket wait does."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setattr("botforge.llm_http.HTTP_TIMEOUT_S", 0.2)
    release = threading.Event()

    def getaddrinfo(host, port, family, kind):
        release.wait(10)
        raise socket.gaierror(socket.EAI_NONAME, "not looked up")

    monkeypatch.setattr("botforge.llm_http.socket.getaddrinfo", getaddrinfo)
    backend = LlmHttpBackend("http://chat.botforge.test/v1", max_retries=1, backoff_s=0.0)
    started = time.monotonic()
    try:
        with pytest.raises(BackendError, match=r"after 2 attempts \(transport error: timed out\)"):
            backend.complete("s", "u", {})
        assert time.monotonic() - started < 5
    finally:
        release.set()
        for thread in threading.enumerate():
            if thread.name == "botforge-getaddrinfo":
                thread.join(timeout=10)


class _SilentServer:
    """Accepts connections on 127.0.0.1, and reads and answers nothing.

    After 10 s it shuts its connections down, so a client that never times
    out fails instead of hanging.
    """

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.02)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}/v1"
        self.accepted = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve)
        self._give_up = time.monotonic() + 10

    def _serve(self):
        while not self._done.is_set():
            try:
                self.accepted.append(self._sock.accept()[0])
            except TimeoutError:
                pass
            if time.monotonic() > self._give_up:
                for conn in self.accepted:
                    with contextlib.suppress(OSError):
                        conn.shutdown(socket.SHUT_RDWR)

    def __enter__(self):
        self._thread.start()
        return self

    def closed_by_client(self) -> int:
        """How many accepted connections the client has closed, after a moment
        for the server to accept the last ones: each reads to its end."""
        time.sleep(0.1)
        for conn in self.accepted:
            conn.settimeout(2)
            while conn.recv(65536):  # TimeoutError if the client keeps it open
                pass
        return len(self.accepted)

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join(timeout=10)
        for conn in self.accepted:
            conn.close()
        self._sock.close()


def test_unanswered_request_times_out(monkeypatch):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setattr("botforge.llm_http.HTTP_TIMEOUT_S", 0.2)
    with _SilentServer() as server:
        backend = LlmHttpBackend(server.url, max_retries=2, backoff_s=0.0)
        with pytest.raises(BackendError, match=r"after 3 attempts \(transport error: timed out\)"):
            backend.complete("s", "u", {})
        deadline = time.monotonic() + 5
        while len(server.accepted) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server.accepted) == 3


def test_unanswered_requests_abort_the_run(monkeypatch, few_pop, pools, tmp_path):
    """The loop's waits time out as complete's do, the run aborts with that error, and
    the requests still open then are closed."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setattr("botforge.llm_http.HTTP_TIMEOUT_S", 0.2)
    with _SilentServer() as server:
        cfg = _llm_config(tmp_path / "out", server.url, max_in_flight=4, max_retries=1,
                          backoff_s=0.0)
        started = time.monotonic()
        with pytest.raises(SimulationAborted, match=r"after 2 attempts \(transport error: timed "
                                                    r"out\)") as exc:
            simulate_to_dir(cfg, pop=few_pop, pools=pools)
        assert time.monotonic() - started < 5
        assert server.closed_by_client() >= 2
    assert exc.value.result.status == "aborted"
    assert len(exc.value.result.tweets) == 0


# --- Waits beyond MAX_RETRY_AFTER_S ----------------------------------------------

_HUGE_RETRY_AFTER = ["3000000", "Fri, 31 Dec 9999 23:59:59 GMT"]


@pytest.mark.parametrize("retry_after", _HUGE_RETRY_AFTER)
def test_huge_retry_after_aborts_the_run(monkeypatch, chat_server, few_pop, pools, tmp_path,
                                         retry_after):
    """A wait longer than the selector or time.sleep can take is not made: the request
    fails at once, with no retry, and the run aborts with its directory written."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    chat_server.replies.append((503, {"Retry-After": retry_after}, {}))
    out = tmp_path / "out"
    with pytest.raises(SimulationAborted, match=re.escape(f"retry after {retry_after!r}")):
        simulate_to_dir(_llm_config(out, chat_server.url, max_in_flight=1), pop=few_pop,
                        pools=pools)
    assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"
    assert len(chat_server.requests) == 1


def test_long_backoff_aborts_the_run(monkeypatch, chat_server, few_pop, pools, tmp_path):
    """A backoff wait over the ceiling is not made either, nor handed to the selector."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    chat_server.replies.append((503, {}, {}))
    out = tmp_path / "out"
    with pytest.raises(SimulationAborted, match=r"backoff of 3e\+06 s before attempt 2 is over "
                                                r"3600 s: not retried \(HTTP 503\)"):
        simulate_to_dir(_llm_config(out, chat_server.url, max_in_flight=1, backoff_s=3e6),
                        pop=few_pop, pools=pools)
    assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"
    assert len(chat_server.requests) == 1


def test_backoff_doubles_up_to_the_ceiling(monkeypatch, chat_server):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    sleeps = []
    monkeypatch.setattr("botforge.llm_http.time.sleep", sleeps.append)
    chat_server.replies.append((503, {}, {}))
    backend = LlmHttpBackend(chat_server.url, max_retries=30, backoff_s=0.001)
    with pytest.raises(BackendError, match=r"backoff of 4194\.3\d* s before attempt 24"):
        backend.complete("s", "u", {})
    assert sleeps == [0.001 * 2 ** k for k in range(22)]  # the last one, 2097 s, is made
    assert len(chat_server.requests) == 23


def test_many_retries_without_backoff(monkeypatch):
    """2 ** 2000 is past the float range, and a backoff of 0 s stays 0 s all the same."""
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]  # closed again before the backend connects
    backend = LlmHttpBackend(f"http://127.0.0.1:{port}/v1", max_retries=2000, backoff_s=0.0)
    with pytest.raises(BackendError, match=r"after 2001 attempts \(transport error"):
        backend.complete("s", "u", {})


# --- Blocking waits: wait_out, and generate_post over llm-http ---------------------


def test_wait_out_without_a_wait(monkeypatch):
    sleeps = []
    monkeypatch.setattr("botforge.llm_http.time.sleep", sleeps.append)
    steps_run = []

    def steps():
        steps_run.append(1)
        yield from ()
        return "at once"

    assert llm_http.wait_out(steps()) == "at once"
    assert steps_run == [1] and sleeps == []


def test_wait_out_sleeps_through_a_pause(monkeypatch):
    sleeps = []
    monkeypatch.setattr("botforge.llm_http.time.sleep", sleeps.append)

    def steps():
        assert (yield None, 0, 2.5) is None
        return "after the pause"

    assert llm_http.wait_out(steps()) == "after the pause"
    assert sleeps == [2.5]


def test_wait_out_throws_timeout_into_a_lapsed_socket_wait():
    quiet, peer = socket.socketpair()  # nothing is ever written to peer
    with quiet, peer:
        def steps():
            started = time.monotonic()
            try:
                yield quiet, selectors.EVENT_READ, 0.05
            except TimeoutError as exc:
                return str(exc), time.monotonic() - started
            return "ready", 0.0

        message, waited = llm_http.wait_out(steps())
    assert message == "timed out" and 0.04 <= waited < 5


def test_wait_out_runs_finally_before_raising_an_uncaught_timeout():
    quiet, peer = socket.socketpair()
    finished = []
    with quiet, peer:
        def steps():
            try:
                yield quiet, selectors.EVENT_READ, 0.05
            finally:
                finished.append("finally")

        with pytest.raises(TimeoutError, match="timed out") as raised:
            llm_http.wait_out(steps())
    assert finished == ["finally"]
    assert raised.traceback[-1].name == "steps"  # raised out of the steps, not after them


def test_wait_out_closes_steps_whose_wait_cannot_be_made():
    closed_sock = socket.socket()
    closed_sock.close()
    finished = []

    def steps():
        try:
            yield closed_sock, selectors.EVENT_READ, 1.0
        finally:
            finished.append("finally")

    with pytest.raises(ValueError):  # a closed socket cannot be registered
        llm_http.wait_out(steps())
    assert finished == ["finally"]


def _post_inputs(few_pop, pools):
    """A persona of few_pop, its system prompt and pool slice, and an original and a
    reply task of its."""
    p = few_pop.personas[0]
    sample = {key: items[:POOL_SAMPLE_CAP] for key, items in pools.items()}
    tasks = [GenerationTask(kind="original", tweet_id=1, run_index=0, slot_index=0,
                            narrative=p.narratives[0]),
             GenerationTask(kind="reply", tweet_id=2, run_index=0, slot_index=1,
                            target_tweet_id=1, target_text="Stage notes are up.",
                            target_agent_id="o_01", target_display="OtherAgent")]
    return p, build_system_prompt(p), sample, tasks


def test_generate_post_over_llm_http_equals_template(monkeypatch, chat_server, few_pop, pools):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    chat_server.answer = _template_answer
    p, system_text, sample, tasks = _post_inputs(few_pop, pools)
    backend = LlmHttpBackend(chat_server.url)
    for task in tasks:
        assert (generate_post(p, task, system_text, sample, backend)
                == generate_post(p, task, system_text, sample, TemplateBackend(SEED)))
    assert len(chat_server.requests) == len(tasks)


def test_generate_post_over_llm_http_asks_again_after_an_empty_reply(monkeypatch, chat_server,
                                                                     few_pop, pools):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    chat_server.replies += [(200, {}, ok_payload("  ")), (200, {}, ok_payload("second text"))]
    p, system_text, sample, tasks = _post_inputs(few_pop, pools)
    events = []
    tweet = generate_post(p, tasks[0], system_text, sample, LlmHttpBackend(chat_server.url),
                          on_event=events.append)
    assert tweet.text == "second text"
    asked = [body["messages"][1]["content"] for _, _, body in chat_server.requests]
    assert len(asked) == 2 and asked[1] == asked[0] + RETRY_SUFFIX
    assert events == ["retry: empty backend output"]


def test_generate_post_over_llm_http_retries_a_429(monkeypatch, chat_server, few_pop, pools):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    sleeps = []
    monkeypatch.setattr("botforge.llm_http.time.sleep", sleeps.append)
    chat_server.replies += [(429, {}, {}), (200, {}, ok_payload("after the 429"))]
    p, system_text, sample, tasks = _post_inputs(few_pop, pools)
    backend = LlmHttpBackend(chat_server.url, backoff_s=0.25)
    tweet = generate_post(p, tasks[0], system_text, sample, backend)
    assert tweet.text == "after the 429"
    assert len(chat_server.requests) == 2 and sleeps == [0.25]


def test_template_generate_post_makes_no_selector(selectors_made, few_pop, pools):
    p, system_text, sample, tasks = _post_inputs(few_pop, pools)
    for task in tasks:
        generate_post(p, task, system_text, sample, TemplateBackend(SEED))
    assert selectors_made == []


def test_a_pause_makes_no_selector(monkeypatch, selectors_made):
    monkeypatch.setattr("botforge.llm_http.time.sleep", lambda seconds: None)

    def steps():
        yield None, 0, 0.25
        return "after the pause"

    assert llm_http.wait_out(steps()) == "after the pause"
    assert selectors_made == []


def test_complete_makes_one_selector_and_closes_it(monkeypatch, selectors_made, chat_server):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    chat_server.replies.append((200, {}, ok_payload("one exchange")))
    assert LlmHttpBackend(chat_server.url).complete("s", "u", {}) == "one exchange"
    assert len(selectors_made) == 1
    assert selectors_made[0].get_map() is None  # a closed selector has no map


def test_template_run_makes_no_selector(selectors_made, few_pop, pools):
    result = run_simulation(config_from_dict({"seed": SEED, "runs": 1}), few_pop,
                            TemplateBackend(SEED), pools=pools)
    assert len(result.tweets) > 100 and selectors_made == []


def test_run_whose_waits_are_pauses_makes_one_selector(monkeypatch, selectors_made, few_pop,
                                                      pools):
    template_ask = content.backend_ask(TemplateBackend(SEED), {})

    def pausing_ask(system_text, user_text):
        yield None, 0, 0.0
        return (yield from template_ask(system_text, user_text))

    cfg = config_from_dict({"seed": SEED, "runs": 1})
    plain = run_simulation(cfg, few_pop, TemplateBackend(SEED), pools=pools)
    monkeypatch.setattr("botforge.simcore.backend_ask", lambda backend, params: pausing_ask)
    paused = run_simulation(cfg, few_pop, TemplateBackend(SEED), pools=pools)
    assert paused.tweets == plain.tweets
    assert len(selectors_made) == 1 and selectors_made[0].get_map() is None


def test_llm_http_run_makes_one_selector_a_run_and_closes_it(monkeypatch, selectors_made,
                                                             chat_server, few_pop, pools,
                                                             tmp_path):
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    chat_server.answer = _template_answer
    simulate_to_dir(_llm_config(tmp_path / "http", chat_server.url, runs=2), pop=few_pop,
                    pools=pools)
    assert len(selectors_made) == 2
    assert all(s.get_map() is None for s in selectors_made)


def test_the_selector_guard_fails_on_a_selector_left_open(monkeypatch, selectors_made):
    with pytest.raises(pytest.fail.Exception, match="^1 of 2 selectors left open$"):
        with selector_guard(monkeypatch) as made:
            selectors.DefaultSelector().close()
            kept_open = selectors.DefaultSelector()
    assert made == selectors_made and kept_open.get_map() is None  # closed by the guard


def _cli_simulate(out, base_url, *flags):
    """botforge simulate against base_url, in a process of its own."""
    return subprocess.run(
        [sys.executable, "-m", "botforge.cli", *_simulate_args(out), "--base-url", base_url,
         *flags],
        env=dict(os.environ, BOTFORGE_API_KEY=KEY, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("retry_after", _HUGE_RETRY_AFTER)
def test_cli_huge_retry_after_exits_3(chat_server, tmp_path, retry_after):
    """botforge simulate, in a process of its own, whose stderr is what a user sees."""
    chat_server.replies.append((503, {"Retry-After": retry_after}, {}))
    out = tmp_path / "out"
    done = _cli_simulate(out, chat_server.url)
    assert done.returncode == 3, done.stderr
    assert f"over {llm_http.MAX_RETRY_AFTER_S:g} s" in done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"


def test_cli_long_backoff_exits_3(chat_server, tmp_path):
    chat_server.replies.append((503, {}, {}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backoff_s": 3e6, "max_in_flight": 1}))
    out = tmp_path / "out"
    done = _cli_simulate(out, chat_server.url, "--config", str(config))
    assert done.returncode == 3, done.stderr
    assert f"backoff of 3e+06 s before attempt 2 is over {llm_http.MAX_RETRY_AFTER_S:g} s" \
        in done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"


# --- The test chat server ----------------------------------------------------------


def _raw_post(server, body: bytes, length: int):
    """A POST to server on a socket of its own, its Content-Length given apart from its body."""
    sock = socket.create_connection(("127.0.0.1", urlsplit(server.url).port))
    sock.sendall(b"POST /v1/chat/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                 b"Content-Length: %d\r\n\r\n%s" % (length, body))
    return sock


def test_chat_server_drops_a_client_that_has_gone(capsys):
    """A client that resets its connection mid-request costs the server no traceback.
    Leaving _serving joins the server's handler threads, so all they print is captured."""
    with contextlib.contextmanager(_serving)(ChatServer()) as server:
        with _raw_post(server, b"{", 100) as sock:
            time.sleep(0.05)  # the handler now waits for the rest of the body
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    assert "Traceback" not in capsys.readouterr().err
    assert server.requests == []


def test_chat_server_reports_other_errors(capsys):
    server = ChatServer()
    server.answer = lambda body: 1 / 0
    with contextlib.contextmanager(_serving)(server):
        with _raw_post(server, b"{}", 2) as sock:
            assert sock.recv(1) == b""  # closed with no reply
    err = capsys.readouterr().err
    assert "Traceback" in err and "ZeroDivisionError" in err


# --- Module boundary ---------------------------------------------------------------


def test_client_imports_no_other_layer():
    """botforge.llm_http needs only botforge.errors and the standard library. It is
    imported in a fresh interpreter without the package's __init__, which imports
    every module."""
    code = ("import json, sys, types\n"
            "package = types.ModuleType('botforge')\n"
            f"package.__path__ = [{str(Path(llm_http.__file__).parent)!r}]\n"
            "sys.modules['botforge'] = package\n"
            "import botforge.llm_http\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('botforge', 'numpy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert json.loads(out) == ["botforge", "botforge.errors", "botforge.llm_http"]


def test_content_re_exports_the_client():
    """perfbench/tracing.py wraps LlmHttpBackend's methods through content's name."""
    assert content.LlmHttpBackend is llm_http.LlmHttpBackend
    assert content.DEFAULT_MODEL_NAME is llm_http.DEFAULT_MODEL_NAME
