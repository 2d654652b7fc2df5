"""The llm-http backend's wire format: its requests, its reply parser, and TLS.

http.client, which the backend used before it sent requests itself, is the
reference: the same URL must give the same request bytes, and the same
reply the same (status, Retry-After, body) or an error on both sides.
"""
from __future__ import annotations

import http.client
import io
import json
import re
import socket
import ssl
import threading
from datetime import timezone
from email.utils import format_datetime
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botforge.cli import main
from botforge.content import LlmHttpBackend, _BadReply, _read_reply
from botforge.errors import BackendError, ValidationError
from botforge.persona import default_population_path

from conftest import TLS_CERT, ok_payload

KEY = "k-test"


# --- Replies ----------------------------------------------------------------


class _ReplySocket:
    """A connection whose peer sends data and then closes: recv in pieces of the
    given sizes, in turn (all at once without any), makefile for http.client."""

    def __init__(self, data: bytes, pieces=()):
        self._data = data
        self._pieces = list(pieces) or [len(data) + 1]
        self.sent = b""

    def recv(self, bufsize: int) -> bytes:
        self._pieces.append(self._pieces.pop(0))
        size = min(bufsize, self._pieces[-1])
        data, self._data = self._data[:size], self._data[size:]
        return data

    def makefile(self, mode):
        return io.BytesIO(self._data)

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def setsockopt(self, *args) -> None:
        pass

    def close(self) -> None:
        pass


def _reference_reply(raw: bytes):
    response = http.client.HTTPResponse(_ReplySocket(raw), method="POST")
    try:
        response.begin()
        return response.status, response.getheader("Retry-After"), response.read()
    except http.client.HTTPException:
        return "error"


def _parsed_reply(raw: bytes, pieces=()):
    try:
        return _read_reply(_ReplySocket(raw, pieces).recv)
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
    @given(raw=_replies(), pieces=st.lists(st.integers(1, 64), max_size=4))
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
    monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
    monkeypatch.setattr("botforge.content.HTTP_TIMEOUT_S", 5.0)  # reading to EOF would hang
    params = {"model_name": "m", "temperature": 0.5, "max_tokens": 40}

    def new(url):
        return LlmHttpBackend(url).complete("sys ü", 'user "q"', params)

    def reference(url):
        backend = LlmHttpBackend(url)
        monkeypatch.setattr(backend, "_post", lambda body: _reference_post(url, body, KEY))
        return backend.complete("sys ü", 'user "q"', params)

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
    connected, hostnames = [], []
    ours = _ReplySocket(_reply_bytes())

    def connect(address, timeout):
        connected.append(address)
        return ours

    def wrap(context, sock, server_hostname):
        hostnames.append(server_hostname)
        return sock

    monkeypatch.setattr("botforge.content.socket.create_connection", connect)
    monkeypatch.setattr(ssl.SSLContext, "wrap_socket", wrap)
    assert LlmHttpBackend(url).complete("s", "u", {}) == "hello"
    reference = _ReplySocket(_reply_bytes())
    _reference_post(url, ours.sent.partition(b"\r\n\r\n")[2], KEY, sock=reference)
    assert ours.sent == reference.sent
    u = urlsplit(url)
    assert connected == [(u.hostname, u.port or (443 if u.scheme == "https" else 80))]
    assert hostnames == ([u.hostname] if u.scheme == "https" else [])


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
    monkeypatch.setattr("botforge.content.time.sleep", pytest.fail)  # no request, no backoff
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
        monkeypatch.setenv("BOTFORGE_API_KEY", KEY)
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        monkeypatch.setattr("botforge.content.time.sleep", lambda s: None)
        tls_chat_server.replies.append((200, {}, ok_payload()))
        backend = LlmHttpBackend(tls_chat_server.url, max_retries=1)
        with pytest.raises(BackendError, match="2 attempts.*certificate verify failed"):
            backend.complete("s", "u", {})
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
