"""The llm-http backend: an HTTP/1.1 client for a chat-completion endpoint.

LlmHttpBackend sends each completion as one POST on a connection of its
own, over a non-blocking socket. Its exchange is a generator of the waits
it makes, so the simulator can serve many requests from one thread through
a selector; wait_out serves one by blocking on its waits.
"""
from __future__ import annotations

import errno
import json
import os
import selectors
import socket
import ssl
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import closing, suppress
from email.utils import parsedate_to_datetime
from functools import partial
from urllib.parse import urlsplit

from .errors import BackendError, ValidationError

API_KEY_ENV = "BOTFORGE_API_KEY"
# Seconds an llm-http request may wait for its socket, in each wait.
HTTP_TIMEOUT_S = 30.0
DEFAULT_MODEL_NAME = "gpt-4.1-mini"

# Statuses worth a retry: timeout, rate limit, and every 5xx.
RETRY_STATUSES = frozenset({408, 429})
# The longest wait a retry is made after, Retry-After or backoff; a request
# that would wait longer ends, as no wait of a run should outlast an hour.
MAX_RETRY_AFTER_S = 3600.0
# Reply limits, http.client's: the bytes of one status, header, chunk-size or
# trailer line with its end, and the lines of one header block with its blank end.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_LINE_ENDS = (b"\r\n", b"\n", b"")  # a blank line, or the end of the stream
# What connect_ex gives for a connection that is still being made.
_CONNECTING = (errno.EINPROGRESS, errno.EWOULDBLOCK)
# Linux takes a send on a socket whose connection is still being made: the
# send blocks until the connection is up, or fails as the connection did.
# Other systems may refuse it (ENOTCONN), so there a connection is awaited.
_SEND_WHILE_CONNECTING = sys.platform.startswith("linux")


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks to wait (delta-seconds or HTTP-date), or
    None; an int of any size for delta-seconds, so that a huge one stays comparable."""
    if value is None:
        return None
    try:
        seconds = int(value)
    except ValueError:
        try:
            seconds = parsedate_to_datetime(value).timestamp() - time.time()
        except (TypeError, ValueError):
            return None
    return max(0.0, seconds)


class _BadReply(Exception):
    """A reply that breaks HTTP/1.1 message syntax; retried like a transport error."""


def _io(sock, call, blocked_on: int):
    """Generator: call() on the non-blocking socket sock, made again after a wait
    each time it would block; returns call's value.

    Each wait is yielded as (sock, event, HTTP_TIMEOUT_S). A TLS socket's error
    names the event it waits for; a plain socket waits for blocked_on.
    """
    while True:
        try:
            return call()
        except ssl.SSLWantReadError:
            event = selectors.EVENT_READ
        except ssl.SSLWantWriteError:
            event = selectors.EVENT_WRITE
        except BlockingIOError:
            event = blocked_on
        yield sock, event, HTTP_TIMEOUT_S


def _on_thread(call, seconds):
    """Generator: call's value (or its exception), call being run on a daemon
    thread of its own, as one wait of up to seconds for a socket pair that
    the thread writes to once call is done."""
    done, wake = socket.socketpair()
    future = Future()

    def run():
        with wake:
            try:
                future.set_result(call())
            except BaseException as exc:  # raised again where the result is read
                future.set_exception(exc)
            with suppress(OSError):  # done is closed if the wait ended first
                wake.send(b"\0")

    with done:
        try:
            threading.Thread(target=run, name="botforge-getaddrinfo", daemon=True).start()
        except BaseException:
            wake.close()
            raise
        yield done, selectors.EVENT_READ, seconds
        return future.result()


def _read_reply(sock):
    """Generator: (status, Retry-After, body) of one HTTP/1.1 reply (RFC 9112),
    read from the non-blocking socket sock, whose recv gives b"" at the end of
    the stream. It yields _io's wait whenever sock has nothing to read yet.

    Interim 1xx replies are skipped. Header lines without a colon, folded
    ones included, are skipped. A 204 or 304 has no body; otherwise
    Transfer-Encoding chunked is decoded, a Content-Length that is an
    integer >= 0 counts the body's bytes, and without either the body runs
    to the end of the stream. Retry-After joins the header's values with
    ", ", as http.client's getheader does. _BadReply for a status line that
    is not HTTP/1.x or HTTP/0.9 with a code in 100..999, a line over
    _MAX_LINE bytes, more than _MAX_HEADERS header lines, or a body cut short.
    Each byte is searched for a line end once, whatever pieces it comes in.
    """
    buf = bytearray()

    def more():
        data = yield from _io(sock, lambda: sock.recv(_MAX_LINE), selectors.EVENT_READ)
        buf.extend(data)
        return bool(data)

    def take(n: int) -> bytes:
        data = bytes(buf[:n])
        del buf[:n]
        return data

    def line(what: str):  # with its end; at the end of the stream, what is left
        searched = 0  # buf[:searched] holds no line end
        while (end := buf.find(b"\n", searched, _MAX_LINE)) < 0:
            if len(buf) > _MAX_LINE:
                raise _BadReply(f"{what} longer than {_MAX_LINE} bytes")
            searched = len(buf)
            if not (yield from more()):
                return take(len(buf))
        return take(end + 1)

    def exactly(n: int):
        while len(buf) < n:
            if not (yield from more()):
                raise _BadReply(f"reply ended {n - len(buf)} bytes short of its body")
        return take(n)

    status = 100
    while status < 200:
        status_line = yield from line("status line")
        parts = status_line.decode("latin-1").split(None, 2)
        try:
            status = int(parts[1]) if parts[0] == "HTTP/0.9" or parts[0][:7] == "HTTP/1." else 0
        except (IndexError, ValueError):
            status = 0
        if not 100 <= status <= 999:
            raise _BadReply(f"bad status line {status_line[:80]!r}")
        fields: dict[bytes, list[bytes]] = {}
        for _ in range(_MAX_HEADERS):
            if (field := (yield from line("header line"))) in _LINE_ENDS:
                break
            name, colon, value = field.partition(b":")
            if colon:
                fields.setdefault(name.lower(), []).append(value.lstrip(b" \t").rstrip(b"\r\n"))
        else:
            raise _BadReply(f"more than {_MAX_HEADERS} header lines")
    retry_after = fields.get(b"retry-after")  # None, or one value or more
    retry_after = retry_after and b", ".join(retry_after).decode("latin-1")
    if status in (204, 304):
        return status, retry_after, b""
    if fields.get(b"transfer-encoding", [b""])[0].lower() == b"chunked":
        chunks = []
        while True:
            size_line = yield from line("chunk size line")
            try:
                size = int(size_line.partition(b";")[0], 16)
            except ValueError:
                size = -1
            if size <= 0:
                break
            chunks.append((yield from exactly(size)))
            yield from exactly(2)  # the line end after the chunk's data
        if size < 0:
            raise _BadReply(f"bad chunk size line {size_line[:80]!r}")
        while (yield from line("trailer line")) not in _LINE_ENDS:
            pass
        return status, retry_after, b"".join(chunks)
    try:
        length = int(fields[b"content-length"][0].decode("latin-1"))
    except (KeyError, ValueError):
        length = -1
    while length < 0 and (yield from more()):  # no length: the body runs to the end of the stream
        pass
    return status, retry_after, (yield from exactly(length if length >= 0 else len(buf)))


def wait_out(steps):
    """The value of steps, a generator of waits as LlmHttpBackend._exchange
    yields them, each wait made on the calling thread: a pause in time.sleep,
    a socket wait in a selector made at the first one, resumed with TimeoutError when
    its seconds pass first. steps and the selector are closed before this returns or raises."""
    selector = None
    with closing(steps):
        error = None
        try:
            while True:
                sock, event, seconds = (steps.send(None) if error is None
                                        else steps.throw(error))
                error = None
                if sock is None:
                    time.sleep(seconds)
                else:
                    selector = selector or selectors.DefaultSelector()
                    selector.register(sock, event)
                    if not selector.select(seconds):
                        error = TimeoutError("timed out")
                    selector.unregister(sock)
        except StopIteration as done:
            return done.value
        finally:
            if selector is not None:
                selector.close()


class LlmHttpBackend:
    """HTTP client for a chat-completion endpoint.

    POSTs {model, temperature, messages} to the configured URL with a bearer
    token from the environment. Transport errors, 408, 429 and 5xx are
    retried up to the configured cap, after the server's Retry-After when it
    sends one and otherwise after exponential backoff; nothing is retried
    beyond the cap, a wait over MAX_RETRY_AFTER_S is not made,
    and a TLS certificate that fails verification is not retried at all.
    Each request opens its own connection and closes it before it ends.
    Proxy environment variables are not read.

    _exchange() is one completion as a generator of the waits it makes, for
    the simulator, which serves many at once from one thread; complete()
    serves one exchange's waits in wait_out. Each socket wait may
    last HTTP_TIMEOUT_S. The host, a name or an IP address alike, is looked
    up on a thread of its own, so that a slow lookup, which may also last
    HTTP_TIMEOUT_S, holds no other request. Its addresses are kept for the
    backend's later requests until an attempt fails with a transport error;
    a request that finds none kept looks the host up itself.
    The request head (the headers http.client sends, with
    Connection: close) and, for https://, the TLS context (HTTPSConnection's
    default one) are built once; a request's bytes go out in one send.
    """

    def __init__(
        self,
        base_url: str,
        *,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_s: float = 0.5,
    ):
        if not base_url:
            raise ValidationError("llm-http backend requires a base_url")
        url = urlsplit(base_url)
        try:
            port = url.port
        except ValueError:  # a port that is not a number in range
            port = 0
        if url.scheme not in ("http", "https") or not url.hostname or port == 0:
            raise ValidationError(f"base_url {base_url!r} must be an http:// or https:// URL")
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        try:
            host = url.hostname.encode("idna")
        except UnicodeError:  # a label that is empty or over 63 characters
            host = b""
        if not (host and target.isascii() and target.isprintable()) or " " in target:
            raise ValidationError(f"base_url {base_url!r} cannot be sent: it needs a valid host "
                                  "and a path and query of printable ASCII with no space")
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendError(
                f"no API key: set the {API_KEY_ENV} environment variable"
            )
        if not (key.isascii() and key.isprintable()):
            raise BackendError(f"the API key (from {API_KEY_ENV}) holds a control or "
                               "non-ASCII character")
        default_port = 443 if url.scheme == "https" else 80
        if b":" in host:  # an IPv6 address: bracketed, without its zone
            host = b"[" + host.partition(b"%")[0] + b"]"
        if port not in (None, default_port):
            host += b":%d" % port
        self._address = (url.hostname, port or default_port)
        self._addresses = None  # the host's addresses, as the last lookup gave them
        self._head = (f"POST {target} HTTP/1.1\r\nHost: ".encode("ascii") + host
                      + b"\r\nAccept-Encoding: identity\r\nContent-Length: ")
        self._tail = (f"\r\nAuthorization: Bearer {key}\r\nContent-Type: application/json"
                      "\r\nConnection: close\r\n\r\n").encode("ascii")
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        if self._tls is not None:
            self._tls.set_alpn_protocols(["http/1.1"])
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)

    def _connect(self):
        """Generator: a non-blocking TCP socket to the first of the host's
        addresses that takes a connection, tried in turn as
        socket.create_connection tries them. Without kept addresses, the
        host is looked up on a thread of its own, in a wait like any other.

        An http:// request goes out on the last address's socket as soon as
        connect_ex returns, where _SEND_WHILE_CONNECTING allows it: that
        connection is made, or fails, under the request's send. Every other
        connection is awaited here; TLS needs one before its handshake.
        """
        eager = self._tls is None and _SEND_WHILE_CONNECTING
        if (addresses := self._addresses) is None:
            lookup = partial(socket.getaddrinfo, *self._address, 0, socket.SOCK_STREAM)
            addresses = yield from _on_thread(lookup, HTTP_TIMEOUT_S)
            self._addresses = addresses
        for n, (family, kind, proto, _, address) in enumerate(addresses, 1):
            sock = socket.socket(family, kind, proto)
            try:
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                code = sock.connect_ex(address)
                if code in _CONNECTING and not (eager and n == len(addresses)):
                    yield sock, selectors.EVENT_WRITE, HTTP_TIMEOUT_S
                    code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if code not in (0, *_CONNECTING):
                    raise OSError(code, os.strerror(code))
                return sock
            except BaseException as exc:  # closed while waiting, say, or no connection
                sock.close()
                if not isinstance(exc, OSError) or n == len(addresses):
                    raise

    def _attempt(self, request: bytes):
        """Generator: request sent on a connection of its own; returns the
        reply's (status, Retry-After, body)."""
        sock = yield from self._connect()
        try:
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0],
                                             do_handshake_on_connect=False)
                yield from _io(sock, sock.do_handshake, selectors.EVENT_WRITE)
            sent = 0
            while sent < len(request):
                sent += yield from _io(sock, lambda: sock.send(request[sent:]),
                                       selectors.EVENT_WRITE)
            return (yield from _read_reply(sock))
        finally:
            sock.close()

    def _exchange(self, system_text: str, user_text: str, params: dict):
        """Generator of one completion, with its retries; returns the text.

        It yields each wait as (sock, event, seconds): sock to become ready
        for the selectors event within seconds, or sock None for a pause of
        seconds before a retry. The caller resumes it with send(None) once
        the socket is ready or the pause is over, and with
        throw(TimeoutError("timed out")) when a socket's seconds pass first.
        Closing it early closes its connection.
        """
        body = {
            "model": params.get("model_name", DEFAULT_MODEL_NAME),
            "temperature": params.get("temperature", 0.0),
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
        }
        if params.get("max_tokens") is not None:
            body["max_tokens"] = params["max_tokens"]
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        request = b"%s%d%s%s" % (self._head, len(data), self._tail, data)

        last_error = "no attempt made"
        retry_after = None
        backoff = self.backoff_s  # doubled after each retry, to inf once past the float range
        for attempt in range(self.max_retries + 1):
            if attempt:
                if (pause := backoff if retry_after is None else retry_after) > MAX_RETRY_AFTER_S:
                    raise BackendError(f"backoff of {pause:g} s before attempt {attempt + 1} is "
                                       f"over {MAX_RETRY_AFTER_S:g} s: not retried ({last_error})")
                yield None, 0, pause
                backoff *= 2
            try:
                status, retry_header, payload = yield from self._attempt(request)
            except ssl.SSLCertVerificationError as exc:  # no retry can change the certificate
                raise BackendError(f"backend TLS certificate rejected, not retried: {exc}") from None
            except (OSError, _BadReply) as exc:
                last_error = f"transport error: {exc}"
                retry_after = None
                self._addresses = None  # the next attempt looks the host up again
                continue
            if status == 200:
                return self._extract(payload)
            if status in RETRY_STATUSES or status >= 500:
                last_error = f"HTTP {status}"
                retry_after = _retry_after_s(retry_header)
                if retry_after is not None and retry_after > MAX_RETRY_AFTER_S:
                    raise BackendError(f"backend asked for a retry after {retry_header!r} (HTTP "
                                       f"{status}), over {MAX_RETRY_AFTER_S:g} s: not retried")
                continue
            raise BackendError(
                f"backend rejected the request: HTTP {status}",
                raw_text=payload.decode("utf-8", "replace"),
            )
        raise BackendError(
            f"backend unreachable after {self.max_retries + 1} attempts ({last_error})"
        )

    def complete(self, system_text: str, user_text: str, params: dict) -> str:
        """_exchange's text, its waits made on the calling thread by wait_out."""
        return wait_out(self._exchange(system_text, user_text, params))

    @staticmethod
    def _extract(payload: bytes) -> str:
        raw_text = payload.decode("utf-8", "replace")
        try:
            doc = json.loads(payload)
        except (ValueError, RecursionError):  # RecursionError: nested too deeply
            raise BackendError("backend response was not JSON", raw_text=raw_text) from None
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendError(
                "backend response missing choices[0].message.content", raw_text=raw_text
            ) from None
        if not isinstance(content, str):
            raise BackendError("backend message content was not text", raw_text=raw_text)
        return content
