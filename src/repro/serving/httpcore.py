"""Transport-agnostic HTTP core of the serving front tier.

The asyncio gateway server (:mod:`repro.serving.aiohttpd`) and the shard
router (:mod:`repro.serving.router`) both write HTTP/1.1 to raw sockets
and must answer byte-identically to the in-process gateway on every
status path. Everything that defines those bytes — request dispatch, the
canned connection-shed 429, header derivation, the drain-window backlog
sweep, the request-head parser — lives here, so "parity" is one code path
instead of copies that can drift.

Contents:

* :func:`dispatch` — the gateway call with the pre-dispatch spike hook
  and the answer-on-the-wire exception guard (unexpected errors become a
  500 body, never a dropped connection);
* :func:`retry_after_header` — RFC 9110 integer ``Retry-After`` seconds
  derived from a response body's ``retry_after`` hint;
* :func:`shed_response_bytes` / :func:`shed_response_bytes_for` — the
  canned 429 a server writes raw when a connection is shed at the accept
  gate; one builder, so gateway-server and router shed bytes agree;
* :func:`render_response` — a full HTTP/1.1 response head + payload as
  wire bytes;
* :func:`sweep_backlog` — accept-and-shed every connection sitting in
  the kernel accept queue, closing the drain race where a client that
  connected after the stop-accepting gate would otherwise be reset by
  the listener's close instead of receiving the canned 429;
* :class:`Headers` / :func:`parse_head` — the minimal HTTP/1.1 request
  head parser shared by the asyncio front end and the shard router.
"""

from __future__ import annotations

import math
import socket
from http.client import responses as _REASONS
from typing import Callable

from repro.service.rest import encode_body

__all__ = [
    "MAX_HEAD_BYTES",
    "SERVER_NAME",
    "BadRequest",
    "Headers",
    "canned_response",
    "dispatch",
    "parse_head",
    "reason_phrase",
    "render_response",
    "retry_after_header",
    "shed_response_bytes",
    "shed_response_bytes_for",
    "shed_socket",
    "sweep_backlog",
]

#: ``Server:`` header value on every rendered response.
SERVER_NAME = "repro-serving"

#: Cap on one buffered request head (request line + headers).
MAX_HEAD_BYTES = 65536

#: Pre-dispatch hook: (path, headers) -> None.  May sleep (chaos spikes).
SpikeHook = Callable[[str, object], None]


class Headers:
    """Case-insensitive view of one request's header lines (the subset of
    the ``email.message`` interface the spike hooks and keep-alive logic
    use: ``get``/``__contains__``)."""

    __slots__ = ("_items",)

    def __init__(self, lines: list[str]) -> None:
        items: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if sep:
                items[name.strip().lower()] = value.strip()
        self._items = items

    def get(self, name: str, default=None):
        return self._items.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._items


class BadRequest(Exception):
    """Malformed request head; the connection gets a 400 and closes."""


def parse_head(head: bytes) -> tuple[str, str, Headers]:
    """Split one request head into (method, path, headers)."""
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, path, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise BadRequest("malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")
    return method, path, Headers(lines[1:])


def reason_phrase(status: int) -> str:
    """The HTTP reason phrase for ``status`` (empty when unassigned)."""
    return _REASONS.get(status, "")


def dispatch(gateway, spike, path: str, headers) -> tuple[int, dict]:
    """Run the spike hook then the gateway; never raise.

    The wire must always answer: an unexpected handler exception becomes
    a 500 body rather than an aborted connection. Returns
    ``(status, body)``.
    """
    if spike is not None:
        spike(path, headers)
    try:
        response = gateway.get(path)
        return response.status, response.body
    except Exception as exc:  # noqa: BLE001 — wire must answer
        return 500, {"error": f"internal error: {exc}"}


def retry_after_header(body) -> int | None:
    """The integer ``Retry-After`` seconds for ``body``, or ``None``.

    RFC 9110 requires integer seconds; the hint is rounded up and floored
    at 1 so a sub-second ``retry_after`` still tells clients to back off.
    """
    retry_after = body.get("retry_after") if isinstance(body, dict) else None
    if retry_after is None:
        return None
    return max(1, math.ceil(retry_after))


def render_response(
    status: int,
    payload: bytes,
    *,
    retry_after: int | None = None,
    close: bool = False,
) -> bytes:
    """A complete HTTP/1.1 response (head + payload) as wire bytes.

    Every response the asyncio front end, the router and the canned
    accept-gate shed put on the wire goes through here.
    """
    head = (
        f"HTTP/1.1 {status} {reason_phrase(status)}\r\n"
        f"Server: {SERVER_NAME}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if retry_after is not None:
        head += f"Retry-After: {retry_after}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode("ascii") + b"\r\n" + payload


def canned_response(
    status: int,
    error: str,
    *,
    retry_after: float | None = None,
    close: bool = False,
) -> bytes:
    """A pre-renderable error response for code paths with no gateway.

    The shard router answers its own failure modes — upstream pool
    overflow (429), a shard that cannot be reached (503), a fan-out that
    timed out (504) — without a gateway to dispatch into. The body shape
    matches the gateway's error bodies (an ``error`` string plus an
    optional float ``retry_after`` hint) so clients parse one format.
    """
    body: dict = {"error": error}
    if retry_after is not None:
        body["retry_after"] = float(retry_after)
    return render_response(
        status,
        encode_body(body),
        retry_after=retry_after_header(body),
        close=close,
    )


def shed_response_bytes(gateway) -> bytes:
    """The full canned 429 a gateway server writes for a shed connection."""
    return shed_response_bytes_for(gateway.config.retry_after_seconds)


def shed_response_bytes_for(retry_after_seconds: float) -> bytes:
    """The canned connection-shed 429: same body shape as handler sheds
    (an ``error`` string plus a float ``retry_after`` hint), written with
    ``Connection: close``. Takes the hint directly for a front tier
    without a gateway (the shard router)."""
    retry = float(max(1, math.ceil(retry_after_seconds)))
    body = {
        "error": "server connection limit reached; connection shed",
        "retry_after": retry,
    }
    return render_response(
        429,
        encode_body(body),
        retry_after=retry_after_header(body),
        close=True,
    )


def shed_socket(
    sock: socket.socket, shed_bytes: bytes, *, timeout: float = 1.0
) -> None:
    """Write the canned shed response and close *without a reset*.

    The shed happens before the server reads the request, so the client's
    request bytes usually sit unread in the receive buffer — and closing a
    socket with unread data makes the kernel send RST, which can destroy
    the in-flight 429 before the client reads it. Sequence instead: send
    the response, half-close (FIN tells the client no more is coming),
    then drain the peer's bytes until EOF (bounded by ``timeout``), and
    only then close. Best-effort throughout — a vanished peer is fine.
    """
    try:
        sock.setblocking(True)
        sock.settimeout(timeout)
        sock.sendall(shed_bytes)
        sock.shutdown(socket.SHUT_WR)
        while sock.recv(4096):
            pass
    except OSError:
        pass  # peer already gone or stalled past the linger budget
    finally:
        try:
            sock.close()
        except OSError:
            pass


def sweep_backlog(listener: socket.socket, shed_bytes: bytes) -> int:
    """Accept-and-shed everything queued on ``listener``; return the count.

    Closes the drain race: a client whose TCP handshake completed in the
    kernel backlog after the stop-accepting gate would be reset when the
    listening socket closes. Sweeping immediately before the close hands
    each of those connections the canned 429 + ``Connection: close``
    instead. Best-effort by design — a peer that already vanished is
    skipped, and the sweep stops at the first empty accept.
    """
    shed = 0
    while True:
        try:
            listener.settimeout(0)
            sock, _ = listener.accept()
        except (BlockingIOError, socket.timeout, OSError):
            return shed
        shed_socket(sock, shed_bytes)
        shed += 1
