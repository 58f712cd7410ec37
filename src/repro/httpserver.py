"""The package's one HTTP/1.1 loop (stdlib asyncio, keep-alive).

:class:`HttpServer` owns everything about speaking HTTP that does not
depend on *what* is served — event-loop thread, listening socket,
request parsing, keep-alive, response framing, start/close — and a
subclass supplies only :meth:`HttpServer.route`. The query front end
(:class:`repro.serving.http.ServingServer`) and the single-service
diagnostics endpoint (:class:`repro.telemetry.server.MetricsServer`)
both ride it, so outside bytes reach exactly one parser.

A leaf module: it imports :mod:`repro.metrics.registry` and nothing
from ``repro.service`` / ``repro.serving`` / ``repro.telemetry``.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
import uuid
from typing import Any

from repro.metrics.registry import MetricsRegistry

#: Largest request body the loop will read. The biggest legal body is a
#: ``/batch`` of small JSON query payloads (a few hundred bytes each, a
#: handful of members), so 4 MiB is three orders of magnitude of
#: headroom while still bounding what one connection can make the
#: server buffer. Checked against ``Content-Length`` *before* any read.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest request head — request line and all header lines together,
#: so many small headers are refused like one huge one — the loop will
#: buffer; real heads here are a few hundred bytes.
MAX_HEAD_BYTES = 64 * 1024

_TRACE_ID_OK = re.compile(r"^[0-9a-zA-Z_\-]{1,64}$")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: What :meth:`HttpServer.route` returns:
#: ``(status, payload, content_type, extra_headers)``.
Reply = tuple[int, Any, str, "dict[str, str] | None"]


def json_reply(
    status: int, payload: Any, headers: "dict[str, str] | None" = None
) -> Reply:
    return status, payload, "application/json", headers


def not_found(routes: list[str]) -> Reply:
    """The 404 body every server answers with: the routes it does have."""
    return json_reply(404, {"error": "not found", "routes": routes})


def limit_param(path: str, default: int | None = None) -> int | None:
    """``?limit=N`` of a request path (clamped to >= 1), else ``default``."""
    if "?" not in path:
        return default
    for part in path.split("?", 1)[1].split("&"):
        if part.startswith("limit="):
            try:
                return max(1, int(part[len("limit="):]))
            except ValueError:
                return default
    return default


def _body_length(headers: dict[str, str]) -> "int | Reply":
    """The declared body length, or the 4xx reply that refuses it.

    ``Content-Length`` is outside input: anything but ASCII digits is a
    400, more than :data:`MAX_BODY_BYTES` a 413.
    """
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        error = f"Content-Length must be a non-negative integer, got {raw!r}"
        return json_reply(400, {"error": error})
    if int(raw) > MAX_BODY_BYTES:
        error = f"body of {raw} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        return json_reply(413, {"error": error})
    return int(raw)


class HttpServer:
    """An HTTP/1.1 server on its own event-loop thread.

    ``registry``, when given, receives the request accounting
    (``frontend.requests``, ``frontend.request_seconds``,
    ``frontend.errors`` — 5xx only; a 4xx is the client's fault, not an
    error). ``port=0`` binds an ephemeral port, resolved by
    :attr:`port` once started.
    """

    def __init__(
        self,
        host: str,
        port: int,
        thread_name: str,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._requested = (host, port)
        self._thread_name = thread_name
        self._accounting = registry
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        #: The handler task of every open connection.
        self._clients: set[asyncio.Task] = set()

    async def route(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        peer: str,
    ) -> Reply:
        """Answer one parsed request.

        ``headers`` are lower-cased; ``headers["x-trace-id"]`` is always
        present — the client's when well-formed, else generated — and
        the same id is stamped on the response.
        """
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "HttpServer":
        """Bind and serve on a dedicated event-loop thread (idempotent)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name=self._thread_name, daemon=True
        )
        self._thread.start()
        self._ready.wait(30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"{self._thread_name} failed to start: {self._startup_error}"
            )
        if self._bound is None:
            raise RuntimeError(f"{self._thread_name} did not bind within 30s")
        return self

    def close(self) -> None:
        """Stop accepting and join the loop thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None

    @property
    def host(self) -> str:
        return (self._bound or self._requested)[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        return (self._bound or self._requested)[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()
            self._startup_error = error
            self._ready.set()
        finally:
            loop.close()

    async def _serve(self) -> None:
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, *self._requested, limit=MAX_HEAD_BYTES
        )
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Cancel the handlers of connections still open (idle
            # keep-alive, a body that never came, a request waiting for
            # its answer — whose future is cancelled with it): each
            # closes its connection on the way out, so none is left for
            # loop teardown to destroy.
            for task in self._clients:
                task.cancel()
            await asyncio.gather(*self._clients, return_exceptions=True)

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "unknown"
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.LimitOverrunError:
                    if self._accounting is not None:
                        self._accounting.inc("frontend.requests")
                    error = f"request head exceeds the {MAX_HEAD_BYTES}-byte limit"
                    await self._respond(
                        writer,
                        json_reply(431, {"error": error}),
                        uuid.uuid4().hex[:16],
                        keep_alive=False,
                    )
                    return
                request_line, *header_lines = (
                    head[:-4].decode("latin-1").split("\r\n")
                )
                if not request_line:
                    return
                parts = request_line.split()
                if len(parts) < 2:
                    await self._respond(
                        writer,
                        json_reply(400, {"error": "malformed request line"}),
                        uuid.uuid4().hex[:16],
                        keep_alive=True,
                    )
                    return
                method, path = parts[0].upper(), parts[1]
                headers: dict[str, str] = {}
                for line in header_lines:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                trace_id = headers.get("x-trace-id", "")
                if not _TRACE_ID_OK.match(trace_id):
                    trace_id = headers["x-trace-id"] = uuid.uuid4().hex[:16]
                if self._accounting is not None:
                    self._accounting.inc("frontend.requests")
                # Judged before a byte of body is read; the connection
                # closes afterwards because the unread body makes the
                # rest of the stream unparseable.
                length = _body_length(headers)
                if not isinstance(length, int):
                    await self._respond(
                        writer, length, trace_id, keep_alive=False
                    )
                    return
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                started = time.monotonic()
                reply = await self.route(
                    method, path, headers, body, peer_host
                )
                if self._accounting is not None:
                    self._accounting.observe(
                        "frontend.request_seconds", time.monotonic() - started
                    )
                    if reply[0] >= 500:
                        self._accounting.inc("frontend.errors")
                await self._respond(writer, reply, trace_id, keep_alive)
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            # close() cancelling this handler. It ends here either way;
            # ending *cancelled* makes the streams callback of Python
            # < 3.12 log the CancelledError as an unhandled exception.
            asyncio.CancelledError,
        ):
            return
        finally:
            self._clients.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        reply: Reply,
        trace_id: str,
        keep_alive: bool,
    ) -> None:
        status, payload, content_type, extra_headers = reply
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload, default=str).encode("utf-8")
        # Every response — success, 4xx, 429, 5xx — carries the request's
        # trace id so it correlates with the event log and any sampled
        # trace.
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"X-Trace-Id: {trace_id}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        writer.write((head + "\r\n").encode("latin-1") + body)
        await writer.drain()
