"""The asyncio HTTP front end of ``repro serve``.

Stdlib only: ``asyncio.start_server`` plus a small hand-rolled
HTTP/1.1 request parser (one request per connection,
``Connection: close``). The event loop owns every piece of mutable
service state — admission counts, the coalescing map, the result
cache, the metrics registry — so none of it needs locks; the only
blocking work (the supervised pool call) runs via
``run_in_executor`` and communicates back through return values.

Request lifecycle for ``POST /v1/check``::

    parse -> result-cache hit? ->
      coalesce onto an identical in-flight request? ->
        admission control (active >= limit -> 429 + Retry-After) ->
          ServeCell through the Supervisor (deadline watchdog,
          restart/backoff, circuit breaker) ->
            HTTP status from the verdict status.

Responses carry the deterministic ``repro.serve/v1`` envelope plus a
``transport`` key (cache/coalescing/supervision facts) that is
*excluded* from the byte-identity contract.

Graceful shutdown: ``request_shutdown()`` (signal-handler safe) stops
the accept loop, in-flight requests drain under ``drain_timeout_s``,
and a missed deadline raises :class:`repro.errors.DrainTimeout`
(CLI exit code 14) with the number of dropped requests.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Tuple

from repro.errors import DrainTimeout
from repro.harness.parallel import STATUS_HANG, STATUS_WORKER_DIED
from repro.obs.metrics import MetricsRegistry, to_prometheus
from repro.serve.protocol import RequestError, SCHEMA, canonical_json, \
    parse_request
from repro.serve.store import ResultCache
from repro.serve.supervisor import STATUS_DEGRADED, STATUS_QUARANTINED, \
    STATUS_SERVED, ServeCell, Supervisor

__all__ = ["ServeApp"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Verdict status -> (HTTP status, machine-readable error kind).
#: ``served`` maps to 200 with no error kind.
_STATUS_HTTP = {
    STATUS_HANG: (504, "deadline_exceeded"),
    STATUS_WORKER_DIED: (500, "worker_died"),
    STATUS_QUARANTINED: (503, "quarantined"),
    STATUS_DEGRADED: (503, "degraded"),
    "error": (500, "internal_error"),
}

_HEADER_TIMEOUT_S = 30.0
_MAX_BODY_BYTES = 1 * 1024 * 1024


class ServeApp:
    """One server instance: config, state, routes, lifecycle."""

    def __init__(self, supervisor: Supervisor,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_limit: int = 8,
                 deadline_s: float = 30.0,
                 drain_timeout_s: float = 10.0,
                 result_cache_entries: int = 256,
                 allow_debug: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.deadline_s = deadline_s
        self.drain_timeout_s = drain_timeout_s
        self.allow_debug = allow_debug
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.results = ResultCache(max_entries=result_cache_entries)

        self._serve = self.registry.scope("serve")
        self._active = 0          # admitted primaries in the pool
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # Prefork: the worker template must exist before the first
        # connection, or forked workers inherit client sockets (see
        # Supervisor on the forkserver context).
        await self._loop.run_in_executor(None, self.supervisor.warm)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin graceful drain; safe to call from a signal handler
        registered on the loop (``loop.add_signal_handler``)."""
        self._shutdown.set()

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain.

        Raises :class:`DrainTimeout` when in-flight requests outlive
        the drain deadline (they are abandoned — "dropped").
        """
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.drain()

    async def drain(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   timeout=self.drain_timeout_s)
        except asyncio.TimeoutError:
            dropped = self._active + len(self._inflight)
            self._serve.counter("drain.dropped").inc(max(dropped, 1))
            raise DrainTimeout(dropped, self.drain_timeout_s) from None

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers = await asyncio.wait_for(
                    self._read_head(reader), timeout=_HEADER_TIMEOUT_S)
            except asyncio.TimeoutError:
                await self._send_error(writer, 408, "timeout",
                                       "request head not received in "
                                       "time")
                return
            except (asyncio.IncompleteReadError, ValueError) as err:
                await self._send_error(writer, 400, "bad_http",
                                       f"malformed request: {err}")
                return
            await self._route(method, path, headers, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Tuple[str, str, Dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request line")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line {request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        return method, path, headers

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str],
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0]
        if path == "/v1/check":
            if method != "POST":
                await self._send_error(writer, 405, "method_not_allowed",
                                       "use POST for /v1/check")
                return
            await self._handle_check(headers, reader, writer)
        elif path == "/healthz":
            await self._handle_healthz(writer)
        elif path == "/metrics":
            await self._handle_metrics(writer)
        else:
            await self._send_error(writer, 404, "not_found",
                                   f"no route for {path}")

    # -- routes ------------------------------------------------------------

    async def _handle_healthz(self, writer) -> None:
        degraded = self.supervisor.degraded
        doc = {
            "status": "degraded" if degraded else "ok",
            "active_requests": self._active,
            "inflight_fingerprints": len(self._inflight),
            "cells_completed": self.supervisor.cells_completed,
            "worker_deaths": self.supervisor.total_deaths,
            "pool_restarts": self.supervisor.total_restarts,
            "open_breakers": self.supervisor.open_breakers(),
            "draining": self._shutdown.is_set(),
        }
        await self._send_json(writer, 503 if degraded else 200, doc)

    async def _handle_metrics(self, writer) -> None:
        for name, value in self.results.stats_snapshot().items():
            self.registry.gauge(name).set(value)
        self.registry.gauge("serve.active_requests").set(self._active)
        body = to_prometheus(self.registry.snapshot()).encode("utf-8")
        await self._send_raw(writer, 200, body,
                             content_type="text/plain; version=0.0.4")

    async def _handle_check(self, headers, reader, writer) -> None:
        self._serve.counter("requests.total").inc()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            self._serve.counter("requests.bad").inc()
            await self._send_error(writer, 413, "body_too_large",
                                   "missing or oversized Content-Length")
            return
        try:
            body = await asyncio.wait_for(reader.readexactly(length),
                                          timeout=_HEADER_TIMEOUT_S)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            self._serve.counter("requests.bad").inc()
            await self._send_error(writer, 400, "bad_body",
                                   "request body shorter than "
                                   "Content-Length")
            return
        try:
            request = parse_request(body, allow_debug=self.allow_debug)
        except RequestError as err:
            self._serve.counter("requests.bad").inc()
            await self._send_error(writer, err.http_status, err.kind,
                                   str(err))
            return

        fingerprint = request["fingerprint"]
        cacheable = not request["debug"]

        if cacheable:
            cached = self.results.get(fingerprint)
            if cached is not None:
                self._serve.counter("requests.cache_hits").inc()
                await self._respond_served(writer, cached,
                                           cached_hit=True)
                return

        pending = self._inflight.get(fingerprint)
        if pending is not None:
            # Coalesce: ride the identical in-flight evaluation.
            self._serve.counter("requests.coalesced").inc()
            status, envelope, kind, detail = await asyncio.shield(pending)
            if status == 200:
                await self._respond_served(writer, envelope,
                                           coalesced=True)
            else:
                await self._send_error(writer, status, kind, detail,
                                       retry_after=self._retry_after(
                                           status))
            return

        if self._shutdown.is_set():
            self._serve.counter("requests.shed").inc()
            await self._send_error(writer, 503, "draining",
                                   "server is draining", retry_after=1)
            return
        if self._active >= self.queue_limit:
            self._serve.counter("requests.shed").inc()
            await self._send_error(writer, 429, "overloaded",
                                   "admission queue full", retry_after=1)
            return

        future = asyncio.get_running_loop().create_future()
        self._inflight[fingerprint] = future
        self._active += 1
        self._idle.clear()
        started = time.monotonic()
        try:
            outcome = await self._evaluate(request)
        except Exception as err:  # defensive: supervisor never raises
            outcome = (500, None, "internal_error",
                       f"{type(err).__name__}: {err}")
        finally:
            self._active -= 1
            self._inflight.pop(fingerprint, None)
            if self._active == 0 and not self._inflight:
                self._idle.set()
        self._serve.histogram("latency_s").observe(
            time.monotonic() - started)
        future.set_result(outcome)
        status, envelope, kind, detail = outcome
        if status == 200:
            if cacheable:
                self.results.put(fingerprint, envelope)
            await self._respond_served(writer, envelope)
        else:
            await self._send_error(writer, status, kind, detail,
                                   retry_after=self._retry_after(status))

    async def _evaluate(self, request
                        ) -> Tuple[int, Optional[dict], str, str]:
        """Run the cell on the supervised pool; fold supervision
        facts into loop-owned metrics; map the verdict to HTTP."""
        debug = request["debug"]
        cell = ServeCell(
            source=request["source"],
            schemes=tuple(request["schemes"]),
            elide_checks=request["elide_checks"],
            max_instructions=request["max_instructions"],
            wallclock_budget=self.deadline_s,
            fingerprint=request["fingerprint"],
            debug_crash=bool(debug.get("crash")),
            debug_sleep_s=float(debug.get("sleep_s", 0.0)))
        loop = asyncio.get_running_loop()
        result, delta, meta = await loop.run_in_executor(
            None, self.supervisor.run_cell, cell)

        # All counter mutation happens here, on the loop thread.
        if meta.worker_deaths:
            self._serve.counter("worker.deaths").inc(meta.worker_deaths)
        if meta.pool_restarts:
            self._serve.counter("worker.restarts").inc(
                meta.pool_restarts)
        if meta.breaker_opened:
            self._serve.counter("breaker.opened").inc()
        for name, value in delta.items():
            if isinstance(value, int) and value > 0:
                self.registry.counter(name).inc(value)

        if result.status == STATUS_SERVED:
            self._serve.counter("requests.ok").inc()
            return 200, result.extra["envelope"], "", ""
        http_status, kind = _STATUS_HTTP.get(
            result.status, (500, "internal_error"))
        self._serve.counter(f"requests.{kind}").inc()
        detail = result.detail or result.error or result.status
        if result.status == "error":
            detail = detail.strip().splitlines()[-1]
        return http_status, None, kind, detail

    # -- response helpers --------------------------------------------------

    @staticmethod
    def _retry_after(status: int) -> Optional[int]:
        return 1 if status in (429, 503) else None

    async def _respond_served(self, writer, envelope: dict,
                              cached_hit: bool = False,
                              coalesced: bool = False) -> None:
        doc = dict(envelope)
        doc["transport"] = {"cached": cached_hit, "coalesced": coalesced}
        await self._send_raw(
            writer, 200, canonical_json(doc).encode("utf-8"),
            content_type="application/json")

    async def _send_json(self, writer, status: int, doc: dict,
                         retry_after: Optional[int] = None) -> None:
        body = (json.dumps(doc, indent=2, sort_keys=True) + "\n") \
            .encode("utf-8")
        await self._send_raw(writer, status, body,
                             content_type="application/json",
                             retry_after=retry_after)

    async def _send_error(self, writer, status: int, kind: str,
                          detail: str,
                          retry_after: Optional[int] = None) -> None:
        await self._send_json(
            writer, status,
            {"schema": SCHEMA,
             "error": {"kind": kind, "detail": detail}},
            retry_after=retry_after)

    @staticmethod
    async def _send_raw(writer, status: int, body: bytes,
                        content_type: str,
                        retry_after: Optional[int] = None) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
