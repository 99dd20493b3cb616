"""``python -m repro serve`` — the checker as a long-lived service.

An asyncio front door over the :mod:`repro.api` façade with two
transports:

- **stdin-JSONL** (the default): one v1 request per input line, one v1
  response per output line, *in request order*; EOF drains every
  in-flight request and exits.
- **HTTP** (``--http HOST:PORT``): ``POST`` a v1 request body to any
  path for one response; ``GET /healthz`` reports queue depth, worker
  count, and service counters.  ``SIGINT``/``SIGTERM`` stop accepting,
  drain in-flight work, and exit.

Architecture (see ``docs/serve.md``)::

    transport -> validate -> bounded queue -> dispatchers -> tasks
                                  |                            |
                               busy/429                 warm perf.pool
                                                     (+ perf.cache store)

Requests are validated at submission (schema errors answer immediately
without occupying a queue slot), then buffered in a **bounded queue**:
the stdin transport simply stops reading when it fills (natural pipe
backpressure), while the HTTP transport answers ``429`` with a ``busy``
envelope.  Dispatcher coroutines pull requests, consult the
content-addressed response cache (identical requests are O(1) warm
hits), and on a miss run the request's tasks on the warm
:mod:`repro.perf.pool` executor: a check request is one task that
checks all its models in one pipeline, while sweeps, audits and batches
fan out one task per shard (one workload, one corpus file, one batch
slice), so tasks of concurrent requests interleave on the same
workers.  Responses are deterministic and
byte-identical to direct :func:`repro.api.handle_request` calls.

:func:`generate_load` is the in-process load generator: it drives a
fresh service with a request mix and records per-request latency and
sustained checks/sec, cold vs warm.
"""

from __future__ import annotations

import asyncio
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, AsyncIterator, Callable, Dict, Iterable, List, Optional, Union

from repro.api.core import (
    execute_check_shards,
    execute_shard,
    merge_shards,
    request_cache_key,
    request_is_cacheable,
    shard_request,
)
from repro.api.schema import (
    ApiError,
    SchemaError,
    decode,
    encode,
    error_response,
    http_status,
    ok_response,
    salvage_identity,
    validate_request,
)
from repro.obs.metrics import (
    SERVE_BUSY,
    SERVE_CACHE_HIT,
    SERVE_ERROR,
    SERVE_REQUEST,
    MetricSet,
)
from repro.perf.cache import CacheSpec, resolve_cache
from repro.perf.pool import ensure_executor, warm_worker_count

#: Default bound on the request queue (requests buffered beyond the
#: ones dispatchers are executing).  Past it, HTTP answers 429 and the
#: stdin transport stops reading.
DEFAULT_QUEUE_LIMIT = 64


class Service:
    """The queue + dispatcher core shared by every transport.

    ``jobs`` sizes the warm process pool (``None`` auto-resolves; ``1``
    or a single-CPU host runs tasks on a single worker thread instead
    — correct, just serial).  ``cache`` is a
    :data:`~repro.perf.cache.CacheSpec` for the shared response store
    (default: on, at the default cache directory).  ``queue_limit``
    bounds buffered requests; ``concurrency`` caps in-flight requests
    (default: the worker count, so shard fan-out keeps the pool fed
    without oversubscribing it).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: CacheSpec = True,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        concurrency: Optional[int] = None,
    ):
        self.executor = ensure_executor(jobs)
        self.store = resolve_cache(cache)
        self.queue_limit = max(1, queue_limit)
        self.workers = warm_worker_count() if self.executor is not None else 1
        self.concurrency = max(1, concurrency or self.workers)
        self.metrics = MetricSet()
        self._serial = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="repro-serve"
        )
        self._queue: Optional[asyncio.Queue] = None
        self._dispatchers: List[asyncio.Task] = []

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "Service":
        """Create the queue and dispatcher tasks on the running loop."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_limit)
            self._dispatchers = [
                asyncio.ensure_future(self._dispatch_loop())
                for _ in range(self.concurrency)
            ]
        return self

    async def aclose(self) -> None:
        """Graceful shutdown: drain queued + in-flight work, then stop.

        The shared process pool is deliberately left warm (it belongs to
        :mod:`repro.perf.pool`, and the next service or sweep in this
        process reuses it); only the service's own thread executor is
        torn down.
        """
        if self._queue is not None:
            await self._queue.join()
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._dispatchers = []
        self._queue = None
        self._serial.shutdown(wait=True)

    def status(self) -> Dict[str, Any]:
        """The ``GET /healthz`` payload: liveness plus service counters."""
        return {
            "ok": True,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "concurrency": self.concurrency,
            "metrics": self.metrics.as_dict(),
        }

    # -- submission ------------------------------------------------------------

    def _validated(self, request: Any):
        """Parse + validate, or an immediately-completed error future."""
        loop = asyncio.get_running_loop()
        raw_id, raw_kind = salvage_identity(request)
        try:
            obj = decode(request) if isinstance(request, (str, bytes)) else request
            raw_id, raw_kind = salvage_identity(obj)
            return validate_request(obj), None
        except SchemaError as err:
            self.metrics.bump(SERVE_ERROR)
            fut = loop.create_future()
            fut.set_result(
                error_response(err.code, err.message, request_id=raw_id, kind=raw_kind)
            )
            return None, fut

    async def submit(self, request: Any) -> "asyncio.Future":
        """Enqueue one request, awaiting space (stdin-JSONL backpressure).

        Returns a future resolving to the v1 response envelope.  Invalid
        requests resolve immediately without taking a queue slot.
        """
        normalized, early = self._validated(request)
        if early is not None:
            return early
        self.metrics.bump(SERVE_REQUEST)
        fut = asyncio.get_running_loop().create_future()
        assert self._queue is not None, "Service.start() was not awaited"
        await self._queue.put((normalized, fut))
        return fut

    def try_submit(self, request: Any) -> "asyncio.Future":
        """Enqueue without waiting; a full queue answers ``busy`` (HTTP 429)."""
        normalized, early = self._validated(request)
        if early is not None:
            return early
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        assert self._queue is not None, "Service.start() was not awaited"
        try:
            self._queue.put_nowait((normalized, fut))
        except asyncio.QueueFull:
            self.metrics.bump(SERVE_BUSY)
            fut.set_result(
                error_response(
                    "busy",
                    f"request queue is full ({self.queue_limit} pending); retry later",
                    request_id=normalized["id"],
                    kind=normalized["kind"],
                )
            )
            return fut
        self.metrics.bump(SERVE_REQUEST)
        return fut

    # -- execution -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            normalized, fut = await self._queue.get()
            try:
                response = await self._execute(normalized)
            except asyncio.CancelledError:
                if not fut.done():
                    fut.set_result(
                        error_response(
                            "internal", "service shut down mid-request",
                            request_id=normalized["id"], kind=normalized["kind"],
                        )
                    )
                self._queue.task_done()
                raise
            except Exception as err:  # pragma: no cover - defensive
                response = error_response(
                    "internal", f"{type(err).__name__}: {err}",
                    request_id=normalized["id"], kind=normalized["kind"],
                )
            if not fut.done():
                fut.set_result(response)
            if not response.get("ok"):
                self.metrics.bump(SERVE_ERROR)
            self._queue.task_done()

    async def _run_task(self, fn: Callable[[Any], Any], task: Any) -> Any:
        """``fn(task)`` on the warm pool, falling back to the thread
        worker when the pool cannot run it (broken pool, unpicklable
        payload)."""
        loop = asyncio.get_running_loop()
        if self.executor is not None:
            try:
                return await loop.run_in_executor(self.executor, fn, task)
            except (BrokenProcessPool, PicklingError, OSError):
                pass
        return await loop.run_in_executor(self._serial, fn, task)

    async def _execute(self, normalized: Dict[str, Any]) -> Dict[str, Any]:
        try:
            key = None
            if self.store is not None and request_is_cacheable(normalized):
                key = request_cache_key(self.store, normalized)
                hit, value = self.store.get(key)
                if hit and isinstance(value, dict):
                    self.metrics.bump(SERVE_CACHE_HIT)
                    return ok_response(normalized, value)
            root = self.store.root if self.store is not None else None
            shards = shard_request(normalized, cache_root=root)
            if normalized["kind"] == "check":
                parts = await self._run_task(execute_check_shards, shards)
            else:
                parts = await asyncio.gather(
                    *(self._run_task(execute_shard, shard) for shard in shards)
                )
            result = merge_shards(normalized, list(parts))
            if key is not None:
                self.store.put(key, result)
            return ok_response(normalized, result)
        except ApiError as err:
            return error_response(
                err.code, err.message,
                request_id=normalized["id"], kind=normalized["kind"],
            )
        except Exception as err:
            return error_response(
                "internal", f"{type(err).__name__}: {err}",
                request_id=normalized["id"], kind=normalized["kind"],
            )


# -- stdin-JSONL transport -----------------------------------------------------

async def _aiter_lines(
    lines: Union[Iterable[str], AsyncIterator[str]]
) -> AsyncIterator[str]:
    if hasattr(lines, "__aiter__"):
        async for line in lines:  # type: ignore[union-attr]
            yield line
    else:
        for line in lines:  # type: ignore[union-attr]
            yield line


async def _stdin_lines() -> AsyncIterator[str]:
    """``sys.stdin`` as an async line iterator (reader-thread based, so
    pipes and files both work; EOF ends the stream)."""
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            return
        yield line


async def run_jsonl(
    service: Service,
    lines: Union[Iterable[str], AsyncIterator[str]],
    write: Callable[[str], None],
) -> int:
    """Drive *service* over JSONL: one response line per request line,
    **in request order** (execution itself overlaps across the pool).

    Blank lines are skipped.  Returns the number of responses written;
    the stream ending (EOF) drains every in-flight request first.
    """
    await service.start()
    futures: asyncio.Queue = asyncio.Queue()
    done = object()
    written = 0

    async def produce() -> None:
        async for line in _aiter_lines(lines):
            if not line.strip():
                continue
            futures.put_nowait(await service.submit(line))
        futures.put_nowait(done)

    async def drain() -> None:
        nonlocal written
        while True:
            fut = await futures.get()
            if fut is done:
                return
            response = await fut
            write(encode(response) + "\n")
            written += 1

    await asyncio.gather(produce(), drain())
    return written


# -- HTTP transport ------------------------------------------------------------

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    429: "Too Many Requests", 500: "Internal Server Error",
}


def _http_payload(status: int, body: str) -> bytes:
    data = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin1") + data


async def _handle_http(service: Service, reader, writer) -> None:
    try:
        request_line = await reader.readline()
        parts = request_line.decode("latin1", "replace").split()
        if len(parts) < 2:
            return
        method = parts[0].upper()
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        if method == "GET":
            status, body = 200, encode(service.status())
        elif method == "POST":
            length = headers.get("content-length") or "0"
            if length.isascii() and length.isdigit():
                raw = (await reader.readexactly(int(length))).decode("utf-8", "replace")
                response = await service.try_submit(raw)
                response = await response if asyncio.isfuture(response) else response
            else:
                service.metrics.bump(SERVE_ERROR)
                response = error_response(
                    "malformed", f"Content-Length {length!r} is not a byte count"
                )
            status, body = http_status(response), encode(response)
        else:
            status = 405
            body = encode(error_response("malformed", f"method {method} not allowed"))
        writer.write(_http_payload(status, body))
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError, ValueError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass


async def run_http(service: Service, host: str, port: int):
    """Start the HTTP transport; returns the ``asyncio`` server object
    (use ``server.sockets[0].getsockname()`` for the bound port)."""
    await service.start()

    async def handler(reader, writer):
        await _handle_http(service, reader, writer)

    return await asyncio.start_server(handler, host, port)


# -- load generator ------------------------------------------------------------

@dataclass
class LoadReport:
    """What one load-generator run observed (request order preserved)."""

    responses: List[Dict[str, Any]] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1

    @property
    def requests_per_s(self) -> float:
        return len(self.responses) / self.wall_s if self.wall_s > 0 else float("inf")

    def percentile(self, fraction: float) -> float:
        """Latency at *fraction* (0..1) of the sorted distribution."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]


async def _generate_load(
    requests: List[Any],
    jobs: Optional[int],
    cache: CacheSpec,
    queue_limit: Optional[int],
) -> LoadReport:
    import time

    service = Service(
        jobs=jobs,
        cache=cache,
        queue_limit=queue_limit or max(DEFAULT_QUEUE_LIMIT, len(requests)),
    )
    await service.start()
    report = LoadReport(
        responses=[{} for _ in requests],
        latencies_s=[0.0 for _ in requests],
        workers=service.workers,
    )

    async def one(index: int, request: Any) -> None:
        t0 = time.perf_counter()
        fut = await service.submit(request)
        response = await fut
        report.latencies_s[index] = time.perf_counter() - t0
        report.responses[index] = response

    t0 = time.perf_counter()
    await asyncio.gather(*(one(i, r) for i, r in enumerate(requests)))
    report.wall_s = time.perf_counter() - t0
    await service.aclose()
    return report


def generate_load(
    requests: List[Any],
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
    queue_limit: Optional[int] = None,
) -> LoadReport:
    """Fire *requests* (dicts or JSONL strings) at a fresh in-process
    service, all submitted at once, and record per-request latency
    (submission to response, queueing included) and total wall time.

    ``tests/serve/test_serve.py`` runs this twice against the same cache
    directory — cold then warm — to hold the O(1) cache-hit path to
    10x; responses come back in request order so the two runs (and direct
    :func:`repro.api.handle_request` calls) can be compared
    byte-for-byte.
    """
    return asyncio.run(_generate_load(requests, jobs, cache, queue_limit))


# -- CLI entry -----------------------------------------------------------------

def _parse_hostport(text: str) -> (str, int):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"--http expects HOST:PORT (e.g. 127.0.0.1:8765), got {text!r}"
        )
    return host, int(port)


async def _main_http(service: Service, host: str, port: int) -> int:
    import signal

    server = await run_http(service, host, port)
    bound = server.sockets[0].getsockname()
    print(f"repro serve: http on {bound[0]}:{bound[1]}", file=sys.stderr)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    await stop.wait()
    print("repro serve: draining...", file=sys.stderr)
    server.close()
    await server.wait_closed()
    await service.aclose()
    return 0


async def _main_jsonl(service: Service) -> int:
    def write(line: str) -> None:
        sys.stdout.write(line)
        sys.stdout.flush()

    await service.start()
    written = await run_jsonl(service, _stdin_lines(), write)
    await service.aclose()
    print(f"repro serve: {written} response(s), drained", file=sys.stderr)
    return 0


def main_serve(args) -> int:
    """The ``python -m repro serve`` entry point (see ``repro.cli``)."""
    cache: CacheSpec = args.cache if args.cache is not None else True
    service = Service(
        jobs=args.jobs,
        cache=cache,
        queue_limit=args.queue_limit,
        concurrency=args.concurrency,
    )
    if args.http:
        host, port = _parse_hostport(args.http)
        return asyncio.run(_main_http(service, host, port))
    return asyncio.run(_main_jsonl(service))
