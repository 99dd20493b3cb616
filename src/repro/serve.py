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

    transport -> validate -> bounded queue -> dispatcher threads -> tasks
                                  |            (repro.api executor)    |
                               busy/429                         warm perf.pool
                                                             (+ perf.cache store)

Requests are validated at submission (schema errors answer immediately
without occupying a queue slot), then buffered in a **bounded queue**:
the stdin transport simply stops reading when it fills (natural pipe
backpressure), while the HTTP transport answers ``429`` with a ``busy``
envelope.  Dispatcher coroutines pull requests and hand each to a
dispatcher thread, which runs the same executor as
:func:`repro.api.handle_request`: it consults the content-addressed
response cache (identical requests are O(1) warm hits) and on a miss
runs the request's tasks on the warm :mod:`repro.perf.pool` executor.
A check request is one task that checks all its models in one
pipeline, while sweeps, audits and batches fan out one task per shard
(one workload, one corpus file, one batch slice), so tasks of
concurrent requests interleave on the same workers.  Responses are
deterministic and byte-identical to direct
:func:`repro.api.handle_request` calls.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Any, AsyncIterator, Callable, Dict, Iterable, List, Optional, Union

from repro.api.core import _respond, parse_request
from repro.api.schema import encode, error_response, http_status
from repro.obs.metrics import (
    SERVE_BUSY,
    SERVE_CACHE_HIT,
    SERVE_ERROR,
    SERVE_REQUEST,
    MetricSet,
)
from repro.perf.cache import CacheSpec, resolve_cache
from repro.perf.pool import ensure_executor, shutdown_executor, warm_worker_count

#: Default bound on the request queue (requests buffered beyond the
#: ones dispatchers are executing).  Past it, HTTP answers 429 and the
#: stdin transport stops reading.
DEFAULT_QUEUE_LIMIT = 64

#: How a pool task fails when the pool, not the task, is at fault; the
#: service then runs the task inline.
_POOL_FAILURES = (BrokenProcessPool, PicklingError, OSError)


class Service:
    """The queue + dispatcher core shared by every transport.

    ``jobs`` sizes the warm process pool (``None`` auto-resolves; ``1``
    or a single-CPU host runs tasks inline on the dispatcher threads
    instead — correct, just serial).  ``cache`` is a
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
        self._pool_lock = threading.Lock()

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
        normalized, error = parse_request(request)
        if error is None:
            return normalized, None
        self.metrics.bump(SERVE_ERROR)
        fut = asyncio.get_running_loop().create_future()
        fut.set_result(error)
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
        loop = asyncio.get_running_loop()
        while True:
            normalized, fut = await self._queue.get()
            try:
                response, hit = await loop.run_in_executor(
                    self._serial, _respond, normalized, self.store, self._run
                )
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
                response, hit = error_response(
                    "internal", f"{type(err).__name__}: {err}",
                    request_id=normalized["id"], kind=normalized["kind"],
                ), False
            if hit:
                self.metrics.bump(SERVE_CACHE_HIT)
            if not fut.done():
                fut.set_result(response)
            if not response.get("ok"):
                self.metrics.bump(SERVE_ERROR)
            self._queue.task_done()

    @staticmethod
    def _submit(executor, fn: Callable[[Any], Any], task: Any) -> Future:
        try:
            return executor.submit(fn, task)
        except _POOL_FAILURES as err:
            failed: Future = Future()
            failed.set_exception(err)
            return failed

    def _replace_pool(self, broken) -> None:
        """Swap the broken warm pool for a fresh one of the same size, as
        :func:`~repro.perf.pool.parallel_map` does.  Several dispatcher
        threads can see one pool break; only the first replaces it.  An
        executor that is not a process pool is left in place."""
        with self._pool_lock:
            if self.executor is broken and isinstance(broken, ProcessPoolExecutor):
                shutdown_executor()
                self.executor = ensure_executor(self.workers)

    def _run(self, fn: Callable[[Any], Any], tasks: List[Any]) -> List[Any]:
        """The service's ``run`` for :func:`repro.api.core._respond`,
        called on a dispatcher thread: every task goes to the warm pool
        at once, and a task the pool cannot run (no pool, broken pool,
        unpicklable payload) runs inline in this thread.  A broken pool
        is replaced, so later requests run on a fresh one."""
        executor = self.executor
        if executor is None:
            return [fn(task) for task in tasks]
        futures = [self._submit(executor, fn, task) for task in tasks]
        results = []
        for future, task in zip(futures, tasks):
            try:
                results.append(future.result())
            except _POOL_FAILURES as err:
                if isinstance(err, BrokenProcessPool):
                    self._replace_pool(executor)
                results.append(fn(task))
        return results


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
            service.metrics.bump(SERVE_ERROR)
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
