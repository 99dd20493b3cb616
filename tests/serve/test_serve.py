"""End-to-end tests for ``python -m repro serve`` (see docs/serve.md).

The golden fixtures under ``golden/`` pin the v1 wire protocol: one
request per line in ``requests.jsonl`` (valid checks, malformed JSON, an
unsupported ``schema_version``, an unknown kind, an unknown test, a
replay of an earlier request, and a two-program batch), and the
byte-exact response lines in
``responses.jsonl``.  Responses carry no timestamps or timings, so the
service, the direct API, and a cache-hit replay must all reproduce the
golden bytes exactly.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.api import encode, handle_request
from repro.perf.cache import ResultCache
from repro.serve import DEFAULT_QUEUE_LIMIT, Service, generate_load, run_http, run_jsonl

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def golden_requests():
    with open(os.path.join(GOLDEN_DIR, "requests.jsonl")) as handle:
        return [line for line in handle.read().splitlines() if line.strip()]


def golden_responses():
    with open(os.path.join(GOLDEN_DIR, "responses.jsonl")) as handle:
        return [line for line in handle.read().splitlines() if line.strip()]


def drive_jsonl(lines, **service_kwargs):
    """Run the stdin-JSONL transport in-process; returns response lines."""
    out = []

    async def main():
        service = Service(**service_kwargs)
        await run_jsonl(service, lines, out.append)
        await service.aclose()

    asyncio.run(main())
    return [line.rstrip("\n") for line in out]


class TestGolden:
    def test_direct_api_matches_golden(self):
        for request, expected in zip(golden_requests(), golden_responses()):
            assert encode(handle_request(request)) == expected

    def test_jsonl_transport_matches_golden(self):
        assert drive_jsonl(golden_requests(), jobs=1, cache=False) == golden_responses()

    def test_cache_hit_replay_is_byte_identical(self, tmp_path):
        cold = drive_jsonl(golden_requests(), jobs=1, cache=str(tmp_path))
        store = ResultCache(str(tmp_path))
        warm = drive_jsonl(golden_requests(), jobs=1, cache=store)
        assert cold == warm == golden_responses()
        # Every valid request replays from the store the second time
        # (g8 is a same-key replay of g1 even on the cold run); the only
        # warm miss is the not_found request, which probes the cache but
        # never stores (error envelopes are not cached).
        assert store.hits == 5
        assert store.misses == 1

    def test_golden_covers_the_error_codes(self):
        codes = set()
        for line in golden_responses():
            response = json.loads(line)
            if not response["ok"]:
                codes.add(response["error"]["code"])
        assert {"malformed", "unsupported_version", "unknown_kind", "not_found"} <= codes


class TestJsonlTransport:
    def test_blank_lines_are_skipped(self):
        lines = ["", "   ", golden_requests()[0], ""]
        assert len(drive_jsonl(lines, jobs=1, cache=False)) == 1

    def test_responses_come_back_in_request_order(self):
        requests = [
            encode(
                {
                    "schema_version": 1,
                    "kind": "check",
                    "id": f"order-{i}",
                    "program": {"name": name},
                }
            )
            for i, name in enumerate(
                ["flags", "mp_paired", "sb_data", "lb_paired", "split_counter"]
            )
        ]
        out = drive_jsonl(requests, jobs=1, cache=False, concurrency=4)
        assert [json.loads(line)["id"] for line in out] == [
            f"order-{i}" for i in range(5)
        ]

    def test_mixed_check_and_sweep_batch(self):
        requests = [
            encode(
                {
                    "schema_version": 1,
                    "kind": "check",
                    "id": "m1",
                    "program": {"name": "mp_paired"},
                }
            ),
            encode(
                {
                    "schema_version": 1,
                    "kind": "sweep",
                    "id": "m2",
                    "workloads": ["SC"],
                    "scale": 0.05,
                }
            ),
        ]
        out = drive_jsonl(requests, jobs=1, cache=False)
        assert [line for line in out] == [encode(handle_request(r)) for r in requests]


class TestBackpressure:
    def test_try_submit_answers_busy_when_full(self):
        async def main():
            service = Service(jobs=1, cache=False, queue_limit=1)
            await service.start()
            for task in service._dispatchers:  # freeze the consumers
                task.cancel()
            request = golden_requests()[0]
            first = service.try_submit(request)
            second = service.try_submit(request)
            assert not first.done()
            response = await second
            service._serial.shutdown(wait=False)
            return response

        response = asyncio.run(main())
        assert response["ok"] is False
        assert response["error"]["code"] == "busy"

    def test_invalid_requests_do_not_take_queue_slots(self):
        async def main():
            service = Service(jobs=1, cache=False, queue_limit=1)
            await service.start()
            for task in service._dispatchers:
                task.cancel()
            responses = [await service.try_submit("{nope") for _ in range(5)]
            service._serial.shutdown(wait=False)
            return responses

        responses = asyncio.run(main())
        assert all(r["error"]["code"] == "malformed" for r in responses)


class TestHttpTransport:
    @staticmethod
    async def _request(port, body, method="POST", path="/"):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        data = body.encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        writer.write(head.encode() + data)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        header, _, payload = raw.partition(b"\r\n\r\n")
        return int(header.split()[1]), json.loads(payload)

    def test_post_and_healthz(self):
        async def main():
            service = Service(jobs=1, cache=False)
            server = await run_http(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            results = {}
            results["ok"] = await self._request(port, golden_requests()[0])
            results["malformed"] = await self._request(port, "{nope")
            results["not_found"] = await self._request(
                port,
                encode(
                    {
                        "schema_version": 1,
                        "kind": "check",
                        "program": {"name": "no_such_test"},
                    }
                ),
            )
            results["health"] = await self._request(port, "", method="GET", path="/healthz")
            server.close()
            await server.wait_closed()
            await service.aclose()
            return results

        results = asyncio.run(main())
        status, body = results["ok"]
        assert status == 200 and body["ok"] and body["id"] == "g1"
        assert encode(body) == golden_responses()[0]
        assert results["malformed"][0] == 400
        assert results["not_found"][0] == 404
        status, health = results["health"]
        assert status == 200 and health["ok"]
        assert health["queue_limit"] == DEFAULT_QUEUE_LIMIT
        assert health["metrics"].get("serve_request") == 2.0

    @staticmethod
    def _bad_length(length):
        """POST with a ``Content-Length`` header of *length*; returns the
        status, the response and the service's ``serve_error`` count."""
        async def main():
            service = Service(jobs=1, cache=False)
            server = await run_http(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            errors = service.metrics.get("serve_error")
            server.close()
            await server.wait_closed()
            await service.aclose()
            return raw, errors

        raw, errors = asyncio.run(main())
        header, _, payload = raw.partition(b"\r\n\r\n")
        return int(header.split()[1]), json.loads(payload), errors

    def test_non_numeric_content_length_is_400_malformed(self):
        status, response, errors = self._bad_length("abc")
        assert status == 400
        assert response["error"]["code"] == "malformed"
        assert errors == 1.0

    def test_negative_content_length_is_400_malformed(self):
        status, response, errors = self._bad_length("-5")
        assert status == 400
        assert response["error"]["code"] == "malformed"
        assert errors == 1.0

    def test_other_method_is_405_and_counted(self):
        async def main():
            service = Service(jobs=1, cache=False)
            server = await run_http(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            put = await self._request(port, "", method="PUT", path="/")
            health = await self._request(port, "", method="GET", path="/healthz")
            server.close()
            await server.wait_closed()
            await service.aclose()
            return put, health

        (status, response), (_, health) = asyncio.run(main())
        assert status == 405
        assert response["error"]["code"] == "malformed"
        assert health["metrics"].get("serve_error") == 1.0

    def test_full_queue_is_429_busy(self):
        async def main():
            service = Service(jobs=1, cache=False, queue_limit=1)
            server = await run_http(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            for task in service._dispatchers:  # freeze the consumers
                task.cancel()
            # First request occupies the only queue slot (its connection
            # stays pending), the second must bounce with 429/busy.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = golden_requests()[0].encode()
            writer.write(
                (
                    "POST / HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            for _ in range(50):
                await asyncio.sleep(0.01)
                if service._queue.full():
                    break
            status, response = await self._request(port, golden_requests()[0])
            writer.close()
            server.close()
            await server.wait_closed()
            service._serial.shutdown(wait=False)
            return status, response

        status, response = asyncio.run(main())
        assert status == 429
        assert response["error"]["code"] == "busy"


#: Litmus checks in the load generator's mixed batch: a spread of
#: verdicts and execution counts from the library.
LOAD_CHECKS = (
    "mp_paired", "mp_data", "sb_data", "sb_paired", "lb_non_ordering",
    "flags", "split_counter", "ref_counter", "lb_paired",
)

#: Minimum cold/warm wall-time ratio: warm requests are cache hits.
WARM_SPEEDUP = 10.0


class TestLoadGenerator:
    @pytest.mark.bench
    def test_warm_hits_are_faster_and_identical(self, tmp_path):
        """A mixed litmus + sweep batch, cold then warm against one
        cache directory: both runs are byte-identical to direct API
        calls, and the warm one is at least 10x faster."""
        requests = [
            {
                "schema_version": 1,
                "kind": "check",
                "id": f"load-{i}",
                "program": {"name": name},
            }
            for i, name in enumerate(LOAD_CHECKS)
        ] + [
            {
                "schema_version": 1,
                "kind": "sweep",
                "id": f"sweep-{name}",
                "workloads": [name],
                "scale": 0.05,
            }
            for name in ("SC", "SEQ")
        ]
        cold = generate_load(list(requests), jobs=1, cache=str(tmp_path))
        warm = generate_load(list(requests), jobs=1, cache=str(tmp_path))
        direct = [encode(handle_request(dict(r))) for r in requests]
        assert [encode(r) for r in cold.responses] == direct
        assert [encode(r) for r in warm.responses] == direct
        assert all(r["ok"] for r in cold.responses)
        assert len(cold.latencies_s) == len(requests)
        assert cold.wall_s >= WARM_SPEEDUP * warm.wall_s, (
            cold.wall_s, warm.wall_s,
        )
        assert warm.percentile(0.5) <= warm.percentile(0.99)


class TestSubprocess:
    def test_stdin_jsonl_end_to_end(self):
        """Boot the real ``python -m repro serve`` process, stream the
        golden requests through stdin, and require the golden bytes back
        (plus a clean drain on EOF)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1", "--no-cache"],
            input="\n".join(golden_requests()) + "\n",
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == golden_responses()
        assert "drained" in proc.stderr


@pytest.mark.parametrize("queue_limit", [0, -3])
def test_queue_limit_floor(queue_limit):
    service = Service(jobs=1, cache=False, queue_limit=queue_limit)
    assert service.queue_limit == 1
    service._serial.shutdown(wait=False)
