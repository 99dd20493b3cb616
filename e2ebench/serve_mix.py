"""Workload ``serve_mix``: the checker service under a mixed request load.

``python -m repro serve --http`` runs as a subprocess with a fresh cache
directory and ``nproc`` pool workers.  One client process drives it in a
closed loop over ``nproc`` connections, because the callers of this
service wait for each reply.  A round sends 200 requests:

- 70% single ``check`` requests, each a distinct program as DSL source:
  every corpus file (``repro.litmus.corpus.load_corpus``, banked fuzz
  cases included) and fuzz programs (``repro.litmus.fuzz``);
- 10% ``batch`` requests of 25 distinct fuzz programs;
- 20% exact repeats of an earlier request, which the service answers
  from its response cache.

The programs are the same for every seed (``FUZZ_CAMPAIGN``); the seed
and the round order them and pick the repeats.

Requests use default options, so the engine is ``enum``: the per-request
layers (``litmus`` parse, ``api``, the HTTP transport, ``perf.cache``,
``batch``) and the enumerator carry the load, and the solver does no
work.

A run sends the same requests in several rounds, each in another order
to a fresh server with an empty cache.  Each request's latency is
its best of the rounds, which leaves out the host's slow phases.

Worker modes (``python3 -m serve_mix <mode> ...``): ``client`` drives
the server through one round, ``oracle`` checks every response,
``replay`` replays the round's requests stage by stage with spans,
``inproc`` runs them through ``repro.api.handle_request`` in-process.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from random import Random
from typing import Dict, List, Optional

from common import (
    DEFAULT_SEED,
    best_times,
    kill_tree,
    median,
    nproc,
    peak_rss_mb,
    descendants,
    percentile,
    ready,
    run_worker,
    worker_output,
)

#: Each block of 10 consecutive requests holds, in a seeded order, 7
#: single checks, 1 batch and 2 repeats.
BLOCK = ("check",) * 7 + ("batch",) + ("repeat",) * 2
BATCH_PROGRAMS = 25
#: A repeat copies a request at least this many places back, so with
#: ``nproc`` connections the original has normally been answered.
REPEAT_GAP = 4
#: Requests a round sends: 140 single checks, so that more than ten lie
#: beyond their p90, 20 batches and 40 repeats.
REQUESTS = 200
#: The fuzz campaign the programs come from, whatever the seed: the
#: default seed's.  Latency percentiles over one campaign's programs
#: differ by a quarter from one campaign to the next (see NOTES.md), more
#: than any bound allows, so the seed orders a fixed set of programs.
FUZZ_CAMPAIGN = DEFAULT_SEED
#: Rounds a run makes at the least, so that the sample count does not
#: depend on how many fit in the run's time.  Each round sends the same
#: requests, in another order, to a fresh server with an empty cache, and
#: each request's latency is its best of the rounds.
MIN_ROUNDS = 5
#: Server start-ups timed besides those of the rounds.
SETUP_PROBES = 2


def request_mix(seed: int, round_: int) -> List[tuple]:
    """The ``REQUESTS`` requests of one round as ``(body, kind, origin,
    key)``: *origin* is the place of the request a repeat copies, *key*
    the request's ``id``, the same in every round.

    The single checks are every corpus file (banked fuzz cases included)
    and the first fuzz programs of ``FUZZ_CAMPAIGN``; each batch is the
    next 25 of them.  The seed and the round order the checks, the
    batches and each block of ten requests, and pick which earlier
    request each repeat copies.  So every round sends the same requests,
    each beside different neighbours on the other connections.
    """
    from repro.litmus.corpus import load_corpus
    from repro.litmus.fuzz import generate_program
    from repro.litmus.render import render

    blocks = REQUESTS // len(BLOCK)
    n_checks, n_batches = blocks * BLOCK.count("check"), blocks * BLOCK.count("batch")
    singles = []
    for entry in load_corpus():
        with open(entry.path) as handle:
            singles.append(handle.read())
    fuzz = iter(range(n_checks - len(singles) + n_batches * BATCH_PROGRAMS))

    def fuzz_source() -> str:
        return render(generate_program(FUZZ_CAMPAIGN, next(fuzz)))

    singles += [fuzz_source() for _ in range(n_checks - len(singles))]
    batches = [[fuzz_source() for _ in range(BATCH_PROGRAMS)] for _ in range(n_batches)]
    checks = [(f"check-{i}", {"program": {"source": src}}) for i, src in enumerate(singles)]
    batches = [(f"batch-{i}", {"programs": [{"source": src} for src in programs]})
               for i, programs in enumerate(batches)]
    rng = Random(seed * 1009 + round_)
    rng.shuffle(checks)
    rng.shuffle(batches)

    out: List[tuple] = []
    for block in range(blocks):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        if block == 0:  # nothing to repeat yet
            kinds.sort(key=lambda kind: kind == "repeat")
        for kind in kinds:
            index = len(out)
            if kind == "repeat":
                body, _, origin, key = out[rng.randrange(index - REPEAT_GAP + 1)]
                out.append((body, kind, origin, key))
                continue
            key, fields = (batches if kind == "batch" else checks).pop()
            request = {"schema_version": 1, "kind": kind, "id": key, **fields}
            out.append((json.dumps(request, sort_keys=True), kind, index, key))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read_records(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


# -- workers -------------------------------------------------------------------

def _worker_client(port: int, seed: int, round_: int, connections: int,
                   out: str) -> dict:
    mix = request_mix(seed, round_)
    ready()
    records: List[Optional[dict]] = [None] * len(mix)
    lock = threading.Lock()
    state = {"next": 0}

    def drive() -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= len(mix):
                    return
                state["next"] += 1
            body, kind, origin, key = mix[index]
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
            t0 = time.perf_counter()
            try:
                conn.request("POST", "/", body=body.encode(),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read().decode()
                status = response.status
            except (OSError, http.client.HTTPException) as err:
                data, status = f"{type(err).__name__}: {err}", 0
            finally:
                conn.close()
            latency = time.perf_counter() - t0
            records[index] = {
                "index": index, "kind": kind, "origin": origin, "key": key,
                "status": status, "latency_s": latency, "request": body,
                "response": data,
            }

    threads = [threading.Thread(target=drive) for _ in range(connections)]
    t_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t_start
    with open(out, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return {"wall_s": wall, "requests": len(records)}


def _naive_verdicts(source: str) -> Dict[str, list]:
    """(legal, race kinds) per model from the naive enumerator."""
    from repro.core.model import MODELS, check
    from repro.litmus.dsl import parse

    program = parse(source)
    out = {}
    for model in MODELS:
        result = check(program, model, naive=True)
        out[model] = [result.legal, list(result.race_kinds)]
    return out


def _worker_oracle(records_path: str, processes: int) -> dict:
    """Every response against the naive enumerator, the corpus headers and
    (for repeats) the original response."""
    import multiprocessing

    from repro.litmus.corpus import _parse_expectations

    ready()
    records = _read_records(records_path)
    by_index = {r["index"]: r for r in records}
    sources = []
    for record in records:
        if record["kind"] == "repeat":
            continue
        request = json.loads(record["request"])
        specs = request["programs"] if record["kind"] == "batch" else [request["program"]]
        sources.extend(spec["source"] for spec in specs)
    with multiprocessing.get_context("spawn").Pool(processes) as pool:
        oracle = dict(zip(sources, pool.map(_naive_verdicts, sources, chunksize=8)))
    failures: List[str] = []

    def same(models: dict, source: str, where: str) -> bool:
        want = oracle[source]
        got = {m: [p["legal"], p["race_kinds"]] for m, p in models.items()}
        if got != want:
            failures.append(f"{where}: served {got}, naive {want}")
            return False
        for model, (legal, kinds) in _parse_expectations(source).items():
            if [legal, list(kinds)] != want[model]:
                failures.append(f"{where}: {model} naive {want[model]}, header {legal} {kinds}")
                return False
        return True

    failed = 0
    for record in records:
        where = f"request {record['index']} ({record['kind']})"
        try:
            ok = record["status"] == 200
            response = json.loads(record["response"]) if ok else None
            ok = ok and response.get("ok") is True
            if not ok:
                failures.append(f"{where}: status {record['status']}: {record['response'][:200]}")
            elif record["kind"] == "repeat":
                ok = record["response"] == by_index[record["origin"]]["response"]
                if not ok:
                    failures.append(f"{where}: differs from request {record['origin']}")
            else:
                request = json.loads(record["request"])
                if record["kind"] == "check":
                    specs, entries = [request["program"]], [response["result"]]
                else:
                    specs, entries = request["programs"], response["result"]["programs"]
                ok = len(specs) == len(entries) and all(
                    [same(entry["models"], spec["source"], where)
                     for spec, entry in zip(specs, entries)]
                )
        except (ValueError, KeyError, TypeError) as err:
            failures.append(f"{where}: {type(err).__name__}: {err}")
            ok = False
        failed += not ok
    return {"failed": failed, "failures": failures[:20], "programs": len(sources)}


def _worker_replay(records_path: str, spans_path: str, cache_dir: str) -> dict:
    from common import Spans
    from replay import Replayer, request_roots_ms
    from repro.batch import check_many, clear_batch_state
    from repro.core.model import MODELS, check
    from repro.litmus.dsl import parse

    ready()
    records = _read_records(records_path)
    spans = Spans()
    replayer = Replayer(spans, cache_dir)
    digests = []
    for record in records:
        spans.request = str(record["index"])
        digests.append(_digest(replayer.replay_request(record["request"])))
    walls = request_roots_ms(spans)
    spans.write(spans_path)
    layers = replayer.metrics()

    # batch.amortization: per-program model.check against one check_many
    # call on the same 25 programs, both cold and uncached.
    t_loop = t_many = 0.0
    for record in records:
        if record["kind"] != "batch":
            continue
        programs = [
            parse(spec["source"]) for spec in json.loads(record["request"])["programs"]
        ]
        clear_batch_state()
        t0 = time.perf_counter()
        list(check_many(programs, models=MODELS, jobs=1, cache=False))
        t_many += time.perf_counter() - t0
        t0 = time.perf_counter()
        for program in programs:
            for model in MODELS:
                check(program, model, cache=False)
        t_loop += time.perf_counter() - t0
    layers["batch.amortization"] = t_loop / t_many if t_many else 0.0
    return {"digests": digests, "walls_ms": walls, "layers": layers}


def _worker_inproc(records_path: str, cache_dir: str) -> dict:
    from repro.api import handle_request
    from repro.api.schema import encode

    ready()
    records = _read_records(records_path)
    digests, walls = [], []
    for record in records:
        t0 = time.perf_counter()
        response = handle_request(record["request"], cache=cache_dir, jobs=1)
        walls.append((time.perf_counter() - t0) * 1e3)
        digests.append(_digest(encode(response)))
    return {"digests": digests, "walls_ms": walls}


def main(argv: List[str]) -> int:
    mode = argv[0]
    if mode == "client":
        result = _worker_client(int(argv[1]), int(argv[2]), int(argv[3]),
                                int(argv[4]), argv[5])
    elif mode == "oracle":
        result = _worker_oracle(argv[1], int(argv[2]))
    elif mode == "replay":
        result = _worker_replay(argv[1], argv[2], argv[3])
    elif mode == "inproc":
        result = _worker_inproc(argv[1], argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    worker_output(result)
    return 0


# -- the server ----------------------------------------------------------------

class Server:
    """``python -m repro serve --http`` in a subprocess."""

    def __init__(self, env: Dict[str, str], cache_dir: str, jobs: int):
        env = dict(env, REPRO_CACHE_DIR=cache_dir)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0",
             "--jobs", str(jobs)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.port = None
        # A server that never listens is killed, which ends the loop below.
        timer = threading.Timer(60, kill_tree, (self.proc.pid,))
        timer.start()
        try:
            for line in self.proc.stderr:
                if "http on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    break
            if self.port is None:
                raise RuntimeError("server exited before listening")
            while True:
                status, _ = self.get("/healthz")
                if status == 200:
                    break
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        finally:
            timer.cancel()
        self.setup_s = time.perf_counter() - t0

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def stop(self) -> None:
        tree = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in tree[1:]:
            kill_tree(pid)
        self.proc.stderr.close()


# -- orchestration -------------------------------------------------------------

def orchestrate(ctx) -> dict:
    env = ctx.env
    jobs = nproc()
    setups = []
    for probe in range(SETUP_PROBES):
        server = Server(env, os.path.join(ctx.run_dir, f"probe-cache-{probe}"), jobs)
        server.stop()
        setups.append(server.setup_s)
    rounds: List[dict] = []
    rss = 0.0
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < ctx.seconds:
        index = len(rounds)
        records_path = os.path.join(ctx.run_dir, f"records-{index}.jsonl")
        server = Server(env, os.path.join(ctx.run_dir, f"server-cache-{index}"), jobs)
        try:
            load = run_worker(
                "serve_mix",
                ["client", str(server.port), str(ctx.seed), str(index), str(jobs),
                 records_path],
                env, 170,
            )
            status, health = server.get("/healthz")
            rss = max(rss, peak_rss_mb(server.proc.pid))
        finally:
            server.stop()
        setups.append(server.setup_s)
        rounds.append({"records": _read_records(records_path), "wall_s": load["wall_s"],
                       "counters": json.loads(health)["metrics"] if status == 200 else {}})

    # The first round's responses are checked against the oracle; every
    # later round must answer each request with the same bytes.
    records_path = os.path.join(ctx.run_dir, "records-0.jsonl")
    records = rounds[0]["records"]
    oracle = run_worker("serve_mix", ["oracle", records_path, str(jobs)], env, 170)
    failed = oracle["failed"]
    failures = list(oracle["failures"])
    first = {r["key"]: r["response"] for r in records}
    for number, later in enumerate(rounds[1:], 1):
        for record in later["records"]:
            if record["status"] != 200 or record["response"] != first[record["key"]]:
                failed += 1
                failures.append(
                    f"round {number} request {record['key']}: status "
                    f"{record['status']}, response differs from round 0"
                )

    every = [r for round_ in rounds for r in round_["records"]]
    singles = best_times((r["key"], r["latency_s"] * 1e3) for r in every if r["kind"] == "check")
    batches = best_times((r["key"], r["latency_s"] * 1e3) for r in every if r["kind"] == "batch")
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "op_p50_ms": median(list(singles.values())),
        "op_p90_ms": percentile(list(singles.values()), 0.9),
        "bulk_ms": median(list(batches.values())),
        "work_per_s": len(records) / min(r["wall_s"] for r in rounds),
    }
    samples = {
        "setup_s": len(setups), "op_ms": len(singles), "bulk_ms": len(batches),
        "timings_per_request": len(rounds), "requests": len(records),
        "repeats": sum(r["kind"] == "repeat" for r in records),
        "requests_per_s_all": [round(len(records) / r["wall_s"], 2) for r in rounds],
    }
    counters = rounds[-1]["counters"]
    layers = {}
    attempted = len(every)
    if ctx.trace:
        replay = run_worker(
            "serve_mix",
            ["replay", records_path, ctx.spans_path,
             os.path.join(ctx.run_dir, "replay-cache")],
            env, 170,
        )
        inproc = run_worker(
            "serve_mix",
            ["inproc", records_path, os.path.join(ctx.run_dir, "inproc-cache")],
            env, 170,
        )
        attempted += 2 * len(records)
        for record, mine, real in zip(records, replay["digests"], inproc["digests"]):
            served = _digest(record["response"])
            if not mine == real == served:
                failed += 1
                failures.append(
                    f"request {record['index']}: replay/handle_request/served payloads differ"
                )
        layers = replay["layers"]
        layers["serve.transport_ms"] = median([
            singles[record["key"]] - wall
            for record, wall in zip(records, inproc["walls_ms"])
            if record["kind"] == "check"
        ])
        requests_seen = counters.get("serve_request", 0)
        layers["serve.cache_hit_ratio"] = (
            counters.get("serve_cache_hit", 0) / requests_seen if requests_seen else 0.0
        )
        layers["trace.overhead"] = sum(replay["walls_ms"]) / sum(inproc["walls_ms"])
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "notes": {"server_counters": counters, "oracle_programs": oracle["programs"]},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
