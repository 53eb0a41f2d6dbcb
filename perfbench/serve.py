"""The ``serve_mixed`` workload: plain HTTP against ``repro serve --fleet
<nproc> --journal-dir <dir>``.

A run starts :data:`SETUPS` servers one after the other, each under its
own ``PYTHONHASHSEED`` derived from the workload seed.  Each server is
set up (started, warmed, then primed with :data:`PRIME_S` of hits) and
then measured for an equal share of ``--seconds``: ``nproc`` closed-loop
clients send requests over the warm set, and every tenth request of a
client is a cold miss, staggered between clients.  The metrics pool the
servers' requests, so a compile time that depends on the hash seed is
averaged over several of them.

Compile work (misses, warm-ups) and front-end CPU are scaled to the
speed probe's reference speed by a :class:`util.HostProbe` that runs
through the whole run.  Hit latency and the request rate are not: most
of a fleet hit is the fleet monitor's 50 ms poll, which does not follow
the host's speed.  Hit latency is the best decile over windows
(``util.calm``) instead.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers
import tracer
import util

#: Servers per run, each set up and then measured; setup_s is the median
#: of their set-ups.  Each server has its own hash seed, and a compile's
#: time depends on it, so the pooled metrics average over this many.
SETUPS = 3
#: One request in this many of each client is a cold miss.
MISS_EVERY = 10
#: Supply of distinct misses per second of --seconds: room for 10
#: misses/s (100 req/s), six times today's rate.  Should a faster program
#: use a server's share, its clients stop and its measured window ends
#: there; running out is a limit of the benchmark, not a failure.
MISSES_PER_S = 10
#: Seconds of hits each server gets after its warm-up, before timing.
PRIME_S = 1.5
#: Windows per server's measured load for the hit latency metrics.
WINDOWS_PER_LOAD = 3
REQUEST_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def exchange(port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange on a fresh connection: ``(status, raw body)``.

    Status 0 means the exchange itself failed (refused, reset, timeout).
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def request(port: int, method: str, path: str, body: bytes | None = None):
    """:func:`exchange` with the body decoded: ``(status, document)``."""
    status, data = exchange(port, method, path, body)
    try:
        return status, json.loads(data) if data else {}
    except ValueError:
        return 0, {}


def _check(status: int, data: bytes, check, *args) -> list[str]:
    """Problems with one timed response; a non-200 status is one too."""
    if status != 200:
        return [f"HTTP {status}"]
    try:
        document = json.loads(data)
    except ValueError:
        return ["response is not JSON"]
    return check(document, *args)


class Server:
    """One ``repro serve`` process and the workers it forks."""

    def __init__(self, work: str, index: int, hash_seed: int, fleet: int,
                 trace_dir: str | None) -> None:
        self.port = _free_port()
        argv = ["serve", "--port", str(self.port)]
        if fleet:
            argv += ["--fleet", str(fleet),
                     "--journal-dir", os.path.join(work, f"journal-{index}")]
        if trace_dir:
            cmd = [sys.executable, os.path.join(util.BENCH_DIR, "traced_serve.py"),
                   "--trace-dir", trace_dir, *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        env = util.program_env(
            hash_seed, REPRO_CACHE_DIR=os.path.join(work, f"cache-{index}")
        )
        self.log_path = os.path.join(work, f"server-{index}.log")
        with open(self.log_path, "w") as log_file:
            self.proc = subprocess.Popen(
                cmd, env=env, cwd=util.ROOT, stdout=log_file,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        limit = time.monotonic() + timeout_s
        while time.monotonic() < limit:
            if self.proc.poll() is not None:
                break
            status, _ = request(self.port, "GET", "/healthz")
            if status == 200:
                return
            time.sleep(0.02)
        with open(self.log_path) as handle:
            util.log(handle.read())
        raise RuntimeError("repro serve did not become ready")

    def health(self) -> dict:
        status, document = request(self.port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return document

    def pids(self) -> list[int]:
        return [self.proc.pid] + util.child_pids(self.proc.pid)

    def stop(self) -> None:
        workers = util.child_pids(self.proc.pid)
        util.stop_process(self.proc)
        util.wait_gone(workers)


def warm_up(server: Server, bodies: list[dict], encoded: list[bytes]) -> dict:
    """Compile and simulate the graph form of each warm design cold, then
    record the reference response of each body (app-name and graph
    forms).  Both forms of a design have the same tasks, which is all
    :func:`checks.check_served_miss` compares."""
    refs: list[dict | None] = [None] * len(bodies)
    designs, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    for i in range(0, len(bodies), 2):
        graph = bodies[i + 1]["graph"]
        status, document = request(server.port, "POST", "/simulate", encoded[i + 1])
        attempted += 1
        if status != 200:
            failed += 1
            continue
        designs.append((document["latency_ms"], document["frequency_mhz"]))
        problems += checks.check_served_miss(document, graph)
        for j in (i, i + 1):
            status, document = request(server.port, "POST", "/compile", encoded[j])
            attempted += 1
            if status != 200:
                failed += 1
                continue
            refs[j] = document
            problems += checks.check_served_miss(document, graph)
    end = time.perf_counter()
    return {"refs": refs, "total_s": end - start, "span": (start, end),
            "designs": designs, "problems": problems, "attempted": attempted,
            "failed": failed}


def closed_loop(server: Server, encoded: list[bytes], refs: list,
                misses: list[dict], miss_encoded: list[bytes], seconds: float,
                clients: int, seed: int) -> dict:
    """``clients`` callers that each wait for a reply; every MISS_EVERY-th
    request of a client is a miss, staggered between clients so that they
    do not start out in lockstep.  The loop ends after ``seconds`` or when
    the distinct misses run out.  Responses are checked after the loop,
    so the clients only time HTTP."""
    replies: list[tuple] = []  # (miss index or None, warm index, status, body, sent, done)
    next_miss = itertools.count()
    exhausted = threading.Event()
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = random.Random(f"serve_mixed:{seed}:{index}")
        offset = (MISS_EVERY // 2 + index * MISS_EVERY // clients) % MISS_EVERY
        for i in itertools.count():
            if time.perf_counter() >= stop_at or exhausted.is_set():
                return
            m = next(next_miss) if misses and i % MISS_EVERY == offset else None
            if m is not None and m >= len(misses):
                exhausted.set()
                return
            j = rng.randrange(len(encoded))
            body = miss_encoded[m] if m is not None else encoded[j]
            sent = time.perf_counter()
            status, data = exchange(server.port, "POST", "/compile", body)
            with lock:
                replies.append((m, j, status, data, sent, time.perf_counter()))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    cpu_before = util.cpu_seconds(server.proc.pid)
    start = time.perf_counter()
    stop_at = start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    cpu = util.cpu_seconds(server.proc.pid) - cpu_before

    hits, misses_done, problems = [], [], []
    failed = 0
    for m, j, status, data, sent, done in replies:
        if m is None:
            found = _check(status, data, checks.check_served_hit, refs[j])
        else:
            found = _check(status, data, checks.check_served_miss,
                           misses[m]["graph"])
        problems += [p for p in found if not p.startswith("HTTP")]
        failed += bool(found)
        taken = util.FAILED_LATENCY if found else done - sent
        (hits if m is None else misses_done).append((taken, sent, done))
    return {"hit": hits, "miss": misses_done, "problems": problems,
            "failed": failed, "attempted": len(replies), "cpu_s": cpu,
            "span": (start, end),
            "service_ms": [(r[5] - r[4]) * 1e3 for r in replies if r[2] == 200],
            "misses_exhausted": exhausted.is_set()}


def _generate_bodies(work: str, seed: int, misses: int) -> tuple[dict, float]:
    """Request bodies, built by the program's own graph builders in a
    child process (the load generator itself never imports the program)."""
    start = time.perf_counter()
    path = os.path.join(work, "bodies.json")
    subprocess.run(
        [sys.executable, os.path.join(util.BENCH_DIR, "points.py"),
         "--seed", str(seed), "--misses", str(misses), "--out", path],
        env=util.program_env(0), cwd=util.ROOT, check=True, timeout=120,
    )
    with open(path) as handle:
        bodies = json.load(handle)
    return bodies, time.perf_counter() - start


class _Phase:
    """One server's set-up and, optionally, its measured load."""

    def __init__(self, work, index, hash_seed, bodies, encoded, trace_dir=None):
        start = time.perf_counter()
        self.server = Server(work, index, hash_seed, util.nproc(), trace_dir)
        try:
            self.server.wait_ready()
            self.warm = warm_up(self.server, bodies["warm"], encoded)
            if any(ref is None for ref in self.warm["refs"]):
                raise RuntimeError("warm-up failed; nothing to measure")
            # Hits only, so that every fleet worker holds the warm set in
            # its own memory cache before the timed load.
            self.prime = closed_loop(self.server, encoded, self.warm["refs"],
                                     [], [], PRIME_S, util.nproc(), 0)
        except BaseException:
            self.server.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def measure(self, encoded, misses, miss_encoded, seconds, seed):
        server = self.server
        refs = self.warm["refs"]
        health_before = server.health()
        load = closed_loop(server, encoded, refs, misses, miss_encoded,
                           seconds, util.nproc(), seed)
        load["health"] = (health_before, server.health())
        load["rss_mb"] = max(util.vm_hwm_mb(p) for p in server.pids())
        return load

    def stop(self):
        self.server.stop()


def _encode(bodies: dict) -> tuple[list[bytes], list[bytes]]:
    warm = [json.dumps(b).encode() for b in bodies["warm"]]
    miss = [json.dumps(b).encode() for b in bodies["miss"]]
    return warm, miss


def _hit_ms(loads: list[dict], q: float) -> float:
    """Best decile over windows of the ``q``-quantile hit latency; each
    load is cut into WINDOWS_PER_LOAD windows by completion time."""
    values = []
    for load in loads:
        start, end = load["span"]
        width = (end - start) / WINDOWS_PER_LOAD
        for k in range(WINDOWS_PER_LOAD):
            inside = [x for x, _, done in load["hit"]
                      if start + k * width <= done < start + (k + 1) * width]
            if inside:
                values.append(util.percentile(inside, q))
    return util.latency_ms(util.calm(values))


def _tally(loads: list[dict], warms: list[dict]) -> tuple[list[str], int, int]:
    """(problems, attempted, failed) over measured loads and warm-ups.

    A timed request fails when its reply is not 200 or fails its check;
    each problem a warm-up check finds is a failed operation too.
    """
    problems = [p for x in loads + warms for p in x["problems"]]
    attempted = sum(x["attempted"] for x in loads + warms)
    failed = (sum(x["failed"] for x in loads)
              + sum(w["failed"] + len(w["problems"]) for w in warms))
    return problems, attempted, failed


def run(seed: int, seconds: float, trace: bool) -> dict:
    work = util.make_workdir("serve_mixed")
    try:
        bodies, gen_s = _generate_bodies(work, seed, int(MISSES_PER_S * seconds) + SETUPS)
        encoded, miss_encoded = _encode(bodies)
        if trace:
            return _traced(work, seed, seconds, bodies, encoded, miss_encoded)
        return _untraced(work, seed, seconds, bodies, encoded, miss_encoded, gen_s)
    finally:
        util.remove_workdir(work)


def _untraced(work, seed, seconds, bodies, encoded, miss_encoded, gen_s) -> dict:
    setups, warms, primes, loads = [], [], [], []
    share = len(miss_encoded) // SETUPS
    with util.HostProbe() as host:
        for index, hash_seed in enumerate(util.hash_seeds(seed, "serve_mixed", SETUPS)):
            phase = _Phase(work, index, hash_seed, bodies, encoded)
            try:
                mine = slice(index * share, (index + 1) * share)
                loads.append(phase.measure(encoded, bodies["miss"][mine],
                                           miss_encoded[mine], seconds / SETUPS, seed))
            finally:
                phase.stop()
            setups.append(phase.setup_s)
            warms.append(phase.warm)
            primes.append(phase.prime)

    def scaled(seconds_taken: float, start: float, end: float) -> float:
        return util.at_reference_speed(seconds_taken, host.reading(start, end))

    misses = [x if x == util.FAILED_LATENCY else scaled(x, a, b)
              for load in loads for x, a, b in load["miss"]]
    measured_s = sum(b - a for a, b in (load["span"] for load in loads))
    completed = sum(len(load["service_ms"]) for load in loads)
    metrics = {
        "setup_s": gen_s + statistics.median(setups),
        "cold_total_s": statistics.median(scaled(w["total_s"], *w["span"]) for w in warms),
        "design_latency_ms": util.geomean([d[0] for w in warms for d in w["designs"]]),
        "design_fmax_mhz": util.geomean([d[1] for w in warms for d in w["designs"]]),
        "hit_p50_ms": _hit_ms(loads, 0.5),
        "hit_p90_ms": _hit_ms(loads, 0.9),
        "hit_cpu_ms": sum(scaled(load["cpu_s"], *load["span"]) for load in loads)
        * 1e3 / max(1, completed),
        "miss_p50_ms": util.latency_ms(util.percentile(misses, 0.5)),
        "req_rps": completed / measured_s,
        "peak_rss_mb": max(load["rss_mb"] for load in loads),
    }
    problems, attempted, failed = _tally(loads + primes, warms)
    notes = {
        "requests": {"hit": sum(len(x["hit"]) for x in loads),
                     "miss": len(misses),
                     "warm_up": sum(w["attempted"] for w in warms),
                     "priming": sum(x["attempted"] for x in primes)},
        "measured_s": measured_s,
        "misses_exhausted": any(load["misses_exhausted"] for load in loads),
        "setup_s_samples": setups,
        "warm_up_s": [w["total_s"] for w in warms],
        "measured": {
            "cold_total_s": statistics.median(w["total_s"] for w in warms),
            "miss_p50_ms": util.latency_ms(util.percentile(
                [x for load in loads for x, _, _ in load["miss"]], 0.5)),
            "probe_ms": [host.reading(*load["span"]) * 1e3 for load in loads],
        },
        "problems": problems[:10],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": not problems, "notes": notes}


def _traced(work, seed, seconds, bodies, encoded, miss_encoded) -> dict:
    """An untraced then a traced server on the same hash seed: the traced
    one gives the spans, the pair gives the tracing overhead."""
    hash_seed = util.hash_seeds(seed, "serve_mixed", 1)[0]
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    loads, warms, primes = [], [], []
    half = len(miss_encoded) // 2
    for index, directory in enumerate((None, trace_dir)):
        phase = _Phase(work, index, hash_seed, bodies, encoded, trace_dir=directory)
        try:
            mine = slice(index * half, (index + 1) * half)
            load = phase.measure(encoded, bodies["miss"][mine], miss_encoded[mine],
                                 seconds / 2, seed)
        finally:
            phase.stop()
        loads.append(load)
        warms.append(phase.warm)
        primes.append(phase.prime)
    problems, attempted, failed = _tally(loads + primes, warms)
    traced = loads[1]
    start, end = traced["span"]
    spans = [s for s in tracer.load_spans(trace_dir) if start <= s[2] <= end]
    before, after = traced["health"]

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    completed = len(traced["service_ms"])
    p50 = [_hit_ms([load], 0.5) for load in loads]
    facts = {
        "requests": completed,
        "client_mean_ms": statistics.fmean(traced["service_ms"]) if completed else 0.0,
        "fleet_workers": util.nproc(),
        "window_s": end - start,
        "journal_appends": delta("journal", "appends"),
        "cache.memory_hits": delta("cache", "memory_hits"),
        "cache.disk_hits": delta("cache", "disk_hits"),
        "cache.misses": delta("cache", "misses"),
        "cache.bytes_written": delta("cache", "bytes_written"),
        "broker.coalesced": delta("counters", "coalesced"),
        "broker.shed": delta("counters", "shed"),
        "trace.overhead_frac": p50[1] / p50[0] - 1.0,
    }
    metrics = layers.compute(spans, facts)
    missing = layers.missing_entries(spans, "serve_mixed")
    if metrics["ilp.limit_stops"]:
        util.log(f"serve_mixed: {metrics['ilp.limit_stops']} miss solve(s) "
                 f"stopped on a time limit")
        failed += metrics["ilp.limit_stops"]
    notes = {
        "unreached": missing,
        "not_applicable": ["core.hash_divergent_points", "cache.key_drift_points"],
        "untraced_hit_p50_ms": p50[0],
        "traced_hit_p50_ms": p50[1],
        "spans": len(spans),
        "problems": problems[:10],
    }
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed + len(missing), "correct": not problems,
            "notes": notes}
