#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve --fleet`` under chaos.

Run directly (CI's fleet-chaos job does): spawns a real
``repro serve --fleet 3`` subprocess, drives a concurrent burst of
requests — ~90 % of them duplicates across a handful of content
fingerprints — SIGKILLs one worker process mid-burst, and asserts the
fleet's promises hold over plain HTTP:

1. *zero lost requests*: every admitted request eventually returns 200,
   kill -9 notwithstanding (failover + respawn visible in the health
   counters);
2. *duplicates are deduplicated*: >= 80 % of the duplicate requests are
   served by single-flight coalescing or the shared artifact cache
   instead of a second backend compile;
3. *graceful drain*: SIGTERM finishes in-flight work, the server exits
   0, and no worker process outlives it.

Emits ``BENCH_serve_fleet.json`` (gated columns are deterministic
pass/fail bits; latency columns are ``wall_*``-named and therefore
ungated).  Exits 0 on success, 1 with a diagnostic on any failure.
"""

import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "src"))

from repro.bench.record import emit_bench_record  # noqa: E402

#: The burst: 40 requests over 5 distinct designs -> 35 duplicates.
BURST = 40
GROUPS = (
    {"app": "stencil", "fpgas": 2},
    {"app": "stencil", "fpgas": 3},
    {"app": "pagerank", "fpgas": 2},
    {"app": "knn", "fpgas": 2},
    {"app": "cnn", "fpgas": 2},
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post(port, body, timeout=120.0):
    """POST /compile; returns (http_status, parsed_body)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/compile",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post_with_retry(port, body, attempts=6):
    """POST, honouring Retry-After-style backpressure (429/503).

    Transient transport drops (connection reset while a worker is being
    kill -9'd) retry too: compiles are idempotent under their content
    fingerprint, so a resubmit coalesces or cache-hits — never doubles.
    """
    status, payload = None, {}
    for attempt in range(attempts + 1):
        try:
            status, payload = post(port, body)
        except (ConnectionError, TimeoutError):
            if attempt == attempts:
                raise
            time.sleep(0.5)
            continue
        if status not in (429, 503):
            break
        time.sleep(min(float(payload.get("retry_after_s", 1.0)), 5.0))
    return status, payload


def get_health(port):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=10.0
    ) as response:
        return json.loads(response.read())


def wait_for_server(port, deadline_s=60.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            return get_health(port)
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise RuntimeError("repro serve --fleet never became healthy")


def worker_pids(health) -> list[int]:
    return [
        process["pid"]
        for process in health.get("fleet", {}).get("processes", [])
        if process.get("pid")
    ]


def pick_victim(port, deadline_s=30.0) -> int | None:
    """A busy worker's pid, or any live worker's if none goes busy."""
    fallback = None
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            processes = get_health(port)["fleet"]["processes"]
        except (urllib.error.URLError, OSError, KeyError):
            time.sleep(0.05)
            continue
        for process in processes:
            if process.get("alive"):
                fallback = process["pid"]
                if process.get("state") == "busy":
                    return process["pid"]
        time.sleep(0.05)
    return fallback


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-fleet-smoke-cache-")
    try:
        return smoke(cache_dir)
    finally:
        # The server has exited by now, pass or fail.
        shutil.rmtree(cache_dir, ignore_errors=True)


def smoke(cache_dir: str) -> int:
    port = free_port()
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        # The shared disk tier lives in a scratch dir: all three workers
        # flock the same artifacts, none touches the user's real cache.
        REPRO_CACHE_DIR=cache_dir,
        # Queue must hold the burst's distinct leaders comfortably;
        # duplicates bypass admission entirely.
        REPRO_SERVE_MAX_QUEUE="32",
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--fleet", "3"],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    failures = []
    burst_wall = 0.0
    dedup_pct = 0.0
    lost = BURST
    crash_recovered = False
    pids = []
    try:
        health = wait_for_server(port)
        if health.get("mode") != "fleet":
            failures.append(f"server is not in fleet mode: {health.get('mode')}")
        before_cache = health["cache"]

        # -- phase 1: duplicate-heavy burst, kill -9 one worker mid-way --
        results = []
        lock = threading.Lock()

        def fire(i):
            body = dict(GROUPS[i % len(GROUPS)])
            status, payload = post_with_retry(port, body)
            with lock:
                results.append((status, payload))

        burst_start = time.monotonic()
        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(BURST)
        ]
        for thread in threads:
            thread.start()

        victim = pick_victim(port)
        if victim is None:
            failures.append("never saw a live fleet worker to kill")
        else:
            os.kill(victim, signal.SIGKILL)

        for thread in threads:
            thread.join(timeout=300.0)
        burst_wall = time.monotonic() - burst_start

        statuses = sorted(status for status, _ in results)
        ok = [payload for status, payload in results if status == 200]
        lost = BURST - len(ok)
        if lost:
            failures.append(
                f"{lost} of {BURST} requests lost (statuses {statuses})"
            )

        health = get_health(port)
        fleet_counters = health["fleet"]["counters"]
        crash_recovered = (
            fleet_counters["worker_crashes"] >= 1
            and fleet_counters["respawns"] >= 1
        )
        if not crash_recovered:
            failures.append(
                f"kill -9 left no crash/respawn evidence: {fleet_counters}"
            )

        duplicates = BURST - len(GROUPS)
        cache_hits = health["cache"]["hits"] - before_cache["hits"]
        coalesced = health["counters"]["coalesced"]
        deduplicated = coalesced + cache_hits
        dedup_pct = 100.0 * deduplicated / duplicates
        if dedup_pct < 80.0:
            failures.append(
                f"only {dedup_pct:.0f}% of {duplicates} duplicates were "
                f"deduplicated (coalesced={coalesced}, cache_hits={cache_hits})"
            )

        # -- phase 2: graceful drain, no orphans ------------------------
        pids = worker_pids(health)
        if len(pids) != 3:
            failures.append(f"expected 3 fleet workers, saw pids {pids}")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=90.0)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()

    drain_clean = server.returncode == 0
    if not drain_clean:
        failures.append(
            f"SIGTERM drain exited {server.returncode}, expected 0"
        )
    time.sleep(0.2)  # give the kernel a beat to reap
    orphans = []
    for pid in pids:
        try:
            os.kill(pid, 0)
            orphans.append(pid)
        except OSError:
            pass
    if orphans:
        failures.append(f"worker processes outlived the server: {orphans}")
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    emit_bench_record(
        "serve_fleet",
        result=(
            ["requests", "lost", "dedup_ok", "crash_recovered",
             "drain_clean", "wall_burst_s"],
            [[BURST, lost, int(dedup_pct >= 80.0), int(crash_recovered),
              int(drain_clean), round(burst_wall, 3)]],
        ),
        wall_seconds=burst_wall,
        out_dir=os.environ.get("REPRO_BENCH_JSON_DIR", "."),
    )

    if failures:
        print("fleet smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        print("--- server output ---")
        print(output.decode(errors="replace")[-4000:])
        return 1
    print(
        f"fleet smoke ok: {BURST}/{BURST} requests survived kill -9, "
        f"{dedup_pct:.0f}% of duplicates deduplicated, drain exited clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
