#!/usr/bin/env python
"""End-to-end smoke test for durable serving: kill -9, recover, roll.

Run directly (CI's restart-chaos job does).  The scenario, over plain
HTTP against a real ``repro serve --fleet 2 --journal-dir`` subprocess:

1. *abuse containment*: an over-quota tenant storms until its retry
   budget trips (429s);
2. *kill -9 mid-burst*: a keyed burst is in flight when the broker
   process is SIGKILLed — no drain, no goodbye;
3. *crash recovery*: a second broker on the same journal directory
   replays the admitted-but-unfinished requests, and resubmitting every
   idempotency key returns 200 with **exactly-once** backend work (the
   successor's cache-miss count stays at one compile per distinct
   design);
4. *containment survives*: the very first post-restart request from the
   pre-crash abuser is shed immediately off the checkpointed quota;
5. *zero-downtime roll*: ``POST /reload`` recycles both workers behind
   the live front end while background load sees no unexpected 5xx;
6. *journal overhead*: a latency budget — the mean journal append made
   by ten keyless cache hits costs < 5 % of their median latency — and
   a count: those hits fsync no record (the ``/healthz``
   ``synced_appends`` delta, less the throttled checkpoints), since an
   HTTP request acknowledges nothing before its response.  A failed
   count is a failure line; the ``BENCH_restart.json`` columns stay as
   they were;
7. *SIGINT == SIGTERM*: the final shutdown uses SIGINT and must drain
   cleanly to exit 0.

Emits ``BENCH_restart.json`` (gated columns are deterministic pass/fail
bits; timings are ``wall_*``-named and therefore ungated).  Exits 0 on
success, 1 with a diagnostic on any failure.
"""

import json
import os
import pathlib
import shutil
import signal
import socket
import statistics
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

#: The keyed burst: 12 requests over 3 distinct designs.
BURST = 12
GROUPS = (
    {"app": "stencil", "fpgas": 2},
    {"app": "stencil", "fpgas": 3},
    {"app": "knn", "fpgas": 2},
)
#: The abuser: one admitted request, then the retry budget trips and
#: refills at 0.001 tokens/s — far slower than this script runs.
QUOTAS = {
    "abuser": {
        "rate": 0.001, "burst": 1.0, "retry_rate": 0.001, "retry_burst": 1.0,
    }
}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post(port, body, timeout=120.0):
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
    status, payload = None, {}
    for attempt in range(attempts + 1):
        try:
            status, payload = post(port, body)
        except (ConnectionError, TimeoutError, urllib.error.URLError):
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


def wait_for_server(port, deadline_s=90.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            return get_health(port)
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise RuntimeError("repro serve never became healthy")


def start_server(port, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--fleet", "2",
         "--journal-dir", env["RESTART_SMOKE_JOURNAL"]],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def burst_body(index, key_prefix="burst"):
    body = dict(GROUPS[index % len(GROUPS)])
    body["idempotency_key"] = f"{key_prefix}-{index}"
    body["tenant"] = "burst"
    return body


def main() -> int:
    journal_dir = tempfile.mkdtemp(prefix="repro-restart-smoke-journal-")
    cache_dir = tempfile.mkdtemp(prefix="repro-restart-smoke-cache-")
    try:
        return smoke(journal_dir, cache_dir)
    finally:
        # Both servers have exited by now, pass or fail.
        shutil.rmtree(journal_dir, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)


def smoke(journal_dir: str, cache_dir: str) -> int:
    port = free_port()
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_CACHE_DIR=cache_dir,
        REPRO_SERVE_MAX_QUEUE="32",
        REPRO_SERVE_QUOTAS=json.dumps(QUOTAS),
        RESTART_SMOKE_JOURNAL=journal_dir,
    )
    failures = []
    bits = {
        "replayed_ok": 0, "resubmit_ok": 0, "exactly_once": 0,
        "abuser_contained": 0, "reload_ok": 0, "no_unexpected_5xx": 0,
        "overhead_ok": 0, "sigint_clean": 0,
    }
    wall = {"burst": 0.0, "recovery": 0.0, "reload": 0.0,
            "hit_ms": 0.0, "append_ms": 0.0}
    output_a = b""
    output_b = b""

    # ---- phase 1: first broker, abuse, keyed burst, kill -9 ------------
    server = start_server(port, env)
    try:
        wait_for_server(port)

        # Trip the abuser's retry budget: one 200, then a 429 storm.
        status, _ = post(port, {"app": "stencil", "fpgas": 2,
                                "tenant": "abuser"})
        if status != 200:
            failures.append(f"abuser's first request got {status}, not 200")
        for _ in range(3):
            status, _ = post(port, {"app": "stencil", "fpgas": 2,
                                    "tenant": "abuser"})
            if status != 429:
                failures.append(f"abuser storm got {status}, expected 429")

        results = {}
        lock = threading.Lock()

        def fire(index):
            try:
                status, payload = post(port, burst_body(index))
            except (ConnectionError, TimeoutError, urllib.error.URLError):
                status, payload = None, {}  # the kill ate this one
            with lock:
                results[index] = status

        burst_start = time.monotonic()
        threads = [
            threading.Thread(target=fire, args=(index,))
            for index in range(BURST)
        ]
        for thread in threads:
            thread.start()

        # Kill only once admitted-but-unfinished work provably exists,
        # so the successor has something to replay.
        kill_deadline = time.monotonic() + 60.0
        while time.monotonic() < kill_deadline:
            try:
                counters = get_health(port)["counters"]
            except (urllib.error.URLError, OSError):
                break
            backlog = (
                counters["submitted"] - counters["completed"]
                - counters["failed"] - counters["shed"]
            )
            if backlog >= 2:
                break
            time.sleep(0.02)
        server.send_signal(signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=120.0)
        wall["burst"] = time.monotonic() - burst_start
    finally:
        try:
            server.kill()
        except OSError:
            pass
        output_a, _ = server.communicate()

    # ---- phase 2: successor on the same journal dir --------------------
    recovery_start = time.monotonic()
    server = start_server(port, env)
    sigint_sent = False
    try:
        health = wait_for_server(port)
        wall["recovery"] = time.monotonic() - recovery_start
        journal_doc = health.get("journal", {})
        if not journal_doc.get("enabled"):
            failures.append(f"successor journal not enabled: {journal_doc}")
        replayed = journal_doc.get("replayed_at_boot", 0)
        bits["replayed_ok"] = int(replayed >= 1)
        if not bits["replayed_ok"]:
            failures.append(
                f"kill -9 left nothing to replay (replayed={replayed}); "
                f"burst statuses: {results}"
            )

        # Containment first — before any traffic could refill anything:
        # the checkpointed quota must shed the abuser instantly.
        status, payload = post(port, {"app": "stencil", "fpgas": 2,
                                      "tenant": "abuser"})
        bits["abuser_contained"] = int(status == 429)
        if status != 429:
            failures.append(
                f"pre-crash abuser was admitted after restart ({status}); "
                f"quota checkpoint lost: {payload.get('message', '')}"
            )

        # Idempotent resubmission: every key again, expecting 200 for
        # all — served by the journal's dedup store, the replayed
        # in-flight entries, or (for keys that never reached broker A)
        # a fresh compile.
        resubmit_statuses = []
        for index in range(BURST):
            status, _ = post_with_retry(port, burst_body(index))
            resubmit_statuses.append(status)
        bits["resubmit_ok"] = int(
            all(status == 200 for status in resubmit_statuses)
        )
        if not bits["resubmit_ok"]:
            failures.append(f"resubmission statuses: {resubmit_statuses}")

        # Exactly once: across both brokers every distinct design was
        # compiled at most once.  The disk cache is shared and content-
        # addressed, so the successor's misses are real recompiles; with
        # the predecessor's compiles cached, misses stay <= the number
        # of distinct designs ever submitted (groups + the abuser's).
        health = get_health(port)
        misses = health["cache"]["misses"]
        distinct_designs = len(GROUPS) + 1  # + the abuser's stencil
        bits["exactly_once"] = int(misses <= distinct_designs)
        if not bits["exactly_once"]:
            failures.append(
                f"{misses} cache misses at the successor, expected at most "
                f"{distinct_designs}: duplicate compiles slipped through"
            )
        dedup_evidence = (
            health["journal"]["dedup_hits"]
            + health["counters"]["idem_joined"]
            + health["counters"]["coalesced"]
            + (health["cache"]["hits"])
        )
        if dedup_evidence < BURST - len(GROUPS):
            failures.append(
                f"too little dedup evidence for {BURST} keyed requests: "
                f"{dedup_evidence}"
            )

        # ---- phase 3: zero-downtime rolling restart under load --------
        load_statuses = []
        stop_load = threading.Event()

        def background_load():
            index = 0
            while not stop_load.is_set():
                try:
                    status, _ = post(port, burst_body(index))
                    load_statuses.append(status)
                except (ConnectionError, TimeoutError,
                        urllib.error.URLError):
                    load_statuses.append(-1)
                index += 1

        loaders = [
            threading.Thread(target=background_load) for _ in range(2)
        ]
        for loader in loaders:
            loader.start()
        reload_start = time.monotonic()
        reload_request = urllib.request.Request(
            f"http://127.0.0.1:{port}/reload", data=b"{}", method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                reload_request, timeout=300.0
            ) as response:
                summary = json.loads(response.read())
                reload_status = response.status
        except urllib.error.HTTPError as err:
            summary = json.loads(err.read())
            reload_status = err.code
        wall["reload"] = time.monotonic() - reload_start
        stop_load.set()
        for loader in loaders:
            loader.join(timeout=120.0)

        bits["reload_ok"] = int(
            reload_status == 200 and summary.get("recycled") == 2
            and summary.get("killed") == 0
        )
        if not bits["reload_ok"]:
            failures.append(
                f"reload returned {reload_status}: {summary}"
            )
        # The contract: no client-visible 5xx beyond drain 503s (and no
        # transport drops at all — the front end never went away).
        unexpected = [
            status for status in load_statuses
            if status not in (200, 429, 503)
        ]
        bits["no_unexpected_5xx"] = int(not unexpected)
        if unexpected:
            failures.append(
                f"rolling restart surfaced unexpected statuses "
                f"{sorted(set(unexpected))} across {len(load_statuses)} "
                f"requests"
            )

        # ---- phase 4: journal append overhead vs cache-hit latency ----
        # Keyless requests take the full path — admission, the accept
        # append (unsynced: an HTTP request waits for its result, so
        # there is no acceptance to acknowledge), the cache hit, the
        # dispatched and done appends — which is exactly the latency the
        # appends must stay under 5 % of.  Only the appends these hits
        # make are timed: the broker's earlier records (its first appends
        # at boot, the burst's fsync'd client-keyed ones) are not theirs.
        # (A keyed resubmit short-circuits at the journal's dedup store
        # and never reaches the cache, so it is not the right baseline.)
        before = get_health(port)["journal"]
        hits = []
        for _ in range(10):
            hit_start = time.monotonic()
            status, _ = post_with_retry(port, dict(GROUPS[0]))
            hits.append(time.monotonic() - hit_start)
            if status != 200:
                failures.append(f"warm cache-hit request got {status}")
        wall["hit_ms"] = statistics.median(hits) * 1000.0
        after = get_health(port)["journal"]
        appends = max(1, after["appends"] - before["appends"])
        wall["append_ms"] = (
            (after["append_wall_s"] - before["append_wall_s"])
            / appends * 1000.0
        )
        bits["overhead_ok"] = int(
            wall["append_ms"] < 0.05 * wall["hit_ms"]
        )
        if not bits["overhead_ok"]:
            failures.append(
                f"journal append overhead {wall['append_ms']:.3f} ms is not "
                f"< 5% of the {wall['hit_ms']:.1f} ms cache-hit latency"
            )
        # Checkpoints are fsync'd; nothing else these hits write may be.
        synced = (after["synced_appends"] - before["synced_appends"]) - (
            after["checkpoints"] - before["checkpoints"]
        )
        if synced:
            failures.append(
                f"ten keyless cache hits fsync'd {synced} journal records; "
                f"a keyless hit must fsync none"
            )

        # ---- phase 5: SIGINT drains exactly like SIGTERM ---------------
        server.send_signal(signal.SIGINT)
        sigint_sent = True
        try:
            output_b, _ = server.communicate(timeout=120.0)
        except subprocess.TimeoutExpired:
            server.kill()
            output_b, _ = server.communicate()
            failures.append("SIGINT drain hung; server killed")
        bits["sigint_clean"] = int(server.returncode == 0)
        if not bits["sigint_clean"]:
            failures.append(
                f"SIGINT drain exited {server.returncode}, expected 0"
            )
    finally:
        if not sigint_sent:
            try:
                server.kill()
            except OSError:
                pass
            output_b, _ = server.communicate()

    emit_bench_record(
        "restart",
        result=(
            ["requests", "replayed_ok", "resubmit_ok", "exactly_once",
             "abuser_contained", "reload_ok", "no_unexpected_5xx",
             "overhead_ok", "sigint_clean",
             "wall_burst_s", "wall_recovery_s", "wall_reload_s",
             "wall_hit_ms", "wall_append_ms"],
            [[BURST, bits["replayed_ok"], bits["resubmit_ok"],
              bits["exactly_once"], bits["abuser_contained"],
              bits["reload_ok"], bits["no_unexpected_5xx"],
              bits["overhead_ok"], bits["sigint_clean"],
              round(wall["burst"], 3), round(wall["recovery"], 3),
              round(wall["reload"], 3), round(wall["hit_ms"], 3),
              round(wall["append_ms"], 4)]],
        ),
        wall_seconds=wall["burst"] + wall["recovery"] + wall["reload"],
        out_dir=os.environ.get("REPRO_BENCH_JSON_DIR", "."),
    )

    if failures:
        print("restart smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        print("--- first server output ---")
        print(output_a.decode(errors="replace")[-3000:])
        print("--- second server output ---")
        print(output_b.decode(errors="replace")[-3000:])
        return 1
    print(
        f"restart smoke ok: kill -9 mid-burst recovered in "
        f"{wall['recovery']:.1f}s with exactly-once completion, abuser "
        f"still shed, rolling restart recycled 2 workers with no "
        f"unexpected errors, SIGINT drained clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
