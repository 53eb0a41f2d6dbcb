#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` under a wedged ILP backend.

Run directly (CI's serve job does): spawns a real ``repro serve``
subprocess whose ILP solves are chaos-wedged (through the launcher in
:mod:`tests.chaos.wedge`, which also cuts the breaker's reset to 1 s),
drives a concurrent burst of mixed-deadline requests at it, and asserts
the serving layer's three promises hold over plain HTTP:

1. requests come back *on time and degraded* (``floorplan_tier`` in the
   response, ``degraded_tier`` in the health counters);
2. the burst overruns the bounded queue and is *shed* with 429 +
   ``Retry-After`` (``shed`` counter);
3. the ILP breaker *opens* under consecutive solver failures and, once
   the wedge budget is spent, recovers through a half-open probe —
   the full open -> half_open -> closed cycle visible in the health
   JSON's transition history.

Exits 0 on success, 1 with a diagnostic on any failed assertion.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parents[2]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post(port, body, timeout=60.0):
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


def get_health(port):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=10.0
    ) as response:
        return json.loads(response.read())


def wait_for_server(port, deadline_s=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            return get_health(port)
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise RuntimeError("repro serve never became healthy")


def main() -> int:
    port = free_port()
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        # One worker, a queue of one: a concurrent burst must shed.
        REPRO_SERVE_WORKERS="1",
        REPRO_SERVE_MAX_QUEUE="1",
        # Keep the subprocess's artifact cache off this machine's disk.
        REPRO_CACHE_MEMORY_ONLY="1",
    )
    # The first 4 ILP solves wedge for 0.3s then fail; afterwards the
    # backend has "recovered" so a half-open probe can close the breaker
    # (3 failures open it) again.
    server = subprocess.Popen(
        [sys.executable, str(REPO / "tests" / "chaos" / "wedge.py"),
         "--seconds", "0.3", "--count", "4",
         "serve", "--port", str(port)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    failures = []
    try:
        wait_for_server(port)

        # -- phase 1: a concurrent burst of mixed-deadline requests ------
        results = []
        lock = threading.Lock()

        def fire(deadline_s, priority):
            status, body = post(port, {
                "app": "stencil",
                "fpgas": 2,
                "deadline_s": deadline_s,
                "class": priority,
                "use_cache": False,
            })
            with lock:
                results.append((status, body))

        threads = [
            threading.Thread(
                target=fire,
                args=(3.0 if i % 2 else 8.0,
                      "interactive" if i % 2 else "batch"),
            )
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        statuses = sorted(status for status, _ in results)
        ok = [body for status, body in results if status == 200]
        shed = [body for status, body in results if status == 429]
        degraded = [
            body for body in ok if body.get("floorplan_tier") != "full"
        ]
        if not ok:
            failures.append(f"no request succeeded (statuses {statuses})")
        if not shed:
            failures.append(f"burst was never shed (statuses {statuses})")
        if not degraded:
            failures.append("no on-time degraded response in the burst")
        for body in shed:
            if "retry_after_s" not in body:
                failures.append(f"shed response lacks retry_after_s: {body}")

        health = get_health(port)
        counters = health["counters"]
        if counters["shed"] < 1:
            failures.append(f"health counters show no sheds: {counters}")
        if counters["degraded_tier"] < 1:
            failures.append(f"no degraded tiers counted: {counters}")
        ilp = health["breakers"]["ilp"]
        if "open" not in ilp["transitions"]:
            failures.append(f"ILP breaker never opened: {ilp}")

        # -- phase 2: cooldown, then a probe against the healed solver ---
        time.sleep(1.2)
        status, body = post(port, {
            "app": "stencil", "fpgas": 2, "deadline_s": 30.0,
            "use_cache": False,
        })
        if status != 200:
            failures.append(f"post-recovery request failed: {status} {body}")
        elif body.get("floorplan_tier") == "greedy":
            failures.append("post-recovery request still forced greedy")

        ilp = get_health(port)["breakers"]["ilp"]
        transitions = ilp["transitions"]
        if not ("open" in transitions and "half_open" in transitions
                and transitions[-1] == "closed"):
            failures.append(
                f"no open -> half_open -> closed cycle: {transitions}"
            )
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()

    if failures:
        print("serve smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        print("--- server output ---")
        print(output.decode(errors="replace")[-4000:])
        return 1
    print(
        "serve smoke ok: burst shed + degraded on time, breaker cycled "
        "open -> half_open -> closed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
