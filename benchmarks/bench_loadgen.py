#!/usr/bin/env python
"""Load-generator proof of the tenant-aware overload controls.

Run directly (CI's loadgen-smoke job does): spawns a real
``repro serve --fleet 2`` subprocess with per-tenant quotas configured,
drives the built-in loadgen scenarios over plain HTTP, and asserts the
serving layer's fairness promises hold:

1. *uncontended baseline*: the well-behaved tenants alone — their p99
   and per-tenant goodput are the yardstick for phase 2;
2. *abusive tenant*: one open-loop tenant offers ~10x its configured
   quota while the same well-behaved tenants run their closed loops.
   The abuser must be shed with ``QuotaExceededError`` (never a bare
   queue-full shed storm), the well-behaved tenants' p99 must stay
   within 2x the uncontended baseline (with a small absolute floor so
   scheduler-jitter on a ~10 ms cache hit cannot flake the bound), and
   their goodput must stay within 10 % of their uncontended rate.
   Phases 1 and 2 run ``ROUNDS`` times each, interleaved, and both
   bounds compare the medians over the rounds.  Each closed loop is long
   enough to span the abuser's shedding, not only its in-quota burst:
   a loop of a tenth of a second measures the host's noise more than
   the service's fairness;
3. *thundering herd*: every client submits the identical body; >= 80 %
   of the duplicates must be absorbed by single-flight coalescing or
   the shared artifact cache;
4. the ``repro loadgen`` CLI drives the same server and emits a
   parseable JSON report.

Emits ``BENCH_loadgen.json`` (gated columns are deterministic request
counts and pass/fail bits; latency/goodput columns are ``wall_*``-named
and therefore ungated).  Exits 0 on success, 1 with a diagnostic.
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
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.bench.record import emit_bench_record  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    build_scenario,
    http_poster,
    run_scenario,
)

WELL_TENANTS = 3
#: Each well-behaved closed loop: about a second of cache hits on a
#: 2-vCPU host, so that neither the host's noise nor the abuser's
#: in-quota burst (4 requests at its start) decides a phase's goodput.
WELL_REQUESTS = 100
#: Rounds of phases 1 and 2, interleaved with their order alternating,
#: so that a slow stretch of the host lands on both phases alike.
ROUNDS = 3
#: The abuser's configured quota (req/s) and its offered rate (~10x).
ABUSER_QUOTA_RPS = 2.0
ABUSER_OFFERED_RPS = 20.0
#: p99 floor: below this, latency is scheduler jitter, not service
#: behaviour, and a 2x bound on jitter is meaningless.
P99_FLOOR_S = 0.1


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


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


def well_stats(document) -> dict:
    """Aggregate the well-behaved tenants' numbers from one report."""
    tenants = {
        name: stats
        for name, stats in document["tenants"].items()
        if name.startswith("well-")
    }
    return {
        "p99_s": max(stats["p99_ms"] for stats in tenants.values()) / 1e3,
        "goodput_rps": min(
            stats["goodput_rps"] for stats in tenants.values()
        ),
        "ok": sum(stats["ok"] for stats in tenants.values()),
        "sent": sum(stats["sent"] for stats in tenants.values()),
    }


def phase_stats(documents) -> dict:
    """The well-behaved tenants over every round of one phase: request
    totals, and the median of the rounds' p99 and goodput."""
    rounds = [well_stats(document) for document in documents]
    return {
        "p99_s": statistics.median(r["p99_s"] for r in rounds),
        "goodput_rps": statistics.median(r["goodput_rps"] for r in rounds),
        "ok": sum(r["ok"] for r in rounds),
        "sent": sum(r["sent"] for r in rounds),
    }


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-loadgen-cache-")
    try:
        return bench(cache_dir)
    finally:
        # The server has exited by now, pass or fail.
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench(cache_dir: str) -> int:
    port = free_port()
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_CACHE_DIR=cache_dir,
        REPRO_SERVE_MAX_QUEUE="32",
        # Well-behaved tenants are unlimited (rate 0 = off); only the
        # abuser carries a quota, so every shed in phase 2 must be a
        # QuotaExceededError with its name on it.
        REPRO_SERVE_QUOTAS=json.dumps(
            {"abuser": {"rate": ABUSER_QUOTA_RPS, "burst": 4}}
        ),
        # Brownout stays enabled (default) but the short scenarios
        # should not trip it; the chaos test exercises it explicitly.
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--fleet", "2"],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    post = http_poster("127.0.0.1", port)
    failures = []
    rows = []
    start_wall = time.monotonic()
    try:
        wait_for_server(port)

        # Warm the shared artifact cache so every scenario request is a
        # cache hit: the scenarios measure *scheduling* behaviour, and
        # a first-compile outlier would pollute the p99 yardstick.
        status, payload = post({"app": "stencil", "fpgas": 2,
                                "use_cache": True})
        if status != 200:
            failures.append(f"warmup compile failed: {status} {payload}")

        # -- phases 1 and 2, interleaved ---------------------------------
        scenarios = {
            # Phase 1: the well-behaved tenants alone.
            "burst": build_scenario(
                "burst", tenants=WELL_TENANTS, requests=WELL_REQUESTS
            ),
            # Phase 2: the same tenants beside one at ~10x its quota.
            "abusive": build_scenario(
                "abusive", tenants=WELL_TENANTS, requests=WELL_REQUESTS,
                abusive_rate_rps=ABUSER_OFFERED_RPS,
            ),
        }
        documents = {name: [] for name in scenarios}
        for index in range(ROUNDS):
            order = ["burst", "abusive"] if index % 2 == 0 else [
                "abusive", "burst",
            ]
            for name in order:
                documents[name].append(run_scenario(
                    scenarios[name], post, health=lambda: get_health(port),
                ))

        baseline = phase_stats(documents["burst"])
        if baseline["ok"] != baseline["sent"]:
            failures.append(
                f"uncontended phase shed well-behaved requests: {baseline}"
            )
        rows.append([
            "uncontended", baseline["sent"],
            int(baseline["ok"] == baseline["sent"]), 1,
            round(baseline["p99_s"] * 1e3, 3),
            baseline["goodput_rps"],
        ])

        contended = phase_stats(documents["abusive"])
        abuser = {
            key: sum(
                document["tenants"]["abuser"][key]
                for document in documents["abusive"]
            )
            for key in (
                "sent", "shed", "quota_shed", "other_errors",
                "transport_errors",
            )
        }

        shed_ok = True
        if abuser["shed"] == 0:
            shed_ok = False
            failures.append(f"the abuser was never shed: {abuser}")
        if abuser["quota_shed"] != abuser["shed"]:
            shed_ok = False
            failures.append(
                "abuser sheds were not all QuotaExceededError: "
                f"{abuser['quota_shed']}/{abuser['shed']}"
            )
        if abuser["other_errors"] or abuser["transport_errors"]:
            shed_ok = False
            failures.append(f"abuser saw non-shed errors: {abuser}")

        fairness_ok = True
        p99_bound = 2.0 * max(baseline["p99_s"], P99_FLOOR_S)
        if contended["p99_s"] > p99_bound:
            fairness_ok = False
            failures.append(
                f"well-behaved median p99 {contended['p99_s'] * 1e3:.1f} ms "
                f"exceeds 2x the uncontended baseline "
                f"({baseline['p99_s'] * 1e3:.1f} ms, bound "
                f"{p99_bound * 1e3:.1f} ms)"
            )
        if contended["ok"] != contended["sent"]:
            fairness_ok = False
            failures.append(
                f"well-behaved requests were shed under abuse: {contended}"
            )
        goodput_floor = 0.9 * baseline["goodput_rps"]
        if contended["goodput_rps"] < goodput_floor:
            fairness_ok = False
            failures.append(
                f"well-behaved median goodput "
                f"{contended['goodput_rps']:.2f} rps "
                f"fell below 90% of the uncontended "
                f"{baseline['goodput_rps']:.2f} rps"
            )
        rows.append([
            "abusive", contended["sent"] + abuser["sent"],
            int(shed_ok), int(fairness_ok),
            round(contended["p99_s"] * 1e3, 3),
            contended["goodput_rps"],
        ])

        # -- phase 3: thundering herd -----------------------------------
        herd_doc = run_scenario(
            build_scenario("herd", tenants=WELL_TENANTS,
                           requests=WELL_REQUESTS),
            post,
            health=lambda: get_health(port),
        )
        herd_sent = sum(s["sent"] for s in herd_doc["tenants"].values())
        herd_ok = sum(s["ok"] for s in herd_doc["tenants"].values())
        delta = herd_doc.get("service_delta", {})
        cache_delta = herd_doc.get("cache_delta", {})
        absorbed = delta.get("coalesced", 0) + cache_delta.get("hits", 0)
        dedup_ok = True
        if herd_ok != herd_sent:
            dedup_ok = False
            failures.append(f"herd lost requests: {herd_ok}/{herd_sent}")
        if absorbed < 0.8 * herd_sent:
            dedup_ok = False
            failures.append(
                f"only {absorbed}/{herd_sent} herd requests were absorbed "
                f"by coalescing or the cache "
                f"(coalesced={delta.get('coalesced', 0)}, "
                f"hits={cache_delta.get('hits', 0)})"
            )
        rows.append([
            "herd", herd_sent, int(dedup_ok), int(dedup_ok),
            round(well_stats(herd_doc)["p99_s"] * 1e3, 3)
            if any(k.startswith("well-") for k in herd_doc["tenants"])
            else 0.0,
            0.0,
        ])

        # -- phase 4: the CLI drives the same server --------------------
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen", "burst",
             "--port", str(port), "--tenants", "2", "--requests", "4",
             "--json"],
            cwd=REPO, env=env, capture_output=True, timeout=300,
        )
        cli_ok = True
        if cli.returncode != 0:
            cli_ok = False
            failures.append(
                f"repro loadgen exited {cli.returncode}: "
                f"{cli.stderr.decode(errors='replace')[-500:]}"
            )
        else:
            try:
                cli_report = json.loads(cli.stdout)
                assert cli_report[0]["scenario"] == "burst"
                assert cli_report[0]["tenants"]
            except (ValueError, LookupError, AssertionError) as exc:
                cli_ok = False
                failures.append(f"repro loadgen --json unparseable: {exc}")
        rows.append(["cli", 8, int(cli_ok), int(cli_ok), 0.0, 0.0])
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=90.0)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()

    wall = time.monotonic() - start_wall
    emit_bench_record(
        "loadgen",
        result=(
            ["scenario", "requests", "shed_ok", "fairness_ok",
             "wall_p99_ms", "wall_goodput_rps"],
            rows,
        ),
        wall_seconds=wall,
        out_dir=os.environ.get("REPRO_BENCH_JSON_DIR", "."),
    )

    if failures:
        print("loadgen bench FAILED:")
        for line in failures:
            print(f"  - {line}")
        print("--- server output ---")
        print(output.decode(errors="replace")[-4000:])
        return 1
    print(
        f"loadgen bench ok: abusive tenant shed by quota, well-behaved "
        f"p99 within bound, herd absorbed; {wall:.1f}s total"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
