"""The ``compile_cold`` workload: cold library compiles in child processes.

Each run starts one child per ``PYTHONHASHSEED`` derived from the
workload seed, one after the other (concurrent children disturb each
other's timings).  Each child gets an empty ``REPRO_CACHE_DIR``; see
``cold_child.py`` for what it runs.

Digests of every (point, hash seed) design are kept under the work
directory per workload seed and per digest of the program's source, so
a second run of the same code with the same seed checks that the
designs repeat.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import layers
import tracer
import util

#: Interpreters started per run; their hash seeds come from the workload seed.
HASH_SEEDS = 2
#: Share of --seconds spent on in-process hits, split over the children
#: (the cold passes take most of a run already).
HIT_SHARE = 0.4
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


def _child(work: str, index: int, hash_seed: int, hit_seconds: float,
           deadline: float, setup_only: bool = False,
           trace_dir: str | None = None) -> dict:
    cache = os.path.join(work, f"cache-{index}")
    os.makedirs(cache)
    cmd = [sys.executable, os.path.join(util.BENCH_DIR, "cold_child.py"),
           "--launch", repr(time.time()), "--hit-seconds", str(hit_seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(
        cmd, env=util.program_env(hash_seed, REPRO_CACHE_DIR=cache),
        cwd=util.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"compile_cold child exited {proc.returncode}")
    result = util.last_json_line(proc.stdout)
    result["hash_seed"] = hash_seed
    return result


def _repeatability(seed: int, children: list[dict]) -> list[str]:
    """Points whose digest differs from an earlier run of the same
    program with this seed."""
    path = os.path.join(util.WORK, "digests",
                        f"compile_cold-{seed}-{util.program_digest()[:16]}.json")
    current: dict[str, dict[str, str]] = {}
    for child in children:
        digests = {p["name"]: p["digest"] for p in child["cold"] if "digest" in p}
        current.setdefault(str(child["hash_seed"]), {}).update(digests)
    try:
        with open(path) as handle:
            earlier = json.load(handle)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(current, handle)
        return []
    return sorted(
        f"{name}@{hash_seed}"
        for hash_seed, digests in current.items()
        for name, digest in digests.items()
        if earlier.get(hash_seed, {}).get(name, digest) != digest
    )


def _tally(seed: int, children: list[dict]) -> tuple[list[str], int, list[str]]:
    """(problems, failed operations, unrepeatable points) of a run.

    A point fails when its compile raised, a solve stopped on its time
    limit, an output check found a problem, or its design differs from
    an earlier run of the same program with the same seed.  Each hit
    that differs from the cold result is a failed operation too.
    """
    problems, failed = [], 0
    for child in children:
        for point in child["cold"]:
            tag = f"{point['name']}@{child['hash_seed']}"
            bad = False
            if "error" in point:
                problems.append(f"{tag}: {point['error']}")
                bad = True
            if point["limit_stops"]:
                util.log(f"compile_cold: {tag} stopped on a solver time "
                         f"limit ({point['limit_stops']} solve(s)); its time "
                         f"measures the limit")
                bad = True
            for problem in point.get("problems", []):
                problems.append(f"{tag}: {problem}")
                bad = True
            failed += bad
        if child["hit_mismatches"]:
            problems.append(f"hash seed {child['hash_seed']}: "
                            f"{child['hit_mismatches']} hit(s) differ from the cold result")
            failed += child["hit_mismatches"]
    unrepeatable = _repeatability(seed, children)
    if unrepeatable:
        util.log(f"compile_cold: not repeatable for seed {seed}: {unrepeatable}")
        failed += len(unrepeatable)
    return problems, failed, unrepeatable


def _divergent(a: dict, b: dict) -> int:
    left = {p["name"]: p.get("digest") for p in a["cold"]}
    return sum(1 for p in b["cold"] if left.get(p["name"]) != p.get("digest"))


def run(seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = util.make_workdir("compile_cold")
    try:
        seeds = util.hash_seeds(seed, "compile_cold", HASH_SEEDS)
        hit_seconds = seconds * HIT_SHARE / HASH_SEEDS
        if trace:
            return _traced(work, seed, seeds, hit_seconds, deadline)
        extra = _child(work, 0, seeds[0], 0.0, deadline, setup_only=True)
        children = [
            _child(work, i + 1, h, hit_seconds, deadline)
            for i, h in enumerate(seeds)
        ]
    finally:
        util.remove_workdir(work)

    problems, failed, unrepeatable = _tally(seed, children)
    cold = [p for c in children for p in c["cold"]]
    windows = [w for c in children for w in c["hit_windows"]]
    # Hit times are scaled to the speed probe's reference speed by the
    # probe calls made beside them (util.at_reference_speed): wall times
    # by the mean wall time of the window's calls, which counts time the
    # host took the CPU away as the hits do, and CPU time by their median
    # CPU time.  Cold compile times are not scaled: probes on each side
    # of a compile of up to 10 s, most of it in HiGHS, spread more than
    # the compile times did.
    cold_s = [p["seconds"] for p in cold]
    scaled = []
    for w in windows:
        wall_s = statistics.fmean(x for x, _ in w["probe"])
        cpu_s = statistics.median(x for _, x in w["probe"])
        scaled.append({
            "lat": [util.at_reference_speed(x, wall_s) for x in w["lat"]],
            "wall": util.at_reference_speed(w["wall"], wall_s),
            "cpu": util.at_reference_speed(w["cpu"], cpu_s),
        })
    metrics = {
        "setup_s": statistics.median([extra["setup_s"]] + [c["setup_s"] for c in children]),
        "cold_total_s": sum(cold_s),
        "design_latency_ms": util.geomean([p["latency_ms"] for p in cold if "latency_ms" in p]),
        "design_fmax_mhz": util.geomean([p["fmax_mhz"] for p in cold if "fmax_mhz" in p]),
        # Hit metrics are computed per window of a few hit rounds; util.calm
        # reports their best decile over the windows of both interpreters.
        "hit_p50_ms": util.latency_ms(util.calm([util.percentile(w["lat"], 0.5) for w in scaled])),
        "hit_p90_ms": util.latency_ms(util.calm([util.percentile(w["lat"], 0.9) for w in scaled])),
        "hit_cpu_ms": util.calm([w["cpu"] * 1e3 / len(w["lat"]) for w in scaled]),
        # A geometric mean, not a median: the median of 14 unlike points
        # jumps between whichever two rank in the middle.
        "miss_p50_ms": util.geomean(cold_s) * 1e3,
        "req_rps": util.calm([len(w["lat"]) / w["wall"] for w in scaled], higher_is_better=True),
        "peak_rss_mb": max(c["vm_hwm_mb"] for c in children),
    }
    notes = {
        "hash_seeds": seeds,
        "points": {f"{p['name']}@{c['hash_seed']}":
                   [round(p["seconds"], 3), p["solves"], round(p["max_limit_frac"], 3)]
                   for c in children for p in c["cold"]},
        "hash_divergent_points": _divergent(*children),
        "hit_windows": len(windows),
        "measured": {
            "hit_p50_ms": util.latency_ms(util.calm([util.percentile(w["lat"], 0.5) for w in windows])),
            "probe_wall_ms": statistics.fmean(x for w in windows for x, _ in w["probe"]) * 1e3,
            "probe_cpu_ms": statistics.median(x for w in windows for _, x in w["probe"]) * 1e3,
        },
        "unrepeatable": unrepeatable,
        "problems": problems[:10],
    }
    attempted = len(cold) + sum(len(w["lat"]) for w in windows)
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed, "correct": not problems, "notes": notes}


def _traced(work: str, seed: int, seeds: list[int], hit_seconds: float,
            deadline: float) -> dict:
    """Traced children on both hash seeds.  Their hit phases alternate
    rounds with span recording on and off, which gives the overhead."""
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    traced = [
        _child(work, i, h, hit_seconds, deadline, trace_dir=trace_dir)
        for i, h in enumerate(seeds)
    ]
    windows = [w for c in traced for w in (c["cold_window"], c["hit_window"])]
    spans = [s for s in tracer.load_spans(trace_dir)
             if any(a <= s[2] <= b for a, b in windows)]
    problems, failed, unrepeatable = _tally(seed, traced)
    on = [x for c in traced for x in c["hit_latencies_s"]]
    off = [x for c in traced for x in c["plain_hit_latencies_s"]]
    facts = {
        "requests": sum(len(c["cold"]) for c in traced) + len(on),
        "core.hash_divergent_points": _divergent(*traced),
        "cache.key_drift_points": sum(p.get("drift", False) for c in traced for p in c["cold"]),
        "cache.memory_hits": sum(c["cache"][0] for c in traced),
        "cache.disk_hits": sum(c["cache"][1] for c in traced),
        "cache.misses": sum(c["cache"][2] for c in traced),
        "cache.bytes_written": sum(c["cache"][3] for c in traced),
        "broker.coalesced": sum(c["broker"][0] for c in traced),
        "broker.shed": sum(c["broker"][1] for c in traced),
        "trace.overhead_frac": util.percentile(on, 0.5) / util.percentile(off, 0.5) - 1.0,
    }
    metrics = layers.compute(spans, facts)
    missing = layers.missing_entries(spans, "compile_cold")
    notes = {
        "hash_seeds": seeds,
        "unreached": missing,
        "not_applicable": ["server.parse_ms", "server.respond_ms", "server.http_ms",
                           "fleet.overhead_ms", "fleet.worker_ms", "fleet.busy_frac",
                           "journal.ms_per_req", "journal.appends_per_req"],
        "hits_traced_untraced": [len(on), len(off)],
        "unrepeatable": unrepeatable,
        "spans": len(spans),
        "problems": problems[:10],
    }
    attempted = sum(len(c["cold"]) for c in traced) + len(on) + len(off)
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed + len(missing), "correct": not problems,
            "notes": notes}
