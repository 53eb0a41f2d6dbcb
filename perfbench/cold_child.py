"""One ``compile_cold`` child: a fresh interpreter under one hash seed.

It compiles and simulates every paper point once, cold, through
``repro.apps.common.run_flow``, then re-requests the points round-robin
as in-process cache hits for ``--hit-seconds``, in windows of a few
rounds each.  It prints one JSON
document on its last line of output.

The re-requests pass a freshly built copy of each graph: the compiler
writes synthesis estimates into the graph it is given, which changes
that graph's cache key, so re-sending the very same object is a second
cold compile.  That defect is reported as ``drift`` per point.

Usage (the parent sets ``PYTHONPATH``, ``PYTHONHASHSEED`` and an empty
``REPRO_CACHE_DIR``)::

    python perfbench/cold_child.py --launch <unix time> --hit-seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import points  # noqa: E402
import tracer as tracing  # noqa: E402
import util  # noqa: E402

#: Hit rounds (one re-request of every point) per measurement window,
#: about half a second.  A call of the speed probe precedes each hit.
ROUNDS_PER_WINDOW = 6


def _fingerprint(graph, flow: str) -> str:
    from repro.apps.common import flow_target
    from repro.perf import fingerprint

    compute = fingerprint.fingerprint_compile
    compute = getattr(compute, "__wrapped__", compute)
    cluster, config, flow_name = flow_target(flow)
    return compute(graph, cluster, config, flow_name)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--hit-seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    from repro.apps.common import run_flow
    from repro.perf.cache import cache_stats
    from repro.serve.broker import get_service

    guard = tracing.install_solve_guard()
    tracer = None
    if args.trace_dir:
        tracer = tracing.install_tracer(
            args.trace_dir, tracing.COMPILE_ENTRY_POINTS
        )
    cold_graphs = [points.build_point(app, flow) for _, app, flow in points.COLD_POINTS]
    hit_graphs = [points.build_point(app, flow) for _, app, flow in points.COLD_POINTS]
    keys = [_fingerprint(g, flow) for g, (_, _, flow) in zip(cold_graphs, points.COLD_POINTS)]
    setup_s = time.time() - args.launch
    result: dict = {"setup_s": setup_s, "pid": os.getpid()}
    if args.setup_only:
        print(json.dumps(result))
        return

    stats_before = cache_stats().as_dict()
    counters_before = dict(get_service().counters)
    cold = []
    designs = []
    cold_start = time.perf_counter()
    for graph, key, (name, app, flow) in zip(cold_graphs, keys, points.COLD_POINTS):
        first = len(guard.records)
        record: dict = {"name": name}
        start = time.perf_counter()
        try:
            run = run_flow(graph, app, flow)
        except Exception as exc:  # a failed point is reported, not fatal
            record.update(seconds=time.perf_counter() - start,
                          error=f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            run = None
        else:
            record["seconds"] = time.perf_counter() - start
        solves = guard.records[first:]
        record["solves"] = len(solves)
        record["limit_stops"] = sum(map(guard.is_limit_stop, solves))
        record["max_limit_frac"] = max(map(guard.limit_frac, solves), default=0.0)
        designs.append(run)
        cold.append(record)
    cold_end = time.perf_counter()
    for record, run, graph, key, (_, _, flow) in zip(
        cold, designs, cold_graphs, keys, points.COLD_POINTS
    ):
        if run is None:
            continue
        record["latency_ms"] = run.sim.latency_ms
        record["fmax_mhz"] = run.frequency_mhz
        record["digest"] = checks.design_digest(run.design)
        record["problems"] = checks.check_design(run.design)
        record["drift"] = _fingerprint(graph, flow) != key

    # Hit phase: round-robin re-requests of the points that compiled, in
    # windows of ROUNDS_PER_WINDOW rounds; each window records its hit
    # latencies, their wall and CPU time, and a speed probe call per hit.
    # Under tracing, every other round runs with span recording off; the
    # two sets of hits give the tracing overhead.
    live = [i for i, run in enumerate(designs) if run is not None]
    latencies: list[float] = []
    plain_latencies: list[float] = []
    windows: list[dict] = []
    mismatches = 0
    hit_start = time.perf_counter()
    while live and time.perf_counter() - hit_start < args.hit_seconds:
        window = {"lat": [], "probe": [], "wall": 0.0, "cpu": 0.0}
        for round_ in range(ROUNDS_PER_WINDOW):
            sink = latencies
            if tracer is not None:
                tracer.enabled = round_ % 2 == 0
                sink = latencies if tracer.enabled else plain_latencies
            for i in live:
                _, app, flow = points.COLD_POINTS[i]
                window["probe"].append(util.probe_once())
                start, cpu = time.perf_counter(), time.process_time()
                try:
                    run = run_flow(hit_graphs[i], app, flow)
                except Exception:
                    run = None
                seconds = time.perf_counter() - start
                if run is None or (
                    (run.design is not designs[i].design or run.sim is not designs[i].sim)
                    and checks.design_digest(run.design) != cold[i]["digest"]
                ):
                    mismatches += 1
                    seconds = util.FAILED_LATENCY
                sink.append(seconds)
                window["lat"].append(seconds)
                window["wall"] += time.perf_counter() - start
                window["cpu"] += time.process_time() - cpu
        windows.append(window)
    hit_end = time.perf_counter()

    stats_after = cache_stats().as_dict()
    counters_after = get_service().counters
    result.update(
        cold=cold,
        cold_window=[cold_start, cold_end],
        hit_window=[hit_start, hit_end],
        hit_latencies_s=latencies,
        plain_hit_latencies_s=plain_latencies,
        hit_windows=windows,
        hit_mismatches=mismatches,
        vm_hwm_mb=util.vm_hwm_mb(),
        cache=[stats_after[k] - stats_before[k] for k in ("memory_hits", "disk_hits", "misses", "bytes_written")],
        broker=[counters_after[k] - counters_before[k] for k in ("coalesced", "shed")],
    )
    if tracer is not None:
        tracer.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
