"""Per-layer metrics computed from the spans of a traced run.

A span is ``(pid, name, start, end, span_id, parent_id, thread, attrs)``
where ``name`` is ``<layer>|<entry point>``.  A layer's self time is its
span minus its child spans (the wrapped calls it made on its own thread).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import util
from tracer import SolveGuard

#: Every per-layer metric, in BENCHMARK.json order.
METRICS = [
    "check.s", "hls.s", "core.inter.s", "core.intra.s", "core.hbm.s",
    "core.comm.s", "core.pipelining.s", "timing.s", "sim.s",
    "core.inter.calls", "core.intra.calls",
    "ilp.solves", "ilp.solve_s", "ilp.build_s", "ilp.infeasible",
    "ilp.useful_frac", "ilp.limit_stops", "ilp.fallbacks", "ilp.vars",
    "ilp.cons", "ilp.max_limit_frac",
    "core.hash_divergent_points", "cache.key_drift_points",
    "fingerprint.calls_per_req", "fingerprint.ms_per_req",
    "cache.get_ms", "cache.put_ms", "cache.memory_hits", "cache.disk_hits",
    "cache.misses", "cache.bytes_written",
    "broker.overhead_ms", "broker.coalesced", "broker.shed",
    "server.parse_ms", "server.respond_ms", "server.http_ms",
    "fleet.overhead_ms", "fleet.worker_ms", "fleet.busy_frac",
    "journal.ms_per_req", "journal.appends_per_req",
    "trace.overhead_frac",
]

_COMPILE_LAYERS = {
    "check_graph", "check_design", "synthesize", "floorplan_inter",
    "floorplan_intra", "bind_hbm_channels", "insert_communication",
    "pipeline_device", "verify_balanced", "estimate_frequency_mhz", "solve",
}
_SERVER = {
    "CompileService.execute", "CompileService._run", "fingerprint_compile",
    "DesignCache.get", "cached_compile", "_Handler.do_POST",
    "build_app_graph", "graph_from_dict", "design_summary", "_Handler._reply",
}

#: Entry points each workload's timed window must reach (see README.md
#: for why the others are not reached).
REACH = {
    "compile_cold": _COMPILE_LAYERS | {
        "simulate", "fingerprint_compile", "fingerprint_simulate",
        "DesignCache.get", "DesignCache.put", "cached_compile",
        "cached_simulate", "CompileService.execute", "CompileService._run",
    },
    "serve_mixed": _SERVER | _COMPILE_LAYERS | {
        "DesignCache.put", "WorkerFleet.run", "_run_one_request",
        "ServeJournal.record_accepted", "ServeJournal.record_dispatched",
        "ServeJournal.record_done",
    },
}
def _split(span):
    layer, entry = span[1].split("|", 1)
    return layer, entry


def missing_entries(spans: list, workload: str) -> list[str]:
    """Entry points the workload should reach but recorded no span."""
    seen = {_split(s)[1] for s in spans}
    missing = sorted(REACH[workload] - seen)
    if missing:
        util.log(f"{workload}: no span from {missing}; the tracer missed them")
    return missing


def compute(spans: list, facts: dict) -> dict[str, float]:
    """Every metric of :data:`METRICS`; ``facts`` holds the outside ones.

    ``facts["requests"]`` is the number of requests the spans cover; the
    remaining keys of ``facts`` are copied through by metric name.
    """
    by_id = {(s[0], s[4]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[5]:
            children[(s[0], s[5])].append(s)

    def dur(s) -> float:
        return s[3] - s[2]

    def self_time(s) -> float:
        return dur(s) - sum(dur(c) for c in children[(s[0], s[4])])

    layer_spans = defaultdict(list)
    for s in spans:
        layer_spans[_split(s)[0]].append(s)

    out: dict[str, float] = {}
    for layer in ("check", "hls", "core.inter", "core.intra", "core.hbm",
                  "core.comm", "core.pipelining", "timing", "sim"):
        out[f"{layer}.s"] = sum(self_time(s) for s in layer_spans[layer])
    out["core.inter.calls"] = len(layer_spans["core.inter"])
    out["core.intra.calls"] = len(layer_spans["core.intra"])

    solves = layer_spans["ilp.solve"]
    records = [((s[7] or {}).get("status", "error"), dur(s),
                (s[7] or {}).get("limit")) for s in solves]
    infeasible = sum(1 for r in records if r[0] == "infeasible")
    callers = {(s[0], s[5]) for s in solves if s[5]}
    out["ilp.solves"] = len(solves)
    out["ilp.solve_s"] = sum(map(dur, solves))
    out["ilp.build_s"] = sum(
        dur(by_id[key]) - sum(dur(c) for c in children[key]
                              if _split(c)[0] == "ilp.solve")
        for key in callers if key in by_id
    )
    out["ilp.infeasible"] = infeasible
    out["ilp.useful_frac"] = (len(solves) - infeasible) / len(solves) if solves else 0.0
    out["ilp.limit_stops"] = sum(map(SolveGuard.is_limit_stop, records))
    out["ilp.fallbacks"] = sum(1 for s in solves if (s[7] or {}).get("fallback"))
    out["ilp.vars"] = sum((s[7] or {}).get("vars", 0) for s in solves)
    out["ilp.cons"] = sum((s[7] or {}).get("cons", 0) for s in solves)
    out["ilp.max_limit_frac"] = max(map(SolveGuard.limit_frac, records), default=0.0)

    requests = max(1, facts["requests"])
    prints = layer_spans["fingerprint"]
    out["fingerprint.calls_per_req"] = len(prints) / requests
    out["fingerprint.ms_per_req"] = sum(map(dur, prints)) * 1e3 / requests
    for name in ("get", "put"):
        got = layer_spans[f"cache.{name}"]
        out[f"cache.{name}_ms"] = statistics.fmean(map(dur, got)) * 1e3 if got else 0.0

    # Broker overhead: execute minus the compile, cache or fleet work its
    # request ran on a broker worker thread (matched by request identity).
    work_layers = {"cache.compile", "cache.simulate", "fleet.run"}
    runs = defaultdict(list)
    for s in layer_spans["broker.run"]:
        runs[(s[0], (s[7] or {}).get("rid"))].append(s)
    overheads = []
    for s in layer_spans["broker.execute"]:
        matched = [r for r in runs[(s[0], (s[7] or {}).get("rid"))]
                   if s[2] <= r[2] and r[3] <= s[3]]
        if matched:  # coalesced followers ran no work of their own
            work = sum(dur(c) for r in matched for c in children[(r[0], r[4])]
                       if _split(c)[0] in work_layers)
            overheads.append(dur(s) - work)
    out["broker.overhead_ms"] = statistics.fmean(overheads) * 1e3 if overheads else 0.0

    posts = layer_spans["server.post"]
    post_ids = {(s[0], s[4]) for s in posts}
    nposts = max(1, len(posts))
    out["server.parse_ms"] = sum(
        dur(s) for s in layer_spans["server.parse"] if (s[0], s[5]) in post_ids
    ) * 1e3 / nposts
    out["server.respond_ms"] = sum(
        dur(s) for s in layer_spans["server.summary"] + layer_spans["server.reply"]
        if (s[0], s[5]) in post_ids
    ) * 1e3 / nposts
    out["server.http_ms"] = (
        facts["client_mean_ms"] - statistics.fmean(map(dur, posts)) * 1e3
        if posts and facts.get("client_mean_ms") else 0.0
    )

    fleet_runs = layer_spans["fleet.run"]
    jobs = layer_spans["fleet.job"]
    job_ids = {(s[0], s[4]) for s in jobs}
    in_worker = sum(
        dur(s) for s in layer_spans["cache.compile"] + layer_spans["cache.simulate"]
        if (s[0], s[5]) in job_ids
    )
    out["fleet.overhead_ms"] = (
        (sum(map(dur, fleet_runs)) - in_worker) * 1e3 / len(fleet_runs)
        if fleet_runs else 0.0
    )
    out["fleet.worker_ms"] = statistics.fmean(map(dur, jobs)) * 1e3 if jobs else 0.0
    capacity = facts.get("fleet_workers", 0) * facts.get("window_s", 0.0)
    out["fleet.busy_frac"] = sum(map(dur, jobs)) / capacity if capacity else 0.0

    out["journal.ms_per_req"] = sum(map(dur, layer_spans["journal"])) * 1e3 / requests
    out["journal.appends_per_req"] = facts.get("journal_appends", 0) / requests

    for name in METRICS:
        if name not in out:
            out[name] = facts.get(name, 0)
    return out
