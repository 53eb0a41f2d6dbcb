"""Output checks the benchmark recomputes from the program's outputs.

Each check returns a list of human-readable problems; an empty list
means the output passed.  A problem counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json

#: The utilization ceiling T of Eq. 1 (``CompilerConfig().threshold``).
THRESHOLD = 0.7
#: Fields of a design summary that hold wall-clock time, not design.
WALL_CLOCK_FIELDS = ("floorplan_seconds",)


def _design_summary(design) -> dict:
    from repro.graph import serialize

    summarize = serialize.design_summary
    # Call past the tracer so digests add no server.summary spans.
    summarize = getattr(summarize, "__wrapped__", summarize)
    return summarize(design)


def strip_wall_clock(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in WALL_CLOCK_FIELDS}


def digest(summary: dict) -> str:
    text = json.dumps(strip_wall_clock(summary), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def design_digest(design) -> str:
    return digest(_design_summary(design))


def check_design(design) -> list[str]:
    """Placement, Eq. 1, HBM port budgets and the Eq. 2 cost of a design."""
    problems: list[str] = []
    cluster = design.cluster
    graph = design.graph
    assignment = design.comm.assignment

    # Every task sits on exactly one device, and its slot is on that device.
    placed: dict[str, list[int]] = {}
    for device, plan in design.intra.items():
        for task in plan.placement:
            placed.setdefault(task, []).append(device)
    for name in graph.task_names():
        homes = placed.get(name, [])
        if len(homes) != 1 or homes[0] != assignment.get(name):
            problems.append(
                f"task {name}: assigned to {assignment.get(name)}, "
                f"placed on {homes}"
            )
    for name in design.source_graph.task_names():
        if name not in assignment:
            problems.append(f"task {name} of the input graph is unassigned")

    # Eq. 1: per-device resources at most T x capacity.
    inter = design.inter.assignment
    for device in range(cluster.num_devices):
        capacity = cluster.device(device).usable_resources
        used = None
        for name, home in inter.items():
            if home == device:
                need = design.source_graph.task(name).require_resources()
                used = need if used is None else used + need
        if used is not None and not used.fits_within(capacity, THRESHOLD):
            problems.append(
                f"device {device} over T={THRESHOLD}: {used.format(capacity)}"
            )

    # HBM ports on each device at most its channel count, bound in range.
    ports: dict[int, int] = {}
    for name, home in assignment.items():
        ports[home] = ports.get(home, 0) + len(graph.task(name).hbm_ports)
    for device, count in ports.items():
        channels = cluster.device(device).part.num_hbm_channels
        if count > channels:
            problems.append(
                f"device {device}: {count} HBM ports > {channels} channels"
            )
    for device, binding in design.hbm_bindings.items():
        channels = cluster.device(device).part.num_hbm_channels
        for (task, port), channel in binding.binding.items():
            if not 0 <= channel < channels:
                problems.append(f"{task}.{port} bound to channel {channel}")

    # Eq. 2: the reported cost equals the recomputed one.
    cost = sum(
        chan.width_bits * cluster.comm_cost(inter[chan.src], inter[chan.dst])
        for chan in design.source_graph.channels()
    )
    reported = design.inter.comm_cost
    if abs(cost - reported) > 1e-9 * max(1.0, abs(cost)):
        problems.append(f"comm_cost {reported!r} != Eq. 2 recomputed {cost!r}")
    return problems


def check_served_hit(document: dict, reference: dict) -> list[str]:
    """A hit must equal the warm-up response, wall-clock fields aside."""
    got = dict(document, design=strip_wall_clock(document.get("design", {})))
    want = dict(reference, design=strip_wall_clock(reference.get("design", {})))
    return [] if got == want else ["hit response differs from warm-up response"]


def check_served_miss(document: dict, graph: dict) -> list[str]:
    """A miss must assign every task of the sent graph exactly once."""
    design = document.get("design", {})
    assignment = design.get("assignment", {})
    placements: dict[str, list[str]] = {}
    for device, slots in design.get("placement", {}).items():
        for task in slots:
            placements.setdefault(task, []).append(device)
    problems = []
    for task in graph["tasks"]:
        name = task["name"]
        homes = placements.get(name, [])
        if name not in assignment or homes != [str(assignment[name])]:
            problems.append(
                f"task {name}: assigned {assignment.get(name)}, placed {homes}"
            )
    return problems
