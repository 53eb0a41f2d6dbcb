"""Shared glue for the benchmark applications.

Every app exposes ``build_*(config) -> TaskGraph`` plus a config type
describing one paper configuration.  This module resolves a compile
target — a flow (``tapa-cs``, ``tapa``, ``vitis``) with a cluster shape
for the CLI and the HTTP body, or a paper flow label (F1-V, F1-T, F2,
F3, F4, ...) for the bench — through one :func:`resolve_target`, and
wraps compile + simulate + host-level repetition into one measurement
record.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import Cluster, make_cluster, paper_testbed
from ..cluster.topology import make_topology
from ..core.compiler import CompilerConfig, vitis_config
from ..core.plan import CompiledDesign
from ..devices.parts import get_part
from ..errors import InvalidRequestError, TapaCSError
from ..graph.graph import TaskGraph
from ..serve.broker import CompileRequest, get_service
from ..sim.execution import SimulationConfig, SimulationResult


def flow_num_fpgas(flow: str) -> int:
    """Number of FPGAs a paper flow label targets (F1-V/F1-T -> 1)."""
    if flow in ("F1-V", "F1-T"):
        return 1
    if flow.startswith("F") and flow[1:].isdigit():
        count = int(flow[1:])
        if count >= 1:
            return count
    raise TapaCSError(f"unknown flow label {flow!r}")


#: Compile flows: TAPA-CS on the requested cluster, or one of the
#: paper's single-FPGA baselines (F1-T and F1-V).
FLOWS = ("tapa-cs", "tapa", "vitis")


def resolve_target(
    flow: str,
    fpgas: int,
    topology: str,
    part: str,
    config: CompilerConfig | None = None,
) -> tuple[Cluster, CompilerConfig | None, str]:
    """``(cluster, compiler config, flow)`` for one compile target.

    Mirrors :func:`repro.core.compiler.compile_single_vitis` /
    ``compile_single_tapa`` for the single-FPGA baselines, so a request
    through the service produces the same designs as the direct calls:
    ``vitis`` is one device with the F1-V knob set (over ``config``),
    ``tapa`` one device, whatever ``fpgas`` says.
    """
    if flow not in FLOWS:
        raise InvalidRequestError(
            f"unknown flow {flow!r}; choose from {', '.join(FLOWS)}"
        )
    device = get_part(part)
    if flow == "vitis":
        return make_cluster(1, part=device), vitis_config(config), flow
    if flow == "tapa":
        return make_cluster(1, part=device), config, flow
    if topology == "paper":
        return paper_testbed(fpgas), config, flow
    return make_cluster(
        fpgas, part=device, topology=make_topology(topology, fpgas)
    ), config, flow


def flow_target(
    flow: str,
    cluster: Cluster | None = None,
    config: CompilerConfig | None = None,
) -> tuple[Cluster, CompilerConfig, str]:
    """Resolve a paper flow label into (cluster, config, flow-name).

    This is the canonical form the content-addressed cache keys on: the
    F1-V label is the ``vitis`` target, F1-T the ``tapa`` target, and FN
    a ``tapa-cs`` target on the N-FPGA testbed (or ``cluster``), keyed
    under its label.
    """
    count = flow_num_fpgas(flow)
    if flow in ("F1-V", "F1-T"):
        target, config, name = resolve_target(
            "vitis" if flow == "F1-V" else "tapa", 1, "paper", "u55c", config
        )
        return target, config or CompilerConfig(), name
    target = cluster or resolve_target("tapa-cs", count, "paper", "u55c")[0]
    return target, config or CompilerConfig(), flow


def compile_flow(
    graph: TaskGraph,
    flow: str,
    cluster: Cluster | None = None,
    config: CompilerConfig | None = None,
    faults=None,
) -> CompiledDesign:
    """Compile ``graph`` under a paper flow label (cache-accelerated).

    Routed through the :mod:`repro.serve` broker: with no deadline and
    an idle queue this is a pass-through to the content-addressed cache
    (identical artifacts and keys), but a wedged solver backend degrades
    or sheds bench runs the same way it would any other client.
    """
    target, resolved_config, flow_name = flow_target(flow, cluster, config)
    return get_service().execute(CompileRequest(
        graph, target, resolved_config, flow=flow_name, faults=faults,
    ))


@dataclass(slots=True)
class AppRun:
    """One measured configuration of one app under one flow."""

    app: str
    flow: str
    design: CompiledDesign
    sim: SimulationResult
    #: Host-level repetitions of the simulated kernel (stencil passes,
    #: PageRank sweeps); total latency multiplies by this.
    repeats: float = 1.0
    #: Extra per-repetition host overhead in seconds (e.g. re-launch).
    per_repeat_overhead_s: float = 0.0
    label: str = ""

    @property
    def latency_s(self) -> float:
        return (self.sim.latency_s + self.per_repeat_overhead_s) * self.repeats

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def frequency_mhz(self) -> float:
        return self.design.frequency_mhz

    @property
    def inter_fpga_volume_mb(self) -> float:
        return self.design.inter_fpga_volume_bytes * self.repeats / 1e6

    def speedup_over(self, baseline: "AppRun") -> float:
        return baseline.latency_s / self.latency_s


def run_flow(
    graph: TaskGraph,
    app: str,
    flow: str,
    repeats: float = 1.0,
    per_repeat_overhead_s: float = 0.0,
    cluster: Cluster | None = None,
    compiler_config: CompilerConfig | None = None,
    sim_config: SimulationConfig | None = None,
    label: str = "",
    faults=None,
) -> AppRun:
    """Compile and simulate one app graph under one flow.

    A fault scenario degrades both phases: the compiler re-plans on the
    surviving substrate and the simulator pays retransmission-inflated
    wire times on lossy links.
    """
    target, resolved_config, flow_name = flow_target(
        flow, cluster, compiler_config
    )
    design, result = get_service().execute(CompileRequest(
        graph, target, resolved_config, flow=flow_name, faults=faults,
        kind="simulate", sim_config=sim_config,
    ))
    return AppRun(
        app=app,
        flow=flow,
        design=design,
        sim=result,
        repeats=repeats,
        per_repeat_overhead_s=per_repeat_overhead_s,
        label=label or flow,
    )


def speedup_table(runs: list[AppRun], baseline_flow: str = "F1-V") -> dict[str, float]:
    """Speed-ups of each run against the named baseline flow."""
    baselines = [r for r in runs if r.flow == baseline_flow]
    if not baselines:
        raise TapaCSError(f"no {baseline_flow} run to normalize against")
    base = baselines[0]
    return {run.label: run.speedup_over(base) for run in runs}
