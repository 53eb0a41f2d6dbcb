"""The TAPA-CS compiler driver: the seven steps of Figure 5.

1. task graph construction   — done by the caller (the graph *is* the IR);
2. task extraction and parallel synthesis;
3. inter-FPGA floorplanning (topology-aware ILP);
4. inter-FPGA communication logic insertion;
5. intra-FPGA floorplanning per device;
6. interconnect pipelining with cut-set balancing;
7. constraint/bitstream emission — here, the :class:`CompiledDesign`
   artifact plus a frequency estimate (we cannot run Vivado, so the
   timing model stands in for the bitstream's achieved Fmax).

Three flows are provided, matching the paper's evaluated configurations:

* ``compile_design``          — the full TAPA-CS flow (F2/F3/F4/...);
* ``compile_single_tapa``     — TAPA/AutoBridge on one FPGA (F1-T);
* ``compile_single_vitis``    — plain Vitis HLS on one FPGA (F1-V):
  no floorplanning, no interconnect pipelining, naive packing and naive
  HBM binding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..cluster.cluster import Cluster, make_cluster
from ..deadline import current_deadline
from ..errors import (
    DeadlineExceededError,
    DegradedClusterError,
    InfeasibleError,
    SolverError,
    TapaCSError,
)
from ..devices.fpga import FPGAInstance, FPGAPart
from ..devices.parts import ALVEO_U55C
from ..faults.apply import DegradedTopology, apply_faults
from ..faults.scenario import FaultScenario
from ..graph.graph import TaskGraph
from ..hls.synthesis import synthesize
from ..ilp.solver import drain_solve_log
from ..network.alveolink import port_overhead
from ..timing.frequency import (
    DEFAULT_TIMING,
    TimingInputs,
    TimingModelConfig,
    estimate_frequency_mhz,
)
from .comm_insertion import insert_communication
from .hbm_binding import HBMBinding, bind_hbm_channels
from .inter_floorplan import (
    InterFloorplanConfig,
    floorplan_inter,
)
from .intra_floorplan import (
    IntraFloorplan,
    IntraFloorplanConfig,
    floorplan_intra,
)
from .ladder import (
    TIERS,
    choose_start_tier,
    floorplan_inter_coarse,
    record_tier,
    tier_config,
    tiers_from,
)
from .pipelining import PipelineResult, pipeline_device, verify_balanced
from .plan import CompiledDesign


@dataclass(slots=True)
class CompilerConfig:
    """All the knobs of the TAPA-CS flow, with ablation switches."""

    threshold: float = 0.7
    inter: InterFloorplanConfig = field(default_factory=InterFloorplanConfig)
    intra: IntraFloorplanConfig = field(default_factory=IntraFloorplanConfig)
    timing: TimingModelConfig = DEFAULT_TIMING
    enable_pipelining: bool = True
    enable_balancing: bool = True
    enable_hbm_exploration: bool = True
    enable_intra_floorplan: bool = True
    #: Reserve network-port resources on every device before inter-FPGA
    #: floorplanning so the AlveoLink IPs always fit.
    reserve_network_ports: bool = True
    #: Static design-rule checking: ``"error"`` rejects graphs that fail
    #: pre-flight DRC with :class:`~repro.errors.DesignRuleError`,
    #: ``"warn"`` downgrades those errors to diagnostics on the compiled
    #: design, ``"off"`` skips DRC entirely (legacy ``validate()`` only).
    drc: str = "error"
    #: Per-task wall-clock budget for the parallel synthesis step; a task
    #: that exceeds it raises :class:`~repro.errors.SynthesisTimeoutError`
    #: naming the task instead of hanging the whole compile.  ``None``
    #: and ``0`` mean unlimited.
    synthesis_task_timeout_s: float | None = None
    #: Best floorplan quality tier the ladder may attempt (see
    #: :mod:`repro.core.ladder`).  ``"full"`` is the normal flow; a lower
    #: start skips the expensive tiers outright — e.g. the serving layer
    #: forces ``"greedy"`` while the ILP circuit breaker is open.
    ladder_start: str = "full"

    def __post_init__(self) -> None:
        # Keep one threshold across both layers unless explicitly overridden.
        self.inter = replace(self.inter, threshold=self.threshold)
        self.intra = replace(self.intra, threshold=self.threshold)
        if self.drc not in ("error", "warn", "off"):
            raise TapaCSError(
                f"CompilerConfig.drc must be 'error', 'warn', or 'off', "
                f"not {self.drc!r}"
            )
        if self.ladder_start not in TIERS:
            raise TapaCSError(
                f"CompilerConfig.ladder_start must be one of {TIERS}, "
                f"not {self.ladder_start!r}"
            )


def _reserved_cluster(cluster: Cluster, config: CompilerConfig) -> Cluster:
    """A view of the cluster with AlveoLink port area pre-reserved."""
    if not config.reserve_network_ports or cluster.num_devices == 1:
        return cluster
    devices = []
    for dev in cluster.devices:
        overhead = port_overhead(dev.part) * dev.part.num_qsfp_ports
        devices.append(
            FPGAInstance(
                device_num=dev.device_num,
                part=dev.part,
                node=dev.node,
                reserved=dev.reserved + overhead,
            )
        )
    return Cluster(
        devices=devices,
        topology=cluster.topology,
        intra_node_link=cluster.intra_node_link,
        inter_node_link=cluster.inter_node_link,
    )


def _worst_unpipelined_crossings(
    graph: TaskGraph, floorplan: IntraFloorplan, pipelined: bool
) -> float:
    """Worst-case unregistered die-crossing exposure, width-weighted.

    A 512-bit bus crossing two dies unregistered is the killer path; a
    32-bit scalar stream barely registers.  Crossing counts are therefore
    scaled by ``min(1, width/128)`` so that the wide-datapath designs
    (stencil, PageRank, KNN) pay full price while a systolic array's
    narrow streams stay fast — matching the paper's Vitis baselines
    (123-165 MHz for the former, 300 MHz for the 13x4 CNN).
    """
    if pipelined:
        return 0.0
    placed = set(floorplan.placement)
    return float(
        max(
            (
                floorplan.crossings(c.src, c.dst)
                * min(1.0, c.width_bits / 128.0)
                for c in graph.channels()
                if c.src in placed and c.dst in placed
            ),
            default=0,
        )
    )


def _device_timing_inputs(
    graph: TaskGraph,
    part: FPGAPart,
    floorplan: IntraFloorplan,
    binding: HBMBinding,
    network_bump: float,
    pipelined: bool,
) -> TimingInputs:
    return TimingInputs(
        max_unpipelined_crossings=_worst_unpipelined_crossings(
            graph, floorplan, pipelined
        ),
        max_slot_utilization=floorplan.max_slot_utilization(part) + network_bump,
        hbm_binding_quality=binding.quality(part),
    )


def _check_reachable(inter, cluster: Cluster, faults: FaultScenario | None) -> None:
    """Reject plans whose cut channels span disconnected survivors.

    The degraded topology gives unreachable pairs a huge-but-finite
    distance so the ILP steers away from them; if capacity still forces a
    stream across such a pair there is no physical path to carry it.
    """
    topology = cluster.topology
    if not isinstance(topology, DegradedTopology):
        return
    broken = sorted(
        {
            (inter.assignment[c.src], inter.assignment[c.dst])
            for c in inter.cut_channels
            if topology.is_unreachable(
                inter.assignment[c.src], inter.assignment[c.dst]
            )
        }
    )
    if broken:
        pairs = ", ".join(f"{a}<->{b}" for a, b in broken)
        raise DegradedClusterError(
            f"floorplan requires communication between devices with no "
            f"surviving network path: {pairs}",
            faults=faults.describe_faults() if faults is not None else [],
        )


def compile_design(
    graph: TaskGraph,
    cluster: Cluster,
    config: CompilerConfig | None = None,
    flow: str = "tapa-cs",
    faults: FaultScenario | None = None,
) -> CompiledDesign:
    """Run the full TAPA-CS pipeline on ``graph`` targeting ``cluster``.

    With a ``faults`` scenario the pipeline plans on the *surviving*
    substrate: failed devices are masked to zero capacity, down links are
    routed around, and the scenario's solver budget (if any) overrides the
    configured ILP time limits.  When the faults make the design
    unplaceable the raise is a :class:`DegradedClusterError` naming them,
    never an opaque infeasibility.  A healthy (or absent) scenario leaves
    every code path bit-for-bit identical to a plain compile.
    """
    config = config or CompilerConfig()
    deadline = current_deadline()
    if deadline is not None:
        deadline.check("compile")
    fault_active = faults is not None and not faults.is_healthy
    if faults is not None:
        cluster = apply_faults(cluster, faults)  # identity when healthy
        if faults.solver_time_limit is not None:
            config = replace(
                config,
                inter=replace(config.inter, time_limit=faults.solver_time_limit),
                intra=replace(config.intra, time_limit=faults.solver_time_limit),
            )
    stage_seconds: dict[str, float] = {}
    drain_solve_log()  # discard solves logged by earlier callers

    def _charge(stage: str, start_time: float) -> None:
        stage_seconds[stage] = (
            stage_seconds.get(stage, 0.0) + time.perf_counter() - start_time
        )

    # Step 1: pre-flight design-rule checking.  Errors on preflight rules
    # abort before any synthesis or solver time is spent; warnings (and
    # downgraded errors under drc="warn") ride along on the artifact.
    # Capacity-class rules never raise here — the floorplanning ILPs
    # re-derive those exactly and keep their InfeasibleError contract.
    stage_start = time.perf_counter()
    diagnostics: list = []
    if config.drc != "off":
        from ..check import RULES, DiagnosticReport, Severity, check_graph

        preflight = check_graph(graph)
        blocking = [d for d in preflight.errors if RULES[d.rule].preflight]
        if config.drc == "error" and blocking:
            DiagnosticReport(preflight.diagnostics).raise_if_errors(
                context=f"graph {graph.name!r}"
            )
        for diag in preflight:
            if diag.severity is Severity.ERROR:
                diag = replace(diag, severity=Severity.WARNING)
            diagnostics.append(diag)
    else:
        graph.validate()
    _charge("drc", stage_start)

    # Step 2: parallel synthesis.
    stage_start = time.perf_counter()
    base_report = synthesize(
        graph, task_timeout_s=config.synthesis_task_timeout_s
    )
    _charge("synthesis", stage_start)

    # Steps 3-5 run inside the quality ladder (see repro.core.ladder):
    # a tier that fails on a solver error or a deadline miss steps down
    # to a cheaper floorplanning strategy instead of failing the compile.
    planning_cluster = _reserved_cluster(cluster, config)

    def _plan(
        active: CompilerConfig, tier: str
    ) -> tuple[object, object, dict[int, IntraFloorplan], dict[int, HBMBinding], float]:
        """One ladder tier's attempt at steps 3-5 (with spread retries).

        The inter-FPGA ILP only sees device-level capacity, so a legal
        device assignment can still fail slot-level bin packing (e.g.
        seven half-slot modules on a six-slot grid).  When a device's
        intra floorplan is unroutable, redo the inter-FPGA floorplan at a
        tighter threshold, which spreads modules over more devices.
        """
        last_intra_error: InfeasibleError | None = None
        for inter_threshold in (
            active.inter.threshold,
            active.inter.threshold * 0.85,
            active.inter.threshold * 0.7,
        ):
            # Step 3: inter-FPGA floorplanning on the port-reserved cluster.
            stage_start = time.perf_counter()
            inter_fn = (
                floorplan_inter_coarse if tier == "coarse" else floorplan_inter
            )
            inter = inter_fn(
                graph,
                planning_cluster,
                replace(active.inter, threshold=inter_threshold),
            )
            _charge("inter_floorplan", stage_start)
            _check_reachable(inter, planning_cluster, faults)

            # Step 4: communication logic insertion.  Module records from
            # the base synthesis carry over, so only the freshly inserted
            # tx/rx tasks are estimated on each retry — the original tasks
            # keep their profiles across every tightened threshold.
            stage_start = time.perf_counter()
            comm = insert_communication(graph, inter, cluster)
            synthesize(
                comm.graph,
                known_modules=base_report.modules,
                task_timeout_s=active.synthesis_task_timeout_s,
            )
            _charge("comm_insertion", stage_start)

            # Step 5: intra-FPGA floorplanning per device (+ HBM binding).
            stage_start = time.perf_counter()
            intra: dict[int, IntraFloorplan] = {}
            bindings: dict[int, HBMBinding] = {}
            intra_seconds = 0.0
            try:
                for device in sorted(set(comm.assignment.values())):
                    part = cluster.device(device).part
                    local_names = [
                        n for n, d in comm.assignment.items() if d == device
                    ]
                    local = comm.graph.subgraph(
                        local_names, name=f"{graph.name}_F{device}"
                    )
                    intra_config = active.intra
                    if not active.enable_intra_floorplan:
                        intra_config = replace(intra_config, method="naive")
                    else:
                        # The slot threshold tracks how full the device
                        # actually is: a lightly-used device spreads (a
                        # min-wirelength ILP would otherwise pack one slot
                        # to the global ceiling and pay the congestion
                        # penalty for nothing), while a full device gets
                        # bin-packing headroom above the global threshold.
                        # Hot slots are charged by the timing model, not
                        # rejected.
                        device_util = local.total_resources().max_utilization(
                            part.resources
                        )
                        adaptive = min(0.95, max(0.35, device_util + 0.15))
                        intra_config = replace(intra_config, threshold=adaptive)
                    plan = None
                    last_error: InfeasibleError | None = None
                    for attempt_threshold in (intra_config.threshold, 0.95, 1.0):
                        if attempt_threshold < intra_config.threshold:
                            continue
                        try:
                            plan = floorplan_intra(
                                local,
                                part,
                                device_num=device,
                                config=replace(
                                    intra_config, threshold=attempt_threshold
                                ),
                            )
                            break
                        except InfeasibleError as exc:
                            last_error = exc
                    if plan is None:
                        raise last_error  # unroutable even at 100 % slots
                    intra[device] = plan
                    intra_seconds += plan.solve_seconds
                    start = time.perf_counter()
                    bindings[device] = bind_hbm_channels(
                        comm.graph,
                        plan,
                        part,
                        explore=active.enable_hbm_exploration,
                        backend=active.intra.backend,
                    )
                    intra_seconds += time.perf_counter() - start
            except InfeasibleError as exc:
                last_intra_error = exc
                _charge("intra_floorplan", stage_start)
                continue
            _charge("intra_floorplan", stage_start)
            return inter, comm, intra, bindings, intra_seconds
        raise last_intra_error

    inter = comm = None
    intra: dict[int, IntraFloorplan] = {}
    bindings: dict[int, HBMBinding] = {}
    intra_seconds = 0.0
    descent = tiers_from(choose_start_tier(deadline, config))
    achieved_tier = descent[-1]
    try:
        for step, tier in enumerate(descent):
            active = tier_config(config, tier, deadline)
            try:
                inter, comm, intra, bindings, intra_seconds = _plan(active, tier)
                record_tier(tier, ok=True)
                achieved_tier = tier
                break
            except (SolverError, DeadlineExceededError) as exc:
                record_tier(tier, ok=False, error=exc)
                stage_seconds["ladder_steps"] = (
                    stage_seconds.get("ladder_steps", 0.0) + 1.0
                )
                if step == len(descent) - 1:
                    raise
    except DegradedClusterError:
        raise
    except InfeasibleError as exc:
        if fault_active:
            raise DegradedClusterError(
                f"design {graph.name!r} has no feasible plan on the cluster "
                f"surviving scenario {faults.name!r}: {exc}",
                faults=faults.describe_faults(),
            ) from exc
        raise

    # Step 6: interconnect pipelining + cut-set balancing.
    if deadline is not None:
        deadline.check("pipelining")
    stage_start = time.perf_counter()
    pipelines: dict[int, PipelineResult] = {}
    for device, plan in intra.items():
        if config.enable_pipelining:
            result = pipeline_device(
                comm.graph, plan, balance=config.enable_balancing
            )
            if config.enable_balancing:
                verify_balanced(comm.graph, plan, result)
        else:
            result = PipelineResult(device_num=device)
        pipelines[device] = result
    _charge("pipelining", stage_start)

    # Step 7: timing estimation (stands in for bitstream Fmax).
    stage_start = time.perf_counter()
    per_device_freq: dict[int, float] = {}
    for device, plan in intra.items():
        part = cluster.device(device).part
        bump = comm.network_overhead.get(device)
        bump_value = (
            bump.max_utilization(part.resources) if bump is not None else 0.0
        )
        inputs = _device_timing_inputs(
            comm.graph,
            part,
            plan,
            bindings[device],
            bump_value,
            pipelined=config.enable_pipelining,
        )
        per_device_freq[device] = estimate_frequency_mhz(part, inputs, config.timing)

    frequency = min(per_device_freq.values()) if per_device_freq else (
        cluster.device(0).part.max_frequency_mhz
    )
    _charge("timing", stage_start)

    # Solver accounting: which ILP backend actually produced each solve.
    # ``ilp_<backend>`` accumulates solve time per winning backend and
    # ``ilp_fallbacks`` counts scipy failures rescued by branch-and-bound.
    for solver_backend, solve_secs, fell_back in drain_solve_log():
        key = f"ilp_{solver_backend}"
        stage_seconds[key] = stage_seconds.get(key, 0.0) + solve_secs
        if fell_back:
            stage_seconds["ilp_fallbacks"] = (
                stage_seconds.get("ilp_fallbacks", 0.0) + 1.0
            )

    design = CompiledDesign(
        name=graph.name,
        source_graph=graph,
        graph=comm.graph,
        cluster=cluster,
        inter=inter,
        comm=comm,
        intra=intra,
        pipelines=pipelines,
        hbm_bindings=bindings,
        frequency_mhz=frequency,
        per_device_frequency_mhz=per_device_freq,
        inter_floorplan_seconds=inter.solve_seconds,
        intra_floorplan_seconds=intra_seconds,
        flow=flow,
        stage_seconds=stage_seconds,
        diagnostics=diagnostics,
        floorplan_tier=achieved_tier,
    )

    # Post-flight floorplan DRC: audit the artifact we just produced.
    # Findings are attached, never raised — an F-rule error here means a
    # pipeline-stage invariant broke, and the artifact (plus diagnostics)
    # is exactly what's needed to debug it.
    if config.drc != "off":
        stage_start = time.perf_counter()
        from ..check import check_design

        design.diagnostics.extend(check_design(design))
        _charge("drc", stage_start)
    return design


def _single_device_cluster(part: FPGAPart) -> Cluster:
    return make_cluster(1, part=part)


def compile_single_tapa(
    graph: TaskGraph,
    part: FPGAPart = ALVEO_U55C,
    config: CompilerConfig | None = None,
) -> CompiledDesign:
    """The F1-T baseline: TAPA/AutoBridge on a single FPGA.

    Intra-FPGA floorplanning and interconnect pipelining are on; there is
    no inter-FPGA dimension.
    """
    config = config or CompilerConfig()
    return compile_design(graph, _single_device_cluster(part), config, flow="tapa")


def vitis_config(base: CompilerConfig | None = None) -> CompilerConfig:
    """The F1-V knob set: every TAPA-CS optimization switched off."""
    base = base or CompilerConfig()
    return CompilerConfig(
        threshold=base.threshold,
        inter=base.inter,
        intra=base.intra,
        timing=base.timing,
        enable_pipelining=False,
        enable_balancing=False,
        enable_hbm_exploration=False,
        enable_intra_floorplan=False,
        reserve_network_ports=False,
        drc=base.drc,
        synthesis_task_timeout_s=base.synthesis_task_timeout_s,
        ladder_start=base.ladder_start,
    )


def compile_single_vitis(
    graph: TaskGraph,
    part: FPGAPart = ALVEO_U55C,
    config: CompilerConfig | None = None,
) -> CompiledDesign:
    """The F1-V baseline: plain Vitis HLS on a single FPGA.

    No floorplanning (modules packed blindly), no interconnect pipelining,
    and the naive in-order HBM channel binding.
    """
    return compile_design(
        graph, _single_device_cluster(part), vitis_config(config), flow="vitis"
    )
