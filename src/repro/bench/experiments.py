"""Experiment definitions: one function per paper table/figure.

Each function returns ``(headers, rows)`` ready for
:func:`repro.bench.format.render_table`; the ``benchmarks/`` scripts wrap
them in pytest-benchmark harnesses.  ``quick=True`` trims the swept
configurations (never the model fidelity) so smoke runs stay fast.
"""

from __future__ import annotations

import os
import time
from typing import Any, Sequence

from ..apps import common as app_common
from ..apps import graphgen
from ..apps.cnn import GRID_FOR_FLOW, build_cnn, cnn_config_for_flow
from ..apps.common import AppRun, run_flow
from ..apps.knn import build_knn, knn_config_for_flow
from ..apps.pagerank import build_pagerank, pagerank_config_for_flow
from ..apps.stencil import build_stencil, stencil_config_for_flow
from ..cluster.cluster import paper_testbed
from ..core.compiler import CompilerConfig, compile_design
from ..core.inter_floorplan import InterFloorplanConfig, floorplan_inter
from ..devices.parts import ALVEO_U55C
from ..hls.resource import RESOURCE_KINDS
from ..hls.synthesis import synthesize
from ..network.alveolink import ALVEOLINK
from ..network.internode import BANDWIDTH_HIERARCHY
from ..network.protocols import ALL_PROTOCOLS
from ..perf.sweep import SweepSpec, run_sweep
from ..sim.execution import SimulationConfig, simulate

Rows = tuple[Sequence[str], list[list[Any]]]

#: The flows every latency experiment sweeps.
FLOWS = ("F1-V", "F1-T", "F2", "F3", "F4")


def is_quick() -> bool:
    """True when the REPRO_QUICK environment switch is set."""
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


# ---------------------------------------------------------------------------
# App-level measurement helpers
# ---------------------------------------------------------------------------


def run_stencil(iterations: int, flow: str, rows: int = 4096, cols: int = 4096) -> AppRun:
    config = stencil_config_for_flow(iterations, flow, rows=rows, cols=cols)
    # In temporal mode each pass's output frame must travel from the last
    # FPGA of the chain back to the first one before the next pass can
    # start — over the QSFP ring within a node, or over the 10 Gbps host
    # path when the chain spans nodes (the Section 5.7 bottleneck).
    wraparound_s = 0.0
    count = app_common.flow_num_fpgas(flow)
    if config.resolved_mode == "temporal" and count > 1:
        from ..network.alveolink import ALVEOLINK
        from ..network.internode import INTER_NODE_PATH

        cluster = paper_testbed(count)
        if cluster.same_node(count - 1, 0):
            wraparound_s = ALVEOLINK.transfer_seconds(config.frame_bytes)
        else:
            wraparound_s = INTER_NODE_PATH.transfer_seconds(config.frame_bytes)
    return run_flow(
        build_stencil(config),
        "stencil",
        flow,
        repeats=config.host_repeats,
        per_repeat_overhead_s=wraparound_s,
        label=f"{flow}/i{iterations}",
    )


def run_pagerank(network: str, flow: str, sweeps: int = 20, scale: float = 1.0) -> AppRun:
    spec = graphgen.get_network(network)
    config, _ = pagerank_config_for_flow(spec, flow, scale=scale)
    return run_flow(
        build_pagerank(config),
        "pagerank",
        flow,
        repeats=sweeps,
        label=f"{flow}/{network}",
    )


def run_knn(flow: str, n: int, d: int, k: int = 10) -> AppRun:
    config = knn_config_for_flow(flow, n=n, d=d, k=k)
    return run_flow(build_knn(config), "knn", flow, label=f"{flow}/N{n}/D{d}")


def run_cnn(flow: str) -> AppRun:
    config = cnn_config_for_flow(flow)
    return run_flow(build_cnn(config), "cnn", flow, label=f"{flow}/{config.grid_name}")


# ---------------------------------------------------------------------------
# Table 1 / Table 2
# ---------------------------------------------------------------------------


def table1_comparison() -> Rows:
    """The qualitative landscape plus our modeled TAPA-CS Fmax."""
    headers = ("Method", "HLS", "Ethernet", "Floorplan", "Pipelining",
               "Topology", "AutoPartition", "Fmax (MHz)")
    rows = [
        ["FPGA'12", "no", "no", "no", "no", "no", "no", 85],
        ["Simulation-based", "no", "no", "no", "no", "no", "yes", "-"],
        ["Virtualization-based", "yes", "yes", "no", "no", "no", "yes", "100-300"],
        ["CNN/DNN-specific", "yes", "yes", "no", "no", "no", "yes", 240],
        ["TAPA-CS (this repro)", "yes", "yes", "yes", "yes", "yes", "yes", 300],
    ]
    return headers, rows


def table2_resources() -> Rows:
    headers = ("Resource Type", "Available")
    rows = [[kind.upper(), int(ALVEO_U55C.resources[kind])] for kind in RESOURCE_KINDS]
    return headers, rows


# ---------------------------------------------------------------------------
# Table 3: headline speed-ups
# ---------------------------------------------------------------------------


def table3_speedups(quick: bool | None = None, jobs: int | None = None) -> Rows:
    """Speed-up of F1-T/F2/F3/F4 vs F1-V, averaged across configurations.

    Every (benchmark, flow, parameter) run is independent, so the whole
    table fans out through the sweep executor; rows are identical to the
    serial path because each run is a pure function of its inputs.
    """
    quick = is_quick() if quick is None else quick
    stencil_iters = (64,) if quick else (64, 512)
    knn_dims = (16,) if quick else (2, 16, 128)
    networks = ("cit-Patents",) if quick else ("cit-Patents", "web-Google")

    headers = ("Benchmark", "F1-V", "F1-T", "F2", "F3", "F4")

    tagged: list[tuple[str, str, SweepSpec]] = []
    for flow in FLOWS:
        for iters in stencil_iters:
            tagged.append(
                ("Stencil", flow,
                 SweepSpec(run_stencil, (iters, flow),
                           key=f"stencil/{flow}/i{iters}"))
            )
    for flow in FLOWS:
        for net in networks:
            tagged.append(
                ("PageRank", flow,
                 SweepSpec(run_pagerank, (net, flow),
                           key=f"pagerank/{flow}/{net}"))
            )
    for flow in FLOWS:
        for d in knn_dims:
            tagged.append(
                ("KNN", flow,
                 SweepSpec(run_knn, (flow,), {"n": 4_000_000, "d": d},
                           key=f"knn/{flow}/n4M/d{d}"))
            )
    for flow in FLOWS:
        tagged.append(("CNN", flow, SweepSpec(run_cnn, (flow,), key=f"cnn/{flow}")))

    results = run_sweep([spec for _, _, spec in tagged], jobs=jobs)
    runs: dict[tuple[str, str], list[AppRun]] = {}
    for (bench, flow, _), run in zip(tagged, results):
        runs.setdefault((bench, flow), []).append(run)

    rows = []
    for bench in ("Stencil", "PageRank", "KNN", "CNN"):
        speedups = []
        for flow in FLOWS:
            ratios = [
                base.latency_s / run.latency_s
                for base, run in zip(runs[(bench, "F1-V")], runs[(bench, flow)])
            ]
            speedups.append(sum(ratios) / len(ratios))
        rows.append([bench] + [round(s, 2) for s in speedups])
    return headers, rows


# ---------------------------------------------------------------------------
# Table 4 / Figures 10-11: stencil
# ---------------------------------------------------------------------------


def table4_stencil_intensity() -> Rows:
    """Compute intensity and inter-FPGA volume over iteration counts."""
    headers = ("Iters", "Ops/Byte", "Volume (MB)")
    rows = []
    for iters in (64, 128, 256, 512):
        config = stencil_config_for_flow(iters, "F4")
        run = run_stencil(iters, "F4")
        rows.append(
            [iters, round(config.compute_intensity(), 0), round(run.inter_fpga_volume_mb, 2)]
        )
    return headers, rows


def fig10_stencil_latency(
    quick: bool | None = None, jobs: int | None = None
) -> Rows:
    quick = is_quick() if quick is None else quick
    iter_list = (64, 512) if quick else (64, 128, 256, 512)
    headers = ("Iters",) + FLOWS
    specs = [
        SweepSpec(run_stencil, (iters, flow), key=f"stencil/{flow}/i{iters}")
        for iters in iter_list
        for flow in FLOWS
    ]
    results = iter(run_sweep(specs, jobs=jobs))
    rows = []
    for iters in iter_list:
        rows.append([iters] + [round(next(results).latency_ms, 2) for _ in FLOWS])
    return headers, rows


def fig11_stencil_resources() -> Rows:
    return _resource_figure(lambda flow: build_stencil(stencil_config_for_flow(64, flow)))


def _resource_figure(graph_for_flow) -> Rows:
    """Per-FPGA resource utilization, F1-T vs the four F4 devices."""
    headers = ("Design", "LUT%", "FF%", "BRAM%", "DSP%", "URAM%")
    rows = []
    tapa = app_common.compile_flow(graph_for_flow("F1-T"), "F1-T")
    util = tapa.device_utilization(0)
    rows.append(["F1-T"] + [round(util[k] * 100, 1) for k in RESOURCE_KINDS])
    f4 = app_common.compile_flow(graph_for_flow("F4"), "F4")
    for device in sorted(set(f4.comm.assignment.values())):
        util = f4.device_utilization(device)
        rows.append(
            [f"F4-{device + 1}"] + [round(util[k] * 100, 1) for k in RESOURCE_KINDS]
        )
    return headers, rows


# ---------------------------------------------------------------------------
# Table 5 / Figures 12-13: PageRank
# ---------------------------------------------------------------------------


def table5_networks() -> Rows:
    headers = ("Network", "Nodes", "Edges")
    rows = [[s.name, s.nodes, s.edges] for s in graphgen.SNAP_NETWORKS]
    return headers, rows


def fig12_pagerank_latency(
    quick: bool | None = None, jobs: int | None = None
) -> Rows:
    quick = is_quick() if quick is None else quick
    networks = (
        ("cit-Patents",)
        if quick
        else tuple(s.name for s in graphgen.SNAP_NETWORKS)
    )
    headers = ("Network",) + FLOWS
    specs = [
        SweepSpec(run_pagerank, (network, flow),
                  key=f"pagerank/{flow}/{network}")
        for network in networks
        for flow in FLOWS
    ]
    results = iter(run_sweep(specs, jobs=jobs))
    rows = []
    for network in networks:
        rows.append(
            [network] + [round(next(results).latency_ms, 1) for _ in FLOWS]
        )
    return headers, rows


def fig13_pagerank_resources() -> Rows:
    def build(flow):
        config, _ = pagerank_config_for_flow(
            graphgen.get_network("cit-Patents"), flow
        )
        return build_pagerank(config)

    return _resource_figure(build)


# ---------------------------------------------------------------------------
# Table 6 / Figures 14-16: KNN
# ---------------------------------------------------------------------------


def table6_knn_params() -> Rows:
    headers = ("Parameter", "Values")
    rows = [
        ["N: dataset points", "1M, 2M, 3M, 4M, 8M"],
        ["D: feature dimensions", "2, 4, 8, 16, 32, 64, 128"],
        ["K", "10"],
    ]
    return headers, rows


def fig14_knn_dims(quick: bool | None = None, jobs: int | None = None) -> Rows:
    """Speed-up vs Vitis over feature dimension (N=4M, K=10)."""
    quick = is_quick() if quick is None else quick
    dims = (2, 16, 128) if quick else (2, 4, 8, 16, 32, 64, 128)
    headers = ("D",) + FLOWS[1:]
    specs = [
        SweepSpec(run_knn, (flow,), {"n": 4_000_000, "d": d},
                  key=f"knn/{flow}/n4M/d{d}")
        for d in dims
        for flow in FLOWS
    ]
    results = iter(run_sweep(specs, jobs=jobs))
    rows = []
    for d in dims:
        base = next(results)
        rows.append(
            [d]
            + [
                round(base.latency_s / next(results).latency_s, 2)
                for _ in FLOWS[1:]
            ]
        )
    return headers, rows


def fig15_knn_sizes(quick: bool | None = None, jobs: int | None = None) -> Rows:
    """Speed-up vs Vitis over dataset size (D=2, K=10)."""
    quick = is_quick() if quick is None else quick
    sizes = (1_000_000, 8_000_000) if quick else (
        1_000_000, 2_000_000, 3_000_000, 4_000_000, 8_000_000
    )
    headers = ("N",) + FLOWS[1:]
    specs = [
        SweepSpec(run_knn, (flow,), {"n": n, "d": 2},
                  key=f"knn/{flow}/n{n // 1_000_000}M/d2")
        for n in sizes
        for flow in FLOWS
    ]
    results = iter(run_sweep(specs, jobs=jobs))
    rows = []
    for n in sizes:
        base = next(results)
        rows.append(
            [f"{n // 1_000_000}M"]
            + [
                round(base.latency_s / next(results).latency_s, 2)
                for _ in FLOWS[1:]
            ]
        )
    return headers, rows


def fig16_knn_resources() -> Rows:
    return _resource_figure(
        lambda flow: build_knn(knn_config_for_flow(flow, n=4_000_000, d=16))
    )


# ---------------------------------------------------------------------------
# Tables 7-8 / Figure 17: CNN
# ---------------------------------------------------------------------------


def table7_cnn_volumes() -> Rows:
    """Inter-FPGA transfer volume per grid size (fixed input)."""
    headers = ("Grid Size", "Volume (MB)")
    rows = []
    for flow, cols in GRID_FOR_FLOW.items():
        config = cnn_config_for_flow(flow)
        volume_mb = config.row_stream_tokens() * config.rows * 4.0 / 1e6
        rows.append([config.grid_name, round(volume_mb, 2)])
    return headers, rows


def table8_cnn_resources() -> Rows:
    """Resource utilization of each grid size against one U55C."""
    headers = ("Grid", "LUT%", "FF%", "BRAM%", "DSP%", "URAM%")
    rows = []
    for flow in FLOWS:
        config = cnn_config_for_flow(flow)
        graph = build_cnn(config)
        report = synthesize(graph)
        util = report.utilization_against(ALVEO_U55C.resources)
        rows.append(
            [config.grid_name] + [round(util[k] * 100, 1) for k in RESOURCE_KINDS]
        )
    return headers, rows


def fig17_cnn_latency() -> Rows:
    headers = ("Flow", "Grid", "Latency (ms)", "Fmax (MHz)", "Speed-up vs F1-V")
    rows = []
    base = None
    for flow in FLOWS:
        run = run_cnn(flow)
        if base is None:
            base = run
        rows.append(
            [
                flow,
                cnn_config_for_flow(flow).grid_name,
                round(run.latency_ms, 3),
                round(run.frequency_mhz),
                round(base.latency_s / run.latency_s, 2),
            ]
        )
    return headers, rows


# ---------------------------------------------------------------------------
# Tables 9-10 / Figure 8: network substrate
# ---------------------------------------------------------------------------


def table9_bandwidth_hierarchy() -> Rows:
    headers = ("Transfer", "Bandwidth")
    rows = [[tier.name, tier.bandwidth_label] for tier in BANDWIDTH_HIERARCHY]
    return headers, rows


def table10_protocols() -> Rows:
    headers = ("Project", "Orchestration", "Overhead (%)", "Throughput (Gbps)")
    rows = [
        [
            p.name,
            p.orchestration.value,
            "-" if p.resource_overhead_percent is None else p.resource_overhead_percent,
            p.throughput_gbps,
        ]
        for p in ALL_PROTOCOLS
    ]
    return headers, rows


def fig8_alveolink_throughput() -> Rows:
    """Achieved throughput vs transfer size (the Figure 8 ramp)."""
    headers = ("Transfer size", "Throughput (Gbps)")
    rows = []
    for size in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
        label = f"{size:.0e}B"
        rows.append([label, round(ALVEOLINK.throughput_gbps(size), 2)])
    return headers, rows


# ---------------------------------------------------------------------------
# Section 5.6: overheads
# ---------------------------------------------------------------------------


def sec56_floorplan_overhead(quick: bool | None = None) -> Rows:
    """L1/L2 floorplanner runtimes for the smallest and largest designs."""
    quick = is_quick() if quick is None else quick
    headers = ("Design", "Modules", "L1 (s)", "L2 (s)")
    rows = []
    stencil_iters = (64,) if quick else (64, 128, 256)
    for iters in stencil_iters:
        run = run_stencil(iters, "F2", rows=4096, cols=4096)
        rows.append(
            [
                f"Stencil i{iters}",
                run.design.source_graph.num_tasks,
                round(run.design.inter_floorplan_seconds, 2),
                round(run.design.intra_floorplan_seconds, 2),
            ]
        )
    cnn_flows = ("F1-V", "F2") if quick else FLOWS
    for flow in cnn_flows:
        run = run_cnn(flow)
        rows.append(
            [
                f"CNN {cnn_config_for_flow(flow).grid_name}",
                run.design.source_graph.num_tasks,
                round(run.design.inter_floorplan_seconds, 2),
                round(run.design.intra_floorplan_seconds, 2),
            ]
        )
    return headers, rows


def sec56_network_overhead() -> Rows:
    """AlveoLink per-port resource overhead on the U55C."""
    from ..network.alveolink import port_overhead

    headers = ("Resource", "Overhead per port (%)")
    overhead = port_overhead(ALVEO_U55C)
    rows = [
        [kind.upper(), round(overhead[kind] / ALVEO_U55C.resources[kind] * 100, 2)
         if ALVEO_U55C.resources[kind] else 0.0]
        for kind in RESOURCE_KINDS
    ]
    return headers, rows


# ---------------------------------------------------------------------------
# Section 5.7: multi-node scaling
# ---------------------------------------------------------------------------


def sec57_multinode() -> Rows:
    """8-FPGA (2 x 4-ring) runs: stencil 512-iter and PageRank cit-Patents."""
    headers = ("Benchmark", "Config", "Latency (s)", "vs F1-V")
    rows = []

    base = run_stencil(512, "F1-V")
    config = stencil_config_for_flow(512, "F8")
    run8 = run_flow(
        build_stencil(config), "stencil", "F8", repeats=config.host_repeats
    )
    rows.append(
        [
            "Stencil",
            "512 iters, 120 PEs, 8 FPGAs",
            round(run8.latency_s, 3),
            f"{base.latency_s / run8.latency_s:.2f}x",
        ]
    )

    pr_base = run_pagerank("cit-Patents", "F1-V")
    pr8 = run_pagerank("cit-Patents", "F8")
    rows.append(
        [
            "PageRank",
            "cit-Patents, 32 PEs, 8 FPGAs",
            round(pr8.latency_s, 3),
            f"{pr_base.latency_s / pr8.latency_s:.2f}x",
        ]
    )
    # The paper's reference point: the 8-FPGA PageRank should stay slower
    # than the single-node F2 design because of the 10 Gbps host link.
    pr2 = run_pagerank("cit-Patents", "F2")
    rows.append(
        [
            "PageRank",
            "cit-Patents, 8 PEs, 2 FPGAs (1 node)",
            round(pr2.latency_s, 3),
            f"{pr_base.latency_s / pr2.latency_s:.2f}x",
        ]
    )
    return headers, rows


# ---------------------------------------------------------------------------
# Frequency summary (Sections 5.2-5.5)
# ---------------------------------------------------------------------------


def frequency_table() -> Rows:
    """Fmax per application per flow — the paper's 11-116% improvements."""
    headers = ("Benchmark", "F1-V", "F1-T", "TAPA-CS (F4)", "Gain vs Vitis")
    rows = []
    cases = [
        ("Stencil", lambda flow: run_stencil(64, flow)),
        ("PageRank", lambda flow: run_pagerank("cit-Patents", flow)),
        ("KNN", lambda flow: run_knn(flow, n=4_000_000, d=16)),
        ("CNN", run_cnn),
    ]
    for name, runner in cases:
        vitis = runner("F1-V").frequency_mhz
        tapa = runner("F1-T").frequency_mhz
        tapacs = runner("F4").frequency_mhz
        rows.append(
            [
                name,
                round(vitis),
                round(tapa),
                round(tapacs),
                f"{(tapacs / vitis - 1) * 100:.0f}%",
            ]
        )
    return headers, rows


# ---------------------------------------------------------------------------
# Harness smoke target
# ---------------------------------------------------------------------------


def sweep_smoke(quick: bool | None = None, jobs: int | None = None) -> Rows:
    """A deliberately tiny sweep that exercises the parallel executor.

    ``python -m repro bench sweep_smoke --quick --jobs 2`` compiles and
    simulates four small stencil configurations (six without
    ``--quick``) on a fleet of worker processes and through the
    content-addressed cache — the CI-sized proof that the ``--jobs``
    path works end to end.
    """
    quick = is_quick() if quick is None else quick
    flows = ("F1-V", "F1-T") if quick else ("F1-V", "F1-T", "F2")
    iter_list = (16, 32)
    headers = ("Config", "Latency (ms)", "Fmax (MHz)")
    specs = [
        SweepSpec(run_stencil, (iters, flow), {"rows": 512, "cols": 512},
                  key=f"stencil/{flow}/i{iters}/512x512")
        for flow in flows
        for iters in iter_list
    ]
    results = run_sweep(specs, jobs=jobs)
    # A quarantined point (crashed/timed out every retry) comes back as
    # None; render it as such rather than losing the whole table.
    rows = [
        [spec.label(), "quarantined", "-"]
        if run is None
        else [run.label, round(run.latency_ms, 3), round(run.frequency_mhz)]
        for spec, run in zip(specs, results)
    ]
    return headers, rows


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def _partitioner_workload():
    """Two wide-bus clusters joined by thin links, each too big for one
    device: the structure where cut quality separates the methods (a
    plain chain has a trivial min-cut that every method finds)."""
    from ..graph.builder import GraphBuilder

    b = GraphBuilder("clustered")
    for group in range(2):
        names = [f"c{group}_{i}" for i in range(8)]
        for name in names:
            b.task(name, hints={"lut": 95_000})
        for i, a in enumerate(names):
            for bname in names[i + 1 : i + 3]:
                b.stream(a, bname, width_bits=512, tokens=1e5)
    for i in range(8):
        b.stream(f"c0_{i}", f"c1_{i}", width_bits=32, tokens=1e3)
    graph = b.build()
    synthesize(graph)
    return graph


def ablation_partitioner() -> Rows:
    """Exact ILP vs recursive bisection vs greedy on the inter-FPGA cut."""
    headers = ("Method", "Cut width (bits)", "Comm cost", "Solve (s)")
    cluster = paper_testbed(2)
    rows = []
    for method in ("ilp", "bisect", "greedy"):
        plan = floorplan_inter(
            _partitioner_workload(),
            cluster,
            InterFloorplanConfig(method=method, time_limit=30.0),
        )
        cut_bits = sum(c.width_bits for c in plan.cut_channels)
        rows.append([method, cut_bits, round(plan.comm_cost, 1),
                     round(plan.solve_seconds, 2)])
    return headers, rows


def ablation_pipelining() -> Rows:
    """Interconnect pipelining on/off: Fmax and latency effect."""
    headers = ("Pipelining", "Fmax (MHz)", "Latency (ms)")
    config = stencil_config_for_flow(64, "F2")
    rows = []
    for enabled in (True, False):
        compiler_config = CompilerConfig(
            enable_pipelining=enabled, enable_balancing=enabled
        )
        design = compile_design(
            build_stencil(config), paper_testbed(2), compiler_config
        )
        result = simulate(design)
        rows.append(
            [
                "on" if enabled else "off",
                round(design.frequency_mhz),
                round(result.latency_ms * config.host_repeats, 2),
            ]
        )
    return headers, rows


def _binding_workload():
    """A device-filling mix of wide and narrow HBM ports (more ports than
    channels): the regime where naive in-order binding pairs wide ports
    with each other while the explorer pairs wide with narrow."""
    from ..graph.builder import GraphBuilder
    from ..graph.task import TaskWork

    b = GraphBuilder("binding_mix")
    b.task("hub", hints={"lut": 4_000})
    names = []
    for i in range(16):
        name = f"wide_{i}"
        b.task(name, hints={"lut": 6_000},
               work=TaskWork(compute_cycles=1e4, hbm_bytes_read=64e6),
               hbm_read=(f"w{i}", 512, 64e6))
        names.append(name)
    for i in range(24):
        name = f"narrow_{i}"
        b.task(name, hints={"lut": 3_000},
               work=TaskWork(compute_cycles=1e4, hbm_bytes_read=4e6),
               hbm_read=(f"n{i}", 64, 4e6))
        names.append(name)
    for name in names:
        b.stream("hub", name, width_bits=32, tokens=16)
    graph = b.build()
    return graph


def ablation_hbm_binding() -> Rows:
    """HBM binding exploration on/off (40 mixed ports on 2 x 32 channels)."""
    headers = ("Binding", "Fmax (MHz)", "Latency (ms)", "Oversub (Gbps)")
    rows = []
    for enabled in (True, False):
        compiler_config = CompilerConfig(enable_hbm_exploration=enabled)
        design = compile_design(
            _binding_workload(), paper_testbed(2), compiler_config
        )
        result = simulate(design)
        oversub = sum(
            b.oversubscription_gbps for b in design.hbm_bindings.values()
        )
        rows.append(
            [
                "explored" if enabled else "naive",
                round(design.frequency_mhz),
                round(result.latency_ms, 3),
                round(oversub, 1),
            ]
        )
    return headers, rows


def ablation_topology() -> Rows:
    """Topology-aware vs uniform distance in the inter-FPGA ILP.

    Both assignments are evaluated under the REAL topology metric, so the
    rows are directly comparable: the aware run optimizes what it is
    scored on; the unaware run can land cut channels on distant device
    pairs and pay for it.
    """
    from ..cluster.cluster import make_cluster
    from ..cluster.topology import make_topology

    headers = ("Topology", "Aware", "True comm cost", "Cut volume (MB)")
    config = stencil_config_for_flow(512, "F4")
    rows = []
    for topo_name in ("chain", "ring", "star"):
        cluster = make_cluster(4, topology=make_topology(topo_name, 4))
        for aware in (True, False):
            graph = build_stencil(config)
            synthesize(graph)
            plan = floorplan_inter(
                graph,
                cluster,
                InterFloorplanConfig(topology_aware=aware, time_limit=20.0),
            )
            true_cost = sum(
                chan.width_bits
                * cluster.comm_cost(
                    plan.assignment[chan.src], plan.assignment[chan.dst]
                )
                for chan in plan.cut_channels
            )
            rows.append(
                [
                    topo_name,
                    "yes" if aware else "no",
                    round(true_cost, 1),
                    round(plan.cut_volume_bytes / 1e6, 2),
                ]
            )
    return headers, rows


def ablation_solver_backends() -> Rows:
    """HiGHS vs pure-Python branch-and-bound on one bipartition instance."""
    from ..core.bipartition import BipartitionSpec, bipartition

    headers = ("Backend", "Objective", "Solve (s)")
    config = stencil_config_for_flow(256, "F2")
    graph = build_stencil(config)
    synthesize(graph)
    half = ALVEO_U55C.resources
    rows = []
    for backend in ("scipy", "branch-bound"):
        start = time.perf_counter()
        result = bipartition(
            BipartitionSpec(
                graph=graph,
                capacity_left=half,
                capacity_right=half,
                threshold=0.7,
                backend=backend,
                time_limit=60.0,
            )
        )
        rows.append(
            [backend, round(result.objective, 1), round(time.perf_counter() - start, 2)]
        )
    return headers, rows


# ---------------------------------------------------------------------------
# Fault injection: slowdown vs loss rate, degraded-cluster re-planning
# ---------------------------------------------------------------------------


def _fault_app_graph(app: str, flow: str):
    """Default-size graph for one app under one flow label (picklable path)."""
    if app == "stencil":
        return build_stencil(stencil_config_for_flow(64, flow))
    if app == "pagerank":
        config, _ = pagerank_config_for_flow(
            graphgen.get_network("cit-Patents"), flow
        )
        return build_pagerank(config)
    if app == "knn":
        return build_knn(knn_config_for_flow(flow, n=4_000_000, d=16))
    if app == "cnn":
        return build_cnn(cnn_config_for_flow(flow))
    raise ValueError(f"unknown fault-sweep app {app!r}")


def run_faulted(
    app: str,
    flow: str = "F4",
    loss_rate: float = 0.0,
    kill_device: int | None = None,
) -> AppRun | None:
    """One app run under an injected fault scenario (module-level so the
    sweep executor can pickle it).

    Returns ``None`` when the surviving cluster cannot host the design —
    the sweep renders that as ``infeasible`` instead of crashing, which
    is exactly the graceful-degradation contract the compiler promises.
    """
    from ..errors import DegradedClusterError
    from ..faults import FaultScenario

    scenario = (
        FaultScenario.lossy(loss_rate) if loss_rate > 0.0
        else FaultScenario.healthy()
    )
    if kill_device is not None:
        scenario = scenario.kill_device(kill_device)
    label = f"{app}/{flow}/loss{loss_rate:g}" + (
        f"/kill{kill_device}" if kill_device is not None else ""
    )
    try:
        return run_flow(
            _fault_app_graph(app, flow),
            app,
            flow,
            label=label,
            faults=None if scenario.is_healthy else scenario,
        )
    except DegradedClusterError:
        return None


def fault_sweep(quick: bool | None = None, jobs: int | None = None) -> Rows:
    """Slowdown-vs-loss-rate curves per app, plus a device-kill column.

    Every cell is normalized against the healthy run of the same app, so
    the table reads directly as the robustness figure: slowdown must be
    monotone in the loss rate, and the kill column shows whether the
    design re-plans on three surviving devices or reports infeasibility.
    """
    quick = is_quick() if quick is None else quick
    apps = ("stencil", "pagerank") if quick else ("stencil", "pagerank", "knn", "cnn")
    losses = (1e-3, 1e-2) if quick else (1e-4, 1e-3, 1e-2, 1e-1)
    flow = "F4"

    headers = (
        ("App", "Healthy (ms)")
        + tuple(f"x @ loss {p:g}" for p in losses)
        + ("x @ kill dev0",)
    )
    specs = []
    for app in apps:
        specs.append(
            SweepSpec(run_faulted, (app, flow), key=f"{app}/{flow}/healthy")
        )
        for p in losses:
            specs.append(
                SweepSpec(run_faulted, (app, flow), {"loss_rate": p},
                          key=f"{app}/{flow}/loss{p:g}")
            )
        specs.append(
            SweepSpec(run_faulted, (app, flow), {"kill_device": 0},
                      key=f"{app}/{flow}/kill0")
        )
    results = iter(run_sweep(specs, jobs=jobs))
    rows = []
    for app in apps:
        base = next(results)
        if base is None:
            # The healthy run itself was quarantined: consume the app's
            # remaining cells and keep the row (degraded, not fatal).
            for _ in losses:
                next(results)
            next(results)
            rows.append([app, "quarantined"] + ["-"] * (len(losses) + 1))
            continue
        row = [app, round(base.latency_ms, 3)]
        for _ in losses:
            run = next(results)
            row.append(
                "-" if run is None
                else round(run.latency_s / base.latency_s, 4)
            )
        killed = next(results)
        row.append(
            "infeasible" if killed is None
            else round(killed.latency_s / base.latency_s, 4)
        )
        rows.append(row)
    return headers, rows


def ablation_bulk_transfers() -> Rows:
    """Bulk-DMA vs fully streaming NIC model on the temporal stencil."""
    headers = ("Network model", "Latency (ms)")
    config = stencil_config_for_flow(512, "F4")
    design = app_common.compile_flow(build_stencil(config), "F4")
    rows = []
    for bulk in (True, False):
        result = simulate(design, SimulationConfig(bulk_network_transfers=bulk))
        rows.append(
            [
                "bulk DMA (testbed)" if bulk else "streaming NIC",
                round(result.latency_ms * config.host_repeats, 2),
            ]
        )
    return headers, rows
