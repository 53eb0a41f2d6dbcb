"""Static-analyzer evidence: bound vs. simulation on every paper app.

For each application this regenerates the oracle cross-check — the
static latency lower bound, the simulated latency, their ratio, the
contention verdict, and the named bottleneck — plus the analysis-only
wall time, demonstrating the "milliseconds, not simulations" claim.
The committed baseline pins the ratios: a bound that drifts above the
simulator (ratio < 1) or loosens past the 15 % contract on
contention-free designs fails the quick-bench regression gate.
"""

import time

from repro.bench import print_table

from conftest import run_once


def analyze_oracle_evidence():
    from repro.analyze import analyze_design, cross_check_design
    from repro.cluster import paper_testbed
    from repro.core.compiler import compile_design
    from repro.serve.server import build_app_graph
    from repro.sim.execution import SimulationConfig

    headers = [
        "app", "bound_ms", "sim_ms", "ratio", "contention",
        "bottleneck", "analyze_wall_ms",
    ]
    rows = []
    config = SimulationConfig(chunks=16)
    for app in ("stencil", "pagerank", "knn", "cnn"):
        design = compile_design(build_app_graph(app), paper_testbed(2))
        start = time.perf_counter()
        report = analyze_design(design, config)
        analyze_ms = (time.perf_counter() - start) * 1e3
        out = cross_check_design(design, config)
        bottleneck = report.bottleneck()
        rows.append([
            app,
            round(out.latency_lower_bound_s * 1e3, 4),
            round(out.simulated_latency_s * 1e3, 4),
            round(out.ratio, 4),
            "free" if out.contention_free else "contended",
            f"{bottleneck.kind}:{bottleneck.name}",
            round(analyze_ms, 2),
        ])
        assert out.ok, out.describe()
    return headers, rows


def test_analyze_oracle(benchmark):
    headers, rows = run_once(benchmark, analyze_oracle_evidence)
    print_table(headers, rows,
                title="Static bound vs. simulated latency (oracle cross-check)")
    assert rows, "experiment produced no rows"
