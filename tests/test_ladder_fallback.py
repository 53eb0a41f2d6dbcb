"""The greedy floorplan fallback must stay DRC-clean on every app.

The quality ladder's last rung trades optimality for speed, never
correctness: for each of the four paper benchmarks, an all-greedy
compile (greedy inter assignment, greedy intra placement, no HBM
exploration) must produce a plan that passes every floorplan design
rule, with the achieved tier recorded on the design.
"""

import pytest

from repro.check import check_design
from repro.cluster import paper_testbed
from repro.core.compiler import CompilerConfig, compile_design
from repro.serve.server import build_app_graph

APPS = ("stencil", "pagerank", "knn", "cnn")


@pytest.mark.parametrize("app", APPS)
def test_greedy_fallback_is_drc_clean(app):
    graph = build_app_graph(app)
    design = compile_design(
        graph,
        paper_testbed(2),
        CompilerConfig(ladder_start="greedy"),
    )
    assert design.floorplan_tier == "greedy"
    report = check_design(design)
    assert not report.errors, [d.render() for d in report.errors]
    # Degradation is visible to humans too, not only in metadata.
    assert "floorplan quality tier: greedy" in design.report()


def test_greedy_and_full_tiers_share_the_drc_contract():
    # Same design, both ends of the ladder: the greedy plan may be worse
    # (more cut streams, lower frequency) but never *invalid*.
    graph = build_app_graph("stencil")
    cluster = paper_testbed(2)
    full = compile_design(graph, cluster, CompilerConfig())
    greedy = compile_design(
        graph, cluster, CompilerConfig(ladder_start="greedy")
    )
    assert full.floorplan_tier == "full"
    assert not check_design(full).errors
    assert not check_design(greedy).errors
