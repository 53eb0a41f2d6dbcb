"""The benchmark's inputs: the paper points of ``compile_cold`` and the
request bodies of the serve workloads.

Run as a script (with the program on ``PYTHONPATH``) it writes the serve
workloads' request bodies for one workload seed to a JSON file::

    python perfbench/points.py --seed 3 --misses 64 --out bodies.json
"""

from __future__ import annotations

import argparse
import json
import random

#: compile_cold points: (name, app, flow).  Points whose compile time is
#: a solver wall-clock limit, and whose design therefore depends on
#: machine speed, are left out: PageRank F3/F4 (the inter-FPGA ILP runs
#: out its 30 s limit), CNN F2 and up (a bipartition stops at its 15 s
#: limit), stencil F4/i64 (21-25 s of a 30 s limit) and stencil F4/i512
#: (stops at 15 s under some hash seeds).
COLD_POINTS = [
    ("stencil/F1-V/i64", "stencil", "F1-V"),
    ("stencil/F1-T/i64", "stencil", "F1-T"),
    ("stencil/F2/i64", "stencil", "F2"),
    ("knn/F2/N4M/D2", "knn", "F2"),
    ("knn/F4/N4M/D2", "knn", "F4"),
    ("pagerank/F2/soc-Slashdot0811", "pagerank", "F2"),
    ("cnn/F1-T", "cnn", "F1-T"),
]

#: serve warm set: cheap 1-2 FPGA designs of the paper apps, each sent
#: both by app name and as serialized graph JSON.  (PageRank and CNN take
#: 1-3 s to compile cold; set-up is repeated three times per run.)
WARM_SET = [("knn", 1), ("knn", 2), ("stencil", 1)]
#: The graph form of a KNN warm design has a point count drawn from this
#: range around the paper's N=4M (its app-name form uses N=4M), so the
#: served designs follow the workload seed.  N changes the work of the
#: tasks, not the graph's shape, so the cost of a compile or a hit stays.
WARM_KNN_N = (3_960_000, 4_040_000)

#: serve_mixed misses are 1-FPGA stencils whose frame height is drawn
#: from this range.  The frame size changes the work and traffic of every
#: task but not the graph's shape, so every miss costs about the same.
MISS_ROWS = (1024, 8192)


def build_point(app: str, flow: str):
    """The task graph of one compile_cold point."""
    if app == "stencil":
        from repro.apps.stencil import build_stencil, stencil_config_for_flow

        return build_stencil(stencil_config_for_flow(64, flow))
    if app == "knn":
        from repro.apps.knn import build_knn, knn_config_for_flow

        return build_knn(knn_config_for_flow(flow, n=4_000_000, d=2))
    if app == "pagerank":
        from repro.apps import graphgen
        from repro.apps.pagerank import build_pagerank, pagerank_config_for_flow

        spec = graphgen.get_network("soc-Slashdot0811")
        config, _ = pagerank_config_for_flow(spec, flow)
        return build_pagerank(config)
    if app == "cnn":
        from repro.apps.cnn import build_cnn, cnn_config_for_flow

        return build_cnn(cnn_config_for_flow(flow))
    raise ValueError(app)


def make_bodies(seed: int, misses: int) -> dict:
    """Warm-set bodies (app-name and graph forms) and distinct misses."""
    from repro.apps.knn import KNNConfig, build_knn
    from repro.apps.stencil import StencilConfig, build_stencil
    from repro.graph.serialize import graph_to_dict
    from repro.serve.server import build_app_graph

    warm = []
    rng = random.Random(f"serve-warm:{seed}")
    for app, fpgas in WARM_SET:
        if app == "knn":
            graph = build_knn(KNNConfig(n=rng.randrange(*WARM_KNN_N, 1000)))
        else:
            graph = build_app_graph(app)
        warm.append({"app": app, "fpgas": fpgas})
        warm.append({"graph": graph_to_dict(graph), "fpgas": fpgas})
    rng = random.Random(f"serve-misses:{seed}")
    default_rows = StencilConfig().rows
    choices = [r for r in range(MISS_ROWS[0], MISS_ROWS[1] + 1, 8)
               if r != default_rows]
    miss = [
        {"graph": graph_to_dict(build_stencil(StencilConfig(rows=rows))),
         "fpgas": 1}
        for rows in rng.sample(choices, misses)
    ]
    return {"warm": warm, "miss": miss}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--misses", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w") as handle:
        json.dump(make_bodies(args.seed, args.misses), handle)


if __name__ == "__main__":
    main()
