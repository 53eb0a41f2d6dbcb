"""The oracle contract: static bounds cross-checked against the simulator.

Soundness must hold on *every* design the toolchain can compile: the
simulated latency may never come in below the static lower bound.
Tightness (within 15 %) is promised only on contention-free designs —
no HBM pseudo-channel starving a port, no physical link carrying more
than one stream — where the bound models the whole machine exactly.

The corpus is the four paper applications plus 50 seeded fuzzed graphs
spanning compute/memory-bound tasks, startup latencies, HBM ports,
random DAG topologies, and 1- and 2-FPGA clusters.
"""

from __future__ import annotations

import random

import pytest

from repro.analyze import (
    OracleOutcome,
    analyze_design,
    cross_check_design,
    is_contention_free,
)
from repro.cluster import paper_testbed
from repro.core.compiler import compile_design
from repro.graph.channel import Channel
from repro.graph.graph import TaskGraph
from repro.graph.task import MMAPPort, PortDirection, Task, TaskWork
from repro.serve.server import build_app_graph
from repro.sim.execution import SimulationConfig

APPS = ("stencil", "pagerank", "knn", "cnn")

BOTTLENECK_KINDS = ("task_ii", "hbm_channel", "cut_link", "fifo_depth")


def fuzz_graph(seed: int) -> TaskGraph:
    """A seeded random connected DAG with mixed work and HBM models."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    g = TaskGraph(name=f"fuzz{seed}")
    names = [f"t{i}" for i in range(n)]
    for name in names:
        work = None
        if rng.random() < 0.8:
            work = TaskWork(
                compute_cycles=rng.choice([0, 512, 4096, 65536, 1_000_000]),
                startup_cycles=rng.choice([0, 0, 100, 5000]),
            )
        ports = []
        if rng.random() < 0.3:
            for p in range(rng.randint(1, 2)):
                ports.append(MMAPPort(
                    name=f"p{p}",
                    direction=PortDirection.READ,
                    width_bits=rng.choice([64, 256, 512]),
                    volume_bytes=rng.choice([1e4, 1e6, 3e7]),
                ))
        g.add_task(Task(name=name, hints={"lut": rng.randint(10_000, 80_000)},
                        work=work, hbm_ports=ports))
    count = 0
    connected: set[str] = set()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < 0.3:
                g.add_channel(Channel(
                    name=f"e{count}", src=a, dst=b,
                    width_bits=rng.choice([32, 128, 512]),
                    tokens=rng.choice([64, 4096, 100_000, 2_000_000]),
                ))
                connected.update((a, b))
                count += 1
    # Tie stragglers in so graph DRC (G003) never rejects the corpus.
    for i, name in enumerate(names):
        if name not in connected:
            other = names[(i + 1) % n] if i + 1 < n else names[0]
            g.add_channel(Channel(
                name=f"e{count}",
                src=min(name, other, key=names.index),
                dst=max(name, other, key=names.index),
                tokens=1024,
            ))
            connected.update((name, other))
            count += 1
    return g


class TestPaperApps:
    @pytest.mark.parametrize("app", APPS)
    def test_bound_sound_tight_and_attributed(self, app):
        design = compile_design(build_app_graph(app), paper_testbed(2))
        config = SimulationConfig(chunks=8)

        out = cross_check_design(design, config)
        assert out.sound, out.describe()
        if out.contention_free:
            assert out.tight, out.describe()
        assert out.ok and out.ratio >= 1.0 - 1e-9

        report = analyze_design(design, config)
        bottleneck = report.bottleneck()
        assert bottleneck.kind in BOTTLENECK_KINDS
        assert bottleneck.name
        assert report.latency_lower_bound_s > 0
        assert report.throughput_ceiling_chunks_per_s > 0


class TestFuzzedCorpus:
    @pytest.mark.parametrize("seed", range(50))
    def test_bound_never_beats_simulator(self, seed):
        graph = fuzz_graph(seed)
        devices = 1 if seed % 2 == 0 else 2
        design = compile_design(graph, paper_testbed(devices))
        config = SimulationConfig(chunks=4 if seed % 3 == 0 else 8)

        out = cross_check_design(design, config)
        assert out.sound, out.describe()
        if out.contention_free:
            assert out.tight, out.describe()

    def test_corpus_exercises_both_contract_halves(self):
        """The seeds must cover contended *and* contention-free designs."""
        free = contended = 0
        for seed in (0, 1, 2, 3, 4, 5, 6, 7):
            design = compile_design(
                fuzz_graph(seed), paper_testbed(1 if seed % 2 == 0 else 2)
            )
            report = analyze_design(design, SimulationConfig(chunks=4))
            if is_contention_free(report):
                free += 1
            else:
                contended += 1
        assert free > 0 and contended > 0


class TestOracleOutcome:
    def _outcome(self, bound, sim, free=True, tolerance=0.15):
        return OracleOutcome(
            design="x",
            latency_lower_bound_s=bound,
            simulated_latency_s=sim,
            contention_free=free,
            tolerance=tolerance,
        )

    def test_sound_and_tight(self):
        out = self._outcome(1.0, 1.1)
        assert out.sound and out.tight and out.ok
        assert out.ratio == pytest.approx(1.1)
        assert "ok" in out.describe()

    def test_unsound_when_sim_beats_bound(self):
        out = self._outcome(1.0, 0.9)
        assert not out.sound and not out.ok
        assert "UNSOUND" in out.describe()

    def test_loose_only_fails_contention_free(self):
        loose_free = self._outcome(1.0, 1.5, free=True)
        assert loose_free.sound and not loose_free.tight and not loose_free.ok
        assert "LOOSE" in loose_free.describe()
        loose_contended = self._outcome(1.0, 1.5, free=False)
        assert loose_contended.ok

    def test_exact_match_is_ok(self):
        out = self._outcome(1.0, 1.0)
        assert out.sound and out.tight and out.ok and out.ratio == 1.0

    def test_zero_bound_edge_case(self):
        assert self._outcome(0.0, 0.0).ratio == 1.0
        assert self._outcome(0.0, 0.5).ratio == float("inf")
