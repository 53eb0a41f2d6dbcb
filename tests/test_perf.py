"""Content-addressed cache + parallel sweep executor tests.

Covers: fingerprint stability and sensitivity, cold-vs-hit equivalence
for compile and simulate, on-disk layout under ``REPRO_CACHE_DIR``,
model-constant invalidation, and serial/parallel sweep parity.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from enum import Enum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster, paper_testbed
from repro.cluster.topology import make_topology
from repro.core.compiler import CompilerConfig, compile_design
from repro.graph.serialize import design_summary
from repro.perf import (
    SweepSpec,
    cached_compile,
    cached_simulate,
    canonical_json,
    configure_cache,
    fingerprint_compile,
    get_cache,
    model_constants_fingerprint,
    reset_cache,
    resolve_jobs,
    run_sweep,
    stats_report,
)
from repro.sim.execution import SimulationConfig, simulate

from tests.conftest import build_chain, build_diamond


@pytest.fixture
def cache(tmp_path):
    """A fresh, isolated cache for each test; global state restored after."""
    reset_cache()
    yield configure_cache(
        directory=str(tmp_path / "cache"), enabled=True, use_disk=True
    )
    reset_cache()


class TestFingerprint:
    def test_stable_across_rebuilds(self, cache):
        fp1 = fingerprint_compile(
            build_diamond(), make_cluster(2), CompilerConfig(), "tapa-cs"
        )
        fp2 = fingerprint_compile(
            build_diamond(), make_cluster(2), CompilerConfig(), "tapa-cs"
        )
        assert fp1 == fp2
        assert len(fp1) == 64  # sha256 hex

    def test_graph_mutation_changes_fingerprint(self, cache):
        base = fingerprint_compile(
            build_diamond(), make_cluster(2), CompilerConfig(), "tapa-cs"
        )
        mutated = build_diamond()
        mutated.task("a").hints["dsp"] = 201
        assert (
            fingerprint_compile(mutated, make_cluster(2), CompilerConfig(), "tapa-cs")
            != base
        )

    def test_cluster_topology_changes_fingerprint(self, cache):
        graph = build_diamond()
        ring = make_cluster(4, topology=make_topology("ring", 4))
        chain = make_cluster(4, topology=make_topology("chain", 4))
        assert fingerprint_compile(
            graph, ring, CompilerConfig(), "tapa-cs"
        ) != fingerprint_compile(graph, chain, CompilerConfig(), "tapa-cs")

    def test_config_ablation_changes_fingerprint(self, cache):
        graph = build_diamond()
        cluster = make_cluster(2)
        on = fingerprint_compile(graph, cluster, CompilerConfig(), "tapa-cs")
        off = fingerprint_compile(
            graph, cluster, CompilerConfig(enable_pipelining=False), "tapa-cs"
        )
        assert on != off

    def test_flow_label_changes_fingerprint(self, cache):
        graph = build_diamond()
        cluster = make_cluster(1)
        assert fingerprint_compile(
            graph, cluster, CompilerConfig(), "tapa"
        ) != fingerprint_compile(graph, cluster, CompilerConfig(), "vitis")

    def test_model_constants_invalidate(self, cache, monkeypatch):
        """Changing an estimator coefficient must unreach every old key."""
        import dataclasses

        import repro.hls.estimator as est

        before = model_constants_fingerprint()
        bumped = dataclasses.replace(
            est.DEFAULT_COEFFICIENTS,
            base_lut=est.DEFAULT_COEFFICIENTS.base_lut + 1.0,
        )
        monkeypatch.setattr(est, "DEFAULT_COEFFICIENTS", bumped)
        assert model_constants_fingerprint() != before

    def test_same_name_different_dists_distinct(self, cache):
        """Regression: the topology fingerprint must carry the distance
        matrix, not just the name — a degraded ring shares the base
        ring's structure everywhere except its rerouted distances."""
        from repro.faults import DegradedTopology, FaultScenario, apply_faults

        graph = build_diamond()
        healthy = paper_testbed(4)
        degraded = apply_faults(
            healthy, FaultScenario.healthy().kill_link(0, 1)
        )
        assert isinstance(degraded.topology, DegradedTopology)
        assert fingerprint_compile(
            graph, healthy, CompilerConfig(), "tapa-cs"
        ) != fingerprint_compile(graph, degraded, CompilerConfig(), "tapa-cs")

    def test_healthy_faults_normalize_to_no_scenario_key(self, cache):
        from repro.faults import FaultScenario

        graph = build_diamond()
        cluster = make_cluster(2)
        base = fingerprint_compile(graph, cluster, CompilerConfig(), "tapa-cs")
        assert fingerprint_compile(
            graph, cluster, CompilerConfig(), "tapa-cs",
            faults=FaultScenario.healthy(),
        ) == base
        assert fingerprint_compile(
            graph, cluster, CompilerConfig(), "tapa-cs",
            faults=FaultScenario.lossy(1e-4),
        ) != base

    def test_distinct_fault_scenarios_distinct_keys(self, cache):
        from repro.faults import FaultScenario

        graph = build_diamond()
        cluster = make_cluster(2)
        assert fingerprint_compile(
            graph, cluster, CompilerConfig(), "tapa-cs",
            faults=FaultScenario.lossy(1e-4),
        ) != fingerprint_compile(
            graph, cluster, CompilerConfig(), "tapa-cs",
            faults=FaultScenario.lossy(1e-3),
        )

    def test_canonical_json_sorts_dict_keys(self, cache):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_a_float_hint_and_its_text_are_distinct_keys(self, cache):
        # The recursive walk this encoder replaced wrote every float as
        # its repr string, so 0.5 and "0.5" shared a key.
        keys = []
        for hint in (0.5, "0.5"):
            graph = build_diamond()
            graph.task("a").hints["ratio"] = hint
            keys.append(fingerprint_compile(
                graph, make_cluster(2), CompilerConfig(), "tapa-cs"
            ))
        assert keys[0] != keys[1]

    def test_model_sources_join_the_model_key(self, cache, monkeypatch):
        """Editing a model-defining source file unreaches every old key."""
        import repro.perf.fingerprint as fingerprint_module

        before = model_constants_fingerprint()
        monkeypatch.setattr(
            fingerprint_module, "_model_source_digest", lambda: "edited"
        )
        assert model_constants_fingerprint() != before

    def test_hook_calls_do_not_grow_with_the_graph(self, cache, monkeypatch):
        """The C encoder walks the graph document; the hook sees only the
        few values JSON cannot write (config, cluster, model constants)."""
        import repro.perf.fingerprint as fingerprint_module

        calls = []
        real = fingerprint_module._shallow

        def counting(obj):
            calls.append(type(obj).__name__)
            return real(obj)

        monkeypatch.setattr(fingerprint_module, "_shallow", counting)
        cluster, config = make_cluster(2), CompilerConfig()
        counts = []
        for length in (6, 12):
            calls.clear()
            fingerprint_compile(build_chain(length), cluster, config, "tapa-cs")
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_graph_document_order_is_significant(self, cache):
        # Insertion order can steer solver tie-breaking, so it is part of
        # the key: same content, different order, different fingerprint.
        from repro.graph import GraphBuilder

        def two_tasks(order):
            b = GraphBuilder("g")
            for name in order:
                b.task(name)
            b.stream("x", "y")
            return b.build()

        a = two_tasks(["x", "y"])
        b = two_tasks(["y", "x"])
        cluster = make_cluster(1)
        assert fingerprint_compile(
            a, cluster, CompilerConfig(), "tapa"
        ) != fingerprint_compile(b, cluster, CompilerConfig(), "tapa")

    @pytest.mark.parametrize("app", ["stencil", "knn", "pagerank", "cnn"])
    def test_json_round_trip_keeps_the_compile_key(self, cache, app):
        # A graph sent as JSON must hit the entry of the same graph built
        # in-process (KNN's work estimates are numpy floats).
        from repro.graph import serialize
        from repro.serve.server import build_app_graph

        graph = build_app_graph(app)
        copy = serialize.loads(serialize.dumps(graph))
        cluster = paper_testbed()
        assert fingerprint_compile(
            copy, cluster, CompilerConfig(), "tapa-cs"
        ) == fingerprint_compile(graph, cluster, CompilerConfig(), "tapa-cs")


def _walk(obj: Any) -> Any:
    """The recursive walk that preceded the one-pass encoder, kept as the
    reference ``canonical_json`` is checked against: it wrote floats as
    repr strings and dict keys as ``str``."""
    from repro.cluster.topology import Topology

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(float(obj))
    if isinstance(obj, Enum):
        return {"__enum__": type(obj).__name__, "value": _walk(obj.value)}
    if isinstance(obj, Topology):
        return {
            "__topology__": obj.name,
            "num_devices": obj.num_devices,
            "dist": [
                [obj.dist(i, j) for j in range(obj.num_devices)]
                for i in range(obj.num_devices)
            ],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: _walk(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {
            str(k): _walk(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_walk(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_walk(v) for v in obj)
    if callable(obj):
        return {"__callable__": getattr(obj, "__qualname__", repr(type(obj)))}
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def _walked_json(document: Any) -> str:
    return json.dumps(_walk(document), sort_keys=True, separators=(",", ":"))


class _Mode(Enum):
    FAST = 1
    EXACT = "exact"


@dataclasses.dataclass(frozen=True)
class _Knob:
    name: Any
    value: Any


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 2.0, 10.0, math.nan, math.inf]),
    st.floats(),
)
#: A small domain, so that independent documents often encode alike.
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.sampled_from(["", "0.5", "nan", "-0.0", "2", "true", "a"]),
    st.sampled_from(list(_Mode)),
    st.frozensets(st.integers(-2, 12), max_size=3),
    st.sets(st.sampled_from([0.5, 2.0, 10.0]), max_size=3),
    st.sets(st.sampled_from(["a", "b", "10", "2"]), max_size=3),
)
#: JSON object keys are strings; the encoder writes an int key as its
#: decimal text, as ``str`` did.
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["a", "b", "0.5", "2"]), inner, max_size=3),
        st.dictionaries(st.integers(0, 12), inner, max_size=3),
        st.builds(_Knob, inner, inner),
    ),
    max_leaves=8,
)


def _near(obj: Any) -> st.SearchStrategy:
    """Documents that differ from ``obj`` only where two encodings may
    meet: a set or its sorted list, a float or its repr text, an int
    dict key or its text, a tuple or a list."""
    if isinstance(obj, (set, frozenset)):
        return st.sampled_from([obj, sorted(obj)])
    if isinstance(obj, float):
        return st.sampled_from([obj, float(obj), repr(float(obj))])
    if isinstance(obj, (list, tuple)):
        return st.tuples(*map(_near, obj)).flatmap(
            lambda items: st.sampled_from([list(items), tuple(items)])
        )
    if isinstance(obj, dict):
        keys = list(obj)
        return st.tuples(
            st.tuples(*(st.sampled_from([k, str(k)]) for k in keys)),
            st.tuples(*(_near(obj[k]) for k in keys)),
        ).map(lambda pair: dict(zip(*pair)))
    if isinstance(obj, _Knob):
        return st.builds(_Knob, _near(obj.name), _near(obj.value))
    return st.just(obj)


def _retyped(obj: Any) -> Any:
    """The same document with each value swapped for one the encoder
    writes alike: tuples as lists, numpy floats as floats."""
    if isinstance(obj, float):
        return float(obj) if isinstance(obj, np.float64) else np.float64(obj)
    if isinstance(obj, (list, tuple)):
        return [_retyped(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _retyped(v) for k, v in obj.items()}
    if isinstance(obj, _Knob):
        return _Knob(_retyped(obj.name), _retyped(obj.value))
    return obj


class TestCanonicalJson:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_encoding_never_merges_two_walked_ones(self, data):
        """No two documents share a key that the walk kept apart."""
        a = data.draw(_DOCUMENTS)
        b = data.draw(st.one_of(_near(a), _DOCUMENTS))
        try:
            same = canonical_json(a) == canonical_json(b)
        except TypeError:  # such a request is served uncached
            return
        if same:
            assert _walked_json(a) == _walked_json(b)

    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENTS)
    def test_values_written_alike_share_a_key(self, document):
        try:
            text = canonical_json(document)
        except TypeError:
            return
        assert canonical_json(_retyped(document)) == text
        assert _walked_json(_retyped(document)) == _walked_json(document)

    def test_floats_are_numbers_at_full_precision(self):
        assert canonical_json(
            [0.1, -0.0, np.float64(1 / 3), math.nan, math.inf]
        ) == "[0.1,-0.0,0.3333333333333333,NaN,Infinity]"

    def test_unknown_types_and_keys_raise(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})
        with pytest.raises(TypeError):
            canonical_json({(1, 2): "tuple key"})
        with pytest.raises(TypeError):
            canonical_json({_Mode.FAST: "enum key"})

    def test_spec_key_falls_back_to_repr(self):
        from repro.perf import spec_key

        class Opaque:
            def __repr__(self) -> str:
                return "Opaque()"

        key = spec_key(_sweep_probe, (Opaque(),), {"n": 1})
        assert key == spec_key(_sweep_probe, (Opaque(),), {"n": 1})
        assert len(key) == 64
        assert key != spec_key(_sweep_probe, (1,), {"n": 1})


def _strip_wall_clock(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "floorplan_seconds"}


class TestCachedCompile:
    def test_cold_then_memory_hit(self, cache):
        graph = build_diamond()
        cluster = paper_testbed(2)
        cold = cached_compile(graph, cluster)
        warm = cached_compile(build_diamond(), paper_testbed(2))
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert design_summary(cold) == design_summary(warm)

    def test_disk_hit_matches_uncached_compile(self, cache):
        graph = build_diamond()
        cluster = paper_testbed(2)
        config = CompilerConfig()
        cached_compile(graph, cluster, config)
        # Fresh process simulation: drop the memory tier, keep the disk.
        cache._memory.clear()
        warm = cached_compile(build_diamond(), paper_testbed(2), config)
        assert cache.stats.disk_hits == 1
        fresh = compile_design(build_diamond(), paper_testbed(2), config)
        assert _strip_wall_clock(design_summary(warm)) == _strip_wall_clock(
            design_summary(fresh)
        )

    def test_no_false_hit_across_configs(self, cache):
        graph = build_diamond()
        cluster = paper_testbed(2)
        a = cached_compile(graph, cluster, CompilerConfig())
        b = cached_compile(
            build_diamond(), paper_testbed(2),
            CompilerConfig(enable_pipelining=False),
        )
        assert cache.stats.misses == 2
        assert a.total_pipeline_registers() != b.total_pipeline_registers()

    def test_respects_repro_cache_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        reset_cache()
        try:
            cached_compile(build_diamond(), make_cluster(2))
            entries = [p for p in target.iterdir() if p.suffix == ".pkl"]
            assert entries, "cache entry not written under REPRO_CACHE_DIR"
            assert get_cache().directory == str(target)
        finally:
            reset_cache()

    def test_unusable_cache_dir_degrades_to_memory(self, tmp_path, cache):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        cache.directory = str(blocker)
        design = cached_compile(build_diamond(), make_cluster(2))
        assert design is not None
        assert cache.stats.stores == 1
        assert cache.disk_entries() == []

    def test_disabled_cache_bypasses(self, cache):
        cache.enabled = False
        cached_compile(build_diamond(), make_cluster(2))
        cached_compile(build_diamond(), make_cluster(2))
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_fingerprint_recorded_on_design(self, cache):
        design = cached_compile(build_diamond(), make_cluster(2))
        assert design.fingerprint is not None
        assert len(design.fingerprint) == 64

    def test_stage_seconds_populated(self, cache):
        design = cached_compile(build_diamond(), paper_testbed(2))
        assert "synthesis" in design.stage_seconds
        assert "timing" in design.stage_seconds


class TestCachedSimulate:
    def test_hit_latency_identical(self, cache):
        design = cached_compile(build_diamond(), paper_testbed(2))
        cold = cached_simulate(design, SimulationConfig(chunks=16))
        warm = cached_simulate(design, SimulationConfig(chunks=16))
        assert cold.latency_s == warm.latency_s
        assert cold.summary() == warm.summary()

    def test_hit_matches_uncached_simulate(self, cache):
        design = cached_compile(build_diamond(), paper_testbed(2))
        cached_simulate(design)
        cache._memory.clear()
        warm = cached_simulate(design)
        assert cache.stats.disk_hits == 1
        assert warm.summary() == simulate(design).summary()

    def test_sim_config_part_of_key(self, cache):
        design = cached_compile(build_diamond(), paper_testbed(2))
        cached_simulate(design, SimulationConfig(chunks=16))
        cached_simulate(design, SimulationConfig(chunks=64))
        sim_misses = cache.stats.misses - 1  # one miss was the compile
        assert sim_misses == 2


def _sweep_probe(iters: int) -> float:
    """Module-level (hence picklable) worker for sweep tests."""
    from repro.apps.common import run_flow

    graph = build_diamond()
    run = run_flow(graph, app="probe", flow="F2", repeats=float(iters))
    return run.latency_ms


class TestSweep:
    def test_resolve_jobs_priority(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(5) == 5
        monkeypatch.delenv("REPRO_BENCH_JOBS")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_serial_and_parallel_identical(self, cache):
        specs = [SweepSpec(fn=_sweep_probe, args=(i,)) for i in (1, 2, 3, 4)]
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(
            [SweepSpec(fn=_sweep_probe, args=(i,)) for i in (1, 2, 3, 4)],
            jobs=2,
        )
        assert serial == parallel
        assert serial == sorted(serial)  # submission order preserved

    def test_empty_sweep(self, cache):
        assert run_sweep([], jobs=4) == []

    def test_parallel_workers_report_cache_stats(self, cache):
        before = cache.stats.misses
        run_sweep([SweepSpec(fn=_sweep_probe, args=(i,)) for i in (5, 6)], jobs=2)
        assert cache.stats.misses > before

    def test_loading_perf_leaves_serve_unloaded(self):
        # The parallel path imports the fleet lazily: repro.serve.fleet
        # imports repro.perf.supervise.
        code = (
            "import sys, repro.perf; print(sorted("
            "m for m in sys.modules if m.startswith('repro.serve')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestCliIntegration:
    def test_bench_sweep_smoke_quick_parallel(self, cache, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", cache.directory)
        assert main(["bench", "sweep_smoke", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep_smoke" in out
        assert "cache directory:" in out

    def test_perf_subcommand_reports_and_clears(self, cache, capsys):
        from repro.cli import main

        cached_compile(build_diamond(), make_cluster(2))
        assert main(["perf", "--cache-dir", cache.directory]) == 0
        assert "disk entries: 1" in capsys.readouterr().out
        assert main(["perf", "--cache-dir", cache.directory, "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert get_cache().disk_entries() == []

    def test_stats_report_mentions_directory(self, cache):
        assert cache.directory in stats_report()
