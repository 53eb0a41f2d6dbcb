"""Stable content fingerprints for compiler inputs and outputs.

A fingerprint is the SHA-256 of a *canonical JSON* document covering
everything a :func:`repro.core.compiler.compile_design` result depends
on:

* the task graph, in document order (insertion order can steer solver
  tie-breaking, so two graphs with the same content but different order
  are deliberately distinct keys);
* the cluster — devices, part parameters, node placement, topology, and
  link media;
* the full :class:`~repro.core.compiler.CompilerConfig`, including every
  ablation switch and both floorplanner configs;
* the flow label;
* the model the outputs are computed by: the HLS estimator
  coefficients, the timing-model calibration, the network link catalog,
  and a digest of the source files of the packages that compute a
  design (:data:`_MODEL_PACKAGES`).  Editing any of those constants or
  files changes the fingerprint and therefore invalidates every cached
  artifact built from them.

:func:`canonical_json` is one ``json.dumps`` call: the C encoder walks
the whole document, floats are written as JSON numbers at full
precision, and a hook gives a shallow form to the few types JSON cannot
write (enums, topologies, dataclasses, sets, callables).

``CACHE_SCHEMA_VERSION`` is a manual escape hatch: bump it whenever the
key's layout changes, or an output changes in a way neither the
constants nor the model sources can see.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any

from ..cluster.cluster import Cluster
from ..cluster.topology import Topology
from ..graph.graph import TaskGraph
from ..graph.serialize import FORMAT_VERSION, design_summary, graph_to_dict

#: Bump when the key's layout changes (2: floats written as JSON numbers
#: by one encoder pass), or on a change to compile/simulate outputs that
#: neither a fingerprinted constant nor a model source file shows.
CACHE_SCHEMA_VERSION = 2


def _shallow(obj: Any) -> Any:
    """The JSON form of one value the encoder cannot write itself.

    ``canonical_json`` passes this as ``json.dumps``'s ``default``: the
    C encoder writes dicts (keys sorted), lists, tuples, strings, ints,
    floats, bools and ``None`` itself and calls this only for enums,
    topologies, dataclasses (frozen and slotted ones too), sets and
    callables.  The form returned is shallow; the encoder recurses into
    it.  Unknown object types raise ``TypeError`` — silent fallbacks
    (like ``repr`` with a memory address) would poison keys with false
    misses.
    """
    if isinstance(obj, Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if isinstance(obj, Topology):
        # The full pairwise distance matrix, not just the name: two
        # same-named topologies with different metrics (a custom subclass,
        # a fault-degraded topology) must not collide, and the matrix is
        # the exact quantity the floorplanner and simulator consume.
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
                f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (set, frozenset)):
        # Tagged, so a set never shares a key with a list that happens
        # to hold its elements in sorted order.
        return {"__set__": sorted(obj)}
    if callable(obj):
        return {"__callable__": getattr(obj, "__qualname__", repr(type(obj)))}
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def canonical_json(document: Any) -> str:
    """Serialize a document with a canonical byte layout in one pass of
    the C encoder: keys sorted, every float (``np.float64`` too) written
    with ``float.__repr__``, other types through :func:`_shallow`.  A
    dict key JSON cannot write (a tuple, an enum) raises ``TypeError``."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=_shallow
    )


def _digest(document: Any) -> str:
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


#: Subpackages whose source content determines compile/simulate outputs:
#: ``ilp`` (the solver and its gap), ``faults`` (how a scenario degrades a
#: cluster) and ``check`` (the diagnostics stored on a design) shape a
#: cached artifact too.  analyze/apps/bench/cli/perf/serve are
#: deliberately excluded — harness changes must not evict compiled
#: artifacts.
_MODEL_PACKAGES = (
    "check",
    "cluster",
    "core",
    "devices",
    "faults",
    "graph",
    "hls",
    "ilp",
    "network",
    "sim",
    "timing",
)


@lru_cache(maxsize=1)
def _model_source_digest() -> str:
    """Digest of the model-critical source files themselves.

    Value-based constant fingerprints cannot see an *algorithm* change,
    so any edit to the behaviour-defining subpackages also invalidates
    the cache.  Computed once per process (a few ms)."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in _MODEL_PACKAGES:
        for source in sorted((root / package).glob("*.py")):
            digest.update(source.name.encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()


def model_constants_fingerprint() -> str:
    """Digest of every model constant a compiled design depends on.

    Covers the HLS estimator coefficients, the timing-model defaults, the
    AlveoLink/network link catalog, the serialization format version, and
    a digest of the model-defining source packages.  Cached entries keyed
    under an older constant set or older sources simply stop matching —
    that is the invalidation rule.
    """
    from ..cluster.links import ETHERNET_100G, INTER_NODE_10G, PCIE_GEN3X16
    from ..hls.estimator import DEFAULT_COEFFICIENTS
    from ..network.alveolink import ALVEOLINK
    from ..network.internode import INTER_NODE_PATH
    from ..timing.frequency import DEFAULT_TIMING

    return _digest(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "graph_format": FORMAT_VERSION,
            "estimator": DEFAULT_COEFFICIENTS,
            "timing": DEFAULT_TIMING,
            "alveolink": ALVEOLINK,
            "inter_node": INTER_NODE_PATH,
            "links": [ETHERNET_100G, PCIE_GEN3X16, INTER_NODE_10G],
            "source": _model_source_digest(),
        }
    )


def cluster_fingerprint(cluster: Cluster) -> dict[str, Any]:
    """A JSON-able document describing a cluster's full identity."""
    return {
        "devices": [
            {
                "device_num": dev.device_num,
                "part": dev.part,
                "node": dev.node,
                "reserved": dev.reserved,
            }
            for dev in cluster.devices
        ],
        "topology": cluster.topology,
        "intra_node_link": cluster.intra_node_link,
        "inter_node_link": cluster.inter_node_link,
    }


def fingerprint_compile(
    graph: TaskGraph, cluster: Cluster, config: Any, flow: str,
    faults: Any = None,
) -> str:
    """Content fingerprint of one ``compile_design`` invocation.

    A fault scenario joins the key only when present, so every
    pre-existing cache entry keeps its fingerprint; the healthy scenario
    is normalized to the no-scenario key (the compiler guarantees the
    outputs are identical).
    """
    document = {
        "kind": "compile",
        "model": model_constants_fingerprint(),
        "graph": graph_to_dict(graph),
        "cluster": cluster_fingerprint(cluster),
        "config": config,
        "flow": flow,
    }
    if faults is not None and not faults.is_healthy:
        document["faults"] = faults.to_dict()
    return _digest(document)


def design_fingerprint(design: Any) -> str:
    """Fingerprint of a compiled design artifact.

    Designs produced through :func:`repro.perf.cache.cached_compile`
    carry their input fingerprint; anything else (e.g. a design compiled
    directly) is fingerprinted from its observable outputs — the
    post-transformation graph plus the full decision summary.
    """
    if getattr(design, "fingerprint", None):
        return design.fingerprint
    return _digest(
        {
            "kind": "design",
            "model": model_constants_fingerprint(),
            "graph": graph_to_dict(design.graph),
            "cluster": cluster_fingerprint(design.cluster),
            "summary": design_summary(design),
        }
    )


def fingerprint_simulate(design: Any, sim_config: Any, faults: Any = None) -> str:
    """Content fingerprint of one ``simulate`` invocation.

    As with compiles, a fault scenario joins the key only when present
    and non-healthy, keeping old cache entries addressable.
    """
    document = {
        "kind": "simulate",
        "design": design_fingerprint(design),
        "sim_config": sim_config,
    }
    if faults is not None and not faults.is_healthy:
        document["faults"] = faults.to_dict()
    return _digest(document)
