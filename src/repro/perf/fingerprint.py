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
* the model constants the outputs are computed from: the HLS estimator
  coefficients, the timing-model calibration, and the network link
  catalog.  Editing any of those constants changes the fingerprint and
  therefore invalidates every cached artifact built from them.

``CACHE_SCHEMA_VERSION`` is a manual escape hatch: bump it whenever the
compiler's *algorithms* change in a way the constant values cannot see.
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

#: Bump on any algorithmic change that alters compile/simulate outputs
#: without touching a fingerprinted constant.
CACHE_SCHEMA_VERSION = 1


def to_jsonable(obj: Any) -> Any:
    """Convert a value tree into a deterministic JSON-able structure.

    Handles dataclasses (including frozen/slots ones), enums, mappings,
    sequences, and sets.  Floats keep full ``repr`` precision so that two
    configs differing in the last ulp hash differently; a float subclass
    (``np.float64``) is written as the plain float of the same value, so
    a value hashes the same after a JSON round trip.  Unknown object
    types raise ``TypeError`` — silent fallbacks (like ``repr`` with a
    memory address) would poison keys with false misses.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(float(obj))
    if isinstance(obj, Enum):
        return {"__enum__": type(obj).__name__, "value": to_jsonable(obj.value)}
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
                f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(v) for v in obj)
    if callable(obj):
        return {"__callable__": getattr(obj, "__qualname__", repr(type(obj)))}
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def canonical_json(document: Any) -> str:
    """Serialize a JSON-able document with a canonical byte layout."""
    return json.dumps(
        to_jsonable(document), sort_keys=True, separators=(",", ":")
    )


def _digest(document: Any) -> str:
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


#: Subpackages whose source content determines compile/simulate outputs.
#: bench/cli/perf are deliberately excluded — harness changes must not
#: evict compiled artifacts.
_MODEL_PACKAGES = (
    "cluster",
    "core",
    "devices",
    "graph",
    "hls",
    "network",
    "sim",
    "timing",
)


@lru_cache(maxsize=1)
def _model_source_digest() -> str:
    """Digest of the model-critical source files themselves.

    Value-based constant fingerprints cannot see an *algorithm* change,
    so any edit to the behaviour-defining subpackages also invalidates
    the cache.  Computed once per process (~1 ms)."""
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
    under an older constant set simply stop matching — that is the
    invalidation rule.
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
