"""Content-addressed memoization for ``compile_design`` and ``simulate``.

Two tiers:

* an in-process dictionary, so repeated runs inside one harness
  invocation (e.g. the F1-V baseline every figure renormalizes against)
  are free;
* an on-disk pickle store under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro-tapa-cs``, honouring ``$XDG_CACHE_HOME``), so the
  second invocation of a whole benchmark suite skips every ILP solve and
  discrete-event run it has seen before.

Keys are the content fingerprints of :mod:`repro.perf.fingerprint`: the
complete compiler input plus the model constants.  Changing an estimator
coefficient, a timing-model constant, or the cache schema version makes
every old key unreachable — stale entries are never *read*, only left
behind (``python -m repro perf --clear`` reclaims the space).

Set ``REPRO_NO_CACHE=1`` (or pass ``--no-cache`` to the CLI) to bypass
the cache entirely; set ``REPRO_CACHE_MEMORY_ONLY=1`` to keep the
in-process tier but skip the disk.  The in-process tier is unbounded
unless :func:`configure_cache` gives it an N-entry LRU bound: fleet
worker processes, and the serving process in front of them while it
serves, take the fleet's bound (``FleetConfig.worker_cache_entries``,
128), so the processes sharing a machine hold small LRUs over one
shared disk tier instead of unbounded dictionaries.

**Sharing.**  The disk tier is the *cross-worker artifact store*: any
number of processes — parallel sweeps, the serve fleet's workers, a
stray CLI invocation — may point at one ``REPRO_CACHE_DIR``
concurrently.  Writers are atomic (temp file + ``os.replace`` under the
``flock``), readers verify checksums, so a compile finished by one
fleet worker is immediately and safely a disk hit for every other.
After ``os.fork()`` the child gets a *fresh* cache object carrying the
parent's configuration but none of its mutable state (memory tier,
stats), so forked workers never double-count or share a dict without a
lock; see :func:`_after_fork_in_child`.

**Integrity.**  Disk entries are self-verifying: a small header carries
a format magic (which doubles as the entry schema version) and the
SHA-256 of the pickled payload.  A truncated, scribbled-on, or
older-format entry is *never* surfaced to the caller — it is evicted,
counted in ``stats.corrupt_evictions``, logged as a structured warning,
and treated as a miss, so on-disk corruption only ever costs recompute
time.  Writers stage into a temp file and ``os.replace`` under a
cross-process ``flock`` on ``<dir>/.lock``, so any number of concurrent
sweeps may share one ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from .fingerprint import fingerprint_compile, fingerprint_simulate

_ENTRY_SUFFIX = ".pkl"

#: Entry format magic; the trailing digit is the entry schema version.
#: Bumping it silently invalidates (evicts on read) every older entry.
_ENTRY_MAGIC = b"RPC2"
#: magic + 32-byte SHA-256 of the pickled payload.
_ENTRY_HEADER_LEN = len(_ENTRY_MAGIC) + 32

_LOCK_NAME = ".lock"

logger = logging.getLogger("repro.perf.cache")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def default_cache_dir() -> str:
    """The on-disk cache location, env-overridable."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-tapa-cs")


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for one cache (or one merged report)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    #: Corrupt/truncated/stale-format disk entries evicted on read —
    #: each one cost a recompute, never an exception.
    corrupt_evictions: int = 0
    #: Memory-tier entries dropped by the LRU bound (the disk tier, when
    #: enabled, still holds them — an eviction costs a disk read, not a
    #: recompute).
    memory_evictions: int = 0
    #: Wall-clock seconds the original computations took, re-earned on
    #: every hit — the headline "time saved" number.
    seconds_saved: float = 0.0
    #: Compiles whose floorplan came from a degraded ladder tier and were
    #: therefore *not* stored — a deadline-squeezed artifact must never
    #: satisfy a later unhurried request for the same design.
    degraded_compiles: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: "CacheStats | dict[str, Any]") -> None:
        """Accumulate another stats record (used to merge worker stats)."""
        values = other.as_dict() if isinstance(other, CacheStats) else other
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + values.get(f.name, 0))


@dataclass(slots=True)
class DesignCache:
    """In-memory + on-disk store of compile/simulate artifacts."""

    directory: str = field(default_factory=default_cache_dir)
    enabled: bool = True
    use_disk: bool = True
    #: LRU bound on the in-process tier; 0 means unbounded (the
    #: historical behaviour, right for one long-lived process that owns
    #: the machine; fleet workers, and the serving process in front of
    #: them while it serves, take the fleet's).
    memory_limit: int = 0
    stats: CacheStats = field(default_factory=CacheStats)
    #: Insertion-ordered: first key is least-recently-used.
    _memory: dict[str, tuple[Any, float]] = field(default_factory=dict)
    #: Guards the memory tier and the counters: a serving process looks
    #: entries up from several request threads at once.
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _touch(self, fingerprint: str) -> None:
        """Mark an entry most-recently-used (dict order is LRU order)."""
        self._memory[fingerprint] = self._memory.pop(fingerprint)

    def _enforce_memory_limit(self) -> None:
        while 0 < self.memory_limit < len(self._memory):
            self._memory.pop(next(iter(self._memory)))
            self.stats.memory_evictions += 1

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, fingerprint + _ENTRY_SUFFIX)

    @contextmanager
    def _locked(self):
        """Cross-process exclusive lock on the cache directory.

        Guards the write/evict paths so concurrent sweeps sharing one
        ``REPRO_CACHE_DIR`` never interleave a rename with an unlink.
        Reads stay lock-free: entries are only ever created whole (temp
        file + atomic ``os.replace``), so a reader sees a complete old
        or complete new file, never a torn one.  Degrades to a no-op
        where ``flock`` is unavailable or the directory is unusable.
        """
        if fcntl is None:
            yield
            return
        handle = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            handle = open(os.path.join(self.directory, _LOCK_NAME), "a+b")
            fcntl.flock(handle, fcntl.LOCK_EX)
        except OSError:
            if handle is not None:
                handle.close()
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle, fcntl.LOCK_UN)
                except OSError:
                    pass
                handle.close()

    def _evict_corrupt(self, fingerprint: str, reason: str) -> None:
        """Drop an unreadable disk entry; log, count, never raise."""
        path = self._path(fingerprint)
        logger.warning(
            "evicting unreadable cache entry %s (%s) from %s — "
            "it will be recomputed",
            fingerprint[:16],
            reason,
            self.directory,
        )
        with self._lock:
            self.stats.corrupt_evictions += 1
        with self._locked():
            try:
                os.unlink(path)
            except OSError:
                pass

    def _read_entry(self, fingerprint: str) -> tuple[Any, float, int] | str:
        """Read + verify one disk entry.

        Returns ``(value, elapsed_seconds, blob_len)`` on success, or a
        reason string ("missing" means a plain miss, anything else names
        the corruption that the caller should evict).
        """
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return "missing"
        if len(raw) <= _ENTRY_HEADER_LEN:
            return "truncated"
        if not raw.startswith(_ENTRY_MAGIC):
            return "stale-format"
        digest = raw[len(_ENTRY_MAGIC):_ENTRY_HEADER_LEN]
        blob = raw[_ENTRY_HEADER_LEN:]
        if hashlib.sha256(blob).digest() != digest:
            return "checksum-mismatch"
        try:
            payload = pickle.loads(blob)
        except Exception:
            # Checksummed but undecodable: written by a build whose
            # classes no longer unpickle here.  Same remedy — evict.
            return "undecodable"
        if not isinstance(payload, dict) or "value" not in payload:
            return "bad-schema"
        return (
            payload["value"],
            float(payload.get("elapsed_seconds", 0.0)),
            len(raw),
        )

    def get(self, fingerprint: str, count_miss: bool = True) -> Any | None:
        """The cached value for a fingerprint, or None on a miss.

        Any form of on-disk damage — truncation, bit-flips, an entry
        from an older format — reads as a miss: the file is evicted and
        the caller recomputes.  Corruption can change *when* work runs,
        never *what* it produces.

        ``count_miss=False`` is for the serving broker's lookup: a miss
        there goes to a fleet worker, whose own lookup counts it.
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None:
                value, elapsed = entry
                self._touch(fingerprint)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                self.stats.seconds_saved += elapsed
                return value
        if self.use_disk:
            loaded = self._read_entry(fingerprint)
            if isinstance(loaded, tuple):
                value, elapsed, nbytes = loaded
                with self._lock:
                    self._memory[fingerprint] = (value, elapsed)
                    self._enforce_memory_limit()
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    self.stats.bytes_read += nbytes
                    self.stats.seconds_saved += elapsed
                return value
            if loaded != "missing":
                self._evict_corrupt(fingerprint, loaded)
        if count_miss:
            with self._lock:
                self.stats.misses += 1
        return None

    def put(self, fingerprint: str, value: Any, elapsed_seconds: float) -> None:
        """Store a computed value plus the wall time it cost to make."""
        if not self.enabled:
            return
        with self._lock:
            self._memory.pop(fingerprint, None)
            self._memory[fingerprint] = (value, elapsed_seconds)
            self._enforce_memory_limit()
            self.stats.stores += 1
        if not self.use_disk:
            return
        try:
            blob = pickle.dumps(
                {"value": value, "elapsed_seconds": elapsed_seconds},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (pickle.PicklingError, TypeError, AttributeError):
            # Designs carrying functional bodies (closures) stay
            # memory-only; everything the benches produce is picklable.
            return
        path = self._path(fingerprint)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            # An unusable directory (e.g. the path is a regular file)
            # degrades to the memory tier instead of aborting the run.
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(_ENTRY_MAGIC)
                handle.write(hashlib.sha256(blob).digest())
                handle.write(blob)
            with self._locked():
                os.replace(tmp, path)
            with self._lock:
                self.stats.bytes_written += len(blob)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------------

    def disk_entries(self) -> list[str]:
        """Fingerprints currently stored on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            n[: -len(_ENTRY_SUFFIX)] for n in names if n.endswith(_ENTRY_SUFFIX)
        )

    def disk_bytes(self) -> int:
        total = 0
        for fp in self.disk_entries():
            try:
                total += os.path.getsize(self._path(fp))
            except OSError:
                pass
        return total

    def clear(self, disk: bool = True) -> int:
        """Drop the memory tier and (optionally) every disk entry."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
        if disk:
            with self._locked():
                for fp in self.disk_entries():
                    try:
                        os.unlink(self._path(fp))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def fsck(self) -> tuple[int, int]:
        """Verify every disk entry; evict the damaged ones.

        Returns ``(checked, evicted)``.  ``repro perf --fsck`` runs this
        to reclaim a cache directory after a disk hiccup without waiting
        for each bad entry to be discovered at read time.
        """
        checked = evicted = 0
        for fp in self.disk_entries():
            checked += 1
            loaded = self._read_entry(fp)
            if isinstance(loaded, tuple) or loaded == "missing":
                continue
            self._evict_corrupt(fp, loaded)
            evicted += 1
        return checked, evicted


_GLOBAL_CACHE: DesignCache | None = None


def _after_fork_in_child() -> None:
    # A forked fleet worker (serving or sweeping) must not share
    # the parent's mutable cache state: its memory dict was built under
    # the parent's threads and its stats would double-count once both
    # processes report.  Rebuild a *fresh* cache carrying the parent's
    # configuration — this preserves a CLI-configured --cache-dir in the
    # child, which a plain reset-to-env would lose.  The shared state
    # that matters (the artifact store) lives on disk, keyed by content
    # and guarded by flock, so the child loses nothing but dict warmth.
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is not None:
        parent = _GLOBAL_CACHE
        _GLOBAL_CACHE = DesignCache(
            directory=parent.directory,
            enabled=parent.enabled,
            use_disk=parent.use_disk,
            memory_limit=parent.memory_limit,
        )


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def get_cache() -> DesignCache:
    """The process-wide cache, created lazily from the environment."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = DesignCache(
            directory=default_cache_dir(),
            enabled=not _env_flag("REPRO_NO_CACHE"),
            use_disk=not _env_flag("REPRO_CACHE_MEMORY_ONLY"),
        )
    return _GLOBAL_CACHE


def configure_cache(
    directory: str | None = None,
    enabled: bool | None = None,
    use_disk: bool | None = None,
    memory_limit: int | None = None,
) -> DesignCache:
    """Reconfigure the process-wide cache (CLI flags route here).

    Forked children (fleet workers, serving or sweeping) inherit the
    configuration set here: the after-fork hook rebuilds their cache
    from this object's fields, not from the environment.
    """
    cache = get_cache()
    if directory is not None and directory != cache.directory:
        cache.directory = directory
        cache.clear(disk=False)
    if enabled is not None:
        cache.enabled = enabled
    if use_disk is not None:
        cache.use_disk = use_disk
    if memory_limit is not None:
        with cache._lock:
            cache.memory_limit = max(0, memory_limit)
            cache._enforce_memory_limit()
    return cache


def reset_cache() -> None:
    """Forget the process-wide cache (tests re-read the environment)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = None


def cache_stats() -> CacheStats:
    return get_cache().stats


def merge_stats(delta: dict[str, Any]) -> None:
    """Fold a worker process's stats delta into this process's stats."""
    cache = get_cache()
    with cache._lock:
        cache.stats.add(delta)


def stats_report() -> str:
    """A short human-readable cache report."""
    cache = get_cache()
    s = cache.stats
    lines = [
        f"cache directory: {cache.directory}"
        + ("" if cache.enabled else "  (disabled)"),
        f"  disk entries: {len(cache.disk_entries())}"
        f" ({cache.disk_bytes() / 1e6:.2f} MB)",
        f"  this session: {s.hits} hits ({s.memory_hits} memory,"
        f" {s.disk_hits} disk), {s.misses} misses, {s.stores} stores",
        f"  seconds saved by hits: {s.seconds_saved:.2f}",
    ]
    if s.corrupt_evictions:
        lines.append(
            f"  corrupt entries evicted (recomputed): {s.corrupt_evictions}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Memoized entry points
# ---------------------------------------------------------------------------


def cached_compile(
    graph, cluster, config=None, flow: str = "tapa-cs", faults=None,
    *, _fingerprint: str | None = None,
):
    """``compile_design`` through the content-addressed cache.

    On a hit the stored :class:`~repro.core.plan.CompiledDesign` is
    returned as-is (callers must treat it as immutable); on a miss the
    compiler runs and the artifact is stored together with its wall time.
    A fault scenario joins the cache key (healthy scenarios normalize to
    the no-scenario key, since the compiler output is identical).

    ``_fingerprint`` is private to the serving broker
    (:func:`repro.serve.broker.run_request`): the key it computed for
    these very arguments at admission, so a served request is
    fingerprinted once.
    """
    from ..core.compiler import CompilerConfig, compile_design

    config = config or CompilerConfig()
    cache = get_cache()
    if not cache.enabled:
        return compile_design(graph, cluster, config, flow=flow, faults=faults)
    fingerprint = _fingerprint or fingerprint_compile(
        graph, cluster, config, flow, faults=faults
    )
    hit = cache.get(fingerprint)
    if hit is not None:
        return hit
    start = time.perf_counter()
    design = compile_design(graph, cluster, config, flow=flow, faults=faults)
    design.fingerprint = fingerprint
    if getattr(design, "floorplan_tier", "full") != "full":
        # A deadline-degraded floorplan is correct but not *the* answer
        # for this fingerprint; caching it would let one hurried request
        # poison every later unhurried one.
        with cache._lock:
            cache.stats.degraded_compiles += 1
        return design
    cache.put(fingerprint, design, time.perf_counter() - start)
    return design


def cached_simulate(design, config=None, faults=None):
    """``simulate`` through the content-addressed cache."""
    from ..sim.execution import SimulationConfig, simulate

    config = config or SimulationConfig()
    cache = get_cache()
    if not cache.enabled:
        return simulate(design, config, faults=faults)
    fingerprint = fingerprint_simulate(design, config, faults=faults)
    hit = cache.get(fingerprint)
    if hit is not None:
        return hit
    start = time.perf_counter()
    result = simulate(design, config, faults=faults)
    cache.put(fingerprint, result, time.perf_counter() - start)
    return result
