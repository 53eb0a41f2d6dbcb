"""Performance infrastructure: content-addressed caching + parallel sweeps.

The paper's own pitch is turnaround time — TAPA-CS synthesizes tasks in
parallel precisely because compile latency gates design iteration.  The
reproduction's experiment harness replays the same (graph, cluster,
config, flow) combinations dozens of times across tables and figures, so
this package provides:

* :mod:`repro.perf.fingerprint` — a stable content fingerprint over the
  complete compiler input (task graph, cluster, compiler config, flow)
  plus the model constants the outputs depend on;
* :mod:`repro.perf.cache` — an in-memory + on-disk memoization layer for
  ``compile_design`` and ``simulate`` keyed by that fingerprint, with
  hit/miss/seconds-saved accounting;
* :mod:`repro.perf.sweep` — a supervised sweep executor that fans
  independent (flow x parameter) experiment runs across the worker
  processes of the serving fleet, with per-job timeouts, retry/backoff,
  quarantine, and worker replacement on a crash or a timeout;
* :mod:`repro.perf.journal` — append-only, fsync'd JSONL run journals
  that make interrupted sweeps resumable (``repro bench --resume``).
"""

from .cache import (
    CacheStats,
    DesignCache,
    cache_stats,
    cached_compile,
    cached_simulate,
    configure_cache,
    get_cache,
    merge_stats,
    reset_cache,
    stats_report,
)
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    cluster_fingerprint,
    design_fingerprint,
    fingerprint_compile,
    fingerprint_simulate,
    model_constants_fingerprint,
)
from .journal import (
    RunInfo,
    RunJournal,
    activate_journal,
    current_journal,
    default_runs_dir,
    list_runs,
    new_run_id,
    runs_report,
    spec_key,
)
from .sweep import (
    SweepFailure,
    SweepOutcome,
    SweepSpec,
    resolve_jobs,
    run_sweep,
    run_sweep_outcome,
    take_failure_report,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "DesignCache",
    "RunInfo",
    "RunJournal",
    "SweepFailure",
    "SweepOutcome",
    "SweepSpec",
    "activate_journal",
    "current_journal",
    "default_runs_dir",
    "list_runs",
    "new_run_id",
    "run_sweep_outcome",
    "runs_report",
    "spec_key",
    "take_failure_report",
    "cache_stats",
    "cached_compile",
    "cached_simulate",
    "canonical_json",
    "cluster_fingerprint",
    "configure_cache",
    "design_fingerprint",
    "fingerprint_compile",
    "fingerprint_simulate",
    "get_cache",
    "merge_stats",
    "model_constants_fingerprint",
    "reset_cache",
    "resolve_jobs",
    "run_sweep",
    "stats_report",
]
