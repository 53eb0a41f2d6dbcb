"""Task extraction and parallel synthesis (step 2 of Figure 5).

TAPA-CS synthesizes every task concurrently to build an accurate resource
utilization profile before floorplanning.  Here "synthesis" is resource
estimation plus RTL interface extraction; tasks are genuinely processed in
a thread pool to mirror the paper's parallel synthesis step (estimation is
cheap, but the structure — and the per-task report — is the same).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..graph.graph import TaskGraph
from ..deadline import current_deadline
from ..errors import SynthesisTimeoutError
from .estimator import DEFAULT_COEFFICIENTS, CostCoefficients, ResourceEstimator
from .resource import ResourceVector, total_resources
from .rtl import RTLModule, build_rtl_module


@dataclass(slots=True)
class SynthesisReport:
    """The outcome of synthesizing a whole design.

    Attributes:
        graph: the input graph, with every task's ``resources`` filled in.
        modules: RTL interface records keyed by task name.
        total: summed resource vector over all tasks.
        elapsed_seconds: wall time of the synthesis step.
    """

    graph: TaskGraph
    modules: dict[str, RTLModule] = field(default_factory=dict)
    total: ResourceVector = field(default_factory=ResourceVector.zero)
    elapsed_seconds: float = 0.0

    def utilization_against(self, capacity: ResourceVector) -> dict[str, float]:
        """Design-level utilization ratios against one device's resources."""
        return self.total.utilization(capacity)


#: Below this many tasks the thread pool's spin-up dominates the work
#: (estimation is microseconds per task), so synthesis runs inline.
DEFAULT_PARALLEL_THRESHOLD = 16


def _resolve_task_timeout(task_timeout_s: float | None) -> float | None:
    """The effective per-task budget.

    ``0`` and ``None`` both mean *disabled* — the same convention the ILP
    budget and the simulation watchdog use — so a config can switch any
    stage timeout off with either spelling.
    """
    return task_timeout_s if task_timeout_s and task_timeout_s > 0 else None


def synthesize(
    graph: TaskGraph,
    coefficients: CostCoefficients = DEFAULT_COEFFICIENTS,
    max_workers: int = 8,
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
    known_modules: dict[str, RTLModule] | None = None,
    task_timeout_s: float | None = None,
) -> SynthesisReport:
    """Estimate resources for every task, in parallel, and annotate the graph.

    Tasks that already carry a ``resources`` vector (e.g. measured profiles
    imported from a real Vitis run) are left untouched, so measured and
    estimated profiles can mix.

    Args:
        parallel_threshold: designs with at most this many tasks skip the
            thread pool — both paths produce identical reports, the pool
            only pays off once the task count amortizes its spin-up.
        known_modules: RTL module records from an earlier synthesis of the
            same design (e.g. the pre-communication-insertion graph);
            tasks whose resources are already profiled reuse their record
            instead of rebuilding it, so a retry only touches new tasks.
        task_timeout_s: per-task wall-clock budget (``0`` and ``None``,
            the default, mean unlimited).  A task that runs past it
            raises :class:`~repro.errors.SynthesisTimeoutError` naming
            the task instead of wedging the whole compile.  The compiler
            passes ``CompilerConfig.synthesis_task_timeout_s``, which is
            part of the compile's cache key.  On the thread-pool
            path the wait is abandoned immediately; on the serial path
            the overrun is detected after the task returns (an in-line
            call cannot be preempted).
    """
    estimator = ResourceEstimator(coefficients)
    timeout_s = _resolve_task_timeout(task_timeout_s)
    # Deadline propagation: the per-task budget shrinks to the request's
    # remaining time, so a deadline-bearing compile never waits on a
    # synthesis task longer than the request has left to live.
    deadline = current_deadline()
    if deadline is not None:
        deadline.check("synthesis")
        timeout_s = deadline.clamp(timeout_s)
    start = time.perf_counter()
    tasks = list(graph.tasks())

    def synth_one(task):
        if task.resources is None:
            task.resources = estimator.estimate(task, graph)
        elif known_modules is not None and task.name in known_modules:
            return task.name, known_modules[task.name]
        return task.name, build_rtl_module(task, graph, task.resources)

    modules: dict[str, RTLModule] = {}
    if len(tasks) <= max(1, parallel_threshold):
        for task in tasks:
            task_start = time.perf_counter()
            name, module = synth_one(task)
            if (
                timeout_s is not None
                and time.perf_counter() - task_start > timeout_s
            ):
                if deadline is not None:
                    deadline.check("synthesis")
                raise SynthesisTimeoutError(task.name, timeout_s)
            modules[name] = module
    else:
        # No context manager: its __exit__ joins worker threads, which
        # would block forever behind the very task that just timed out.
        pool = ThreadPoolExecutor(max_workers=max_workers)
        try:
            futures = [(task.name, pool.submit(synth_one, task)) for task in tasks]
            for task_name, future in futures:
                try:
                    name, module = future.result(timeout=timeout_s)
                except FutureTimeoutError:
                    # A wait cut short by the request deadline reports as
                    # a deadline miss, not a per-task synthesis hang.
                    if deadline is not None:
                        deadline.check("synthesis")
                    raise SynthesisTimeoutError(
                        task_name, timeout_s
                    ) from None
                modules[name] = module
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    total = total_resources([t.require_resources() for t in tasks])
    return SynthesisReport(
        graph=graph,
        modules=modules,
        total=total,
        elapsed_seconds=time.perf_counter() - start,
    )
