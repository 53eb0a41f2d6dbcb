"""Exception hierarchy for the TAPA-CS reproduction.

Every error raised by this package derives from :class:`TapaCSError`, so
callers can catch one type at the API boundary.  Sub-types distinguish the
phase of the compilation flow that failed, mirroring the seven steps of the
paper's Figure 5.
"""

from __future__ import annotations

import copyreg


class TapaCSError(Exception):
    """Base class for all errors raised by this package.

    Every subclass pickles as itself: it is rebuilt from its type,
    ``args`` and attributes without calling its constructor, whose
    signature may differ from ``args`` (a :class:`SynthesisTimeoutError`
    takes a task name and a budget and formats its own message).  This
    is how a fleet worker's error reaches the broker.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class GraphError(TapaCSError):
    """Raised when a task graph is malformed (step 1: graph construction)."""


class DesignRuleError(TapaCSError):
    """Raised when static design-rule checking rejects a design.

    Carries the full list of structured
    :class:`~repro.check.diagnostics.Diagnostic` records (errors *and*
    warnings) so callers can render or serialize them instead of parsing
    the exception message.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class SynthesisError(TapaCSError):
    """Raised when task synthesis / resource estimation fails (step 2)."""


class SynthesisTimeoutError(SynthesisError):
    """Raised when one task exceeds the per-task synthesis wall-clock budget.

    Names the offending task so a multi-hundred-module compile reports
    *which* kernel hung instead of silently wedging the whole flow.
    """

    def __init__(self, task_name: str, timeout_s: float):
        super().__init__(
            f"synthesis of task {task_name!r} exceeded the per-task "
            f"timeout of {timeout_s:g}s"
        )
        #: Name of the task whose synthesis ran past the budget.
        self.task_name = task_name
        #: The wall-clock budget, in seconds, that tripped.
        self.timeout_s = timeout_s


class FloorplanError(TapaCSError):
    """Raised when inter- or intra-FPGA floorplanning fails (steps 3 & 5).

    The most common cause is an infeasible ILP: the design simply does not
    fit within the resource threshold on the requested number of devices.
    """


class InfeasibleError(FloorplanError):
    """Raised when the ILP has no feasible solution under the constraints."""


class SolverError(TapaCSError):
    """Raised when an ILP backend fails for reasons other than infeasibility."""


class CommunicationError(TapaCSError):
    """Raised when inter-FPGA communication insertion fails (step 4)."""


class PipeliningError(TapaCSError):
    """Raised when interconnect pipelining cannot balance paths (step 6)."""


class DegradedClusterError(FloorplanError):
    """Raised when injected faults leave no feasible plan on the survivors.

    Unlike the bare :class:`InfeasibleError` it wraps, it names the
    faults (failed devices, down links, degradations) that shrank the
    cluster, so callers can report *why* the design became unplaceable.
    """

    def __init__(self, message: str, faults: list[str] | None = None):
        super().__init__(message)
        #: Human-readable descriptions of the injected faults in effect.
        self.faults = list(faults or [])


class SimulationError(TapaCSError):
    """Raised when the performance or functional simulator hits an
    inconsistent state (e.g. deadlock on bounded FIFOs)."""


class DeadlockError(SimulationError):
    """Raised when the dataflow execution can make no further progress."""


class WatchdogError(SimulationError):
    """Raised when a simulation exceeds its watchdog budget.

    Carries enough context (simulated clock, event count, the limit that
    tripped) to diagnose a pathological scenario instead of spinning.
    """


class SweepError(TapaCSError):
    """Raised for failures of the parallel sweep executor itself (as
    opposed to failures of individual sweep points, which are quarantined
    and reported in the sweep outcome rather than raised)."""


class SweepInterrupted(SweepError):
    """Raised when SIGINT/SIGTERM stops a sweep mid-run.

    By the time this propagates the run journal has already been flushed
    and fsync'd for every completed point, so the run is resumable; the
    exception carries what finished for partial reporting.
    """

    def __init__(
        self,
        message: str = "sweep interrupted",
        completed: int = 0,
        total: int = 0,
        results: list | None = None,
        journal_path: str | None = None,
    ):
        super().__init__(message)
        #: Number of sweep points that completed before the signal.
        self.completed = completed
        #: Total points the sweep was asked to run.
        self.total = total
        #: Partial results, in submission order (None for unfinished).
        self.results = list(results or [])
        #: On-disk journal holding the completed points, when journaling.
        self.journal_path = journal_path


class JournalError(TapaCSError):
    """Raised when a run journal cannot be created or appended to.

    Never raised for *reading* a damaged journal — truncated or corrupt
    records are skipped so a crash mid-write can always be resumed.
    """


class DeadlineExceededError(TapaCSError):
    """Raised when a request's wall-clock deadline expires mid-flight.

    Deadlines are *propagated*, not per-stage: one shrinking budget flows
    from the request entry point through synthesis, both floorplanning
    ILPs, and the simulator, so the stage that finally runs out of time
    names itself here instead of each stage guessing at a private limit.
    """

    def __init__(self, stage: str, total_s: float | None = None):
        budget = f" (budget {total_s:g}s)" if total_s is not None else ""
        super().__init__(f"deadline exceeded during {stage}{budget}")
        #: The pipeline stage that observed the expired deadline.
        self.stage = stage
        #: The request's original wall-clock budget, when known.
        self.total_s = total_s


class OverloadedError(TapaCSError):
    """Raised when admission control sheds a request instead of queuing it.

    Unbounded queues turn overload into unbounded latency; the compile
    service rejects at a bounded depth and tells the caller when a retry
    is likely to be admitted.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        #: Suggested wait before retrying, in seconds (a hint, not a
        #: promise — derived from queue depth and recent service times).
        self.retry_after_s = retry_after_s


class InvalidRequestError(TapaCSError):
    """Raised when a request is malformed at admission (bad priority, …).

    Unlike :class:`OverloadedError` this is *not* retryable as-is: the
    request itself is wrong and resubmitting it unchanged will fail the
    same way.  The HTTP front end maps it to 400, the CLI to exit 2's
    moral equivalent (a finding, exit 1) — never to a retry hint.
    """


class IdempotencyConflictError(InvalidRequestError):
    """Raised when an idempotency key is reused with different content.

    The serve journal remembers the content fingerprint each key was
    first accepted with; a resubmission under the same key whose graph,
    cluster, or config fingerprints differently is a client bug (two
    distinct compiles would race for one result slot), not a retry — it
    is rejected as invalid rather than deduplicated or recompiled.
    """

    def __init__(self, key: str):
        super().__init__(
            f"idempotency key {key!r} was already used for a request "
            "with different content; use a fresh key"
        )
        #: The conflicting idempotency key.
        self.key = key


class QuotaExceededError(OverloadedError):
    """Raised when a tenant is over its token-bucket quota or retry budget.

    Per-tenant admission: every request names a tenant, each tenant has
    a token bucket (rate + burst), and a request arriving on an empty
    bucket is shed *here* — before it can occupy queue depth that
    well-behaved tenants paid for.  A tenant whose shed stream keeps
    arriving (a client retry storm) additionally exhausts its retry
    budget, at which point requests are rejected immediately with an
    escalated ``retry_after_s`` instead of amplifying the queue.  A
    subclass of :class:`OverloadedError` because the remedy is the same
    — back off and retry after ``retry_after_s`` — but typed so callers
    (and the load generator) can tell "you specifically are over quota"
    from "the service as a whole is overloaded".
    """

    def __init__(self, message: str, retry_after_s: float = 1.0,
                 tenant: str = ""):
        super().__init__(message, retry_after_s=retry_after_s)
        #: The tenant whose quota or retry budget was exhausted.
        self.tenant = tenant


class DrainingError(OverloadedError):
    """Raised when a request arrives while the service is draining.

    SIGTERM puts the service into drain: admitted work finishes, new
    work is rejected here with a retry hint so a load balancer (or a
    human) knows to come back once a replacement instance is up.  A
    subclass of :class:`OverloadedError` because the remedy is the same;
    the HTTP front end maps it to 503 (vs. 429 for plain overload).
    """


class WorkerCrashError(OverloadedError):
    """Raised when a fleet request ran out of failover attempts.

    Each crash of the worker process running a request fails the work
    over to a healthy worker (safe: compiles are idempotent under their
    content fingerprint).  A request that crashes ``max_failovers + 1``
    workers in a row is almost certainly *crashing them* — it is failed
    with this typed, retryable error instead of consuming the whole
    fleet.  A subclass of :class:`OverloadedError` so callers' remedy
    (back off, retry) and the CLI exit code are the familiar ones.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0,
                 failovers: int = 0):
        super().__init__(message, retry_after_s=retry_after_s)
        #: How many failovers were attempted before giving up.
        self.failovers = failovers


class CircuitOpenError(OverloadedError):
    """Raised when a backend's circuit breaker is open and the request
    cannot be served degraded.

    An open ILP breaker degrades to the greedy floorplan tier instead of
    raising; synthesis and simulator breakers have no cheaper substitute,
    so their requests fail fast here until a half-open probe recovers.
    A subclass of :class:`OverloadedError` because the caller's remedy is
    the same — back off and retry after ``retry_after_s``.
    """

    def __init__(self, backend: str, retry_after_s: float = 1.0):
        super().__init__(
            f"backend {backend!r} circuit breaker is open; "
            f"retry in {retry_after_s:g}s",
            retry_after_s=retry_after_s,
        )
        #: The wedged backend ("ilp", "synthesis", or "sim").
        self.backend = backend


class DeviceError(TapaCSError):
    """Raised for unknown device parts or invalid device configuration."""


class TopologyError(TapaCSError):
    """Raised for invalid cluster topology configuration."""
