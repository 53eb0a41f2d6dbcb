"""The compile/simulate request broker: deadline-aware admission.

Every front end — the CLI, the bench harness, the long-running
``repro serve`` HTTP mode — routes compile and simulate work through one
process-wide :class:`CompileService`.  A request runs on the thread
that asks for it: :meth:`CompileService.execute` admits it, waits for
one of the service's execution slots, and then runs it itself, so a
request's whole life is on one thread.  The broker owns no worker
threads; :meth:`~CompileService.submit` and journal replay, which have
no waiting caller, start one thread per request.  The service adds:

* **admission control**: a bounded queue plus per-class in-flight limits
  ("interactive" vs "batch").  A request that would exceed either is
  *shed* immediately with :class:`~repro.errors.OverloadedError` and a
  retry-after hint derived from queue depth and recent service times —
  bounded queues turn overload into fast rejections instead of unbounded
  latency;
* **tenant isolation**: every request names a ``tenant``; per-tenant
  token buckets and retry budgets (:mod:`repro.serve.quota`) shed
  over-quota traffic with :class:`~repro.errors.QuotaExceededError`
  before it consumes queue depth, and the queue itself drains by
  weighted deficit round robin across tenants within each class
  (:mod:`repro.serve.sched`) with priority aging, so no admitted
  request starves behind a flood;
* **adaptive brownout**: a hysteretic controller
  (:mod:`repro.serve.brownout`) watches queue depth, the deadline-miss
  rate, and breaker state, and under sustained pressure lowers the
  fleet-wide floorplan-ladder ceiling (full → budget → coarse → greedy)
  so overload degrades answer *quality* before *availability*, then
  restores it after demonstrated calm;
* **deadline propagation**: each request's optional wall-clock budget
  becomes a :class:`~repro.deadline.Deadline` *at submit time* — queue
  wait consumes budget — and is installed around the worker's compile so
  every stage (synthesis, both floorplan ILPs, the simulator) sees one
  shrinking budget;
* **graceful degradation**: compiles under deadline pressure step down
  the floorplan quality ladder (:mod:`repro.core.ladder`) instead of
  missing their deadline, and an open ILP breaker forces the greedy tier
  outright so a wedged solver costs zero seconds per request;
* **circuit breakers**: per-backend (``ilp``, ``synthesis``, ``sim``)
  closed/open/half-open breakers fed by the ladder log and by exception
  types, surfaced in :meth:`CompileService.health`.

With no deadline, an idle queue, and closed breakers, a request is a
pass-through to :func:`repro.perf.cache.cached_compile` /
``cached_simulate`` — byte-identical artifacts, same cache keys — so
routing everything through the service costs nothing on the happy path.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any

from ..deadline import Deadline, deadline_scope
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DrainingError,
    IdempotencyConflictError,
    InvalidRequestError,
    JournalError,
    OverloadedError,
    QuotaExceededError,
    SimulationError,
    SolverError,
    SynthesisError,
    WorkerCrashError,
)
from .breaker import OPEN, BreakerConfig, CircuitBreaker
from .brownout import BrownoutConfig, BrownoutController
from .fleet import FleetConfig, WorkerFleet
from .journal import ServeJournal, disabled_health
from .quota import DEFAULT_TENANT, QuotaConfig, QuotaRegistry
from .sched import FairScheduler

#: Request classes with separate in-flight limits.  Requests naming any
#: other class are rejected at submit with
#: :class:`~repro.errors.InvalidRequestError` — silently coercing a typo
#: to "batch" would hand an intended-interactive request the wrong SLO.
REQUEST_CLASSES = ("interactive", "batch")

#: Backends guarded by circuit breakers.
BREAKER_BACKENDS = ("ilp", "synthesis", "sim")


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


@dataclass(slots=True)
class ServiceConfig:
    """Tuning knobs for the compile service."""

    #: Requests that run at once in thread mode (execution slots).
    workers: int = 2
    #: Admitted-but-not-started requests beyond which submits are shed.
    max_queue: int = 8
    #: Per-class cap on admitted (queued + running) requests.
    class_limits: dict[str, int] = field(
        default_factory=lambda: {"interactive": 4, "batch": 8}
    )
    #: Shared breaker tuning for all three backends.
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Worker *processes* behind the broker, one execution slot each; 0
    #: runs requests in-process.  With a fleet, a crashing or wedged
    #: compile takes down one child process, not the service.
    fleet_workers: int = 0
    #: Fleet tuning; None means :meth:`FleetConfig.from_env` with
    #: ``workers`` overridden by :attr:`fleet_workers`.
    fleet: FleetConfig | None = None
    #: Per-tenant token buckets, retry budgets, and WDRR weights
    #: (:mod:`repro.serve.quota`); the default is quota-off.
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    #: Adaptive brownout thresholds (:mod:`repro.serve.brownout`).
    brownout: BrownoutConfig = field(default_factory=BrownoutConfig)
    #: Queued age past which a request jumps the tenant rotation and
    #: class priority (anti-starvation; 0 disables aging).
    aging_threshold_s: float = 10.0
    #: Directory of the write-ahead request journal (None: durability
    #: off; the service behaves exactly as before the journal existed).
    journal_dir: str | None = None
    #: How long a completed idempotency key keeps serving dedup hits.
    idempotency_ttl_s: float = 3600.0
    #: Strict journaling: a journal that cannot be opened fails startup
    #: instead of silently serving non-durable.  The ``repro serve``
    #: CLI sets this when ``--journal-dir`` was asked for explicitly.
    journal_strict: bool = False

    @classmethod
    def from_env(cls) -> "ServiceConfig":
        """Build a config from ``REPRO_SERVE_*`` environment knobs."""
        base = cls()
        return cls(
            journal_dir=os.environ.get("REPRO_SERVE_JOURNAL_DIR") or None,
            idempotency_ttl_s=_env_float(
                "REPRO_SERVE_IDEMPOTENCY_TTL_S", base.idempotency_ttl_s
            ),
            workers=_env_int("REPRO_SERVE_WORKERS", base.workers),
            max_queue=_env_int("REPRO_SERVE_MAX_QUEUE", base.max_queue),
            fleet_workers=_env_int("REPRO_SERVE_FLEET", 0),
            class_limits={
                "interactive": _env_int(
                    "REPRO_SERVE_INTERACTIVE_LIMIT",
                    base.class_limits["interactive"],
                ),
                "batch": _env_int(
                    "REPRO_SERVE_BATCH_LIMIT", base.class_limits["batch"]
                ),
            },
            breaker=BreakerConfig(
                failure_threshold=_env_int(
                    "REPRO_SERVE_BREAKER_THRESHOLD", 3
                ),
                reset_timeout_s=_env_float(
                    "REPRO_SERVE_BREAKER_RESET_S", 10.0
                ),
            ),
            quota=QuotaConfig.from_env(),
            brownout=BrownoutConfig.from_env(),
            aging_threshold_s=_env_float(
                "REPRO_SERVE_AGING_S", base.aging_threshold_s
            ),
        )


@dataclass(slots=True)
class CompileRequest:
    """One unit of work for the service."""

    graph: Any
    cluster: Any
    config: Any = None  # CompilerConfig | None
    flow: str = "tapa-cs"
    faults: Any = None
    #: "compile" or "simulate" (simulate = compile + performance sim).
    kind: str = "compile"
    sim_config: Any = None  # SimulationConfig | None, simulate only
    #: Wall-clock budget in seconds, counted from submit (0/None = none).
    deadline_s: float | None = None
    #: Admission class; see :data:`REQUEST_CLASSES`.
    priority: str = "batch"
    #: Route through the content-addressed cache (degraded results are
    #: never stored regardless).
    use_cache: bool = True
    #: Who is asking: the unit of quota enforcement and fair scheduling.
    #: Requests that never name one share the anonymous tenant.
    tenant: str = DEFAULT_TENANT
    #: Client-supplied idempotency key.  A resubmission under the same
    #: key returns the original result (journal dedup) or joins the
    #: in-flight request instead of recompiling; reusing a key with
    #: different content is rejected as a conflict.  None derives the
    #: key from the content fingerprint when the journal is on.
    idempotency_key: str | None = None


@dataclass(slots=True)
class _Fingerprinted:
    """A request plus the compile fingerprint its broker computed for it.

    Only :meth:`CompileService._run` builds one, from the key it computed
    itself at admission — never from a request field or a journal record
    — so the thread or fleet worker running the request does not compute
    the same key again.
    """

    request: CompileRequest
    fingerprint: str


def run_request(
    request: CompileRequest | _Fingerprinted, deadline: Deadline | None
) -> Any:
    """Compile one request, then simulate it if it asks for that.

    The one request body: the broker calls it on the requesting thread,
    fleet workers through :func:`repro.serve.fleet._run_one_request`.
    Returns the design, or ``(design, result)`` for a ``simulate``
    request.  A request the broker sends with its fingerprint is looked
    up in the cache under that key.
    """
    from ..core.compiler import CompilerConfig, compile_design
    from ..perf.cache import cached_compile, cached_simulate
    from ..sim.execution import SimulationConfig, simulate

    fingerprint = None
    if isinstance(request, _Fingerprinted):
        request, fingerprint = request.request, request.fingerprint
    config = request.config or CompilerConfig()
    with deadline_scope(deadline):
        if request.use_cache:
            design = cached_compile(
                request.graph, request.cluster, config,
                flow=request.flow, faults=request.faults,
                _fingerprint=fingerprint,
            )
        else:
            design = compile_design(
                request.graph, request.cluster, config,
                flow=request.flow, faults=request.faults,
            )
        if request.kind != "simulate":
            return design
        sim_config = request.sim_config or SimulationConfig()
        simulate_fn = cached_simulate if request.use_cache else simulate
        return design, simulate_fn(design, sim_config, faults=request.faults)


def _run_in_thread(
    request: CompileRequest | _Fingerprinted, deadline: Deadline | None
) -> tuple[Any, list[dict]]:
    """:func:`run_request` on this thread, with the fleet's contract.

    Returns ``(value, ladder_entries)``, or raises with the entries
    attached as ``exc.ladder_entries``, exactly as
    :meth:`WorkerFleet.run <repro.serve.fleet.WorkerFleet.run>` does.
    """
    from ..core.ladder import drain_ladder_log

    drain_ladder_log()  # discard stale entries from earlier work
    try:
        value = run_request(request, deadline)
    except BaseException as exc:
        exc.ladder_entries = drain_ladder_log()  # type: ignore[attr-defined]
        raise
    return value, drain_ladder_log()


class _Pending:
    """A submitted request plus its completion state.

    Coalesced duplicates share one ``_Pending``: the single-flight
    leader's handle is returned to every follower, so K identical
    concurrent submits block on one event and read one value.
    """

    __slots__ = (
        "request", "deadline", "event", "value", "error", "submitted_at",
        "fingerprint", "coalesce_key", "followers", "journal_id",
        "granted", "idem_key", "idem_client", "follower_tenants",
        "follower_keys",
    )

    def __init__(self, request: CompileRequest, deadline: Deadline | None):
        self.request = request
        self.deadline = deadline
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.submitted_at = time.monotonic()
        #: The compile fingerprint computed at admission (None: not
        #: cacheable, or a replayed request whose key this process has
        #: not computed).
        self.fingerprint: str | None = None
        #: Single-flight table key while this request is in flight
        #: (None: not coalescible).
        self.coalesce_key: str | None = None
        #: How many duplicate submits attached to this handle.
        self.followers = 0
        #: Journal entry id while journaled (None: non-durable).
        self.journal_id: str | None = None
        #: Set once the request holds an execution slot.
        self.granted = threading.Event()
        #: The idempotency key this flight is registered under.
        self.idem_key: str | None = None
        #: True when ``idem_key`` came from the client (vs derived).
        self.idem_client = False
        #: Tenants of followers that joined this flight — refunded one
        #: admission token each if the leader dies with the fleet
        #: (their wait bought them nothing they can retry against).
        self.follower_tenants: list[str] = []
        #: Client keys of followers that joined through single flight.
        #: Each gets its own stored done record when the flight ends.
        self.follower_keys: list[str] = []

    def result(self, timeout: float | None = None) -> Any:
        """Block for the outcome; re-raises the request's exception."""
        if not self.event.wait(timeout):
            raise TimeoutError("request still in flight")
        if self.error is not None:
            raise self.error
        return self.value


class CompileService:
    """The request broker; one per process (see :func:`get_service`)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self._lock = threading.Lock()
        self._queue = FairScheduler(
            classes=REQUEST_CLASSES,
            aging_threshold_s=self.config.aging_threshold_s,
        )
        self._admitted = {cls: 0 for cls in REQUEST_CLASSES}
        self._brownout_ticker: threading.Thread | None = None
        self._shutdown = False
        self._draining = False
        self._started_at = time.monotonic()
        self._ewma_service_s = 1.0
        #: EWMA of the per-completion deadline-miss indicator; one of
        #: the brownout controller's pressure inputs.
        self._miss_ewma = 0.0
        #: Single-flight table: coalesce key -> the in-flight leader.
        self._singleflight: dict[str, _Pending] = {}
        #: Client idempotency key -> the in-flight leader.  Separate
        #: from the content-keyed table because an explicit key is the
        #: client *asserting* identity — joins skip the deadline-
        #: poisoning guard that derived coalescing needs.
        self._idem_inflight: dict[str, _Pending] = {}
        self.quotas = QuotaRegistry(self.config.quota)
        self.brownout = BrownoutController(self.config.brownout)
        self.fleet: WorkerFleet | None = None
        if self.config.fleet_workers > 0:
            fleet_config = self.config.fleet or FleetConfig.from_env()
            fleet_config.workers = self.config.fleet_workers
            self.fleet = WorkerFleet(fleet_config)
        self.breakers = {
            name: CircuitBreaker(name, self.config.breaker)
            for name in BREAKER_BACKENDS
        }
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "shed": 0,
            "quota_shed": 0,
            "rejected_priority": 0,
            "drain_rejected": 0,
            "coalesced": 0,
            "deadline_misses": 0,
            "degraded_tier": 0,
            "breaker_forced_greedy": 0,
            "brownout_degraded": 0,
            "dedup_hits": 0,
            "idem_joined": 0,
            "idem_conflicts": 0,
            "replayed": 0,
            "follower_refunds": 0,
        }
        self.journal: ServeJournal | None = None
        self._journal_error: str | None = None
        if self.config.journal_dir:
            try:
                self.journal = ServeJournal(
                    self.config.journal_dir,
                    ttl_s=self.config.idempotency_ttl_s,
                )
            except (JournalError, OSError) as exc:
                if self.config.journal_strict:
                    raise
                # Availability over durability: a journal that cannot
                # open leaves the service running non-durable, with the
                # error surfaced in the health document.
                self._journal_error = str(exc)
        if self.journal is not None:
            self._recover_from_journal()

    # -- durability ------------------------------------------------------------

    def _recover_from_journal(self) -> None:
        """Replay the write-ahead log: restore containment, re-enqueue.

        Runs once at construction.  The latest checkpoint rehydrates the
        quota buckets (crediting downtime as refill, so a pre-crash
        abuser is still shed immediately) and the brownout ceiling; then
        every incomplete entry is re-enqueued with its original tenant,
        class, and deadline budget — *bypassing* admission, because these
        requests were already admitted before the crash and their
        acceptance was acknowledged — and runs on a thread of its own.
        """
        journal = self.journal
        assert journal is not None
        state = journal.restore_state()
        if state is not None:
            quota_state = state.get("quotas")
            if isinstance(quota_state, dict):
                with self._lock:
                    self.quotas.restore_state(quota_state)
            brownout_state = state.get("brownout")
            if isinstance(brownout_state, dict):
                with self._lock:
                    self.brownout.restore_state(brownout_state)
        for entry, request in journal.take_incomplete():
            cls = (
                request.priority
                if getattr(request, "priority", None) in self._admitted
                else "batch"
            )
            # A fresh budget from the original deadline_s: the crash ate
            # wall clock the client should not be double-charged for.
            deadline = (
                Deadline.after(entry.deadline_s)
                if entry.deadline_s is not None and entry.deadline_s > 0
                else None
            )
            tenant = entry.tenant or DEFAULT_TENANT
            with self._lock:
                self._admitted[cls] += 1
                self._start_ticker()
                # No fingerprint from the record: the predecessor computed
                # it under its own model constants, so the cache computes
                # this process's key for the replayed request.
                pending = _Pending(request, deadline)
                pending.journal_id = entry.id
                pending.idem_key = entry.idem
                pending.idem_client = not entry.derived
                if entry.idem is not None:
                    if entry.derived:
                        pending.coalesce_key = entry.idem
                        self._singleflight[entry.idem] = pending
                    else:
                        self._idem_inflight[entry.idem] = pending
                self._queue.push(
                    pending, cls, tenant,
                    weight=self.quotas.weight_for(tenant),
                )
                self.counters["replayed"] += 1
                self._grant()
            journal.counters["replayed_at_boot"] += 1
            self._serve_in_thread(pending)

    def _note_journal_error(self, exc: Exception) -> None:
        self._journal_error = str(exc)

    def _journal_checkpoint(self, force: bool = False) -> None:
        """Snapshot quota/brownout state into the journal (throttled).

        Must be called *without* the admission lock held; it takes the
        lock itself to read a consistent snapshot, then appends outside.
        """
        journal = self.journal
        if journal is None:
            return
        with self._lock:
            state = {
                "quotas": self.quotas.export_state(),
                "brownout": self.brownout.export_state(),
            }
        journal.checkpoint(state, force=force)

    def _journal_finish(self, pending: _Pending) -> None:
        """Close one journaled entry as done/failed (outside the lock).

        A result is stored under the entry's client key and, in a done
        record of its own, under each client key that followed the
        flight.  Runs *before* the completion event wakes the waiters
        and before the client keys leave the in-flight table: once a
        client has seen the result, a resubmission of its idempotency
        key must already find the dedup record.
        """
        journal = self.journal
        if journal is None or pending.journal_id is None:
            return
        try:
            if pending.error is None:
                # Only a client key can look the result up again.
                journal.record_done(
                    pending.journal_id,
                    pending.value,
                    idem=pending.idem_key if pending.idem_client else None,
                    fp=pending.coalesce_key,
                    followers=pending.follower_keys,
                )
            else:
                journal.record_failed(
                    pending.journal_id,
                    type(pending.error).__name__,
                    str(pending.error),
                )
        except JournalError as exc:
            self._note_journal_error(exc)
        self._journal_checkpoint()

    # -- admission -------------------------------------------------------------

    def _capacity(self) -> int:
        """Execution slots: requests that may run at once."""
        if self.fleet is not None:
            return max(1, self.config.fleet_workers)
        return max(1, self.config.workers)

    def _retry_after_estimate(self, cls: str | None = None) -> float:
        """How long until a retry is likely admitted (a hint, not a promise).

        Scales with the queue backlog and, when the shed was a *class*
        limit, with how saturated that class is: a full interactive lane
        over an empty queue still needs one service time to free a slot,
        and a deep queue needs ``depth`` service times per free slot.
        """
        backlog = len(self._queue) + 1
        per_slot = self._ewma_service_s / self._capacity()
        estimate = backlog * per_slot
        if cls is not None:
            limit = self.config.class_limits.get(cls, 0)
            inflight = self._admitted.get(cls, 0)
            if limit > 0 and inflight >= limit:
                # All of the class's slots are occupied; at best one
                # frees up after a service time, and the overshoot
                # queues behind it.
                estimate = max(
                    estimate,
                    self._ewma_service_s * (1 + inflight - limit) / limit,
                )
        return min(60.0, max(0.5, estimate))

    # -- brownout --------------------------------------------------------------

    def _pressure_signal(self) -> float:
        """The scalar overload signal the brownout controller watches.

        Called with the lock held.  The max (not a blend) of three
        normalized inputs: a full queue alone, a high miss rate alone,
        or one open breaker alone is each sufficient evidence that
        capacity is behind demand.
        """
        queue_frac = len(self._queue) / max(1, self.config.max_queue)
        breaker_open = any(
            breaker.state == OPEN for breaker in self.breakers.values()
        )
        return max(
            min(1.0, queue_frac),
            min(1.0, self._miss_ewma),
            1.0 if breaker_open else 0.0,
        )

    def _observe_pressure(self) -> None:
        # Called with the lock held (submit, completion, and the ticker).
        self.brownout.observe(self._pressure_signal())

    def _brownout_loop(self) -> None:
        """Background sampler so recovery does not need traffic.

        Submits and completions feed the controller on the hot path, but
        hysteretic *restore* requires sustained low-pressure samples —
        which an idle (recovered) service would never produce without
        this ticker.
        """
        period = max(
            0.05,
            min(
                0.5,
                min(
                    self.config.brownout.degrade_after_s,
                    self.config.brownout.restore_after_s,
                )
                / 4.0,
            ),
        )
        while True:
            with self._lock:
                if self._shutdown:
                    return
                self._observe_pressure()
            time.sleep(period)

    def _fingerprint(
        self, request: CompileRequest
    ) -> tuple[str | None, str | None]:
        """``(compile fingerprint, single-flight key)`` of a request.

        The fingerprint is the artifact cache's key for the compile, and
        the single-flight key is built on it, so "identical" means
        *provably identical output*.  Uncacheable requests
        (``use_cache=False`` is an explicit ask to recompute) and
        unfingerprintable graphs get neither and never coalesce.
        """
        if not request.use_cache:
            return None, None
        from ..core.compiler import CompilerConfig
        from ..perf.fingerprint import canonical_json, fingerprint_compile, to_jsonable

        try:
            fingerprint = fingerprint_compile(
                request.graph,
                request.cluster,
                request.config or CompilerConfig(),
                request.flow,
                faults=request.faults,
            )
            base = fingerprint
            if request.kind == "simulate":
                import hashlib

                sim = canonical_json(to_jsonable(request.sim_config))
                base += ":" + hashlib.sha256(sim.encode()).hexdigest()[:16]
        except Exception:
            return None, None
        return fingerprint, f"{request.kind}:{base}"

    @staticmethod
    def _may_coalesce(leader: _Pending, request: CompileRequest) -> bool:
        """May this duplicate ride the in-flight leader's result?

        A leader under deadline pressure may legitimately return a
        *degraded* floorplan tier; handing that to an unhurried follower
        would poison it with a worse answer than it is entitled to.  So
        a follower only attaches when the leader is unhurried, or when
        the follower's own budget is at least as tight.
        """
        if leader.deadline is None:
            return True
        if request.deadline_s is None or request.deadline_s <= 0:
            return False
        return leader.deadline.remaining() <= request.deadline_s

    def submit(self, request: CompileRequest) -> _Pending:
        """Admit a request (or shed it) and hand back a waitable handle.

        The request runs on a thread of its own.  With the journal on,
        the handle is returned only after the request's accept record is
        fsync'd: acceptance is acknowledged once it would survive a power
        loss.  A client-keyed request that joins another request's
        flight is the exception: nothing names its key on disk until
        that flight ends, so after a crash a retry under the key starts
        a fresh run.

        K identical concurrent requests coalesce into a single flight:
        one compile runs, and every duplicate submit returns the same
        handle (bypassing queue-depth and class-limit admission — a
        coalesced wait consumes no execution slot).

        Raises:
            InvalidRequestError: when ``priority`` names no known class
                (never silently coerced — a typo'd "interactive" must
                not quietly get batch treatment).
            QuotaExceededError: when the tenant's token bucket is empty
                or its retry budget is exhausted.
            OverloadedError: when the queue or the request's class is at
                its limit; carries ``retry_after_s``.
            DrainingError: when the service is draining (SIGTERM);
                admitted work finishes but nothing new is accepted.
        """
        pending, queued = self._submit(request, sync_accept=True)
        if queued:
            self._serve_in_thread(pending)
        return pending

    def execute(self, request: CompileRequest) -> Any:
        """Admit, then run on this thread: the synchronous entry point.

        Once admitted, the request waits for an execution slot and runs
        on the calling thread; a coalesced duplicate or a dedup hit just
        waits for the result.  The accept record is written but not
        fsync'd: this caller hears nothing before the result, so there is
        no acknowledgement to make durable.  A ``kill -9`` loses nothing
        (the record is in the OS already), and a client-keyed request's
        fsync'd done record makes the accept before it durable too.
        """
        pending, queued = self._submit(request, sync_accept=False)
        if queued:
            self._serve(pending)
        return pending.result()

    def _submit(
        self, request: CompileRequest, sync_accept: bool
    ) -> tuple[_Pending, bool]:
        cls = request.priority
        tenant = request.tenant or DEFAULT_TENANT
        # Fingerprinting is CPU work: do it outside the lock.
        fingerprint, key = self._fingerprint(request)
        client_key = request.idempotency_key or None
        deadline = (
            Deadline.after(request.deadline_s)
            if request.deadline_s is not None and request.deadline_s > 0
            else None
        )
        try:
            pending, queued = self._admit(
                request, cls, tenant, fingerprint, key, client_key, deadline
            )
        except (QuotaExceededError, OverloadedError):
            # A shed is a containment decision worth surviving a crash:
            # checkpoint the quota/brownout state that produced it (the
            # lock is released here — checkpointing takes it itself).
            self._journal_checkpoint()
            raise
        if queued:
            self._journal_accept(
                pending, request, key, client_key, cls, sync_accept
            )
            self._journal_checkpoint()
        return pending, queued

    def _admit(
        self,
        request: CompileRequest,
        cls: str,
        tenant: str,
        fingerprint: str | None,
        key: str | None,
        client_key: str | None,
        deadline: Deadline | None,
    ) -> tuple[_Pending, bool]:
        """The locked admission decision: ``(handle, newly queued?)``."""
        with self._lock:
            self.counters["submitted"] += 1
            if cls not in self._admitted:
                self.counters["rejected_priority"] += 1
                raise InvalidRequestError(
                    f"unknown priority {cls!r}; choose one of "
                    f"{', '.join(REQUEST_CLASSES)}"
                )
            if self._draining:
                self.counters["drain_rejected"] += 1
                raise DrainingError(
                    "service is draining; it will finish admitted work "
                    "and exit — retry against a fresh instance",
                    retry_after_s=self._retry_after_estimate(cls),
                )
            if self._shutdown:
                raise OverloadedError("service is shutting down", 1.0)
            # Per-tenant quota runs before single-flight: a coalesced
            # wait is nearly free for the service, but tokens price the
            # *request stream*, and an abusive tenant must not dodge its
            # bucket by hammering one popular fingerprint.
            try:
                self.quotas.admit(tenant)
            except QuotaExceededError:
                self.counters["quota_shed"] += 1
                self._observe_pressure()
                raise
            if client_key is not None:
                resolved = self._resolve_idempotent(
                    request, client_key, key, tenant
                )
                if resolved is not None:
                    return resolved, False
            if key is not None:
                leader = self._singleflight.get(key)
                if leader is not None and self._may_coalesce(leader, request):
                    leader.followers += 1
                    leader.follower_tenants.append(tenant)
                    if client_key is not None:
                        # The key rides the flight like the leader's
                        # own: a retry under it joins, and it is retired
                        # only once its done record is written.
                        leader.follower_keys.append(client_key)
                        self._idem_inflight[client_key] = leader
                    self.counters["coalesced"] += 1
                    return leader, False
            if len(self._queue) >= self.config.max_queue:
                self.counters["shed"] += 1
                self.quotas.record_shed(tenant)
                self._observe_pressure()
                raise OverloadedError(
                    f"compile service queue is full "
                    f"({len(self._queue)}/{self.config.max_queue} deep)",
                    retry_after_s=self._retry_after_estimate(),
                )
            limit = self.config.class_limits.get(cls, 0)
            if self._admitted[cls] >= limit:
                self.counters["shed"] += 1
                self.quotas.record_shed(tenant)
                self._observe_pressure()
                raise OverloadedError(
                    f"class {cls!r} is at its in-flight limit ({limit})",
                    retry_after_s=self._retry_after_estimate(cls),
                )
            self._admitted[cls] += 1
            self._start_ticker()
            pending = _Pending(request, deadline)
            pending.fingerprint = fingerprint
            if key is not None:
                pending.coalesce_key = key
                self._singleflight[key] = pending
            pending.idem_key = client_key or key
            pending.idem_client = client_key is not None
            if client_key is not None:
                self._idem_inflight[client_key] = pending
            if self.journal is not None:
                # The id is minted under the lock; the append happens
                # after release.
                pending.journal_id = self.journal.new_entry_id()
            self._queue.push(
                pending, cls, tenant, weight=self.quotas.weight_for(tenant)
            )
            self._observe_pressure()
            self._grant()
            return pending, True

    def _resolve_idempotent(
        self,
        request: CompileRequest,
        client_key: str,
        key: str | None,
        tenant: str,
    ) -> _Pending | None:
        """Dedup or join a client-keyed resubmission (lock held).

        Order: conflict check (key reused with different content),
        completed-result dedup from the journal, then joining the
        in-flight leader.  Returns None when the key is fresh.
        """
        if self.journal is not None:
            hit, value, stored_fp = self.journal.lookup(client_key)
            if (
                stored_fp is not None
                and key is not None
                and stored_fp != key
            ):
                self.counters["idem_conflicts"] += 1
                raise IdempotencyConflictError(client_key)
            if hit:
                self.counters["dedup_hits"] += 1
                done = _Pending(request, None)
                done.value = value
                done.event.set()
                return done
        leader = self._idem_inflight.get(client_key)
        if leader is not None:
            if (
                key is not None
                and leader.coalesce_key is not None
                and leader.coalesce_key != key
            ):
                self.counters["idem_conflicts"] += 1
                raise IdempotencyConflictError(client_key)
            leader.followers += 1
            leader.follower_tenants.append(tenant)
            self.counters["idem_joined"] += 1
            return leader
        return None

    def _journal_accept(
        self,
        pending: _Pending,
        request: CompileRequest,
        key: str | None,
        client_key: str | None,
        cls: str,
        sync: bool,
    ) -> None:
        """Journal one queued request (outside the lock).

        The append happens here, *before* submit returns, and is fsync'd
        when ``sync`` is set — :meth:`submit` acknowledges acceptance
        only once it would survive a crash.  A request that will not
        pickle (synthetic test graphs, say) simply stays non-durable; a
        journal write failure (disk full) is remembered and surfaced in
        health, but the already-queued request still runs — availability
        over durability.  The thread that runs the request writes its
        dispatched record after this append has returned, so an entry's
        records keep lifecycle order in the WAL.
        """
        journal = self.journal
        if journal is None or pending.journal_id is None:
            return
        try:
            durable = journal.record_accepted(
                pending.journal_id,
                request,
                idem=pending.idem_key,
                derived=client_key is None,
                fp=key,
                tenant=request.tenant or DEFAULT_TENANT,
                cls=cls,
                deadline_s=request.deadline_s,
                sync=sync,
            )
        except JournalError as exc:
            self._note_journal_error(exc)
            durable = False
        if not durable:
            pending.journal_id = None

    # -- execution -------------------------------------------------------------

    def _start_ticker(self) -> None:
        # Called with the lock held.  The ticker starts lazily, so
        # importing the module (or an idle service) costs nothing.
        if self.config.brownout.enabled and (
            self._brownout_ticker is None
            or not self._brownout_ticker.is_alive()
        ):
            self._brownout_ticker = threading.Thread(
                target=self._brownout_loop,
                name="repro-serve-brownout",
                daemon=True,
            )
            self._brownout_ticker.start()

    def _grant(self) -> None:
        """Give free execution slots to the next queued requests.

        Called with the lock held, on admission and on completion.  A
        request holds its slot from grant to completion, so the slots in
        use are the admitted requests less the queued ones.
        """
        while self._queue and (
            sum(self._admitted.values()) - len(self._queue)
            < self._capacity()
        ):
            self._queue.pop().granted.set()

    def _serve_in_thread(self, pending: _Pending) -> None:
        """Run an admitted request that no caller waits to run."""
        threading.Thread(
            target=self._serve, args=(pending,),
            name="repro-serve-request", daemon=True,
        ).start()

    def _serve(self, pending: _Pending) -> None:
        """Run one admitted request on this thread once it holds a slot."""
        try:
            pending.granted.wait()
        except BaseException:
            # Interrupted while queued: the request stays admitted and
            # coalesced callers may wait for it, so it runs elsewhere.
            self._serve_in_thread(pending)
            raise
        cls = (
            pending.request.priority
            if pending.request.priority in self._admitted
            else "batch"
        )
        start = time.monotonic()
        missed = False
        try:
            if self.journal is not None and pending.journal_id is not None:
                try:
                    self.journal.record_dispatched(pending.journal_id)
                except JournalError as exc:
                    self._note_journal_error(exc)
            pending.value = self._run(pending)
            with self._lock:
                self.counters["completed"] += 1
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            pending.error = exc
            with self._lock:
                self.counters["failed"] += 1
                if isinstance(exc, DeadlineExceededError):
                    self.counters["deadline_misses"] += 1
                    missed = True
        finally:
            elapsed = time.monotonic() - start
            with self._lock:
                self._ewma_service_s = (
                    0.8 * self._ewma_service_s + 0.2 * elapsed
                )
                self._miss_ewma = (
                    0.7 * self._miss_ewma + (0.3 if missed else 0.0)
                )
                self._observe_pressure()
                self._admitted[cls] = max(0, self._admitted[cls] - 1)
                self._grant()
                if pending.coalesce_key is not None:
                    # Retire the single flight *before* waking the
                    # waiters: a duplicate arriving from here on starts a
                    # fresh compile (cheap — the artifact is cached now)
                    # instead of attaching to a completed handle.
                    self._singleflight.pop(pending.coalesce_key, None)
                if (
                    isinstance(pending.error, WorkerCrashError)
                    and pending.follower_tenants
                ):
                    # The leader died with the fleet: every follower
                    # waited for nothing it can point at.  Refund one
                    # admission token each — exactly once (the list is
                    # swapped out so a second pass finds nothing).
                    refunds, pending.follower_tenants = (
                        pending.follower_tenants, [],
                    )
                    for follower_tenant in refunds:
                        self.quotas.refund(follower_tenant)
                    self.counters["follower_refunds"] += len(refunds)
            self._journal_finish(pending)
            # A client key is retired only once its done record is
            # written: until then a retry joins this flight, from then on
            # it dedups against the journal — never a second run between.
            keys = pending.follower_keys + (
                [pending.idem_key] if pending.idem_client else []
            )
            if keys:
                with self._lock:
                    for key in keys:
                        self._idem_inflight.pop(key, None)
            pending.event.set()

    def _run(self, pending: _Pending) -> Any:
        from ..core.compiler import CompilerConfig

        request = pending.request
        deadline = pending.deadline
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError("queue wait", deadline.total_s)

        # Breaker gating.  Synthesis and simulation have no cheaper
        # substitute, so their open breakers fail the request fast; an
        # open ILP breaker degrades to the ladder's greedy tier instead.
        synth_breaker = self.breakers["synthesis"]
        if not synth_breaker.allow():
            raise CircuitOpenError("synthesis", synth_breaker.retry_after_s())
        sim_breaker = self.breakers["sim"]
        if request.kind == "simulate" and not sim_breaker.allow():
            synth_breaker.release()
            raise CircuitOpenError("sim", sim_breaker.retry_after_s())
        ilp_breaker = self.breakers["ilp"]
        ilp_allowed = ilp_breaker.allow()
        config = request.config or CompilerConfig()
        admitted_ladder_start = config.ladder_start
        if not ilp_allowed and config.ladder_start != "greedy":
            config = replace(config, ladder_start="greedy")
            with self._lock:
                self.counters["breaker_forced_greedy"] += 1
        # Brownout: under sustained service-wide pressure the fleet
        # ceiling clamps every request's ladder entry — quality degrades
        # before availability does.  Applied here, before dispatch, so
        # fleet workers inherit the clamped config over the pipe.
        ceiling = self.brownout.ceiling
        if ceiling != "full":
            clamped = self.brownout.clamp(config.ladder_start)
            if clamped != config.ladder_start:
                config = replace(config, ladder_start=clamped)
                with self._lock:
                    self.counters["brownout_degraded"] += 1
        if config is not request.config:
            # The breaker-forced greedy tier (or a defaulted config)
            # travels with the request, across the fleet pipe too.
            request = replace(request, config=config)
        job: CompileRequest | _Fingerprinted = request
        if (
            pending.fingerprint is not None
            and config.ladder_start == admitted_ladder_start
        ):
            # The admission fingerprint still names this config; a
            # changed ladder tier is a different artifact, whose key the
            # cache computes itself.
            job = _Fingerprinted(request, pending.fingerprint)

        # Either way the outcome — the value or the exception, plus the
        # floorplan-ladder evidence — feeds the same breaker logic, so a
        # sick solver in a child process still opens the parent's ILP
        # breaker.
        try:
            if self.fleet is not None:
                value, entries = self.fleet.run(job, deadline)
            else:
                value, entries = _run_in_thread(job, deadline)
        except BaseException as exc:
            self._feed_ilp_breaker(
                exc, getattr(exc, "ladder_entries", []), ilp_allowed
            )
            stage = getattr(exc, "stage", "")
            if isinstance(exc, SynthesisError) or stage == "synthesis":
                synth_breaker.record_failure()
            else:
                synth_breaker.release()
            if request.kind == "simulate":
                if isinstance(exc, SimulationError) or stage == "simulation":
                    sim_breaker.record_failure()
                else:
                    sim_breaker.release()
            raise
        self._feed_ilp_breaker(None, entries, ilp_allowed)
        synth_breaker.record_success()
        design = value[0] if request.kind == "simulate" else value
        if getattr(design, "floorplan_tier", "full") != "full":
            with self._lock:
                self.counters["degraded_tier"] += 1
        if request.kind == "simulate":
            sim_breaker.record_success()
        return value

    def _feed_ilp_breaker(
        self,
        exc: BaseException | None,
        ladder_entries: list[dict],
        ilp_allowed: bool,
    ) -> None:
        """Turn one request's ladder evidence into ILP-breaker verdicts.

        The ladder log is the primary signal: a tier that failed on
        :class:`SolverError` is a backend failure *even when the request
        itself succeeded* at a lower tier — a degraded response is good
        for the caller but still evidence the solver is sick.  Only a
        non-greedy tier success vouches for the backend.
        """
        ilp = self.breakers["ilp"]
        solver_failures = sum(
            1
            for entry in ladder_entries
            if not entry.get("ok") and entry.get("error") == "SolverError"
        )
        ilp_success = any(
            entry.get("ok") and entry.get("tier") != "greedy"
            for entry in ladder_entries
        )
        if isinstance(exc, SolverError):
            solver_failures += 1
        if (
            isinstance(exc, DeadlineExceededError)
            and getattr(exc, "stage", "") == "ilp solve"
        ):
            solver_failures += 1
        if solver_failures:
            for _ in range(solver_failures):
                ilp.record_failure()
        elif ilp_success:
            ilp.record_success()
        elif ilp_allowed:
            # No ILP evidence either way (cache hit, greedy config, or
            # an early failure): release any claimed probe slot.
            ilp.release()

    # -- observability ---------------------------------------------------------

    def health(self) -> dict:
        """The ``repro serve --status`` / ``GET /healthz`` document."""
        from ..perf.cache import cache_stats

        with self._lock:
            queued = len(self._queue)
            by_class = self._queue.depth_by_class()
            by_tenant = self._queue.depth_by_tenant()
            admitted = dict(self._admitted)
            counters = dict(self.counters)
            ewma = self._ewma_service_s
            inflight_coalesced = len(self._singleflight)
            retry_hints = {
                cls: round(self._retry_after_estimate(cls), 3)
                for cls in REQUEST_CLASSES
            }
            draining = self._draining
            tenants = self.quotas.snapshot()
            tenants_evicted = self.quotas.evicted
            brownout = self.brownout.snapshot()
        if self.journal is not None:
            journal_doc = self.journal.health()
            journal_doc["error"] = self._journal_error
        else:
            journal_doc = disabled_health(
                self.config.journal_dir, self._journal_error
            )
        document = {
            "status": "draining" if draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "mode": "fleet" if self.fleet is not None else "threads",
            "workers": self._capacity(),
            "queue": {
                "depth": queued,
                "max": self.config.max_queue,
                "by_class": by_class,
                "by_tenant": by_tenant,
            },
            "admitted": admitted,
            "class_limits": dict(self.config.class_limits),
            "retry_after_hint_s": retry_hints,
            "ewma_service_s": round(ewma, 4),
            "singleflight_inflight": inflight_coalesced,
            "counters": counters,
            "tenants": tenants,
            "tenants_evicted": tenants_evicted,
            "brownout": brownout,
            "journal": journal_doc,
            "cache": cache_stats().as_dict(),
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in self.breakers.items()
            },
        }
        if self.fleet is not None:
            document["fleet"] = self.fleet.health()
        return document

    def rolling_restart(self, drain_timeout_s: float | None = None) -> dict:
        """Zero-downtime restart of the fleet workers, one at a time.

        The front end (queue, journal, quotas, breakers) stays up
        throughout — only the worker *processes* are recycled, which is
        where deploys actually change behaviour (fresh code, fresh
        caches, unwedged native state).  In threads mode there is
        nothing to recycle; the call is a no-op that says so.
        """
        if self.fleet is None:
            return {
                "mode": "threads", "workers": 0,
                "recycled": 0, "graceful": 0, "killed": 0,
            }
        summary = self.fleet.rolling_restart(drain_timeout_s)
        summary["mode"] = "fleet"
        return summary

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: finish admitted work, reject new work.

        The SIGTERM path of ``repro serve``.  Every request admitted
        before the drain began completes (coalesced waiters included,
        failover included in fleet mode); submits from now on raise
        :class:`DrainingError` with a retry hint.  Returns True when
        everything admitted finished inside the timeout and (in fleet
        mode) every worker process was reaped.
        """
        with self._lock:
            self._draining = True
        limit = time.monotonic() + timeout_s
        clean = self._wait_idle(timeout_s)
        if self.fleet is not None:
            clean = self.fleet.drain(
                timeout_s=max(0.5, limit - time.monotonic())
            ) and clean
        self.shutdown(wait=True)
        return clean

    def _wait_idle(self, timeout_s: float) -> bool:
        """Wait until nothing is queued or running; False on timeout."""
        limit = time.monotonic() + timeout_s
        while True:
            with self._lock:
                if not self._queue and not any(self._admitted.values()):
                    return True
            if time.monotonic() >= limit:
                return False
            time.sleep(0.05)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for running requests."""
        if self.journal is not None:
            self._journal_checkpoint(force=True)
        with self._lock:
            self._shutdown = True
        if self.fleet is not None:
            self.fleet.shutdown(timeout_s=5.0 if wait else 2.0)
        if wait:
            self._wait_idle(5.0)
        if self.journal is not None:
            # Release the flock so a successor on the same directory can
            # take over; in-flight completions after this point lose
            # their terminal record and simply replay at the successor.
            self.journal.close()


# ---------------------------------------------------------------------------
# Process-wide service (front ends share one broker)
# ---------------------------------------------------------------------------

_GLOBAL_SERVICE: CompileService | None = None
_GLOBAL_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    # Fleet workers (serving and parallel sweeps alike) are forked
    # processes, and a fork can land while the parent's service holds
    # in-flight bookkeeping (or its lock) for requests whose threads the
    # child does not have.  Drop the inherited service and its lock
    # wholesale; the child builds a fresh one from the environment on
    # first use.
    global _GLOBAL_SERVICE, _GLOBAL_LOCK
    _GLOBAL_LOCK = threading.Lock()
    _GLOBAL_SERVICE = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def get_service() -> CompileService:
    """The process-wide service, created lazily from the environment."""
    global _GLOBAL_SERVICE
    with _GLOBAL_LOCK:
        if _GLOBAL_SERVICE is None:
            _GLOBAL_SERVICE = CompileService(ServiceConfig.from_env())
        return _GLOBAL_SERVICE


def configure_service(config: ServiceConfig) -> CompileService:
    """Replace the process-wide service (``repro serve`` startup, tests)."""
    global _GLOBAL_SERVICE
    with _GLOBAL_LOCK:
        if _GLOBAL_SERVICE is not None:
            _GLOBAL_SERVICE.shutdown(wait=False)
        _GLOBAL_SERVICE = CompileService(config)
        return _GLOBAL_SERVICE


def reset_service() -> None:
    """Forget the process-wide service (tests re-read the environment)."""
    global _GLOBAL_SERVICE
    with _GLOBAL_LOCK:
        if _GLOBAL_SERVICE is not None:
            _GLOBAL_SERVICE.shutdown(wait=False)
        _GLOBAL_SERVICE = None
