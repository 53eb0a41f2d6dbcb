"""Process-isolated workers: supervision, failover, hedging.

The in-process broker (:mod:`repro.serve.broker`) runs each request on
the thread that asked for it; one segfaulting native solver, one OOM
kill, or one wedged extension call takes the whole service down with
it.  This module provides the fleet tier: N forked **worker
processes**, each a fully isolated compile engine, supervised by a
monitor thread in the parent process.  It is the codebase's one
process supervisor: the broker sends compile requests to it, and
``run_sweep`` (:mod:`repro.perf.sweep`) runs its parallel sweep points
on it.

A job goes to an idle worker the moment it arrives, on the caller's
thread (for the broker, the thread that asked for the request); with
every worker busy it queues, and the monitor hands it to the first
worker whose answer it reads.  The monitor's periodic tick
(``_POLL_S``) is for supervision only.

Supervision contract:

* **liveness** — every worker heartbeats over its pipe from a side
  thread; a worker whose heartbeat goes stale past
  ``liveness_timeout_s`` is presumed wedged (stuck in native code, GIL
  held, swapping) and is SIGKILLed.  Crashes (preemption, OOM, chaos
  ``kill -9``) are caught the same tick via ``Process.is_alive()``.
* **respawn with backoff** — each worker *slot* has a
  :class:`~repro.perf.supervise.RespawnGovernor`: respawns ride a
  capped exponential backoff and a slot that crash-loops is quarantined
  for a cooldown instead of burning CPU on doomed forks.
* **abandoned jobs** — when the waiter of a job gives up (its deadline
  plus detection slack, or the caller's own ``timeout_s``), every worker
  still running that job is SIGKILLed and replaced at once.  Like a
  rolling-restart recycle, that replacement bypasses the governor: the
  worker did not crash.  The slot is free again for the next job.
* **failover** — a job that was in flight on a crashed worker is
  re-dispatched to a healthy one.  This is safe because compiles are
  idempotent under their content fingerprint: re-running produces a
  byte-identical artifact (and usually a cache hit, since the shared
  disk tier may already hold a neighbour's result).  After
  ``max_failovers`` re-dispatches the request fails with the typed,
  retryable :class:`~repro.errors.WorkerCrashError` — the request is
  probably what is *killing* the workers.
* **hedged retries** — with ``hedge_after_s`` set, a job that has been
  running that long on one worker while another sits idle is dispatched
  a second time; the first result wins and the loser is discarded.
  Idempotence again makes this free of semantic risk; deadlines are
  respected (a job with no budget left is never hedged).
* **graceful drain** — :meth:`WorkerFleet.drain` stops dispatch of new
  work, lets every admitted job finish (failover included), then stops
  the workers; nothing admitted is ever lost and no child outlives the
  parent (workers are daemonic and double-checked with terminate/kill).
* **rolling restart** — :meth:`WorkerFleet.rolling_restart` retires and
  respawns workers *one slot at a time* behind the live front end: a
  retiring worker takes no new work, finishes its current job, and is
  replaced by a fresh generation before the next slot starts.  A worker
  that cannot drain within the timeout is killed, and its in-flight job
  fails over through the existing requeue path — so a deploy is
  invisible to clients beyond momentarily reduced parallelism.

Each job crosses the pipe as a module-level function plus its payload,
``fn(payload, remaining_s)``: the broker's requests go to
:func:`_run_one_request`, sweep points to their own function.  The
worker loop does the generic part once for every job: it drains the
floorplan-ladder log the circuit breakers feed on and takes the
cache-stats delta, and both travel back with the result or the error.
A package error crosses as itself, type and attributes intact
(:class:`~repro.errors.TapaCSError` pickles without calling its
constructor), and is re-raised in the submitting thread; any other
exception, or one that will not pickle, arrives as a
:class:`~repro.errors.TapaCSError` naming its type and message.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable

from ..deadline import Deadline, deadline_from_wire, deadline_to_wire
from ..errors import (
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
    TapaCSError,
    WorkerCrashError,
)
from ..perf.supervise import BackoffPolicy, RespawnGovernor


def _env_float(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


@dataclass(slots=True)
class FleetConfig:
    """Tuning knobs for one worker fleet."""

    #: Worker processes to keep alive.
    workers: int = 2
    #: Worker heartbeat period.
    heartbeat_s: float = 0.25
    #: Heartbeat staleness past which a worker is presumed wedged.
    liveness_timeout_s: float = 5.0
    #: Re-dispatches allowed per job after worker crashes.
    max_failovers: int = 2
    #: Hedge a job still running after this long (None disables).
    hedge_after_s: float | None = None
    #: Respawn backoff + crash-loop quarantine (shared primitives).
    respawn_backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    quarantine_threshold: int = 3
    quarantine_cooldown_s: float = 5.0
    #: Per-worker in-memory LRU bound; the disk tier is the shared store.
    worker_cache_entries: int = 128
    #: How long :meth:`WorkerFleet.drain` waits for in-flight work.
    drain_timeout_s: float = 30.0

    @classmethod
    def from_env(cls) -> "FleetConfig":
        base = cls()
        return cls(
            workers=_env_int("REPRO_SERVE_FLEET", base.workers),
            heartbeat_s=_env_float("REPRO_FLEET_HEARTBEAT_S", base.heartbeat_s),
            liveness_timeout_s=_env_float(
                "REPRO_FLEET_LIVENESS_S", base.liveness_timeout_s
            ),
            max_failovers=_env_int(
                "REPRO_FLEET_MAX_FAILOVERS", base.max_failovers
            ),
            hedge_after_s=_env_float("REPRO_FLEET_HEDGE_S", None),
            quarantine_threshold=_env_int(
                "REPRO_FLEET_QUARANTINE_THRESHOLD", base.quarantine_threshold
            ),
            quarantine_cooldown_s=_env_float(
                "REPRO_FLEET_QUARANTINE_COOLDOWN_S", base.quarantine_cooldown_s
            ),
            worker_cache_entries=_env_int(
                "REPRO_FLEET_CACHE_ENTRIES", base.worker_cache_entries
            ),
            drain_timeout_s=_env_float(
                "REPRO_FLEET_DRAIN_TIMEOUT_S", base.drain_timeout_s
            ),
        )


# ---------------------------------------------------------------------------
# Worker process body
# ---------------------------------------------------------------------------


def _run_one_request(request: Any, remaining_s: float | None) -> Any:
    """The broker's fleet job: one compile request in this worker.

    The request runs under the deadline that crossed the pipe, through
    the same body as an in-process request
    (:func:`~repro.serve.broker.run_request`).
    The broker sends it together with the fingerprint it computed at
    admission; a bare request works too, and computes its own.
    """
    from .broker import run_request

    deadline = deadline_from_wire(remaining_s)
    if deadline is not None and deadline.expired:
        raise DeadlineExceededError("fleet dispatch", deadline.total_s)
    return run_request(request, deadline)


def _wrapped(exc: BaseException) -> TapaCSError:
    """A worker error that cannot cross the pipe as itself: callers
    catch :class:`TapaCSError`, and the parent may not rebuild a type
    from outside the package."""
    return TapaCSError(f"fleet worker failed with {type(exc).__name__}: {exc}")


def _worker_main(conn, heartbeat_s: float, cache_entries: int) -> None:
    """The body of one fleet worker process."""
    # The at-fork hooks already gave this child a fresh service/cache;
    # bound the memory tier so N workers hold N small LRUs over the one
    # shared disk store.
    from ..core.ladder import drain_ladder_log
    from ..perf.cache import cache_stats, configure_cache

    configure_cache(memory_limit=cache_entries)
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    state: dict = {"job": None}
    send_lock = threading.Lock()
    parent_pid = os.getppid()

    def send(message) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (OSError, ValueError, BrokenPipeError):
                os._exit(0)  # parent is gone; nothing to serve

    def beat() -> None:
        while True:
            time.sleep(heartbeat_s)
            if os.getppid() != parent_pid:
                os._exit(0)  # orphaned: the parent process died
            send(("hb", os.getpid(), state["job"]))

    threading.Thread(target=beat, name="fleet-heartbeat", daemon=True).start()
    send(("ready", os.getpid()))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not message or message[0] == "stop":
            break
        _, job_id, fn, payload, remaining_s = message
        state["job"] = job_id
        # The ladder entries and stats delta are captured on *both*
        # paths: a failed job still carries the solver evidence the
        # parent's breakers eat.
        drain_ladder_log()
        before = cache_stats().as_dict()
        try:
            reply: tuple = ("ok", job_id, fn(payload, remaining_s))
        except TapaCSError as exc:
            reply = ("err", job_id, exc)
        except BaseException as exc:  # noqa: BLE001 - relayed over the pipe
            reply = ("err", job_id, _wrapped(exc))
        entries = drain_ladder_log()
        after = cache_stats().as_dict()
        delta = {key: after[key] - before[key] for key in after}
        state["job"] = None
        try:
            send(reply + (entries, delta))
        except Exception:
            # The result or error would not pickle; the job is not lost —
            # it becomes a typed failure, not a hang.
            error = _wrapped(reply[2]) if reply[0] == "err" else TapaCSError(
                "job result is not picklable across the fleet pipe"
            )
            send(("err", job_id, error, entries, delta))
    conn.close()


# ---------------------------------------------------------------------------
# Parent-side bookkeeping
# ---------------------------------------------------------------------------


class _FleetJob:
    """One job in flight through the fleet."""

    __slots__ = (
        "id", "fn", "request", "deadline", "event", "value", "error",
        "ladder_entries", "failovers", "assignments", "first_slot",
        "hedges", "done", "queued_at",
    )

    def __init__(
        self, job_id: int, fn: Any, request: Any, deadline: Deadline | None
    ):
        self.id = job_id
        self.fn = fn
        self.request = request
        self.deadline = deadline
        self.event = threading.Event()
        self.value: Any = None
        self.error: TapaCSError | None = None
        self.ladder_entries: list[dict] = []
        self.failovers = 0
        #: Slots currently running a copy of this job (>1 while hedged).
        self.assignments: set[int] = set()
        self.first_slot: int | None = None
        self.hedges = 0
        self.done = False
        self.queued_at = time.monotonic()


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = (
        "slot", "generation", "process", "conn", "pid", "state", "job",
        "last_hb", "job_started_at", "jobs_done", "retiring",
    )

    def __init__(self, slot: int, generation: int, process, conn):
        self.slot = slot
        self.generation = generation
        self.process = process
        self.conn = conn
        self.pid = process.pid
        self.state = "idle"  # idle | busy | dead
        self.job: _FleetJob | None = None
        self.last_hb = time.monotonic()
        self.job_started_at = 0.0
        self.jobs_done = 0
        #: A retiring worker (rolling restart) takes no new work and is
        #: recycled — stopped and respawned at generation+1 — once idle.
        self.retiring = False


class WorkerFleet:
    """N supervised worker processes behind one dispatch queue."""

    #: Monitor poll period: the granularity of crash/liveness detection,
    #: respawns, rolling-restart recycles and hedging decisions.  Jobs do
    #: not wait for it: :meth:`run` dispatches to an idle worker on
    #: arrival, and the monitor hands a queued job to the worker that
    #: just answered as soon as its result is read.
    _POLL_S = 0.05

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._lock = threading.Lock()
        self._queue: deque[_FleetJob] = deque()
        self._jobs: dict[int, _FleetJob] = {}
        self._job_ids = itertools.count(1)
        self._workers: list[_WorkerHandle] = []
        self._governors = [
            RespawnGovernor(
                backoff=self.config.respawn_backoff,
                quarantine_threshold=self.config.quarantine_threshold,
                quarantine_cooldown_s=self.config.quarantine_cooldown_s,
            )
            for _ in range(max(1, self.config.workers))
        ]
        self._draining = False
        self._stopped = False
        #: Serializes rolling restarts (non-blocking: a second concurrent
        #: request is rejected, not queued behind the first).
        self._restart_lock = threading.Lock()
        self.counters = {
            "dispatched": 0,
            "completed": 0,
            "failed": 0,
            "failovers": 0,
            "failover_exhausted": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "respawns": 0,
            "recycled": 0,
            "abandoned_kills": 0,
            "rolling_restarts": 0,
            "worker_crashes": 0,
            "wedge_kills": 0,
        }
        for slot in range(max(1, self.config.workers)):
            self._workers.append(self._spawn(slot, generation=0))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, slot: int, generation: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, self.config.heartbeat_s,
                self.config.worker_cache_entries,
            ),
            name=f"repro-fleet-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(slot, generation, process, parent_conn)

    def _on_worker_down(self, handle: _WorkerHandle, reason: str) -> None:
        """A worker crashed or was killed: reassign its work, schedule respawn.

        Called with the lock held.
        """
        if handle.state == "dead":
            return
        job, handle.job = handle.job, None
        handle.state = "dead"
        self.counters["worker_crashes"] += 1
        self._governors[handle.slot].crashed()
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=0.2)  # reap; it is already gone
        if job is None or job.done:
            return
        job.assignments.discard(handle.slot)
        if job.assignments:
            return  # a hedge copy is still running elsewhere
        job.failovers += 1
        if job.failovers > self.config.max_failovers:
            self.counters["failover_exhausted"] += 1
            self._finish(
                job,
                error=WorkerCrashError(
                    f"request crashed {job.failovers} worker(s) in a row "
                    f"(last: {reason}); giving up after "
                    f"{self.config.max_failovers} failover(s)",
                    retry_after_s=self.config.respawn_backoff.cap_s,
                    failovers=job.failovers,
                ),
            )
        else:
            self.counters["failovers"] += 1
            self._queue.appendleft(job)  # admitted work goes first

    def _finish(
        self,
        job: _FleetJob,
        value: Any = None,
        error: TapaCSError | None = None,
        entries: list[dict] | None = None,
    ) -> None:
        # Called with the lock held.
        if job.done:
            return
        job.value = value
        job.error = error
        job.ladder_entries = entries or []
        job.done = True
        self._jobs.pop(job.id, None)
        self.counters["failed" if error is not None else "completed"] += 1
        job.event.set()

    # -- monitor loop --------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopped:
            with self._lock:
                self._reap_and_watchdog()
                self._respawn_dead_slots()
                self._recycle_retiring()
                self._dispatch_queued()
                self._hedge_stragglers()
                conns = {
                    handle.conn: handle
                    for handle in self._workers
                    if handle.state != "dead"
                }
            if not conns:
                time.sleep(self._POLL_S)
                continue
            try:
                readable = _connection_wait(list(conns), timeout=self._POLL_S)
            except OSError:
                readable = []
            if not readable:
                continue
            with self._lock:
                for conn in readable:
                    handle = conns[conn]
                    if handle.state == "dead":
                        continue
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        self._on_worker_down(handle, "pipe closed")
                        continue
                    self._handle_message(handle, message)

    def _reap_and_watchdog(self) -> None:
        now = time.monotonic()
        for handle in self._workers:
            if handle.state == "dead":
                continue
            if not handle.process.is_alive():
                self._on_worker_down(handle, "worker process died")
                continue
            if now - handle.last_hb > self.config.liveness_timeout_s:
                # Wedged: alive but silent.  SIGKILL — a stuck native
                # call will not honour anything gentler.
                self.counters["wedge_kills"] += 1
                try:
                    handle.process.kill()
                except OSError:
                    pass
                handle.process.join(timeout=1.0)
                self._on_worker_down(
                    handle,
                    f"no heartbeat for {self.config.liveness_timeout_s:g}s "
                    "(wedged)",
                )

    def _respawn_dead_slots(self) -> None:
        if self._stopped:
            return
        if self._draining and not self._jobs:
            return  # drained: nothing left that needs a worker
        for index, handle in enumerate(self._workers):
            if handle.state != "dead":
                continue
            governor = self._governors[handle.slot]
            if not governor.may_respawn():
                continue
            self.counters["respawns"] += 1
            self._workers[index] = self._spawn(
                handle.slot, handle.generation + 1
            )

    def _idle_worker(self, exclude: set[int]) -> _WorkerHandle | None:
        fallback = None
        for handle in self._workers:
            if handle.state != "idle" or handle.retiring:
                continue
            if handle.slot in exclude:
                fallback = fallback or handle
                continue
            return handle
        return fallback

    def _replace(self, handle: _WorkerHandle, graceful: bool) -> None:
        """Stop one worker and spawn its slot's next generation.

        Called with the lock held.  A planned replacement — a rolling
        restart's recycle, or the kill of a worker whose job nobody waits
        for any more — bypasses the respawn governor entirely: it is not
        a crash, must not accrue backoff, and must not push a slot toward
        quarantine.
        """
        handle.state = "dead"
        handle.job = None
        try:
            if graceful:
                handle.conn.send(("stop",))
            else:
                handle.process.kill()
        except (OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        self._workers[handle.slot] = self._spawn(
            handle.slot, handle.generation + 1
        )

    def _recycle_retiring(self) -> None:
        """Replace idle retiring workers with a fresh generation.

        Called with the lock held.
        """
        if self._stopped:
            return
        for handle in list(self._workers):
            if handle.retiring and handle.state == "idle":
                self.counters["recycled"] += 1
                self._replace(handle, graceful=True)

    def _dispatch_queued(self) -> None:
        while self._queue:
            job = self._queue[0]
            if job.done:  # abandoned (waiter timed out)
                self._queue.popleft()
                continue
            handle = self._idle_worker(exclude=job.assignments)
            if handle is None:
                return
            self._queue.popleft()
            self._dispatch(job, handle)

    def _dispatch(self, job: _FleetJob, handle: _WorkerHandle) -> bool:
        try:
            handle.conn.send((
                "job", job.id, job.fn, job.request,
                deadline_to_wire(job.deadline),
            ))
        except OSError:
            # Broken pipe: the worker died between ticks.  Put the job
            # back first so crash handling can't exhaust its failovers
            # for a crash it did not cause.
            self._queue.appendleft(job)
            self._on_worker_down(handle, "pipe broke on dispatch")
            return False
        except Exception as exc:
            # The request (or its job function) would not pickle — a
            # caller bug, not a worker failure.
            self._finish(
                job,
                error=TapaCSError(
                    f"request is not picklable across the fleet pipe: {exc}"
                ),
            )
            return False
        handle.job = job
        handle.state = "busy"
        handle.job_started_at = time.monotonic()
        job.assignments.add(handle.slot)
        if job.first_slot is None:
            job.first_slot = handle.slot
        self.counters["dispatched"] += 1
        return True

    def _hedge_stragglers(self) -> None:
        hedge_after = self.config.hedge_after_s
        if not hedge_after:
            return
        now = time.monotonic()
        for handle in self._workers:
            job = handle.job
            if handle.state != "busy" or job is None or job.done:
                continue
            if job.hedges > 0 or len(job.assignments) != 1:
                continue
            if now - handle.job_started_at < hedge_after:
                continue
            if job.deadline is not None and job.deadline.remaining() <= 0:
                continue  # no budget left to win back
            spare = self._idle_worker(exclude=job.assignments)
            if spare is None or spare.slot in job.assignments:
                continue
            job.hedges += 1
            self.counters["hedges"] += 1
            self._dispatch(job, spare)

    def _handle_message(self, handle: _WorkerHandle, message: tuple) -> None:
        # Called with the lock held.
        kind = message[0]
        if kind in ("hb", "ready"):
            handle.last_hb = time.monotonic()
            return
        if kind not in ("ok", "err"):
            return
        _, job_id, payload, entries, stats_delta = message
        handle.last_hb = time.monotonic()
        handle.jobs_done += 1
        handle.state = "idle"
        finished_job, handle.job = handle.job, None
        self._governors[handle.slot].succeeded()
        from ..perf.cache import merge_stats

        merge_stats(stats_delta)
        job = self._jobs.get(job_id)
        if job is None or job.done:
            return  # hedge loser or abandoned job: result discarded
        job.assignments.discard(handle.slot)
        if job.hedges and handle.slot != job.first_slot:
            self.counters["hedge_wins"] += 1
        if kind == "ok":
            self._finish(job, value=payload, entries=entries)
        else:
            self._finish(job, error=payload, entries=entries)

    # -- the caller-facing protocol ------------------------------------------

    def run(
        self,
        request: Any,
        deadline: Deadline | None,
        fn: Callable[[Any, float | None], Any] | None = None,
        timeout_s: float | None = None,
    ) -> tuple[Any, list[dict]]:
        """Execute one job on the fleet; blocks until the outcome.

        A worker calls ``fn(request, remaining_s)``, where ``fn`` is a
        module-level function (it crosses the pipe by reference) and
        defaults to :func:`_run_one_request`, the broker's compile job.
        ``timeout_s`` bounds the wait; by default it is the deadline's
        remaining time plus detection slack (no deadline: no bound).  A
        job still unanswered then fails with
        :class:`DeadlineExceededError` and the workers running it are
        killed and replaced.

        Returns ``(value, ladder_entries)``.  On failure it re-raises a
        package error as itself and any other exception as a wrapping
        :class:`TapaCSError`, with the ladder evidence attached as
        ``exc.ladder_entries`` so the broker's breakers see it.
        """
        # Looked up per call, never bound at import: pickle sends a
        # function by its module attribute, so it must be that object.
        fn = fn or _run_one_request
        with self._lock:
            if self._stopped or self._draining:
                raise DrainingError(
                    "fleet is draining; retry against a fresh instance",
                    retry_after_s=self.config.drain_timeout_s,
                )
            job = _FleetJob(next(self._job_ids), fn, request, deadline)
            self._jobs[job.id] = job
            self._queue.append(job)
            # Dispatch on arrival: an idle worker takes the job now
            # instead of on the monitor's next tick.
            self._dispatch_queued()
        # The worker enforces the deadline *inside* the compile; this
        # outer wait only catches a fleet that cannot answer at all
        # (every worker crash-looping), with slack for detection.
        if timeout_s is None and deadline is not None:
            timeout_s = max(deadline.remaining(), 0.0) + max(
                2.0, 2 * self.config.liveness_timeout_s
            )
        if not job.event.wait(timeout_s):
            with self._lock:
                if not job.done:
                    self._finish(
                        job,
                        error=DeadlineExceededError(
                            "fleet wait", getattr(deadline, "total_s", None)
                        ),
                    )
                    for handle in list(self._workers):
                        if handle.job is job:
                            self.counters["abandoned_kills"] += 1
                            self._replace(handle, graceful=False)
        if job.error is not None:
            job.error.ladder_entries = job.ladder_entries  # type: ignore[attr-defined]
            raise job.error
        return job.value, job.ladder_entries

    # -- rolling restart -----------------------------------------------------

    def rolling_restart(self, drain_timeout_s: float | None = None) -> dict:
        """Retire and respawn every worker, one slot at a time.

        The fleet keeps serving throughout: while one slot drains, the
        others accept dispatches, so clients see at most momentarily
        reduced parallelism — never an outage.  Per slot the sequence
        is: mark retiring (no new work) → wait for its current job to
        finish → recycle to generation+1 (no governor penalty) → next
        slot.  A slot that cannot drain within ``drain_timeout_s`` is
        SIGKILLed; its in-flight job fails over through the normal
        requeue path, and the slot respawns through its governor.

        Returns ``{"recycled", "graceful", "killed", "workers"}``.
        Raises :class:`DrainingError` when the fleet is stopping and
        :class:`OverloadedError` when a restart is already in progress.
        """
        timeout_s = (
            self.config.drain_timeout_s
            if drain_timeout_s is None
            else drain_timeout_s
        )
        if not self._restart_lock.acquire(blocking=False):
            raise OverloadedError(
                "a rolling restart is already in progress",
                retry_after_s=timeout_s,
            )
        try:
            with self._lock:
                if self._stopped or self._draining:
                    raise DrainingError(
                        "fleet is draining; no point rolling it",
                        retry_after_s=1.0,
                    )
                self.counters["rolling_restarts"] += 1
                slots = len(self._workers)
            summary = {
                "recycled": 0, "graceful": 0, "killed": 0, "workers": slots,
            }
            for index in range(slots):
                with self._lock:
                    if self._stopped:
                        break
                    handle = self._workers[index]
                    old_generation = handle.generation
                    handle.retiring = True
                graceful = self._await_slot_recycle(
                    index, old_generation, timeout_s
                )
                if graceful is None:
                    break  # the fleet stopped under us
                summary["recycled"] += 1
                summary["graceful" if graceful else "killed"] += 1
            return summary
        finally:
            self._restart_lock.release()

    def _await_slot_recycle(
        self, index: int, old_generation: int, timeout_s: float
    ) -> bool | None:
        """Block until slot ``index`` runs a newer generation.

        True: the worker drained and recycled cleanly.  False: it had to
        be killed after the drain timeout (job failed over).  None: the
        fleet stopped before the slot came back.
        """
        killed = False
        deadline = time.monotonic() + max(0.1, timeout_s)
        while True:
            with self._lock:
                if self._stopped:
                    return None
                current = self._workers[index]
                if (
                    current.generation > old_generation
                    and current.state != "dead"
                ):
                    return not killed
                if not killed and time.monotonic() >= deadline:
                    killed = True
                    if (
                        current.generation == old_generation
                        and current.state == "busy"
                    ):
                        try:
                            current.process.kill()
                        except OSError:
                            pass
                        current.process.join(timeout=1.0)
                        self._on_worker_down(
                            current,
                            "killed by rolling restart after "
                            f"{timeout_s:g}s drain timeout",
                        )
                    # The governor now owns the respawn; give it (and a
                    # possible quarantine cooldown) room to act.
                    deadline = time.monotonic() + max(
                        10.0, 2 * self.config.quarantine_cooldown_s
                    )
                elif killed and time.monotonic() >= deadline:
                    return False  # respawn is quarantined; move on
            time.sleep(self._POLL_S)

    # -- drain / shutdown ----------------------------------------------------

    def drain(self, timeout_s: float | None = None) -> bool:
        """Finish all admitted work, then stop every worker.

        Returns True when everything completed and every worker process
        was reaped; False if the timeout cut the wait short (remaining
        jobs are failed with :class:`DrainingError` by shutdown).
        """
        timeout_s = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._lock:
            self._draining = True
        limit = time.monotonic() + timeout_s
        while time.monotonic() < limit:
            with self._lock:
                if not self._jobs:
                    break
            time.sleep(self._POLL_S)
        with self._lock:
            clean = not self._jobs
        reaped = self.shutdown()
        return clean and reaped

    def shutdown(self, timeout_s: float = 5.0) -> bool:
        """Stop the monitor and every worker; fail any remaining jobs.

        Idempotent.  Returns True when every worker process is reaped.
        """
        with self._lock:
            first = not self._stopped
            self._stopped = True
            if first:
                for job in list(self._jobs.values()):
                    self._finish(
                        job,
                        error=DrainingError(
                            "service shut down before the request completed",
                            retry_after_s=1.0,
                        ),
                    )
                self._queue.clear()
            handles = list(self._workers)
        if threading.current_thread() is not self._monitor:
            self._monitor.join(timeout=2.0)
        for handle in handles:
            try:
                if handle.state == "busy":
                    # Its job was failed above and nobody waits for it:
                    # do not wait for the job either.
                    handle.process.kill()
                else:
                    handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout_s
        reaped = True
        for handle in handles:
            handle.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            reaped = reaped and not handle.process.is_alive()
            try:
                handle.conn.close()
            except OSError:
                pass
        return reaped

    # -- observability -------------------------------------------------------

    def health(self) -> dict:
        """Per-worker liveness for the service health document."""
        now = time.monotonic()
        with self._lock:
            processes = []
            for handle in self._workers:
                governor = self._governors[handle.slot]
                entry = {
                    "slot": handle.slot,
                    "pid": handle.pid,
                    "generation": handle.generation,
                    "state": handle.state,
                    "alive": handle.process.is_alive(),
                    "heartbeat_age_s": round(now - handle.last_hb, 3),
                    "jobs_done": handle.jobs_done,
                    "retiring": handle.retiring,
                    "crashes": governor.total_crashes,
                    "quarantined": governor.quarantined,
                }
                if handle.state == "busy":
                    entry["current_job_s"] = round(
                        now - handle.job_started_at, 3
                    )
                processes.append(entry)
            return {
                "processes": processes,
                "queue_depth": len(self._queue),
                "inflight": len(self._jobs),
                "draining": self._draining,
                "counters": dict(self.counters),
            }
