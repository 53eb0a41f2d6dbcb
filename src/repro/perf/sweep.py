"""Crash-safe parallel sweep executor for independent experiment runs.

Every latency table/figure sweeps independent (flow x parameter)
combinations: each run compiles and simulates its own design, nothing is
shared except the content-addressed cache.  ``run_sweep`` fans those
runs across the worker processes of a
:class:`~repro.serve.fleet.WorkerFleet` — the same supervisor that runs
``repro serve --fleet`` — and returns the results in submission order,
so a table built from a sweep is identical to the serial one: the rows
are pure functions of their inputs, only the wall clock changes.

On top of that the executor provides what a multi-hour campaign needs:

* **journaled resume** — with an active :class:`~repro.perf.journal.RunJournal`
  every completed point is fsync'd to disk before the sweep moves on,
  and already-journaled points are merged instead of recomputed;
* **one retry loop** — a failing point is retried with exponential
  backoff + jitter and quarantined after ``max_attempts`` failures: it
  lands in the outcome's ``failed`` list (its result is ``None``)
  instead of aborting the sweep.  The serial path and each of the
  parallel path's driver threads (one per worker) run the same loop;
* **worker supervision** — a point that dies with its worker
  (``os._exit``, OOM-kill, segfault) or runs past its wall-clock
  timeout is charged one attempt, and the fleet kills and replaces that
  one worker; the other points run on undisturbed;
* **clean interruption** — SIGINT/SIGTERM mid-sweep shuts the fleet
  down (killing the workers of in-flight points), leaves the journal
  flushed, and raises :class:`~repro.errors.SweepInterrupted` carrying
  the partial results so callers can emit a ``"partial": true`` record
  and exit 130.

The job count resolves, in priority order: the explicit ``jobs``
argument, the ``REPRO_BENCH_JOBS`` environment variable, then 1
(serial).  ``--jobs 1`` is a genuine serial fallback: no worker
processes, no pickling, no fork — and therefore no timeout enforcement
or crash survival (a crashing point takes the process with it);
retries, quarantine, and journaling still apply.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import SweepInterrupted, TapaCSError
from .journal import RunJournal, current_journal, spec_key
from .supervise import BackoffPolicy


@dataclass(slots=True)
class SweepSpec:
    """One independent run of a sweep: a top-level callable plus inputs.

    ``fn`` must be picklable by reference (a module-level function) so
    the sweep can ship it to fleet workers; its return value crosses
    back the same way.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: Optional caller label; used in journal records and failure
    #: reports (falls back to ``module.qualname(args)``).
    key: Any = None

    def label(self) -> str:
        if self.key is not None:
            return str(self.key)
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in sorted(self.kwargs.items())]
        return f"{name}({', '.join(parts)})"

    def content_key(self) -> str:
        return spec_key(self.fn, self.args, self.kwargs)


@dataclass(slots=True)
class SweepFailure:
    """One quarantined sweep point: what failed, how, how many times."""

    index: int
    key: str
    label: str
    error: str
    attempts: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(slots=True)
class SweepOutcome:
    """Everything a supervised sweep produced, success or not.

    ``results`` is in submission order; quarantined points hold ``None``
    and appear in ``failed``.  The counters tell the story a long
    campaign's operator wants: how much was resumed from the journal,
    how many retries the run survived, and how many worker processes
    were replaced (``pool_respawns``) after a crash or a timeout.
    """

    results: list[Any] = field(default_factory=list)
    failed: list[SweepFailure] = field(default_factory=list)
    completed: int = 0
    resumed: int = 0
    retried: int = 0
    pool_respawns: int = 0
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed and not self.partial


def env_int(name: str, default: int) -> int:
    """An integer environment variable; unset or empty means ``default``.

    The one integer parser for the ``REPRO_*`` variables (this module's
    ``REPRO_BENCH_JOBS`` and the service's sizes).  A value that is not
    an integer raises :class:`~repro.errors.TapaCSError` naming the
    variable and the value, rather than running with the default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise TapaCSError(f"{name}={raw!r} is not an integer") from None


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: argument > REPRO_BENCH_JOBS > 1."""
    return max(1, env_int("REPRO_BENCH_JOBS", 1) if jobs is None else jobs)


def _run_spec(
    spec: SweepSpec, remaining_s: float | None = None
) -> tuple[str | None, Any]:
    """Run one point: ``(None, result)``, or ``(error, None)`` if it raised.

    The fleet job of the parallel path (a point gets no deadline, so
    ``remaining_s`` is unused) and the attempt of the serial path.  The
    error text is made where the exception is, so a failure reads the
    same on both paths.
    """
    try:
        return None, spec.fn(*spec.args, **spec.kwargs)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}", None


#: Quarantined points from every sweep since the last drain — the CLI
#: and bench harness read this to report failures across an experiment
#: that runs several sweeps.
_FAILURE_LOG: list[SweepFailure] = []


def take_failure_report() -> list[SweepFailure]:
    """Drain the accumulated quarantined-point reports."""
    global _FAILURE_LOG
    drained, _FAILURE_LOG = _FAILURE_LOG, []
    return drained


class _Driver:
    """The retry/backoff/quarantine loop every sweep point runs.

    Shared by the serial path and the parallel path's driver threads,
    so it records into the outcome and the journal under a lock.
    """

    def __init__(
        self,
        outcome: SweepOutcome,
        journal: RunJournal | None,
        max_attempts: int,
        backoff: BackoffPolicy,
    ):
        self.outcome = outcome
        self.journal = journal
        self.max_attempts = max_attempts
        self.backoff = backoff
        #: Set to stop the sweep; it also cuts short a backoff wait.
        self.stopped = threading.Event()
        self._lock = threading.Lock()

    def run_point(
        self,
        attempt: Callable[[SweepSpec], tuple[str | None, Any]],
        index: int,
        spec: SweepSpec,
        key: str,
    ) -> None:
        """Attempt one point until it succeeds or is quarantined.

        ``attempt`` returns ``(error, result)`` the way :func:`_run_spec`
        does.
        """
        attempts = 0
        while not self.stopped.is_set():
            attempts += 1
            start = time.monotonic()
            error, result = attempt(spec)
            if error is None:
                with self._lock:
                    self.outcome.results[index] = result
                    self.outcome.completed += 1
                if self.journal is not None:
                    self.journal.record_point(
                        key, result, label=spec.label(),
                        elapsed_s=time.monotonic() - start,
                    )
                return
            if attempts >= self.max_attempts:
                failure = SweepFailure(
                    index=index, key=key, label=spec.label(),
                    error=error, attempts=attempts,
                )
                with self._lock:
                    self.outcome.failed.append(failure)
                    _FAILURE_LOG.append(failure)
                if self.journal is not None:
                    self.journal.record_failure(key, error, label=failure.label)
                return
            with self._lock:
                self.outcome.retried += 1
            self.stopped.wait(self.backoff.delay(attempts))


# ---------------------------------------------------------------------------
# run_sweep: the public entry point
# ---------------------------------------------------------------------------


def run_sweep_outcome(
    specs: Sequence[SweepSpec],
    jobs: int | None = None,
    *,
    journal: RunJournal | None = None,
    timeout_s: float | None = None,
    retries: int = 2,
    backoff_base_s: float = 0.1,
) -> SweepOutcome:
    """Run every spec under supervision and return the full outcome.

    Args:
        journal: run journal to resume from / record into; defaults to
            the process-wide active journal (set by ``repro bench``).
        timeout_s: per-job wall-clock budget (None, the default, means
            no timeout); enforced only on the parallel path.
        retries: re-runs allowed per point after its first failure
            (default 2, i.e. 3 attempts).
        backoff_base_s: first-retry backoff (default 0.1s), doubling
            per attempt with +-25% jitter.

    SIGINT/SIGTERM during the sweep raise
    :class:`~repro.errors.SweepInterrupted` after the workers are torn
    down; every already-completed point is journaled, so ``--resume``
    picks up exactly where the signal landed.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    journal = journal if journal is not None else current_journal()
    max_attempts = 1 + retries

    outcome = SweepOutcome(results=[None] * len(specs))
    keys = [spec.content_key() for spec in specs]

    # Merge journaled points first: identical content keys identify
    # work already fsync'd to disk by an earlier (possibly killed) run.
    completed = journal.completed() if journal is not None else {}
    todo: list[tuple[int, SweepSpec, str]] = []
    for i, spec in enumerate(specs):
        if keys[i] in completed:
            outcome.results[i] = completed[keys[i]]
            outcome.resumed += 1
            outcome.completed += 1
        else:
            todo.append((i, spec, keys[i]))

    if not todo:
        return outcome

    driver = _Driver(
        outcome, journal, max_attempts,
        BackoffPolicy(base_s=max(0.0, backoff_base_s)),
    )
    with _deliver_sigterm_as_interrupt():
        try:
            if jobs <= 1 or len(todo) <= 1:
                for item in todo:
                    driver.run_point(_run_spec, *item)
            else:
                _run_on_fleet(driver, todo, min(jobs, len(todo)), timeout_s)
        except KeyboardInterrupt:
            outcome.partial = True
            raise SweepInterrupted(
                f"sweep interrupted with {outcome.completed}/{len(specs)} "
                "points complete",
                completed=outcome.completed,
                total=len(specs),
                results=outcome.results,
                journal_path=journal.path if journal is not None else None,
            ) from None
    return outcome


def _run_on_fleet(
    driver: _Driver,
    todo: list[tuple[int, SweepSpec, str]],
    workers: int,
    timeout_s: float | None,
) -> None:
    """Run the points on a fleet of ``workers`` processes.

    One driver thread per worker takes the next point and runs the
    retry loop on it, each attempt a fleet job.  The fleet is imported
    here, not at module load: ``repro.serve.fleet`` imports
    ``repro.perf.supervise``, and loading ``repro.perf`` must not load
    ``repro.serve``.
    """
    from ..errors import (
        DeadlineExceededError,
        DrainingError,
        TapaCSError,
        WorkerCrashError,
    )
    from ..serve.fleet import FleetConfig, WorkerFleet
    from .cache import get_cache

    fleet = WorkerFleet(FleetConfig(
        workers=workers,
        # A crash costs the point one attempt and the slot a fresh
        # worker, nothing more: the retry loop paces and quarantines
        # points, so the fleet neither fails over nor backs off.
        max_failovers=0,
        respawn_backoff=BackoffPolicy(base_s=0.0),
        quarantine_cooldown_s=0.0,
        # Workers keep this process's memory-tier bound (0: unbounded).
        worker_cache_entries=get_cache().memory_limit,
    ))

    def attempt(spec: SweepSpec) -> tuple[str | None, Any]:
        try:
            return fleet.run(spec, None, _run_spec, timeout_s)[0]
        except DrainingError:
            raise  # the sweep is being torn down
        except WorkerCrashError:
            return "worker process died", None
        except DeadlineExceededError:
            return f"timed out after {timeout_s:g}s", None
        except TapaCSError as exc:  # a point or result that will not pickle
            return f"{type(exc).__name__}: {exc}", None

    pending = deque(todo)
    errors: list[BaseException] = []

    def drive() -> None:
        try:
            while not driver.stopped.is_set():
                try:
                    item = pending.popleft()
                except IndexError:
                    return
                driver.run_point(attempt, *item)
        except DrainingError:
            pass  # the fleet shut down under an interrupted sweep
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            driver.stopped.set()

    threads = [
        threading.Thread(target=drive, name=f"repro-sweep-{i}", daemon=True)
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        # On an interrupt this fails the in-flight points and kills
        # their workers; their driver threads then exit.
        driver.stopped.set()
        fleet.shutdown()
        for thread in threads:
            thread.join()
        driver.outcome.pool_respawns += (
            fleet.counters["respawns"] + fleet.counters["abandoned_kills"]
        )
    if errors:
        raise errors[0]


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


class _deliver_sigterm_as_interrupt:
    """Route SIGTERM through KeyboardInterrupt for the sweep's duration.

    A scheduler preempting the run sends SIGTERM; mapping it onto the
    same path as Ctrl-C means one flush-and-report shutdown flow for
    both.  No-op off the main thread (signal handlers cannot be
    installed there) and when a previous handler was already custom.
    """

    def __enter__(self):
        self._installed = False
        if threading.current_thread() is not threading.main_thread():
            return self
        try:
            self._previous = signal.getsignal(signal.SIGTERM)
            if self._previous in (signal.SIG_DFL, None):
                signal.signal(signal.SIGTERM, _raise_interrupt)
                self._installed = True
        except (ValueError, OSError):
            pass
        return self

    def __exit__(self, *exc_info):
        if self._installed:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):
                pass


def run_sweep(
    specs: Sequence[SweepSpec],
    jobs: int | None = None,
    *,
    journal: RunJournal | None = None,
    timeout_s: float | None = None,
    retries: int = 2,
) -> list[Any]:
    """Run every spec and return their results in submission order.

    Quarantined points (those that failed every retry) return ``None``
    in their slot; the detailed report is available through
    :func:`run_sweep_outcome` or :func:`take_failure_report`.
    """
    return run_sweep_outcome(
        specs, jobs, journal=journal, timeout_s=timeout_s, retries=retries
    ).results
