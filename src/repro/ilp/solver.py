"""Backend dispatch for ILP solving.

``solve(model)`` picks the scipy/HiGHS backend by default (the fast exact
solver, standing in for Gurobi); ``backend="branch-bound"`` selects the
pure-Python solver (standing in for python-MIP), which is useful for
cross-checking optima and for environments without scipy's HiGHS build.

When the primary backend *fails* — a raised :class:`SolverError` or an
ERROR-status solution, e.g. a time budget expiring before any incumbent —
dispatch automatically retries with the branch-and-bound backend rather
than giving up (``fallback=False`` opts out).  A genuine INFEASIBLE answer
is not a failure and never triggers the fallback.

Time budgets compose with request deadlines: a ``time_limit`` of ``None``
or ``0`` uniformly means *no per-solve budget*, and when an ambient
:class:`~repro.deadline.Deadline` is installed the effective budget is
clamped to the remaining request time (an already-expired deadline raises
:class:`~repro.errors.DeadlineExceededError` before any backend runs).

Every completed solve is appended to a per-thread log so orchestration
layers (the compiler's stage accounting) can report which backend actually
produced each plan without threading extra return values through every
floorplanning helper; see :func:`drain_solve_log`.  The log is
thread-local because the compile service runs concurrent compiles on
the threads that asked for them, each of which drains its own solves.

For chaos testing, ``REPRO_CHAOS_WEDGE_ILP_S=<seconds>`` makes every
``solve()`` call hold the caller for that long and then fail with
:class:`SolverError`, simulating a wedged solver backend;
``REPRO_CHAOS_WEDGE_ILP_COUNT=<n>`` limits the wedge to the first *n*
solves of the process so breaker-recovery (open -> half-open -> closed)
can be observed end to end.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from ..deadline import current_deadline
from ..errors import SolverError
from .branch_bound import solve_with_branch_and_bound
from .model import Model
from .scipy_backend import solve_with_scipy
from .solution import Solution, SolveStatus

BACKENDS = ("scipy", "branch-bound")

#: Per-thread record of completed solves: (winning backend, solve seconds,
#: True when the branch-and-bound fallback rescued a failed primary).
_THREAD_STATE = threading.local()

#: Process-wide count of solve() calls, for the chaos wedge budget.
_WEDGE_COUNTER = itertools.count()


def _solve_log() -> list[tuple[str, float, bool]]:
    log = getattr(_THREAD_STATE, "solve_log", None)
    if log is None:
        log = _THREAD_STATE.solve_log = []
    return log


def drain_solve_log() -> list[tuple[str, float, bool]]:
    """Return and clear this thread's record of solves since last drain."""
    log = _solve_log()
    drained = list(log)
    log.clear()
    return drained


def _record(solution: Solution, fell_back: bool) -> Solution:
    _solve_log().append((solution.backend, solution.solve_seconds, fell_back))
    return solution


def _effective_time_limit(time_limit: float | None) -> float | None:
    """Normalize the budget and clamp it to the ambient deadline.

    ``0`` and ``None`` both mean "no per-solve budget" (the stage-timeout
    convention shared with the synthesis task timeout and the simulation
    watchdog).  With a deadline installed, whatever budget survives is
    capped at the request's remaining time.
    """
    if time_limit is not None and time_limit <= 0:
        time_limit = None
    deadline = current_deadline()
    if deadline is not None:
        deadline.check("ilp solve")
        time_limit = deadline.clamp(time_limit)
    return time_limit


def _chaos_wedge(time_limit: float | None) -> None:
    """Honour the injected-wedge knobs (chaos testing only)."""
    raw = os.environ.get("REPRO_CHAOS_WEDGE_ILP_S", "")
    if not raw:
        return
    try:
        wedge_s = float(raw)
    except ValueError:
        return
    count_raw = os.environ.get("REPRO_CHAOS_WEDGE_ILP_COUNT", "")
    if count_raw:
        try:
            if next(_WEDGE_COUNTER) >= int(count_raw):
                return  # wedge budget spent: the backend has "recovered"
        except ValueError:
            pass
    hold = wedge_s if time_limit is None else min(wedge_s, time_limit)
    if hold > 0:
        time.sleep(hold)
    raise SolverError(
        f"chaos: ILP backend wedged for {hold:g}s by REPRO_CHAOS_WEDGE_ILP_S"
    )


def solve(
    model: Model,
    backend: str = "scipy",
    time_limit: float | None = None,
    fallback: bool = True,
) -> Solution:
    """Solve an ILP model with the named backend.

    Args:
        model: the minimization model.
        backend: ``"scipy"`` (HiGHS) or ``"branch-bound"``.
        time_limit: optional wall-clock budget in seconds (``0``/``None``
            mean unlimited); always clamped to the ambient request
            deadline when one is installed.
        fallback: retry a *failed* scipy solve (exception or ERROR status,
            not infeasibility) with the branch-and-bound backend.

    Raises:
        SolverError: for an unknown backend, or a backend-level failure
            with no fallback available.
        DeadlineExceededError: when the ambient deadline has already
            expired.
    """
    time_limit = _effective_time_limit(time_limit)
    _chaos_wedge(time_limit)
    if backend == "branch-bound":
        return _record(
            solve_with_branch_and_bound(model, time_limit=time_limit), False
        )
    if backend != "scipy":
        raise SolverError(
            f"unknown ILP backend {backend!r}; choose from {BACKENDS}"
        )
    try:
        solution = solve_with_scipy(model, time_limit=time_limit)
    except SolverError:
        if not fallback:
            raise
        solution = None
    if solution is not None and solution.status is not SolveStatus.ERROR:
        return _record(solution, False)
    if not fallback:
        return _record(solution, False)
    return _record(
        solve_with_branch_and_bound(model, time_limit=time_limit), True
    )
