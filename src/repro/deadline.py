"""Request deadlines, propagated through the whole toolchain.

A :class:`Deadline` is an absolute point on the monotonic clock.  The
entry points (the compile service, the CLI's ``--deadline`` flag) install
one with :func:`deadline_scope`; every stage downstream — parallel
synthesis, the floorplanning ILPs, the discrete-event simulator — reads
the *same* shrinking budget via :func:`current_deadline` instead of
carrying an independent per-stage timeout.  That is what lets the
compiler answer *degraded but on time*: a stage that sees little budget
left picks a cheaper algorithm (see :mod:`repro.core.ladder`) rather
than starting work it cannot finish.

The context is a :class:`contextvars.ContextVar`, so concurrent requests
in one process (each on the thread that asked for it) each see their own
deadline, and code with no deadline installed behaves exactly as before.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from .errors import DeadlineExceededError


@dataclass(frozen=True, slots=True)
class Deadline:
    """An absolute wall-clock deadline on the monotonic clock."""

    #: ``time.monotonic()`` value after which the request is late.
    expires_at: float
    #: The original budget, for error messages (None when unknown).
    total_s: float | None = None

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(expires_at=time.monotonic() + seconds, total_s=seconds)

    def remaining(self) -> float:
        """Seconds until expiry (negative once past it)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceededError` naming ``stage`` if late."""
        if self.expired:
            raise DeadlineExceededError(stage, self.total_s)

    def clamp(self, limit: float | None) -> float:
        """The tighter of ``limit`` and the remaining budget.

        ``None`` (no per-stage limit) clamps to the remaining budget
        alone; the result is floored at zero so callers can hand it
        straight to a timeout parameter.
        """
        remaining = max(self.remaining(), 0.0)
        if limit is None:
            return remaining
        return min(limit, remaining)


def deadline_to_wire(deadline: "Deadline | None") -> float | None:
    """Flatten a deadline for transport to another process.

    A :class:`Deadline` is a point on *this* process's monotonic clock;
    monotonic readings are not portable across process boundaries (nor,
    on some platforms, comparable between processes at all).  The wire
    form is therefore the remaining budget in seconds — floored at zero
    so an already-expired deadline stays expired on the far side.
    """
    if deadline is None:
        return None
    return max(deadline.remaining(), 0.0)


def deadline_from_wire(remaining_s: float | None) -> "Deadline | None":
    """Rebuild a deadline from its wire form on the receiving clock.

    Pipe latency between the two processes silently eats budget, which
    is the correct accounting: time spent in transit was spent.
    """
    if remaining_s is None:
        return None
    return Deadline.after(remaining_s)


_CURRENT: ContextVar[Deadline | None] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Deadline | None:
    """The deadline governing the current request, if any."""
    return _CURRENT.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install ``deadline`` as the ambient deadline for the scope.

    ``None`` explicitly clears any inherited deadline (used by cache
    parity tests to compare against an undeadlined compile).
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)
