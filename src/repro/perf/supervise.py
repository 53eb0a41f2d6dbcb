"""Supervision primitives: retry backoff and crash-loop quarantine.

One supervisor in this codebase keeps unreliable worker processes
alive: :class:`~repro.serve.fleet.WorkerFleet`, which runs the serving
broker's compile jobs and the parallel sweep points of
:mod:`repro.perf.sweep`.  The fleet respawns workers with the two
policies here, and the sweep's retry loop paces point retries with the
first:

* :class:`BackoffPolicy` — capped exponential backoff with jitter.
  Jitter matters whenever several failures land together (a machine
  hiccup fails several points or restarts several workers): without it
  the retries re-collide in lockstep.
* :class:`RespawnGovernor` — per-slot crash accounting.  A worker slot
  that keeps dying the moment it is respawned is in a crash loop;
  respawning it at full speed burns CPU and floods the logs without
  ever serving a request.  The governor schedules each respawn on the
  backoff curve and, past ``quarantine_threshold`` consecutive crashes,
  quarantines the slot for a cooldown before the next attempt.  One
  successful job resets the account.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class BackoffPolicy:
    """Capped exponential backoff with multiplicative jitter."""

    #: Delay before the first retry; 0 disables backoff entirely.
    base_s: float = 0.1
    #: Upper bound the exponential curve saturates at.
    cap_s: float = 5.0
    #: Jitter fraction: each delay is scaled by uniform(1-j, 1+j).
    jitter: float = 0.25

    def delay(self, attempts: int) -> float:
        """The wait before retry number ``attempts`` (1-based)."""
        if self.base_s <= 0.0:
            return 0.0
        delay = min(self.base_s * (2 ** max(0, attempts - 1)), self.cap_s)
        return delay * random.uniform(1.0 - self.jitter, 1.0 + self.jitter)


@dataclass(slots=True)
class RespawnGovernor:
    """Crash-loop accounting for one respawnable worker slot.

    The owner reports :meth:`crashed` / :meth:`succeeded`; the governor
    answers *when* the slot may be respawned (:meth:`respawn_at`) and
    whether it is currently quarantined.  The clock is injectable so
    tests drive quarantine expiry without sleeping.
    """

    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Consecutive crashes after which the slot is quarantined.
    quarantine_threshold: int = 3
    #: How long a quarantined slot sits out before the next attempt.
    quarantine_cooldown_s: float = 5.0
    clock: Callable[[], float] = time.monotonic
    consecutive_crashes: int = 0
    total_crashes: int = 0
    _next_respawn_at: float = 0.0

    def crashed(self) -> None:
        """Record one crash and schedule the next respawn."""
        self.consecutive_crashes += 1
        self.total_crashes += 1
        if self.consecutive_crashes >= self.quarantine_threshold:
            delay = self.quarantine_cooldown_s
        else:
            delay = self.backoff.delay(self.consecutive_crashes)
        self._next_respawn_at = self.clock() + delay

    def succeeded(self) -> None:
        """One completed job clears the crash-loop account."""
        self.consecutive_crashes = 0
        self._next_respawn_at = 0.0

    @property
    def quarantined(self) -> bool:
        """Is the slot sitting out a crash-loop cooldown right now?"""
        return (
            self.consecutive_crashes >= self.quarantine_threshold
            and self.clock() < self._next_respawn_at
        )

    def respawn_at(self) -> float:
        """Earliest clock reading at which a respawn is allowed."""
        return self._next_respawn_at

    def may_respawn(self) -> bool:
        return self.clock() >= self._next_respawn_at
