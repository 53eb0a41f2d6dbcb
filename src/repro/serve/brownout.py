"""Adaptive brownout: degrade answer *quality* before availability.

Under sustained overload a compile service has three options: queue
(unbounded latency), shed (lost availability), or **brown out** — keep
answering, but cheaper.  The floorplan quality ladder
(:mod:`repro.core.ladder`) already gives each *individual* request a
cheaper path when its own deadline is tight; this controller makes the
same trade fleet-wide when the *service* is under pressure, so capacity
recovers before the queue forces sheds.

The controller watches a scalar **pressure** signal the broker computes
from what it already measures:

* queue depth as a fraction of ``max_queue``;
* the recent deadline-miss rate (EWMA over completions);
* circuit-breaker state (an open backend breaker is full pressure —
  capacity is already impaired).

State machine (hysteretic, one tier per step)::

        pressure ≥ high for degrade_after_s  →  ceiling steps DOWN
        pressure ≤ low  for restore_after_s  →  ceiling steps UP
        otherwise                            →  hold

``high > low`` plus the two dwell times are the hysteresis: a ceiling
never flaps on a single burst, and recovery requires demonstrated calm,
not one quiet tick.  The ceiling clamps every request's
``ladder_start`` (a request already configured lower keeps its own
floor), so during brownout admitted work completes — degraded — instead
of missing deadlines or being shed.

The clock is injectable; tier-1 tests drive the state machine without
sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..core.ladder import TIERS


@dataclass(slots=True)
class BrownoutConfig:
    """Thresholds and dwell times of the brownout state machine."""

    enabled: bool = True
    #: Pressure at or above this counts toward degrading.
    high_pressure: float = 0.75
    #: Pressure at or below this counts toward restoring.
    low_pressure: float = 0.25
    #: Sustained high pressure required before stepping the ceiling down.
    degrade_after_s: float = 2.0
    #: Sustained low pressure required before stepping the ceiling up.
    restore_after_s: float = 5.0
    #: The worst tier the ceiling may reach ("greedy" allows the full
    #: descent; "coarse" keeps at least one ILP stage alive).
    floor: str = "greedy"


class BrownoutController:
    """The hysteretic ceiling state machine.  Not internally locked —
    the broker calls :meth:`observe` under its admission lock."""

    def __init__(
        self,
        config: BrownoutConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or BrownoutConfig()
        self._clock = clock
        #: Index into TIERS; 0 = "full" (no brownout).
        self._level = 0
        self._pressure = 0.0
        #: When the current high-/low-pressure streak began (None: no
        #: streak in progress).
        self._high_since: float | None = None
        self._low_since: float | None = None
        self.transitions: list[str] = []
        self.counters = {"degrades": 0, "restores": 0}

    @property
    def ceiling(self) -> str:
        """The fleet-wide ladder ceiling ("full" = not browned out)."""
        return TIERS[self._level]

    @property
    def pressure(self) -> float:
        return self._pressure

    @property
    def active(self) -> bool:
        return self._level > 0

    def observe(self, pressure: float) -> str:
        """Feed one pressure sample; returns the (possibly new) ceiling."""
        if not self.config.enabled:
            return self.ceiling
        now = self._clock()
        self._pressure = pressure
        floor_index = TIERS.index(self.config.floor)
        if pressure >= self.config.high_pressure:
            self._low_since = None
            if self._high_since is None:
                self._high_since = now
            elif (
                now - self._high_since >= self.config.degrade_after_s
                and self._level < floor_index
            ):
                self._level += 1
                self._high_since = now  # a further step needs a new dwell
                self.counters["degrades"] += 1
                self.transitions.append(self.ceiling)
        elif pressure <= self.config.low_pressure:
            self._high_since = None
            if self._low_since is None:
                self._low_since = now
            elif (
                now - self._low_since >= self.config.restore_after_s
                and self._level > 0
            ):
                self._level -= 1
                self._low_since = now
                self.counters["restores"] += 1
                self.transitions.append(self.ceiling)
        else:
            # The dead band between the thresholds: hold the ceiling and
            # reset both streaks — hysteresis demands *sustained* signal.
            self._high_since = None
            self._low_since = None
        return self.ceiling

    def clamp(self, ladder_start: str) -> str:
        """The worse (cheaper) of a request's tier and the ceiling."""
        return TIERS[max(TIERS.index(ladder_start), self._level)]

    def export_state(self) -> dict:
        """The checkpointable part of the state machine (the ceiling)."""
        return {"level": self._level}

    def restore_state(self, state: dict) -> None:
        """Restore a checkpointed ceiling, clamped to the valid range.

        Only the level survives a restart — dwell streaks restart fresh,
        which errs toward holding the restored ceiling (the conservative
        side: a browned-out service stays browned out until it earns the
        restore dwell again).
        """
        level = state.get("level")
        if not isinstance(level, int):
            return
        floor_index = TIERS.index(self.config.floor)
        self._level = max(0, min(level, floor_index))
        self._high_since = None
        self._low_since = None

    def snapshot(self) -> dict:
        return {
            "ceiling": self.ceiling,
            "pressure": round(self._pressure, 4),
            "active": self.active,
            "enabled": self.config.enabled,
            "degrades": self.counters["degrades"],
            "restores": self.counters["restores"],
            "transitions": list(self.transitions[-16:]),
        }
