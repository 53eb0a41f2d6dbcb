"""The adaptive brownout state machine (repro.serve.brownout)."""

import pytest

from repro.core.ladder import TIERS
from repro.serve.brownout import BrownoutConfig, BrownoutController


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def controller(**kwargs) -> tuple[BrownoutController, FakeClock]:
    clock = FakeClock()
    config = BrownoutConfig(
        high_pressure=kwargs.pop("high", 0.75),
        low_pressure=kwargs.pop("low", 0.25),
        degrade_after_s=kwargs.pop("degrade", 2.0),
        restore_after_s=kwargs.pop("restore", 5.0),
        **kwargs,
    )
    return BrownoutController(config, clock=clock), clock


class TestDegrade:
    def test_starts_at_full(self):
        ctrl, _ = controller()
        assert ctrl.ceiling == "full"
        assert not ctrl.active

    def test_single_burst_does_not_degrade(self):
        ctrl, clock = controller()
        ctrl.observe(1.0)
        clock.advance(0.5)  # shorter than degrade_after_s
        ctrl.observe(1.0)
        assert ctrl.ceiling == "full"

    def test_sustained_pressure_steps_down_one_tier(self):
        ctrl, clock = controller()
        ctrl.observe(0.9)
        clock.advance(2.5)
        ctrl.observe(0.9)
        assert ctrl.ceiling == TIERS[1]
        assert ctrl.active
        assert ctrl.counters["degrades"] == 1

    def test_each_further_step_needs_a_fresh_dwell(self):
        ctrl, clock = controller()
        ctrl.observe(1.0)
        clock.advance(2.5)
        ctrl.observe(1.0)  # -> TIERS[1]
        ctrl.observe(1.0)  # immediately after: no second step yet
        assert ctrl.ceiling == TIERS[1]
        clock.advance(2.5)
        ctrl.observe(1.0)  # -> TIERS[2]
        assert ctrl.ceiling == TIERS[2]

    def test_descends_no_further_than_the_floor(self):
        ctrl, clock = controller(floor=TIERS[1])
        for _ in range(10):
            clock.advance(3.0)
            ctrl.observe(1.0)
        assert ctrl.ceiling == TIERS[1]

    def test_interrupted_streak_resets_the_dwell(self):
        ctrl, clock = controller()
        ctrl.observe(1.0)
        clock.advance(1.5)
        ctrl.observe(0.5)  # dead band: streak broken
        clock.advance(1.5)
        ctrl.observe(1.0)  # a *new* streak begins here
        clock.advance(1.0)
        ctrl.observe(1.0)  # only 1s into the new streak
        assert ctrl.ceiling == "full"

    def test_disabled_controller_never_moves(self):
        clock = FakeClock()
        ctrl = BrownoutController(
            BrownoutConfig(enabled=False, degrade_after_s=0.0), clock=clock
        )
        for _ in range(5):
            clock.advance(10.0)
            ctrl.observe(1.0)
        assert ctrl.ceiling == "full"


class TestRestore:
    def _degraded(self) -> tuple[BrownoutController, FakeClock]:
        ctrl, clock = controller()
        ctrl.observe(1.0)
        clock.advance(2.5)
        ctrl.observe(1.0)
        assert ctrl.ceiling == TIERS[1]
        return ctrl, clock

    def test_restore_needs_sustained_calm(self):
        ctrl, clock = self._degraded()
        ctrl.observe(0.0)
        clock.advance(1.0)  # shorter than restore_after_s
        ctrl.observe(0.0)
        assert ctrl.ceiling == TIERS[1]
        clock.advance(5.0)
        ctrl.observe(0.0)
        assert ctrl.ceiling == "full"
        assert ctrl.counters["restores"] == 1

    def test_dead_band_holds_the_ceiling(self):
        ctrl, clock = self._degraded()
        for _ in range(10):
            clock.advance(10.0)
            ctrl.observe(0.5)  # between low and high
        assert ctrl.ceiling == TIERS[1]

    def test_restore_hysteresis_is_wider_than_degrade(self):
        # The asymmetry is the point: quick to protect, slow to trust.
        config = BrownoutConfig()
        assert config.restore_after_s > config.degrade_after_s
        assert config.high_pressure > config.low_pressure


class TestClamp:
    def test_clamp_is_identity_at_full(self):
        ctrl, _ = controller()
        for tier in TIERS:
            assert ctrl.clamp(tier) == tier

    def test_clamp_takes_the_cheaper_tier(self):
        ctrl, clock = controller()
        ctrl.observe(1.0)
        clock.advance(2.5)
        ctrl.observe(1.0)  # ceiling = TIERS[1]
        assert ctrl.clamp("full") == TIERS[1]
        # A request already configured cheaper keeps its own start.
        assert ctrl.clamp(TIERS[-1]) == TIERS[-1]


class TestSnapshotAndEnv:
    def test_snapshot_shape(self):
        ctrl, clock = controller()
        ctrl.observe(1.0)
        clock.advance(2.5)
        ctrl.observe(1.0)
        snapshot = ctrl.snapshot()
        assert snapshot["ceiling"] == TIERS[1]
        assert snapshot["active"] is True
        assert snapshot["degrades"] == 1
        assert snapshot["pressure"] == pytest.approx(1.0)
        assert snapshot["transitions"] == [TIERS[1]]
