"""Wedged-solver chaos tests for the compile service.

:func:`tests.chaos.wedge.wedge_ilp` makes every ILP solve sleep then fail
with ``SolverError`` — the "hung solver" scenario.  These tests assert the
serving layer's promises under that scenario: degraded-but-on-time
responses, an ILP breaker that opens (and then forces the free greedy
tier), and recovery through a half-open probe once the backend heals
(its ``count`` bounds how many solves stay wedged).

Wedge sleeps are kept tiny so the whole module stays fast.
"""

import time

import pytest

from repro.cluster import make_cluster
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, BreakerConfig
from repro.serve.broker import CompileRequest, CompileService, ServiceConfig

from tests.chaos.wedge import wedge_ilp
from tests.conftest import build_diamond


@pytest.fixture
def wedged(monkeypatch):
    """Arms a 0.1s wedge on every ILP solve (the first ``count`` only,
    if given) for this test; the real solver returns at teardown."""

    def arm(count=None):
        wedge_ilp(0.1, count, patch=monkeypatch.setattr)

    return arm


def _request(deadline_s=5.0):
    return CompileRequest(
        graph=build_diamond(),
        cluster=make_cluster(2),
        deadline_s=deadline_s,
        use_cache=False,
    )


def test_wedged_solver_degrades_on_time(wedged):
    wedged()
    service = CompileService(ServiceConfig(workers=1, max_queue=4))
    start = time.monotonic()
    design = service.execute(_request(deadline_s=5.0))
    elapsed = time.monotonic() - start
    service.shutdown()
    # Every ILP tier failed, the greedy tier answered — well before the
    # deadline, despite a solver that never returns.
    assert design.floorplan_tier == "greedy"
    assert elapsed < 5.0
    assert service.counters["degraded_tier"] == 1
    assert service.counters["completed"] == 1


def test_breaker_opens_and_forces_greedy(wedged):
    wedged()
    service = CompileService(
        ServiceConfig(
            workers=1,
            max_queue=4,
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=60.0),
        )
    )
    # Request 1 racks up one SolverError per attempted ILP tier; with a
    # threshold of 2 the breaker is open before request 2 starts.
    service.execute(_request())
    assert service.breakers["ilp"].state == OPEN
    start = time.monotonic()
    design = service.execute(_request())
    elapsed = time.monotonic() - start
    service.shutdown()
    # The open breaker skips the ladder's ILP tiers outright: no wedge
    # sleeps at all, just the (microseconds) greedy floorplan.
    assert design.floorplan_tier == "greedy"
    assert elapsed < 0.1
    assert service.counters["breaker_forced_greedy"] == 1


def test_breaker_recovers_through_a_probe(wedged):
    # Only the first 2 solves are wedged: the backend "heals" afterwards.
    wedged(count=2)
    service = CompileService(
        ServiceConfig(
            workers=1,
            max_queue=4,
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=0.2),
        )
    )
    service.execute(_request())
    assert service.breakers["ilp"].state == OPEN
    time.sleep(0.25)
    assert service.breakers["ilp"].state == HALF_OPEN
    design = service.execute(_request())
    service.shutdown()
    # The half-open probe reached the healed solver, succeeded at an ILP
    # tier, and closed the breaker.
    assert design.floorplan_tier != "greedy"
    snapshot = service.breakers["ilp"].snapshot()
    assert snapshot["state"] == CLOSED
    assert snapshot["transitions"][-3:] == [OPEN, HALF_OPEN, CLOSED]
