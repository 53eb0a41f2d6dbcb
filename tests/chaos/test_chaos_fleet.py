"""Chaos tests for the worker fleet: crashes, wedges, corruption, drain.

The fleet's promise is that *no admitted request is ever lost*: a
``kill -9`` of any worker fails its in-flight job over to a healthy
one, a wedged (silent) worker is detected by the liveness watchdog and
killed, a corrupted artifact cache costs recompute time only, and a
drain finishes everything admitted before the workers stop.  Each test
here injects exactly one of those faults mid-burst and asserts the
promise end to end.

Faults that need a worker's cooperation (a wedge, a straggler) are job
functions in :mod:`tests.chaos.workers`, passed to ``WorkerFleet.run``;
the fleet under test is always torn down — crashed or not — so no child
outlives the suite.
"""

import os
import signal
import threading
import time

import pytest

from repro.cluster import paper_testbed
from repro.perf.supervise import BackoffPolicy
from repro.serve.broker import CompileRequest, CompileService, ServiceConfig
from repro.serve.fleet import FleetConfig, WorkerFleet

from tests.chaos import workers as chaos_workers
from tests.conftest import build_diamond, build_wide


@pytest.fixture
def fresh_cache(tmp_path):
    import repro.perf.cache as cache_module

    cache = cache_module.DesignCache(directory=str(tmp_path), enabled=True)
    saved = cache_module._GLOBAL_CACHE
    cache_module._GLOBAL_CACHE = cache
    yield cache
    cache_module._GLOBAL_CACHE = saved


def _fleet(**kwargs) -> WorkerFleet:
    defaults = dict(
        workers=2,
        heartbeat_s=0.05,
        liveness_timeout_s=5.0,
        respawn_backoff=BackoffPolicy(base_s=0.01, cap_s=0.1, jitter=0.0),
    )
    defaults.update(kwargs)
    return WorkerFleet(FleetConfig(**defaults))


def _request(i: int = 0) -> CompileRequest:
    # use_cache=False keeps every job a real compile so there is a
    # window in which to kill the worker running it.
    return CompileRequest(
        graph=build_wide(pes=5 + i % 3),
        cluster=paper_testbed(),
        use_cache=False,
    )


class TestKillNineMidBurst:
    def test_sigkill_loses_zero_admitted_requests(self, fresh_cache):
        service = CompileService(
            ServiceConfig(workers=2, max_queue=16, fleet_workers=2)
        )
        results, errors = [], []

        def submit(i):
            try:
                results.append(service.execute(_request(i)))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            # Wait until a worker is actually busy, then kill -9 it.
            victim = None
            deadline = time.monotonic() + 10.0
            while victim is None and time.monotonic() < deadline:
                for process in service.fleet.health()["processes"]:
                    if process["state"] == "busy":
                        victim = process["pid"]
                        break
                time.sleep(0.01)
            assert victim is not None, "no worker ever went busy"
            os.kill(victim, signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors, [str(e) for e in errors]
            assert len(results) == 8, "every admitted request completed"
            fleet_counters = service.fleet.health()["counters"]
            assert fleet_counters["worker_crashes"] >= 1
            assert fleet_counters["respawns"] >= 1
            assert service.counters["completed"] == 8
            assert service.counters["failed"] == 0
        finally:
            service.shutdown(wait=True)

    def test_crash_evidence_lands_in_health(self, fresh_cache):
        fleet = _fleet(workers=2)
        try:
            fleet.run(_request(), None)
            pid = fleet.health()["processes"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if fleet.counters["respawns"] >= 1:
                    break
                time.sleep(0.02)
            health = fleet.health()
            assert health["counters"]["worker_crashes"] == 1
            slots = {p["slot"]: p for p in health["processes"]}
            assert slots[0]["crashes"] == 1
            # The respawned worker answers requests again.
            value, _ = fleet.run(_request(1), None)
            assert value is not None
        finally:
            fleet.shutdown()


class TestWedgedWorker:
    def test_liveness_watchdog_kills_and_fails_over(
        self, fresh_cache, tmp_path
    ):
        # The first worker to take the job stops itself (SIGSTOP): no
        # heartbeat, no answer — stuck in "native code".  The watchdog
        # must SIGKILL it and fail the job over to the other worker.
        fleet = _fleet(workers=2, liveness_timeout_s=0.5)
        try:
            start = time.monotonic()
            value, _ = fleet.run(
                (str(tmp_path / "wedged"), _request()), None,
                fn=chaos_workers.wedge_once,
            )
            elapsed = time.monotonic() - start
            assert value is not None
            assert elapsed < 15.0, "must not wait out the 30s wedge"
            counters = fleet.health()["counters"]
            assert counters["wedge_kills"] == 1
            assert counters["failovers"] == 1
            assert counters["completed"] == 1
        finally:
            fleet.shutdown()


class TestHedgedRetries:
    def test_straggler_is_hedged_and_fast_copy_wins(
        self, fresh_cache, tmp_path
    ):
        # The first copy of the job is slow (5s extra, heartbeats intact
        # — not wedged, just slow).  With hedging armed at 0.3s and the
        # other worker idle, the duplicate dispatch must win long before.
        fleet = _fleet(workers=2, hedge_after_s=0.3, liveness_timeout_s=10.0)
        try:
            start = time.monotonic()
            value, _ = fleet.run(
                (str(tmp_path / "straggled"), 5.0, _request()), None,
                fn=chaos_workers.straggle_once,
            )
            elapsed = time.monotonic() - start
            assert value is not None
            assert elapsed < 4.0, "the hedge must beat the straggler"
            counters = fleet.health()["counters"]
            assert counters["hedges"] == 1
            assert counters["hedge_wins"] == 1
            # The straggler's late result is discarded, its worker freed
            # — not treated as a crash.
            assert counters["worker_crashes"] == 0
        finally:
            fleet.shutdown()


class TestCacheCorruptionMidBurst:
    def test_corrupt_entries_cost_recompute_only(self, fresh_cache, tmp_path):
        fleet = _fleet(workers=2)
        try:
            # Warm the shared disk tier with cacheable compiles.
            warm = CompileRequest(
                graph=build_diamond(), cluster=paper_testbed()
            )
            fleet.run(warm, None)
            entries = fresh_cache.disk_entries()
            assert entries
            # Scribble over every artifact mid-flight.
            for fingerprint in entries:
                path = os.path.join(str(tmp_path), fingerprint + ".pkl")
                with open(path, "r+b") as handle:
                    handle.seek(0)
                    handle.write(b"\xde\xad\xbe\xef" * 8)
            # Kill both workers: their in-memory LRUs still hold the
            # good artifact, and the point is that the *disk* copy the
            # respawned (cold) workers fall back on is now garbage.
            for process in fleet.health()["processes"]:
                os.kill(process["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if fleet.counters["respawns"] >= 2:
                    break
                time.sleep(0.02)
            # The same request must still succeed: the worker detects
            # the corruption (checksum), evicts, recompiles, re-stores.
            value, _ = fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
            assert value.floorplan_tier == "full"
            # The eviction was counted in the *parent's* merged stats —
            # worker deltas cross the pipe with each result.
            assert fresh_cache.stats.corrupt_evictions >= 1
            assert fleet.health()["counters"]["failed"] == 0
        finally:
            fleet.shutdown()


class TestDrainUnderFire:
    def test_drain_finishes_inflight_and_reaps_workers(self, fresh_cache):
        fleet = _fleet(workers=2)
        results = []
        threads = [
            threading.Thread(
                target=lambda i=i: results.append(fleet.run(_request(i), None))
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let work reach the workers
        assert fleet.drain(timeout_s=120.0) is True
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 4, "drain must finish every admitted job"
        assert all(value is not None for value, _ in results)

    def test_drain_survives_a_crash_during_the_drain(self, fresh_cache):
        fleet = _fleet(workers=2)
        results = []
        threads = [
            threading.Thread(
                target=lambda i=i: results.append(fleet.run(_request(i), None))
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        # Kill a busy worker, then immediately drain: the failed-over
        # jobs still count as admitted work the drain must finish.
        victim = None
        deadline = time.monotonic() + 10.0
        while victim is None and time.monotonic() < deadline:
            for process in fleet.health()["processes"]:
                if process["state"] == "busy":
                    victim = process["pid"]
                    break
            time.sleep(0.01)
        assert victim is not None
        os.kill(victim, signal.SIGKILL)
        assert fleet.drain(timeout_s=120.0) is True
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 4
        assert fleet.counters["worker_crashes"] >= 1
