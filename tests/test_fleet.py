"""Worker-fleet tests: supervision primitives, error transport, round trips.

Everything here is fast (one- or two-worker fleets, tiny graphs) and
runs in tier 1; the kill -9 / wedge / corruption scenarios live in
``tests/chaos/test_chaos_fleet.py``.
"""

import functools
import multiprocessing
import os
import threading
import time

import pytest

from repro.cluster import paper_testbed
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DegradedClusterError,
    DesignRuleError,
    DrainingError,
    InfeasibleError,
    JournalError,
    OverloadedError,
    SynthesisTimeoutError,
    TapaCSError,
    WorkerCrashError,
)
from repro.perf.supervise import BackoffPolicy, RespawnGovernor
from repro.serve.broker import CompileRequest
from repro.serve.fleet import FleetConfig, WorkerFleet

from tests.chaos import workers as chaos_workers
from tests.conftest import build_diamond


@pytest.fixture
def fresh_cache(tmp_path):
    import repro.perf.cache as cache_module

    cache = cache_module.DesignCache(directory=str(tmp_path), enabled=True)
    saved = cache_module._GLOBAL_CACHE
    cache_module._GLOBAL_CACHE = cache
    yield cache
    cache_module._GLOBAL_CACHE = saved


class TestBackoffPolicy:
    def test_exponential_and_capped(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=1.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(10) == pytest.approx(1.0)  # saturates at cap

    def test_zero_base_disables(self):
        assert BackoffPolicy(base_s=0.0).delay(5) == 0.0

    def test_jitter_bounds(self):
        policy = BackoffPolicy(base_s=1.0, cap_s=1.0, jitter=0.5)
        for _ in range(50):
            assert 0.5 <= policy.delay(1) <= 1.5


class TestRespawnGovernor:
    def _governor(self, **kwargs):
        clock = {"now": 100.0}
        governor = RespawnGovernor(
            backoff=BackoffPolicy(base_s=1.0, cap_s=8.0, jitter=0.0),
            clock=lambda: clock["now"],
            **kwargs,
        )
        return governor, clock

    def test_backoff_schedule(self):
        governor, clock = self._governor(quarantine_threshold=10)
        governor.crashed()
        assert governor.respawn_at() == pytest.approx(101.0)
        assert not governor.may_respawn()
        clock["now"] = 101.5
        assert governor.may_respawn()
        governor.crashed()
        assert governor.respawn_at() == pytest.approx(103.5)  # 2s backoff

    def test_quarantine_after_crash_loop(self):
        governor, clock = self._governor(
            quarantine_threshold=3, quarantine_cooldown_s=60.0
        )
        for _ in range(3):
            governor.crashed()
        assert governor.quarantined
        assert not governor.may_respawn()
        clock["now"] += 61.0
        assert governor.may_respawn()

    def test_success_clears_the_account(self):
        governor, clock = self._governor(quarantine_threshold=2)
        governor.crashed()
        governor.crashed()
        assert governor.quarantined
        governor.succeeded()
        assert not governor.quarantined
        assert governor.consecutive_crashes == 0
        assert governor.may_respawn()
        assert governor.total_crashes == 2  # history survives for health()


def _raise_job(exc, remaining_s):
    """A fleet job that raises the exception it is sent."""
    raise exc


def _raise_local_job(message, remaining_s):
    """A fleet job raising a package error whose type will not pickle."""

    class SomeFutureError(TapaCSError):
        pass

    raise SomeFutureError(message)


def _diagnostics() -> list:
    from repro.check import DiagnosticReport

    report = DiagnosticReport()
    report.emit("G002", "graph:g", "channel 'c' names no task", fix="declare it")
    report.emit("G103", "graph:g", "channel 'f' is never read")
    return list(report)


@pytest.fixture(scope="class")
def raising_fleet():
    fleet = _fast_fleet(workers=1)
    yield fleet
    fleet.shutdown()


def _arrived(fleet, job, payload) -> TapaCSError:
    """The error a fleet job raised, as the submitting thread sees it."""
    with pytest.raises(TapaCSError) as caught:
        fleet.run(payload, None, job)
    return caught.value


class TestErrorTransport:
    """Exceptions crossing the worker pipe keep their type and payload."""

    @pytest.mark.parametrize(
        "exc",
        [
            DeadlineExceededError("ilp solve", 2.5),
            SynthesisTimeoutError("pe3", 1.5),
            DegradedClusterError("no plan fits", ["fpga1 down"]),
            OverloadedError("queue full", retry_after_s=3.0),
            DrainingError("draining", retry_after_s=9.0),
            WorkerCrashError("crashed twice", retry_after_s=5.0, failovers=2),
            CircuitOpenError("ilp", retry_after_s=4.0),
            InfeasibleError("does not fit on 2 FPGAs"),
            TapaCSError("generic finding"),
            DesignRuleError("design: 1 design-rule error(s)", _diagnostics()),
            JournalError("cannot append to the run journal"),
        ],
    )
    def test_round_trip_preserves_type(self, raising_fleet, exc):
        decoded = _arrived(raising_fleet, _raise_job, exc)
        assert type(decoded) is type(exc)
        assert str(decoded) == str(exc)
        assert decoded.args == exc.args
        attrs = vars(decoded)
        assert attrs.pop("ladder_entries") == []
        assert attrs == vars(exc)

    def test_round_trip_preserves_faults(self, raising_fleet):
        exc = DegradedClusterError("shrunk", ["link a-b down", "fpga2 slow"])
        decoded = _arrived(raising_fleet, _raise_job, exc)
        assert decoded.faults == ["link a-b down", "fpga2 slow"]

    def test_synthesis_timeout_names_the_task(self, raising_fleet):
        exc = SynthesisTimeoutError("pe7", 0.5)
        decoded = _arrived(raising_fleet, _raise_job, exc)
        assert decoded.task_name == "pe7"
        assert decoded.timeout_s == 0.5
        assert "pe7" in str(decoded)

    def test_unknown_type_degrades_to_base_error(self, raising_fleet):
        decoded = _arrived(raising_fleet, _raise_local_job, "boom")
        assert type(decoded) is TapaCSError
        assert str(decoded) == "fleet worker failed with SomeFutureError: boom"

    def test_non_package_exception_degrades_to_base_error(self, raising_fleet):
        decoded = _arrived(raising_fleet, _raise_job, ValueError("worker bug"))
        assert type(decoded) is TapaCSError
        assert str(decoded) == "fleet worker failed with ValueError: worker bug"


def _sleep_job(seconds, remaining_s):
    """A caller-supplied fleet job (module level: it crosses the pipe)."""
    time.sleep(seconds)
    return seconds


def _fast_fleet(workers: int = 1, **kwargs) -> WorkerFleet:
    defaults = dict(
        workers=workers,
        heartbeat_s=0.05,
        liveness_timeout_s=5.0,
        respawn_backoff=BackoffPolicy(base_s=0.01, cap_s=0.05, jitter=0.0),
    )
    defaults.update(kwargs)
    return WorkerFleet(FleetConfig(**defaults))


class TestWorkerFleet:
    def test_round_trip_matches_direct_compile(self, fresh_cache):
        from repro.core.compiler import compile_design

        fleet = _fast_fleet(workers=1)
        try:
            value, entries = fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
        finally:
            fleet.shutdown()
        direct = compile_design(build_diamond(), paper_testbed())
        assert value.floorplan_tier == "full"
        assert value.inter.assignment == direct.inter.assignment
        assert value.frequency_mhz == pytest.approx(direct.frequency_mhz)
        assert entries, "ladder evidence must cross the pipe"
        assert entries[-1]["ok"]

    def test_simulate_kind_returns_design_and_result(self, fresh_cache):
        fleet = _fast_fleet(workers=1)
        try:
            value, _ = fleet.run(
                CompileRequest(
                    graph=build_diamond(),
                    cluster=paper_testbed(),
                    kind="simulate",
                ),
                None,
            )
        finally:
            fleet.shutdown()
        design, result = value
        assert design.floorplan_tier == "full"
        assert result.latency_ms > 0

    def test_worker_error_reraised_with_original_type(self, fresh_cache):
        from repro.deadline import Deadline

        fleet = _fast_fleet(workers=1)
        try:
            with pytest.raises(DeadlineExceededError):
                fleet.run(
                    CompileRequest(
                        graph=build_diamond(), cluster=paper_testbed()
                    ),
                    Deadline.after(1e-7),
                )
        finally:
            fleet.shutdown()

    def test_unpicklable_request_fails_typed_not_hangs(self, fresh_cache):
        fleet = _fast_fleet(workers=1)
        try:
            with pytest.raises(TapaCSError, match="not picklable"):
                fleet.run(
                    CompileRequest(
                        graph=lambda: None, cluster=paper_testbed()
                    ),
                    None,
                )
        finally:
            fleet.shutdown()

    def test_drain_is_clean_and_leaves_no_children(self, fresh_cache):
        fleet = _fast_fleet(workers=2)
        value, _ = fleet.run(
            CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
            None,
        )
        assert value is not None
        assert fleet.drain(timeout_s=10.0) is True
        assert not multiprocessing.active_children()
        with pytest.raises(DrainingError):
            fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )

    def test_health_reports_workers_and_counters(self, fresh_cache):
        fleet = _fast_fleet(workers=2)
        try:
            fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
            health = fleet.health()
        finally:
            fleet.shutdown()
        assert len(health["processes"]) == 2
        for process in health["processes"]:
            assert process["pid"]
            assert process["state"] in ("idle", "busy", "dead")
            assert process["heartbeat_age_s"] >= 0.0
        assert health["counters"]["completed"] == 1
        assert health["counters"]["worker_crashes"] == 0

    def test_crashing_request_exhausts_failovers(self, fresh_cache):
        # Every worker generation dies on the job: the request itself is
        # the killer.  It must fail typed (WorkerCrashError) after
        # max_failovers, not retry forever.
        fleet = _fast_fleet(
            workers=1, max_failovers=1, quarantine_threshold=10
        )
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                fleet.run(
                    CompileRequest(
                        graph=build_diamond(), cluster=paper_testbed()
                    ),
                    None,
                    fn=chaos_workers.exit_job,
                )
            assert excinfo.value.failovers == 2
            assert excinfo.value.retry_after_s > 0
            health = fleet.health()
            assert health["counters"]["worker_crashes"] >= 2
            assert health["counters"]["failover_exhausted"] == 1
        finally:
            fleet.shutdown()


class TestCallerJobs:
    """Jobs other than compile requests, and jobs nobody waits for."""

    def test_default_job_is_looked_up_per_call(
        self, fresh_cache, monkeypatch
    ):
        # A wrapper rebound over the module attribute (as a tracer does)
        # is what must cross the pipe: pickle sends a function by name
        # and rejects one that is not the object that name resolves to.
        import repro.serve.fleet as fleet_module

        original = fleet_module._run_one_request

        @functools.wraps(original)
        def wrapped(request, remaining_s):
            return original(request, remaining_s)

        monkeypatch.setattr(fleet_module, "_run_one_request", wrapped)
        fleet = _fast_fleet(workers=1)
        try:
            value, _ = fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
        finally:
            fleet.shutdown()
        assert value.floorplan_tier == "full"

    def test_job_is_dispatched_on_arrival_not_on_a_tick(
        self, fresh_cache, monkeypatch
    ):
        # The monitor ticks every 5 s and no heartbeat wakes it: a job
        # that waited for the tick would take seconds.
        monkeypatch.setattr(WorkerFleet, "_POLL_S", 5.0)
        fleet = _fast_fleet(
            workers=1, heartbeat_s=5.0, liveness_timeout_s=60.0
        )
        try:
            time.sleep(0.5)  # the worker is up and its hello is read
            start = time.monotonic()
            value, _ = fleet.run(0.0, None, _sleep_job, timeout_s=30.0)
            assert value == 0.0
            assert time.monotonic() - start < 1.0
        finally:
            fleet.shutdown()

    def test_abandoned_job_kills_and_replaces_its_worker(self, fresh_cache):
        fleet = _fast_fleet(workers=1)
        try:
            first = fleet.health()["processes"][0]
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                fleet.run(60.0, None, _sleep_job, timeout_s=0.3)
            # The slot is free at once, not after the 60 s job.
            value, _ = fleet.run(0.0, None, _sleep_job, timeout_s=10.0)
            assert value == 0.0
            assert time.monotonic() - start < 5.0
            worker = fleet.health()["processes"][0]
            assert worker["pid"] != first["pid"]
            assert worker["generation"] == first["generation"] + 1
            assert worker["crashes"] == 0, "a kill for nobody is no crash"
            assert fleet.counters["abandoned_kills"] == 1
            assert fleet.counters["worker_crashes"] == 0
        finally:
            fleet.shutdown()

    def test_shutdown_kills_a_busy_worker_without_waiting(self, fresh_cache):
        fleet = _fast_fleet(workers=1)
        errors: list[BaseException] = []

        def wait_for_job():
            try:
                fleet.run(60.0, None, _sleep_job)
            except DrainingError as exc:
                errors.append(exc)

        waiter = threading.Thread(target=wait_for_job)
        waiter.start()
        limit = time.monotonic() + 10.0
        while fleet.health()["processes"][0]["state"] != "busy":
            assert time.monotonic() < limit
            time.sleep(0.02)
        start = time.monotonic()
        assert fleet.shutdown() is True
        assert time.monotonic() - start < 2.0
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert errors, "the waiter must be told the job will not finish"
        assert not multiprocessing.active_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestWorkerIsolation:
    def test_worker_cache_is_bounded_and_shares_disk(self, fresh_cache):
        # The worker's in-memory LRU is bounded (config), but artifacts
        # land in the shared disk tier where the *parent* can read them.
        fleet = _fast_fleet(workers=1, worker_cache_entries=4)
        try:
            fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
        finally:
            fleet.shutdown()
        assert fresh_cache.disk_entries(), (
            "worker compiles must land in the shared disk tier"
        )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFrontAnswersHits:
    """In fleet mode the broker looks a fingerprinted request up in its
    own process's cache before it dispatches: a stored answer never
    crosses the fleet's pipe, and each request's lookups count once."""

    @staticmethod
    def _service(**fleet_kwargs):
        from repro.serve.broker import CompileService, ServiceConfig

        fleet = FleetConfig(
            heartbeat_s=0.05,
            respawn_backoff=BackoffPolicy(base_s=0.01, cap_s=0.05, jitter=0.0),
            **fleet_kwargs,
        )
        return CompileService(
            ServiceConfig(workers=1, max_queue=8, fleet_workers=1, fleet=fleet)
        )

    @staticmethod
    def _request(**kwargs) -> CompileRequest:
        defaults = dict(graph=build_diamond(), cluster=paper_testbed())
        defaults.update(kwargs)
        return CompileRequest(**defaults)

    @staticmethod
    def _document(request, value) -> dict:
        from repro.serve.server import result_document

        document = result_document(request.kind, value)
        document["design"].pop("floorplan_seconds")  # wall clock
        return document

    def test_repeat_is_answered_without_the_fleet(self, fresh_cache):
        from repro.serve.broker import CompileService, ServiceConfig

        service = self._service()
        try:
            first = service.execute(self._request())
            dispatched = service.fleet.counters["dispatched"]
            repeat = service.execute(self._request())
            assert service.fleet.counters["dispatched"] == dispatched
        finally:
            service.shutdown()
        threads = CompileService(ServiceConfig(workers=1))
        try:
            direct = threads.execute(self._request(use_cache=False))
        finally:
            threads.shutdown()
        request = self._request()
        assert self._document(request, repeat) == self._document(
            request, first
        )
        assert self._document(request, repeat) == self._document(
            request, direct
        )

    def test_each_request_is_counted_once(self, fresh_cache):
        service = self._service()
        try:
            for _ in range(3):  # one cold, two repeats
                service.execute(self._request())
            cache = service.health()["cache"]
        finally:
            service.shutdown()
        assert cache["misses"] == 1
        assert cache["hits"] == 2

    def test_simulate_goes_to_a_worker(self, fresh_cache):
        from repro.serve.broker import CompileService, ServiceConfig

        service = self._service()
        simulate = self._request(kind="simulate")
        try:
            service.execute(simulate)  # stores the design and the result
            counters = service.fleet.counters
            before = dict(service.health()["cache"], sent=counters["dispatched"])
            stored = service.execute(simulate)
            after = dict(service.health()["cache"], sent=counters["dispatched"])
        finally:
            service.shutdown()
        # Only compile hits are answered here; the worker looks up the
        # design and the result and counts them, once each.
        assert after["sent"] == before["sent"] + 1
        assert after["hits"] == before["hits"] + 2
        assert after["misses"] == before["misses"]
        threads = CompileService(ServiceConfig(workers=1))
        try:
            direct = threads.execute(self._request(kind="simulate", use_cache=False))
        finally:
            threads.shutdown()
        assert self._document(simulate, stored) == self._document(simulate, direct)

    def test_breaker_forced_greedy_still_dispatches(self, fresh_cache):
        service = self._service()
        try:
            service.execute(self._request())  # the full tier, stored
            for _ in range(service.config.breaker.failure_threshold):
                service.breakers["ilp"].record_failure()
            dispatched = service.fleet.counters["dispatched"]
            design = service.execute(self._request())
            assert service.fleet.counters["dispatched"] == dispatched + 1
        finally:
            service.shutdown()
        assert service.counters["breaker_forced_greedy"] == 1
        assert design.floorplan_tier == "greedy"

    def test_corrupt_entry_is_evicted_and_the_fleet_answers(self, fresh_cache):
        service = self._service()
        try:
            first = service.execute(self._request())
            (fingerprint,) = fresh_cache.disk_entries()
            with open(fresh_cache._path(fingerprint), "r+b") as handle:
                handle.seek(-1, os.SEEK_END)
                handle.write(b"\x00")
            dispatched = service.fleet.counters["dispatched"]
            repeat = service.execute(self._request())
            assert service.fleet.counters["dispatched"] == dispatched + 1
            cache = service.health()["cache"]
        finally:
            service.shutdown()
        assert cache["corrupt_evictions"] == 1
        assert fingerprint not in fresh_cache.disk_entries()
        request = self._request()
        assert self._document(request, repeat) == self._document(
            request, first
        )

    def test_front_memory_tier_takes_the_worker_bound(self, fresh_cache):
        from tests.conftest import build_chain

        fresh_cache.memory_limit = 5  # the process's own bound
        service = self._service(worker_cache_entries=2)
        requests = [
            self._request(graph=build_chain(length)) for length in (3, 4, 5)
        ]
        try:
            for request in requests + requests:  # cold, then hits
                service.execute(request)
            dispatched = service.fleet.counters["dispatched"]
            assert fresh_cache.memory_limit == 2
            assert len(fresh_cache._memory) <= 2
        finally:
            service.shutdown()
        assert dispatched == len(requests)
        assert fresh_cache.stats.memory_evictions >= 1
        assert fresh_cache.memory_limit == 5


class TestRollingRestart:
    """Zero-downtime roll: every slot recycles to a fresh generation,
    one at a time, with no failures and no governor penalty."""

    def test_all_slots_recycle_gracefully(self, fresh_cache):
        fleet = _fast_fleet(workers=2)
        try:
            # Warm the fleet with real work first so the roll replaces
            # workers that have actually served jobs.
            value, _ = fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
            assert value.floorplan_tier == "full"
            before = {
                worker["slot"]: worker["generation"]
                for worker in fleet.health()["processes"]
            }

            summary = fleet.rolling_restart(drain_timeout_s=30.0)
            assert summary["workers"] == 2
            assert summary["recycled"] == 2
            assert summary["graceful"] == 2
            assert summary["killed"] == 0
            assert fleet.counters["rolling_restarts"] == 1

            health = fleet.health()
            for worker in health["processes"]:
                assert worker["alive"]
                assert not worker["retiring"]
                assert worker["generation"] > before[worker["slot"]]
                assert worker["crashes"] == 0, "recycle must not count as crash"

            # The rolled fleet still serves.
            again, _ = fleet.run(
                CompileRequest(graph=build_diamond(), cluster=paper_testbed()),
                None,
            )
            assert again.floorplan_tier == "full"
        finally:
            fleet.shutdown()

    def test_concurrent_roll_is_rejected_typed(self, fresh_cache):
        fleet = _fast_fleet(workers=1)
        try:
            # Hold the restart lock as a stand-in for a roll already in
            # progress: the overlapping request must be shed typed (the
            # HTTP layer maps it to 429), never queued behind the first.
            assert fleet._restart_lock.acquire(timeout=5.0)
            try:
                with pytest.raises(OverloadedError):
                    fleet.rolling_restart()
            finally:
                fleet._restart_lock.release()
            # Once the first roll finishes, the next one proceeds.
            summary = fleet.rolling_restart(drain_timeout_s=30.0)
            assert summary["recycled"] == 1
        finally:
            fleet.shutdown()
