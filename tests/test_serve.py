"""Serving-layer tests: deadlines, breakers, admission, ladder plumbing.

Everything here is fast (fake clocks, tiny graphs) and runs in tier 1;
the end-to-end wedged-solver scenarios live in ``tests/chaos``.
"""

import time

import pytest

from repro.cluster import make_cluster
from repro.core.compiler import CompilerConfig, compile_design
from repro.core.ladder import (
    TIERS,
    choose_start_tier,
    drain_ladder_log,
    record_tier,
    tier_config,
    tiers_from,
)
from repro.deadline import Deadline, current_deadline, deadline_scope
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    TapaCSError,
)
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.serve.broker import (
    CompileRequest,
    CompileService,
    ServiceConfig,
)

from tests.conftest import build_diamond


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert deadline.total_s == 10.0
        assert not deadline.expired

    def test_expired_check_raises_with_stage(self):
        deadline = Deadline(expires_at=time.monotonic() - 1.0, total_s=2.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check("unit test")
        assert err.value.stage == "unit test"
        assert err.value.total_s == 2.0

    def test_clamp_tightens_limits(self):
        deadline = Deadline.after(5.0)
        assert deadline.clamp(100.0) <= 5.0
        assert deadline.clamp(1.0) == 1.0
        # None (no stage limit) clamps to the remaining budget alone.
        assert 0.0 < deadline.clamp(None) <= 5.0
        expired = Deadline(expires_at=time.monotonic() - 1.0)
        assert expired.clamp(3.0) == 0.0

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        deadline = Deadline.after(1.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            with deadline_scope(None):
                assert current_deadline() is None
            assert current_deadline() is deadline
        assert current_deadline() is None


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        config = BreakerConfig(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            reset_timeout_s=kwargs.pop("reset_timeout_s", 10.0),
            half_open_max_probes=kwargs.pop("half_open_max_probes", 1),
        )
        return CircuitBreaker("test", config, clock=clock), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_cooldown_admits_one_probe(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # claims the single probe slot
        assert not breaker.allow()  # no over-probing

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        snapshot = breaker.snapshot()
        assert snapshot["transitions"] == [OPEN, HALF_OPEN, CLOSED]

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after_s() == pytest.approx(10.0)

    def test_release_frees_the_probe_slot_without_verdict(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.release()  # e.g. a cache hit produced no evidence
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the slot is claimable again


class TestLadder:
    def test_tiers_from(self):
        assert tiers_from("full") == TIERS
        assert tiers_from("coarse") == ("coarse", "greedy")
        with pytest.raises(TapaCSError):
            tiers_from("bogus")

    def test_start_tier_without_deadline_is_the_config_floor(self):
        assert choose_start_tier(None, CompilerConfig()) == "full"
        config = CompilerConfig(ladder_start="greedy")
        assert choose_start_tier(None, config) == "greedy"

    def test_start_tier_descends_with_the_budget(self):
        config = CompilerConfig()
        assert choose_start_tier(Deadline.after(60.0), config) == "full"
        assert choose_start_tier(Deadline.after(3.0), config) == "budget"
        assert choose_start_tier(Deadline.after(1.0), config) == "coarse"
        assert choose_start_tier(Deadline.after(0.1), config) == "greedy"

    def test_config_floor_wins_over_a_comfortable_deadline(self):
        config = CompilerConfig(ladder_start="coarse")
        assert choose_start_tier(Deadline.after(60.0), config) == "coarse"

    def test_full_tier_without_deadline_is_identity(self):
        # Cache-parity invariant: no deadline pressure means the full
        # tier must not perturb the config at all.
        config = CompilerConfig()
        specialized = tier_config(config, "full", None)
        assert specialized == config

    def test_greedy_tier_swaps_every_ilp_stage(self):
        config = CompilerConfig()
        greedy = tier_config(config, "greedy", None)
        assert greedy.inter.method == "greedy"
        assert greedy.intra.method == "greedy"
        assert not greedy.enable_hbm_exploration

    def test_budget_tier_caps_solver_time(self):
        config = CompilerConfig()
        budget = tier_config(config, "budget", Deadline.after(100.0))
        assert budget.inter.time_limit is not None
        assert budget.inter.time_limit <= 5.0

    def test_ladder_start_is_validated(self):
        with pytest.raises(TapaCSError):
            CompilerConfig(ladder_start="bogus")

    def test_ladder_log_drains(self):
        drain_ladder_log()
        record_tier("full", ok=False, error=TapaCSError("x"))
        record_tier("budget", ok=True)
        entries = drain_ladder_log()
        assert [e["tier"] for e in entries] == ["full", "budget"]
        assert entries[0]["error"] == "TapaCSError"
        assert drain_ladder_log() == []


class TestStageTimeoutConvention:
    """0 and None both mean "disabled" for every stage timeout."""

    def test_ilp_time_limit(self):
        from repro.ilp.solver import _effective_time_limit

        assert _effective_time_limit(0) is None
        assert _effective_time_limit(0.0) is None
        assert _effective_time_limit(None) is None
        assert _effective_time_limit(3.5) == 3.5

    def test_ilp_time_limit_clamps_to_deadline(self):
        from repro.ilp.solver import _effective_time_limit

        with deadline_scope(Deadline.after(2.0)):
            assert _effective_time_limit(0) <= 2.0
            assert _effective_time_limit(100.0) <= 2.0

    def test_synthesis_task_timeout(self):
        from repro.hls.synthesis import _resolve_task_timeout

        assert _resolve_task_timeout(0) is None
        assert _resolve_task_timeout(0.0) is None
        assert _resolve_task_timeout(12.0) == 12.0

    def test_simulation_watchdog(self):
        from repro.sim.execution import SimulationConfig, simulate

        design = compile_design(build_diamond(), make_cluster(2))
        # A zero watchdog must mean "no watchdog", not "trip instantly".
        result = simulate(
            design, SimulationConfig(max_sim_seconds=0, max_events=0)
        )
        assert result.latency_s > 0


def _service(**kwargs):
    defaults = dict(workers=1, max_queue=2)
    defaults.update(kwargs)
    return CompileService(ServiceConfig(**defaults))


class TestAdmissionControl:
    def test_queue_full_sheds_with_retry_hint(self):
        service = _service(workers=1, max_queue=0)
        # Zero queue depth: the first submit already exceeds it.
        with pytest.raises(OverloadedError) as err:
            service.submit(
                CompileRequest(graph=build_diamond(), cluster=make_cluster(2))
            )
        assert err.value.retry_after_s >= 0.5
        assert service.counters["shed"] == 1
        service.shutdown()

    def test_class_limit_sheds(self):
        service = _service(
            workers=1, max_queue=64,
            class_limits={"interactive": 0, "batch": 8},
        )
        with pytest.raises(OverloadedError):
            service.submit(
                CompileRequest(
                    graph=build_diamond(),
                    cluster=make_cluster(2),
                    priority="interactive",
                )
            )
        service.shutdown()

    def test_execute_round_trip(self):
        service = _service(workers=1, max_queue=8)
        design = service.execute(
            CompileRequest(
                graph=build_diamond(),
                cluster=make_cluster(2),
                use_cache=False,
            )
        )
        assert design.floorplan_tier == "full"
        assert service.counters["completed"] == 1
        health = service.health()
        assert health["breakers"]["ilp"]["state"] == CLOSED
        assert health["counters"]["degraded_tier"] == 0
        service.shutdown()

    def test_expired_deadline_is_a_queue_wait_miss(self):
        service = _service(workers=1, max_queue=8)
        pending = service.submit(
            CompileRequest(
                graph=build_diamond(),
                cluster=make_cluster(2),
                deadline_s=1e-9,
                use_cache=False,
            )
        )
        with pytest.raises(DeadlineExceededError):
            pending.result(timeout=60.0)
        assert service.counters["deadline_misses"] == 1
        service.shutdown()


class TestServiceParity:
    def test_undeadlined_service_compile_matches_direct(self):
        from repro.graph.serialize import design_summary

        graph = build_diamond()
        cluster = make_cluster(2)
        direct = compile_design(graph, cluster, CompilerConfig())
        service = _service(workers=1, max_queue=8)
        via_service = service.execute(
            CompileRequest(graph=graph, cluster=cluster, use_cache=False)
        )
        service.shutdown()

        def stable(design):
            summary = design_summary(design)
            # Wall-clock timings legitimately differ between runs; every
            # design-describing field must not.
            for key in ("floorplan_seconds", "stage_seconds"):
                summary.pop(key, None)
            return summary

        assert stable(via_service) == stable(direct)
        assert via_service.floorplan_tier == direct.floorplan_tier == "full"


@pytest.fixture
def fresh_cache(tmp_path):
    import repro.perf.cache as cache_module

    cache = cache_module.DesignCache(directory=str(tmp_path), enabled=True)
    saved = cache_module._GLOBAL_CACHE
    cache_module._GLOBAL_CACHE = cache
    yield cache
    cache_module._GLOBAL_CACHE = saved


class TestDegradedCachePolicy:
    # Each call compiles a freshly built graph: synthesis annotates
    # resource estimates onto the tasks, so reusing one graph object
    # would change its fingerprint between calls.

    def test_degraded_results_are_not_stored(self, fresh_cache):
        from repro.perf.cache import cached_compile

        cluster = make_cluster(2)
        config = CompilerConfig(ladder_start="greedy")
        design = cached_compile(build_diamond(), cluster, config)
        assert design.floorplan_tier == "greedy"
        assert fresh_cache.stats.degraded_compiles == 1
        assert fresh_cache.stats.stores == 0
        # A repeat compile is a miss again: nothing was stored.
        cached_compile(build_diamond(), cluster, config)
        assert fresh_cache.stats.degraded_compiles == 2
        assert fresh_cache.stats.hits == 0

    def test_full_results_still_cache(self, fresh_cache):
        from repro.perf.cache import cached_compile

        cluster = make_cluster(2)
        first = cached_compile(build_diamond(), cluster)
        second = cached_compile(build_diamond(), cluster)
        assert fresh_cache.stats.hits == 1
        assert first.floorplan_tier == second.floorplan_tier == "full"


def _pad_queue(service, count: int) -> None:
    """Park `count` inert items in the fair scheduler (depth only)."""
    import types

    for _ in range(count):
        service._queue.push(
            types.SimpleNamespace(submitted_at=0.0), "batch", "pad"
        )


class TestRetryAfterEstimate:
    """The Retry-After hint scales with queue depth and class pressure."""

    def test_scales_with_queue_depth(self):
        service = _service(workers=1, max_queue=64)
        with service._lock:
            service._ewma_service_s = 2.0
            shallow = service._retry_after_estimate()
            _pad_queue(service, 6)  # depth only; never popped
            deep = service._retry_after_estimate()
            service._queue.clear()
        assert deep > shallow
        assert deep == pytest.approx(7 * 2.0, rel=0.01)
        service.shutdown()

    def test_scales_with_class_saturation(self):
        service = _service(
            workers=4, max_queue=64,
            class_limits={"interactive": 2, "batch": 8},
        )
        with service._lock:
            service._ewma_service_s = 3.0
            idle = service._retry_after_estimate("interactive")
            service._admitted["interactive"] = 2  # lane full
            saturated = service._retry_after_estimate("interactive")
            service._admitted["interactive"] = 0
        assert saturated > idle
        # One of the two interactive slots must turn over first.
        assert saturated >= 3.0 / 2
        service.shutdown()

    def test_bounded_both_ways(self):
        service = _service(workers=1, max_queue=64)
        with service._lock:
            service._ewma_service_s = 1e-6
            floor = service._retry_after_estimate()
            service._ewma_service_s = 1e6
            _pad_queue(service, 10)
            ceiling = service._retry_after_estimate()
            service._queue.clear()
        assert floor == 0.5
        assert ceiling == 60.0
        service.shutdown()


class TestHealthDocument:
    def test_status_shape_for_fleet_dashboards(self):
        service = _service(workers=2, max_queue=8)
        health = service.health()
        assert health["status"] == "ok"
        assert health["mode"] == "threads"
        assert health["queue"]["by_class"] == {"interactive": 0, "batch": 0}
        assert set(health["retry_after_hint_s"]) == {"interactive", "batch"}
        assert "coalesced" in health["counters"]
        assert "drain_rejected" in health["counters"]
        assert "hits" in health["cache"]
        assert "fleet" not in health, "no fleet section in thread mode"
        service.shutdown()

    def test_queue_depth_reported_per_class(self, monkeypatch):
        service = _service(workers=1, max_queue=8)
        # Stall the (single) worker inside the backend so queued
        # requests stay visible; use_cache=False routes every request
        # through compile_design (and skips fingerprint coalescing).
        import threading

        import repro.core.compiler as compiler_module

        release = threading.Event()
        real = compiler_module.compile_design

        def gated(*args, **kwargs):
            release.wait(timeout=10.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(compiler_module, "compile_design", gated)
        try:
            def request(priority):
                return CompileRequest(
                    graph=build_diamond(),
                    cluster=make_cluster(2),
                    priority=priority,
                    use_cache=False,
                )

            # Plug the single worker first (the fair scheduler would
            # otherwise pop the interactive request ahead of the plug).
            handles = [service.submit(request("batch"))]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if service.health()["queue"]["depth"] == 0:
                    break
                time.sleep(0.01)
            handles += [
                service.submit(request("batch")),
                service.submit(request("interactive")),
            ]
            # The plug is on the worker; exactly two must be queued.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if service.health()["queue"]["depth"] == 2:
                    break
                time.sleep(0.01)
            by_class = service.health()["queue"]["by_class"]
            assert by_class == {"interactive": 1, "batch": 1}
            by_tenant = service.health()["queue"]["by_tenant"]
            assert sum(by_tenant.values()) == 2
        finally:
            release.set()
            for handle in handles:
                handle.result(timeout=60.0)
            service.shutdown()


class TestTenantAdmission:
    """Tenant plumbing through the broker: quotas, typed rejections."""

    def _quota_service(self, rate=1.0, burst=1.0, **kwargs):
        from repro.serve.quota import QuotaConfig, TenantLimits

        return _service(
            workers=1, max_queue=8,
            quota=QuotaConfig(default=TenantLimits(rate=rate, burst=burst)),
            **kwargs,
        )

    def test_over_quota_submit_sheds_with_typed_error(self):
        from repro.errors import QuotaExceededError

        service = self._quota_service(rate=0.001, burst=1.0)
        request = CompileRequest(
            graph=build_diamond(), cluster=make_cluster(2), tenant="acme"
        )
        service.execute(request)
        with pytest.raises(QuotaExceededError) as err:
            service.submit(
                CompileRequest(
                    graph=build_diamond(), cluster=make_cluster(2),
                    tenant="acme",
                )
            )
        assert err.value.tenant == "acme"
        assert isinstance(err.value, OverloadedError)
        assert service.counters["quota_shed"] == 1
        health = service.health()
        assert health["tenants"]["acme"]["shed"] == 1
        assert health["counters"]["quota_shed"] == 1
        service.shutdown()

    def test_quota_guards_even_coalesced_fingerprints(self):
        """An abusive tenant cannot dodge its bucket via a popular key."""
        from repro.errors import QuotaExceededError

        service = self._quota_service(rate=0.001, burst=1.0)
        first = service.submit(
            CompileRequest(
                graph=build_diamond(), cluster=make_cluster(2), tenant="acme"
            )
        )
        # The identical request would coalesce — but the bucket is
        # consulted first, so the duplicate is shed, not attached.
        with pytest.raises(QuotaExceededError):
            service.submit(
                CompileRequest(
                    graph=build_diamond(), cluster=make_cluster(2),
                    tenant="acme",
                )
            )
        assert service.counters["coalesced"] == 0
        first.result(timeout=60.0)
        service.shutdown()

    def test_unknown_priority_is_rejected_not_coerced(self):
        from repro.errors import InvalidRequestError

        service = _service(workers=1, max_queue=8)
        with pytest.raises(InvalidRequestError) as err:
            service.submit(
                CompileRequest(
                    graph=build_diamond(), cluster=make_cluster(2),
                    priority="urgent",
                )
            )
        # The message teaches the caller the valid class names.
        assert "urgent" in str(err.value)
        assert "interactive" in str(err.value)
        assert "batch" in str(err.value)
        assert service.counters["rejected_priority"] == 1
        # The rejection is visible to `serve --status` dashboards.
        assert service.health()["counters"]["rejected_priority"] == 1
        service.shutdown()

    def test_default_tenant_for_unnamed_requests(self):
        from repro.serve.quota import DEFAULT_TENANT

        service = _service(workers=1, max_queue=8)
        service.execute(
            CompileRequest(graph=build_diamond(), cluster=make_cluster(2))
        )
        assert DEFAULT_TENANT in service.health()["tenants"]
        service.shutdown()


class TestBrownoutIntegration:
    """The broker's pressure signal drives the ceiling, which clamps
    dispatched configs."""

    def test_pressure_tracks_queue_and_breakers(self):
        service = _service(workers=1, max_queue=4)
        with service._lock:
            assert service._pressure_signal() == 0.0
            _pad_queue(service, 4)
            assert service._pressure_signal() == 1.0
            service._queue.clear()
            service.breakers["ilp"]._state = OPEN
            service.breakers["ilp"]._opened_at = time.monotonic()
            assert service._pressure_signal() == 1.0
            service.breakers["ilp"]._state = CLOSED
            service._miss_ewma = 0.9
            assert service._pressure_signal() == pytest.approx(0.9)
        service.shutdown()

    def test_browned_out_service_compiles_degraded(self):
        from repro.serve.brownout import BrownoutConfig

        service = _service(
            workers=1, max_queue=8,
            brownout=BrownoutConfig(degrade_after_s=0.0, restore_after_s=60.0),
        )
        # Force the ceiling down two steps (observe twice under full
        # pressure; zero dwell makes each sample a step).
        with service._lock:
            service.brownout.observe(1.0)
            service.brownout.observe(1.0)
            service.brownout.observe(1.0)
        assert service.brownout.ceiling == TIERS[2]
        design = service.execute(
            CompileRequest(
                graph=build_diamond(), cluster=make_cluster(2),
                use_cache=False,
            )
        )
        assert design.floorplan_tier == TIERS[2]
        assert service.counters["brownout_degraded"] == 1
        assert service.health()["brownout"]["ceiling"] == TIERS[2]
        service.shutdown()

    def test_health_document_has_brownout_section(self):
        service = _service(workers=1, max_queue=8)
        brownout = service.health()["brownout"]
        assert brownout["ceiling"] == "full"
        assert brownout["enabled"] is True
        assert brownout["active"] is False
        service.shutdown()


class TestRetryHintRoundTrip:
    """Satellite: the retry hint survives every transport (HTTP header,
    HTTP JSON body, CLI --json envelope) without shrinking."""

    @staticmethod
    def _post(port: int, body: dict):
        import json as json_module
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/compile",
            data=json_module.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, dict(response.headers), \
                    json_module.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, dict(err.headers), json_module.loads(err.read())

    @staticmethod
    def _serve(service):
        import threading

        from repro.serve.server import make_server

        server = make_server("127.0.0.1", 0, service)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, port

    def test_429_header_never_below_json_hint(self):
        service = _service(workers=1, max_queue=0)  # everything sheds
        server, port = self._serve(service)
        try:
            with service._lock:
                service._ewma_service_s = 1.4  # a fractional hint
            status, headers, body = self._post(port, {"app": "stencil"})
            assert status == 429
            assert body["error"] == "OverloadedError"
            assert body["retry_after_s"] > 0
            # Rounded UP: the header must never invite a too-early retry.
            assert int(headers["Retry-After"]) >= body["retry_after_s"]
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()

    def test_quota_shed_maps_to_429_with_tenant(self):
        from repro.serve.quota import QuotaConfig, TenantLimits

        service = _service(
            workers=1, max_queue=8,
            quota=QuotaConfig(default=TenantLimits(rate=0.001, burst=1.0)),
        )
        server, port = self._serve(service)
        try:
            status, _, _ = self._post(
                port, {"app": "stencil", "tenant": "acme"}
            )
            assert status == 200
            status, headers, body = self._post(
                port, {"app": "stencil", "tenant": "acme"}
            )
            assert status == 429
            assert body["error"] == "QuotaExceededError"
            assert body["tenant"] == "acme"
            assert int(headers["Retry-After"]) >= body["retry_after_s"]
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()

    def test_503_drain_keeps_the_hint(self):
        service = _service(workers=1, max_queue=8)
        server, port = self._serve(service)
        try:
            with service._lock:
                service._draining = True
            status, headers, body = self._post(port, {"app": "stencil"})
            assert status == 503
            assert body["error"] == "DrainingError"
            assert int(headers["Retry-After"]) >= body["retry_after_s"]
        finally:
            with service._lock:
                service._draining = False
            server.shutdown()
            server.server_close()
            service.shutdown()

    def test_unknown_class_maps_to_400_without_retry_after(self):
        service = _service(workers=1, max_queue=8)
        server, port = self._serve(service)
        try:
            status, headers, body = self._post(
                port, {"app": "stencil", "class": "urgent"}
            )
            assert status == 400
            assert body["error"] == "InvalidRequestError"
            assert "Retry-After" not in headers
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()

    def test_cli_json_envelope_carries_the_hint(self, tmp_path, capsys):
        import json as json_module

        from repro.cli import main
        from repro.graph.serialize import dumps
        from repro.serve.broker import configure_service, reset_service

        graph_path = tmp_path / "diamond.json"
        graph_path.write_text(dumps(build_diamond()))
        # A zero-depth queue sheds the CLI's own submit.
        configure_service(ServiceConfig(workers=1, max_queue=0))
        try:
            with pytest.raises(SystemExit) as err:
                main(["compile", str(graph_path), "--json",
                      "--tenant", "cli-tenant"])
            assert err.value.code == 4  # overloaded
            envelope = json_module.loads(capsys.readouterr().out)
            assert envelope["error"] == "OverloadedError"
            assert envelope["retry_after_s"] > 0
            assert envelope["exit_code"] == 4
        finally:
            reset_service()


class TestJournalHealthSchema:
    """The ``repro serve --status`` journal section must keep a stable
    shape: dashboards and the chaos harness key off these fields, and
    the enabled/disabled variants must agree so a scraper never branches
    on which keys exist."""

    EXPECTED_KEYS = {
        "enabled", "path", "error",
        "replayed_at_boot", "incomplete_at_boot", "unreplayable_at_boot",
        "live_entries", "dedup_entries", "dedup_hits",
        "appends", "synced_appends", "append_failures", "checkpoints",
        "append_wall_s",
    }

    def test_disabled_shape(self):
        service = _service()
        try:
            doc = service.health()
            assert set(doc["journal"]) == self.EXPECTED_KEYS
            assert doc["journal"]["enabled"] is False
            assert doc["journal"]["path"] is None
            assert "tenants_evicted" in doc
        finally:
            service.shutdown(wait=False)

    def test_enabled_shape_matches_disabled(self, tmp_path):
        service = _service(journal_dir=str(tmp_path / "journal"))
        try:
            doc = service.health()["journal"]
            assert set(doc) == self.EXPECTED_KEYS
            assert doc["enabled"] is True
            assert doc["path"].endswith("serve-wal.jsonl")
            assert doc["error"] is None
            assert all(
                isinstance(doc[key], int) for key in (
                    "replayed_at_boot", "incomplete_at_boot",
                    "unreplayable_at_boot", "live_entries", "dedup_entries",
                    "dedup_hits", "appends", "synced_appends",
                    "append_failures", "checkpoints",
                )
            )
        finally:
            service.shutdown(wait=False)

    def test_open_failure_surfaces_error_not_crash(self, tmp_path):
        """Availability over durability: an unusable journal directory
        degrades to journal-off serving with the error in health."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where a directory must go")
        service = _service(journal_dir=str(blocked))
        try:
            doc = service.health()["journal"]
            assert set(doc) == self.EXPECTED_KEYS
            assert doc["enabled"] is False
            assert doc["error"]
        finally:
            service.shutdown(wait=False)


class TestOneFrontDoor:
    """The HTTP body's target fields resolve exactly like the CLI's
    ``--flow``/``--fpgas``/``--topology``/``--part``."""

    @staticmethod
    def _body(**fields):
        from repro.serve.server import _request_from_body

        return _request_from_body({"app": "stencil", **fields})

    def test_vitis_flow_is_the_one_fpga_baseline(self):
        request = self._body(flow="vitis", fpgas=2)
        assert request.flow == "vitis"
        assert request.cluster.num_devices == 1
        assert request.config.enable_intra_floorplan is False

    def test_tapa_flow_is_one_device_with_the_default_config(self):
        request = self._body(flow="tapa", fpgas=2)
        assert request.flow == "tapa"
        assert request.cluster.num_devices == 1
        assert request.config is None

    @pytest.mark.parametrize("flow", ["tapa-cs", "tapa", "vitis"])
    def test_body_and_flags_build_one_request(
        self, flow, tmp_path, monkeypatch
    ):
        from repro.cli import main
        from repro.graph.serialize import dumps
        from repro.perf.fingerprint import fingerprint_compile

        sent = []

        def capture(service, request):
            sent.append(request)
            raise TapaCSError("captured")

        monkeypatch.setattr(CompileService, "execute", capture)
        body = self._body(flow=flow, fpgas=4, topology="ring")
        path = tmp_path / "stencil.json"
        path.write_text(dumps(body.graph))
        with pytest.raises(SystemExit):
            main(["compile", str(path), "--flow", flow, "--fpgas", "4",
                  "--topology", "ring"])
        [flags] = sent

        def target_key(request):
            return fingerprint_compile(
                body.graph, request.cluster,
                request.config or CompilerConfig(), request.flow,
            )

        assert (flags.flow, flags.kind) == (body.flow, body.kind)
        assert target_key(flags) == target_key(body)

    @pytest.mark.parametrize("label, flow, fpgas", [
        ("F1-V", "vitis", 2), ("F1-T", "tapa", 2), ("F2", "tapa-cs", 2),
    ])
    def test_bench_labels_resolve_like_bodies(self, label, flow, fpgas):
        """The bench's paper labels and the HTTP body share one
        resolver: same cluster, same compiler config."""
        from repro.apps.common import flow_target
        from repro.perf.fingerprint import fingerprint_compile

        body = self._body(flow=flow, fpgas=fpgas)
        cluster, config, _ = flow_target(label)
        assert fingerprint_compile(
            body.graph, cluster, config, flow
        ) == fingerprint_compile(
            body.graph, body.cluster, body.config or CompilerConfig(), flow
        )

    def test_unknown_flow_is_a_400(self):
        service = _service(workers=1, max_queue=8)
        server, port = TestRetryHintRoundTrip._serve(service)
        try:
            status, headers, body = TestRetryHintRoundTrip._post(
                port, {"app": "stencil", "flow": "vivado"}
            )
            assert status == 400
            assert body["error"] == "InvalidRequestError"
            assert "vivado" in body["message"]
            assert "Retry-After" not in headers
            assert service.counters["submitted"] == 0
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()


class TestDesignRuleEnvelope:
    """A DRC rejection keeps its structured diagnostics in the JSON
    envelope: the HTTP 422 body (thread and fleet mode) and the CLI's
    ``--json`` output."""

    @staticmethod
    def _has_g101(envelope: dict) -> bool:
        return any(
            d["rule"] == "G101" and d["severity"] == "error"
            for d in envelope.get("diagnostics", [])
        )

    @pytest.mark.parametrize("fleet_workers", [0, 1], ids=["threads", "fleet"])
    def test_http_422_carries_the_diagnostics(self, fleet_workers):
        from repro.graph.serialize import graph_to_dict

        from tests.test_check import build_deadlock

        service = _service(
            workers=1, max_queue=8, fleet_workers=fleet_workers
        )
        server, port = TestRetryHintRoundTrip._serve(service)
        try:
            status, _, body = TestRetryHintRoundTrip._post(
                port,
                {"graph": graph_to_dict(build_deadlock()), "use_cache": False},
            )
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
        assert status == 422
        assert body["error"] == "DesignRuleError"
        assert self._has_g101(body), body

    def test_cli_json_envelope_carries_the_diagnostics(
        self, tmp_path, capsys
    ):
        import json as json_module

        from repro.cli import main
        from repro.graph.serialize import dumps
        from repro.serve.broker import configure_service, reset_service

        from tests.test_check import build_deadlock

        graph_path = tmp_path / "jam.json"
        graph_path.write_text(dumps(build_deadlock()))
        configure_service(ServiceConfig(workers=1, max_queue=8))
        try:
            with pytest.raises(SystemExit) as err:
                main(["compile", str(graph_path), "--json"])
            envelope = json_module.loads(capsys.readouterr().out)
        finally:
            reset_service()
        assert err.value.code == 1
        assert envelope["error"] == "DesignRuleError"
        assert self._has_g101(envelope), envelope


class TestCallerThreadExecution:
    """``execute()`` runs its request on the calling thread: the broker
    admits the request and hands out execution slots, but owns no
    worker threads."""

    @staticmethod
    def _request(use_cache: bool = True):
        return CompileRequest(
            graph=build_diamond(), cluster=make_cluster(2), use_cache=use_cache
        )

    def test_thread_mode_runs_the_request_on_the_caller(self, monkeypatch):
        import threading

        import repro.serve.broker as broker_module

        ran_on = []
        original = broker_module.run_request

        def recording(request, deadline):
            ran_on.append(threading.get_ident())
            return original(request, deadline)

        monkeypatch.setattr(broker_module, "run_request", recording)
        service = _service(workers=2, max_queue=8)
        try:
            service.execute(self._request())
        finally:
            service.shutdown()
        assert ran_on == [threading.get_ident()]

    def test_fleet_mode_calls_the_fleet_on_the_caller(self, monkeypatch):
        import threading

        from repro.serve.fleet import WorkerFleet

        ran_on = []
        original = WorkerFleet.run

        def recording(fleet, request, deadline, *args, **kwargs):
            ran_on.append(threading.get_ident())
            return original(fleet, request, deadline, *args, **kwargs)

        monkeypatch.setattr(WorkerFleet, "run", recording)
        service = _service(workers=1, max_queue=8, fleet_workers=1)
        try:
            # Uncached: a cached design is answered without the fleet.
            design = service.execute(self._request(use_cache=False))
        finally:
            service.shutdown()
        assert design.floorplan_tier == "full"
        assert ran_on == [threading.get_ident()]

    def test_no_thread_of_its_own_outlives_the_requests(self, monkeypatch):
        """Four callers on two slots, with a short switch interval: no
        more than two requests ever run at once, every call completes,
        and the service is left with no thread but the brownout ticker."""
        import sys
        import threading

        import repro.serve.broker as broker_module

        guard, running, peak = threading.Lock(), [0], [0]

        def counted(request, deadline):
            with guard:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.001)
            with guard:
                running[0] -= 1
            return "ok"

        monkeypatch.setattr(broker_module, "run_request", counted)
        before = set(threading.enumerate())
        service = _service(workers=2, max_queue=8)
        errors = []

        def caller():
            try:
                for _ in range(25):
                    # Uncached: no two calls coalesce, each one runs.
                    request = self._request(use_cache=False)
                    assert service.execute(request) == "ok"
            except BaseException as exc:  # pragma: no cover - fails below
                errors.append(exc)

        callers = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in callers)
            assert not errors, errors
            assert service.counters["completed"] == 100
            assert 1 <= peak[0] <= 2
            assert service._admitted == {"interactive": 0, "batch": 0}
            assert not service._queue
            alive = [
                thread.name for thread in threading.enumerate()
                if thread not in before and thread.is_alive()
            ]
        finally:
            sys.setswitchinterval(interval)
            service.shutdown()
        assert alive == ["repro-serve-brownout"]

    def test_interrupt_in_a_request_reaches_the_caller_and_frees_its_slot(
        self, monkeypatch
    ):
        import repro.serve.broker as broker_module

        calls = []

        def interrupted_once(request, deadline):
            calls.append(request)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return "ok"

        monkeypatch.setattr(broker_module, "run_request", interrupted_once)
        service = _service(workers=1, max_queue=8)
        try:
            with pytest.raises(KeyboardInterrupt):
                service.execute(self._request())
            assert service._admitted == {"interactive": 0, "batch": 0}
            assert service.execute(self._request()) == "ok"
            assert service.counters["failed"] == 1
            assert service.counters["completed"] == 1
        finally:
            service.shutdown()

    def test_interrupt_while_waiting_for_a_slot_hands_the_request_on(
        self, monkeypatch
    ):
        """A caller interrupted before its request gets a slot: the
        request was admitted (others may have joined it), so it runs on
        a thread of its own and gives its slot back."""
        import repro.serve.broker as broker_module

        class InterruptedOnce:
            def __init__(self, event):
                self.event, self.raised = event, False

            def wait(self, timeout=None):
                if not self.raised:
                    self.raised = True
                    raise KeyboardInterrupt
                return self.event.wait(timeout)

            def set(self):
                self.event.set()

        original = broker_module.CompileService._submit

        def interrupted_submit(service, request, sync_accept):
            pending, queued = original(service, request, sync_accept)
            pending.granted = InterruptedOnce(pending.granted)
            return pending, queued

        monkeypatch.setattr(
            broker_module, "run_request", lambda request, deadline: "ok"
        )
        monkeypatch.setattr(
            broker_module.CompileService, "_submit", interrupted_submit
        )
        service = _service(workers=1, max_queue=8)
        try:
            with pytest.raises(KeyboardInterrupt):
                service.execute(self._request(use_cache=False))
            assert service._wait_idle(10.0)
            assert service.counters["completed"] == 1
            assert service._admitted == {"interactive": 0, "batch": 0}
        finally:
            service.shutdown()
