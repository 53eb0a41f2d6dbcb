"""Single-flight coalescing: K identical concurrent requests, one compile.

The broker keys in-flight requests by the same content fingerprint as
the artifact cache, so "identical" means *provably identical output*.
Duplicates attach to the in-flight leader's handle — no queue slot, no
class-limit slot, no second compile — and every waiter gets the one
result.  The deterministic scenario here holds the leader inside the
backend compile until all duplicates have submitted, so the assertion
"exactly one backend compile" cannot pass by lucky timing.
"""

import threading
import time

import pytest

from repro.cluster import paper_testbed
from repro.errors import DrainingError
from repro.serve.broker import CompileRequest, CompileService, ServiceConfig

from tests.conftest import build_chain, build_diamond


@pytest.fixture
def fresh_cache(tmp_path):
    import repro.perf.cache as cache_module

    cache = cache_module.DesignCache(directory=str(tmp_path), enabled=True)
    saved = cache_module._GLOBAL_CACHE
    cache_module._GLOBAL_CACHE = cache
    yield cache
    cache_module._GLOBAL_CACHE = saved


@pytest.fixture
def service():
    svc = CompileService(ServiceConfig(workers=2, max_queue=4))
    yield svc
    svc.shutdown(wait=False)


def _request(**kwargs) -> CompileRequest:
    defaults = dict(graph=build_diamond(), cluster=paper_testbed())
    defaults.update(kwargs)
    return CompileRequest(**defaults)


class TestCoalescing:
    def test_hundred_identical_requests_one_compile(
        self, service, fresh_cache, monkeypatch
    ):
        """The acceptance scenario: 100 concurrent identical submits →
        exactly 1 backend compile, 100 successful results, 99 coalesced."""
        import repro.perf.cache as cache_module

        real = cache_module.cached_compile
        compile_calls = []
        release = threading.Event()

        def gated_compile(*args, **kwargs):
            compile_calls.append(1)
            release.wait(timeout=30.0)  # hold until all 100 are in
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "cached_compile", gated_compile)

        results: list = []
        errors: list = []

        def submit_one():
            try:
                results.append(service.execute(_request()))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=submit_one) for _ in range(100)]
        for thread in threads:
            thread.start()
        # Every one of the 100 has passed admission once the counter
        # says so; only then may the leader's compile proceed.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with service._lock:
                if service.counters["submitted"] >= 100:
                    break
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(timeout=30.0)

        assert not errors
        assert len(results) == 100
        assert len(compile_calls) == 1, "exactly one backend compile"
        assert service.counters["coalesced"] == 99
        assert service.counters["completed"] == 1
        assert service.counters["shed"] == 0
        first = results[0]
        assert all(design is first for design in results), (
            "every waiter observes the single flight's result"
        )

    def test_coalesced_requests_bypass_admission_limits(
        self, service, fresh_cache, monkeypatch
    ):
        # 100 duplicates vastly exceed max_queue=4 and the batch class
        # limit; none may be shed.  Covered by the zero-shed assertion
        # above, but pin the queue-depth invariant separately.
        import repro.perf.cache as cache_module

        real = cache_module.cached_compile
        release = threading.Event()
        monkeypatch.setattr(
            cache_module,
            "cached_compile",
            lambda *a, **k: (release.wait(10.0), real(*a, **k))[1],
        )
        handles = []
        leader = service.submit(_request())
        handles.append(leader)
        for _ in range(20):
            handles.append(service.submit(_request()))
        with service._lock:
            assert len(service._queue) <= 1
        assert all(handle is leader for handle in handles)
        assert leader.followers == 20
        release.set()
        assert leader.result(timeout=30.0) is not None

    def test_different_fingerprints_do_not_coalesce(
        self, service, fresh_cache
    ):
        a = service.submit(_request())
        b = service.submit(_request(graph=build_chain()))
        assert a is not b
        assert a.result(timeout=60.0) is not b.result(timeout=60.0)

    def test_kind_is_part_of_the_key(self, service, fresh_cache):
        compile_handle = service.submit(_request())
        simulate_handle = service.submit(_request(kind="simulate"))
        assert compile_handle is not simulate_handle
        compile_handle.result(timeout=60.0)
        simulate_handle.result(timeout=60.0)

    def test_uncached_requests_never_coalesce(self, service, fresh_cache):
        # use_cache=False is an explicit ask to recompute: two of them
        # must both run.
        a = service.submit(_request(use_cache=False))
        b = service.submit(_request(use_cache=False))
        assert a is not b
        a.result(timeout=60.0)
        b.result(timeout=60.0)
        assert service.counters["coalesced"] == 0


class TestDeadlinePoisoningGuard:
    def test_unhurried_follower_skips_deadlined_leader(
        self, service, fresh_cache, monkeypatch
    ):
        # A leader compiling under a tight deadline may return a
        # degraded floorplan tier.  An unhurried duplicate must NOT
        # attach to it — it is entitled to the full-quality answer.
        import repro.perf.cache as cache_module

        real = cache_module.cached_compile
        release = threading.Event()
        monkeypatch.setattr(
            cache_module,
            "cached_compile",
            lambda *a, **k: (release.wait(10.0), real(*a, **k))[1],
        )
        leader = service.submit(_request(deadline_s=30.0))
        follower = service.submit(_request())  # no deadline
        assert follower is not leader
        release.set()
        leader.result(timeout=30.0)
        follower.result(timeout=30.0)
        assert service.counters["coalesced"] == 0

    def test_tighter_follower_rides_deadlined_leader(
        self, service, fresh_cache, monkeypatch
    ):
        import repro.perf.cache as cache_module

        real = cache_module.cached_compile
        release = threading.Event()
        monkeypatch.setattr(
            cache_module,
            "cached_compile",
            lambda *a, **k: (release.wait(10.0), real(*a, **k))[1],
        )
        leader = service.submit(_request(deadline_s=10.0))
        follower = service.submit(_request(deadline_s=30.0))
        assert follower is leader  # leader is stricter: safe to share
        release.set()
        leader.result(timeout=30.0)
        assert service.counters["coalesced"] == 1


class TestDrainRejectsNewWork:
    def test_draining_submit_raises_typed_with_hint(self, fresh_cache):
        svc = CompileService(ServiceConfig(workers=1, max_queue=4))
        try:
            with svc._lock:
                svc._draining = True
            with pytest.raises(DrainingError) as excinfo:
                svc.submit(_request())
            assert excinfo.value.retry_after_s > 0
            assert svc.counters["drain_rejected"] == 1
        finally:
            with svc._lock:
                svc._draining = False
            svc.shutdown(wait=False)

    def test_drain_completes_admitted_work(self, fresh_cache):
        svc = CompileService(ServiceConfig(workers=2, max_queue=8))
        handles = [svc.submit(_request()) for _ in range(2)]
        assert svc.drain(timeout_s=60.0) is True
        for handle in handles:
            assert handle.result(timeout=1.0) is not None
        with pytest.raises(DrainingError):
            svc.submit(_request())


class TestFollowerRefundOnLeaderCrash:
    """A coalesced follower paid a quota token for work the leader then
    failed with :class:`WorkerCrashError`.  The failure is the fleet's,
    not the follower's — the token comes back, exactly once."""

    def test_followers_get_typed_error_and_one_refund_each(
        self, fresh_cache, monkeypatch
    ):
        from repro.errors import WorkerCrashError
        from repro.serve.quota import QuotaConfig, TenantLimits
        import repro.perf.cache as cache_module

        release = threading.Event()

        def crashing_compile(*args, **kwargs):
            release.wait(timeout=30.0)
            raise WorkerCrashError("worker lost mid-compile", failovers=2)

        monkeypatch.setattr(cache_module, "cached_compile", crashing_compile)
        quota = QuotaConfig(
            default=TenantLimits(rate=0.0),  # leader tenant: unlimited
            overrides={
                # Negligible refill so token counts are stable to read.
                "fan-a": TenantLimits(rate=0.0001, burst=5.0),
                "fan-b": TenantLimits(rate=0.0001, burst=5.0),
            },
        )
        service = CompileService(
            ServiceConfig(workers=2, max_queue=8, quota=quota)
        )
        try:
            # Pull each follower bucket off its burst cap so a refund is
            # visible (refund clamps at burst).
            service.quotas.admit("fan-a")
            service.quotas.admit("fan-b")
            tokens_before = {
                t: service.quotas._tenants[t].bucket.tokens
                for t in ("fan-a", "fan-b")
            }

            leader = service.submit(_request(tenant="lead"))
            follower_a = service.submit(_request(tenant="fan-a"))
            follower_b = service.submit(_request(tenant="fan-b"))
            assert follower_a is leader and follower_b is leader
            release.set()

            for handle in (leader, follower_a, follower_b):
                with pytest.raises(WorkerCrashError):
                    handle.result(timeout=30.0)

            assert service.counters["follower_refunds"] == 2
            for tenant in ("fan-a", "fan-b"):
                tokens = service.quotas._tenants[tenant].bucket.tokens
                # Exactly one token back: the submit's charge was
                # refunded once (level back to the pre-submit reading),
                # not dropped (level - 1) nor refunded twice (level + 1).
                assert tokens == pytest.approx(
                    tokens_before[tenant], abs=0.01
                )
        finally:
            release.set()
            service.shutdown(wait=False)

    def test_ordinary_failures_do_not_refund(self, fresh_cache, monkeypatch):
        """Only fleet crashes refund: a compile that fails on the merits
        charged every tenant fairly."""
        from repro.serve.quota import QuotaConfig, TenantLimits
        import repro.perf.cache as cache_module

        release = threading.Event()

        def failing_compile(*args, **kwargs):
            release.wait(timeout=30.0)
            raise ValueError("bad graph")

        monkeypatch.setattr(cache_module, "cached_compile", failing_compile)
        quota = QuotaConfig(
            default=TenantLimits(rate=0.0),
            overrides={"fan": TenantLimits(rate=0.0001, burst=5.0)},
        )
        service = CompileService(
            ServiceConfig(workers=2, max_queue=8, quota=quota)
        )
        try:
            service.quotas.admit("fan")
            before = service.quotas._tenants["fan"].bucket.tokens
            leader = service.submit(_request(tenant="lead"))
            follower = service.submit(_request(tenant="fan"))
            assert follower is leader
            release.set()
            with pytest.raises(ValueError):
                follower.result(timeout=30.0)
            assert service.counters["follower_refunds"] == 0
            after = service.quotas._tenants["fan"].bucket.tokens
            assert after == pytest.approx(before - 1.0, abs=0.01)
        finally:
            release.set()
            service.shutdown(wait=False)


class TestFingerprintOnce:
    """A served request is fingerprinted once, at admission: the broker
    hands its key to the worker that runs the request."""

    @staticmethod
    def _count_fingerprints(monkeypatch, path) -> None:
        import repro.perf.cache as cache_module
        import repro.perf.fingerprint as fingerprint_module

        real = fingerprint_module.fingerprint_compile

        def counting(*args, **kwargs):
            # A file, so calls in forked fleet workers count too.
            with open(path, "a") as handle:
                handle.write("call\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(fingerprint_module, "fingerprint_compile", counting)
        monkeypatch.setattr(cache_module, "fingerprint_compile", counting)

    @pytest.mark.parametrize("fleet_workers", [0, 1], ids=["threads", "fleet"])
    def test_cache_hit_fingerprints_once(
        self, fresh_cache, monkeypatch, tmp_path, fleet_workers
    ):
        calls = tmp_path / "fingerprint-calls"
        self._count_fingerprints(monkeypatch, calls)
        service = CompileService(
            ServiceConfig(workers=1, fleet_workers=fleet_workers)
        )
        try:
            service.execute(_request())  # the miss that fills the cache
            calls.write_text("")
            hits = service.health()["cache"]["hits"]
            assert service.execute(_request()) is not None
            assert service.health()["cache"]["hits"] == hits + 1
            assert calls.read_text().count("call") == 1
        finally:
            service.shutdown(wait=False)

    def test_quota_shed_request_is_not_fingerprinted(
        self, fresh_cache, monkeypatch, tmp_path
    ):
        from repro.errors import QuotaExceededError
        from repro.serve.quota import QuotaConfig, TenantLimits

        calls = tmp_path / "fingerprint-calls"
        self._count_fingerprints(monkeypatch, calls)
        quota = QuotaConfig(
            default=TenantLimits(rate=0.0),
            overrides={"capped": TenantLimits(rate=0.0001, burst=1.0)},
        )
        service = CompileService(ServiceConfig(workers=1, quota=quota))
        try:
            service.quotas.admit("capped")  # spend its only token
            with pytest.raises(QuotaExceededError):
                service.execute(_request(tenant="capped"))
        finally:
            service.shutdown(wait=False)
        assert not calls.exists()
        assert service.counters["submitted"] == 1
        assert service.counters["quota_shed"] == 1

    def test_drain_during_the_fingerprint_still_rejects(
        self, fresh_cache, monkeypatch
    ):
        """A drain that begins while a request is fingerprinted rejects
        it, counted once, and its quota token goes back."""
        from repro.serve.quota import QuotaConfig, TenantLimits

        quota = QuotaConfig(default=TenantLimits(rate=0.0001, burst=5.0))
        service = CompileService(ServiceConfig(workers=1, quota=quota))
        real = service._fingerprint

        def drain_meanwhile(request):
            with service._lock:
                service._draining = True
            return real(request)

        monkeypatch.setattr(service, "_fingerprint", drain_meanwhile)
        try:
            service.quotas.admit("t")
            tokens = service.quotas._tenants["t"].bucket.tokens
            with pytest.raises(DrainingError):
                service.execute(_request(tenant="t"))
            after = service.quotas._tenants["t"].bucket.tokens
        finally:
            service.shutdown(wait=False)
        assert service.counters["submitted"] == 1
        assert service.counters["drain_rejected"] == 1
        assert after == pytest.approx(tokens, abs=0.01)

    def test_breaker_forced_greedy_looks_up_its_own_key(
        self, fresh_cache, monkeypatch
    ):
        from dataclasses import replace

        import repro.perf.cache as cache_module
        from repro.core.compiler import CompilerConfig
        from repro.perf.fingerprint import fingerprint_compile

        looked_up = []
        real_get = cache_module.DesignCache.get

        def recording_get(self, fingerprint):
            looked_up.append(fingerprint)
            return real_get(self, fingerprint)

        monkeypatch.setattr(cache_module.DesignCache, "get", recording_get)
        service = CompileService(ServiceConfig(workers=1))
        try:
            for _ in range(service.config.breaker.failure_threshold):
                service.breakers["ilp"].record_failure()
            design = service.execute(_request())
            assert service.counters["breaker_forced_greedy"] == 1
        finally:
            service.shutdown(wait=False)
        greedy = replace(CompilerConfig(), ladder_start="greedy")
        key = fingerprint_compile(
            build_diamond(), paper_testbed(), greedy, "tapa-cs"
        )
        assert key != fingerprint_compile(
            build_diamond(), paper_testbed(), CompilerConfig(), "tapa-cs"
        )
        assert looked_up == [key]
        assert design.floorplan_tier == "greedy"
