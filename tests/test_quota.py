"""Per-tenant token-bucket quotas and retry budgets (repro.serve.quota)."""

import pytest

from repro.errors import OverloadedError, QuotaExceededError, TapaCSError
from repro.serve.quota import (
    DEFAULT_TENANT,
    QuotaConfig,
    QuotaRegistry,
    TenantLimits,
    TokenBucket,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_zero_rate_means_unlimited(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert all(bucket.take() for _ in range(1000))
        assert bucket.wait_s() == 0.0

    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.take() for _ in range(4)] == [True, True, True, False]

    def test_lazy_refill_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.take() and bucket.take()
        assert not bucket.take()
        clock.advance(0.5)  # 2/s × 0.5s = one token back
        assert bucket.take()
        assert not bucket.take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_wait_s_is_the_actual_refill_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.take()
        assert bucket.wait_s() == pytest.approx(0.5)
        clock.advance(0.25)
        assert bucket.wait_s() == pytest.approx(0.25)

    def test_failed_take_does_not_debit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert bucket.take()
        before = bucket.tokens
        assert not bucket.take()
        assert bucket.tokens == pytest.approx(before)


class TestQuotaRegistry:
    def _registry(self, **kwargs) -> tuple[QuotaRegistry, FakeClock]:
        clock = FakeClock()
        config = QuotaConfig(default=TenantLimits(**kwargs))
        return QuotaRegistry(config, clock=clock), clock

    def test_disabled_by_default(self):
        registry = QuotaRegistry()
        for _ in range(100):
            registry.admit(DEFAULT_TENANT)  # never raises

    def test_over_quota_raises_typed_overloaded_subclass(self):
        registry, _ = self._registry(rate=1.0, burst=2.0)
        registry.admit("acme")
        registry.admit("acme")
        with pytest.raises(QuotaExceededError) as err:
            registry.admit("acme")
        assert isinstance(err.value, OverloadedError)
        assert err.value.tenant == "acme"
        assert err.value.retry_after_s > 0

    def test_retry_after_matches_refill(self):
        registry, clock = self._registry(rate=2.0, burst=1.0)
        registry.admit("acme")
        with pytest.raises(QuotaExceededError) as err:
            registry.admit("acme")
        assert err.value.retry_after_s == pytest.approx(0.5)
        clock.advance(err.value.retry_after_s)
        registry.admit("acme")  # an obedient client is admitted

    def test_tenants_are_isolated(self):
        registry, _ = self._registry(rate=1.0, burst=1.0)
        registry.admit("acme")
        with pytest.raises(QuotaExceededError):
            registry.admit("acme")
        registry.admit("globex")  # unaffected by acme's empty bucket

    def test_overrides_beat_the_default(self):
        clock = FakeClock()
        config = QuotaConfig(
            default=TenantLimits(rate=1.0, burst=1.0),
            overrides={"vip": TenantLimits(rate=100.0, burst=50.0, weight=4.0)},
        )
        registry = QuotaRegistry(config, clock=clock)
        for _ in range(50):
            registry.admit("vip")
        assert registry.weight_for("vip") == 4.0
        assert registry.weight_for("anyone-else") == 1.0

    def test_retry_budget_trips_after_repeated_sheds(self):
        registry, clock = self._registry(
            rate=1.0, burst=1.0, retry_rate=1.0, retry_burst=2.0
        )
        registry.admit("storm")
        sheds = 0
        budget_trips = 0
        for _ in range(10):  # an impatient client hammering retries
            try:
                registry.admit("storm")
            except QuotaExceededError as exc:
                sheds += 1
                if "retry budget" in str(exc):
                    budget_trips += 1
                    # The escalated hint is at least a full second.
                    assert exc.retry_after_s >= 1.0
        assert sheds == 10
        # Two budgeted sheds, then every later one trips the budget.
        assert budget_trips == 8
        # Calm restores the budget: after a long quiet period the
        # tenant is admitted normally again.
        clock.advance(60.0)
        registry.admit("storm")

    def test_broker_side_sheds_also_debit_the_budget(self):
        registry, _ = self._registry(
            rate=100.0, burst=100.0, retry_rate=0.5, retry_burst=1.0
        )
        registry.record_shed("noisy")  # e.g. a queue-full shed
        with pytest.raises(QuotaExceededError, match="retry budget"):
            registry.admit("noisy")

    def test_refund_returns_a_token(self):
        registry, _ = self._registry(rate=1.0, burst=1.0)
        registry.admit("acme")
        registry.refund("acme")
        registry.admit("acme")  # the refund covered this one

    def test_snapshot_reports_counters(self):
        registry, _ = self._registry(rate=1.0, burst=1.0)
        registry.admit("acme")
        with pytest.raises(QuotaExceededError):
            registry.admit("acme")
        snapshot = registry.snapshot()
        assert snapshot["acme"]["admitted"] == 1
        assert snapshot["acme"]["shed"] == 1
        assert snapshot["acme"]["rate"] == 1.0


class TestQuotaConfigFromEnv:
    def test_defaults_are_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_QUOTAS", raising=False)
        config = QuotaConfig.from_env()
        assert config.default.rate == 0.0
        assert config.overrides == {}

    def test_env_knobs_parse(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SERVE_QUOTAS",
            '{"acme": {"rate": 10, "burst": 20, "weight": 3}, '
            '"anonymous": {"rate": "2.5", "retry_rate": 1}}',
        )
        config = QuotaConfig.from_env()
        assert config.limits_for("acme").rate == 10.0
        assert config.limits_for("acme").weight == 3.0
        # The requests that name no tenant can be limited too.
        assert config.limits_for(DEFAULT_TENANT).rate == 2.5
        assert config.limits_for(DEFAULT_TENANT).retry_rate == 1.0
        # Unnamed tenants stay unlimited.
        assert config.limits_for("other").rate == 0.0

    def test_unknown_keys_in_an_entry_are_ignored(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SERVE_QUOTAS", '{"acme": {"rate": 4, "colour": "blue"}}'
        )
        assert QuotaConfig.from_env().limits_for("acme").rate == 4.0

    @pytest.mark.parametrize("raw", [
        "{not json",
        "[1, 2]",
        '"acme"',
        '{"acme": 5}',
        '{"acme": {"rate": "fast"}}',
        '{"acme": {"burst": null}}',
    ])
    def test_malformed_quotas_json_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVE_QUOTAS", raw)
        with pytest.raises(TapaCSError) as caught:
            QuotaConfig.from_env()
        assert str(caught.value) == (
            f"REPRO_SERVE_QUOTAS={raw!r} is not a JSON object of tenant limits"
        )


class TestTenantEviction:
    """LRU eviction bounds registry memory: a million distinct tenant
    names must not pin a million token buckets forever."""

    def _registry(self, idle_s: float = 10.0) -> tuple[QuotaRegistry, FakeClock]:
        clock = FakeClock()
        config = QuotaConfig(
            default=TenantLimits(rate=1.0, burst=2.0),
            tenant_idle_s=idle_s,
        )
        return QuotaRegistry(config, clock=clock), clock

    def test_idle_tenant_is_evicted_fresh_one_kept(self):
        registry, clock = self._registry(idle_s=10.0)
        registry.admit("stale")
        clock.advance(5.0)
        registry.admit("fresh")  # also resets the sweep throttle window
        clock.advance(6.0)  # "stale" is now 11s idle, "fresh" only 6s
        registry.admit("newcomer")  # any admission triggers the sweep
        assert registry.evicted == 1
        assert "stale" not in registry._tenants
        assert "fresh" in registry._tenants

    def test_sweep_is_throttled(self):
        registry, clock = self._registry(idle_s=10.0)
        registry.admit("a")
        clock.advance(11.0)
        registry.admit("b")  # sweep fires: "a" evicted
        assert registry.evicted == 1
        registry.admit("c")  # within the throttle window: no rescan
        clock.advance(1.0)  # < min(60, idle/4) = 2.5s since last sweep
        registry.admit("d")
        assert registry.evicted == 1

    def test_eviction_disabled_at_zero(self):
        registry, clock = self._registry(idle_s=0.0)
        registry.admit("a")
        clock.advance(1e9)
        registry.admit("b")
        assert registry.evicted == 0
        assert "a" in registry._tenants

    def test_evicted_tenant_comes_back_refilled(self):
        """Safe by construction: a tenant idle past the window would
        have lazily refilled to burst anyway, so eviction loses nothing."""
        registry, clock = self._registry(idle_s=10.0)
        registry.admit("acme")
        registry.admit("acme")  # burst of 2 spent
        with pytest.raises(QuotaExceededError):
            registry.admit("acme")
        clock.advance(11.0)
        registry.admit("sweeper")  # evicts "acme"
        assert "acme" not in registry._tenants
        registry.admit("acme")  # recreated with a full bucket


class TestQuotaStateRoundtrip:
    """export_state/restore_state: the journal checkpoint contract."""

    def _registry(self, clock: FakeClock) -> QuotaRegistry:
        config = QuotaConfig(
            default=TenantLimits(
                rate=1.0, burst=2.0, retry_rate=0.01, retry_burst=1.0
            )
        )
        return QuotaRegistry(config, clock=clock)

    def test_downtime_is_credited_as_refill(self):
        clock = FakeClock()
        first = self._registry(clock)
        first.admit("acme")
        first.admit("acme")  # bucket drained
        saved = first.export_state(now_unix=1_000.0)
        assert saved["tenants"]["acme"]["tokens"] == 0.0

        # 30s of downtime at 1 token/s: fully refilled (capped at burst).
        second = self._registry(FakeClock())
        assert second.restore_state(saved, now_unix=1_030.0) == 1
        second.admit("acme")  # admitted straight away

    def test_short_downtime_keeps_the_bucket_dry(self):
        clock = FakeClock()
        first = self._registry(clock)
        first.admit("acme")
        first.admit("acme")
        saved = first.export_state(now_unix=1_000.0)

        second = self._registry(FakeClock())
        second.restore_state(saved, now_unix=1_000.5)  # only 0.5 tokens back
        with pytest.raises(QuotaExceededError):
            second.admit("acme")

    def test_retry_budget_survives_restart(self):
        clock = FakeClock()
        first = self._registry(clock)
        first.admit("abuser")
        first.admit("abuser")
        with pytest.raises(QuotaExceededError):
            first.admit("abuser")  # shed debits the retry budget to 0
        saved = first.export_state(now_unix=1_000.0)
        assert saved["tenants"]["abuser"]["retry_tokens"] == 0.0

        second = self._registry(FakeClock())
        second.restore_state(saved, now_unix=1_001.0)
        # retry_rate=0.01: one second of downtime restores 0.01 tokens —
        # the very first post-restart request is still shed instantly.
        with pytest.raises(QuotaExceededError, match="retry budget"):
            second.admit("abuser")

    def test_counters_roundtrip(self):
        clock = FakeClock()
        first = self._registry(clock)
        first.admit("acme")
        saved = first.export_state(now_unix=1_000.0)
        second = self._registry(FakeClock())
        second.restore_state(saved, now_unix=1_000.0)
        assert second.snapshot()["acme"]["admitted"] == 1

    def test_malformed_state_is_ignored(self):
        registry = self._registry(FakeClock())
        assert registry.restore_state({}) == 0
        assert registry.restore_state({"tenants": "nope"}) == 0
        assert registry.restore_state(
            {"tenants": {"acme": {"tokens": "garbage"}}, "time_unix": None}
        ) == 1  # entry counted, bogus fields skipped
        registry.admit("acme")  # still functional
