"""Per-tenant quotas: token buckets, retry budgets, WDRR weights.

One abusive client must not be able to starve everyone else.  The
admission classes of :mod:`repro.serve.broker` ("interactive"/"batch")
say how urgent a request is, but not *who* is asking — this module adds
the who:

* every :class:`~repro.serve.broker.CompileRequest` names a ``tenant``
  (default :data:`DEFAULT_TENANT`);
* each tenant has a **token bucket** (sustained rate + burst).  A
  request arriving on an empty bucket is shed with
  :class:`~repro.errors.QuotaExceededError` *before* it consumes queue
  depth, so over-quota traffic never displaces admitted work;
* each tenant has a **retry budget**: a second bucket debited once per
  shed.  A client that answers every shed with an immediate retry (a
  retry storm) drains it, and from then on its requests are rejected
  instantly with an escalated ``retry_after_s`` — the storm costs the
  service one branch per request instead of queue churn;
* each tenant has a **weight** used by the deficit-round-robin scheduler
  (:mod:`repro.serve.sched`) to apportion drain bandwidth within an
  admission class.

The registry's memory is bounded: tenant buckets idle longer than
``QuotaConfig.tenant_idle_s`` (an hour) are LRU-evicted (a million distinct
tenants must not leak a million buckets).  Eviction is safe by
construction — a bucket that has been idle for the eviction window has
refilled to burst anyway, so recreating it lazily on the tenant's next
request is indistinguishable from having kept it.  For crash recovery
the registry can :meth:`~QuotaRegistry.export_state` its live token
levels against the wall clock and :meth:`~QuotaRegistry.restore_state`
them after a restart, crediting the elapsed downtime as refill.

Quotas are **off by default** (``rate == 0`` means unlimited): a bare
`CompileService` behaves exactly as before this module existed.  Turn
them on per tenant with ``REPRO_SERVE_QUOTAS``, a JSON object such as
``{"acme": {"rate": 2, "burst": 4, "weight": 2}}``; naming
:data:`DEFAULT_TENANT` limits the requests that name no tenant.  A
library caller passes a :class:`QuotaConfig` instead.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable

from ..errors import QuotaExceededError, TapaCSError

#: The tenant of requests that never named one (the CLI default, bare
#: HTTP bodies, library callers).  Deliberately a real tenant — the
#: anonymous crowd shares one bucket, so one bad anonymous client can
#: still starve *other anonymous clients*, but never a named tenant.
DEFAULT_TENANT = "anonymous"

#: Ceiling on any retry-after hint this module produces.
MAX_RETRY_AFTER_S = 60.0


@dataclass(slots=True)
class TenantLimits:
    """One tenant's admission knobs."""

    #: Sustained request rate (requests/second); 0 = unlimited.
    rate: float = 0.0
    #: Bucket capacity: how large a burst is admitted at once.
    burst: float = 1.0
    #: Deficit-round-robin weight (relative drain share within a class).
    weight: float = 1.0
    #: Sheds tolerated per second before the retry budget trips;
    #: 0 = no retry-budget enforcement.
    retry_rate: float = 0.0
    #: Retry-budget bucket capacity (sheds absorbed before tripping).
    retry_burst: float = 10.0


@dataclass(slots=True)
class QuotaConfig:
    """Service-wide quota policy: a default plus per-tenant overrides."""

    default: TenantLimits = field(default_factory=TenantLimits)
    overrides: dict[str, TenantLimits] = field(default_factory=dict)
    #: Seconds of inactivity after which a tenant's buckets are
    #: LRU-evicted; 0 disables eviction.
    tenant_idle_s: float = 3600.0

    @classmethod
    def from_env(cls) -> "QuotaConfig":
        """The per-tenant quotas of ``REPRO_SERVE_QUOTAS``.

        The variable is a JSON object mapping tenant names to partial
        :class:`TenantLimits` objects; unknown keys inside an entry are
        ignored so a forward-compatible config does not crash an old
        server.  Unset, every tenant is unlimited.  A value that is not
        such an object, or a limit that is not a number, raises
        :class:`~repro.errors.TapaCSError` naming the variable.
        """
        raw = os.environ.get("REPRO_SERVE_QUOTAS", "").strip()
        if not raw:
            return cls()
        malformed = TapaCSError(
            f"REPRO_SERVE_QUOTAS={raw!r} is not a JSON object of tenant limits"
        )
        try:
            parsed = json.loads(raw)
        except ValueError:
            raise malformed from None
        if not isinstance(parsed, dict):
            raise malformed
        overrides: dict[str, TenantLimits] = {}
        for tenant, knobs in parsed.items():
            if not isinstance(knobs, dict):
                raise malformed
            try:
                overrides[tenant] = TenantLimits(**{
                    limit.name: float(knobs[limit.name])
                    for limit in fields(TenantLimits)
                    if limit.name in knobs
                })
            except (TypeError, ValueError):
                raise malformed from None
        return cls(overrides=overrides)

    def limits_for(self, tenant: str) -> TenantLimits:
        return self.overrides.get(tenant, self.default)


class TokenBucket:
    """A classic token bucket with lazy refill (no timers, no threads).

    ``rate == 0`` disables the bucket entirely: :meth:`take` always
    succeeds.  The clock is injectable so tests advance time instead of
    sleeping.
    """

    __slots__ = ("rate", "burst", "_tokens", "_refilled_at", "_clock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = max(0.0, rate)
        self.burst = max(1.0, burst)
        self._tokens = self.burst
        self._clock = clock
        self._refilled_at = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._refilled_at
        self._refilled_at = now
        if elapsed > 0 and self.rate > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def take(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; False (no debit) otherwise."""
        if self.rate <= 0:
            return True
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def wait_s(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0 when they are)."""
        if self.rate <= 0:
            return 0.0
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return min(MAX_RETRY_AFTER_S, deficit / self.rate)

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class _TenantState:
    """One tenant's live buckets plus its shed/served counters."""

    __slots__ = (
        "limits", "bucket", "retry_bucket", "admitted", "shed", "last_seen",
    )

    def __init__(
        self, limits: TenantLimits, clock: Callable[[], float]
    ):
        self.limits = limits
        self.bucket = TokenBucket(limits.rate, limits.burst, clock)
        self.retry_bucket = TokenBucket(
            limits.retry_rate, limits.retry_burst, clock
        )
        self.admitted = 0
        self.shed = 0
        #: Monotonic stamp of this tenant's most recent touch (for LRU
        #: idle eviction).
        self.last_seen = clock()


class QuotaRegistry:
    """Per-tenant buckets, created lazily; the broker's admission gate.

    Not internally locked — the broker calls it with its own admission
    lock held, which also keeps the counters consistent with the queue
    state they describe.
    """

    def __init__(
        self,
        config: QuotaConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or QuotaConfig()
        self._clock = clock
        # LRU order: the least recently touched tenant sits at the
        # front, so eviction sweeps pop from there and stop early.
        self._tenants: OrderedDict[str, _TenantState] = OrderedDict()
        self.evicted = 0
        self._swept_at = clock()

    def _state(self, tenant: str) -> _TenantState:
        self._maybe_sweep()
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(self.config.limits_for(tenant), self._clock)
            self._tenants[tenant] = state
        else:
            state.last_seen = self._clock()
            self._tenants.move_to_end(tenant)
        return state

    def _maybe_sweep(self) -> None:
        """LRU-evict tenants idle longer than ``tenant_idle_s``.

        Throttled to one scan per quarter of the idle window so the
        admission path stays O(1) amortized; each sweep pops from the
        LRU front and stops at the first still-fresh tenant.
        """
        idle_s = self.config.tenant_idle_s
        if idle_s <= 0:
            return
        now = self._clock()
        if now - self._swept_at < min(60.0, idle_s / 4.0):
            return
        self._swept_at = now
        cutoff = now - idle_s
        while self._tenants:
            tenant, state = next(iter(self._tenants.items()))
            if state.last_seen > cutoff:
                break
            del self._tenants[tenant]
            self.evicted += 1

    def weight_for(self, tenant: str) -> float:
        return max(0.1, self.config.limits_for(tenant).weight)

    def admit(self, tenant: str) -> None:
        """Charge one request to ``tenant``; raise when over quota.

        Raises :class:`~repro.errors.QuotaExceededError` either because
        the tenant's token bucket is empty (over rate) or because its
        retry budget is exhausted (a shed storm).  The retry-after hint
        is the bucket's actual refill time, so an obedient client that
        waits it out is admitted on its next try.
        """
        state = self._state(tenant)
        # A tripped retry budget rejects before the main bucket is even
        # consulted: the point is to make storm requests nearly free.
        if (
            state.limits.retry_rate > 0
            and state.retry_bucket.tokens < 1.0
        ):
            state.shed += 1
            raise QuotaExceededError(
                f"tenant {tenant!r} exhausted its retry budget "
                f"(sheds keep arriving faster than "
                f"{state.limits.retry_rate:g}/s); back off",
                retry_after_s=max(1.0, state.retry_bucket.wait_s()),
                tenant=tenant,
            )
        if not state.bucket.take():
            state.shed += 1
            state.retry_bucket.take()  # a shed debits the retry budget
            raise QuotaExceededError(
                f"tenant {tenant!r} is over its quota "
                f"({state.limits.rate:g} req/s, burst "
                f"{state.limits.burst:g})",
                retry_after_s=max(0.1, state.bucket.wait_s()),
                tenant=tenant,
            )
        state.admitted += 1

    def record_shed(self, tenant: str) -> None:
        """Debit the retry budget for a shed the broker decided on
        (queue full, class limit) so non-quota sheds also count toward a
        storm."""
        state = self._state(tenant)
        state.shed += 1
        state.retry_bucket.take()

    def refund(self, tenant: str) -> None:
        """Return one token (a request that was coalesced away, say)."""
        state = self._state(tenant)
        if state.bucket.rate > 0:
            state.bucket._refill()
            state.bucket._tokens = min(
                state.bucket.burst, state.bucket._tokens + 1.0
            )

    def export_state(self, now_unix: float | None = None) -> dict:
        """A wall-clock checkpoint of every live tenant's token levels.

        Buckets run on the monotonic clock, which does not survive a
        restart; the checkpoint therefore records token levels against
        wall time so :meth:`restore_state` can credit the elapsed
        downtime as refill.
        """
        return {
            "time_unix": time.time() if now_unix is None else now_unix,
            "tenants": {
                tenant: {
                    "tokens": round(state.bucket.tokens, 6),
                    "retry_tokens": round(state.retry_bucket.tokens, 6),
                    "admitted": state.admitted,
                    "shed": state.shed,
                }
                for tenant, state in self._tenants.items()
            },
        }

    def restore_state(
        self, state: dict, now_unix: float | None = None
    ) -> int:
        """Restore checkpointed buckets, crediting downtime as refill.

        ``tokens = min(burst, saved + elapsed_wall × rate)`` — exactly
        what lazy refill would have computed had the process stayed up.
        A restart therefore does not reset abuse containment: a tenant
        that had drained its retry budget before the crash is still shed
        immediately after recovery.  Returns the number of tenants
        restored; unknown fields and malformed entries are skipped.
        """
        tenants = state.get("tenants")
        if not isinstance(tenants, dict):
            return 0
        saved_unix = state.get("time_unix")
        now = time.time() if now_unix is None else now_unix
        elapsed = 0.0
        if isinstance(saved_unix, (int, float)):
            elapsed = max(0.0, now - float(saved_unix))
        restored = 0
        for tenant, saved in tenants.items():
            if not isinstance(saved, dict):
                continue
            live = self._state(str(tenant))

            def thaw(bucket: TokenBucket, key: str) -> None:
                value = saved.get(key)
                if bucket.rate > 0 and isinstance(value, (int, float)):
                    bucket._refill()
                    bucket._tokens = min(
                        bucket.burst, float(value) + elapsed * bucket.rate
                    )

            thaw(live.bucket, "tokens")
            thaw(live.retry_bucket, "retry_tokens")
            admitted = saved.get("admitted")
            if isinstance(admitted, int):
                live.admitted = admitted
            shed = saved.get("shed")
            if isinstance(shed, int):
                live.shed = shed
            restored += 1
        return restored

    def snapshot(self) -> dict:
        """Per-tenant admission counters for the health document."""
        return {
            tenant: {
                "admitted": state.admitted,
                "shed": state.shed,
                "rate": state.limits.rate,
                "burst": state.limits.burst,
                "weight": state.limits.weight,
                "tokens": round(state.bucket.tokens, 3),
            }
            for tenant, state in sorted(self._tenants.items())
        }
