"""The serving layer: deadline-aware compile service.

Public surface:

* :class:`~repro.deadline.Deadline` / ``deadline_scope`` — re-exported
  from :mod:`repro.deadline` (the class lives at the package root so the
  core pipeline can import it without depending on this layer);
* :class:`CompileService`, :class:`CompileRequest`,
  :class:`ServiceConfig` and the process-wide :func:`get_service`: a
  front end builds a :class:`CompileRequest` and calls
  ``get_service().execute(request)``;
* :class:`CircuitBreaker` / :class:`BreakerConfig`;
* :class:`WorkerFleet` / :class:`FleetConfig` — the process-isolated
  worker fleet behind ``repro serve --fleet`` (supervised worker
  processes, failover, single-flight coalescing at the broker);
* :class:`QuotaConfig` / :class:`TenantLimits` / :class:`QuotaRegistry`
  — per-tenant token-bucket admission quotas and retry budgets;
* :class:`FairScheduler` — weighted deficit-round-robin queueing across
  tenants with priority aging;
* :class:`BrownoutController` / :class:`BrownoutConfig` — the adaptive
  fleet-wide floorplan-quality ceiling under sustained pressure;
* :class:`ServeJournal` — the fsync'd write-ahead request journal behind
  ``repro serve --journal-dir`` (crash recovery, idempotent
  resubmission, quota/brownout checkpoints);
* :func:`run_server` / :func:`fetch_status` / :func:`post_reload` — the
  ``repro serve`` HTTP front end, its status client, and the rolling-
  restart trigger.
"""

from ..deadline import Deadline, current_deadline, deadline_scope
from .breaker import BreakerConfig, CircuitBreaker
from .broker import (
    CompileRequest,
    CompileService,
    ServiceConfig,
    configure_service,
    get_service,
    reset_service,
)
from .brownout import BrownoutConfig, BrownoutController
from .fleet import FleetConfig, WorkerFleet
from .journal import ServeJournal
from .quota import DEFAULT_TENANT, QuotaConfig, QuotaRegistry, TenantLimits
from .sched import FairScheduler
from .server import fetch_status, post_reload, run_server

__all__ = [
    "BreakerConfig",
    "BrownoutConfig",
    "BrownoutController",
    "CircuitBreaker",
    "CompileRequest",
    "CompileService",
    "DEFAULT_TENANT",
    "Deadline",
    "FairScheduler",
    "FleetConfig",
    "QuotaConfig",
    "QuotaRegistry",
    "ServeJournal",
    "ServiceConfig",
    "TenantLimits",
    "WorkerFleet",
    "configure_service",
    "current_deadline",
    "deadline_scope",
    "fetch_status",
    "get_service",
    "post_reload",
    "reset_service",
    "run_server",
]
