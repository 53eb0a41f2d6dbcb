"""The ``repro serve`` HTTP front end (stdlib-only, no new dependencies).

A thin JSON-over-HTTP skin on :class:`~repro.serve.broker.CompileService`:

* ``GET /healthz`` — the service health document (queue depth, admission
  counters, per-backend breaker states);
* ``POST /compile`` — compile one design.  The JSON body names either a
  built-in app (``{"app": "stencil"}``) or carries a serialized graph
  (``{"graph": {...}}``, the :mod:`repro.graph.serialize` format), plus
  optional ``fpgas``/``topology``/``part``/``flow``, ``deadline_s``,
  ``class`` ("interactive"/"batch"), ``tenant`` (the quota/fairness
  identity; defaults to the shared anonymous tenant), ``use_cache``, and
  ``simulate: true`` to run the performance simulator on the result.

The CLI's ``compile``/``simulate`` are the same front door: both resolve
their target with :func:`repro.apps.common.resolve_target` (so
``"flow": "vitis"`` is the paper's one-FPGA F1-V baseline, exactly like
``--flow vitis``), build apps with :func:`build_app_graph`, and print
:func:`result_document`.

Error mapping follows the structured-failure conventions of the CLI:

* shed (:class:`~repro.errors.OverloadedError`, incl. open breakers and
  per-tenant :class:`~repro.errors.QuotaExceededError`)
  → **429** with a ``Retry-After`` header (rounded *up*, and never below
  the JSON body's ``retry_after_s``);
* unknown admission class (:class:`~repro.errors.InvalidRequestError`)
  → **400** — never silently coerced to "batch";
* draining (:class:`~repro.errors.DrainingError`, SIGTERM received)
  → **503** with ``Retry-After`` — the 4xx/5xx split tells a load
  balancer "your request was too much" vs "this instance is going away";
* deadline miss (:class:`~repro.errors.DeadlineExceededError`) → **504**;
* infeasible/degraded-cluster/DRC findings → **422**;
* malformed request → **400**.

Every error body is the same JSON envelope the CLI's ``--json`` mode
prints: ``{"error": <type>, "message": ..., ...details}``; a DRC
rejection's details include its structured ``diagnostics``.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.request import urlopen

from ..errors import (
    DeadlineExceededError,
    DesignRuleError,
    DrainingError,
    InvalidRequestError,
    OverloadedError,
    TapaCSError,
)
from .broker import CompileRequest, CompileService, get_service
from .quota import DEFAULT_TENANT

#: Built-in app names accepted in request bodies and as CLI targets.
KNOWN_APPS = ("stencil", "pagerank", "knn", "cnn")


def build_app_graph(name: str):
    """A default-configuration graph for one benchmark app."""
    if name == "stencil":
        from ..apps.stencil import StencilConfig, build_stencil

        return build_stencil(StencilConfig())
    if name == "pagerank":
        from ..apps.pagerank import PageRankConfig, build_pagerank

        return build_pagerank(PageRankConfig(num_nodes=10_000, num_edges=100_000))
    if name == "knn":
        from ..apps.knn import KNNConfig, build_knn

        return build_knn(KNNConfig())
    if name == "cnn":
        from ..apps.cnn import CNNConfig, build_cnn

        return build_cnn(CNNConfig())
    raise ValueError(
        f"unknown app {name!r}; choose from {', '.join(KNOWN_APPS)}"
    )


def result_document(kind: str, value) -> dict:
    """A ``compile`` or ``simulate`` answer: the HTTP reply body and the
    CLI's ``--json`` output."""
    from ..graph import serialize

    design = value[0] if kind == "simulate" else value
    document = {
        "design": serialize.design_summary(design),
        "floorplan_tier": design.floorplan_tier,
    }
    if kind == "simulate":
        document["latency_ms"] = value[1].latency_ms
        document["frequency_mhz"] = value[1].frequency_mhz
    return document


def error_envelope(exc: BaseException) -> dict:
    """The structured-failure JSON body shared with the CLI's ``--json``."""
    envelope: dict = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("retry_after_s", "stage", "total_s", "backend",
                 "task_name", "timeout_s", "failovers", "tenant"):
        value = getattr(exc, attr, None)
        if value is not None:
            envelope[attr] = value
    faults = getattr(exc, "faults", None)
    if faults:
        envelope["faults"] = list(faults)
    if isinstance(exc, DesignRuleError) and exc.diagnostics:
        envelope["diagnostics"] = [d.as_dict() for d in exc.diagnostics]
    return envelope


def _request_from_body(body: dict) -> CompileRequest:
    from ..apps.common import resolve_target
    from ..graph import serialize
    from ..sim.execution import SimulationConfig

    if "app" in body:
        graph = build_app_graph(str(body["app"]))
    elif "graph" in body:
        graph = serialize.graph_from_dict(body["graph"])
    else:
        raise ValueError("request body needs 'app' or 'graph'")
    cluster, config, flow = resolve_target(
        str(body.get("flow", "tapa-cs")),
        int(body.get("fpgas", 2)),
        str(body.get("topology", "paper")),
        str(body.get("part", "u55c")),
    )
    deadline_s = body.get("deadline_s")
    sim_config = None
    kind = "simulate" if body.get("simulate") else "compile"
    if kind == "simulate":
        sim_config = SimulationConfig(chunks=int(body.get("chunks", 32)))
    idempotency_key = body.get("idempotency_key")
    return CompileRequest(
        graph=graph,
        cluster=cluster,
        config=config,
        flow=flow,
        kind=kind,
        sim_config=sim_config,
        deadline_s=float(deadline_s) if deadline_s is not None else None,
        priority=str(body.get("class", "batch")),
        use_cache=bool(body.get("use_cache", True)),
        tenant=str(body.get("tenant", DEFAULT_TENANT)) or DEFAULT_TENANT,
        idempotency_key=(
            str(idempotency_key) if idempotency_key else None
        ),
    )


def _retry_after_header(retry_after_s: float) -> str:
    """``Retry-After`` as whole seconds, rounded UP.

    ``f"{x:.0f}"`` rounds half-even, so a 1.4 s estimate would tell
    clients "1" and invite a guaranteed-too-early retry; the header must
    never be smaller than the JSON body's ``retry_after_s``.
    """
    return str(max(1, math.ceil(retry_after_s)))


#: HTTP status per error type, most specific first.
_STATUSES: tuple[tuple[type, int], ...] = (
    # Malformed at admission (unknown class, reused idempotency key):
    # no Retry-After — resubmitting it unchanged can only fail the same way.
    (InvalidRequestError, 400),
    # Draining: this instance is going away; retry against a fresh one.
    (DrainingError, 503),
    # Shed: queue or class full, over quota, breaker open.
    (OverloadedError, 429),
    (DeadlineExceededError, 504),
    # Findings (infeasible, degraded cluster, DRC): the input was
    # understood, the answer is "no plan".
    (TapaCSError, 422),
)


class _Handler(BaseHTTPRequestHandler):
    service: CompileService  # set by make_server

    # Silence the default stderr-per-request logging.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, document: dict, headers: dict | None = None):
        payload = json.dumps(document, indent=2).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _reply_error(self, exc: BaseException, status: int | None = None):
        """The error envelope under its type's status (see ``_STATUSES``);
        a 429 or 503 also carries ``Retry-After``."""
        if status is None:
            status = next(code for klass, code in _STATUSES
                          if isinstance(exc, klass))
        headers = None
        if status in (429, 503):
            headers = {"Retry-After": _retry_after_header(exc.retry_after_s)}
        self._reply(status, error_envelope(exc), headers)

    def do_GET(self):  # noqa: N802 - stdlib casing
        if self.path in ("/healthz", "/health", "/status"):
            self._reply(200, self.service.health())
        else:
            self._reply(404, {"error": "NotFound", "message": self.path})

    def do_POST(self):  # noqa: N802 - stdlib casing
        if self.path == "/reload":
            self._do_reload()
            return
        if self.path not in ("/compile", "/simulate"):
            self._reply(404, {"error": "NotFound", "message": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            if self.path == "/simulate":
                body.setdefault("simulate", True)
            request = _request_from_body(body)
        except (ValueError, KeyError, TypeError, TapaCSError) as exc:
            self._reply_error(exc, 400)
            return
        try:
            value = self.service.execute(request)
        except TapaCSError as exc:
            self._reply_error(exc)
            return
        self._reply(200, result_document(request.kind, value))

    def _do_reload(self):
        """``POST /reload`` — zero-downtime rolling restart of the fleet.

        Blocks until the roll completes (workers recycle one at a time
        behind this very front end, which keeps serving throughout) and
        returns the summary.  A roll already in progress maps to 429, a
        draining service to 503 — same split as compile admission.
        """
        try:
            summary = self.service.rolling_restart()
        except OverloadedError as exc:
            self._reply_error(exc)
            return
        self._reply(200, summary)


def make_server(
    host: str = "127.0.0.1",
    port: int = 8179,
    service: CompileService | None = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``host:port``."""
    handler = type(
        "BoundHandler", (_Handler,), {"service": service or get_service()}
    )
    # The stdlib default accept backlog (5) resets connections under the
    # very bursts the fleet exists to absorb; queue them instead — the
    # service's admission control, not the kernel, decides who is shed.
    server_class = type(
        "BurstTolerantServer", (ThreadingHTTPServer,),
        {"request_queue_size": 128},
    )
    return server_class((host, port), handler)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8179,
    service: CompileService | None = None,
    ready: threading.Event | None = None,
) -> None:
    """Serve until interrupted (the ``repro serve`` entry point)."""
    server = make_server(host, port, service)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()


def fetch_status(host: str = "127.0.0.1", port: int = 8179,
                 timeout: float = 5.0) -> dict:
    """The ``repro serve --status`` client: GET /healthz as a dict."""
    with urlopen(f"http://{host}:{port}/healthz", timeout=timeout) as response:
        return json.loads(response.read())


def post_reload(host: str = "127.0.0.1", port: int = 8179,
                timeout: float = 120.0) -> dict:
    """The ``repro serve --reload`` client: POST /reload, blocking
    until the rolling restart finishes; returns its summary."""
    from urllib.request import Request

    request = Request(
        f"http://{host}:{port}/reload", data=b"{}", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())
