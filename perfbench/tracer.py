"""Spans and counters recorded around the program's public entry points.

The program is not edited: every wrapper is installed from here, at run
time, by replacing a function or method with a recording wrapper.

A function is looked up through ``sys.modules[...]`` and then rebound in
*every* loaded ``repro`` module that holds it.  Modules bind names at
import time (``from ..ilp import solve``), and a package may re-export a
function under the same name as its defining module
(``import repro.core.bipartition as m`` yields the function the package
re-exports, not the module), so patching only the defining module would
silently miss callers.

Two modes:

* :func:`install_solve_guard` — the only wrapper in untraced runs: a
  status counter on ``repro.ilp.solve`` that costs microseconds against
  solves of milliseconds to seconds.  It lets the benchmark fail a
  point whose solve stopped on its wall-clock limit.
* :func:`install_tracer` — spans around each layer's entry points.  Each
  span records name, start, end, its parent span (the innermost wrapped
  call active on the same thread) and a few attributes.  Spans stay in
  memory and are appended to ``<dir>/spans-<pid>.jsonl`` by
  :meth:`Tracer.flush`, which the wrappers marked ``flush`` call after
  each HTTP request and after each fleet-worker job: workers can leave
  through ``os._exit`` or a signal, so exit handlers are not a reliable
  flush point.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: Solve statuses that mean HiGHS stopped on its limit with an incumbent.
_LIMIT_STATUSES = ("feasible",)
#: A solve that used this share of its time limit is treated as stopped by it.
LIMIT_FRAC = 0.98

#: (span name, module, attribute, flush after the call?) for every wrapped
#: entry point, grouped by the process that needs them.  ``Class.method``
#: attributes wrap the method on the class.
COMPILE_ENTRY_POINTS = [
    ("check", "repro.check", "check_graph", False),
    ("check", "repro.check", "check_design", False),
    ("hls", "repro.hls.synthesis", "synthesize", False),
    ("core.inter", "repro.core.inter_floorplan", "floorplan_inter", False),
    ("core.inter", "repro.core.ladder", "floorplan_inter_coarse", False),
    ("core.intra", "repro.core.intra_floorplan", "floorplan_intra", False),
    ("core.hbm", "repro.core.hbm_binding", "bind_hbm_channels", False),
    ("core.comm", "repro.core.comm_insertion", "insert_communication", False),
    ("core.pipelining", "repro.core.pipelining", "pipeline_device", False),
    ("core.pipelining", "repro.core.pipelining", "verify_balanced", False),
    ("timing", "repro.timing.frequency", "estimate_frequency_mhz", False),
    ("sim", "repro.sim.execution", "simulate", False),
    ("ilp.solve", "repro.ilp.solver", "solve", False),
    ("fingerprint", "repro.perf.fingerprint", "fingerprint_compile", False),
    ("fingerprint", "repro.perf.fingerprint", "fingerprint_simulate", False),
    ("cache.get", "repro.perf.cache", "DesignCache.get", False),
    ("cache.put", "repro.perf.cache", "DesignCache.put", False),
    ("cache.compile", "repro.perf.cache", "cached_compile", False),
    ("cache.simulate", "repro.perf.cache", "cached_simulate", False),
    ("broker.execute", "repro.serve.broker", "CompileService.execute", False),
    ("broker.run", "repro.serve.broker", "CompileService._run", False),
]
SERVER_ENTRY_POINTS = COMPILE_ENTRY_POINTS + [
    ("server.post", "repro.serve.server", "_Handler.do_POST", True),
    ("server.parse", "repro.serve.server", "build_app_graph", False),
    ("server.parse", "repro.graph.serialize", "graph_from_dict", False),
    ("server.summary", "repro.graph.serialize", "design_summary", False),
    ("server.reply", "repro.serve.server", "_Handler._reply", False),
    ("fleet.run", "repro.serve.fleet", "WorkerFleet.run", False),
    ("fleet.job", "repro.serve.fleet", "_run_one_request", True),
    ("journal", "repro.serve.journal", "ServeJournal.record_accepted", False),
    ("journal", "repro.serve.journal", "ServeJournal.record_dispatched", False),
    ("journal", "repro.serve.journal", "ServeJournal.record_done", False),
    ("journal", "repro.serve.journal", "ServeJournal.record_failed", False),
    ("journal", "repro.serve.journal", "ServeJournal.record_shed", False),
    ("journal", "repro.serve.journal", "ServeJournal.checkpoint", False),
]


def _solve_attrs(args, kwargs, solution) -> dict:
    model = args[0] if args else kwargs["model"]
    backend = kwargs.get("backend", args[1] if len(args) > 1 else "scipy")
    limit = kwargs.get("time_limit", args[2] if len(args) > 2 else None)
    return {
        "status": solution.status.value,
        "limit": limit,
        "vars": model.num_variables,
        "cons": len(model.constraints),
        "fallback": backend == "scipy"
        and not str(solution.backend).startswith("scipy"),
    }


def _request_id(args, kwargs, result) -> dict:
    return {"rid": id(args[1])}


def _pending_request_id(args, kwargs, result) -> dict:
    return {"rid": id(args[1].request)}


_ATTRS = {
    "solve": _solve_attrs,
    "CompileService.execute": _request_id,
    "CompileService._run": _pending_request_id,
}


def _rebind(old, new) -> int:
    """Replace ``old`` by ``new`` in every loaded ``repro`` module."""
    count = 0
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", None) or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                count += 1
    return count


def _install(module_name: str, attr: str, make_wrapper) -> None:
    importlib.import_module(module_name)
    module = sys.modules[module_name]
    if "." in attr:
        class_name, method = attr.split(".")
        cls = getattr(module, class_name)
        original = cls.__dict__[method]
        setattr(cls, method, make_wrapper(original))
        return
    original = getattr(module, attr)
    if not _rebind(original, make_wrapper(original)):
        raise RuntimeError(f"could not rebind {module_name}.{attr}")


class SolveGuard:
    """Counts solves by status and flags solves stopped by their limit."""

    def __init__(self) -> None:
        #: (status, seconds, time limit) per completed solve, in order.
        self.records: list[tuple[str, float, float | None]] = []

    def wrap(self, solve):
        records = self.records

        @functools.wraps(solve)
        def guarded(model, backend="scipy", time_limit=None, fallback=True):
            start = time.perf_counter()
            solution = solve(model, backend, time_limit, fallback)
            records.append(
                (solution.status.value, time.perf_counter() - start, time_limit)
            )
            return solution

        return guarded

    @staticmethod
    def is_limit_stop(record) -> bool:
        status, seconds, limit = record
        if status in _LIMIT_STATUSES:
            return True
        return bool(limit) and seconds >= LIMIT_FRAC * limit

    @staticmethod
    def limit_frac(record) -> float:
        _, seconds, limit = record
        return seconds / limit if limit else 0.0


def install_solve_guard() -> SolveGuard:
    guard = SolveGuard()
    _install("repro.ilp.solver", "solve", guard.wrap)
    return guard


class Tracer:
    """In-memory span recorder with an append-only per-process file."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        #: Off, a wrapper only forwards the call (for measuring overhead).
        self.enabled = True
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked worker starts with no spans: the parent flushes its own.
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapper(self, name: str, attrs=None, flush: bool = False):
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                stack = tracer._stack()
                span_id = next(tracer._ids)
                parent = stack[-1] if stack else 0
                stack.append(span_id)
                extra = None
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    if attrs is not None:
                        extra = attrs(args, kwargs, result)
                    return result
                except BaseException as exc:
                    extra = {"error": type(exc).__name__}
                    raise
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    with tracer._lock:
                        tracer.spans.append(
                            (name, start, end, span_id, parent,
                             threading.get_ident(), extra)
                        )
                    if flush:
                        tracer.flush()

            return traced

        return make

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
            if not spans:
                return
            path = os.path.join(self.directory, f"spans-{self.pid}.jsonl")
            with open(path, "a") as handle:
                for span in spans:
                    handle.write(json.dumps((self.pid,) + span) + "\n")


def install_tracer(directory: str, entry_points) -> Tracer:
    """Wrap every entry point; returns the tracer to flush at the end."""
    tracer = Tracer(directory)
    for layer, module, attr, flush in entry_points:
        wrap = tracer.wrapper(f"{layer}|{attr}", _ATTRS.get(attr), flush)
        _install(module, attr, wrap)
    return tracer


def load_spans(directory: str) -> list[tuple]:
    """Every span flushed under ``directory``, from every process."""
    spans = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry)) as handle:
                spans.extend(tuple(json.loads(line)) for line in handle)
    return spans
