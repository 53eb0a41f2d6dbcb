"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile <graph.json>`` — run the TAPA-CS flow on a serialized task
  graph and print the compilation report (optionally write constraints).
* ``simulate <graph.json>`` — compile then run the performance simulator.
* ``faults <graph.json>`` — compile + simulate under an injected fault
  scenario (a JSON scenario file or presets such as ``--lossy 1e-4``,
  ``--kill-device N``, ``--kill-link I J``) and report the slowdown
  against the healthy run; ``--json`` emits the structured summary.
* ``lint <target>...`` — static design-rule checking (graph DRC, plus
  floorplan DRC with ``--compile``, plus the P3xx performance rules)
  over serialized graphs, directories of them, or the built-in
  benchmark apps; ``--json`` emits structured diagnostics in stable
  rule-id order and the exit code is non-zero when errors are found.
  ``--rules`` alone prints the catalog; ``--rules G0,F2,P3`` filters
  the catalog or the reported diagnostics by rule-id prefix.
* ``analyze <target>...`` — static performance analysis: latency lower
  bound, steady-state throughput ceiling, and bottleneck attribution
  (task II / HBM channel / cut link / FIFO depth) in milliseconds,
  without simulating; ``--json`` emits the full attribution report.
* ``bench <experiment>`` — regenerate one paper table/figure by name,
  optionally fanning sweep runs across processes (``--jobs``) and
  through the content-addressed cache (``--no-cache`` to bypass).
  Sweep progress is journaled per completed point; an interrupted or
  killed run resumes with ``--resume <run-id>`` and SIGINT exits
  cleanly (code 130) after flushing partial results.
* ``perf`` — cache statistics and maintenance (``--clear``,
  ``--fsck``); ``perf runs`` lists resumable journaled runs.
* ``serve`` — run the deadline-aware compile service as a long-running
  JSON-over-HTTP broker (``--status`` queries a running instance).
* ``loadgen`` — drive a running ``repro serve`` instance with a named
  multi-tenant traffic scenario (``burst``, ``abusive``, ``herd``) and
  report per-tenant latency percentiles, shed/goodput rates, and the
  service-side counter deltas; ``--json`` emits the full report.
* ``parts`` — list the device catalog.

``compile`` and ``simulate`` are one handler and the HTTP front end's
twin: they resolve ``--flow``/``--fpgas``/``--topology``/``--part`` with
:func:`repro.apps.common.resolve_target`, send one
:class:`~repro.serve.broker.CompileRequest` through the same
:mod:`repro.serve` broker, and print the HTTP reply's document under
``--json``, so deadlines (``--deadline``), admission control, and
circuit breakers behave identically everywhere.  Model-level failures
exit with structured codes — 3 deadline exceeded, 4 overloaded/breaker
open, 5 synthesis timeout, 6 degraded cluster, 1 any other finding —
and ``--json`` replaces the stderr message with the machine-readable
error envelope.

The JSON graph format is produced by
:func:`repro.graph.serialize.dumps`; see ``examples/`` for builders.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

from .apps.common import FLOWS, resolve_target
from .bench import experiments as _experiments
from .bench.format import render_table
from .bench.record import bench_json_dir, emit_bench_record
from .core.compiler import compile_design
from .core.constraints import write_constraints
from .devices.parts import get_part, known_parts
from .errors import (
    DeadlineExceededError,
    DegradedClusterError,
    FloorplanError,
    OverloadedError,
    SimulationError,
    SynthesisTimeoutError,
    TapaCSError,
)
from .graph import serialize
from .perf.cache import configure_cache, get_cache, stats_report
from .serve.server import KNOWN_APPS, build_app_graph, result_document
from .sim.execution import SimulationConfig


def _load_graph(path: str):
    with open(path) as handle:
        return serialize.loads(handle.read())


#: Structured exit codes for model-level failures, most specific first.
#: (:class:`~repro.errors.CircuitOpenError` subclasses ``OverloadedError``
#: and shares its code: the remedy — back off and retry — is the same.)
_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (DeadlineExceededError, 3),
    (OverloadedError, 4),
    (SynthesisTimeoutError, 5),
    (DegradedClusterError, 6),
)


def _exit_code_for(exc: Exception) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def _fail(command: str, exc: Exception, as_json: bool = False) -> None:
    """Report a model-level failure and exit with a structured code.

    Non-zero codes mean "the input was understood but the result is a
    finding", never a traceback: 3 = deadline exceeded, 4 = overloaded
    (shed or circuit breaker open; a retry-after hint is included),
    5 = synthesis timeout, 6 = degraded cluster, 1 = any other finding
    (infeasible floorplan, watchdog trip, ...).  Exit 2 stays reserved
    for usage errors.  Under ``as_json`` the one-line message becomes
    the same JSON envelope the HTTP front end returns.
    """
    code = _exit_code_for(exc)
    if as_json:
        from .serve.server import error_envelope

        envelope = error_envelope(exc)
        envelope["command"] = command
        envelope["exit_code"] = code
        print(json.dumps(envelope, indent=2))
        raise SystemExit(code)
    print(f"{command}: error: {exc}", file=sys.stderr)
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is not None:
        print(f"{command}:   retry after {retry_after:g}s", file=sys.stderr)
    faults = getattr(exc, "faults", None)
    if faults:
        for line in faults:
            print(f"{command}:   fault: {line}", file=sys.stderr)
    raise SystemExit(code)


def _make_cluster(args) -> object:
    """The ``--fpgas``/``--topology``/``--part`` cluster of a TAPA-CS compile."""
    return resolve_target("tapa-cs", args.fpgas, args.topology, args.part)[0]


def _emit_design(args, design, as_json: bool) -> None:
    """Print one compiled design plus any requested artifacts."""
    if not as_json:
        print(design.report())
    if args.constraints_dir:
        paths = write_constraints(design, args.constraints_dir)
        if not as_json:
            print("\nwrote constraints:")
            for path in paths:
                print(f"  {path}")
    if args.summary_json:
        with open(args.summary_json, "w") as handle:
            json.dump(serialize.design_summary(design), handle, indent=2)
        if not as_json:
            print(f"\nwrote summary: {args.summary_json}")


def _tenant_for(args) -> str:
    """Resolve ``--tenant`` (flag > REPRO_TENANT env > anonymous)."""
    from .serve import DEFAULT_TENANT

    return (
        args.tenant
        or os.environ.get("REPRO_TENANT", "").strip()
        or DEFAULT_TENANT
    )


def _compile(args):
    """``compile`` and ``simulate``: one request through the shared broker."""
    from .serve import CompileRequest, get_service

    kind = args.command
    graph = _load_graph(args.graph)
    cluster, config, flow = resolve_target(
        args.flow, args.fpgas, args.topology, args.part
    )
    # One-shot CLI invocations are interactive-class and uncached
    # (matching the historical `repro compile` behaviour); deadlines,
    # admission control, and breakers come from the shared broker.
    request = CompileRequest(
        graph, cluster, config, flow=flow, kind=kind,
        sim_config=(
            SimulationConfig(chunks=args.chunks) if kind == "simulate" else None
        ),
        deadline_s=args.deadline,
        priority="interactive",
        use_cache=False,
        tenant=_tenant_for(args),
    )
    try:
        value = get_service().execute(request)
    except TapaCSError as exc:
        # Model-level failures are findings, not crashes: a structured
        # message (or JSON envelope) and a typed exit code, no traceback.
        _fail(kind, exc, args.json)
    design, result = value if kind == "simulate" else (value, None)
    _emit_design(args, design, args.json)
    if args.json:
        print(json.dumps(result_document(kind, value), indent=2))
    elif result is not None:
        print(
            f"\nsimulated latency: {result.latency_ms:.4f} ms "
            f"at {result.frequency_mhz:.0f} MHz"
        )
        for name, busy in sorted(result.link_busy_s.items()):
            print(f"  {name}: busy {busy * 1e3:.3f} ms")


def _scenario_from_args(args):
    """Build the fault scenario a ``faults`` invocation describes.

    A ``--scenario`` file is the base (presets compose on top of it);
    with no file the presets compose on the healthy scenario.
    """
    import dataclasses

    from .faults import FaultScenario

    if args.scenario:
        try:
            scenario = FaultScenario.load(args.scenario)
        except (OSError, ValueError, TapaCSError) as exc:
            print(f"faults: cannot load scenario {args.scenario!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2)
    else:
        scenario = FaultScenario.healthy()
    pieces = []
    if args.lossy is not None:
        if not 0.0 <= args.lossy < 1.0:
            print(f"faults: --lossy must be in [0, 1), got {args.lossy}",
                  file=sys.stderr)
            raise SystemExit(2)
        scenario = dataclasses.replace(scenario, default_loss_rate=args.lossy)
        pieces.append(f"lossy{args.lossy:g}")
    for dev in args.kill_device or ():
        scenario = scenario.kill_device(dev)
        pieces.append(f"kill-dev{dev}")
    for i, j in args.kill_link or ():
        scenario = scenario.kill_link(i, j)
        pieces.append(f"kill-link{i}-{j}")
    if args.solver_budget is not None:
        scenario = dataclasses.replace(
            scenario, solver_time_limit=args.solver_budget
        )
    if pieces and not args.scenario:
        scenario = dataclasses.replace(scenario, name="+".join(pieces))
    return scenario


def _faults(args):
    from .perf.cache import cached_compile, cached_simulate

    if args.flow != "tapa-cs":
        print("faults: fault injection needs the multi-FPGA tapa-cs flow "
              f"(got --flow {args.flow})", file=sys.stderr)
        raise SystemExit(2)
    graph = _load_graph(args.graph)
    cluster = _make_cluster(args)
    scenario = _scenario_from_args(args)
    sim_config = SimulationConfig(
        chunks=args.chunks, max_sim_seconds=args.max_sim_seconds
    )
    configure_cache(enabled=False if args.no_cache else None)

    healthy_design = None
    healthy = None
    try:
        healthy_design = cached_compile(graph, cluster, flow=args.flow)
        healthy = cached_simulate(healthy_design, sim_config)
        design = cached_compile(graph, cluster, flow=args.flow, faults=scenario)
        result = cached_simulate(design, sim_config, faults=scenario)
    except (FloorplanError, SimulationError) as exc:
        if args.json:
            document = {
                "scenario": scenario.to_dict(),
                "error": type(exc).__name__,
                "message": str(exc),
                "faults": getattr(exc, "faults", None) or scenario.describe_faults(),
            }
            if healthy is not None:
                document["healthy_latency_ms"] = healthy.latency_ms
            print(json.dumps(document, indent=2))
            raise SystemExit(_exit_code_for(exc))
        _fail("faults", exc)

    slowdown = result.latency_s / healthy.latency_s if healthy.latency_s else 1.0
    devices_healthy = sorted(set(healthy_design.comm.assignment.values()))
    devices_faulted = sorted(set(design.comm.assignment.values()))
    summary = {
        "scenario": scenario.to_dict(),
        "faults": scenario.describe_faults(),
        "healthy_latency_ms": healthy.latency_ms,
        "faulted_latency_ms": result.latency_ms,
        "slowdown": slowdown,
        "healthy_frequency_mhz": healthy.frequency_mhz,
        "faulted_frequency_mhz": result.frequency_mhz,
        "healthy_devices": devices_healthy,
        "faulted_devices": devices_faulted,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return
    print(f"scenario: {scenario.name}")
    faults = scenario.describe_faults()
    if faults:
        for line in faults:
            print(f"  fault: {line}")
    else:
        print("  (healthy — no faults injected)")
    print(
        f"healthy: {healthy.latency_ms:.4f} ms at "
        f"{healthy.frequency_mhz:.0f} MHz on devices {devices_healthy}"
    )
    print(
        f"faulted: {result.latency_ms:.4f} ms at "
        f"{result.frequency_mhz:.0f} MHz on devices {devices_faulted}"
    )
    print(f"slowdown: {slowdown:.4f}x")


def _bench_interrupted(args, exc, journal, run_id, before, start, json_dir):
    """Wind down an interrupted bench run: report, partial record, 130.

    Everything already journaled survives; the printed hint shows how to
    pick the run back up with ``--resume``.
    """
    from .errors import SweepInterrupted
    from .perf.cache import cache_stats
    from .perf.sweep import take_failure_report

    wall_seconds = time.perf_counter() - start
    failures = take_failure_report()
    print(file=sys.stderr)  # move past a mid-line ^C
    if isinstance(exc, SweepInterrupted):
        print(f"bench: interrupted — {exc}", file=sys.stderr)
    else:
        print("bench: interrupted", file=sys.stderr)
    if journal is not None:
        done = journal.completed()
        if done:
            labels = sorted(journal.label_for(key) or key[:16] for key in done)
            print(
                f"bench: {len(labels)} point(s) journaled and safe:",
                file=sys.stderr,
            )
            for label in labels[:20]:
                print(f"bench:   {label}", file=sys.stderr)
            if len(labels) > 20:
                print(f"bench:   ... and {len(labels) - 20} more", file=sys.stderr)
        print(
            f"bench: resume with: python -m repro bench {args.experiment} "
            f"--resume {run_id}",
            file=sys.stderr,
        )
    if json_dir is not None:
        path = emit_bench_record(
            args.experiment,
            None,
            wall_seconds,
            before,
            cache_stats().as_dict(),
            partial=True,
            failures=failures,
            run_id=run_id,
            error="interrupted",
            out_dir=json_dir,
        )
        print(f"bench: wrote partial record: {path}", file=sys.stderr)
    raise SystemExit(130)


def _bench(args):
    from .errors import SweepInterrupted
    from .perf.cache import cache_stats
    from .perf.journal import RunJournal, activate_journal, new_run_id
    from .perf.sweep import take_failure_report

    fn = getattr(_experiments, args.experiment, None)
    if fn is None or not callable(fn):
        available = sorted(
            name
            for name in dir(_experiments)
            if name.startswith(
                ("table", "fig", "sec", "ablation", "fault", "frequency", "sweep")
            )
        )
        print(f"unknown experiment {args.experiment!r}; available:",
              file=sys.stderr)
        for name in available:
            print(f"  {name}", file=sys.stderr)
        raise SystemExit(2)
    if args.resume and args.no_journal:
        print("bench: --resume and --no-journal are mutually exclusive",
              file=sys.stderr)
        raise SystemExit(2)
    configure_cache(
        directory=args.cache_dir,
        enabled=False if args.no_cache else None,
    )
    params = inspect.signature(fn).parameters
    kwargs = {}
    if args.quick and "quick" in params:
        kwargs["quick"] = True
    if args.jobs is not None and "jobs" in params:
        kwargs["jobs"] = args.jobs

    journal = None
    run_id = args.resume
    if not args.no_journal:
        run_id = run_id or new_run_id(args.experiment)
        journal = RunJournal.open(
            run_id, runs_dir=args.runs_dir, experiment=args.experiment
        )
        if args.resume:
            done, failed = len(journal.completed()), len(journal.failed())
            note = "" if journal.mergeable else \
                " — model constants changed, every point recomputes"
            print(
                f"bench: resuming {run_id}: {done} journaled point(s), "
                f"{failed} to retry{note}"
            )
        activate_journal(journal)

    json_dir = bench_json_dir(args.json_dir)
    take_failure_report()  # drop stale reports from earlier calls
    before = cache_stats().as_dict()
    start = time.perf_counter()
    # Experiments without explicit knobs still honour the environment.
    saved = {
        key: os.environ.get(key) for key in ("REPRO_QUICK", "REPRO_BENCH_JOBS")
    }
    try:
        if args.quick:
            os.environ["REPRO_QUICK"] = "1"
        if args.jobs is not None:
            os.environ["REPRO_BENCH_JOBS"] = str(args.jobs)
        try:
            headers, rows = fn(**kwargs)
        except (KeyboardInterrupt, SweepInterrupted) as exc:
            _bench_interrupted(
                args, exc, journal, run_id, before, start, json_dir
            )
    finally:
        activate_journal(None)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    wall_seconds = time.perf_counter() - start
    failures = take_failure_report()
    if journal is not None:
        if os.path.exists(journal.path):
            journal.record_end("complete")
        journal.close()
    print(render_table(headers, rows, title=args.experiment))
    if failures:
        print()
        print(f"quarantined sweep points ({len(failures)}):")
        for failure in failures:
            print(
                f"  {failure.label}: {failure.error} "
                f"(after {failure.attempts} attempt(s))"
            )
        if journal is not None:
            print(f"retry them with: python -m repro bench {args.experiment} "
                  f"--resume {run_id}")
    if json_dir is not None:
        emit_bench_record(
            args.experiment,
            (headers, rows),
            wall_seconds,
            before,
            cache_stats().as_dict(),
            failures=failures,
            run_id=run_id,
            out_dir=json_dir,
        )
    if get_cache().enabled:
        print()
        print(stats_report())


def _perf(args):
    if args.action == "runs":
        from .perf.journal import runs_report

        print(runs_report(args.runs_dir))
        return
    configure_cache(directory=args.cache_dir)
    if args.fsck:
        checked, evicted = get_cache().fsck()
        print(f"fsck: checked {checked} entries, evicted {evicted} corrupt")
    if args.clear:
        removed = get_cache().clear()
        print(f"cleared {removed} cache entries")
    print(stats_report())


def _resolve_graph_targets(
    targets: list[str], prog: str = "lint"
) -> list[tuple[str, object]]:
    """Resolve lint/analyze targets to (label, TaskGraph) pairs.

    A graph document that cannot even be loaded (e.g. a hand-edited
    JSON whose channel references a missing task) resolves to the
    :class:`~repro.errors.GraphError` itself so the caller can report
    it as a structured diagnostic instead of a traceback.
    """
    import pathlib

    from .errors import GraphError

    def load(path: str):
        try:
            return _load_graph(path)
        except GraphError as exc:
            return exc

    resolved: list[tuple[str, object]] = []
    for target in targets:
        if target == "apps":
            for app in KNOWN_APPS:
                resolved.append((f"app:{app}", build_app_graph(app)))
            continue
        if target in KNOWN_APPS:
            resolved.append((f"app:{target}", build_app_graph(target)))
            continue
        path = pathlib.Path(target)
        if path.is_dir():
            found = sorted(path.rglob("*.json"))
            if not found:
                print(f"{prog}: no *.json graphs under {target}", file=sys.stderr)
                raise SystemExit(2)
            for item in found:
                resolved.append((str(item), load(str(item))))
        elif path.is_file():
            resolved.append((target, load(target)))
        else:
            print(
                f"{prog}: unknown target {target!r} (expected a graph JSON "
                f"file, a directory, or one of: "
                f"{', '.join(KNOWN_APPS)}, apps)",
                file=sys.stderr,
            )
            raise SystemExit(2)
    return resolved


def _rule_prefixes(value: str | None) -> list[str]:
    """Parse a ``--rules`` prefix list; empty/None mean no filtering."""
    if not value:
        return []
    from .check import RULES

    prefixes = [piece.strip() for piece in value.split(",") if piece.strip()]
    for prefix in prefixes:
        if not any(rule_id.startswith(prefix) for rule_id in RULES):
            print(
                f"lint: --rules prefix {prefix!r} matches no known rule",
                file=sys.stderr,
            )
            raise SystemExit(2)
    return prefixes


def _lint(args):
    from .check import (
        RULES,
        check_design,
        check_design_faults,
        check_graph,
        check_graph_performance,
        check_performance,
        check_scenario,
    )
    from .core.compiler import CompilerConfig
    from .errors import TapaCSError

    prefixes = _rule_prefixes(args.rules)

    if args.rules is not None and not args.targets:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            if prefixes and not any(rule.id.startswith(p) for p in prefixes):
                continue
            print(f"{rule.id}  {rule.severity.value:<7}  {rule.title}")
            print(f"       {rule.description}")
        return

    if not args.targets:
        print("lint: need at least one target (or --rules)", file=sys.stderr)
        raise SystemExit(2)

    def narrowed(report):
        """Restrict a report to the requested rule-id prefixes."""
        if not prefixes:
            return report
        from .check import DiagnosticReport

        kept = DiagnosticReport()
        kept.extend(
            d for d in report if any(d.rule.startswith(p) for p in prefixes)
        )
        return kept

    results = []
    total_errors = total_warnings = 0

    scenario = None
    if args.faults:
        from .faults import FaultScenario

        try:
            scenario = FaultScenario.load(args.faults)
        except (OSError, ValueError, TapaCSError) as exc:
            print(f"lint: cannot load scenario {args.faults!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2)
        report = narrowed(check_scenario(scenario, _make_cluster(args)))
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        results.append((f"scenario:{args.faults}", report))

    for label, graph in _resolve_graph_targets(args.targets):
        if isinstance(graph, Exception):
            from .check import DiagnosticReport

            report = DiagnosticReport()
            report.emit(
                "G002",
                f"file:{label}",
                f"graph document could not be loaded: {graph}",
                fix="fix the document so every channel endpoint names "
                    "a declared task",
            )
            report = narrowed(report)
            total_errors += len(report.errors)
            results.append((label, report))
            continue
        report = check_graph(graph)
        design = None
        if args.compile:
            # Compile with DRC off: pre-flight findings are already in
            # `report`, and a rejected compile would hide the F-rules.
            config = CompilerConfig(drc="off")
            try:
                design = compile_design(graph, _make_cluster(args), config)
            except TapaCSError as exc:
                report.emit(
                    "F200",
                    f"graph:{graph.name}",
                    f"compilation failed: {exc}",
                )
            else:
                report.extend(check_design(design))
                if scenario is not None:
                    report.extend(check_design_faults(design, scenario))
        # Performance lint (P3xx): on the compiled design when one
        # exists, else on the bare graph's contention-free envelope.
        # A graph too broken to analyze already carries structural
        # errors above, so analysis failures are not re-reported.
        try:
            if design is not None:
                report.extend(check_performance(design))
            else:
                report.extend(check_graph_performance(graph))
        except TapaCSError:
            pass
        report = narrowed(report)
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        results.append((label, report))

    if args.json:
        print(json.dumps(
            [
                {
                    "target": label,
                    "errors": len(report.errors),
                    "warnings": len(report.warnings),
                    "diagnostics": report.as_dicts(),
                }
                for label, report in results
            ],
            indent=2,
        ))
    else:
        for label, report in results:
            status = "ok" if report.ok else "FAIL"
            print(
                f"{label}: {status} ({len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s))"
            )
            for diag in report.sorted():
                print(f"  {diag.render()}")
        print(
            f"\nchecked {len(results)} design(s): {total_errors} error(s), "
            f"{total_warnings} warning(s)"
        )
    if total_errors or (args.strict and total_warnings):
        raise SystemExit(1)


def _analyze(args):
    """Static performance analysis: bounds + bottleneck attribution."""
    from .analyze import analyze_design, analyze_graph
    from .errors import TapaCSError

    sim_config = SimulationConfig(chunks=args.chunks)
    documents = []
    failed = False
    for label, graph in _resolve_graph_targets(args.targets, prog="analyze"):
        if isinstance(graph, Exception):
            print(f"analyze: {label}: {graph}", file=sys.stderr)
            failed = True
            continue
        try:
            if args.graph_only:
                report = analyze_graph(
                    graph, sim_config, part=get_part(args.part)
                )
            else:
                design = compile_design(graph, _make_cluster(args))
                report = analyze_design(design, sim_config)
        except TapaCSError as exc:
            print(f"analyze: {label}: error: {exc}", file=sys.stderr)
            failed = True
            continue
        if args.json:
            documents.append({"target": label, "report": report.to_dict()})
        else:
            print(f"{label}:")
            for line in report.render().splitlines():
                print(f"  {line}")
    if args.json:
        print(json.dumps(documents, indent=2))
    if failed:
        raise SystemExit(1)


def _serve(args):
    import signal
    import threading

    from .serve import ServiceConfig, configure_service, fetch_status
    from .serve.server import make_server, post_reload

    if args.status:
        try:
            document = fetch_status(args.host, args.port)
        except OSError as exc:
            print(
                f"serve: no service at http://{args.host}:{args.port} ({exc})",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(json.dumps(document, indent=2))
        return
    if args.reload:
        try:
            summary = post_reload(args.host, args.port)
        except OSError as exc:
            print(
                f"serve: no service at http://{args.host}:{args.port} ({exc})",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(json.dumps(summary, indent=2))
        return
    config = ServiceConfig.from_env()
    if args.workers is not None:
        config.workers = args.workers
    if args.max_queue is not None:
        config.max_queue = args.max_queue
    if args.fleet is not None:
        config.fleet_workers = args.fleet
    if args.journal_dir is not None:
        config.journal_dir = args.journal_dir
        # An explicit --journal-dir is a durability *requirement*: a
        # journal that cannot open must fail startup loudly, not fall
        # back to silently serving non-durable.
        config.journal_strict = True
    service = configure_service(config)
    server = make_server(args.host, args.port, service)
    if config.fleet_workers > 0:
        mode = f"{config.fleet_workers} worker process(es)"
    else:
        mode = f"{config.workers} worker thread(s)"
    print(
        f"repro serve: listening on http://{args.host}:{args.port} "
        f"({mode}, queue depth {config.max_queue})",
        flush=True,
    )
    if service.journal is not None:
        health = service.journal.health()
        print(
            f"repro serve: journal at {health['path']} "
            f"(replayed {health['replayed_at_boot']} of "
            f"{health['incomplete_at_boot']} incomplete entries)",
            flush=True,
        )

    # SIGTERM and SIGINT = graceful drain: admitted requests finish
    # (failover included in fleet mode), new ones get 503 + Retry-After,
    # workers are reaped, and the process exits 0 only on a clean drain.
    # SIGHUP = zero-downtime rolling restart of the fleet workers.
    drain_state = {"requested": False, "clean": True}

    def _drain_and_stop(signame):
        print(f"repro serve: {signame} received — draining", flush=True)
        drain_state["clean"] = service.drain()
        server.shutdown()

    def _on_drain_signal(signum, frame):
        if drain_state["requested"]:
            return
        drain_state["requested"] = True
        signame = signal.Signals(signum).name
        threading.Thread(
            target=_drain_and_stop, args=(signame,),
            name="repro-serve-drain", daemon=True,
        ).start()

    def _roll():
        summary = service.rolling_restart()
        print(
            f"repro serve: rolling restart done ({summary})", flush=True
        )

    def _on_sighup(signum, frame):
        threading.Thread(
            target=_roll, name="repro-serve-roll", daemon=True
        ).start()

    try:
        signal.signal(signal.SIGTERM, _on_drain_signal)
        signal.signal(signal.SIGINT, _on_drain_signal)
        if hasattr(signal, "SIGHUP"):
            signal.signal(signal.SIGHUP, _on_sighup)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - SIGINT is handled above
        service.shutdown(wait=False)
    finally:
        server.server_close()
    if drain_state["requested"]:
        verdict = "clean" if drain_state["clean"] else "timed out"
        print(f"repro serve: drain {verdict}; exiting", flush=True)
        raise SystemExit(0 if drain_state["clean"] else 1)


def _loadgen(args):
    from .serve.loadgen import (
        SCENARIOS,
        build_scenario,
        http_poster,
        render_report,
        run_scenario,
    )
    from .serve.server import fetch_status

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    post = http_poster(args.host, args.port, timeout_s=args.timeout)

    def health() -> dict:
        try:
            return fetch_status(args.host, args.port)
        except OSError:
            return {}

    # Fail fast if nothing is listening — a load test against a dead
    # port would report 100% transport errors, which is just confusing.
    if not health():
        print(
            f"loadgen: no service at http://{args.host}:{args.port} "
            f"(start one with: python -m repro serve --fleet 2)",
            file=sys.stderr,
        )
        raise SystemExit(1)

    documents = []
    for name in names:
        scenario = build_scenario(
            name,
            tenants=args.tenants,
            requests=args.requests,
            abusive_rate_rps=args.abusive_rate,
        )
        documents.append(run_scenario(scenario, post, health))
    if args.json:
        print(json.dumps(documents, indent=2))
        return
    for document in documents:
        print(render_report(document))
        print()


def _parts(_args):
    for name in known_parts():
        part = get_part(name)
        print(
            f"{name}: {part.grid_rows}x{part.grid_cols} slots, "
            f"{part.num_hbm_channels} HBM channels, "
            f"{part.resources.lut:.0f} LUTs, {part.max_frequency_mhz:.0f} MHz"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TAPA-CS reproduction toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_args(p):
        p.add_argument("graph", help="serialized task graph (JSON)")
        p.add_argument("--fpgas", type=int, default=2)
        p.add_argument("--topology", default="paper",
                       help="paper | chain | ring | bus | star | mesh | hypercube")
        p.add_argument("--part", default="u55c")
        p.add_argument("--flow", default="tapa-cs", choices=FLOWS)
        p.add_argument("--constraints-dir", default=None,
                       help="write per-device Tcl/cfg constraints here")
        p.add_argument("--summary-json", default=None,
                       help="write the compiled-design summary here")

    def add_service_args(p):
        p.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget; past ~half of it the floorplan "
                 "steps down the quality ladder instead of missing it",
        )
        p.add_argument(
            "--tenant", default=None, metavar="NAME",
            help="quota/fairness identity for this request (default: "
                 "REPRO_TENANT or the shared anonymous tenant)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="emit the result (or the error envelope) as JSON",
        )

    compile_parser = sub.add_parser("compile", help="run the TAPA-CS flow")
    add_target_args(compile_parser)
    add_service_args(compile_parser)
    compile_parser.set_defaults(handler=_compile)

    sim_parser = sub.add_parser("simulate", help="compile + performance sim")
    add_target_args(sim_parser)
    add_service_args(sim_parser)
    sim_parser.add_argument("--chunks", type=int, default=32)
    sim_parser.set_defaults(handler=_compile)

    faults_parser = sub.add_parser(
        "faults", help="compile + simulate under an injected fault scenario"
    )
    add_target_args(faults_parser)
    faults_parser.add_argument("--chunks", type=int, default=32)
    faults_parser.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="JSON fault-scenario file (presets below compose on top)",
    )
    faults_parser.add_argument(
        "--lossy", type=float, default=None, metavar="P",
        help="default per-link packet-loss rate, e.g. 1e-4",
    )
    faults_parser.add_argument(
        "--kill-device", type=int, action="append", default=None, metavar="N",
        help="mark device N failed (repeatable)",
    )
    faults_parser.add_argument(
        "--kill-link", type=int, nargs=2, action="append", default=None,
        metavar=("I", "J"), help="mark the I<->J link down (repeatable)",
    )
    faults_parser.add_argument(
        "--solver-budget", type=float, default=None, metavar="SECONDS",
        help="ILP time budget per solve (scipy falls back to branch-and-bound)",
    )
    faults_parser.add_argument(
        "--max-sim-seconds", type=float, default=None, metavar="S",
        help="watchdog: abort simulation past S simulated seconds",
    )
    faults_parser.add_argument(
        "--json", action="store_true",
        help="emit the slowdown summary as JSON",
    )
    faults_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the compile/simulate cache",
    )
    faults_parser.set_defaults(handler=_faults)

    bench_parser = sub.add_parser("bench", help="regenerate a paper table/figure")
    bench_parser.add_argument("experiment", help="e.g. table3_speedups")
    bench_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent sweep runs over N processes "
             "(default: REPRO_BENCH_JOBS or serial)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="trim swept configurations (same as REPRO_QUICK=1)",
    )
    bench_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the compile/simulate cache entirely",
    )
    bench_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: REPRO_CACHE_DIR or ~/.cache/repro-tapa-cs)",
    )
    bench_parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume (or create) the journaled run RUN_ID, skipping every "
             "sweep point it already holds (see 'repro perf runs')",
    )
    bench_parser.add_argument(
        "--no-journal", action="store_true",
        help="disable the per-point run journal (runs are not resumable)",
    )
    bench_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-journal location (default: REPRO_RUNS_DIR or <cache-dir>/runs)",
    )
    bench_parser.add_argument(
        "--json-dir", default=None, metavar="DIR",
        help="also write BENCH_<experiment>.json here "
             "(default: REPRO_BENCH_JSON_DIR or off)",
    )
    bench_parser.set_defaults(handler=_bench)

    lint_parser = sub.add_parser(
        "lint", help="static design-rule checking (graph + floorplan DRC)"
    )
    lint_parser.add_argument(
        "targets", nargs="*",
        help="graph JSON files, directories of them, app names "
             "(stencil|pagerank|knn|cnn), or 'apps' for all four",
    )
    lint_parser.add_argument(
        "--compile", action="store_true",
        help="also compile each design and run floorplan DRC on the result",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable diagnostics instead of text",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings, not only errors",
    )
    lint_parser.add_argument(
        "--rules", nargs="?", const="", default=None, metavar="PREFIXES",
        help="with no value, print the rule catalog and exit; with a "
             "comma-separated rule-id prefix list (e.g. G0,F2,P3), "
             "restrict the catalog — or, with targets, the reported "
             "diagnostics — to matching rules (use --rules=P3 when a "
             "target follows)",
    )
    lint_parser.add_argument(
        "--faults", default=None, metavar="FILE",
        help="also check the fault scenario FILE against the cluster "
             "(and, with --compile, the compiled plans against it)",
    )
    lint_parser.add_argument("--fpgas", type=int, default=2)
    lint_parser.add_argument("--topology", default="paper",
                             help="cluster topology for --compile")
    lint_parser.add_argument("--part", default="u55c")
    lint_parser.set_defaults(handler=_lint)

    analyze_parser = sub.add_parser(
        "analyze",
        help="static performance analysis: latency/throughput bounds "
             "and bottleneck attribution, without simulating",
    )
    analyze_parser.add_argument(
        "targets", nargs="+",
        help="graph JSON files, directories of them, app names "
             "(stencil|pagerank|knn|cnn), or 'apps' for all four",
    )
    analyze_parser.add_argument(
        "--graph-only", action="store_true",
        help="skip compilation and analyze the bare graph's "
             "contention-free envelope",
    )
    analyze_parser.add_argument("--chunks", type=int, default=32)
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit the full bottleneck-attribution report as JSON",
    )
    analyze_parser.add_argument("--fpgas", type=int, default=2)
    analyze_parser.add_argument("--topology", default="paper",
                                help="cluster topology for compilation")
    analyze_parser.add_argument("--part", default="u55c")
    analyze_parser.set_defaults(handler=_analyze)

    perf_parser = sub.add_parser(
        "perf", help="compile/simulate cache statistics and maintenance"
    )
    perf_parser.add_argument(
        "action", nargs="?", choices=["stats", "runs"], default="stats",
        help="'stats' (default) prints cache statistics; "
             "'runs' lists resumable journaled sweep runs",
    )
    perf_parser.add_argument(
        "--clear", action="store_true", help="delete every cached artifact"
    )
    perf_parser.add_argument(
        "--fsck", action="store_true",
        help="verify every cache entry's checksum, evicting corrupt ones",
    )
    perf_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: REPRO_CACHE_DIR or ~/.cache/repro-tapa-cs)",
    )
    perf_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-journal location (default: REPRO_RUNS_DIR or <cache-dir>/runs)",
    )
    perf_parser.set_defaults(handler=_perf)

    serve_parser = sub.add_parser(
        "serve", help="run the deadline-aware compile service over HTTP"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8179)
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker threads (default: REPRO_SERVE_WORKERS or 2)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="queue depth before requests are shed "
             "(default: REPRO_SERVE_MAX_QUEUE or 8)",
    )
    serve_parser.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help="run N supervised worker *processes* instead of threads "
             "(crash/wedge isolation, failover; default: REPRO_SERVE_FLEET "
             "or 0 = threads)",
    )
    serve_parser.add_argument(
        "--status", action="store_true",
        help="print a running instance's health JSON and exit",
    )
    serve_parser.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="write-ahead request journal: accepted requests survive a "
             "crash and replay on restart, duplicate idempotency keys "
             "dedup (default: REPRO_SERVE_JOURNAL_DIR or off)",
    )
    serve_parser.add_argument(
        "--reload", action="store_true",
        help="ask a running instance for a zero-downtime rolling "
             "restart of its fleet workers (same as SIGHUP) and exit",
    )
    serve_parser.set_defaults(handler=_serve)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="drive a running serve instance with a multi-tenant "
             "traffic scenario and report per-tenant stats",
    )
    loadgen_parser.add_argument(
        "scenario", nargs="?", default="burst",
        choices=["burst", "abusive", "herd", "all"],
        help="burst: simultaneous well-behaved tenants; abusive: one "
             "open-loop tenant at ~10x quota; herd: identical bodies "
             "collapse through single-flight; all: every scenario",
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, default=8179)
    loadgen_parser.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="well-behaved tenant count (default 3)",
    )
    loadgen_parser.add_argument(
        "--requests", type=int, default=12, metavar="N",
        help="requests per well-behaved tenant (default 12)",
    )
    loadgen_parser.add_argument(
        "--abusive-rate", type=float, default=20.0, metavar="RPS",
        help="open-loop arrival rate of the abusive tenant (default 20)",
    )
    loadgen_parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="S",
        help="per-request HTTP timeout (default 120)",
    )
    loadgen_parser.add_argument(
        "--json", action="store_true",
        help="emit the full scenario report(s) as JSON",
    )
    loadgen_parser.set_defaults(handler=_loadgen)

    parts_parser = sub.add_parser("parts", help="list the device catalog")
    parts_parser.set_defaults(handler=_parts)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except TapaCSError as exc:
        # Backstop: no command ever leaks a raw traceback for a
        # model-level failure, even on paths without their own handler.
        _fail(args.command, exc, getattr(args, "json", False))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
