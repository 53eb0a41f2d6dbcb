"""A wedged ILP solver for chaos tests: every solve hangs, then fails.

:func:`wedge_ilp` rebinds :func:`repro.ilp.solver.solve` in every loaded
``repro`` module, as ``perfbench/tracer.py`` installs its solve guard:
modules bind the name at import (``from ..ilp import solve``), so
patching only the defining module would miss them.  A wedged solve
holds its caller for ``min(seconds, time_limit)`` and then raises
:class:`~repro.errors.SolverError`, after the ambient deadline has
clamped the limit.  With ``count`` set, only the first ``count`` solves
of the process wedge and later ones reach the real backend, so a
breaker's open -> half-open -> closed cycle can be observed.  Fleet
workers forked after the patch inherit it, each with the budget left
at the fork.

Run as a script it is the launcher for ``serve_smoke.py``: it wedges
the solver, lets an open breaker probe again after 1 s instead of 10 s,
and runs the ``repro`` CLI with the remaining arguments::

    PYTHONPATH=src python tests/chaos/wedge.py --seconds 0.3 --count 4 \\
        serve --port 8179
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
import time


def wedge_ilp(seconds: float, count: int | None = None, patch=setattr) -> None:
    """Wedge this process's ILP solves (the first ``count`` only, if set).

    ``patch(module, name, value)`` does the rebinding; a test passes
    ``monkeypatch.setattr`` so the real ``solve`` returns at teardown.
    """
    import repro.ilp.solver as solver
    from repro.errors import SolverError

    # The compiler loads every module that imports ``solve`` by name, so
    # none of them keeps the real one.
    importlib.import_module("repro.core.compiler")
    original = solver.solve
    calls = itertools.count()

    def wedged(model, backend="scipy", time_limit=None, fallback=True):
        limit = solver._effective_time_limit(time_limit)
        if count is not None and next(calls) >= count:
            return original(model, backend, time_limit, fallback)
        hold = seconds if limit is None else min(seconds, limit)
        if hold > 0:
            time.sleep(hold)
        raise SolverError(f"chaos: ILP backend wedged for {hold:g}s")

    rebound = 0
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", None) or ""
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                patch(module, key, wedged)
                rebound += 1
    if not rebound:
        raise RuntimeError("no module holds repro.ilp.solver.solve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the repro CLI with a wedged ILP solver"
    )
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each wedged solve hangs")
    parser.add_argument("--count", type=int, default=None,
                        help="wedge only the first COUNT solves")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    wedge_ilp(args.seconds, args.count)
    from repro import cli
    from repro.serve.breaker import BreakerConfig
    from repro.serve.broker import ServiceConfig

    from_env = ServiceConfig.from_env

    def with_quick_reset() -> ServiceConfig:
        config = from_env()
        config.breaker = BreakerConfig(reset_timeout_s=1.0)
        return config

    ServiceConfig.from_env = staticmethod(with_quick_reset)
    return cli.main(args.repro_args)


if __name__ == "__main__":
    raise SystemExit(main())
