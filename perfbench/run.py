"""The benchmark's one command.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``compile_cold`` — cold ``run_flow`` compiles of seven paper points in
  fresh child processes, one per derived ``PYTHONHASHSEED``, followed by
  in-process cache hits;
* ``serve_mixed`` — closed-loop clients against ``repro serve --fleet``
  with a journal, one request in ten a cold miss.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics and the tracing overhead.  Earlier lines say which
operations failed and why.  The program under test is the ``src/``
tree of the checkout this directory sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import util  # noqa: E402

WORKLOADS = ("compile_cold", "serve_mixed")


def _units() -> dict[str, str]:
    with open(os.path.join(util.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds like an exception, so that every server and child
    # this run started is stopped by the ``finally`` blocks that own it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(util.SRC, "repro", "__init__.py")):
        util.log(f"perfbench: no program to measure under {util.SRC}")
        return 2
    os.makedirs(util.WORK, exist_ok=True)
    if args.workload == "compile_cold":
        import cold

        result = cold.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve

        result = serve.run(args.seed, args.seconds, bool(args.trace))

    units = _units()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "notes": result["notes"]}, default=str))
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
