"""The benchmark's span wrappers still find every name they wrap.

``perfbench/tracer.py`` wraps the program's entry points by module and
name at run time, so a refactor that moves or renames one breaks only
the traced benchmark run.  Installing every wrapper in a fresh
interpreter catches that here.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL_ALL = """
import sys
sys.path.insert(0, sys.argv[1])
import tracer
tracer.install_solve_guard()
tracer.install_tracer(sys.argv[2], tracer.SERVER_ENTRY_POINTS)
"""


def test_every_wrapped_entry_point_resolves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_ALL,
         os.path.join(REPO, "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
