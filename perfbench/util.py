"""Helpers shared by the benchmark's processes: paths, statistics, the
host speed probe, per-process resource readings and child-process
hygiene.

Nothing here imports the program under test.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, journals, span files and digest records.
#: It lives inside the checkout (the benchmark writes nowhere else) and
#: is listed in the repository's .gitignore.
WORK = os.path.join(ROOT, ".perfbench_work")

#: A failed or refused request counts as slower than any percentile.
FAILED_LATENCY = math.inf
#: JSON has no infinity: a percentile that lands on a failure prints as this.
FAILED_LATENCY_MS = 1e9
#: Quantile over windows that :func:`calm` reports.
CALM_Q = 0.1


def nproc() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def program_digest() -> str:
    """Digest of the program under test: every ``*.py`` file under ``src/``.

    Records that compare one run with another (design digests per seed)
    are keyed by it, so a run is compared only with runs of identical
    code.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def hash_seeds(seed: int, label: str, count: int) -> list[int]:
    """``count`` distinct ``PYTHONHASHSEED`` values derived from the seed."""
    rng = random.Random(f"{label}:{seed}")
    seeds: list[int] = []
    while len(seeds) < count:
        value = rng.randrange(1, 2**32 - 1)
        if value not in seeds:
            seeds.append(value)
    return seeds


def program_env(hash_seed: int, **extra: str) -> dict[str, str]:
    """Environment for one process of the program under test.

    Inherited ``REPRO_*`` knobs are dropped so that every run sees the
    program's defaults plus exactly the settings given here.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["TMPDIR"] = WORK
    env.update(extra)
    return env


def make_workdir(label: str) -> str:
    path = os.path.join(WORK, f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); inf entries sort last."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def calm(values: list[float], higher_is_better: bool = False) -> float:
    """The best decile of a metric computed once per window of a run: its
    10th percentile if lower is better, its 90th if higher is better.

    On a host whose cores are shared with other tenants the same code
    runs up to 1.9x slower for seconds to minutes at a time.  A whole-run
    median mixes disturbed and undisturbed windows in a share that
    changes from run to run; the best decile comes from the run's least
    disturbed windows, so it follows the program, not its neighbours.
    """
    return percentile(values, 1.0 - CALM_Q if higher_is_better else CALM_Q)


#: The reference speed: a typical probe reading on the 2-vCPU host the
#: benchmark was built on (0.45-0.85 ms per call over its proof runs), so
#: a scaled time reads close to what that host measures.
#: :func:`at_reference_speed` scales a time measured beside a probe
#: reading to this speed.
PROBE_REF_S = 6.5e-4
_PROBE_DOC = {f"k{i}": {"a": i, "b": [i, str(i), i * 0.5], "c": f"v{i}"}
              for i in range(120)}


def _probe_kernel() -> None:
    text = json.dumps(_PROBE_DOC, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    json.loads(text)


def probe(calls: int = 3) -> float:
    """Median CPU seconds per call of a fixed stdlib kernel (a sorted JSON
    encode, a SHA-256 and a JSON decode) that imports nothing of the
    program.

    Timed right beside the program's work, it says how fast the host ran
    a CPU just then.  It counts the calling thread's CPU time, so time
    spent waiting for a CPU the program keeps busy does not enter the
    reading.
    """
    times = []
    for _ in range(calls):
        start = time.thread_time()
        _probe_kernel()
        times.append(time.thread_time() - start)
    return statistics.median(times)


def probe_once() -> tuple[float, float]:
    """Wall and CPU seconds of one call of the probe's kernel, with the
    garbage collector held off so that no collection lands inside it.

    An untimed call goes first, so the timed one finds its data in the
    caches whatever the program's work before it evicted.  Unlike the
    CPU time, the wall time counts time the host took the CPU away from
    the guest (steal), which a wall-clock latency measured beside it
    counts too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_kernel()
        wall, cpu = time.perf_counter(), time.thread_time()
        _probe_kernel()
        return time.perf_counter() - wall, time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Reads :func:`probe` on each CPU the benchmark may use, every
    ``every_s``, from a background thread that pins itself to one CPU at
    a time.  The program's processes move between the CPUs, so the mean
    over CPUs stands for the host's speed for them.

    With an allocation-heavy busy loop pinned to each CPU, the median
    reading moved by under 2 %: readings follow the host, not the
    program's own load.
    """

    def __init__(self, every_s: float = 0.2) -> None:
        self.every_s = every_s
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        try:
            while not self._stop.wait(self.every_s):
                readings = []
                for cpu in cpus:
                    os.sched_setaffinity(0, {cpu})  # this thread only
                    readings.append(probe())
                self.samples.append((time.perf_counter(), statistics.fmean(readings)))
        finally:
            os.sched_setaffinity(0, cpus)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def reading(self, start: float, end: float) -> float:
        """Median reading between two ``time.perf_counter`` instants, or
        the nearest reading if none fell between them."""
        inside = [v for t, v in self.samples if start <= t <= end]
        if inside:
            return statistics.median(inside)
        middle = (start + end) / 2
        return min(self.samples, key=lambda s: abs(s[0] - middle))[1]


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s`` per call,
    scaled to the time it would take at :data:`PROBE_REF_S`."""
    return seconds * PROBE_REF_S / probe_s


def latency_ms(seconds: float) -> float:
    value = seconds * 1e3
    return FAILED_LATENCY_MS if math.isinf(value) else value


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> list[int]:
    """Direct children of a process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def stop_process(proc: subprocess.Popen, grace_s: float = 20.0) -> int:
    """SIGTERM, wait up to ``grace_s``, then SIGKILL; returns the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


def wait_gone(pids: list[int], timeout_s: float = 10.0) -> None:
    """Wait for processes this run caused (e.g. fleet workers) to end."""
    limit = time.monotonic() + timeout_s
    while time.monotonic() < limit:
        if not any(pid_alive(p) for p in pids):
            return
        time.sleep(0.05)
    for pid in pids:
        if pid_alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
