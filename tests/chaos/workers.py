"""Module-level worker functions for chaos tests.

The sweep executor ships callables to worker processes by reference, so
everything here must live at module level.  State that has to survive a
worker death (attempt counters, crash markers) lives in files under a
directory the test passes in.
"""

from __future__ import annotations

import os
import signal
import time

from repro.perf.cache import DesignCache


def double(x):
    return 2 * x


def boom(x):
    """Always raises — the quarantine path without killing the worker."""
    raise ValueError(f"boom {x}")


def crash(x):
    """Kill the worker process hard (no exception, no cleanup)."""
    os._exit(17)


def crash_once(x, marker_path):
    """Die on the first attempt, succeed on every later one."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("crashed")
            handle.flush()
            os.fsync(handle.fileno())
        os._exit(23)
    return 2 * x


def flaky(x, counter_path, fail_times=2):
    """Raise on the first ``fail_times`` attempts, then succeed."""
    attempts = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            attempts = int(handle.read() or 0)
    attempts += 1
    with open(counter_path, "w") as handle:
        handle.write(str(attempts))
    if attempts <= fail_times:
        raise RuntimeError(f"flaky failure #{attempts}")
    return 2 * x


def sleepy(x, seconds=60.0):
    """Hang far past any reasonable per-job timeout."""
    time.sleep(seconds)
    return x


def counted_double(x, count_dir):
    """Like ``double`` but leaves one marker file per execution, so a
    test can prove a journaled point was *not* recomputed on resume."""
    path = os.path.join(count_dir, f"ran-{x}-{os.getpid()}-{time.monotonic_ns()}")
    with open(path, "w") as handle:
        handle.write("1")
    return 2 * x


def slow_double(x, seconds=0.2):
    time.sleep(seconds)
    return 2 * x


def _first_call(marker_path: str) -> bool:
    """True for exactly one call per marker path, across processes."""
    try:
        os.close(os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def exit_job(payload, remaining_s):
    """A fleet job that kills every worker that runs it: the request is
    what crashes the fleet, so failover must give up, not loop."""
    os._exit(13)


def wedge_once(payload, remaining_s):
    """A fleet job whose first copy stops its own worker with SIGSTOP: no
    heartbeats and no answer, as if stuck in native code.  Every later
    copy compiles ``payload = (marker_path, request)``."""
    from repro.serve.fleet import _run_one_request

    marker_path, request = payload
    if _first_call(marker_path):
        os.kill(os.getpid(), signal.SIGSTOP)
    return _run_one_request(request, remaining_s)


def _expected_payload(key: str):
    return ("payload", key * 3)


def hammer_cache(directory: str, iterations: int, seed: int) -> None:
    """Worker body for the concurrent-cache test.

    Loops get/put over a small shared keyspace, occasionally scribbling
    garbage over an existing entry file, and asserts that a read only
    ever yields a miss or the full correct value — never an exception,
    never a torn entry.
    """
    cache = DesignCache(directory=directory)
    keys = [f"deadbeef{i:02d}" for i in range(8)]
    for i in range(iterations):
        key = keys[(i * 7 + seed) % len(keys)]
        value = cache.get(key)
        assert value is None or value == _expected_payload(key), value
        cache.put(key, _expected_payload(key), 0.01)
        if i % 13 == seed % 13:
            # Simulate on-disk damage racing the other process.
            path = os.path.join(directory, key + ".pkl")
            try:
                with open(path, "r+b") as handle:
                    handle.write(b"junk")
            except OSError:
                pass
