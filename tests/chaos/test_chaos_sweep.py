"""Chaos tests for the supervised sweep executor.

The contract under test: no single bad point — crash, hang, or
exception — may abort a sweep or corrupt the other points' results.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.perf.sweep import (
    SweepSpec,
    run_sweep,
    run_sweep_outcome,
    take_failure_report,
)

from . import workers
from .kill_resume_smoke import (
    EXPERIMENT,
    bench_cmd,
    bench_env,
    child_pids,
    journal_points,
    pid_alive,
)


@pytest.fixture(autouse=True)
def _drain_failures():
    take_failure_report()
    yield
    take_failure_report()


def test_worker_crash_is_quarantined_not_broken_pool():
    """os._exit in a worker must land in failed[], not BrokenProcessPool."""
    specs = [
        SweepSpec(workers.double, (1,)),
        SweepSpec(workers.crash, (2,), key="crasher"),
        SweepSpec(workers.double, (3,)),
        SweepSpec(workers.double, (4,)),
    ]
    outcome = run_sweep_outcome(specs, jobs=2, retries=1, backoff_base_s=0.0)
    assert outcome.results == [2, None, 6, 8]
    assert [f.label for f in outcome.failed] == ["crasher"]
    assert outcome.failed[0].attempts == 2
    assert outcome.pool_respawns >= 1
    assert "died" in outcome.failed[0].error


def test_crash_once_recovers_after_pool_respawn(tmp_path):
    """A transient worker death is retried and ends in success."""
    marker = str(tmp_path / "crash-marker")
    specs = [
        SweepSpec(workers.crash_once, (5, marker)),
        SweepSpec(workers.double, (6,)),
    ]
    outcome = run_sweep_outcome(specs, jobs=2, retries=2, backoff_base_s=0.0)
    assert outcome.results == [10, 12]
    assert outcome.failed == []
    assert outcome.pool_respawns >= 1
    assert os.path.exists(marker)


def test_hung_worker_is_timed_out_and_quarantined():
    """A hung job trips the wall-clock timeout; innocents still finish."""
    specs = [
        SweepSpec(workers.double, (1,)),
        SweepSpec(workers.sleepy, (2,), {"seconds": 60.0}, key="hang"),
        SweepSpec(workers.double, (3,)),
    ]
    outcome = run_sweep_outcome(
        specs, jobs=2, retries=0, timeout_s=0.5, backoff_base_s=0.0
    )
    assert outcome.results == [2, None, 6]
    assert [f.label for f in outcome.failed] == ["hang"]
    assert "timed out" in outcome.failed[0].error


@pytest.mark.parametrize("jobs", [1, 2])
def test_flaky_job_retries_to_success(tmp_path, jobs):
    counter = str(tmp_path / "attempts")
    specs = [
        SweepSpec(workers.flaky, (7, counter), {"fail_times": 2}),
    ]
    outcome = run_sweep_outcome(specs, jobs=jobs, retries=2, backoff_base_s=0.0)
    assert outcome.results == [14]
    assert outcome.failed == []
    assert outcome.retried == 2
    with open(counter) as handle:
        assert int(handle.read()) == 3


def test_parallel_counters_survive_thread_switches(tmp_path):
    """More driver threads than cores, switching as often as possible:
    no completion and no retry is lost."""
    specs = [
        SweepSpec(workers.flaky, (x, str(tmp_path / f"attempts-{x}")),
                  {"fail_times": 1})
        for x in range(12)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = run_sweep_outcome(specs, jobs=4, retries=1, backoff_base_s=0.0)
    finally:
        sys.setswitchinterval(interval)
    assert outcome.results == [2 * x for x in range(12)]
    assert outcome.completed == 12
    assert outcome.retried == 12


def test_serial_path_quarantines_without_aborting():
    """--jobs 1 has no pool but keeps the retry/quarantine contract."""
    specs = [
        SweepSpec(workers.double, (1,)),
        SweepSpec(workers.boom, (2,), key="boom"),
        SweepSpec(workers.double, (3,)),
    ]
    results = run_sweep(specs, jobs=1, retries=1)
    assert results == [2, None, 6]
    report = take_failure_report()
    assert [f.label for f in report] == ["boom"]
    assert "ValueError" in report[0].error


def test_failure_report_drains_across_sweeps():
    run_sweep([SweepSpec(workers.boom, (1,), key="first")], jobs=1, retries=0)
    run_sweep([SweepSpec(workers.boom, (2,), key="second")], jobs=1, retries=0)
    labels = [f.label for f in take_failure_report()]
    assert labels == ["first", "second"]
    assert take_failure_report() == []


def test_sigterm_mid_sweep_exits_130_with_partial_record(tmp_path):
    """SIGTERM after the first journaled point of a ``--jobs 2`` bench:
    exit 130, a partial BENCH record, and no worker process left."""
    base = str(tmp_path)
    proc = subprocess.Popen(
        bench_cmd(base, "json", journal=True),
        env=bench_env(base, "cache"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        limit = time.monotonic() + 300
        while journal_points(base) < 1:
            assert proc.poll() is None, "the bench ended before a point"
            assert time.monotonic() < limit, "no point journaled in time"
            time.sleep(0.02)
        pool = child_pids(proc.pid)
        assert pool, "no worker process found"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 130
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    with open(os.path.join(base, "json", f"BENCH_{EXPERIMENT}.json")) as handle:
        assert json.load(handle)["partial"] is True
    limit = time.monotonic() + 2.0
    while any(map(pid_alive, pool)) and time.monotonic() < limit:
        time.sleep(0.05)
    assert not [pid for pid in pool if pid_alive(pid)]
