"""Chaos tests for run journals: truncation tolerance and true resume."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

from repro.perf.journal import RunJournal, spec_key
from repro.perf.sweep import SweepSpec, run_sweep_outcome

from . import workers


def open_journal(tmp_path, run_id="chaos-run"):
    return RunJournal.open(run_id, runs_dir=str(tmp_path / "runs"))


def test_truncated_final_line_is_tolerated(tmp_path):
    """The crash case: the record being written when power died."""
    journal = open_journal(tmp_path)
    journal.record_point("k1", {"v": 1}, label="one")
    journal.record_point("k2", {"v": 2}, label="two")
    journal.close()
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "point", "key": "k3", "payl')  # no newline

    reopened = open_journal(tmp_path)
    assert reopened.completed() == {"k1": {"v": 1}, "k2": {"v": 2}}
    # And appending after the torn tail still round-trips.
    reopened.record_point("k4", {"v": 4}, label="four")
    reopened.close()
    final = open_journal(tmp_path)
    assert set(final.completed()) == {"k1", "k2", "k4"}


def test_checksum_mismatch_drops_only_that_point(tmp_path):
    journal = open_journal(tmp_path)
    journal.record_point("k1", {"v": 1})
    journal.record_point("k2", {"v": 2})
    journal.close()
    lines = open(journal.path, encoding="utf-8").read().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("key") == "k1":
            record["sha256"] = "0" * 64
        doctored.append(json.dumps(record))
    with open(journal.path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(doctored) + "\n")

    reopened = open_journal(tmp_path)
    assert reopened.completed() == {"k2": {"v": 2}}


def test_model_mismatch_refuses_to_merge(tmp_path):
    journal = open_journal(tmp_path)
    journal.record_point("k1", {"v": 1})
    journal.close()
    lines = open(journal.path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["model"] = "bogus-fingerprint"
    lines[0] = json.dumps(header)
    with open(journal.path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    reopened = open_journal(tmp_path)
    assert not reopened.mergeable
    assert reopened.completed() == {}


def test_resume_skips_journaled_points(tmp_path):
    """A resumed sweep recomputes nothing it already journaled."""
    count_dir = tmp_path / "count"
    count_dir.mkdir()
    specs = [
        SweepSpec(workers.counted_double, (x, str(count_dir))) for x in range(5)
    ]
    journal = open_journal(tmp_path)
    first = run_sweep_outcome(specs, jobs=1, journal=journal)
    journal.close()
    assert first.results == [0, 2, 4, 6, 8]
    assert len(os.listdir(count_dir)) == 5

    resumed = run_sweep_outcome(specs, jobs=1, journal=open_journal(tmp_path))
    assert resumed.results == first.results
    assert resumed.resumed == 5
    assert len(os.listdir(count_dir)) == 5  # nothing ran again


def test_failed_points_are_retried_on_resume(tmp_path):
    journal = open_journal(tmp_path)
    key = spec_key(workers.double, (21,))
    journal.record_failure(key, "ValueError: transient", label="retryable")
    journal.close()

    reopened = open_journal(tmp_path)
    assert reopened.failed() == {key: "ValueError: transient"}
    outcome = run_sweep_outcome(
        [SweepSpec(workers.double, (21,))], jobs=1, journal=reopened
    )
    assert outcome.results == [42]
    assert outcome.resumed == 0  # it really ran, not merged


def test_parallel_completions_append_whole_lines(tmp_path):
    """Driver threads of a parallel sweep record into one journal: it
    keeps one header and one whole line per point."""
    specs = [SweepSpec(workers.double, (x,)) for x in range(40)]
    journal = open_journal(tmp_path)
    outcome = run_sweep_outcome(specs, jobs=2, journal=journal)
    journal.close()
    assert outcome.results == [2 * x for x in range(40)]
    with open(journal.path, encoding="utf-8") as handle:
        kinds = [json.loads(line)["kind"] for line in handle]
    assert kinds.count("header") == 1
    assert kinds.count("point") == 40
    assert len(open_journal(tmp_path).completed()) == 40


def test_concurrent_appends_keep_one_leading_header(tmp_path, monkeypatch):
    """The same, made deterministic: a slow header write must not let
    another thread's first record in ahead of it or beside it."""
    import repro.perf.journal as journal_module

    fingerprint = journal_module.model_constants_fingerprint

    def slow_fingerprint():
        time.sleep(0.05)
        return fingerprint()

    monkeypatch.setattr(
        journal_module, "model_constants_fingerprint", slow_fingerprint
    )
    journal = open_journal(tmp_path)
    threads = [
        threading.Thread(target=journal.record_point, args=(f"k{i}", i))
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    journal.close()
    with open(journal.path, encoding="utf-8") as handle:
        kinds = [json.loads(line)["kind"] for line in handle]
    assert kinds == ["header"] + ["point"] * 4


def test_kill_and_resume_end_to_end():
    """SIGKILL a journaled bench mid-sweep, resume it with a cold cache,
    and require the merged table to equal an uninterrupted run's."""
    script = os.path.join(os.path.dirname(__file__), "kill_resume_smoke.py")
    proc = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
