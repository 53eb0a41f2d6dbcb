#!/usr/bin/env python3
"""Kill-and-resume smoke test (runs standalone and under pytest/CI).

1. Run ``repro bench sweep_smoke`` uninterrupted → reference rows.
2. Start the same bench with a journal, SIGKILL it once at least one
   sweep point is journaled, and require every worker process it had
   to be gone 2 s later (workers must not outlive their parent).
3. Rerun with ``--resume`` against a *cold* cache, so any skipped work
   can only have come from the journal.
4. Require the resumed table to equal the reference byte for byte.

Exit 0 on success, 1 with a diagnostic on any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_ID = "kill-resume-smoke"
EXPERIMENT = "sweep_smoke"


def bench_env(base: str, cache_name: str) -> dict:
    env = os.environ.copy()
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = os.path.join(base, cache_name)
    env.pop("REPRO_BENCH_JSON_DIR", None)
    return env


def bench_cmd(base: str, json_name: str, journal: bool) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "bench", EXPERIMENT,
        "--quick", "--jobs", "2",
        "--json-dir", os.path.join(base, json_name),
        "--runs-dir", os.path.join(base, "runs"),
    ]
    cmd += ["--resume", RUN_ID] if journal else ["--no-journal"]
    return cmd


def read_rows(base: str, json_name: str):
    path = os.path.join(base, json_name, f"BENCH_{EXPERIMENT}.json")
    with open(path) as handle:
        record = json.load(handle)
    return record["headers"], record["rows"]


def journal_points(base: str) -> int:
    path = os.path.join(base, "runs", RUN_ID + ".jsonl")
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return 0
    count = 0
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("kind") == "point" and record.get("status") == "ok":
            count += 1
    return count


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a process from /proc; None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def child_pids(pid: int) -> list[int]:
    """The live child processes of ``pid`` (Linux; empty without /proc)."""
    if not os.path.isdir("/proc"):
        return []
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                children.append(int(entry))
    return children


def pid_alive(pid: int) -> bool:
    """Is ``pid`` still running (an unreaped zombie is not)?"""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def main() -> int:
    base = tempfile.mkdtemp(prefix="kill-resume-smoke-")
    print(f"work dir: {base}")

    # 1. Uninterrupted reference run (own cache, no journal).
    subprocess.run(
        bench_cmd(base, "json-ref", journal=False),
        env=bench_env(base, "cache-ref"), check=True, capture_output=True,
    )
    reference = read_rows(base, "json-ref")
    print(f"reference rows: {len(reference[1])}")

    # 2. Journaled run, SIGKILLed once >= 1 point is on disk.
    victim = subprocess.Popen(
        bench_cmd(base, "json-victim", journal=True),
        env=bench_env(base, "cache-victim"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 300
    workers: list[int] = []
    while victim.poll() is None and time.monotonic() < deadline:
        if journal_points(base) >= 1:
            workers = child_pids(victim.pid)
            victim.send_signal(signal.SIGKILL)
            break
        time.sleep(0.02)
    if victim.poll() is None and journal_points(base) < 1:
        victim.send_signal(signal.SIGKILL)  # wedged with nothing journaled
    victim.wait(timeout=60)
    survived = journal_points(base)
    if victim.returncode == -signal.SIGKILL:
        print(f"killed mid-run with {survived} point(s) journaled")
    else:
        print(f"run finished before the kill landed (rc={victim.returncode}, "
              f"{survived} point(s) journaled) — resume degenerates to full merge")
    if survived < 1:
        print("FAIL: no point survived in the journal", file=sys.stderr)
        return 1
    if workers:
        time.sleep(2.0)
        orphans = [pid for pid in workers if pid_alive(pid)]
        if orphans:
            print(f"FAIL: worker process(es) {orphans} outlived the killed "
                  "run by 2 s", file=sys.stderr)
            return 1
        print(f"all {len(workers)} worker process(es) exited after the kill")

    # 3. Resume with a cold cache: merged points come from the journal.
    resumed = subprocess.run(
        bench_cmd(base, "json-resumed", journal=True),
        env=bench_env(base, "cache-resume"),
        check=True, capture_output=True, text=True,
    )
    if f"resuming {RUN_ID}" not in resumed.stdout:
        print("FAIL: resumed run did not report resuming", file=sys.stderr)
        print(resumed.stdout, file=sys.stderr)
        return 1
    merged = read_rows(base, "json-resumed")

    # 4. The merged table must equal the uninterrupted one exactly.
    if merged != reference:
        print("FAIL: resumed rows differ from the uninterrupted run",
              file=sys.stderr)
        print(f"reference: {reference}", file=sys.stderr)
        print(f"resumed:   {merged}", file=sys.stderr)
        return 1
    print("OK: resumed table is identical to the uninterrupted run")
    shutil.rmtree(base, ignore_errors=True)  # kept on failure, for a look
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
