"""Append-only run journals: crash-safe bookkeeping for long sweeps.

A multi-hour bench campaign must survive preemption: the journal records
one line per *completed* sweep point, flushed and fsync'd before the
sweep moves on, so a SIGKILL at any instant loses at most the point that
was in flight.  ``run_sweep`` consults the journal before executing and
skips every point it already holds, merging the stored results — a
resumed run therefore produces byte-identical output to an uninterrupted
one.

Format: JSON Lines (one record per line) under
``$REPRO_RUNS_DIR`` (default ``<cache-dir>/runs``), one file per run id.

* line 1 — ``{"kind": "header", "run_id", "experiment", "schema",
  "model", "created_unix"}``; ``model`` is the
  :func:`~repro.perf.fingerprint.model_constants_fingerprint` at write
  time, so a journal written against older model constants is never
  merged into a run against newer ones.
* point lines — ``{"kind": "point", "key", "label", "status",
  "payload", "sha256", "elapsed_s"}``; ``payload`` is the
  base64-encoded pickle of the point's result and ``sha256`` its
  checksum.  Failed (quarantined) points are recorded with
  ``status: "failed"`` and an ``error`` string instead of a payload —
  they are *not* skipped on resume, so a transient failure gets another
  chance on the next run.
* an optional ``{"kind": "end", "status": "complete"}`` trailer marks a
  run that finished; its absence marks a partial (killed) run.

Reading is maximally tolerant: a truncated final line (the crash case),
a corrupt middle line, or a payload whose checksum does not match are
all skipped, never raised.  Writing failures *are* raised
(:class:`~repro.errors.JournalError`) — silently losing journal records
would break the resume contract.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..errors import JournalError
from .fingerprint import model_constants_fingerprint, to_jsonable

#: Bump when the journal line format changes incompatibly; mismatched
#: journals are listed but never merged.
JOURNAL_SCHEMA_VERSION = 1

_RUN_SUFFIX = ".jsonl"
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def default_runs_dir() -> str:
    """The run-journal directory, env-overridable like the cache dir."""
    explicit = os.environ.get("REPRO_RUNS_DIR")
    if explicit:
        return explicit
    from .cache import default_cache_dir

    return os.path.join(default_cache_dir(), "runs")


def new_run_id(experiment: str = "run") -> str:
    """A fresh, human-sortable run id: ``<experiment>-<utc stamp>-<pid>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    slug = re.sub(r"[^A-Za-z0-9._-]", "_", experiment) or "run"
    return f"{slug}-{stamp}-{os.getpid()}"


def spec_key(fn: Any, args: tuple = (), kwargs: dict | None = None) -> str:
    """A stable content key identifying one sweep point.

    Covers the callable's identity plus its arguments; two runs of the
    same experiment produce the same keys, which is what makes resume
    work.  Arguments the canonical-JSON encoder cannot handle fall back
    to ``repr`` — stable for the value types experiments actually sweep.
    """
    try:
        payload = json.dumps(
            to_jsonable({"args": list(args), "kwargs": kwargs or {}}),
            sort_keys=True,
            separators=(",", ":"),
        )
    except TypeError:
        payload = repr((args, sorted((kwargs or {}).items())))
    identity = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    digest = hashlib.sha256(f"{identity}|{payload}".encode()).hexdigest()
    return digest


@dataclass(slots=True)
class RunInfo:
    """Summary of one journaled run (what ``repro perf runs`` prints)."""

    run_id: str
    path: str
    experiment: str = ""
    created_unix: float = 0.0
    points_ok: int = 0
    points_failed: int = 0
    complete: bool = False
    #: False when the journal was written against different model
    #: constants (or journal schema) and would not be merged on resume.
    mergeable: bool = True


class RunJournal:
    """One run's append-only JSONL journal.

    Opening an existing path loads every valid record; appends go to the
    same file with a flush + fsync per record.  The in-memory view and
    the on-disk file never disagree by more than the record being
    written, which is exactly the crash-safety contract resume needs.
    """

    def __init__(self, path: str, run_id: str, experiment: str = ""):
        self.path = path
        self.run_id = run_id
        self.experiment = experiment
        self._completed: dict[str, tuple[Any, float]] = {}
        self._failed: dict[str, str] = {}
        self._labels: dict[str, str] = {}
        self._complete = False
        self._mergeable = True
        self._handle = None
        #: Parallel sweeps record from several threads: one header, and
        #: each record one whole line.
        self._lock = threading.Lock()
        self._load()

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls, run_id: str, runs_dir: str | None = None, experiment: str = ""
    ) -> "RunJournal":
        """Open (creating if new) the journal for ``run_id``."""
        if not _RUN_ID_RE.match(run_id):
            raise JournalError(
                f"invalid run id {run_id!r} (letters, digits, '.', '_', '-')"
            )
        directory = runs_dir or default_runs_dir()
        path = os.path.join(directory, run_id + _RUN_SUFFIX)
        return cls(path, run_id, experiment=experiment)

    # -- reading -------------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Truncated mid-write (the final line after a crash) or
                # scribbled on: skip, never raise.
                continue
            if not isinstance(record, dict):
                continue
            kind = record.get("kind")
            if kind == "header":
                self.experiment = record.get("experiment", self.experiment)
                if record.get("schema") != JOURNAL_SCHEMA_VERSION:
                    self._mergeable = False
                if record.get("model") != model_constants_fingerprint():
                    # Results computed under different model constants
                    # must not be merged into a current-model run.
                    self._mergeable = False
            elif kind == "point":
                self._load_point(record)
            elif kind == "end":
                self._complete = record.get("status") == "complete"

    def _load_point(self, record: dict) -> None:
        key = record.get("key")
        if not isinstance(key, str):
            return
        label = record.get("label", "")
        if record.get("status") == "failed":
            self._failed[key] = str(record.get("error", "unknown failure"))
            self._labels[key] = label
            return
        payload = record.get("payload")
        digest = record.get("sha256")
        if not isinstance(payload, str) or not isinstance(digest, str):
            return
        try:
            blob = base64.b64decode(payload.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            return
        if hashlib.sha256(blob).hexdigest() != digest:
            return  # torn or corrupted record: treat as never written
        try:
            value = pickle.loads(blob)
        except Exception:
            return
        self._completed[key] = (value, float(record.get("elapsed_s", 0.0)))
        self._labels[key] = label
        self._failed.pop(key, None)

    def completed(self) -> dict[str, Any]:
        """Results of every journaled-complete point, keyed by spec key.

        Empty when the journal is not mergeable (schema or model-constant
        mismatch): resume then recomputes every point rather than mixing
        artifacts from two model versions.
        """
        if not self._mergeable:
            return {}
        return {key: value for key, (value, _) in self._completed.items()}

    def failed(self) -> dict[str, str]:
        """Error strings of journaled-failed (quarantined) points."""
        return dict(self._failed)

    @property
    def mergeable(self) -> bool:
        return self._mergeable

    @property
    def complete(self) -> bool:
        return self._complete

    def label_for(self, key: str) -> str:
        return self._labels.get(key, "")

    # -- writing -------------------------------------------------------------

    def _append(self, record: dict) -> None:
        with self._lock:
            try:
                if self._handle is None:
                    os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                    is_new = not os.path.exists(self.path)
                    if not is_new:
                        # A crash can leave a torn final line with no
                        # newline; terminate it so the next record starts
                        # on its own line instead of being glued to (and
                        # lost with) it.
                        with open(self.path, "rb") as existing:
                            existing.seek(0, os.SEEK_END)
                            if existing.tell() > 0:
                                existing.seek(-1, os.SEEK_END)
                                torn = existing.read(1) != b"\n"
                            else:
                                torn = False
                    self._handle = open(self.path, "a", encoding="utf-8")
                    if not is_new and torn:
                        self._handle.write("\n")
                    if is_new:
                        self._append_raw(
                            {
                                "kind": "header",
                                "run_id": self.run_id,
                                "experiment": self.experiment,
                                "schema": JOURNAL_SCHEMA_VERSION,
                                "model": model_constants_fingerprint(),
                                "created_unix": time.time(),
                            }
                        )
                self._append_raw(record)
            except OSError as exc:
                raise JournalError(
                    f"cannot append to run journal {self.path}: {exc}"
                ) from exc

    def _append_raw(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_point(
        self, key: str, value: Any, label: str = "", elapsed_s: float = 0.0
    ) -> bool:
        """Journal one completed point; returns False when the result is
        unpicklable (the point simply stays non-resumable)."""
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        self._append(
            {
                "kind": "point",
                "key": key,
                "label": label,
                "status": "ok",
                "payload": base64.b64encode(blob).decode("ascii"),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "elapsed_s": elapsed_s,
            }
        )
        self._completed[key] = (value, elapsed_s)
        self._labels[key] = label
        self._failed.pop(key, None)
        return True

    def record_failure(self, key: str, error: str, label: str = "") -> None:
        """Journal one quarantined point (retried on the next resume)."""
        self._append(
            {
                "kind": "point",
                "key": key,
                "label": label,
                "status": "failed",
                "error": error,
            }
        )
        self._failed[key] = error
        self._labels[key] = label

    def record_end(self, status: str = "complete") -> None:
        """Mark the run finished (``repro perf runs`` shows it complete)."""
        self._append({"kind": "end", "status": status})
        self._complete = status == "complete"

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The active journal: how `repro bench` hands a journal to experiment
# functions without changing their signatures.
# ---------------------------------------------------------------------------

_ACTIVE_JOURNAL: RunJournal | None = None


def activate_journal(journal: RunJournal | None) -> None:
    """Install (or clear) the process-wide journal ``run_sweep`` uses by
    default.  The CLI activates the run's journal around the experiment
    call; library callers can also pass ``journal=`` explicitly."""
    global _ACTIVE_JOURNAL
    _ACTIVE_JOURNAL = journal


def current_journal() -> RunJournal | None:
    return _ACTIVE_JOURNAL


# ---------------------------------------------------------------------------
# Run listing (repro perf runs)
# ---------------------------------------------------------------------------


def list_runs(runs_dir: str | None = None) -> list[RunInfo]:
    """Summaries of every journaled run, newest first."""
    directory = runs_dir or default_runs_dir()
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    infos: list[RunInfo] = []
    for name in names:
        if not name.endswith(_RUN_SUFFIX):
            continue
        path = os.path.join(directory, name)
        info = RunInfo(run_id=name[: -len(_RUN_SUFFIX)], path=path)
        _scan_run(path, info)
        infos.append(info)
    infos.sort(key=lambda i: i.created_unix, reverse=True)
    return infos


def _scan_run(path: str, info: RunInfo) -> None:
    """Cheap single-pass scan of a journal file for listing purposes."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        if kind == "header":
            info.experiment = record.get("experiment", "")
            info.created_unix = float(record.get("created_unix", 0.0))
            if record.get("schema") != JOURNAL_SCHEMA_VERSION:
                info.mergeable = False
            if record.get("model") != model_constants_fingerprint():
                info.mergeable = False
        elif kind == "point":
            if record.get("status") == "failed":
                info.points_failed += 1
            else:
                info.points_ok += 1
        elif kind == "end":
            info.complete = record.get("status") == "complete"


def runs_report(runs_dir: str | None = None) -> str:
    """A human-readable table of journaled runs."""
    infos = list_runs(runs_dir)
    directory = runs_dir or default_runs_dir()
    lines = [f"runs directory: {directory}"]
    if not infos:
        lines.append("  (no journaled runs)")
        return "\n".join(lines)
    for info in infos:
        status = "complete" if info.complete else "partial"
        if not info.mergeable:
            status += ", stale-model"
        stamp = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info.created_unix))
            if info.created_unix
            else "?"
        )
        lines.append(
            f"  {info.run_id}: {info.experiment or '?'} — "
            f"{info.points_ok} ok, {info.points_failed} failed "
            f"({status}, {stamp})"
        )
    lines.append("  resume with: python -m repro bench <experiment> --resume <run-id>")
    return "\n".join(lines)
