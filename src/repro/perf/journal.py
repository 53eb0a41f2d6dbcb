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
a corrupt middle line, a record with a field of the wrong type, or a
payload whose checksum does not match are all skipped, never raised;
a journal that does not start with a readable header is never merged.
Writing failures *are* raised (:class:`~repro.errors.JournalError`) —
silently losing journal records would break the resume contract.

The log mechanics are shared with the serve WAL
(:mod:`repro.serve.journal`): :func:`read_records` streams a log
tolerantly, :func:`encode_blob`, :func:`decode_blob` and
:func:`load_blob` store a value as a checksummed pickle,
:func:`encode_line` writes a record as one line, and :class:`AppendLog`
appends one flushed (or fsync'd) line at a time and rewrites the file
atomically while appends go on.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import pickle
import re
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ..errors import JournalError
from .fingerprint import canonical_json, model_constants_fingerprint

#: Bump when the journal line format changes incompatibly; mismatched
#: journals are listed but never merged.
JOURNAL_SCHEMA_VERSION = 1

_RUN_SUFFIX = ".jsonl"
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_NUMBER = (int, float)
#: The type of each run-journal field a fold reads.
_FIELD_TYPES = {
    "experiment": str,
    "created_unix": _NUMBER,
    "key": str,
    "label": str,
    "elapsed_s": _NUMBER,
    "error": str,
}


# ---------------------------------------------------------------------------
# The log primitive, shared with the serve WAL
# ---------------------------------------------------------------------------


def read_records(path: str, fields: dict | None = None) -> Iterator[dict]:
    """Stream the records of a JSON-Lines log, maximally tolerant.

    A missing file reads as empty.  A line is skipped when it is torn
    (the crash case), scribbled on or not a JSON object, and so is a
    record with a ``fields`` entry (name -> type or tuple of types) of
    another type: a record is applied whole or not at all.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and all(
                isinstance(record[name], kinds)
                for name, kinds in (fields or {}).items()
                if name in record
            ):
                yield record


def encode_blob(value: Any) -> dict | None:
    """The ``payload`` and ``sha256`` record fields that store ``value``,
    or None when it will not pickle.  The payload is the pickled bytes:
    :func:`encode_line` writes them as base64 text."""
    try:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return {"payload": blob, "sha256": hashlib.sha256(blob).hexdigest()}


def decode_blob(record: dict) -> bytes | None:
    """The pickled bytes a loaded record's base64 payload stores, or None
    when it stores none or they do not match their checksum: a torn or
    corrupted payload reads as never written."""
    payload = record.get("payload")
    if not isinstance(payload, str):
        return None
    try:
        blob = base64.b64decode(payload.encode("ascii"), validate=True)
    except ValueError:
        return None
    if hashlib.sha256(blob).hexdigest() != record.get("sha256"):
        return None
    return blob


def load_blob(blob: bytes | None) -> tuple[bool, Any]:
    """``(True, value)`` for the value pickled in ``blob``, or
    ``(False, None)`` when there is none or it will not unpickle."""
    if blob is None:
        return False, None
    try:
        return True, pickle.loads(blob)
    except Exception:  # unpickling damaged bytes can raise anything
        return False, None


def encode_line(record: dict) -> bytes:
    """One record as a JSON line, ``bytes`` values as base64 text."""
    text = json.dumps(
        record, sort_keys=True, separators=(",", ":"),
        default=lambda blob: base64.b64encode(blob).decode("ascii"),
    )
    return (text + "\n").encode()


class AppendLog:
    """One JSON-Lines file, opened for appending on first use.

    Not locked: each journal serializes its own calls.  The first open
    terminates a torn final line, so the next record is not glued to
    (and lost with) it, and starts an empty file with ``header()``.
    """

    def __init__(self, path: str, header: Callable[[], dict]):
        self.path = path
        self._header = header
        self._handle = None

    @property
    def size(self) -> int:
        """Bytes in the file (every append is flushed to the OS)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def append(self, lines: bytes, sync: bool = True) -> None:
        """Write :func:`encode_line` lines in one write and flush them
        to the OS; ``sync`` also fsyncs them.  Raises OSError."""
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "ab+")
            if not self._handle.seek(0, os.SEEK_END):
                self._handle.write(encode_line(self._header()))
            else:
                self._handle.seek(-1, os.SEEK_END)
                if self._handle.read(1) != b"\n":
                    self._handle.write(b"\n")
        self._handle.write(lines)
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def write_aside(self, records: Iterable[dict]) -> str:
        """Write ``header()`` and ``records`` to a temp file beside the
        log, fsync'd, and return its path for :meth:`replace`.  The log
        is not touched, so another thread may append meanwhile.  Raises
        OSError."""
        temp_path = self.path + ".compact"
        try:
            with open(temp_path, "wb") as handle:
                handle.write(encode_line(self._header()))
                for record in records:
                    handle.write(encode_line(record))
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)
            raise
        return temp_path

    def replace(self, temp_path: str, since: int) -> None:
        """Copy what the log gained past its first ``since`` bytes to the
        end of ``temp_path``, then rename that over the log.

        The copy is fsync'd before the rename, so a crash leaves either
        the old file or the new one, whole.  Raises OSError, with the
        old file untouched.
        """
        try:
            with open(temp_path, "ab") as handle:
                if self.size > since:
                    with open(self.path, "rb") as old:
                        old.seek(since)
                        shutil.copyfileobj(old, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
            self.close()
            os.replace(temp_path, self.path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)
            raise

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


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
        payload = canonical_json({"args": list(args), "kwargs": kwargs or {}})
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
        self._completed: dict[str, tuple[Any, float]] = {}
        self._failed: dict[str, str] = {}
        self._labels: dict[str, str] = {}
        #: Header and end state, folded exactly as ``list_runs`` folds it.
        self._summary = RunInfo(run_id, path, experiment)
        #: Parallel sweeps record from several threads: one header, and
        #: each record one whole line.
        self._lock = threading.Lock()
        self._log = AppendLog(path, self._header)
        for index, record in enumerate(read_records(path, _FIELD_TYPES)):
            _summarize(self._summary, record, first=not index)
            self._fold(record)
        self.experiment = self._summary.experiment

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

    def _fold(self, record: dict) -> None:
        key = record.get("key")
        if record.get("kind") != "point" or not isinstance(key, str):
            return
        label = record.get("label", "")
        if record.get("status") == "failed":
            self._failed[key] = record.get("error", "unknown failure")
            self._labels[key] = label
            return
        stored, value = load_blob(decode_blob(record))
        if not stored:
            return  # torn or corrupted: treat as never written
        self._completed[key] = (value, record.get("elapsed_s", 0.0))
        self._labels[key] = label
        self._failed.pop(key, None)

    def completed(self) -> dict[str, Any]:
        """Results of every journaled-complete point, keyed by spec key.

        Empty when the journal is not mergeable (schema or model-constant
        mismatch, or no readable header): resume then recomputes every
        point rather than mixing artifacts from two model versions.
        """
        if not self._summary.mergeable:
            return {}
        return {key: value for key, (value, _) in self._completed.items()}

    def failed(self) -> dict[str, str]:
        """Error strings of journaled-failed (quarantined) points."""
        return dict(self._failed)

    @property
    def mergeable(self) -> bool:
        return self._summary.mergeable

    @property
    def complete(self) -> bool:
        return self._summary.complete

    def label_for(self, key: str) -> str:
        return self._labels.get(key, "")

    # -- writing -------------------------------------------------------------

    def _header(self) -> dict:
        return {
            "kind": "header",
            "run_id": self.run_id,
            "experiment": self.experiment,
            "schema": JOURNAL_SCHEMA_VERSION,
            "model": model_constants_fingerprint(),
            "created_unix": time.time(),
        }

    def _append(self, record: dict) -> None:
        with self._lock:
            try:
                self._log.append(encode_line(record))
            except OSError as exc:
                raise JournalError(
                    f"cannot append to run journal {self.path}: {exc}"
                ) from exc

    def record_point(
        self, key: str, value: Any, label: str = "", elapsed_s: float = 0.0
    ) -> bool:
        """Journal one completed point; returns False when the result is
        unpicklable (the point simply stays non-resumable)."""
        encoded = encode_blob(value)
        if encoded is None:
            return False
        self._append(
            {
                "kind": "point",
                "key": key,
                "label": label,
                "status": "ok",
                "elapsed_s": elapsed_s,
                **encoded,
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
        self._summary.complete = status == "complete"

    def close(self) -> None:
        with self._lock:
            self._log.close()

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
        for index, record in enumerate(read_records(path, _FIELD_TYPES)):
            _summarize(info, record, first=not index)
        infos.append(info)
    infos.sort(key=lambda i: i.created_unix, reverse=True)
    return infos


def _summarize(info: RunInfo, record: dict, first: bool) -> None:
    """Fold one record into a run's summary (payloads are not decoded).
    A log whose ``first`` record is not its header (torn, or skipped for
    a mistyped field) names no model constants: it is never merged."""
    kind = record.get("kind")
    if first and kind != "header":
        info.mergeable = False
    if kind == "header":
        info.experiment = record.get("experiment") or info.experiment
        info.created_unix = record.get("created_unix", 0.0)
        if (
            record.get("schema") != JOURNAL_SCHEMA_VERSION
            or record.get("model") != model_constants_fingerprint()
        ):
            # Results computed under different model constants must not
            # be merged into a current-model run.
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
