"""Durable serving: the write-ahead request journal.

The broker's admission state was memory-only: a ``kill -9`` of the
serving process (or a deploy) silently discarded every admitted request,
and a client that retried after an ambiguous failure could pay for the
same compile twice.  This module closes both gaps with the same
record/replay discipline as :mod:`repro.perf.journal`:

* every **admitted** :class:`~repro.serve.broker.CompileRequest` is
  appended before the submit returns, as an ``accepted`` record
  carrying the pickled request, its tenant, admission class, deadline
  budget, and an **idempotency key** (client supplied, or derived from
  the request's content fingerprint);
* the entry then moves through its lifecycle with follow-up records:
  ``dispatched`` when a worker picks it up, then exactly one of
  ``done``, ``failed`` (with the typed error name), or ``shed``
  (terminated without execution);
* on boot the broker **replays** the journal: entries with no terminal
  record are re-enqueued with their original tenant/class/deadline, so
  accepted work survives a crash of the serving process;
* a ``done`` record under a *client* idempotency key carries the
  pickled result and feeds a **dedup table** for
  ``REPRO_SERVE_IDEMPOTENCY_TTL_S``: a retry under that key returns the
  original result instead of recompiling (``failed`` entries
  deliberately do *not* dedup — a retry after a failure deserves a
  fresh attempt).  A request without a client key has nothing to look
  up: its ``done`` record only closes the entry, which then leaves
  memory;
* ``checkpoint`` records snapshot the quota buckets and the brownout
  ceiling (:meth:`QuotaRegistry.export_state` /
  :meth:`BrownoutController.export_state`), throttled to at most one
  per ``checkpoint_interval_s``, so a restart does not reset abuse
  containment — a pre-crash abuser is still shed immediately.  The
  same throttle drops dedup entries past their TTL.

Every record is flushed to the OS before its append returns, so a
``kill -9`` of the broker loses nothing.  Only the records behind a
promise are also fsync'd against power loss: the ``accepted`` record
behind a handle :meth:`~repro.serve.broker.CompileService.submit`
returns, a client-keyed ``done`` record (retries dedup against it; its
fsync also covers the accept written before it), and ``failed``,
``shed`` and ``checkpoint`` records.  ``dispatched`` recovers exactly
like ``accepted``, the accept of a synchronous ``execute`` call
acknowledges nothing before its response, and a keyless ``done`` only
spares a replay, so those are not fsync'd.

Format: JSON Lines under ``$REPRO_SERVE_JOURNAL_DIR`` (one file,
``serve-wal.jsonl``), guarded by an exclusive ``flock`` so two broker
processes can never interleave appends.  Reading is maximally tolerant
(torn final line, corrupt middle lines, and checksum-mismatched
payloads are skipped, never raised); writing failures raise
:class:`~repro.errors.JournalError`.  The file is **compacted** on
boot: a fresh file is rewritten with only the live entries (incomplete
ones plus completed ones still inside the dedup TTL) and the latest
checkpoint, then atomically renamed over the old one, so the WAL stays
bounded across restarts.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import pickle
import threading
import time
from typing import Any, Callable

from ..errors import JournalError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

#: Bump when the record format changes incompatibly; a mismatched WAL is
#: renamed aside (never merged, never silently deleted).
SERVE_JOURNAL_SCHEMA = 1

#: The WAL file name inside the journal directory.
WAL_NAME = "serve-wal.jsonl"

#: Lifecycle states an entry can be in.
INCOMPLETE_STATES = ("accepted", "dispatched")
TERMINAL_STATES = ("done", "failed", "shed")


def default_ttl_s() -> float:
    """The completed-entry dedup TTL (env-overridable)."""
    try:
        return float(os.environ.get("REPRO_SERVE_IDEMPOTENCY_TTL_S", ""))
    except ValueError:
        return 3600.0


class JournalEntry:
    """The folded state of one journaled request."""

    __slots__ = (
        "id", "status", "idem", "derived", "fp", "tenant", "cls",
        "deadline_s", "created_unix", "completed_unix",
        "request_blob", "result_blob",
    )

    def __init__(self, entry_id: str):
        self.id = entry_id
        self.status = "accepted"
        #: The idempotency key (None: request was not idempotency-keyed).
        self.idem: str | None = None
        #: True when ``idem`` was derived from the content fingerprint
        #: (it then doubles as the broker's single-flight key on replay).
        self.derived = True
        #: The content fingerprint at accept time (conflict detection).
        self.fp: str | None = None
        self.tenant = ""
        self.cls = "batch"
        self.deadline_s: float | None = None
        self.created_unix = 0.0
        self.completed_unix = 0.0
        #: Pickled request (present while incomplete).
        self.request_blob: bytes | None = None
        #: Pickled result (present for dedup-able ``done`` entries).
        self.result_blob: bytes | None = None


def _encode_blob(value: Any) -> tuple[str, str] | None:
    """(base64 payload, sha256) for a picklable value, else None."""
    try:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return (
        base64.b64encode(blob).decode("ascii"),
        hashlib.sha256(blob).hexdigest(),
    )


def _decode_blob(record: dict) -> bytes | None:
    """The checksum-verified raw blob of a record, or None when torn."""
    payload = record.get("payload")
    digest = record.get("sha256")
    if not isinstance(payload, str) or not isinstance(digest, str):
        return None
    try:
        blob = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError):
        return None
    if hashlib.sha256(blob).hexdigest() != digest:
        return None  # torn or corrupted: treat as never written
    return blob


def disabled_health(path: str | None, error: str | None) -> dict:
    """The ``--status`` journal section when no journal is active.

    Same key set as :meth:`ServeJournal.health` so the document shape is
    stable (and diffable) whether or not durability is configured.
    """
    return {
        "enabled": False,
        "path": path,
        "error": error,
        "replayed_at_boot": 0,
        "incomplete_at_boot": 0,
        "unreplayable_at_boot": 0,
        "live_entries": 0,
        "dedup_entries": 0,
        "dedup_hits": 0,
        "appends": 0,
        "append_failures": 0,
        "checkpoints": 0,
        "append_wall_s": 0.0,
    }


class ServeJournal:
    """The broker's write-ahead log plus its in-memory replay/dedup view.

    Appends are serialized by an internal lock (the broker writes from
    its submit path and from every worker thread); each record is
    flushed before the append returns and fsync'd when it backs a
    promise (see the module docstring).  Memory holds the incomplete
    entries and the client-keyed results still inside the dedup TTL.
    """

    def __init__(
        self,
        directory: str,
        ttl_s: float | None = None,
        checkpoint_interval_s: float = 1.0,
        lock_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.time,
    ):
        self.directory = directory
        self.path = os.path.join(directory, WAL_NAME)
        self.ttl_s = default_ttl_s() if ttl_s is None else ttl_s
        self.checkpoint_interval_s = checkpoint_interval_s
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = None
        self._lockfile = None
        self._closed = False
        #: Monotonic time of the last checkpoint; None until the first,
        #: which is never throttled (monotonic time may start near 0).
        self._last_checkpoint: float | None = None
        self._checkpoint_state: dict | None = None
        #: Folded live entries (incomplete + completed-within-TTL).
        self._entries: dict[str, JournalEntry] = {}
        #: idem key -> entry id, for dedup lookups.
        self._by_idem: dict[str, str] = {}
        self._ids = itertools.count(1)
        self.counters = {
            "replayed_at_boot": 0,
            "incomplete_at_boot": 0,
            "unreplayable_at_boot": 0,
            "dedup_hits": 0,
            "appends": 0,
            "append_failures": 0,
            "checkpoints": 0,
            "append_wall_s": 0.0,
        }
        os.makedirs(directory, exist_ok=True)
        self._acquire_lock(lock_timeout_s)
        self._load()
        self._prune_expired()
        self.counters["incomplete_at_boot"] = sum(
            1
            for entry in self._entries.values()
            if entry.status in INCOMPLETE_STATES
        )
        self._compact()

    # -- exclusive ownership ---------------------------------------------------

    def _acquire_lock(self, timeout_s: float) -> None:
        """One broker process owns a journal directory at a time.

        ``flock`` releases on process death, so a restart after
        ``kill -9`` acquires cleanly; the retry loop absorbs the short
        window where orphaned fleet workers still hold the inherited
        descriptor before their parent-death check fires.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        lock_path = os.path.join(self.directory, ".serve.lock")
        handle = open(lock_path, "a+")
        deadline = time.monotonic() + max(0.0, timeout_s)
        while True:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._lockfile = handle
                return
            except OSError:
                if time.monotonic() >= deadline:
                    handle.close()
                    raise JournalError(
                        f"serve journal {self.directory} is owned by "
                        "another running broker (flock held)"
                    )
                time.sleep(0.1)

    # -- reading / recovery ----------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return
        schema_mismatch = False
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn mid-write or scribbled on: skip
            if not isinstance(record, dict):
                continue
            kind = record.get("kind")
            if kind == "header":
                if record.get("schema") != SERVE_JOURNAL_SCHEMA:
                    schema_mismatch = True
                    break
            elif kind == "accepted":
                self._fold_accepted(record)
            elif kind == "dispatched":
                entry = self._entries.get(str(record.get("id")))
                if entry is not None and entry.status == "accepted":
                    entry.status = "dispatched"
            elif kind == "done":
                self._fold_done(record)
            elif kind in ("failed", "shed"):
                entry = self._entries.pop(str(record.get("id")), None)
                if entry is not None and entry.idem is not None:
                    self._by_idem.pop(entry.idem, None)
            elif kind == "checkpoint":
                self._checkpoint_state = record
        # A closed entry without a stored result only guarded against
        # its own accept record later in the file; it is read now.
        for entry_id in [
            entry.id for entry in self._entries.values()
            if entry.status == "done" and entry.result_blob is None
        ]:
            del self._entries[entry_id]
        if schema_mismatch:
            # Never merge across schemas, never silently delete: set the
            # old WAL aside and start fresh.
            self._entries.clear()
            self._by_idem.clear()
            self._checkpoint_state = None
            try:
                os.replace(self.path, self.path + ".stale")
            except OSError:
                pass

    def _fold_accepted(self, record: dict) -> None:
        entry_id = record.get("id")
        if not isinstance(entry_id, str):
            return
        if entry_id in self._entries:
            # A done record for this id was appended first (the submit
            # path journals after enqueue, and a cache-hit compile can
            # beat the accept append): the terminal state wins — folding
            # the accept over it would re-run completed work on replay.
            return
        entry = JournalEntry(entry_id)
        idem = record.get("idem")
        entry.idem = idem if isinstance(idem, str) else None
        entry.derived = bool(record.get("derived", True))
        fp = record.get("fp")
        entry.fp = fp if isinstance(fp, str) else None
        entry.tenant = str(record.get("tenant", ""))
        entry.cls = str(record.get("class", "batch"))
        deadline_s = record.get("deadline_s")
        entry.deadline_s = (
            float(deadline_s) if isinstance(deadline_s, (int, float)) else None
        )
        entry.created_unix = float(record.get("created_unix", 0.0))
        entry.request_blob = _decode_blob(record)
        self._entries[entry_id] = entry
        if entry.idem is not None:
            self._by_idem[entry.idem] = entry_id

    def _fold_done(self, record: dict) -> None:
        entry_id = str(record.get("id"))
        entry = self._entries.get(entry_id)
        if entry is None:
            # Compacted form: a done record can stand alone, carrying
            # its own idem/fp/created fields.
            entry = JournalEntry(entry_id)
            idem = record.get("idem")
            entry.idem = idem if isinstance(idem, str) else None
            fp = record.get("fp")
            entry.fp = fp if isinstance(fp, str) else None
            entry.created_unix = float(record.get("created_unix", 0.0))
            self._entries[entry_id] = entry
            if entry.idem is not None:
                self._by_idem[entry.idem] = entry_id
        entry.status = "done"
        entry.completed_unix = float(record.get("completed_unix", 0.0))
        entry.request_blob = None  # no longer needed for replay
        entry.result_blob = _decode_blob(record)
        if entry.result_blob is None and entry.idem is not None:
            # Completed, but the result cannot be replayed: the entry is
            # closed (no re-execution) yet cannot serve dedup hits.
            self._by_idem.pop(entry.idem, None)

    def _prune_expired(self) -> None:
        # Called with the lock held (or before any other thread exists).
        if self.ttl_s <= 0:
            return
        cutoff = self._clock() - self.ttl_s
        for entry_id in list(self._entries):
            entry = self._entries[entry_id]
            if entry.status != "done":
                continue
            stamp = entry.completed_unix or entry.created_unix
            if stamp <= cutoff:
                del self._entries[entry_id]
                if entry.idem is not None and (
                    self._by_idem.get(entry.idem) == entry_id
                ):
                    del self._by_idem[entry.idem]

    def take_incomplete(self) -> list[tuple[JournalEntry, Any]]:
        """Decode every incomplete entry's request for replay.

        Returns ``(entry, request)`` pairs; entries whose pickled
        request cannot be decoded are closed with a ``shed`` record
        (counted in ``unreplayable_at_boot``) instead of raised — a
        damaged record must not wedge recovery of the healthy ones.
        """
        replayable: list[tuple[JournalEntry, Any]] = []
        for entry in list(self._entries.values()):
            if entry.status not in INCOMPLETE_STATES:
                continue
            request = None
            if entry.request_blob is not None:
                try:
                    request = pickle.loads(entry.request_blob)
                except Exception:
                    request = None
            if request is None:
                self.counters["unreplayable_at_boot"] += 1
                self.record_shed(entry.id, "unreplayable at recovery")
                continue
            replayable.append((entry, request))
        return replayable

    def restore_state(self) -> dict | None:
        """The latest checkpoint's quota/brownout snapshot, if any."""
        return self._checkpoint_state

    # -- dedup -----------------------------------------------------------------

    def lookup(self, idem: str) -> tuple[bool, Any, str | None]:
        """``(hit, value, fingerprint)`` for a completed idempotency key.

        Only ``done`` entries inside the TTL hit; a hit increments
        ``dedup_hits``.  The fingerprint is returned even on payload
        decode so callers can reject key reuse with different content.
        """
        with self._lock:
            entry_id = self._by_idem.get(idem)
            if entry_id is None:
                return False, None, None
            entry = self._entries.get(entry_id)
            if entry is None or entry.status != "done":
                return False, None, entry.fp if entry else None
            if self.ttl_s > 0:
                stamp = entry.completed_unix or entry.created_unix
                if stamp <= self._clock() - self.ttl_s:
                    del self._entries[entry_id]
                    del self._by_idem[idem]
                    return False, None, None
            if entry.result_blob is None:
                return False, None, entry.fp
            try:
                value = pickle.loads(entry.result_blob)
            except Exception:
                return False, None, entry.fp
            self.counters["dedup_hits"] += 1
            return True, value, entry.fp

    # -- writing ---------------------------------------------------------------

    def new_entry_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}-{os.urandom(4).hex()}"

    def _append(self, record: dict, sync: bool = True) -> None:
        """Write one record to the OS; with ``sync``, fsync it too."""
        start = time.monotonic()
        with self._lock:
            try:
                if self._closed:
                    raise OSError("journal is closed")
                if self._handle is None:
                    self._open_for_append()
                line = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                )
                self._handle.write(line + "\n")
                self._handle.flush()
                if sync:
                    os.fsync(self._handle.fileno())
            except OSError as exc:
                self.counters["append_failures"] += 1
                raise JournalError(
                    f"cannot append to serve journal {self.path}: {exc}"
                ) from exc
            self.counters["appends"] += 1
            self.counters["append_wall_s"] += time.monotonic() - start

    def _open_for_append(self) -> None:
        # Called with the lock held.
        is_new = not os.path.exists(self.path)
        torn = False
        if not is_new:
            # A crash can leave a torn final line with no newline;
            # terminate it so the next record starts on its own line.
            with open(self.path, "rb") as existing:
                existing.seek(0, os.SEEK_END)
                if existing.tell() > 0:
                    existing.seek(-1, os.SEEK_END)
                    torn = existing.read(1) != b"\n"
        self._handle = open(self.path, "a", encoding="utf-8")
        if torn:
            self._handle.write("\n")
        if is_new:
            header = json.dumps(
                {
                    "kind": "header",
                    "schema": SERVE_JOURNAL_SCHEMA,
                    "created_unix": self._clock(),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            self._handle.write(header + "\n")

    def record_accepted(
        self,
        entry_id: str,
        request: Any,
        idem: str | None,
        derived: bool,
        fp: str | None,
        tenant: str,
        cls: str,
        deadline_s: float | None,
        sync: bool = True,
    ) -> bool:
        """Journal one admitted request; False when it will not pickle
        (the request simply stays non-durable, never an error).

        ``sync`` fsyncs the record: set it when the caller is about to
        acknowledge the acceptance.
        """
        encoded = _encode_blob(request)
        now = self._clock()
        if encoded is not None:
            payload, digest = encoded
            self._append(
                {
                    "kind": "accepted",
                    "id": entry_id,
                    "idem": idem,
                    "derived": derived,
                    "fp": fp,
                    "tenant": tenant,
                    "class": cls,
                    "deadline_s": deadline_s,
                    "payload": payload,
                    "sha256": digest,
                    "created_unix": now,
                },
                sync=sync,
            )
        with self._lock:
            early = self._entries.get(entry_id)
            if early is not None:
                # Its done record was appended first (a cache hit can
                # beat the accept append): the terminal state wins.  A
                # done without a stored result only waited for this.
                if early.result_blob is None:
                    del self._entries[entry_id]
            elif encoded is not None:
                entry = JournalEntry(entry_id)
                entry.idem = idem
                entry.derived = derived
                entry.fp = fp
                entry.tenant = tenant
                entry.cls = cls
                entry.deadline_s = deadline_s
                entry.created_unix = now
                self._entries[entry_id] = entry
                if idem is not None:
                    self._by_idem[idem] = entry_id
        return encoded is not None

    def record_dispatched(self, entry_id: str) -> None:
        # Not fsync'd: recovery treats a dispatched entry exactly like
        # an accepted one, so losing this record loses nothing.
        self._append({"kind": "dispatched", "id": entry_id}, sync=False)
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is not None and entry.status == "accepted":
                entry.status = "dispatched"

    def record_done(
        self,
        entry_id: str,
        value: Any,
        idem: str | None = None,
        fp: str | None = None,
    ) -> bool:
        """Close an entry as completed; True when the result was stored.

        ``idem`` is the entry's *client* idempotency key (by default the
        key its accept record names, unless that key was derived).  Only
        then can a retry look the result up, so only then is the result
        pickled into the record and the record fsync'd.  Without one the
        record just closes the entry, which leaves memory.  ``idem`` and
        ``fp`` also cover the race where this done lands before the
        entry's own accept append.  An unpicklable result still closes
        the entry (no replay, no duplicate compile) — it just cannot
        serve dedup hits.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is not None:
                if idem is None and not entry.derived:
                    idem = entry.idem
                fp = fp if fp is not None else entry.fp
        record: dict = {"kind": "done", "id": entry_id, "completed_unix": now}
        encoded = None
        if idem is not None:
            encoded = _encode_blob(value)
            record.update(
                idem=idem, fp=fp,
                created_unix=entry.created_unix if entry else now,
            )
            if encoded is not None:
                record["payload"], record["sha256"] = encoded
        self._append(record, sync=idem is not None)
        with self._lock:
            entry = self._entries.pop(entry_id, None)
            if entry is not None:
                if self._by_idem.get(entry.idem) == entry_id:
                    del self._by_idem[entry.idem]
                if encoded is None:
                    return False  # closed, with nothing to look up
            else:
                # The accept append is still to come: keep a closed
                # marker for it to fold against.
                entry = JournalEntry(entry_id)
                entry.created_unix = now
            entry.idem = idem
            entry.fp = fp
            entry.status = "done"
            entry.completed_unix = now
            entry.request_blob = None
            if encoded is not None:
                entry.result_blob = base64.b64decode(encoded[0])
                self._by_idem[idem] = entry_id
            self._entries[entry_id] = entry
        return encoded is not None

    def record_failed(self, entry_id: str, error_type: str, error: str) -> None:
        """Close an entry as failed.  Failed entries never dedup: a
        retry after a failure deserves a fresh attempt."""
        self._append(
            {
                "kind": "failed",
                "id": entry_id,
                "error_type": error_type,
                "error": error[:500],
            }
        )
        self._drop_entry(entry_id)

    def record_shed(self, entry_id: str, reason: str) -> None:
        """Close an entry that was terminated without execution."""
        try:
            self._append(
                {"kind": "shed", "id": entry_id, "reason": reason[:200]}
            )
        except JournalError:
            pass  # best effort: shed records only save a future replay
        self._drop_entry(entry_id)

    def _drop_entry(self, entry_id: str) -> None:
        with self._lock:
            entry = self._entries.pop(entry_id, None)
            if entry is not None and entry.idem is not None and (
                self._by_idem.get(entry.idem) == entry_id
            ):
                del self._by_idem[entry.idem]

    def checkpoint(self, state: dict, force: bool = False) -> bool:
        """Append a quota/brownout snapshot, throttled to one per
        ``checkpoint_interval_s`` unless forced.

        Each one also drops the dedup entries past their TTL, so a
        long-running broker does not hold every result it ever served.
        """
        now = time.monotonic()
        with self._lock:
            if (
                not force
                and self._last_checkpoint is not None
                and now - self._last_checkpoint < self.checkpoint_interval_s
            ):
                return False
            self._last_checkpoint = now
            self._prune_expired()
        record = {"kind": "checkpoint", "time_unix": self._clock()}
        record.update(state)
        try:
            self._append(record)
        except JournalError:
            return False
        with self._lock:
            self._checkpoint_state = record
            self.counters["checkpoints"] += 1
        return True

    # -- compaction ------------------------------------------------------------

    def _compact(self) -> None:
        """Rewrite the WAL with only the live entries, atomically.

        Runs at boot (after load + TTL pruning).  The temp file is
        fsync'd before the rename, so a crash mid-compaction leaves
        either the old complete WAL or the new complete WAL — never a
        mix, never a loss.
        """
        if not os.path.exists(self.path):
            return
        temp_path = self.path + ".compact"
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                def write(record: dict) -> None:
                    handle.write(
                        json.dumps(
                            record, sort_keys=True, separators=(",", ":")
                        )
                        + "\n"
                    )

                write(
                    {
                        "kind": "header",
                        "schema": SERVE_JOURNAL_SCHEMA,
                        "created_unix": self._clock(),
                    }
                )
                if self._checkpoint_state is not None:
                    write(self._checkpoint_state)
                for entry in self._entries.values():
                    if entry.status in INCOMPLETE_STATES:
                        if entry.request_blob is None:
                            continue
                        record = {
                            "kind": "accepted",
                            "id": entry.id,
                            "idem": entry.idem,
                            "derived": entry.derived,
                            "fp": entry.fp,
                            "tenant": entry.tenant,
                            "class": entry.cls,
                            "deadline_s": entry.deadline_s,
                            "payload": base64.b64encode(
                                entry.request_blob
                            ).decode("ascii"),
                            "sha256": hashlib.sha256(
                                entry.request_blob
                            ).hexdigest(),
                            "created_unix": entry.created_unix,
                        }
                        write(record)
                        if entry.status == "dispatched":
                            write({"kind": "dispatched", "id": entry.id})
                    elif entry.status == "done":
                        record = {
                            "kind": "done",
                            "id": entry.id,
                            "idem": entry.idem,
                            "fp": entry.fp,
                            "created_unix": entry.created_unix,
                            "completed_unix": entry.completed_unix,
                        }
                        if entry.result_blob is not None:
                            record["payload"] = base64.b64encode(
                                entry.result_blob
                            ).decode("ascii")
                            record["sha256"] = hashlib.sha256(
                                entry.result_blob
                            ).hexdigest()
                        write(record)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except OSError:
            # Compaction is an optimization; the uncompacted WAL is
            # still correct.
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    # -- observability ---------------------------------------------------------

    def health(self) -> dict:
        """The ``repro serve --status`` journal section."""
        with self._lock:
            live = len(self._entries)
            dedup = len(self._by_idem)
            counters = dict(self.counters)
        return {
            "enabled": True,
            "path": self.path,
            "error": None,
            "replayed_at_boot": counters["replayed_at_boot"],
            "incomplete_at_boot": counters["incomplete_at_boot"],
            "unreplayable_at_boot": counters["unreplayable_at_boot"],
            "live_entries": live,
            "dedup_entries": dedup,
            "dedup_hits": counters["dedup_hits"],
            "appends": counters["appends"],
            "append_failures": counters["append_failures"],
            "checkpoints": counters["checkpoints"],
            "append_wall_s": round(counters["append_wall_s"], 6),
        }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None
            if self._lockfile is not None:
                try:
                    if fcntl is not None:
                        fcntl.flock(self._lockfile, fcntl.LOCK_UN)
                    self._lockfile.close()
                except OSError:
                    pass
                self._lockfile = None

    def __enter__(self) -> "ServeJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
