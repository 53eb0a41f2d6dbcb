"""Durable serving: the write-ahead request journal.

The broker's admission state was memory-only: a ``kill -9`` of the
serving process (or a deploy) silently discarded every admitted request,
and a client that retried after an ambiguous failure could pay for the
same compile twice.  This module closes both gaps with a WAL built on
the append-only log of :mod:`repro.perf.journal`:

* every **admitted** :class:`~repro.serve.broker.CompileRequest` is
  appended before the submit returns, as an ``accepted`` record
  carrying the pickled request, its tenant, admission class, deadline
  budget, and an **idempotency key** (client supplied, or derived from
  the request's content fingerprint);
* the entry then moves through its lifecycle with follow-up records:
  ``dispatched`` when it gets an execution slot, then exactly one of
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
(torn final line, corrupt middle lines, records with a mistyped field
and checksum-mismatched payloads are skipped, never raised); writing
failures raise :class:`~repro.errors.JournalError`.  A WAL that does
not start with a readable header of this schema is set aside, never
merged.  One fold builds the in-memory view, from the file at boot and
from each record as it is appended.  The file is **compacted** at boot,
and on a background thread once a checkpoint finds it past
:data:`COMPACT_MIN_BYTES` and doubled since the last compaction: a
fresh file is written with only the live entries (incomplete ones plus
completed ones still inside the dedup TTL) and the latest checkpoint,
then atomically renamed over the old one, so the WAL stays bounded
while serving and across restarts.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Callable, Sequence

from ..errors import JournalError
from ..perf.journal import (
    AppendLog,
    decode_blob,
    encode_blob,
    encode_line,
    load_blob,
    read_records,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

#: Bump when the record format changes incompatibly; a mismatched WAL is
#: renamed aside (never merged, never silently deleted).
SERVE_JOURNAL_SCHEMA = 1

#: The WAL file name inside the journal directory.
WAL_NAME = "serve-wal.jsonl"

#: A running broker compacts its WAL once the file is past this size and
#: twice its size after the previous compaction (checked at checkpoints).
COMPACT_MIN_BYTES = 8 << 20

#: Lifecycle states an entry can be in.
INCOMPLETE_STATES = ("accepted", "dispatched")
TERMINAL_STATES = ("done", "failed", "shed")

_NONE = type(None)
#: The type of each entry field the fold reads.
_FIELD_TYPES = {
    "id": str,
    "idem": (str, _NONE),
    "derived": bool,
    "fp": (str, _NONE),
    "tenant": str,
    "class": str,
    "deadline_s": (int, float, _NONE),
    "created_unix": (int, float),
    "completed_unix": (int, float),
}


def default_ttl_s() -> float:
    """The completed-entry dedup TTL (env-overridable)."""
    try:
        return float(os.environ.get("REPRO_SERVE_IDEMPOTENCY_TTL_S", ""))
    except ValueError:
        return 3600.0


class JournalEntry:
    """One live request: its lifecycle status and the record that
    defines it — its accept while incomplete, its done once completed.
    The record's ``payload`` is held as the pickled bytes, not the base64
    text they are written as."""

    __slots__ = (
        "record", "status", "id", "idem", "derived", "fp", "tenant", "cls",
        "deadline_s", "created_unix", "completed_unix",
    )

    def __init__(self, record: dict, status: str):
        self.record = record
        self.status = status
        self.id: str = record["id"]
        #: The idempotency key (None: request was not idempotency-keyed).
        self.idem: str | None = record.get("idem")
        #: True when ``idem`` was derived from the content fingerprint
        #: (it then doubles as the broker's single-flight key on replay).
        self.derived: bool = record.get("derived", True)
        #: The content fingerprint at accept time (conflict detection).
        self.fp: str | None = record.get("fp")
        self.tenant: str = record.get("tenant", "")
        self.cls: str = record.get("class", "batch")
        self.deadline_s: float | None = record.get("deadline_s")
        self.created_unix: float = record.get("created_unix", 0.0)
        self.completed_unix: float = record.get("completed_unix", 0.0)

    @property
    def stored(self) -> bool:
        """True when the record carries a pickle: the request of an
        accept, or the result a client-keyed done dedups with."""
        return "payload" in self.record


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
    every thread that runs a request); each record is
    flushed before the append returns and fsync'd when it backs a
    promise (see the module docstring).  Memory holds the incomplete
    entries and the client-keyed results still inside the dedup TTL,
    and only :meth:`_fold` changes it: at boot for every record read,
    then for every record appended, under the lock that wrote it.
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
        #: The thread compacting the WAL while serving, if any.
        self._compactor: threading.Thread | None = None
        self._log = AppendLog(self.path, self._header)
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
        #: WAL size right after the last compaction.
        self._compacted_size = 0
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
        self._prune(boot=True)
        self.counters["incomplete_at_boot"] = sum(
            1
            for entry in self._entries.values()
            if entry.status in INCOMPLETE_STATES
        )
        if os.path.exists(self.path):
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

    # -- the view --------------------------------------------------------------

    def _load(self) -> None:
        records = read_records(self.path, _FIELD_TYPES)
        # One result stored under several keys (a flight's followers)
        # is held once, as it was while serving.
        blobs: dict[str, bytes] = {}
        for index, record in enumerate(records):
            if index == 0 and (
                record.get("kind") != "header"
                or record.get("schema") != SERVE_JOURNAL_SCHEMA
            ):
                # Another schema, or no readable header to name one:
                # never merge, never silently delete.  Set the old WAL
                # aside and start fresh.
                try:
                    os.replace(self.path, self.path + ".stale")
                except OSError:
                    pass
                return
            if "payload" in record:
                payload = decode_blob(record)
                if payload is None:
                    # Torn or corrupted: the record still opens or
                    # closes its entry, but stores nothing.
                    del record["payload"]
                    record.pop("sha256", None)
                else:
                    record["payload"] = blobs.setdefault(
                        record["sha256"], payload
                    )
            self._fold(record)

    def _fold(self, record: dict) -> None:
        """Apply one record to the view (lock held, or at boot).

        One entry's records may come in any order (a WAL written by a
        broker whose workers did not wait for the accept append can hold
        a fast cache hit's done before its accept).  No hashing, base64
        or pickling happens here: payloads are verified when they are
        loaded and unpickled when they are used.
        """
        kind = record.get("kind")
        if kind == "checkpoint":
            self._checkpoint_state = record
            return
        if "id" not in record:
            return
        entry = self._entries.get(record["id"])
        if kind == "accepted":
            if entry is None:
                self._add(JournalEntry(record, "accepted"))
            elif entry.status == "done" and not entry.stored:
                # Its done came first and only waited for this.  A
                # stored done wins: the accept would re-run completed
                # work on replay.
                self._drop(entry)
        elif kind == "dispatched":
            if entry is not None and entry.status == "accepted":
                entry.status = "dispatched"
        elif kind == "done":
            if entry is not None:
                self._drop(entry)
            if "payload" in record or entry is None:
                # A stored result serves dedup; a done that beat its
                # accept append stays as a marker for that accept.
                self._add(JournalEntry(record, "done"))
        elif kind in ("failed", "shed") and entry is not None:
            self._drop(entry)

    def _add(self, entry: JournalEntry) -> None:
        self._entries[entry.id] = entry
        if entry.idem is not None and (
            entry.status != "done" or entry.stored
        ):
            self._by_idem[entry.idem] = entry.id

    def _drop(self, entry: JournalEntry) -> None:
        del self._entries[entry.id]
        if self._by_idem.get(entry.idem) == entry.id:
            del self._by_idem[entry.idem]

    def _expired(self, entry: JournalEntry) -> bool:
        stamp = entry.completed_unix or entry.created_unix
        return self.ttl_s > 0 and stamp <= self._clock() - self.ttl_s

    def _prune(self, boot: bool = False) -> None:
        """Drop done entries past the dedup TTL (lock held, or at boot).

        At boot every record the predecessor wrote has been read, so a
        done marker still waiting for its accept goes too.
        """
        for entry in list(self._entries.values()):
            if entry.status == "done" and (
                (boot and not entry.stored) or self._expired(entry)
            ):
                self._drop(entry)

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
            replays, request = load_blob(entry.record.get("payload"))
            if not replays:
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
            entry = self._entries.get(self._by_idem.get(idem))
            if entry is None:
                return False, None, None
            if entry.status != "done":
                return False, None, entry.fp
            if self._expired(entry):
                self._drop(entry)
                return False, None, None
            stored, value = load_blob(entry.record.get("payload"))
            if not stored:
                return False, None, entry.fp
            self.counters["dedup_hits"] += 1
            return True, value, entry.fp

    # -- writing ---------------------------------------------------------------

    def new_entry_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}-{os.urandom(4).hex()}"

    def _header(self) -> dict:
        return {
            "kind": "header",
            "schema": SERVE_JOURNAL_SCHEMA,
            "created_unix": self._clock(),
        }

    def _append(self, *records: dict, sync: bool = True) -> None:
        """Write records to the OS in one write (fsync'd with ``sync``)
        and fold them under the same lock: the view never runs ahead of
        the file, and a compaction never drops a record that is written.
        The lines are encoded before the lock is taken."""
        start = time.monotonic()
        lines = b"".join(encode_line(record) for record in records)
        with self._lock:
            try:
                if self._closed:
                    raise OSError("journal is closed")
                self._log.append(lines, sync)
            except OSError as exc:
                self.counters["append_failures"] += 1
                raise JournalError(
                    f"cannot append to serve journal {self.path}: {exc}"
                ) from exc
            for record in records:
                self._fold(record)
            self.counters["appends"] += len(records)
            self.counters["append_wall_s"] += time.monotonic() - start

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
        encoded = encode_blob(request)
        if encoded is None:
            return False
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
                "created_unix": self._clock(),
                **encoded,
            },
            sync=sync,
        )
        return True

    def record_dispatched(self, entry_id: str) -> None:
        # Not fsync'd: recovery treats a dispatched entry exactly like
        # an accepted one, so losing this record loses nothing.
        self._append({"kind": "dispatched", "id": entry_id}, sync=False)

    def record_done(
        self,
        entry_id: str,
        value: Any,
        idem: str | None = None,
        fp: str | None = None,
        followers: Sequence[str] = (),
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

        ``followers`` are the client keys of requests that joined this
        entry's flight.  Each gets a stored done record of its own under
        a fresh entry id.  The result is pickled once and its bytes are
        shared by every record; all of them go out in one write with one
        fsync.
        """
        now = self._clock()
        created = now
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is not None:
                if idem is None and not entry.derived:
                    idem = entry.idem
                fp = fp if fp is not None else entry.fp
                created = entry.created_unix
        record: dict = {"kind": "done", "id": entry_id, "completed_unix": now}
        records = [record]
        blob = encode_blob(value) if idem is not None or followers else None
        if idem is not None:
            record.update(idem=idem, fp=fp, created_unix=created, **(blob or {}))
        if blob is not None:
            # Without a payload a follower's record could serve no retry.
            records += [
                {"kind": "done", "id": self.new_entry_id(), "idem": key,
                 "fp": fp, "created_unix": now, "completed_unix": now, **blob}
                for key in followers
            ]
        self._append(*records, sync=len(records) > 1 or idem is not None)
        return "payload" in record

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

    def record_shed(self, entry_id: str, reason: str) -> None:
        """Close an entry that was terminated without execution."""
        try:
            self._append(
                {"kind": "shed", "id": entry_id, "reason": reason[:200]}
            )
        except JournalError:
            pass  # best effort: shed records only save a future replay

    def checkpoint(self, state: dict, force: bool = False) -> bool:
        """Append a quota/brownout snapshot, throttled to one per
        ``checkpoint_interval_s`` unless forced.

        Each one also drops the dedup entries past their TTL, so a
        long-running broker does not hold every result it ever served,
        and once the WAL has outgrown its live entries
        (:data:`COMPACT_MIN_BYTES`) starts :meth:`_compact`, so the file
        stays bounded too.
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
            self._prune()
            if not self._closed and self._log.size > max(
                COMPACT_MIN_BYTES, 2 * self._compacted_size
            ) and not (self._compactor and self._compactor.is_alive()):
                # Off the caller's path: a rewrite takes as long as the
                # live set is large.
                self._compactor = threading.Thread(
                    target=self._compact, name="serve-wal-compact", daemon=True
                )
                self._compactor.start()
        record = {"kind": "checkpoint", "time_unix": self._clock()}
        record.update(state)
        try:
            self._append(record)
        except JournalError:
            return False
        with self._lock:
            self.counters["checkpoints"] += 1
        return True

    def _compact(self) -> None:
        """Rewrite the WAL with only the live entries, atomically: the
        latest checkpoint, then each entry's defining record, verbatim.

        Runs at boot, and on its own thread when a checkpoint finds the
        WAL grown.  Only the first and last steps take the journal lock:
        the first snapshots the live records with the file size they
        reflect, the rewrite (base64 and fsync) runs without the lock,
        and the last copies what was appended meanwhile and renames.  So
        appends and dedup lookups wait for that tail, not the live set.
        """
        try:
            with self._lock:
                if self._closed:
                    return
                records = (
                    [self._checkpoint_state] if self._checkpoint_state else []
                )
                for entry in self._entries.values():
                    records.append(entry.record)
                    if entry.status == "dispatched":
                        records.append({"kind": "dispatched", "id": entry.id})
                # Also what a failed rewrite waits to see doubled.
                since = self._compacted_size = self._log.size
            # Open until after the rename: the old file's blocks are
            # freed when it closes, without the lock.
            with open(self.path, "rb"):
                temp_path = self._log.write_aside(records)
                with self._lock:
                    if self._closed:
                        os.unlink(temp_path)
                        return
                    self._log.replace(temp_path, since)
                    self._compacted_size = self._log.size
        except OSError:
            pass  # an optimization: the uncompacted WAL is still correct

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
            self._closed = True  # a running compactor gives up
        if self._compactor is not None:
            self._compactor.join()  # its temp file must not outlive the flock
        with self._lock:
            self._log.close()
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
