"""The on-disk formats of both journals, pinned.

Each test writes lines by hand, in the exact formats the run journal
(``repro.perf.journal``) and the serve WAL (``repro.serve.journal``)
write, and asserts the state a load folds out of them; then it appends
through the API and compares the bytes of the new line.  A change to
either byte format, or to how a loaded record folds, fails here.

The second half pins the tolerant readers: a record with a field of the
wrong type is skipped like a torn line — applied whole or not at all,
never raised.
"""

import base64
import hashlib
import json
import os
import pickle

import pytest

from repro.perf.fingerprint import model_constants_fingerprint
from repro.perf.journal import JOURNAL_SCHEMA_VERSION, RunJournal, list_runs
from repro.serve.broker import CompileService, ServiceConfig
from repro.serve.journal import SERVE_JOURNAL_SCHEMA, ServeJournal


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _stored(value) -> dict:
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "payload": base64.b64encode(blob).decode("ascii"),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def _write(path, lines: list[str], tail: str = "") -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines) + tail)


def _last_line(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()[-1]


def test_schema_versions_are_unchanged():
    assert JOURNAL_SCHEMA_VERSION == 1
    assert SERVE_JOURNAL_SCHEMA == 1


def test_run_journal_format(tmp_path):
    runs = tmp_path / "runs"
    path = str(runs / "pinned.jsonl")
    _write(path, [
        _line({
            "kind": "header", "run_id": "pinned", "experiment": "table3",
            "schema": 1, "model": model_constants_fingerprint(),
            "created_unix": 1_700_000_000.0,
        }),
        _line({
            "kind": "point", "key": "k1", "label": "one", "status": "ok",
            "elapsed_s": 0.5, **_stored({"v": 1}),
        }),
        _line({
            "kind": "point", "key": "k2", "label": "two",
            "status": "failed", "error": "ValueError: boom",
        }),
        _line({"kind": "end", "status": "complete"}),
    ])

    journal = RunJournal.open("pinned", runs_dir=str(runs))
    assert journal.completed() == {"k1": {"v": 1}}
    assert journal.failed() == {"k2": "ValueError: boom"}
    assert (journal.label_for("k1"), journal.label_for("k2")) == ("one", "two")
    assert journal.experiment == "table3"
    assert journal.mergeable and journal.complete

    journal.record_failure("k3", "boom", label="three")
    journal.close()
    assert _last_line(path) == (
        '{"error":"boom","key":"k3","kind":"point","label":"three",'
        '"status":"failed"}'
    )

    [info] = list_runs(str(runs))
    assert (info.run_id, info.experiment, info.created_unix) == (
        "pinned", "table3", 1_700_000_000.0
    )
    assert (info.points_ok, info.points_failed) == (1, 2)
    assert info.complete and info.mergeable


def test_serve_wal_format(tmp_path):
    directory = tmp_path / "journal"
    path = str(directory / "serve-wal.jsonl")
    accepted = {
        "kind": "accepted", "derived": False, "tenant": "acme",
        "class": "batch", "deadline_s": None, "created_unix": 1000.0,
    }
    _write(path, [
        _line({
            "kind": "header", "schema": 1,
            "model": model_constants_fingerprint(), "created_unix": 1000.0,
        }),
        # In flight, dispatched: replayed with its original metadata.
        _line({
            **accepted, "id": "a", "idem": "key-a", "fp": "fp-a",
            "class": "interactive", "deadline_s": 7.5, **_stored({"req": "a"}),
        }),
        _line({"kind": "dispatched", "id": "a"}),
        # Client-keyed and done: its stored result dedups.
        _line({
            **accepted, "id": "b", "idem": "key-b", "fp": "fp-b",
            **_stored({"req": "b"}),
        }),
        _line({"kind": "dispatched", "id": "b"}),
        _line({
            "kind": "done", "id": "b", "idem": "key-b", "fp": "fp-b",
            "created_unix": 1000.0, "completed_unix": 1001.0,
            **_stored({"answer": 42}),
        }),
        # Keyless and done: closed, gone from memory.
        _line({
            **accepted, "id": "c", "idem": "compile:c", "derived": True,
            "fp": "compile:c", **_stored({"req": "c"}),
        }),
        _line({"kind": "done", "id": "c", "completed_unix": 1001.0}),
        # Failed and shed: terminal, never dedup.
        _line({
            **accepted, "id": "d", "idem": "key-d", "fp": None,
            **_stored({"req": "d"}),
        }),
        _line({
            "kind": "failed", "id": "d", "error_type": "SolverError",
            "error": "boom",
        }),
        _line({
            **accepted, "id": "e", "idem": None, "derived": True, "fp": None,
            **_stored({"req": "e"}),
        }),
        _line({"kind": "shed", "id": "e", "reason": "queue full"}),
        _line({
            "kind": "checkpoint", "time_unix": 1002.0,
            "quotas": {"tenants": {}}, "brownout": {"level": 1},
        }),
        # Checksum-mismatched payloads: an accept that cannot replay,
        # and a keyed done that closes its entry but cannot dedup.
        _line({
            **accepted, "id": "f", "idem": "key-f", "fp": None,
            **_stored({"req": "f"}), "sha256": "0" * 64,
        }),
        _line({
            **accepted, "id": "h", "idem": "key-h", "fp": "fp-h",
            **_stored({"req": "h"}),
        }),
        _line({
            "kind": "done", "id": "h", "idem": "key-h", "fp": "fp-h",
            "created_unix": 1000.0, "completed_unix": 1001.0,
            **_stored({"answer": 7}), "sha256": "0" * 64,
        }),
    ], tail='{"kind": "accepted", "id": "g", "pay')  # torn: no newline

    journal = ServeJournal(str(directory), ttl_s=3600, clock=lambda: 1005.0)
    try:
        # The boot compaction wrote a fresh header.
        with open(path, encoding="utf-8") as handle:
            assert handle.readline().rstrip("\n") == _line({
                "kind": "header", "schema": 1,
                "model": model_constants_fingerprint(), "created_unix": 1005.0,
            })
        assert journal.counters["incomplete_at_boot"] == 2  # a and f
        assert journal.restore_state() == {
            "kind": "checkpoint", "time_unix": 1002.0,
            "quotas": {"tenants": {}}, "brownout": {"level": 1},
        }
        assert journal.lookup("key-b") == (True, {"answer": 42}, "fp-b")
        for key in ("key-d", "key-h", "compile:c"):
            assert journal.lookup(key) == (False, None, None)
        [(entry, request)] = journal.take_incomplete()
        assert request == {"req": "a"}
        assert (entry.id, entry.status, entry.idem, entry.derived) == (
            "a", "dispatched", "key-a", False
        )
        assert (entry.tenant, entry.cls, entry.deadline_s) == (
            "acme", "interactive", 7.5
        )
        assert journal.counters["unreplayable_at_boot"] == 1
        assert _last_line(path) == (
            '{"id":"f","kind":"shed","reason":"unreplayable at recovery"}'
        )
        assert journal.health()["live_entries"] == 2  # a and b

        assert journal.record_accepted(
            "z", {"req": "z"}, idem="key-z", derived=False, fp="fp-z",
            tenant="acme", cls="batch", deadline_s=None, sync=False,
        )
        assert _last_line(path) == _line({
            **accepted, "id": "z", "idem": "key-z", "fp": "fp-z",
            "created_unix": 1005.0, **_stored({"req": "z"}),
        })
        journal.record_dispatched("z")
        assert _last_line(path) == '{"id":"z","kind":"dispatched"}'
        assert journal.record_done("z", {"answer": 1})
        assert _last_line(path) == _line({
            "kind": "done", "id": "z", "idem": "key-z", "fp": "fp-z",
            "created_unix": 1005.0, "completed_unix": 1005.0,
            **_stored({"answer": 1}),
        })
    finally:
        journal.close()


# ---------------------------------------------------------------------------
# Mistyped fields are skipped like torn lines
# ---------------------------------------------------------------------------


def test_serve_wal_skips_a_mistyped_record(tmp_path):
    directory = tmp_path / "journal"
    path = str(directory / "serve-wal.jsonl")
    accepted = {
        "kind": "accepted", "derived": False, "fp": None, "tenant": "t",
        "class": "batch", "deadline_s": None, "created_unix": 1000.0,
    }
    _write(path, [
        _line({"kind": "header", "schema": 1, "created_unix": 1000.0}),
        _line({**accepted, "id": "bad", "idem": "key-bad",
               "created_unix": "yesterday", **_stored({"req": 1})}),
        _line({**accepted, "id": "good", "idem": "key-good",
               **_stored({"req": 2})}),
        _line({"kind": "done", "id": "good", "completed_unix": None}),
    ])

    journal = ServeJournal(str(directory), ttl_s=3600)
    try:
        # The bad accept and the done with a null stamp are skipped whole.
        [(entry, request)] = journal.take_incomplete()
        assert (entry.id, request) == ("good", {"req": 2})
        assert journal.lookup("key-bad") == (False, None, None)
    finally:
        journal.close()

    # Nothing left to replay; the service starts, even when strict.
    _write(path, [
        _line({"kind": "header", "schema": 1, "created_unix": 1000.0}),
        _line({**accepted, "id": "bad", "idem": "key-bad",
               "created_unix": "yesterday", **_stored({"req": 1})}),
    ])
    service = CompileService(
        ServiceConfig(workers=1, journal_dir=str(directory),
                      journal_strict=True)
    )
    try:
        doc = service.health()["journal"]
        assert doc["enabled"] and doc["error"] is None
        assert doc["incomplete_at_boot"] == 0
    finally:
        service.shutdown(wait=False)


def test_run_journal_skips_a_mistyped_record(tmp_path):
    runs = tmp_path / "runs"
    _write(str(runs / "odd.jsonl"), [
        _line({
            "kind": "header", "run_id": "odd", "experiment": "table3",
            "schema": 1, "model": model_constants_fingerprint(),
            "created_unix": 1_700_000_000.0,
        }),
        _line({"kind": "point", "key": "k1", "label": "one", "status": "ok",
               "elapsed_s": 0.5, **_stored(1)}),
        _line({"kind": "point", "key": "k2", "label": "two", "status": "ok",
               "elapsed_s": None, **_stored(2)}),
    ])

    [info] = list_runs(str(runs))
    assert (info.points_ok, info.points_failed) == (1, 0)
    assert info.mergeable
    journal = RunJournal.open("odd", runs_dir=str(runs))
    assert journal.completed() == {"k1": 1}
    journal.close()


_RUN_HEADER = {
    "kind": "header", "run_id": "odd", "experiment": "table3", "schema": 1,
    "created_unix": 1_700_000_000.0,
}


@pytest.mark.parametrize("header", [
    _line({**_RUN_HEADER, "created_unix": None, "model": "current"}),
    _line({**_RUN_HEADER, "created_unix": None, "model": "other"}),
    _line({**_RUN_HEADER, "experiment": 3, "model": "current"}),
    _line({**_RUN_HEADER, "model": "current"})[:40],  # torn
], ids=["null-stamp", "null-stamp-other-model", "mistyped-experiment",
        "torn"])
def test_run_journal_without_a_readable_header_never_merges(tmp_path, header):
    """Only the header names the model constants a journal's points were
    computed under: when it cannot be read, they are never merged."""
    runs = tmp_path / "runs"
    header = header.replace('"current"', json.dumps(
        model_constants_fingerprint()
    ))
    _write(str(runs / "odd.jsonl"), [
        header,
        _line({"kind": "point", "key": "k1", "label": "one", "status": "ok",
               "elapsed_s": 0.5, **_stored(1)}),
    ])

    [info] = list_runs(str(runs))
    assert (info.created_unix, info.points_ok) == (0.0, 1)
    assert not info.mergeable
    journal = RunJournal.open("odd", runs_dir=str(runs))
    assert not journal.mergeable
    assert journal.completed() == {}
    journal.close()


@pytest.mark.parametrize("header", [
    _line({"kind": "header", "schema": 1, "created_unix": "yesterday"}),
    _line({"kind": "header", "schema": 2, "created_unix": "yesterday"}),
    _line({"kind": "header", "schema": 1, "created_unix": 1000.0})[:20],
], ids=["mistyped-stamp", "mistyped-stamp-other-schema", "torn"])
def test_serve_wal_without_a_readable_header_is_set_aside(tmp_path, header):
    """Only the header names the schema a WAL was written in: when it
    cannot be read, the WAL is set aside like another schema's."""
    directory = tmp_path / "journal"
    path = str(directory / "serve-wal.jsonl")
    _write(path, [
        header,
        _line({
            "kind": "accepted", "id": "a", "idem": "key-a", "derived": False,
            "fp": None, "tenant": "t", "class": "batch", "deadline_s": None,
            "created_unix": 1000.0, **_stored({"req": "a"}),
        }),
    ])

    journal = ServeJournal(str(directory), ttl_s=3600)
    try:
        assert journal.take_incomplete() == []
        assert journal.counters["incomplete_at_boot"] == 0
    finally:
        journal.close()
    assert os.path.exists(path + ".stale")
