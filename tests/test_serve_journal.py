"""Durable serving: the write-ahead request journal and its broker wiring.

Three layers under test:

* :class:`repro.serve.journal.ServeJournal` alone — the lifecycle fold
  (accepted → dispatched → done|failed|shed), tolerant reads over torn
  files, TTL'd dedup, checkpoints, compaction at boot and while
  serving, the flock that keeps two brokers off one directory, and a
  property: after any history the broker writes, the in-memory view is
  what a reopened journal folds from the file;
* the broker integration — a submit is fsync'd before it is
  acknowledged, duplicate idempotency keys dedup against the journal or
  join the in-flight leader, key reuse with different content is a typed
  conflict;
* crash recovery — a service that dies with admitted work re-enqueues it
  on the next boot with the original tenant/class/deadline, exactly
  once, and the checkpointed quota state still sheds a pre-crash abuser
  immediately.
"""

import collections
import json
import os
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.journal as journal_module
from repro.cluster import paper_testbed
from repro.errors import (
    IdempotencyConflictError,
    JournalError,
    QuotaExceededError,
)
from repro.serve.broker import CompileRequest, CompileService, ServiceConfig
from repro.serve.journal import INCOMPLETE_STATES, ServeJournal
from repro.serve.quota import QuotaConfig, TenantLimits

from tests.conftest import build_chain, build_diamond


@pytest.fixture
def fresh_cache(tmp_path):
    import repro.perf.cache as cache_module

    cache = cache_module.DesignCache(
        directory=str(tmp_path / "cache"), enabled=True
    )
    saved = cache_module._GLOBAL_CACHE
    cache_module._GLOBAL_CACHE = cache
    yield cache
    cache_module._GLOBAL_CACHE = saved


def _request(**kwargs) -> CompileRequest:
    defaults = dict(graph=build_diamond(), cluster=paper_testbed())
    defaults.update(kwargs)
    return CompileRequest(**defaults)


def _service(journal_dir, **kwargs) -> CompileService:
    config = ServiceConfig(
        workers=2, max_queue=8, journal_dir=str(journal_dir), **kwargs
    )
    return CompileService(config)


# ---------------------------------------------------------------------------
# The journal alone
# ---------------------------------------------------------------------------


class TestJournalLifecycle:
    def test_done_entry_dedups_across_reopen(self, tmp_path):
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        assert journal.record_accepted(
            entry_id, {"req": 1}, idem="key-1", derived=False,
            fp="fp-1", tenant="acme", cls="batch", deadline_s=5.0,
        )
        journal.record_dispatched(entry_id)
        assert journal.record_done(entry_id, {"answer": 42})
        journal.close()

        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        hit, value, fp = reopened.lookup("key-1")
        assert hit and value == {"answer": 42} and fp == "fp-1"
        assert reopened.take_incomplete() == []
        reopened.close()

    def test_incomplete_entry_replays_with_original_metadata(self, tmp_path):
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {"req": "payload"}, idem="key-2", derived=False,
            fp=None, tenant="acme", cls="interactive", deadline_s=7.5,
        )
        journal.record_dispatched(entry_id)  # dispatched is not terminal
        journal.close()

        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert reopened.counters["incomplete_at_boot"] == 1
        [(entry, request)] = reopened.take_incomplete()
        assert request == {"req": "payload"}
        assert entry.tenant == "acme"
        assert entry.cls == "interactive"
        assert entry.deadline_s == 7.5
        assert entry.idem == "key-2"
        reopened.close()

    def test_failed_entries_never_dedup(self, tmp_path):
        """A retry after a failure deserves a fresh attempt."""
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {}, idem="key-3", derived=False,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        journal.record_failed(entry_id, "SolverError", "boom")
        hit, _, _ = journal.lookup("key-3")
        assert not hit
        journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert not reopened.lookup("key-3")[0]
        assert reopened.take_incomplete() == []  # failed is terminal
        reopened.close()

    def test_keyless_done_before_its_accept_closes_the_entry(self, tmp_path):
        """A cache hit can finish before its accept append: the done wins,
        in memory and on replay, and nothing stays behind."""
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        assert not journal.record_done(entry_id, {"answer": 1})
        journal.record_accepted(
            entry_id, {"req": 1}, idem="compile:fp", derived=True,
            fp="compile:fp", tenant="t", cls="batch", deadline_s=None,
        )
        assert journal.health()["live_entries"] == 0
        journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert reopened.take_incomplete() == []
        assert reopened.health()["live_entries"] == 0
        reopened.close()

    def test_shed_entries_are_terminal(self, tmp_path):
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {}, idem=None, derived=True,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        journal.record_shed(entry_id, "queue full at recovery")
        journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert reopened.take_incomplete() == []
        reopened.close()

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {"ok": True}, idem="key-4", derived=False,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "done", "id": "torn-mid-wr')  # no newline

        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        [(entry, _)] = reopened.take_incomplete()
        assert entry.idem == "key-4"
        # The next append lands on its own line despite the torn tail.
        other = reopened.new_entry_id()
        reopened.record_accepted(
            other, {}, idem=None, derived=True,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        reopened.close()
        lines = open(reopened.path, encoding="utf-8").read().splitlines()
        assert all(json.loads(line) for line in lines if line.strip())

    def test_unreplayable_payload_is_shed_and_counted(self, tmp_path):
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {"ok": True}, idem=None, derived=True,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        journal.close()
        # Corrupt the payload in place; the checksum no longer matches.
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        patched = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "accepted":
                record["payload"] = "AAAA" + record["payload"][4:]
            patched.append(json.dumps(record))
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(patched) + "\n")

        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert reopened.take_incomplete() == []
        assert reopened.counters["unreplayable_at_boot"] == 1
        reopened.close()

    def test_ttl_expires_dedup_entries(self, tmp_path):
        now = [1_000_000.0]
        journal = ServeJournal(str(tmp_path), ttl_s=60, clock=lambda: now[0])
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {}, idem="key-5", derived=False,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        journal.record_done(entry_id, "result")
        assert journal.lookup("key-5")[0]
        now[0] += 61.0
        assert not journal.lookup("key-5")[0]
        journal.close()
        # Expired at reopen too: pruned at load, not resurrected.
        reopened = ServeJournal(
            str(tmp_path), ttl_s=60, clock=lambda: now[0]
        )
        assert not reopened.lookup("key-5")[0]
        assert reopened.health()["dedup_entries"] == 0
        reopened.close()

    def test_checkpoint_roundtrip_and_throttle(self, tmp_path):
        journal = ServeJournal(
            str(tmp_path), ttl_s=3600, checkpoint_interval_s=3600
        )
        assert journal.checkpoint({"quotas": {"a": 1}})
        # Throttled: a second checkpoint inside the interval is a no-op
        # unless forced.
        assert not journal.checkpoint({"quotas": {"a": 2}})
        assert journal.checkpoint({"quotas": {"a": 3}}, force=True)
        journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        state = reopened.restore_state()
        assert state is not None and state["quotas"] == {"a": 3}
        reopened.close()

    def test_first_checkpoint_on_a_freshly_booted_host(
        self, tmp_path, monkeypatch
    ):
        # Monotonic time counts from boot: half a second of uptime is
        # less than the interval, and the first checkpoint must still land.
        import repro.serve.journal as journal_module

        monkeypatch.setattr(journal_module.time, "monotonic", lambda: 0.5)
        journal = ServeJournal(
            str(tmp_path), ttl_s=3600, checkpoint_interval_s=1.0
        )
        assert journal.checkpoint({"quotas": {"a": 1}})
        assert not journal.checkpoint({"quotas": {"a": 2}})
        journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert reopened.restore_state()["quotas"] == {"a": 1}
        reopened.close()

    def test_boot_compaction_bounds_the_file(self, tmp_path):
        import os

        now = [1_000_000.0]
        journal = ServeJournal(str(tmp_path), ttl_s=60, clock=lambda: now[0])
        for index in range(50):
            entry_id = journal.new_entry_id()
            journal.record_accepted(
                entry_id, {"i": index}, idem=f"k{index}", derived=False,
                fp=None, tenant="t", cls="batch", deadline_s=None,
            )
            journal.record_done(entry_id, index)
        journal.close()

        fat = os.path.getsize(journal.path)
        now[0] += 61.0  # everything is past TTL: compaction drops it all
        reopened = ServeJournal(str(tmp_path), ttl_s=60, clock=lambda: now[0])
        reopened.close()
        assert os.path.getsize(reopened.path) < fat / 4
        assert reopened.health()["dedup_entries"] == 0

    def test_flock_rejects_a_second_broker(self, tmp_path):
        first = ServeJournal(str(tmp_path), ttl_s=3600)
        with pytest.raises(JournalError, match="owned by another"):
            ServeJournal(str(tmp_path), ttl_s=3600, lock_timeout_s=0.2)
        first.close()
        # Released on close: a successor acquires cleanly.
        second = ServeJournal(str(tmp_path), ttl_s=3600)
        second.close()

    def test_schema_mismatch_sets_wal_aside(self, tmp_path):
        import os

        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        entry_id = journal.new_entry_id()
        journal.record_accepted(
            entry_id, {}, idem="old", derived=False,
            fp=None, tenant="t", cls="batch", deadline_s=None,
        )
        journal.close()
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 999
        lines[0] = json.dumps(header)
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        assert not reopened.lookup("old")[0]
        assert reopened.take_incomplete() == []
        assert os.path.exists(reopened.path + ".stale")
        reopened.close()


    def test_checkpoints_keep_a_serving_wal_bounded(
        self, tmp_path, monkeypatch
    ):
        """A broker that never restarts still rewrites its WAL down to
        the live entries, and the rewritten file replays exactly them."""
        floor = 20_000
        monkeypatch.setattr(journal_module, "COMPACT_MIN_BYTES", floor)
        journal = ServeJournal(
            str(tmp_path), ttl_s=3600, checkpoint_interval_s=0.0
        )
        keyed = journal.new_entry_id()
        journal.record_accepted(
            keyed, {"req": "keyed"}, idem="client-1", derived=False,
            fp="fp-keyed", tenant="t", cls="batch", deadline_s=None,
        )
        journal.record_done(keyed, {"answer": 7})
        inflight = []
        for index in range(300):
            entry_id = journal.new_entry_id()
            journal.record_accepted(
                entry_id, {"req": index, "pad": "x" * 200},
                idem=f"compile:{index}", derived=True, fp=f"compile:{index}",
                tenant="t", cls="batch", deadline_s=None, sync=False,
            )
            journal.record_dispatched(entry_id)
            if index % 100 == 99:
                inflight.append(entry_id)
            else:
                journal.record_done(entry_id, {"answer": index})
            journal.checkpoint({"quotas": {}})
            if journal._compactor is not None:
                journal._compactor.join()
            assert os.path.getsize(journal.path) < 2 * floor
        live = journal.health()["live_entries"]
        journal.close()
        assert live == 1 + len(inflight)

        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        try:
            replayed = reopened.take_incomplete()
            assert sorted(entry.id for entry, _ in replayed) == sorted(inflight)
            assert reopened.lookup("client-1") == (
                True, {"answer": 7}, "fp-keyed"
            )
        finally:
            reopened.close()

    def test_appends_and_lookups_go_on_while_the_wal_is_rewritten(
        self, tmp_path, monkeypatch
    ):
        """A runtime compaction takes the journal lock only to snapshot
        the live set and to rename: the rewrite itself runs without it,
        and what is appended meanwhile is copied after the snapshot."""
        monkeypatch.setattr(journal_module, "COMPACT_MIN_BYTES", 0)
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        journal.record_accepted(
            "early", {"req": "early"}, idem="client-1", derived=False,
            fp="fp-1", tenant="t", cls="batch", deadline_s=None,
        )
        journal.record_done("early", {"answer": 1})
        # Memory holds a stored result's bytes, not its base64 text.
        assert isinstance(journal._entries["early"].record["payload"], bytes)

        writing, release = threading.Event(), threading.Event()
        locked = []
        write_aside = journal_module.AppendLog.write_aside

        def parked_write_aside(log, records):
            # A rewrite that held the (non-reentrant) journal lock could
            # not take it; ``locked()`` alone would also be true while
            # this test's thread appends the checkpoint record.
            took = journal._lock.acquire(timeout=5.0)
            if took:
                journal._lock.release()
            locked.append(not took)
            writing.set()
            release.wait(10.0)
            return write_aside(log, records)

        monkeypatch.setattr(
            journal_module.AppendLog, "write_aside", parked_write_aside
        )
        assert journal.checkpoint({"quotas": {}}, force=True)
        assert writing.wait(10.0)
        # The rewrite is parked: none of these may wait for it.
        assert journal.lookup("client-1") == (True, {"answer": 1}, "fp-1")
        journal.record_accepted(
            "late", {"req": "late"}, idem="compile:late", derived=True,
            fp="compile:late", tenant="t", cls="interactive", deadline_s=None,
        )
        journal.record_accepted(
            "late-keyed", {"req": "late-keyed"}, idem="client-2",
            derived=False, fp="fp-2", tenant="t", cls="batch", deadline_s=None,
        )
        journal.record_done("late-keyed", {"answer": 2})
        release.set()
        journal._compactor.join()
        journal.close()
        assert locked == [False]

        accepted = [r["id"] for r in _wal_records(journal.path)
                    if r["kind"] == "accepted"]
        assert accepted == ["late", "late-keyed"]  # "early" was rewritten
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        try:
            [(entry, request)] = reopened.take_incomplete()
            assert (entry.id, entry.cls, request) == (
                "late", "interactive", {"req": "late"}
            )
            assert reopened.lookup("client-1") == (True, {"answer": 1}, "fp-1")
            assert reopened.lookup("client-2") == (True, {"answer": 2}, "fp-2")
        finally:
            reopened.close()

    def test_a_done_marker_survives_a_runtime_compaction(
        self, tmp_path, monkeypatch
    ):
        """A keyless done that beat its accept append is rewritten with
        the live entries: the accept appended after the rewrite must
        still fold against it, or a reopened journal replays the
        completed request.  (A shrunk counterexample of the property
        below.)"""
        monkeypatch.setattr(journal_module, "COMPACT_MIN_BYTES", 0)
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        assert not journal.record_done("e0", {"answer": 0})
        assert journal.checkpoint({"quotas": {}}, force=True)
        journal.record_accepted(
            "e0", {"req": 0}, idem="compile:0", derived=True,
            fp="compile:0", tenant="t", cls="batch", deadline_s=None,
        )
        assert journal.health()["live_entries"] == 0
        journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        try:
            assert reopened.take_incomplete() == []
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# The in-memory view is what a reopened journal folds from the file
# ---------------------------------------------------------------------------

_CLOCK = 1_000_000.0


@st.composite
def broker_histories(draw) -> list[tuple]:
    """``record_*`` calls as a broker makes them: each entry has at most
    one accept, one ``dispatched`` and one terminal record, in any order
    across and within entries; client keys are unique, and a done
    carries a key only when its entry is client-keyed.  Forced
    checkpoints (which may compact) fall anywhere."""
    calls = []
    for index in range(draw(st.integers(1, 6))):
        entry_id = f"e{index}"
        fp = f"compile:{draw(st.integers(0, 2))}"
        client_key = f"client-{index}" if draw(st.booleans()) else None
        if draw(st.integers(0, 4)):  # the request pickled
            calls.append((
                "accepted", entry_id, client_key or fp, client_key is None,
                fp, draw(st.sampled_from(["acme", "beta"])),
                draw(st.sampled_from(["batch", "interactive"])),
                draw(st.sampled_from([None, 2.5, 30])),
            ))
        if draw(st.booleans()):
            calls.append(("dispatched", entry_id))
        terminal = draw(st.sampled_from([None, "done", "failed", "shed"]))
        if terminal == "done":
            calls.append(("done", entry_id, client_key, fp))
        elif terminal is not None:
            calls.append((terminal, entry_id))
    calls = list(draw(st.permutations(calls)))
    for position in draw(st.lists(st.integers(0, len(calls)), max_size=3)):
        calls.insert(position, ("checkpoint",))
    return calls


def _apply(journal: ServeJournal, call: tuple) -> None:
    kind, args = call[0], call[1:]
    if kind == "accepted":
        entry_id, idem, derived, fp, tenant, cls, deadline_s = args
        journal.record_accepted(
            entry_id, {"req": entry_id}, idem=idem, derived=derived, fp=fp,
            tenant=tenant, cls=cls, deadline_s=deadline_s, sync=False,
        )
    elif kind == "dispatched":
        journal.record_dispatched(*args)
    elif kind == "done":
        entry_id, idem, fp = args
        journal.record_done(entry_id, {"answer": entry_id}, idem=idem, fp=fp)
    elif kind == "failed":
        journal.record_failed(*args, "SolverError", "boom")
    elif kind == "shed":
        journal.record_shed(*args, "queue full")
    else:
        journal.checkpoint({"quotas": {}}, force=True)


def _view(journal: ServeJournal) -> tuple[dict, dict]:
    entries = {}
    for entry in journal._entries.values():
        if entry.status == "done" and not entry.stored:
            continue  # a keyless done marker: boot drops it by design
        folded = (entry.status, entry.idem, entry.fp)
        if entry.status in INCOMPLETE_STATES:
            folded += (entry.tenant, entry.cls, entry.deadline_s)
        entries[entry.id] = folded
    clients = {
        key: entry_id for key, entry_id in journal._by_idem.items()
        if key.startswith("client-")
    }
    return entries, clients


class TestViewMatchesReplay:
    @settings(max_examples=100, deadline=None)
    @given(history=broker_histories())
    def test_live_view_equals_a_reopened_journal(self, history):
        with tempfile.TemporaryDirectory() as directory, mock.patch.object(
            journal_module, "COMPACT_MIN_BYTES", 0
        ):
            journal = ServeJournal(
                directory, ttl_s=3600, clock=lambda: _CLOCK
            )
            for call in history:
                _apply(journal, call)
            live = _view(journal)
            journal.close()
            reopened = ServeJournal(
                directory, ttl_s=3600, clock=lambda: _CLOCK
            )
            try:
                assert _view(reopened) == live
            finally:
                reopened.close()


# ---------------------------------------------------------------------------
# Broker integration: idempotent resubmission
# ---------------------------------------------------------------------------


class TestBrokerIdempotency:
    def test_duplicate_key_returns_original_result_without_recompile(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        import repro.perf.cache as cache_module

        calls = []
        real = cache_module.cached_compile

        def counting_compile(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "cached_compile", counting_compile)
        service = _service(tmp_path / "journal")
        try:
            first = service.execute(_request(idempotency_key="job-7"))
            # Same key, resubmitted after completion: journal dedup, no
            # second compile, the *original* artifact back.
            again = service.execute(_request(idempotency_key="job-7"))
            assert len(calls) == 1
            assert again.name == first.name
            assert again.frequency_mhz == first.frequency_mhz
            assert service.counters["dedup_hits"] == 1
            assert service.journal.health()["dedup_hits"] == 1
        finally:
            service.shutdown(wait=False)

    def test_inflight_duplicate_key_joins_the_leader(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        import repro.perf.cache as cache_module

        calls = []
        release = threading.Event()
        real = cache_module.cached_compile

        def gated_compile(*args, **kwargs):
            calls.append(1)
            release.wait(timeout=30.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "cached_compile", gated_compile)
        service = _service(tmp_path / "journal")
        try:
            leader = service.submit(_request(idempotency_key="job-8"))
            follower = service.submit(_request(idempotency_key="job-8"))
            assert follower is leader
            assert service.counters["idem_joined"] == 1
            release.set()
            assert follower.result(timeout=30.0) is leader.result(timeout=30.0)
            assert len(calls) == 1
        finally:
            release.set()
            service.shutdown(wait=False)

    def test_key_reuse_with_different_content_is_a_conflict(
        self, tmp_path, fresh_cache
    ):
        service = _service(tmp_path / "journal")
        try:
            service.execute(
                _request(graph=build_diamond(), idempotency_key="job-9")
            )
            with pytest.raises(IdempotencyConflictError):
                service.execute(
                    _request(graph=build_chain(), idempotency_key="job-9")
                )
            assert service.counters["idem_conflicts"] == 1
        finally:
            service.shutdown(wait=False)

    def test_retry_while_the_done_record_is_written_joins_the_flight(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        """A client key leaves the in-flight table only once its done
        record is written: a retry in between joins, never re-runs."""
        entered = threading.Event()
        release = threading.Event()
        real = ServeJournal.record_done

        def held_record_done(self, *args, **kwargs):
            entered.set()
            release.wait(timeout=30.0)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ServeJournal, "record_done", held_record_done)
        service = _service(tmp_path / "journal")
        try:
            first = service.submit(_request(idempotency_key="job-12"))
            assert entered.wait(timeout=30.0)
            retry = service.submit(_request(idempotency_key="job-12"))
            release.set()
            assert retry.result(timeout=30.0) is first.result(timeout=30.0)
            assert service.counters["completed"] == 1
            assert service.counters["idem_joined"] == 1
            assert service.counters["dedup_hits"] == 0
        finally:
            release.set()
            service.shutdown(wait=False)

    def test_a_key_that_follows_another_keys_flight_dedups_too(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        """Two fresh keys for one design coalesce into one compile; each
        key then dedups, in this broker and in its successor."""
        import repro.perf.cache as cache_module

        release = threading.Event()
        real = cache_module.cached_compile

        def held_compile(*args, **kwargs):
            release.wait(timeout=30.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "cached_compile", held_compile)
        # A compile writes into its graph: a fresh graph per request.
        service = _service(tmp_path / "journal")
        try:
            first = service.submit(_request(graph=build_diamond(), idempotency_key="k1"))
            second = service.submit(_request(graph=build_diamond(), idempotency_key="k2"))
            assert second is first
            # While the flight runs, a retry under the follower's key
            # joins it by key.
            retry = service.submit(_request(graph=build_diamond(), idempotency_key="k2"))
            assert retry is first
            assert service.counters["idem_joined"] == 1
            release.set()
            design = first.result(timeout=30.0)
            assert service.counters["completed"] == 1
            for key in ("k1", "k2"):
                again = service.execute(
                    _request(graph=build_diamond(), idempotency_key=key)
                )
                assert again.name == design.name
            assert service.counters["completed"] == 1
            assert service.counters["dedup_hits"] == 2
        finally:
            release.set()
            service.shutdown(wait=False)
        successor = _service(tmp_path / "journal")
        try:
            successor.execute(_request(graph=build_diamond(), idempotency_key="k2"))
            assert successor.counters["dedup_hits"] == 1
            assert successor.counters["completed"] == 0
        finally:
            successor.shutdown(wait=False)

    def test_acknowledged_submit_is_on_disk_before_return(
        self, tmp_path, fresh_cache
    ):
        service = _service(tmp_path / "journal")
        try:
            pending = service.submit(_request(idempotency_key="job-10"))
            assert pending.journal_id is not None
            raw = open(service.journal.path, encoding="utf-8").read()
            assert pending.journal_id in raw
            pending.result(timeout=30.0)
        finally:
            service.shutdown(wait=False)

    def test_without_journal_dir_nothing_changes(self, fresh_cache):
        service = CompileService(ServiceConfig(workers=2))
        try:
            assert service.journal is None
            value = service.execute(_request(idempotency_key="job-11"))
            assert value is not None
            doc = service.health()["journal"]
            assert doc["enabled"] is False
        finally:
            service.shutdown(wait=False)


# ---------------------------------------------------------------------------
# What the journal pays for: fsync only behind a promise
# ---------------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Record kind -> how many fsyncs its appends made."""
    counts: collections.Counter = collections.Counter()
    current = threading.local()
    real_fsync = os.fsync
    real_append = ServeJournal._append

    def counting_fsync(fd):
        kind = getattr(current, "kind", None)
        if kind is not None:
            counts[kind] += 1
        return real_fsync(fd)

    def tagged_append(self, record, *args, **kwargs):
        current.kind = record["kind"]
        try:
            return real_append(self, record, *args, **kwargs)
        finally:
            current.kind = None

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(ServeJournal, "_append", tagged_append)
    return counts


def _wal_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestJournalCost:
    def test_submit_returns_after_its_accept_is_fsynced(
        self, tmp_path, fresh_cache, fsyncs
    ):
        service = _service(tmp_path / "journal")
        try:
            pending = service.submit(_request())
            assert fsyncs["accepted"] == 1
            pending.result(timeout=30.0)
            assert fsyncs["dispatched"] == 0
        finally:
            service.shutdown(wait=False)

    def test_keyed_execute_fsyncs_its_done_record(
        self, tmp_path, fresh_cache, fsyncs
    ):
        service = _service(tmp_path / "journal")
        try:
            service.execute(_request(idempotency_key="job-13"))
            # The done record's fsync also covers the accept before it.
            assert fsyncs["done"] == 1
            assert fsyncs["accepted"] == 0
            assert fsyncs["dispatched"] == 0
        finally:
            service.shutdown(wait=False)

    def test_follower_keys_share_one_pickle_and_one_fsync(
        self, tmp_path, fsyncs, monkeypatch
    ):
        """The keys that followed a flight each get a stored done
        record, but the result is pickled once, held once (after a
        reopen too), and the records cost one fsync between them."""
        pickles = []
        real_encode = journal_module.encode_blob

        def counting_encode(value):
            pickles.append(value)
            return real_encode(value)

        monkeypatch.setattr(journal_module, "encode_blob", counting_encode)
        journal = ServeJournal(str(tmp_path), ttl_s=3600)
        try:
            journal.record_accepted(
                "lead", {"req": 1}, idem="compile:x", derived=True,
                fp="fp-x", tenant="t", cls="batch", deadline_s=None,
                sync=False,
            )
            pickles.clear()
            # A keyless leader stores nothing of its own.
            assert not journal.record_done(
                "lead", {"answer": 1}, followers=["k2", "k3"]
            )
            assert len(pickles) == 1
            assert fsyncs["done"] == 1
            for key in ("k2", "k3"):
                assert journal.lookup(key) == (True, {"answer": 1}, "fp-x")
            payloads = {
                id(entry.record["payload"])
                for entry in journal._entries.values()
            }
            assert len(payloads) == 1
        finally:
            journal.close()
        reopened = ServeJournal(str(tmp_path), ttl_s=3600)
        try:
            assert reopened.lookup("k3") == (True, {"answer": 1}, "fp-x")
            assert reopened.lookup("compile:x") == (False, None, None)
            # A successor holds the shared result once too.
            assert len({
                id(entry.record["payload"])
                for entry in reopened._entries.values()
            }) == 1
        finally:
            reopened.close()

    def test_keyless_execute_reaches_the_os_without_a_result(
        self, tmp_path, fresh_cache, fsyncs
    ):
        service = _service(tmp_path / "journal")
        try:
            service.execute(_request())
            # Read before shutdown closes (and flushes) the file.
            records = _wal_records(service.journal.path)
        finally:
            service.shutdown(wait=False)
        kinds = [r["kind"] for r in records if r["kind"] != "checkpoint"]
        assert kinds == ["header", "accepted", "dispatched", "done"]
        [done] = [r for r in records if r["kind"] == "done"]
        assert "payload" not in done
        assert fsyncs["accepted"] == fsyncs["done"] == 0
        reopened = ServeJournal(str(tmp_path / "journal"), ttl_s=3600)
        try:
            assert reopened.take_incomplete() == []
            assert reopened.health()["live_entries"] == 0
        finally:
            reopened.close()

    def test_keyless_entries_leave_memory_once_done(
        self, tmp_path, fresh_cache
    ):
        service = _service(tmp_path / "journal")
        try:
            for length in (2, 3, 4, 2, 3, 4):
                service.execute(_request(graph=build_chain(length=length)))
            health = service.journal.health()
            assert health["live_entries"] == 0
            assert health["dedup_entries"] == 0
        finally:
            service.shutdown(wait=False)

    def test_expired_dedup_entries_leave_memory_while_serving(
        self, tmp_path, fresh_cache
    ):
        service = _service(tmp_path / "journal", idempotency_ttl_s=0.05)
        try:
            for index in range(4):
                service.execute(_request(idempotency_key=f"ttl-{index}"))
            # Past the TTL and the one-per-second checkpoint throttle.
            time.sleep(1.2)
            service.execute(_request(idempotency_key="ttl-last"))
            assert service.health()["journal"]["dedup_entries"] == 1
        finally:
            service.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_incomplete_request_replays_exactly_once(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        """Service 1 dies mid-compile; service 2 on the same journal dir
        replays the accepted request and completes it — exactly once."""
        import repro.perf.cache as cache_module

        real = cache_module.cached_compile
        stall = threading.Event()
        calls = []

        def stalling_compile(*args, **kwargs):
            calls.append(1)
            stall.wait(timeout=60.0)  # held until the test ends
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "cached_compile", stalling_compile)
        first = _service(tmp_path / "journal")
        pending = first.submit(
            _request(idempotency_key="crash-1", tenant="acme", deadline_s=30.0)
        )
        assert pending.journal_id is not None
        # Simulated kill -9: no drain, no terminal record for the entry.
        # shutdown() closes the journal (releasing the flock), exactly
        # like process death would.
        first.shutdown(wait=False)

        monkeypatch.setattr(cache_module, "cached_compile", real)
        second = _service(tmp_path / "journal")
        try:
            assert second.counters["replayed"] == 1
            assert second.journal.counters["incomplete_at_boot"] == 1
            # The replayed flight is registered under its original key:
            # a client retrying after the crash joins it (or dedups once
            # it finishes) instead of starting a second compile.
            value = second.execute(_request(idempotency_key="crash-1"))
            assert value is not None
            health = second.health()
            assert health["journal"]["replayed_at_boot"] == 1
            # Exactly once: completed+dedup, not completed twice.
            assert second.counters["completed"] == 1
            assert (
                second.counters["dedup_hits"] + second.counters["idem_joined"]
            ) == 1
        finally:
            stall.set()
            second.shutdown(wait=False)

    def test_restored_quota_sheds_a_precrash_abuser_immediately(
        self, tmp_path, fresh_cache
    ):
        """A retry-storming tenant that drained its budget before the
        crash is still rejected instantly after recovery."""
        quota = QuotaConfig(
            default=TenantLimits(rate=0.0),
            overrides={
                "abuser": TenantLimits(
                    rate=0.001, burst=1.0, retry_rate=0.001, retry_burst=1.0
                )
            },
        )
        first = _service(tmp_path / "journal", quota=quota)
        first.execute(_request(tenant="abuser"))  # spends the burst
        sheds = 0
        for _ in range(3):  # the shed storm drains the retry budget
            with pytest.raises(QuotaExceededError):
                first.submit(_request(tenant="abuser"))
            sheds += 1
        assert sheds == 3
        first._journal_checkpoint(force=True)
        first.shutdown(wait=False)

        second = _service(tmp_path / "journal", quota=quota)
        try:
            # No warm-up, no traffic: the very first post-restart request
            # from the abuser is shed on the restored retry budget.
            with pytest.raises(QuotaExceededError, match="retry budget"):
                second.submit(_request(tenant="abuser"))
        finally:
            second.shutdown(wait=False)

    def test_brownout_ceiling_survives_restart(self, tmp_path, fresh_cache):
        first = _service(tmp_path / "journal")
        with first._lock:
            first.brownout._level = 2  # browned out to "coarse"
        first._journal_checkpoint(force=True)
        first.shutdown(wait=False)
        second = _service(tmp_path / "journal")
        try:
            assert second.brownout.ceiling == "coarse"
        finally:
            second.shutdown(wait=False)
