"""Fork safety of the process-wide singletons (service + cache).

The worker fleet forks this process, for serving and for parallel
sweeps alike; each singleton registers an ``os.register_at_fork`` hook
so the child starts from a coherent state instead of inheriting half a
parent: the service
is dropped wholesale (its worker threads do not survive a fork), and
the cache is rebuilt carrying the parent's *configuration* but none of
its mutable state (memory tier, stats).

The end-to-end test forks for real: the child inspects its singletons
and ships a verdict dict back over a pipe before ``os._exit`` (never
returning into pytest's stack).
"""

import json
import os

import pytest

import repro.perf.cache as cache_module
import repro.serve.broker as broker_module


@pytest.fixture
def isolated_singletons(tmp_path, monkeypatch):
    """Fresh cache + service singletons, restored afterwards."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    saved_cache = cache_module._GLOBAL_CACHE
    saved_service = broker_module._GLOBAL_SERVICE
    cache_module._GLOBAL_CACHE = None
    broker_module._GLOBAL_SERVICE = None
    yield str(tmp_path)
    if broker_module._GLOBAL_SERVICE is not None:
        broker_module._GLOBAL_SERVICE.shutdown(wait=False)
    cache_module._GLOBAL_CACHE = saved_cache
    broker_module._GLOBAL_SERVICE = saved_service


class TestAfterForkHooks:
    """The hook bodies, called directly (no fork needed)."""

    def test_cache_hook_rebuilds_fresh_but_configured(
        self, isolated_singletons
    ):
        cache = cache_module.configure_cache(
            directory="/tmp/repro-fork-test-dir", memory_limit=7
        )
        cache.stats.hits = 99
        cache._memory["warm"] = ("value", 0.0)
        cache_module._after_fork_in_child()
        child_cache = cache_module.get_cache()
        assert child_cache is not cache
        assert child_cache.directory == "/tmp/repro-fork-test-dir"
        assert child_cache.memory_limit == 7
        assert child_cache.enabled == cache.enabled
        assert child_cache.stats.hits == 0, "stats must not double-count"
        assert not child_cache._memory, "memory tier must not be shared"

    def test_cache_hook_noop_when_never_created(self, isolated_singletons):
        assert cache_module._GLOBAL_CACHE is None
        cache_module._after_fork_in_child()
        assert cache_module._GLOBAL_CACHE is None

    def test_service_hook_drops_singleton_and_lock(self, isolated_singletons):
        service = broker_module.get_service()
        assert broker_module._GLOBAL_SERVICE is service
        saved_lock = broker_module._GLOBAL_LOCK
        broker_module._after_fork_in_child()
        assert broker_module._GLOBAL_SERVICE is None
        assert broker_module._GLOBAL_LOCK is not saved_lock, (
            "a lock held mid-fork would deadlock the child"
        )
        child_service = broker_module.get_service()
        assert child_service is not service
        child_service.shutdown(wait=False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestRealFork:
    def test_child_singletons_reset_cleanly(self, isolated_singletons):
        cache_dir = isolated_singletons
        cache = cache_module.configure_cache(memory_limit=5)
        cache.stats.misses = 42
        cache._memory["parent-only"] = ("value", 0.0)
        service = broker_module.get_service()
        with service._lock:
            service.counters["submitted"] = 17

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: judge the inherited world, report, vanish.  Any
            # exception must also end in os._exit, never in pytest.
            try:
                os.close(read_fd)
                child_cache = cache_module.get_cache()
                child_service = broker_module.get_service()
                checks = {
                    "cache_is_new_object": child_cache is not cache,
                    "cache_dir_preserved": child_cache.directory == cache_dir,
                    "cache_limit_preserved": child_cache.memory_limit == 5,
                    "cache_stats_fresh": child_cache.stats.misses == 0,
                    "cache_memory_fresh": "parent-only"
                    not in child_cache._memory,
                    "service_is_new_object": child_service is not service,
                    "service_counters_fresh": child_service.counters[
                        "submitted"
                    ]
                    == 0,
                    "service_queue_empty": not child_service._queue,
                }
                os.write(write_fd, json.dumps(checks).encode())
                os.close(write_fd)
                os._exit(0)
            except BaseException:
                os._exit(70)

        # Parent: collect the child's verdicts.
        os.close(write_fd)
        chunks = []
        while True:
            chunk = os.read(read_fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        checks = json.loads(b"".join(chunks))
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, f"fork-safety checks failed: {failed}"

        # The parent's own singletons are untouched by the child's hook.
        assert cache_module.get_cache() is cache
        assert cache_module.get_cache().stats.misses == 42
        assert broker_module.get_service() is service
