"""The environment the program reads: 13 documented variables, each
rejected when malformed, and nothing else that can change a compile."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import make_cluster
from repro.core.compiler import CompilerConfig, compile_design
from repro.errors import TapaCSError
from repro.perf.sweep import resolve_jobs
from repro.serve.broker import ServiceConfig

from tests.conftest import build_diamond

REPO = Path(__file__).resolve().parents[1]

#: A variable name as the source spells it: a string literal.
_NAME_LITERAL = re.compile(r'"(REPRO_[A-Z0-9_]+)"')


def _read_by_source() -> set[str]:
    return {
        name
        for path in (REPO / "src").rglob("*.py")
        for name in _NAME_LITERAL.findall(path.read_text())
    }


def _readme_table() -> set[str]:
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", section, re.MULTILINE))


class TestDocumentedVariables:
    def test_readme_table_lists_exactly_what_the_source_reads(self):
        source = _read_by_source()
        assert len(source) == 13
        assert _readme_table() == source

    def test_readme_names_no_other_variable(self):
        named = set(re.findall(r"REPRO_[A-Z0-9_]+", (REPO / "README.md").read_text()))
        assert named <= _read_by_source()


class TestMalformedValues:
    @pytest.mark.parametrize(
        "name", ["REPRO_SERVE_WORKERS", "REPRO_SERVE_MAX_QUEUE", "REPRO_SERVE_FLEET"]
    )
    def test_service_sizes_must_be_integers(self, monkeypatch, name):
        monkeypatch.setenv(name, "2.5")
        with pytest.raises(TapaCSError) as caught:
            ServiceConfig.from_env()
        assert str(caught.value) == f"{name}='2.5' is not an integer"

    def test_bench_jobs_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "four")
        with pytest.raises(TapaCSError, match="REPRO_BENCH_JOBS='four'"):
            resolve_jobs()
        # An explicit count does not read the variable.
        assert resolve_jobs(3) == 3

    def test_empty_values_mean_the_defaults(self, monkeypatch):
        for name in ("REPRO_SERVE_WORKERS", "REPRO_SERVE_MAX_QUEUE", "REPRO_SERVE_FLEET"):
            monkeypatch.setenv(name, "")
        monkeypatch.setenv("REPRO_SERVE_QUOTAS", "")
        config = ServiceConfig.from_env()
        default = ServiceConfig()
        assert (config.workers, config.max_queue, config.fleet_workers) == (
            default.workers,
            default.max_queue,
            default.fleet_workers,
        )
        assert config.quota.overrides == {}

    @pytest.mark.parametrize(
        "name, value",
        [("REPRO_SERVE_MAX_QUEUE", "lots"), ("REPRO_SERVE_QUOTAS", '{"acme": {"rate": "fast"}}')],
    )
    def test_serve_exits_with_the_message_and_no_traceback(self, name, value):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **{name: value})
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert f"serve: error: {name}={value!r}" in done.stderr
        assert "Traceback" not in done.stderr


def test_a_synthesis_budget_outside_the_key_is_not_read(monkeypatch):
    # The per-task synthesis budget is CompilerConfig's, which the cache
    # key covers; a variable outside the key must not fail the compile.
    monkeypatch.setenv("REPRO_SYNTH_TIMEOUT_S", "1e-9")
    design = compile_design(build_diamond(), make_cluster(2), CompilerConfig())
    assert design.frequency_mhz > 0
