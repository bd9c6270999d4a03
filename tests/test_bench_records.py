"""BENCH record provenance: the commit a record names, and whether the
tree it was made from differed from that commit.

Checked on throwaway git repositories, so the result does not depend on
the state of the checkout the suite runs in.
"""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    """``benchmarks/conftest.py`` loaded as a plain module."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path):
    """A one-commit repository with a source file and a record."""

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@local",
             "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "model.py").write_text("x = 1\n")
    output = tmp_path / "benchmarks" / "output"
    output.mkdir(parents=True)
    (output / "BENCH_model.json").write_text("{}\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    return tmp_path


def test_a_committed_tree_is_clean(bench, checkout):
    commit = bench._commit(checkout)
    assert commit is not None and len(commit) == 40
    assert bench._dirty(checkout) is False


def test_an_uncommitted_change_is_dirty(bench, checkout):
    commit = bench._commit(checkout)
    (checkout / "model.py").write_text("x = 2\n")
    assert bench._commit(checkout) == commit
    assert bench._dirty(checkout) is True


def test_an_untracked_file_is_dirty(bench, checkout):
    (checkout / "new_model.py").write_text("y = 1\n")
    assert bench._dirty(checkout) is True


def test_rewritten_records_leave_the_tree_clean(bench, checkout):
    # The session rewrites its own records as it runs.
    record = checkout / "benchmarks" / "output" / "BENCH_model.json"
    record.write_text('{"wall_time_s": 1.0}\n')
    (record.parent / "BENCH_other.json").write_text("{}\n")
    assert bench._dirty(checkout) is False


def test_outside_a_checkout_both_are_unknown(bench, tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench._commit(plain) is None
    assert bench._dirty(plain) is None
