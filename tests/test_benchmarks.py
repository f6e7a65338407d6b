"""Smoke test of ``benchmarks/kernel_pairs.py``: a change to the solver's
API must not break the timing harness silently."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from planarcc.matching import has_compiled_kernel

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not has_compiled_kernel(), reason="compiled kernel unavailable")
def test_kernel_pairs_compares_a_tree_with_itself(tmp_path):
    # The harness writes its record at the root of its own tree, so run it
    # from a copy, which it compares against itself.
    for part in ("src", "benchmarks"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    script = tmp_path / "benchmarks" / "kernel_pairs.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), str(tmp_path), *args],
            cwd=tmp_path, capture_output=True, text=True,
        )

    done = run("smoke", "setup", "warm")
    assert done.returncode == 0, done.stderr
    sets = json.loads((tmp_path / "BENCH_smoke.json").read_text())["sets"]
    assert [s["group"] for s in sets] == ["setup"] * 15 + ["warm"] * 9
    for s in sets:
        assert s["ratio_p50"] > 0 and 0 <= s["faster_share"] <= 1
    assert run("smoke", "nosuch").returncode == 2


@pytest.mark.skipif(not has_compiled_kernel(), reason="compiled kernel unavailable")
def test_kernel_pairs_extracts_a_git_revision_and_names_its_commit(tmp_path):
    # A throwaway repository holding a copy of the harness; the other tree
    # is its HEAD, extracted into a temporary directory under ``scratch``.
    repo, scratch = tmp_path / "repo", tmp_path / "scratch"
    for part in ("src", "benchmarks"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    scratch.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "snapshot")
    sha = git("rev-parse", "HEAD")
    script = repo / "benchmarks" / "kernel_pairs.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args], cwd=repo, capture_output=True, text=True,
            env={**os.environ, "TMPDIR": str(scratch)},
        )

    done = run("HEAD", "rev", "setup")
    assert done.returncode == 0, done.stderr
    record = json.loads((repo / "BENCH_rev.json").read_text())
    assert record["other_commit"] == sha
    assert record["commit"] == sha[:12]
    assert len(record["sets"]) == 15
    assert not any(scratch.iterdir())
    assert run("no-such-revision", "rev", "setup").returncode == 2
