"""Every example script must run to completion (deliverable b is live)."""

import os
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")


def example_files():
    return sorted(
        f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
    )


def _absolute_pythonpath():
    """PYTHONPATH with the package source first and every entry absolute,
    so a subprocess started in another directory still imports ``repro``."""
    entries = [os.path.join(REPO_ROOT, "src")]
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry:
            entries.append(os.path.abspath(entry))
    return os.pathsep.join(entries)


@pytest.mark.parametrize("script", example_files())
def test_example_runs(script, tmp_path):
    # Run in a scratch directory: examples write their outputs (e.g.
    # figure_data.csv) to the working directory.
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": _absolute_pythonpath()},
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    assert proc.stdout.strip(), f"{script} produced no output"


def test_at_least_three_examples():
    assert len(example_files()) >= 3


# Caches a test run may create; everything else it writes is a leak.
_CACHE_MARKERS = ("__pycache__/", ".hypothesis/", ".pytest_cache/")


def _git_status():
    """``git status --porcelain``, ignored files included (test-written
    ``BENCH_*.json`` records are ignored, not invisible), minus caches."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--ignored"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        line
        for line in proc.stdout.splitlines()
        if not any(marker in line for marker in _CACHE_MARKERS)
    ]


@pytest.mark.skipif(
    shutil.which("git") is None
    or not os.path.exists(os.path.join(REPO_ROOT, ".git")),
    reason="needs a git checkout",
)
def test_file_writing_tests_leave_the_tree_clean():
    """The tests that write files (the figure example, the replay
    ``--compare`` record) must leave ``git status`` as they found it."""
    before = _git_status()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_examples.py::test_example_runs[reproduce_figures.py]",
            "tests/test_bench_workload.py::TestReplayCLI"
            "::test_replay_compare_pass_and_breach",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": _absolute_pythonpath()},
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert _git_status() == before
