"""Interprocedural rules R5-R8 and rule selection."""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.lint import ALL_RULES, rules_by_id, run_lint
from repro.lint.core import parse_module, run_rules
from repro.lint.rules_contracts import parse_bound
from repro.lint.rules_obs import ObsDriftRule, parse_obs_doc

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "lint_fixtures")
PKG = os.path.join(FIXTURES, "pkg")
REPO = os.path.dirname(HERE)


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.py")


def _by_symbol(findings) -> dict:
    out: dict = {}
    for f in findings:
        out.setdefault(f.symbol, []).append(f.message)
    return out


# -- R5: parallel-region escape --------------------------------------------


def test_r5_catches_global_mutation_two_hops_below_the_worker():
    findings = run_lint([PKG])
    assert findings, "the seeded escape must be found"
    assert {f.rule for f in findings} == {"R5"}
    [f] = [f for f in findings if f.symbol == "tally"]
    assert f.path.endswith(os.path.join("pkg", "leaf.py"))
    assert "module global '_TALLY'" in f.message
    # The finding carries the witness chain: entry -> hop -> sink.
    assert "via '_worker' -> 'go_left' -> 'tally'" in f.message
    # Same defect, not reachable from any worker: R5 has no jurisdiction.
    assert not [f for f in findings if f.symbol == "reset_registry"]


# -- R6: frozen-array discipline -------------------------------------------


def test_r6_unsealed_buffers_and_frozen_param_mutations():
    findings = run_lint([_fixture("seeded_r6")])
    assert findings and all(f.rule == "R6" for f in findings)
    by_symbol = _by_symbol(findings)
    assert set(by_symbol) == {
        "LeakyTable.__init__",
        "LeakyTable.rows",
        "LeakyTable.head",
        "scale_in_place",
    }
    assert any("never seals it" in m for m in by_symbol["LeakyTable.__init__"])
    # The acceptance case: a constructor-born buffer returned unsealed.
    assert any(
        "unsealed internal buffer 'data'" in m for m in by_symbol["LeakyTable.rows"]
    )
    # A subscript view aliases the same memory.
    assert any(
        "unsealed internal buffer 'data'" in m for m in by_symbol["LeakyTable.head"]
    )
    # Frozen: parameter — store, in-place mutator, out= target.
    msgs = " | ".join(by_symbol["scale_in_place"])
    assert len(by_symbol["scale_in_place"]) == 3
    assert "writes into parameter 'table'" in msgs
    assert ".sort()" in msgs
    assert "out= target" in msgs


# -- R7: PRAM contract certifier -------------------------------------------


def test_parse_bound_dominant_term_ordering():
    assert parse_bound("1") == (0, 0)
    assert parse_bound("log n") == (0, 1)
    assert parse_bound("n") == (1, 0)
    assert parse_bound("n + m") == (1, 0)
    assert parse_bound("n log n") == (1, 1)
    assert parse_bound("n^2") == (2, 0)
    assert parse_bound("n**2") == (2, 0)
    assert parse_bound("m + n log n") == (1, 1)
    assert parse_bound("n^2") > parse_bound("n log n") > parse_bound("n")


def test_r7_certifies_declared_contracts():
    findings = run_lint([_fixture("seeded_r7")])
    assert findings and all(f.rule == "R7" for f in findings)
    by_symbol = _by_symbol(findings)
    assert set(by_symbol) == {"pairwise_overlap", "claims_linear"}
    msgs = " | ".join(by_symbol["pairwise_overlap"])
    assert "nests 2 data-dependent loop(s)" in msgs
    assert "declares Depth: O(log n)" in msgs
    [callee_msg] = by_symbol["claims_linear"]
    assert "'quadratic_helper'" in callee_msg
    assert "O(n^2) exceeds it" in callee_msg


# -- R8: instrumentation drift ---------------------------------------------

_OBS_DOC = """\
## Phases

| phase | meaning |
| --- | --- |
| `setup` | preparation |
| `ghost` | documented but never opened |

## Metrics

| metric | kind |
| --- | --- |
| `run.count` | counter |
| `run.<mode>.ms` | histogram |
| `old.metric` | gauge |
"""

_OBS_MOD = """\
def go(tracker, metrics, mode):
    with tracker.phase("setup"):
        pass
    with tracker.phase("mystery"):
        pass
    metrics.counter("run.count")
    metrics.histogram(f"run.{mode}.ms")
    metrics.gauge("run.undocumented")
"""


def test_parse_obs_doc_tables_and_placeholders():
    metrics, phases = parse_obs_doc(_OBS_DOC)
    assert set(phases) == {"setup", "ghost"}
    assert set(metrics) == {"run.count", "run.*.ms", "old.metric"}


def test_r8_reports_drift_in_both_directions(tmp_path):
    (tmp_path / "mod.py").write_text(_OBS_MOD, encoding="utf-8")
    doc = tmp_path / "OBS.md"
    doc.write_text(_OBS_DOC, encoding="utf-8")
    mod = parse_module(str(tmp_path / "mod.py"), root=str(tmp_path))
    findings = run_rules(
        [mod], [ObsDriftRule(doc_path=str(doc))], root=str(tmp_path)
    )
    msgs = [f.message for f in findings]
    assert any("phase 'mystery'" in m for m in msgs)
    assert any("metric 'run.undocumented'" in m for m in msgs)
    assert any("documented phase 'ghost'" in m for m in msgs)
    assert any("documented metric 'old.metric'" in m for m in msgs)
    # The f-string call site matches its <mode> placeholder row, so the
    # pattern is neither "missing" nor "never recorded".
    assert not any("run.*.ms" in m for m in msgs)
    assert not any("'setup'" in m or "'run.count'" in m for m in msgs)
    # Doc-side findings land at the doc path, code-side at the module.
    assert {f.path for f in findings if f.symbol == "<docs>"} == {"OBS.md"}
    assert {f.path for f in findings if f.symbol == "go"} == {"mod.py"}


def test_r8_stale_direction_gated_on_full_coverage():
    # A partial scan (one fixture file against the real repo doc) proves
    # nothing about absence: no "documented but never used" findings.
    findings = run_lint([_fixture("clean")])
    assert not [f for f in findings if f.symbol == "<docs>"]


# -- rule selection ---------------------------------------------------------


def test_rules_by_id_selects_and_rejects():
    assert [r.rule_id for r in rules_by_id("R5,r6")] == ["R5", "R6"]
    assert len(rules_by_id("R1,R2,R3,R4,R5,R6,R7,R8")) == len(ALL_RULES)
    with pytest.raises(ValueError):
        rules_by_id("R5,R99")


def test_cli_rules_filter(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["lint", _fixture("seeded_r6"), "--rules", "R5"]) == 0
    capsys.readouterr()
    assert main(["lint", _fixture("seeded_r6"), "--rules", "R6,R7"]) == 1
    assert "R6" in capsys.readouterr().out
