"""The linter against its seeded fixtures, the shipped tree, and the CLI."""

from __future__ import annotations

import io
import json
import os
import tokenize

import pytest

from repro.cli import main
from repro.lint import ALL_RULES, run_lint
from repro.lint.core import (
    collect_python_files,
    enclosing_map,
    parse_module,
    run_rules,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "lint_fixtures")
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.py")


def _rules_of(findings) -> dict:
    out: dict = {}
    for f in findings:
        out[f.rule] = out.get(f.rule, 0) + 1
    return out


# -- seeded fixtures -------------------------------------------------------


def test_seeded_r1_uncharged_loops():
    findings = run_lint([_fixture("seeded_r1")])
    assert _rules_of(findings).get("R1") == 2
    # The charged/amortized/forwarding/no-tracker functions stay silent:
    # the only flagged symbols are the two seeded ones.
    assert {f.symbol for f in findings} == {"uncharged_loop", "uncharged_by_name"}


def test_seeded_r2_parallel_purity():
    findings = run_lint([_fixture("seeded_r2")])
    by_symbol = {}
    for f in findings:
        assert f.rule == "R2"
        by_symbol.setdefault(f.symbol, []).append(f.message)
    assert set(by_symbol) == {
        "bad_worker",
        "global_rebinder",
        "argument_mutator",
        "region_accumulator",
    }
    assert any("module global" in m for m in by_symbol["bad_worker"])
    assert any("mutating method" in m for m in by_symbol["argument_mutator"])
    assert any("shared variable 'total'" in m for m in by_symbol["region_accumulator"])


def test_seeded_r3_determinism():
    findings = run_lint([_fixture("seeded_r3")])
    assert _rules_of(findings) == {"R3": 7}
    messages = " | ".join(f.message for f in findings)
    assert "iteration over a set" in messages
    assert "eval" in messages
    assert "process-global RNG" in messages
    # sorted()/set-comprehension/seeded-rng idioms are never flagged.
    assert "sorted_is_fine" not in {f.symbol for f in findings}


def test_seeded_r4_complexity():
    findings = run_lint([_fixture("seeded_r4")])
    rules = _rules_of(findings)
    assert rules == {"R4": 4}
    symbols = {f.symbol for f in findings}
    assert symbols == {
        "list_membership",
        "recompute_invariant",
        "recompute_flatnonzero",
    }
    # Hoisted and genuinely-mutating loops stay silent.
    assert "ok_variant" not in symbols and "ok_mutating" not in symbols


def test_clean_fixture_has_no_findings():
    assert run_lint([_fixture("clean")]) == []


def test_suppression_comments():
    findings = run_lint([_fixture("suppressed")])
    # Only the wrong-rule suppression leaks through, as R3.
    assert len(findings) == 1
    assert findings[0].rule == "R3"
    assert findings[0].symbol == "wrong_rule_silenced"


# -- infrastructure --------------------------------------------------------


def test_collect_python_files_expands_directories():
    files = collect_python_files([FIXTURES])
    names = {os.path.basename(p) for p in files}
    assert "seeded_r1.py" in names and "clean.py" in names
    with pytest.raises(FileNotFoundError):
        collect_python_files([os.path.join(FIXTURES, "nope.txt")])


def test_parse_module_relative_paths_and_globals():
    mod = parse_module(_fixture("seeded_r2"), root=FIXTURES)
    assert mod.path == "seeded_r2.py"
    assert "_RESULTS" in mod.module_globals
    assert "_RESULTS" in mod.mutable_globals


# -- the shipped tree ------------------------------------------------------


def test_shipped_tree_is_clean_modulo_baseline():
    # Inline suppressions are the only baseline: no finding is carried in a file.
    findings = run_lint([SRC], root=REPO)
    assert findings == [], "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )
    assert not os.path.exists(os.path.join(REPO, "lint-baseline.json"))


def _suppression_comments(module) -> dict:
    """Line -> rule ids of the ``# lint: ignore`` *comments* (not docstrings)."""
    out: dict = {}
    source = "\n".join(module.lines) + "\n"
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.start[0] in module.suppressions:
            out[tok.start[0]] = module.suppressions[tok.start[0]]
    return out


def test_committed_baseline_entries_still_exist():
    # The inline suppressions stand in for the old baseline file. A stale one
    # means a fixed finding was never un-suppressed: lint with suppressions
    # off and check each comment still silences a live finding.
    modules = [parse_module(p, root=REPO) for p in collect_python_files([SRC])]
    comments = {m.path: _suppression_comments(m) for m in modules}
    for m in modules:
        m.suppressions = {}
    findings = run_rules(modules, ALL_RULES, root=REPO)
    by_module = {m.path: m for m in modules}
    live = set()
    for f in findings:
        enclosing = enclosing_map(by_module[f.path].tree).get(f.line)
        for line in {f.line, getattr(enclosing, "lineno", f.line)}:
            live.add((f.path, line, f.rule))
    assert any(comments.values()), "expected suppressions in the shipped tree"
    for path, lines in comments.items():
        for line, rules in lines.items():
            assert any(
                (p, ln) == (path, line) and ("*" in rules or r in rules)
                for p, ln, r in live
            ), f"stale suppression {path}:{line} {sorted(rules)}"


# -- CLI -------------------------------------------------------------------


def test_cli_lint_fixture_fails_with_text(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(["lint", _fixture("seeded_r1"), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 1
    assert "R1 [uncharged_loop]" in out
    assert "2 finding(s)" in out


def test_cli_lint_json_format(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(["lint", _fixture("seeded_r4"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["count"] == 4
    assert {f["rule"] for f in payload["findings"]} == {"R4"}
    assert set(payload) == {"version", "count", "findings"}
    assert all(
        set(f) == {"rule", "path", "line", "col", "symbol", "message"}
        for f in payload["findings"]
    )


def test_cli_lint_src_passes(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["lint", "src"]) == 0
    assert "no findings" in capsys.readouterr().out
