"""Tests for bench records, the regression comparator, and the CLI gate."""

import copy
import json
import os

import pytest

from repro.bench import run_experiment
from repro.cli import main
from repro.graphs import gnm_random_graph
from repro.obs import (
    compare_records,
    load_record,
    make_record,
    validate_record,
    write_record,
)


def _record(graph_name="toy", seed=0):
    g = gnm_random_graph(40, 160, seed=seed)
    ms = [
        run_experiment(g, k, "c3list", repeats=1, graph_name=graph_name)
        for k in (4, 5)
    ]
    return make_record(ms, note="test")


class TestRecordSchema:
    def test_make_record_validates_clean(self):
        assert validate_record(_record()) == []

    def test_entries_carry_required_fields(self):
        entry = _record()["entries"][0]
        for f in (
            "graph", "algorithm", "k", "count", "wall_mean", "wall_std",
            "work", "depth", "t72", "repeats", "search_work",
            "peak_candidate",
        ):
            assert f in entry, f

    def test_missing_field_rejected(self):
        rec = _record()
        del rec["entries"][0]["work"]
        assert any("missing field 'work'" in e for e in validate_record(rec))

    def test_wrong_type_rejected(self):
        rec = _record()
        rec["entries"][0]["k"] = "four"
        assert any(".k must be int" in e for e in validate_record(rec))

    def test_duplicate_cell_rejected(self):
        rec = _record()
        rec["entries"].append(copy.deepcopy(rec["entries"][0]))
        assert any("duplicates cell" in e for e in validate_record(rec))

    def test_wrong_schema_tag_rejected(self):
        rec = _record()
        rec["schema"] = "something/else"
        assert validate_record(rec)

    def test_newer_version_rejected(self):
        rec = _record()
        rec["version"] = 999
        assert any("newer" in e for e in validate_record(rec))

    def test_non_object_rejected(self):
        assert validate_record([1, 2, 3])

    def test_older_records_still_load(self):
        # v2 records lack the v3 extras; v3 files may still carry the
        # retired ``traces`` list. Both validate: unknown keys are ignored.
        rec = _record()
        rec["version"] = 2
        assert validate_record(rec) == []
        rec["version"] = 3
        rec["traces"] = [{"name": "ci-zoo", "queries": 24}]
        assert validate_record(rec) == []


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        rec = _record()
        path = write_record(rec, path=str(tmp_path / "r.json"))
        assert load_record(path) == json.loads(json.dumps(rec))

    def test_default_filename_is_timestamped(self, tmp_path):
        path = write_record(_record(), out_dir=str(tmp_path))
        name = os.path.basename(path)
        assert name.startswith("BENCH_") and name.endswith(".json")

    def test_write_refuses_invalid(self, tmp_path):
        rec = _record()
        rec["entries"][0].pop("count")
        with pytest.raises(ValueError, match="invalid bench record"):
            write_record(rec, path=str(tmp_path / "bad.json"))

    def test_load_refuses_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_record(str(path))


class TestCompare:
    def test_identical_records_pass(self):
        rec = _record()
        report = compare_records(rec, rec)
        assert report.ok
        assert report.compared_cells == 2
        assert "PASS" in report.summary()

    def test_injected_slowdown_fails(self):
        base = _record()
        cur = copy.deepcopy(base)
        cur["entries"][0]["work"] *= 2.0  # a silent 2x regression
        report = compare_records(cur, base, tolerance=0.25)
        assert not report.ok
        assert report.regressions[0].metric == "work"
        assert report.regressions[0].ratio == pytest.approx(2.0)
        assert "REGRESSION" in report.summary()

    def test_slowdown_within_tolerance_passes(self):
        base = _record()
        cur = copy.deepcopy(base)
        cur["entries"][0]["work"] *= 1.1
        assert compare_records(cur, base, tolerance=0.25).ok

    def test_improvement_reported_not_failing(self):
        base = _record()
        cur = copy.deepcopy(base)
        cur["entries"][0]["work"] *= 0.5
        report = compare_records(cur, base)
        assert report.ok and report.improvements

    def test_count_mismatch_always_fatal(self):
        base = _record()
        cur = copy.deepcopy(base)
        cur["entries"][0]["count"] += 1
        report = compare_records(cur, base, tolerance=1e9)
        assert not report.ok and report.count_mismatches

    def test_engine_mismatch_always_fatal(self):
        # Same counts, same costs — but the cell was produced by a
        # different resolved engine: the gate must refuse to compare.
        base = _record()
        cur = copy.deepcopy(base)
        cur["entries"][0]["engine"] = "frontier"
        report = compare_records(cur, base, tolerance=1e9)
        assert not report.ok and report.engine_mismatches
        assert "ENGINE MISMATCH" in report.summary()

    def test_untagged_baseline_still_comparable(self):
        # Committed baselines predating the engine field lack the tag;
        # they must keep gating (the tag is enforced only when present
        # on both sides).
        # Derive the baseline from the same measured record: re-running
        # the bench here compared two independent wall timings of a
        # millisecond workload, which flakes under load.
        cur = _record()
        base = copy.deepcopy(cur)
        for entry in base["entries"]:
            entry.pop("engine", None)
        assert validate_record(base) == []
        assert compare_records(cur, base).ok

    def test_engine_tag_records_resolved_engine(self):
        entry = _record()["entries"][0]
        assert entry["engine"] == "reference"  # c3list runs run_variant

    def test_engine_wrong_type_rejected(self):
        rec = _record()
        rec["entries"][0]["engine"] = 7
        assert any(".engine must be str" in e for e in validate_record(rec))

    def test_matrix_growth_is_not_a_failure(self):
        base = _record()
        cur = copy.deepcopy(base)
        extra = copy.deepcopy(cur["entries"][0])
        extra["k"] = 6
        cur["entries"].append(extra)
        report = compare_records(cur, base)
        assert report.ok and report.new_cells

    def test_only_watched_metrics_compared(self):
        base = _record()
        cur = copy.deepcopy(base)
        cur["entries"][0]["wall_mean"] *= 100  # noisy metric, not watched
        assert compare_records(cur, base, metrics=("work", "depth")).ok

    def test_negative_tolerance_rejected(self):
        rec = _record()
        with pytest.raises(ValueError):
            compare_records(rec, rec, tolerance=-0.1)


class TestBenchCli:
    def test_bench_json_emits_valid_record(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "gearbox", "-k", "4", "--algos", "c3list",
             "--out", str(out)]
        )
        assert code == 0
        record = load_record(str(out))
        assert record["entries"][0]["algorithm"] == "c3list"
        assert "metrics" in record and "spans" in record

    def test_bench_compare_pass_and_fail(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        args = ["bench", "gearbox", "-k", "4", "--algos", "c3list"]
        assert main(args + ["--out", str(base)]) == 0
        # Same code, same graph: deterministic work/depth -> PASS, exit 0.
        assert (
            main(
                args
                + ["--out", str(cur), "--compare", str(base),
                   "--metrics", "work,depth", "--tolerance", "0.05"]
            )
            == 0
        )
        # Inject a slowdown into the baseline (pretend the past was much
        # faster): the same run must now FAIL and exit 3.
        doctored = json.loads(base.read_text())
        for entry in doctored["entries"]:
            entry["work"] /= 3.0
        base.write_text(json.dumps(doctored))
        assert (
            main(
                args
                + ["--out", str(cur), "--compare", str(base),
                   "--metrics", "work,depth", "--tolerance", "0.05"]
            )
            == 3
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_profile_cli(self, capsys):
        assert main(["profile", "gearbox", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "search" in out and "metrics:" in out

    def test_profile_cli_json(self, capsys):
        assert main(["profile", "gearbox", "-k", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 0 and "spans" in payload

    # The exit-3 message must name the breached metric, not just the
    # record.
    def test_bench_exit3_names_the_metric(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        args = ["bench", "bio-sc-ht", "-k", "3", "--algos", "kclist"]
        baseline = str(tmp_path / "base.json")
        assert main(args + ["--out", baseline]) == 0
        capsys.readouterr()
        doc = json.load(open(baseline))
        for entry in doc["entries"]:
            entry["work"] = entry["work"] / 10.0  # current 10x worse
        json.dump(doc, open(baseline, "w"))
        code = main(args + [
            "--out", str(tmp_path / "cur.json"),
            "--compare", baseline, "--metrics", "work",
            "--tolerance", "0.25",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "metric 'work' breached tolerance 0.25" in err
        assert "bio-sc-ht/kclist/k=3" in err

    def test_bench_exit3_names_count_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        args = ["bench", "bio-sc-ht", "-k", "3", "--algos", "kclist"]
        baseline = str(tmp_path / "base.json")
        assert main(args + ["--out", baseline]) == 0
        capsys.readouterr()
        doc = json.load(open(baseline))
        doc["entries"][0]["count"] += 1
        json.dump(doc, open(baseline, "w"))
        code = main(args + [
            "--out", str(tmp_path / "cur.json"), "--compare", baseline,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "count mismatch (fatal)" in err
