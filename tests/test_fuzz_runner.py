"""The budgeted fuzz loop: determinism, bucketing, metrics, injection."""

import json

import pytest

from repro.fuzz.oracles import count_perturbation
from repro.fuzz.runner import DEFAULT_KS, run_fuzz
from repro.obs.metrics import MetricsRegistry


def _small_run(**kwargs):
    defaults = dict(
        budget=6, seed=0, oracles=["engines"], ks=(4,), max_vertices=14,
        shrink=False,
    )
    defaults.update(kwargs)
    return run_fuzz(**defaults)


class TestCleanCampaign:
    def test_clean_run_is_ok(self):
        report = _small_run(budget=8)
        assert report.ok
        assert report.cases == 8
        assert report.checks == 8  # one oracle, one k
        assert report.failures == []
        assert "fuzz OK" in report.summary()

    def test_same_seed_same_campaign(self):
        a = _small_run(budget=5, oracles=["engines", "relabel"], ks=(4, 5))
        b = _small_run(budget=5, oracles=["engines", "relabel"], ks=(4, 5))
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed"), db.pop("elapsed")
        assert da == db

    def test_report_round_trips_through_json(self):
        report = _small_run(budget=3)
        assert json.loads(json.dumps(report.to_dict()))["ok"] is True

    def test_default_oracles_and_ks(self):
        report = run_fuzz(budget=1, seed=0, max_vertices=10)
        assert report.ks == DEFAULT_KS
        assert len(report.oracles) == 12
        assert "dynamic-vs-scratch" in report.oracles
        assert "service-versions" in report.oracles
        assert "variants" in report.oracles

    def test_metrics_are_populated(self):
        metrics = MetricsRegistry()
        _small_run(budget=4, metrics=metrics)
        doc = metrics.to_dict()
        assert doc["fuzz.cases"]["value"] == 4
        assert doc["fuzz.checks"]["value"] == 4
        assert doc["fuzz.oracle.engines.checks"]["value"] == 4
        assert doc["fuzz.violations"]["value"] == 0
        assert doc["fuzz.case_vertices"]["count"] == 4

    def test_time_limit_stops_early(self):
        # The limit is checked between cases: an already-spent limit
        # still runs (and checks) exactly one case.
        report = _small_run(budget=10_000, time_limit=1e-9)
        assert report.cases == 1
        assert report.checks == 1
        assert report.ok

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_time_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="time_limit must be > 0"):
            _small_run(time_limit=limit)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            run_fuzz(budget=0)
        with pytest.raises(ValueError, match="unknown oracle"):
            run_fuzz(budget=1, oracles=["nope"])


class TestInjectionAcceptance:
    """ISSUE acceptance: an injected count perturbation is caught, shrunk
    to <= 12 vertices, and emitted as a valid pytest regression."""

    @staticmethod
    def _lie(engine, graph, k, true_count):
        return (
            true_count + 1
            if engine == "frontier" and true_count > 0
            else true_count
        )

    def test_injected_bug_is_caught_shrunk_and_emitted(self, tmp_path):
        metrics = MetricsRegistry()
        emit_dir = tmp_path / "regressions"
        artifact_dir = tmp_path / "artifacts"
        with count_perturbation(self._lie):
            report = run_fuzz(
                budget=40,
                seed=0,
                oracles=["engines"],
                ks=(4,),
                max_vertices=16,
                shrink=True,
                emit_dir=str(emit_dir),
                artifact_dir=str(artifact_dir),
                metrics=metrics,
            )
        assert not report.ok
        assert report.buckets.get("engines:k=4", 0) >= 1
        first = report.failures[0]
        assert first.oracle == "engines"
        assert "disagree" in first.message
        # shrunk hard: the minimal disagreeing instance is tiny
        assert first.shrunk_vertices is not None
        assert first.shrunk_vertices <= 12
        assert first.shrunk_edges is not None

        # artifact replays: case JSON + shrunk edge list on disk
        assert first.artifact_path is not None
        artifact = json.loads(open(first.artifact_path).read())
        assert artifact["oracle"] == "engines"
        assert artifact["shrunk"]["num_vertices"] == first.shrunk_vertices

        # regression emitted in the passing form — runs green now that
        # the perturbation hook is cleared
        assert first.regression_path is not None
        source = open(first.regression_path).read()
        namespace = {}
        exec(compile(source, first.regression_path, "exec"), namespace)
        fns = [v for n, v in namespace.items() if n.startswith("test_fuzz_")]
        assert len(fns) == 1
        fns[0]()  # oracle holds again -> no AssertionError

        assert metrics.to_dict()["fuzz.violations"]["value"] >= 1

    def test_bucketing_shrinks_only_the_first_of_a_kind(self, tmp_path):
        with count_perturbation(self._lie):
            report = run_fuzz(
                budget=60,
                seed=1,
                oracles=["engines"],
                ks=(4,),
                max_vertices=14,
                shrink=True,
                emit_dir=str(tmp_path),
            )
        assert report.buckets["engines:k=4"] >= 2  # hit more than once...
        assert len(report.failures) == 1  # ...but reported/shrunk once
        assert len(list(tmp_path.glob("test_fuzz_regression_*.py"))) == 1

    def test_failed_summary_mentions_the_bucket(self):
        with count_perturbation(self._lie):
            report = run_fuzz(
                budget=40, seed=0, oracles=["engines"], ks=(4,),
                max_vertices=14, shrink=False,
            )
        text = report.summary()
        assert "fuzz FAILED" in text
        assert "bucket engines:k=4" in text
