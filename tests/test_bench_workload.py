"""The workload layer: trace generation, replay, records v3, the SLO gate.

Covers the issue's satellite checklist: trace replay determinism (same
seed ⇒ identical trace and identical warm-hit sequence against a fresh
daemon), service.* stats accounting under a mixed replayed trace, the
trace-level schema/compare extensions, and the ``repro bench``/``repro
replay`` exit-3 breach-naming regression.
"""

import asyncio
import json

import pytest

from repro.bench.workload import (
    ReplayResult,
    WorkloadSpec,
    generate_trace,
    replay_trace,
    run_workload,
    trace_checksum,
)
from repro.obs import (
    MetricsRegistry,
    compare_records,
    make_record,
    validate_record,
)

SPEC = WorkloadSpec(
    graphs=("bio-sc-ht", "lattice-mesh"),
    queries=20,
    ks=(3, 4),
    zipf_a=1.2,
    mutation_every=7,
    mutation_batch=2,
    scale=0.5,
    seed=13,
)


def _query_rows(result):
    return [r for r in result.rows if r["type"] == "query"]


class TestSpec:
    def test_json_round_trip(self):
        doc = json.loads(json.dumps(SPEC.to_dict()))
        assert WorkloadSpec.from_dict(doc) == SPEC

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(graphs=())
        with pytest.raises(ValueError):
            WorkloadSpec(graphs=("a",), queries=0)
        with pytest.raises(ValueError):
            WorkloadSpec(graphs=("a",), ks=())
        with pytest.raises(ValueError):
            WorkloadSpec(graphs=("a",), mix={"nope": 1.0})
        with pytest.raises(ValueError):
            WorkloadSpec(graphs=("a",), zipf_a=-1)


class TestTraceGeneration:
    def test_same_seed_identical_trace(self):
        assert generate_trace(SPEC) == generate_trace(SPEC)

    def test_different_seed_different_trace(self):
        other = WorkloadSpec.from_dict({**SPEC.to_dict(), "seed": 14})
        assert generate_trace(SPEC) != generate_trace(other)

    def test_trace_shape(self):
        trace = generate_trace(SPEC)
        queries = [e for e in trace if e["type"] == "query"]
        mutations = [e for e in trace if e["type"] == "mutate"]
        assert len(queries) == SPEC.queries
        assert len(mutations) == SPEC.queries // SPEC.mutation_every
        assert {e["graph"] for e in trace} <= set(SPEC.graphs)
        for e in queries:
            assert e["op"] in ("count", "find", "spectrum")
            if e["op"] == "spectrum":
                assert e["k_max"] == max(SPEC.ks)
            else:
                assert e["k"] in SPEC.ks

    def test_trace_is_json_clean(self):
        trace = generate_trace(SPEC)
        assert json.loads(json.dumps(trace)) == trace

    def test_mutations_respect_strict_contract(self):
        # The simulated edge sets must keep every batch legal: replay
        # applies them through the strict DynamicGraph layer, so zero
        # errors proves inserts hit absent pairs and deletes hit
        # present edges.
        spec = WorkloadSpec(
            graphs=("bio-sc-ht",), queries=12, ks=(3,),
            mutation_every=2, mutation_batch=3, scale=0.5, seed=3,
        )
        result = run_workload(spec, metrics=MetricsRegistry())
        assert result.mutations == 6
        assert result.errors == 0


class TestReplayDeterminism:
    def test_same_seed_identical_outcomes_on_fresh_daemons(self):
        r1 = run_workload(SPEC, metrics=MetricsRegistry())
        r2 = run_workload(SPEC, metrics=MetricsRegistry())
        assert r1.count_checksum == r2.count_checksum
        assert r1.queries == r2.queries == SPEC.queries
        # Identical warm-hit sequence: warmth is a deterministic
        # function of the trace for sequential replay on a fresh daemon.
        seq1 = [r["warm"] for r in _query_rows(r1)]
        seq2 = [r["warm"] for r in _query_rows(r2)]
        assert seq1 == seq2

    def test_checksum_chains_in_order(self):
        assert trace_checksum([("a", 1), ("b", 2)]) != trace_checksum(
            [("b", 2), ("a", 1)]
        )

    def test_concurrency_preserves_checksum(self):
        trace = generate_trace(SPEC)
        r1 = replay_trace(trace, SPEC.graphs, seed=SPEC.seed,
                          scale=SPEC.scale, metrics=MetricsRegistry())
        r4 = replay_trace(trace, SPEC.graphs, seed=SPEC.seed,
                          scale=SPEC.scale, concurrency=4,
                          metrics=MetricsRegistry())
        assert r1.count_checksum == r4.count_checksum


class TestServiceAccounting:
    def test_stats_counters_sum_to_trace_length(self):
        from repro.service.daemon import CliqueService, ServiceClient
        from repro.bench.workload import replay_trace_async

        trace = generate_trace(SPEC)

        async def drive():
            service = CliqueService(metrics=MetricsRegistry())
            from repro.bench.workload import _load_for_spec

            for g in SPEC.graphs:
                service.registry.register(
                    g, graph=_load_for_spec(g, SPEC.scale)
                )
            result = await replay_trace_async(
                trace, SPEC.graphs, service=service, seed=SPEC.seed
            )
            stats = await ServiceClient(service).stats()
            await service.aclose()
            return result, stats

        result, stats = asyncio.run(drive())
        svc = stats["service"]
        op_total = sum(
            svc.get(f"service.op.{op}", 0)
            for op in ("count", "find", "spectrum")
        )
        # Coalescing + admission counters account for every event: each
        # query is an op hit, and each either ran an engine, coalesced
        # onto a flight, or was rejected by admission.
        assert op_total == result.queries == SPEC.queries
        assert svc.get("service.mutations", 0) == result.mutations
        ran = svc.get("service.engine_runs", 0)
        coalesced = svc.get("service.coalesced", 0)
        rejected = svc.get("service.rejected", 0)
        assert ran + coalesced + rejected == result.queries
        assert stats["admission"]["inflight_queries"] == 0

    def test_admission_rejections_are_counted_errors(self):
        spec = WorkloadSpec(
            graphs=("bio-sc-ht",), queries=6, ks=(3,), scale=0.5, seed=1
        )
        registry = MetricsRegistry()
        result = run_workload(
            spec, metrics=registry, max_query_work=1e-9
        )
        assert result.errors == result.queries == 6
        exported = registry.to_dict()
        assert exported["replay.errors"]["value"] == 6
        assert exported["service.rejected"]["value"] == 6


class TestTraceRecords:
    def _record_with_trace(self):
        row = ReplayResult(name="t", seed=1, queries=4, errors=0,
                           warm_hits=4, wall_s=0.1).to_trace_record()
        return make_record([], traces=[row])

    def test_schema_round_trip(self):
        record = self._record_with_trace()
        assert validate_record(record) == []
        assert validate_record(json.loads(json.dumps(record))) == []

    def test_missing_trace_field_rejected(self):
        record = self._record_with_trace()
        del record["traces"][0]["count_checksum"]
        assert any(
            "count_checksum" in e for e in validate_record(record)
        )

    def test_duplicate_trace_names_rejected(self):
        record = self._record_with_trace()
        record["traces"].append(dict(record["traces"][0]))
        assert any("duplicates trace" in e for e in validate_record(record))

    def test_v2_records_still_load(self):
        record = self._record_with_trace()
        del record["traces"]
        record["version"] = 2
        assert validate_record(record) == []


def _trace_row(**overrides):
    row = ReplayResult(
        name="w", seed=1, queries=10, warm_hits=9, wall_s=1.0,
        count_checksum=42,
    ).to_trace_record()
    row.update(overrides)
    return row


class TestTraceSLOGate:
    def _compare(self, base_row, cur_row, **kwargs):
        base = make_record([], traces=[base_row])
        cur = make_record([], traces=[cur_row])
        return compare_records(cur, base, metrics=(), **kwargs)

    def test_identical_traces_pass(self):
        report = self._compare(_trace_row(), _trace_row())
        assert report.ok and report.compared_traces == 1

    def test_hit_rate_drop_regresses(self):
        report = self._compare(
            _trace_row(), _trace_row(warm_hits=4, warm_hit_rate=0.4),
            trace_metrics=("warm_hit_rate",), trace_tolerance=0.1,
        )
        assert not report.ok
        assert report.trace_regressions[0].metric == "warm_hit_rate"
        assert report.trace_regressions[0].direction == "down"

    def test_latency_growth_regresses_but_drop_improves(self):
        base = _trace_row(p95_ms=10.0)
        worse = self._compare(
            base, _trace_row(p95_ms=20.0),
            trace_metrics=("p95_ms",), trace_tolerance=0.25,
        )
        assert not worse.ok and worse.trace_regressions[0].direction == "up"
        better = self._compare(
            base, _trace_row(p95_ms=2.0),
            trace_metrics=("p95_ms",), trace_tolerance=0.25,
        )
        assert better.ok and better.trace_improvements

    def test_new_errors_regress(self):
        report = self._compare(
            _trace_row(errors=0), _trace_row(errors=1),
            trace_metrics=("errors",),
        )
        assert not report.ok

    def test_checksum_mismatch_fatal_regardless_of_metrics(self):
        report = self._compare(
            _trace_row(), _trace_row(count_checksum=43), trace_metrics=()
        )
        assert not report.ok
        assert report.checksum_mismatches

    def test_query_count_mismatch_fatal(self):
        report = self._compare(
            _trace_row(), _trace_row(queries=5), trace_metrics=()
        )
        assert not report.ok and report.checksum_mismatches

    def test_unmatched_traces_informational(self):
        base = make_record([], traces=[_trace_row(name="old")])
        cur = make_record([], traces=[_trace_row(name="new")])
        report = compare_records(cur, base, metrics=())
        assert report.ok
        assert report.missing_traces == ["old"]
        assert report.new_traces == ["new"]


class TestReplayCLI:
    ARGS = ["replay", "bio-sc-ht", "--queries", "8", "--seed", "5",
            "-k", "3", "--scale", "0.5"]

    def test_replay_smoke(self, capsys):
        from repro.cli import main

        assert main(list(self.ARGS)) == 0
        out = capsys.readouterr().out
        assert "count checksum" in out

    def test_replay_emit_and_refire(self, tmp_path, capsys):
        from repro.cli import main

        trace_file = str(tmp_path / "trace.json")
        assert main(self.ARGS + ["--emit-trace", trace_file]) == 0
        ck1 = capsys.readouterr().out
        assert main(["replay", "--trace", trace_file]) == 0
        ck2 = capsys.readouterr().out
        line = [l for l in ck1.splitlines() if "checksum" in l]
        assert line and line == [
            l for l in ck2.splitlines() if "checksum" in l
        ]

    def test_replay_compare_pass_and_breach(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # --compare writes a BENCH_<ts>.json
        baseline = str(tmp_path / "base.json")
        assert main(self.ARGS + ["--out", baseline]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--compare", baseline]) == 0
        capsys.readouterr()
        # Corrupt the baseline's hit rate upward: current must breach.
        doc = json.load(open(baseline))
        doc["traces"][0]["warm_hit_rate"] = 2.0
        doc["traces"][0]["warm_hits"] = 99
        json.dump(doc, open(baseline, "w"))
        assert main(self.ARGS + ["--compare", baseline]) == 3
        err = capsys.readouterr().err
        assert "warm_hit_rate" in err and "breach" in err


class TestBenchBreachNaming:
    """Regression for the exit-3 message: it must name the breached
    metric, not just the record (the issue's small-fix satellite)."""

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
