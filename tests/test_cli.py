"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import gnm_random_graph, save_npz, write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    g = gnm_random_graph(25, 110, seed=1)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return str(path), g


class TestStats:
    def test_stats_on_file(self, edge_file, capsys):
        path, g = edge_file
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert str(g.num_edges) in out

    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "bio-sc-ht"]) == 0
        assert "bio-sc-ht" in capsys.readouterr().out

    def test_stats_with_sigma(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["stats", path, "--sigma"]) == 0


class TestCount:
    def test_count_matches_library(self, edge_file, capsys):
        from repro import count_cliques

        path, g = edge_file
        assert main(["count", path, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert f"4-cliques: {count_cliques(g, 4).count}" in out

    def test_count_with_cost(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["count", path, "-k", "4", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "work" in out and "T_72" in out

    def test_count_variant(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["count", path, "-k", "4", "--variant", "cd-best-work"]) == 0

    def test_npz_input(self, tmp_path, capsys):
        g = gnm_random_graph(15, 40, seed=2)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert main(["count", str(path), "-k", "3"]) == 0

    @pytest.mark.parametrize(
        "engine", ["auto", "reference", "frontier", "sharded"]
    )
    def test_count_engine_flag(self, edge_file, capsys, engine):
        from repro import count_cliques

        path, g = edge_file
        expected = count_cliques(g, 4, engine="reference").count
        argv = ["count", path, "-k", "4", "--engine", engine]
        assert main(argv) == 0
        assert f"4-cliques: {expected}" in capsys.readouterr().out

    def test_count_workers_keep_the_frontier_engine(self, edge_file, capsys):
        from repro import count_cliques

        path, g = edge_file
        expected = count_cliques(g, 4, engine="reference").count
        argv = ["count", path, "-k", "4", "--workers", "2", "--cost"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"4-cliques: {expected}" in out
        assert "engine = frontier" in out

    def test_count_bad_engine_rejected(self, edge_file, capsys):
        path, _ = edge_file
        with pytest.raises(SystemExit):  # argparse choices
            main(["count", path, "-k", "4", "--engine", "gpu"])


class TestList:
    def test_list_output(self, edge_file, capsys):
        from repro import list_cliques

        path, g = edge_file
        assert main(["list", path, "-k", "4"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == len(list_cliques(g, 4, engine="reference"))

    def test_list_limit(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["list", path, "-k", "3", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) <= 2

    def test_list_frontier_engine_matches_reference(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["list", path, "-k", "4"]) == 0
        ref_out = capsys.readouterr().out
        assert main(["list", path, "-k", "4", "--engine", "frontier"]) == 0
        assert capsys.readouterr().out == ref_out
        assert (
            main(["list", path, "-k", "4", "--engine", "frontier", "--kernelize"])
            == 0
        )
        assert capsys.readouterr().out == ref_out


class TestOtherCommands:
    def test_spectrum(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["spectrum", path]) == 0
        assert "#cliques" in capsys.readouterr().out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "chebyshev4" in out

    def test_bench(self, capsys):
        assert main(["bench", "bio-sc-ht", "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "c3list" in out and "kclist" in out

    def test_bench_warm_sweep_charges_preprocessing_once(self, capsys):
        # Default bench shares one prepared context per graph: the k=5
        # cell rides on the k=4 cell's preprocessing, so its work column
        # must be strictly smaller than the same cell under --cold
        # (counts unchanged).
        def cells(argv):
            assert main(argv) == 0
            rows = {}
            for line in capsys.readouterr().out.splitlines():
                parts = line.split()
                # columns: graph k algorithm engine count wall work ...
                if len(parts) >= 7 and parts[2] == "c3list":
                    rows[int(parts[1])] = (int(parts[4]), float(parts[6]))
            return rows

        warm = cells(["bench", "bio-sc-ht", "-k", "4", "-k", "5", "--algos", "c3list"])
        cold = cells(
            ["bench", "bio-sc-ht", "-k", "4", "-k", "5", "--algos", "c3list", "--cold"]
        )
        assert warm[4][0] == cold[4][0] and warm[5][0] == cold[5][0]
        assert warm[4][1] == cold[4][1]  # first cell pays the build either way
        assert warm[5][1] < cold[5][1]  # later cells ride the shared context


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/file.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_k(self, edge_file, capsys):
        path, _ = edge_file
        assert main(["count", path, "-k", "0"]) == 1


class TestFuzz:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--budget", "4", "--seed", "0",
                     "--oracle", "engines", "-k", "4", "--max-n", "12"]) == 0
        out = capsys.readouterr().out
        assert "fuzz OK" in out and "4 cases" in out

    def test_out_report_includes_metrics(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.json"
        assert main(["fuzz", "--budget", "3", "--oracle", "relabel",
                     "-k", "4", "--max-n", "12", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert payload["cases"] == 3
        assert payload["metrics"]["fuzz.cases"]["value"] == 3

    def test_violation_exits_four_and_emits(self, tmp_path, capsys):
        from repro.fuzz.oracles import count_perturbation

        def lie(engine, graph, k, true_count):
            return true_count + 1 if engine == "frontier" and true_count > 0 else true_count

        emit_dir = tmp_path / "regressions"
        with count_perturbation(lie):
            code = main(["fuzz", "--budget", "30", "--seed", "0",
                         "--oracle", "engines", "-k", "4", "--max-n", "14",
                         "--emit-regression", str(emit_dir)])
        assert code == 4
        out = capsys.readouterr().out
        assert "fuzz FAILED" in out and "VIOLATION" in out
        assert list(emit_dir.glob("test_fuzz_regression_*.py"))

    def test_unknown_oracle_is_an_error(self, capsys):
        assert main(["fuzz", "--budget", "1", "--oracle", "nope"]) == 1
        assert "unknown oracle" in capsys.readouterr().err
