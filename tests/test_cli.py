import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tricent
from tricent import dataset_path, removal_experiment
from tricent.centrality import DENSE_SIZE_LIMIT
from tricent.cli import _fmt, build_parser, main

import cli_grid
import oracles


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("1 2\n2 3\n1 3\n")
    return path


@pytest.fixture()
def two_components_file(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("a b\nc d\n")
    return path


@pytest.fixture(scope="module")
def k711_file(tmp_path_factory):
    """The complete graph K_711, whose subgraph centrality overflows."""
    path = tmp_path_factory.mktemp("k711") / "k711.edges"
    path.write_text("".join(f"{i} {j}\n" for i, j in itertools.combinations(range(711), 2)))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCentralityCommand:
    def test_atec_csv_schema(self, capsys, k3_file):
        code, out, _ = run(
            capsys, "centrality", "--input", str(k3_file), "--alpha", "0.5",
            "--measure", "atec",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# measure=atec alpha=0.5")
        assert lines[1] == "label,score,rank,tie_group"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        for label, score, rank, tie in rows:
            assert float(score) == pytest.approx(0.5773502692, abs=1e-9)
            assert rank == "1"
            assert tie == "0"

    def test_two_measures_to_stdout(self, capsys, k3_file):
        code, out, _ = run(
            capsys, "centrality", "--input", str(k3_file), "--alpha", "0.5",
            "--measure", "atec,dc",
        )
        assert code == 0
        assert out.count("label,score,rank,tie_group") == 2
        assert "# measure=dc" in out

    def test_two_measures_to_files(self, capsys, k3_file, tmp_path):
        out_path = tmp_path / "rep.csv"
        code, _, _ = run(
            capsys, "centrality", "--input", str(k3_file), "--alpha", "0.5",
            "--measure", "atec,dc", "--output", str(out_path),
        )
        assert code == 0
        assert (tmp_path / "rep-atec-0.5.csv").exists()
        assert (tmp_path / "rep-dc.csv").exists()

    def test_json_meta(self, capsys, k3_file):
        code, out, _ = run(
            capsys, "centrality", "--input", str(k3_file), "--alpha", "0.5",
            "--measure", "atec", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        meta = payload["meta"]
        assert meta["measure"] == "atec"
        assert meta["alpha"] == 0.5
        assert meta["dataset_hash"] == hashlib.sha256(k3_file.read_bytes()).hexdigest()
        assert "iterations" in meta and "residual" in meta and "tolerance" in meta
        assert {row["label"] for row in payload["rows"]} == {"1", "2", "3"}

    def test_disconnected_is_data_error(self, capsys, two_components_file):
        code, _, err = run(
            capsys, "centrality", "--input", str(two_components_file),
            "--alpha", "0.5", "--measure", "atec",
        )
        assert code == 3
        assert "2 components" in err

    def test_per_component_flag(self, capsys, two_components_file):
        code, out, _ = run(
            capsys, "centrality", "--input", str(two_components_file),
            "--alpha", "0.5", "--measure", "atec", "--per-component",
        )
        assert code == 0
        scores = [float(line.split(",")[1]) for line in out.strip().splitlines()[2:]]
        assert all(s == pytest.approx(0.7071067812, abs=1e-9) for s in scores)

    def test_missing_alpha_is_usage_error(self, capsys, k3_file):
        code, _, err = run(capsys, "centrality", "--input", str(k3_file), "--measure", "atec")
        assert code == 2
        assert "alpha" in err

    def test_unit_norm_flag(self, capsys, k3_file):
        code, out, _ = run(
            capsys, "centrality", "--input", str(k3_file), "--measure", "dc",
            "--unit-norm",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "normalization=unit-euclidean" in lines[0]
        for line in lines[2:]:
            assert float(line.split(",")[1]) == pytest.approx(0.5773502692, abs=1e-9)

    def test_unknown_measure(self, capsys, k3_file):
        code, _, err = run(
            capsys, "centrality", "--input", str(k3_file), "--measure", "pagerank"
        )
        assert code == 2
        assert "unknown measure" in err

    def test_alpha_out_of_domain_is_usage_error(self, capsys, k3_file):
        for alpha in ("0", "1.5"):
            code, _, err = run(
                capsys, "centrality", "--input", str(k3_file),
                "--alpha", alpha, "--measure", "atec",
            )
            assert code == 2
            assert "alpha" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "centrality", "--input", str(tmp_path / "nope.edges"),
            "--alpha", "0.5",
        )
        assert code == 2
        assert "not found" in err

    def test_parse_error_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b c\n")
        code, _, err = run(capsys, "centrality", "--input", str(bad), "--alpha", "0.5")
        assert code == 3
        assert "line 1" in err

    def test_sc_over_the_size_limit_is_data_error(self, capsys, tmp_path, no_dense_adjacency):
        """SC on a path one vertex over the limit exits 3, naming the limit,
        without building the n x n adjacency matrix."""
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, DENSE_SIZE_LIMIT + 1)))
        code, out, err = run(capsys, "centrality", "--input", str(path), "--measure", "sc")
        assert code == 3 and out == ""
        assert f"exceeds the {DENSE_SIZE_LIMIT} limit" in err

    @pytest.mark.parametrize("command", ["centrality", "compare"])
    def test_oversized_sc_is_refused_before_any_measure_runs(
        self, capsys, tmp_path, monkeypatch, command
    ):
        """bc ahead of sc in the list never runs on a graph over SC's limit;
        a usage error in the same command still comes first."""
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, DENSE_SIZE_LIMIT + 1)))

        def refuse(graph):
            raise AssertionError("betweenness ran before the size check")

        monkeypatch.setattr(tricent.cli, "betweenness_centrality", refuse)
        code, out, err = run(capsys, command, "--input", str(path), "--measure", "bc,sc")
        assert code == 3 and out == ""
        assert f"n = {DENSE_SIZE_LIMIT + 1} exceeds the {DENSE_SIZE_LIMIT} limit" in err
        code, out, err = run(capsys, command, "--input", str(path), "--measure", "bc,sc,x")
        assert (code, out) == (2, "")
        assert "unknown measure 'x'" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sc_overflow_is_data_error(self, capsys, k711_file, fmt):
        """K_711's SC overflows: exit 3 naming lambda_max, no table and no
        numpy warning line."""
        code, out, err = run(
            capsys, "centrality", "--input", str(k711_file), "--measure", "sc", "--format", fmt
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: subgraph centrality overflows: lambda_max = 710 ")
        assert "warning:" not in err and err.count("\n") == 1

    def test_deterministic_output(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "centrality", "--input", str(dataset_path("paper-g14")),
                "--alpha", "0.6", "--measure", "atec", "--output", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_g14_golden_scores_via_cli(self, capsys):
        code, out, _ = run(
            capsys, "centrality", "--input", str(dataset_path("paper-g14")),
            "--alpha", "0.6", "--measure", "atec",
        )
        assert code == 0
        scores = {
            line.split(",")[0]: float(line.split(",")[1])
            for line in out.strip().splitlines()[2:]
        }
        assert scores["1"] == pytest.approx(0.3379, abs=5e-4)
        assert scores["4"] == pytest.approx(0.3303, abs=5e-4)
        assert scores["8"] == pytest.approx(0.3209, abs=5e-4)

    def test_tol_env_override_and_nonconvergence(self, capsys, k3_file, monkeypatch, tmp_path):
        # an impossible tolerance must exhaust the budget and exit 4
        asym = tmp_path / "asym.edges"
        asym.write_text("1 2\n2 3\n1 3\n3 4\n")
        monkeypatch.setenv("TRICENT_TOL", "1e-300")
        code, _, err = run(
            capsys, "centrality", "--input", str(asym), "--alpha", "0.5",
            "--measure", "atec",
        )
        assert code == 4
        assert "no convergence" in err and "at iteration 1" in err

    def test_bad_tol_is_usage_error(self, capsys, k3_file, monkeypatch):
        # checked before any solve: nan would burn the whole iteration budget,
        # inf would stop after one iteration with an unconverged vector
        argv = ("centrality", "--input", str(k3_file), "--alpha", "0.5")
        for flag in ("nan", "inf", "0", "-1e-10"):
            code, out, err = run(capsys, *argv, f"--tol={flag}")
            assert (code, out) == (2, "")
            assert "--tol must be positive and finite" in err
        for env in ("nan", "inf", "abc"):
            monkeypatch.setenv("TRICENT_TOL", env)
            code, out, err = run(capsys, "sweep", "--input", str(k3_file), "--alphas", "1,0.5")
            assert (code, out) == (2, "")
            assert "usage error: TRICENT_TOL must be" in err


@pytest.mark.parametrize(
    "argv",
    [("centrality", "--measure", "atec:x"), ("sweep", "--alphas", "1,x")],
    ids=lambda argv: argv[0],
)
def test_non_numeric_alpha_is_usage_error(capsys, k3_file, argv):
    code, out, err = run(capsys, *argv, "--input", str(k3_file))
    assert (code, out, err) == (2, "", "usage error: alpha must be a number, got 'x'\n")


class TestSweepCommand:
    def test_wide_csv(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--input", str(dataset_path("paper-g14")),
            "--alphas", "1,0.8,0.6,0.4,0.2,0.01",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,alpha=1,alpha=0.8,alpha=0.6,alpha=0.4,alpha=0.2,alpha=0.01"
        row1 = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row1["label"] == "1"
        assert float(row1["alpha=1"]) == pytest.approx(0.2651, abs=5e-4)
        assert float(row1["alpha=0.01"]) == pytest.approx(0.4076, abs=5e-4)

    def test_single_alpha_rejected(self, capsys, k3_file):
        code, _, err = run(capsys, "sweep", "--input", str(k3_file), "--alphas", "0.5")
        assert code == 2
        assert "two alpha" in err

    def test_top_table(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--input", str(dataset_path("karate")),
            "--alphas", "1,0.01", "--top", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,rank1,rank2,rank3"
        assert lines[1] == "1,34,1,3"
        assert lines[2] == "0.01,1,2,3"

    def test_top_zero_is_rejected_before_any_solve(self, capsys, k3_file, monkeypatch):
        solves = []
        monkeypatch.setattr(tricent.cli, "atec", lambda *a, **k: solves.append(a))
        code, out, err = run(
            capsys, "sweep", "--input", str(k3_file), "--alphas", "1,0.5", "--top", "0"
        )
        assert (code, out, solves) == (2, "", [])
        assert "--top must be a positive integer" in err

    @pytest.mark.parametrize("per_component", (False, True))
    def test_out_of_domain_alpha_is_rejected_before_any_solve(
        self, capsys, k3_file, monkeypatch, per_component
    ):
        solves = []
        for name in ("atec", "atec_per_component"):
            monkeypatch.setattr(tricent.cli, name, lambda *a, **k: solves.append(a))
        flags = ("--per-component",) if per_component else ()
        code, out, err = run(
            capsys, "sweep", "--input", str(k3_file), "--alphas", "1,1.5,0", *flags
        )
        assert (code, out, solves) == (2, "", [])
        assert err.startswith("usage error: alpha must lie in (0, 1], got 1.5;")

    def test_top_json_alphas_are_numbers(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--input", str(dataset_path("karate")),
            "--alphas", "1,0.2", "--top", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [row[0] for row in doc["rows"]] == doc["meta"]["alphas"] == [1.0, 0.2]

    def test_svg_written(self, capsys, tmp_path):
        svg = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, "sweep", "--input", str(dataset_path("paper-g14")),
            "--alphas", "1,0.5,0.01", "--svg", str(svg), "--output",
            str(tmp_path / "sweep.csv"),
        )
        assert code == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert body.count("<polyline") == 14

    def test_svg_of_equal_alphas_spans_one(self, capsys, tmp_path):
        """Equal alphas span nothing, so the alpha axis runs from them to 1 more."""
        svg = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, "sweep", "--input", str(dataset_path("karate")),
            "--alphas", "0.5,0.5", "--svg", str(svg), "--output", str(tmp_path / "sweep.csv"),
        )
        assert code == 0
        ticks = re.findall(r'text-anchor="middle">([^<]*)</text>', svg.read_text())
        assert ticks == ["0.50", "0.75", "1.00", "1.25", "1.50", "alpha"]

    def test_karate_golden_top10_table(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--input", str(dataset_path("karate")),
            "--alphas", "1,0.8,0.6,0.4,0.2,0.01", "--top", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1:] == [
            "1,34,1,3,33,2,9,14,4,32,31",
            "0.8,1,3,2,34,33,4,14,8,9,31",
            "0.6,1,3,2,4,14,8,34,33,9,31",
            "0.4,1,2,3,4,14,8,33,34,9,20",
            "0.2,1,2,3,4,14,8,9,33,34,20",
            "0.01,1,2,3,4,14,8,9,20,18,22",
        ]


class TestTrianglesCommand:
    def test_k3_single_row(self, capsys, k3_file):
        code, out, _ = run(capsys, "triangles", "--input", str(k3_file), "--alpha", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# index=triangle-importance"
        assert lines[1] == "v1,v2,v3,score,rank"
        v1, v2, v3, score, rank = lines[2].split(",")
        assert (v1, v2, v3, rank) == ("1", "2", "3", "1")
        assert float(score) == pytest.approx(3 / 3**0.5, abs=1e-9)

    def test_triangle_free_warns_and_empty(self, capsys, tmp_path):
        p = tmp_path / "path.edges"
        p.write_text("1 2\n2 3\n")
        code, out, err = run(capsys, "triangles", "--input", str(p), "--alpha", "0.5")
        assert code == 0
        assert "no triangles" in err
        assert out.strip().splitlines()[-1] == "v1,v2,v3,score,rank"

    @pytest.mark.parametrize("alpha", ("5", "nan", "0"))
    @pytest.mark.parametrize("text", ("1 2\n2 3\n3 4\n", "1 2\n2 3\n1 3\n"), ids=("path", "k3"))
    def test_out_of_domain_alpha_is_usage_error_with_or_without_triangles(
        self, capsys, tmp_path, text, alpha
    ):
        p = tmp_path / "g.edges"
        p.write_text(text)
        code, out, err = run(capsys, "triangles", "--input", str(p), "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: alpha must lie in (0, 1], got {float(alpha)};")
        assert err.count("\n") == 1

    def test_both_indices_to_files(self, capsys, tmp_path):
        out = tmp_path / "tri.csv"
        code, _, _ = run(
            capsys, "triangles", "--input", str(dataset_path("paper-g14")),
            "--alpha", "0.6", "--with-cycle-index", "--output", str(out),
        )
        assert code == 0
        assert (tmp_path / "tri-triangle-importance.csv").exists()
        assert (tmp_path / "tri-cycle-index.csv").exists()

    def test_celegans_top_rows_both_indices(self, capsys):
        code, out, _ = run(
            capsys, "triangles", "--input", str(dataset_path("celegans-metabolic")),
            "--alpha", "0.2", "--with-cycle-index",
        )
        assert code == 0
        sections = out.split("# index=")
        importance = sections[1].strip().splitlines()
        cycle = sections[2].strip().splitlines()
        assert importance[2].startswith("147,186,408,")
        assert cycle[2].startswith("56,153,217,")

    def test_oversized_cycle_index_is_refused_before_atec(
        self, capsys, tmp_path, monkeypatch, no_dense_adjacency
    ):
        """triangles --with-cycle-index on a path one vertex over the dense
        limit, with one chord closing a triangle, exits 3 with the Fiedler
        vector's size message before atec runs."""
        n = DENSE_SIZE_LIMIT + 1
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, n)) + "1 3\n")

        def refuse(*args, **kwargs):
            raise AssertionError("atec ran before the size check")

        monkeypatch.setattr(tricent.cli, "atec", refuse)
        code, out, err = run(capsys, "triangles", "--input", str(path), "--with-cycle-index")
        assert code == 3 and out == ""
        assert err == (
            f"error: Fiedler vector is dense-eigendecomposition bound; "
            f"n = {n} exceeds the {DENSE_SIZE_LIMIT} limit\n"
        )


class TestConnectivityCommand:
    def test_k4_removal(self, capsys, tmp_path):
        p = tmp_path / "k4.edges"
        p.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        code, out, _ = run(capsys, "connectivity", "--input", str(p), "--remove", "1,2,3")
        assert code == 0
        assert out.strip() == "components: 1 -> 1"

    def test_unknown_vertex(self, capsys, k3_file):
        code, _, err = run(capsys, "connectivity", "--input", str(k3_file), "--remove", "9")
        assert code == 3
        assert "unknown" in err

    def test_celegans_split(self, capsys):
        code, out, _ = run(
            capsys, "connectivity", "--input", str(dataset_path("celegans-metabolic")),
            "--remove", "147,186,408",
        )
        assert code == 0
        assert out.strip() == "components: 1 -> 6"

    def test_json_payload(self, capsys, k3_file):
        code, out, _ = run(
            capsys, "connectivity", "--input", str(k3_file), "--remove", "1",
            "--format", "json",
        )
        assert code == 0
        summary, payload = out.split("\n", 1)
        assert summary == "components: 1 -> 1"
        data = json.loads(payload)
        assert data["removed"] == ["1"]
        assert data["sizes_after"] == [2]


class TestStatsCommand:
    def test_k3_rows(self, capsys, k3_file):
        code, out, _ = run(capsys, "stats", "--input", str(k3_file))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,degree,triangles,neighbor_triangles"
        assert lines[1:4] == ["1,2,1,2", "2,2,1,2", "3,2,1,2"]
        assert any(line.startswith("# degree min=2") for line in lines)

    def test_path_zero_triangles(self, capsys, tmp_path):
        p = tmp_path / "p3.edges"
        p.write_text("1 2\n2 3\n")
        code, out, _ = run(capsys, "stats", "--input", str(p))
        assert code == 0
        for line in out.strip().splitlines()[1:4]:
            _, _, tri, nt = line.split(",")
            assert tri == "0" and nt == "0"

    def test_dolphins_spread(self, capsys):
        code, out, _ = run(capsys, "stats", "--input", str(dataset_path("dolphins")))
        assert code == 0
        rows = [
            line.split(",") for line in out.strip().splitlines()[1:]
            if not line.startswith("#")
        ]
        degrees = [int(r[1]) for r in rows]
        nts = [int(r[3]) for r in rows]
        assert max(nts) - min(nts) > max(degrees) - min(degrees)

    def test_a_byte_order_mark_changes_nothing(self, capsys, tmp_path):
        """A UTF-8 byte-order mark before the text is no part of a label."""
        plain, bom = tmp_path / "plain.edges", tmp_path / "bom.edges"
        plain.write_bytes(dataset_path("karate").read_bytes())
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want = run(capsys, "stats", "--input", str(plain))
        assert want[0] == 0
        assert run(capsys, "stats", "--input", str(bom)) == want

    @pytest.mark.parametrize("dataset", ["dolphins", "celegans-metabolic", "karate"])
    def test_csv_summary_matches_json_summary(self, capsys, dataset):
        """Summary values follow the CSV cell rule: an even count's median
        of 5.0 prints as 5, like the odd count's 5."""
        path = str(dataset_path(dataset))
        csv_out = run(capsys, "stats", "--input", path)[1]
        summary = json.loads(run(capsys, "stats", "--input", path, "--format", "json")[1])
        want = {
            key: {k: f"{v:.10g}" for k, v in values.items()}
            for key, values in summary["meta"]["summary"].items()
        }
        got = {}
        for line in csv_out.splitlines():
            if line.startswith("# "):
                key, *fields = line[2:].split(" ")
                got[key] = dict(field.split("=") for field in fields)
        assert got == want and len(got) == 3


class TestCompareCommand:
    def test_matrix_shape_and_diagonal(self, capsys, k3_file, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("1 2\n2 3\n1 3\n3 4\n4 5\n")
        code, out, _ = run(
            capsys, "compare", "--input", str(p),
            "--measure", "atec:0.5,dc,bc", "--method", "spearman",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "measure,atec:0.5,dc,bc"
        matrix = [line.split(",")[1:] for line in lines[1:]]
        for i in range(3):
            assert float(matrix[i][i]) == 1.0

    def test_needs_two_measures(self, capsys, k3_file):
        code, _, err = run(capsys, "compare", "--input", str(k3_file), "--measure", "dc")
        assert code == 2
        assert "two measures" in err

    def test_karate_alpha1_vs_ec_spearman_is_one(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--input", str(dataset_path("karate")),
            "--measure", "atec:1,ec", "--method", "spearman",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[2] == "1"

    def test_sc_overflow_exits_before_any_correlation(self, capsys, monkeypatch, k711_file):
        def refuse(*args, **kwargs):
            raise AssertionError("a correlation ran after sc overflowed")

        monkeypatch.setattr(tricent.cli, "rank_correlation", refuse)
        code, out, err = run(capsys, "compare", "--input", str(k711_file), "--measure", "dc,sc")
        assert (code, out) == (3, "")
        assert err.startswith("error: subgraph centrality overflows: lambda_max = 710 ")

    def test_svg_scatter(self, capsys, tmp_path):
        svg = tmp_path / "m.svg"
        code, _, _ = run(
            capsys, "compare", "--input", str(dataset_path("paper-g14")),
            "--measure", "dc,bc", "--svg", str(svg),
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")


# the library function tricent.cli calls for each measure
CLI_FUNCTION = {
    "dc": "degree_centrality",
    "tc": "triangle_centrality",
    "sc": "subgraph_centrality",
}


def record_calls(monkeypatch, names) -> list[str]:
    """The names of the measures whose tricent.cli functions run, in call order."""
    calls = []
    for name in names:
        function = getattr(tricent.cli, CLI_FUNCTION[name])

        def counted(*args, name=name, function=function, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        monkeypatch.setattr(tricent.cli, CLI_FUNCTION[name], counted)
    return calls


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["centrality", "compare"])
def test_sc_overflow_refuses_before_any_other_measure_runs(
    capsys, monkeypatch, k711_file, command, fmt
):
    """On K_711, dc,sc exits 3 on SC's overflow, with no stdout and dc never run."""
    calls = record_calls(monkeypatch, ["dc"])
    code, out, err = run(
        capsys, command, "--input", str(k711_file), "--measure", "dc,sc", "--format", fmt
    )
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("error: subgraph centrality overflows: lambda_max = 710 ")


@pytest.mark.parametrize(
    "command, measures, hint",
    [
        ("compare", "dc,sc,atec:0.2", ""),
        ("centrality", "dc,sc,atec:0.2", " (use --per-component)"),
        ("centrality", "dc,sc,ec,atec:0.2", ""),
    ],
)
def test_a_disconnected_input_is_refused_before_any_measure_runs(
    capsys, monkeypatch, two_components_file, command, measures, hint
):
    """The first atec or ec in the list refuses, with its own message, before
    dc or SC's dense work has run."""
    calls = record_calls(monkeypatch, ["dc", "sc"])
    result = run(capsys, command, "--input", str(two_components_file), "--measure", measures)
    assert result == (3, "", f"error: graph has 2 components{hint}\n")
    assert calls == []


@pytest.mark.parametrize("measures", ["sc,dc,tc", "dc,sc,tc", "dc,tc,sc"])
def test_sc_runs_first_and_the_output_keeps_the_given_order(capsys, monkeypatch, karate, measures):
    """Wherever sc stands in the list, it runs first; the tables, the
    measures and the matrix equal each measure computed alone through the
    library, in the order given."""
    names = measures.split(",")
    alone = {
        "dc": tricent.degree_centrality(karate),
        "tc": tricent.triangle_centrality(karate, tricent.enumerate_triangles(karate)),
        "sc": tricent.subgraph_centrality(karate),
    }
    calls = record_calls(monkeypatch, names)
    path = str(dataset_path("karate"))

    argv = ("--input", path, "--measure", measures, "--format", "json")
    code, out, _ = run(capsys, "centrality", *argv)
    assert code == 0
    docs = json.loads(out)
    assert [doc["meta"]["measure"] for doc in docs] == names
    for doc, name in zip(docs, names):
        rows = [{**row._asdict(), "score": float(_fmt(row.score))} for row in alone[name].ranking]
        assert doc["rows"] == rows

    code, out, _ = run(capsys, "compare", *argv)
    assert code == 0
    got = json.loads(out)
    vectors = [alone[name].scores for name in names]
    matrix = [
        [1.0 if a is b else float(_fmt(tricent.rank_correlation(a, b, "pearson"))) for b in vectors]
        for a in vectors
    ]
    assert (got["measures"], got["matrix"]) == (names, matrix)
    assert calls == (["sc"] + [name for name in names if name != "sc"]) * 2


class TestCsvQuoting:
    """Labels holding a comma or a double quote come back intact through csv.reader."""

    LABELS = {"a,b", 'q"r', "c"}

    @pytest.fixture()
    def odd_file(self, tmp_path):
        path = tmp_path / "odd.edges"
        path.write_text('a,b q"r\nq"r c\na,b c\nc d\n')
        return path

    def rows(self, text):
        return [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]

    @pytest.mark.parametrize(
        "argv, columns",
        [
            (["centrality", "--measure", "dc"], (0,)),
            (["stats"], (0,)),
            (["sweep", "--alphas", "1,0.5"], (0,)),
            (["sweep", "--alphas", "1,0.5", "--top", "4"], (1, 2, 3, 4)),
            (["triangles"], (0, 1, 2)),
        ],
    )
    def test_labels_round_trip(self, capsys, odd_file, argv, columns):
        code, out, _ = run(capsys, *argv, "--input", str(odd_file))
        assert code == 0
        header, *body = self.rows(out)
        assert all(len(row) == len(header) for row in body)
        seen = {row[c] for row in body for c in columns}
        assert seen - {"d"} == self.LABELS

    def test_connectivity_removed_field(self, capsys, odd_file, tmp_path):
        out_path = tmp_path / "conn.csv"
        code, _, _ = run(
            capsys, "connectivity", "--input", str(odd_file), "--remove", 'q"r',
            "--output", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        header, row = self.rows(text)
        assert len(row) == len(header) and row[0] == 'q"r'
        assert text.splitlines()[1].startswith('"q""r",')

    @pytest.mark.parametrize(
        "value, removed",
        [
            ('"a,b",c', ["a,b", "c"]),
            ('"q""r"', ['q"r']),
            (' q"r , "a,b" ,', ['q"r', "a,b"]),
        ],
    )
    def test_remove_reads_quoted_labels(self, capsys, odd_file, value, removed):
        code, out, _ = run(
            capsys, "connectivity", "--input", str(odd_file), "--remove", value,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out.split("\n", 1)[1])["removed"] == removed

    @pytest.mark.parametrize("value", ['"a,b', 'c,"q""r', '"a"b,c'])
    def test_remove_with_a_broken_quote_is_usage_error(self, capsys, odd_file, value):
        code, _, err = run(capsys, "connectivity", "--input", str(odd_file), "--remove", value)
        assert code == 2
        assert "usage error" in err and "quote" in err

    def test_plain_labels_stay_unquoted(self, capsys, k3_file):
        code, out, _ = run(capsys, "stats", "--input", str(k3_file))
        assert code == 0
        assert '"' not in out

    REMOVE = {"karate": "1,34", "odd": '"a,b",c'}

    @staticmethod
    def chunks(text: str) -> list[str]:
        """The CSV tables of text, split at its '#' comment lines."""
        chunks = [""]
        for line in text.splitlines(keepends=True):
            if line.startswith("#"):
                chunks.append("")
            else:
                chunks[-1] += line
        return [c for c in chunks if c]

    @staticmethod
    def cell(value) -> str:
        """A JSON value as its CSV cell: numbers at 10 digits, lists ;-joined."""
        if isinstance(value, list):
            return ";".join(map(str, value))
        if isinstance(value, (int, float)):
            return f"{value:.10g}"
        return value

    @pytest.mark.parametrize("dataset", ["karate", "odd"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("centrality", "--measure", "atec:0.2,dc,tc"),
            ("sweep", "--alphas", "1,0.5"),
            ("sweep", "--alphas", "1,0.5", "--top", "3"),
            ("triangles", "--with-cycle-index"),
            ("connectivity",),
            ("stats",),
            ("compare", "--measure", "atec:0.2,dc,bc,sc"),
        ],
        ids=" ".join,
    )
    def test_csv_and_json_carry_the_same_table(self, capsys, odd_file, tmp_path, argv, dataset):
        path = odd_file if dataset == "odd" else dataset_path(dataset)
        sub = argv[0]
        if sub == "connectivity":
            argv += ("--remove", self.REMOVE[dataset])

        def output(fmt, *extra):
            # connectivity writes its table only to --output
            out = tmp_path / f"out.{fmt}"
            if sub == "connectivity":
                extra += ("--output", str(out))
            code, text, _ = run(capsys, *argv, "--input", str(path), "--format", fmt, *extra)
            assert code == 0
            return out.read_text() if sub == "connectivity" else text

        chunks = self.chunks(output("csv"))
        tables = [list(csv.reader(io.StringIO(chunk))) for chunk in chunks]
        headers = [table[0] for table in tables]
        doc = json.loads(output("json"))
        if sub == "sweep":
            assert headers == [doc["columns"]]
            json_tables = [doc["rows"]]
        elif sub == "compare":
            assert headers == [["measure", *doc["measures"]]]
            json_tables = [[[m, *row] for m, row in zip(doc["measures"], doc["matrix"])]]
        elif sub == "connectivity":
            assert set(doc) == {"meta", *headers[0]}
            json_tables = [[[doc[c] for c in headers[0]]]]
        else:
            docs = doc if isinstance(doc, list) else [doc]
            assert len(docs) == len(headers)
            assert all(set(r) == set(h) for d, h in zip(docs, headers) for r in d["rows"])
            json_tables = [[[r[c] for c in h] for r in d["rows"]] for d, h in zip(docs, headers)]
        assert len(json_tables) == len(tables)
        for rows, (_, *body) in zip(json_tables, tables):
            assert body and [[self.cell(v) for v in row] for row in rows] == body

        if sub in ("centrality", "triangles"):
            output("csv", "--output", str(tmp_path / "multi.csv"))
            files = [p.read_text() for p in tmp_path.glob("multi-*.csv")]
            assert len(chunks) > 1 and sorted(files) == sorted(chunks)


@pytest.mark.parametrize(
    "argv, hint",
    [
        (("centrality", "--measure", "atec:0.2"), True),
        (("sweep", "--alphas", "1,0.2"), True),
        (("centrality", "--measure", "ec"), False),
        (("centrality", "--measure", "ec", "--per-component"), False),
        (("triangles",), False),
        (("compare", "--measure", "atec:0.2,dc"), False),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"hint={v}",
)
def test_connectivity_hint_names_only_a_flag_that_helps(capsys, two_components_file, argv, hint):
    """--per-component is suggested only where it exists and would make the run work."""
    code, out, err = run(capsys, *argv, "--input", str(two_components_file))
    suffix = " (use --per-component)" if hint else ""
    assert (code, out, err) == (3, "", f"error: graph has 2 components{suffix}\n")


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (("centrality", "--measure", "tc"), 0, ""),
        (("compare", "--measure", "dc,tc"), 3,
         "error: correlation is undefined for a constant score vector\n"),
    ],
    ids=["centrality", "compare"],
)
def test_library_warnings_print_as_warning_lines(capsys, tmp_path, argv, code, error):
    """A library warning is one "warning: <message>" line, ahead of any error."""
    path = tmp_path / "path.edges"
    path.write_text("1 2\n2 3\n3 4\n")
    assert run(capsys, *argv, "--input", str(path))[::2] == (
        code, "warning: graph has no triangles; triangle centrality is all-zero\n" + error
    )


def fresh_python(code: str) -> str:
    """What a fresh interpreter prints to stdout running code on this package,
    BLAS on one thread."""
    env = dict(os.environ, **cli_grid.BLAS_ENV, PYTHONPATH=str(Path(tricent.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def modules_after(code: str) -> list[str]:
    """The names in sys.modules once a fresh interpreter has run code."""
    return fresh_python(code + "\nprint(*sys.modules)").splitlines()[-1].split()


def heavy_modules(loaded: list[str]) -> list[str]:
    heavy = {"csv", "_csv", "xml", "scipy", "hypothesis"}
    return [
        m for m in loaded
        if m.split(".")[0] in heavy or m in ("urllib.request", "numpy.ma")
    ]


def test_cli_import_skips_heavy_modules():
    """The CLI starts fast: no csv, xml, urllib.request, numpy.ma, scipy or hypothesis."""
    loaded = modules_after("import sys, tricent.cli")
    assert "tricent.cli" in loaded
    assert heavy_modules(loaded) == []


def test_cli_import_without_site_loads_no_resources_or_archives():
    """In an interpreter without site (python -S), where no .pth file can
    preload them, importing the CLI loads neither importlib.resources nor
    the tempfile, shutil, bz2 and lzma that it would bring."""
    path = os.pathsep.join(str(Path(module.__file__).parents[1]) for module in (tricent, np))
    env = dict(os.environ, **cli_grid.BLAS_ENV, PYTHONPATH=path)
    code = "import sys, tricent.cli; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "tricent.cli" in loaded and "site" not in loaded
    unwanted = ("importlib.resources", "tempfile", "shutil", "bz2", "lzma")
    assert [m for m in loaded if m in unwanted] == []


def test_cli_compare_run_skips_heavy_modules(tmp_path):
    """A whole compare run, betweenness and Kendall included, imports none of them."""
    argv = [
        "compare", "--input", str(dataset_path("karate")), "--measure",
        "atec:0.2,dc,tc,bc,sc", "--method", "kendall", "--output", str(tmp_path / "out.csv"),
    ]
    loaded = modules_after(
        f"import sys\nfrom tricent.cli import main\nassert main({argv!r}) == 0"
    )
    assert "tricent.centrality" in loaded
    assert heavy_modules(loaded) == []
    assert (tmp_path / "out.csv").read_text().startswith("measure,atec:0.2,dc,tc,bc,sc\n")


# hashlib loads OpenSSL's libcrypto, and fractions loads decimal
OPENSSL_AND_DECIMAL = ("_hashlib", "_ssl", "hashlib", "fractions", "decimal", "_decimal")
# one run of each subcommand on a bundled dataset
SUBCOMMAND_RUNS = {
    "centrality": ("karate", "--alpha", "0.6", "--measure", "atec,dc,ec,tc,bc,sc"),
    "sweep": ("karate", "--alphas", "1,0.8,0.6,0.4,0.2,0.01", "--top", "10"),
    "triangles": ("celegans-metabolic", "--alpha", "0.2", "--with-cycle-index"),
    "connectivity": ("celegans-metabolic", "--remove", "147,186,408"),
    "stats": ("dolphins",),
    "compare": ("karate", "--measure", "atec:0.2,dc,tc,bc,sc", "--method", "spearman"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_cli_run_loads_neither_openssl_nor_decimal(tmp_path, command):
    """A whole run of each subcommand, its dataset_hash included, leaves none
    of hashlib, OpenSSL, fractions or decimal in sys.modules."""
    dataset, *flags = SUBCOMMAND_RUNS[command]
    out = tmp_path / "out.json"
    argv = [command, "--input", str(dataset_path(dataset)), *flags, "--format", "json",
            "--output", str(out)]
    loaded = modules_after(f"import sys\nfrom tricent.cli import main\nassert main({argv!r}) == 0")
    assert "tricent.cli" in loaded
    assert [m for m in OPENSSL_AND_DECIMAL if m in loaded] == []
    payload = json.loads(out.read_text())
    meta = (payload[0] if isinstance(payload, list) else payload)["meta"]
    assert meta["dataset_hash"] == hashlib.sha256(dataset_path(dataset).read_bytes()).hexdigest()


def test_exact_betweenness_imports_fractions_itself(karate):
    """exact=True still works where nothing has loaded fractions: in a fresh
    interpreter it gives the bits it gives here, where test_centrality checks
    it against enumerated shortest paths, and loads fractions only then."""
    printed = fresh_python(
        "import sys\n"
        "from tricent import betweenness_centrality, load_dataset\n"
        "graph = load_dataset('karate')\n"
        "assert 'fractions' not in sys.modules\n"
        "print(*betweenness_centrality(graph, exact=True).scores.tolist())\n"
        "print('fractions' in sys.modules)"
    ).splitlines()
    scores = np.array([float(x) for x in printed[0].split()])
    assert printed[1] == "True"
    assert np.array_equal(scores, tricent.betweenness_centrality(karate, exact=True).scores)
    assert np.allclose(scores, tricent.betweenness_centrality(karate).scores, rtol=0, atol=1e-12)


def test_input_is_read_once(capsys, monkeypatch, k3_file):
    """The CLI opens its input once, and dataset_hash names the bytes it parsed."""
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == k3_file:
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr("builtins.open", counting_open)
    code, out, _ = run(
        capsys, "centrality", "--input", str(k3_file), "--measure", "dc", "--format", "json"
    )
    assert code == 0
    assert opened == ["rb"]
    assert json.loads(out)["meta"]["dataset_hash"] == hashlib.sha256(b"1 2\n2 3\n1 3\n").hexdigest()


def test_input_bytes_decode_as_read_text_decodes(capsys, tmp_path, k3_file):
    """Parsed bytes keep Path.read_text's reading: universal newlines, and the
    same UnicodeDecodeError text for bytes the encoding cannot decode."""
    crlf = tmp_path / "crlf.edges"
    crlf.write_bytes(b"1 2\r\n2 3\r1 3\r\n")
    argv = ("centrality", "--measure", "atec:0.5,dc")
    lf_out = run(capsys, *argv, "--input", str(k3_file))[1]
    assert run(capsys, *argv, "--input", str(crlf)) == (0, lf_out, "")
    bad = tmp_path / "bad.edges"
    bad.write_bytes("1 2\n2 ü\n".encode() + b"\xff\xfe 3\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        bad.read_text()
    assert run(capsys, "stats", "--input", str(bad)) == (3, "", f"error: {exc.value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--alphas", "1,0.8,0.6,0.4,0.2,0.01", "--top", "5"),
        ("compare", "--measure", "atec:0.2,atec:1,dc,tc", "--method", "kendall"),
        ("centrality", "--measure", "atec:0.2,tc,atec:1,dc"),
        ("sweep", "--alphas", "1,0.8,0.6,0.4,0.2,0.01", "--per-component"),
        ("centrality", "--measure", "atec:0.2,atec:1,tc", "--per-component"),
    ],
    ids=lambda argv: argv[0] + ("-per-component" if "--per-component" in argv else ""),
)
def test_cli_lists_triangles_once_per_graph(capsys, monkeypatch, argv):
    """Every atec alpha and tc of one run share one triangle listing."""
    listing, listed = tricent.graph._list_triangles, []

    def counted(graph):
        listed.append(graph)
        return listing(graph)

    monkeypatch.setattr(tricent.graph, "_list_triangles", counted)
    code, out, _ = run(capsys, argv[0], "--input", str(dataset_path("karate")), *argv[1:])
    assert code == 0 and out
    assert len(listed) == 1


MEASURE_FUNCTIONS = (
    "atec", "atec_per_component", "degree_centrality", "eigenvector_centrality",
    "triangle_centrality", "betweenness_centrality", "subgraph_centrality",
)


@pytest.mark.parametrize(
    "argv, input_name, message",
    [
        (("centrality", "--measure", "bc,sc,pagerank"), "karate", "unknown measure 'pagerank'"),
        (("compare", "--measure", "dc,atec"), "karate", "measure 'atec' needs --alpha"),
        (("centrality", "--measure", "ec,pagerank"), "two", "unknown measure 'pagerank'"),
        (("centrality", "--measure", "dc,atec:1.5"), "karate", "alpha must lie in (0, 1]"),
        (("compare", "--measure", "dc,pagerank,atec"), "karate", "unknown measure 'pagerank'"),
        (("compare", "--measure", "dc,atec,pagerank"), "karate", "measure 'atec' needs --alpha"),
        (("centrality", "--measure", "tc,zz,atec:x"), "karate", "unknown measure 'zz'"),
    ],
)
def test_bad_measure_tokens_fail_before_any_measure_is_computed(
    capsys, monkeypatch, two_components_file, argv, input_name, message
):
    """Every token is checked first; the first bad one in list order is reported."""
    calls = []
    for name in MEASURE_FUNCTIONS:
        monkeypatch.setattr(tricent.cli, name, lambda *a, name=name, **k: calls.append(name))
    path = two_components_file if input_name == "two" else dataset_path(input_name)
    code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1


def test_cli_sweep_finds_the_components_once(capsys, monkeypatch):
    """The connectivity check and all six atec solves read one partition."""
    partition, partitioned = tricent.graph._partition, []

    def counted(graph):
        partitioned.append(graph)
        return partition(graph)

    monkeypatch.setattr(tricent.graph, "_partition", counted)
    code, out, _ = run(
        capsys, "sweep", "--input", str(dataset_path("karate")),
        "--alphas", "1,0.8,0.6,0.4,0.2,0.01",
    )
    assert code == 0 and out
    assert len(partitioned) == 1


# labels that need escaping: CSV quotes a comma or a quote, JSON escapes a
# quote, a backslash, a control character and everything outside ASCII
ESCAPING_LABELS = ("a,b", 'q"r', "back\\slash", "bell\x07", "é", "日本", "😀", "%s", "7")


def escaping_text(graph, shift: int = 0) -> str:
    """graph's edge text with vertex i labelled from ESCAPING_LABELS."""
    pick = len(ESCAPING_LABELS)
    name = [f"{ESCAPING_LABELS[(i + shift) % pick]}{i // pick}" for i in range(graph.n)]
    return "".join(f"{name[u]} {name[v]}\n" for u, v in graph.edge_array.tolist())


@pytest.fixture(scope="module")
def escaping_inputs(tmp_path_factory):
    """Seeded edge files with escaping labels: a connected graph with
    triangles, a tree (no triangles), and the two side by side."""
    rng = random.Random(23)
    graph, tree = oracles.random_connected_graph(rng, 40), oracles.random_tree(rng, 12)
    texts = {
        "graph": escaping_text(graph),
        "tree": escaping_text(tree, shift=1),
        # the tree's labels get a "+", so the union has two components
        "split": escaping_text(graph)
        + escaping_text(tree).replace(" ", "+ ").replace("\n", "+\n"),
    }
    root = tmp_path_factory.mktemp("escaping")
    for name, text in texts.items():
        (root / f"{name}.edges").write_text(text)
    return root


def rows_of(columns) -> list[tuple]:
    return list(zip(*(column.tolist() for column in columns)))


def cell_writers(monkeypatch):
    """Swap the CLI's column writers for the cell-at-a-time oracles: CSV
    tables through oracles.csv_by_cells, and JSON with every spliced table
    made into row dicts or lists in the payload, the whole through json.dumps."""

    def write_json(payload, path, tables=()):
        arrays = iter(tables)

        def fill(value):
            if isinstance(value, dict):
                return {key: fill(value[key]) for key in sorted(value)}
            if isinstance(value, list):
                return list(map(fill, value))
            if isinstance(value, str) and value == tricent.cli._SPLICE:
                keys, columns = next(arrays)
                return oracles.json_rows(keys, rows_of(columns))
            return value

        tricent.cli._write(json.dumps(fill(payload), indent=2, sort_keys=True) + "\n", path)

    monkeypatch.setattr(
        tricent.cli, "_csv", lambda names, columns: oracles.csv_by_cells(names, rows_of(columns))
    )
    monkeypatch.setattr(tricent.cli, "_write_json", write_json)


WRITER_RUNS = (
    ("graph", "centrality", "--measure", "atec:0.3,dc,ec,tc,bc,sc", "--unit-norm"),
    ("split", "centrality", "--measure", "atec:0.5,tc", "--per-component"),
    ("graph", "triangles", "--alpha", "0.4"),
    ("graph", "triangles", "--with-cycle-index"),
    ("tree", "triangles", "--with-cycle-index"),
    ("graph", "sweep", "--alphas", "1,0.5,0.2"),
    ("graph", "sweep", "--alphas", "1,0.2", "--top", "4"),
    ("split", "stats"),
    ("graph", "compare", "--measure", "atec:0.2,dc,tc,bc,sc", "--method", "kendall"),
    ("split", "connectivity", "--remove", '"a,b0",bell\x070'),
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("run_args", WRITER_RUNS, ids=lambda r: "-".join((r[0], *r[1:3])))
def test_column_writers_match_the_cell_oracle(
    capsys, monkeypatch, tmp_path, escaping_inputs, run_args, fmt
):
    """Every table kind, to stdout and to --output files, is byte-identical
    to what the cell-at-a-time writers make of the same tables; blocks of 7
    rows split every table of more than 7 rows."""
    monkeypatch.setattr(tricent.cli, "_ROW_BLOCK", 7)
    name, *argv = run_args
    argv = [*argv, "--input", str(escaping_inputs / f"{name}.edges"), "--format", fmt]

    def outputs(kind: str) -> dict[str, str]:
        out_dir = tmp_path / kind
        out_dir.mkdir()
        code, stdout, _ = run(capsys, *argv)
        file_code, file_stdout, _ = run(capsys, *argv, "--output", str(out_dir / f"t.{fmt}"))
        assert code == file_code == 0
        files = {p.name: p.read_text() for p in out_dir.iterdir()}
        return {"stdout": stdout, "stdout with --output": file_stdout, **files}

    columns = outputs("columns")
    with monkeypatch.context() as patch:
        cell_writers(patch)
        cells = outputs("cells")
    assert columns == cells
    if argv[0] == "connectivity" and fmt == "csv":  # one row, of the result's own cells
        graph = tricent.load_edge_list(argv[argv.index("--input") + 1])
        result = removal_experiment(graph, ["a,b0", "bell\x070"])
        names = ("removed", "components_before", "components_after", "sizes_before", "sizes_after")
        row = tuple(getattr(result, field) for field in names)
        assert columns["t.csv"] == oracles.csv_by_cells(names, [row])


def test_column_writers_match_the_cell_oracle_on_special_values(monkeypatch, tmp_path):
    """nan, infinities, -0, the float extremes, big ints and escaping
    labels, in CSV and in JSON at two depths, object and array rows alike,
    in blocks of 3 rows."""
    monkeypatch.setattr(tricent.cli, "_ROW_BLOCK", 3)
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 1e16])
    ints = np.array([0, -1, 2**62, 7, -(2**63), 1, 2, 3])
    labels = np.array([*ESCAPING_LABELS[:7], "\x00\x1f\\u0000"], dtype=object)
    names = ("label", "score", "rank")
    columns = [labels, floats, ints]

    def written(kind: str) -> tuple[str, str, str]:
        tricent.cli._write(tricent.cli._csv(names, columns), str(tmp_path / f"{kind}.csv"))
        splice = tricent.cli._SPLICE
        tables = [(names, columns), (None, columns), (names, [c[:0] for c in columns])]
        docs = [{"meta": {"x": 1.5}, "rows": splice}, {"rows": splice, "b": [1]}, {"rows": splice}]
        tricent.cli._write_json(docs, str(tmp_path / f"{kind}.json"), tables)
        tricent.cli._write_json({"rows": splice}, str(tmp_path / f"{kind}.one.json"), tables[1:2])
        files = (f"{kind}.csv", f"{kind}.json", f"{kind}.one.json")
        return tuple((tmp_path / name).read_text() for name in files)

    columns_text = written("columns")
    with monkeypatch.context() as patch:
        cell_writers(patch)
        assert written("cells") == columns_text


def test_json_tables_are_not_built_as_a_dict_per_row(capsys):
    """triangles --with-cycle-index --format json on celegans (6568 triangles
    under two indices, 0.87 MB of JSON) peaks under 6 MB of traced
    allocations. Rows spliced in as text take about 3.9 MB, most of it the
    dense Laplacian; a dict per row through json's indenting encoder, which
    is pure Python, took about 10.2 MB."""
    argv = [
        "triangles", "--input", str(dataset_path("celegans-metabolic")),
        "--with-cycle-index", "--format", "json",
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(capsys.readouterr().out) > 850_000
    assert peak < 6_000_000


def test_cli_output_matches_the_record():
    """Every grid run and demo, run in process, prints and writes what
    tests/cli_record.json holds; floats print alike only under the Python,
    numpy and BLAS thread setting the record was made under, so others fail
    rather than skip."""
    record = json.loads((Path(__file__).parent / "cli_record.json").read_text())
    here = cli_grid.versions()
    made = {key: record.get(key) for key in here}
    assert made == here, f"the record was made under {made}, this run is under {here}"
    got = cli_grid.make_record(cli_grid.run_in_process, cli_grid.run_demo_in_process)
    assert cli_grid.differences(got, record) == []


def test_cli_grid_uses_every_option():
    """tests/cli_grid.py runs every option string the parser defines, per subcommand."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    used: dict[str | None, set[str]] = {}
    for _, argv, _ in cli_grid.grid():
        used.setdefault(argv[0] if argv[0] in subparsers.choices else None, set()).update(argv)
    missing = [
        (sub, option)
        for sub, sub_parser in [(None, parser), *subparsers.choices.items()]
        for action in sub_parser._actions
        for option in action.option_strings
        if option not in used.get(sub, ())
    ]
    assert missing == [] and len(used) == 1 + len(subparsers.choices)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tricent" in capsys.readouterr().out
