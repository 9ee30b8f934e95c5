"""Smoke tests for the benchmark: every workload, one round, at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tricent import is_connected, load_edge_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TINY_SECONDS = 0.001


def tiny(name: str, workdir: Path) -> workloads.Workload:
    if name == "hk_sweep":
        return workloads.HkSweep(7, n=300)
    if name == "hk_compare":
        return workloads.HkCompare(7, n=60)
    return workloads.CliDatasets(
        7,
        workdir,
        ROOT / "src",
        commands=(
            ("stats", "karate", []),
            ("connectivity", "karate", ["--remove", "1,34"]),
        ),
    )


# one corruption per workload, applied to an op's result in place
CORRUPT = {
    "hk_sweep": lambda r: r["sweep"][0][0].scores.__setitem__(3, 2.0),
    "hk_compare": lambda r: r["matrices"]["kendall"].__setitem__((0, 1), 2.0),
    "cli_datasets": lambda r: setattr(r[1], "stdout", r[1].stdout + b" "),
}


def corrupt_call(wl: workloads.Workload, name: str, which: int) -> None:
    """Make the op call number `which` (0 is the warm-up) return a corrupted result."""
    real, calls = wl.op, []

    def op(i, tr):
        result = real(i, tr)
        if len(calls) == which:
            CORRUPT[name](result)
        calls.append(i)
        return result

    wl.op = op


def test_benchmark_json_names_the_workloads_run_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.NAMES


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_round_reports_every_metric(name, trace, tmp_path):
    wl = tiny(name, tmp_path)
    result = run.run(wl, TINY_SECONDS, trace, list(LAYERS))
    assert result["failed"] == 0
    assert result["attempted"] == 1 + wl.round_size * (2 if trace else 1)
    assert set(result["metrics"]) == set(E2E)
    assert all(value > 0 for value in result["metrics"].values())
    if trace:
        assert set(result["layers"]) == set(LAYERS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_op_counts_as_failed(name, tmp_path):
    wl = tiny(name, tmp_path)
    corrupt_call(wl, name, which=1)
    result = run.run(wl, TINY_SECONDS, False, list(LAYERS))
    assert result["failed"] == 1


def test_corrupted_reference_fails_every_op(tmp_path):
    wl = tiny("hk_compare", tmp_path)
    corrupt_call(wl, "hk_compare", which=0)
    result = run.run(wl, TINY_SECONDS, False, list(LAYERS))
    assert result["failed"] == result["attempted"] == 2


def test_traced_sweep_layers_add_up():
    wl = workloads.HkSweep(3, n=300)
    result = run.run(wl, TINY_SECONDS, True, list(LAYERS))
    layers = result["layers"]
    assert layers["graph.triangles"] > 0
    assert layers["tensor.solve_spectral.iterations"] > 0
    spans = sum(v for k, v in layers.items() if k.endswith(".s") and not k.startswith("trace."))
    assert spans + layers["trace.unattributed_s"] == pytest.approx(layers["trace.op_s"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_metrics_with_units(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hk_compare", "--seed", "5",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    want = LAYERS if trace == "1" else E2E
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hk_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generators_are_seeded_and_sound():
    a = gen.holme_kim_edges(500, 4, 0.6, workloads.rng_for(11, 1))
    b = gen.holme_kim_edges(500, 4, 0.6, workloads.rng_for(11, 1))
    c = gen.holme_kim_edges(500, 4, 0.6, workloads.rng_for(12, 1))
    assert a == b and a != c
    assert len(a) == 10 + (500 - 5) * 4
    graph = load_edge_list(io.StringIO(gen.edge_text(a)))
    assert graph.n == 500 and graph.m == len(a) and is_connected(graph)
    text, mapping = gen.relabel_text([(str(u), str(v)) for u, v in a], workloads.rng_for(11, 4))
    assert sorted(mapping) == sorted(graph.labels)
    assert load_edge_list(io.StringIO(text)).m == graph.m


def test_op_tail_has_ten_samples_beyond():
    assert run.op_tail([float(i) for i in range(30)]) == (19.0, 100 * 20 / 30, 10)
    assert run.op_tail([float(i) for i in range(21)]) == (10.0, 100 * 11 / 21, 10)
    assert run.op_tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
