"""The BENCH_<pr>.json summary code, on canned perfbench/run.py output.

No benchmark runs here: tests/bench_record.py runs them by hand."""

import json

import pytest

import bench_record

SPEC = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def canned_stdout(metrics: dict, failed: int = 0) -> str:
    """What run.py prints for one --trace 0 run with these metric values."""
    env = {"commit": "unknown (not a git checkout)", "nproc": 2, "python": "3.11.7"}
    summary = {
        "correct": failed == 0,
        "attempted": 40,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return "\n".join([
        "env " + json.dumps(env, sort_keys=True),
        'input {"name": "hk", "n": 20000}',
        "workload hk_sweep seed 1 trace 0",
        *(f"  {name:<12} {value:.6g} {UNITS[name]}" for name, value in metrics.items()),
        json.dumps(summary),
    ]) + "\n"


# per metric: the base's five runs, then the head's
SERIES = {
    # resolved (IQR 0.1 / 1.2 < 0.25); the head wins every pair
    "ops_per_s": ([1.0, 1.1, 1.2, 1.3, 1.4], [1.05, 1.15, 1.25, 1.35, 1.45]),
    # resolved; the head loses every pair but stays within the bound
    "op_p50_s": ([0.50, 0.51, 0.52, 0.53, 0.54], [0.55, 0.56, 0.57, 0.58, 0.59]),
    # resolved; the head is 60% slower, past the bound
    "op_tail_s": ([1.0, 1.0, 1.0, 1.0, 1.0], [1.6, 1.6, 1.6, 1.6, 1.6]),
    # IQR 2 / 3 > 0.25 and the sides overlap: unresolved
    "setup_s": ([1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 1.0, 6.0, 6.0, 6.0]),
    # IQR 20 / 100 > 0.15, but every head run is below every base run
    "peak_rss_mb": ([80.0, 90.0, 100.0, 110.0, 120.0], [79.0, 79.5, 79.0, 78.0, 77.0]),
}


@pytest.fixture()
def runs():
    pairs = []
    for i in range(5):
        pair = {"seed": 100 + i, "first": "base" if i % 2 == 0 else "head"}
        for side, k in (("base", 0), ("head", 1)):
            metrics = {name: series[k][i] for name, series in SERIES.items()}
            failed = int(i == 4 and side == "head")
            pair[side] = bench_record.parse_run(canned_stdout(metrics, failed))
        pairs.append(pair)
    broken = {"seed": 105, "first": "head", "base": pairs[0]["base"], "head": {"error": "exit 1"}}
    return [*pairs, broken]


def test_parse_run_reads_the_env_line_and_the_closing_summary():
    got = bench_record.parse_run(canned_stdout({"ops_per_s": 2.5, "peak_rss_mb": 43.0}, failed=1))
    assert got == {
        "env": {"commit": "unknown (not a git checkout)", "nproc": 2, "python": "3.11.7"},
        "attempted": 40,
        "failed": 1,
        "metrics": {"ops_per_s": 2.5, "peak_rss_mb": 43.0},
    }


def test_summarize_gives_counts_medians_and_quartiles(runs):
    got = bench_record.summarize(runs)
    assert (got["base"]["runs"], got["base"]["errors"]) == (6, 0)
    assert (got["head"]["runs"], got["head"]["errors"]) == (5, 1)
    assert (got["base"]["attempted"], got["base"]["failed"]) == (240, 0)
    assert (got["head"]["attempted"], got["head"]["failed"]) == (200, 1)
    head = got["head"]["metrics"]["ops_per_s"]
    assert head == pytest.approx({"median": 1.25, "q1": 1.15, "q3": 1.35})
    assert got["head"]["metrics"]["setup_s"] == {"median": 6.0, "q1": 6.0, "q3": 6.0}
    # the base's sixth run repeats its first
    assert got["base"]["metrics"]["peak_rss_mb"] == {"median": 95.0, "q1": 82.5, "q3": 107.5}


def test_compare_counts_wins_and_flags_unresolved_metrics(runs):
    got = bench_record.compare(runs, SPEC)
    assert set(got) == set(SERIES)
    assert all(entry["pairs"] == 5 for entry in got.values())  # the broken pair is left out
    assert [got[name]["head_won"] for name in SERIES] == [5, 0, 0, 1, 5]
    assert [got[name]["unresolved"] for name in SERIES] == [False, False, False, True, False]
    assert [got[name]["worse_than_bound"] for name in SERIES] == [False, False, True, True, False]
    assert got["ops_per_s"]["median_change"] == pytest.approx(1.25 / 1.2 - 1)
    assert got["peak_rss_mb"]["base_iqr_over_median"] == pytest.approx(0.2)
    assert got["peak_rss_mb"]["bound"] == 0.15 and got["peak_rss_mb"]["better"] == "lower"


def test_no_pair_leaves_every_metric_unresolved(runs):
    got = bench_record.compare(runs[-1:], SPEC)
    assert all(entry == {"pairs": 0, "unresolved": True} for entry in got.values())
