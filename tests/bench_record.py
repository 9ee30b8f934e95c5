"""Paired benchmark runs of two revisions, recorded as BENCH_<pr>.json.

    python tests/bench_record.py BASE HEAD PR [--seeds 1,2,3,4,5]
        [--workloads hk_sweep,...] [--seconds 35]

BASE and HEAD are git revisions; HEAD may also be WORKTREE, the tracked
files (git ls-files) as they are on disk. Each revision is extracted with
`git archive REV | tar -x` into its own temporary directory (a WORKTREE is
copied file by file), so the repository's .git is never touched. For each
seed and each workload, `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` runs in both extracts, one after the other: the base
first for the first, third, ... seed and the head first for the others.
The workloads and T default to BENCHMARK.json's. Nothing else should run
on the host meanwhile; three workloads at five seeds of 35 s take about 25
minutes.

BENCH_<pr>.json is written at the root of this checkout. It holds the real
commit of each revision, the environment run.py reported, and per workload:
every run's seed, order, metrics and failed/attempted counts, and for each
revision the median and quartiles of every metric (summarize). Per
end-to-end metric it compares the two with the bound BENCHMARK.json fixes
(compare): the pairs the head won, the change of the medians, and
`unresolved` where the base's interquartile range, relative to its median,
is wider than the bound, unless every head run reads better than every base
run. Runs that exit non-zero are kept with their error and left out of the
statistics.

This is a script as well as a helper module; tests/test_bench_record.py
checks summarize and compare on canned run.py output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def parse_run(stdout: str) -> dict:
    """The env line and the closing JSON summary of one run.py run, as
    {"env", "attempted", "failed", "metrics": {name: value}}."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    summary = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in summary["metrics"].items()}
    return {
        "env": env,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so within the values' range)."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per revision, failed/attempted over all runs and each metric's spread.

    runs holds {"seed", "first", "base": run, "head": run} pairs, each run
    a parse_run result or {"error": ...}."""
    out = {}
    for side in ("base", "head"):
        done = [pair[side] for pair in runs if "error" not in pair[side]]
        names = done[0]["metrics"] if done else {}
        out[side] = {
            "runs": len(done),
            "errors": len(runs) - len(done),
            "attempted": sum(run["attempted"] for run in done),
            "failed": sum(run["failed"] for run in done),
            "metrics": {name: spread([run["metrics"][name] for run in done]) for name in names},
        }
    return out


def compare(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric of spec: pairs the head won, the change of the
    medians and whether the base's spread leaves the bound unresolved."""
    pairs = [pair for pair in runs if "error" not in pair["base"] and "error" not in pair["head"]]
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base = [pair["base"]["metrics"][name] for pair in pairs]
        head = [pair["head"]["metrics"][name] for pair in pairs]
        if not pairs:
            out[name] = {"pairs": 0, "unresolved": True}
            continue
        b, h = spread(base), spread(head)
        base_iqr = (b["q3"] - b["q1"]) / abs(b["median"]) if b["median"] else float("inf")
        separated = min(sign * v for v in head) > max(sign * v for v in base)
        change = h["median"] / b["median"] - 1.0 if b["median"] else 0.0
        out[name] = {
            "better": metric["better"],
            "bound": bound,
            "pairs": len(pairs),
            "head_won": sum(sign * (hv - bv) > 0 for bv, hv in zip(base, head)),
            "median_change": change,
            "worse_than_bound": -sign * change > bound,
            "base_iqr_over_median": base_iqr,
            "unresolved": base_iqr > bound and not separated,
        }
    return out


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, into: Path) -> dict:
    """Put the files of rev under into; returns the revision's provenance."""
    into.mkdir(parents=True)
    if rev == WORKTREE:
        for name in git("ls-files", "-z").split("\0"):
            source = ROOT / name
            if name and source.is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, into / name)
        changed = bool(git("status", "--porcelain", "--untracked-files=no"))
        return {"rev": rev, "commit": git("rev-parse", "HEAD"), "uncommitted_changes": changed}
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, ["git", "archive", rev])
    return {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}")}


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return parse_run(done.stdout)


def record(
    base: str, head: str, seeds: list[int], workloads: list[str], seconds: float, spec: dict
) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        trees = {"base": Path(scratch) / "base", "head": Path(scratch) / "head"}
        revisions = {side: extract(rev, trees[side]) for side, rev in (("base", base), ("head", head))}
        runs, env = {workload: [] for workload in workloads}, {}
        for index, seed in enumerate(seeds):
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            for workload in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run = pair[side] = bench(trees[side], workload, seed, seconds)
                    if "env" in run:  # run.py reads the commit from .git, which an extract lacks
                        env[side] = {**run.pop("env"), "commit": revisions[side]["commit"]}
                    print(f"{workload} seed {seed} {side}: {run.get('metrics', run)}",
                          file=sys.stderr, flush=True)
                runs[workload].append(pair)
    return {
        "base": revisions["base"],
        "head": revisions["head"],
        "env": env,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
        f"{seconds:g} --trace 0",
        "seeds": seeds,
        "workloads": {
            workload: {"runs": pairs, **summarize(pairs), "compare": compare(pairs, spec)}
            for workload, pairs in runs.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("pr", type=int)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(token) for token in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    result = record(args.base, args.head, seeds, workloads, args.seconds, spec)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
