"""A fixed grid of tricent CLI runs, recording what each run prints and writes.

    python tests/cli_grid.py SRC OUT.json          run the grid against the package in SRC
    python tests/cli_grid.py --diff A.json B.json  list the runs whose records differ

Run the grid on two source trees, such as a parent commit's src/ and a
change's, then diff the two records to check that the CLI's output stayed
byte-identical. Each run starts `python -m tricent.cli` in a fresh temporary
directory that holds only its input, copied in as input.edges, with
PYTHONPATH=SRC, COLUMNS=80 and no inherited TRICENT_TOL. A run's record holds
its exit code, the SHA-256 of its stdout, its stderr text and the SHA-256 of
every file it wrote. The runs go one at a time; a grid takes a few minutes.

This is a script, not a test module; tests/test_cli.py checks that the grid
uses every option string the parser defines.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATASETS = ("karate", "dolphins", "celegans-metabolic", "paper-g14")


def clustered_text(n: int, seed: int) -> str:
    """Edge text of a seeded Holme-Kim clustered power-law graph on n vertices.

    A clique on five vertices, then each new vertex links to four others: a
    degree-biased pick, then with probability 0.6 a neighbour of the last
    such pick (closing a triangle), otherwise another degree-biased pick.
    The graph is connected, and at n = 2000 apply() sums about half of its
    entries in slices. It is generated here, not by the test oracles, because
    the grid imports nothing from the package it runs.
    """
    rng = random.Random(seed)
    pairs = [(u, v) for v in range(5) for u in range(v)]
    adj = [set() for _ in range(n)]
    ends = []  # one entry per edge end, so a uniform pick is degree-biased
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
        ends += (u, v)
    for v in range(5, n):
        chosen: set[int] = set()
        last = None
        while len(chosen) < 4:
            if last is not None and rng.random() < 0.6:
                nbrs = sorted(adj[last] - chosen)
                if nbrs:
                    chosen.add(rng.choice(nbrs))
                    continue
            last = rng.choice(ends)
            chosen.add(last)
        for w in sorted(chosen):
            adj[v].add(w)
            adj[w].add(v)
            ends += (w, v)
            pairs.append((w, v))
    return "".join(f"{u} {v}\n" for u, v in pairs)


# edge-list texts the grid writes itself
TEXTS = {
    "clustered-2000": clustered_text(2000, 11),
    "odd-labels": 'a,b q"r\nq"r c\nc a,b\nc d\nd e\ne c\n',
    "disconnected": "a b\nb c\na c\nd e\ne f\nd f\ng h\n",
    "triangle-free": "1 2\n2 3\n3 4\n4 5\n",
    "duplicate-edges": "1 2\n2 1\n2 3\n3 1\n3 3\n3 4\n1 2\n",
    "slow-gap": "1 2\n2 3\n1 3\n3 4\n",
    "malformed": "a b\na b c\n",
}
TABLE_INPUTS = (*DATASETS, "odd-labels", "disconnected", "triangle-free", "duplicate-edges")
# the --remove value of each input's connectivity runs
REMOVE = {
    "karate": "1,34",
    "dolphins": "1",
    "celegans-metabolic": "147,186,408",
    "paper-g14": "8",
    "odd-labels": '"a,b",c',
    "disconnected": "b",
    "triangle-free": "3",
    "duplicate-edges": "3",
}
# run on every table input, in CSV and JSON, to stdout and to --output;
# REMOVE stands for the input's own --remove value
COMMANDS = (
    ("centrality", "--alpha", "0.2"),
    ("centrality", "--measure", "atec:0.2,dc,ec,tc,bc,sc"),
    ("centrality", "--measure", "atec:1,dc,tc", "--unit-norm"),
    ("centrality", "--measure", "atec:0.2,atec:1,tc", "--per-component"),
    ("centrality", "--measure", "ec", "--per-component"),
    ("centrality", "--measure", "atec:0.5", "--tol", "1e-6"),
    ("sweep", "--alphas", "1,0.8,0.6,0.4,0.2,0.01"),
    ("sweep", "--alphas", "1,0.2", "--top", "5", "--tol", "1e-6"),
    ("sweep", "--alphas", "1,0.5", "--per-component", "--svg", "sweep.svg"),
    ("triangles",),
    ("triangles", "--alpha", "0.4", "--with-cycle-index", "--tol", "1e-6"),
    ("connectivity", "--remove", REMOVE),
    ("stats",),
    ("compare", "--measure", "atec:0.2,dc,tc,bc,sc"),
    ("compare", "--measure", "atec,ec", "--alpha", "0.6", "--method", "spearman", "--tol", "1e-6"),
    ("compare", "--measure", "atec:1,dc,sc", "--method", "kendall", "--svg", "compare.svg"),
)
# (input or None, argv, environment) runs made once: errors, help, and the
# options of commands whose output does not depend on them
SINGLE_RUNS = (
    ("karate", ("connectivity", "--remove", "1", "--tol", "1e-6"), {}),
    ("karate", ("stats", "--tol", "1e-6"), {}),
    ("karate", ("centrality", "--alpha", "x"), {}),
    ("karate", ("centrality", "--measure", "atec:x"), {}),
    ("karate", ("centrality", "--measure", "atec:1.5"), {}),
    ("karate", ("centrality", "--measure", "atec"), {}),
    ("karate", ("centrality", "--measure", "pagerank"), {}),
    ("karate", ("centrality", "--measure", ","), {}),
    # bad measure tokens fail before any measure is computed
    ("karate", ("centrality", "--measure", "bc,sc,pagerank"), {}),
    ("karate", ("compare", "--measure", "dc,atec"), {}),
    ("disconnected", ("centrality", "--measure", "ec,pagerank"), {}),
    ("karate", ("centrality", "--alpha", "0.2", "--tol", "nan"), {}),
    ("karate", ("sweep", "--alphas", "1,x"), {}),
    ("karate", ("sweep", "--alphas", "0.5"), {}),
    ("karate", ("sweep", "--alphas", "1,0.5", "--top", "0"), {}),
    # every alpha is checked before any is solved
    ("karate", ("sweep", "--alphas", "1,1.5"), {}),
    ("disconnected", ("sweep", "--alphas", "1,1.5"), {}),
    ("karate", ("sweep", "--alphas", "1,0.5"), {"TRICENT_TOL": "abc"}),
    ("karate", ("sweep", "--alphas", "1,0.5"), {"TRICENT_TOL": "inf"}),
    ("karate", ("compare", "--measure", "dc"), {}),
    ("karate", ("connectivity", "--remove", "zz"), {}),
    ("karate", ("connectivity", "--remove", '"1'), {}),
    ("karate", ("connectivity", "--remove", ","), {}),
    ("slow-gap", ("centrality", "--alpha", "0.5"), {"TRICENT_TOL": "1e-300"}),
    ("malformed", ("stats",), {}),
    # the only input large enough for apply()'s slices
    ("clustered-2000", ("centrality", "--alpha", "0.2"), {}),
    ("clustered-2000", ("sweep", "--alphas", "1,0.2,0.01", "--format", "json"), {}),
    ("clustered-2000", ("triangles",), {}),
    (None, ("stats", "--input", "missing.edges"), {}),
    (None, ("--version",), {}),
    (None, ("-h",), {}),
    (None, ("--help",), {}),
    *((None, (sub, flag), {}) for sub in (
        "centrality", "sweep", "triangles", "connectivity", "stats", "compare"
    ) for flag in ("-h", "--help")),
)


def grid() -> list[tuple[str | None, tuple[str, ...], dict[str, str]]]:
    """Every run of the grid as (input name or None, argv, extra environment);
    a run with an input reads it through --input input.edges."""
    runs = []
    for name in TABLE_INPUTS:
        for command in COMMANDS:
            argv = tuple(REMOVE[name] if arg is REMOVE else arg for arg in command)
            for fmt in ("csv", "json"):
                runs.append((name, (*argv, "--format", fmt), {}))
                runs.append((name, (*argv, "--format", fmt, "--output", f"out.{fmt}"), {}))
    runs += SINGLE_RUNS
    return [
        (name, argv if name is None else (argv[0], "--input", "input.edges", *argv[1:]), env)
        for name, argv, env in runs
    ]


def run_id(name: str | None, argv: tuple[str, ...], env: dict[str, str]) -> str:
    return " ".join([f"[{name or '-'}]", *(f"{k}={v}" for k, v in env.items()), *argv])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(src: Path, name: str | None, argv: tuple[str, ...], env: dict[str, str]) -> dict:
    base = {k: v for k, v in os.environ.items() if k not in ("TRICENT_TOL", "PYTHONPATH")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if name in TEXTS:
            (work / "input.edges").write_text(TEXTS[name])
        elif name is not None:
            shutil.copyfile(src / "tricent" / "data" / f"{name}.edges", work / "input.edges")
        proc = subprocess.run(
            [sys.executable, "-m", "tricent.cli", *argv],
            cwd=work,
            env={**base, "PYTHONPATH": str(src), "COLUMNS": "80", **env},
            capture_output=True,
        )
        files = {
            path.name: sha256(path.read_bytes())
            for path in sorted(work.iterdir())
            if path.name != "input.edges"
        }
    return {
        "exit": proc.returncode,
        "stdout_sha256": sha256(proc.stdout),
        "stderr": proc.stderr.decode("utf-8", "replace"),
        "files": files,
    }


def run_grid(src: Path, out: Path) -> int:
    runs = {run_id(*run): run_one(src, *run) for run in grid()}
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    codes = sorted({r["exit"] for r in runs.values()})
    files = sum(len(r["files"]) for r in runs.values())
    print(f"{len(runs)} runs, {files} files written, exit codes {codes}: {out}")
    return 0


def diff(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            print(f"{key}: only in {a_path if key in a else b_path}")
        elif a[key] != b[key]:
            fields = [f for f in ("exit", "stdout_sha256", "stderr", "files") if a[key][f] != b[key][f]]
            print(f"{key}: {', '.join(fields)} differ")
        else:
            continue
        differ += 1
    print(f"{len(a.keys() | b.keys())} runs, {differ} differ")
    return 1 if differ else 0


def main(args: list[str]) -> int:
    if len(args) == 3 and args[0] == "--diff":
        return diff(Path(args[1]), Path(args[2]))
    if len(args) == 2 and not args[0].startswith("-"):
        return run_grid(Path(args[0]).resolve(), Path(args[1]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
