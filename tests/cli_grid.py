"""A fixed grid of tricent CLI runs, recording what each run prints and writes.

    python tests/cli_grid.py SRC OUT.json          run the grid against the package in SRC
    python tests/cli_grid.py --diff A.json B.json  list the runs whose records differ

Run the grid on two source trees, such as a parent commit's src/ and a
change's, then diff the two records to check that the CLI's output stayed
byte-identical. Each run starts `python -m tricent.cli` in a fresh temporary
directory that holds only its input, copied in as input.edges, with
PYTHONPATH=SRC, COLUMNS=80, BLAS on one thread (BLAS_ENV) and no inherited
TRICENT_TOL; the four demos run as `python demos/NAME.py` with the same
environment. A run's record holds its exit code, the SHA-256 of its stdout,
its stderr text and the SHA-256 of every file it wrote; a record also names
the Python and numpy versions and the BLAS thread setting it was made
under. The runs go one at a time; a grid takes about a minute.

tests/cli_record.json is the grid's record; tests/test_cli.py runs the grid
in process (run_in_process, a few seconds) and diffs it against that record.
After a change that alters the CLI's output on purpose, remake the record:

    python tests/cli_grid.py src tests/cli_record.json

This is a script as well as a helper module; tests/test_cli.py also checks
that the grid uses every option string the parser defines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import runpy
import shutil
import subprocess
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path

DATASETS = ("karate", "dolphins", "celegans-metabolic", "paper-g14")
# LAPACK's eigh (subgraph centrality, the Fiedler vector's fallback) gives
# other bits under other BLAS thread counts, so every run has one thread;
# tests/conftest.py sets the same before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
    # labels JSON escapes: non-ASCII (one outside the BMP) and backslashes
    "escapes": "é ü\nü \\\n\\ é\n\\ a\\b\na\\b 日本\n日本 \\\n日本 😀\n😀 é\n",
    "disconnected": "a b\nb c\na c\nd e\ne f\nd f\ng h\n",
    "triangle-free": "1 2\n2 3\n3 4\n4 5\n",
    "duplicate-edges": "1 2\n2 1\n2 3\n3 1\n3 3\n3 4\n1 2\n",
    "slow-gap": "1 2\n2 3\n1 3\n3 4\n",
    "malformed": "a b\na b c\n",
}
TABLE_INPUTS = (
    *DATASETS, "odd-labels", "escapes", "disconnected", "triangle-free", "duplicate-edges"
)
# the --remove value of each input's connectivity runs
REMOVE = {
    "karate": "1,34",
    "dolphins": "1",
    "celegans-metabolic": "147,186,408",
    "paper-g14": "8",
    "odd-labels": '"a,b",c',
    "escapes": "ü,\\",
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


def versions() -> dict[str, str]:
    """The Python and numpy versions and the BLAS thread setting a record is
    made under: the printed floats are only comparable between records made
    under the same ones."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": " ".join(f"{key}={os.environ.get(key, '')}" for key in BLAS_ENV),
    }


def copy_input(work: Path, name: str | None, data: Path) -> None:
    """Write the run's input into work as input.edges: a grid text, or a
    dataset from the package's data directory."""
    if name in TEXTS:
        (work / "input.edges").write_text(TEXTS[name])
    elif name is not None:
        shutil.copyfile(data / f"{name}.edges", work / "input.edges")


def run_record(code: int, stdout: bytes, stderr: str, work: Path) -> dict:
    return {
        "exit": code,
        "stdout_sha256": sha256(stdout),
        "stderr": stderr,
        "files": {
            path.name: sha256(path.read_bytes())
            for path in sorted(work.iterdir())
            if path.name != "input.edges"
        },
    }


def run_subprocess(src: Path, name: str | None, args: list[str], env: dict[str, str]) -> dict:
    base = {k: v for k, v in os.environ.items() if k not in ("TRICENT_TOL", "PYTHONPATH")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy_input(work, name, src / "tricent" / "data")
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=work,
            env={**base, **BLAS_ENV, "PYTHONPATH": str(src), "COLUMNS": "80", **env},
            capture_output=True,
        )
        return run_record(proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace"), work)


def run_one(src: Path, name: str | None, argv: tuple[str, ...], env: dict[str, str]) -> dict:
    return run_subprocess(src, name, ["-m", "tricent.cli", *argv], env)


def run_demo(src: Path, demo: Path) -> dict:
    return run_subprocess(src, None, [str(demo)], {})


@contextlib.contextmanager
def process_state(work: Path, env: dict[str, str]):
    """Run in work with COLUMNS=80, env and no other TRICENT_TOL, as
    run_subprocess does; the working directory and both variables are
    restored on exit."""
    saved = {k: os.environ.get(k) for k in ("COLUMNS", "TRICENT_TOL", *env)}
    cwd = os.getcwd()
    os.environ.pop("TRICENT_TOL", None)
    os.environ.update({"COLUMNS": "80", **env})
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_here(name: str | None, env: dict[str, str], call) -> dict:
    """The record of call() run in this process, in a fresh temporary
    directory holding the run's input, with stdout and stderr captured; the
    code of a SystemExit is the exit code, and an uncaught exception exits
    1 with its traceback on stderr, as in a subprocess."""
    import tricent

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy_input(work, name, Path(tricent.__file__).parent / "data")
        with process_state(work, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call()
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception:
                code = 1
                traceback.print_exc()
        return run_record(code, out.getvalue().encode(), err.getvalue(), work)


def run_in_process(name: str | None, argv: tuple[str, ...], env: dict[str, str]) -> dict:
    """run_one's record, made by calling tricent.cli.main in this process."""
    from tricent.cli import main

    return run_here(name, env, lambda: main(list(argv)))


def run_demo_in_process(demo: Path) -> dict:
    """run_demo's record, made by running the demo's code in this process."""

    def run() -> int:
        runpy.run_path(str(demo), run_name="__main__")
        return 0

    return run_here(None, {}, run)


def make_record(run, demo_run) -> dict:
    """Every grid run's record through run(name, argv, env) and every demo's
    through demo_run(path), keyed by run id, with versions()."""
    runs = {run_id(*r): run(*r) for r in grid()}
    runs.update({f"[demo] {demo.name}": demo_run(demo) for demo in DEMOS})
    return {**versions(), "runs": runs}


def differences(a: dict, b: dict) -> list[str]:
    """One line per run whose records in a and b differ, naming the fields."""
    lines = []
    for key in sorted(a["runs"].keys() | b["runs"].keys()):
        if key not in a["runs"] or key not in b["runs"]:
            lines.append(f"{key}: only in {'the first' if key in a['runs'] else 'the second'} record")
        elif a["runs"][key] != b["runs"][key]:
            got, want = a["runs"][key], b["runs"][key]
            fields = [f for f in ("exit", "stdout_sha256", "stderr", "files") if got[f] != want[f]]
            lines.append(f"{key}: {', '.join(fields)} differ")
    return lines


def run_grid(src: Path, out: Path) -> int:
    os.environ.update(BLAS_ENV)  # what versions() reads: the runs' setting
    record = make_record(partial(run_one, src), partial(run_demo, src))
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    runs = record["runs"].values()
    codes = sorted({r["exit"] for r in runs})
    files = sum(len(r["files"]) for r in runs)
    print(f"{len(runs)} runs, {files} files written, exit codes {codes}: {out}")
    return 0


def diff(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    made = [{k: r.get(k) for k in versions()} for r in (a, b)]
    if made[0] != made[1]:
        print(f"made under different versions: {made[0]} and {made[1]}")
    lines = differences(a, b)
    print("".join(f"{line}\n" for line in lines), end="")
    print(f"{len(a['runs'].keys() | b['runs'].keys())} runs, {len(lines)} differ")
    return 1 if lines else 0


def main(args: list[str]) -> int:
    if len(args) == 3 and args[0] == "--diff":
        return diff(Path(args[1]), Path(args[2]))
    if len(args) == 2 and not args[0].startswith("-"):
        return run_grid(Path(args[0]).resolve(), Path(args[1]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
