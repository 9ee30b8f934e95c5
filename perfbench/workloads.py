"""The benchmark's three workloads: inputs from a seed, one op, output checks.

Each workload generates its inputs from the seed in setup(), runs one unit
of work in op(), and judges an op's result in check(). The first result a
workload checks is its reference, and every later result must equal it
exactly. A reference that fails validation fails every op that matches it.
"""

from __future__ import annotations

import hashlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from tricent import (
    atec,
    betweenness_centrality,
    build_operator,
    cycle_index_fiedler,
    degree_centrality,
    eigenvector_centrality,
    enumerate_triangles,
    load_dataset,
    load_edge_list,
    make_report,
    rank_correlation,
    removal_experiment,
    solve_spectral,
    subgraph_centrality,
    triangle_centrality,
    triangle_importance,
)
from tricent.tensor import DEFAULT_TOL

import gen
from tracer import Tracer

TOL = DEFAULT_TOL
# Holme-Kim parameters of both clustered power-law workloads
HK_EDGES_PER_VERTEX = 4
HK_TRIAD_P = 0.6
CORRELATIONS = ("pearson", "spearman", "kendall")


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent random stream `stream` of the benchmark seed."""
    return np.random.default_rng([seed, stream])


# --- atec, plain or broken into its public steps -------------------------


def run_atec(tr, graph, alpha, triangles=None):
    """atec(graph, alpha), and the final bracket when the steps are traced.

    Untraced, this is one call to atec. Traced, it runs the same public steps
    atec runs (triangles, build_operator, solve_spectral, make_report), each
    in its own span, with every apply() call of the solve in a child span.
    The two paths must agree bitwise; check() holds them to that.
    """
    if not tr.active:
        return atec(graph, alpha, triangles=triangles, tol=TOL), None
    if triangles is None:
        triangles = tr.call("graph.enumerate_triangles", enumerate_triangles, graph)
        tr.count("graph.triangles", len(triangles))
    op = tr.call("tensor.operator_build", build_operator, graph, triangles, alpha)
    entries = 2 * graph.m + 6 * len(triangles)
    tr.count("tensor.operator.entries", entries)
    inner = op.apply

    def apply(x):
        tr.count("tensor.apply.entries", entries)
        return tr.call("tensor.apply", inner, x)

    op.apply = apply
    result = tr.call("tensor.solve_spectral", solve_spectral, op, tol=TOL)
    tr.count("tensor.solve_spectral.iterations", result.iterations)
    report = tr.call(
        "report.make_report",
        make_report,
        "atec",
        {"alpha": op.alpha},
        graph.labels,
        result.x,
        normalization="unit-euclidean",
        meta={
            "rho": result.rho,
            "iterations": result.iterations,
            "residual": result.residual,
            "tolerance": TOL,
        },
    )
    return report, result.bracket


def atec_problems(report, bracket) -> list[str]:
    where = f"atec alpha={report.params['alpha']}"
    problems = []
    if not np.all(report.scores > 0):
        problems.append(f"{where}: nonpositive score")
    if abs(float(np.linalg.norm(report.scores)) - 1.0) > 1e-12:
        problems.append(f"{where}: norm is not 1")
    if not report.meta["residual"] <= 10 * TOL:
        problems.append(f"{where}: residual {report.meta['residual']:.3e} > 10 tol")
    if bracket is not None:
        lo, hi = bracket
        if not (lo <= report.meta["rho"] <= hi and hi - lo < TOL):
            problems.append(f"{where}: rho outside the final bracket {bracket}")
    return problems


def same_report(a, b) -> bool:
    return (
        a.measure == b.measure
        and a.params == b.params
        and a.labels == b.labels
        and a.scores.tobytes() == b.scores.tobytes()
        and a.meta == b.meta
        and a.ranking == b.ranking
    )


def correlation_problems(method: str, matrix: np.ndarray) -> list[str]:
    problems = []
    if not np.array_equal(matrix, matrix.T):
        problems.append(f"{method} matrix is not symmetric")
    if not np.all(np.diag(matrix) == 1.0):
        problems.append(f"{method} matrix diagonal is not 1")
    if not np.all((matrix >= -1.0) & (matrix <= 1.0)):
        problems.append(f"{method} matrix has entries outside [-1, 1]")
    return problems


class Workload:
    """Closed-loop workload; ops run one at a time, in rounds of round_size."""

    name = ""
    round_size = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._reference = None
        self._reference_problems: list[str] = []

    def setup(self) -> None:
        """Generate every input from the seed."""
        raise NotImplementedError

    def inputs(self) -> list[tuple[str, str]]:
        """(name, edge text) of every generated graph, for provenance."""
        raise NotImplementedError

    def op(self, i: int, tr):
        raise NotImplementedError

    def validate(self, result) -> list[str]:
        """Problems with one result on its own."""
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        raise NotImplementedError

    def check(self, result) -> list[str]:
        problems = self.validate(result)
        if self._reference is None:
            self._reference, self._reference_problems = result, problems
            return problems
        if not self.equal(result, self._reference):
            problems.append("result differs from the first op's")
        return self._reference_problems + problems

    def provenance(self) -> list[dict]:
        """n, m, triangle count and SHA-256 of each edge text the library receives."""
        out = []
        for name, text in self.inputs():
            graph = load_edge_list(io.StringIO(text))
            out.append({
                "graph": name,
                "n": graph.n,
                "m": graph.m,
                "triangles": len(enumerate_triangles(graph)),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            })
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def after_traced_round(self) -> None:
        """Called after each traced round, outside any op's time."""

    def layer_metrics(self, tracer: Tracer, names, traced_s, untraced_s) -> dict:
        return tracer.per_op(names, traced_s, untraced_s)


class HkSweep(Workload):
    """The paper's large-graph alpha sweep on one clustered power-law graph."""

    name = "hk_sweep"
    alphas = (1.0, 0.8, 0.6, 0.4, 0.2, 0.01)
    importance_alpha = 0.2

    def __init__(self, seed: int, n: int = 20_000):
        super().__init__(seed)
        self.n = n

    def setup(self):
        edges = gen.holme_kim_edges(self.n, HK_EDGES_PER_VERTEX, HK_TRIAD_P, rng_for(self.seed, 1))
        self.text = gen.edge_text(edges)

    def inputs(self):
        return [("holme-kim", self.text)]

    def op(self, i, tr):
        graph = tr.call("graph.load_edge_list", load_edge_list, io.StringIO(self.text))
        triangles = tr.call("graph.enumerate_triangles", enumerate_triangles, graph)
        tr.count("graph.triangles", len(triangles))
        sweep = [run_atec(tr, graph, alpha, triangles) for alpha in self.alphas]
        chosen = sweep[self.alphas.index(self.importance_alpha)][0]
        ranking = tr.call(
            "analysis.triangle_importance", triangle_importance, graph, triangles, chosen
        )
        return {"triangles": triangles, "sweep": sweep, "ranking": ranking}

    def validate(self, result):
        problems = []
        for report, bracket in result["sweep"]:
            problems += atec_problems(report, bracket)
        if len(result["ranking"]) != len(result["triangles"]):
            problems.append("importance ranking does not cover every triangle")
        return problems

    def equal(self, a, b):
        return (
            all(same_report(ra, rb) for (ra, _), (rb, _) in zip(a["sweep"], b["sweep"]))
            and a["ranking"].entries == b["ranking"].entries
        )


class HkCompare(Workload):
    """The paper's comparison study on a mid-sized clustered power-law graph."""

    name = "hk_compare"
    alpha = 0.2

    def __init__(self, seed: int, n: int = 600):
        super().__init__(seed)
        self.n = n

    def setup(self):
        edges = gen.holme_kim_edges(self.n, HK_EDGES_PER_VERTEX, HK_TRIAD_P, rng_for(self.seed, 3))
        self.text = gen.edge_text(edges)
        self.graph = load_edge_list(io.StringIO(self.text))

    def inputs(self):
        return [("holme-kim", self.text)]

    def op(self, i, tr):
        graph = self.graph
        triangles = tr.call("graph.enumerate_triangles", enumerate_triangles, graph)
        tr.count("graph.triangles", len(triangles))
        scores, bracket = run_atec(tr, graph, self.alpha, triangles)
        ec = tr.call("centrality.ec", eigenvector_centrality, graph, tol=TOL)
        tr.count("centrality.ec.iterations", ec.meta["iterations"])
        reports = [
            scores,
            tr.call("centrality.dc", degree_centrality, graph),
            ec,
            tr.call("centrality.tc", triangle_centrality, graph, triangles),
            tr.call("centrality.bc", betweenness_centrality, graph),
            tr.call("centrality.sc", subgraph_centrality, graph),
        ]
        matrices = {}
        for method in CORRELATIONS:
            matrix = np.ones((len(reports), len(reports)))
            for a in range(len(reports)):
                for b in range(a + 1, len(reports)):
                    matrix[a, b] = matrix[b, a] = tr.call(
                        f"analysis.rank_correlation.{method}",
                        rank_correlation,
                        reports[a],
                        reports[b],
                        method,
                    )
            matrices[method] = matrix
        cycle = tr.call("analysis.cycle_index_fiedler", cycle_index_fiedler, graph, triangles)
        importance = tr.call(
            "analysis.triangle_importance", triangle_importance, graph, triangles, scores
        )
        removal = tr.call(
            "analysis.removal_experiment", removal_experiment, graph, importance.entries[0].vertices
        )
        return {
            "atec": (scores, bracket),
            "reports": reports,
            "matrices": matrices,
            "cycle": cycle,
            "importance": importance,
            "removal": removal,
        }

    def validate(self, result):
        problems = atec_problems(*result["atec"])
        for method, matrix in result["matrices"].items():
            problems += correlation_problems(method, matrix)
        if result["removal"].components_before != 1:
            problems.append("generated graph is not connected")
        return problems

    def equal(self, a, b):
        return (
            all(same_report(ra, rb) for ra, rb in zip(a["reports"], b["reports"]))
            and all(
                a["matrices"][m].tobytes() == b["matrices"][m].tobytes() for m in CORRELATIONS
            )
            and a["cycle"].entries == b["cycle"].entries
            and a["importance"].entries == b["importance"].entries
            and a["removal"] == b["removal"]
        )


class CliDatasets(Workload):
    """The README's six CLI subcommands as subprocesses, in CSV and JSON."""

    name = "cli_datasets"
    # (subcommand, bundled dataset, flags); vertex labels in flags are the
    # bundled ones and are mapped through the seed's relabelling
    commands = (
        ("centrality", "karate", ["--alpha", "0.6", "--measure", "atec,dc"]),
        ("sweep", "karate", ["--alphas", "1,0.8,0.6,0.4,0.2,0.01", "--top", "10"]),
        ("triangles", "celegans-metabolic", ["--alpha", "0.2", "--with-cycle-index"]),
        ("connectivity", "celegans-metabolic", ["--remove", "147,186,408"]),
        ("stats", "dolphins", []),
        (
            "compare",
            "celegans-metabolic",
            ["--measure", "atec:0.2,dc,tc,bc,sc", "--method", "pearson"],
        ),
    )
    formats = ("csv", "json")

    def __init__(self, seed: int, workdir: Path, src: Path, commands=None):
        super().__init__(seed)
        self.workdir = Path(workdir)
        if commands is not None:
            self.commands = commands
        self.round_size = len(self.commands) * len(self.formats)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._first: dict[int, bytes] = {}
        self._startup: dict[str, list[float]] = {"pass": [], "import tricent.cli": []}

    def setup(self):
        rng = rng_for(self.seed, 4)
        self.texts, paths, mappings = [], {}, {}
        for name in sorted({dataset for _, dataset, _ in self.commands}):
            graph = load_dataset(name)
            edges = [(graph.labels[u], graph.labels[v]) for u, v in graph.edges]
            text, mappings[name] = gen.relabel_text(edges, rng)
            paths[name] = self.workdir / f"{name}.edges"
            paths[name].write_text(text)
            self.texts.append((name, text))
        self.argvs = []
        for fmt in self.formats:
            for sub, dataset, flags in self.commands:
                flags = list(flags)
                if sub == "connectivity":
                    at = flags.index("--remove") + 1
                    flags[at] = ",".join(mappings[dataset][v] for v in flags[at].split(","))
                argv = [sys.executable, "-m", "tricent.cli", sub, "--input", str(paths[dataset])]
                self.argvs.append((sub, argv + flags + ["--format", fmt]))
        self.order = [int(k) for k in rng.permutation(len(self.argvs))]

    def inputs(self):
        return self.texts

    def _run(self, argv):
        return subprocess.run(
            argv, env=self.env, cwd=self.workdir, capture_output=True, timeout=120, check=False
        )

    def op(self, i, tr):
        kind = self.order[i % len(self.order)]
        sub, argv = self.argvs[kind]
        proc = tr.call(f"cli.{sub}", self._run, argv)
        tr.count("cli.output_bytes", len(proc.stdout))
        return kind, proc

    def check(self, result):
        kind, proc = result
        sub = self.argvs[kind][0]
        problems = []
        if proc.returncode != 0:
            problems.append(f"{sub} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        if proc.stdout != self._first.setdefault(kind, proc.stdout):
            problems.append(f"{sub}: output differs from its first run")
        return problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def after_traced_round(self):
        """Time a bare interpreter and an import of tricent.cli, three times
        each, between the traced calls so both see the same machine load."""
        for _ in range(3):
            for code, samples in self._startup.items():
                start = perf_counter()
                proc = self._run([sys.executable, "-c", code])
                samples.append(perf_counter() - start)
                if proc.returncode != 0:
                    raise RuntimeError(f"python -c {code!r} exited {proc.returncode}")

    def layer_metrics(self, tracer, names, traced_s, untraced_s):
        out = tracer.per_op(names, traced_s, untraced_s)
        interpreter = median(self._startup["pass"])
        with_import = median(self._startup["import tricent.cli"])
        out["cli.interpreter_s"] = interpreter
        out["cli.import_s"] = with_import - interpreter
        subs = {sub for sub, _, _ in self.commands}
        invocations = sum(len(tracer.durations[f"cli.{sub}"]) for sub in subs)
        out["cli.output_bytes"] = tracer.counts["cli.output_bytes"] / max(invocations, 1)
        for sub in subs:
            # self time of one invocation, net of interpreter start and imports
            out[f"cli.{sub}.s"] = median(tracer.durations[f"cli.{sub}"]) - with_import
        return out


def make(name: str, seed: int, workdir: Path, src: Path) -> Workload:
    if name == CliDatasets.name:
        return CliDatasets(seed, workdir, src)
    for cls in (HkSweep, HkCompare):
        if cls.name == name:
            return cls(seed)
    raise KeyError(f"unknown workload {name!r}")


NAMES = (HkSweep.name, HkCompare.name, CliDatasets.name)
