"""Command-line interface.

Subcommands: centrality, sweep, triangles, connectivity, stats, compare.
Exit codes: 0 success, 2 usage error, 3 data/validation error, 4 numerical
non-convergence. Output is deterministic: identical input and flags produce
byte-identical files. Floats are printed with 10 significant digits; the env
var TRICENT_TOL overrides the default solver tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    cycle_index_fiedler,
    rank_correlation,
    removal_experiment,
    triangle_importance,
)
from .centrality import (
    betweenness_centrality,
    degree_centrality,
    eigenvector_centrality,
    subgraph_centrality,
    triangle_centrality,
)
from .graph import (
    Graph,
    degree_and_triangle_stats,
    enumerate_triangles,
    load_edge_list,
)
from .report import RankedVertex, label_order
from .svgplot import scatter_matrix, sweep_plot
from .tensor import (
    DEFAULT_TOL,
    AlphaDomainError,
    ConvergenceError,
    _check_alpha,
    atec,
    atec_per_component,
)


_MEASURES = ("atec", "dc", "ec", "tc", "bc", "sc")
# one field of a comma list: RFC 4180 quoted if it starts with '"', else verbatim
_LIST_FIELD = re.compile(r'\s*(?:"((?:[^"]|"")*)"|([^",\s][^,]*)?)\s*(?:,|\Z)')


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted per RFC 4180 when it needs quoting."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cell(value) -> str:
    """One CSV cell: floats at 10 significant digits, tuples ;-joined."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, tuple):
        value = ";".join(map(str, value))
    return _csv_field(str(value))


def _csv(columns, rows) -> str:
    """A CSV header line and one line per row."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in (columns, *rows))


def _json_cell(value):
    """One JSON value: floats at 10 significant digits, tuples as lists, dicts by value."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, tuple):
        return [_json_cell(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_cell(v) for k, v in value.items()}
    return value


def _json_rows(columns, rows) -> list[dict]:
    """One JSON object per row, keyed by column."""
    return [dict(zip(columns, map(_json_cell, row))) for row in rows]


def _label_list(text: str) -> list[str]:
    """Labels of a comma list; "a,b" quotes a label holding a comma, "" a quote.

    Reads back the quoting of _csv_field. An unquoted field is taken verbatim
    up to the next comma, so q"r names the label q"r. Blank fields are skipped.
    """
    labels, pos = [], 0
    while pos < len(text):
        match = _LIST_FIELD.match(text, pos)
        if match is None:
            raise UsageError(f"unterminated or misplaced quote in {text[pos:]!r}")
        quoted, plain = match.groups()
        if quoted is not None:
            labels.append(quoted.replace('""', '"'))
        elif plain:
            labels.append(plain.strip())
        pos = match.end()
    return labels


def _number(text: str, source: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{source} must be a number, got {text!r}") from None


def _tolerance(args) -> float:
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("TRICENT_TOL")
        if not env:
            return DEFAULT_TOL
        source = "TRICENT_TOL"
        tol = _number(env, source)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"{source} must be positive and finite, got {tol}")
    return tol


def _load(args) -> tuple[Graph, str]:
    path = Path(args.input)
    if not path.exists():
        raise UsageError(f"input file not found: {path}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return load_edge_list(path, dedupe=True), digest


def _require_connected(graph: Graph, flag_helps: bool = False):
    ncomp = len(graph._components)
    if ncomp != 1:
        hint = " (use --per-component)" if flag_helps else ""
        raise ValueError(f"graph has {ncomp} components{hint}")


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(payload, path: str | None):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _multi_path(base: str, suffix: str) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}-{suffix}{p.suffix}"))


def _write_tables(args, tables):
    """Write (comment, suffix, meta, columns, rows) tables in args.format.

    JSON is one {"meta", "rows"} document per table, a list when there are
    several. CSV is one stream of tables, each under its "# comment" line,
    unless --output names a file and there are several tables: then each
    table goes bare to its own file, named by its suffix.
    """
    if args.format == "json":
        docs = [
            {"meta": _json_cell(meta), "rows": _json_rows(columns, rows)}
            for _, _, meta, columns, rows in tables
        ]
        _write_json(docs[0] if len(docs) == 1 else docs, args.output)
    elif args.output is None or len(tables) == 1:
        text = "".join(
            f"# {comment}\n" + _csv(columns, rows) for comment, _, _, columns, rows in tables
        )
        _write(text, args.output)
    else:
        for _, suffix, _, columns, rows in tables:
            _write(_csv(columns, rows), _multi_path(args.output, suffix))


def _parse_measures(text: str, default_alpha: float | None) -> list[tuple[str, float | None]]:
    """(name, alpha) of every token of a --measure list, all checked before
    any is computed; the first bad token in list order is the one reported."""
    measures = []
    for token in text.split(","):
        if not token.strip():
            continue
        name, _, alpha_part = token.partition(":")
        name = name.strip().lower()
        alpha = _number(alpha_part, "alpha") if alpha_part else default_alpha
        if name not in _MEASURES:
            raise UsageError(f"unknown measure {name!r}; use {', '.join(_MEASURES)}")
        if name == "atec":
            if alpha is None:
                raise UsageError("measure 'atec' needs --alpha (or atec:<alpha>)")
            _check_alpha(alpha)
        measures.append((name, alpha))
    return measures


def _compute_measure(name: str, alpha, graph, tol: float, per_component: bool | None):
    """One measure's report; per_component is None where the command lacks the flag."""
    if name == "atec":
        if per_component:
            return atec_per_component(graph, alpha, tol=tol)
        _require_connected(graph, flag_helps=per_component is not None)
        return atec(graph, alpha, tol=tol)
    if name == "dc":
        return degree_centrality(graph)
    if name == "ec":
        _require_connected(graph)
        return eigenvector_centrality(graph, tol=tol)
    if name == "tc":
        return triangle_centrality(graph, enumerate_triangles(graph))
    if name == "bc":
        return betweenness_centrality(graph)
    return subgraph_centrality(graph)  # "sc", the last name _parse_measures admits


def cmd_centrality(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    measures = _parse_measures(args.measure, args.alpha)
    if not measures:
        raise UsageError("--measure needs at least one measure")
    tables = []
    for name, alpha in measures:
        report = _compute_measure(name, alpha, graph, tol, args.per_component)
        if args.unit_norm and report.normalization == "raw":
            report = report.unit_euclidean()
        meta = {
            "measure": report.measure,
            "normalization": report.normalization,
            "tolerance": tol,
            "dataset_hash": digest,
        }
        comment, suffix = f"measure={report.measure}", report.measure
        if "alpha" in report.params:
            meta["alpha"] = report.params["alpha"]
            comment += f" alpha={_fmt(meta['alpha'])}"
            suffix += f"-{_fmt(meta['alpha'])}"
        comment += f" normalization={report.normalization}"
        for key in ("iterations", "residual", "rho", "eigenvalue", "components"):
            if key in report.meta:
                meta[key] = report.meta[key]
        tables.append((comment, suffix, meta, RankedVertex._fields, report.ranking))
    _write_tables(args, tables)
    return 0


def cmd_sweep(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    alphas = [_number(t, "alpha") for t in args.alphas.split(",") if t.strip()]
    if len(alphas) < 2:
        raise UsageError("sweep needs at least two alpha values")
    if args.top is not None and args.top < 1:
        raise UsageError("--top must be a positive integer")
    for alpha in alphas:  # every alpha is checked before any is solved
        _check_alpha(alpha)
    reports = [_compute_measure("atec", a, graph, tol, args.per_component) for a in alphas]

    order = label_order(graph.labels)
    matrix = np.stack([r.scores for r in reports], axis=1)  # vertices x alphas

    if args.top:
        top = min(args.top, graph.n)
        columns = ["alpha", *(f"rank{k}" for k in range(1, top + 1))]
        rows = [(a, *report.top(top)) for a, report in zip(alphas, reports)]
    else:
        columns = ["label", *(f"alpha={_fmt(a)}" for a in alphas)]
        rows = [(graph.labels[i], *matrix[i]) for i in order]

    if args.format == "json":
        meta = {
            "measure": "atec-sweep",
            "alphas": tuple(alphas),
            "tolerance": tol,
            "dataset_hash": digest,
        }
        rows = [_json_cell(row) for row in rows]
        _write_json({"meta": _json_cell(meta), "columns": columns, "rows": rows}, args.output)
    else:
        _write(_csv(columns, rows), args.output)

    if args.svg:
        labels = [graph.labels[i] for i in order]
        Path(args.svg).write_text(
            sweep_plot(alphas, labels, matrix[order, :])
        )
    return 0


def cmd_triangles(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    _require_connected(graph)
    triangles = enumerate_triangles(graph)
    if len(triangles) == 0:
        print("warning: graph has no triangles; rankings are empty", file=sys.stderr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if len(triangles) == 0:
            rankings = [triangle_importance(graph, triangles, np.ones(graph.n))]
        else:
            scores = atec(graph, args.alpha, triangles=triangles, tol=tol)
            rankings = [triangle_importance(graph, triangles, scores)]
        if args.with_cycle_index:
            rankings.append(cycle_index_fiedler(graph, triangles))

    tables = []
    columns = ("v1", "v2", "v3", "score", "rank")
    for ranking in rankings:
        meta = {"index": ranking.index, "dataset_hash": digest}
        if "alpha" in ranking.params:
            meta["alpha"] = ranking.params["alpha"]
        rows = [(*e.vertices, e.score, e.rank) for e in ranking.entries]
        tables.append((f"index={ranking.index}", ranking.index, meta, columns, rows))
    _write_tables(args, tables)
    return 0


def cmd_connectivity(args) -> int:
    graph, digest = _load(args)
    remove = _label_list(args.remove)
    if not remove:
        raise UsageError("--remove needs at least one vertex label")
    result = removal_experiment(graph, remove)
    print(result.summary)
    columns = ("removed", "components_before", "components_after", "sizes_before", "sizes_after")
    row = tuple(getattr(result, column) for column in columns)
    if args.format == "json":
        fields = _json_cell(dict(zip(columns, row)))
        _write_json({"meta": {"dataset_hash": digest}, **fields}, args.output)
    elif args.output:
        _write(_csv(columns, [row]), args.output)
    return 0


def cmd_stats(args) -> int:
    graph, digest = _load(args)
    stats = degree_and_triangle_stats(graph, enumerate_triangles(graph))
    order = label_order(graph.labels)

    def summary(values) -> dict:
        arr = sorted(values)
        return {
            "min": arr[0],
            "median": arr[len(arr) // 2] if len(arr) % 2 else (arr[len(arr) // 2 - 1] + arr[len(arr) // 2]) / 2,
            "max": arr[-1],
        }

    summaries = {
        "degree": summary(stats.degree),
        "triangles": summary(stats.triangle_count),
        "neighbor_triangles": summary(stats.neighbor_triangles),
    }
    columns = ("label", "degree", "triangles", "neighbor_triangles")
    rows = [
        (stats.labels[i], stats.degree[i], stats.triangle_count[i], stats.neighbor_triangles[i])
        for i in order
    ]
    if args.format == "json":
        meta = {"dataset_hash": digest, "summary": summaries}
        _write_json({"meta": _json_cell(meta), "rows": _json_rows(columns, rows)}, args.output)
    else:
        text = _csv(columns, rows) + "".join(
            f"# {key} " + " ".join(f"{k}={_csv_cell(v)}" for k, v in s.items()) + "\n"
            for key, s in summaries.items()
        )
        _write(text, args.output)
    return 0


def cmd_compare(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    measures = _parse_measures(args.measure, args.alpha)
    if len(measures) < 2:
        raise UsageError("compare needs at least two measures")
    names, vectors = [], []
    for name, alpha in measures:
        report = _compute_measure(name, alpha, graph, tol, None)
        display = name if alpha is None or name != "atec" else f"atec:{_fmt(alpha)}"
        names.append(display)
        vectors.append(report.scores)
    k = len(names)
    matrix = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = rank_correlation(
                vectors[i], vectors[j], method=args.method
            )

    rows = [(name, *matrix[i]) for i, name in enumerate(names)]
    if args.format == "json":
        meta = {"method": args.method, "dataset_hash": digest}
        payload = {"meta": meta, "measures": names, "matrix": [_json_cell(r[1:]) for r in rows]}
        _write_json(payload, args.output)
    else:
        _write(_csv(("measure", *names), rows), args.output)

    if args.svg:
        Path(args.svg).write_text(scatter_matrix(names, vectors))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricent",
        description="Triangle-aware eigenvector centrality and comparison measures.",
    )
    parser.add_argument("--version", action="version", version=f"tricent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="edge-list file")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (default: TRICENT_TOL or 1e-10)")

    p = sub.add_parser("centrality", help="per-vertex centrality reports")
    common(p)
    p.add_argument("--measure", default="atec", help="comma list: atec,dc,ec,tc,bc,sc (atec:<a> embeds alpha)")
    p.add_argument("--alpha", type=float, default=None, help="alpha in (0,1] for atec")
    p.add_argument("--per-component", action="store_true",
                   help="solve atec independently per connected component")
    p.add_argument("--unit-norm", action="store_true",
                   help="emit unit-Euclidean columns for raw measures")
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("sweep", help="atec scores across several alpha values")
    common(p)
    p.add_argument("--alphas", required=True, help="comma list of alpha values (>= 2)")
    p.add_argument("--top", type=int, default=None, help="emit top-K labels per alpha instead of scores")
    p.add_argument("--svg", help="write a score-vs-alpha polyline plot")
    p.add_argument("--per-component", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("triangles", help="triangle importance rankings")
    common(p)
    p.add_argument("--alpha", type=float, default=0.2, help="alpha for the score-sum index")
    p.add_argument("--with-cycle-index", action="store_true",
                   help="also emit the Fiedler cycle-index ranking")
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("connectivity", help="vertex-removal component counts")
    common(p)
    p.add_argument("--remove", required=True,
                   help='comma list of vertex labels to delete; quote a label holding '
                        'a comma as "a,b", with "" for a quote inside quotes')
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("stats", help="per-vertex degree/triangle statistics")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compare", help="pairwise correlation matrix of measures")
    common(p)
    p.add_argument("--measure", required=True, help="comma list, e.g. atec:0.2,dc,tc,bc,sc")
    p.add_argument("--alpha", type=float, default=None, help="default alpha for bare 'atec'")
    p.add_argument("--method", choices=("pearson", "spearman", "kendall"), default="pearson")
    p.add_argument("--svg", help="write a scatter-matrix plot")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = None
    # every warning of the run becomes one "warning: <message>" line, ahead of
    # any error; "always" so repeated runs in one process still report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = args.func(args)
        except (UsageError, AlphaDomainError) as exc:
            code, error = 2, f"usage error: {exc}"
        except ConvergenceError as exc:
            code, error = 4, f"numerical error: {exc}"
        except (ValueError, KeyError, OSError) as exc:
            code, error = 3, f"error: {exc}"
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
