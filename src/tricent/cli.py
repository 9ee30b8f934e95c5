"""Command-line interface.

Subcommands: centrality, sweep, triangles, connectivity, stats, compare.
Exit codes: 0 success, 2 usage error, 3 data/validation error, 4 numerical
non-convergence. Output is deterministic: identical input and flags produce
byte-identical files. Floats are printed with 10 significant digits; the env
var TRICENT_TOL overrides the default solver tolerance.
"""

from __future__ import annotations

import argparse
import functools
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
    connected_components,
    degree_and_triangle_stats,
    enumerate_triangles,
    load_edge_list,
)
from .report import CentralityReport, label_order
from .svgplot import scatter_matrix, sweep_plot
from .tensor import DEFAULT_TOL, AlphaDomainError, ConvergenceError, atec, atec_per_component


# one field of a comma list: RFC 4180 quoted if it starts with '"', else verbatim
_LIST_FIELD = re.compile(r'\s*(?:"((?:[^"]|"")*)"|([^",\s][^,]*)?)\s*(?:,|\Z)')


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _json_num(x: float) -> float:
    return float(_fmt(x))


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted per RFC 4180 when it needs quoting."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


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


def _tolerance(args) -> float:
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("TRICENT_TOL")
        if not env:
            return DEFAULT_TOL
        source = "TRICENT_TOL"
        try:
            tol = float(env)
        except ValueError:
            raise UsageError(f"{source} must be a number, got {env!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"{source} must be positive and finite, got {tol}")
    return tol


def _load(args) -> tuple[Graph, str]:
    path = Path(args.input)
    if not path.exists():
        raise UsageError(f"input file not found: {path}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = load_edge_list(path, dedupe=True)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return graph, digest


def _require_connected(graph: Graph):
    ncomp = len(connected_components(graph))
    if ncomp != 1:
        raise ValueError(f"graph has {ncomp} components (use --per-component)")


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


def _report_csv(report: CentralityReport) -> str:
    lines = ["label,score,rank,tie_group"]
    lines += [
        f"{_csv_field(e.label)},{_fmt(e.score)},{e.rank},{e.tie_group}"
        for e in report.ranking
    ]
    return "\n".join(lines) + "\n"


def _report_json(report: CentralityReport, dataset_hash: str, tol: float) -> dict:
    meta = {
        "measure": report.measure,
        "normalization": report.normalization,
        "tolerance": _json_num(tol),
        "dataset_hash": dataset_hash,
    }
    for key in ("alpha",):
        if key in report.params:
            meta[key] = _json_num(report.params[key])
    for key in ("iterations", "residual", "rho", "eigenvalue", "components"):
        if key in report.meta:
            value = report.meta[key]
            meta[key] = _json_num(value) if isinstance(value, float) else value
    return {
        "meta": meta,
        "rows": [
            {
                "label": e.label,
                "score": _json_num(e.score),
                "rank": e.rank,
                "tie_group": e.tie_group,
            }
            for e in report.ranking
        ],
    }


def _parse_measure(token: str, default_alpha: float | None):
    name, _, alpha_part = token.partition(":")
    name = name.strip().lower()
    alpha = float(alpha_part) if alpha_part else default_alpha
    return name, alpha


def _triangles_once(graph: Graph):
    """A call that lists the graph's triangles the first time and reuses them."""
    return functools.cache(functools.partial(enumerate_triangles, graph))


def _compute_measure(name: str, alpha, graph, tol: float, per_component: bool, triangles):
    """One measure's report; triangles() returns the graph's triangle set."""
    if name == "atec":
        if alpha is None:
            raise UsageError("measure 'atec' needs --alpha (or atec:<alpha>)")
        if per_component:
            return atec_per_component(graph, alpha, tol=tol)
        _require_connected(graph)
        return atec(graph, alpha, triangles=triangles(), tol=tol)
    if name == "dc":
        return degree_centrality(graph)
    if name == "ec":
        _require_connected(graph)
        return eigenvector_centrality(graph, tol=tol)
    if name == "tc":
        return triangle_centrality(graph, triangles())
    if name == "bc":
        return betweenness_centrality(graph)
    if name == "sc":
        return subgraph_centrality(graph)
    raise UsageError(f"unknown measure {name!r}; use atec, dc, ec, tc, bc, sc")


def cmd_centrality(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    tokens = [t for t in args.measure.split(",") if t.strip()]
    if not tokens:
        raise UsageError("--measure needs at least one measure")
    reports = []
    triangles = _triangles_once(graph)
    for token in tokens:
        name, alpha = _parse_measure(token, args.alpha)
        report = _compute_measure(name, alpha, graph, tol, args.per_component, triangles)
        if args.unit_norm and report.normalization == "raw":
            report = report.unit_euclidean()
        reports.append(report)

    if args.format == "json":
        payload = [_report_json(r, digest, tol) for r in reports]
        _write_json(payload[0] if len(payload) == 1 else payload, args.output)
        return 0
    if args.output is None or len(reports) == 1:
        chunks = []
        for report in reports:
            header = f"# measure={report.measure}"
            if "alpha" in report.params:
                header += f" alpha={_fmt(report.params['alpha'])}"
            header += f" normalization={report.normalization}"
            chunks.append(header + "\n" + _report_csv(report))
        _write("".join(chunks), args.output)
    else:
        for report in reports:
            suffix = report.measure
            if "alpha" in report.params:
                suffix += f"-{_fmt(report.params['alpha'])}"
            _write(_report_csv(report), _multi_path(args.output, suffix))
    return 0


def cmd_sweep(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    alphas = [float(t) for t in args.alphas.split(",") if t.strip()]
    if len(alphas) < 2:
        raise UsageError("sweep needs at least two alpha values")
    if args.per_component:
        reports = [atec_per_component(graph, a, tol=tol) for a in alphas]
    else:
        _require_connected(graph)
        triangles = enumerate_triangles(graph)
        reports = [atec(graph, a, triangles=triangles, tol=tol) for a in alphas]

    order = label_order(graph.labels)
    matrix = np.stack([r.scores for r in reports], axis=1)  # vertices x alphas

    if args.top is not None and args.top < 1:
        raise UsageError("--top must be a positive integer")
    if args.top:
        top = min(args.top, graph.n)
        header = ["alpha"] + [f"rank{k}" for k in range(1, top + 1)]
        rows = [
            [_fmt(a)] + reports[col].top(top)
            for col, a in enumerate(alphas)
        ]
    else:
        header = ["label"] + [f"alpha={_fmt(a)}" for a in alphas]
        rows = [
            [graph.labels[i]] + [_fmt(matrix[i, col]) for col in range(len(alphas))]
            for i in order
        ]

    if args.format == "json":
        payload = {
            "meta": {
                "measure": "atec-sweep",
                "alphas": [_json_num(a) for a in alphas],
                "tolerance": _json_num(tol),
                "dataset_hash": digest,
            },
            "columns": header,
            "rows": rows if args.top else [
                [row[0]] + [_json_num(v) for v in row[1:]] for row in rows
            ],
        }
        _write_json(payload, args.output)
    else:
        text = ",".join(header) + "\n"
        text += "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)
        _write(text, args.output)

    if args.svg:
        labels = [graph.labels[i] for i in order]
        Path(args.svg).write_text(
            sweep_plot(alphas, labels, matrix[order, :])
        )
    return 0


def _ranking_csv(ranking) -> str:
    lines = ["v1,v2,v3,score,rank"]
    lines += [
        ",".join(map(_csv_field, e.vertices)) + f",{_fmt(e.score)},{e.rank}"
        for e in ranking.entries
    ]
    return "\n".join(lines) + "\n"


def _ranking_json(ranking, digest: str) -> dict:
    meta = {"index": ranking.index, "dataset_hash": digest}
    if "alpha" in ranking.params:
        meta["alpha"] = _json_num(ranking.params["alpha"])
    return {
        "meta": meta,
        "rows": [
            {
                "v1": e.vertices[0],
                "v2": e.vertices[1],
                "v3": e.vertices[2],
                "score": _json_num(e.score),
                "rank": e.rank,
            }
            for e in ranking.entries
        ],
    }


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

    if args.format == "json":
        payload = [_ranking_json(r, digest) for r in rankings]
        _write_json(payload[0] if len(payload) == 1 else payload, args.output)
        return 0
    if args.output is None or len(rankings) == 1:
        chunks = [f"# index={r.index}\n" + _ranking_csv(r) for r in rankings]
        _write("".join(chunks), args.output)
    else:
        for ranking in rankings:
            _write(_ranking_csv(ranking), _multi_path(args.output, ranking.index))
    return 0


def cmd_connectivity(args) -> int:
    graph, digest = _load(args)
    remove = _label_list(args.remove)
    if not remove:
        raise UsageError("--remove needs at least one vertex label")
    result = removal_experiment(graph, remove)
    print(result.summary)
    if args.format == "json" or args.output:
        payload = {
            "meta": {"dataset_hash": digest},
            "removed": list(result.removed),
            "components_before": result.components_before,
            "components_after": result.components_after,
            "sizes_before": list(result.sizes_before),
            "sizes_after": list(result.sizes_after),
        }
        if args.format == "json":
            _write_json(payload, args.output)
        else:
            text = "removed,components_before,components_after,sizes_before,sizes_after\n"
            text += _csv_field(";".join(result.removed)) + ","
            text += f"{result.components_before},{result.components_after},"
            text += ";".join(map(str, result.sizes_before)) + ","
            text += ";".join(map(str, result.sizes_after)) + "\n"
            _write(text, args.output)
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
    if args.format == "json":
        payload = {
            "meta": {"dataset_hash": digest, "summary": summaries},
            "rows": [
                {
                    "label": stats.labels[i],
                    "degree": stats.degree[i],
                    "triangles": stats.triangle_count[i],
                    "neighbor_triangles": stats.neighbor_triangles[i],
                }
                for i in order
            ],
        }
        _write_json(payload, args.output)
    else:
        lines = ["label,degree,triangles,neighbor_triangles"]
        lines += [
            f"{_csv_field(stats.labels[i])},{stats.degree[i]},{stats.triangle_count[i]},"
            f"{stats.neighbor_triangles[i]}"
            for i in order
        ]
        for key, s in summaries.items():
            lines.append(f"# {key} min={s['min']} median={s['median']} max={s['max']}")
        _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_compare(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    tokens = [t for t in args.measure.split(",") if t.strip()]
    if len(tokens) < 2:
        raise UsageError("compare needs at least two measures")
    names, vectors = [], []
    triangles = _triangles_once(graph)
    for token in tokens:
        name, alpha = _parse_measure(token, args.alpha)
        report = _compute_measure(name, alpha, graph, tol, False, triangles)
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

    if args.format == "json":
        payload = {
            "meta": {"method": args.method, "dataset_hash": digest},
            "measures": names,
            "matrix": [[_json_num(v) for v in row] for row in matrix],
        }
        _write_json(payload, args.output)
    else:
        cells = [_csv_field(name) for name in names]
        lines = ["measure," + ",".join(cells)]
        for i, cell in enumerate(cells):
            lines.append(cell + "," + ",".join(_fmt(v) for v in matrix[i]))
        _write("\n".join(lines) + "\n", args.output)

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
    try:
        return args.func(args)
    except (UsageError, AlphaDomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
