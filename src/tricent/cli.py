"""Command-line interface.

Subcommands: centrality, sweep, triangles, connectivity, stats, compare.
Exit codes: 0 success, 2 usage error, 3 data/validation error, 4 numerical
non-convergence. Output is deterministic: identical input and flags produce
byte-identical files. Floats are printed with 10 significant digits; the env
var TRICENT_TOL overrides the default solver tolerance.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
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
    _check_dense_size,
    betweenness_centrality,
    degree_centrality,
    eigenvector_centrality,
    subgraph_centrality,
    triangle_centrality,
)
from .datasets import _sha256_hex
from .graph import (
    Graph,
    degree_and_triangle_stats,
    enumerate_triangles,
    load_edge_list,
)
from .report import RankedVertex, label_positions
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


# floats print at 10 significant digits; %-formatting spells nan, inf and -0
# as f"{x:.10g}" does
_fmt = "%.10g".__mod__
# json.dumps's spelling of the floats that JSON lacks
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# stands where _write_json splices an array into a JSON skeleton; no skeleton
# string holds a NUL, so its encoding is found nowhere else
_SPLICE = "\0"
# table rows are formatted this many at a time, so only one block's cell
# texts are alive at once
_ROW_BLOCK = 1 << 10


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted per RFC 4180 when it needs quoting."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell_blocks(columns, column_texts):
    """Per block of _ROW_BLOCK rows, column_texts of each column's slice."""
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        yield [column_texts(column[start : start + _ROW_BLOCK]) for column in columns]


def _csv_column(column: np.ndarray) -> list[str]:
    """The CSV fields of a float, int or label column, formatted at once."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return list(map(_fmt, values))
    if column.dtype.kind in "iu":
        return list(map(int.__repr__, values))
    return list(map(_csv_field, values))


def _csv(names, columns) -> str:
    """A CSV header line of names and one line per row of the equal-length columns."""
    text = [",".join(map(_csv_field, names)) + "\n"]
    for cells in _cell_blocks(columns, _csv_column):
        text.append("".join(map("%s\n".__mod__, map(",".join, zip(*cells)))))
    return "".join(text)


def _json_cell(value):
    """One JSON value outside a table: floats at 10 significant digits, tuples
    as lists, dicts by value."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, tuple):
        return [_json_cell(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_cell(v) for k, v in value.items()}
    return value


def _json_column(column: np.ndarray) -> list[str]:
    """The JSON texts of a float, int or label column, as json.dumps writes
    _json_cell of each cell."""
    values = column.tolist()
    if column.dtype.kind == "f":
        texts = list(map(float.__repr__, map(float, map(_fmt, values))))
        if not _JSON_NONFINITE.keys().isdisjoint(texts):  # rounding can overflow too
            texts = [_JSON_NONFINITE.get(text, text) for text in texts]
        return texts
    if column.dtype.kind in "iu":
        return list(map(int.__repr__, values))
    return list(map(encode_basestring_ascii, values))


def _json_array(keys, columns, indent: str) -> str:
    """The rows of equal-length columns as json.dumps(indent=2, sort_keys=True)
    writes an array on a line indented by indent: one object per row, keyed
    by keys, or one array per row when keys is None."""
    if len(columns[0]) == 0:
        return "[]"
    outer, row, cell = (f"\n{indent}{'  ' * depth}" for depth in range(3))
    if keys is None:
        fields, brackets = ["%s"] * len(columns), "[]"
    else:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        columns = [columns[i] for i in order]
        fields = [encode_basestring_ascii(keys[i]).replace("%", "%%") + ": %s" for i in order]
        brackets = "{}"
    template = brackets[0] + cell + f",{cell}".join(fields) + row + brackets[1]
    blocks = [
        f",{row}".join(map(template.__mod__, zip(*cells)))
        for cells in _cell_blocks(columns, _json_column)
    ]
    return "[" + row + f",{row}".join(blocks) + outer + "]"


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
    data = path.read_bytes()
    digest = _sha256_hex(data)
    # parse the bytes hashed, decoded as Path.read_text decodes them, with
    # the bytes freed before the parse starts
    stream = io.StringIO(io.TextIOWrapper(io.BytesIO(data)).read())
    del data
    return load_edge_list(stream, dedupe=True), digest


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


def _write_json(payload, path: str | None, tables=()):
    """payload as JSON, indented by 2 with sorted keys. Each _SPLICE string in
    payload, in document order, stands for the next of tables, (keys or None,
    columns), written as _json_array writes it; json.dumps sees only the rest."""
    pieces = json.dumps(payload, indent=2, sort_keys=True).split(json.dumps(_SPLICE))
    text = [pieces[0]]
    for (keys, columns), piece in zip(tables, pieces[1:], strict=True):
        line = text[-1][text[-1].rfind("\n") + 1 :]  # the line that opens the array
        indent = line[: len(line) - len(line.lstrip(" "))]
        text += (_json_array(keys, columns, indent), piece)
    _write("".join(text) + "\n", path)


def _multi_path(base: str, suffix: str) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}-{suffix}{p.suffix}"))


def _write_tables(args, tables):
    """Write (comment, suffix, meta, names, columns) tables in args.format.

    JSON is one {"meta", "rows"} document per table, a list when there are
    several. CSV is one stream of tables, each under its "# comment" line,
    unless --output names a file and there are several tables: then each
    table goes bare to its own file, named by its suffix.
    """
    if args.format == "json":
        docs = [{"meta": _json_cell(meta), "rows": _SPLICE} for _, _, meta, _, _ in tables]
        arrays = [(names, columns) for _, _, _, names, columns in tables]
        _write_json(docs[0] if len(docs) == 1 else docs, args.output, arrays)
    elif args.output is None or len(tables) == 1:
        text = "".join(
            f"# {comment}\n" + _csv(names, columns) for comment, _, _, names, columns in tables
        )
        _write(text, args.output)
    else:
        for _, suffix, _, names, columns in tables:
            _write(_csv(names, columns), _multi_path(args.output, suffix))


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


def _compute_measure(name: str, alpha, graph, tol: float, per_component: bool):
    """One measure's report, connectivity already checked."""
    if name == "atec":
        if per_component:
            return atec_per_component(graph, alpha, tol=tol)
        return atec(graph, alpha, tol=tol)
    if name == "dc":
        return degree_centrality(graph)
    if name == "ec":
        return eigenvector_centrality(graph, tol=tol)
    if name == "tc":
        return triangle_centrality(graph, enumerate_triangles(graph))
    if name == "bc":
        return betweenness_centrality(graph)
    return subgraph_centrality(graph)  # "sc", the last name _parse_measures admits


def _compute_measures(measures, graph, tol: float, per_component: bool | None) -> list:
    """The reports of measures, in their order; per_component is None where
    the command lacks the flag.

    First every refusal that needs no score: sc's size limit, then the
    connectivity of atec (unless per component) and of ec, in list order.
    Then sc: its overflow refusal precedes all other work, and its dense
    eigh peaks before the sparse measures have grown the heap. Then the
    rest, in order.
    """
    if any(name == "sc" for name, _ in measures):
        _check_dense_size(graph, "subgraph centrality")
    for name, _ in measures:
        if name == "ec" or (name == "atec" and not per_component):
            _require_connected(graph, flag_helps=name == "atec" and per_component is not None)
    reports = [None] * len(measures)
    for i in sorted(range(len(measures)), key=lambda i: measures[i][0] != "sc"):
        reports[i] = _compute_measure(*measures[i], graph, tol, bool(per_component))
    return reports


def cmd_centrality(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    measures = _parse_measures(args.measure, args.alpha)
    if not measures:
        raise UsageError("--measure needs at least one measure")
    tables = []
    for report in _compute_measures(measures, graph, tol, args.per_component):
        if args.unit_norm and report.normalization == "raw":
            report = report.unit_euclidean()
        meta = {
            "measure": report.measure,
            "normalization": report.normalization,
            "tolerance": tol,
            "dataset_hash": digest,
            **report.params,
            **report.meta,
        }
        comment, suffix = f"measure={report.measure}", report.measure
        if "alpha" in report.params:
            comment += f" alpha={_fmt(meta['alpha'])}"
            suffix += f"-{_fmt(meta['alpha'])}"
        comment += f" normalization={report.normalization}"
        tables.append((comment, suffix, meta, RankedVertex._fields, report.ranking.columns))
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
    reports = _compute_measures([("atec", a) for a in alphas], graph, tol, args.per_component)

    order = np.argsort(label_positions(graph.labels)).tolist()
    matrix = np.stack([r.scores for r in reports], axis=1)  # vertices x alphas

    if args.top:  # a row per alpha: the alpha, then its top labels
        top = min(args.top, graph.n)
        names = ["alpha", *(f"rank{k}" for k in range(1, top + 1))]
        tops = np.array([report.top(top) for report in reports], dtype=object)
        columns = [np.array(alphas), *tops.T]
    else:  # a row per vertex, in label order: the label, then its scores
        names = ["label", *(f"alpha={_fmt(a)}" for a in alphas)]
        columns = [np.array(graph.labels, dtype=object)[order], *matrix[order].T]

    if args.format == "json":
        meta = {
            "measure": "atec-sweep",
            "alphas": tuple(alphas),
            "tolerance": tol,
            "dataset_hash": digest,
        }
        payload = {"meta": _json_cell(meta), "columns": names, "rows": _SPLICE}
        _write_json(payload, args.output, [(None, columns)])
    else:
        _write(_csv(names, columns), args.output)

    if args.svg:
        labels = [graph.labels[i] for i in order]
        Path(args.svg).write_text(
            sweep_plot(alphas, labels, matrix[order, :])
        )
    return 0


def cmd_triangles(args) -> int:
    graph, digest = _load(args)
    tol = _tolerance(args)
    _check_alpha(args.alpha)
    _require_connected(graph)
    triangles = enumerate_triangles(graph)
    if args.with_cycle_index and len(triangles):  # refuse before atec runs
        _check_dense_size(graph, "Fiedler vector")
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
    names = ("v1", "v2", "v3", "score", "rank")
    for ranking in rankings:
        meta = {"index": ranking.index, "dataset_hash": digest}
        if "alpha" in ranking.params:
            meta["alpha"] = ranking.params["alpha"]
        comment, columns = f"index={ranking.index}", ranking.entries.columns
        tables.append((comment, ranking.index, meta, names, columns))
    _write_tables(args, tables)
    return 0


def cmd_connectivity(args) -> int:
    graph, digest = _load(args)
    remove = _label_list(args.remove)
    if not remove:
        raise UsageError("--remove needs at least one vertex label")
    result = removal_experiment(graph, remove)
    print(result.summary)
    names = ("removed", "components_before", "components_after", "sizes_before", "sizes_after")
    values = [getattr(result, name) for name in names]
    if args.format == "json":
        _write_json({"meta": {"dataset_hash": digest}, **dict(zip(names, values))}, args.output)
    elif args.output:
        cells = [str(v) if isinstance(v, int) else ";".join(map(str, v)) for v in values]
        _write(_csv(names, [np.array([cell], dtype=object) for cell in cells]), args.output)
    return 0


def cmd_stats(args) -> int:
    graph, digest = _load(args)
    stats = degree_and_triangle_stats(graph, enumerate_triangles(graph))
    order = np.argsort(label_positions(graph.labels)).tolist()

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
    names = ("label", "degree", "triangles", "neighbor_triangles")
    counts = (stats.degree, stats.triangle_count, stats.neighbor_triangles)
    columns = [np.array(stats.labels, dtype=object)[order], *(np.array(c)[order] for c in counts)]
    if args.format == "json":
        meta = {"dataset_hash": digest, "summary": summaries}
        _write_json({"meta": _json_cell(meta), "rows": _SPLICE}, args.output, [(names, columns)])
    else:
        text = _csv(names, columns) + "".join(
            f"# {key} "
            + " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in s.items())
            + "\n"
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
    names = [name if name != "atec" else f"atec:{_fmt(alpha)}" for name, alpha in measures]
    vectors = [report.scores for report in _compute_measures(measures, graph, tol, None)]
    k = len(names)
    matrix = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = rank_correlation(
                vectors[i], vectors[j], method=args.method
            )

    if args.format == "json":
        meta = {"method": args.method, "dataset_hash": digest}
        payload = {"meta": meta, "measures": names, "matrix": _SPLICE}
        _write_json(payload, args.output, [(None, list(matrix.T))])
    else:
        _write(_csv(("measure", *names), [np.array(names, dtype=object), *matrix.T]), args.output)

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
