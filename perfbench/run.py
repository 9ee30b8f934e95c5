"""Benchmark for tricent: three closed-loop workloads, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hk_sweep --seed 1 --seconds 35 --trace 0

One process runs one workload as a closed loop: the next op starts only when
the previous one has finished and been checked. Inputs come from --seed.
With --trace 0 every op is timed untraced and the end-to-end metrics are
reported; with --trace 1 every other op (every other round of CLI calls) is
traced and the per-layer metrics are reported. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Metric names and units are those in
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import UNTRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("hk_sweep", "hk_compare", "cli_datasets")
# OpenBLAS starts one thread per core by default, and sc / fiedler call eigh.
# Pinned before numpy loads; CLI children inherit it through the environment.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def op_tail(times: list[float]) -> tuple[float, float, int]:
    """(time, percentile, samples beyond) at the highest percentile that has
    at least ten samples beyond it. Below 21 samples that percentile would
    lie under the median, so the maximum is reported instead."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def run(wl, seconds: float, trace: bool, layer_names: list[str], import_s: float = 0.0) -> dict:
    """Set up, warm up and measure one workload; returns counts and metrics."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - start)
    # The warm-up op runs traced, into a tracer that is thrown away, so that
    # it is the reference: every run checks the solver's final bracket once
    # and holds plain atec to atec's public steps bitwise.
    start = perf_counter()
    warm = wl.op(0, Tracer())
    warm_s = perf_counter() - start
    problems = wl.check(warm)
    attempted, failed = 1, int(bool(problems))
    if problems:
        print(f"warm-up op failed: {problems}", file=sys.stderr)

    tracer = Tracer()
    times: dict[bool, list[float]] = {False: [], True: []}
    deadline = perf_counter() + seconds
    i = 0
    while True:
        traced = trace and (i // wl.round_size) % 2 == 0
        tr = tracer if traced else UNTRACED
        start = perf_counter()
        try:
            result = wl.op(i, tr)
        except Exception:  # the loop goes on; the op counts as failed
            elapsed = perf_counter() - start
            problems = [traceback.format_exc()]
        else:
            elapsed = perf_counter() - start
            problems = wl.check(result)
        tracer.ops += traced
        times[traced].append(elapsed)
        attempted += 1
        if problems:
            failed += 1
            if failed <= 3:
                print(f"op {i} failed: {problems}", file=sys.stderr)
        i += 1
        if i % wl.round_size == 0:
            if traced:
                wl.after_traced_round()
            if perf_counter() >= deadline and (not trace or i >= 2 * wl.round_size):
                break

    plain = times[False]
    tail_s, tail_pct, beyond = op_tail(plain)
    out = {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": len(plain) / sum(plain),
            "op_p50_s": median(plain),
            "op_tail_s": tail_s,
            "setup_s": import_s + median(setup_s) + warm_s,
            "peak_rss_mb": wl.peak_rss_mb(),
        },
        "tail": {"percentile": tail_pct, "samples": len(plain), "beyond": beyond},
    }
    if trace:
        out["layers"] = wl.layer_metrics(tracer, layer_names, times[True], plain)
    return out


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked of the library."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tricent" / "__init__.py").is_file():
        print(f"error: no tricent sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy  # noqa: F401
    import tricent

    import_s = perf_counter() - start
    if Path(tricent.__file__).resolve().parent != SRC / "tricent":
        print(f"error: imported tricent from {tricent.__file__}", file=sys.stderr)
        return 2
    import workloads

    layer_names = [m["name"] for m in spec["per_layer"]]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = workloads.make(args.workload, args.seed, Path(workdir), SRC)
        result = run(wl, args.seconds, bool(args.trace), layer_names, import_s)
        provenance = wl.provenance()

    print("env " + json.dumps(environment(), sort_keys=True))
    for item in provenance:
        print("input " + json.dumps(item, sort_keys=True))
    e2e = result["metrics"]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    tail = result["tail"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in e2e_names:
        print(f"  {name:<12} {e2e[name]:.6g} {units[name]}")
    print(
        f"  op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} untraced ops "
        f"({tail['beyond']} beyond)"
    )
    print(
        f"  failed_frac  {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} ops)"
    )
    names, shown = (layer_names, result["layers"]) if args.trace else (e2e_names, e2e)
    if args.trace:
        for name in names:
            print(f"  {name:<40} {shown[name]:.6g} {units[name]}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": shown[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
