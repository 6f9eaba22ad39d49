"""Benchmark for symjacobi: three workloads, end to end or traced per layer.

    python3 bench/run.py --workload verif-all --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run (see bench/README.md). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. A fuller record goes to bench/results/.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads. VERIF_THREADS stays unset
# so `verif all` keeps the program's own default worker count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("VERIF_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
WORKLOAD_NAMES = ("verif-all", "ensemble-norms", "fresh-params")
SETUP_REPEATS = 5

# Per-layer metrics printed by a traced run; the result file keeps all of them.
PER_LAYER = (
    "core.eigenfunction_table.calls",
    "core.eigenfunction_table.distinct",
    "core.eigenfunction_table.cells",
    "core.eigenfunction_table.self_s",
    "core.eigenfunction_table.s",
    "core.jacobi_poly_table.calls",
    "core.jacobi_poly_table.self_s",
    "core.gauss_jacobi_rule.calls",
    "core.gauss_jacobi_rule.nodes",
    "core.gauss_jacobi_rule.self_s",
    "core.symmetric_rule.calls",
    "core.symmetric_rule.self_s",
    "basis.symm_eigenfunction_table.calls",
    "basis.symm_eigenfunction_table.self_s",
    "basis.eval_symm_expansion.calls",
    "basis.eval_symm_expansion.self_s",
    "basis.eval_halfline_expansion.calls",
    "basis.analyze.calls",
    "norms.potential_norm.calls",
    "norms.sobolev_norm.calls",
    "norms.lp_norm.calls",
    "norms.random_band_limited.calls",
    "norms.truncated_lp_powers.calls",
    "squarefn.square_function.calls",
    "squarefn.square_function.cells",
    "squarefn.square_function_by_time_quadrature.calls",
    "operators.calls",
    "witnesses.calls",
    "suites.parallel_map.calls",
    "reporting.write_report.calls",
    "reporting.emit_plots.calls",
    "reporting.bytes_written",
    "cli.main.calls",
    "trace.untraced_s",
    "trace.traced_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Seconds from starting a fresh interpreter until symjacobi is imported."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import symjacobi"
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-s", "-c", code], cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("VERIF_THREADS",)},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symjacobi", "__init__.py")):
        print(f"bench: no symjacobi sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup() if args.trace == 0 else []

    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import symjacobi
    import tracer as tracing
    import workloads

    if not os.path.abspath(symjacobi.__file__).startswith(SRC + os.sep):
        print(f"bench: imported symjacobi from {symjacobi.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, os.path.join(RESULTS, f"{args.workload}-out")
    )
    factory = tracing.Tracer if args.trace else None
    tally, traced = workloads.run_workload(workload, args.seconds, factory)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "details": workload.details(),
        "problems": tally.problems[:50],
    }
    if traced is None:
        metrics = tally.end_to_end()
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
        record["setup_samples_s"] = setup_s
        record["samples"] = {"rounds": len(tally.round_s), "units": len(tally.unit_s)}
        printed = metrics
    else:
        tracer, untraced_s, traced_s = traced
        layers = tracer.metrics()
        layers["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
        layers["trace.traced_s"] = {"value": traced_s, "unit": "s"}
        record["layers"] = layers
        record["functions"] = tracer.functions()
        record["trace_overhead"] = traced_s / untraced_s - 1.0
        printed = {name: layers[name] for name in PER_LAYER}

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": printed,
    }
    record["result"] = result
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for problem in tally.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
