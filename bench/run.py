"""proxfwi benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One process, one client, closed loop, BLAS pinned to one thread.  With
``--trace 0`` the run repeats the set-up phase, then repeats the solve phase
until ``--seconds`` is spent, and reports the end-to-end metrics as medians.
With ``--trace 1`` it alternates untraced and traced solves and reports the
per-layer metrics.  The last line of standard output is the result object;
the lines before it name every metric with its unit and record the
environment.  Result and span files go to ``bench/out/``.  ``--workload all``
runs every workload in turn, each in its own process, prints a table and
rewrites ``BENCHMARK.json`` from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUN_SECONDS = 25
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up repeats at least this often and for at least this long; the median is reported
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

# (name, unit, better, bound): measured with tracing off, on every workload
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
)
# (name, unit, better): from the traced run; one set-up plus one solve
PER_LAYER = (
    ("wave.assemble.calls", "count", "lower"),
    ("wave.assemble.busy_s", "s", "lower"),
    ("linsys.factorize.calls", "count", "lower"),
    ("linsys.factorize.busy_s", "s", "lower"),
    ("linsys.factorize.fill_nnz", "count", "lower"),
    ("linsys.solve.calls", "count", "lower"),
    ("linsys.solve.rhs_cols", "count", "lower"),
    ("linsys.solve.busy_s", "s", "lower"),
    ("linsys.spectral_norm.iters", "count", "lower"),
    ("linsys.spectral_norm.busy_s", "s", "lower"),
    ("inversion.fwi_value.calls", "count", "lower"),
    ("inversion.fwi_value.busy_s", "s", "lower"),
    ("inversion.fwi_gradient.busy_s", "s", "lower"),
    ("inversion.wri_update.calls", "count", "lower"),
    ("inversion.wri_update.busy_s", "s", "lower"),
    ("inversion.wri_update.self_s", "s", "lower"),
    ("optim.outer_iters", "count", "lower"),
    ("optim.line_search.calls", "count", "lower"),
    ("optim.line_search.trials", "count", "lower"),
    ("optim.line_search.accept_ratio", "ratio", "higher"),
    ("optim.line_search.factorizations", "count", "lower"),
    ("optim.line_search.busy_s", "s", "lower"),
    ("optim.hessian_ops.busy_s", "s", "lower"),
    ("optim.self_s", "s", "lower"),
    ("denoise.apply.calls", "count", "lower"),
    ("denoise.apply.busy_s", "s", "lower"),
    ("denoise.apply.p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    # whole-run figures too unsteady, or too often zero, to carry an end-to-end bound
    ("peak_rss_mb", "MB", "lower"),
    ("outer_iter_s", "s", "lower"),
    ("rmse_pct", "%", "lower"),
    ("data_misfit_rel", "ratio", "lower"),
    ("unphysical_pct", "%", "lower"),
)
# counts repeat exactly for a seed; the traced run reports them from its first solve
COUNT_KEYS = frozenset(name for name, unit, _ in PER_LAYER if unit == "count")
INVERSION_RESULTS = ("outer_iter_s", "rmse_pct", "data_misfit_rel", "unphysical_pct")
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER} | {"failed_frac": "ratio"}


def definition() -> dict:
    """The content of BENCHMARK.json."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def environment(w, args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": w.describe(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Outcomes:
    """Attempted and failed operations; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, w, inputs, seed, index):
        """One checked solve: (output or None if it failed, seconds spent solving)."""
        import workloads

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = workloads.solve(w, inputs, seed, index)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        problems = workloads.check(w, inputs, output)
        if problems:
            self.failed += 1
            print(f"check failed on operation {index}: {'; '.join(problems)}", file=sys.stderr)
            return None, elapsed
        return output, elapsed


def results_of(w, inputs, output, solve_times) -> dict:
    """Inversion results of the first good output, in their reporting units."""
    import workloads

    if w.kind != "inversion" or output is None:
        return {}
    m_final, batches = output
    res = workloads.inversion_quality(inputs, m_final)
    res["outer_iter_s"] = statistics.median(solve_times) / workloads.outer_iterations(batches)
    return res


def measure(w, args) -> tuple[dict, dict, Outcomes, dict]:
    """Untraced run: end-to-end metrics, inversion results and the timed samples."""
    import workloads

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = workloads.setup(w, args.seed)
        setup_times.append(time.perf_counter() - t0)
    outcomes, times, first = Outcomes(), [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        output, dt = outcomes.run(w, inputs, args.seed, len(times))
        times.append(dt)
        first = first if first is not None else output
        if time.perf_counter() + statistics.median(times) > deadline:
            break
    metrics = {"setup_s": statistics.median(setup_times), "solve_s": statistics.median(times)}
    # peak memory is read before the results' own oracle allocates
    results = {"peak_rss_mb": peak_rss_mb(), **results_of(w, inputs, first, times)}
    return metrics, results, outcomes, {"setup_s": setup_times, "solve_s": times}


def measure_traced(w, args) -> tuple[dict, dict, Outcomes, dict]:
    """Traced run: per-layer metrics over one set-up plus each traced solve."""
    import spans
    import workloads

    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.phase("setup", "setup"):
        inputs = workloads.setup(w, args.seed)
    outcomes, plain, traced, first = Outcomes(), [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(traced)
        output, dt = outcomes.run(w, inputs, args.seed, i)
        plain.append(dt)
        first = first if first is not None else output
        with spans.installed(tracer), tracer.phase("solve", f"solve-{i}"):
            traced.append(outcomes.run(w, inputs, args.seed, i)[1])
        if time.perf_counter() + statistics.median(plain) + statistics.median(traced) > deadline:
            break
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace_{w.name}_seed{args.seed}.jsonl")

    per_solve = [
        spans.layer_stats(tracer.spans, ("setup", f"solve-{i}")) for i in range(len(traced))
    ]
    metrics = {
        key: per_solve[0][key] if key in COUNT_KEYS
        else statistics.median(stats[key] for stats in per_solve)
        for key in per_solve[0]
    }
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    metrics["peak_rss_mb"] = peak_rss_mb()
    results = results_of(w, inputs, first, plain)
    for name in INVERSION_RESULTS:
        metrics[name] = results.get(name, 0.0)
    return metrics, results, outcomes, {"solve_s": plain, "traced_solve_s": traced}


def import_program() -> bool:
    """Put this checkout's ``src`` and the benchmark on the path and import them."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import proxfwi
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test from {src}: {exc}", file=sys.stderr)
        return False
    if src not in Path(proxfwi.__file__).resolve().parents:
        print(f"proxfwi was imported from {proxfwi.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def run_one(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message=".*points per minimum wavelength.*")
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    w = workloads.WORKLOADS[args.workload]

    measure_fn = measure_traced if args.trace else measure
    values, results, outcomes, samples = measure_fn(w, args)
    names = [n for n, *_ in (PER_LAYER if args.trace else END_TO_END)]
    results["failed_frac"] = outcomes.failed / outcomes.attempted

    for name in names:
        print(f"{w.name} {name} = {values[name]:.6g} {UNITS[name]}")
    # the traced run already lists the other results among its metrics
    for name in ("failed_frac",) if args.trace else results:
        print(f"{w.name} {name} = {results[name]:.6g} {UNITS[name]}")
    env = environment(w, args)
    print("environment " + json.dumps(env))

    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": float(values[n]), "unit": UNITS[n]} for n in names},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {**result, "results": results, "samples": samples, "environment": env}
    (OUT_DIR / f"BENCH_{w.name}_trace{args.trace}_seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then a table and BENCHMARK.json."""
    from workloads import WORKLOADS

    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rows.append((name, result))
    for name, result in rows:
        cells = "  ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:16s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {cells}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(definition(), indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # numpy is first imported after this point, so BLAS starts with one thread
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not import_program():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
