"""wsvad benchmark: one workload per process, one client, closed loop.

Run from the repository root:

    python3 benchmarks/run.py --workload train_small --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's measured cycles and reports the end-to-end
metrics. ``--trace 1`` runs one untraced and one traced cycle on the same
inputs, reports the per-layer metrics and writes the spans to
``.bench_out/``. Either way the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every figure by name and unit. Scratch files live under
``.bench_work/`` and are removed on exit.
"""

import os

# The engine is single-threaded: pin BLAS/OpenMP to one thread before numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_small", "train_paper", "eval_long")


def import_library() -> None:
    """Make ``wsvad`` importable from this checkout's sources, and only from there."""
    if not (SRC / "wsvad" / "__init__.py").is_file():
        raise ImportError(f"no wsvad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsvad

    if Path(wsvad.__file__).resolve().parent != SRC / "wsvad":
        raise ImportError(f"wsvad was imported from {wsvad.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one wsvad workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="seeds the generated inputs and the training")
    p.add_argument("--seconds", type=int, required=True, help="how long the measured cycles should take")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _print_figures(title: str, figures: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in figures.items():
        print(f"{name:40s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    work = ROOT / ".bench_work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    checks = workloads.Checks()
    cpu_started, wall_started = time.process_time(), time.perf_counter()
    tracer = None
    try:
        if args.trace:
            metrics, info, tracer = workloads.measure_traced(wl, args.seed, work, checks)
        else:
            metrics, info = workloads.measure(wl, args.seed, args.seconds, work, checks)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cpu_per_wall = (time.process_time() - cpu_started) / (time.perf_counter() - wall_started)

    failed = len(checks.failed)
    info["failed_frac"] = (failed / checks.attempted, "1")
    info["cpu_s_per_wall_s"] = (cpu_per_wall, "1")
    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    _print_figures("per-layer metrics (traced run)" if args.trace else "end-to-end metrics", metrics)
    _print_figures("also measured", info)
    for name in checks.failed:
        print(f"# FAILED: {name}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "also": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "attempted": checks.attempted,
        "failed_checks": checks.failed,
    }
    if tracer is not None:
        from spans import spans_as_records

        record["counts"] = {f"{ph}:{name}": v for (ph, name), v in tracer.counts.items()}
        record["epoch_graph_nodes"] = tracer.epoch_nodes
        record["spans"] = spans_as_records(tracer.spans)
    (out / f"{wl.name}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
