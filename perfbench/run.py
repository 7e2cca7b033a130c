"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs with spans around every layer's entry points and
prints the per-layer metrics instead.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment fingerprint and notes on the run.  See README.md in
this directory for the workloads, metrics and reference figures.
"""

import os

# One BLAS/OpenMP thread: with OpenBLAS's default of one thread per core,
# training times on a 2-core machine spread ~40% between runs.  This has
# to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _source_id() -> str:
    """The git sha when run from a clone, else a digest of ``src/``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def fingerprint() -> dict:
    import numpy

    from blas import blas_threads

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "source": _source_id(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    print(json.dumps({"env": fingerprint()}), flush=True)
    run = workloads.make_run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    for note in run.notes:
        print("note:", note, flush=True)
    for failure in run.failures:
        print("FAILED:", failure, flush=True)
    if args.trace:
        names = workloads.PER_LAYER
        values = run.layers
    else:
        names = workloads.END_TO_END
        values = run.metrics
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
