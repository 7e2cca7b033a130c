"""One figure for ROADMAP 5c: process data-parallel training at W = 2.

Trains RAPID-pro on ``train_cell``'s training inputs twice — with
``train_rapid`` and with ``repro.dist.train_dist`` (process backend,
two workers) — alternating which goes first, and prints each side's
lists/s and final epoch loss.  Each worker batches its own shard at the
configured batch size, so at W = 2 a step's global batch doubles and an
epoch has half the steps: compare the losses as well as lists/s.  It is
not a benchmark workload: on a 2-core machine a parent plus two workers
measures the scheduler as much as the trainer.

Usage (from the repository root)::

    python3 perfbench/dist_probe.py --seed 1 --pairs 3
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()

    import workloads
    from repro.core.trainer import train_rapid
    from repro.dist import DistTrainConfig, train_dist
    from repro.eval import make_reranker, prepare_bundle

    cell = workloads.make_run("train_cell", args.seed, 1.0, False)
    bundle = prepare_bundle(cell.config())
    config = bundle.config.train
    lists = config.epochs * len(bundle.train_requests)
    inputs = (bundle.train_requests, bundle.world.catalog,
              bundle.world.population, bundle.histories)

    def plain() -> "tuple[float, float]":
        model = make_reranker("rapid-pro", bundle).model
        start = time.perf_counter()
        losses = train_rapid(model, *inputs, config=config)
        return lists / (time.perf_counter() - start), losses[-1]

    def dist() -> "tuple[float, float]":
        model = make_reranker("rapid-pro", bundle).model
        start = time.perf_counter()
        result = train_dist(model, *inputs, config=config,
                            dist=DistTrainConfig(world_size=2, backend="process"))
        return lists / (time.perf_counter() - start), result.losses[-1]

    runs = {"train_rapid": [], "train_dist W=2": []}
    for pair in range(args.pairs):
        order = [("train_rapid", plain), ("train_dist W=2", dist)]
        for name, fn in order if pair % 2 == 0 else order[::-1]:
            runs[name].append(fn())
    for name, values in runs.items():
        rates = [rate for rate, _ in values]
        print(f"{name:15s} lists/s median {statistics.median(rates):8.1f} "
              f"(runs {', '.join(f'{r:.0f}' for r in rates)}), "
              f"final loss {values[-1][1]:.6f}")
    ratio = statistics.median(r for r, _ in runs["train_dist W=2"]) / statistics.median(
        r for r, _ in runs["train_rapid"])
    print(f"W=2 / train_rapid lists/s ratio: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
