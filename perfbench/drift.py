"""Host drift: time a fixed numpy loop, to tell host noise from program change.

    python3 perfbench/drift.py --seconds 60

The loop's work never changes, so any change in its pass time is the host's.
Prints the median pass time of each tenth of the run, and the spread of all
passes as (third quartile - first quartile) / median.
"""
import argparse
import os
import statistics
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402


def one_pass(a, b):
    x = a
    for _ in range(40):
        x = np.tanh(x @ b) + a
    return float(x.sum())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 64, 16))
    b = rng.normal(size=(16, 16)) / 4.0
    passes = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        one_pass(a, b)
        passes.append(1000.0 * (time.perf_counter() - start))
    q1, med, q3 = statistics.quantiles(passes, n=4)
    tenth = max(1, len(passes) // 10)
    windows = [statistics.median(passes[i:i + tenth]) for i in range(0, len(passes), tenth)]
    print(f"{len(passes)} passes, median {med:.3f} ms, spread {(q3 - q1) / med:.3f}")
    print("median per tenth of the run (ms): " + " ".join(f"{w:.2f}" for w in windows))


if __name__ == "__main__":
    main()
