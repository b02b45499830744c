"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src/``. The run repeats whole rounds of its workload while the
next is expected to end within ``--seconds`` of timed calls (at least one
round), checks the outputs, and prints one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every second round is
traced and the metrics are per-layer totals of one traced round. Untraced
runs time their calls with ``hostspeed``'s clock, which corrects for the
shared host's speed. Outputs go to ``perfbench/out/<workload>/``.
"""
import time

_START = time.perf_counter()
_CPU_AT_START = time.process_time()     # interpreter start-up spent before this line

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: the host has two shared CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("suite", "replan_dense", "train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """Import ``reactplan`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "reactplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import reactplan
    if Path(reactplan.__file__).resolve().parent != SRC / "reactplan":
        raise SystemExit(f"error: reactplan imported from {reactplan.__file__}")


def run_rounds(workload, seconds, tracer):
    """Whole rounds while the next one is expected to end within ``seconds``
    of timed calls. A traced run alternates traced and untraced rounds after
    an untraced first round, and runs at least one of each after the first."""
    rounds = []
    measured = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            r = workload.round(first=not rounds, tracer=tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        if rounds and r.digest != rounds[0].digest:
            for op in range(r.ops):
                r.fail(op, f"round {len(rounds) + 1} outputs differ from round 1")
        rounds.append(r)
        measured += r.real
        enough = len(rounds) >= (3 if tracer else 1)
        if enough and measured + measured / len(rounds) > seconds:
            return rounds


def end_to_end(rounds, setup_s):
    """Whole-run rate, and the per-item latency: the median over a round's
    calls of ms per work item, averaged over the run's rounds. Times are in
    corrected seconds (``hostspeed``)."""
    seconds = sum(sum(r.calls) for r in rounds)
    per_item = [statistics.median(1000.0 * c * len(r.calls) / r.work for c in r.calls)
                for r in rounds if r.work]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (sum(r.work for r in rounds) / seconds, "1/s"),
        "item_ms_p50": (statistics.mean(per_item) if per_item else 0.0, "ms"),
    }


def per_layer(rounds, tracer):
    """Per-layer totals of one round, averaged over the traced rounds (every
    round does the same work), and the cost of tracing against the untraced
    rounds after the first."""
    traced = [r.real for r in rounds[1::2]]
    untraced = [r.real for r in rounds[2::2]]
    metrics = {}
    for name, (value, unit) in tracer.layer_metrics().items():
        per_round = value if unit == "ratio" else value / len(traced)
        metrics[name] = (int(per_round) if unit == "count" and per_round.is_integer()
                         else per_round, unit)
    overhead = statistics.mean(traced) / statistics.mean(untraced) - 1.0
    metrics["trace_overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import hostspeed
    import tracing
    import workloads

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    setup_s = time.perf_counter() - _START + _CPU_AT_START

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        rounds = run_rounds(workload, args.seconds, tracer)
        metrics = per_layer(rounds, tracer)
        tracer.write(out / "spans.csv")
    else:
        factor = hostspeed.start()
        try:
            rounds = run_rounds(workload, args.seconds, None)
        finally:
            hostspeed.stop()
        metrics = end_to_end(rounds, setup_s * factor)
        passes = hostspeed.passes()
        real = sum(r.real for r in rounds)
        print(f"host: {len(passes)} reference passes, median "
              f"{1000 * statistics.median(passes):.3f} ms against {1000 * hostspeed.REF_S} ms; "
              f"uncorrected setup_s {setup_s:.4g}, "
              f"work_per_s {sum(r.work for r in rounds) / real:.4g}", file=sys.stderr)

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
    result = {
        "correct": not problems and not bad,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
