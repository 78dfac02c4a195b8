"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-binary --seed 0 --seconds 15 --trace 0

Runs from the root of a source checkout and imports cardiofuse from its
``src`` directory. After set-up, it runs whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output and prints
one JSON object as the last line of standard output. ``--trace 0`` reports
the end-to-end metrics, timed in CPU seconds of the process; ``--trace 1`` wraps the program's layer functions,
reports the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("desk-binary", "desk-multiclass", "cohort-scoring")
# set-up, and the start of a fresh interpreter that imports cardiofuse, are
# repeated and their medians reported, so one slow start does not count
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_cpu_s": "s",
    "ops_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}

MODEL_LAYERS = ("logistic", "svm", "tree", "forest", "mlp", "adaboost")
TIMED_LAYERS = (
    ["dataset.load", "preprocess.impute", "preprocess.encode", "preprocess.derive",
     "preprocess.split", "preprocess.oversample", "preprocess.scale"]
    + [f"models.{m}.{step}" for m in MODEL_LAYERS for step in ("fit", "score", "save", "load")]
    + ["fusion.grid_search", "fusion.fuse", "metrics.confusion", "metrics.scalar",
       "metrics.roc_auc", "pipeline.run", "pipeline.emit"]
)
COUNTS = {
    "preprocess.oversample_rows": "count",
    **{f"models.{m}.doc_bytes": "bytes" for m in MODEL_LAYERS},
    "models.forest.nodes": "count",
    "models.tree.nodes": "count",
    "models.adaboost.stumps": "count",
    "models.svm.support_vectors": "count",
    "models.svm.kkt_violators": "count",
    "fusion.grid_points": "count",
    "pipeline.report_bytes": "bytes",
    "pipeline.warnings": "count",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_LAYERS},
    "pipeline.self_s": "s",
    **COUNTS,
    "models.svm.dual_gap": "ratio",
    "trace.op_cpu_s": "s",
    "trace.ops_per_cpu_s": "1/s",
    "trace.op_wall_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    if not (SRC / "cardiofuse" / "__init__.py").is_file():
        raise SystemExit(f"no cardiofuse sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import cardiofuse
    if Path(cardiofuse.__file__).resolve().parent != SRC / "cardiofuse":
        raise SystemExit(f"imported cardiofuse from {cardiofuse.__file__}, not {SRC}")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds() -> float:
    """Median CPU time for a fresh interpreter to start and import cardiofuse."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t = _children_cpu()
        subprocess.run([sys.executable, "-c", "import cardiofuse"], env=env,
                       check=True, timeout=120)
        times.append(_children_cpu() - t)
    return statistics.median(times)


def _make_workload(workloads, name, seed, report_dir, tracer):
    if name == "cohort-scoring":
        return workloads.CohortScoring(seed, tracer)
    return workloads.Desk(name.split("-", 1)[1], seed, report_dir, tracer)


def first_round_counts(records) -> dict:
    """Per-layer counts summed over the first round; the gap is the largest."""
    out = dict.fromkeys(COUNTS, 0)
    gaps = [0.0]
    for rec in records:
        for name, value in rec.get("models", {}).items():
            out[name] += value
        for machine in rec.get("svm", []):
            out["models.svm.kkt_violators"] += machine["kkt_violators"]
            gaps.append(machine["dual_gap"])
        for name in COUNTS:
            if name in rec:
                out[name] += rec[name]
    out["models.svm.dual_gap"] = max(gaps)
    return out


class Tally:
    """Operations attempted and failed, and the CPU and wall durations of
    each round's successful operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds: list[list[float]] = []        # CPU seconds
        self.wall_rounds: list[list[float]] = []   # wall seconds

    @property
    def durations(self) -> list[float]:
        return [d for rnd in self.rounds for d in rnd]

    @staticmethod
    def per_op(rounds) -> float:
        # a round mixes operations of different sizes (the two splits), so the
        # typical operation time is the median over rounds of each round's mean
        return statistics.median(statistics.fmean(rnd) for rnd in rounds if rnd)


def measure(workload, seconds, tracer, tally):
    """Run whole rounds, at least the workload's minimum, until ``seconds``
    have passed; check every output."""
    from perfbench.checks import CheckFailed
    from perfbench.spans import span_of

    span = span_of(tracer)
    t_run = time.perf_counter()
    while (len(tally.rounds) < workload.min_rounds
           or time.perf_counter() - t_run < seconds):
        r = len(tally.rounds)
        tally.rounds.append([])
        tally.wall_rounds.append([])
        for op in workload.round(r):
            tally.attempted += 1
            t, c = time.perf_counter(), time.process_time()
            try:
                with span("bench.op"):
                    result = op()
            except Exception:
                tally.failed += 1
                traceback.print_exc()
                continue
            tally.rounds[-1].append(time.process_time() - c)
            tally.wall_rounds[-1].append(time.perf_counter() - t)
            try:
                with tracer.paused() if tracer else nullcontext():
                    workload.check(result)
            except CheckFailed as e:
                print(f"check failed: {e}", file=sys.stderr)
                tally.failed += 1
                tally.correct = False
            if tracer:
                if r == 0:
                    workload.count(result)
                tracer.fits.clear()


def run(args) -> dict:
    _import_program()
    import numpy as np
    from perfbench import workloads
    from perfbench.checks import CheckFailed
    from perfbench.spans import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    report_dir = tempfile.mkdtemp(prefix="reports-", dir=OUT)
    tracer = Tracer() if args.trace else None
    tally = Tally()
    try:
        with tracer.installed() if tracer else nullcontext():
            setups = []
            for _ in range(SETUP_REPEATS):
                workload = _make_workload(workloads, args.workload, args.seed,
                                          report_dir, tracer)
                t = time.process_time()
                try:
                    workload.setup()
                except CheckFailed as e:
                    print(f"set-up check failed: {e}", file=sys.stderr)
                    tally.correct = False
                setups.append(time.process_time() - t)
            setup_s = statistics.median(setups)
            if tracer:
                tracer.phase = "run"
            measure(workload, args.seconds, tracer, tally)
    finally:
        shutil.rmtree(report_dir, ignore_errors=True)

    durations = tally.durations
    if not durations:
        raise SystemExit("no operation completed")
    op_cpu_s = tally.per_op(tally.rounds)
    ops_per_cpu_s = len(durations) / sum(durations)
    if tracer:
        n_ops = len(durations)
        per = tracer.seconds_per(n_ops, SETUP_REPEATS)
        metrics = {f"{name}_s": per.get(name, 0.0) for name in TIMED_LAYERS}
        metrics["pipeline.self_s"] = tracer.self_seconds_per_op("pipeline.run", n_ops)
        metrics.update(first_round_counts(workload.records))
        metrics["trace.op_cpu_s"] = op_cpu_s
        metrics["trace.ops_per_cpu_s"] = ops_per_cpu_s
        metrics["trace.op_wall_s"] = tally.per_op(tally.wall_rounds)
        units = PER_LAYER
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "first_round": workload.records, "metrics": metrics})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": import_seconds() + setup_s,
            "op_cpu_s": op_cpu_s,
            "ops_per_cpu_s": ops_per_cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    print(f"{args.workload} seed {args.seed}: {len(durations)} operations "
          f"in {len(tally.rounds)} rounds")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    result = run(parse_args(argv))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
