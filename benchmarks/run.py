"""Benchmark of the liemaxwell verdict pipeline.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout.  With ``--trace 0``
the workload runs untraced, round after round, until the next round would
end after ``--seconds``, and the end-to-end metrics are printed.  With
``--trace 1`` round 0 runs untraced, traced and untraced again, and the
per-layer metrics of the traced pass are printed.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
a fuller record goes to ``benchmarks/out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is imported anywhere.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh-interpreter set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import liemaxwell
from liemaxwell import lie_algebra
lie_algebra.catalog()
lie_algebra.entry_by_name("A4,4")
seconds = time.perf_counter() - t0
import statistics, speed
speed.slowdown()
print(seconds, statistics.median(speed.slowdown() for _ in range(3)))
"""

#: Program time between two runs of the reference kernel.
PACE_EVERY_S = 0.25


class Pacer:
    """Runs the reference kernel about every ``PACE_EVERY_S`` of program time
    and gives the calls in between the mean slowdown of the kernel runs on
    either side of them."""

    def __init__(self):
        self.last = speed.slowdown()
        self.batch = []
        self.busy = 0.0

    def add(self, op) -> None:
        self.batch.append(op)
        self.busy += op.seconds
        if self.busy >= PACE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.batch:
            return
        after = speed.slowdown()
        for op in self.batch:
            op.slowdown = (self.last + after) / 2
        self.last, self.batch, self.busy = after, [], 0.0

    def run(self, workload, index: int, request=None) -> list:
        ops = []
        for op in workload.run_round(index, request or _no_request):
            self.add(op)
            ops.append(op)
        self.flush()
        return ops


@contextlib.contextmanager
def _no_request(label: str):
    yield


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup() -> list[tuple[float, float]]:
    """(wall seconds, slowdown) of ``SETUP_SAMPLES`` fresh interpreters.  After
    its timed set-up each one runs the kernel once to warm it up, then three
    times; the slowdown is the median of those three."""
    path = [str(SRC), str(BENCH)] + ([os.environ["PYTHONPATH"]]
                                     if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, slow = proc.stdout.split()
        samples.append((float(seconds), float(slow)))
    return samples


def facts(workload) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nominal_reference_s": speed.NOMINAL_S,
        "workload_params": workload.params,
    }


def run_untraced(workload, seconds: float) -> list[list]:
    """Rounds until the next one would end after ``seconds``; at least one."""
    pacer = Pacer()
    rounds = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(pacer.run(workload, len(rounds)))
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return rounds


def end_to_end(workload, rounds: list[list], setup: list[tuple[float, float]]):
    """Metrics at the nominal machine speed, and the raw wall times for the record.

    The tail is the 90th percentile: it keeps ten or more samples beyond it
    on ``sweep`` (22 searches a round), where the 99th has two.  The 99th is
    recorded as well."""
    def summary(key):
        table = [sum(key(op) for op in ops) for ops in rounds]
        calls_ms = [key(op) * 1e3 for ops in rounds for op in ops]
        return table, calls_ms, {"table_s": statistics.median(table),
                                 "call_ms_p50": statistics.median(calls_ms),
                                 "call_ms_p90": _percentile(calls_ms, 90),
                                 "call_ms_p99": _percentile(calls_ms, 99)}

    table, calls_ms, nominal = summary(lambda op: op.nominal_seconds)
    raw_table, _, raw = summary(lambda op: op.seconds)
    metrics = {
        "setup_s": (statistics.median(s / slow for s, slow in setup), "s"),
        "table_s": (nominal["table_s"], "s"),
        "call_ms_p50": (nominal["call_ms_p50"], "ms"),
        "call_ms_p90": (nominal["call_ms_p90"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw["setup_s"] = statistics.median(s for s, _ in setup)
    extra = {
        f"{workload.work_unit}_per_s": workload.work_per_round * len(rounds) / sum(table),
        "call_ms_p99": nominal["call_ms_p99"],
        "raw_wall": raw,
        "samples": {"setup_s": len(setup), "table_s": len(table), "call_ms": len(calls_ms),
                    **{f"beyond_call_ms_p{q}": sum(v > nominal[f"call_ms_p{q}"] for v in calls_ms)
                       for q in (90, 99)}},
        "slowdown_median": statistics.median(op.slowdown for ops in rounds for op in ops),
        "setup_samples": setup,
        "table_s_samples": table,
        "raw_table_s_samples": raw_table,
        "call_ms_samples": calls_ms,
    }
    return metrics, extra


def traced(workload, seed: int):
    from liemaxwell import lie_algebra
    from tracing import SPAN_FIELDS, Tracer

    pacer = Pacer()
    untraced = [pacer.run(workload, 0)]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request("setup"):
            lie_algebra.load_catalog()
            lie_algebra.entry_by_name("A4,4")
        traced_ops = pacer.run(workload, 0, tracer.request)
    finally:
        tracer.uninstall()
    untraced.append(pacer.run(workload, 0))

    def nominal(ops):
        return sum(op.nominal_seconds for op in ops)

    metrics = tracer.metrics()
    metrics["tracing.overhead_frac"] = (
        nominal(traced_ops) / statistics.mean(nominal(ops) for ops in untraced) - 1, "ratio")
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl.gz"
    tracer.write_spans(spans_path)
    extra = {"absent": tracer.absent, "missed_bindings": tracer.missed(workload.name),
             "spans": len(tracer.spans) // SPAN_FIELDS,
             "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_nominal_s": [nominal(ops) for ops in untraced],
             "traced_nominal_s": nominal(traced_ops)}
    return metrics, untraced + [traced_ops], extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "classify", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "liemaxwell" / "__init__.py").is_file():
        print(f"error: no liemaxwell package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liemaxwell
    if Path(liemaxwell.__file__).resolve().parent != SRC / "liemaxwell":
        print(f"error: imported liemaxwell from {liemaxwell.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            metrics, rounds, extra = traced(workload, args.seed)
        else:
            setup = measure_setup()
            rounds = run_untraced(workload, args.seconds)
            metrics, extra = end_to_end(workload, rounds, setup)

    ops = [op for r in rounds for op in r]
    failures = [op.failure for op in ops if op.failure]
    correct = not any(op.wrong_verdict for op in ops)
    result = {"correct": correct, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "facts": facts(workload),
              "failed_frac": len(failures) / len(ops), "failures": failures[:50],
              **extra, **result}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"operations {len(ops)}  failed {len(failures)}  "
          f"failed_frac {record['failed_frac']:.4f}  correct {correct}")
    for reason in failures[:5]:
        print(f"  failure: {reason}")
    for key in ("absent", "missed_bindings"):
        if extra.get(key):
            print(f"  {key}: {', '.join(extra[key])}")
    for key, (value, unit) in metrics.items():
        raw = extra.get("raw_wall", {}).get(key)
        note = f"   (raw wall {raw:.6g})" if raw is not None else ""
        print(f"  {key:<48} {value:>14.6g} {unit}{note}")
    if "call_ms_p99" in extra:
        print(f"  {'call_ms_p99':<48} {extra['call_ms_p99']:>14.6g} ms"
              f"   ({extra['samples']['beyond_call_ms_p99']} samples beyond)")
    for key in ("seeds_per_s", "tables_per_s", "calls_per_s"):
        if key in extra:
            print(f"  {key:<48} {extra[key]:>14.6g} 1/s")
    if "slowdown_median" in extra:
        print(f"  machine slowdown vs nominal (median)          {extra['slowdown_median']:>14.4g}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
