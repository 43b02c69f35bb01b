"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload climate-durable --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/``; nothing needs
installing.  ``--trace 0`` times ops with no wrappers installed and prints
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics instead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--small`` runs at the source
configs' default sizes (the smoke test uses it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: runtime scratch (op directories, span dumps); never committed
OUT_DIR = ROOT / ".perfbench"
#: source/reference/crash-prefix builds per untraced run; setup_s counts
#: their median
SETUP_REPEATS = 3
#: fewest ops a run times, however short ``--seconds`` is
MIN_OPS = 3
#: fewest untraced and traced ops each in a traced run
MIN_TRACED_OPS = 2

WORKERS_NOTE = (
    "note: work inside forked workers is visible only as workers.* main-process "
    "time and reaped-child CPU; no spans are recorded in worker processes"
)
CHILD_RSS_NOTE = (
    "note: workers.child_peak_rss_mb is the process-lifetime maximum RSS over "
    "reaped children (warm-up and untraced ops included), not a per-op figure"
)


def _import_program() -> None:
    """Import the package from this checkout's ``src/``, or fail loudly."""
    src = ROOT / "src"
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def _declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _result(
    samples: Sequence, values: Dict[str, float], kind: str, problems: Sequence[str] = ()
) -> Tuple[dict, List[str]]:
    """The closing JSON object plus human-readable lines for *kind* metrics."""
    failed = sum(1 for s in samples if not s.ok)
    declared = _declared(kind)
    lines = [f"{name:38s} {values.get(name, 0.0):>14.6g} {unit}"
             for name, unit in declared.items()]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def timed_phase(prep, op_dir: Path, seconds: float) -> Tuple[List, Dict[str, float]]:
    from perfbench.workloads import peak_rss_mb

    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_OPS or time.perf_counter() - start < seconds:
        gc.collect()
        samples.append(prep.measure_op(op_dir))
    ok = [s for s in samples if s.ok]
    walls = [s.wall_s for s in ok]
    values = {
        "run_s_p50": _median(walls),
        "samples_per_s": _median([s.n_samples / s.wall_s for s in ok]),
        "cpu_s_per_op": _median([s.cpu_s for s in ok]),
        "peak_rss_mb": peak_rss_mb(),
        "disk_mb_per_op": _median([s.disk_bytes for s in ok]) / 1e6,
        "failed_frac": (len(samples) - len(ok)) / len(samples),
    }
    return samples, values


def traced_phase(
    prep, op_dir: Path, seconds: float, trace_path: Path
) -> Tuple[List, Dict[str, float], List[str]]:
    from perfbench.tracing import Tracer, liveness_violations
    from perfbench.workloads import children_peak_rss_mb

    tracer = Tracer()
    untraced: List = []
    traced: List[Tuple[int, object]] = []
    start = time.perf_counter()
    op = 0
    while (
        len(untraced) < MIN_TRACED_OPS
        or len(traced) < MIN_TRACED_OPS
        or time.perf_counter() - start < seconds
    ):
        gc.collect()
        if op % 2:
            tracer.op = op
            tracer.install()
            try:
                traced.append((op, prep.measure_op(op_dir)))
            finally:
                tracer.uninstall()
        else:
            untraced.append(prep.measure_op(op_dir))
        op += 1
    tracer.write(trace_path)

    per_op: List[Dict[str, float]] = []
    problems: List[str] = []
    for op, sample in traced:
        if not sample.ok:
            continue
        values = tracer.layer_metrics(op)
        values.update(sample.stage_s)
        values["core.runner.engine_tax_s"] = sample.wall_s - sum(sample.stage_s.values())
        # a running maximum over every child reaped so far, warm-up and
        # untraced ops included; only workers are forked, so 0 without them
        values["workers.child_peak_rss_mb"] = (
            children_peak_rss_mb() if values["workers.fanouts"] else 0.0
        )
        per_op.append(values)
        w = prep.workload
        problems += [f"op {op}: {p}" for p in liveness_violations(w.live, w.bypassed, values)]
    names = sorted({name for values in per_op for name in values})
    result = {name: _median([v.get(name, 0.0) for v in per_op]) for name in names}
    base = _median([s.wall_s for s in untraced if s.ok])
    result["trace_untraced_run_s_p50"] = base
    result["trace_traced_run_s_p50"] = _median([s.wall_s for _, s in traced if s.ok])
    result["trace_overhead_frac"] = (
        result["trace_traced_run_s_p50"] / base - 1.0 if base else 0.0
    )
    ops = [s for pair in zip(untraced, (s for _, s in traced)) for s in pair]
    return ops + untraced[len(traced):], result, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="use the source configs' default sizes")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    _import_program()
    from perfbench.workloads import WORKLOADS, Prepared, peak_rss_reset

    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        prepare_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            shutil.rmtree(work / "setup", ignore_errors=True)
            t0 = time.perf_counter()
            prep = Prepared(workload, args.seed, work / "setup", small=args.small)
            prepare_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = prep.measure_op(work / "op")
        warm_s = time.perf_counter() - t0
        if not warm.ok:
            raise SystemExit(f"error: warm-up op failed: {warm.error}")
        prepare_s = statistics.median(prepare_times)
        setup_s = import_s + prepare_s + warm_s
        gc.collect()
        peak_rss_reset()
        print(f"workload {workload.name} seed {args.seed}: set-up {setup_s:.3f} s = "
              f"import {import_s:.3f} + source, reference and crash prefix "
              f"{prepare_s:.3f} (median of {len(prepare_times)}) + warm-up op {warm_s:.3f}")
        if args.trace:
            trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
            samples, values, problems = traced_phase(
                prep, work / "op", args.seconds, trace_path
            )
            result, lines = _result(samples, values, "per_layer", problems)
            print(f"traced run: {len(samples)} ops alternating untraced/traced; "
                  f"spans in {trace_path}")
            for label, ops in (("untraced", samples[::2]), ("traced", samples[1::2])):
                print(f"  {label} op walls: " + " ".join(f"{s.wall_s:.3f}" for s in ops))
            print(WORKERS_NOTE)
            print(CHILD_RSS_NOTE)
            print("per-layer metrics (median per traced op; *_s are self times):")
            print("\n".join(lines))
            for problem in problems:
                print(f"liveness guard: {problem}")
            print("liveness guard: " + ("FAILED" if problems else "passed"))
        else:
            samples, values = timed_phase(prep, work / "op", args.seconds)
            values["setup_s"] = setup_s
            result, lines = _result(samples, values, "end_to_end")
            print(f"{len(samples)} ops timed; run_s_p50 is the median of "
                  f"{sum(s.ok for s in samples)} successful op(s): "
                  + " ".join(f"{s.wall_s:.3f}" for s in samples))
            print("\n".join(lines))
            print(f"{'failed_frac':38s} {values['failed_frac']:>14.6g} "
                  f"({result['failed']} of {result['attempted']} ops)")
        for sample in samples:
            if not sample.ok:
                print(f"failed op: {sample.error}")
        print("reference check: " + ("passed" if not result["failed"] else "FAILED"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
