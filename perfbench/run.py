"""Benchmark of the Q-adaptive Dragonfly simulator: end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S       # every workload
    python3 perfbench/run.py --workload all --repeat 10       # spread per metric

A run repeats whole rounds of the workload, each in a fresh interpreter
(fixed ``PYTHONHASHSEED``, fresh cache and output directories inside
``.perfbench/``), until ``--seconds`` have passed, and reports the median of
every end-to-end metric over its rounds.  ``--trace 1`` adds one round under
the standard-library profiler and reports the per-layer metrics instead.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--repeat K`` runs each workload K times with seeds
``N .. N+K-1`` and prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import timers  # noqa: E402

WORKLOADS = ("paper1056_qadp_ur", "replicates72_qadp_adv", "resilience_study")
#: the longest a single round may take before the run is abandoned.
ROUND_TIMEOUT_S = 150.0
#: the worker pools of a timed round never exceed two processes.
MAX_WORKERS = 2
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "events_per_s": "events/s",
                    "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(work: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    src = os.path.abspath("src")
    env.update({
        "PYTHONPATH": src,
        "PYTHONHASHSEED": "0",
        "TMPDIR": work,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _round(workload: str, seed: int, work: str, trace: bool, workers: int) -> Dict:
    """Run one round in a fresh interpreter and return its record."""
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "one_round.py"), "--workload", workload,
           "--seed", str(seed), "--work", work, "--trace", str(int(trace)),
           "--workers", str(1 if trace else workers)]
    spawned = timers.now()
    # Its own process group, so a round that overruns is killed with its workers.
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=_child_env(work),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        _out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} round overran {ROUND_TIMEOUT_S:.0f} s") from None
    path = os.path.join(work, "round.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"{workload} round failed (exit {proc.returncode}):\n{err[-4000:]}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _compile(root: str) -> None:
    """Byte-compile the sources once, outside the clock."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join("src", "repro")],
        env=_child_env(root), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"compiling src/repro failed:\n{proc.stdout[-4000:]}")


def measure(workload: str, seed: int, seconds: float, trace: bool, workers: int) -> Dict:
    """One benchmark run of ``workload``: the result object it prints."""
    os.makedirs(".perfbench", exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{workload}-", dir=".perfbench")
    try:
        _compile(root)
        began = timers.now()
        traced = None
        if trace:
            traced = _round(workload, seed, os.path.join(root, "traced"), True, workers)
        # Whole rounds only: start another while it is expected to end in time.
        rounds: List[Dict] = []
        longest = 0.0
        while not rounds or timers.now() - began + longest <= seconds:
            started = timers.now()
            work = os.path.join(root, f"round-{len(rounds)}")
            rounds.append(_round(workload, seed, work, False, workers))
            longest = max(longest, timers.now() - started)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    everything = rounds + ([traced] if traced else [])
    failures = [f for record in everything for f in record["failures"]]
    counts = rounds[0]["counts"]
    for record in rounds[1:]:
        if record["counts"] != counts:
            failures.append(f"{workload}: exact counts differ between rounds: "
                            f"{counts} vs {record['counts']}")
    if traced is not None:
        # The traced round runs its study serially; its cache entries come
        # out a little larger or smaller than the pool's, so the cache's
        # byte count is the one count tracing may change.
        same = {k: v for k, v in counts.items() if k != "experiments.cache_bytes"}
        if any(traced["counts"][k] != v for k, v in same.items()):
            failures.append(f"{workload}: tracing changed the exact counts: "
                            f"{counts} vs {traced['counts']}")
    attempted = sum(record["attempted"] for record in everything)
    failed = sum(record["failed"] for record in everything)
    if traced is None:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = _per_layer(traced, rounds)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "failures": failures, "rounds": len(rounds)}


def _per_layer(traced: Dict, rounds: List[Dict]) -> Dict:
    metrics: Dict[str, Dict] = {}
    for layer in (*layers.LAYERS, "external"):
        folded = traced["layers"][layer]
        metrics[f"{layer}.self_s"] = {"value": folded["self_s"], "unit": "s"}
        if layer != "external":
            metrics[f"{layer}.calls"] = {"value": folded["calls"], "unit": "calls"}
    for name in ("import_s", "build_s", "drain_s", "assemble_s", "cache_s"):
        median = statistics.median(r["phase"][name] for r in rounds)
        metrics[f"phase.{name}"] = {"value": median, "unit": "s"}
    counts = rounds[0]["counts"]
    executed = counts["engine.batch.events_executed"]
    elided = counts["engine.batch.events_elided"]
    metrics["engine.events"] = {"value": counts["engine.events"], "unit": "events"}
    metrics["engine.batch.events_executed"] = {"value": executed, "unit": "events"}
    metrics["engine.batch.elided_share"] = {
        "value": elided / (executed + elided) if executed + elided else 0.0, "unit": "ratio"}
    metrics["core.table_bytes"] = {"value": counts["core.table_bytes"], "unit": "bytes"}
    metrics["experiments.cache_bytes"] = {"value": counts["experiments.cache_bytes"],
                                          "unit": "bytes"}
    untraced = statistics.median(r["wall_s"] for r in rounds)
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced, "unit": "s"}
    return metrics


def _print_result(workload: str, result: Dict) -> None:
    print(f"== {workload}: {result['rounds']} rounds, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:34s} {shown} {metric['unit']}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")


def _quartiles(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _repeat(names, seed: int, repeat: int, seconds: float, trace: bool,
            workers: int) -> int:
    """``repeat`` runs per workload with seeds ``seed ..``; quartiles per metric."""
    summary: Dict[str, Dict] = {}
    for name in names:
        runs = []
        for index in range(repeat):
            runs.append(measure(name, seed + index, seconds, trace, workers))
            _print_result(f"{name} seed {seed + index}", runs[-1])
            sys.stdout.flush()
        values = {m: [r["metrics"][m]["value"] for r in runs] for m in runs[0]["metrics"]}
        summary[name] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": {m: {**_quartiles(v), "values": v} for m, v in values.items()},
        }
        print(f"== {name}: {repeat} runs")
        for metric, q in summary[name]["metrics"].items():
            print(f"  {metric:34s} median {q['median']:.6g}  q1 {q['q1']:.6g}  "
                  f"q3 {q['q3']:.6g}  spread {q['spread']:.3%}")
    print(json.dumps(summary))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    workers = max(1, min(MAX_WORKERS, os.cpu_count() or 1))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    keys = ("correct", "attempted", "failed", "metrics")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("benchmark failed: src/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.repeat > 1:
            return _repeat(names, args.seed, args.repeat, args.seconds, bool(args.trace),
                           workers)
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), workers)
            _print_result(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps({key: results[names[0]][key] for key in keys}))
    else:
        print(json.dumps({name: {key: r[key] for key in keys} for name, r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
