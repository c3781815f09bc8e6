"""One round of one workload, in a fresh interpreter.

Started by ``run.py`` with the workload, its seed, a work directory and the
monotonic time at which the process was spawned.  The round imports the
program, builds its inputs, runs them, writes the result document and stops
the clock; then it checks the outputs and writes ``round.json`` into the
work directory.  With ``--trace 1`` the standard-library profiler runs from
before the first import until the clock stops, and the round also reports
per-layer self time and call counts.

    python3 perfbench/one_round.py --workload NAME --seed N --work DIR \\
        --spawned T [--trace 0|1] [--workers K]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped worker, in MiB."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def _profile_rows(profiler: object):
    import pstats

    stats = pstats.Stats(profiler).stats
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) in stats.items():
        yield filename, self_s, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    import timers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    import_start = timers.now()
    workload.imports()
    import_end = timers.now()

    log = timers.PhaseLog(os.path.join(args.work, "phases.jsonl"))
    log.install()
    inputs = workload.build(args.seed)
    out = workload.run(inputs, args.work, args.workers)
    workloads.write_document(out, os.path.join(args.work, "result.json"))
    done = timers.now()
    if profiler is not None:
        profiler.disable()
    peak_rss_mb = _peak_rss_mb()
    summary = timers.summarize(log.records())
    log.uninstall()

    failures = workload.check(inputs, out, args.work)
    cache_dir = os.path.join(args.work, "cache")
    cache_bytes = 0
    if os.path.isdir(cache_dir):
        cache_bytes = sum(os.path.getsize(os.path.join(cache_dir, name))
                          for name in os.listdir(cache_dir) if name.endswith(".pkl"))

    first_event = summary["first_drain"]
    if first_event is None:
        failures.append(f"{args.workload}: no simulated event ran")
        first_event = done
    record = {
        "wall_s": done - args.spawned,
        "setup_s": first_event - args.spawned,
        "events": summary["events"],
        "events_per_s": summary["events"] / (done - first_event),
        "peak_rss_mb": peak_rss_mb,
        "phase": {"import_s": import_end - import_start,
                  **{f"{name}_s": value for name, value in summary["phases"].items()}},
        "counts": {
            "engine.events": summary["scalar_events"],
            "engine.batch.events_executed": summary["batch_executed"],
            "engine.batch.events_elided": summary["batch_elided"],
            "core.table_bytes": workloads.table_bytes(out),
            "experiments.cache_bytes": cache_bytes,
        },
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": failures,
    }
    if profiler is not None:
        import layers

        record["layers"] = layers.fold_profile(
            _profile_rows(profiler), os.path.join(os.path.dirname(HERE), "src"), HERE)
    with open(os.path.join(args.work, "round.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
