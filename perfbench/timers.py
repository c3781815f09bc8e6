"""Phase timers wrapped around the program's public entry points.

Each wrapped call appends one JSON line to a log shared by the benchmark
process and its forked pool workers: the phase, the call's start and end on
the system-wide monotonic clock, its self time (nested timed calls
excluded), whether it returned, and the event counters it advanced.  Lines
are single ``O_APPEND`` writes, so workers never interleave them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

PHASES = ("build", "drain", "assemble", "cache")


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _scalar_events(network: object) -> Tuple[int, int, int]:
    return network.sim.events_processed, 0, 0


def _batch_events(kernel: object) -> Tuple[int, int, int]:
    executed = sum(state.executed for state in kernel.states)
    elided = sum(state.elided for state in kernel.states)
    return executed + elided, executed, elided


class PhaseLog:
    """Installs the timers and reads their log back."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._stack: List[float] = []
        self._pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap the public entry points of every layer the workloads use."""
        from repro.engine.batch.kernel import BatchKernel
        from repro.engine.batch.runner import BatchSimulation
        from repro.experiments import harness, parallel
        from repro.network.network import Network

        self._wrap(harness, "build_network", "build")
        self._wrap(BatchSimulation, "__init__", "build")
        self._wrap(Network, "run", "drain", _scalar_events)
        self._wrap(BatchKernel, "run", "drain", _batch_events)
        self._wrap(BatchKernel, "finalize", "drain", _batch_events)
        self._wrap(BatchSimulation, "results", "assemble")
        self._wrap(parallel.ResultCache, "get", "cache")
        self._wrap(parallel.ResultCache, "put", "cache")
        # The harness and the sweep runner each hold their own name for the
        # single-run entry point; both resolve it at call time.
        self._wrap(harness, "run_experiment", "assemble")
        self._wrap(parallel, "run_experiment", "assemble")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, owner: object, name: str, phase: str,
              counter: Optional[Callable] = None) -> None:
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, self._timed(original, phase, counter))

    def _timed(self, original: Callable, phase: str, counter: Optional[Callable]) -> Callable:
        log = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if log._pid != os.getpid():  # a forked worker starts a fresh stack
                log._pid = os.getpid()
                log._stack = []
            before = counter(args[0]) if counter is not None else None
            log._stack.append(0.0)
            start = now()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = now()
                nested = log._stack.pop()
                if log._stack:
                    log._stack[-1] += end - start
                record: Dict[str, object] = {
                    "pid": log._pid, "phase": phase, "t0": start, "t1": end,
                    "self": end - start - nested, "ok": ok,
                }
                if before is not None:
                    after = counter(args[0])
                    record["events"] = after[0] - before[0]
                    record["executed"] = after[1] - before[1]
                    record["elided"] = after[2] - before[2]
                log._write(record)

        return timed

    def _write(self, record: Dict[str, object]) -> None:
        line = (json.dumps(record) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    # ---------------------------------------------------------------- reading
    def records(self) -> List[Dict[str, object]]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]


def summarize(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Phase self times, the first drain start and the completed-run counts."""
    phases = {name: 0.0 for name in PHASES}
    first_drain: Optional[float] = None
    events = executed = elided = 0
    for record in records:
        phases[record["phase"]] += record["self"]
        if record["phase"] != "drain":
            continue
        if first_drain is None or record["t0"] < first_drain:
            first_drain = record["t0"]
        if record["ok"]:
            events += record["events"]
            executed += record["executed"]
            elided += record["elided"]
    # Batched drains count executed + elided; scalar drains count the rest.
    return {
        "phases": phases,
        "first_drain": first_drain,
        "events": events,
        "scalar_events": events - executed - elided,
        "batch_executed": executed,
        "batch_elided": elided,
    }
