"""Tests of the benchmark's own helpers (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import bounds  # noqa: E402
import layers  # noqa: E402

from repro.network.params import NetworkParams  # noqa: E402
from repro.topology.config import DragonflyConfig  # noqa: E402
from repro.topology.registry import topology_for  # noqa: E402


# -------------------------------------------------------------------- layers
def test_every_repro_module_maps_to_exactly_one_layer():
    modules = layers.repro_modules(SRC)
    assert "repro.engine.batch.kernel" in modules
    seen = {}
    for module in modules:
        layer = layers.layer_of_module(module)
        assert layer in layers.LAYERS, module
        seen.setdefault(layer, []).append(module)
    assert sorted(seen) == sorted(layers.LAYERS), "a layer holds no module"


def test_layer_names_follow_packages():
    assert layers.layer_of_module("repro.engine.simulator") == "engine"
    assert layers.layer_of_module("repro.engine.batch.kernel") == "engine.batch"
    assert layers.layer_of_module("repro.core.qtable") == "core"
    assert layers.layer_of_module("repro") == "api"
    assert layers.layer_of_module("repro.cli") == "api"
    assert layers.layer_of_module("numpy.core") is None
    with pytest.raises(KeyError):
        layers.layer_of_module("repro.unknown_package.module")


def test_fold_profile_attributes_rows():
    kernel = os.path.join(SRC, "repro", "engine", "batch", "kernel.py")
    own = os.path.join(HERE, "timers.py")
    rows = [(kernel, 1.5, 10), (kernel, 0.5, 2), ("~", 0.25, 7),
            ("/usr/lib/python3/json/decoder.py", 0.125, 1), (own, 2.0, 3)]
    folded = layers.fold_profile(rows, SRC, HERE)
    assert folded["engine.batch"] == {"self_s": 2.0, "calls": 12}
    assert folded["external"] == {"self_s": 0.375, "calls": 8}
    assert folded["bench"] == {"self_s": 2.0, "calls": 3}
    assert folded["engine"] == {"self_s": 0.0, "calls": 0}


# -------------------------------------------------------------------- bounds
def _enumerated_mean_hops(config, pattern):
    """Mean minimal router hops by brute force over the built topology."""
    topo = topology_for(config)
    total = count = 0
    for src in topo.all_nodes():
        if pattern == "UR":
            dsts = [d for d in topo.all_nodes() if d != src]
        else:  # ADV+1
            group = (topo.group_of_node(src) + 1) % topo.g
            dsts = list(topo.nodes_in_group(group))
        for dst in dsts:
            total += topo.minimal_hops(topo.router_of_node(src), topo.router_of_node(dst))
            count += 1
    return total / count


def test_tiny_dragonfly_by_hand():
    # p=1, a=2, h=1: 3 groups of 2 routers, one node per router.  From a
    # node, the 5 others are 1 hop (same group), 1 and 2 hops (the group its
    # router links to), 2 and 3 hops (the group its neighbour links to).
    dist = bounds.minimal_hops_distribution(1, 2, 1, "UR")
    mean, _sd = bounds.mean_and_sd(dist)
    assert math.isclose(mean, (1 + 1 + 2 + 2 + 3) / 5)
    assert math.isclose(sum(dist.values()), 1.0)
    assert math.isclose(mean, _enumerated_mean_hops(DragonflyConfig.tiny(), "UR"))
    assert bounds.minimal_adv_throughput(1, 2) == 0.5
    assert bounds.longest_valiant_hops(2) == 6


def test_72_node_closed_forms_match_enumeration():
    config = DragonflyConfig.small_72()
    ur, _ = bounds.mean_and_sd(bounds.minimal_hops_distribution(2, 4, 2, "UR"))
    assert round(ur, 3) == 2.338  # (6 * 1 + 64 * 2.5) / 71
    assert math.isclose(ur, _enumerated_mean_hops(config, "UR"))
    adv, _ = bounds.mean_and_sd(bounds.minimal_hops_distribution(2, 4, 2, "ADV"))
    assert math.isclose(adv, 2.5)
    assert math.isclose(adv, _enumerated_mean_hops(config, "ADV"))
    assert bounds.minimal_adv_throughput(2, 4) == 0.125


def test_mean_hops_floor_tightens_with_samples():
    mean, _ = bounds.mean_and_sd(bounds.minimal_hops_distribution(2, 4, 2, "UR"))
    small = bounds.mean_hops_floor(2, 4, 2, "UR", 100)
    large = bounds.mean_hops_floor(2, 4, 2, "UR", 1_000_000)
    assert small < large < mean
    assert mean - large < 0.01


def test_zero_load_latency_by_hand():
    params = NetworkParams()  # 128 B at 4 B/ns: 32 ns per link
    assert bounds.zero_load_latency_ns(params, 0, 0) == 2 * (10 + 32)
    assert bounds.zero_load_latency_ns(params, 0, 1) == 2 * (10 + 32) + 300 + 32
    assert bounds.zero_load_latency_ns(params, 2, 1) == 84 + 332 + 2 * (30 + 32)


def test_throughput_tolerance_is_five_poisson_errors():
    # 0.5 load, 1056 nodes, 1 us at 32 ns per packet: 16,500 packets.
    tol = bounds.throughput_tolerance(0.5, 1056, 1_000.0, 32.0)
    assert math.isclose(tol, 0.5 * 5 / math.sqrt(16_500))


# ------------------------------------------------------------ BENCHMARK.json
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_its_fixed_form():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    runs = 4 + 22 * len(bench["workloads"])
    assert 2 <= len(bench["workloads"]) <= 8 and runs * bench["run_seconds"] < 3420
    names = []
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in bench["end_to_end"])} in bench["end_to_end"]
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT.match(metric["unit"]), metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    import run

    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)


def test_per_layer_metrics_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    zero = {"self_s": 0.0, "calls": 0}
    traced = {
        "layers": {name: dict(zero) for name in (*layers.LAYERS, "external", "bench")},
        "wall_s": 2.0,
    }
    timed = {"wall_s": 1.0,
             "counts": {"engine.events": 1, "engine.batch.events_executed": 0,
                        "engine.batch.events_elided": 0, "core.table_bytes": 0,
                        "experiments.cache_bytes": 0},
             "phase": {name: 0.0 for name in (
        "import_s", "build_s", "drain_s", "assemble_s", "cache_s")}}
    printed = run._per_layer(traced, [timed])
    assert {name: m["unit"] for name, m in printed.items()} == declared
    assert printed["trace.overhead_s"]["value"] == 1.0
