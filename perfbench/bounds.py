"""Closed-form bounds the simulated Dragonfly must respect.

Everything here is worked out from the topology dimensions ``(p, a, h)`` and
the hardware parameters alone, independently of the simulator, so the
benchmark can check the program's outputs against it.  The Dragonfly is the
balanced canonical one: ``g = a*h + 1`` groups, one global link between every
pair of groups, ``p`` nodes per router and ``a`` routers per group.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

#: sampling tolerance, in standard errors, of a checked sample mean.
SIGMAS = 5.0


def _inter_group_hops(a: int) -> Dict[int, float]:
    """Minimal router hops of a pair in different groups.

    The source router holds the global link to the destination group with
    probability ``1/a``, and that link lands on the destination router with
    probability ``1/a``; otherwise a local hop is needed on that side.
    """
    stay = 1.0 / a
    return {1: stay * stay, 2: 2.0 * stay * (1.0 - stay), 3: (1.0 - stay) ** 2}


def minimal_hops_distribution(p: int, a: int, h: int, pattern: str) -> Dict[int, float]:
    """``{router hops: probability}`` of a minimal path under ``pattern``.

    ``"UR"`` draws the destination uniformly from every other node; ``"ADV"``
    (any ADV+i) draws it uniformly from a fixed other group.
    """
    if pattern == "ADV":
        return _inter_group_hops(a)
    if pattern != "UR":
        raise ValueError(f"no closed form for pattern {pattern!r}")
    groups = a * h + 1
    others = p * a * groups - 1
    dist = {0: (p - 1) / others, 1: (a - 1) * p / others}
    inter_share = (groups - 1) * a * p / others
    for hops, prob in _inter_group_hops(a).items():
        dist[hops] = dist.get(hops, 0.0) + inter_share * prob
    return dist


def mean_and_sd(dist: Dict[int, float]) -> Tuple[float, float]:
    mean = sum(hops * prob for hops, prob in dist.items())
    var = sum(prob * (hops - mean) ** 2 for hops, prob in dist.items())
    return mean, math.sqrt(var)


def mean_hops_floor(p: int, a: int, h: int, pattern: str, samples: int) -> float:
    """Lowest sample mean of hops a minimal-or-longer router could show.

    The expected minimal distance less ``SIGMAS`` standard errors of a mean
    over ``samples`` packets: routes are never shorter than minimal, so a
    sample mean below this floor is a fault, not chance.
    """
    mean, sd = mean_and_sd(minimal_hops_distribution(p, a, h, pattern))
    return mean - SIGMAS * sd / math.sqrt(max(samples, 1))


def longest_valiant_hops(a: int) -> int:
    """Router hops of the longest Valiant path: two minimal paths end to end.

    A minimal path is at most local-global-local (3 hops; 1 with ``a == 1``);
    Valiant routing through an intermediate router concatenates two.
    """
    return 2 * (3 if a > 1 else 1)


def minimal_adv_throughput(p: int, a: int) -> float:
    """Accepted-load ceiling of minimal routing under ADV+i: ``1/(a*p)``.

    All ``a*p`` nodes of a group send to one other group over the single
    global link between the two groups.
    """
    return 1.0 / (a * p)


def zero_load_latency_ns(params: object, local_hops: int, global_hops: int) -> float:
    """Latency of one packet through an idle network.

    Every link traversal costs its propagation latency plus one
    serialization (packet bytes over link bandwidth); the path starts and
    ends with a host link.
    """
    ser = params.packet_bytes / params.link_bandwidth_bytes_per_ns
    return (
        2.0 * (params.host_link_latency_ns + ser)
        + local_hops * (params.local_link_latency_ns + ser)
        + global_hops * (params.global_link_latency_ns + ser)
    )


def throughput_tolerance(offered: float, nodes: int, window_ns: float, ser_ns: float) -> float:
    """Absolute tolerance of accepted throughput about the offered load.

    ``SIGMAS`` Poisson standard errors of the packet count a window of
    ``window_ns`` expects at ``offered`` load, as a share of that load.
    """
    expected = offered * nodes * window_ns / ser_ns
    return offered * SIGMAS / math.sqrt(expected)
