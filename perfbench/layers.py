"""Layers of the simulator and the attribution of profiler rows to them.

A layer is named after the package under ``src/repro`` that holds the code:
``engine`` is the scalar event engine (``repro.engine`` outside ``batch``),
``engine.batch`` the flat batched kernel, and every other top-level package
is its own layer.  The package root and the command-line module form the
``api`` layer.  Profiler rows whose source file lies outside ``src/repro``
(numpy, the standard library, C builtins) are ``external``; rows from the
benchmark's own files are ``bench`` and are reported nowhere.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

#: every layer, in report order.
LAYERS: Tuple[str, ...] = (
    "engine",
    "engine.batch",
    "network",
    "routing",
    "core",
    "traffic",
    "topology",
    "stats",
    "experiments",
    "scenarios",
    "faults",
    "instrument",
    "store",
    "analysis",
    "api",
)

#: top-level packages of ``repro`` that are a layer of the same name.
_PACKAGE_LAYERS = frozenset(name for name in LAYERS if "." not in name) - {"api"}

#: top-level modules of ``repro`` that belong to the ``api`` layer.
_API_MODULES = frozenset(("cli", "__main__"))


def layer_of_module(module: str) -> Optional[str]:
    """Layer of a dotted module name; ``None`` for modules outside ``repro``.

    A module of an unknown ``repro`` package raises ``KeyError``, so a new
    package cannot go unattributed.
    """
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1 or parts[1] in _API_MODULES:
        return "api"
    top = parts[1]
    if top == "engine" and len(parts) > 2 and parts[2] == "batch":
        return "engine.batch"
    if top in _PACKAGE_LAYERS:
        return top
    raise KeyError(f"module {module!r} belongs to no benchmark layer")


def module_of_path(path: str, src_root: str) -> Optional[str]:
    """Dotted module name of a source file under ``src_root`` (else ``None``)."""
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(src_root))
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src_root: str) -> List[str]:
    """Every module under ``src_root/repro``, sorted."""
    modules = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(src_root, "repro")):
        for filename in filenames:
            if filename.endswith(".py"):
                module = module_of_path(os.path.join(dirpath, filename), src_root)
                if module is not None:
                    modules.append(module)
    return sorted(modules)


def fold_profile(
    rows: Iterable[Tuple[str, float, int]], src_root: str, bench_dir: str
) -> Dict[str, Dict[str, float]]:
    """Sum ``(filename, self seconds, calls)`` profiler rows per layer.

    Returns ``{layer: {"self_s": ..., "calls": ...}}`` for every layer in
    :data:`LAYERS` plus ``external`` and ``bench``.
    """
    totals: Dict[str, Dict[str, float]] = {
        name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, "external", "bench")
    }
    bench_root = os.path.abspath(bench_dir) + os.sep
    layer_cache: Dict[str, str] = {}
    for filename, self_s, calls in rows:
        layer = layer_cache.get(filename)
        if layer is None:
            module = module_of_path(filename, src_root)
            found = layer_of_module(module) if module is not None else None
            if found is not None:
                layer = found
            elif os.path.abspath(filename).startswith(bench_root):
                layer = "bench"
            else:
                layer = "external"
            layer_cache[filename] = layer
        totals[layer]["self_s"] += self_s
        totals[layer]["calls"] += calls
    return totals
