"""The public surface: each module's __all__, the package exports, and removed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import modsetlab

# test references (now in tests/references.py), first-order leftovers, two
# shape classifiers that PairGraph.components replaced, a helper that only the
# counts use, and the one-target sum predicate that event_sums_missing covers
REMOVED = ("oracle_mean", "_f_series_reference", "independence_event_holds",
           "gauge_g_squared_exact", "expected_x_k", "xi_counts", "classify", "Classification",
           "binomial", "event_sum_missing")


def test_public_surface():
    modules = {info.name: importlib.import_module(f"modsetlab.{info.name}")
               for info in pkgutil.iter_modules(modsetlab.__path__)}
    for name, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"modsetlab.{name}.__all__ lists missing {attr!r}"
    exported = 0
    for node in ast.parse(Path(modsetlab.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert alias.name in modules[node.module].__all__, \
                    f"modsetlab imports {alias.name!r} outside modsetlab.{node.module}.__all__"
                exported += 1
    assert exported > 0
    for module in (modsetlab, *modules.values()):
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name} is still reachable"
