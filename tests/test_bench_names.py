"""The names the benchmark's per-layer tracer reads must exist in ``riordan``.

``bench/layertrace.py`` wraps functions and reads caches by name; a name
deleted or renamed here would otherwise go unnoticed until a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

from riordan import arrays, cli, hypergeom, identities, series
from riordan.arrays import RiordanArray
from riordan.series import FormalPowerSeries

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # each name in the module that ``install`` reads it from
    trace = load_layertrace()
    for mod, names in ((hypergeom, trace.HYPERGEOM_FNS),
                       (identities, (*trace.IDENTITY_FNS, *trace.CACHES, "check_registry")),
                       (series, trace._SERIES_FUNCS),
                       (arrays, ("subarray_triangle", "a_sequence")),
                       (cli, ("main",))):
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
    for name in trace.CACHES:
        assert getattr(identities, name).cache_info().currsize >= 0, name
    assert isinstance(getattr(identities, "_fib_cache", None), list), "identities._fib_cache"


def test_traced_methods_are_defined_on_their_classes():
    # ``install`` reads them from the class's own namespace, not through lookup
    trace = load_layertrace()
    for cls, names in ((FormalPowerSeries, trace._SERIES_METHODS),
                       (RiordanArray, ("from_dA", "entry", "materialize", "extract_subarray"))):
        for name in names:
            assert name in vars(cls), f"{cls.__name__}.{name}"
