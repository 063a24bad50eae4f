"""The names the benchmark's per-layer tracer reads must exist in ``riordan``.

``bench/layertrace.py`` wraps functions and reads caches by name; a name
deleted or renamed here would otherwise go unnoticed until a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

from riordan import hypergeom, identities

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
                       (identities, (*trace.IDENTITY_FNS, *trace.CACHES))):
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
    for name in trace.CACHES:
        assert getattr(identities, name).cache_info().currsize >= 0, name
