"""Runtime tracing of the ``riordan`` layers, from the benchmark's own files.

:func:`install` wraps the public functions of ``series``, ``arrays``,
``hypergeom``, ``identities`` and ``cli`` in place, at every module
attribute that holds them (``cli`` binds ``check_registry`` at import,
``arrays`` and ``identities`` bind ``lagrange_solve`` and ``pascal``), so
calls are seen wherever the name is looked up.  Nothing under ``src/`` is
edited.  Each call becomes a span (name, parent, start, end) kept in
memory; :func:`self_times` turns spans into self time, and
:func:`layer_metrics` into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = ("series", "arrays", "hypergeom", "identities", "cli")

SERIES_OPS = (
    "mul", "div", "pow", "compose", "revert", "pow_rational",
    "lagrange_solve", "lagrange_coeffs", "lagrange_gf",
)
# FormalPowerSeries attribute -> op; __rmul__ is a separate class slot
_SERIES_METHODS = {
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div", "__pow__": "pow",
    "compose": "compose", "revert": "revert", "pow_rational": "pow_rational",
}
_SERIES_FUNCS = ("lagrange_solve", "lagrange_coeffs", "lagrange_gf")
ARRAY_FNS = ("from_dA", "entry", "materialize", "extract_subarray",
             "subarray_triangle", "a_sequence")
HYPERGEOM_FNS = ("expand", "binomial_series", "verify_power_identity")
IDENTITY_FNS = ("fuss_ballot_gf", "central_power_gf", "central_ballot_gf",
                "check_product_laws")
CACHES = ("binomial", "_catalan_power_term", "_central_power_term", "_power_fixed_point")
REGISTRY_IDS = (
    "andrews-a1", "andrews-a2", "andrews-a3", "andrews-a121", "andrews-a5",
    "andrews-a6", "andrews-a122", "fibonacci-riordan", "subarray-convolution",
    "catalan-vandermonde", "catalan-column-sum", "catalan-triangle-convolution",
    "ballot-triangle-convolution", "ballot-vandermonde", "rothe-hagen",
    "central-binomial-vandermonde", "product-laws", "hypergeometric-power-law",
)


class Tracer:
    """In-memory spans of one single-threaded process, as parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []  # -1 for a root span
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.max_bits: dict[str, int] = {}
        self.mul_integral = 0
        self.points: dict[str, int] = {}

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span has ended, so its cost falls to the parent span."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            stack.append(sid)
            starts.append(0.0)
            ends.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[sid] = start
                ends[sid] = end
            if after is not None:
                after(args, result)
            return result

        return traced


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)
    out = []
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered, reach = 0.0, lo
        for cid in sorted(children.get(sid, ()), key=starts.__getitem__):
            c_lo, c_hi = max(starts[cid], reach), min(ends[cid], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append((hi - lo) - covered)
    return out


def _bits(series) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs),
        default=0,
    )


def _integral(value) -> bool:
    if isinstance(value, int):
        return True
    if isinstance(value, Fraction):
        return value.denominator == 1
    return all(c.denominator == 1 for c in value.coeffs)


def _rebind(old, new) -> None:
    """Point every ``riordan`` module attribute that holds ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "riordan" or mod_name.startswith("riordan."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the five layers; call after importing riordan."""
    import riordan.arrays as arrays
    import riordan.cli as cli
    import riordan.hypergeom as hypergeom
    import riordan.identities as identities
    import riordan.series as series

    def series_after(op):
        key = f"series.{op}"

        def after(args, result):
            if isinstance(result, series.FormalPowerSeries):
                bits = _bits(result)
                if bits > tracer.max_bits.get(key, 0):
                    tracer.max_bits[key] = bits

        return after

    mul_bits = series_after("mul")

    def mul_after(args, result):
        mul_bits(args, result)
        if result is not NotImplemented and all(_integral(a) for a in args):
            tracer.mul_integral += 1

    fps = series.FormalPowerSeries
    for attr, op in _SERIES_METHODS.items():
        after = mul_after if op == "mul" else series_after(op)
        setattr(fps, attr, tracer.wrap(f"series.{op}", vars(fps)[attr], after))
    for fn in _SERIES_FUNCS:
        orig = getattr(series, fn)
        _rebind(orig, tracer.wrap(f"series.{fn}", orig, series_after(fn)))

    ra = arrays.RiordanArray
    ra.from_dA = classmethod(tracer.wrap("arrays.from_dA", vars(ra)["from_dA"].__func__))
    for method in ("entry", "materialize", "extract_subarray"):
        setattr(ra, method, tracer.wrap(f"arrays.{method}", vars(ra)[method]))
    for fn in ("subarray_triangle", "a_sequence"):
        orig = getattr(arrays, fn)
        _rebind(orig, tracer.wrap(f"arrays.{fn}", orig))

    for mod, layer, fns in ((hypergeom, "hypergeom", HYPERGEOM_FNS),
                            (identities, "identities", IDENTITY_FNS)):
        for fn in fns:
            orig = getattr(mod, fn)
            _rebind(orig, tracer.wrap(f"{layer}.{fn}", orig))

    # one span per registry identity, named by its id
    check = identities.check_registry

    def count_points(args, report):
        tracer.points[args[0]] = tracer.points.get(args[0], 0) + report.points

    by_id = {i: tracer.wrap(f"identities.{i}", check, count_points) for i in REGISTRY_IDS}

    @functools.wraps(check)
    def check_registry(identity, *args, **kwargs):
        return by_id.get(identity, check)(identity, *args, **kwargs)

    _rebind(check, check_registry)
    _rebind(cli.main, tracer.wrap("cli.main", cli.main))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload run, by BENCHMARK.json name."""
    import riordan.identities as identities

    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    columns_built = 0
    for sid, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        total_s[name] = total_s.get(name, 0.0) + tracer.ends[sid] - tracer.starts[sid]
        layer_self[name.split(".", 1)[0]] += own[sid]
        parent = tracer.parents[sid]
        if name == "series.mul" and parent >= 0 and tracer.names[parent].startswith("arrays."):
            columns_built += 1

    out: dict[str, float] = {}

    def calls_and_self(name):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    for op in SERIES_OPS:
        calls_and_self(f"series.{op}")
        out[f"series.{op}.max_bits"] = tracer.max_bits.get(f"series.{op}", 0)
    muls = calls.get("series.mul", 0)
    out["series.mul.integral_share"] = tracer.mul_integral / muls if muls else 0.0
    for fn in ARRAY_FNS:
        calls_and_self(f"arrays.{fn}")
    out["arrays.columns_built"] = columns_built
    entries = calls.get("arrays.entry", 0)
    out["arrays.entries_per_column"] = entries / columns_built if columns_built else 0.0
    for fn in HYPERGEOM_FNS:
        calls_and_self(f"hypergeom.{fn}")
    for ident in REGISTRY_IDS:
        seconds = total_s.get(f"identities.{ident}", 0.0)
        out[f"identities.{ident}.s"] = seconds
        out[f"identities.{ident}.points_per_s"] = (
            tracer.points.get(ident, 0) / seconds if seconds else 0.0)
    for fn in IDENTITY_FNS:
        calls_and_self(f"identities.{fn}")
    for cache in CACHES:
        info = getattr(identities, cache).cache_info()
        out[f"identities.cache.{cache}.hits"] = info.hits
        out[f"identities.cache.{cache}.misses"] = info.misses
        out[f"identities.cache.{cache}.currsize"] = info.currsize
    out["identities.cache.fib.len"] = len(identities._fib_cache)
    calls_and_self("cli.main")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    traced_s = sum(own)
    out["trace.wall_s"] = wall_s
    out["trace.self_total_s"] = traced_s
    out["trace.remainder_s"] = wall_s - traced_s
    return out
