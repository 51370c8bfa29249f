"""Spans around hankelc's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function wherever a hankelc
module binds it (so calls between the package's own modules are seen,
for example hankelc.transform.bessel_j or hankelc.liouville.hankel_nd)
and two methods on their classes.  Each call becomes a span
[name, site, start, end, parent, request, attrs]; spans stay in memory
until the caller writes `rows()` out.  `layer_counters` reduces spans to additive counters and
`layer_metrics` turns summed counters into the per-layer metrics.
Spans are recorded only while `active` is set.

Self time is a span's duration minus the time covered by its direct
child spans.  Busy time of a name counts only its outermost spans.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# the thresholds of hankelc.bessel: series for z <= 12, the asymptotic
# expansion for z >= max(30, 1.9 nu^2 + 16), backward recurrence between
SERIES_CUTOFF = 12.0


def _asym_cutoff(nu: float) -> float:
    return max(30.0, 1.9 * nu * nu + 16.0)


def _bessel_attrs(args, kwargs):
    nu = float(args[0])
    z = np.asarray(args[1], dtype=float)
    series = int(np.count_nonzero(z <= SERIES_CUTOFF))
    asym = int(np.count_nonzero(z >= _asym_cutoff(nu)))
    return {"points": int(z.size), "series": series, "asymptotic": asym,
            "miller": int(z.size) - series - asym}


def _hankel_nd_attrs(args, kwargs):
    """Kernel requests and the contraction's flop count, from shapes."""
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    rule = args[3] if len(args) > 3 else kwargs["rule"]
    direct = kwargs.get("direct", args[5] if len(args) > 5 else False)
    n, size, outs = grid.dim, rule.size, grid.shape
    if direct:
        flop = 2 * math.prod(outs) * size**n
    else:
        dims, flop = [size] * n, 0
        for a in range(n):
            flop += 2 * outs[a] * math.prod(dims)
            dims[a] = outs[a]
    return {"kernels": n, "flop": flop}


def _weak_key(args, kwargs):
    """Identity of a transform's input inside a weak check."""
    mu, f, grid, rule = args[:4]
    return (tuple(str(m) for m in mu), f,
            hash(tuple(a.tobytes() for a in grid.axes)), hash(rule.nodes.tobytes()))


def _points(coords):
    return int(np.broadcast(*[np.asarray(c) for c in coords]).size)


def _sample_attrs(args, kwargs):
    axes = args[1] if len(args) > 1 else kwargs["axes"]
    return {"points": math.prod(np.asarray(a).size for a in axes)}


def _kernel_basis_attrs(args, kwargs):
    L, max_degree = args[0], args[2] if len(args) > 2 else kwargs["max_degree"]
    return {"unknowns": math.comb(int(max_degree) + L.dim, L.dim)}


# (module, attribute) -> attribute function or None; span name is
# "<module>.<attribute>"
FUNCTIONS = {
    ("bessel", "bessel_j"): _bessel_attrs,
    ("bessel", "reduced_bessel"): None,
    ("quadrature", "build_quadrature"): None,
    ("transform", "hankel_nd"): _hankel_nd_attrs,
    ("transform", "hankel_1d"): None,
    ("transform", "sample_on_nodes"): _sample_attrs,
    ("symbolic", "apply_L"): None,
    ("symbolic", "apply_Sk"): None,
    ("symbolic", "apply_Tk"): None,
    ("symbolic", "kernel_basis"): _kernel_basis_attrs,
    ("symbolic", "check_hypothesis"): None,
    ("liouville", "liouville_solve"): None,
    ("liouville", "weak_spectral_check"): None,
    ("distributions", "taylor_coeffs"): None,
    ("distributions", "pair_delta"): None,
    ("distributions", "pair_delta_transform"): None,
    ("distributions", "reconstruct_point_supported"): None,
    ("distributions", "multiplier_check"): None,
    ("distributions", "richardson_limit"): None,
    ("seminorms", "seminorm_gamma"): None,
    ("seminorms", "seminorm_lambda"): None,
    ("seminorms", "seminorm_rho"): None,
}
METHODS = {
    ("symbolic", "SymbolicHFunction", "evaluate"): "symbolic.evaluate",
    ("cutoff", "WindowedHFunction", "evaluate"): "cutoff.evaluate",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        # spans are recorded only while active, so gates can call hankelc
        # between timed calls without showing up in the trace
        self.active = False
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, site, attrs_fn):
        spans, stack_of = self.spans, self._stack
        clock = time.perf_counter
        weak_site = name == "transform.hankel_nd" and site == "hankelc.liouville"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            if weak_site:
                attrs = dict(attrs or {}, key=_weak_key(args, kwargs))
            stack = stack_of()
            index = len(spans)
            record = [name, site, 0.0, 0.0, stack[-1] if stack else -1, self.request, attrs]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every binding of the traced functions in loaded hankelc modules."""
        modules = {n: m for n, m in sys.modules.items() if n == "hankelc" or n.startswith("hankelc.")}
        for (mod, attr), attrs_fn in FUNCTIONS.items():
            fn = getattr(modules[f"hankelc.{mod}"], attr)
            for mname, module in modules.items():
                if getattr(module, attr, None) is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, f"{mod}.{attr}", mname, attrs_fn))
        for (mod, cls_name, meth), name in METHODS.items():
            cls = getattr(modules[f"hankelc.{mod}"], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))

            def attrs(args, kwargs):
                return {"points": _points(args[1])}

            setattr(cls, meth, self._wrap(fn, name, f"hankelc.{mod}", attrs))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def rows(self) -> list:
        """The spans as JSON-ready rows (attrs without the weak-check keys)."""
        rows = []
        for name, site, start, end, parent, request, attrs in self.spans:
            if attrs and "key" in attrs:
                attrs = {k: v for k, v in attrs.items() if k != "key"}
            rows.append([name, site, start, end, parent, request, attrs])
        return rows


SEMINORMS = {"seminorms.seminorm_gamma", "seminorms.seminorm_lambda", "seminorms.seminorm_rho"}


def layer_counters(spans) -> dict:
    """Additive counters (seconds, counts) from one process's spans."""
    c = defaultdict(float)
    child_time = defaultdict(float)
    for name, site, start, end, parent, request, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    weak_keys = defaultdict(set)

    def outermost(index, names):
        parent = spans[index][4]
        while parent >= 0:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][4]
        return True

    for i, (name, site, start, end, parent, request, attrs) in enumerate(spans):
        dur = end - start
        c[f"n:{name}"] += 1
        c[f"self:{name}"] += dur - child_time.get(i, 0.0)
        # the seminorm functions call each other; count their union once
        names = SEMINORMS if name in SEMINORMS else {name}
        if outermost(i, names):
            c["busy:seminorms" if name in SEMINORMS else f"busy:{name}"] += dur
        if name == "bessel.bessel_j":
            for key in ("points", "series", "miller", "asymptotic"):
                c[f"bessel.{key}"] += attrs[key]
            if site == "hankelc.transform":
                c["transform.kernel_misses"] += 1
        elif name == "transform.hankel_nd":
            c["transform.kernel_requests"] += attrs["kernels"]
            c["transform.contract_flop"] += attrs["flop"]
            if site == "hankelc.liouville":
                weak_keys[request].add(attrs["key"])
                c["liouville.weak_transforms"] += 1
        elif name == "transform.hankel_1d":
            c["transform.kernel_requests"] += 1
        elif name == "transform.sample_on_nodes":
            c["transform.sample_points"] += attrs["points"]
        elif name == "symbolic.evaluate":
            c["symbolic.evaluate_points"] += attrs["points"]
        elif name == "symbolic.kernel_basis":
            c["symbolic.kernel_basis_unknowns"] += attrs["unknowns"]
    c["liouville.weak_distinct"] += sum(len(v) for v in weak_keys.values())
    return dict(c)


def merge_counters(parts) -> dict:
    out = defaultdict(float)
    for part in parts:
        for k, v in part.items():
            out[k] += v
    return dict(out)


def layer_metrics(c: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from summed counters."""
    g = lambda key: c.get(key, 0.0)  # noqa: E731
    ms = lambda key: 1e3 * g(key)  # noqa: E731
    bessel_points = g("bessel.points")
    requests = g("transform.kernel_requests")
    weak = g("liouville.weak_transforms")
    return {
        "bessel.calls": (g("n:bessel.bessel_j"), "count"),
        "bessel.points": (bessel_points, "count"),
        "bessel.busy_ms": (ms("busy:bessel.bessel_j"), "ms"),
        "bessel.ns_per_point": (1e9 * g("busy:bessel.bessel_j") / bessel_points if bessel_points else 0.0, "ns"),
        "bessel.points_series": (g("bessel.series"), "count"),
        "bessel.points_miller": (g("bessel.miller"), "count"),
        "bessel.points_asymptotic": (g("bessel.asymptotic"), "count"),
        "bessel.reduced_calls": (g("n:bessel.reduced_bessel"), "count"),
        "bessel.reduced_busy_ms": (ms("busy:bessel.reduced_bessel"), "ms"),
        "quadrature.build_calls": (g("n:quadrature.build_quadrature"), "count"),
        "quadrature.build_busy_ms": (ms("busy:quadrature.build_quadrature"), "ms"),
        "transform.calls": (g("n:transform.hankel_nd") + g("n:transform.hankel_1d"), "count"),
        "transform.busy_ms": (ms("busy:transform.hankel_nd") + ms("busy:transform.hankel_1d"), "ms"),
        "transform.self_ms": (ms("self:transform.hankel_nd") + ms("self:transform.hankel_1d"), "ms"),
        "transform.kernel_requests": (requests, "count"),
        "transform.kernel_misses": (g("transform.kernel_misses"), "count"),
        "transform.kernel_hit_ratio": (1.0 - g("transform.kernel_misses") / requests if requests else 0.0, "ratio"),
        "transform.sample_calls": (g("n:transform.sample_on_nodes"), "count"),
        "transform.sample_points": (g("transform.sample_points"), "count"),
        "transform.sample_busy_ms": (ms("busy:transform.sample_on_nodes"), "ms"),
        "transform.contract_flop": (g("transform.contract_flop"), "flop_computed"),
        "transform.sample_bytes": (8.0 * g("transform.sample_points"), "byte_computed"),
        "symbolic.evaluate_calls": (g("n:symbolic.evaluate"), "count"),
        "symbolic.evaluate_points": (g("symbolic.evaluate_points"), "count"),
        "symbolic.evaluate_busy_ms": (ms("busy:symbolic.evaluate"), "ms"),
        "symbolic.apply_L_calls": (g("n:symbolic.apply_L"), "count"),
        "symbolic.apply_L_busy_ms": (ms("busy:symbolic.apply_L"), "ms"),
        "symbolic.apply_Sk_busy_ms": (ms("busy:symbolic.apply_Sk"), "ms"),
        "symbolic.apply_Tk_busy_ms": (ms("busy:symbolic.apply_Tk"), "ms"),
        "symbolic.kernel_basis_calls": (g("n:symbolic.kernel_basis"), "count"),
        "symbolic.kernel_basis_unknowns": (g("symbolic.kernel_basis_unknowns"), "count"),
        "symbolic.kernel_basis_self_ms": (ms("self:symbolic.kernel_basis"), "ms"),
        "symbolic.check_hypothesis_calls": (g("n:symbolic.check_hypothesis"), "count"),
        "symbolic.check_hypothesis_busy_ms": (ms("busy:symbolic.check_hypothesis"), "ms"),
        "liouville.solve_calls": (g("n:liouville.liouville_solve"), "count"),
        "liouville.solve_busy_ms": (ms("busy:liouville.liouville_solve"), "ms"),
        "liouville.weak_check_calls": (g("n:liouville.weak_spectral_check"), "count"),
        "liouville.weak_check_busy_ms": (ms("busy:liouville.weak_spectral_check"), "ms"),
        "liouville.weak_check_self_ms": (ms("self:liouville.weak_spectral_check"), "ms"),
        "liouville.weak_transforms": (weak, "count"),
        "liouville.weak_transform_reuse": (g("liouville.weak_distinct") / weak if weak else 0.0, "ratio"),
        "distributions.taylor_busy_ms": (ms("busy:distributions.taylor_coeffs"), "ms"),
        "distributions.pair_delta_busy_ms": (ms("busy:distributions.pair_delta"), "ms"),
        "distributions.pair_transform_busy_ms": (ms("busy:distributions.pair_delta_transform"), "ms"),
        "distributions.reconstruct_busy_ms": (ms("busy:distributions.reconstruct_point_supported"), "ms"),
        "distributions.multiplier_busy_ms": (ms("busy:distributions.multiplier_check"), "ms"),
        "distributions.richardson_calls": (g("n:distributions.richardson_limit"), "count"),
        "seminorms.calls": (
            g("n:seminorms.seminorm_gamma") + g("n:seminorms.seminorm_lambda") + g("n:seminorms.seminorm_rho"),
            "count",
        ),
        "seminorms.busy_ms": (ms("busy:seminorms"), "ms"),
        "cutoff.evaluate_calls": (g("n:cutoff.evaluate"), "count"),
        "cutoff.evaluate_busy_ms": (ms("busy:cutoff.evaluate"), "ms"),
    }
