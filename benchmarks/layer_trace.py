"""Per-layer tracing of condks, done from outside the package.

``LayerTracer`` wraps the public functions and methods of each condks
module (the layers) and records one span per call: name, start, end,
parent span and, where the layer has one, a work count (values handled)
or the call's arguments.  Spans stay in memory; ``job_metrics`` turns
one job's spans into per-layer figures and clears them.

Functions are imported by name across the package (``cli``,
``monte_carlo`` and ``testing`` each hold their own reference to
``exact_cdf``, ``p_value`` or ``pit_transform``), so a wrapper replaces
the original in every condks module namespace that holds it, not only
in the defining module.  Methods are wrapped on the classes that define
them.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

# Layer functions: (module, attribute), traced as "<module>.<attribute>".
FUNCTIONS = (
    ("specs", "load_scenario"),
    ("specs", "parse_family_spec"),
    ("monte_carlo", "replicate_rng"),
    ("monte_carlo", "run_replicates"),
    ("monte_carlo", "meta_test"),
    ("conditional", "pit_transform"),
    ("empirical", "ks_statistic_uniform"),
    ("kolmogorov", "exact_cdf"),
    ("kolmogorov", "p_value"),
    ("kolmogorov", "critical_value"),
    ("kolmogorov", "asymptotic_cdf"),
    ("testing", "conditional_ks_test"),
)

# Layer methods: (module, method, span name, work count from the call's
# arguments).  Every class of the module that defines the method is
# wrapped: the zeta samplers' draw(rng, size), the families' cdf(x, zeta)
# and quantile(p, zeta), and validate_zetas(zetas).
METHODS = (
    ("monte_carlo", "draw", "monte_carlo.draw", lambda a: int(a[2])),
    ("conditional", "quantile", "conditional.quantile", lambda a: int(np.size(a[1]))),
    ("conditional", "cdf", "conditional.cdf", lambda a: int(np.size(a[1]))),
    ("conditional", "validate_zetas", "conditional.validate_zetas",
     lambda a: int(np.size(a[1]))),
)

# Class constructors: a construction is one call.
CONSTRUCTORS = (("empirical", "SortedUnitSample"),)

# Call arguments kept for the null law, to count repeated arguments and
# compute the matrix work.
ARGUMENTS = {"kolmogorov.exact_cdf": lambda a: (int(a[0]), float(a[1]))}

ROOT = "cli"

# Layers whose span self time is reported.
SELF_TIMED = ("cli", "monte_carlo.run_replicates")
VALUE_COUNTED = tuple(name for _, _, name, _ in METHODS)


def mtw_matmul_flops(n: int, d: float) -> int:
    """Floating-point operations of the MTW matrix power for P(D_n <= d).

    Computed, not timed: 0 when ``exact_cdf`` returns before building
    the matrix, else 2 m^3 per m x m product, for m = 2 ceil(nd) - 1
    and the squarings plus multiplies of binary powering to n.
    """
    if d <= 0.0 or d >= 1.0 or n * d <= 0.5 or 2.0 * math.exp(-2.0 * n * d * d) < 1e-16:
        return 0
    m = 2 * (int(n * d) + 1) - 1
    products = (n.bit_length() - 1) + bin(n).count("1")
    return 2 * m ** 3 * products


class LayerTracer:
    """Records spans at condks layer boundaries while installed.

    Use as a context manager around the work to trace; wrap each job in
    ``span(ROOT)`` so layer calls have the job as their ancestor.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------

    def _wrap(self, name: str, fn: Callable, extract: Callable | None) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            info = extract(args) if extract is not None else None
            nested = active.get(name, 0) > 0
            active[name] = active.get(name, 0) + 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[index] = (name, start, end, parent, nested, info)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span named ``name`` around the ``with`` body."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, False, None)

    # -- installing --------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: sys.modules[f"condks.{m}"] for m in
                   {mod for mod, _ in FUNCTIONS} | {mod for mod, *_ in METHODS}
                   | {mod for mod, _ in CONSTRUCTORS}}
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == "condks" or key.startswith("condks."))]
        for module, attr in FUNCTIONS:
            name = f"{module}.{attr}"
            original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original, ARGUMENTS.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapper)
        for module, attr, name, count in METHODS:
            for cls in _classes(modules[module]):
                method = cls.__dict__.get(attr)
                if method is not None and not getattr(method, "__isabstractmethod__", False):
                    self._set(cls, attr, self._wrap(name, method, count))
        for module, attr in CONSTRUCTORS:
            cls = getattr(modules[module], attr)
            self._set(cls, "__init__",
                      self._wrap(f"{module}.{attr}", cls.__dict__["__init__"], None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- reducing ----------------------------------------------------

    def job_metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last call.

        ``busy_s`` is inclusive time (a call nested in a call of the same
        layer is not counted twice); ``self_s`` excludes child spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        args: list[tuple[int, float]] = []
        for index, (name, start, end, parent, nested, info) in enumerate(spans):
            add(f"{name}.calls", 1)
            if not nested:
                add(f"{name}.busy_s", end - start)
            if name in SELF_TIMED:
                add(f"{name}.self_s", end - start - child[index])
            if name in VALUE_COUNTED:
                add(f"{name}.values", info)
            if name == "kolmogorov.exact_cdf":
                args.append(info)
        flops = [mtw_matmul_flops(n, d) for n, d in args]
        out["kolmogorov.exact_cdf.matrix_calls"] = float(sum(1 for f in flops if f))
        out["kolmogorov.exact_cdf.matmul_flops"] = float(sum(flops))
        out["kolmogorov.exact_cdf.distinct_ratio"] = (
            len(set(args)) / len(args) if args else 0.0)
        spans.clear()
        return out


def _classes(module) -> list[type]:
    return [value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__]
