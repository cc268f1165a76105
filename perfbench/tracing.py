"""Spans around every public function of each regfman layer.

The traced run patches, for its duration only:

* every public module-level function of ``jets``, ``regend``, ``fman``,
  ``frob``, ``saito``, ``malgrange`` and ``cli``, rebound in every regfman
  namespace that holds it (``malgrange`` imports ``germ_isomorphism`` and
  others by name, so wrapping the defining module alone would miss them);
* the kernel methods ``Jet.__mul__``, ``Jet.compose``, ``Jet.partial``,
  ``Jet.invert``, ``Jet.sqrt`` and ``JetMatrix.__matmul__`` on the classes
  themselves, and ``JetSpace.__init__`` for build times.

An operation makes tens of thousands of ``Jet.__mul__`` calls, so spans are
not stored one by one: each span name keeps its call count, its total time
(outermost calls only) and its self time (duration minus the time its child
spans cover), aggregated in memory and written to ``.bench_trace/`` at the
end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("jets", "regend", "fman", "frob", "saito", "malgrange", "cli")

# traced operations per run, from the start of the schedule: a fixed list,
# so that the counts repeat exactly for a seed (docs: the whole pool)
TRACE_OPS = {"docs": 152, "verify": 22, "extend": 44}

_KERNEL_METHODS = (
    ("Jet", "__mul__", "mul"),
    ("Jet", "compose", "compose"),
    ("Jet", "partial", "partial"),
    ("Jet", "invert", "invert"),
    ("Jet", "sqrt", "sqrt"),
    ("JetMatrix", "__matmul__", "matmul"),
)

_PAIRS: dict[tuple[int, int], int] = {}


def cauchy_pairs(space) -> int:
    """Ordered coefficient pairs (i, j) with deg i + deg j <= K: the
    multiply-adds of one dense Cauchy product, counted from
    ``space.degrees``."""
    key = (space.num_vars, space.order)
    if key not in _PAIRS:
        per_degree = np.bincount(space.degrees, minlength=space.order + 1)
        cumulative = np.cumsum(per_degree)
        _PAIRS[key] = int(sum(per_degree[d] * cumulative[space.order - d] for d in range(space.order + 1)))
    return _PAIRS[key]


def product_bytes(space) -> int:
    """Computed bytes one Cauchy product moves: two complex operands read
    per pair and one complex output written per coefficient; index tables
    and cache effects are not counted."""
    return 16 * (2 * cauchy_pairs(space) + space.size)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self.space_builds: list[tuple[int, float]] = []  # (size, seconds)
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._scopes: list[set] = []  # substitutions seen per non-kernel span
        self._patches: list[tuple[object, str, object]] = []
        self._last_error = None

    # -- installation ----------------------------------------------------------

    def install(self):
        import importlib

        import regfman
        from regfman import jets

        modules = [importlib.import_module(f"regfman.{layer}") for layer in LAYERS]
        namespaces = [regfman] + modules
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._span(f"{layer}.{name}", fn, scope=layer != "jets")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for cls_name, method, stem in _KERNEL_METHODS:
            cls = getattr(jets, cls_name)
            fn = getattr(cls, method)
            counted = getattr(self, f"_count_{stem}", None)
            self._patch(cls, method, self._span(f"jets.{stem}", counted(fn) if counted else fn))
        self._patch(jets.JetSpace, "__init__", self._timed_space(jets.JetSpace.__init__))
        import workloads

        self._patch(workloads, "_encode", self._span("bench.encode", self._count_bytes(workloads._encode)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_ops(self):
        """Forget spans recorded while the inputs were built."""
        for stat in self.stats.values():
            stat.calls = stat.errors = 0
            stat.total_s = stat.self_s = 0.0
        self.counts.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, scope=False):
        stat = self.stats.setdefault(name, _Stat())
        stack, scopes, clock = self._stack, self._scopes, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            if scope:
                scopes.append(set())
            stat.depth += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:  # count where it was raised
                    self._last_error = exc
                    stat.errors += 1
                raise
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if scope:
                    scopes.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stat.depth == 0:
                    stat.total_s += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_mul(self, fn):
        from regfman.jets import Jet

        def mul(a, b):
            if isinstance(b, Jet):
                self._count("mul.products")
                x, y = a.coeffs, b.coeffs
                # the zero and constant short cuts of Jet.__mul__
                if x.any() and y.any() and x[1:].any() and y[1:].any():
                    self._count("mul.cauchy")
                    self._count("mul.pairs", cauchy_pairs(a.space))
                    self._count("mul.bytes", product_bytes(a.space))
            return fn(a, b)

        return mul

    def _count_compose(self, fn):
        def compose(jet, subs):
            if self._scopes:
                key = tuple(map(id, subs))
                seen = self._scopes[-1]
                if key in seen:
                    self._count("compose.shared")
                seen.add(key)
            return fn(jet, subs)

        return compose

    def _count_bytes(self, fn):
        def encode(report):
            text = fn(report)
            self._count("report_bytes", len(text))
            return text

        return encode

    def _timed_space(self, fn):
        def init(space, *args, **kwargs):
            start = time.perf_counter()
            fn(space, *args, **kwargs)
            self.space_builds.append((space.size, time.perf_counter() - start))

        return init

    # -- results -------------------------------------------------------------------

    def _stat(self, name) -> _Stat:
        return self.stats.get(name) or _Stat()

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            own = [s for n, s in self.stats.items() if n.startswith(layer + ".")]
            out[f"{layer}.self_s"] = (sum(s.self_s for s in own), "s")
        mul = self._stat("jets.mul")
        products = self.counts.get("mul.products", 0)
        compose = self._stat("jets.compose")
        out.update(
            {
                "jets.mul.calls": (mul.calls, "count"),
                "jets.mul.self_s": (mul.self_s, "s"),
                "jets.mul.cauchy_ratio": (self.counts.get("mul.cauchy", 0) / max(products, 1), "ratio"),
                "jets.mul.pairs": (self.counts.get("mul.pairs", 0), "count"),
                "jets.mul.bytes_computed": (self.counts.get("mul.bytes", 0), "bytes"),
                "jets.matmul.calls": (self._stat("jets.matmul").calls, "count"),
                "jets.matmul.self_s": (self._stat("jets.matmul").self_s, "s"),
                "jets.compose.calls": (compose.calls, "count"),
                "jets.compose.self_s": (compose.self_s, "s"),
                "jets.compose.total_s": (compose.total_s, "s"),
                "jets.compose.shared_subs_ratio": (
                    self.counts.get("compose.shared", 0) / max(compose.calls, 1), "ratio"),
                "jets.partial.calls": (self._stat("jets.partial").calls, "count"),
                "jets.invert.calls": (self._stat("jets.invert").calls, "count"),
                "jets.sqrt.calls": (self._stat("jets.sqrt").calls, "count"),
                "jets.space.build_s": (sum(t for _, t in self.space_builds), "s"),
                "jets.space.max_size": (max((n for n, _ in self.space_builds), default=0), "count"),
                "regend.jordan_spectrum.calls": (self._stat("regend.jordan_spectrum").calls, "count"),
                "regend.is_regular.calls": (self._stat("regend.is_regular").calls, "count"),
                "regend.errors": (
                    sum(s.errors for n, s in self.stats.items() if n.startswith("regend.")), "count"),
                "fman.germ_isomorphism.calls": (self._stat("fman.germ_isomorphism").calls, "count"),
                "frob.levi_civita_curvature.calls": (self._stat("frob.levi_civita_curvature").calls, "count"),
                "malgrange.fmanifold_on_chart.calls": (self._stat("malgrange.fmanifold_on_chart").calls, "count"),
                "malgrange.expand_in_matrix_frame.calls": (
                    self._stat("malgrange.expand_in_matrix_frame").calls, "count"),
                "cli.encode_s": (self._stat("bench.encode").total_s, "s"),
                "cli.report_bytes": (self.counts.get("report_bytes", 0), "bytes"),
            }
        )
        for name in (
            "fman.check_fmanifold", "fman.germ_isomorphism", "fman.standard_model",
            "frob.frobenius_verdict", "frob.darboux_egoroff_residual", "frob.levi_civita_curvature",
            "saito.check_saito_axioms", "saito.check_saito_metric_axioms", "saito.birkhoff_flatness",
            "malgrange.integrate_chart", "malgrange.fmanifold_on_chart", "malgrange.initial_condition_extend",
        ):
            out[f"{name}.total_s"] = (self._stat(name).total_s, "s")
        return out

    def write_table(self, root, workload, seed) -> str:
        """Write the aggregated spans; returns the path relative to root."""
        rel = os.path.join(".bench_trace", f"{workload}-seed{seed}.json")
        os.makedirs(os.path.join(root, ".bench_trace"), exist_ok=True)
        table = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "errors": s.errors}
            for name, s in sorted(self.stats.items())
            if s.calls
        }
        with open(os.path.join(root, rel), "w", encoding="utf-8") as handle:
            json.dump({"spans": table, "counts": self.counts, "space_builds": self.space_builds}, handle, indent=1)
        return rel
