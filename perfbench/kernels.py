"""Jet-kernel grid: time per call of each kernel operation over a fixed
(variables, order) grid, with the exact Cauchy pair count and the computed
bytes one product moves.

Operands are dense seeded jets (every coefficient nonzero, constant term 1),
so products take the Cauchy path; ``compose`` substitutes dense jets with
zero constant term; ``matmul`` multiplies two dense 3x3 jet matrices.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from regfman.jets import JetMatrix, jet_space

from tracing import cauchy_pairs, product_bytes

GRID = ((2, 4), (4, 4), (4, 6), (6, 4), (6, 6), (8, 4))
OPS = ("mul", "partial", "invert", "sqrt", "compose", "matmul")
BATCH_S = 0.01  # calls per timed batch fill about this long
BATCHES = 5


def _dense(space, rng, const=1.0):
    c = (rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)) * 0.3
    c[0] = const
    return space.from_coeffs(c)


def _per_call_us(fn) -> float:
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    calls = max(1, int(BATCH_S / max(first, 1e-7)))
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples) * 1e6


def grid(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for nvars, order in GRID:
        sp = jet_space(nvars, order)
        a, b = _dense(sp, rng), _dense(sp, rng)
        subs = [_dense(sp, rng, const=0.0) for _ in range(nvars)]
        ma = JetMatrix([[_dense(sp, rng) for _ in range(3)] for _ in range(3)])
        mb = JetMatrix([[_dense(sp, rng) for _ in range(3)] for _ in range(3)])
        calls = {
            "mul": lambda: a * b,
            "partial": lambda: a.partial(nvars - 1),
            "invert": a.invert,
            "sqrt": a.sqrt,
            "compose": lambda: a.compose(subs),
            "matmul": lambda: ma @ mb,
        }
        cell = f"v{nvars}k{order}"
        for op in OPS:
            out[f"jets.kernel.{op}.{cell}_us"] = (_per_call_us(calls[op]), "us")
        out[f"jets.kernel.mul.{cell}_pairs"] = (cauchy_pairs(sp), "count")
        out[f"jets.kernel.mul.{cell}_bytes_computed"] = (product_bytes(sp), "bytes")
    return out
