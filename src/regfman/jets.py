"""Truncated multivariate power series ("jets") over complex scalars.

A jet represents a holomorphic germ at the origin up to a fixed total order
``K``: a dense table of complex coefficients indexed by multi-indices of
total degree at most ``K``.  All differential-geometric identities in this
package are evaluated as residuals of jets, so the kernel favours plain
``numpy`` coefficient arrays with precomputed index tables for the Cauchy
product, partial derivatives and integration.

Jets are immutable after construction.  Every jet carries an *effective
order*: the highest total degree at which its coefficients are trustworthy.
A fresh jet has effective order ``K``; a partial derivative lowers it by
one (the top coefficients of the result would need unknown order-``K+1``
data, so they are stored as zeros and excluded from residual norms).
Binary operations propagate the minimum of the operands' effective orders.

:class:`JetArray` is the one container the package computes with: a batch
of jets (a field, a one-form, a matrix, a structure tensor) as one array
of shape ``(*batch, size)`` with a per-entry array of effective orders,
stored only as wide as its coefficients can be nonzero.  Indexing down to
one entry gives a :class:`Jet`, the read-only scalar that reports read.
:func:`contract` multiplies two arrays in einsum notation over the batch
axes, with the Cauchy product on the coefficient axis: each output entry
gets the effective order and truncation of the same sum of ``Jet``
products and equals that sum up to round-off (a lone product with nothing
pruned bit for bit).  Its work follows the coefficients that are there: an
operand whose entries are all constant scales the other one; otherwise
only the Cauchy pairs inside the two operands' supports are formed, from a
pair table the space caches.  Identities that a loop would evaluate entry
by entry (brackets, associativity, Darboux-Egoroff, curvature, the one-form
recursions) are written as a few contractions, and inverses and square
roots as Newton iterations on whole arrays.  A :class:`Substitution`
composes jets with one substitution through a monomial table built once.

``Jet`` arithmetic and :class:`JetMatrix` are the object kernel the arrays
replaced; no other module computes with them.  They remain for building
inputs one jet at a time and for timing the two kernels against each other.
"""

from __future__ import annotations

import bisect
import math
import operator
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import InvalidAnchorError, ShapeError, SingularInputError

DEFAULT_ORDER = 4

_EPS = np.finfo(float).eps


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


class JetSpace:
    """Shared index tables for all jets with a fixed (num_vars, order).

    Obtain instances through :func:`jet_space`; the factory caches them so
    spaces compare by identity.
    """

    def __init__(self, num_vars: int, order: int):
        if num_vars < 1:
            raise ShapeError(f"num_vars must be positive, got {num_vars}")
        if order < 0:
            raise ShapeError(f"order must be non-negative, got {order}")
        self.num_vars = num_vars
        self.order = order

        exponents: list[tuple[int, ...]] = []
        for d in range(order + 1):
            exponents.extend(_compositions(d, num_vars))
        self.exponents: tuple[tuple[int, ...], ...] = tuple(exponents)
        self.size = len(exponents)
        self.index_of: dict[tuple[int, ...], int] = {
            e: i for i, e in enumerate(exponents)
        }
        self.degrees = np.array([sum(e) for e in exponents], dtype=np.int64)

        # Per-variable derivative, integration and shift tables.
        self._diff: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._shift: list[tuple[np.ndarray, np.ndarray]] = []
        for v in range(num_vars):
            src, dst, fac = [], [], []
            s_src, s_dst = [], []
            for i, e in enumerate(exponents):
                if e[v] > 0:
                    low = list(e)
                    low[v] -= 1
                    src.append(i)
                    dst.append(self.index_of[tuple(low)])
                    fac.append(e[v])
                if self.degrees[i] < order:
                    up = list(e)
                    up[v] += 1
                    s_src.append(i)
                    s_dst.append(self.index_of[tuple(up)])
            self._diff.append(
                (
                    np.array(src, dtype=np.int64),
                    np.array(dst, dtype=np.int64),
                    np.array(fac, dtype=np.float64),
                )
            )
            self._shift.append(
                (np.array(s_src, dtype=np.int64), np.array(s_dst, dtype=np.int64))
            )

        self._trunc_masks = [self.degrees <= d for d in range(order + 1)]
        # _degree_ends[d]: the number of monomials of degree at most d
        self._degree_ends = np.cumsum(np.bincount(self.degrees, minlength=order + 1)).tolist()
        self._pair_tables: dict[tuple[bytes, bytes], tuple[np.ndarray, ...]] = {}

    @cached_property
    def _cauchy(self) -> tuple[np.ndarray, ...]:
        """Cauchy product table, built on first use: all ordered index pairs
        ``(ii, jj)`` whose degrees fit, sorted by their target index ``kk``,
        plus the distinct targets and where each group starts."""
        ii, jj, kk = [], [], []
        for i, ei in enumerate(self.exponents):
            di = self.degrees[i]
            for j, ej in enumerate(self.exponents):
                if di + self.degrees[j] > self.order:
                    continue
                ii.append(i)
                jj.append(j)
                kk.append(self.index_of[tuple(a + b for a, b in zip(ei, ej))])
        kk_arr = np.array(kk, dtype=np.int64)
        sort = np.argsort(kk_arr, kind="stable")
        kk_sorted = kk_arr[sort]
        out, starts = np.unique(kk_sorted, return_index=True)
        return (
            np.array(ii, dtype=np.int64)[sort],
            np.array(jj, dtype=np.int64)[sort],
            kk_sorted,
            out,
            starts,
        )

    def _pairs(self, used_a: np.ndarray, used_b: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rows of :attr:`_cauchy` whose first index lies in the support
        ``used_a`` and second in ``used_b`` (boolean masks over a prefix of
        the coefficients each, ending at the last used position): the index
        pairs, their distinct targets and the bounds of each target's group.
        The last ``_PAIR_CACHE`` tables are kept, keyed by the two masks."""
        key = (used_a.tobytes(), used_b.tobytes())
        table = self._pair_tables.get(key)
        if table is None:
            ii, jj, kk, _, _ = self._cauchy
            keep = (ii < len(used_a)) & (jj < len(used_b))
            ii, jj, kk = ii[keep], jj[keep], kk[keep]
            keep = used_a[ii] & used_b[jj]
            ii, jj, kk = ii[keep], jj[keep], kk[keep]
            targets, starts = np.unique(kk, return_index=True)
            if len(self._pair_tables) >= _PAIR_CACHE:
                del self._pair_tables[next(iter(self._pair_tables))]
            table = self._pair_tables[key] = (ii, jj, targets, np.append(starts, len(ii)))
        return table

    def _shifted_width(self, width: int, by: int) -> int:
        """Columns that hold the degrees of a ``width``-column prefix raised
        by ``by`` (capped at the order); at least one."""
        d = bisect.bisect_left(self._degree_ends, width) + by
        return self._degree_ends[min(d, self.order)] if d >= 0 else 1

    def _diff_rows(self, v: int, width: int) -> tuple[np.ndarray, ...]:
        """The rows of the derivative table of variable ``v`` whose source
        column lies in a ``width``-column prefix (the sources ascend)."""
        src, dst, fac = self._diff[v]
        if width < self.size:
            n = int(np.searchsorted(src, width))
            src, dst, fac = src[:n], dst[:n], fac[:n]
        return src, dst, fac

    @cached_property
    def _factors(self) -> tuple[tuple[int, int], ...]:
        """For each monomial past the constant one, its first variable ``v``
        and the index of the monomial divided by ``t_v``."""
        out = []
        for e in self.exponents[1:]:
            v = next(k for k, x in enumerate(e) if x > 0)
            low = list(e)
            low[v] -= 1
            out.append((v, self.index_of[tuple(low)]))
        return tuple(out)

    # -- constructors -----------------------------------------------------

    def _wrap(self, coeffs: np.ndarray, eff_order: int) -> "Jet":
        eff_order = min(eff_order, self.order)
        if eff_order < self.order:
            coeffs = np.where(self._trunc_masks[max(eff_order, 0)], coeffs, 0.0)
        coeffs.setflags(write=False)
        return Jet(self, coeffs, eff_order)

    def zero(self, eff_order: int | None = None) -> "Jet":
        return self._wrap(
            np.zeros(self.size, dtype=np.complex128),
            self.order if eff_order is None else eff_order,
        )

    def constant(self, value: complex) -> "Jet":
        c = np.zeros(self.size, dtype=np.complex128)
        c[0] = value
        return self._wrap(c, self.order)

    def one(self) -> "Jet":
        return self.constant(1.0)

    def variable(self, v: int) -> "Jet":
        if not 0 <= v < self.num_vars:
            raise ShapeError(f"variable index {v} out of range for {self.num_vars} vars")
        c = np.zeros(self.size, dtype=np.complex128)
        if self.order >= 1:
            e = [0] * self.num_vars
            e[v] = 1
            c[self.index_of[tuple(e)]] = 1.0
        return self._wrap(c, self.order)

    def from_coeffs(self, coeffs: Sequence[complex], eff_order: int | None = None) -> "Jet":
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape != (self.size,):
            raise ShapeError(f"expected {self.size} coefficients, got {arr.shape}")
        return self._wrap(arr.copy(), self.order if eff_order is None else eff_order)

    def from_terms(self, terms: dict[tuple[int, ...], complex]) -> "Jet":
        c = np.zeros(self.size, dtype=np.complex128)
        for exp, val in terms.items():
            exp = tuple(int(x) for x in exp)
            if len(exp) != self.num_vars:
                raise ShapeError(f"multi-index {exp} has wrong length")
            if any(x < 0 for x in exp):
                raise ShapeError(f"multi-index {exp} has negative entries")
            if sum(exp) > self.order:
                raise ShapeError(f"multi-index {exp} exceeds order {self.order}")
            c[self.index_of[exp]] += val
        return self._wrap(c, self.order)

    def variables(self) -> list["Jet"]:
        return [self.variable(v) for v in range(self.num_vars)]

    def __repr__(self):
        return f"JetSpace(num_vars={self.num_vars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(num_vars: int, order: int) -> JetSpace:
    return JetSpace(num_vars, order)


class Jet:
    """One truncated power series; use :class:`JetSpace` methods to build."""

    __slots__ = ("space", "coeffs", "eff_order")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, eff_order: int):
        self.space = space
        self.coeffs = coeffs
        self.eff_order = eff_order

    # -- helpers ----------------------------------------------------------

    def _check_compatible(self, other: "Jet") -> JetSpace:
        if self.space is not other.space:
            if (
                self.space.num_vars != other.space.num_vars
                or self.space.order != other.space.order
            ):
                raise ShapeError(
                    f"incompatible jets: {self.space} vs {other.space}; "
                    "coerce explicitly with Jet.in_space"
                )
        return self.space

    @property
    def value0(self) -> complex:
        """Constant term (the value of the germ at the base point)."""
        return complex(self.coeffs[0])

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_constant(self) -> bool:
        return not self.coeffs[1:].any()

    def in_space(self, space: JetSpace) -> "Jet":
        """Coerce to another order (truncation or extension by zero)."""
        if space is self.space:
            return self
        if space.num_vars != self.space.num_vars:
            raise ShapeError("cannot coerce between different variable counts")
        c = np.zeros(space.size, dtype=np.complex128)
        for i, e in enumerate(self.space.exponents):
            if self.space.degrees[i] <= space.order:
                c[space.index_of[e]] = self.coeffs[i]
        return space._wrap(c, min(self.eff_order, space.order))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            sp = self._check_compatible(other)
            eff = min(self.eff_order, other.eff_order)
            return sp._wrap(self.coeffs + other.coeffs, eff)
        return self + self.space.constant(other)

    __radd__ = __add__

    def __neg__(self):
        return self.space._wrap(-self.coeffs, self.eff_order)

    def __sub__(self, other):
        if isinstance(other, Jet):
            sp = self._check_compatible(other)
            eff = min(self.eff_order, other.eff_order)
            return sp._wrap(self.coeffs - other.coeffs, eff)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        sp = self._check_compatible(other)
        eff = min(self.eff_order, other.eff_order)
        a, b = self.coeffs, other.coeffs
        if not a.any() or not b.any():
            return sp.zero(eff)
        if self.is_constant():
            return sp._wrap(b * a[0], eff)
        if other.is_constant():
            return sp._wrap(a * b[0], eff)
        ii, jj, _, targets, starts = sp._cauchy
        prod = a[ii] * b[jj]
        out = np.zeros(sp.size, dtype=np.complex128)
        out[targets] = np.add.reduceat(prod, starts)
        return sp._wrap(out, eff)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: complex) -> "Jet":
        return self.space._wrap(self.coeffs * complex(c), self.eff_order)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.invert()
        return self.scale(1.0 / complex(other))

    def __pow__(self, n: int) -> "Jet":
        if n < 0:
            return self.invert() ** (-n)
        result = self.space.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, v: int) -> "Jet":
        """Formal partial derivative; lowers the effective order by one."""
        sp = self.space
        if not 0 <= v < sp.num_vars:
            raise ShapeError(f"variable index {v} out of range")
        src, dst, fac = sp._diff[v]
        out = np.zeros(sp.size, dtype=np.complex128)
        out[dst] = self.coeffs[src] * fac
        return sp._wrap(out, max(self.eff_order - 1, -1))

    def invert(self, tol: float = 1e-12) -> "Jet":
        """Multiplicative inverse (see :meth:`JetArray.invert`)."""
        return JetArray.from_jets(self).invert(tol)[()]

    def sqrt(self, branch_anchor: complex | None = None, tol: float = 1e-9) -> "Jet":
        """Square root with the branch fixed by ``branch_anchor`` (see
        :meth:`JetArray.sqrt`)."""
        return JetArray.from_jets(self).sqrt([branch_anchor], tol)[()]

    def compose(self, subs: Sequence["Jet"]) -> "Jet":
        """Substitute ``subs[i]`` for variable ``i`` (see :class:`Substitution`)."""
        return Substitution(self.space, subs)(self)

    # -- reporting ----------------------------------------------------------

    def residual_norm(self) -> float:
        """Max coefficient modulus over the trustworthy degrees."""
        if self.eff_order < 0:
            raise ValueError("jet has no trustworthy coefficients (eff_order < 0)")
        mask = self.space._trunc_masks[min(self.eff_order, self.space.order)]
        vals = np.abs(self.coeffs[mask])
        return float(vals.max()) if vals.size else 0.0

    def terms(self) -> dict[tuple[int, ...], complex]:
        return {
            e: complex(self.coeffs[i])
            for i, e in enumerate(self.space.exponents)
            if self.coeffs[i] != 0
        }

    def __repr__(self):
        body = ", ".join(
            f"{e}:{c:.4g}" for e, c in list(self.terms().items())[:6]
        )
        more = "..." if len(self.terms()) > 6 else ""
        return f"Jet({self.space.num_vars}v,K={self.space.order},eff={self.eff_order}; {body}{more})"


# -- jet matrices -------------------------------------------------------------


class JetMatrix:
    """Rectangular grid of jets sharing one space."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Jet]]):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ShapeError("JetMatrix must be non-empty")
        ncols = len(rows[0])
        sp = rows[0][0].space
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("JetMatrix rows must have equal length")
            for x in r:
                if x.space is not sp:
                    raise ShapeError("JetMatrix entries must share one space")
        self.entries = rows
        self.rows = len(rows)
        self.cols = ncols

    @property
    def space(self) -> JetSpace:
        return self.entries[0][0].space

    @classmethod
    def from_constant(cls, space: JetSpace, matrix: np.ndarray) -> "JetMatrix":
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2:
            raise ShapeError("constant matrix must be 2-dimensional")
        return cls(
            [[space.constant(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]
        )

    @classmethod
    def identity(cls, space: JetSpace, n: int) -> "JetMatrix":
        return cls.from_constant(space, np.eye(n))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __add__(self, other: "JetMatrix") -> "JetMatrix":
        self._same_shape(other)
        return JetMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "JetMatrix") -> "JetMatrix":
        self._same_shape(other)
        return JetMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self):
        return JetMatrix([[-a for a in r] for r in self.entries])

    def scale(self, f: "Jet | complex") -> "JetMatrix":
        if isinstance(f, Jet):
            return JetMatrix([[a * f for a in r] for r in self.entries])
        return JetMatrix([[a.scale(f) for a in r] for r in self.entries])

    def _same_shape(self, other: "JetMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"matrix shapes differ: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        if not isinstance(other, JetMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("inner dimensions do not match")
        cols = list(zip(*other.entries))
        return JetMatrix(
            [[reduce(operator.add, map(operator.mul, row, col)) for col in cols] for row in self.entries]
        )

    def transpose(self) -> "JetMatrix":
        return JetMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    @property
    def T(self) -> "JetMatrix":
        return self.transpose()

    def partial(self, v: int) -> "JetMatrix":
        return JetMatrix([[a.partial(v) for a in r] for r in self.entries])

    def constant_term(self) -> np.ndarray:
        return np.array(
            [[a.value0 for a in r] for r in self.entries], dtype=np.complex128
        )

    def residual_norm(self) -> float:
        return max(a.residual_norm() for r in self.entries for a in r)

    def eff_order(self) -> int:
        return min(a.eff_order for r in self.entries for a in r)

    def trace(self) -> Jet:
        if self.rows != self.cols:
            raise ShapeError("trace requires a square matrix")
        acc = self.space.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def inverse(self, cond_limit: float = 1e12) -> "JetMatrix":
        """Inverse via the constant-term inverse plus Newton iteration."""
        if self.rows != self.cols:
            raise ShapeError("inverse requires a square matrix")
        return JetMatrix._of(JetArray.from_jets(self).inverse(cond_limit))

    def power(self, n: int) -> "JetMatrix":
        if n < 0:
            raise ShapeError("negative matrix powers are not supported")
        result = JetMatrix.identity(self.space, self.rows)
        base = self
        for _ in range(n):
            result = result @ base
        return result

    def compose(self, subs: Sequence[Jet]) -> "JetMatrix":
        return JetMatrix._of(Substitution(self.space, subs)(JetArray.from_jets(self)))

    @classmethod
    def _of(cls, array: "JetArray") -> "JetMatrix":
        rows, cols = array.shape
        return cls([[array[i, j] for j in range(cols)] for i in range(rows)])

    def __repr__(self):
        return f"JetMatrix({self.rows}x{self.cols}, K={self.space.order})"


# -- jet arrays ----------------------------------------------------------------

# Effective order of an exact zero: above any jet order, and still above it
# after any number of partial derivatives.
_EXACT = 1 << 40

# Complex entries per temporary of the contraction kernel.
_CHUNK = 1 << 14

# Pruned Cauchy pair tables kept per jet space.
_PAIR_CACHE = 256

# Output entries per coefficient above which the kernel sums each target's
# products row-wise instead of with one ``reduceat``.
_WIDE = 64


class JetArray:
    """A batch of jets in one space: coefficients of shape ``(*batch, size)``
    and one effective order per entry, shape ``batch``.

    Entries follow the rules of :class:`Jet`: every operation propagates the
    minimum effective order entry by entry, and an entry is truncated above
    its effective order.  An entry whose effective order exceeds the jet
    order is an *exact zero* (see :meth:`exact_zeros`): it vanishes
    identically, so a product with it contributes neither coefficients nor
    an effective order.  Indexing down to a single entry returns a
    :class:`Jet`.

    Width invariant: only a prefix of ``w`` coefficient columns is stored,
    ``1 <= w <= size``, and every column at or beyond ``w`` is zero in every
    entry.  Constants have ``w = 1``; every operation stores the prefix its
    result can fill, so constant batches stay one column wide.  Only exact
    zeros are left out, so the values are those of the full-width
    computation.  :attr:`coeffs` is the full-width array, read-only, padded
    on its first read and kept.
    """

    __slots__ = ("space", "_stored", "eff", "_full")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, eff):
        """Takes ownership of ``coeffs``, a prefix of ``1`` to ``size``
        coefficient columns, and truncates it in place."""
        eff = np.asarray(eff, dtype=np.int64)
        width = coeffs.shape[-1] if coeffs.ndim else 0
        if coeffs.shape[:-1] != eff.shape or not 1 <= width <= space.size:
            raise ShapeError(
                f"coefficients {coeffs.shape} do not match orders {eff.shape} in {space}"
            )
        if (eff < space.order).any():
            coeffs[space.degrees[:width] > np.maximum(eff, 0)[..., None]] = 0.0
        self._set(space, coeffs, eff)

    def _set(self, space, coeffs, eff):
        coeffs.setflags(write=False)
        self.space = space
        self._stored = coeffs
        self.eff = eff
        self._full = None

    @classmethod
    def _raw(cls, space, coeffs, eff) -> "JetArray":
        """Wrap arrays that already satisfy the truncation rule."""
        out = cls.__new__(cls)
        out._set(space, coeffs, eff)
        return out

    @property
    def coeffs(self) -> np.ndarray:
        """The coefficients at full width, shape ``(*batch, size)``."""
        full = self._full
        if full is None:
            full = self._full = self._columns(self.space.size)
            full.setflags(write=False)
        return full

    def _columns(self, width: int) -> np.ndarray:
        """The stored prefix, padded with zeros to ``width`` columns."""
        c = self._stored
        if c.shape[-1] == width:
            return c
        out = np.zeros(c.shape[:-1] + (width,), dtype=np.complex128)
        out[..., : c.shape[-1]] = c
        return out

    @classmethod
    def from_jets(cls, entries) -> "JetArray":
        """Stack a nested sequence of jets and jet arrays (lists, any
        iterable of jets or a :class:`JetMatrix`) into one array; a jet
        array is returned as it is, a single jet as a 0-dimensional array."""
        if isinstance(entries, JetArray):
            return entries
        space: list[JetSpace] = []
        coeffs, eff = _gather(entries, space)
        return cls.from_coeffs(space[0], coeffs, eff)

    @classmethod
    def from_coeffs(cls, space: JetSpace, coeffs, eff=None) -> "JetArray":
        """Jets with the given coefficients, shape ``(*batch, size)``, and
        effective orders (the jet order by default), truncated; one column
        wide when every entry is constant."""
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim == 0 or c.shape[-1] != space.size:
            raise ShapeError(f"expected {space.size} coefficients per jet, got {c.shape}")
        c = c.copy() if c[..., 1:].any() else c[..., :1].copy()
        return cls(space, c, np.full(c.shape[:-1], space.order) if eff is None else eff)

    @classmethod
    def constant(cls, space: JetSpace, values) -> "JetArray":
        """Constant jets of full effective order with the given values."""
        v = np.array(values, dtype=np.complex128)
        return cls._raw(space, v[..., None], np.full(v.shape, space.order, dtype=np.int64))

    @classmethod
    def stack(cls, arrays: Sequence["JetArray"]) -> "JetArray":
        """Stack arrays of one shape along a new leading axis."""
        space = arrays[0].space
        if any(a.space is not space for a in arrays):
            raise ShapeError("stacked jet arrays must share one space")
        width = max(a._stored.shape[-1] for a in arrays)
        return cls._raw(
            space, np.stack([a._columns(width) for a in arrays]), np.stack([a.eff for a in arrays])
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.eff.shape

    def reshape(self, *shape: int) -> "JetArray":
        c = self._stored
        return JetArray._raw(self.space, c.reshape(shape + c.shape[-1:]), self.eff.reshape(shape))

    def __len__(self):
        return len(self.eff)

    def __getitem__(self, idx):
        eff = self.eff[idx]
        if eff.ndim == 0:
            return Jet(self.space, self.coeffs[idx], min(int(eff), self.space.order))
        return JetArray._raw(self.space, self._stored[idx], eff)

    def transpose(self, *axes: int) -> "JetArray":
        return JetArray._raw(
            self.space, self._stored.transpose(*axes, len(axes)), self.eff.transpose(*axes)
        )

    def put(self, index, values: "JetArray") -> "JetArray":
        """A copy with the entries at ``index`` of the leading axis replaced
        by ``values``."""
        width = max(self._stored.shape[-1], values._stored.shape[-1])
        coeffs, eff = self._columns(width).copy(), self.eff.copy()
        coeffs[index] = values._columns(width)
        eff[index] = values.eff
        return JetArray._raw(self.space, coeffs, eff)

    # -- entrywise operations ------------------------------------------------

    def _check(self, other: "JetArray") -> JetSpace:
        Jet._check_compatible(self, other)
        if self.shape != other.shape:
            raise ShapeError(f"jet array shapes differ: {self.shape} vs {other.shape}")
        return self.space

    def __add__(self, other: "JetArray") -> "JetArray":
        return self._combine(other, np.add)

    def __sub__(self, other: "JetArray") -> "JetArray":
        return self._combine(other, np.subtract)

    def __mul__(self, other: "JetArray") -> "JetArray":
        """Entrywise product, with the bits of ``Jet.__mul__`` in every entry
        (see :func:`_row_products`); :func:`contract` forms sums of them."""
        sp = self._check(other)
        eff = np.minimum(np.minimum(self.eff, other.eff), sp.order)
        a, b = (x.coeffs.reshape(-1, sp.size) for x in (self, other))
        rows = _row_products(sp, a, b, eff.ravel())
        return JetArray.from_coeffs(sp, rows.reshape(self.coeffs.shape), eff)

    def _combine(self, other: "JetArray", op) -> "JetArray":
        """Entrywise sum or difference at the wider of the two widths: when
        the two effective orders agree, the result is already truncated."""
        sp = self._check(other)
        a, b = self._stored, other._stored
        if a.shape[-1] == b.shape[-1]:
            coeffs = op(a, b)
        else:
            # the first operand padded to the wider width, combined in place
            wb = b.shape[-1]
            coeffs = np.zeros(a.shape[:-1] + (max(a.shape[-1], wb),), dtype=np.complex128)
            coeffs[..., : a.shape[-1]] = a
            op(coeffs[..., :wb], b, out=coeffs[..., :wb])
        if np.array_equal(self.eff, other.eff):
            return JetArray._raw(sp, coeffs, self.eff)
        return JetArray(sp, coeffs, np.minimum(self.eff, other.eff))

    def __neg__(self) -> "JetArray":
        return JetArray._raw(self.space, -self._stored, self.eff)

    def scale(self, c: complex) -> "JetArray":
        return JetArray._raw(self.space, self._stored * complex(c), self.eff)

    def capped(self, eff_order: int) -> "JetArray":
        """Lower every effective order to at most ``eff_order``."""
        return JetArray(self.space, self._stored.copy(), np.minimum(self.eff, eff_order))

    def exact_zeros(self) -> "JetArray":
        """Mark the identically zero entries as exact zeros, so that
        contractions skip them the way a loop that tests ``is_zero`` does."""
        eff = np.where(self._stored.any(axis=-1), self.eff, _EXACT)
        return JetArray._raw(self.space, self._stored, eff)

    def partial(self, v: int) -> "JetArray":
        """Partial derivative of every entry; lowers effective orders by one."""
        sp = self.space
        if not 0 <= v < sp.num_vars:
            raise ShapeError(f"variable index {v} out of range")
        c = self._stored
        src, dst, fac = sp._diff_rows(v, c.shape[-1])
        out = np.zeros(c.shape[:-1] + (sp._shifted_width(c.shape[-1], -1),), dtype=np.complex128)
        out[..., dst] = c[..., src] * fac
        # the derivative of a truncated entry is truncated one order lower
        return JetArray._raw(sp, out, np.maximum(self.eff - 1, -1))

    def integrate(self, v: int) -> "JetArray":
        """Antiderivative of every entry in variable ``v`` vanishing at the
        origin, trusted one order higher (capped at the jet order)."""
        sp = self.space
        src, dst, fac = sp._diff[v]
        c = self._stored
        if c.shape[-1] < sp.size:
            keep = dst < c.shape[-1]
            src, dst, fac = src[keep], dst[keep], fac[keep]
        out = np.zeros(c.shape[:-1] + (sp._shifted_width(c.shape[-1], 1),), dtype=np.complex128)
        out[..., src] = c[..., dst] / fac
        return JetArray._raw(sp, out, np.minimum(self.eff + 1, sp.order))

    def grad(self) -> "JetArray":
        """All partial derivatives, stacked along a new leading axis."""
        sp = self.space
        c = self._stored
        moving = c.shape[-1] > 1 and c[..., 1:].any()
        width = sp._shifted_width(c.shape[-1], -1) if moving else 1
        out = np.zeros((sp.num_vars,) + c.shape[:-1] + (width,), dtype=np.complex128)
        if moving:
            for v in range(sp.num_vars):
                src, dst, fac = sp._diff_rows(v, c.shape[-1])
                out[v][..., dst] = c[..., src] * fac
        eff = np.broadcast_to(np.maximum(self.eff - 1, -1), out.shape[:-1])
        return JetArray._raw(sp, out, eff)

    # -- reporting -------------------------------------------------------------

    def residual_norms(self) -> np.ndarray:
        """Max coefficient modulus of every entry over its trustworthy degrees."""
        if (self.eff < 0).any():
            raise ValueError("jet has no trustworthy coefficients (eff_order < 0)")
        return np.abs(self._stored).max(axis=-1, initial=0.0)

    def residual_norm(self) -> float:
        return float(self.residual_norms().max(initial=0.0))

    def eff_order(self) -> int:
        return int(min(self.eff.min(initial=self.space.order), self.space.order))

    def constant_term(self) -> np.ndarray:
        return self._stored[..., 0].copy()

    # kept for perfbench/workloads.py, which reads model.unit.constant_terms()
    constant_terms = constant_term

    def invert(self, tol: float = 1e-12) -> "JetArray":
        """Entrywise multiplicative inverse by Newton iteration, with the
        bits of the same iteration in ``Jet`` arithmetic; every entry needs
        a constant term of modulus above ``tol``."""
        sp = self.space
        a = self.coeffs.reshape(-1, sp.size)
        eff = np.minimum(self.eff, sp.order)
        small = np.abs(a[:, 0]) <= tol
        if small.any():
            raise SingularInputError(
                f"cannot invert jet with constant term {complex(a[small, 0][0])!r} (|c0| <= {tol})"
            )
        x = np.zeros_like(a)
        x[:, 0] = 1.0 / a[:, 0]
        correct = 0
        while correct < sp.order:
            # x (2 - a x)
            y = -_row_products(sp, a, x, eff.ravel())
            y[:, 0] += 2.0
            x = _row_products(sp, x, y, eff.ravel())
            correct = 2 * correct + 1
        return JetArray.from_coeffs(sp, x.reshape(self.coeffs.shape), eff)

    def sqrt(self, branch_anchors=None, tol: float = 1e-9) -> "JetArray":
        """Entrywise square root by Newton iteration, with the bits of the
        same iteration in ``Jet`` arithmetic and each branch fixed by its
        anchor: ``branch_anchors`` lists one value per entry (in the order of
        the flattened batch) that must square to the entry's constant term;
        a missing list or a ``None`` anchor takes the principal root
        (argument in (-pi/2, pi/2])."""
        sp = self.space
        a = self.coeffs.reshape(-1, sp.size)
        eff = np.minimum(self.eff, sp.order)
        c0 = a[:, 0]
        if (np.abs(c0) <= 1e-12).any():
            raise SingularInputError("square root of a jet with vanishing constant term")
        anchors = [None] * len(c0) if branch_anchors is None else branch_anchors
        anchor = np.array([np.sqrt(c) if x is None else complex(x) for c, x in zip(c0, anchors, strict=True)])
        bad = np.abs(anchor * anchor - c0) > tol * np.maximum(1.0, np.abs(c0))
        if bad.any():
            raise InvalidAnchorError(
                f"anchor {complex(anchor[bad][0])!r} does not square to the constant term "
                f"{complex(c0[bad][0])!r}"
            )
        s = np.zeros_like(a)
        s[:, 0] = anchor
        inv2a = (1.0 / (2.0 * anchor))[:, None]
        for _ in range(sp.order):
            s = s + (a - _row_products(sp, s, s, eff.ravel())) * inv2a
        return JetArray.from_coeffs(sp, s.reshape(self.coeffs.shape), eff)

    def inverse(self, cond_limit: float = 1e12) -> "JetArray":
        """Inverse of a square jet matrix: the constant-term inverse refined
        by Newton iteration, trusted to the lowest effective order."""
        if self._stored.ndim != 3 or self.shape[0] != self.shape[1]:
            raise ShapeError("inverse requires a square matrix")
        a0 = self.constant_term()
        if not np.all(np.isfinite(a0)) or np.linalg.cond(a0) > cond_limit:
            raise SingularInputError("matrix is singular at the base point")
        sp = self.space
        x = JetArray.constant(sp, np.linalg.inv(a0))
        two = JetArray.constant(sp, 2.0 * np.eye(len(self)))
        correct = 0
        while correct < sp.order:
            x = contract("ik,kj->ij", x, two - contract("ik,kj->ij", self, x))
            correct = 2 * correct + 1
        return JetArray(sp, x._stored.copy(), np.full(self.shape, self.eff_order()))

    def __repr__(self):
        return f"JetArray(shape={self.shape}, K={self.space.order})"


def _gather(entries, space: list) -> tuple[np.ndarray, np.ndarray]:
    """Full-width coefficients and effective orders of a nested sequence of
    jets and jet arrays; ``space`` collects the one space they share."""
    if isinstance(entries, (Jet, JetArray)):
        if not space:
            space.append(entries.space)
        elif entries.space is not space[0]:
            raise ShapeError("jet array entries must share one space")
        if isinstance(entries, Jet):
            return entries.coeffs, np.asarray(entries.eff_order, dtype=np.int64)
        return entries.coeffs, entries.eff
    if isinstance(entries, JetMatrix):
        entries = entries.entries
    parts = [_gather(e, space) for e in entries]
    if not parts:
        raise ShapeError("jet array must be non-empty")
    if any(p[1].shape != parts[0][1].shape for p in parts):
        raise ShapeError("jet array entries must form a rectangular array")
    return np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts])


@lru_cache(maxsize=None)
def _plan(spec: str, shape_a: tuple[int, ...], shape_b: tuple[int, ...]):
    """Axis bookkeeping of one contraction: the labels shared by both
    operands and the output (g), of ``a`` only (m), summed (s) and of ``b``
    only (n); operands are permuted to (g, m, s) and (g, s, n)."""
    try:
        inputs, out = spec.replace(" ", "").split("->")
        la, lb = inputs.split(",")
    except ValueError:
        raise ShapeError(f"malformed contraction spec {spec!r}") from None
    if (len(la), len(lb)) != (len(shape_a), len(shape_b)):
        raise ShapeError(f"spec {spec!r} does not match shapes {shape_a}, {shape_b}")
    if any(len(set(x)) != len(x) for x in (la, lb, out)):
        raise ShapeError(f"repeated label within one operand of {spec!r}")
    dims: dict[str, int] = {}
    for label, d in zip(la + lb, shape_a + shape_b):
        if dims.setdefault(label, d) != d:
            raise ShapeError(f"label {label!r} has sizes {dims[label]} and {d}")
    if any(x not in dims for x in out) or any(
        x not in out and not (x in la and x in lb) for x in dims
    ):
        raise ShapeError(f"spec {spec!r} must sum only labels shared by both operands")
    g = [x for x in out if x in la and x in lb]
    m = [x for x in out if x in la and x not in lb]
    n = [x for x in out if x in lb and x not in la]
    s = [x for x in la if x not in out]
    gmn = g + m + n
    return (
        tuple(la.index(x) for x in g + m + s),
        tuple(lb.index(x) for x in g + s + n),
        tuple(math.prod(dims[x] for x in part) for part in (g, m, s, n)),
        tuple(dims[x] for x in gmn),
        tuple(gmn.index(x) for x in out),
    )


def contract(spec: str, a: JetArray, b: JetArray) -> JetArray:
    """Two-operand contraction in einsum notation over the batch axes, with
    the Cauchy product on the coefficient axis:
    ``contract("ik,kj->ij", a, b)`` is the jet-matrix product.

    Every output entry has the effective order and truncation of the sum
    of ``Jet`` products it names, and equals that sum up to round-off.
    The work follows the coefficients that are there:

    - each operand's *support*, the coefficient positions used by any of
      its entries, is found once, and only the prefix of the coefficient
      axis that holds it is copied;
    - when every entry of one operand is constant, the other operand is
      scaled, elementwise and summed in ascending order of the contracted
      axis, the order of the loop's sum of ``Jet`` products;
    - otherwise only the Cauchy pairs inside the two supports are formed,
      from the table that :meth:`JetSpace._pairs` caches per pair of
      supports.  Each operand is gathered once, the contracted axis is
      summed by a batched ``matmul`` (by a plain product when it has one
      term), and the pairs of each target coefficient by ``reduceat`` (by
      row sums when the output block is wide), in chunks of whole target
      groups that keep every temporary under ``_CHUNK`` entries.  A lone
      product with nothing pruned is ``Jet.__mul__`` bit for bit; a sum
      over the contracted axis rounds as ``matmul`` does.

    The output is stored to the last column the products can reach
    (the partner's width on a scaling, the last pair target otherwise)
    and truncated above ``max(eff, 0)`` with one masked write, over the
    degrees where a coefficient can be left to clear.
    """
    sp = a.space
    Jet._check_compatible(a, b)
    perm_a, perm_b, (G, M, S, N), gmn, perm_out = _plan(spec, a.shape, b.shape)
    eff = _contract_eff(
        a.eff.transpose(perm_a).reshape(G, M, S),
        b.eff.transpose(perm_b).reshape(G, S, N),
        sp.order,
    )
    used_a, used_b = _support(a._stored), _support(b._stored)
    wa, wb = _width(used_a), _width(used_b)
    # the columns the products can fill; the ones past it stay zero
    width = 0
    if wa and wb:
        if wa == 1:
            width = wb
        elif wb == 1:
            width = wa
        else:
            table = sp._pairs(used_a[:wa], used_b[:wb])
            targets = table[2]
            width = int(targets[-1]) + 1 if targets.size else 0
    # coefficient axis first: out[k] is the (G, M, N) block of coefficient k
    out = np.zeros((width or 1, G, M, N), dtype=np.complex128)
    if width:
        # the used prefixes, coefficient axis first: (wa, G, M, S), (wb, G, S, N)
        at = a._stored[..., :wa].transpose((len(perm_a),) + perm_a).reshape(wa, G, M, S)
        bt = b._stored[..., :wb].transpose((len(perm_b),) + perm_b).reshape(wb, G, S, N)
        if wa == 1:
            _scale(at[0, :, :, :, None], bt[:, :, None], out)
        elif wb == 1:
            _scale(bt[0, :, None], at[..., None], out)
        else:
            _cauchy_pairs(table, at, bt, out)
    # truncate above max(eff, 0): only degrees above the lowest such order
    # and below the width can hold a coefficient to clear
    lim = np.maximum(eff, 0)
    low = sp._degree_ends[lim.min(initial=sp.order)]
    if low < width:
        block = out[low:width]
        block[sp.degrees[low:width, None, None, None] > lim] = 0.0
    out = out.transpose(1, 2, 3, 0).reshape(gmn + (len(out),)).transpose(perm_out + (len(perm_out),))
    return JetArray._raw(sp, out, eff.reshape(gmn).transpose(perm_out))


def _support(coeffs: np.ndarray) -> np.ndarray:
    """The coefficient positions used by any entry of a batch."""
    return coeffs.any(axis=tuple(range(coeffs.ndim - 1)))


def _width(used: np.ndarray) -> int:
    """Length of the shortest coefficient prefix that holds a support."""
    nz = used.nonzero()[0]
    return int(nz[-1]) + 1 if nz.size else 0


def _contract_eff(ea: np.ndarray, eb: np.ndarray, order: int) -> np.ndarray:
    """Minimum effective order over the summed pairs, (g, m, s) x (g, s, n)
    -> (g, m, n); pairs with an exact zero do not count."""
    exact_a, exact_b = ea > order, eb > order
    if exact_a.any() or exact_b.any():
        pair = np.minimum(ea[:, :, :, None], eb[:, None, :, :])
        pair[exact_a[:, :, :, None] | exact_b[:, None, :, :]] = _EXACT
        eff = pair.min(axis=2)
    else:
        eff = np.minimum(ea.min(axis=2)[:, :, None], eb.min(axis=1)[:, None, :])
    return np.minimum(eff, order)


def _scale(c0: np.ndarray, x: np.ndarray, out: np.ndarray):
    """out = sum over s of c0[..., s, :] * x[..., s, :], elementwise and in
    ascending s: c0 broadcasts to (G, M, S, N) and x to (w, G, M, S, N),
    and out is (w, G, M, N)."""
    np.multiply(c0[..., 0, :], x[..., 0, :], out=out)
    for s in range(1, x.shape[-2]):
        out += c0[..., s, :] * x[..., s, :]


def _cauchy_pairs(table, at: np.ndarray, bt: np.ndarray, out: np.ndarray):
    """out[k] = sum over the pairs (i, j) of target k of at[i] @ bt[j], with
    at of shape (wa, G, M, S), bt of shape (wb, G, S, N) and out of shape
    (size, G, M, N).  Whole target groups are taken at a time, as many as
    keep each temporary under ``_CHUNK`` entries."""
    ii, jj, targets, bounds = table
    _, G, M, S = at.shape
    N = bt.shape[-1]
    step = max(1, _CHUNK // (G * max(M * S, S * N, M * N)))
    lo_group = 0
    while lo_group < len(targets):
        if bounds[-1] - bounds[lo_group] <= step:
            hi_group = len(targets)
        else:
            hi_group = int(np.searchsorted(bounds, bounds[lo_group] + step, side="right")) - 1
            hi_group = max(hi_group, lo_group + 1)
        lo, hi = bounds[lo_group], bounds[hi_group]
        x, y = at[ii[lo:hi]], bt[jj[lo:hi]]
        # one term is a plain product: matmul would round it differently
        prod = np.matmul(x, y) if S > 1 else x * y
        if G * M * N < _WIDE:
            out[targets[lo_group:hi_group]] = np.add.reduceat(prod, bounds[lo_group:hi_group] - lo, axis=0)
        else:
            # reduceat walks a wide block column by column; summing whole
            # rows per target is several times faster
            for k in range(lo_group, hi_group):
                np.add.reduce(prod[bounds[k] - lo : bounds[k + 1] - lo], axis=0, out=out[targets[k]])
        lo_group = hi_group


# -- substitutions -----------------------------------------------------------------


class Substitution:
    """The map ``f -> f(subs[0], ..., subs[n-1])`` from jets in ``source``
    to jets in the space of the substitutions: exact polynomial
    substitution, truncated at the target order.

    Constant terms of the substitutions are substituted exactly, so the
    composition re-centers the expansion point.  The monomial table,
    ``table[i]`` the target coefficients of the i-th source monomial, is
    built once, one degree at a time: each monomial of degree d is a
    monomial of degree d - 1 times one substitution, and the products of a
    degree are formed together by :func:`_row_products`, which gives the
    bits of the ``Jet`` products ``prev * subs[v]``.  Applying the table to
    a jet or to a whole :class:`JetArray` adds ``table[i] * c_i`` in
    source-index order, so every composition with one substitution gives
    the same bits as composing a single jet.
    """

    __slots__ = ("source", "target", "table", "eff_order")

    def __init__(self, source: JetSpace, subs):
        """``subs``: one jet per source variable, as a sequence of jets or
        a jet array."""
        subs = JetArray.from_jets(subs)
        if subs.shape != (source.num_vars,):
            raise ShapeError(f"expected {source.num_vars} substitutions, got shape {subs.shape}")
        target = subs.space
        coeffs, eff = subs.coeffs, np.minimum(subs.eff, target.order)
        table = np.zeros((source.size, target.size), dtype=np.complex128)
        table[0, 0] = 1.0
        rows_eff = np.full(source.size, target.order)
        v, low = np.array(source._factors, dtype=np.int64).reshape(-1, 2).T
        ends = source._degree_ends
        for d in range(1, source.order + 1):
            # the monomials of degree d and their factors
            new = slice(ends[d - 1], ends[d])
            fv, fl = v[new.start - 1 : new.stop - 1], low[new.start - 1 : new.stop - 1]
            rows_eff[new] = np.minimum(rows_eff[fl], eff[fv])
            table[new] = _row_products(target, table[fl], coeffs[fv], rows_eff[new])
        self.source = source
        self.target = target
        self.table = table
        self.eff_order = subs.eff_order()

    def __call__(self, f):
        """Compose a :class:`Jet` or every entry of a :class:`JetArray`."""
        if (f.space.num_vars, f.space.order) != (self.source.num_vars, self.source.order):
            raise ShapeError(f"cannot substitute into {f.space}: the source is {self.source}")
        c = f.coeffs if isinstance(f, Jet) else f._stored
        src = c.reshape(-1, c.shape[-1])
        out = np.zeros((len(src), self.target.size), dtype=np.complex128)
        for i in np.flatnonzero(src.any(axis=0)):
            # one jet scales by a scalar, as a single composition does:
            # numpy may round a 1x1 broadcast product differently
            out += self.table[i] * (src[0, i] if len(src) == 1 else src[:, i, None])
        if isinstance(f, Jet):
            return self.target._wrap(out[0], min(f.eff_order, self.eff_order))
        eff = np.minimum(f.eff, min(self.eff_order, self.target.order))
        return JetArray(self.target, out.reshape(f.shape + (self.target.size,)), eff)


def _row_products(space: JetSpace, a: np.ndarray, b: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """The products ``a[r] * b[r]`` of rows of full-width coefficients,
    truncated above ``eff[r]``, with the bits of ``Jet.__mul__`` up to the
    sign of a zero: a constant row scales the other one, and any other pair
    sums the whole Cauchy table of the space along the row."""
    moving_a, moving_b = a[:, 1:].any(axis=1), b[:, 1:].any(axis=1)
    out = np.where(moving_a[:, None], a * b[:, :1], b * a[:, :1])
    full = np.flatnonzero(moving_a & moving_b)[:, None]
    if len(full):
        ii, jj, _, targets, starts = space._cauchy
        out[full, targets] = np.add.reduceat(a[full, ii] * b[full, jj], starts, axis=1)
    if eff.min(initial=space.order) < space.order:
        out[space.degrees > np.maximum(eff, 0)[:, None]] = 0.0
    return out
