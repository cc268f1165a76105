"""Truncated multivariate power series ("jets") over complex scalars.

A jet represents a holomorphic germ at the origin up to a fixed total order
``K``: a dense table of complex coefficients indexed by multi-indices of
total degree at most ``K``.  All differential-geometric identities in this
package are evaluated as residuals of jets, so the kernel favours plain
``numpy`` coefficient arrays with index tables (Cauchy product, derivatives,
substitution), all derived from one exponent array by one vectorised lookup.

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
pair table the space caches.  An array carries the bookkeeping this needs,
the range of its effective orders and its support, set by the operation
that builds it when that operation knows them and computed once otherwise,
so a contraction reads them instead of reducing its operands again.
Identities that a loop would evaluate entry by entry (brackets,
associativity, Darboux-Egoroff, curvature, the one-form recursions) are
written as a few contractions, and inverses and square roots as Newton
iterations on whole arrays.  A :class:`Substitution` composes jets with a
map psi with psi(0) = 0, as germ isomorphisms are, through a monomial table
built once.

``Jet`` arithmetic and :class:`JetMatrix` are the object kernel the arrays
replaced; no other module computes with them.  They remain for building
inputs one jet at a time and for timing the two kernels against each other.
:meth:`JetArray.from_jets` is their one way into the arrays: every stage of
the pipeline takes :class:`JetArray` inputs.
"""

from __future__ import annotations

import bisect
import math
import operator
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import InvalidAnchorError, ScopeError, ShapeError, SingularInputError

DEFAULT_ORDER = 4

_EPS = np.finfo(float).eps


class JetSpace:
    """Shared index tables for all jets with a fixed (num_vars, order).

    Every table derives from one ``(size, num_vars)`` int64 array of
    exponents, :attr:`exponents`, by degree and lexicographic within a
    degree, through one vectorised lookup, :meth:`index_of`, from exponent
    rows to monomial indices; :attr:`exponents` itself is enumerated as an
    array and placed by the same lookup.  Obtain instances through
    :func:`jet_space`; the factory caches them so spaces compare by
    identity.
    """

    def __init__(self, num_vars: int, order: int):
        if num_vars < 1:
            raise ShapeError(f"num_vars must be positive, got {num_vars}")
        if order < 0:
            raise ShapeError(f"order must be non-negative, got {order}")
        self.num_vars = num_vars
        self.order = order

        # _ways[p, r]: the compositions of r into p parts, C(r + p - 1, p - 1)
        self._ways = np.ones((num_vars + 1, order + 1), dtype=np.int64)
        for p in range(2, num_vars + 1):
            self._ways[p] = np.cumsum(self._ways[p - 1])
        # _degree_ends[d]: the number of monomials of degree at most d
        self._degree_ends = np.cumsum(self._ways[num_vars]).tolist()
        self.size = self._degree_ends[-1]
        # every exponent row of degree at most the order, one variable at a
        # time (each row repeated once per value its next exponent can take),
        # then placed at its index
        rows = np.zeros((1, 0), dtype=np.int64)
        for _ in range(num_vars):
            room = order - rows.sum(axis=1) + 1
            starts = np.repeat(np.cumsum(room) - room, room)
            rows = np.column_stack([np.repeat(rows, room, axis=0), np.arange(len(starts)) - starts])
        self.exponents = np.empty_like(rows)
        self.exponents[self.index_of(rows)] = rows
        self.exponents.setflags(write=False)
        self.degrees = self.exponents.sum(axis=1)

        # The derivative table of all variables, sorted by source column (the
        # source, variable, target and factor of each row), the rows of each
        # variable, which also integrate, and the shift table of each variable.
        src, var = np.nonzero(self.exponents)
        low = self.exponents[src]
        low[np.arange(len(src)), var] -= 1
        dst, fac = self.index_of(low), self.exponents[src, var].astype(np.float64)
        self._grad = (src, var, dst, fac)
        self._diff = [tuple(t[var == v] for t in (src, dst, fac)) for v in range(num_vars)]
        below = np.flatnonzero(self.degrees < order)
        up = np.eye(num_vars, dtype=np.int64)
        self._shift = [(below, self.index_of(self.exponents[below] + up[v])) for v in range(num_vars)]
        self._pair_tables: dict[tuple[bytes, bytes, int], tuple[np.ndarray, ...]] = {}

    def index_of(self, exps: np.ndarray) -> np.ndarray:
        """The monomial index of each row of ``exps``, integers of shape
        ``(rows, num_vars)`` and degree at most the order: the count of
        monomials of lower degree plus the rank among those of its degree.
        In the lexicographic order within a degree, variable k adds the
        monomials that agree before it and are lower at it,
        ``ways[p, rest] - ways[p, rest - e_k]`` by the hockey-stick identity,
        with ``rest`` the degree and ``p`` the variables left."""
        rest = exps.sum(axis=1)
        index = np.array([0, *self._degree_ends])[rest]
        for k in range(self.num_vars - 1):
            ways = self._ways[self.num_vars - k]
            index += ways[rest]
            rest = rest - exps[:, k]
            index -= ways[rest]
        return index

    @cached_property
    def _cauchy(self) -> tuple[np.ndarray, ...]:
        """Cauchy product table, built on first use: all ordered index pairs
        ``(ii, jj)`` whose degrees fit, sorted by their target index ``kk``,
        plus the distinct targets and where each group starts.  The pairs are
        formed one degree of ``ii`` at a time, whose partners are the prefix
        of degree at most ``order - d``, so they come ``ii``-major with ``jj``
        ascending and the stable sort keeps that order within a target."""
        ends = [0, *self._degree_ends]
        pairs = []
        for d in range(self.order + 1):
            rows, partners = np.arange(ends[d], ends[d + 1]), ends[self.order - d + 1]
            i, j = np.repeat(rows, partners), np.tile(np.arange(partners), len(rows))
            pairs.append((i, j, self.index_of(self.exponents[i] + self.exponents[j])))
        ii, jj, kk = (np.concatenate(t) for t in zip(*pairs))
        sort = np.argsort(kk, kind="stable")
        kk = kk[sort]
        out, starts = np.unique(kk, return_index=True)
        return ii[sort], jj[sort], kk, out, starts

    def _pairs(self, used_a: np.ndarray, used_b: np.ndarray, cap: int) -> tuple[np.ndarray, ...]:
        """The rows of :attr:`_cauchy` with target below ``cap``, first index
        in the support ``used_a`` and second in ``used_b`` (boolean masks over
        a prefix of the coefficients each, ending at the last used position):
        the index pairs, their distinct targets and the bounds of each
        target's group.  The last ``_PAIR_CACHE`` tables are kept."""
        key = (used_a.tobytes(), used_b.tobytes(), cap)
        table = self._pair_tables.get(key)
        if table is None:
            ii, jj, kk, _, _ = self._cauchy
            keep = (ii < len(used_a)) & (jj < len(used_b)) & (kk < cap)
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

    @cached_property
    def _factors(self) -> np.ndarray:
        """For each monomial past the constant one, a row of its first
        variable ``v`` and the index of the monomial divided by ``t_v``: the
        first row of :attr:`_grad` with that source."""
        src, var, dst, _ = self._grad
        first = np.unique(src, return_index=True)[1]
        return np.stack([var[first], dst[first]], axis=1)

    # -- constructors -----------------------------------------------------

    def _wrap(self, coeffs: np.ndarray, eff_order: int) -> "Jet":
        eff_order = min(eff_order, self.order)
        if eff_order < self.order:
            # the monomials of degree at most eff_order are a prefix
            coeffs = coeffs.astype(np.complex128)
            coeffs[self._degree_ends[max(eff_order, 0)] :] = 0.0
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
            c[self.index_of(np.eye(self.num_vars, dtype=np.int64)[v : v + 1])] = 1.0
        return self._wrap(c, self.order)

    def from_coeffs(self, coeffs: Sequence[complex], eff_order: int | None = None) -> "Jet":
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape != (self.size,):
            raise ShapeError(f"expected {self.size} coefficients, got {arr.shape}")
        return self._wrap(arr.copy(), self.order if eff_order is None else eff_order)

    def variables(self) -> list["Jet"]:
        return [self.variable(v) for v in range(self.num_vars)]

    def __repr__(self):
        return f"JetSpace(num_vars={self.num_vars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(num_vars: int, order: int) -> JetSpace:
    return JetSpace(num_vars, order)


def _same_space(a, b) -> JetSpace:
    """The space of ``a``, once ``b`` is known to share its variables and
    order (jets or jet arrays of equal ``(num_vars, order)`` combine)."""
    if a.space is not b.space and (a.space.num_vars, a.space.order) != (b.space.num_vars, b.space.order):
        raise ShapeError(f"incompatible jets: {a.space} vs {b.space}; coerce explicitly with Jet.in_space")
    return a.space


class Jet:
    """One truncated power series; use :class:`JetSpace` methods to build."""

    __slots__ = ("space", "coeffs", "eff_order")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, eff_order: int):
        self.space = space
        self.coeffs = coeffs
        self.eff_order = eff_order

    # -- helpers ----------------------------------------------------------

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
        # a monomial's index does not depend on the order
        c = np.zeros(space.size, dtype=np.complex128)
        m = min(space.size, self.space.size)
        c[:m] = self.coeffs[:m]
        return space._wrap(c, min(self.eff_order, space.order))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            sp = _same_space(self, other)
            eff = min(self.eff_order, other.eff_order)
            return sp._wrap(self.coeffs + other.coeffs, eff)
        return self + self.space.constant(other)

    __radd__ = __add__

    def __neg__(self):
        return self.space._wrap(-self.coeffs, self.eff_order)

    def __sub__(self, other):
        if isinstance(other, Jet):
            sp = _same_space(self, other)
            eff = min(self.eff_order, other.eff_order)
            return sp._wrap(self.coeffs - other.coeffs, eff)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        sp = _same_space(self, other)
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

    def scale(self, c: complex) -> "Jet":
        return self.space._wrap(self.coeffs * complex(c), self.eff_order)

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

    def invert(self) -> "Jet":
        """Multiplicative inverse (see :meth:`JetArray.invert`)."""
        return JetArray.from_jets(self).invert()[()]

    def sqrt(self, branch_anchor: complex | None = None) -> "Jet":
        """Square root with the branch fixed by ``branch_anchor`` (see
        :meth:`JetArray.sqrt`)."""
        return JetArray.from_jets(self).sqrt([branch_anchor])[()]

    def compose(self, subs: Sequence["Jet"]) -> "Jet":
        """Substitute ``subs[i]`` for variable ``i`` (see :class:`Substitution`)."""
        return Substitution(self.space, JetArray.from_jets(subs))(JetArray.from_jets(self))[()]

    # -- reporting ----------------------------------------------------------

    def residual_norm(self) -> float:
        """Max coefficient modulus over the trustworthy degrees."""
        if self.eff_order < 0:
            raise ValueError("jet has no trustworthy coefficients (eff_order < 0)")
        end = self.space._degree_ends[min(self.eff_order, self.space.order)]  # degrees up to eff_order
        return float(np.abs(self.coeffs[:end]).max())

    def terms(self) -> dict[tuple[int, ...], complex]:
        nz = np.flatnonzero(self.coeffs)
        return dict(zip(map(tuple, self.space.exponents[nz].tolist()), map(complex, self.coeffs[nz])))

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

    def inverse(self) -> "JetMatrix":
        """Inverse via the constant-term inverse plus Newton iteration."""
        if self.rows != self.cols:
            raise ShapeError("inverse requires a square matrix")
        return JetMatrix._of(JetArray.from_jets(self).inverse())

    def power(self, n: int) -> "JetMatrix":
        if n < 0:
            raise ShapeError("negative matrix powers are not supported")
        result = JetMatrix.identity(self.space, self.rows)
        base = self
        for _ in range(n):
            result = result @ base
        return result

    def compose(self, subs: Sequence[Jet]) -> "JetMatrix":
        return JetMatrix._of(Substitution(self.space, JetArray.from_jets(subs))(JetArray.from_jets(self)))

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

# A jet has an inverse and a square root only when its constant term has
# modulus above this.
C0_FLOOR = 1e-12

# A square-root anchor must square to the constant term c0 within this
# times max(1, |c0|).
ANCHOR_TOL = 1e-9

# A jet matrix has an inverse only when the condition number of its
# constant term is at most this.
INVERSE_COND_LIMIT = 1e12


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

    Bookkeeping: an array carries the lowest and highest effective order of
    its entries that are not exact zeros and whether it has an exact zero
    (:meth:`_order_range`), and its support, the coefficient positions any
    entry uses, with the width of the prefix that holds it
    (:meth:`_support`).  The operation that builds an array sets what it
    already knows: views pass both on (a scaling only the order range, as a
    factor can empty columns), the constructor keeps the order range it
    finds to truncate, a sub-batch, :meth:`exact_zeros` and :meth:`grad`
    derive it from their input's, and :func:`contract` knows it on its
    one-order path.  The rest is computed on first use and kept, so
    :func:`contract`, sums and :meth:`grad` read these values instead of
    reducing the same arrays on every call.
    """

    __slots__ = ("space", "_stored", "eff", "_full", "_orders", "_used")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, eff):
        """Takes ownership of ``coeffs``, a prefix of ``1`` to ``size``
        coefficient columns, and truncates it in place."""
        eff = np.asarray(eff, dtype=np.int64)
        width = coeffs.shape[-1] if coeffs.ndim else 0
        if coeffs.shape[:-1] != eff.shape or not 1 <= width <= space.size:
            raise ShapeError(
                f"coefficients {coeffs.shape} do not match orders {eff.shape} in {space}"
            )
        orders = _orders_of(eff, space.order)
        lo, hi, exact = orders
        if lo < space.order:
            if lo == hi and not exact:
                # one order: the columns above it, a suffix
                coeffs[..., space._degree_ends[max(lo, 0)] :] = 0.0
            else:
                coeffs[space.degrees[:width] > np.maximum(eff, 0)[..., None]] = 0.0
        self._set(space, coeffs, eff, orders)

    def _set(self, space, coeffs, eff, orders=None, used=None):
        coeffs.setflags(write=False)
        self.space = space
        self._stored = coeffs
        self.eff = eff
        self._full = None
        # the rules that derive a range assume an entry; an empty batch finds
        # its own on first use
        self._orders = orders if eff.size else None
        self._used = used

    @classmethod
    def _raw(cls, space, coeffs, eff, orders=None, used=None) -> "JetArray":
        """Wrap arrays that already satisfy the truncation rule, with the
        order range and support when the caller knows them."""
        out = cls.__new__(cls)
        out._set(space, coeffs, eff, orders, used)
        return out

    def _order_range(self) -> tuple[int, int, bool]:
        """The lowest and highest effective order of the entries that are
        not exact zeros (both the jet order when there are none), and
        whether any entry is an exact zero."""
        orders = self._orders
        if orders is None:
            orders = self._orders = _orders_of(self.eff, self.space.order)
        return orders

    def _uniform_orders(self):
        """The order range when it is known to be one order without an
        exact zero, which every part of the array shares; else None."""
        orders = self._orders
        return orders if orders is not None and orders[0] == orders[1] and not orders[2] else None

    def _lowered_orders(self):
        """The order range of :meth:`grad`, every effective order one lower
        (not below -1), when it is known and no exact zero could become
        live."""
        orders = self._orders
        if orders is None or orders[2]:
            return None
        return max(orders[0] - 1, -1), max(orders[1] - 1, -1), False

    def _support(self, cap: int) -> tuple[np.ndarray, int]:
        """The coefficient positions below ``cap`` that any entry uses, as
        a mask over the prefix that ends at the last of them, and the
        length of that prefix."""
        used = self._used
        if used is None:
            c = self._stored
            mask = c.any(axis=tuple(range(c.ndim - 1)))
            used = self._used = (mask, _width(mask))
        mask, width = used
        if width > cap:
            width = _width(mask[:cap])
        return mask[:width], width

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
        order = space.order
        return cls._raw(space, v[..., None], np.full(v.shape, order), (order, order, False))

    @classmethod
    def stack(cls, arrays: Sequence["JetArray"]) -> "JetArray":
        """Stack arrays of one shape along a new leading axis."""
        space, shape = arrays[0].space, arrays[0].shape
        if any(a.space is not space for a in arrays):
            raise ShapeError("stacked jet arrays must share one space")
        if any(a.shape != shape for a in arrays):
            raise ShapeError("jet array entries must form a rectangular array")
        width = max(a._stored.shape[-1] for a in arrays)
        return cls._raw(
            space, np.stack([a._columns(width) for a in arrays]), np.stack([a.eff for a in arrays])
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.eff.shape

    def reshape(self, *shape: int) -> "JetArray":
        c = self._stored
        return JetArray._raw(
            self.space, c.reshape(shape + c.shape[-1:]), self.eff.reshape(shape), self._orders, self._used
        )

    def __len__(self):
        return len(self.eff)

    def __getitem__(self, idx):
        eff = self.eff[idx]
        if eff.ndim == 0:
            return Jet(self.space, self.coeffs[idx], min(int(eff), self.space.order))
        # the entries of an array with one order and no exact zero share it
        return JetArray._raw(self.space, self._stored[idx], eff, self._uniform_orders())

    def transpose(self, *axes: int) -> "JetArray":
        return JetArray._raw(
            self.space,
            self._stored.transpose(*axes, len(axes)),
            self.eff.transpose(*axes),
            self._orders,
            self._used,
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
        _same_space(self, other)
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
        orders = self._order_range()
        # different ranges mean different orders; one order in both and no
        # exact zero means the same orders
        if orders == other._order_range() and (
            (orders[0] == orders[1] and not orders[2]) or np.array_equal(self.eff, other.eff)
        ):
            return JetArray._raw(sp, coeffs, self.eff, orders)
        return JetArray(sp, coeffs, np.minimum(self.eff, other.eff))

    def __neg__(self) -> "JetArray":
        return JetArray._raw(self.space, -self._stored, self.eff, self._orders, self._used)

    def scale(self, c: complex) -> "JetArray":
        # the support is not passed on: a factor of zero, or one that
        # underflows, empties columns
        return JetArray._raw(self.space, self._stored * complex(c), self.eff, self._orders)

    def capped(self, eff_order: int) -> "JetArray":
        """Lower every effective order to at most ``eff_order``."""
        return JetArray(self.space, self._stored.copy(), np.minimum(self.eff, eff_order))

    def exact_zeros(self) -> "JetArray":
        """Mark the identically zero entries as exact zeros, so that
        contractions skip them the way a loop that tests ``is_zero`` does."""
        nonzero = self._stored.any(axis=-1)
        eff = np.where(nonzero, self.eff, _EXACT)
        orders = self._uniform_orders()
        if orders is not None:
            order = self.space.order
            orders = (orders[0], orders[0], not nonzero.all()) if nonzero.any() else (order, order, True)
        return JetArray._raw(self.space, self._stored, eff, orders, self._used)

    def partial(self, v: int) -> "JetArray":
        """Partial derivative of every entry; lowers effective orders by one."""
        sp = self.space
        if not 0 <= v < sp.num_vars:
            raise ShapeError(f"variable index {v} out of range")
        c = self._stored
        src, dst, fac = sp._diff[v]
        n = int(np.searchsorted(src, c.shape[-1]))  # the rows whose source is stored
        out = np.zeros(c.shape[:-1] + (sp._shifted_width(c.shape[-1], -1),), dtype=np.complex128)
        out[..., dst[:n]] = c[..., src[:n]] * fac[:n]
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
        if self._support(sp.size)[1] > 1:
            # one scatter for every partial, over the stored sources (they ascend)
            n = int(np.searchsorted(sp._grad[0], c.shape[-1]))
            src, var, dst, fac = (t[:n] for t in sp._grad)
            width = sp._shifted_width(c.shape[-1], -1)
            out = np.zeros((sp.num_vars,) + c.shape[:-1] + (width,), dtype=np.complex128)
            # out[var[r], ..., dst[r]] = c[..., src[r]] * fac[r] for every row r
            rows = c.reshape(-1, c.shape[-1])[:, src]
            rows *= fac
            out.reshape(sp.num_vars, -1, width)[var, :, dst] = rows.T
        else:
            out = np.zeros((sp.num_vars,) + c.shape[:-1] + (1,), dtype=np.complex128)
        eff = np.empty(out.shape[:-1], dtype=np.int64)
        eff[...] = np.maximum(self.eff - 1, -1)
        return JetArray._raw(sp, out, eff, self._lowered_orders())

    # -- reporting -------------------------------------------------------------

    def residual_norms(self) -> np.ndarray:
        """Max coefficient modulus of every entry over its trustworthy degrees."""
        if self._order_range()[0] < 0:
            raise ValueError("jet has no trustworthy coefficients (eff_order < 0)")
        return np.abs(self._stored).max(axis=-1, initial=0.0)

    def residual_norm(self) -> float:
        return float(self.residual_norms().max(initial=0.0))

    def eff_order(self) -> int:
        return int(min(self.eff.min(initial=self.space.order), self.space.order))

    def constant_term(self) -> np.ndarray:
        return self._stored[..., 0].copy()

    def degree_part(self, d: int) -> np.ndarray:
        """The coefficients of the monomials of total degree ``d`` in every
        entry, shape ``(*batch, m)``: a read-only view of the stored
        columns, or zeros past them."""
        ends = self.space._degree_ends
        lo, hi = ends[d - 1] if d else 0, ends[d]
        c = self._stored
        if c.shape[-1] >= hi:
            return c[..., lo:hi]
        out = np.zeros(c.shape[:-1] + (hi - lo,), dtype=np.complex128)
        out[..., : max(c.shape[-1] - lo, 0)] = c[..., lo:]
        return out

    # kept for perfbench/workloads.py, which reads model.unit.constant_terms()
    constant_terms = constant_term

    def invert(self) -> "JetArray":
        """Entrywise multiplicative inverse by Newton iteration, with the
        bits of the same iteration in ``Jet`` arithmetic; every entry needs
        a constant term of modulus above ``C0_FLOOR``."""
        sp = self.space
        a = self.coeffs.reshape(-1, sp.size)
        eff = np.minimum(self.eff, sp.order)
        small = np.abs(a[:, 0]) <= C0_FLOOR
        if small.any():
            raise SingularInputError(
                f"cannot invert jet with constant term {complex(a[small, 0][0])!r} (|c0| <= {C0_FLOOR})"
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

    def sqrt(self, branch_anchors=None) -> "JetArray":
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
        if (np.abs(c0) <= C0_FLOOR).any():
            raise SingularInputError("square root of a jet with vanishing constant term")
        anchors = [None] * len(c0) if branch_anchors is None else branch_anchors
        anchor = np.array([np.sqrt(c) if x is None else complex(x) for c, x in zip(c0, anchors, strict=True)])
        bad = np.abs(anchor * anchor - c0) > ANCHOR_TOL * np.maximum(1.0, np.abs(c0))
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

    def inverse(self) -> "JetArray":
        """Inverse of a square jet matrix: the constant-term inverse refined
        by Newton iteration, trusted to the lowest effective order."""
        if self._stored.ndim != 3 or self.shape[0] != self.shape[1]:
            raise ShapeError("inverse requires a square matrix")
        a0 = self.constant_term()
        if not np.all(np.isfinite(a0)) or np.linalg.cond(a0) > INVERSE_COND_LIMIT:
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


def _orders_of(eff: np.ndarray, order: int) -> tuple[int, int, bool]:
    """The order range of :meth:`JetArray._order_range`, from the orders."""
    lo = int(eff.min(initial=order))
    hi = int(eff.max(initial=lo))
    exact = hi > order
    if exact:
        live = eff <= order
        lo = int(eff.min(where=live, initial=order))
        hi = int(eff.max(where=live, initial=lo))
    return lo, hi, exact


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
    and truncated above ``max(eff, 0)``.  When the entries of each operand
    that are not exact zeros share one effective order, the columns above
    the outputs' order are neither read nor formed; otherwise one masked
    write clears them entry by entry.

    The bookkeeping is read from the operands, not recomputed: their order
    ranges (:meth:`JetArray._order_range`) decide the path.  With one order
    in each, the output orders are one filled array, or one boolean
    ``matmul`` when there are exact zeros; only operands with mixed orders
    take the pairwise table of :func:`_contract_eff`.  The supports are the
    ones each operand keeps.
    """
    sp = _same_space(a, b)
    perm_a, perm_b, (G, M, S, N), gmn, perm_out = _plan(spec, a.shape, b.shape)
    order = sp.order
    lo_a, hi_a, exact_a = a._order_range()
    lo_b, hi_b, exact_b = b._order_range()
    low = orders = None
    if lo_a == hi_a and lo_b == hi_b:
        low = min(lo_a, lo_b)
        if not (exact_a or exact_b):
            orders = (low, low, False)
    if orders is not None:
        eff = np.full((G, M, N), low)
    else:
        ea, eb = a.eff.transpose(perm_a).reshape(G, M, S), b.eff.transpose(perm_b).reshape(G, S, N)
        if low is None:
            eff = _contract_eff(ea, eb, order)
        else:
            # outputs without a counting pair are empty sums, trusted to the order
            eff = np.where(np.matmul(ea <= order, eb <= order), low, order)
    cap = sp.size if low is None else sp._degree_ends[max(low, 0)]
    used_a, wa = a._support(cap)
    used_b, wb = b._support(cap)
    # the columns the products can fill; the ones past it stay zero
    width = 0
    if wa and wb:
        if wa == 1:
            width = wb
        elif wb == 1:
            width = wa
        else:
            table = sp._pairs(used_a, used_b, cap)
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
    out = out.transpose(1, 2, 3, 0).reshape(gmn + (len(out),)).transpose(perm_out + (len(perm_out),))
    eff = eff.reshape(gmn).transpose(perm_out)
    # with several orders the constructor truncates entry by entry
    return JetArray._raw(sp, out, eff, orders) if low is not None else JetArray(sp, out, eff)


def _width(used: np.ndarray) -> int:
    """Length of the shortest coefficient prefix that holds a support."""
    nz = used.nonzero()[0]
    return int(nz[-1]) + 1 if nz.size else 0


def _contract_eff(ea: np.ndarray, eb: np.ndarray, order: int) -> np.ndarray:
    """Minimum effective order over the summed pairs, (g, m, s) x (g, s, n)
    -> (g, m, n), capped at the jet order; pairs with an exact zero do not
    count.  :func:`contract` takes operands of one order each without it."""
    live_a, live_b = ea <= order, eb <= order
    pair = np.minimum(ea[:, :, :, None], eb[:, None, :, :])
    pair[~(live_a[:, :, :, None] & live_b[:, None, :, :])] = _EXACT
    return np.minimum(pair.min(axis=2), order)


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

    The substitutions psi fix the origin, psi(0) = 0, as germ maps do (a
    constant term raises :class:`ScopeError`): a source monomial of degree r
    then starts in degree r, so the degrees a truncated jet does not know
    feed none it reports.  Under t -> 1 + u, t**2 and t**2 + t**3, equal
    to order 2, would get the constant terms 1 and 2.

    The monomial table, ``table[i]`` the target coefficients of the i-th
    source monomial, is built one column degree at a time (:meth:`_fill`)
    up to the lowest effective order of the substitutions, the order every
    composition is truncated at; the columns above it stay zero.  Each
    source monomial of degree r is one of degree r - 1 times one
    substitution, and the products give the bits of the ``Jet`` products
    ``prev * subs[v]`` up to the sign of a zero.  The constructor starts
    from the empty table and grows it (:meth:`_grow`), which is also how
    :func:`regfman.fman.germ_isomorphism` grows one table through its
    solve, degree by degree as the coefficients become final.

    Applying the table to a :class:`JetArray` adds ``table[i] * c_i`` in
    source-index order over the rows that are not all zero (the sum starts
    at +0, and adding a signed zero to it changes no bit), so every
    composition with one substitution gives the same bits as composing a
    single jet.
    """

    __slots__ = ("source", "target", "table", "eff_order", "_live")

    def __init__(self, source: JetSpace, subs: JetArray):
        """``subs``: one jet per source variable, an (n,) jet array."""
        if subs.shape != (source.num_vars,):
            raise ShapeError(f"expected {source.num_vars} substitutions, got shape {subs.shape}")
        if subs.constant_term().any():
            raise ScopeError("substitutions must fix the origin: a constant term re-centers the jets")
        self.source = source
        self.target = subs.space
        self.table = np.zeros((source.size, self.target.size), dtype=np.complex128)
        self.table[0, 0] = 1.0
        self.eff_order = 0
        self._live = np.zeros(source.size, dtype=bool)
        self._live[0] = True
        self._grow(subs.coeffs, subs.eff_order())

    def _fill(self, coeffs: np.ndarray, e: int):
        """Fill the columns of target degree ``e`` from the substitutions'
        full-width coefficients ``coeffs`` (every degree below ``e``
        filled).  As psi(0) = 0, only rows of degree 1 to ``e`` reach them:
        those of degree 1 copy the substitutions, and those of degree 2 to
        ``e`` come from one ``reduceat`` over the Cauchy pairs whose targets
        have degree ``e``, each a pair of a factor row and a substitution,
        as :func:`_row_products` sums them."""
        source, target, table = self.source, self.target, self.table
        lo, hi = target._degree_ends[e - 1], target._degree_ends[e]
        ends = source._degree_ends
        top = ends[min(e, source.order)]
        if top > 1:
            v, low = source._factors.T
            table[1 : ends[1], lo:hi] = coeffs[v[: ends[1] - 1], lo:hi]
            if top > ends[1]:
                ii, jj, kk, targets, starts = target._cauchy
                first, last = np.searchsorted(kk, (lo, hi))
                groups = starts[np.searchsorted(targets, lo) : np.searchsorted(targets, hi)] - first
                fv, fl = v[ends[1] - 1 : top - 1, None], low[ends[1] - 1 : top - 1, None]
                prod = table[fl, ii[first:last]] * coeffs[fv, jj[first:last]]
                table[ends[1] : top, lo:hi] = np.add.reduceat(prod, groups, axis=1)
            self._live[1:top] |= table[1:top, lo:hi].any(axis=1)

    def _grow(self, coeffs: np.ndarray, order: int):
        """Extend the table to the same substitutions trusted to ``order``:
        ``coeffs`` are their full-width coefficients, final up to degree
        ``order`` and equal to the old ones up to the old order."""
        for e in range(self.eff_order + 1, order + 1):
            self._fill(coeffs, e)
        self.eff_order = order

    def _compose(self, c: np.ndarray, cols=slice(None)) -> np.ndarray:
        """The columns ``cols`` of the compositions of the rows of source
        coefficients ``c``, shape ``(rows, width)``."""
        table = self.table[:, cols]
        out = np.zeros((len(c), table.shape[1]), dtype=np.complex128)
        for i in np.flatnonzero(c.any(axis=0) & self._live[: c.shape[1]]):
            # one jet scales by a scalar, as a single composition does:
            # numpy may round a 1x1 broadcast product differently
            out += table[i] * (c[0, i] if len(c) == 1 else c[:, i, None])
        return out

    def __call__(self, f: "JetArray") -> "JetArray":
        """Compose every entry of a :class:`JetArray`."""
        if (f.space.num_vars, f.space.order) != (self.source.num_vars, self.source.order):
            raise ShapeError(f"cannot substitute into {f.space}: the source is {self.source}")
        c = f._stored
        out = self._compose(c.reshape(-1, c.shape[-1]))
        eff = np.minimum(f.eff, min(self.eff_order, self.target.order))
        return JetArray(self.target, out.reshape(f.shape + (self.target.size,)), eff)


def _row_products(space: JetSpace, a: np.ndarray, b: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """The products ``a[r] * b[r]`` of rows of full-width coefficients,
    truncated above ``eff[r]``, with the bits of ``Jet.__mul__`` up to the
    sign of a zero: a constant row scales the other one, and any other pair
    sums the Cauchy table of the space along the row, up to the highest
    order in ``eff`` (the table is sorted by target, so that is a prefix)."""
    moving_a, moving_b = a[:, 1:].any(axis=1), b[:, 1:].any(axis=1)
    out = np.where(moving_a[:, None], a * b[:, :1], b * a[:, :1])
    full = np.flatnonzero(moving_a & moving_b)[:, None]
    if len(full):
        ii, jj, kk, targets, starts = space._cauchy
        top = int(eff.max())
        if top < space.order:
            cap = space._degree_ends[max(top, 0)]
            pairs, groups = np.searchsorted(kk, cap), np.searchsorted(targets, cap)
            ii, jj, targets, starts = ii[:pairs], jj[:pairs], targets[:groups], starts[:groups]
        out[full, targets] = np.add.reduceat(a[full, ii] * b[full, jj], starts, axis=1)
    if eff.min(initial=space.order) < space.order:
        out[space.degrees > np.maximum(eff, 0)[:, None]] = 0.0
    return out
