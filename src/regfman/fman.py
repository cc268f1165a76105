"""F-manifold models in jet coordinates.

A model is a commutative multiplication on coordinate vector fields, held
as one jet array ``structure[i, j, k]`` = c_ij^k (d_i o d_j = c_ij^k d_k),
with a unit field and an Euler field as (n,) jet arrays, all expanded at the
coordinate origin, with the origin data each model forms once (U = E o, its
probe, spectrum, canonical frame and P^-1).  Canonical block models, their
products, axiom checks, canonical frames, bracket identities, infinitesimal
symmetries and germ isomorphisms live here; fields are batched and brackets
are contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import regend
from .errors import (
    NoIsomorphismError,
    RegularityError,
    ScopeError,
    ShapeError,
)
from .jets import DEFAULT_ORDER, JetArray, JetSpace, Substitution, contract, jet_space
from .regend import JordanSpectrum
from .reports import ResidualReport, report_from


# The canonical frame at the origin is refused above this condition number.
CANONICAL_COND_LIMIT = 1e10


class FManifoldModel:
    """Jet-valued multiplication tensor, unit field and Euler field.

    ``structure[i, j, k]`` is c_ij^k, the k-th component of d_i o d_j, an
    (n, n, n) jet array; ``unit`` and ``euler`` are (n,) jet arrays.

    A model is read-only once built: the marked structure tensor and the
    origin data (U = E o, the probe and spectrum of U(0), the canonical
    frame and P^-1) are formed from it on first use and kept.  A refusal
    keeps nothing, so it is raised again on every read.
    """

    def __init__(self, mult, unit, euler, blocks: tuple[tuple[complex, int], ...] | None = None):
        self.structure = mult
        self.unit = unit
        self.euler = euler
        self.space: JetSpace = self.unit.space
        self.dim = n = self.space.num_vars
        if (self.structure.shape, self.unit.shape, self.euler.shape) != ((n, n, n), (n,), (n,)):
            raise ShapeError("structure tensor, unit and Euler field must match the number of variables")
        if self.structure.space is not self.space or self.euler.space is not self.space:
            raise ShapeError("structure tensor, unit and Euler field must share one space")
        self.blocks = blocks

    # -- basic machinery ----------------------------------------------------

    @cached_property
    def _marked_structure(self) -> JetArray:
        """The structure tensor with its exact zeros marked
        (:meth:`JetArray.exact_zeros`), made on first use; every contraction
        of the model against its structure tensor reads this one."""
        return self.structure.exact_zeros()

    @cached_property
    def _euler_matrix(self) -> JetArray:
        """U, the jet matrix of X -> E o X (columns are E o d_j)."""
        return contract("i,ijk->kj", self.euler.exact_zeros(), self._marked_structure)

    @cached_property
    def _regularity(self) -> regend.RegularityReport:
        """The regularity probe of U(0) (:func:`regend.is_regular`)."""
        return regend.is_regular(self._euler_matrix.constant_term())

    @cached_property
    def _spectrum(self) -> JordanSpectrum:
        """The Jordan spectrum of U(0), read with the model's probe."""
        return regend.jordan_spectrum(self._euler_matrix.constant_term(), regularity=self._regularity)

    @cached_property
    def _frame(self) -> JetArray:
        """X_0 = e, X_{k+1} = E o X_k, stacked (row i is X_i); refused at a
        non-regular origin or a badly conditioned frame at the origin."""
        if not self._regularity:
            raise RegularityError("multiplication by the Euler field is not regular at the origin")
        frame = _euler_powers(self, [self.unit], self.dim)
        c = np.linalg.cond(frame.constant_term().T)
        if not np.isfinite(c) or c > CANONICAL_COND_LIMIT:
            raise RegularityError(f"canonical frame degenerate at the origin (cond {c:.2e})")
        return frame

    @cached_property
    def _frame_inverse(self) -> np.ndarray:
        """P^-1, where the columns of P = X(0)^T are the frame at the origin."""
        return np.linalg.inv(self._frame.constant_term().T)

    def multiply(self, x: JetArray, y: JetArray) -> JetArray:
        """(X o Y)^k = sum_{i,j} X^i Y^j c_ij^k."""
        xy = contract("i,j->ij", x.exact_zeros(), y.exact_zeros())
        return contract("ij,ijk->k", xy.exact_zeros(), self._marked_structure)

    def is_constant_multiplication(self) -> bool:
        return not self.structure._stored[..., 1:].any()

    def constant_structure(self) -> np.ndarray:
        """Structure constants c[i][j][k] for constant multiplication."""
        if not self.is_constant_multiplication():
            raise ScopeError("multiplication is not constant in these coordinates")
        return self.structure.constant_term()

    def mult_matrices(self) -> list[np.ndarray]:
        """Constant matrices of multiplication by each coordinate field,
        column convention: (C_i)_{kj} = c_ij^k."""
        c = self.constant_structure()
        return [c[i].T.copy() for i in range(self.dim)]

    def __repr__(self):
        return f"FManifoldModel(dim={self.dim}, order={self.space.order}, blocks={self.blocks})"


# -- canonical models ---------------------------------------------------------


def _affine(sp: JetSpace, const, lin) -> JetArray:
    """The jets const[..., i] + sum_v lin[..., i, v] t_v."""
    const = np.asarray(const, dtype=np.complex128)
    coeffs = np.zeros(const.shape + (sp._degree_ends[min(sp.order, 1)],), dtype=np.complex128)
    coeffs[..., 0] = const
    if sp.order >= 1:
        coeffs[..., sp.index_of(np.eye(sp.num_vars, dtype=np.int64))] = lin
    return JetArray(sp, coeffs, np.full(const.shape, sp.order))


def standard_block(a: complex, m: int, order: int = DEFAULT_ORDER) -> FManifoldModel:
    """Canonical regular block on C^m with eigenvalue ``a`` at the origin.

    Multiplication d_i o d_j = d_{i+j} (zero past the top), unit d_0, Euler
    field (t0+a) d_0 + (t1+1) d_1 + t2 d_2 + ... .
    """
    if m < 1:
        raise ShapeError("block size must be positive")
    sp = jet_space(m, order)
    i, j = np.indices((m, m))
    mult = np.zeros((m, m, m))
    mult[i[i + j < m], j[i + j < m], (i + j)[i + j < m]] = 1.0
    euler0 = np.zeros(m, dtype=np.complex128)
    euler0[0] = a
    if m > 1:
        euler0[1] = 1.0
    return FManifoldModel(
        JetArray.constant(sp, mult),
        JetArray.constant(sp, np.eye(m)[0]),
        _affine(sp, euler0, np.eye(m)),
        blocks=((complex(a), m),),
    )


def product_model(factors: Sequence[FManifoldModel]) -> FManifoldModel:
    """Direct product: block-diagonal multiplication, sums of unit and Euler
    fields, variables concatenated in factor order."""
    if not factors:
        raise ShapeError("product of zero factors")
    if len(factors) == 1:
        return factors[0]
    order = factors[0].space.order
    if any(f.space.order != order for f in factors):
        raise ShapeError("factors must share the jet order")
    dim = sum(f.dim for f in factors)
    sp = jet_space(dim, order)
    # each factor's monomials among those of the product's variables
    index, offsets, at = [], [], 0
    for f in factors:
        index.append(sp.index_of(np.pad(f.space.exponents, ((0, 0), (at, dim - at - f.dim)))))
        offsets.append(at)
        at += f.dim
    fields = []  # structure tensor, unit, Euler field
    for parts, r in zip(zip(*((f.structure, f.unit, f.euler) for f in factors)), (3, 1, 1)):
        # the factors' stored columns, written only as wide as they reach
        width = max(int(idx[: x._stored.shape[-1]].max()) + 1 for x, idx in zip(parts, index))
        coeffs = np.zeros((dim,) * r + (width,), dtype=np.complex128)
        eff = np.full((dim,) * r, order)
        for f, x, idx, at in zip(factors, parts, index, offsets):
            block = (slice(at, at + f.dim),) * r
            coeffs[block][..., idx[: x._stored.shape[-1]]] = x._stored
            eff[block] = x.eff
        fields.append(JetArray(sp, coeffs, eff))
    blocks = tuple(b for f in factors for b in f.blocks or ())
    return FManifoldModel(*fields, blocks=blocks or None)


def standard_model(
    spectrum: JordanSpectrum | Sequence[tuple[complex, int]],
    order: int = DEFAULT_ORDER,
) -> FManifoldModel:
    """Product of standard blocks in canonical spectrum order."""
    if not isinstance(spectrum, JordanSpectrum):
        spectrum = JordanSpectrum(tuple(spectrum))
    factors = [standard_block(a, m, order) for a, m in spectrum.blocks]
    return product_model(factors) if len(factors) > 1 else factors[0]


# -- verification -------------------------------------------------------------


def lie_derivative_of_mult(model: FManifoldModel, x: JetArray) -> JetArray:
    """L_X(o)(d_a, d_b) = [X, d_a o d_b] - [X, d_a] o d_b - d_a o [X, d_b]
    for every pair of coordinate fields, shape (n, n, n); both brackets
    read one gradient of X."""
    dx = x.grad()
    brackets = _vector_bracket(x, dx, JetArray.constant(model.space, np.eye(model.dim)))  # [X, d_a]
    return _lie_derivative(model, x, dx, brackets)


def _lie_derivative(model: FManifoldModel, x: JetArray, dx: JetArray, brackets: JetArray) -> JetArray:
    """:func:`lie_derivative_of_mult` from X, its gradient and the
    brackets [X, d_a]."""
    n = model.dim
    cx = model._marked_structure
    brackets = brackets.exact_zeros()
    return (
        _vector_bracket(x, dx, model.structure.reshape(n * n, n)).reshape(n, n, n)
        - contract("ai,ibk->abk", brackets, cx)
        - contract("bj,ajk->abk", brackets, cx)
    )


def _vector_bracket(x: JetArray, dx: JetArray, y: JetArray) -> JetArray:
    """[X, Y]^k = X(Y^k) - Y(X^k) for one field X (shape (n,)), its gradient
    dx[v, k] = d_v X^k, and a batch of fields Y (shape (b, n))."""
    return contract("v,vbk->bk", x, y.grad()) - contract("bv,vk->bk", y, dx)


def check_fmanifold(model: FManifoldModel) -> ResidualReport:
    """Residuals of commutativity, associativity, the unit law, the
    integrability condition and the Euler condition, maximized over
    coordinate-field tuples.

    Identities involving one Lie derivative are evaluated one order below
    the ambient jet order.  Products in which the loop form of an identity
    would skip a vanishing factor skip it here too (exact zeros); the
    associativity residuals of all index triples are two contractions of
    the structure tensor with itself.
    """
    m = model.dim
    k_order = model.space.order
    c = model.structure
    cx = model._marked_structure
    upper = np.triu(np.ones((m, m), dtype=bool))

    # the diagonal of c - c^T is an exact zero
    commut = (c - c.transpose(1, 0, 2)).residual_norms().max(axis=-1)[upper].max()

    # (d_a o d_b) o d_c - d_a o (d_b o d_c) over b >= a
    assoc = contract("abi,ick->abck", cx, cx) - contract("bcj,ajk->abck", cx, cx)
    assoc = assoc.residual_norms().max(axis=(2, 3))[upper].max()

    # L_E(o)(d_a, d_b) - d_a o d_b over b >= a
    euler_res = (lie_derivative_of_mult(model, model.euler) - c).residual_norms().max(axis=-1)[upper].max()

    unit = contract("i,ibk->bk", model.unit.exact_zeros(), cx)
    unit_res = (unit - JetArray.constant(model.space, np.eye(model.dim))).residual_norm()

    return report_from(
        [
            ("commutativity", commut, k_order),
            ("associativity", assoc, k_order),
            ("unit", unit_res, k_order),
            ("integrability", _integrability_residual(model), k_order - 1),
            ("euler", euler_res, k_order - 1),
        ]
    )


def _integrability_residual(model: FManifoldModel) -> float:
    """L_{da o db}(o)(dc, dd) - da o L_{db}(o)(dc, dd) - db o L_{da}(o)(dc, dd)
    over a <= b and c <= d.  Every term carries a derivative of the
    structure tensor, so constant multiplication gives an exact zero."""
    if model.is_constant_multiplication():
        return 0.0
    m = model.dim
    c = model.structure
    cx = model._marked_structure
    dc = c.grad()  # dc[v, i, j, k] = d_v c_ij^k
    upper = np.triu(np.ones((m, m), dtype=bool))
    worst = 0.0
    for a in range(m):
        for b in range(a, m):
            dab = dc[:, a, b]  # dab[v, k] = d_v c_ab^k
            dabx = dab.exact_zeros()
            lhs = (
                contract("i,icdl->cdl", cx[a, b], dc)
                - contract("cdi,il->cdl", cx, dab)
                + contract("ci,idl->cdl", dabx, cx)
                + contract("di,cil->cdl", dabx, cx)
            )
            rhs = contract("cdj,jl->cdl", dc[b].exact_zeros(), cx[a]) + contract(
                "cdj,jl->cdl", dc[a].exact_zeros(), cx[b]
            )
            worst = max(worst, (lhs - rhs).residual_norms().max(axis=-1)[upper].max())
    return float(worst)


def mult_by_euler(model: FManifoldModel) -> JetArray:
    """The model's jet matrix of X -> E o X (columns are E o d_j)."""
    return model._euler_matrix


def canonical_frame(model: FManifoldModel) -> JetArray:
    """The model's X_0 = e, X_{k+1} = E o X_k, stacked (row i is X_i); requires
    a regular origin and a frame at the origin of condition number at most
    ``CANONICAL_COND_LIMIT``."""
    return model._frame


def _euler_powers(model: FManifoldModel, fields: list[JetArray], count: int) -> JetArray:
    """The Euler powers X_0, X_1, ... from the first ``fields``, continued
    by X_{k+1} = E o X_k to ``count`` fields (none dropped), stacked."""
    fields = list(fields)
    while len(fields) < count:
        fields.append(model.multiply(model.euler, fields[-1]))
    return JetArray.stack(fields)


def _field_brackets(fields: JetArray) -> JetArray:
    """[X_a, X_b] for every pair of a batch of fields (shape (b, n)), shape
    (b, b, n): X_a(X_b^k) from one contraction, minus its transpose."""
    xy = contract("av,vbk->abk", fields, fields.grad())
    return xy - xy.transpose(1, 0, 2)


# -- bracket constants and frame identities -----------------------------------


@dataclass(frozen=True)
class BracketConstants:
    """Structure constants of the canonical-frame bracket algebra for a
    single nilpotent block of dimension n.

    ``rows[p][k]`` holds the non-negative-power table; negative powers follow
    the convention that the only non-zero entry is value(k, k-n) = -1.
    """

    n: int
    rows: tuple[tuple[float, ...], ...]

    @classmethod
    def build(cls, n: int) -> "BracketConstants":
        """Rows 0 to n, the non-negative powers the frame identities read."""
        if n < 1:
            raise ShapeError("dimension must be positive")
        row0 = tuple((-1.0) ** (n - k) * math.comb(n, k) for k in range(n))
        rows = [row0]
        for _ in range(n):
            prev = rows[-1]
            nxt = [-row0[0] * prev[n - 1]]
            for k in range(1, n):
                nxt.append(prev[k - 1] - row0[k] * prev[n - 1])
            rows.append(tuple(nxt))
        return cls(n, tuple(rows))

    def value(self, k: int, p: int) -> float:
        if not 0 <= k < self.n:
            raise ShapeError(f"index k={k} out of range")
        if p < 0:
            return -1.0 if p == k - self.n else 0.0
        if p >= len(self.rows):
            raise ShapeError(f"power {p} beyond the built table ({len(self.rows) - 1})")
        return self.rows[p][k]

    def row(self, p: int) -> tuple[float, ...]:
        if p < 0:
            return tuple(self.value(k, p) for k in range(self.n))
        return self.rows[p]


def eigenfunction(u: JetArray) -> JetArray:
    """Eigenvalue function of multiplication by E on a single nilpotent
    block, extracted as trace(U)/n (a 0-dimensional jet array) from the
    (n, n) jet matrix U of :func:`mult_by_euler`."""
    n = len(u)
    return contract("ij,ij->", u, JetArray.constant(u.space, np.eye(n))).scale(1.0 / n)


def _powers(a: JetArray, count: int) -> JetArray:
    """a**0, ..., a**(count - 1) for one jet (a 0-dimensional array), each
    power the product of the one before and ``a``."""
    out = [JetArray.constant(a.space, 1.0)]
    for _ in range(count - 1):
        out.append(out[-1] * a)
    return JetArray.stack(out)


def _matrix_powers(b: JetArray, count: int) -> list[JetArray]:
    """Matrix powers b**0, ..., b**(count - 1) of one jet matrix, each the
    product of the one before and ``b``."""
    out = [JetArray.constant(b.space, np.eye(len(b)))]
    for _ in range(count - 1):
        out.append(contract("ab,bc->ac", out[-1], b))
    return out


def check_frame_brackets(model: FManifoldModel) -> ResidualReport:
    """Canonical-frame bracket identities.

    Always checks [X_i, X_j] = (j-i) X_{i+j-1} for i+j <= n.  When the
    origin spectrum of E is one Jordan block it also checks the unified
    bracket formula, the eigenfunction law X_i(a) = a^i and the
    minimal-polynomial identity U^n + sum_k c_k^(0) a^{n-k} U^k = 0.  Each
    identity is one residual tensor over all index pairs, with its
    right-hand side contracted from a constant coefficient table, and
    every identity reads the model's origin data.
    """
    n = model.dim
    sp = model.space
    k_order = sp.order
    frame = model._frame
    brackets = _field_brackets(frame)  # brackets[i, j] = [X_i, X_j]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    hertling = [(i, j) for i, j in pairs if i + j <= n]
    coef = np.zeros((n, n, n))
    for i, j in hertling:
        coef[i, j, i + j - 1] = j - i
    res = (brackets - contract("ijl,lk->ijk", JetArray.constant(sp, coef), frame)).residual_norms()
    entries = [(f"hertling_{i}_{j}", res[i, j].max(), k_order - 1) for i, j in hertling]

    if len(model._spectrum.blocks) == 1:
        consts = BracketConstants.build(n)
        a = eigenfunction(model._euler_matrix)
        # the identities read a^0, ..., a^(2n-4) (brackets) and a^n (minimal
        # polynomial)
        count = max(2 * n - 4, n) + 1
        powers = _powers(a, count)
        # [X_i, X_j] = sum_k c_k^(i+j-1-n) (i-j) a^{i+j-1-k} X_k; the terms
        # with k > i+j-1, a negative power, vanish
        coef = np.zeros((n, n, n, count))
        for i, j in pairs:
            for k in range(min(n, i + j)):
                coef[i, j, k, i + j - 1 - k] = consts.value(k, i + j - 1 - n) * (i - j)
        scaled = contract("q,kl->qkl", powers, frame)  # a^q X_k
        rhs = contract("ijkq,qkl->ijl", JetArray.constant(sp, coef).exact_zeros(), scaled)
        res = (brackets - rhs).residual_norms()
        entries += [(f"unified_{i}_{j}", res[i, j].max(), k_order - 1) for i, j in pairs]
        # X_i(a) = a^i
        law = contract("iv,v->i", frame, a.grad()) - powers[:n]
        entries += [(f"eigenfunction_{i}", v, k_order - 1) for i, v in enumerate(law.residual_norms())]
        # U^0, ..., U^n and the identity's coefficients c_k^(0) a^{n-k}
        u_powers = _matrix_powers(model._euler_matrix, n + 1)
        coef = np.zeros((n, count))
        coef[np.arange(n), n - np.arange(n)] = [consts.value(k, 0) for k in range(n)]
        weights = contract("kq,q->k", JetArray.constant(sp, coef).exact_zeros(), powers)
        identity = u_powers[n] + contract("k,kij->ij", weights, JetArray.stack(u_powers[:n]))
        entries.append(("min_poly_identity", identity.residual_norm(), k_order))
    return report_from(entries)


# -- infinitesimal symmetries --------------------------------------------------


def symmetry_basis(m: int, order: int = DEFAULT_ORDER) -> list[JetArray]:
    """Basis Y_1, ..., Y_{m-1} of the symmetry algebra of the standard block:
    Y_1 = (t1+1) d_1 + sum_{j>=2} j t^j d_j and Y_k = d_{k-1} o Y_1."""
    if m < 1:
        raise ShapeError("block size must be positive")
    if m == 1:
        return []
    model = standard_block(0.0, m, order)
    y1 = _affine(model.space, np.eye(m)[1], np.diag(np.arange(m)))
    # Y_k = d_{k-1} o Y_1 for k = 2, ..., m-1
    rest = contract("j,ajl->al", y1.exact_zeros(), model._marked_structure[1 : m - 1])
    return [y1, *rest]


def check_symmetry(model: FManifoldModel, x: JetArray) -> ResidualReport:
    """Residuals of L_X(o), [X, E], and the coordinate reformulation of the
    multiplication-preservation condition (three named parts)."""
    if x.shape != (model.dim,):
        raise ShapeError("field dimension does not match the model")
    m = model.dim
    k_order = model.space.order
    upper = np.triu(np.ones((m, m), dtype=bool))
    dx = x.grad()
    # [X, d_i] = -[d_i, X]; every residual below is linear in these
    brackets = _vector_bracket(x, dx, JetArray.constant(model.space, np.eye(m)))
    mult_res = _lie_derivative(model, x, dx, brackets).residual_norms().max(axis=-1)[upper].max()
    euler_res = _vector_bracket(x, dx, model.euler.reshape(1, m)).residual_norm()
    entries = [
        ("mult_invariance", mult_res, k_order - 1),
        ("euler_commute", euler_res, k_order - 1),
        ("circ_unit", brackets[0].residual_norm(), k_order - 1),
    ]
    if m >= 2:
        cx = model._marked_structure
        br1 = brackets[1].exact_zeros()
        top = contract("i,ik->k", br1, cx[:, m - 1])
        entries.append(("circ_top", top.residual_norm(), k_order - 1))
        # [d_i, X] - i d_{i-1} o [d_1, X] for i = 2, ..., m-1
        expected = contract("j,ijk->ik", br1, cx[1 : m - 1])
        expected = contract("i,ik->ik", JetArray.constant(model.space, np.arange(2, m)), expected)
        entries.append(("circ_chain", (brackets[2:] - expected).residual_norm(), k_order - 1))
    return report_from(entries)


def check_symmetry_brackets(m: int, order: int = DEFAULT_ORDER) -> ResidualReport:
    """[Y_i, Y_j] = (i-j) Y_{i+j-1} for i+j <= m and zero above."""
    if m < 2:
        raise ShapeError("need at least two dimensions for a symmetry algebra")
    fields = JetArray.stack(symmetry_basis(m, order))
    # 0-based: [Y_a, Y_b] = (a - b) Y_{a+b} while a + b <= m - 2
    coef = np.zeros((m - 1,) * 3)
    for a in range(m - 1):
        for b in range(m - 1 - a):
            coef[a, b, a + b] = a - b
    expected = contract("abl,lk->abk", JetArray.constant(fields.space, coef), fields)
    res = (_field_brackets(fields) - expected).residual_norms().max(axis=-1)
    entries = [
        (f"bracket_{i}_{j}", res[i - 1, j - 1], order - 1) for i in range(1, m) for j in range(i, m)
    ]
    return report_from(entries)


# -- germ isomorphisms ---------------------------------------------------------


@dataclass(frozen=True)
class GermIsomorphism:
    """The isomorphism of :func:`germ_isomorphism`: its coordinate map
    ``map`` (an (n,) jet array, psi(0) = 0) and residual report, with the
    substitution table of composing with psi and the origin spectra of
    multiplication by E of the source and the target (``spectra``)."""

    map: JetArray
    report: ResidualReport
    substitution: Substitution
    spectra: tuple[JordanSpectrum, JordanSpectrum]


def germ_isomorphism(model_a: FManifoldModel, model_b: FManifoldModel) -> GermIsomorphism:
    """The unique isomorphism sending the canonical frame of ``model_a`` to
    that of ``model_b``.

    Solved order by order from (Jacobian psi) X_i = Y_i o psi; the linear
    part sends the frame of A at the origin to the frame of B.  The report
    holds residuals of frame transport, multiplicativity and transport of
    Euler-field powers.  Step d reads only degree d of the transport
    defect, which fixes degree d + 1 of psi.  Degree d of Y_i o psi reads
    only the coefficients of psi of degree at most d, final once step d - 1
    has run, so one substitution table grows with psi: step d fills its
    degree-d columns and composes only those columns of the Y_i, and one
    more fill gives the table that the residuals, the multiplicativity
    check and the pull-back share.  It reads the models' origin data.
    """
    if model_a.dim != model_b.dim:
        raise NoIsomorphismError("models have different dimensions")
    if model_a.space.order != model_b.space.order:
        raise ShapeError("models must share the jet order")
    spec_a, spec_b = model_a._spectrum, model_b._spectrum
    if not spec_a.matches(spec_b):
        raise NoIsomorphismError("origin multiplications by the Euler fields are not conjugate")

    n = model_a.dim
    sp = model_a.space
    k_order = sp.order

    # Euler powers X_i = E^i o e of A and Y_i of B; the first n are the frames
    pow_a = _euler_powers(model_a, list(model_a._frame), k_order + 1)
    pow_b = _euler_powers(model_b, list(model_b._frame), k_order + 1)
    xinv = model_a._frame_inverse
    xa, xb = pow_a[:n], pow_b[:n]

    # psi trusted to order 0 is zero; its one table grows a degree per step
    psi = np.zeros((n, sp.size), dtype=np.complex128)
    sub = Substitution(sp, JetArray.constant(sp, np.zeros(n)).capped(0))
    ends = [0, *sp._degree_ends]
    for d in range(k_order):
        sub._grow(psi, d)
        start, end = ends[d], ends[d + 1]
        psi_d = JetArray(sp, psi.copy(), np.full(n, d + 1))
        jx = contract("vk,iv->ik", psi_d.grad(), xa)
        # degree d of the transport defect, truncated as the whole defect is
        yb = sub._compose(xb._stored.reshape(n * n, -1), slice(start, end)).reshape(n, n, -1)
        part = yb - jx.degree_part(d)
        part[np.maximum(np.minimum(xb.eff, jx.eff), 0) < d] = 0.0
        # degree-d part determines the Jacobian of the degree-(d+1) correction
        entry = sum(np.multiply.outer(xinv[i], part[i]) for i in range(n))  # (j, k, degree-d columns)
        for j, (src, dst) in enumerate(sp._shift):
            # the shifts out of degree d: their sources ascend
            rows = slice(*np.searchsorted(src, (start, end)))
            psi[:, dst[rows]] += entry[j][:, src[rows] - start] * (1.0 / (d + 1))

    sub._grow(psi, k_order)
    psi_arr = JetArray(sp, psi, np.full(n, k_order))
    jac = psi_arr.grad()

    # Y_i o psi - (Jacobian psi) X_i over the Euler powers; jac[v, k] = d_v psi^k
    transport = (sub(pow_b) - contract("vk,iv->ik", jac, pow_a)).residual_norms().max(axis=1)
    entries = [(f"frame_transport_{i}", transport[i], k_order - 1) for i in range(n)]

    # (Jacobian psi)(d_a o d_b) against (Jacobian psi) d_a o (Jacobian psi) d_b at psi
    jacx = jac.exact_zeros()
    lhs = contract("jk,abj->abk", jac, model_a.structure)
    half = contract("bj,ijk->ibk", jacx, sub(model_b.structure).exact_zeros())
    rhs = contract("ai,ibk->abk", jacx, half.exact_zeros())
    upper = np.triu(np.ones((n, n), dtype=bool))
    mult_res = (lhs - rhs).residual_norms().max(axis=-1)[upper].max()
    entries.append(("multiplicativity", mult_res, k_order - 1))

    entries += [(f"euler_power_{i}", transport[i], k_order - 1) for i in range(k_order + 1)]
    return GermIsomorphism(psi_arr, report_from(entries), sub, (spec_a, spec_b))
