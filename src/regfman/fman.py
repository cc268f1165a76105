"""F-manifold models in jet coordinates.

A model is a commutative multiplication on coordinate vector fields encoded
by jet-valued structure data ``mult[i][j] = d_i o d_j``, together with a unit
field and an Euler field, all expanded at the coordinate origin.  Canonical
block models, their products, axiom verification, canonical frames, bracket
identities, infinitesimal symmetries and order-by-order germ isomorphisms
live here.
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
from .jets import (
    DEFAULT_ORDER,
    Jet,
    JetArray,
    JetMatrix,
    JetSpace,
    JetVector,
    Substitution,
    contract,
    jet_space,
    lie_bracket,
)
from .regend import JordanSpectrum
from .reports import ResidualReport, report_from


class FManifoldModel:
    """Jet-valued multiplication tensor, unit field and Euler field."""

    def __init__(
        self,
        mult: Sequence[Sequence[JetVector]],
        unit: JetVector,
        euler: JetVector,
        blocks: tuple[tuple[complex, int], ...] | None = None,
    ):
        rows = tuple(tuple(r) for r in mult)
        self.dim = len(rows)
        sp = unit.space
        if len(unit) != self.dim or len(euler) != self.dim:
            raise ShapeError("unit/Euler components must match the dimension")
        for r in rows:
            if len(r) != self.dim:
                raise ShapeError("structure tensor must be dim x dim")
            for vec in r:
                if vec.space is not sp or len(vec) != self.dim:
                    raise ShapeError("structure tensor entries must be uniform")
        if sp.num_vars != self.dim:
            raise ShapeError("model dimension must equal the number of variables")
        self.mult = rows
        self.unit = unit
        self.euler = euler
        self.space: JetSpace = sp
        self.blocks = blocks

    @cached_property
    def structure(self) -> JetArray:
        """The structure tensor, structure[i, j, k] = c_ij^k, built on first
        use (one coefficient column wide for constant multiplication)."""
        return JetArray.from_jets(self.mult)

    # -- basic machinery ----------------------------------------------------

    def basis_field(self, i: int) -> JetVector:
        return JetVector(
            self.space.constant(1.0) if k == i else self.space.zero()
            for k in range(self.dim)
        )

    def structure_jet(self, i: int, j: int, k: int) -> Jet:
        return self.mult[i][j][k]

    def multiply(self, x: JetVector, y: JetVector) -> JetVector:
        """(X o Y)^k = sum_{i,j} X^i Y^j c_ij^k."""
        xy = contract(
            "i,j->ij",
            JetArray.from_jets(x).exact_zeros(),
            JetArray.from_jets(y).exact_zeros(),
        )
        return contract("ij,ijk->k", xy.exact_zeros(), self.structure.exact_zeros()).to_vector()

    def is_constant_multiplication(self, tol: float = 0.0) -> bool:
        return np.abs(self.structure._stored[..., 1:]).max(initial=0.0) <= tol

    def constant_structure(self) -> np.ndarray:
        """Structure constants c[i][j][k] for constant multiplication."""
        if not self.is_constant_multiplication(tol=0.0):
            raise ScopeError("multiplication is not constant in these coordinates")
        return self.structure.constant_term()

    def mult_matrices(self) -> list[np.ndarray]:
        """Constant matrices of multiplication by each coordinate field,
        column convention: (C_i)_{kj} = c_ij^k."""
        c = self.constant_structure()
        return [c[i].T.copy() for i in range(self.dim)]

    def __repr__(self):
        return f"FManifoldModel(dim={self.dim}, order={self.space.order}, blocks={self.blocks})"


@dataclass(frozen=True)
class CanonicalFrame:
    """Multiplicative powers of the Euler field, starting at the unit."""

    fields: tuple[JetVector, ...]

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, i):
        return self.fields[i]

    def constant_matrix(self) -> np.ndarray:
        return np.column_stack([f.constant_terms() for f in self.fields])


# -- canonical models ---------------------------------------------------------


def standard_block(a: complex, m: int, order: int = DEFAULT_ORDER) -> FManifoldModel:
    """Canonical regular block on C^m with eigenvalue ``a`` at the origin.

    Multiplication d_i o d_j = d_{i+j} (zero past the top), unit d_0, Euler
    field (t0+a) d_0 + (t1+1) d_1 + t2 d_2 + ... .
    """
    if m < 1:
        raise ShapeError("block size must be positive")
    sp = jet_space(m, order)
    zero_vec = JetVector([sp.zero() for _ in range(m)])

    def basis_vec(k):
        return JetVector(
            [sp.constant(1.0) if i == k else sp.zero() for i in range(m)]
        )

    mult = [
        [basis_vec(i + j) if i + j <= m - 1 else zero_vec for j in range(m)]
        for i in range(m)
    ]
    unit = basis_vec(0)
    euler_comps = []
    for i in range(m):
        t = sp.variable(i)
        if i == 0:
            euler_comps.append(t + complex(a))
        elif i == 1:
            euler_comps.append(t + 1.0)
        else:
            euler_comps.append(t)
    euler = JetVector(euler_comps)
    return FManifoldModel(mult, unit, euler, blocks=((complex(a), m),))


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
    offsets = []
    at = 0
    for f in factors:
        offsets.append(at)
        at += f.dim

    def embed_jet(j: Jet, offset: int, src: JetSpace) -> Jet:
        terms = {}
        for e, c in j.terms().items():
            new = [0] * dim
            for v, x in enumerate(e):
                new[offset + v] = x
            terms[tuple(new)] = c
        out = sp.from_terms(terms)
        return sp._wrap(out.coeffs.copy(), j.eff_order)

    def embed_vec(vec: JetVector, offset: int, src_dim: int, src: JetSpace) -> list[Jet]:
        comps = [sp.zero() for _ in range(dim)]
        for k in range(src_dim):
            comps[offset + k] = embed_jet(vec[k], offset, src)
        return comps

    zero_vec = JetVector([sp.zero() for _ in range(dim)])
    mult = [[zero_vec for _ in range(dim)] for _ in range(dim)]
    unit_comps = [sp.zero() for _ in range(dim)]
    euler_comps = [sp.zero() for _ in range(dim)]
    blocks: list[tuple[complex, int]] = []
    for f, off in zip(factors, offsets):
        for i in range(f.dim):
            for j in range(f.dim):
                mult[off + i][off + j] = JetVector(
                    embed_vec(f.mult[i][j], off, f.dim, f.space)
                )
        u = embed_vec(f.unit, off, f.dim, f.space)
        e = embed_vec(f.euler, off, f.dim, f.space)
        for k in range(dim):
            unit_comps[k] = unit_comps[k] + u[k]
            euler_comps[k] = euler_comps[k] + e[k]
        blocks.extend(f.blocks or [])
    return FManifoldModel(
        mult,
        JetVector(unit_comps),
        JetVector(euler_comps),
        blocks=tuple(blocks) if blocks else None,
    )


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


def lie_derivative_of_mult(model: FManifoldModel, x: JetVector, c: int, d: int) -> JetVector:
    """L_X(o)(d_c, d_d) = [X, d_c o d_d] - [X, d_c] o d_d - d_c o [X, d_d]."""
    dc = model.basis_field(c)
    dd = model.basis_field(d)
    t1 = lie_bracket(x, model.mult[c][d])
    t2 = model.multiply(lie_bracket(x, dc), dd)
    t3 = model.multiply(dc, lie_bracket(x, dd))
    return t1 - t2 - t3


def _vector_bracket(x: JetArray, y: JetArray) -> JetArray:
    """[X, Y]^k = X(Y^k) - Y(X^k) for one field X (shape (n,)) and a batch
    of fields Y (shape (b, n))."""
    return contract("v,vbk->bk", x, y.grad()) - contract("bv,vk->bk", y, x.grad())


def check_fmanifold(model: FManifoldModel) -> ResidualReport:
    """Residuals of commutativity, associativity, the unit law, the
    integrability condition and the Euler condition, maximized over
    coordinate-field tuples.

    Identities involving one Lie derivative are evaluated one order below
    the ambient jet order.  Products in which the loop form of an identity
    would skip a vanishing factor skip it here too (exact zeros); the
    residual tensors are formed one leading index at a time.
    """
    m = model.dim
    k_order = model.space.order
    c = model.structure
    cx = c.exact_zeros()
    strict = np.triu(np.ones((m, m), dtype=bool), 1)

    commut = (c - c.transpose(1, 0, 2)).residual_norms().max(axis=-1)[strict].max(initial=0.0)

    # [E, d_a] for every coordinate field d_a
    basis = JetArray.constant(model.space, np.eye(m))
    euler = JetArray.from_jets(model.euler)
    euler_brackets = _vector_bracket(euler, basis).exact_zeros()

    assoc = euler_res = 0.0
    for a in range(m):
        # (d_a o d_b) o d_c - d_a o (d_b o d_c) over b >= a
        lhs = contract("bi,ick->bck", cx[a], cx)
        rhs = contract("bcj,jk->bck", cx, cx[a])
        assoc = max(assoc, (lhs - rhs)[a:].residual_norm())
        # L_E(o)(d_a, d_b) - d_a o d_b
        lie = (
            _vector_bracket(euler, c[a])
            - contract("i,ibk->bk", euler_brackets[a], cx)
            - contract("bj,jk->bk", euler_brackets, cx[a])
        )
        euler_res = max(euler_res, (lie - c[a])[a:].residual_norm())

    unit = contract("i,ibk->bk", JetArray.from_jets(model.unit).exact_zeros(), cx)
    unit_res = (unit - basis).residual_norm()

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
    cx = c.exact_zeros()
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


def mult_by_euler(model: FManifoldModel) -> JetMatrix:
    """Jet matrix of X -> E o X in the coordinate frame (columns are E o d_j)."""
    euler = JetArray.from_jets(model.euler).exact_zeros()
    return contract("i,ijk->kj", euler, model.structure.exact_zeros()).to_matrix()


def canonical_frame(model: FManifoldModel, check_regular: bool = True) -> CanonicalFrame:
    """X_0 = e, X_{k+1} = E o X_k; requires a regular origin."""
    u0 = mult_by_euler(model).constant_term()
    if check_regular and not regend.is_regular(u0):
        raise RegularityError("multiplication by the Euler field is not regular at the origin")
    fields = [model.unit]
    for _ in range(model.dim - 1):
        fields.append(model.multiply(model.euler, fields[-1]))
    frame = CanonicalFrame(tuple(fields))
    if check_regular:
        c = np.linalg.cond(frame.constant_matrix())
        if not np.isfinite(c) or c > 1e10:
            raise RegularityError(f"canonical frame degenerate at the origin (cond {c:.2e})")
    return frame


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
    def build(cls, n: int, max_power: int | None = None) -> "BracketConstants":
        if n < 1:
            raise ShapeError("dimension must be positive")
        if max_power is None:
            max_power = n
        row0 = tuple((-1.0) ** (n - k) * math.comb(n, k) for k in range(n))
        rows = [row0]
        for _ in range(max_power):
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


def bracket_constants(n: int, max_power: int | None = None) -> BracketConstants:
    return BracketConstants.build(n, max_power)


def eigenfunction(model: FManifoldModel) -> Jet:
    """Eigenvalue function of multiplication by E on a single nilpotent
    block, extracted as trace(U)/n."""
    u = mult_by_euler(model)
    return u.trace().scale(1.0 / model.dim)


def _require_single_block(model: FManifoldModel, what: str):
    u0 = mult_by_euler(model).constant_term()
    spec = regend.jordan_spectrum(u0)
    if len(spec.blocks) != 1:
        raise ScopeError(
            f"{what} applies to single nilpotent blocks; spectrum has "
            f"{len(spec.blocks)} blocks"
        )


def check_frame_brackets(
    model: FManifoldModel, include_nilpotent: bool | None = None
) -> ResidualReport:
    """Canonical-frame bracket identities.

    Always checks [X_i, X_j] = (j-i) X_{i+j-1} for i+j <= n.  On single
    nilpotent blocks additionally checks the unified bracket formula, the
    eigenfunction law X_i(a) = a^i and the minimal-polynomial identity
    U^n + sum_k c_k^(0) a^{n-k} U^k = 0.
    """
    n = model.dim
    k_order = model.space.order
    frame = canonical_frame(model)
    entries: list[tuple[str, float, int]] = []

    for i in range(n):
        for j in range(i + 1, n):
            if i + j > n:
                continue
            br = lie_bracket(frame[i], frame[j])
            expected = frame[i + j - 1].scale(float(j - i))
            entries.append(
                (f"hertling_{i}_{j}", (br - expected).residual_norm(), k_order - 1)
            )

    u0 = mult_by_euler(model).constant_term()
    spec = regend.jordan_spectrum(u0)
    single = len(spec.blocks) == 1
    if include_nilpotent is None:
        include_nilpotent = single
    if include_nilpotent:
        if not single:
            raise ScopeError(
                "unified bracket and eigenfunction checks need a single nilpotent block"
            )
        consts = bracket_constants(n, max_power=2 * n)
        a = eigenfunction(model)
        powers = [model.space.one()]
        for _ in range(2 * n):
            powers.append(powers[-1] * a)
        for i in range(n):
            for j in range(i + 1, n):
                br = lie_bracket(frame[i], frame[j])
                rhs = JetVector([model.space.zero() for _ in range(n)])
                p = i + j - 1 - n
                for k in range(n):
                    coeff = consts.value(k, p)
                    if coeff == 0.0:
                        continue
                    rhs = rhs + frame[k].scale(powers[i + j - 1 - k].scale(coeff * (i - j)))
                entries.append(
                    (f"unified_{i}_{j}", (br - rhs).residual_norm(), k_order - 1)
                )
        for i in range(n):
            res = frame[i].apply_to(a) - powers[i]
            entries.append((f"eigenfunction_{i}", res.residual_norm(), k_order - 1))
        u = mult_by_euler(model)
        acc_m = u.power(n)
        for k in range(n):
            acc_m = acc_m + u.power(k).scale(powers[n - k].scale(consts.value(k, 0)))
        entries.append(("min_poly_identity", acc_m.residual_norm(), k_order))
    return report_from(entries)


# -- infinitesimal symmetries --------------------------------------------------


def symmetry_basis(m: int, order: int = DEFAULT_ORDER) -> list[JetVector]:
    """Basis Y_1, ..., Y_{m-1} of the symmetry algebra of the standard block:
    Y_1 = (t1+1) d_1 + sum_{j>=2} j t^j d_j and Y_k = d_{k-1} o Y_1."""
    if m < 1:
        raise ShapeError("block size must be positive")
    if m == 1:
        return []
    model = standard_block(0.0, m, order)
    sp = model.space
    comps = [sp.zero() for _ in range(m)]
    comps[1] = sp.variable(1) + 1.0
    for j in range(2, m):
        comps[j] = sp.variable(j).scale(float(j))
    y1 = JetVector(comps)
    fields = [y1]
    for k in range(2, m):
        fields.append(model.multiply(model.basis_field(k - 1), y1))
    return fields


def check_symmetry(model: FManifoldModel, x: JetVector) -> ResidualReport:
    """Residuals of L_X(o), [X, E], and the coordinate reformulation of the
    multiplication-preservation condition (three named parts)."""
    if len(x) != model.dim:
        raise ShapeError("field dimension does not match the model")
    m = model.dim
    k_order = model.space.order
    mult_res = 0.0
    for a in range(m):
        for b in range(a, m):
            mult_res = max(
                mult_res, lie_derivative_of_mult(model, x, a, b).residual_norm()
            )
    euler_res = lie_bracket(x, model.euler).residual_norm()

    entries = [
        ("mult_invariance", mult_res, k_order - 1),
        ("euler_commute", euler_res, k_order - 1),
    ]
    br0 = lie_bracket(model.basis_field(0), x)
    entries.append(("circ_unit", br0.residual_norm(), k_order - 1))
    if m >= 2:
        br1 = lie_bracket(model.basis_field(1), x)
        top = model.multiply(br1, model.basis_field(m - 1))
        entries.append(("circ_top", top.residual_norm(), k_order - 1))
        chain = 0.0
        for i in range(2, m):
            bri = lie_bracket(model.basis_field(i), x)
            expected = model.multiply(model.basis_field(i - 1), br1).scale(float(i))
            chain = max(chain, (bri - expected).residual_norm())
        entries.append(("circ_chain", chain, k_order - 1))
    return report_from(entries)


def check_symmetry_brackets(m: int, order: int = DEFAULT_ORDER) -> ResidualReport:
    """[Y_i, Y_j] = (i-j) Y_{i+j-1} for i+j <= m and zero above."""
    if m < 2:
        raise ShapeError("need at least two dimensions for a symmetry algebra")
    fields = symmetry_basis(m, order)
    entries = []
    for i in range(1, m):
        for j in range(i, m):
            br = lie_bracket(fields[i - 1], fields[j - 1])
            if i + j <= m:
                expected = fields[i + j - 1 - 1].scale(float(i - j))
                res = (br - expected).residual_norm()
            else:
                res = br.residual_norm()
            entries.append((f"bracket_{i}_{j}", res, order - 1))
    return report_from(entries)


# -- germ isomorphisms ---------------------------------------------------------


def _transport_defect(
    sub: Substitution, jac: JetArray, fields_a: JetArray, fields_b: JetArray
) -> JetArray:
    """Y_i o psi - (Jacobian psi) X_i for stacked fields X_i of A and Y_i of
    B, shape (i, n); ``jac[v, k]`` is d_v psi^k and ``sub`` composes with psi."""
    return sub(fields_b) - contract("vk,iv->ik", jac, fields_a)


def germ_isomorphism(
    model_a: FManifoldModel,
    model_b: FManifoldModel,
    order: int | None = None,
) -> tuple[JetVector, ResidualReport]:
    """Coordinate map of the unique isomorphism sending the canonical frame
    of ``model_a`` to that of ``model_b``.

    Solved order by order from (Jacobian psi) X_i = Y_i o psi; the linear
    part sends the frame of A at the origin to the frame of B.  Returns the
    map (components as jets, psi(0) = 0) plus residuals of frame transport,
    multiplicativity and transport of Euler-field powers.  Each step builds
    one substitution table for the current psi and composes the whole frame
    of B through it; the residuals share one more table.
    """
    if model_a.dim != model_b.dim:
        raise NoIsomorphismError("models have different dimensions")
    if order is None:
        order = model_a.space.order
    if model_a.space.order != model_b.space.order or order != model_a.space.order:
        raise ShapeError("models and solver must share the jet order")
    n = model_a.dim
    sp = model_a.space
    k_order = order

    ua0 = mult_by_euler(model_a).constant_term()
    ub0 = mult_by_euler(model_b).constant_term()
    if not regend.same_conjugacy_class(ua0, ub0):
        raise NoIsomorphismError(
            "origin multiplications by the Euler fields are not conjugate"
        )

    # Euler powers X_i = E^i o e of A and Y_i of B; the first n are the
    # canonical frames
    frame_a = canonical_frame(model_a)
    frame_b = canonical_frame(model_b)
    xinv = np.linalg.inv(frame_a.constant_matrix())
    pow_a, pow_b = list(frame_a.fields), list(frame_b.fields)
    while len(pow_a) < k_order + 1:
        pow_a.append(model_a.multiply(model_a.euler, pow_a[-1]))
        pow_b.append(model_b.multiply(model_b.euler, pow_b[-1]))
    pow_a, pow_b = JetArray.from_jets(pow_a), JetArray.from_jets(pow_b)
    xa, xb = pow_a[:n], pow_b[:n]

    psi = np.zeros((n, sp.size), dtype=np.complex128)
    for d in range(k_order):
        psi_d = JetArray(sp, psi.copy(), np.full(n, k_order))
        resid = _transport_defect(Substitution(sp, psi_d), psi_d.grad(), xa, xb)
        # degree-d part determines the Jacobian of the degree-(d+1) correction
        part = np.where(sp.degrees == d, resid.coeffs, 0.0)
        entry = sum(np.multiply.outer(xinv[i], part[i]) for i in range(n))  # (j, k, size)
        for j, (src, dst) in enumerate(sp._shift):
            psi[:, dst] += entry[j][:, src] * (1.0 / (d + 1))

    psi_arr = JetArray(sp, psi, np.full(n, k_order))
    sub = Substitution(sp, psi_arr)
    jac = psi_arr.grad()

    transport = _transport_defect(sub, jac, pow_a, pow_b).residual_norms().max(axis=1)
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
    return psi_arr.to_vector(), report_from(entries)
