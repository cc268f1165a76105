"""Frobenius-metric machinery in canonical block coordinates.

A multiplication-invariant metric on a product of canonical blocks is
determined by jets eta_{i,alpha} (one family per block, vanishing cross
terms).  This module implements the recovery chain

    metric -> invertible one-form psi -> inverse beta -> rotation operator

together with the generalized Darboux-Egoroff residuals, the unit/Euler
conditions, and an independent Levi-Civita curvature oracle used to
cross-check every verdict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, ScopeError, ShapeError
from .fman import FManifoldModel
from .jets import DEFAULT_ORDER, Jet, JetArray, JetMatrix, JetSpace, JetVector, contract, jet_space
from .reports import DEFAULT_TOLERANCE, Residual, ResidualReport, report_from


def _sizes(blocks_or_model) -> tuple[int, ...]:
    if isinstance(blocks_or_model, FManifoldModel):
        if blocks_or_model.blocks is None:
            raise ScopeError("model carries no block structure; pass sizes explicitly")
        return tuple(m for _, m in blocks_or_model.blocks)
    return tuple(int(m) for m in blocks_or_model)


def _offsets(sizes: tuple[int, ...]) -> list[int]:
    out, at = [], 0
    for m in sizes:
        out.append(at)
        at += m
    return out


class InvariantMetric:
    """Multiplication-invariant metric in block coordinates.

    ``eta[alpha][i]`` for 0 <= i <= m_alpha - 1; the Gram matrix is
    g(d_{i,alpha}, d_{j,beta}) = delta_{alpha beta} eta_{i+j, alpha}, with
    entries past the block size identically zero.
    """

    def __init__(self, blocks, eta):
        self.blocks = tuple(int(m) for m in blocks)
        self.eta = tuple(tuple(row) for row in eta)
        if len(self.eta) != len(self.blocks):
            raise ShapeError("one eta family per block required")
        sp = self.eta[0][0].space
        for m, row in zip(self.blocks, self.eta):
            if len(row) != m:
                raise ShapeError("eta family length must equal the block size")
            for j in row:
                if j.space is not sp:
                    raise ShapeError("eta jets must share one space")
        if sp.num_vars != sum(self.blocks):
            raise ShapeError("metric variables must match the total dimension")
        self.space: JetSpace = sp

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def flat_eta(self) -> list[Jet]:
        return [j for row in self.eta for j in row]

    def gram(self) -> JetMatrix:
        sp = self.space
        n = self.dim
        entries = [[sp.zero() for _ in range(n)] for _ in range(n)]
        for off, (m, row) in zip(_offsets(self.blocks), zip(self.blocks, self.eta)):
            for i in range(m):
                for j in range(m):
                    if i + j < m:
                        entries[off + i][off + j] = row[i + j]
        return JetMatrix(entries)

    def nondegenerate_at_origin(self, tol: float = 1e-10) -> bool:
        return all(abs(row[m - 1].value0) > tol for m, row in zip(self.blocks, self.eta))

    def top_values(self) -> list[complex]:
        return [row[m - 1].value0 for m, row in zip(self.blocks, self.eta)]

    def __repr__(self):
        return f"InvariantMetric(blocks={self.blocks}, order={self.space.order})"


class OneForm:
    """Covector field in block coordinates; same storage layout as the
    metric's eta families."""

    def __init__(self, blocks, comps):
        self.blocks = tuple(int(m) for m in blocks)
        self.comps = tuple(tuple(row) for row in comps)
        if len(self.comps) != len(self.blocks):
            raise ShapeError("one component family per block required")
        sp = self.comps[0][0].space
        for m, row in zip(self.blocks, self.comps):
            if len(row) != m:
                raise ShapeError("component family length must equal the block size")
        self.space: JetSpace = sp

    def flat(self) -> list[Jet]:
        return [j for row in self.comps for j in row]

    def invertible_at_origin(self, tol: float = 1e-10) -> bool:
        return all(abs(row[m - 1].value0) > tol for m, row in zip(self.blocks, self.comps))

    def __repr__(self):
        return f"OneForm(blocks={self.blocks}, order={self.space.order})"


@dataclass(frozen=True)
class RotationOperator:
    """Candidate rotation-coefficient endomorphism (jet matrix, column
    convention) together with the constant pairing it should be symmetric
    for."""

    matrix: JetMatrix
    epsilon: np.ndarray


def epsilon_gram(blocks) -> np.ndarray:
    sizes = _sizes(blocks)
    n = sum(sizes)
    g = np.zeros((n, n), dtype=np.complex128)
    for off, m in zip(_offsets(sizes), sizes):
        for i in range(m):
            g[off + i, off + m - 1 - i] = 1.0
    return g


def epsilon_metric(blocks_or_model, order: int | None = None) -> InvariantMetric:
    """The constant anti-diagonal invariant metric (per block)."""
    sizes = _sizes(blocks_or_model)
    if isinstance(blocks_or_model, FManifoldModel):
        sp = blocks_or_model.space
    else:
        sp = jet_space(sum(sizes), DEFAULT_ORDER if order is None else order)
    eta = [
        [sp.constant(1.0) if i == m - 1 else sp.zero() for i in range(m)]
        for m in sizes
    ]
    return InvariantMetric(sizes, eta)


def metric_from_potential(potential: Jet, blocks_or_model) -> InvariantMetric:
    """eta_{i,alpha} = d_{i,alpha}(potential); warns if degenerate at 0."""
    sizes = _sizes(blocks_or_model)
    eta = []
    for off, m in zip(_offsets(sizes), sizes):
        eta.append([potential.partial(off + i) for i in range(m)])
    metric = InvariantMetric(sizes, eta)
    if not metric.nondegenerate_at_origin():
        warnings.warn(
            "potential yields a metric degenerate at the origin", stacklevel=2
        )
    return metric


# -- unit and Euler conditions -------------------------------------------------


def check_coidentity_closed(metric: InvariantMetric) -> ResidualReport:
    """Closedness of the coidentity one-form (existence of a potential)."""
    flat = metric.flat_eta()
    n = metric.dim
    worst = 0.0
    order = min(j.eff_order for j in flat) - 1
    for g in range(n):
        for h in range(g + 1, n):
            worst = max(worst, (flat[g].partial(h) - flat[h].partial(g)).residual_norm())
    return report_from([("coidentity_closed", worst, order)])


def unit_vector_indices(blocks) -> list[int]:
    sizes = _sizes(blocks)
    return [off for off in _offsets(sizes)]


def check_unit_flat(metric: InvariantMetric) -> ResidualReport:
    """Flat unit: closed coidentity plus e(eta) = 0 for the unit field
    e = sum of the leading block directions."""
    closed = check_coidentity_closed(metric)["coidentity_closed"]
    units = unit_vector_indices(metric.blocks)
    worst = 0.0
    order = min(j.eff_order for j in metric.flat_eta()) - 1
    for eta_jet in metric.flat_eta():
        d = None
        for u in units:
            d = eta_jet.partial(u) if d is None else d + eta_jet.partial(u)
        worst = max(worst, d.residual_norm())
    return ResidualReport(
        [
            ("coidentity_closed", closed),
            ("unit_derivative", Residual(worst, order)),
        ]
    )


def check_euler_rescaling(
    metric: InvariantMetric,
    euler: JetVector,
    weight: complex | None = None,
) -> tuple[complex, ResidualReport]:
    """Residual of E(eta) = (D-2) eta.

    With ``weight`` (the rescaling constant D) given, measures it directly;
    otherwise returns the least-squares best weight and its residual.
    """
    if len(euler) != metric.dim:
        raise ShapeError("Euler field dimension does not match the metric")
    flat = metric.flat_eta()
    derivs = [euler.apply_to(j) for j in flat]
    order = min(d.eff_order for d in derivs)
    if weight is None:
        num = 0.0 + 0.0j
        den = 0.0
        for j, d in zip(flat, derivs):
            mask = j.space.degrees <= order
            jc = j.coeffs[mask]
            dc = d.coeffs[mask]
            num += np.vdot(jc, dc)
            den += float(np.vdot(jc, jc).real)
        w = num / den if den > 0 else 0.0
        weight_out = complex(w + 2.0)
        solved = True
    else:
        weight_out = complex(weight)
        solved = False
    w = weight_out - 2.0
    worst = 0.0
    for j, d in zip(flat, derivs):
        worst = max(worst, (d - j.scale(w)).residual_norm())
    name = "euler_rescaling_solved" if solved else "euler_rescaling"
    return weight_out, report_from([(name, worst, order)])


# -- the psi / beta / gamma chain ----------------------------------------------


def psi_from_metric(
    metric: InvariantMetric, branch_anchors=None
) -> OneForm:
    """Unique invertible one-form with g(X, Y) = (psi o psi)(X o Y).

    Per block: the top component is a square root of the top eta (branch
    fixed by the anchor; principal root by default), the rest follow by a
    descending triangular recursion.
    """
    if not metric.nondegenerate_at_origin():
        raise DegenerateMetricError("metric degenerate at the origin")
    if branch_anchors is None:
        branch_anchors = [None] * len(metric.blocks)
    if len(branch_anchors) != len(metric.blocks):
        raise ShapeError("one branch anchor per block required")
    comps = []
    for m, row, anchor in zip(metric.blocks, metric.eta, branch_anchors):
        psi = [None] * m
        psi[m - 1] = row[m - 1].sqrt(anchor)
        inv2top = psi[m - 1].scale(2.0).invert()
        for k in range(m - 2, -1, -1):
            acc = row[k]
            for s in range(k + 1, m - 1):
                t = (m - 1) + k - s
                if k < t < m - 1:
                    acc = acc - psi[s] * psi[t]
            psi[k] = acc * inv2top
        comps.append(psi)
    return OneForm(metric.blocks, comps)


def metric_from_psi(psi: OneForm, model: FManifoldModel | None = None) -> InvariantMetric:
    """eta_k = sum_{s+t=(m-1)+k} psi_s psi_t per block (left inverse of
    :func:`psi_from_metric`)."""
    if model is not None and not model.is_constant_multiplication():
        raise ScopeError("the pairing formula requires constant multiplication")
    eta = []
    for m, row in zip(psi.blocks, psi.comps):
        family = []
        for k in range(m):
            acc = row[0].space.zero()
            for s in range(m):
                t = (m - 1) + k - s
                if 0 <= t < m:
                    acc = acc + row[s] * row[t]
            family.append(acc)
        eta.append(family)
    return InvariantMetric(psi.blocks, eta)


def invert_oneform(psi: OneForm) -> OneForm:
    """Inverse covector beta for the cotangent multiplication
    dt^i o dt^j = dt^{i+j-(m-1)} (per block)."""
    if not psi.invertible_at_origin():
        raise DegenerateMetricError(
            "one-form is not invertible (top component vanishes at the origin)"
        )
    comps = []
    for m, row in zip(psi.blocks, psi.comps):
        inv_top = row[m - 1].invert()
        beta = [None] * m
        beta[m - 1] = inv_top
        for k in range(2 * (m - 1) - 1, m - 2, -1):
            acc = None
            for s in range(k - (m - 1) + 1, m):
                r = k - s
                if 0 <= r < m:
                    term = beta[s] * row[r]
                    acc = term if acc is None else acc + term
            b = -(acc * inv_top) if acc is not None else row[0].space.zero()
            beta[k - (m - 1)] = b
        comps.append(beta)
    return OneForm(psi.blocks, comps)


def covector_product(a: OneForm, b: OneForm) -> OneForm:
    """Cotangent multiplication of two one-forms (per block)."""
    comps = []
    for m, ra, rb in zip(a.blocks, a.comps, b.comps):
        out = []
        for j in range(m):
            acc = ra[0].space.zero()
            for r in range(m):
                s = (m - 1) + j - r
                if 0 <= s < m:
                    acc = acc + ra[r] * rb[s]
            out.append(acc)
        comps.append(out)
    return OneForm(a.blocks, comps)


def unit_covector(blocks, space: JetSpace) -> OneForm:
    sizes = _sizes(blocks)
    return OneForm(
        sizes,
        [
            [space.constant(1.0) if i == m - 1 else space.zero() for i in range(m)]
            for m in sizes
        ],
    )


def psi_epsilon_norm(psi: OneForm) -> Jet:
    """epsilon(psi, psi) = sum over blocks of sum_{i+j=m-1} psi_i psi_j."""
    acc = psi.space.zero()
    for m, row in zip(psi.blocks, psi.comps):
        for i in range(m):
            acc = acc + row[i] * row[m - 1 - i]
    return acc


def gamma_operator(
    psi: OneForm,
    beta: OneForm,
    model: FManifoldModel,
    method: str = "auto",
) -> RotationOperator:
    """Rotation-operator candidate from the metric data.

    The general constant-multiplication formula contracts the inverse
    pairing with the cotangent structure constants:
    gamma_{t j} = sum d_k(psi_j) beta_s eps^{ik} c_i^{st}.  For a single
    block this reduces to a short explicit sum, kept as a fast path and
    cross-checked against the general contraction in the tests.
    """
    if not model.is_constant_multiplication():
        raise ScopeError("rotation operator requires constant multiplication")
    if method not in ("auto", "general", "block"):
        raise ShapeError(f"unknown method {method!r}")
    if method == "block" or (method == "auto" and len(psi.blocks) == 1):
        if len(psi.blocks) != 1:
            raise ScopeError("block fast path requires a single block")
        gamma = _gamma_single_block(psi, beta)
    else:
        gamma = _gamma_general(psi, beta, model)
    return RotationOperator(gamma, epsilon_gram(psi.blocks))


def _gamma_single_block(psi: OneForm, beta: OneForm) -> JetMatrix:
    m = psi.blocks[0]
    sp = psi.space
    prow = psi.comps[0]
    brow = beta.comps[0]
    dpsi = [[prow[j].partial(k) for k in range(m)] for j in range(m)]
    entries = [[sp.zero(sp.order - 1) for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for s in range(m):
            for i in range(s + 1):
                t = m - 1 + i - s
                entries[t][j] = entries[t][j] + brow[s] * dpsi[j][m - 1 - i]
    return JetMatrix(entries)


def _gamma_general(psi: OneForm, beta: OneForm, model: FManifoldModel) -> JetMatrix:
    sp = psi.space
    eps_inv = np.linalg.inv(epsilon_gram(psi.blocks))
    c = model.constant_structure()  # c[i, f, t]
    # cotangent structure constants c_i^{st} = eps^{sf} c_{if}^t
    cot = np.einsum("sf,ift->ist", eps_inv, c)
    # w[k][t] = sum_{i,s} eps^{ik} c_i^{st} beta_s
    coef = JetArray.constant(sp, np.einsum("ik,ist->kts", eps_inv, cot)).exact_zeros()
    w = contract("kts,s->kt", coef, JetArray.from_jets(beta.flat()))
    # gamma_{tj} = sum_k d_k(psi_j) w[k][t], trusted one order below K
    dpsi = JetArray.from_jets(psi.flat()).grad()  # dpsi[k, j] = d_k psi_j
    return contract("kj,kt->tj", dpsi, w.exact_zeros()).capped(sp.order - 1).to_matrix()


def _structure_matrices(model: FManifoldModel, space: JetSpace) -> JetArray:
    """The constant matrices C_i of :meth:`FManifoldModel.mult_matrices`,
    stacked as cm[i, k, j]."""
    return JetArray.constant(space, np.stack(model.mult_matrices()))


def _brackets(x: JetArray, ys: JetArray) -> JetArray:
    """[x, y_j] for one jet matrix x (r, c) and a batch ys (j, r, c)."""
    return contract("rx,jxc->jrc", x, ys) - contract("jrx,xc->jrc", ys, x)


def check_gamma(
    gamma: RotationOperator, psi: OneForm, model: FManifoldModel
) -> ResidualReport:
    """Epsilon-symmetry of gamma, constancy of epsilon(psi, psi), and the
    derivative law d_i(psi_j) = (psi [C_i, gamma])_j."""
    sp = psi.space
    n = model.dim
    g = JetArray.from_jets(gamma.matrix)
    eps = JetArray.constant(sp, gamma.epsilon)
    sym = (contract("ik,kj->ij", eps, g) - contract("ki,kj->ij", g, eps)).residual_norm()

    norm_jet = psi_epsilon_norm(psi)
    norm_res = max(norm_jet.partial(v).residual_norm() for v in range(n))

    flat_psi = JetArray.from_jets(psi.flat())
    cm = _structure_matrices(model, sp)
    br = -_brackets(g, cm)  # br[i] = [C_i, gamma]
    law = flat_psi.grad() - contract("k,ikj->ij", flat_psi, br.exact_zeros())
    return report_from(
        [
            ("epsilon_symmetry", sym, g.eff_order()),
            ("psi_norm_constant", norm_res, norm_jet.eff_order - 1),
            ("necesitate", law.residual_norm(), sp.order - 1),
        ]
    )


def gamma_annihilates_dual(gamma: RotationOperator, psi: OneForm) -> float:
    """Residual of gamma(T) = 0 for the epsilon-dual T of psi (holds when
    epsilon(psi, psi) is constant)."""
    eps_inv = np.linalg.inv(gamma.epsilon)
    flat = psi.flat()
    n = len(flat)
    t_field = []
    for k in range(n):
        acc = psi.space.zero()
        for j in range(n):
            if eps_inv[k, j] != 0:
                acc = acc + flat[j].scale(eps_inv[k, j])
        t_field.append(acc)
    out = gamma.matrix @ JetVector(t_field)
    return out.residual_norm()


class _DarbouxEgoroff:
    """The generalized Darboux-Egoroff matrices
    DE_ij = [C_i, d_j gamma] - [C_j, d_i gamma] - [[C_i, gamma], [C_j, gamma]],
    formed one leading index i at a time.

    The relative sign between the derivative terms and the quadratic
    commutator is pinned by two independent cross-checks: the classical
    orthogonal-coordinate system d_k beta_ij = beta_ik beta_kj in the
    semisimple case, and the Levi-Civita curvature oracle on nilpotent
    blocks (see the tests).  With the rotation operator normalized by the
    derivative law d_i(psi_j) = (psi [C_i, gamma])_j, flatness corresponds
    to the minus sign used here.
    """

    def __init__(self, gamma: RotationOperator, model: FManifoldModel):
        g = JetArray.from_jets(gamma.matrix)
        self.cm = _structure_matrices(model, g.space)
        self.dg = g.grad()
        self.br = -_brackets(g, self.cm)  # br[i] = [C_i, gamma]
        self.order = self.dg.eff_order()

    def row(self, i: int, js: slice) -> JetArray:
        """DE_ij for every j in ``js``, shape (j, r, c)."""
        cm, dg, br = self.cm, self.dg, self.br
        return (
            _brackets(cm[i], dg[js]) + _brackets(dg[i], cm[js]) - _brackets(br[i], br[js])
        )


def darboux_egoroff_residual(
    gamma: RotationOperator, model: FManifoldModel
) -> ResidualReport:
    """Generalized Darboux-Egoroff residuals over index pairs i < j (see
    :class:`_DarbouxEgoroff`); diagonal entries vanish identically and are
    reported as exact zeros."""
    if not model.is_constant_multiplication():
        raise ScopeError("Darboux-Egoroff residuals require constant multiplication")
    n = model.dim
    de = _DarbouxEgoroff(gamma, model)
    entries = []
    for i in range(n):
        entries.append((f"de_{i}_{i}", 0.0, de.order))
        norms = de.row(i, slice(i + 1, n)).residual_norms().max(axis=(1, 2), initial=0.0)
        entries.extend((f"de_{i}_{j}", v, de.order) for j, v in enumerate(norms, i + 1))
    return report_from(entries)


def darboux_egoroff_matrix(
    gamma: RotationOperator, model: FManifoldModel, i: int, j: int
) -> JetMatrix:
    """The full Darboux-Egoroff matrix for one index pair: a slice of the
    contraction behind :func:`darboux_egoroff_residual`."""
    return _DarbouxEgoroff(gamma, model).row(i, slice(j, j + 1))[0].to_matrix()


# -- Levi-Civita curvature oracle ----------------------------------------------


@dataclass(frozen=True)
class CurvatureResult:
    christoffel: JetArray  # christoffel[i][j][l] = Gamma^l_ij
    curvature: Residual
    unit_parallel: Residual

    def report(self) -> ResidualReport:
        return ResidualReport(
            [("curvature", self.curvature), ("unit_parallel", self.unit_parallel)]
        )


def levi_civita_curvature(gram, unit: JetVector) -> CurvatureResult:
    """Christoffel symbols, Riemann-tensor residual and unit-parallelism
    residual of a jet metric, computed independently of the
    Darboux-Egoroff chain.

    ``gram`` may be an :class:`InvariantMetric` or a symmetric jet matrix
    (:class:`JetMatrix` or :class:`JetArray`).  Curvature is certified at
    two orders below the metric's effective order.
    """
    if isinstance(gram, InvariantMetric):
        gram = gram.gram()
    g = JetArray.from_jets(gram)
    n = len(g)
    eff = g.eff_order()
    if eff < 2:
        raise ShapeError("curvature requires effective order >= 2")
    ginv = g.inverse()
    dg = g.grad()  # dg[v, j, k] = d_v g_jk
    # first kind: G_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
    first = (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)).scale(0.5)
    chris = contract("lk,ijk->ijl", ginv, first)
    # R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik
    #             + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik, over i < j
    worst = 0.0
    for i in range(n - 1):
        js = slice(i + 1, n)
        r = (
            chris[js].partial(i)
            - chris[i].grad()[js]
            + contract("ml,jkm->jkl", chris[i], chris[js])
            - contract("jml,km->jkl", chris[js], chris[i])
        )
        worst = max(worst, r.residual_norm())
    curv = Residual(worst, eff - 2)

    u = JetArray.from_jets(unit)
    parallel = u.grad() + contract("ijk,j->ik", chris, u.exact_zeros())
    unit_res = Residual(parallel.residual_norm(), eff - 1)
    return CurvatureResult(chris, curv, unit_res)


def euler_derivative(christoffel: JetArray, euler: JetVector) -> JetArray:
    """Levi-Civita derivative of the Euler field from Christoffel symbols:
    nabla[k, j] = d_j E^k + sum_l Gamma^k_jl E^l."""
    e = JetArray.from_jets(euler)
    return e.grad().transpose(1, 0) + contract("jlk,l->kj", christoffel, e)


# -- assembled verdict -----------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusVerdict:
    passed: bool
    tolerance: float
    weight: complex | None
    weight_solved: bool
    report: ResidualReport
    de_table: ResidualReport
    psi: OneForm
    beta: OneForm
    gamma: RotationOperator
    oracle: CurvatureResult | None


def frobenius_verdict(
    metric: InvariantMetric,
    model: FManifoldModel,
    weight: complex | None = None,
    branch_anchors=None,
    tolerance: float = DEFAULT_TOLERANCE,
    run_oracle: bool | None = None,
) -> FrobeniusVerdict:
    """Full chain: psi -> beta -> gamma -> symmetry/Darboux-Egoroff checks,
    unit flatness, and (with ``weight`` given) the Euler rescaling law.

    The verdict is the conjunction of all chain residuals against the
    tolerance.  On products of several blocks the independent curvature
    oracle is run on the assembled metric and joins the verdict; on single
    blocks it can be requested with ``run_oracle`` but stays out of the
    verdict so the two routes remain independent cross-checks.
    """
    if metric.dim != model.dim:
        raise ShapeError("metric and model dimensions differ")
    if not model.is_constant_multiplication():
        raise ScopeError("the verdict chain requires constant multiplication")
    psi = psi_from_metric(metric, branch_anchors)
    beta = invert_oneform(psi)
    gamma = gamma_operator(psi, beta, model)
    chain = check_gamma(gamma, psi, model)
    de = darboux_egoroff_residual(gamma, model)
    unit_rep = check_unit_flat(metric)

    entries = list(chain.items())
    entries.append(("darboux_egoroff", Residual(de.max_value(), de["de_0_0"].order)))
    entries.extend(unit_rep.items())
    weight_out = weight
    solved = False
    if weight is not None:
        weight_out, euler_rep = check_euler_rescaling(metric, model.euler, weight)
        entries.extend(euler_rep.items())
    else:
        weight_out, euler_rep = check_euler_rescaling(metric, model.euler, None)
        solved = True
        entries.extend(euler_rep.items())

    multiblock = len(metric.blocks) > 1
    if run_oracle is None:
        run_oracle = multiblock
    oracle = None
    if run_oracle:
        oracle = levi_civita_curvature(metric, model.unit)

    verdict_names = [
        "epsilon_symmetry",
        "psi_norm_constant",
        "necesitate",
        "darboux_egoroff",
        "coidentity_closed",
        "unit_derivative",
    ]
    if weight is not None:
        verdict_names.append("euler_rescaling")
    rep = ResidualReport(entries)
    passed = all(rep[name].value <= tolerance for name in verdict_names)
    if multiblock and oracle is not None:
        passed = passed and oracle.curvature.value <= tolerance and (
            oracle.unit_parallel.value <= tolerance
        )
    return FrobeniusVerdict(
        passed=passed,
        tolerance=tolerance,
        weight=weight_out,
        weight_solved=solved,
        report=rep,
        de_table=de,
        psi=psi,
        beta=beta,
        gamma=gamma,
        oracle=oracle,
    )
