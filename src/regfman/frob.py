"""Frobenius-metric machinery in canonical block coordinates.

A multiplication-invariant metric on a product of canonical blocks is
determined by jets eta_{i,alpha} (one family per block, vanishing cross
terms), held with one-forms as one jet array of one jet per coordinate.
This module implements the recovery chain

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
from .jets import DEFAULT_ORDER, Jet, JetArray, JetSpace, contract, jet_space
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


def _tops(sizes) -> np.ndarray:
    """Flat index of the top entry of every block."""
    return np.cumsum(sizes) - 1


class _BlockJets:
    """One jet per coordinate in block coordinates: ``values``, an (n,) jet
    array, read per block as ``families()[alpha][i]`` = values[off_alpha + i].
    The values may also be given as one family of jets per block."""

    def __init__(self, blocks, values):
        self.blocks = tuple(int(m) for m in blocks)
        if not isinstance(values, JetArray):
            rows = [tuple(row) for row in values]
            if len(rows) != len(self.blocks) or any(len(r) != m for m, r in zip(self.blocks, rows)):
                raise ShapeError("one family per block, as long as the block, required")
            values = JetArray.from_jets([j for row in rows for j in row])
        if values.shape != (self.dim,):
            raise ShapeError("one jet per coordinate required")
        self.values = values
        self.space: JetSpace = values.space

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def families(self) -> tuple[JetArray, ...]:
        return tuple(self.values[off : off + m] for off, m in zip(_offsets(self.blocks), self.blocks))

    def top_values(self) -> np.ndarray:
        """The value at the origin of every block's top entry."""
        return self.values.constant_term()[_tops(self.blocks)]

    def __repr__(self):
        return f"{type(self).__name__}(blocks={self.blocks}, order={self.space.order})"


class InvariantMetric(_BlockJets):
    """Multiplication-invariant metric in block coordinates.

    ``eta[alpha][i]`` for 0 <= i <= m_alpha - 1; the Gram matrix is
    g(d_{i,alpha}, d_{j,beta}) = delta_{alpha beta} eta_{i+j, alpha}, with
    entries past the block size identically zero.
    """

    def __init__(self, blocks, eta):
        super().__init__(blocks, eta)
        if self.space.num_vars != self.dim:
            raise ShapeError("metric variables must match the total dimension")

    @property
    def eta(self) -> tuple[JetArray, ...]:
        return self.families()

    def flat_eta(self) -> JetArray:
        return self.values

    def gram(self) -> JetArray:
        """The Gram matrix, its zero entries of full effective order."""
        n = self.dim
        source = np.full((n, n), n)  # n: a zero of full effective order
        for off, m in zip(_offsets(self.blocks), self.blocks):
            i, j = np.indices((m, m))
            inside = i + j < m
            source[off + i[inside], off + j[inside]] = off + (i + j)[inside]
        v = self.values
        coeffs = np.concatenate([v._stored, np.zeros((1, v._stored.shape[-1]))])[source]
        return JetArray(self.space, coeffs, np.append(v.eff, self.space.order)[source])

    def nondegenerate_at_origin(self, tol: float = 1e-10) -> bool:
        return bool((np.abs(self.top_values()) > tol).all())


class OneForm(_BlockJets):
    """Covector field in block coordinates; same storage layout as the
    metric's eta families."""

    @property
    def comps(self) -> tuple[JetArray, ...]:
        return self.families()

    def flat(self) -> JetArray:
        return self.values

    def invertible_at_origin(self, tol: float = 1e-10) -> bool:
        return bool((np.abs(self.top_values()) > tol).all())


@dataclass(frozen=True)
class RotationOperator:
    """Candidate rotation-coefficient endomorphism (an (n, n) jet array,
    column convention) together with the constant pairing it should be
    symmetric for."""

    matrix: JetArray
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
    return InvariantMetric(sizes, unit_covector(sizes, sp).values)


def metric_from_potential(potential, blocks_or_model) -> InvariantMetric:
    """eta_{i,alpha} = d_{i,alpha}(potential) for a potential jet (a
    :class:`Jet` or a 0-dimensional jet array); warns if degenerate at 0."""
    sizes = _sizes(blocks_or_model)
    metric = InvariantMetric(sizes, JetArray.from_jets(potential).grad())
    if not metric.nondegenerate_at_origin():
        warnings.warn(
            "potential yields a metric degenerate at the origin", stacklevel=2
        )
    return metric


# -- unit and Euler conditions -------------------------------------------------


def check_coidentity_closed(metric: InvariantMetric) -> ResidualReport:
    """Closedness of the coidentity one-form (existence of a potential):
    d_h eta_g - d_g eta_h over g < h."""
    n = metric.dim
    worst = 0.0
    if n > 1:
        d = metric.values.grad()  # d[h, g] = d_h eta_g
        strict = np.triu(np.ones((n, n), dtype=bool), 1)
        worst = (d - d.transpose(1, 0)).residual_norms()[strict].max()
    return report_from([("coidentity_closed", worst, metric.values.eff_order() - 1)])


def unit_vector_indices(blocks) -> list[int]:
    sizes = _sizes(blocks)
    return [off for off in _offsets(sizes)]


def check_unit_flat(metric: InvariantMetric) -> ResidualReport:
    """Flat unit: closed coidentity plus e(eta) = 0 for the unit field
    e = sum of the leading block directions."""
    closed = check_coidentity_closed(metric)["coidentity_closed"]
    unit = np.zeros(metric.dim)
    unit[unit_vector_indices(metric.blocks)] = 1.0
    unit = JetArray.constant(metric.space, unit).exact_zeros()
    derivative = contract("v,vk->k", unit, metric.values.grad())
    return ResidualReport(
        [
            ("coidentity_closed", closed),
            ("unit_derivative", Residual(derivative.residual_norm(), metric.values.eff_order() - 1)),
        ]
    )


def check_euler_rescaling(
    metric: InvariantMetric,
    euler,
    weight: complex | None = None,
) -> tuple[complex, ResidualReport]:
    """Residual of E(eta) = (D-2) eta.

    With ``weight`` (the rescaling constant D) given, measures it directly;
    otherwise returns the least-squares best weight and its residual.
    """
    euler = JetArray.from_jets(euler)
    if euler.shape != (metric.dim,):
        raise ShapeError("Euler field dimension does not match the metric")
    eta = metric.values
    derivs = contract("v,vj->j", euler, eta.grad())  # E(eta_j)
    order = derivs.eff_order()
    if weight is None:
        num = 0.0 + 0.0j
        den = 0.0
        mask = metric.space.degrees <= order
        for jc, dc in zip(eta.coeffs[:, mask], derivs.coeffs[:, mask]):
            num += np.vdot(jc, dc)
            den += float(np.vdot(jc, jc).real)
        w = num / den if den > 0 else 0.0
        weight_out = complex(w + 2.0)
        solved = True
    else:
        weight_out = complex(weight)
        solved = False
    worst = (derivs - eta.scale(weight_out - 2.0)).residual_norm()
    name = "euler_rescaling_solved" if solved else "euler_rescaling"
    return weight_out, report_from([(name, worst, order)])


# -- the psi / beta / gamma chain ----------------------------------------------


def _sum_into(count: int, targets, terms: JetArray) -> JetArray:
    """out[t] = the sum of terms[p] over the p with targets[p] == t, in
    ascending p, for t < count."""
    select = np.zeros((count, len(terms)))
    select[targets, np.arange(len(terms))] = 1.0
    return contract("tp,p->t", JetArray.constant(terms.space, select).exact_zeros(), terms)


def _product_pairs(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices (r, s, t) of the cotangent products
    dt^r o dt^s = dt^t, t = r + s - (m-1), within each block."""
    r, s, t = [], [], []
    for off, m in zip(_offsets(blocks), blocks):
        for i in range(m):
            for j in range(m - 1 - i, m):
                r.append(off + i)
                s.append(off + j)
                t.append(off + i + j - (m - 1))
    return np.array(r), np.array(s), np.array(t)


def _descend(blocks, x: JetArray, weight: JetArray, rhs: JetArray, y=None, inner: int = 0) -> JetArray:
    """Fill a block-triangular system from the top of every block down:
    x_q = (rhs_q - sum_{s=q+1}^{m-1-inner} x_s y_{m-1+q-s}) * weight_block,
    where ``x`` holds each block's top already and ``y`` defaults to x.
    One level (the same distance below every top) at a time: every entry
    of a level has the same number of terms, subtracted in ascending s."""
    offsets = _offsets(blocks)
    for level in range(1, max(blocks)):
        rows, block, left, right = [], [], [], []
        for b, (off, m) in enumerate(zip(offsets, blocks)):
            if m <= level:
                continue
            q = m - 1 - level
            left += [off + s for s in range(q + 1, m - inner)]
            right += [off + m - 1 + q - s for s in range(q + 1, m - inner)]
            rows.append(off + q)
            block.append(b)
        value = rhs[rows]
        if left:
            terms = x[left] * (x if y is None else y)[right]
            for term in terms.reshape(len(rows), -1).transpose(1, 0):
                value = value - term
        x = x.put(rows, value * weight[block])
    return x


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
    tops = _tops(metric.blocks)
    eta = metric.values
    root = eta[tops].sqrt(branch_anchors)
    psi = _descend(metric.blocks, eta.put(tops, root), root.scale(2.0).invert(), eta, inner=1)
    return OneForm(metric.blocks, psi)


def metric_from_psi(psi: OneForm, model: FManifoldModel | None = None) -> InvariantMetric:
    """eta_k = sum_{s+t=(m-1)+k} psi_s psi_t per block (left inverse of
    :func:`psi_from_metric`)."""
    if model is not None and not model.is_constant_multiplication():
        raise ScopeError("the pairing formula requires constant multiplication")
    return InvariantMetric(psi.blocks, covector_product(psi, psi).values)


def invert_oneform(psi: OneForm) -> OneForm:
    """Inverse covector beta for the cotangent multiplication
    dt^i o dt^j = dt^{i+j-(m-1)} (per block)."""
    if not psi.invertible_at_origin():
        raise DegenerateMetricError(
            "one-form is not invertible (top component vanishes at the origin)"
        )
    tops = _tops(psi.blocks)
    inv_top = psi.values[tops].invert()
    zero = JetArray.constant(psi.space, np.zeros(psi.dim))
    return OneForm(psi.blocks, _descend(psi.blocks, zero.put(tops, inv_top), inv_top, zero, psi.values))


def covector_product(a: OneForm, b: OneForm) -> OneForm:
    """Cotangent multiplication of two one-forms (per block)."""
    r, s, t = _product_pairs(a.blocks)
    return OneForm(a.blocks, _sum_into(a.dim, t, a.values[r] * b.values[s]))


def unit_covector(blocks, space: JetSpace) -> OneForm:
    sizes = _sizes(blocks)
    values = np.zeros(sum(sizes))
    values[_tops(sizes)] = 1.0
    return OneForm(sizes, JetArray.constant(space, values))


def _epsilon_norm(psi: OneForm) -> JetArray:
    # psi_i pairs with psi_{m-1-i} of its block
    partner = np.repeat(2 * np.array(_offsets(psi.blocks)) + np.array(psi.blocks) - 1, psi.blocks)
    terms = psi.values * psi.values[partner - np.arange(psi.dim)]
    return _sum_into(1, np.zeros(psi.dim, dtype=np.int64), terms).reshape()


def psi_epsilon_norm(psi: OneForm) -> Jet:
    """epsilon(psi, psi) = sum over blocks of sum_{i+j=m-1} psi_i psi_j."""
    return _epsilon_norm(psi)[()]


def gamma_operator(psi: OneForm, beta: OneForm, model: FManifoldModel) -> RotationOperator:
    """Rotation-operator candidate from the metric data: the inverse
    pairing contracted with the cotangent structure constants,
    gamma_{t j} = sum d_k(psi_j) beta_s eps^{ik} c_i^{st} (constant
    multiplication only)."""
    if not model.is_constant_multiplication():
        raise ScopeError("rotation operator requires constant multiplication")
    sp = psi.space
    eps_inv = np.linalg.inv(epsilon_gram(psi.blocks))
    c = model.constant_structure()  # c[i, f, t]
    # cotangent structure constants c_i^{st} = eps^{sf} c_{if}^t
    cot = np.einsum("sf,ift->ist", eps_inv, c)
    # w[k][t] = sum_{i,s} eps^{ik} c_i^{st} beta_s
    coef = JetArray.constant(sp, np.einsum("ik,ist->kts", eps_inv, cot)).exact_zeros()
    w = contract("kts,s->kt", coef, beta.values)
    # gamma_{tj} = sum_k d_k(psi_j) w[k][t], trusted one order below K
    dpsi = psi.values.grad()  # dpsi[k, j] = d_k psi_j
    gamma = contract("kj,kt->tj", dpsi, w.exact_zeros()).capped(sp.order - 1)
    return RotationOperator(gamma, epsilon_gram(psi.blocks))


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
    g = gamma.matrix
    eps = JetArray.constant(sp, gamma.epsilon)
    sym = (contract("ik,kj->ij", eps, g) - contract("ki,kj->ij", g, eps)).residual_norm()

    norm = _epsilon_norm(psi)
    flat_psi = psi.values
    cm = _structure_matrices(model, sp)
    br = -_brackets(g, cm)  # br[i] = [C_i, gamma]
    law = flat_psi.grad() - contract("k,ikj->ij", flat_psi, br.exact_zeros())
    return report_from(
        [
            ("epsilon_symmetry", sym, g.eff_order()),
            ("psi_norm_constant", norm.grad().residual_norm(), norm.eff_order() - 1),
            ("necesitate", law.residual_norm(), sp.order - 1),
        ]
    )


def gamma_annihilates_dual(gamma: RotationOperator, psi: OneForm) -> float:
    """Residual of gamma(T) = 0 for the epsilon-dual T of psi (holds when
    epsilon(psi, psi) is constant)."""
    eps_inv = JetArray.constant(psi.space, np.linalg.inv(gamma.epsilon)).exact_zeros()
    t_field = contract("kj,j->k", eps_inv, psi.values)
    return contract("ij,j->i", gamma.matrix, t_field).residual_norm()


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
        g = gamma.matrix
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
) -> JetArray:
    """The full Darboux-Egoroff matrix for one index pair: a slice of the
    contraction behind :func:`darboux_egoroff_residual`."""
    return _DarbouxEgoroff(gamma, model).row(i, slice(j, j + 1))[0]


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


def levi_civita_curvature(gram, unit) -> CurvatureResult:
    """Christoffel symbols, Riemann-tensor residual and unit-parallelism
    residual of a jet metric, computed independently of the
    Darboux-Egoroff chain.

    ``gram`` may be an :class:`InvariantMetric` or a symmetric jet matrix
    (a :class:`JetArray` or nested jets), ``unit`` a field.  Curvature is
    certified at two orders below the metric's effective order.
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


def euler_derivative(christoffel: JetArray, euler) -> JetArray:
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
