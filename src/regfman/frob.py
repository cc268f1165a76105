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

import copy
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMetricError, ScopeError, ShapeError
from .fman import FManifoldModel
from .jets import DEFAULT_ORDER, JetArray, JetSpace, contract, jet_space
from .reports import DEFAULT_TOLERANCE, Residual, ResidualReport, report_from


def _sizes(blocks_or_model) -> tuple[int, ...]:
    if isinstance(blocks_or_model, FManifoldModel):
        if blocks_or_model.blocks is None:
            raise ScopeError("model carries no block structure; pass sizes explicitly")
        return tuple(m for _, m in blocks_or_model.blocks)
    return tuple(int(m) for m in blocks_or_model)


@lru_cache(maxsize=None)
def _layout(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block coordinates of a tuple of block sizes, read-only: for each
    flat coordinate, the flat index where its block starts, its position i
    in the block and the block size m.  Every block index table of this
    module is derived from it."""
    size = np.repeat(sizes, sizes)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    layout = (start, np.arange(len(size)) - start, size)
    for a in layout:
        a.setflags(write=False)
    return layout


@lru_cache(maxsize=None)
def _gram_sources(sizes: tuple[int, ...]) -> np.ndarray:
    """For each Gram entry (j, k), read-only: the flat index of the eta it
    is, eta_{i+j} inside a block where i + j < m, or n for an entry that is
    identically zero."""
    start, pos, size = _layout(sizes)
    i_plus_j = pos[:, None] + pos
    source = np.where((start[:, None] == start) & (i_plus_j < size), start + i_plus_j, len(size))
    source.setflags(write=False)
    return source


def _tops(sizes) -> np.ndarray:
    """Flat index of the top entry of every block."""
    _, pos, size = _layout(sizes)
    return np.flatnonzero(pos == size - 1)


# A metric is nondegenerate, and a one-form invertible, at the origin when
# every block's top entry there has modulus above this.
TOP_FLOOR = 1e-10


class _BlockJets:
    """One jet per coordinate in block coordinates: ``values``, an (n,) jet
    array, read per block as ``families()[alpha][i]`` = values[off_alpha + i].
    The values may also be given as one family of jets per block.  A copy
    made by :func:`_differentiated` carries the gradient of the values, and
    a one-form from :func:`psi_from_metric` the inverses of its top entries;
    a stage forms what is not carried and keeps nothing on its arguments."""

    _grad: JetArray | None = None
    _top_inverse: JetArray | None = None

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

    def _gradient(self) -> JetArray:
        """d[v, g] = d_v values_g: the carried gradient, or a fresh one."""
        return self.values.grad() if self._grad is None else self._grad

    def families(self) -> tuple[JetArray, ...]:
        return tuple(self.values[top + 1 - m : top + 1] for top, m in zip(_tops(self.blocks), self.blocks))

    def top_values(self) -> np.ndarray:
        """The value at the origin of every block's top entry."""
        return self.values.constant_term()[_tops(self.blocks)]

    def nondegenerate_at_origin(self) -> bool:
        """Every block's top entry is nonzero at the origin: a metric is
        nondegenerate there, and a one-form invertible."""
        return bool((np.abs(self.top_values()) > TOP_FLOOR).all())

    def __repr__(self):
        return f"{type(self).__name__}(blocks={self.blocks}, order={self.space.order})"


def _differentiated(x: _BlockJets) -> _BlockJets:
    """A shallow copy of ``x`` that carries the gradient of its values to the
    stages of one call; ``x`` is left as it is."""
    out = copy.copy(x)
    out._grad = x.values.grad()
    return out


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

    def gram(self) -> JetArray:
        """The Gram matrix, its zero entries of full effective order."""
        source = _gram_sources(self.blocks)
        v = self.values
        coeffs = np.concatenate([v._stored, np.zeros((1, v._stored.shape[-1]))])[source]
        return JetArray(self.space, coeffs, np.append(v.eff, self.space.order)[source])

    def _gram_grad(self) -> JetArray:
        """``gram().grad()`` with its bits, gathered from the gradient of the
        values through the same sources: the derivative of a zero entry is
        a zero trusted one order below K."""
        d = self._gradient()
        c = d._stored
        coeffs = np.concatenate([c, np.zeros((len(c), 1, c.shape[-1]))], axis=1)
        eff = np.concatenate([d.eff, np.full((len(c), 1), self.space.order - 1)], axis=1)
        source = _gram_sources(self.blocks)
        return JetArray._raw(self.space, np.take(coeffs, source, axis=1), np.take(eff, source, axis=1))


class OneForm(_BlockJets):
    """Covector field in block coordinates; same storage layout as the
    metric's eta families."""


@dataclass(frozen=True)
class RotationOperator:
    """Candidate rotation-coefficient endomorphism (an (n, n) jet array,
    column convention) together with the constant pairing it should be
    symmetric for."""

    matrix: JetArray
    epsilon: np.ndarray


def epsilon_gram(blocks) -> np.ndarray:
    """The constant pairing of d_{i,alpha} with d_{m_alpha-1-i,alpha}."""
    start, pos, size = _layout(_sizes(blocks))
    g = np.zeros((len(size), len(size)), dtype=np.complex128)
    g[np.arange(len(size)), start + size - 1 - pos] = 1.0
    return g


def epsilon_metric(blocks_or_model, order: int | None = None) -> InvariantMetric:
    """The constant anti-diagonal invariant metric (per block)."""
    sizes = _sizes(blocks_or_model)
    if isinstance(blocks_or_model, FManifoldModel):
        sp = blocks_or_model.space
    else:
        sp = jet_space(sum(sizes), DEFAULT_ORDER if order is None else order)
    return InvariantMetric(sizes, unit_covector(sizes, sp).values)


def metric_from_potential(potential: JetArray, blocks_or_model) -> InvariantMetric:
    """eta_{i,alpha} = d_{i,alpha}(potential) for a potential jet (a
    0-dimensional jet array); warns if degenerate at 0."""
    sizes = _sizes(blocks_or_model)
    metric = InvariantMetric(sizes, potential.grad())
    if not metric.nondegenerate_at_origin():
        warnings.warn(
            "potential yields a metric degenerate at the origin", stacklevel=2
        )
    return metric


# -- unit and Euler conditions -------------------------------------------------


def check_unit_flat(metric: InvariantMetric) -> ResidualReport:
    """Flat unit: closed coidentity (the one-form of the eta has a
    potential: d_h eta_g = d_g eta_h over g < h) plus e(eta) = 0 for the
    unit field e = sum of the leading block directions."""
    d = metric._gradient()  # d[h, g] = d_h eta_g
    order = metric.values.eff_order() - 1
    unit = JetArray.constant(metric.space, (_layout(metric.blocks)[1] == 0).astype(np.float64)).exact_zeros()
    derivative = contract("v,vk->k", unit, d).residual_norm()
    closed = (d - d.transpose(1, 0))[np.triu_indices(len(d), 1)].residual_norm()
    return report_from([("coidentity_closed", closed, order), ("unit_derivative", derivative, order)])


def check_euler_rescaling(
    metric: InvariantMetric,
    euler: JetArray,
    weight: complex | None = None,
) -> tuple[complex, ResidualReport]:
    """Residual of E(eta) = (D-2) eta.

    With ``weight`` (the rescaling constant D) given, measures it directly;
    otherwise returns the least-squares best weight and its residual.
    """
    if euler.shape != (metric.dim,):
        raise ShapeError("Euler field dimension does not match the metric")
    eta = metric.values
    derivs = contract("v,vj->j", euler, metric._gradient())  # E(eta_j)
    order = derivs.eff_order()
    name = "euler_rescaling_solved" if weight is None else "euler_rescaling"
    if weight is None:
        num = 0.0 + 0.0j
        den = 0.0
        mask = metric.space.degrees <= order
        for jc, dc in zip(eta.coeffs[:, mask], derivs.coeffs[:, mask]):
            num += np.vdot(jc, dc)
            den += float(np.vdot(jc, jc).real)
        weight = (num / den if den > 0 else 0.0) + 2.0
    weight = complex(weight)
    worst = (derivs - eta.scale(weight - 2.0)).residual_norm()
    return weight, report_from([(name, worst, order)])


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
    start, pos, size = _layout(blocks)
    r, s = np.nonzero((start[:, None] == start) & (pos[:, None] + pos >= size[:, None] - 1))
    return r, s, r + pos[s] - (size[r] - 1)


def _descend(blocks, x: JetArray, weight: JetArray, rhs: JetArray, y=None, inner: int = 0) -> JetArray:
    """Fill a block-triangular system from the top of every block down:
    x_q = (rhs_q - sum_{s=q+1}^{m-1-inner} x_s y_{m-1+q-s}) * weight_block,
    where ``x`` holds each block's top already and ``y`` defaults to x.
    One level (the same distance below every top) at a time: every entry
    of a level has the same number of terms, subtracted in ascending s."""
    for rows, block, left, right in _descent_levels(blocks, inner):
        value = rhs[rows]
        if len(left):
            terms = x[left] * (x if y is None else y)[right]
            for term in terms.reshape(len(rows), -1).transpose(1, 0):
                value = value - term
        x = x.put(rows, value * weight[block])
    return x


def _descent_levels(blocks, inner: int):
    """The indices of :func:`_descend`, one level at a time: the rows q
    (in block order), their blocks, and the flat indices of s and of
    m-1+q-s for s = q+1, ..., m-1-inner, row after row."""
    start, pos, size = _layout(blocks)
    block = np.cumsum(pos == 0) - 1
    for level in range(1, max(blocks)):
        rows = np.flatnonzero(pos == size - 1 - level)
        steps = np.arange(1, level - inner + 1)  # s - q
        top = start[rows] + size[rows] - 1
        yield rows, block[rows], (rows[:, None] + steps).ravel(), (top[:, None] - steps).ravel()


def psi_from_metric(metric: InvariantMetric) -> OneForm:
    """Unique invertible one-form with g(X, Y) = (psi o psi)(X o Y).

    Per block: the top component is the principal square root of the top
    eta (no verdict depends on the branch), the rest follow by a
    descending triangular recursion whose weight 1 / (2 root) is the
    inverse of the root with its real and imaginary parts halved (a complex
    product by 0.5 can flip the sign of a zero part).  That weight has the
    bits of inverting the doubled root, except where the complex doubling
    turns a -0 part into +0, which the halved inverse keeps, and where a
    rounding of the Newton iteration falls in the subnormal range.  The
    one-form carries the root's inverse, which :func:`invert_oneform` reads.
    """
    if not metric.nondegenerate_at_origin():
        raise DegenerateMetricError("metric degenerate at the origin")
    tops = _tops(metric.blocks)
    eta = metric.values
    root = eta[tops].sqrt()
    inv_root = root.invert()
    psi = OneForm(metric.blocks, _descend(metric.blocks, eta.put(tops, root), _halved(inv_root), eta, inner=1))
    psi._top_inverse = inv_root
    return psi


def _halved(x: JetArray) -> JetArray:
    """x / 2, the real and imaginary parts halved separately."""
    c = x._stored
    half = np.empty_like(c)
    half.real, half.imag = c.real * 0.5, c.imag * 0.5
    return JetArray._raw(x.space, half, x.eff, x._orders)


def metric_from_psi(psi: OneForm) -> InvariantMetric:
    """eta_k = sum_{s+t=(m-1)+k} psi_s psi_t per block (left inverse of
    :func:`psi_from_metric`)."""
    return InvariantMetric(psi.blocks, covector_product(psi, psi).values)


def invert_oneform(psi: OneForm) -> OneForm:
    """Inverse covector beta for the cotangent multiplication
    dt^i o dt^j = dt^{i+j-(m-1)} (per block)."""
    if not psi.nondegenerate_at_origin():
        raise DegenerateMetricError(
            "one-form is not invertible (top component vanishes at the origin)"
        )
    tops = _tops(psi.blocks)
    inv_top = psi.values[tops].invert() if psi._top_inverse is None else psi._top_inverse
    zero = JetArray.constant(psi.space, np.zeros(psi.dim))
    return OneForm(psi.blocks, _descend(psi.blocks, zero.put(tops, inv_top), inv_top, zero, psi.values))


def covector_product(a: OneForm, b: OneForm) -> OneForm:
    """Cotangent multiplication of two one-forms (per block)."""
    r, s, t = _product_pairs(a.blocks)
    return OneForm(a.blocks, _sum_into(a.dim, t, a.values[r] * b.values[s]))


def unit_covector(blocks, space: JetSpace) -> OneForm:
    sizes = _sizes(blocks)
    _, pos, size = _layout(sizes)
    return OneForm(sizes, JetArray.constant(space, (pos == size - 1).astype(np.float64)))


def _epsilon_norm(psi: OneForm) -> JetArray:
    # psi_i pairs with psi_{m-1-i} of its block
    start, pos, size = _layout(psi.blocks)
    terms = psi.values * psi.values[start + size - 1 - pos]
    return _sum_into(1, np.zeros(psi.dim, dtype=np.int64), terms).reshape()


def gamma_operator(psi: OneForm, beta: OneForm, model: FManifoldModel) -> RotationOperator:
    """Rotation-operator candidate from the metric data: the inverse
    pairing contracted with the cotangent structure constants,
    gamma_{t j} = sum d_k(psi_j) beta_s eps^{ik} c_i^{st} (constant
    multiplication only)."""
    if not model.is_constant_multiplication():
        raise ScopeError("rotation operator requires constant multiplication")
    sp = psi.space
    eps = epsilon_gram(psi.blocks)
    eps_inv = np.linalg.inv(eps)
    c = model.constant_structure()  # c[i, f, t]
    # cotangent structure constants c_i^{st} = eps^{sf} c_{if}^t
    cot = np.einsum("sf,ift->ist", eps_inv, c)
    # w[k][t] = sum_{i,s} eps^{ik} c_i^{st} beta_s
    coef = JetArray.constant(sp, np.einsum("ik,ist->kts", eps_inv, cot)).exact_zeros()
    w = contract("kts,s->kt", coef, beta.values)
    # gamma_{tj} = sum_k d_k(psi_j) w[k][t], trusted one order below K
    dpsi = psi._gradient()  # dpsi[k, j] = d_k psi_j
    gamma = contract("kj,kt->tj", dpsi, w.exact_zeros()).capped(sp.order - 1)
    return RotationOperator(gamma, eps)


def structure_brackets(gamma: RotationOperator, model: FManifoldModel) -> JetArray:
    """br[i] = B_i = [C_i, gamma] for the constant matrices C_i of
    :meth:`FManifoldModel.mult_matrices`, which raises ScopeError unless the
    multiplication is constant: the shared input of the derivative law and
    the Darboux-Egoroff residuals."""
    g = gamma.matrix
    cm = JetArray.constant(g.space, np.stack(model.mult_matrices()))
    return -_brackets(g, cm)


def _brackets(x: JetArray, ys: JetArray) -> JetArray:
    """[x, y_j] for one jet matrix x (r, c) and a batch ys (j, r, c)."""
    return contract("rx,jxc->jrc", x, ys) - contract("jrx,xc->jrc", ys, x)


def check_gamma(gamma: RotationOperator, psi: OneForm, brackets: JetArray) -> ResidualReport:
    """Epsilon-symmetry of gamma, constancy of epsilon(psi, psi), and the
    derivative law d_i(psi_j) = (psi [C_i, gamma])_j, from the
    :func:`structure_brackets` of gamma."""
    sp = psi.space
    g = gamma.matrix
    eps = JetArray.constant(sp, gamma.epsilon)
    sym = (contract("ik,kj->ij", eps, g) - contract("ki,kj->ij", g, eps)).residual_norm()

    norm = _epsilon_norm(psi)
    flat_psi = psi.values
    law = psi._gradient() - contract("k,ikj->ij", flat_psi, brackets.exact_zeros())
    return report_from(
        [
            ("epsilon_symmetry", sym, g.eff_order()),
            ("psi_norm_constant", norm.grad().residual_norm(), norm.eff_order() - 1),
            ("necesitate", law.residual_norm(), sp.order - 1),
        ]
    )


def darboux_egoroff_residual(brackets: JetArray) -> ResidualReport:
    """Generalized Darboux-Egoroff residuals over index pairs i < j from the
    :func:`structure_brackets` of gamma; diagonal entries vanish identically
    and are reported as exact zeros.  The matrices are
    DE_ij = [C_i, d_j gamma] - [C_j, d_i gamma] - [[C_i, gamma], [C_j, gamma]].

    With B_i = [C_i, gamma] these are DE_ij = d_j B_i - d_i B_j - [B_i, B_j]:
    every C_i is a constant matrix (:func:`structure_brackets` requires
    constant multiplication), so [C_i, d_j gamma] = d_j [C_i, gamma].  One
    gradient of the brackets gives every derivative term.

    The relative sign between the derivative terms and the quadratic
    commutator is pinned by two independent cross-checks: the classical
    orthogonal-coordinate system d_k beta_ij = beta_ik beta_kj in the
    semisimple case, and the Levi-Civita curvature oracle on nilpotent
    blocks (see the tests).  With the rotation operator normalized by the
    derivative law d_i(psi_j) = (psi [C_i, gamma])_j, flatness corresponds
    to the minus sign used here.
    """
    dbr = brackets.grad()  # dbr[j, i] = d_j B_i
    order = dbr.eff_order()
    # the residuals are certified at the order of the derivative terms, so
    # the commutators need their operands only to it (to degree 1 at least:
    # operands trusted to degree 0 are constant, and their products would
    # take the scaling path, which rounds differently)
    low = brackets.capped(max(order, 1))
    n, entries = len(brackets), []
    for i in range(n):
        norms = ()
        if i + 1 < n:
            row = dbr[i + 1 :, i] - dbr[i, i + 1 :] - _brackets(low[i], low[i + 1 :])
            norms = row.residual_norms().max(axis=(1, 2))
        entries.extend((f"de_{i}_{j}", v, order) for j, v in enumerate((0.0, *norms), i))
    return report_from(entries)


def darboux_egoroff_matrix(brackets: JetArray, i: int, j: int) -> JetArray:
    """The full Darboux-Egoroff matrix DE_ij for one index pair (see
    :func:`darboux_egoroff_residual`)."""
    return brackets[i].partial(j) - brackets[j].partial(i) - _brackets(brackets[i], brackets[j : j + 1])[0]


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


def levi_civita_curvature(gram: InvariantMetric | JetArray, unit: JetArray) -> CurvatureResult:
    """Christoffel symbols, Riemann-tensor residual and unit-parallelism
    residual of a jet metric, computed independently of the
    Darboux-Egoroff chain.

    ``gram`` may be an :class:`InvariantMetric` or a symmetric (n, n) jet
    array, ``unit`` an (n,) jet array.  Curvature is certified at two orders
    below the metric's effective order.
    """
    if isinstance(gram, InvariantMetric):
        g, dg = gram.gram(), gram._gram_grad()
    else:
        g, dg = gram, gram.grad()
    # dg[v, j, k] = d_v g_jk
    n = len(g)
    eff = g.eff_order()
    if eff < 2:
        raise ShapeError("curvature requires effective order >= 2")
    ginv = g.inverse()
    # first kind: G_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
    first = (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)).scale(0.5)
    chris = contract("lk,ijk->ijl", ginv, first)
    # R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik
    #             + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik, over i < j;
    # the curvature is certified at eff - 2, so the quadratic terms read the
    # symbols only to it (to degree 1 at least, as a constant operand would
    # take the scaling path, which rounds differently)
    low = chris.capped(max(eff - 2, 1))
    worst = 0.0
    for i in range(n - 1):
        js = slice(i + 1, n)
        r = (
            chris[js].partial(i)
            - chris[i].grad()[js]
            + contract("ml,jkm->jkl", low[i], low[js])
            - contract("jml,km->jkl", low[js], low[i])
        )
        worst = max(worst, r.residual_norm())
    curv = Residual(worst, eff - 2)

    parallel = unit.grad() + contract("ijk,j->ik", chris, unit.exact_zeros())
    unit_res = Residual(parallel.residual_norm(), eff - 1)
    return CurvatureResult(chris, curv, unit_res)


def euler_derivative(christoffel: JetArray, euler: JetArray) -> JetArray:
    """Levi-Civita derivative of the Euler field from Christoffel symbols:
    nabla[k, j] = d_j E^k + sum_l Gamma^k_jl E^l."""
    return euler.grad().transpose(1, 0) + contract("jlk,l->kj", christoffel, euler)


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
    tolerance: float = DEFAULT_TOLERANCE,
    run_oracle: bool | None = None,
) -> FrobeniusVerdict:
    """Full chain, one public stage after another: :func:`psi_from_metric`,
    :func:`invert_oneform`, :func:`gamma_operator`, :func:`structure_brackets`,
    :func:`check_gamma` and :func:`darboux_egoroff_residual` (which share the
    brackets), :func:`check_unit_flat`, :func:`check_euler_rescaling` (its
    law joins the verdict with ``weight`` given) and
    :func:`levi_civita_curvature`.  The gradients of the metric and of psi
    are formed once each and passed to their stages on copies
    (:func:`_differentiated`), and :func:`invert_oneform` reads the inverses
    of psi's top entries that :func:`psi_from_metric` formed; nothing is
    kept on the metric or the model.
    A metric of effective order below 2, the oracle's floor, is refused with
    :class:`ShapeError` before any stage runs.

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
    if metric.values.eff_order() < 2:
        raise ShapeError("the Frobenius verdict requires a metric of effective order >= 2")
    psi = psi_from_metric(metric)
    beta = invert_oneform(psi)
    dpsi = _differentiated(psi)
    gamma = gamma_operator(dpsi, beta, model)
    br = structure_brackets(gamma, model)
    chain = check_gamma(gamma, dpsi, br)
    de = darboux_egoroff_residual(br)
    del br, dpsi  # not held through the oracle, the verdict's largest step
    metric = _differentiated(metric)  # the caller's metric is left as it is

    entries = list(chain.items())
    entries.append(("darboux_egoroff", Residual(de.max_value(), de["de_0_0"].order)))
    entries.extend(check_unit_flat(metric).items())
    weight_out, euler_rep = check_euler_rescaling(metric, model.euler, weight)
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
        weight_solved=weight is None,
        report=rep,
        de_table=de,
        psi=psi,
        beta=beta,
        gamma=gamma,
        oracle=oracle,
    )
