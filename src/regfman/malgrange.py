"""Universal-deformation charts and the initial-condition extension.

A regular matrix pair (B0o, Binf) determines an integrable rank-n
distribution spanned by the powers of B0(Gamma) = B0o - Gamma + [Binf, Gamma]
on the space of matrices.  The chart of its integral leaf through zero is
built by composing the coordinate flows of the n spanning fields, each
integrated as a truncated Taylor series (Picard iteration in jets).  On the
chart live the canonical flat connection, the induced F-manifold, and the
extension of an admissible pointwise pairing to a full Frobenius metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import regend
from .errors import (
    ChartDegeneracyError,
    ConstructionInconsistencyError,
    RegularityError,
    ShapeError,
    ValidationError,
)
from .fman import FManifoldModel, GermIsomorphism, _matrix_powers, germ_isomorphism, standard_model
from .frob import FrobeniusVerdict, InvariantMetric, _layout, _sizes, euler_derivative, frobenius_verdict
from .jets import DEFAULT_ORDER, JetArray, contract, jet_space
from .reports import DEFAULT_TOLERANCE, Residual, ResidualReport, report_from
from .saito import BirkhoffConnection, SaitoBundle, check_saito_axioms, check_saito_metric_axioms


@dataclass(frozen=True)
class DeformationSpec:
    """Constant matrix pair seeding the deformation; the zero-residue matrix
    must be regular."""

    b0o: np.ndarray
    binf: np.ndarray

    def __post_init__(self):
        b0o = np.asarray(self.b0o, dtype=np.complex128)
        binf = np.asarray(self.binf, dtype=np.complex128)
        if b0o.ndim != 2 or b0o.shape[0] != b0o.shape[1]:
            raise ShapeError("b0o must be square")
        if binf.shape != b0o.shape:
            raise ShapeError("binf must match b0o in shape")
        regularity = regend.is_regular(b0o)
        if not regularity:
            raise RegularityError(
                f"b0o must be regular: best Krylov condition {regularity.condition:.3e}"
                + (f" on probe {regularity.probe}" if regularity.probe else "")
            )
        object.__setattr__(self, "b0o", b0o)
        object.__setattr__(self, "binf", binf)

    @property
    def dim(self) -> int:
        return self.b0o.shape[0]


@dataclass(frozen=True)
class MalgrangeChart:
    """The chart Gamma of the leaf through zero, an (n, n) jet array in n
    variables, with its tangent matrices and its polar residue, each built
    once on first use."""

    spec: DeformationSpec
    gamma: JetArray

    @cached_property
    def tangent(self) -> JetArray:
        """Tangent matrices d_i Gamma, shape (n, n, n)."""
        return self.gamma.grad()

    @cached_property
    def b0(self) -> JetArray:
        """B0 at Gamma (see :func:`b0_at`)."""
        return b0_at(self.spec, self.gamma)


def b0_at(spec: DeformationSpec, gamma: JetArray) -> JetArray:
    """B0o - Gamma + [Binf, Gamma], entrywise in jets."""
    sp = gamma.space
    binf = JetArray.constant(sp, spec.binf)
    return (JetArray.constant(sp, spec.b0o) - gamma) + (
        contract("ab,bc->ac", binf, gamma) - contract("ab,bc->ac", gamma, binf)
    )


# The spanning frame at zero is refused above this condition number, and the
# tangent-frame expansion above this residual relative to its right-hand sides.
FRAME_COND_LIMIT = 1e10
EXPANSION_RESIDUAL_LIMIT = 1e-6


def integrate_chart(spec: DeformationSpec, order: int = DEFAULT_ORDER) -> MalgrangeChart:
    """Chart of the integral leaf through zero.

    The k-th chart variable flows along the k-th spanning field
    (B0 at Gamma) ** k; flows are applied with ascending index, each one
    Picard-iterated in jets (exact at jet scale, no step error).  Degree d
    of an iterate is final after d steps, so a flow takes ``order`` steps,
    and step s reads the iterate only to degree s (to degree 1 at the first
    step: an operand trusted to degree 0 is constant, and its products
    would take the scaling path, which rounds differently).  Flow 0 follows
    (B0 at Gamma) ** 0 = I whatever the iterate, so one step, with no B0,
    is final.  The spanning frame at zero is checked before any flow runs.
    """
    n = spec.dim
    frame0 = np.column_stack(
        [np.linalg.matrix_power(spec.b0o, j).reshape(-1) for j in range(n)]
    )
    cond = np.linalg.cond(frame0)
    if not np.isfinite(cond) or cond > FRAME_COND_LIMIT:
        raise ChartDegeneracyError(f"spanning frame degenerate at zero (cond {cond:.2e})")
    sp = jet_space(n, order)
    gamma = JetArray.constant(sp, np.zeros((n, n)))
    # flow 0 follows (B0 at Gamma) ** 0 = I whatever the iterate: one step
    gamma = gamma + JetArray.constant(sp, np.eye(n)).integrate(0)
    for i in range(1, n):
        current = gamma
        for s in range(order):
            field = _matrix_powers(b0_at(spec, current.capped(max(s, 1))), i + 1)[i]
            current = gamma + field.integrate(i)
        gamma = current
    return MalgrangeChart(spec=spec, gamma=gamma)


def expand_in_frame(frame: JetArray, rhs: JetArray) -> tuple[JetArray, np.ndarray]:
    """Coefficients f[r, k] with sum_k f[r, k] frame[k] = rhs[r] for a stack
    of right-hand sides, frame (nf, a, b) and rhs (R, a, b), solved order by
    order against the constant terms of the frame: least squares per degree
    through one pseudo-inverse, and one contraction per degree for the part
    already solved.  That contraction is read only at the degree being
    solved, so the part enters it trusted to that degree and no column
    above it is formed, and only the columns of that degree are subtracted
    from the right-hand sides.  Returns the coefficient jets, shape (R, nf),
    and the final residual of each right-hand side."""
    sp = frame.space
    nf, count = len(frame), len(rhs)
    pinv = np.linalg.pinv(frame.constant_term().reshape(nf, -1).T)
    solved = np.zeros((count, nf, sp.size), dtype=np.complex128)
    for deg in range(sp.order + 1):
        part = JetArray(sp, solved[..., : sp._degree_ends[deg]].copy(), np.full((count, nf), deg))
        acc = contract("rk,kab->rab", part.exact_zeros(), frame)
        resid = rhs.degree_part(deg) - acc.degree_part(deg)
        if deg:
            # the difference is truncated above the lower of the two orders
            resid[np.minimum(rhs.eff, acc.eff) < deg] = 0.0
        end = sp._degree_ends[deg]
        solved[:, :, end - resid.shape[-1] : end] = pinv @ resid.reshape(count, -1, resid.shape[-1])
    eff = np.minimum(rhs.eff.reshape(count, -1).min(axis=1), frame.eff_order())
    coeffs = JetArray(sp, solved, np.broadcast_to(eff[:, None], (count, nf)).copy())
    final = contract("rk,kab->rab", coeffs.exact_zeros(), frame)
    return coeffs, (rhs - final).residual_norms().reshape(count, -1).max(axis=1)


def _products(tangent: JetArray) -> JetArray:
    """Matrix products of tangent matrices, [i, j] = d_i Gamma d_j Gamma."""
    return contract("iab,jbc->ijac", tangent, tangent)


def check_integrality(chart: MalgrangeChart) -> ResidualReport:
    """Tangency of each coordinate direction to the power span, and
    closure of tangent products in the tangent frame."""
    n = chart.spec.dim
    tangent = chart.tangent
    power = JetArray.stack(_matrix_powers(chart.b0, n))
    ord_t = tangent.eff_order()
    _, tangency = expand_in_frame(power, tangent)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    products = _products(tangent)
    _, closure = expand_in_frame(tangent, JetArray.stack([products[i, j] for i, j in pairs]))
    entries = [(f"tangency_{i}", tangency[i], ord_t) for i in range(n)]
    entries += [(f"closure_{i}_{j}", res, ord_t) for (i, j), res in zip(pairs, closure)]
    return report_from(entries)


def canonical_connection(chart: MalgrangeChart) -> BirkhoffConnection:
    """Connection data on the chart: polar residue B0 at Gamma, constant
    Binf, and the tangent matrices acting as the Higgs field."""
    return BirkhoffConnection(chart.b0, chart.spec.binf, chart.tangent)


def fmanifold_on_chart(chart: MalgrangeChart) -> FManifoldModel:
    """Matrix multiplication of tangent matrices expanded back in the
    tangent frame, with unit = expansion of the identity matrix and Euler
    field = expansion of minus the polar residue.  All n*n + 2 right-hand
    sides are expanded in one solve.

    The expansion residual is a difference of jets of the size of the
    right-hand sides, so its round-off grows with them: the worst residual
    is held to ``EXPANSION_RESIDUAL_LIMIT`` times the largest coefficient
    modulus of the right-hand sides, and never to less than that limit."""
    tangent, b0 = chart.tangent, chart.b0
    n = len(tangent)
    rhs = JetArray.stack(
        [*_products(tangent).reshape(n * n, n, n), JetArray.constant(tangent.space, np.eye(n)), -b0]
    )
    coeffs, res = expand_in_frame(tangent, rhs)
    worst = float(res.max())
    scale = max(1.0, float(np.abs(rhs.coeffs).max()))
    if worst > EXPANSION_RESIDUAL_LIMIT * scale:
        raise ChartDegeneracyError(
            f"tangent-frame expansion residual {worst:.3e}, or {worst / scale:.3e} relative to "
            f"the largest right-hand-side coefficient {scale:.3e}, exceeds {EXPANSION_RESIDUAL_LIMIT:.1e}"
        )
    return FManifoldModel(coeffs[: n * n].reshape(n, n, n), coeffs[n * n], coeffs[n * n + 1])


def check_universality_isomorphism(chart: MalgrangeChart, model: FManifoldModel) -> GermIsomorphism:
    """Germ isomorphism from the chart model (``fmanifold_on_chart(chart)``)
    to the standard model of the spectrum of minus the seed residue; its
    ``spectra`` are the chart model's origin spectrum and that seed
    spectrum, which the target is built from."""
    spec = regend.jordan_spectrum(-chart.spec.b0o)
    iso = germ_isomorphism(model, standard_model(spec, order=chart.gamma.space.order))
    return replace(iso, spectra=(iso.spectra[0], spec))


# -- initial conditions ---------------------------------------------------------


@dataclass(frozen=True)
class InitialData:
    """Pointwise data at the origin of a regular model, in the basis of
    Euler-field powers {e, E, E^2, ...}: the Gram matrix of an invariant
    pairing, the matrix of a skew endomorphism fixing the unit direction up
    to the weight, and the rescaling weight."""

    model: FManifoldModel
    gram: np.ndarray
    skew: np.ndarray
    weight: complex

    def __post_init__(self):
        n = self.model.dim
        gram = np.asarray(self.gram, dtype=np.complex128)
        skew = np.asarray(self.skew, dtype=np.complex128)
        if gram.shape != (n, n) or skew.shape != (n, n):
            raise ShapeError("gram and skew matrices must be n x n")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "skew", skew)
        object.__setattr__(self, "weight", complex(self.weight))


# Initial data are admissible only with a Gram matrix of condition number
# at most this.
GRAM_COND_LIMIT = 1e10


@dataclass(frozen=True)
class ValidationReport:
    residuals: ResidualReport
    gram_condition: float
    companion: np.ndarray
    moments: np.ndarray

    def passed(self, tolerance: float) -> bool:
        return self.residuals.passes(tolerance) and self.gram_condition <= GRAM_COND_LIMIT


def _moments(b0o: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """h_k = pairing of the unit with the k-th Euler power, for k up to
    2n-2, using the companion relations to reduce high powers."""
    n = b0o.shape[0]
    h = np.zeros(2 * n - 1, dtype=np.complex128)
    power = np.eye(n, dtype=np.complex128)
    for k in range(2 * n - 1):
        h[k] = gram[0, :] @ power[:, 0]
        power = b0o @ power
    return h


def _hankel(h: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hankel matrix of the moments, [i, j] = h[i + j]."""
    return h[np.add.outer(np.arange(n), np.arange(n))]


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| entrywise, bit-equal to the scalar ``abs`` (``np.abs`` may not be)."""
    return np.hypot(z.real, z.imag)


def validate_initial_data(data: InitialData) -> ValidationReport:
    """Admissibility of the pointwise data: invariance of the pairing
    (Hankel structure in the Euler-power basis), the companion shape of the
    model's U at the origin, skewness of the endomorphism with respect to
    the pairing, and the unit-direction law of its first column."""
    n = data.model.dim
    u0 = data.model._euler_matrix.constant_term()
    e0 = data.model.unit.constant_terms()
    b0o = regend.cyclic_basis_representation(u0, e0)

    # every column but the last is the next basis vector
    companion_res = _modulus(b0o[:, :-1] - np.eye(n, n - 1, -1)).max(initial=0.0)

    h = _moments(b0o, data.gram)
    invariance = _modulus(data.gram - _hankel(h, n)).max()

    v = data.skew
    skewness = 0.0
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += v[k, i] * h[k + j] + v[k, j] * h[k + i]
            skewness = max(skewness, abs(acc))

    first_col = max(abs(v[0, 0] - (1.0 - data.weight / 2.0)), _modulus(v[1:, 0]).max(initial=0.0))

    cond = float(np.linalg.cond(data.gram))
    residuals = report_from(
        [
            ("companion_shape", companion_res, 0),
            ("gram_invariance", invariance, 0),
            ("skew_symmetry", skewness, 0),
            ("unit_column", first_col, 0),
        ]
    )
    return ValidationReport(residuals, cond, b0o, h)


@dataclass(frozen=True)
class ExtensionResult:
    metric: InvariantMetric
    gram_jets: JetArray
    chart: MalgrangeChart
    chart_map: JetArray
    verdict: FrobeniusVerdict
    validation: ValidationReport
    report: ResidualReport
    regularity_probe: str


def _saito_reports(chart: MalgrangeChart, binf: np.ndarray, g0: np.ndarray) -> tuple[ResidualReport, ...]:
    """The Saito axioms and metric axioms of the deformation bundle of the
    chart with the constant pairing ``g0``.  The bundle, and the product
    table it caches, lives only for this call."""
    bundle = SaitoBundle(phi=chart.tangent, r0=chart.b0, rinf=binf, metric=g0)
    return check_saito_axioms(bundle), check_saito_metric_axioms(bundle)


def initial_condition_extend(
    data: InitialData,
    tolerance: float = DEFAULT_TOLERANCE,
    validation_tolerance: float = 1e-8,
) -> ExtensionResult:
    """Extend admissible pointwise data to a Frobenius metric on the model.

    Pipeline: (1) represent the origin multiplication and the skew
    endomorphism in the Euler-power basis, (2) build the deformation chart
    for the negated pair, (3) extend the pairing constantly over the
    deformation bundle, (4) transport it through the primitive section and
    (5) pull the resulting metric back to the model along the unique germ
    isomorphism.  The public stages, in order: :func:`validate_initial_data`,
    :func:`integrate_chart`, :func:`check_saito_axioms` and
    :func:`check_saito_metric_axioms`, :func:`fmanifold_on_chart`,
    :func:`germ_isomorphism` (whose substitution table the pull-back
    reuses) and :func:`frobenius_verdict`.  The
    report includes the origin match, the full Frobenius verdict at the
    given weight, the origin Euler-derivative law and the symmetry
    diagnostics of the chart.  The extension is taken to the model's jet
    order.  Inadmissible data raise :class:`ValidationError`, which carries
    the validation report; a model without block structure raises
    :class:`ScopeError` before any of it is computed.
    """
    sizes = _sizes(data.model)
    val = validate_initial_data(data)
    if not val.passed(validation_tolerance):
        worst = val.residuals.worst()
        raise ValidationError(
            f"initial data inadmissible: {worst[0]} = {worst[1].value:.3e}, "
            f"gram condition {val.gram_condition:.3e}",
            val,
        )
    model = data.model
    n = model.dim
    order = model.space.order
    b0o = val.companion
    binf = data.skew
    g0 = _hankel(val.moments, n)

    chart = integrate_chart(DeformationSpec(-b0o, -binf), order)
    gamma = chart.gamma
    sp = gamma.space
    saito_rep, saito_metric_rep = _saito_reports(chart, binf, g0)

    # metric on the chart through the primitive constant section:
    # cols[i, k] = (phi_i e_0)^k
    g0_jet = JetArray.constant(sp, g0)
    cols = chart.tangent[:, :, 0]
    gram_chart = contract("al,bl->ab", contract("ak,kl->al", cols, g0_jet), cols)

    # the pull-back composes through the isomorphism's substitution table
    iso = germ_isomorphism(model, fmanifold_on_chart(chart))
    jac = iso.map.grad()  # jac[a, k] = d_a psi^k
    composed = iso.substitution(gram_chart)
    gram_model = contract("al,bl->ab", contract("ak,kl->al", jac, composed), jac)

    # eta_{i, alpha} = g(d_{0, alpha}, d_{i, alpha})
    metric = InvariantMetric(sizes, gram_model[_layout(sizes)[0], np.arange(n)])
    structure_res = (metric.gram() - gram_model).residual_norm()

    # the pairing is complex-bilinear: the frame change uses plain transposes
    p = model._frame.constant_term().T
    pinv = model._frame_inverse
    expected0 = pinv.T @ data.gram @ pinv
    origin_res = float(np.max(np.abs(gram_model.constant_term() - expected0)))

    verdict = frobenius_verdict(
        metric, model, weight=data.weight, tolerance=tolerance, run_oracle=True
    )

    # Euler-derivative law at the origin
    nabla0 = euler_derivative(verdict.oracle.christoffel, model.euler).constant_term()
    expected_nabla = p @ binf @ pinv + (data.weight / 2.0) * np.eye(n)
    euler_law_res = float(np.max(np.abs(nabla0 - expected_nabla)))

    member_res = (
        contract("ba,bc->ac", gamma, g0_jet) - contract("ab,bc->ac", g0_jet, gamma)
    ).residual_norm()
    b0o_sym = float(np.max(np.abs(b0o.T @ g0 - g0 @ b0o)))
    binf_skew = float(np.max(np.abs(binf.T @ g0 + g0 @ binf)))

    report = ResidualReport(
        [
            ("origin_match", Residual(origin_res, order)),
            ("invariant_structure", Residual(structure_res, gram_model.eff_order())),
            ("euler_derivative_origin", Residual(euler_law_res, 0)),
            ("chart_in_symmetric_matrices", Residual(member_res, order)),
            ("companion_symmetric", Residual(b0o_sym, 0)),
            ("skew_matrix_skew", Residual(binf_skew, 0)),
        ]
    )
    report = report.merged(saito_rep, prefix="saito_")
    report = report.merged(saito_metric_rep, prefix="saito_")
    report = report.merged(iso.report, prefix="chart_iso_")

    if origin_res > 1e-6 or (not verdict.passed and verdict.report.max_value() > 1e-4):
        raise ConstructionInconsistencyError(
            f"extension failed internal guarantees: origin {origin_res:.2e}, "
            f"worst verdict residual {verdict.report.worst()[1].value:.2e}"
        )
    return ExtensionResult(
        metric=metric,
        gram_jets=gram_model,
        chart=chart,
        chart_map=iso.map,
        verdict=verdict,
        validation=val,
        report=report,
        regularity_probe=model._regularity.probe,
    )
