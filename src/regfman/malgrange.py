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

from dataclasses import dataclass

import numpy as np

from . import regend
from .errors import (
    ChartDegeneracyError,
    ConstructionInconsistencyError,
    ShapeError,
    ValidationError,
)
from .fman import (
    FManifoldModel,
    canonical_frame,
    germ_isomorphism,
    mult_by_euler,
    standard_model,
)
from .frob import FrobeniusVerdict, InvariantMetric, _offsets, euler_derivative, frobenius_verdict
from .jets import DEFAULT_ORDER, JetArray, Substitution, contract, jet_space
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
        if not regend.is_regular(b0o):
            raise ShapeError("b0o must be regular")
        object.__setattr__(self, "b0o", b0o)
        object.__setattr__(self, "binf", binf)

    @property
    def dim(self) -> int:
        return self.b0o.shape[0]


@dataclass(frozen=True)
class MalgrangeChart:
    """The chart Gamma of the leaf through zero, an (n, n) jet array in n
    variables (nested jets are stacked once)."""

    spec: DeformationSpec
    gamma: JetArray
    order: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", JetArray.from_jets(self.gamma))


def b0_at(spec: DeformationSpec, gamma) -> JetArray:
    """B0o - Gamma + [Binf, Gamma], entrywise in jets."""
    gamma = JetArray.from_jets(gamma)
    sp = gamma.space
    binf = JetArray.constant(sp, spec.binf)
    return (JetArray.constant(sp, spec.b0o) - gamma) + (
        contract("ab,bc->ac", binf, gamma) - contract("ab,bc->ac", gamma, binf)
    )


def _powers(b: JetArray, count: int) -> list[JetArray]:
    """Matrix powers b**0, ..., b**(count - 1)."""
    out = [JetArray.constant(b.space, np.eye(len(b)))]
    for _ in range(count - 1):
        out.append(contract("ab,bc->ac", out[-1], b))
    return out


def integrate_chart(spec: DeformationSpec, order: int = DEFAULT_ORDER) -> MalgrangeChart:
    """Chart of the integral leaf through zero.

    The k-th chart variable flows along the k-th spanning field
    (B0 at Gamma) ** k; flows are applied with ascending index, each one
    Picard-iterated to the full jet order (exact at jet scale, no step
    error).
    """
    n = spec.dim
    sp = jet_space(n, order)
    gamma = JetArray.constant(sp, np.zeros((n, n)))
    for i in range(n):
        prev = current = gamma
        for _ in range(order + 1):
            field = _powers(b0_at(spec, current), i + 1)[i]
            current = prev + field.integrate(i)
        gamma = current
    frame0 = np.column_stack(
        [np.linalg.matrix_power(spec.b0o, j).reshape(-1) for j in range(n)]
    )
    cond = np.linalg.cond(frame0)
    if not np.isfinite(cond) or cond > 1e10:
        raise ChartDegeneracyError(f"spanning frame degenerate at zero (cond {cond:.2e})")
    return MalgrangeChart(spec=spec, gamma=gamma, order=order)


def expand_in_frame(frame: JetArray, rhs: JetArray) -> tuple[JetArray, np.ndarray]:
    """Coefficients f[r, k] with sum_k f[r, k] frame[k] = rhs[r] for a stack
    of right-hand sides, frame (nf, a, b) and rhs (R, a, b), solved order by
    order against the constant terms of the frame: least squares per degree
    through one pseudo-inverse, and one contraction per degree for the part
    already solved.  Returns the coefficient jets, shape (R, nf), and the
    final residual of each right-hand side."""
    sp = frame.space
    nf, count = len(frame), len(rhs)
    pinv = np.linalg.pinv(frame.constant_term().reshape(nf, -1).T)
    solved = np.zeros((count, nf, sp.size), dtype=np.complex128)
    full = np.full((count, nf), sp.order)
    for deg in range(sp.order + 1):
        acc = contract("rk,kab->rab", JetArray(sp, solved.copy(), full).exact_zeros(), frame)
        resid = (rhs - acc).coeffs.reshape(count, -1, sp.size)
        idx = np.flatnonzero(sp.degrees == deg)
        solved[:, :, idx] = pinv @ resid[:, :, idx]
    eff = np.minimum(rhs.eff.reshape(count, -1).min(axis=1), frame.eff_order())
    coeffs = JetArray(sp, solved, np.broadcast_to(eff[:, None], (count, nf)).copy())
    final = contract("rk,kab->rab", coeffs.exact_zeros(), frame)
    return coeffs, (rhs - final).residual_norms().reshape(count, -1).max(axis=1)


def _tangent(chart: MalgrangeChart) -> JetArray:
    """Tangent matrices d_i Gamma, shape (n, n, n)."""
    return chart.gamma.grad()


def _products(tangent: JetArray) -> JetArray:
    """Matrix products of tangent matrices, [i, j] = d_i Gamma d_j Gamma."""
    return contract("iab,jbc->ijac", tangent, tangent)


def check_integrality(chart: MalgrangeChart) -> ResidualReport:
    """Tangency of each coordinate direction to the power span, and
    closure of tangent products in the tangent frame."""
    n = chart.spec.dim
    tangent = _tangent(chart)
    power = JetArray.stack(_powers(b0_at(chart.spec, chart.gamma), n))
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
    return BirkhoffConnection(b0_at(chart.spec, chart.gamma), chart.spec.binf, _tangent(chart))


def fmanifold_on_chart(
    chart: MalgrangeChart, residual_limit: float = 1e-6
) -> FManifoldModel:
    """Matrix multiplication of tangent matrices expanded back in the
    tangent frame, with unit = expansion of the identity matrix and Euler
    field = expansion of minus the polar residue.  All n*n + 2 right-hand
    sides are expanded in one solve.

    The expansion residual is a difference of jets of the size of the
    right-hand sides, so its round-off grows with them: the worst residual
    is held to ``residual_limit`` times the largest coefficient modulus of
    the right-hand sides, and never to less than ``residual_limit``."""
    n = chart.spec.dim
    gamma = chart.gamma
    tangent = gamma.grad()
    sp = tangent.space
    rhs = JetArray.stack(
        [
            *_products(tangent).reshape(n * n, n, n),
            JetArray.constant(sp, np.eye(n)),
            -b0_at(chart.spec, gamma),
        ]
    )
    coeffs, res = expand_in_frame(tangent, rhs)
    worst = float(res.max())
    scale = max(1.0, float(np.abs(rhs.coeffs).max()))
    if worst > residual_limit * scale:
        raise ChartDegeneracyError(
            f"tangent-frame expansion residual {worst:.3e}, or {worst / scale:.3e} relative to "
            f"the largest right-hand-side coefficient {scale:.3e}, exceeds {residual_limit:.1e}"
        )
    return FManifoldModel(coeffs[: n * n].reshape(n, n, n), coeffs[n * n], coeffs[n * n + 1])


def check_universality_isomorphism(
    chart: MalgrangeChart, model: FManifoldModel
) -> tuple[JetArray, ResidualReport]:
    """Germ isomorphism from the chart model (``fmanifold_on_chart(chart)``)
    to the standard model of the spectrum of minus the seed residue."""
    spec = regend.jordan_spectrum(-chart.spec.b0o)
    target = standard_model(spec, order=chart.order)
    return germ_isomorphism(model, target)


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


@dataclass(frozen=True)
class ValidationReport:
    residuals: ResidualReport
    gram_condition: float
    companion: np.ndarray
    moments: np.ndarray

    def passed(self, tolerance: float = 1e-9, cond_limit: float = 1e10) -> bool:
        return self.residuals.passes(tolerance) and self.gram_condition <= cond_limit


def _origin_frame(model: FManifoldModel) -> tuple[np.ndarray, np.ndarray]:
    frame = canonical_frame(model)
    p = frame.constant_matrix()
    u0 = mult_by_euler(model).constant_term()
    return p, u0


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


def validate_initial_data(data: InitialData) -> ValidationReport:
    """Admissibility of the pointwise data: invariance of the pairing
    (Hankel structure in the Euler-power basis), the companion shape of the
    origin multiplication, skewness of the endomorphism with respect to the
    pairing, and the unit-direction law of its first column."""
    n = data.model.dim
    u0 = mult_by_euler(data.model).constant_term()
    e0 = data.model.unit.constant_terms()
    b0o = regend.cyclic_basis_representation(u0, e0)

    companion_res = 0.0
    for i in range(n - 1):
        for j in range(n):
            want = 1.0 if j == i + 1 else 0.0
            companion_res = max(companion_res, abs(b0o[j, i] - want))

    h = _moments(b0o, data.gram)
    invariance = 0.0
    for i in range(n):
        for j in range(n):
            invariance = max(invariance, abs(data.gram[i, j] - h[i + j]))

    v = data.skew
    skewness = 0.0
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += v[k, i] * h[k + j] + v[k, j] * h[k + i]
            skewness = max(skewness, abs(acc))

    first_col = 0.0
    target = 1.0 - data.weight / 2.0
    for j in range(n):
        want = target if j == 0 else 0.0
        first_col = max(first_col, abs(v[j, 0] - want))

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
    regularity_probe: str = ""


def initial_condition_extend(
    data: InitialData,
    order: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    probe_order=None,
    validation_tolerance: float = 1e-8,
) -> ExtensionResult:
    """Extend admissible pointwise data to a Frobenius metric on the model.

    Pipeline: (1) represent the origin multiplication and the skew
    endomorphism in the Euler-power basis, (2) build the deformation chart
    for the negated pair, (3) extend the pairing constantly over the
    deformation bundle, (4) transport it through the primitive section and
    (5) pull the resulting metric back to the model along the unique germ
    isomorphism.  The report includes the origin match, the full Frobenius
    verdict at the given weight, the origin Euler-derivative law and the
    symmetry diagnostics of the chart.
    """
    val = validate_initial_data(data)
    if not val.passed(validation_tolerance):
        worst = val.residuals.worst()
        raise ValidationError(
            f"initial data inadmissible: {worst[0]} = {worst[1].value:.3e}, "
            f"gram condition {val.gram_condition:.3e}"
        )
    model = data.model
    n = model.dim
    if order is None:
        order = model.space.order
    if order != model.space.order:
        raise ShapeError("extension order must match the model's jet order")
    b0o = val.companion
    binf = data.skew
    g0 = np.array([[val.moments[i + j] for j in range(n)] for i in range(n)])

    chart = integrate_chart(DeformationSpec(-b0o, -binf), order)
    gamma = chart.gamma
    sp = gamma.space
    tangent = gamma.grad()
    bundle = SaitoBundle(phi=tangent, r0=b0_at(chart.spec, gamma), rinf=binf, metric=g0)
    saito_rep = check_saito_axioms(bundle)
    saito_metric_rep = check_saito_metric_axioms(bundle)

    # metric on the chart through the primitive constant section:
    # cols[i, k] = (phi_i e_0)^k
    g0_jet = JetArray.constant(sp, g0)
    cols = tangent[:, :, 0]
    gram_chart = contract("al,bl->ab", contract("ak,kl->al", cols, g0_jet), cols)

    chart_model = fmanifold_on_chart(chart)
    psi, iso_rep = germ_isomorphism(model, chart_model)
    jac = psi.grad()  # jac[a, k] = d_a psi^k
    composed = Substitution(sp, psi)(gram_chart)
    gram_model = contract("al,bl->ab", contract("ak,kl->al", jac, composed), jac)

    if model.blocks is None:
        raise ShapeError("target model must carry block structure")
    sizes = [m for _, m in model.blocks]
    # eta_{i, alpha} = g(d_{0, alpha}, d_{i, alpha})
    rows = np.repeat(_offsets(sizes), sizes)
    metric = InvariantMetric(sizes, gram_model[rows, np.arange(n)])
    structure_res = (metric.gram() - gram_model).residual_norm()

    # the pairing is complex-bilinear: the frame change uses plain transposes
    p, u0 = _origin_frame(model)
    pinv = np.linalg.inv(p)
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

    regularity = regend.is_regular(u0, probe_order=probe_order)

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
    report = report.merged(iso_rep, prefix="chart_iso_")

    if origin_res > 1e-6 or (not verdict.passed and verdict.report.max_value() > 1e-4):
        raise ConstructionInconsistencyError(
            f"extension failed internal guarantees: origin {origin_res:.2e}, "
            f"worst verdict residual {verdict.report.worst()[1].value:.2e}"
        )
    return ExtensionResult(
        metric=metric,
        gram_jets=gram_model,
        chart=chart,
        chart_map=psi,
        verdict=verdict,
        validation=val,
        report=report,
        regularity_probe=regularity.probe,
    )
