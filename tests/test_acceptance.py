"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its measured worst residual and runtime.

Criteria (tolerances pinned here):
 1. standard-model axioms, all spectra n <= 4, residuals <= 1e-10, K = 4, <= 10 s
 2. canonical-frame identities on single blocks m = 2, 3, 4, <= 1e-9
 3. bracket-constant table exact; the n = 2 cubic matrix identity <= 1e-10
 4. Frobenius verdict vs curvature oracle on >= 20 metrics, agreement, <= 60 s
 5. closed-form one-form/inverse/rotation data for m = 2, 3, <= 1e-9
 6. symmetry algebra m = 2..5, residuals <= 1e-10, bracket table exact
 7. flatness/Saito-axiom equivalence on >= 10 flat and >= 10 non-flat inputs
 8. deformation-chart pipeline for n <= 3 at K = 3, <= 120 s
 9. initial-condition extension grid (n = 1, 2, >= 12 valid cases)
10. randomized jet-kernel property suite (>= 1000 cases), <= 10 s
"""

import itertools
import math
import time

import numpy as np

from regfman.fman import (
    BracketConstants,
    canonical_frame,
    check_fmanifold,
    check_frame_brackets,
    check_symmetry,
    check_symmetry_brackets,
    eigenfunction,
    mult_by_euler,
    standard_block,
    standard_model,
    symmetry_basis,
)
from regfman.frob import (
    InvariantMetric,
    epsilon_metric,
    frobenius_verdict,
    invert_oneform,
    psi_from_metric,
    gamma_operator,
    darboux_egoroff_matrix,
    structure_brackets,
    RotationOperator,
    epsilon_gram,
)
from regfman.jets import JetArray, JetMatrix, Substitution, jet_space

from loop_oracles import JetVector, lie_bracket, psi_epsilon_norm, to_matrix
from regfman.malgrange import (
    DeformationSpec,
    InitialData,
    canonical_connection,
    check_integrality,
    check_universality_isomorphism,
    fmanifold_on_chart,
    initial_condition_extend,
    integrate_chart,
    validate_initial_data,
)
from regfman.regend import JordanSpectrum, jordan_block, jordan_spectrum
from regfman.saito import (
    BirkhoffConnection,
    birkhoff_flatness,
    birkhoff_to_saito,
    check_saito_axioms,
)

EIGENVALUES = [0.0, 1.0, 2.0 + 1.0j]


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def all_spectra(max_dim=4, max_block=3):
    def partitions(n, max_part):
        if n == 0:
            yield ()
            return
        for p in range(min(n, max_part), 0, -1):
            for rest in partitions(n - p, p):
                yield (p,) + rest

    seen = []
    for n in range(1, max_dim + 1):
        for part in partitions(n, max_block):
            if len(part) > len(EIGENVALUES):
                continue
            for eigs in itertools.permutations(EIGENVALUES, len(part)):
                try:
                    spec = JordanSpectrum(tuple(zip(eigs, part)))
                except Exception:
                    continue
                if spec.blocks not in seen:
                    seen.append(spec.blocks)
    return seen


def test_criterion_1_standard_model_axioms():
    start = time.time()
    spectra = all_spectra()
    worst = 0.0
    for blocks in spectra:
        rep = check_fmanifold(standard_model(blocks, order=4))
        worst = max(worst, rep.max_value())
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed <= 10.0
    _report(
        "criterion-1 standard-model axiom suite",
        ok,
        f"{len(spectra)} spectra, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_canonical_frame_identities():
    worst = 0.0
    for m in (2, 3, 4):
        model = standard_block(0.5 - 0.25j, m, order=4)
        rep = check_frame_brackets(model)
        worst = max(worst, rep.max_value())
    # hand-derived bracket on the nilpotent 2-block: [X_1, X_2] = 2a X_1 - a^2 X_0
    model = standard_block(0.0, 2, order=4)
    fr = canonical_frame(model)
    x2 = model.multiply(model.euler, fr[1])
    br = lie_bracket(fr[1], x2)
    a = eigenfunction(mult_by_euler(model))[()]
    rhs = JetVector(fr[1]).scale(a.scale(2.0)) - JetVector(fr[0]).scale(a * a)
    hand = (br - rhs).residual_norm()
    sp = model.space
    direct = max(
        (br[0] - sp.variable(0) * sp.variable(0)).residual_norm(),
        (br[1] - sp.variable(0).scale(2.0) * (sp.variable(1) + 1.0)).residual_norm(),
    )
    ok = worst <= 1e-9 and hand <= 1e-13 and direct <= 1e-13
    _report(
        "criterion-2 canonical-frame identities",
        ok,
        f"worst identity residual {worst:.2e}, hand bracket {max(hand, direct):.2e}",
    )


def test_criterion_3_bracket_constants():
    exact = True
    for n in (1, 2, 3, 4, 5):
        c = BracketConstants.build(n)
        for k in range(n):
            if c.value(k, 0) != (-1.0) ** (n - k) * math.comb(n, k):
                exact = False
    c2 = BracketConstants.build(2)
    exact = exact and c2.row(1) == (2.0, -3.0)
    worst = 0.0
    for a in (0.0, 1.0, 2.0 + 1.0j):
        model = standard_block(a, 2, order=4)
        u = to_matrix(mult_by_euler(model))
        af = eigenfunction(mult_by_euler(model))[()]
        ident = u.power(3) - u.scale(af * af).scale(3.0) + JetMatrix.identity(
            model.space, 2
        ).scale(af * af * af).scale(2.0)
        worst = max(worst, ident.residual_norm())
    ok = exact and worst <= 1e-10
    _report(
        "criterion-3 bracket constants",
        ok,
        f"row-0 binomials exact={exact}, cubic identity residual {worst:.2e}",
    )


def _binom_jet(space, var, exponent, order):
    t = space.variable(var)
    acc = space.constant(1.0)
    term = space.constant(1.0)
    for k in range(1, order + 1):
        term = term * t.scale((exponent - (k - 1)) / k)
        acc = acc + term
    return acc


def _metric_suite():
    """(label, metric, model) triples: positives and negatives, m = 2 and 3."""
    out = []
    m2 = standard_block(0.0, 2, order=4)
    sp2 = m2.space
    t0, t1 = sp2.variable(0), sp2.variable(1)
    one2 = sp2.constant(1.0)

    def im2(e0, e1):
        return InvariantMetric([2], [[e0, e1]])

    out.append(("m2 epsilon", epsilon_metric(m2), m2))
    out.append(("m2 family fdot=1+t", im2(sp2.zero(), one2 + t1), m2))
    out.append(("m2 family fdot=(1+t)^2", im2(sp2.zero(), (one2 + t1) * (one2 + t1)), m2))
    out.append(("m2 family fdot=1/(1+t)", im2(sp2.zero(), (one2 + t1).invert()), m2))
    out.append(("m2 family fdot=(1+t)^0.5", im2(sp2.zero(), _binom_jet(sp2, 1, 0.5, 4)), m2))
    out.append(("m2 const eta0 + family", im2(sp2.constant(0.4), one2 + t1.scale(0.7)), m2))
    out.append(("m2 const metric", im2(sp2.constant(0.2), sp2.constant(1.5)), m2))
    out.append(("m2 neg eta0=t1", im2(t1, one2), m2))
    out.append(("m2 neg eta0=t1 curved", im2(t1, one2 + t1), m2))
    out.append(("m2 neg t0-dependent", im2(sp2.zero(), one2 + t0), m2))
    out.append(("m2 neg mixed", im2(sp2.zero(), one2 + t1 + t0 * t1), m2))
    out.append(("m2 neg eta0 quadratic", im2(t1 * t1, one2), m2))
    out.append(("m2 neg eta0=t0", im2(t0, one2 + t1), m2))

    m3 = standard_block(0.0, 3, order=4)
    sp3 = m3.space
    u1, u2 = sp3.variable(1), sp3.variable(2)
    one3 = sp3.constant(1.0)

    def im3(e0, e1, e2):
        return InvariantMetric([3], [[e0, e1, e2]])

    out.append(("m3 epsilon", epsilon_metric(m3), m3))
    out.append(("m3 const metric", im3(sp3.constant(0.5), sp3.constant(-0.2), one3), m3))
    out.append(
        (
            "m3 inverse-square family",
            im3(sp3.zero(), sp3.zero(), ((one3 + u2) * (one3 + u2)).invert()),
            m3,
        )
    )
    out.append(("m3 neg square", im3(sp3.zero(), sp3.zero(), (one3 + u2) * (one3 + u2)), m3))
    out.append(("m3 neg linear top", im3(sp3.zero(), sp3.zero(), one3 + u2), m3))
    out.append(("m3 neg cube", im3(sp3.zero(), sp3.zero(), (one3 + u2) ** 3), m3))
    out.append(("m3 neg eta1", im3(sp3.zero(), u2, one3), m3))
    out.append(("m3 neg eta0", im3(u1, sp3.zero(), one3), m3))
    out.append(("m3 neg t1 top", im3(sp3.zero(), sp3.zero(), one3 + u1), m3))
    return out


def test_criterion_4_verdict_vs_curvature_oracle():
    start = time.time()
    suite = _metric_suite()
    assert len(suite) >= 20
    mismatches = []
    positives = 0
    for label, metric, model in suite:
        verdict = frobenius_verdict(metric, model, run_oracle=True)
        oracle_ok = (
            verdict.oracle.curvature.value <= 1e-8
            and verdict.oracle.unit_parallel.value <= 1e-8
        )
        if verdict.passed:
            positives += 1
        if verdict.passed != oracle_ok:
            mismatches.append(label)
    elapsed = time.time() - start
    ok = not mismatches and elapsed <= 60.0 and positives >= 5
    _report(
        "criterion-4 verdict vs curvature oracle",
        ok,
        f"{len(suite)} metrics ({positives} Frobenius), mismatches {mismatches}, {elapsed:.1f}s",
    )


def test_criterion_5_psi_beta_gamma_closed_forms():
    worst = 0.0
    # m = 2
    sp = jet_space(2, 4)
    t0, t1 = sp.variable(0), sp.variable(1)
    eta0 = sp.constant(0.4) + t0.scale(0.3) + t1.scale(-0.2)
    eta1 = sp.constant(1.0) + t1.scale(0.5) + t0.scale(0.25)
    metric = InvariantMetric([2], [[eta0, eta1]])
    psi = psi_from_metric(metric)
    beta = invert_oneform(psi)
    root = eta1.sqrt(1.0)
    rinv = root.invert()
    worst = max(worst, (psi.families()[0][1] - root).residual_norm())
    worst = max(worst, (psi.families()[0][0] - eta0.scale(0.5) * rinv).residual_norm())
    worst = max(
        worst, (beta.families()[0][0] + eta0.scale(0.5) * rinv * rinv * rinv).residual_norm()
    )
    worst = max(worst, (beta.families()[0][1] - rinv).residual_norm())
    worst = max(worst, (psi_epsilon_norm(psi) - eta0).residual_norm())
    model2 = standard_block(0.0, 2, order=4)
    gamma2 = gamma_operator(psi, beta, model2)
    for i in range(2):
        p = psi.families()[0]
        b = beta.families()[0]
        worst = max(worst, (gamma2.matrix[0, i] - b[1] * p[i].partial(1)).residual_norm())
        worst = max(
            worst,
            (gamma2.matrix[1, i] - (b[0] * p[i].partial(1) + b[1] * p[i].partial(0))).residual_norm(),
        )
    # m = 3 (flat-unit family for the rotation-operator display)
    sp3 = jet_space(3, 4)
    u1, u2 = sp3.variable(1), sp3.variable(2)
    e0 = sp3.constant(0.3) + u1.scale(0.4) + u2.scale(-0.1)
    e1 = sp3.constant(-0.2) + u2.scale(0.7) + u1 * u2.scale(0.2)
    e2 = sp3.constant(1.0) + u1.scale(0.6) + u2 * u2.scale(-0.4)
    metric3 = InvariantMetric([3], [[e0, e1, e2]])
    psi3 = psi_from_metric(metric3)
    beta3 = invert_oneform(psi3)
    r = e2.sqrt(1.0)
    ri = r.invert()
    ri3 = ri * ri * ri
    ri5 = ri3 * ri * ri
    worst = max(worst, (psi3.families()[0][2] - r).residual_norm())
    worst = max(worst, (psi3.families()[0][1] - e1.scale(0.5) * ri).residual_norm())
    worst = max(
        worst,
        (
            psi3.families()[0][0]
            - (e0.scale(0.5) * ri - (e1 * e1).scale(1.0 / 8.0) * ri3)
        ).residual_norm(),
    )
    worst = max(
        worst,
        (
            beta3.families()[0][0]
            - (-e0.scale(0.5) * ri3 + (e1 * e1).scale(3.0 / 8.0) * ri5)
        ).residual_norm(),
    )
    worst = max(worst, (beta3.families()[0][1] + e1.scale(0.5) * ri3).residual_norm())
    worst = max(worst, (beta3.families()[0][2] - ri).residual_norm())
    worst = max(worst, (psi_epsilon_norm(psi3) - e0).residual_norm())
    model3 = standard_block(0.0, 3, order=4)
    gamma3 = gamma_operator(psi3, beta3, model3)
    p3, b3 = psi3.families()[0], beta3.families()[0]
    for i in range(3):
        d1, d2 = p3[i].partial(1), p3[i].partial(2)
        worst = max(worst, (gamma3.matrix[0, i] - d2 * b3[2]).residual_norm())
        worst = max(worst, (gamma3.matrix[1, i] - (d2 * b3[1] + d1 * b3[2])).residual_norm())
        worst = max(worst, (gamma3.matrix[2, i] - (b3[0] * d2 + b3[1] * d1)).residual_norm())
    # the three component equations of the pair (1, 2) for symmetric gamma
    rng = np.random.default_rng(5)

    def rand_flat_jet():
        c = np.zeros(sp3.size, dtype=np.complex128)
        for idx, e in enumerate(sp3.exponents):
            if e[0] == 0:
                c[idx] = rng.standard_normal() + 1j * rng.standard_normal()
        return sp3.from_coeffs(c)

    g00, g01, g10 = rand_flat_jet(), rand_flat_jet(), rand_flat_jet()
    g02, g11, g20 = rand_flat_jet(), rand_flat_jet(), rand_flat_jet()
    gam = RotationOperator(
        JetArray.from_jets([[g00, g01, g02], [g10, g11, g01], [g20, g10, g00]]),
        epsilon_gram([3]),
    )
    de = darboux_egoroff_matrix(structure_brackets(gam, model3), 1, 2)
    eq_a = (g11 - g00).partial(2) - g01.partial(1) - g01 * g01 + (g11 - g00) * g02
    eq_b = g01.partial(2) - g02.partial(1) + g02 * g01
    eq_c = g02.partial(2) - g02 * g02
    scale = max(1.0, de.residual_norm())
    worst = max(worst, (de[2, 1] - eq_a).residual_norm() / scale)
    worst = max(worst, (de[2, 2] - eq_b).residual_norm() / scale)
    worst = max(worst, (de[1, 2] - eq_c).residual_norm() / scale)
    ok = worst <= 1e-9
    _report(
        "criterion-5 one-form/inverse/rotation closed forms",
        ok,
        f"worst coefficient residual {worst:.2e}",
    )


def test_criterion_6_symmetry_algebra():
    worst = 0.0
    bracket_worst = 0.0
    for m in (2, 3, 4, 5):
        model = standard_block(0.25 + 0.1j, m, order=4)
        for y in symmetry_basis(m, 4):
            worst = max(worst, check_symmetry(model, y).max_value())
        bracket_worst = max(bracket_worst, check_symmetry_brackets(m, 4).max_value())
    ok = worst <= 1e-10 and bracket_worst <= 1e-12
    _report(
        "criterion-6 symmetry algebra",
        ok,
        f"symmetry residual {worst:.2e}, bracket table {bracket_worst:.2e}",
    )


def _restrict_connection(conn, keep, order):
    """Set the chart variables past ``keep`` to zero: flat restrictions."""
    target = jet_space(keep, order)
    subs = [target.variable(v) for v in range(keep)] + [
        target.zero() for _ in range(conn.space.num_vars - keep)
    ]

    def restrict(mat):
        return Substitution(conn.space, JetArray.from_jets(subs))(mat)

    return BirkhoffConnection(restrict(conn.b0), conn.binf, restrict(conn.c[:keep]))


def _flat_connections(order=3):
    out = []
    rng = np.random.default_rng(7)
    specs = [
        (np.array([[0.3]]), np.array([[0.0]])),
        (np.diag([0.0, 1.0]), np.array([[0.0, 0.4], [0.0, 0.0]])),
        (jordan_block(0.0, 2), np.array([[0.2, 0.0], [0.1, -0.2]])),
        (jordan_block(1.0, 3), rng.standard_normal((3, 3)) * 0.2),
        (np.diag([0.0, 1.0, 2.0]), rng.standard_normal((3, 3)) * 0.2),
    ]
    for b0o, binf in specs:
        chart = integrate_chart(DeformationSpec(b0o, binf), order)
        conn = canonical_connection(chart)
        keep = min(2, conn.base_dim)
        out.append(_restrict_connection(conn, keep, order))
    # rank-1 potential family over a 2-dimensional base
    sp = jet_space(2, order)
    x0, x1 = sp.variable(0), sp.variable(1)
    for coef in (0.5, -0.3):
        pot = x0 + x0 * x1.scale(coef) + x1 * x1.scale(0.25)
        out.append(
            BirkhoffConnection(
                JetArray.from_jets(JetMatrix([[1.0 - pot]])),
                np.array([[0.4]]),
                JetArray.from_jets([JetMatrix([[pot.partial(0)]]), JetMatrix([[pot.partial(1)]])]),
            )
        )
    # rank-2 slope family over a 1-dimensional base
    for d in (0.5, -0.75, 0.25):
        n_mat = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        binf = np.diag([d, -d]).astype(complex)
        slope = (binf @ n_mat - n_mat @ binf) - n_mat
        sp1 = jet_space(1, order)
        b0 = JetMatrix.from_constant(sp1, np.array([[1.0, 0.0], [0.3, 1.0]])) + (
            JetMatrix.from_constant(sp1, slope).scale(sp1.variable(0))
        )
        out.append(BirkhoffConnection(JetArray.from_jets(b0), binf, JetArray.from_jets([JetMatrix.from_constant(sp1, n_mat)])))
    return out


def _perturbed(conn, rng):
    """A perturbation verified to break flatness (constant shifts can keep
    rank-1 connections flat, so retry until a flatness group is violated)."""
    sp = conn.space
    for _ in range(20):
        which = rng.integers(0, 3)
        noise = rng.standard_normal((conn.rank, conn.rank)) * 0.1
        if which == 0:
            cand = BirkhoffConnection(
                conn.b0 + JetArray.from_jets(JetMatrix.from_constant(sp, noise).scale(sp.variable(0))),
                conn.binf,
                conn.c,
            )
        elif which == 1:
            cand = BirkhoffConnection(conn.b0, conn.binf + noise, conn.c)
        else:
            cs = list(conn.c)
            cs[0] = cs[0] + JetArray.constant(sp, noise)
            cand = BirkhoffConnection(conn.b0, conn.binf, JetArray.stack(cs))
        if birkhoff_flatness(cand).max_value() > 1e-6:
            return cand
    raise AssertionError("could not construct a non-flat perturbation")


def test_criterion_7_saito_birkhoff_equivalence():
    rng = np.random.default_rng(21)
    flats = _flat_connections()
    assert len(flats) >= 10
    non_flats = [_perturbed(c, rng) for c in flats] + [
        _perturbed(flats[0], rng),
        _perturbed(flats[-1], rng),
    ]
    flat_count = 0
    nonflat_count = 0
    mismatches = 0
    for conn in flats + non_flats:
        flat = birkhoff_flatness(conn).max_value() <= 1e-8
        saito = check_saito_axioms(birkhoff_to_saito(conn)).max_value() <= 1e-8
        if flat != saito:
            mismatches += 1
        if flat:
            flat_count += 1
        else:
            nonflat_count += 1
    ok = mismatches == 0 and flat_count >= 10 and nonflat_count >= 10
    _report(
        "criterion-7 flatness/Saito equivalence",
        ok,
        f"{flat_count} flat, {nonflat_count} non-flat, mismatches {mismatches}",
    )


def test_criterion_8_deformation_pipeline():
    start = time.time()
    rng = np.random.default_rng(3)
    specs = [
        (np.array([[1.5]]), np.array([[0.3]])),
        (jordan_block(0.0, 2), np.array([[0.0, 0.3], [0.0, 0.0]])),
        (np.diag([0.0, 1.0]), np.array([[0.1, 0.2], [-0.2, -0.1]])),
        (jordan_block(2.0 + 1.0j, 2), np.array([[0.1, 0.0], [0.2, -0.1]])),
        (jordan_block(1.0, 3), rng.standard_normal((3, 3)) * 0.15),
        (np.diag([0.0, 1.0, 2.0]), rng.standard_normal((3, 3)) * 0.15),
        (
            np.block(
                [[jordan_block(0.0, 2), np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]
            ),
            rng.standard_normal((3, 3)) * 0.15,
        ),
    ]
    worst = {"integrality": 0.0, "flatness": 0.0, "axioms": 0.0, "iso": 0.0}
    spectra_ok = True
    for b0o, binf in specs:
        chart = integrate_chart(DeformationSpec(b0o, binf), order=3)
        worst["integrality"] = max(worst["integrality"], check_integrality(chart).max_value())
        worst["flatness"] = max(
            worst["flatness"], birkhoff_flatness(canonical_connection(chart)).max_value()
        )
        model = fmanifold_on_chart(chart)
        worst["axioms"] = max(worst["axioms"], check_fmanifold(model).max_value())
        spec_model = jordan_spectrum(mult_by_euler(model).constant_term())
        spectra_ok = spectra_ok and spec_model.matches(jordan_spectrum(-b0o))
        iso_rep = check_universality_isomorphism(chart, model).report
        worst["iso"] = max(worst["iso"], iso_rep.max_value())
    elapsed = time.time() - start
    ok = (
        worst["integrality"] <= 1e-8
        and worst["flatness"] <= 1e-8
        and worst["axioms"] <= 1e-8
        and worst["iso"] <= 1e-7
        and spectra_ok
        and elapsed <= 120.0
    )
    _report(
        "criterion-8 deformation pipeline",
        ok,
        f"{len(specs)} seeds, integrality {worst['integrality']:.1e}, "
        f"flat {worst['flatness']:.1e}, axioms {worst['axioms']:.1e}, "
        f"iso {worst['iso']:.1e}, spectra {spectra_ok}, {elapsed:.1f}s",
    )


def _initial_grid():
    cases = []
    # n = 1: weight 2 is the only admissible weight (skewness forces it)
    for c in (1.0, 2.5, 1.0 + 0.3j):
        model = standard_block(1.0, 1, order=3)
        cases.append(
            InitialData(model, np.array([[c]]), np.array([[0.0]]), 2.0)
        )
    # n = 2 nilpotent blocks
    for a in (0.0, 1.0):
        for weight in (2.0, 3.0, 2.5):
            model = standard_block(a, 2, order=3)
            h1 = 1.0
            h0 = 0.4 if weight == 2.0 else 0.0
            h2 = 2.0 * a * h1 - a * a * h0
            gram = np.array([[h0, h1], [h1, h2]], dtype=complex)
            y = weight / 2.0 - 1.0
            x = 0.0 if weight == 2.0 else -y * 2.0 * a
            skew = np.array([[1.0 - weight / 2.0, x], [0.0, y]], dtype=complex)
            cases.append(InitialData(model, gram, skew, weight))
    # n = 2 semisimple
    for (a1, a2) in ((0.0, 1.0), (1.0, 2.0 + 1.0j)):
        model = standard_model([(a1, 1), (a2, 1)], order=3)
        for weight in (2.0, 3.0):
            if weight == 2.0:
                eta = np.array([0.7, -0.3])
                avals = np.array([a1, a2])
                gram = np.array(
                    [
                        [eta.sum(), (avals * eta).sum()],
                        [(avals * eta).sum(), (avals * avals * eta).sum()],
                    ],
                    dtype=complex,
                )
                skew = np.zeros((2, 2), dtype=complex)
            else:
                h1 = 0.8
                gram = np.array([[0.0, h1], [h1, (a1 + a2) * h1]], dtype=complex)
                y = weight / 2.0 - 1.0
                skew = np.array(
                    [[1.0 - weight / 2.0, -y * (a1 + a2)], [0.0, y]], dtype=complex
                )
            cases.append(InitialData(model, gram, skew, weight))
    return cases


def test_criterion_9_initial_condition_grid():
    cases = _initial_grid()
    assert len(cases) >= 12
    worst_origin = 0.0
    worst_euler = 0.0
    all_pass = True
    for data in cases:
        assert validate_initial_data(data).passed(1e-8)
        res = initial_condition_extend(data, tolerance=1e-8)
        worst_origin = max(worst_origin, res.report["origin_match"].value)
        worst_euler = max(worst_euler, res.report["euler_derivative_origin"].value)
        all_pass = all_pass and res.verdict.passed
    ok = all_pass and worst_origin <= 1e-9 and worst_euler <= 1e-7
    _report(
        "criterion-9 initial-condition extension",
        ok,
        f"{len(cases)} cases, origin {worst_origin:.1e}, "
        f"euler law {worst_euler:.1e}, verdicts {all_pass}",
    )


def test_criterion_10_jet_kernel_properties():
    start = time.time()
    rng = np.random.default_rng(2718)
    cases = 0
    worst = 0.0

    def rand_jet(sp, nonzero_const=False):
        c = rng.standard_normal(sp.size) * 0.5 + 1j * rng.standard_normal(sp.size) * 0.5
        if nonzero_const and abs(c[0]) < 0.5:
            c[0] = 0.5 + 0.5j
        return sp.from_coeffs(c)

    def rel(j, scale):
        return j.residual_norm() / max(1.0, scale)

    for trial in range(175):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        sp = jet_space(m, k)
        a, b, c = rand_jet(sp), rand_jet(sp), rand_jet(sp)
        scale = max(a.residual_norm(), b.residual_norm(), c.residual_norm(), 1.0) ** 3
        worst = max(worst, rel((a * b) * c - a * (b * c), scale))
        worst = max(worst, rel(a * b - b * a, scale))
        worst = max(worst, rel(a * (b + c) - (a * b + a * c), scale))
        cases += 3
        v = int(rng.integers(0, m))
        worst = max(
            worst, rel((a * b).partial(v) - (a * b.partial(v) + b * a.partial(v)), scale)
        )
        cases += 1
        d = rand_jet(sp, nonzero_const=True)
        worst = max(worst, rel(d * d.invert() - 1.0, max(1.0, d.residual_norm() ** 4)))
        s = d.sqrt()
        worst = max(worst, rel(s * s - d, max(1.0, d.residual_norm() ** 2)))
        cases += 2
        if m <= 2:
            subs = []
            for _ in range(m):
                sj = rand_jet(jet_space(2, k))
                arr = sj.coeffs.copy()
                arr[0] = 0.0
                subs.append(sj.space.from_coeffs(arr))
            lhs = (a * b).compose(subs)
            rhs = a.compose(subs) * b.compose(subs)
            cscale = max(1.0, max(x.residual_norm() for x in subs)) ** (2 * k)
            cscale *= max(1.0, a.residual_norm()) * max(1.0, b.residual_norm())
            worst = max(worst, rel(lhs - rhs, cscale))
            cases += 1
    elapsed = time.time() - start
    ok = cases >= 1000 and worst <= 1e-10 and elapsed <= 10.0
    _report(
        "criterion-10 jet kernel properties",
        ok,
        f"{cases} cases, worst relative residual {worst:.2e}, {elapsed:.1f}s",
    )
