"""Frobenius-metric chain tests: closed-form one-form/rotation-operator
expressions for small blocks, Darboux-Egoroff structure, unit/Euler laws and
the curvature oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import loop_oracles
from regfman import frob
from regfman.errors import DegenerateMetricError, ScopeError, ShapeError
from regfman.fman import standard_block, standard_model
from regfman.frob import (
    InvariantMetric,
    RotationOperator,
    check_euler_rescaling,
    check_gamma,
    check_unit_flat,
    covector_product,
    darboux_egoroff_matrix,
    darboux_egoroff_residual,
    epsilon_gram,
    epsilon_metric,
    frobenius_verdict,
    gamma_operator,
    invert_oneform,
    levi_civita_curvature,
    metric_from_potential,
    metric_from_psi,
    psi_from_metric,
    structure_brackets,
    unit_covector,
)
from regfman.jets import JetArray, jet_space

from loop_oracles import (
    LoopMatrix,
    commutator,
    gamma_annihilates_dual,
    gamma_single_block,
    loop_jets,
    psi_epsilon_norm,
    to_array,
    to_matrix,
)


def binom_jet(space, var, exponent, order):
    """(1 + t_var)^exponent as a jet (binomial series)."""
    t = space.variable(var)
    acc = space.constant(1.0)
    term = space.constant(1.0)
    for k in range(1, order + 1):
        term = term * t.scale((exponent - (k - 1)) / k)
        acc = acc + term
    return acc


def invariance_residual(metric, model):
    g = metric.gram()
    worst = 0.0
    for a in range(model.dim):
        for b in range(model.dim):
            for c in range(model.dim):
                lhs = model.space.zero()
                ab = model.structure[a][b]
                for k in range(model.dim):
                    lhs = lhs + ab[k] * g[k, c]
                rhs = model.space.zero()
                bc = model.structure[b][c]
                for k in range(model.dim):
                    rhs = rhs + bc[k] * g[a, k]
                worst = max(worst, (lhs - rhs).residual_norm())
    return worst


class TestEpsilonMetric:
    def test_m2_gram(self):
        eps = epsilon_metric([2], order=3)
        g0 = eps.gram().constant_term()
        assert g0 == pytest.approx(np.array([[0, 1], [1, 0]]))

    def test_m1(self):
        eps = epsilon_metric([1], order=3)
        assert eps.gram().constant_term() == pytest.approx(np.array([[1.0]]))

    def test_multiplication_invariant(self):
        model = standard_block(0.4, 3)
        assert invariance_residual(epsilon_metric(model), model) == 0.0

    def test_product_blocks_invariant(self):
        model = standard_model([(0.0, 2), (1.0, 1)])
        assert invariance_residual(epsilon_metric(model), model) == 0.0


class TestPotential:
    def test_degenerate_warns(self):
        model = standard_block(0.0, 2)
        sp = model.space
        h = sp.variable(0) * sp.variable(1)
        with pytest.warns(UserWarning):
            m = metric_from_potential(JetArray.from_jets(h), model)
        assert not m.nondegenerate_at_origin()

    def test_partials(self):
        model = standard_block(0.0, 2)
        sp = model.space
        h = sp.variable(0) * sp.variable(1) + sp.variable(0)
        with pytest.warns(UserWarning):  # eta_1(0) = 0: degenerate at the origin
            m = metric_from_potential(JetArray.from_jets(h), model)
        assert (m.eta[0][0] - (sp.variable(1) + sp.constant(1.0))).residual_norm() < 1e-15
        assert (m.eta[0][1] - sp.variable(0)).residual_norm() < 1e-15

    def test_m1(self):
        model = standard_block(0.0, 1)
        m = metric_from_potential(JetArray.from_jets(model.space.variable(0)), model)
        assert (m.eta[0][0] - model.space.constant(1.0)).residual_norm() < 1e-15


class TestUnitEulerConditions:
    def test_potential_metrics_closed(self):
        model = standard_block(0.0, 2)
        sp = model.space
        h = sp.variable(1) + sp.variable(1) * sp.variable(1) + sp.variable(0) * sp.variable(1)
        m = metric_from_potential(JetArray.from_jets(h), model)
        assert check_unit_flat(m)["coidentity_closed"].value < 1e-14

    def test_closedness_defect(self):
        sp = jet_space(2, 4)
        m = InvariantMetric([2], [[sp.variable(1), sp.constant(1.0)]])
        assert check_unit_flat(m)["coidentity_closed"].value == pytest.approx(1.0)

    def test_unit_flat_family(self):
        sp = jet_space(2, 4)
        # eta = (c, f(t1)) with constant c
        f = sp.constant(1.0) + sp.variable(1)
        m = InvariantMetric([2], [[sp.constant(0.7), f]])
        rep = check_unit_flat(m)
        assert rep.max_value() < 1e-14

    def test_unit_flat_defect(self):
        sp = jet_space(2, 4)
        m = InvariantMetric([2], [[sp.variable(0), sp.constant(1.0)]])
        assert check_unit_flat(m)["unit_derivative"].value == pytest.approx(1.0)

    def test_unit_and_euler_checks_differentiate_the_metric_once_each(self, monkeypatch):
        model = standard_model([(0.0, 2), (1.5, 1)], 4)
        sp = model.space
        metric = InvariantMetric([2, 1], [[sp.constant(0.3), sp.constant(1.0) + sp.variable(1)], [sp.constant(2.0)]])
        calls = []
        grad = JetArray.grad

        def counting_grad(self):
            calls.append(self is metric.values)
            return grad(self)

        monkeypatch.setattr(JetArray, "grad", counting_grad)
        check_unit_flat(metric)
        assert calls.count(True) == 1
        calls.clear()
        check_euler_rescaling(metric, model.euler)
        assert calls.count(True) == 1
        calls.clear()
        # the verdict runs both checks on one gradient, and nothing else
        # differentiates the metric, the oracle included
        frobenius_verdict(metric, model, run_oracle=False)
        assert calls.count(True) == 1
        calls.clear()
        frobenius_verdict(metric, model, run_oracle=True)
        assert calls.count(True) == 1

    def test_euler_weight_2(self):
        model = standard_block(0.3, 2)
        sp = model.space
        m = InvariantMetric([2], [[sp.zero(), sp.constant(1.0)]])
        _, rep = check_euler_rescaling(m, model.euler, weight=2.0)
        assert rep.max_value() < 1e-14

    def test_euler_weight_3_fails_for_constant(self):
        model = standard_block(0.3, 2)
        sp = model.space
        m = InvariantMetric([2], [[sp.zero(), sp.constant(1.0)]])
        _, rep = check_euler_rescaling(m, model.euler, weight=3.0)
        assert rep.max_value() == pytest.approx(1.0)

    def test_scalar_rescaling_ode(self):
        # m=1, eta0 = (t+a)^(D-2): exact solution of E(eta) = (D-2) eta
        d_weight = 2.7
        a = 1.0
        model = standard_block(a, 1, order=5)
        sp = model.space
        eta = binom_jet(sp, 0, d_weight - 2.0, 5)  # (1+t)^(D-2), a = 1
        m = InvariantMetric([1], [[eta]])
        _, rep = check_euler_rescaling(m, model.euler, weight=d_weight)
        assert rep.max_value() < 1e-9

    def test_solve_mode_recovers_weight(self):
        model = standard_block(0.0, 2, order=4)
        sp = model.space
        eta1 = sp.constant(1.0) + sp.variable(1)  # weight 3 family
        m = InvariantMetric([2], [[sp.zero(), eta1]])
        w, rep = check_euler_rescaling(m, model.euler, weight=None)
        assert w == pytest.approx(3.0)
        assert rep.max_value() < 1e-12


def generic_metric_m2(sp):
    t0, t1 = sp.variable(0), sp.variable(1)
    eta0 = sp.constant(0.4) + t0.scale(0.3) + t1.scale(-0.2) + t0 * t1.scale(0.1)
    eta1 = sp.constant(1.0) + t1.scale(0.5) + t0.scale(0.25) + t1 * t1.scale(-0.3)
    return InvariantMetric([2], [[eta0, eta1]])


def generic_metric_m3(sp, t0_free=True):
    t0, t1, t2 = sp.variable(0), sp.variable(1), sp.variable(2)
    eta0 = sp.constant(0.3) + t1.scale(0.4) + t2.scale(-0.1)
    eta1 = sp.constant(-0.2) + t2.scale(0.7) + t1 * t2.scale(0.2)
    eta2 = sp.constant(1.0) + t1.scale(0.6) + t2 * t2.scale(-0.4)
    if t0_free:
        eta0 = eta0 + t0.scale(0.15)
        eta1 = eta1 + t0 * t1.scale(-0.05)
    return InvariantMetric([3], [[eta0, eta1, eta2]])


class TestPsiBetaClosedForms:
    def test_m2_psi(self):
        sp = jet_space(2, 4)
        m = generic_metric_m2(sp)
        eta0, eta1 = m.eta[0]
        psi = psi_from_metric(m)
        # closed forms: psi = (eta0 (eta1)^(-1/2) / 2, (eta1)^(1/2))
        root = eta1.sqrt()
        assert (psi.families()[0][1] - root).residual_norm() < 1e-12
        assert (psi.families()[0][0] - eta0.scale(0.5) * root.invert()).residual_norm() < 1e-12

    def test_m3_psi(self):
        sp = jet_space(3, 4)
        m = generic_metric_m3(sp)
        eta0, eta1, eta2 = m.eta[0]
        psi = psi_from_metric(m)
        r = eta2.sqrt()
        rinv = r.invert()
        rinv3 = rinv * rinv * rinv
        exp0 = eta0.scale(0.5) * rinv - (eta1 * eta1).scale(1.0 / 8.0) * rinv3
        exp1 = eta1.scale(0.5) * rinv
        assert (psi.families()[0][2] - r).residual_norm() < 1e-12
        assert (psi.families()[0][1] - exp1).residual_norm() < 1e-12
        assert (psi.families()[0][0] - exp0).residual_norm() < 1e-12

    def test_m3_beta(self):
        sp = jet_space(3, 4)
        m = generic_metric_m3(sp)
        eta0, eta1, eta2 = m.eta[0]
        beta = invert_oneform(psi_from_metric(m))
        r = eta2.sqrt()
        rinv = r.invert()
        rinv3 = rinv * rinv * rinv
        rinv5 = rinv3 * rinv * rinv
        exp0 = -eta0.scale(0.5) * rinv3 + (eta1 * eta1).scale(3.0 / 8.0) * rinv5
        exp1 = -eta1.scale(0.5) * rinv3
        assert (beta.families()[0][2] - rinv).residual_norm() < 1e-12
        assert (beta.families()[0][1] - exp1).residual_norm() < 1e-11
        assert (beta.families()[0][0] - exp0).residual_norm() < 1e-11

    def test_epsilon_has_unit_psi(self):
        m = epsilon_metric([3], order=4)
        psi = psi_from_metric(m)
        uc = unit_covector([3], m.space)
        for got, want in zip(psi.values, uc.values):
            assert (got - want).residual_norm() < 1e-14

    def test_psi_norm_identity(self):
        # epsilon(psi, psi) equals eta_0 for m = 2 and m = 3
        sp2 = jet_space(2, 4)
        m2 = generic_metric_m2(sp2)
        psi2 = psi_from_metric(m2)
        assert (psi_epsilon_norm(psi2) - loop_jets(m2.eta[0][0])).residual_norm() < 1e-12
        sp3 = jet_space(3, 4)
        m3 = generic_metric_m3(sp3)
        psi3 = psi_from_metric(m3)
        assert (psi_epsilon_norm(psi3) - loop_jets(m3.eta[0][0])).residual_norm() < 1e-12

    def test_metric_psi_roundtrip(self):
        sp = jet_space(3, 4)
        m = generic_metric_m3(sp)
        back = metric_from_psi(psi_from_metric(m))
        for got, want in zip(back.values, m.values):
            assert (got - want).residual_norm() < 1e-11

    def test_beta_is_inverse(self):
        sp = jet_space(3, 4)
        m = generic_metric_m3(sp)
        psi = psi_from_metric(m)
        beta = invert_oneform(psi)
        prod = covector_product(psi, beta)
        uc = unit_covector([3], sp)
        for got, want in zip(prod.values, uc.values):
            assert (got - want).residual_norm() < 1e-10

    def test_self_inverse_unit(self):
        m = epsilon_metric([2], order=3)
        psi = psi_from_metric(m)
        beta = invert_oneform(psi)
        for got, want in zip(beta.values, psi.values):
            assert (got - want).residual_norm() < 1e-14

    def test_degenerate_rejected(self):
        sp = jet_space(2, 3)
        m = InvariantMetric([2], [[sp.constant(1.0), sp.variable(1)]])
        with pytest.raises(DegenerateMetricError):
            psi_from_metric(m)


class TestGamma:
    def test_epsilon_gives_zero(self):
        model = standard_block(0.0, 3)
        m = epsilon_metric(model)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        assert gamma.matrix.residual_norm() < 1e-14

    def test_m2_closed_form(self):
        model = standard_block(0.0, 2)
        m = generic_metric_m2(model.space)
        psi = psi_from_metric(m)
        beta = invert_oneform(psi)
        gamma = gamma_operator(psi, beta, model)
        p = psi.families()[0]
        b = beta.families()[0]
        for i in range(2):
            exp_col0 = b[1] * p[i].partial(1)
            exp_col1 = b[0] * p[i].partial(1) + b[1] * p[i].partial(0)
            assert (gamma.matrix[0, i] - exp_col0).residual_norm() < 1e-11
            assert (gamma.matrix[1, i] - exp_col1).residual_norm() < 1e-11

    def test_m3_closed_form_flat_unit(self):
        model = standard_block(0.0, 3)
        m = generic_metric_m3(model.space, t0_free=False)
        psi = psi_from_metric(m)
        beta = invert_oneform(psi)
        gamma = gamma_operator(psi, beta, model)
        p = psi.families()[0]
        b = beta.families()[0]
        for i in range(3):
            d1, d2 = p[i].partial(1), p[i].partial(2)
            assert (gamma.matrix[0, i] - d2 * b[2]).residual_norm() < 1e-11
            assert (gamma.matrix[1, i] - (d2 * b[1] + d1 * b[2])).residual_norm() < 1e-11
            assert (gamma.matrix[2, i] - (b[0] * d2 + b[1] * d1)).residual_norm() < 1e-11

    @pytest.mark.parametrize("mdim", [2, 3])
    def test_general_equals_block_path(self, mdim):
        model = standard_block(0.0, mdim)
        sp = model.space
        m = generic_metric_m2(sp) if mdim == 2 else generic_metric_m3(sp)
        psi = psi_from_metric(m)
        beta = invert_oneform(psi)
        g_blk = RotationOperator(to_array(gamma_single_block(psi, beta).entries), epsilon_gram([mdim]))
        g_gen = gamma_operator(psi, beta, model)
        assert (g_blk.matrix - g_gen.matrix).residual_norm() < 1e-11

    def test_gamma_annihilates_dual_when_norm_constant(self):
        # flat-unit family: eta0 constant => epsilon(psi,psi) constant
        sp = jet_space(2, 4)
        f = sp.constant(1.0) + sp.variable(1) + sp.variable(1) * sp.variable(1).scale(0.5)
        m = InvariantMetric([2], [[sp.constant(0.3), f]])
        model = standard_block(0.0, 2)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        assert gamma_annihilates_dual(gamma, psi) < 1e-10

    def test_check_gamma_nonconstant_norm_detected(self):
        sp = jet_space(2, 4)
        m = InvariantMetric([2], [[sp.variable(1), sp.constant(1.0)]])
        model = standard_block(0.0, 2)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        rep = check_gamma(gamma, psi, structure_brackets(gamma, model))
        assert rep["psi_norm_constant"].value == pytest.approx(1.0)

    def test_lemma_general_consequence(self):
        # symmetric gamma with constant norm implies the derivative law
        sp = jet_space(2, 4)
        f = sp.constant(1.0) + sp.variable(1).scale(0.8)
        m = InvariantMetric([2], [[sp.constant(0.2), f]])
        model = standard_block(0.0, 2)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        rep = check_gamma(gamma, psi, structure_brackets(gamma, model))
        assert rep["epsilon_symmetry"].value < 1e-10
        assert rep["psi_norm_constant"].value < 1e-10
        assert rep["necesitate"].value < 1e-9


class TestDarbouxEgoroff:
    def test_m2_reduces_to_single_bracket(self):
        model = standard_block(0.0, 2)
        m = generic_metric_m2(model.space)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        de = darboux_egoroff_matrix(structure_brackets(gamma, model), 0, 1)
        sp = model.space
        c1 = LoopMatrix.from_constant(sp, model.mult_matrices()[1])
        direct = commutator(c1, to_matrix(gamma.matrix.partial(0)))
        assert (to_matrix(de) + direct).residual_norm() < 1e-12

    def test_m2_flat_unit_automatic(self):
        sp = jet_space(2, 4)
        f = sp.constant(1.0) + sp.variable(1).scale(0.8) + sp.variable(1) * sp.variable(1)
        m = InvariantMetric([2], [[sp.constant(0.1), f]])
        model = standard_block(0.0, 2)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        rep = darboux_egoroff_residual(structure_brackets(gamma, model))
        assert rep.max_value() < 1e-11

    def test_m3_component_equations(self):
        # arbitrary epsilon-symmetric, t0-independent gamma: the (1,2) pair
        # matrix carries exactly the three component equations
        rng = np.random.default_rng(5)
        model = standard_block(0.0, 3, order=4)
        sp = model.space

        def rand_jet():
            c = np.zeros(sp.size, dtype=np.complex128)
            for idx, e in enumerate(sp.exponents):
                if e[0] == 0:
                    c[idx] = rng.standard_normal() + 1j * rng.standard_normal()
            return sp.from_coeffs(c)

        g00, g01, g10 = rand_jet(), rand_jet(), rand_jet()
        g02, g11, g20 = rand_jet(), rand_jet(), rand_jet()
        gamma = RotationOperator(
            JetArray.from_jets(
                [[g00, g01, g02], [g10, g11, g01], [g20, g10, g00]]
            ),
            epsilon_gram([3]),
        )
        de = darboux_egoroff_matrix(structure_brackets(gamma, model), 1, 2)
        # quadratic signs fixed by the curvature oracle and the classical
        # orthogonal-coordinate system (see test_square_family_signs)
        eq_a = (g11 - g00).partial(2) - g01.partial(1) - g01 * g01 + (g11 - g00) * g02
        eq_b = g01.partial(2) - g02.partial(1) + g02 * g01
        eq_c = g02.partial(2) - g02 * g02
        assert (de[2, 1] - eq_a).residual_norm() < 1e-10
        assert (de[2, 2] - eq_b).residual_norm() < 1e-10
        assert (de[1, 2] - eq_c).residual_norm() < 1e-10
        # skew structure: anti-diagonal zero, opposite corners negated
        assert de[0, 2].residual_norm() < 1e-12
        assert de[1, 1].residual_norm() < 1e-12
        assert de[2, 0].residual_norm() < 1e-12
        assert (de[0, 0] + eq_b).residual_norm() < 1e-10
        assert (de[0, 1] + eq_c).residual_norm() < 1e-10
        assert (de[1, 0] + eq_a).residual_norm() < 1e-10

    def test_antisymmetry_and_diagonal(self):
        model = standard_block(0.0, 3)
        m = generic_metric_m3(model.space)
        psi = psi_from_metric(m)
        gamma = gamma_operator(psi, invert_oneform(psi), model)
        m01 = darboux_egoroff_matrix(structure_brackets(gamma, model), 0, 1)
        m10 = darboux_egoroff_matrix(structure_brackets(gamma, model), 1, 0)
        assert (m01 + m10).residual_norm() < 1e-12
        rep = darboux_egoroff_residual(structure_brackets(gamma, model))
        assert rep["de_1_1"].value == 0.0

    def test_square_family_signs(self):
        # eta = (0, 0, (1+t2)^p): the rotation operator has the single entry
        # gamma_02 = p / (2 (1+t2)) and direct curvature computation shows
        # the metric is flat exactly for p = -2; the residual must agree
        model = standard_block(0.0, 3, order=4)
        sp = model.space
        one = sp.constant(1.0)
        u2 = sp.variable(2)
        flat_eta = ((one + u2) * (one + u2)).invert()  # p = -2
        curved_eta = (one + u2) * (one + u2)  # p = +2
        for eta2, expect_flat in ((flat_eta, True), (curved_eta, False)):
            metric = InvariantMetric([3], [[sp.zero(), sp.zero(), eta2]])
            psi = psi_from_metric(metric)
            gamma = gamma_operator(psi, invert_oneform(psi), model)
            de = darboux_egoroff_residual(structure_brackets(gamma, model)).max_value()
            curv = levi_civita_curvature(metric, model.unit).curvature.value
            assert (de < 1e-10) == expect_flat
            assert (curv < 1e-10) == expect_flat


class TestCurvatureOracle:
    def test_constant_gram_flat(self):
        res = levi_civita_curvature(epsilon_metric([3], order=4), standard_block(0.0, 3).unit)
        assert res.curvature.value == 0.0
        assert res.unit_parallel.value == 0.0

    def test_m2_family_flat(self):
        model = standard_block(0.0, 2)
        sp = model.space
        f = sp.constant(1.0) + sp.variable(1)
        m = InvariantMetric([2], [[sp.zero(), f]])
        res = levi_civita_curvature(m, model.unit)
        assert res.curvature.value < 1e-9
        assert res.unit_parallel.value < 1e-9

    def test_degenerate_rejected(self):
        sp = jet_space(2, 4)
        m = InvariantMetric([2], [[sp.zero(), sp.variable(0)]])
        with pytest.raises(Exception):
            levi_civita_curvature(m, standard_block(0.0, 2).unit)

    def test_nonflat_detected(self):
        model = standard_block(0.0, 2)
        sp = model.space
        m = InvariantMetric([2], [[sp.variable(1), sp.constant(1.0) + sp.variable(1)]])
        res = levi_civita_curvature(m, model.unit)
        assert res.curvature.value > 1e-3

    def test_flat_nonparallel_unit_case(self):
        # eta = (t1, 1) is flat but the unit is not parallel; the oracle
        # separates the two conditions
        model = standard_block(0.0, 2)
        sp = model.space
        m = InvariantMetric([2], [[sp.variable(1), sp.constant(1.0)]])
        res = levi_civita_curvature(m, model.unit)
        assert res.curvature.value < 1e-12
        assert res.unit_parallel.value > 0.1


class TestVerdict:
    def test_m2_family_verdict_true(self):
        model = standard_block(0.0, 2)
        sp = model.space
        f = sp.constant(1.0) + sp.variable(1)
        m = InvariantMetric([2], [[sp.zero(), f]])
        v = frobenius_verdict(m, model, run_oracle=True)
        assert v.passed
        assert v.weight == pytest.approx(3.0)  # solved weight for this family
        assert v.oracle.curvature.value < 1e-9

    def test_epsilon_verdict_weight_2(self):
        model = standard_block(0.7, 2)
        v = frobenius_verdict(epsilon_metric(model), model, weight=2.0)
        assert v.passed

    def test_verdict_false_nonconstant_eta0(self):
        model = standard_block(0.0, 2)
        sp = model.space
        m = InvariantMetric([2], [[sp.variable(1), sp.constant(1.0)]])
        v = frobenius_verdict(m, model, run_oracle=True)
        assert not v.passed
        oracle_ok = v.oracle.curvature.value <= 1e-8 and v.oracle.unit_parallel.value <= 1e-8
        assert not oracle_ok

    def test_verdict_matches_oracle_on_suite(self):
        model = standard_block(0.0, 2)
        sp = model.space
        t0, t1 = sp.variable(0), sp.variable(1)
        candidates = [
            InvariantMetric([2], [[sp.zero(), sp.constant(1.0) + t1]]),
            InvariantMetric([2], [[sp.constant(0.5), sp.constant(1.0) + t1.scale(0.3)]]),
            InvariantMetric([2], [[t1, sp.constant(1.0)]]),
            InvariantMetric([2], [[t1, sp.constant(1.0) + t1]]),
            InvariantMetric([2], [[sp.zero(), sp.constant(1.0) + t0]]),
            InvariantMetric([2], [[sp.zero(), sp.constant(1.0) + t1 + t0 * t1]]),
        ]
        for m in candidates:
            v = frobenius_verdict(m, model, run_oracle=True)
            oracle_ok = (
                v.oracle.curvature.value <= 1e-8
                and v.oracle.unit_parallel.value <= 1e-8
            )
            assert v.passed == oracle_ok, (m.values, v.report)

    def test_product_verdict_blockwise(self):
        model = standard_model([(0.0, 1), (1.0, 1)])
        m = epsilon_metric(model)
        v = frobenius_verdict(m, model, weight=2.0)
        assert v.passed
        assert v.oracle is not None  # multi-block runs the oracle inside the verdict

    def test_randomized_verdict_oracle_equivalence(self):
        # seeded sweep over random invariant metrics: the chain and the
        # curvature oracle must agree on every draw
        rng = np.random.default_rng(99)
        for mdim in (2, 3):
            model = standard_block(0.0, mdim, order=4)
            sp = model.space
            for trial in range(12):
                eta = []
                for i in range(mdim):
                    coeffs = np.zeros(sp.size, dtype=np.complex128)
                    # sparse random low-degree jets; force nondegeneracy on top
                    for idx in rng.choice(sp.size, size=4, replace=False):
                        coeffs[idx] = rng.standard_normal() * 0.4
                    if i == mdim - 1:
                        coeffs[0] = 1.0
                    elif trial % 2 == 0:
                        coeffs[0] = 0.0
                    eta.append(sp.from_coeffs(coeffs))
                metric = InvariantMetric([mdim], [eta])
                v = frobenius_verdict(metric, model, run_oracle=True)
                oracle_ok = (
                    v.oracle.curvature.value <= 1e-8
                    and v.oracle.unit_parallel.value <= 1e-8
                )
                assert v.passed == oracle_ok, (mdim, trial, v.report)

    def test_scope_error_nonconstant_model(self):
        model = standard_block(0.0, 2)
        # forge a non-constant multiplication
        from regfman.fman import FManifoldModel

        sp = model.space
        mult = [list(r) for r in model.structure]
        bad = list(mult[1][1])
        bad[1] = bad[1] + sp.variable(1)
        mult[1][1] = bad
        forged = FManifoldModel(JetArray.from_jets(mult), model.unit, model.euler, blocks=model.blocks)
        with pytest.raises(ScopeError):
            frobenius_verdict(epsilon_metric([2], order=4), forged)


@settings(max_examples=80, deadline=None)
@given(blocks=st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple))
def test_block_indices_from_the_layout_match_the_per_block_loops(blocks):
    layout = frob._layout(blocks)
    assert layout is frob._layout(blocks) and not any(a.flags.writeable for a in layout)
    # the Gram matrix of a metric whose eta are the constants 1, ..., n
    n = sum(blocks)
    gram = InvariantMetric(blocks, JetArray.constant(jet_space(n, 0), np.arange(1.0, n + 1))).gram()
    sources = loop_oracles.gram_sources(blocks)
    assert np.array_equal(gram.constant_term(), np.where(sources < n, sources + 1.0, 0.0))
    assert np.array_equal(epsilon_gram(blocks), loop_oracles.epsilon_pairing(blocks))
    assert [a.tolist() for a in frob._product_pairs(blocks)] == list(loop_oracles.product_pairs(blocks))
    for inner in (0, 1):
        got = [[a.tolist() for a in level] for level in frob._descent_levels(blocks, inner)]
        assert got == [list(level) for level in loop_oracles.descent_levels(blocks, inner)]


def _two_block_case():
    model = standard_model([(0.0, 2), (1.5, 1)], 4)
    sp = model.space
    metric = InvariantMetric([2, 1], [[sp.constant(0.3), sp.constant(1.0) + sp.variable(1)], [sp.constant(2.0)]])
    return model, metric


def _bits(x: JetArray):
    return x.coeffs.tobytes(), x.eff.tolist()


class TestOncePerCall:
    """One verdict forms each value two stages read once, and keeps nothing
    on its arguments; each stage called alone forms what it needs."""

    def test_one_gradient_of_psi_and_one_inverse_of_its_tops(self, monkeypatch):
        model, metric = _two_block_case()
        grads, inverts = [], []
        grad, invert = JetArray.grad, JetArray.invert

        def counting_grad(self):
            grads.append(self)
            return grad(self)

        def counting_invert(self):
            inverts.append(self)
            return invert(self)

        monkeypatch.setattr(JetArray, "grad", counting_grad)
        monkeypatch.setattr(JetArray, "invert", counting_invert)
        v = frobenius_verdict(metric, model, run_oracle=True)
        assert sum(x is v.psi.values for x in grads) == 1
        # the roots of the two blocks' top entries, inverted once together
        assert [x.shape for x in inverts] == [(2,)]

    def test_the_verdict_keeps_nothing_on_the_metric_or_the_model(self):
        model, metric = _two_block_case()
        for run_oracle in (False, True):
            before = set(vars(metric)), set(vars(model))
            frobenius_verdict(metric, model, run_oracle=run_oracle)
            assert (set(vars(metric)), set(vars(model))) == before
        # a one-form built by the caller carries nothing either
        psi = psi_from_metric(metric)
        bare = frob.OneForm(psi.blocks, psi.values)
        keys = set(vars(bare))
        gamma_operator(bare, invert_oneform(bare), model)
        assert set(vars(bare)) == keys

    def test_each_stage_alone_gives_the_bits_of_the_verdict(self):
        model, metric = _two_block_case()
        v = frobenius_verdict(metric, model, weight=2.5, run_oracle=True)
        alone = [
            *check_unit_flat(metric).items(),
            *check_euler_rescaling(metric, model.euler, 2.5)[1].items(),
        ]
        for name, res in alone:
            assert v.report[name].value.hex() == res.value.hex() and v.report[name].order == res.order
        psi = psi_from_metric(metric)
        bare = frob.OneForm(psi.blocks, psi.values)
        assert _bits(invert_oneform(bare).values) == _bits(v.beta.values)
        gamma = gamma_operator(bare, v.beta, model)
        assert _bits(gamma.matrix) == _bits(v.gamma.matrix)
        chain = check_gamma(gamma, bare, structure_brackets(gamma, model))
        for name, res in chain.items():
            assert v.report[name].value.hex() == res.value.hex()
        for oracle in (levi_civita_curvature(metric, model.unit), levi_civita_curvature(metric.gram(), model.unit)):
            assert _bits(oracle.christoffel) == _bits(v.oracle.christoffel)
            assert oracle.curvature.value.hex() == v.oracle.curvature.value.hex()
            assert oracle.unit_parallel.value.hex() == v.oracle.unit_parallel.value.hex()

    @pytest.mark.parametrize("eff", [0, 1])
    def test_a_metric_below_the_oracles_floor_is_refused_before_any_stage(self, monkeypatch, eff):
        model, metric = _two_block_case()
        low = InvariantMetric(metric.blocks, metric.values.capped(eff))
        monkeypatch.setattr(frob, "psi_from_metric", lambda *a: pytest.fail("a stage ran"))
        for run_oracle in (False, True):
            with pytest.raises(ShapeError, match="effective order >= 2"):
                frobenius_verdict(low, model, run_oracle=run_oracle)


@st.composite
def _roots(draw):
    """One top entry of a metric's root whose inverse's Newton iteration
    stays clear of the subnormal range: its value at the origin has modulus
    1e-11 to 1e50; its other coefficients are that value times 0 or a
    factor of modulus 1e-50 to 1e3.  Every argument is 0, pi (the value
    then real, with a +0 or -0 imaginary part) or at least 1e-3 in modulus."""
    sp = jet_space(*draw(st.sampled_from([(1, 0), (1, 2), (1, 4), (2, 3), (3, 2)])))
    angles = st.one_of(st.sampled_from([0.0, np.pi]), st.floats(1e-3, np.pi), st.floats(-np.pi, -1e-3))
    zeros = st.sampled_from([0.0, -0.0])

    def polar(r, angle, zero):
        z = r * np.exp(1j * angle)
        return complex(z.real, zero) if abs(z.imag) < 1e-12 * r else z

    c0 = polar(10.0 ** draw(st.floats(-11.0, 50.0)), draw(angles), draw(zeros))
    factor = st.one_of(st.just(0j), st.builds(polar, st.floats(1e-50, 1e3), angles, zeros))
    coeffs = np.array([c0, *(c0 * f for f in draw(st.lists(factor, min_size=sp.size - 1, max_size=sp.size - 1)))])
    return JetArray.from_coeffs(sp, coeffs[None], np.array([draw(st.integers(-1, sp.order))]))


@settings(max_examples=300, deadline=None)
@given(root=_roots())
# a +0 linear coefficient: a complex product by 0.5 turns the inverse's
# (+0, -0) there into (+0, +0)
@example(root=JetArray.from_coeffs(jet_space(1, 2), np.array([[0.3 - 0.4j, 0.0, 1.0]])))
# a -0 imaginary part beside a +0 real part, which the complex doubling
# turns into +0
@example(root=JetArray.from_coeffs(jet_space(1, 2), np.array([[complex(-2.0, 0.0), complex(0.0, -0.0), 1.0]])))
def test_the_halved_inverse_is_the_inverse_of_the_doubled_root(root):
    halved, expected = frob._halved(root.invert()), root.scale(2.0).invert()
    doubled = np.empty_like(root.coeffs)
    doubled.real, doubled.imag = root.coeffs.real * 2.0, root.coeffs.imag * 2.0
    if root.scale(2.0).coeffs.tobytes() == doubled.tobytes():
        assert _bits(halved) == _bits(expected)
    else:
        # the complex doubling turned a -0 part into +0, which the halved
        # inverse keeps: the two agree up to the sign of zero
        assert (halved.coeffs.tolist(), halved.eff.tolist()) == (expected.coeffs.tolist(), expected.eff.tolist())


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    order=st.integers(0, 3),
    data=st.data(),
)
def test_the_gathered_gram_gradient_has_the_bits_of_the_grams(blocks, order, data):
    n = sum(blocks)
    sp = jet_space(n, order)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = (rng.standard_normal((n, sp.size)) + 1j * rng.standard_normal((n, sp.size))) * (
        rng.random((n, sp.size)) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    )
    coeffs[:, 0] += 1.0
    eff = rng.integers(-1, order + 1, n) if data.draw(st.booleans()) else np.full(n, order)
    values = JetArray(sp, coeffs, eff)
    if data.draw(st.booleans()):
        values = values.exact_zeros()
    metric = InvariantMetric(blocks, values)
    got, want = metric._gram_grad(), metric.gram().grad()
    assert _bits(got) == _bits(want)
    assert got._order_range() == want._order_range()
