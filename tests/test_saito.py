"""Saito-bundle and Birkhoff-connection tests."""

import numpy as np
import pytest

import loop_oracles
from regfman.errors import HomogeneityError, NotPrimitiveError, ShapeError
from regfman.fman import check_fmanifold, mult_by_euler
from regfman.jets import JetArray, contract, jet_space
from regfman.saito import (
    BirkhoffConnection,
    SaitoBundle,
    birkhoff_flatness,
    birkhoff_to_saito,
    check_saito_axioms,
    check_saito_metric_axioms,
    fmanifold_from_saito,
    frobenius_from_saito,
)
from saito_cases import admissible_bundle, metric_gauged_bundle, non_abelian_gauged_bundle


def constant_connection(space, b0, binf, cs):
    return BirkhoffConnection(JetArray.constant(space, b0), binf, JetArray.constant(space, cs))


def linear(space, mats, jets):
    """The jet matrix sum_k mats[k] jets[k]."""
    return contract("kij,k->ij", JetArray.constant(space, mats), JetArray.from_jets(jets))


def flat_rank2_base1(order=3):
    """Nontrivial flat example: C_0 = N, Binf diagonal, B0 linear in x."""
    sp = jet_space(1, order)
    n = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    binf = np.diag([0.5, -0.25]).astype(complex)
    b00 = np.array([[1.0, 0.0], [0.3, 1.0]], dtype=complex)  # commutes with n
    # mixed condition forces d_x B0 = [Binf, C_0] - C_0
    slope = (binf @ n - n @ binf) - n
    b0 = linear(sp, [b00, slope], [sp.constant(1.0), sp.variable(0)])
    return BirkhoffConnection(b0, binf, JetArray.constant(sp, [n]))


def potential_rank1_base2(order=3):
    """Rank-1 connections are flat iff C is closed and B0' = -C."""
    sp = jet_space(2, order)
    x0, x1 = sp.variable(0), sp.variable(1)
    pot = x0 + x0 * x1 + x1 * x1.scale(0.5)
    c = [[[pot.partial(0)]], [[pot.partial(1)]]]
    return BirkhoffConnection(JetArray.from_jets([[-pot + sp.constant(1.5)]]), np.array([[0.7]]), JetArray.from_jets(c))


class TestBirkhoffFlatness:
    def test_trivial_deformation(self):
        sp = jet_space(1, 3)
        conn = constant_connection(
            sp,
            np.array([[1.0, 2.0], [0.0, 3.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            [np.zeros((2, 2))],
        )
        rep = birkhoff_flatness(conn)
        assert rep.max_value() == 0.0

    def test_flat_rank2(self):
        rep = birkhoff_flatness(flat_rank2_base1())
        assert rep.max_value() < 1e-12, rep

    def test_flat_rank1_base2(self):
        rep = birkhoff_flatness(potential_rank1_base2())
        assert rep.max_value() < 1e-12, rep

    def test_commutator_defect(self):
        sp = jet_space(2, 3)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        conn = constant_connection(sp, np.zeros((2, 2)), np.zeros((2, 2)), [a, b])
        rep = birkhoff_flatness(conn)
        assert rep["c_commute"].value > 0.5

    def test_mixed_defect(self):
        sp = jet_space(1, 3)
        conn = constant_connection(
            sp, np.eye(2), np.zeros((2, 2)), [np.eye(2)]
        )
        rep = birkhoff_flatness(conn)
        # d_x B0 + C = C != [Binf, C] = 0
        assert rep["b0_mixed"].value == pytest.approx(1.0)


class TestSaitoAxioms:
    def test_commuting_constants_pass(self):
        sp = jet_space(1, 3)
        r0 = JetArray.constant(sp, np.diag([1.0, 2.0]))
        bundle = SaitoBundle(JetArray.constant(sp, np.zeros((1, 2, 2))), r0, np.zeros((2, 2)))
        assert check_saito_axioms(bundle).max_value() == 0.0

    def test_flat_birkhoff_maps_to_saito(self):
        for conn in (flat_rank2_base1(), potential_rank1_base2()):
            rep = check_saito_axioms(birkhoff_to_saito(conn))
            assert rep.max_value() < 1e-9, rep

    def test_sign_convention(self):
        conn = flat_rank2_base1()
        bundle = birkhoff_to_saito(conn)
        assert np.allclose(bundle.rinf, -conn.binf)

    def test_noncommuting_residue_detected(self):
        sp = jet_space(1, 3)
        phi = JetArray.constant(sp, [[[0.0, 0.0], [1.0, 0.0]]])
        r0 = JetArray.constant(sp, [[0.0, 1.0], [0.0, 0.0]])
        bundle = SaitoBundle(phi, r0, np.zeros((2, 2)))
        rep = check_saito_axioms(bundle)
        assert rep["r0_phi_commute"].value > 0.5

    def test_equivalence_flat_and_broken(self):
        # the flatness groups and the Saito axioms fail and pass together
        rng = np.random.default_rng(2)
        conn = flat_rank2_base1()
        sp = conn.space
        for trial in range(6):
            if trial == 0:
                cand = conn
            else:
                noise = rng.standard_normal((2, 2)) * 0.1
                which = trial % 3
                b0 = conn.b0
                binf = conn.binf.copy()
                cs = list(conn.c)
                if which == 0:
                    b0 = b0 + JetArray.constant(sp, noise)
                elif which == 1:
                    binf = binf + noise
                else:
                    cs = [cs[0] + JetArray.constant(sp, noise)]
                cand = BirkhoffConnection(b0, binf, JetArray.stack(cs))
            flat = birkhoff_flatness(cand).max_value() <= 1e-8
            saito = check_saito_axioms(birkhoff_to_saito(cand)).max_value() <= 1e-8
            assert flat == saito


class TestSaitoMetricAxioms:
    def test_identity_rinf_skewness_residual(self):
        sp = jet_space(1, 3)
        bundle = SaitoBundle(
            JetArray.constant(sp, np.zeros((1, 2, 2))),
            JetArray.constant(sp, np.zeros((2, 2))),
            np.eye(2),
            metric=np.eye(2),
        )
        rep = check_saito_metric_axioms(bundle)
        assert rep["rinf_skew"].value == pytest.approx(2.0)

    def test_block_phi_symmetric_for_antidiagonal_metric(self):
        # multiplication matrices of the nilpotent block are symmetric for
        # the anti-diagonal pairing
        from regfman.fman import standard_block
        from regfman.frob import epsilon_gram

        model = standard_block(0.0, 3)
        sp = jet_space(3, 3)
        eps = epsilon_gram([3])
        bundle = SaitoBundle(
            JetArray.constant(sp, model.mult_matrices()),
            JetArray.constant(sp, np.zeros((3, 3))),
            np.zeros((3, 3)),
            metric=eps,
        )
        rep = check_saito_metric_axioms(bundle)
        assert rep["phi_symmetric"].value == 0.0


class TestFManifoldFromSaito:
    def test_rank1_block(self):
        sp = jet_space(1, 3)
        a = 0.8
        r0 = JetArray.from_jets([[-(sp.variable(0) + sp.constant(a))]])
        bundle = SaitoBundle(JetArray.constant(sp, [[[1.0]]]), r0, np.zeros((1, 1)))
        model, rep = fmanifold_from_saito(bundle, [1.0])
        assert (model.euler[0] - (sp.variable(0) + sp.constant(a))).residual_norm() < 1e-12
        assert rep["u_matches_conjugated_residue"] < 1e-12
        assert rep["spectra_match"]

    def test_zero_section_rejected(self):
        sp = jet_space(1, 3)
        bundle = SaitoBundle(JetArray.constant(sp, [[[1.0]]]), JetArray.constant(sp, [[1.0]]), np.zeros((1, 1)))
        with pytest.raises(NotPrimitiveError):
            fmanifold_from_saito(bundle, [0.0])

    def test_section_independence(self):
        # two primitive sections of the same flat bundle induce the same
        # multiplication, unit and Euler field
        conn = flat_rank2_base1()
        bundle = birkhoff_to_saito(conn)
        # base dim 1 != rank 2: build a 2-variable flat extension instead
        sp = jet_space(2, 3)
        n = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        ident = np.eye(2, dtype=complex)
        b00 = np.array([[1.0, 0.0], [0.3, 1.0]], dtype=complex)
        b0 = linear(sp, [b00, -ident, -n], [sp.constant(1.0), sp.variable(0), sp.variable(1)])
        conn2 = BirkhoffConnection(b0, np.zeros((2, 2)), JetArray.constant(sp, [ident, n]))
        assert birkhoff_flatness(conn2).max_value() < 1e-12
        bundle2 = birkhoff_to_saito(conn2)
        model_a, _ = fmanifold_from_saito(bundle2, [1.0, 0.0])
        model_b, _ = fmanifold_from_saito(bundle2, [1.0, 0.7])
        for i in range(2):
            for j in range(2):
                assert (model_a.structure[i][j] - model_b.structure[i][j]).residual_norm() < 1e-8
        assert (model_a.unit - model_b.unit).residual_norm() < 1e-8
        assert (model_a.euler - model_b.euler).residual_norm() < 1e-8
        assert check_fmanifold(model_a).passes(1e-8)

    def test_conjugacy_of_spectra(self):
        conn = potential_rank1_base2()
        # rank 1, base 2: not primitive-compatible; use the 2x2 family
        sp = jet_space(2, 3)
        ident = np.eye(2, dtype=complex)
        n = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        b0 = linear(sp, [[[0.5, 0.0], [0.3, 0.5]], -ident, -n], [sp.constant(1.0), sp.variable(0), sp.variable(1)])
        conn2 = BirkhoffConnection(b0, np.zeros((2, 2)), JetArray.constant(sp, [ident, n]))
        bundle = birkhoff_to_saito(conn2)
        model, rep = fmanifold_from_saito(bundle, [1.0, 0.0])
        assert rep["spectra_match"]
        u0 = mult_by_euler(model).constant_term()
        assert np.allclose(sorted(np.linalg.eigvals(u0).real), [-0.5, -0.5])


class TestFrobeniusFromSaito:
    def test_rank1_metric_and_euler_derivative(self):
        sp = jet_space(1, 4)
        a = 1.0
        r0 = JetArray.from_jets([[-(sp.variable(0) + sp.constant(a))]])
        q = 0.0  # rinf = 0 forces weight 0 => D = 2
        bundle = SaitoBundle(JetArray.constant(sp, [[[1.0]]]), r0, np.zeros((1, 1)), metric=np.array([[2.5]]))
        gram, rep = frobenius_from_saito(bundle, [1.0], q)
        assert (gram[0, 0] - sp.constant(2.5)).residual_norm() < 1e-12
        assert rep["euler_derivative"].value < 1e-9

    def test_homogeneity_error(self):
        sp = jet_space(1, 3)
        one = JetArray.constant(sp, [[1.0]])
        bundle = SaitoBundle(one[None], one, np.array([[0.5]]), metric=np.array([[1.0]]))
        with pytest.raises(HomogeneityError):
            frobenius_from_saito(bundle, [1.0], weight_q=1.5)

    def test_metric_required(self):
        sp = jet_space(1, 3)
        bundle = SaitoBundle(JetArray.constant(sp, [[[1.0]]]), JetArray.constant(sp, [[1.0]]), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            frobenius_from_saito(bundle, [1.0], weight_q=0.0)

    def test_transported_metric_is_multiplication_invariant(self):
        # when the bundle metric makes each Phi_i symmetric, the induced
        # metric is invariant for the induced multiplication
        sp = jet_space(2, 3)
        ident = np.eye(2, dtype=complex)
        n = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        b0 = linear(sp, [[[0.5, 0.0], [0.3, 0.5]], -ident, -n], [sp.constant(1.0), sp.variable(0), sp.variable(1)])
        conn = BirkhoffConnection(b0, np.zeros((2, 2)), JetArray.constant(sp, [ident, n]))
        eps = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # makes ident, n symmetric
        bundle = SaitoBundle(conn.c, conn.b0, -conn.binf, metric=eps)
        assert check_saito_metric_axioms(bundle).max_value() < 1e-12
        gram, _ = frobenius_from_saito(bundle, [1.0, 0.0], weight_q=0.0)
        model, _ = fmanifold_from_saito(bundle, [1.0, 0.0])
        worst = 0.0
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    lhs = sp.zero()
                    rhs = sp.zero()
                    for k in range(2):
                        lhs = lhs + model.structure[a][b][k] * gram[k, c]
                        rhs = rhs + model.structure[b][c][k] * gram[a, k]
                    worst = max(worst, (lhs - rhs).residual_norm())
        assert worst < 1e-10


# -- bundles with a frame connection ------------------------------------------------


def failing(report, tol=1e-9):
    return {name for name in report if report[name].value > tol}


def perturbed(bundle, delta):
    """The bundle with Omega_0 shifted by the jet matrix delta."""
    omega = bundle.frame_connection
    rest = [omega[i] for i in range(1, len(omega))]
    shifted = JetArray.stack([omega[0] + delta, *rest])
    return SaitoBundle(bundle.phi, bundle.r0, bundle.rinf, shifted, bundle.metric)


class TestFrameConnection:
    def test_admissible_bundle_is_flat_and_metric(self):
        bundle = admissible_bundle()
        assert bundle.frame_connection is None
        assert check_saito_axioms(bundle).passes(1e-9)
        assert check_saito_metric_axioms(bundle).passes(1e-9)

    def test_an_empty_frame_connection_is_refused(self):
        # only None stands for the canonical flat connection; an empty list
        # is not one matrix per base variable
        bundle = admissible_bundle()
        with pytest.raises(ShapeError):
            SaitoBundle(bundle.phi, bundle.r0, bundle.rinf, [], bundle.metric)

    def test_gauge_transform_of_flat_bundle_passes(self):
        bundle = non_abelian_gauged_bundle()
        omega = bundle.frame_connection
        bracket = contract("ab,bc->ac", omega[0], omega[1]) - contract("ab,bc->ac", omega[1], omega[0])
        assert bracket.residual_norm() > 0.1
        rep = check_saito_axioms(bundle)
        assert rep.passes(1e-9), rep
        _assert_matches_loops(bundle)

    def test_metric_gauge_transform_passes(self):
        bundle = metric_gauged_bundle()
        assert np.abs(bundle.frame_connection.coeffs).max() > 0.1
        assert check_saito_axioms(bundle).passes(1e-9), check_saito_axioms(bundle)
        assert check_saito_metric_axioms(bundle).passes(1e-9), check_saito_metric_axioms(bundle)
        _assert_matches_loops(bundle)

    def test_non_closed_scalar_shift_breaks_only_curvature(self):
        bundle = metric_gauged_bundle()
        sp = bundle.space
        # a scalar shift commutes with everything: only d(Omega) changes
        broken = perturbed(bundle, linear(sp, [np.eye(2)], [sp.variable(1)]))
        assert failing(check_saito_axioms(broken)) == {"curvature"}
        assert failing(check_saito_metric_axioms(broken)) == {"nabla_metric"}
        _assert_matches_loops(broken)

    def test_closed_scalar_shift_breaks_only_metric_flatness(self):
        bundle = metric_gauged_bundle()
        sp = bundle.space
        x0, x1 = sp.variable(0), sp.variable(1)
        # Omega_i + d_i h Id with h = x0 x1 + 0.3 x0^2 stays flat, but not metric
        omega = bundle.frame_connection
        shifted = JetArray.stack(
            [omega[0] + linear(sp, [np.eye(2)], [x1 + x0.scale(0.6)]), omega[1] + linear(sp, [np.eye(2)], [x0])]
        )
        broken = SaitoBundle(bundle.phi, bundle.r0, bundle.rinf, shifted, bundle.metric)
        assert failing(check_saito_axioms(broken)) == set()
        assert failing(check_saito_metric_axioms(broken)) == {"nabla_metric"}

    def test_constant_shift_breaks_the_covariant_identities(self):
        bundle = metric_gauged_bundle()
        sp = bundle.space
        # E12 commutes neither with Rinf, nor with Phi_1 or R0
        broken = perturbed(bundle, JetArray.constant(sp, [[0.0, 0.1], [0.0, 0.0]]))
        rep = check_saito_axioms(broken)
        assert {"nabla_rinf", "d_nabla_phi", "nabla_r0"} <= failing(rep), rep
        assert "phi_wedge_phi" not in failing(rep) and "r0_phi_commute" not in failing(rep)
        _assert_matches_loops(broken)

    def test_flat_section_of_a_gauged_bundle(self):
        # Rinf = diag(-1/2, 1/2): e_0 is homogeneous of weight -1/2, and the
        # frame connection moves it, so section_flat measures Omega e_0
        bundle = metric_gauged_bundle()
        gram, rep = frobenius_from_saito(bundle, [1.0, 0.0], -0.5)
        want_gram, want = loop_oracles.frobenius_from_saito(bundle, [1.0, 0.0], -0.5)
        assert rep["section_flat"].value > 0.01
        assert rep["section_flat"].value == pytest.approx(want["section_flat"].value, rel=1e-12)
        assert (gram - loop_oracles.to_array(want_gram.entries)).residual_norm() < 1e-12


def _with_metric(bundle):
    return SaitoBundle(bundle.phi, bundle.r0, bundle.rinf, bundle.frame_connection, np.array([[0.0, 1.0], [1.0, 0.5]]))


@pytest.mark.parametrize(
    "bundle, signed_zeros",
    [
        (admissible_bundle(), True),  # a metric
        (admissible_bundle(order=5), True),
        (non_abelian_gauged_bundle(), True),  # a frame connection
        (metric_gauged_bundle(), True),  # both
        (birkhoff_to_saito(flat_rank2_base1()), True),  # neither
        # rank 2 on one variable with a metric: product blocks of 10 x 10
        # entries in the full table and of 10 x 6 here, which the kernel
        # sums by row sums and by reduceat respectively (``jets._WIDE``);
        # only the sign of a zero differs
        (_with_metric(birkhoff_to_saito(flat_rank2_base1())), False),
    ],
    ids=["metric", "metric-K5", "frame", "frame-metric", "plain", "base1-metric"],
)
def test_the_product_table_is_the_full_table_without_the_metric_as_right_factor(bundle, signed_zeros):
    # the axioms read g and g^T only as left factors: the table leaves out
    # their columns and keeps every other entry bit for bit
    sp = bundle.space
    parts = [*bundle.phi, bundle.r0, JetArray.constant(sp, bundle.rinf)]
    if bundle.frame_connection is not None:
        parts += [*bundle.frame_connection]
    if bundle.metric is not None:
        parts += [*JetArray.constant(sp, np.stack([bundle.metric, bundle.metric.T]))]
    stack = JetArray.stack(parts)
    full = contract("iab,jbc->ijac", stack, stack)
    prod, grad = bundle._table
    cols = len(parts) - (2 if bundle.metric is not None else 0)
    assert prod.shape == (len(parts), cols) + full.shape[2:]
    assert np.array_equal(prod.eff, full.eff[:, :cols])
    bits = lambda x: np.ascontiguousarray(x).view(np.uint64) if signed_zeros else x
    assert np.array_equal(bits(prod.coeffs), bits(full.coeffs[:, :cols]))
    assert np.array_equal(bits(grad.coeffs), bits(stack.grad().coeffs))


def _assert_matches_loops(bundle):
    checks = [(check_saito_axioms, loop_oracles.check_saito_axioms)]
    if bundle.metric is not None:
        checks.append((check_saito_metric_axioms, loop_oracles.check_saito_metric_axioms))
    for fast, loop in checks:
        got, want = fast(bundle), loop(bundle)
        assert list(got) == list(want)
        for name in want:
            assert got[name].order == want[name].order
            assert abs(got[name].value - want[name].value) <= 1e-12 * max(1.0, want[name].value)
