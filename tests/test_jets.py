"""Jet kernel tests: frozen examples plus randomized ring/calculus properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles

from regfman.errors import InvalidAnchorError, ShapeError, SingularInputError
from regfman.jets import (
    Jet,
    JetArray,
    JetMatrix,
    Substitution,
    jet_space,
)

from loop_oracles import JetVector, lie_bracket


def geometric_series_coeffs(order):
    # oracle for 1/(1+t): sum (-1)^k t^k
    return [(-1.0) ** k for k in range(order + 1)]


def binomial_sqrt_coeffs(c, order):
    # oracle for (1+c*t)^(1/2): sum C(1/2, k) c^k t^k
    out = []
    for k in range(order + 1):
        binom = 1.0
        for j in range(k):
            binom *= (0.5 - j) / (j + 1)
        out.append(binom * c**k)
    return out


class TestBasics:
    def test_difference_of_squares(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        prod = (1 + t) * (1 - t)
        assert (prod - (1 - t * t)).residual_norm() == 0.0

    def test_additive_identity(self):
        sp = jet_space(2, 3)
        a = sp.from_terms({(1, 0): 2.0, (0, 2): 1j})
        assert ((a + sp.zero()) - a).residual_norm() == 0.0

    def test_truncation_drops_top_degree(self):
        sp = jet_space(2, 1)
        t0, t1 = sp.variables()
        assert (t0 * t1).residual_norm() == 0.0

    def test_scale(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        assert (t.scale(3j) - t.scale(3j)).residual_norm() == 0.0

    def test_incompatible_shapes(self):
        a = jet_space(1, 2).variable(0)
        b = jet_space(2, 2).variable(0)
        with pytest.raises(ShapeError):
            a + b
        c = jet_space(1, 3).variable(0)
        with pytest.raises(ShapeError):
            a * c

    def test_coercion(self):
        sp2 = jet_space(1, 2)
        sp4 = jet_space(1, 4)
        a = sp2.from_terms({(0,): 1.0, (1,): 2.0, (2,): 3.0})
        up = a.in_space(sp4)
        assert up.space is sp4
        assert up.eff_order == 2
        assert (up.in_space(sp2) - a).residual_norm() == 0.0


class TestPartial:
    def test_product_rule_example(self):
        sp = jet_space(2, 3)
        t0, t1 = sp.variables()
        assert ((t0 * t1).partial(0) - t1).residual_norm() == 0.0

    def test_constant(self):
        sp = jet_space(2, 3)
        assert sp.constant(5.0).partial(1).residual_norm() == 0.0

    def test_polynomial(self):
        sp = jet_space(1, 3)
        t = sp.variable(0)
        d = (t * t + t.scale(3.0)).partial(0)
        assert (d - (t.scale(2.0) + 3)).residual_norm() < 1e-15

    def test_order_reduction_flagged(self):
        sp = jet_space(1, 3)
        t = sp.variable(0)
        assert t.partial(0).eff_order == 2

    def test_index_out_of_range(self):
        with pytest.raises(ShapeError):
            jet_space(2, 2).variable(0).partial(2)


class TestInvert:
    def test_geometric_series(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        inv = (1 + t).invert()
        expected = geometric_series_coeffs(2)
        for k, c in enumerate(expected):
            assert inv.terms().get((k,), 0) == pytest.approx(c, abs=1e-14)

    def test_constant(self):
        sp = jet_space(1, 4)
        assert sp.constant(2.0).invert().value0 == pytest.approx(0.5)

    def test_singular(self):
        sp = jet_space(1, 3)
        with pytest.raises(SingularInputError):
            sp.variable(0).invert()


class TestSqrt:
    def test_binomial_series(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        s = (1 + t.scale(2.0)).sqrt(branch_anchor=1.0)
        expected = binomial_sqrt_coeffs(2.0, 2)  # 1 + t - t^2/2
        assert expected == pytest.approx([1.0, 1.0, -0.5])
        for k, c in enumerate(expected):
            assert s.terms().get((k,), 0) == pytest.approx(c, abs=1e-12)

    def test_constant_chosen_branch(self):
        sp = jet_space(1, 3)
        s = sp.constant(4.0).sqrt(branch_anchor=-2.0)
        assert s.value0 == pytest.approx(-2.0)

    def test_singular(self):
        sp = jet_space(1, 3)
        with pytest.raises(SingularInputError):
            sp.variable(0).sqrt(branch_anchor=1.0)

    def test_bad_anchor(self):
        sp = jet_space(1, 3)
        with pytest.raises(InvalidAnchorError):
            sp.constant(4.0).sqrt(branch_anchor=1.0)


class TestCompose:
    def test_polynomial_identity(self):
        src = jet_space(1, 2)
        tgt = jet_space(1, 2)
        t = src.variable(0)
        u = tgt.variable(0)
        got = (t * t).compose([u + 1])
        assert (got - (1 + u.scale(2.0) + u * u)).residual_norm() < 1e-15

    def test_identity_substitution(self):
        sp = jet_space(2, 3)
        a = sp.from_terms({(1, 2): 1.5, (0, 1): -2j, (3, 0): 0.25})
        assert (a.compose(sp.variables()) - a).residual_norm() < 1e-15

    def test_collapse_variables(self):
        src = jet_space(2, 2)
        tgt = jet_space(1, 2)
        t0, t1 = src.variables()
        u = tgt.variable(0)
        got = (t0 + t1).compose([u, u * u])
        assert (got - (u + u * u)).residual_norm() < 1e-15

    def test_arity_mismatch(self):
        src = jet_space(2, 2)
        with pytest.raises(ShapeError):
            src.variable(0).compose([jet_space(1, 2).variable(0)])


class TestResidualNorm:
    def test_zero(self):
        assert jet_space(3, 2).zero().residual_norm() == 0.0

    def test_complex_constant(self):
        assert jet_space(1, 2).constant(3 + 4j).residual_norm() == pytest.approx(5.0)

    def test_linear(self):
        sp = jet_space(2, 2)
        a = sp.variable(0) - sp.variable(1).scale(2.0)
        assert a.residual_norm() == pytest.approx(2.0)

    def test_masks_untrusted_orders(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        d = (t * t).partial(0)  # eff order 1
        assert d.eff_order == 1
        # the order-2 slot is zeroed and excluded
        assert d.residual_norm() == pytest.approx(2.0)


# -- randomized properties ----------------------------------------------------

coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def jets(draw, num_vars=None, order=None, min_const=0.0):
    m = num_vars if num_vars is not None else draw(st.integers(1, 3))
    k = order if order is not None else draw(st.integers(1, 4))
    sp = jet_space(m, k)
    vals = draw(st.lists(coeff, min_size=sp.size, max_size=sp.size))
    arr = np.array(vals, dtype=np.complex128)
    if min_const > 0.0 and abs(arr[0]) < min_const:
        arr[0] = min_const * (1.0 + 1.0j)
    return sp.from_coeffs(arr)


@st.composite
def jet_triples(draw):
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    return (
        draw(jets(num_vars=m, order=k)),
        draw(jets(num_vars=m, order=k)),
        draw(jets(num_vars=m, order=k)),
    )


def rel_residual(j, scale):
    return j.residual_norm() / max(1.0, scale)


@settings(max_examples=80, deadline=None)
@given(jet_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    scale = max(a.residual_norm(), b.residual_norm(), c.residual_norm(), 1.0) ** 3
    assert rel_residual((a * b) * c - a * (b * c), scale) < 1e-12
    assert rel_residual(a * b - b * a, scale) < 1e-12
    assert rel_residual(a * (b + c) - (a * b + a * c), scale) < 1e-12


@settings(max_examples=80, deadline=None)
@given(jet_triples())
def test_leibniz_rule(triple):
    a, b, _ = triple
    for v in range(a.space.num_vars):
        lhs = (a * b).partial(v)
        rhs = a * b.partial(v) + b * a.partial(v)
        scale = max(a.residual_norm() * b.residual_norm(), 1.0)
        assert rel_residual(lhs - rhs, scale) < 1e-12
        assert lhs.eff_order == a.space.order - 1


@settings(max_examples=80, deadline=None)
@given(jets(min_const=0.5))
def test_invert_roundtrip(a):
    assert (a * a.invert() - 1).residual_norm() < 1e-10 * max(1.0, a.residual_norm() ** 4)


@settings(max_examples=80, deadline=None)
@given(jets(min_const=0.5))
def test_sqrt_squares_back(a):
    s = a.sqrt()
    assert (s * s - a).residual_norm() < 1e-10 * max(1.0, a.residual_norm() ** 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_respects_products(data):
    # multiplicativity at order K needs origin-preserving substitutions;
    # a nonzero constant term feeds truncated degrees back into low orders
    m = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 3))
    a = data.draw(jets(num_vars=m, order=k))
    b = data.draw(jets(num_vars=m, order=k))
    subs = []
    for _ in range(m):
        s = data.draw(jets(num_vars=2, order=k))
        arr = s.coeffs.copy()
        arr[0] = 0.0
        subs.append(s.space.from_coeffs(arr))
    lhs = (a * b).compose(subs)
    rhs = a.compose(subs) * b.compose(subs)
    scale = max(1.0, max(s.residual_norm() for s in subs)) ** (2 * k)
    scale *= max(1.0, a.residual_norm()) * max(1.0, b.residual_norm())
    assert rel_residual(lhs - rhs, scale) < 1e-10


def test_compose_recentering_is_exact_substitution():
    # when the product fits inside the order, re-centering constants are exact
    sp = jet_space(1, 4)
    t = sp.variable(0)
    a = 1 + t.scale(2.0) + t * t
    b = 3 - t
    tgt = jet_space(1, 4)
    u = tgt.variable(0)
    sub = [u + 0.5]
    lhs = (a * b).compose(sub)
    rhs = a.compose(sub) * b.compose(sub)
    assert (lhs - rhs).residual_norm() < 1e-12


# -- vectors and matrices -----------------------------------------------------


class TestVectorsMatrices:
    def test_lie_bracket_coordinate_fields(self):
        sp = jet_space(2, 3)
        t0, t1 = sp.variables()
        x = JetVector([sp.one(), sp.zero()])
        y = JetVector([t1, t0])
        br = lie_bracket(x, y)
        # [d0, t1 d0 + t0 d1] = d1
        assert (br[0] - sp.zero()).residual_norm() == 0.0
        assert (br[1] - sp.one()).residual_norm() < 1e-15

    def test_jacobi_identity(self):
        rng = np.random.default_rng(7)
        sp = jet_space(2, 3)

        def rand_vec():
            return JetVector(
                [
                    sp.from_coeffs(
                        rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
                    )
                    for _ in range(2)
                ]
            )

        x, y, z = rand_vec(), rand_vec(), rand_vec()
        j = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert j.residual_norm() < 1e-10 * 100

    def test_matrix_inverse(self):
        rng = np.random.default_rng(3)
        sp = jet_space(2, 3)
        entries = [
            [
                sp.from_coeffs(
                    rng.standard_normal(sp.size) * 0.3 + 1j * rng.standard_normal(sp.size) * 0.3
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = JetMatrix(entries) + JetMatrix.from_constant(sp, 3 * np.eye(3))
        prod = m @ m.inverse()
        assert (prod - JetMatrix.identity(sp, 3)).residual_norm() < 1e-10

    def test_matrix_singular(self):
        sp = jet_space(1, 2)
        m = JetMatrix.from_constant(sp, np.zeros((2, 2)))
        with pytest.raises(SingularInputError):
            m.inverse()

    def test_commutator_antisymmetry(self):
        sp = jet_space(1, 2)
        a = JetMatrix.from_constant(sp, np.array([[0, 1], [0, 0]]))
        b = JetMatrix.from_constant(sp, np.array([[1, 0], [2, -1]]))
        assert (loop_oracles.commutator(a, b) + loop_oracles.commutator(b, a)).residual_norm() == 0.0

    def test_integrate_inverts_partial(self):
        sp = jet_space(2, 4)
        t0, t1 = sp.variables()
        f = JetArray.from_jets([t0 * t1 + t0 * t0 * t1])
        assert (f.partial(0).integrate(0) - f).residual_norm() < 1e-15


# -- substitution tables ------------------------------------------------------


def _random_sub_jet(sp, rng, kind):
    """A substitution jet: zero, a nonzero constant plus a random tail
    (re-centering), or a tail without constant term; random effective order."""
    c = np.zeros(sp.size, dtype=np.complex128)
    if kind != "zero":
        c[1:] = (rng.standard_normal(sp.size - 1) + 1j * rng.standard_normal(sp.size - 1)) * 0.5
        c[1:] *= rng.random(sp.size - 1) < 0.6
    if kind == "recenter":
        c[0] = rng.standard_normal() + 1j * rng.standard_normal()
    return sp.from_coeffs(c, int(rng.integers(0, sp.order + 1)))


class TestSubstitution:
    @settings(max_examples=150, deadline=None)
    @given(
        src_vars=st.integers(1, 3),
        src_order=st.integers(0, 4),
        tgt_vars=st.integers(1, 3),
        tgt_order=st.integers(0, 4),
        kinds=st.lists(st.sampled_from(["zero", "recenter", "tail"]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_loop_bit_for_bit(self, src_vars, src_order, tgt_vars, tgt_order, kinds, seed):
        rng = np.random.default_rng(seed)
        src, tgt = jet_space(src_vars, src_order), jet_space(tgt_vars, tgt_order)
        subs = [_random_sub_jet(tgt, rng, kinds[v]) for v in range(src_vars)]
        jets = [
            src.from_coeffs(
                (rng.standard_normal(src.size) + 1j * rng.standard_normal(src.size))
                * (rng.random(src.size) < 0.7),
                int(rng.integers(-1, src_order + 1)),
            )
            for _ in range(4)
        ] + [src.zero()]
        sub = Substitution(src, subs)
        want = [loop_oracles.compose(j, subs) for j in jets]
        for j, w in zip(jets, want):
            got = sub(j)
            assert got.space is tgt and got.eff_order == w.eff_order
            assert np.array_equal(got.coeffs, w.coeffs)
            assert np.array_equal(j.compose(subs).coeffs, w.coeffs)
        batch = sub(JetArray.from_jets([jets[:2], jets[2:4]]))
        for idx, w in zip([(0, 0), (0, 1), (1, 0), (1, 1)], want):
            assert batch[idx].eff_order == w.eff_order
            assert np.array_equal(batch[idx].coeffs, w.coeffs)
        mat = JetMatrix([jets[:2], jets[2:4]]).compose(subs)
        assert np.array_equal(mat[1, 0].coeffs, want[2].coeffs)

    @settings(max_examples=80, deadline=None)
    @given(
        src_vars=st.integers(1, 3),
        src_order=st.integers(0, 4),
        tgt_vars=st.integers(1, 3),
        tgt_order=st.integers(0, 4),
        kinds=st.lists(st.sampled_from(["zero", "recenter", "tail"]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_equals_the_jet_product_table(self, src_vars, src_order, tgt_vars, tgt_order, kinds, seed):
        """The table is built one degree at a time from row products that
        repeat the arithmetic of ``Jet.__mul__``, and makes no ``Jet``
        product: it equals the table of products ``prev * subs[v]``."""
        rng = np.random.default_rng(seed)
        src, tgt = jet_space(src_vars, src_order), jet_space(tgt_vars, tgt_order)
        subs = [_random_sub_jet(tgt, rng, kinds[v]) for v in range(src_vars)]
        monomials = [tgt.one()]
        for v, low in src._factors:
            monomials.append(monomials[low] * subs[v])
        want = np.array([m.coeffs for m in monomials])

        def refuse(*args):
            raise AssertionError("Jet product while building the table")

        original, Jet.__mul__ = Jet.__mul__, refuse
        try:
            got = Substitution(src, subs).table
        finally:
            Jet.__mul__ = original
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-15 * max(1.0, np.abs(want).max(initial=0.0))

    def test_restriction_by_zero_substitution(self):

        src, tgt = jet_space(3, 3), jet_space(2, 3)
        t0, t1, t2 = src.variables()
        subs = tgt.variables() + [tgt.zero()]
        got = Substitution(src, subs)(t0 * t1 + t2 + t2 * t0 + 2.0)
        u0, u1 = tgt.variables()
        assert (got - (u0 * u1 + 2.0)).residual_norm() == 0.0

    def test_substitutions_must_share_one_space(self):

        src = jet_space(2, 2)
        with pytest.raises(ShapeError):
            Substitution(src, [jet_space(1, 2).variable(0), jet_space(1, 3).variable(0)])
        with pytest.raises(ShapeError):
            Substitution(src, jet_space(2, 2).variables())(jet_space(2, 3).one())
