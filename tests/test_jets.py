"""Jet kernel tests: frozen examples plus randomized ring/calculus
properties, on single jets (0-dimensional jet arrays) and on arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles

from regfman.errors import ScopeError, ShapeError, SingularInputError
from regfman.jets import (
    Jet,
    JetArray,
    JetSpace,
    contract,
    Substitution,
    jet_space,
)

from loop_oracles import JetVector, LoopJet, lie_bracket, loop_jets


def variables(sp):
    return [sp.variable(v) for v in range(sp.num_vars)]


def compose(f, subs):
    """``f`` with ``subs[i]`` substituted for variable ``i``."""
    return Substitution(f.space, JetArray.from_jets(subs))(f)


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
        one = sp.constant(1.0)
        prod = (one + t) * (one - t)
        assert (prod - (one - t * t)).residual_norm() == 0.0

    def test_additive_identity(self):
        sp = jet_space(2, 3)
        t0, t1 = variables(sp)
        a = t0.scale(2.0) + (t1 * t1).scale(1j)
        assert ((a + sp.zero()) - a).residual_norm() == 0.0

    def test_truncation_drops_top_degree(self):
        sp = jet_space(2, 1)
        t0, t1 = variables(sp)
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

    def test_constructors_build_single_jets(self):
        sp = jet_space(2, 2)
        for jet in (sp.zero(), sp.constant(2.0), sp.variable(1), sp.from_coeffs(np.arange(6.0))):
            assert isinstance(jet, Jet) and jet.shape == () and jet.eff_order() == 2
        assert np.array_equal(sp.from_coeffs(np.arange(6.0)).coeffs, np.arange(6.0))
        assert np.array_equal(sp.variable(1).coeffs, [0, 1, 0, 0, 0, 0])
        with pytest.raises(ShapeError):
            sp.from_coeffs(np.zeros((2, 6)))

    def test_indexing_gives_arrays_that_keep_the_stored_order(self):
        sp = jet_space(1, 2)
        arr = JetArray.from_coeffs(sp, np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 0.0]]), np.array([1, 2]))
        exact = JetArray.constant(sp, np.zeros(2)).exact_zeros()
        for entry, want in ((arr[0], 1), (arr[1], 2), (exact[1], int(exact.eff[1]))):
            assert type(entry) is JetArray and entry.shape == () and int(entry.eff) == want
        assert int(exact[1].eff) > sp.order
        assert np.array_equal(arr[0].coeffs, [1.0, 2.0, 0.0])


def _reference_tables(sp):
    """The index tables of ``sp`` built entry by entry from an independent
    enumeration of its monomials, one monomial or one pair at a time."""
    exps, order = loop_oracles.monomial_exponents(sp.num_vars, sp.order), sp.order
    index_of = {e: i for i, e in enumerate(exps)}
    degrees = [sum(e) for e in exps]

    def moved(e, v, by):
        e = list(e)
        e[v] += by
        return index_of[tuple(e)]

    def ints(values):
        return np.array(values, dtype=np.int64)

    diff, shift = [], []
    below = [i for i in range(sp.size) if degrees[i] < order]
    for v in range(sp.num_vars):
        src = [i for i, e in enumerate(exps) if e[v] > 0]
        fac = np.array([exps[i][v] for i in src], dtype=np.float64)
        diff.append((ints(src), ints([moved(exps[i], v, -1) for i in src]), fac))
        shift.append((ints(below), ints([moved(exps[i], v, 1) for i in below])))
    rows = [(i, v) for i, e in enumerate(exps) for v in range(sp.num_vars) if e[v] > 0]
    grad = (
        ints([i for i, _ in rows]),
        ints([v for _, v in rows]),
        ints([moved(exps[i], v, -1) for i, v in rows]),
        np.array([exps[i][v] for i, v in rows], dtype=np.float64),
    )
    factors = loop_oracles.monomial_factors(sp.num_vars, order)
    pairs = [
        (i, j, index_of[tuple(a + b for a, b in zip(exps[i], exps[j]))])
        for i in range(sp.size)
        for j in range(sp.size)
        if degrees[i] + degrees[j] <= order
    ]
    pairs.sort(key=lambda p: p[2])  # stable: i-major, j ascending within a target
    starts = {}  # the first pair of each target
    for n, (_, _, k) in enumerate(pairs):
        starts.setdefault(k, n)
    return {
        "degrees": ints(degrees),
        "_diff": diff,
        "_shift": shift,
        "_grad": grad,
        "_factors": ints(factors).reshape(-1, 2),
        "_cauchy": tuple(ints(t) for t in [*zip(*pairs), list(starts), list(starts.values())]),
    }


def _assert_same_tables(got, want, path):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert (got.dtype, got.shape) == (want.dtype, want.shape), path
        assert np.array_equal(got, want), path
    else:
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_tables(g, w, f"{path}[{k}]")


class TestIndexTables:
    @pytest.mark.parametrize(
        "num_vars, order",
        # (40, 2) and (63, 1): (order + 1) ** num_vars overflows int64
        [(1, 0), (2, 0), (1, 6), (3, 4), (4, 6), (7, 4), (40, 2), (63, 1)],
    )
    def test_tables_equal_the_entry_by_entry_reference(self, num_vars, order):
        sp = JetSpace(num_vars, order)
        want = _reference_tables(sp)
        rows = np.array(loop_oracles.monomial_exponents(num_vars, order), dtype=np.int64).reshape(-1, num_vars)
        _assert_same_tables(sp.exponents, rows, "exponents")
        assert np.array_equal(sp.index_of(rows), np.arange(sp.size))
        for name, table in want.items():
            _assert_same_tables(getattr(sp, name), table, name)

    def test_cauchy_table_counts_the_pairs_of_every_degree(self):
        # N_d monomials of degree d, each with E_{K-d} partners of degree at most K - d
        n, order = 10, 6
        count = sum(math.comb(d + n - 1, n - 1) * math.comb(order - d + n, n) for d in range(order + 1))
        assert count == 230_230
        assert len(jet_space(n, order)._cauchy[0]) == count


class TestPartial:
    def test_product_rule_example(self):
        sp = jet_space(2, 3)
        t0, t1 = variables(sp)
        assert ((t0 * t1).partial(0) - t1).residual_norm() == 0.0

    def test_constant(self):
        sp = jet_space(2, 3)
        assert sp.constant(5.0).partial(1).residual_norm() == 0.0

    def test_polynomial(self):
        sp = jet_space(1, 3)
        t = sp.variable(0)
        d = (t * t + t.scale(3.0)).partial(0)
        assert (d - (t.scale(2.0) + sp.constant(3.0))).residual_norm() < 1e-15

    def test_order_reduction_flagged(self):
        sp = jet_space(1, 3)
        t = sp.variable(0)
        assert t.partial(0).eff_order() == 2

    def test_index_out_of_range(self):
        with pytest.raises(ShapeError):
            jet_space(2, 2).variable(0).partial(2)


class TestInvert:
    def test_geometric_series(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        inv = (sp.constant(1.0) + t).invert()
        # one variable: coefficient k is that of t**k
        assert inv.coeffs == pytest.approx(geometric_series_coeffs(2), abs=1e-14)

    def test_constant(self):
        sp = jet_space(1, 4)
        assert complex(sp.constant(2.0).invert().coeffs[0]) == pytest.approx(0.5)

    def test_singular(self):
        sp = jet_space(1, 3)
        with pytest.raises(SingularInputError):
            sp.variable(0).invert()


class TestSqrt:
    def test_binomial_series(self):
        sp = jet_space(1, 2)
        t = sp.variable(0)
        s = (sp.constant(1.0) + t.scale(2.0)).sqrt()
        expected = binomial_sqrt_coeffs(2.0, 2)  # 1 + t - t^2/2
        assert expected == pytest.approx([1.0, 1.0, -0.5])
        assert s.coeffs == pytest.approx(expected, abs=1e-12)

    def test_principal_branch(self):
        sp = jet_space(1, 3)
        roots = JetArray.constant(sp, [4.0, -4.0, 1j]).sqrt().constant_term()
        assert roots == pytest.approx([2.0, 2j, np.sqrt(0.5) * (1 + 1j)])

    def test_singular(self):
        sp = jet_space(1, 3)
        with pytest.raises(SingularInputError):
            sp.variable(0).sqrt()


class TestCompose:
    def test_polynomial_identity(self):
        src = jet_space(1, 3)
        tgt = jet_space(1, 3)
        t = src.variable(0)
        u = tgt.variable(0)
        got = compose(t * t, [u.scale(2.0) + u * u])
        assert (got - ((u * u).scale(4.0) + (u * u * u).scale(4.0))).residual_norm() < 1e-15

    def test_constant_term_is_refused(self):
        # t**2 and t**2 + t**3 agree to order 2; at 1 + u their constant
        # terms are 1 and 2, so no order-2 jet is the composition
        src = jet_space(1, 2)
        t = src.variable(0)
        u = jet_space(1, 2).variable(0)
        shifted = u + u.space.constant(1.0)
        with pytest.raises(ScopeError):
            Substitution(src, JetArray.from_jets([shifted]))
        with pytest.raises(ScopeError):
            t.compose([shifted])

    def test_identity_substitution(self):
        sp = jet_space(2, 3)
        t0, t1 = variables(sp)
        a = sp.from_coeffs(((t0 * t1 * t1).scale(1.5) + t1.scale(-2j) + (t0 * t0 * t0).scale(0.25)).coeffs)
        assert (a.compose(variables(sp)) - a).residual_norm() < 1e-15

    def test_collapse_variables(self):
        src = jet_space(2, 2)
        tgt = jet_space(1, 2)
        t0, t1 = variables(src)
        u = tgt.variable(0)
        got = compose(t0 + t1, [u, u * u])
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
        assert d.eff_order() == 1
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
        assert lhs.eff_order() == a.space.order - 1


@settings(max_examples=80, deadline=None)
@given(jets(min_const=0.5))
def test_invert_roundtrip(a):
    assert (a * a.invert() - a.space.constant(1.0)).residual_norm() < 1e-10 * max(1.0, a.residual_norm() ** 4)


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
    lhs = compose(a * b, subs)
    rhs = a.compose(subs) * b.compose(subs)
    scale = max(1.0, max(s.residual_norm() for s in subs)) ** (2 * k)
    scale *= max(1.0, a.residual_norm()) * max(1.0, b.residual_norm())
    assert rel_residual(lhs - rhs, scale) < 1e-10


def _assert_same_bits(got, want):
    """A single jet and a loop jet with the same effective order and
    coefficients (up to the sign of a zero)."""
    assert got.shape == () and got.eff_order() == want.eff_order
    assert np.array_equal(got.coeffs, want.coeffs)


@settings(max_examples=80, deadline=None)
@given(jet_triples())
def test_single_jets_have_the_bits_of_the_loop_reference(triple):
    a, b, c = triple
    ra, rb = loop_jets(a), loop_jets(b)
    pairs = [(a * b, ra * rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a.scale(0.5 - 2j), ra.scale(0.5 - 2j))]
    pairs += [(a.partial(v), ra.partial(v)) for v in range(a.space.num_vars)]
    # a product of an effective order lowered by a derivative
    pairs.append((a.partial(0) * b, ra.partial(0) * rb))
    for got, want in pairs:
        _assert_same_bits(got, want)


@settings(max_examples=80, deadline=None)
@given(jets(min_const=0.5))
def test_single_jet_newton_iterations_have_the_bits_of_the_loop_reference(a):
    ra = loop_jets(a)
    _assert_same_bits(a.invert(), loop_oracles.invert(ra))
    _assert_same_bits(a.sqrt(), loop_oracles.sqrt(ra))


# -- vectors and matrices -----------------------------------------------------


class TestVectorsMatrices:
    def test_lie_bracket_coordinate_fields(self):
        sp = jet_space(2, 3)
        t0, t1 = LoopJet.variables(sp)
        x = JetVector([LoopJet.one(sp), LoopJet.zero(sp)])
        y = JetVector([t1, t0])
        br = lie_bracket(x, y)
        # [d0, t1 d0 + t0 d1] = d1
        assert (br[0] - LoopJet.zero(sp)).residual_norm() == 0.0
        assert (br[1] - LoopJet.one(sp)).residual_norm() < 1e-15

    def test_jacobi_identity(self):
        rng = np.random.default_rng(7)
        sp = jet_space(2, 3)

        def rand_vec():
            return JetVector(
                [
                    LoopJet.from_coeffs(sp, rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size))
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
        m = JetArray.from_jets(entries) + JetArray.constant(sp, 3 * np.eye(3))
        prod = contract("ik,kj->ij", m, m.inverse())
        assert (prod - JetArray.constant(sp, np.eye(3))).residual_norm() < 1e-10

    def test_matrix_singular(self):
        with pytest.raises(SingularInputError):
            JetArray.constant(jet_space(1, 2), np.zeros((2, 2))).inverse()

    def test_commutator(self):
        def commutator(a, b):
            return contract("ik,kj->ij", a, b) - contract("ik,kj->ij", b, a)

        # constant matrices: the commutator numpy forms
        sp = jet_space(1, 2)
        a0, b0 = np.array([[0, 1], [0, 0]]), np.array([[1, 0], [2, -1]])
        br = commutator(JetArray.constant(sp, a0), JetArray.constant(sp, b0))
        assert np.array_equal(br.constant_term(), a0 @ b0 - b0 @ a0)
        assert br.residual_norm() == 2.0
        # non-constant jets: the commutator of the loop reference
        rng = np.random.default_rng(5)
        sp = jet_space(2, 3)
        a, b = (
            JetArray.from_coeffs(sp, rng.standard_normal((3, 3, sp.size)) + 1j * rng.standard_normal((3, 3, sp.size)))
            for _ in range(2)
        )
        want = loop_oracles.commutator(loop_oracles.to_matrix(a), loop_oracles.to_matrix(b))
        want = np.array([[w.coeffs for w in row] for row in want.entries])
        assert np.abs(want).max() > 1.0
        assert np.abs(commutator(a, b).coeffs - want).max() <= 1e-12 * np.abs(want).max()

    def test_integrate_inverts_partial(self):
        sp = jet_space(2, 4)
        t0, t1 = variables(sp)
        f = JetArray.from_jets([t0 * t1 + t0 * t0 * t1])
        assert (f.partial(0).integrate(0) - f).residual_norm() < 1e-15

    def test_stack_refuses_arrays_of_different_shapes(self):
        sp = jet_space(2, 2)
        square = JetArray.constant(sp, np.eye(2))
        with pytest.raises(ShapeError, match="jet array entries must form a rectangular array"):
            JetArray.stack([square, JetArray.constant(sp, np.eye(3))])
        assert JetArray.stack([square, square]).shape == (2, 2, 2)


# -- substitution tables ------------------------------------------------------


def _random_sub_jet(sp, rng, kind):
    """A substitution jet that fixes the origin: zero, a linear form, or a
    sparse tail of every degree from 1; random effective order."""
    c = np.zeros(sp.size, dtype=np.complex128)
    if kind != "zero":
        c[1:] = (rng.standard_normal(sp.size - 1) + 1j * rng.standard_normal(sp.size - 1)) * 0.5
        c[1:] *= rng.random(sp.size - 1) < 0.6
    if kind == "linear":
        c[sp.degrees > 1] = 0.0
    return JetArray.from_coeffs(sp, c, int(rng.integers(0, sp.order + 1)))


class TestSubstitution:
    @settings(max_examples=150, deadline=None)
    @given(
        src_vars=st.integers(1, 3),
        src_order=st.integers(0, 4),
        tgt_vars=st.integers(1, 3),
        tgt_order=st.integers(0, 4),
        kinds=st.lists(st.sampled_from(["zero", "linear", "tail"]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_loop_bit_for_bit(self, src_vars, src_order, tgt_vars, tgt_order, kinds, seed):
        rng = np.random.default_rng(seed)
        src, tgt = jet_space(src_vars, src_order), jet_space(tgt_vars, tgt_order)
        subs = [_random_sub_jet(tgt, rng, kinds[v]) for v in range(src_vars)]
        jets = [
            Jet.from_coeffs(
                src,
                (rng.standard_normal(src.size) + 1j * rng.standard_normal(src.size))
                * (rng.random(src.size) < 0.7),
                int(rng.integers(-1, src_order + 1)),
            )
            for _ in range(4)
        ] + [src.zero()]
        sub = Substitution(src, JetArray.from_jets(subs))
        loop_subs = [loop_jets(s) for s in subs]
        want = [loop_oracles.compose(loop_jets(j), loop_subs) for j in jets]
        for j, w in zip(jets, want):
            got = sub(j)
            assert got.space is tgt and got.eff_order() == w.eff_order
            assert np.array_equal(got.coeffs, w.coeffs)
            assert np.array_equal(j.compose(subs).coeffs, w.coeffs)
        batch = sub(JetArray.from_jets([jets[:2], jets[2:4]]))
        for idx, w in zip([(0, 0), (0, 1), (1, 0), (1, 1)], want):
            assert batch[idx].eff_order() == w.eff_order
            assert np.array_equal(batch[idx].coeffs, w.coeffs)

    @settings(max_examples=80, deadline=None)
    @given(
        src_vars=st.integers(1, 3),
        src_order=st.integers(0, 4),
        tgt_vars=st.integers(1, 3),
        tgt_order=st.integers(0, 4),
        kinds=st.lists(st.sampled_from(["zero", "linear", "tail"]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_equals_the_jet_product_table(self, src_vars, src_order, tgt_vars, tgt_order, kinds, seed):
        """The table is built one column degree at a time from sums that
        repeat the arithmetic of the single-jet product, and makes no jet
        product: it equals the table of loop products ``prev * subs[v]`` on
        the columns up to the lowest effective order, and is zero above."""
        rng = np.random.default_rng(seed)
        src, tgt = jet_space(src_vars, src_order), jet_space(tgt_vars, tgt_order)
        subs = [_random_sub_jet(tgt, rng, kinds[v]) for v in range(src_vars)]
        monomials = [LoopJet.one(tgt)]
        for v, low in src._factors:
            monomials.append(monomials[low] * loop_jets(subs[v]))
        want = np.array([m.coeffs for m in monomials])

        def refuse(*args):
            raise AssertionError("jet product while building the table")

        original, JetArray.__mul__ = JetArray.__mul__, refuse
        try:
            sub = Substitution(src, JetArray.from_jets(subs))
        finally:
            JetArray.__mul__ = original
        got = sub.table
        assert got.shape == want.shape
        width = tgt._degree_ends[max(sub.eff_order, 0)]
        got, want = got[:, :width], want[:, :width]
        assert np.abs(got - want).max(initial=0.0) <= 1e-15 * max(1.0, np.abs(want).max(initial=0.0))
        assert not sub.table[:, width:].any()

    def test_restriction_by_zero_substitution(self):

        src, tgt = jet_space(3, 3), jet_space(2, 3)
        t0, t1, t2 = variables(src)
        subs = variables(tgt) + [tgt.zero()]
        got = Substitution(src, JetArray.from_jets(subs))(t0 * t1 + t2 + t2 * t0 + src.constant(2.0))
        u0, u1 = variables(tgt)
        assert (got - (u0 * u1 + tgt.constant(2.0))).residual_norm() == 0.0

    def test_substitutions_must_share_one_space(self):

        src = jet_space(2, 2)
        with pytest.raises(ShapeError):
            Substitution(src, JetArray.from_jets([jet_space(1, 2).variable(0), jet_space(1, 3).variable(0)]))
        with pytest.raises(ShapeError):
            Substitution(src, JetArray.from_jets(variables(jet_space(2, 2))))(jet_space(2, 3).constant(1.0))
