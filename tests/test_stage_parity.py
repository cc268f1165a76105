"""The order-by-order stages of the extension against their full-order
references in ``loop_oracles``, bit for bit.

Each stage now stops every step at the degree it fixes: a Picard step of a
chart flow reads the iterate only to the degree it makes final, a solve step
of the frame expansion contracts the solved part only to the degree it
solves, a step of the germ-isomorphism solve trusts psi only to the degree
it fixes, a substitution table stops at the substitutions' lowest order
and a row product past the rows' highest order.  None of that may change a
bit: the cases cover single- and multi-block spectra with n <= 4 and
K <= 6, and the data of the extension itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles
from regfman import fman, jets
from regfman.fman import germ_isomorphism, mult_by_euler, standard_model
from regfman.jets import JetArray, Substitution, jet_space
from regfman.malgrange import (
    DeformationSpec,
    InitialData,
    _products,
    b0_at,
    expand_in_frame,
    fmanifold_on_chart,
    integrate_chart,
    validate_initial_data,
)
from regfman.regend import (
    JordanSpectrum,
    cyclic_basis_representation,
    jordan_block,
    jordan_spectrum,
)
from test_malgrange import _solve_skew_endomorphism
from test_regend import matrix_from_spectrum


def _assert_bits(got: JetArray, want: JetArray):
    assert np.array_equal(got.eff, want.eff)
    assert np.array_equal(got.coeffs, want.coeffs)


def _assert_table(sub: Substitution, want: np.ndarray):
    """The table of ``sub`` equals ``want`` on the columns of degree up to
    its effective order (degree 0 at least), and no column above is filled."""
    width = sub.target._degree_ends[max(sub.eff_order, 0)]
    assert np.array_equal(sub.table[:, :width], want[:, :width])
    assert not sub.table[:, width:].any()


def _extension_data(spectrum, order, weight, seed):
    """Admissible data on the standard model: Hankel moments continued by
    the companion matrix of the origin multiplication (h_0 = 0 unless the
    weight is 2) and the least-squares skew endomorphism."""
    rng = np.random.default_rng(seed)
    model = standard_model(spectrum, order)
    n = model.dim
    last = cyclic_basis_representation(
        mult_by_euler(model).constant_term(), model.unit.constant_term()
    )[:, n - 1]
    h = np.zeros(2 * n - 1, dtype=complex)
    h[:n] = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    if weight != 2.0:
        h[0] = 0.0
    for k in range(n, 2 * n - 1):
        h[k] = sum(last[i] * h[k - n + i] for i in range(n))
    gram = np.array([[h[i + j] for j in range(n)] for i in range(n)])
    data = InitialData(model, gram, _solve_skew_endomorphism(gram, weight), weight)
    assert validate_initial_data(data).passed(1e-8)
    return data


def _spec_of(spectrum, binf):
    return DeformationSpec(matrix_from_spectrum(JordanSpectrum(tuple(spectrum))), binf)


# (spec, order): single blocks, then multi-block spectra
_SPECS = [
    (DeformationSpec(jordan_block(1.0, 3), np.diag([0.1, 0.0, -0.2])), 3),
    (DeformationSpec(jordan_block(1.0, 3), np.diag([0.1, 0.0, -0.2])), 6),
    (DeformationSpec(jordan_block(0.0, 2), np.zeros((2, 2))), 6),
    (DeformationSpec(jordan_block(-0.5, 4), np.zeros((4, 4))), 4),
    (_spec_of([(0.0, 2), (1.5, 1)], np.diag([0.2, -0.1, 0.0])), 5),
    (_spec_of([(0.0, 2), (2.0, 2)], np.zeros((4, 4))), 4),
    (_spec_of([(0.0, 1), (1.0, 1), (2.5, 1), (-1.0, 1)], np.zeros((4, 4))), 4),
    (_spec_of([(0.0, 1), (1.0, 1)], np.array([[0.0, 0.3], [-0.3, 0.0]])), 6),
]

# (spectrum, order, weight, seed): the ranges of the extension's pipelines
_DATA = [
    ([(0.3, 3)], 4, 3.0, 1),
    ([(0.3, 3)], 6, 2.5, 2),
    ([(-0.2, 4)], 4, 2.0, 3),
    ([(0.1, 2), (2.1, 1)], 4, 2.5, 4),
    ([(0.1, 2), (2.1, 1)], 5, 3.0, 5),
    ([(0.0, 1), (1.5, 1), (3.0, 1)], 4, 2.0, 6),
    ([(0.0, 2), (2.0, 2)], 4, 3.0, 7),
    ([(0.0, 1), (2.0, 1), (4.0, 1), (6.0, 1)], 4, 2.5, 8),
]


def _chart_rhs(chart):
    """The right-hand sides that ``fmanifold_on_chart`` expands."""
    n = chart.spec.dim
    tangent = chart.gamma.grad()
    return tangent, JetArray.stack(
        [
            *_products(tangent).reshape(n * n, n, n),
            JetArray.constant(tangent.space, np.eye(n)),
            -b0_at(chart.spec, chart.gamma),
        ]
    )


def _check_chart_and_expansion(spec, order):
    chart = integrate_chart(spec, order)
    _assert_bits(chart.gamma, loop_oracles.integrate_chart(spec, order))
    tangent, rhs = _chart_rhs(chart)
    got, got_res = expand_in_frame(tangent, rhs)
    want, want_res = loop_oracles.expand_in_frame(tangent, rhs)
    _assert_bits(got, want)
    assert np.array_equal(got_res, want_res)
    return chart


@pytest.mark.parametrize("spec, order", _SPECS)
def test_chart_expansion_and_isomorphism_match_the_full_order_stages(spec, order):
    chart = _check_chart_and_expansion(spec, order)
    model = fmanifold_on_chart(chart)
    target = standard_model(jordan_spectrum(-spec.b0o), order)
    for a, b in ((model, target), (target, model)):
        _assert_bits(germ_isomorphism(a, b).map, loop_oracles.germ_map(a, b))


@pytest.mark.parametrize("spectrum, order, weight, seed", _DATA)
def test_extension_stages_match_the_full_order_stages(spectrum, order, weight, seed):
    # the chart, model and isomorphism that initial_condition_extend builds
    data = _extension_data(spectrum, order, weight, seed)
    val = validate_initial_data(data)
    chart = _check_chart_and_expansion(DeformationSpec(-val.companion, -data.skew), order)
    chart_model = fmanifold_on_chart(chart)
    _assert_bits(germ_isomorphism(data.model, chart_model).map, loop_oracles.germ_map(data.model, chart_model))


def _rows(sp, count, rng):
    """Coefficient rows: dense, constant, zero or dense below a random
    degree, by turns at random."""
    out = np.zeros((count, sp.size), dtype=np.complex128)
    for r in range(count):
        kind = rng.integers(4)
        if kind == 2:
            continue
        row = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
        if kind == 1:
            row[1:] = 0.0
        elif kind == 3:
            row[sp.degrees > rng.integers(0, sp.order + 1)] = 0.0
        out[r] = row
    return out


@settings(max_examples=80, deadline=None)
@given(
    num_vars=st.integers(1, 3),
    order=st.integers(0, 5),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_products_with_low_orders_match_the_whole_table(num_vars, order, count, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(num_vars, order)
    a, b = _rows(sp, count, rng), _rows(sp, count, rng)
    top = int(rng.integers(-1, order + 1))
    for eff in (np.full(count, top), rng.integers(-1, top + 1, count), np.full(count, order)):
        assert np.array_equal(jets._row_products(sp, a, b, eff), loop_oracles.row_products(sp, a, b, eff))


@settings(max_examples=80, deadline=None)
@given(
    source_vars=st.integers(1, 3),
    target_vars=st.integers(1, 3),
    source_order=st.integers(0, 4),
    target_order=st.integers(0, 4),
    orders=st.sampled_from(("full", "low", "mixed")),
    seed=st.integers(0, 2**32 - 1),
)
def test_substitution_matches_the_full_table_build(
    source_vars, target_vars, source_order, target_order, orders, seed
):
    rng = np.random.default_rng(seed)
    source, target = jet_space(source_vars, source_order), jet_space(target_vars, target_order)
    # substitutions that fix the origin: the rows less their constant term
    coeffs = _rows(target, source_vars, rng)
    coeffs[:, 0] = 0.0
    eff = {
        "full": np.full(source_vars, target_order),
        "low": np.full(source_vars, int(rng.integers(-1, target_order + 1))),
        "mixed": rng.integers(-1, target_order + 1, source_vars),
    }[orders]
    subs = JetArray(target, coeffs, eff)
    sub = Substitution(source, subs)
    table = loop_oracles.substitution_table(source, subs)
    _assert_table(sub, table)
    f = JetArray.from_coeffs(source, _rows(source, 3, rng))
    _assert_bits(sub(f), loop_oracles.substitute(table, subs, f))
    single = loop_oracles.substitute(table, subs, f[:1])
    assert np.array_equal(sub(f[:1]).coeffs, single.coeffs)


@settings(max_examples=80, deadline=None)
@given(
    num_vars=st.integers(1, 4),
    order=st.integers(0, 5),
    count=st.integers(1, 9),
    eff=st.integers(-1, 5),
    origin=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_powers_match_the_rows_of_the_substitution_table(num_vars, order, count, eff, origin, seed):
    # the powers a**0, ..., a**(count - 1) that the frame brackets read are
    # the rows of the table of substituting a (constant term and all) into
    # one-variable jets of order count - 1, as they were once built
    rng = np.random.default_rng(seed)
    sp = jet_space(num_vars, order)
    coeffs = _rows(sp, 1, rng)[0]
    if origin:
        coeffs[0] = 0.0
    a = JetArray(sp, coeffs, np.array(min(eff, order)))

    def refuse(*args):
        raise AssertionError("a Substitution built for the powers")

    original, Substitution.__init__ = Substitution.__init__, refuse
    try:
        got = fman._powers(a, count)
    finally:
        Substitution.__init__ = original
    want = loop_oracles.substitution_table(jet_space(1, count - 1), a.reshape(1))
    # equal values (array_equal takes -0.0 == 0.0: only the sign of a zero may differ)
    assert np.array_equal(got.coeffs, want)
    assert got.eff.tolist() == [order] + [a.eff_order()] * (count - 1)
