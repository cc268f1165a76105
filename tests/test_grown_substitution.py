"""The substitution table that ``fman.germ_isomorphism`` grows through its
solve, bit for bit against the tables built at once.

``Substitution`` builds the table of substitutions that fix the origin one
column degree at a time up to their lowest effective order, and grows it by
further degrees as their coefficients become final.  After each fill the
grown table must equal the table of the truncated substitutions on the
columns it has filled, the finished table the table of the whole
substitutions, and both the row-degree build of ``loop_oracles`` on the
columns they fill.  The isomorphism itself is checked against its full-order
reference on models trusted below the jet order, where the last solve
steps read a truncated transport defect.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles
from regfman.fman import FManifoldModel, germ_isomorphism, standard_model
from regfman.jets import JetArray, Substitution, jet_space
from regfman.malgrange import fmanifold_on_chart, integrate_chart
from regfman.regend import jordan_spectrum
from test_stage_parity import _SPECS, _assert_bits, _assert_table, _rows


@settings(max_examples=40, deadline=None)
@given(
    num_vars=st.integers(1, 4),
    order=st.integers(0, 6),
    zero=st.integers(-1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_grown_table_equals_the_table_of_each_truncation(num_vars, order, zero, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(num_vars, order)
    psi = _rows(sp, num_vars, rng)
    psi[:, 0] = 0.0
    if zero < num_vars:
        psi[zero] = 0.0  # an identically zero component (or none when zero = -1)
    grown = Substitution(sp, JetArray.constant(sp, np.zeros(num_vars)).capped(0))
    f = JetArray.from_coeffs(sp, _rows(sp, 3, rng))
    for d in range(order + 1):
        grown._grow(psi, d)
        assert grown.eff_order == d
        filled = sp.degrees <= d
        want = Substitution(sp, JetArray(sp, np.where(filled, psi, 0.0), np.full(num_vars, d)))
        assert np.array_equal(grown.table[:, filled], want.table[:, filled])
        assert not grown.table[:, ~filled].any()
        # the columns a solve step composes
        cols = slice(sp._degree_ends[d - 1] if d else 0, sp._degree_ends[d])
        assert np.array_equal(grown._compose(f._stored, cols), want(f).coeffs[:, cols])
    whole = JetArray(sp, psi.copy(), np.full(num_vars, order))
    full = Substitution(sp, whole)
    assert np.array_equal(grown.table, full.table)
    assert np.array_equal(full.table, loop_oracles.substitution_table(sp, whole))
    _assert_bits(grown(f), full(f))
    # the same substitutions with mixed effective orders, built a column
    # degree at a time up to the lowest of them, against the row-degree build
    mixed = JetArray(sp, psi.copy(), rng.integers(-1, order + 1, num_vars))
    _assert_table(Substitution(sp, mixed), loop_oracles.substitution_table(sp, mixed))


@pytest.mark.parametrize("spec, order", [_SPECS[0], _SPECS[3], _SPECS[4]])
def test_isomorphism_with_a_model_trusted_below_the_order_matches_the_full_order_stage(spec, order):
    model = fmanifold_on_chart(integrate_chart(spec, order))
    target = standard_model(jordan_spectrum(-spec.b0o), order)
    low = FManifoldModel(target.structure.capped(order - 2), target.unit, target.euler.capped(order - 2))
    for a, b in ((model, low), (low, model)):
        _assert_bits(germ_isomorphism(a, b).map, loop_oracles.germ_map(a, b))
