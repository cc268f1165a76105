"""The dump of tools/parity.py: equal exactly when the bits are."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from regfman.errors import ValidationError
from regfman.jets import JetArray, jet_space
from regfman.malgrange import DeformationSpec, fmanifold_on_chart, integrate_chart
from regfman.regend import jordan_block
from regfman.reports import report_from

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))
import parity  # noqa: E402


def _array(coeffs, eff):
    return JetArray.from_coeffs(jet_space(2, 2), np.array(coeffs, dtype=complex), np.array(eff))


def test_jet_arrays_differ_in_one_bit_or_one_effective_order():
    coeffs = [[1.0, 0.5, 0.0, 0.0, 0.0, 0.25], [0.0] * 6]
    base = parity.digest(_array(coeffs, [2, 2]))
    assert parity.digest(_array(coeffs, [2, 2])) == base
    nudged = [[np.nextafter(1.0, 2.0), *coeffs[0][1:]], coeffs[1]]
    assert parity.digest(_array(nudged, [2, 2])) != base
    assert parity.digest(_array(coeffs, [2, 1])) != base


def test_floats_reports_and_exceptions():
    assert parity.digest(0.1) == (0.1).hex()
    assert parity.digest(-0.0) != parity.digest(0.0)
    rep = report_from([("a", 1e-3, 2)])
    assert parity.digest(rep) == [["a", {"type": "Residual", "value": (1e-3).hex(), "order": 2}]]
    assert parity.digest(ValidationError("bad", rep)) == {"raised": "ValidationError('bad')"}


def test_compare_names_each_differing_case_and_its_first_path():
    parent = {"a": [1, {"x": "0x1p+0"}], "b": 2, "gone": 3}
    change = {"a": [1, {"x": "0x1p+1"}], "b": 2, "new": 4}
    lines = parity.compare(parent, change)
    assert lines == [
        'a: [1]/x: "0x1p+0" != "0x1p+1"',
        'gone: /: 3 != "<missing>"',
        'new: /: "<missing>" != 4',
    ]


def test_space_tables_digest_the_factor_table_whatever_its_container():
    sp = jet_space(3, 2)
    tables = {name: getattr(sp, name) for name in ("degrees", "_diff", "_shift", "_grad", "_cauchy")}
    base = parity.digest(parity.space_tables(sp))
    pairs = tuple((int(v), int(low)) for v, low in sp._factors)
    # the exponents as a tuple of tuples, as older spaces kept them
    rows = tuple(map(tuple, sp.exponents.tolist()))
    assert parity.digest(parity.space_tables(SimpleNamespace(**tables, exponents=rows, _factors=pairs))) == base
    ii, *rest = sp._cauchy
    moved = SimpleNamespace(**{**tables, "_cauchy": (ii[::-1].copy(), *rest)}, exponents=rows, _factors=pairs)
    assert parity.digest(parity.space_tables(moved)) != base


def test_universality_fields_are_the_four_every_tree_has_and_keep_their_bits():
    chart = integrate_chart(DeformationSpec(-jordan_block(0.5, 2), np.diag([-0.5, 0.5])), 4)
    model = fmanifold_on_chart(chart)
    fields = parity.universality_fields(chart, model)
    assert list(fields) == ["map", "report", "spectra", "substitution"]
    # a second call reads the model's kept origin data; a fresh model forms them
    assert parity.digest(parity.universality_fields(chart, model)) == parity.digest(fields)
    assert parity.digest(parity.universality_fields(chart, fmanifold_on_chart(chart))) == parity.digest(fields)


def test_substitution_outputs_cover_each_effective_order_kind_as_a_batch_and_a_single_jet():
    shape = parity.SUBSTITUTION_SHAPES[1]
    outs = {kind: parity.substitution_outputs(parity.SEED, shape, kind) for kind in parity.SUBSTITUTION_KINDS}
    for out in outs.values():
        assert [out[k].shape for k in ("batch", "single", "entry")] == [(3,), (1,), ()]
        assert np.array_equal(out["single"].coeffs[0], out["entry"].coeffs)
    assert (outs["none"]["batch"].eff == -1).all()
    assert parity.digest(parity.substitution_outputs(parity.SEED, shape, "mixed")) == parity.digest(outs["mixed"])
