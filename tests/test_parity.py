"""The dump of tools/parity.py: equal exactly when the bits are."""

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from regfman.errors import ValidationError
from regfman.jets import JetArray, jet_space
from regfman.malgrange import DeformationSpec, fmanifold_on_chart, integrate_chart
from regfman.regend import jordan_block
from regfman.reports import report_from

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "tools"), str(_ROOT / "perfbench")]
import kernels  # noqa: E402
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


def test_a_single_jet_is_digested_in_the_form_of_an_object_jet():
    # {"jet": SHA-1 of the full-width coefficients, "eff": the order capped
    # at the jet order}, whether a constructor, an index or a product made it
    def want(coeffs, eff):
        return {"jet": hashlib.sha1(np.ascontiguousarray(coeffs).tobytes()).hexdigest(), "eff": eff}

    sp = jet_space(2, 2)
    jet = sp.from_coeffs(np.arange(6.0) + 1j)
    assert parity.digest(jet) == want(jet.coeffs, 2)
    assert parity.digest(jet * jet) == want((jet * jet).coeffs, 2)
    arr = _array([[1.0, 0.5, 0.0, 0.0, 0.0, 0.25], [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0]], [1, 2])
    assert parity.digest(arr[0]) == want(arr.coeffs[0], 1)
    assert parity.digest(arr[1], zero_signs=False) == want(arr.coeffs[1] + 0.0, 2)
    assert parity.digest(arr[1]) != parity.digest(arr[1], zero_signs=False)
    exact = arr.exact_zeros()[1]
    assert int(exact.eff) > sp.order and parity.digest(exact) == want(arr.coeffs[1], 2)
    # a batch, even of one jet, keeps the array form
    assert parity.digest(arr[:1]) == {"jets": want(arr.coeffs[:1], 0)["jet"], "eff": [1]}


def test_floats_reports_and_exceptions():
    assert parity.digest(0.1) == (0.1).hex()
    assert parity.digest(-0.0) != parity.digest(0.0)
    rep = report_from([("a", 1e-3, 2)])
    assert parity.digest(rep) == [["a", {"type": "Residual", "value": (1e-3).hex(), "order": 2}]]
    assert parity.digest(ValidationError("bad", rep)) == {"raised": "ValidationError('bad')"}


def test_compare_names_each_differing_case_and_its_first_path():
    def dumped(tree):
        return {"bits": tree, "values": tree}

    parent = {"a": dumped([1, {"x": "0x1p+0"}]), "b": dumped(2), "gone": dumped(3)}
    change = {"a": dumped([1, {"x": "0x1p+1"}]), "b": dumped(2), "new": dumped(4)}
    lines = parity.compare(parent, change)
    assert lines == [
        'a: values differ: [1]/x: "0x1p+0" != "0x1p+1"',
        'gone: values differ: /: 3 != "<missing>"',
        'new: values differ: /: "<missing>" != 4',
    ]


def test_each_differing_case_is_labelled_sign_of_zero_only_or_values_differ():
    coeffs = np.array([[1.0, 0.5, 0.0, complex(0.0, -0.0), 0.0, 0.25], [0.0] * 6])
    signed = coeffs.copy()
    signed[1, 2] = complex(-0.0, 0.0)
    nudged = coeffs.copy()
    nudged[0, 0] = np.nextafter(1.0, 2.0)
    base = _array(coeffs, [2, 2])
    parent = {name: parity.dump_case(x) for name, x in
              (("array", base), ("float", 0.0), ("complex", 1j), ("moved", base), ("same", base))}
    change = {name: parity.dump_case(x) for name, x in
              (("array", _array(signed, [2, 2])), ("float", -0.0), ("complex", complex(-0.0, 1.0)),
               ("moved", _array(nudged, [2, 2])), ("same", _array(coeffs, [2, 2])))}
    labels = [line.split(": ")[:2] for line in parity.compare(parent, change)]
    assert labels == [
        ["array", parity.SIGN_OF_ZERO],
        ["float", parity.SIGN_OF_ZERO],
        ["complex", parity.SIGN_OF_ZERO],
        ["moved", parity.VALUES_DIFFER],
    ]
    # a plain array, and a report text through its JSON
    assert parity.dump_case(np.array([-0.0, 1.0]))["values"] == parity.dump_case(np.array([0.0, 1.0]))["values"]
    assert parity.dump_case(np.array([-0.0, 1.0]))["bits"] != parity.dump_case(np.array([0.0, 1.0]))["bits"]
    assert parity.zero_blind(b'{"a": [-0.0, 1.5]}') == parity.zero_blind(b'{"a": [0.0, 1.5]}')
    assert parity.zero_blind(b'{"a": [-0.1]}') != parity.zero_blind(b'{"a": [0.1]}')


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


def test_kernel_outputs_are_the_results_the_kernel_grid_times(monkeypatch):
    timed = []
    monkeypatch.setattr(kernels, "_per_call_us", lambda call: timed.append(parity.digest(call())) or 0.0)
    kernels.grid(parity.SEED)
    outs = parity.kernel_outputs(parity.SEED)
    assert list(outs) == [f"v{nvars}k{order}" for nvars, order in kernels.GRID]
    assert [parity.digest(out[op]) for out in outs.values() for op in kernels.OPS] == timed
    assert outs["v2k4"]["matmul"].rows == outs["v2k4"]["matmul"].cols == 3
