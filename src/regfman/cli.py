"""Command-line front end.

Documents are JSON trees (schema ``regfman-doc/1``): a task name, task
payload and settings.  Reports echo the task and settings and carry named
residuals with effective jet orders, per-check verdicts with the thresholds
that produced them, and a provenance block.  Reports are deterministic for a
fixed document: no timestamps, sorted keys.  The settings are the jet order
and the tolerance; ``regfman run`` overrides them with ``--order`` and
``--tol``.

Each task handler returns the body of its report, and the report's
``pass`` is the conjunction of the body's verdicts.

Exit status: 0 when all verdicts pass, 1 on verdict failure, 2 on malformed
input or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import fman, frob, malgrange, regend, saito
from .errors import DocumentError, RegfmanError, ShapeError, ValidationError
from .jets import DEFAULT_ORDER, JetArray, JetSpace, jet_space
from .regend import JordanSpectrum
from .reports import DEFAULT_TOLERANCE, ResidualReport

DOC_SCHEMA = "regfman-doc/1"
REPORT_SCHEMA = "regfman-report/1"
ENV_TOLERANCE = "REGFMAN_TOL"


# -- document decoding ---------------------------------------------------------


def _fail(msg: str, field: str):
    raise DocumentError(msg, field)


def _is_int(data) -> bool:
    """A JSON integer: ``true`` and ``false`` are not numbers."""
    return isinstance(data, int) and not isinstance(data, bool)


def _is_number(data) -> bool:
    """A JSON number that converts to a float: a float, or an integer
    within the float range; not a boolean or a string."""
    return isinstance(data, float) or (_is_int(data) and abs(data) <= sys.float_info.max)


def _int_in(data, message: str, field: str) -> int:
    if not _is_int(data):
        _fail(message, field)
    return data


def _complex_in(data, field: str) -> complex:
    if _is_number(data):
        z = complex(data)
    elif isinstance(data, list) and len(data) == 2 and all(_is_number(x) for x in data):
        z = complex(data[0], data[1])
    else:
        _fail("expected a number or [re, im] pair", field)
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        _fail("value is not finite", field)
    return z


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _jet_in(space: JetSpace, data, field: str) -> tuple[np.ndarray, int]:
    """The coefficients of one jet, in the space's monomial order, and the
    order it is trusted to."""
    eff_order = space.order
    if isinstance(data, dict):
        if set(data) != {"terms", "eff_order"}:
            _fail('expected {"terms": [...], "eff_order": e}', field)
        eff_order = data["eff_order"]
        if not _is_int(eff_order) or eff_order < 0:
            _fail("eff_order must be a non-negative integer", f"{field}/eff_order")
        data, field = data["terms"], f"{field}/terms"
    if not isinstance(data, list):
        _fail("expected a list of (multi-index, [re, im]) entries", field)
    rows, values = [], []
    for k, item in enumerate(data):
        here = f"{field}[{k}]"
        if not (isinstance(item, list) and len(item) == 2):
            _fail("expected [multi_index, [re, im]]", here)
        idx, val = item
        if not (isinstance(idx, list) and all(_is_int(x) for x in idx)):
            _fail("multi-index must be a list of integers", here)
        if len(idx) != space.num_vars:
            _fail(f"multi-index length {len(idx)} != {space.num_vars}", here)
        if any(x < 0 for x in idx):
            _fail("multi-index entries must be non-negative", here)
        if sum(idx) > space.order:
            _fail(f"multi-index degree {sum(idx)} exceeds order {space.order}", here)
        rows.append(idx)
        values.append(_complex_in(val, here))
    coeffs = np.zeros(space.size, dtype=np.complex128)
    # in document order, so repeated terms add up as listed
    np.add.at(coeffs, space.index_of(np.array(rows, dtype=np.int64).reshape(-1, space.num_vars)), values)
    return coeffs, min(eff_order, space.order)


def _jet_array(space: JetSpace, jets: list, shape: tuple[int, ...] | None = None) -> JetArray:
    """Decoded jets (see :func:`_jet_in`) as one array, of shape ``shape``
    (one axis by default)."""
    shape = (len(jets),) if shape is None else shape
    coeffs = np.array([c for c, _ in jets]).reshape(shape + (space.size,))
    return JetArray.from_coeffs(space, coeffs, np.array([e for _, e in jets]).reshape(shape))


def _jets_out(space: JetSpace, coeffs: np.ndarray) -> list:
    """The nonzero terms of the jet in each row of ``coeffs``, as
    ``[multi_index, [re, im]]`` in ascending multi-index order."""
    out = []
    for c in coeffs:
        nz = np.flatnonzero(c)
        nz = nz[np.lexsort(space.exponents[nz].T[::-1])]
        out.append([[e, _complex_out(z)] for e, z in zip(space.exponents[nz].tolist(), c[nz])])
    return out


def _matrix_in(data, field: str) -> np.ndarray:
    if not (isinstance(data, list) and data and all(isinstance(r, list) for r in data)):
        _fail("expected a row-major nested list", field)
    rows = len(data)
    cols = len(data[0])
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if len(row) != cols:
            _fail("ragged matrix rows", f"{field}[{i}]")
        for j, v in enumerate(row):
            out[i, j] = _complex_in(v, f"{field}[{i}][{j}]")
    return out


def _jet_matrix_in(space: JetSpace, data, field: str) -> JetArray:
    if not (isinstance(data, list) and data and all(isinstance(r, list) for r in data)):
        _fail("expected a row-major nested list of jets", field)
    if not data[0] or any(len(row) != len(data[0]) for row in data):
        _fail("matrix rows must be non-empty and of equal length", field)
    jets = [
        _jet_in(space, cell, f"{field}[{i}][{j}]")
        for i, row in enumerate(data)
        for j, cell in enumerate(row)
    ]
    return _jet_array(space, jets, (len(data), len(data[0])))


def _jet_matrices_in(data, num_vars: int, order: int, name: str, field: str) -> list[JetArray]:
    """One decoded jet matrix per base variable, counted before their space
    is built; the caller stacks them, as their shapes may differ."""
    if not (isinstance(data, list) and len(data) == num_vars):
        _fail(f"{name} must list one jet matrix per base variable", field)
    space = jet_space(num_vars, order)
    return [_jet_matrix_in(space, m, f"{field}[{i}]") for i, m in enumerate(data)]


def _spectrum_in(data, field: str) -> JordanSpectrum:
    if not (isinstance(data, list) and data):
        _fail("expected a non-empty list of {re, im, size}", field)
    blocks = []
    for k, item in enumerate(data):
        here = f"{field}[{k}]"
        if not isinstance(item, dict):
            _fail("expected {re, im, size}", here)
        re, im, size = item.get("re", 0.0), item.get("im", 0.0), item.get("size")
        if not (_is_number(re) and _is_number(im) and _is_int(size)):
            _fail("expected numeric re/im and integer size", here)
        ev = complex(re, im)
        if not np.isfinite(ev.real) or not np.isfinite(ev.imag):
            _fail("eigenvalue is not finite", here)
        blocks.append((ev, size))
    try:
        return JordanSpectrum(tuple(blocks))
    except RegfmanError as exc:
        _fail(str(exc), field)


def _spectrum_out(spec: JordanSpectrum) -> list:
    return [
        {"re": float(a.real), "im": float(a.imag), "size": int(m)}
        for a, m in spec.blocks
    ]


def _model_in(payload: dict, order: int, field: str) -> fman.FManifoldModel:
    if not isinstance(payload, dict):
        _fail("expected an object with 'spectrum' or 'model'", field)
    if "spectrum" in payload:
        return fman.standard_model(_spectrum_in(payload["spectrum"], f"{field}/spectrum"), order)
    if "model" not in payload:
        _fail("payload needs 'spectrum' or 'model'", field)
    m = payload["model"]
    if not isinstance(m, dict):
        _fail("model must be an object", f"{field}/model")
    dim = _int_in(m.get("dim"), "model.dim must be an integer", f"{field}/model/dim")
    if dim < 1:
        _fail("model.dim must be positive", f"{field}/model/dim")
    sp = jet_space(dim, order)
    mult = np.zeros((dim, dim, dim, sp.size), dtype=np.complex128)
    mult_eff = np.full((dim, dim, dim), order)
    items = m.get("mult", [])
    if not isinstance(items, list):
        _fail("model.mult must be a list of {i, j, k, jet}", f"{field}/model/mult")
    for k, item in enumerate(items):
        here = f"{field}/model/mult[{k}]"
        if not isinstance(item, dict):
            _fail("expected {i, j, k, jet}", here)
        i, j, kk = (_int_in(item.get(x), "expected integer i, j, k", here) for x in "ijk")
        if not all(0 <= x < dim for x in (i, j, kk)):
            _fail("structure index out of range", here)
        mult[i, j, kk], mult_eff[i, j, kk] = _jet_in(sp, item.get("jet", []), f"{here}/jet")
    unit = m.get("unit")
    euler = m.get("euler")
    if unit is None or euler is None:
        _fail("model needs unit and euler component lists", f"{field}/model")
    for name, comps in (("unit", unit), ("euler", euler)):
        if not isinstance(comps, list):
            _fail(f"model.{name} must be a list of jets", f"{field}/model/{name}")
    if len(unit) != dim or len(euler) != dim:
        _fail("unit/euler must have dim components", f"{field}/model")
    unit_v = _jet_array(sp, [_jet_in(sp, c, f"{field}/model/unit[{i}]") for i, c in enumerate(unit)])
    euler_v = _jet_array(sp, [_jet_in(sp, c, f"{field}/model/euler[{i}]") for i, c in enumerate(euler)])
    return fman.FManifoldModel(JetArray.from_coeffs(sp, mult, mult_eff), unit_v, euler_v)


def _model_out(model: fman.FManifoldModel) -> dict:
    sp, c = model.space, model.structure.coeffs
    used = np.nonzero(c.any(axis=-1))
    mult = [
        {"i": int(i), "j": int(j), "k": int(k), "jet": jet}
        for i, j, k, jet in zip(*used, _jets_out(sp, c[used]))
    ]
    return {
        "dim": model.dim,
        "order": sp.order,
        "mult": mult,
        "unit": _jets_out(sp, model.unit.coeffs),
        "euler": _jets_out(sp, model.euler.coeffs),
    }


# -- settings -------------------------------------------------------------------


def _default_tolerance() -> float:
    """The tolerance of ``REGFMAN_TOL``, read only when neither the
    document nor ``--tol`` sets one."""
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        val = float(raw)
    except ValueError:
        raise DocumentError(f"cannot parse {ENV_TOLERANCE}={raw!r}", "environment")
    if not np.isfinite(val) or val <= 0:
        raise DocumentError(f"{ENV_TOLERANCE} must be positive and finite", "environment")
    return val


def _settings_in(doc: dict, args) -> dict:
    """The order and tolerance of a run; a bad value is refused on the field
    it came from: the flag, the document setting or the environment."""
    raw = doc.get("settings", {})
    if not isinstance(raw, dict):
        _fail("settings must be an object", "settings")
    if args.order is not None:
        order, order_field = args.order, "--order"
    else:
        order, order_field = raw.get("order", DEFAULT_ORDER), "settings/order"
    if args.tol is not None:
        tolerance, tolerance_field = args.tol, "--tol"
    elif "tolerance" in raw:
        tolerance, tolerance_field = raw["tolerance"], "settings/tolerance"
    else:
        tolerance, tolerance_field = _default_tolerance(), "environment"
    if not _is_int(order) or order < 1:
        _fail("order must be an integer >= 1", order_field)
    if not _is_number(tolerance) or not np.isfinite(tolerance) or tolerance <= 0:
        _fail("tolerance must be positive and finite", tolerance_field)
    return {"order": order, "tolerance": float(tolerance)}


# -- task handlers ---------------------------------------------------------------


def _verdict(passed: bool, residual: float, threshold: float, order: int | None = None) -> dict:
    """One verdict: its bit, and the residual and threshold that gave it;
    a verdict on one residual of a report also records its order."""
    out = {"pass": bool(passed), "residual": float(residual), "threshold": threshold}
    if order is not None:
        out["order"] = int(order)
    return out


def _report_body(report: ResidualReport, tol: float) -> dict:
    """The body of a report on one residual table: the table, and one
    verdict per residual."""
    return {
        "residuals": report.to_dict(),
        "verdicts": {name: _verdict(r.value <= tol, r.value, tol, r.order) for name, r in report.items()},
    }


def _run_verify_fmanifold(payload, settings):
    model = _model_in(payload, settings["order"], "payload")
    return _report_body(fman.check_fmanifold(model), settings["tolerance"])


def _run_standard_model(payload, settings):
    spec = _spectrum_in(payload.get("spectrum"), "payload/spectrum")
    model = fman.standard_model(spec, settings["order"])
    body = _report_body(fman.check_fmanifold(model), settings["tolerance"])
    body.update({"model": _model_out(model), "spectrum": _spectrum_out(spec)})
    return body


def _metric_in(payload, model, field):
    if model.blocks is None:
        _fail("metric tasks need a model with block structure", field)
    sizes = [m for _, m in model.blocks]
    sp = model.space
    if "potential" in payload:
        pot = _jet_array(sp, [_jet_in(sp, payload["potential"], f"{field}/potential")], ())
        return frob.metric_from_potential(pot, sizes)
    if "eta" not in payload:
        _fail("payload needs 'eta' (per block) or 'potential'", field)
    eta_in = payload["eta"]
    if not (isinstance(eta_in, list) and len(eta_in) == len(sizes)):
        _fail(f"eta must have one family per block ({len(sizes)})", f"{field}/eta")
    eta = []
    for a, (m, fam) in enumerate(zip(sizes, eta_in)):
        if not (isinstance(fam, list) and len(fam) == m):
            _fail(f"eta family {a} must have {m} jets", f"{field}/eta[{a}]")
        eta += [_jet_in(sp, j, f"{field}/eta[{a}][{i}]") for i, j in enumerate(fam)]
    return frob.InvariantMetric(sizes, _jet_array(sp, eta))


def _run_verify_frobenius(payload, settings):
    model = _model_in(payload, settings["order"], "payload")
    metric = _metric_in(payload, model, "payload")
    weight = None
    if "weight" in payload:
        weight = _complex_in(payload["weight"], "payload/weight")
    tol = settings["tolerance"]
    oracle_tol = max(tol, 1e-8)
    try:
        verdict = frob.frobenius_verdict(metric, model, weight=weight, tolerance=tol, run_oracle=True)
    except ShapeError as exc:  # a metric below the verdict's order floor
        _fail(str(exc), "payload/potential" if "potential" in payload else "payload/eta")
    oracle = verdict.oracle.report()
    return {
        "residuals": verdict.report.to_dict(),
        "darboux_egoroff_table": verdict.de_table.to_dict(),
        "oracle": oracle.to_dict(),
        "weight": _complex_out(verdict.weight),
        "weight_solved": verdict.weight_solved,
        "verdicts": {
            "frobenius": _verdict(verdict.passed, verdict.report.max_value(), tol),
            "oracle_agrees": _verdict(
                verdict.passed == oracle.passes(oracle_tol), oracle.max_value(), oracle_tol
            ),
        },
    }


def _run_symmetries(payload, settings):
    m = _int_in(payload.get("m"), "payload needs an integer block size 'm'", "payload/m")
    if m < 2:
        _fail("the symmetry algebra needs m >= 2", "payload/m")
    order = settings["order"]
    model = fman.standard_block(0.0, m, order)
    table = ResidualReport()
    for idx, y in enumerate(fman.symmetry_basis(m, order), start=1):
        table = table.merged(fman.check_symmetry(model, y), prefix=f"field_{idx}_")
    table = table.merged(fman.check_symmetry_brackets(m, order))
    return _report_body(table, settings["tolerance"])


def _bundle_in(payload, settings, field):
    data = payload.get("bundle")
    if not isinstance(data, dict):
        _fail("payload needs a 'bundle' object", field)
    base_dim = _int_in(
        data.get("base_dim"), "bundle.base_dim must be an integer", f"{field}/bundle/base_dim"
    )
    if base_dim < 1:
        _fail("bundle.base_dim must be positive", f"{field}/bundle/base_dim")
    order = settings["order"]
    phi = _jet_matrices_in(data.get("phi"), base_dim, order, "bundle.phi", f"{field}/bundle/phi")
    r0 = _jet_matrix_in(jet_space(base_dim, order), data.get("r0"), f"{field}/bundle/r0")
    rinf = _matrix_in(data.get("rinf"), f"{field}/bundle/rinf")
    frame = data.get("frame_connection")
    if frame is not None:
        frame = _jet_matrices_in(
            frame, base_dim, order, "bundle.frame_connection", f"{field}/bundle/frame_connection"
        )
    metric = data.get("metric")
    metric_mat = None if metric is None else _matrix_in(metric, f"{field}/bundle/metric")
    try:
        return saito.SaitoBundle(
            JetArray.stack(phi),
            r0,
            rinf,
            frame_connection=None if frame is None else JetArray.stack(frame),
            metric=metric_mat,
        )
    except RegfmanError as exc:
        _fail(str(exc), f"{field}/bundle")


def _run_saito_check(payload, settings):
    bundle = _bundle_in(payload, settings, "payload")
    rep = saito.check_saito_axioms(bundle)
    if bundle.metric is not None:
        rep = rep.merged(saito.check_saito_metric_axioms(bundle), prefix="metric_")
    return _report_body(rep, settings["tolerance"])


def _connection_in(payload, settings, field):
    data = payload.get("connection")
    if not isinstance(data, dict):
        _fail("payload needs a 'connection' object", field)
    cs = data.get("c")
    if not (isinstance(cs, list) and cs):
        _fail("connection.c must be a non-empty list of jet matrices", f"{field}/connection/c")
    sp = jet_space(len(cs), settings["order"])
    c_mats = [_jet_matrix_in(sp, c, f"{field}/connection/c[{i}]") for i, c in enumerate(cs)]
    b0 = _jet_matrix_in(sp, data.get("b0"), f"{field}/connection/b0")
    binf = _matrix_in(data.get("binf"), f"{field}/connection/binf")
    try:
        return saito.BirkhoffConnection(b0, binf, JetArray.stack(c_mats))
    except RegfmanError as exc:
        _fail(str(exc), f"{field}/connection")


def _run_birkhoff_flatness(payload, settings):
    conn = _connection_in(payload, settings, "payload")
    rep = saito.birkhoff_flatness(conn)
    cross = saito.check_saito_axioms(saito.birkhoff_to_saito(conn))
    tol = settings["tolerance"]
    body = _report_body(rep, tol)
    body["saito_axioms"] = cross.to_dict()
    body["verdicts"]["saito_equivalence"] = _verdict(
        rep.passes(tol) == cross.passes(tol), cross.max_value(), tol
    )
    return body


def _run_malgrange_chart(payload, settings):
    b0o = _matrix_in(payload.get("b0o"), "payload/b0o")
    binf = _matrix_in(payload.get("binf"), "payload/binf")
    try:
        spec = malgrange.DeformationSpec(b0o, binf)
    except RegfmanError as exc:
        # the spec checks that b0o is square before it compares binf with it
        bad_binf = b0o.shape[0] == b0o.shape[1] and binf.shape != b0o.shape
        _fail(str(exc), "payload/binf" if bad_binf else "payload/b0o")
    chart = malgrange.integrate_chart(spec, settings["order"])
    integral = malgrange.check_integrality(chart)
    flat = saito.birkhoff_flatness(malgrange.canonical_connection(chart))
    model = malgrange.fmanifold_on_chart(chart)
    axioms = fman.check_fmanifold(model)
    iso = malgrange.check_universality_isomorphism(chart, model)
    spec_model, spec_seed = iso.spectra
    spectra_match = spec_model.matches(spec_seed)
    rep = (
        integral.merged(flat, prefix="connection_")
        .merged(axioms, prefix="model_")
        .merged(iso.report, prefix="iso_")
    )
    body = _report_body(rep, max(settings["tolerance"], 1e-7))
    body["verdicts"]["spectrum_match"] = _verdict(
        spectra_match, 0.0 if spectra_match else 1.0, regend.CLUSTER_TOL
    )
    body.update({"origin_spectrum": _spectrum_out(spec_model), "seed_spectrum": _spectrum_out(spec_seed)})
    return body


def _run_extend_metric(payload, settings):
    spec = _spectrum_in(payload.get("spectrum"), "payload/spectrum")
    gram = _matrix_in(payload.get("gram"), "payload/gram")
    skew = _matrix_in(payload.get("skew"), "payload/skew")
    weight = _complex_in(payload.get("weight", 2.0), "payload/weight")
    tol = settings["tolerance"]
    valid_tol = max(tol, 1e-8)
    model = fman.standard_model(spec, settings["order"])
    for name, matrix in (("gram", gram), ("skew", skew)):
        if matrix.shape != (model.dim, model.dim):
            _fail(f"{name} must be {model.dim} x {model.dim}, the spectrum's dimension", f"payload/{name}")
    data = malgrange.InitialData(model=model, gram=gram, skew=skew, weight=weight)
    try:
        result = malgrange.initial_condition_extend(data, tolerance=tol, validation_tolerance=valid_tol)
        validation = result.validation
    except ValidationError as exc:
        result, validation = None, exc.report
    body = {
        "validation": validation.residuals.to_dict(),
        "gram_condition": float(validation.gram_condition),
        "verdicts": {
            "initial_data_valid": _verdict(result is not None, validation.residuals.max_value(), valid_tol)
        },
    }
    if result is None:
        return body
    verdicts = body["verdicts"]
    verdicts["frobenius"] = _verdict(result.verdict.passed, result.verdict.report.max_value(), tol)
    for name, threshold in (("origin_match", max(tol, 1e-9)), ("euler_derivative_origin", max(tol, 1e-7))):
        value = result.report[name].value
        verdicts[name] = _verdict(value <= threshold, value, threshold)
    body.update(
        {
            "metric_eta": [_jets_out(fam.space, fam.coeffs) for fam in result.metric.eta],
            "residuals": result.report.to_dict(),
            "frobenius_residuals": result.verdict.report.to_dict(),
            "regularity_probe": result.regularity_probe,
        }
    )
    return body


def _run_germ_iso(payload, settings):
    model_a = _model_in(payload.get("model_a", {}), settings["order"], "payload/model_a")
    model_b = _model_in(payload.get("model_b", {}), settings["order"], "payload/model_b")
    iso = fman.germ_isomorphism(model_a, model_b)
    body = _report_body(iso.report, max(settings["tolerance"], 1e-7))
    body["map"] = _jets_out(iso.map.space, iso.map.coeffs)
    return body


_HANDLERS = {
    "verify-fmanifold": _run_verify_fmanifold,
    "standard-model": _run_standard_model,
    "verify-frobenius": _run_verify_frobenius,
    "symmetries": _run_symmetries,
    "saito-check": _run_saito_check,
    "birkhoff-flatness": _run_birkhoff_flatness,
    "malgrange-chart": _run_malgrange_chart,
    "extend-metric": _run_extend_metric,
    "germ-iso": _run_germ_iso,
}
TASKS = tuple(_HANDLERS)


# -- explain ---------------------------------------------------------------------

_EXPLAIN = {
    "verify-fmanifold": [
        ("commutativity", "c_ij^k - c_ji^k = 0 for the structure jets"),
        ("associativity", "(X o Y) o Z - X o (Y o Z) = 0 over coordinate fields"),
        ("unit", "e o X - X = 0"),
        (
            "integrability",
            "L_{XoY}(o) - X o L_Y(o) - Y o L_X(o) = 0 "
            "(the defining integrability condition of the multiplication)",
        ),
        ("euler", "L_E(o)(X, Y) - X o Y = 0 (Euler-field condition)"),
    ],
    "standard-model": [
        ("*", "same residuals as verify-fmanifold, applied to the canonical model"),
    ],
    "verify-frobenius": [
        ("epsilon_symmetry", "the rotation operator is symmetric for the block pairing"),
        ("psi_norm_constant", "epsilon(psi, psi) = sum_{i+j=m-1} psi_i psi_j is constant"),
        ("necesitate", "d_i(psi_j) = (psi [C_i, gamma])_j (derivative law of the one-form)"),
        (
            "darboux_egoroff",
            "[C_i, d_j gamma] - [C_j, d_i gamma] - [[C_i, gamma], [C_j, gamma]] = 0 "
            "(generalized Darboux-Egoroff system)",
        ),
        ("coidentity_closed", "d(e-flat) = 0: the metric has a local potential"),
        ("unit_derivative", "e(eta) = 0: the metric components do not depend on the unit direction"),
        ("euler_rescaling", "E(eta_i) = (D-2) eta_i for the rescaling weight D"),
        ("oracle curvature", "independent Levi-Civita check: Riemann tensor of the metric"),
        ("oracle unit_parallel", "independent Levi-Civita check: covariant constancy of the unit"),
    ],
    "symmetries": [
        ("mult_invariance", "L_Y(o) = 0 for each basis field"),
        ("euler_commute", "[Y, E] = 0"),
        ("circ_unit", "[d_0, Y] = 0"),
        ("circ_top", "[d_1, Y] o d_{m-1} = 0"),
        ("circ_chain", "[d_i, Y] = i d_{i-1} o [d_1, Y] for 2 <= i <= m-1"),
        ("bracket_i_j", "[Y_i, Y_j] = (i-j) Y_{i+j-1} for i+j <= m, zero above"),
    ],
    "saito-check": [
        ("curvature", "flatness of the frame connection"),
        ("phi_wedge_phi", "Phi_i Phi_j - Phi_j Phi_i = 0"),
        ("r0_phi_commute", "[R0, Phi_i] = 0"),
        ("d_nabla_phi", "nabla_i(Phi_j) - nabla_j(Phi_i) = 0"),
        ("nabla_r0", "nabla(R0) + Phi = [Phi, Rinf]"),
        ("nabla_rinf", "nabla(Rinf) = 0"),
        ("metric_*", "Gram flatness, Rinf skew, R0 and Phi symmetric for the bundle metric"),
    ],
    "birkhoff-flatness": [
        ("c_commute", "[C_i, C_j] = 0 (tau^-2 dx^dx coefficient)"),
        ("c_curl", "d_i C_j - d_j C_i = 0 (tau^-1 dx^dx coefficient)"),
        ("b0_c_commute", "[B0, C_i] = 0 (tau^-3 dtau^dx coefficient)"),
        ("b0_mixed", "d_i B0 + C_i = [Binf, C_i] (tau^-2 dtau^dx coefficient)"),
        ("saito_equivalence", "the four groups vanish iff the induced Saito axioms do"),
    ],
    "malgrange-chart": [
        ("tangency_i", "each chart direction lies in the span of the residue powers"),
        ("closure_i_j", "tangent products re-expand in the tangent frame"),
        ("connection_*", "flatness groups of the canonical connection on the chart"),
        ("model_*", "axioms of the induced multiplication on the chart"),
        ("iso_*", "transport of the canonical frame to the standard model"),
        ("spectrum_match", "origin spectrum equals the spectrum of minus the seed residue"),
    ],
    "extend-metric": [
        ("validation companion_shape", "origin multiplication is a companion matrix in the Euler-power basis"),
        ("validation gram_invariance", "the pairing is multiplication invariant (Hankel moments)"),
        ("validation skew_symmetry", "the endomorphism is skew for the pairing"),
        ("validation unit_column", "the endomorphism fixes the unit direction up to 1 - D/2"),
        ("origin_match", "the extended metric restricts to the given pairing at the origin"),
        ("frobenius", "full Frobenius verdict of the extension at the given weight"),
        ("euler_derivative_origin", "nabla(E) at the origin equals the skew part plus D/2 times the identity"),
        ("chart_in_symmetric_matrices", "the chart stays inside the pairing-symmetric matrices"),
    ],
    "germ-iso": [
        ("frame_transport_i", "the map sends the i-th Euler power of A to that of B"),
        ("multiplicativity", "the differential of the map intertwines the multiplications"),
        ("euler_power_i", "transport of higher Euler powers (uniqueness witnesses)"),
    ],
}


def _known_task(task) -> str:
    if task not in TASKS:
        _fail(f"unknown task {task!r}; expected one of {', '.join(TASKS)}", "task")
    return task


def explain(task: str) -> str:
    _known_task(task)
    lines = [f"{task}: residual names and the identities they measure", ""]
    for name, text in _EXPLAIN[task]:
        lines.append(f"  {name:24s} {text}")
    return "\n".join(lines)


# -- driver ----------------------------------------------------------------------


def run_document(doc: dict, args) -> tuple[dict, bool]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object", "")
    schema = doc.get("schema", DOC_SCHEMA)
    if schema != DOC_SCHEMA:
        raise DocumentError(f"unsupported schema {schema!r}", "schema")
    task = _known_task(doc.get("task"))
    settings = _settings_in(doc, args)
    payload = doc.get("payload", {})
    if not isinstance(payload, dict):
        raise DocumentError("payload must be an object", "payload")
    body = _HANDLERS[task](payload, settings)
    passed = all(v["pass"] for v in body["verdicts"].values())
    report = {
        "schema": REPORT_SCHEMA,
        "task": task,
        "settings": settings,
        "pass": passed,
        "provenance": {
            "tool": "regfman",
            "version": __version__,
            "eigenvalue_clustering": {
                "requested_tolerance": regend.CLUSTER_TOL,
                "note": (
                    "threshold widened by the eps**(1/n) eigenvalue scatter "
                    "of multiplicity-n clusters; surfaced, not hidden"
                ),
            },
        },
    }
    report.update(body)
    return report, passed


def _summary_lines(report: dict) -> list[str]:
    lines = [f"task {report['task']}: {'PASS' if report['pass'] else 'FAIL'}"]
    for name, v in sorted(report["verdicts"].items()):
        status = "PASS" if v["pass"] else "FAIL"
        lines.append(
            f"  {status} {name}: residual {v['residual']:.3e} (threshold {v['threshold']:.1e})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regfman",
        description="verify canonical models of regular F-manifolds and their Frobenius metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a problem document and emit a report")
    runp.add_argument("document", help="path to a JSON document, or '-' for standard input")
    runp.add_argument("--order", type=int, default=None, help="override the jet order")
    runp.add_argument("--tol", type=float, default=None, help="override the tolerance")
    runp.add_argument("--out", default=None, help="write the JSON report to this path")
    runp.add_argument(
        "--summary", action="store_true", help="print a plain-text verdict summary"
    )
    exp = sub.add_parser("explain", help="describe the residuals of a task")
    exp.add_argument("task", help="task name")
    args = parser.parse_args(argv)

    if args.command == "explain":
        try:
            print(explain(args.task))
        except RegfmanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        if args.document == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.document, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read document: {exc}", file=sys.stderr)
        return 2

    try:
        report, passed = run_document(doc, args)
    except RegfmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        if args.summary:
            print("\n".join(_summary_lines(report)))
    else:
        print(text)
        if args.summary:
            print("\n".join(_summary_lines(report)), file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
