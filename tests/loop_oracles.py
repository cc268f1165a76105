"""Nested-loop reference versions of the contraction-form checks.

These are the per-entry ``Jet`` loops that ``check_fmanifold``,
``check_gamma``, the general rotation operator, the Darboux-Egoroff
residuals and the Levi-Civita curvature oracle used before they were
written as ``JetArray`` contractions, plus the per-call composition loop
that ``Substitution`` replaced, the one-right-hand-side frame expansion
that ``malgrange.expand_in_frame`` batches, and the per-pair loops of the
Saito-bundle and Birkhoff-connection checks.  They are kept, for tests
only, as independent references: they read the model through
``model.mult``, convert bundle and connection data to lists of
``JetMatrix`` and use only the object kernel (``Jet``, ``JetVector``,
``JetMatrix``).
"""

from typing import Sequence

import numpy as np

from regfman import regend
from regfman.errors import HomogeneityError, NotPrimitiveError, ShapeError
from regfman.fman import FManifoldModel, mult_by_euler
from regfman.frob import epsilon_gram, euler_derivative, psi_epsilon_norm
from regfman.frob import levi_civita_curvature as lc_curvature
from regfman.jets import JetMatrix, JetVector, lie_bracket
from regfman.reports import Residual, ResidualReport, report_from


def commutator(a, b):
    return a @ b - b @ a


def apply(mat, vector):
    """A jet matrix applied to a constant vector, skipping zero components."""
    v = np.asarray(vector, dtype=np.complex128)
    if v.shape != (mat.cols,):
        raise ShapeError("vector length does not match matrix columns")
    out = []
    for i in range(mat.rows):
        acc = mat.space.zero()
        for j in range(mat.cols):
            if v[j] != 0:
                acc = acc + mat.entries[i][j].scale(v[j])
        out.append(acc)
    return JetVector(out)


def basis_field(model, i):
    sp = model.space
    return JetVector(sp.constant(1.0) if k == i else sp.zero() for k in range(model.dim))


def multiply(model, x, y):
    """(X o Y)^k = sum_{i,j} X^i Y^j c_ij^k, skipping vanishing factors."""
    out = [model.space.zero() for _ in range(model.dim)]
    for i in range(model.dim):
        if x[i].is_zero():
            continue
        for j in range(model.dim):
            if y[j].is_zero():
                continue
            f = x[i] * y[j]
            if f.is_zero():
                continue
            vec = model.mult[i][j]
            for k in range(model.dim):
                if not vec[k].is_zero():
                    out[k] = out[k] + f * vec[k]
    return JetVector(out)


def lie_derivative_of_mult(model, x, c, d):
    dc = basis_field(model, c)
    dd = basis_field(model, d)
    t1 = lie_bracket(x, model.mult[c][d])
    t2 = multiply(model, lie_bracket(x, dc), dd)
    t3 = multiply(model, dc, lie_bracket(x, dd))
    return t1 - t2 - t3


def partial_vector(model, v, c, d):
    return JetVector([model.mult[c][d][l].partial(v) for l in range(model.dim)])


def check_fmanifold(model):
    m = model.dim
    k_order = model.space.order

    commut = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            commut = max(commut, (model.mult[i][j] - model.mult[j][i]).residual_norm())

    assoc = 0.0
    for a in range(m):
        for b in range(a, m):
            ab = model.mult[a][b]
            for c in range(m):
                lhs = multiply(model, ab, basis_field(model, c))
                rhs = multiply(model, basis_field(model, a), model.mult[b][c])
                assoc = max(assoc, (lhs - rhs).residual_norm())

    unit_res = 0.0
    for b in range(m):
        diff = multiply(model, model.unit, basis_field(model, b)) - basis_field(model, b)
        unit_res = max(unit_res, diff.residual_norm())

    partial_c = [
        [[partial_vector(model, v, c, d) for d in range(m)] for c in range(m)]
        for v in range(m)
    ]
    integr = 0.0
    for a in range(m):
        for b in range(a, m):
            w = model.mult[a][b]
            for c in range(m):
                for d in range(c, m):
                    ccd = model.mult[c][d]
                    lhs = [model.space.zero(k_order - 1) for _ in range(m)]
                    for l in range(m):
                        acc = model.space.zero(k_order - 1)
                        for i in range(m):
                            if not w[i].is_zero():
                                acc = acc + w[i] * partial_c[i][c][d][l]
                            if not ccd[i].is_zero():
                                acc = acc - ccd[i] * partial_c[i][a][b][l]
                        lhs[l] = acc
                    for i in range(m):
                        dw_c = partial_c[c][a][b][i]
                        dw_d = partial_c[d][a][b][i]
                        if not dw_c.is_zero():
                            vec = model.mult[i][d]
                            for l in range(m):
                                if not vec[l].is_zero():
                                    lhs[l] = lhs[l] + dw_c * vec[l]
                        if not dw_d.is_zero():
                            vec = model.mult[c][i]
                            for l in range(m):
                                if not vec[l].is_zero():
                                    lhs[l] = lhs[l] + dw_d * vec[l]
                    rhs = multiply(
                        model, basis_field(model, a), partial_vector(model, b, c, d)
                    ) + multiply(model, basis_field(model, b), partial_vector(model, a, c, d))
                    integr = max(integr, (JetVector(lhs) - rhs).residual_norm())

    euler_res = 0.0
    for a in range(m):
        for b in range(a, m):
            lhs = lie_derivative_of_mult(model, model.euler, a, b)
            euler_res = max(euler_res, (lhs - model.mult[a][b]).residual_norm())

    return report_from(
        [
            ("commutativity", commut, k_order),
            ("associativity", assoc, k_order),
            ("unit", unit_res, k_order),
            ("integrability", integr, k_order - 1),
            ("euler", euler_res, k_order - 1),
        ]
    )


def gamma_general(psi, beta, model):
    n = model.dim
    sp = psi.space
    eps_inv = np.linalg.inv(epsilon_gram(psi.blocks))
    c = model.constant_structure()
    cot = np.einsum("sf,ift->ist", eps_inv, c)
    flat_psi = psi.flat()
    flat_beta = beta.flat()
    w = [[sp.zero() for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for t in range(n):
            acc = sp.zero()
            for i in range(n):
                if eps_inv[i, k] == 0:
                    continue
                for s in range(n):
                    coef = eps_inv[i, k] * cot[i, s, t]
                    if coef != 0:
                        acc = acc + flat_beta[s].scale(coef)
            w[k][t] = acc
    entries = [[sp.zero(sp.order - 1) for _ in range(n)] for _ in range(n)]
    for j in range(n):
        dpsi_j = [flat_psi[j].partial(k) for k in range(n)]
        for t in range(n):
            acc = sp.zero(sp.order - 1)
            for k in range(n):
                if not w[k][t].is_zero():
                    acc = acc + dpsi_j[k] * w[k][t]
            entries[t][j] = acc
    return JetMatrix(entries)


def check_gamma(gamma, psi, model):
    sp = psi.space
    n = model.dim
    g = gamma.matrix
    eps = JetMatrix.from_constant(sp, gamma.epsilon)
    sym = (eps @ g - g.T @ eps).residual_norm()
    norm_jet = psi_epsilon_norm(psi)
    norm_res = max(norm_jet.partial(v).residual_norm() for v in range(n))
    flat_psi = psi.flat()
    worst = 0.0
    for i in range(n):
        br = commutator(JetMatrix.from_constant(sp, model.mult_matrices()[i]), g)
        for j in range(n):
            acc = sp.zero(sp.order - 1)
            for k in range(n):
                if not br[k, j].is_zero():
                    acc = acc + flat_psi[k] * br[k, j]
            worst = max(worst, (flat_psi[j].partial(i) - acc).residual_norm())
    return report_from(
        [
            ("epsilon_symmetry", sym, g.eff_order()),
            ("psi_norm_constant", norm_res, norm_jet.eff_order - 1),
            ("necesitate", worst, sp.order - 1),
        ]
    )


def darboux_egoroff_matrix(gamma, model, i, j):
    sp = gamma.matrix.space
    cmats = [JetMatrix.from_constant(sp, m) for m in model.mult_matrices()]
    g = gamma.matrix
    return (
        commutator(cmats[i], g.partial(j))
        - commutator(cmats[j], g.partial(i))
        - commutator(commutator(cmats[i], g), commutator(cmats[j], g))
    )


def darboux_egoroff_residual(gamma, model):
    n = model.dim
    order = min(gamma.matrix.partial(v).eff_order() for v in range(n))
    entries = []
    for i in range(n):
        entries.append((f"de_{i}_{i}", 0.0, order))
        for j in range(i + 1, n):
            mat = darboux_egoroff_matrix(gamma, model, i, j)
            entries.append((f"de_{i}_{j}", mat.residual_norm(), order))
    return report_from(entries)


def levi_civita_curvature(gram, unit):
    """Returns (christoffel as nested lists, curvature report)."""
    n = gram.rows
    eff = gram.eff_order()
    ginv = gram.inverse()
    dg = [gram.partial(v) for v in range(n)]
    first = [
        [
            [(dg[i][j, k] + dg[j][i, k] - dg[k][i, j]).scale(0.5) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    chris = [
        [
            [_contract(ginv, first[i][j], l) for l in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(n):
                    r = chris[j][k][l].partial(i) - chris[i][k][l].partial(j)
                    for m in range(n):
                        r = r + chris[i][m][l] * chris[j][k][m] - chris[j][m][l] * chris[i][k][m]
                    worst = max(worst, r.residual_norm())
    worst_u = 0.0
    for i in range(n):
        for k in range(n):
            acc = unit[k].partial(i)
            for j in range(n):
                if not unit[j].is_zero():
                    acc = acc + chris[i][j][k] * unit[j]
            worst_u = max(worst_u, acc.residual_norm())
    report = ResidualReport(
        [("curvature", Residual(worst, eff - 2)), ("unit_parallel", Residual(worst_u, eff - 1))]
    )
    return chris, report


def _contract(ginv, row, l):
    acc = None
    for k in range(len(row)):
        term = ginv[l, k] * row[k]
        acc = term if acc is None else acc + term
    return acc


def compose(jet, subs):
    """Substitute ``subs[i]`` for variable ``i``, building every monomial of
    the substitution on each call."""
    target = subs[0].space
    eff = min([jet.eff_order] + [s.eff_order for s in subs])
    src = jet.space
    monomials = [None] * src.size
    monomials[0] = target.one()
    out = target.zero().coeffs.copy()
    for i, e in enumerate(src.exponents):
        if i == 0:
            mono = monomials[0]
        else:
            v = next(k for k, x in enumerate(e) if x > 0)
            low = list(e)
            low[v] -= 1
            prev = monomials[src.index_of[tuple(low)]]
            mono = prev * subs[v]
            monomials[i] = mono
        c = jet.coeffs[i]
        if c != 0:
            out = out + mono.coeffs * c
    return target._wrap(out, eff)


def expand_in_matrix_frame(frame: Sequence[JetMatrix], rhs: JetMatrix):
    """Coefficients f^k with sum_k f^k frame[k] = rhs, solved order by order
    against the constant terms of the frame, one right-hand side at a time;
    returns the coefficient jets and the final residual."""
    sp = rhs.space
    nf = len(frame)
    r, c = rhs.rows, rhs.cols
    m0 = np.column_stack([f.constant_term().reshape(-1) for f in frame])
    pinv = np.linalg.pinv(m0)
    eff = min([rhs.eff_order()] + [f.eff_order() for f in frame])
    coeff_arrays = [np.zeros(sp.size, dtype=np.complex128) for _ in range(nf)]
    for deg in range(sp.order + 1):
        partial = [sp.from_coeffs(arr) for arr in coeff_arrays]
        acc = JetMatrix.from_constant(sp, np.zeros((r, c)))
        for k in range(nf):
            if partial[k].is_zero():
                continue
            acc = acc + frame[k].scale(partial[k])
        resid = rhs - acc
        for idx in np.nonzero(sp.degrees == deg)[0]:
            vec = np.array(
                [resid.entries[i][j].coeffs[idx] for i in range(r) for j in range(c)]
            )
            if not vec.any():
                continue
            sol = pinv @ vec
            for k in range(nf):
                coeff_arrays[k][idx] = sol[k]
    coeffs = [sp.from_coeffs(arr, eff_order=eff) for arr in coeff_arrays]
    final = JetMatrix.from_constant(sp, np.zeros((r, c)))
    for k in range(nf):
        if not coeffs[k].is_zero():
            final = final + frame[k].scale(coeffs[k])
    return coeffs, (rhs - final).residual_norm()


# -- Saito bundles and Birkhoff connections ------------------------------------------


def _matrices(stack):
    return [stack[i].to_matrix() for i in range(len(stack))]


def _cov_endo(omega, i, mat):
    """(nabla_i R) = d_i R + [Omega_i, R] in the frame."""
    out = mat.partial(i)
    if omega is not None:
        out = out + commutator(omega, mat)
    return out


def check_saito_axioms(bundle):
    m = bundle.base_dim
    sp = bundle.space
    order = sp.order
    phi = _matrices(bundle.phi)
    r0 = bundle.r0.to_matrix()
    frame = None if bundle.frame_connection is None else _matrices(bundle.frame_connection)
    curvature = d_nabla_phi = phi_wedge = r0_phi = nabla_r0 = nabla_rinf = 0.0
    rinf_mat = JetMatrix.from_constant(sp, bundle.rinf)
    for i in range(m):
        omi = None if frame is None else frame[i]
        for j in range(i + 1, m):
            omj = None if frame is None else frame[j]
            if omi is not None or omj is not None:
                curv = omj.partial(i) - omi.partial(j) + commutator(omi, omj)
                curvature = max(curvature, curv.residual_norm())
            dphi = _cov_endo(omi, i, phi[j]) - _cov_endo(omj, j, phi[i])
            d_nabla_phi = max(d_nabla_phi, dphi.residual_norm())
            phi_wedge = max(phi_wedge, commutator(phi[i], phi[j]).residual_norm())
        r0_phi = max(r0_phi, commutator(r0, phi[i]).residual_norm())
        mixed = _cov_endo(omi, i, r0) + phi[i] - commutator(phi[i], rinf_mat)
        nabla_r0 = max(nabla_r0, mixed.residual_norm())
        if omi is not None:
            nabla_rinf = max(nabla_rinf, commutator(omi, rinf_mat).residual_norm())
    return report_from(
        [
            ("curvature", curvature, order - 1),
            ("phi_wedge_phi", phi_wedge, order),
            ("r0_phi_commute", r0_phi, order),
            ("d_nabla_phi", d_nabla_phi, order - 1),
            ("nabla_r0", nabla_r0, order - 1),
            ("nabla_rinf", nabla_rinf, order),
        ]
    )


def check_saito_metric_axioms(bundle):
    if bundle.metric is None:
        raise ShapeError("bundle has no metric")
    g = bundle.metric
    sp = bundle.space
    gm = JetMatrix.from_constant(sp, g)
    nabla_metric = 0.0
    if bundle.frame_connection is not None:
        for om in _matrices(bundle.frame_connection):
            nabla_metric = max(nabla_metric, (om.T @ gm + gm @ om).residual_norm())
    rinf_skew = float(np.max(np.abs(bundle.rinf.T @ g + g @ bundle.rinf)))
    r0 = bundle.r0.to_matrix()
    r0_sym = (r0.T @ gm - gm @ r0).residual_norm()
    phi_sym = max((p.T @ gm - gm @ p).residual_norm() for p in _matrices(bundle.phi))
    return report_from(
        [
            ("nabla_metric", nabla_metric, sp.order),
            ("rinf_skew", rinf_skew, sp.order),
            ("r0_symmetric", r0_sym, sp.order),
            ("phi_symmetric", phi_sym, sp.order),
        ]
    )


def birkhoff_flatness(connection):
    m = connection.base_dim
    sp = connection.space
    c = _matrices(connection.c)
    b0 = connection.b0.to_matrix()
    binf_mat = JetMatrix.from_constant(sp, connection.binf)
    c_commute = c_curl = b0_c = b0_mixed = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            c_commute = max(c_commute, commutator(c[i], c[j]).residual_norm())
            c_curl = max(c_curl, (c[j].partial(i) - c[i].partial(j)).residual_norm())
        b0_c = max(b0_c, commutator(b0, c[i]).residual_norm())
        mixed = b0.partial(i) + c[i] - commutator(binf_mat, c[i])
        b0_mixed = max(b0_mixed, mixed.residual_norm())
    return report_from(
        [
            ("c_commute", c_commute, sp.order),
            ("c_curl", c_curl, sp.order - 1),
            ("b0_c_commute", b0_c, sp.order),
            ("b0_mixed", b0_mixed, sp.order - 1),
        ]
    )


def fmanifold_from_saito(bundle, section, tol=1e-10):
    if bundle.base_dim != bundle.rank:
        raise ShapeError("a primitive section needs base dimension equal to the rank")
    s = np.asarray(section, dtype=np.complex128)
    n = bundle.rank
    phi = _matrices(bundle.phi)
    r0 = bundle.r0.to_matrix()
    cols = [apply(phi[i], s) for i in range(n)]
    iso = JetMatrix([[cols[i][k] for i in range(n)] for k in range(n)])
    if np.linalg.cond(iso.constant_term()) > 1.0 / max(tol, 1e-300):
        raise NotPrimitiveError("section is not primitive: I(0) is singular")
    iso_inv = iso.inverse()
    mult = [[iso_inv @ (phi[i] @ cols[j]) for j in range(n)] for i in range(n)]
    unit = apply(iso_inv, s)
    euler = iso_inv @ (-apply(r0, s))
    model = FManifoldModel(mult, unit, euler)
    u_model = mult_by_euler(model)
    conj_res = (u_model - -(iso_inv @ r0 @ iso)).residual_norm()
    spec_u = regend.jordan_spectrum(u_model.constant_term())
    spec_r = regend.jordan_spectrum(-r0.constant_term())
    return model, {
        "u_matches_conjugated_residue": conj_res,
        "origin_spectrum": spec_u,
        "residue_spectrum": spec_r,
        "spectra_match": spec_u.matches(spec_r),
    }


def frobenius_from_saito(bundle, section, weight_q, tol=1e-8):
    if bundle.metric is None:
        raise ShapeError("bundle has no metric")
    s = np.asarray(section, dtype=np.complex128)
    sp = bundle.space
    n = bundle.rank
    flat_res = 0.0
    if bundle.frame_connection is not None:
        for om in _matrices(bundle.frame_connection):
            flat_res = max(flat_res, float(np.max(np.abs(apply(om, s).constant_terms()))))
            flat_res = max(flat_res, apply(om, s).residual_norm())
    hom = float(np.max(np.abs(bundle.rinf @ s - complex(weight_q) * s)))
    if hom > tol * max(1.0, float(np.max(np.abs(s)))):
        raise HomogeneityError(f"section is not homogeneous of weight {weight_q}")
    model, _ = fmanifold_from_saito(bundle, s)
    phi = _matrices(bundle.phi)
    cols = [apply(phi[i], s) for i in range(n)]
    iso = JetMatrix([[cols[i][k] for i in range(n)] for k in range(n)])
    iso_inv = iso.inverse()
    gram = iso.T @ JetMatrix.from_constant(sp, bundle.metric) @ iso
    chris = lc_curvature(gram, model.unit).christoffel
    nabla_mat = euler_derivative(chris, model.euler).to_matrix()
    expected = iso_inv @ JetMatrix.from_constant(sp, bundle.rinf) @ iso
    expected = expected + JetMatrix.from_constant(sp, (1.0 - complex(weight_q)) * np.eye(n))
    rep = report_from(
        [
            ("section_flat", flat_res, sp.order),
            ("section_homogeneous", hom, sp.order),
            ("euler_derivative", (nabla_mat - expected).residual_norm(), sp.order - 1),
        ]
    )
    return gram, rep
