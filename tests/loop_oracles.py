"""Nested-loop reference versions of the contraction-form checks.

These are the per-entry ``Jet`` loops that ``check_fmanifold``,
``check_gamma``, the general rotation operator, the Darboux-Egoroff
residuals and the Levi-Civita curvature oracle used before they were
written as ``JetArray`` contractions, plus the per-call composition loop
that ``Substitution`` replaced and the one-right-hand-side frame expansion
that ``malgrange.expand_in_frame`` batches.  They are kept, for tests only,
as independent references: they read the model through ``model.mult`` and
use only the object kernel (``Jet``, ``JetVector``, ``JetMatrix``).
"""

from typing import Sequence

import numpy as np

from regfman.frob import epsilon_gram, psi_epsilon_norm
from regfman.jets import JetMatrix, JetVector, commutator, lie_bracket
from regfman.reports import Residual, ResidualReport, report_from


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
        acc = JetMatrix.zero(sp, r, c)
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
    final = JetMatrix.zero(sp, r, c)
    for k in range(nf):
        if not coeffs[k].is_zero():
            final = final + frame[k].scale(coeffs[k])
    return coeffs, (rhs - final).residual_norm()
