"""Nested-loop reference versions of the contraction-form checks.

These are the per-entry ``Jet`` loops that the package's checks used before
they were written as ``JetArray`` contractions: ``check_fmanifold``, the
symmetry and canonical-frame bracket checks, ``check_gamma``, the rotation
operator (general and single-block), the Darboux-Egoroff residuals, the
one-form chain psi -> beta and its products and their block indices, the
unit and Euler laws of a metric and the Levi-Civita curvature oracle; plus the per-call composition
loop that ``Substitution`` replaced, the one-right-hand-side frame
expansion that ``malgrange.expand_in_frame`` batches, and the per-pair
loops of the Saito-bundle and Birkhoff-connection checks.  The last
section holds the order-by-order stages (chart flows, frame expansion,
germ-isomorphism solve, substitution table) at the full jet order in
every step, and the oracle residuals with their quadratic terms uncapped:
the references of the stages that stop at the degree each step fixes.  The
entry-by-entry admissibility checks of ``validate_initial_data`` end it.
They are kept, for tests only, as independent references: they read
models, metrics and one-forms through ``Jet`` indexing, convert jet arrays
to ``JetVector`` and ``JetMatrix`` and use only the object kernel (``Jet``
arithmetic, ``JetVector``, ``JetMatrix``).  ``JetVector`` and ``lie_bracket`` were the
package's own vector-field containers before fields became jet arrays.
"""

import itertools
from typing import Iterable, Sequence

import numpy as np

from regfman import fman, malgrange, regend
from regfman.errors import HomogeneityError, NotPrimitiveError, ShapeError
from regfman.fman import BracketConstants, FManifoldModel, mult_by_euler, standard_block
from regfman.frob import epsilon_gram, euler_derivative
from regfman.frob import levi_civita_curvature as lc_curvature
from regfman.jets import Jet, JetArray, JetMatrix, contract, jet_space
from regfman.reports import Residual, ResidualReport, report_from


# -- the object kernel's vectors ------------------------------------------------


class JetVector:
    """Ordered list of jets sharing one space; models a vector field in
    coordinates.  Built from any iterable of jets (a jet array included);
    the binary operations accept any sequence of jets as the other operand."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Jet]):
        comp = tuple(components)
        if not comp:
            raise ShapeError("JetVector must be non-empty")
        sp = comp[0].space
        for c in comp[1:]:
            if c.space is not sp:
                raise ShapeError("JetVector components must share one space")
        self.components = comp

    @property
    def space(self):
        return self.components[0].space

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __add__(self, other) -> "JetVector":
        return JetVector(a + b for a, b in zip(self.components, other))

    def __sub__(self, other) -> "JetVector":
        return JetVector(a - b for a, b in zip(self.components, other))

    def __neg__(self):
        return JetVector(-a for a in self.components)

    def scale(self, f) -> "JetVector":
        if isinstance(f, Jet):
            return JetVector(a * f for a in self.components)
        return JetVector(a.scale(f) for a in self.components)

    def apply_to(self, f: Jet) -> Jet:
        """Directional derivative X(f) = sum_i X^i d_i f."""
        out = self.components[0] * f.partial(0)
        for v in range(1, len(self.components)):
            out = out + self.components[v] * f.partial(v)
        return out

    def constant_terms(self) -> np.ndarray:
        return np.array([c.value0 for c in self.components], dtype=np.complex128)

    def residual_norm(self) -> float:
        return max(c.residual_norm() for c in self.components)

    def __repr__(self):
        return f"JetVector({list(self.components)!r})"


def lie_bracket(x, y) -> JetVector:
    """[X, Y]^k = X(Y^k) - Y(X^k), componentwise in jets."""
    x, y = JetVector(x), JetVector(y)
    return JetVector(
        x.apply_to(yk) - y.apply_to(xk) for xk, yk in zip(x.components, y.components)
    )


def _dot(row: Sequence[Jet], col: Sequence[Jet]) -> Jet:
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def matvec(mat: JetMatrix, vec) -> JetVector:
    """A jet matrix applied to a field."""
    vec = JetVector(vec)
    if mat.cols != len(vec):
        raise ShapeError("inner dimensions do not match")
    return JetVector(_dot(mat.entries[i], vec.components) for i in range(mat.rows))


def to_matrix(mat) -> JetMatrix:
    """A 2-dimensional jet array (or a jet matrix) as a :class:`JetMatrix`."""
    if isinstance(mat, JetMatrix):
        return mat
    rows, cols = mat.shape
    return JetMatrix([[mat[i, j] for j in range(cols)] for i in range(rows)])


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
            vec = model.structure[i][j]
            for k in range(model.dim):
                if not vec[k].is_zero():
                    out[k] = out[k] + f * vec[k]
    return JetVector(out)


def lie_derivative_of_mult(model, x, c, d):
    dc = basis_field(model, c)
    dd = basis_field(model, d)
    t1 = lie_bracket(x, model.structure[c][d])
    t2 = multiply(model, lie_bracket(x, dc), dd)
    t3 = multiply(model, dc, lie_bracket(x, dd))
    return t1 - t2 - t3


def partial_vector(model, v, c, d):
    return JetVector([model.structure[c][d][l].partial(v) for l in range(model.dim)])


def check_fmanifold(model):
    m = model.dim
    k_order = model.space.order

    commut = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            commut = max(commut, (model.structure[i][j] - model.structure[j][i]).residual_norm())

    assoc = 0.0
    for a in range(m):
        for b in range(a, m):
            ab = model.structure[a][b]
            for c in range(m):
                lhs = multiply(model, ab, basis_field(model, c))
                rhs = multiply(model, basis_field(model, a), model.structure[b][c])
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
            w = model.structure[a][b]
            for c in range(m):
                for d in range(c, m):
                    ccd = model.structure[c][d]
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
                            vec = model.structure[i][d]
                            for l in range(m):
                                if not vec[l].is_zero():
                                    lhs[l] = lhs[l] + dw_c * vec[l]
                        if not dw_d.is_zero():
                            vec = model.structure[c][i]
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
            euler_res = max(euler_res, (lhs - model.structure[a][b]).residual_norm())

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
    flat_psi = psi.values
    flat_beta = beta.values
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
    g = to_matrix(gamma.matrix)
    eps = JetMatrix.from_constant(sp, gamma.epsilon)
    sym = (eps @ g - g.T @ eps).residual_norm()
    norm_jet = psi_epsilon_norm(psi)
    norm_res = max(norm_jet.partial(v).residual_norm() for v in range(n))
    flat_psi = psi.values
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
    g = to_matrix(gamma.matrix)
    cmats = [JetMatrix.from_constant(g.space, m) for m in model.mult_matrices()]
    return (
        commutator(cmats[i], g.partial(j))
        - commutator(cmats[j], g.partial(i))
        - commutator(commutator(cmats[i], g), commutator(cmats[j], g))
    )


def darboux_egoroff_residual(gamma, model):
    n = model.dim
    order = min(to_matrix(gamma.matrix).partial(v).eff_order() for v in range(n))
    entries = []
    for i in range(n):
        entries.append((f"de_{i}_{i}", 0.0, order))
        for j in range(i + 1, n):
            mat = darboux_egoroff_matrix(gamma, model, i, j)
            entries.append((f"de_{i}_{j}", mat.residual_norm(), order))
    return report_from(entries)


def levi_civita_curvature(gram, unit):
    """Returns (christoffel as nested lists, curvature report)."""
    gram = to_matrix(gram)
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


def monomial_exponents(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """The exponent rows of every monomial of degree at most ``order``, by
    degree and in ascending lexicographic order within a degree, enumerated
    without the index lookup of ``JetSpace``."""
    rows = []
    for d in range(order + 1):
        degree = []
        for combo in itertools.combinations_with_replacement(range(num_vars), d):
            e = [0] * num_vars
            for v in combo:
                e[v] += 1
            degree.append(tuple(e))
        rows += sorted(degree)
    return rows


def monomial_factors(num_vars: int, order: int) -> list[tuple[int, int]]:
    """For each monomial past the constant one, in the order of
    :func:`monomial_exponents`: its first variable ``v`` and the position of
    the monomial divided by ``t_v``."""
    rows = monomial_exponents(num_vars, order)
    position = {e: i for i, e in enumerate(rows)}
    factors = []
    for e in rows[1:]:
        v = next(k for k, x in enumerate(e) if x > 0)
        factors.append((v, position[(*e[:v], e[v] - 1, *e[v + 1 :])]))
    return factors


def compose(jet, subs):
    """Substitute ``subs[i]`` for variable ``i``, building every monomial of
    the substitution on each call."""
    target = subs[0].space
    eff = min([jet.eff_order] + [s.eff_order for s in subs])
    src = jet.space
    monomials = [None] * src.size
    monomials[0] = target.one()
    out = target.zero().coeffs.copy()
    factors = monomial_factors(src.num_vars, src.order)
    for i in range(src.size):
        if i == 0:
            mono = monomials[0]
        else:
            v, low = factors[i - 1]
            mono = monomials[low] * subs[v]
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
    return [to_matrix(stack[i]) for i in range(len(stack))]


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
    r0 = to_matrix(bundle.r0)
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
    r0 = to_matrix(bundle.r0)
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
    b0 = to_matrix(connection.b0)
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
    r0 = to_matrix(bundle.r0)
    cols = [apply(phi[i], s) for i in range(n)]
    iso = JetMatrix([[cols[i][k] for i in range(n)] for k in range(n)])
    if np.linalg.cond(iso.constant_term()) > 1.0 / max(tol, 1e-300):
        raise NotPrimitiveError("section is not primitive: I(0) is singular")
    iso_inv = iso.inverse()
    mult = [[matvec(iso_inv, matvec(phi[i], cols[j])) for j in range(n)] for i in range(n)]
    unit = apply(iso_inv, s)
    euler = matvec(iso_inv, -apply(r0, s))
    model = FManifoldModel(JetArray.from_jets(mult), JetArray.from_jets(unit), JetArray.from_jets(euler))
    u_model = to_matrix(mult_by_euler(model))
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
    chris = lc_curvature(JetArray.from_jets(gram), model.unit).christoffel
    nabla_mat = to_matrix(euler_derivative(chris, model.euler))
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


# -- Newton iterations of a single jet ----------------------------------------------


def invert(jet: Jet) -> Jet:
    """Multiplicative inverse by Newton iteration in ``Jet`` arithmetic."""
    sp = jet.space
    x = sp.constant(1.0 / jet.coeffs[0])
    correct = 0
    while correct < sp.order:
        x = x * (2.0 - jet * x)
        correct = 2 * correct + 1
    return sp._wrap(x.coeffs, min(jet.eff_order, sp.order))


def sqrt(jet: Jet, branch_anchor=None) -> Jet:
    """Square root by Newton iteration in ``Jet`` arithmetic, the branch
    fixed by ``branch_anchor`` (principal root by default)."""
    sp = jet.space
    anchor = np.sqrt(complex(jet.coeffs[0])) if branch_anchor is None else complex(branch_anchor)
    s = sp.constant(anchor)
    inv2a = 1.0 / (2.0 * anchor)
    for _ in range(sp.order):
        s = s + (jet - s * s).scale(inv2a)
    return sp._wrap(s.coeffs, min(jet.eff_order, sp.order))


# -- canonical frames, brackets and symmetries ----------------------------------------


def mult_by_euler_loop(model) -> JetMatrix:
    """The matrix of X -> E o X, columns E o d_j."""
    cols = [multiply(model, model.euler, basis_field(model, j)) for j in range(model.dim)]
    return JetMatrix([[cols[j][k] for j in range(model.dim)] for k in range(model.dim)])


def canonical_frame(model) -> list[JetVector]:
    fields = [JetVector(model.unit)]
    for _ in range(model.dim - 1):
        fields.append(multiply(model, model.euler, fields[-1]))
    return fields


def check_frame_brackets(model):
    n = model.dim
    k_order = model.space.order
    frame = canonical_frame(model)
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            if i + j > n:
                continue
            br = lie_bracket(frame[i], frame[j])
            expected = frame[i + j - 1].scale(float(j - i))
            entries.append((f"hertling_{i}_{j}", (br - expected).residual_norm(), k_order - 1))
    u = mult_by_euler_loop(model)
    if len(regend.jordan_spectrum(u.constant_term()).blocks) == 1:
        consts = BracketConstants.build(n)
        a = u.trace().scale(1.0 / n)
        powers = [model.space.one()]
        for _ in range(2 * n):
            powers.append(powers[-1] * a)
        for i in range(n):
            for j in range(i + 1, n):
                br = lie_bracket(frame[i], frame[j])
                rhs = JetVector([model.space.zero() for _ in range(n)])
                p = i + j - 1 - n
                for k in range(n):
                    coeff = consts.value(k, p)
                    if coeff == 0.0:
                        continue
                    rhs = rhs + frame[k].scale(powers[i + j - 1 - k].scale(coeff * (i - j)))
                entries.append((f"unified_{i}_{j}", (br - rhs).residual_norm(), k_order - 1))
        for i in range(n):
            res = frame[i].apply_to(a) - powers[i]
            entries.append((f"eigenfunction_{i}", res.residual_norm(), k_order - 1))
        acc_m = u.power(n)
        for k in range(n):
            acc_m = acc_m + u.power(k).scale(powers[n - k].scale(consts.value(k, 0)))
        entries.append(("min_poly_identity", acc_m.residual_norm(), k_order))
    return report_from(entries)


def symmetry_basis(m, order):
    if m == 1:
        return []
    model = standard_block(0.0, m, order)
    sp = model.space
    comps = [sp.zero() for _ in range(m)]
    comps[1] = sp.variable(1) + 1.0
    for j in range(2, m):
        comps[j] = sp.variable(j).scale(float(j))
    y1 = JetVector(comps)
    return [y1] + [multiply(model, basis_field(model, k - 1), y1) for k in range(2, m)]


def check_symmetry(model, x):
    x = JetVector(x)
    m = model.dim
    k_order = model.space.order
    mult_res = 0.0
    for a in range(m):
        for b in range(a, m):
            mult_res = max(mult_res, lie_derivative_of_mult(model, x, a, b).residual_norm())
    entries = [
        ("mult_invariance", mult_res, k_order - 1),
        ("euler_commute", lie_bracket(x, model.euler).residual_norm(), k_order - 1),
        ("circ_unit", lie_bracket(basis_field(model, 0), x).residual_norm(), k_order - 1),
    ]
    if m >= 2:
        br1 = lie_bracket(basis_field(model, 1), x)
        top = multiply(model, br1, basis_field(model, m - 1))
        entries.append(("circ_top", top.residual_norm(), k_order - 1))
        chain = 0.0
        for i in range(2, m):
            bri = lie_bracket(basis_field(model, i), x)
            expected = multiply(model, basis_field(model, i - 1), br1).scale(float(i))
            chain = max(chain, (bri - expected).residual_norm())
        entries.append(("circ_chain", chain, k_order - 1))
    return report_from(entries)


def check_symmetry_brackets(m, order):
    fields = symmetry_basis(m, order)
    entries = []
    for i in range(1, m):
        for j in range(i, m):
            br = lie_bracket(fields[i - 1], fields[j - 1])
            if i + j <= m:
                res = (br - fields[i + j - 2].scale(float(i - j))).residual_norm()
            else:
                res = br.residual_norm()
            entries.append((f"bracket_{i}_{j}", res, order - 1))
    return report_from(entries)


# -- the one-form chain, per block ----------------------------------------------------
#
# One-forms and metrics are read as one list of jets per block; the results
# are returned in the same layout.


def _families(x):
    return [list(row) for row in x.families()]


def psi_from_metric(metric, branch_anchors=None):
    if branch_anchors is None:
        branch_anchors = [None] * len(metric.blocks)
    comps = []
    for m, row, anchor in zip(metric.blocks, _families(metric), branch_anchors):
        psi = [None] * m
        psi[m - 1] = sqrt(row[m - 1], anchor)
        inv2top = invert(psi[m - 1].scale(2.0))
        for k in range(m - 2, -1, -1):
            acc = row[k]
            for s in range(k + 1, m - 1):
                t = (m - 1) + k - s
                if k < t < m - 1:
                    acc = acc - psi[s] * psi[t]
            psi[k] = acc * inv2top
        comps.append(psi)
    return comps


def _pairing(blocks, ra_rows, rb_rows):
    """out_j = sum_{r+s=(m-1)+j} a_r b_s per block."""
    out = []
    for m, ra, rb in zip(blocks, ra_rows, rb_rows):
        family = []
        for j in range(m):
            acc = ra[0].space.zero()
            for r in range(m):
                s = (m - 1) + j - r
                if 0 <= s < m:
                    acc = acc + ra[r] * rb[s]
            family.append(acc)
        out.append(family)
    return out


def metric_from_psi(psi):
    return _pairing(psi.blocks, _families(psi), _families(psi))


def covector_product(a, b):
    return _pairing(a.blocks, _families(a), _families(b))


def invert_oneform(psi):
    comps = []
    for m, row in zip(psi.blocks, _families(psi)):
        inv_top = invert(row[m - 1])
        beta = [None] * m
        beta[m - 1] = inv_top
        for k in range(2 * (m - 1) - 1, m - 2, -1):
            acc = None
            for s in range(k - (m - 1) + 1, m):
                r = k - s
                if 0 <= r < m:
                    term = beta[s] * row[r]
                    acc = term if acc is None else acc + term
            beta[k - (m - 1)] = -(acc * inv_top)
        comps.append(beta)
    return comps


def psi_epsilon_norm(psi) -> Jet:
    acc = psi.space.zero()
    for m, row in zip(psi.blocks, _families(psi)):
        for i in range(m):
            acc = acc + row[i] * row[m - 1 - i]
    return acc


def gamma_single_block(psi, beta) -> JetMatrix:
    """The rotation operator of a single block: the explicit sum the general
    contraction reduces to."""
    m = psi.blocks[0]
    sp = psi.space
    prow = list(psi.values)
    brow = list(beta.values)
    dpsi = [[prow[j].partial(k) for k in range(m)] for j in range(m)]
    entries = [[sp.zero(sp.order - 1) for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for s in range(m):
            for i in range(s + 1):
                t = m - 1 + i - s
                entries[t][j] = entries[t][j] + brow[s] * dpsi[j][m - 1 - i]
    return JetMatrix(entries)


def gamma_annihilates_dual(gamma, psi) -> float:
    eps_inv = np.linalg.inv(gamma.epsilon)
    flat = list(psi.values)
    n = len(flat)
    t_field = []
    for k in range(n):
        acc = psi.space.zero()
        for j in range(n):
            if eps_inv[k, j] != 0:
                acc = acc + flat[j].scale(eps_inv[k, j])
        t_field.append(acc)
    return matvec(to_matrix(gamma.matrix), t_field).residual_norm()


# -- block coordinate indices, per block ---------------------------------------------
#
# The index tables of ``frob`` as the loops over blocks that built them before
# they were derived from one layout of the block coordinates.


def _offsets(blocks):
    return [sum(blocks[:b]) for b in range(len(blocks))]


def gram_sources(blocks):
    """The flat index of eta_{i+j, alpha} for each Gram entry, n elsewhere."""
    n = sum(blocks)
    source = np.full((n, n), n)
    for off, m in zip(_offsets(blocks), blocks):
        for i in range(m):
            for j in range(m - i):
                source[off + i, off + j] = off + i + j
    return source


def epsilon_pairing(blocks):
    n = sum(blocks)
    g = np.zeros((n, n), dtype=np.complex128)
    for off, m in zip(_offsets(blocks), blocks):
        for i in range(m):
            g[off + i, off + m - 1 - i] = 1.0
    return g


def product_pairs(blocks):
    """(r, s, t) of every cotangent product dt^r o dt^s = dt^t, in order."""
    r, s, t = [], [], []
    for off, m in zip(_offsets(blocks), blocks):
        for i in range(m):
            for j in range(m - 1 - i, m):
                r.append(off + i)
                s.append(off + j)
                t.append(off + i + j - (m - 1))
    return r, s, t


def descent_levels(blocks, inner):
    """(rows, blocks, left, right) of each level of the block-triangular descent."""
    levels = []
    for level in range(1, max(blocks)):
        rows, block, left, right = [], [], [], []
        for b, (off, m) in enumerate(zip(_offsets(blocks), blocks)):
            if m <= level:
                continue
            q = m - 1 - level
            left += [off + s for s in range(q + 1, m - inner)]
            right += [off + m - 1 + q - s for s in range(q + 1, m - inner)]
            rows.append(off + q)
            block.append(b)
        levels.append((rows, block, left, right))
    return levels


# -- unit and Euler laws of a metric --------------------------------------------------


def check_coidentity_closed(metric):
    flat = list(metric.values)
    n = metric.dim
    worst = 0.0
    order = min(j.eff_order for j in flat) - 1
    for g in range(n):
        for h in range(g + 1, n):
            worst = max(worst, (flat[g].partial(h) - flat[h].partial(g)).residual_norm())
    return report_from([("coidentity_closed", worst, order)])


def check_unit_flat(metric):
    closed = check_coidentity_closed(metric)["coidentity_closed"]
    units = [sum(metric.blocks[:b]) for b in range(len(metric.blocks))]  # each block's leading direction
    flat = list(metric.values)
    worst = 0.0
    order = min(j.eff_order for j in flat) - 1
    for eta_jet in flat:
        d = None
        for u in units:
            d = eta_jet.partial(u) if d is None else d + eta_jet.partial(u)
        worst = max(worst, d.residual_norm())
    return ResidualReport([("coidentity_closed", closed), ("unit_derivative", Residual(worst, order))])


def check_euler_rescaling(metric, euler, weight=None):
    euler = JetVector(euler)
    flat = list(metric.values)
    derivs = [euler.apply_to(j) for j in flat]
    order = min(d.eff_order for d in derivs)
    if weight is None:
        num = 0.0 + 0.0j
        den = 0.0
        for j, d in zip(flat, derivs):
            mask = j.space.degrees <= order
            num += np.vdot(j.coeffs[mask], d.coeffs[mask])
            den += float(np.vdot(j.coeffs[mask], j.coeffs[mask]).real)
        weight_out = complex((num / den if den > 0 else 0.0) + 2.0)
        name = "euler_rescaling_solved"
    else:
        weight_out = complex(weight)
        name = "euler_rescaling"
    w = weight_out - 2.0
    worst = 0.0
    for j, d in zip(flat, derivs):
        worst = max(worst, (d - j.scale(w)).residual_norm())
    return weight_out, report_from([(name, worst, order)])


# -- order-by-order stages at the full jet order ----------------------------------
#
# The chart flows, the frame expansion, the germ-isomorphism solve and the
# substitution table as they were before each step was cut to the degree
# it fixes: every Picard step, every solve step and every table row works
# at the full jet order.  So do the quadratic terms of the curvature oracle
# and of the Darboux-Egoroff residuals, formed one degree above the order
# they are certified at.  The package's stages give the same bits.


def integrate_chart(spec, order):
    """The chart Gamma with ``order + 1`` Picard steps per flow, each on the
    whole iterate; flow 0 too, whose field is the identity whatever the
    iterate."""
    n = spec.dim
    sp = jet_space(n, order)
    gamma = JetArray.constant(sp, np.zeros((n, n)))
    for i in range(n):
        prev = current = gamma
        for _ in range(order + 1):
            field = fman._matrix_powers(malgrange.b0_at(spec, current), i + 1)[i]
            current = prev + field.integrate(i)
        gamma = current
    return gamma


def curvature_residual(gram, unit):
    """The curvature and unit-parallelism residuals of
    ``frob.levi_civita_curvature`` with the quadratic terms formed from the
    Christoffel symbols at their own order, one above the certified one."""
    g = gram.gram() if hasattr(gram, "gram") else gram
    n, eff = len(g), g.eff_order()
    dg = g.grad()
    first = (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)).scale(0.5)
    chris = contract("lk,ijk->ijl", g.inverse(), first)
    worst = 0.0
    for i in range(n - 1):
        js = slice(i + 1, n)
        r = (
            chris[js].partial(i)
            - chris[i].grad()[js]
            + contract("ml,jkm->jkl", chris[i], chris[js])
            - contract("jml,km->jkl", chris[js], chris[i])
        )
        worst = max(worst, r.residual_norm())
    parallel = unit.grad() + contract("ijk,j->ik", chris, unit.exact_zeros())
    return chris, ResidualReport(
        [("curvature", Residual(worst, eff - 2)), ("unit_parallel", Residual(parallel.residual_norm(), eff - 1))]
    )


def darboux_egoroff_from_brackets(brackets):
    """``frob.darboux_egoroff_residual`` with the commutators [B_i, B_j]
    formed at the order of the brackets, one above the certified one."""
    dbr = brackets.grad()
    order = dbr.eff_order()
    n, entries = len(brackets), []
    for i in range(n):
        norms = ()
        if i + 1 < n:
            b, rest = brackets[i], brackets[i + 1 :]
            commutator = contract("rx,jxc->jrc", b, rest) - contract("jrx,xc->jrc", rest, b)
            row = dbr[i + 1 :, i] - dbr[i, i + 1 :] - commutator
            norms = row.residual_norms().max(axis=(1, 2))
        entries.extend((f"de_{i}_{j}", v, order) for j, v in enumerate((0.0, *norms), i))
    return report_from(entries)


def expand_in_frame(frame, rhs):
    """``malgrange.expand_in_frame`` with the part solved so far trusted to
    the jet order in every step."""
    sp = frame.space
    nf, count = len(frame), len(rhs)
    pinv = np.linalg.pinv(frame.constant_term().reshape(nf, -1).T)
    solved = np.zeros((count, nf, sp.size), dtype=np.complex128)
    full = np.full((count, nf), sp.order)
    for deg in range(sp.order + 1):
        acc = contract("rk,kab->rab", JetArray(sp, solved.copy(), full).exact_zeros(), frame)
        resid = (rhs - acc).coeffs.reshape(count, -1, sp.size)
        idx = np.flatnonzero(sp.degrees == deg)
        solved[:, :, idx] = pinv @ resid[:, :, idx]
    eff = np.minimum(rhs.eff.reshape(count, -1).min(axis=1), frame.eff_order())
    coeffs = JetArray(sp, solved, np.broadcast_to(eff[:, None], (count, nf)).copy())
    final = contract("rk,kab->rab", coeffs.exact_zeros(), frame)
    return coeffs, (rhs - final).residual_norms().reshape(count, -1).max(axis=1)


def germ_map(model_a, model_b):
    """The map psi of ``fman.germ_isomorphism``, each step composing with
    psi trusted to the jet order."""
    n, sp, k_order = model_a.dim, model_a.space, model_a.space.order
    frame_a, frame_b = fman.canonical_frame(model_a), fman.canonical_frame(model_b)
    xinv = np.linalg.inv(frame_a.constant_term().T)
    pow_a, pow_b = list(frame_a), list(frame_b)
    while len(pow_a) < k_order + 1:
        pow_a.append(model_a.multiply(model_a.euler, pow_a[-1]))
        pow_b.append(model_b.multiply(model_b.euler, pow_b[-1]))
    xa, xb = JetArray.stack(pow_a)[:n], JetArray.stack(pow_b)[:n]
    psi = np.zeros((n, sp.size), dtype=np.complex128)
    for d in range(k_order):
        psi_d = JetArray(sp, psi.copy(), np.full(n, k_order))
        resid = substitute(substitution_table(sp, psi_d), psi_d, xb) - contract("vk,iv->ik", psi_d.grad(), xa)
        part = np.where(sp.degrees == d, resid.coeffs, 0.0)
        entry = sum(np.multiply.outer(xinv[i], part[i]) for i in range(n))
        for j, (src, dst) in enumerate(sp._shift):
            psi[:, dst] += entry[j][:, src] * (1.0 / (d + 1))
    return JetArray(sp, psi, np.full(n, k_order))


def row_products(space, a, b, eff):
    """``jets._row_products`` summing the whole Cauchy table on every row."""
    moving_a, moving_b = a[:, 1:].any(axis=1), b[:, 1:].any(axis=1)
    out = np.where(moving_a[:, None], a * b[:, :1], b * a[:, :1])
    full = np.flatnonzero(moving_a & moving_b)[:, None]
    if len(full):
        ii, jj, _, targets, starts = space._cauchy
        out[full, targets] = np.add.reduceat(a[full, ii] * b[full, jj], starts, axis=1)
    if eff.min(initial=space.order) < space.order:
        out[space.degrees > np.maximum(eff, 0)[:, None]] = 0.0
    return out


def substitution_table(source, subs):
    """The monomial table of ``jets.Substitution`` with every degree built."""
    target = subs.space
    coeffs, eff = subs.coeffs, np.minimum(subs.eff, target.order)
    table = np.zeros((source.size, target.size), dtype=np.complex128)
    table[0, 0] = 1.0
    rows_eff = np.full(source.size, target.order)
    v, low = np.array(monomial_factors(source.num_vars, source.order), dtype=np.int64).reshape(-1, 2).T
    ends = source._degree_ends
    for d in range(1, source.order + 1):
        new = slice(ends[d - 1], ends[d])
        fv, fl = v[new.start - 1 : new.stop - 1], low[new.start - 1 : new.stop - 1]
        rows_eff[new] = np.minimum(rows_eff[fl], eff[fv])
        table[new] = row_products(target, table[fl], coeffs[fv], rows_eff[new])
    return table


def substitute(table, subs, f):
    """``f`` composed with ``subs`` through their ``table``, over every
    source coefficient that is not zero, zero table rows included, as
    ``Substitution.__call__`` did."""
    target = subs.space
    src = f.coeffs.reshape(-1, f.space.size)
    out = np.zeros((len(src), target.size), dtype=np.complex128)
    for i in np.flatnonzero(src.any(axis=0)):
        out += table[i] * (src[0, i] if len(src) == 1 else src[:, i, None])
    eff = np.minimum(f.eff, min(subs.eff_order(), target.order))
    return JetArray(target, out.reshape(f.shape + (target.size,)), eff)


# -- initial-data admissibility, entry by entry ------------------------------------


def validate_initial_data(data) -> malgrange.ValidationReport:
    """The companion-shape, Gram-invariance and unit-column residuals of
    ``malgrange.validate_initial_data`` as loops over entries, each the
    running maximum of Python scalars from 0.0; the skewness loop, the
    companion matrix and the moments are the package's."""
    n = data.model.dim
    u0 = mult_by_euler(data.model).constant_term()
    b0o = regend.cyclic_basis_representation(u0, data.model.unit.constant_terms())

    companion_res = 0.0
    for i in range(n - 1):
        for j in range(n):
            want = 1.0 if j == i + 1 else 0.0
            companion_res = max(companion_res, abs(b0o[j, i] - want))

    h = malgrange._moments(b0o, data.gram)
    invariance = 0.0
    for i in range(n):
        for j in range(n):
            invariance = max(invariance, abs(data.gram[i, j] - h[i + j]))

    v = data.skew
    skewness = 0.0
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += v[k, i] * h[k + j] + v[k, j] * h[k + i]
            skewness = max(skewness, abs(acc))

    first_col = 0.0
    target = 1.0 - data.weight / 2.0
    for j in range(n):
        want = target if j == 0 else 0.0
        first_col = max(first_col, abs(v[j, 0] - want))

    residuals = report_from(
        [
            ("companion_shape", companion_res, 0),
            ("gram_invariance", invariance, 0),
            ("skew_symmetry", skewness, 0),
            ("unit_column", first_col, 0),
        ]
    )
    return malgrange.ValidationReport(residuals, float(np.linalg.cond(data.gram)), b0o, h)
