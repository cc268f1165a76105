"""Saito bundles and meromorphic connections in Birkhoff normal form.

Bundles are presented in a fixed global frame over the germ: connection
data are coefficient matrices of jets.  A Birkhoff-form connection

    (B0(x)/tau + Binf) dtau/tau + C_i(x) dx^i / tau

is flat precisely when four groups of coefficient identities hold; the same
identities are the Saito-bundle axioms of the induced tuple
(flat frame connection, C, B0, -Binf), which serves as the structural
cross-check for the expansion.
"""

from __future__ import annotations

import numpy as np

from . import regend
from .errors import (
    HomogeneityError,
    NotPrimitiveError,
    ShapeError,
)
from .fman import FManifoldModel, mult_by_euler
from .frob import euler_derivative, levi_civita_curvature
from .jets import JetMatrix, JetSpace, commutator
from .reports import ResidualReport, report_from


class SaitoBundle:
    """Frame presentation of a Saito bundle.

    ``frame_connection`` holds the coefficient matrices of the connection in
    the frame (``None`` means the canonical flat connection with zero
    coefficients); ``phi`` the Higgs-field matrices, one per base variable;
    ``r0`` a jet matrix and ``rinf`` a constant matrix.  ``metric`` is an
    optional constant symmetric Gram matrix in the frame.
    """

    def __init__(self, phi, r0: JetMatrix, rinf, frame_connection=None, metric=None):
        self.phi = list(phi)
        if not self.phi:
            raise ShapeError("need at least one base direction")
        self.space: JetSpace = self.phi[0].space
        self.base_dim = len(self.phi)
        self.rank = self.phi[0].rows
        for p in self.phi:
            if p.space is not self.space or p.rows != self.rank or p.cols != self.rank:
                raise ShapeError("phi matrices must be square and uniform")
        if self.space.num_vars != self.base_dim:
            raise ShapeError("number of phi matrices must match the base variables")
        if r0.rows != self.rank or r0.cols != self.rank:
            raise ShapeError("r0 shape does not match the rank")
        self.r0 = r0
        self.rinf = np.asarray(rinf, dtype=np.complex128)
        if self.rinf.shape != (self.rank, self.rank):
            raise ShapeError("rinf shape does not match the rank")
        self.frame_connection = list(frame_connection) if frame_connection else None
        if self.frame_connection is not None:
            if len(self.frame_connection) != self.base_dim:
                raise ShapeError("one frame-connection matrix per base variable")
            for o in self.frame_connection:
                if o.rows != self.rank or o.cols != self.rank:
                    raise ShapeError("frame-connection shape mismatch")
        self.metric = None if metric is None else np.asarray(metric, dtype=np.complex128)
        if self.metric is not None:
            if self.metric.shape != (self.rank, self.rank):
                raise ShapeError("metric shape does not match the rank")
            if np.linalg.cond(self.metric) > 1e12:
                raise ShapeError("bundle metric must be invertible")

    def omega(self, i: int) -> JetMatrix | None:
        return None if self.frame_connection is None else self.frame_connection[i]

    def __repr__(self):
        return f"SaitoBundle(base={self.base_dim}, rank={self.rank}, metric={self.metric is not None})"


class BirkhoffConnection:
    """Matrix data of a rank-one-pole connection in Birkhoff normal form."""

    def __init__(self, b0: JetMatrix, binf, c):
        self.c = list(c)
        if not self.c:
            raise ShapeError("need at least one base direction")
        self.space: JetSpace = b0.space
        self.rank = b0.rows
        if b0.cols != self.rank:
            raise ShapeError("b0 must be square")
        self.b0 = b0
        self.binf = np.asarray(binf, dtype=np.complex128)
        if self.binf.shape != (self.rank, self.rank):
            raise ShapeError("binf shape does not match the rank")
        self.base_dim = len(self.c)
        if self.space.num_vars != self.base_dim:
            raise ShapeError("number of C matrices must match the base variables")
        for m in self.c:
            if m.space is not self.space or m.rows != self.rank or m.cols != self.rank:
                raise ShapeError("C matrices must be square and uniform")

    def __repr__(self):
        return f"BirkhoffConnection(base={self.base_dim}, rank={self.rank})"


def _cov_endo(omega: JetMatrix | None, i: int, mat: JetMatrix) -> JetMatrix:
    """Covariant derivative of an endomorphism in the frame:
    (nabla_i R) = d_i R + [Omega_i, R]."""
    out = mat.partial(i)
    if omega is not None:
        out = out + commutator(omega, mat)
    return out


def check_saito_axioms(bundle: SaitoBundle) -> ResidualReport:
    """Jet residuals of the six Saito-bundle conditions: flatness of the
    connection, vanishing of the Higgs wedge, commutation of the residue
    with the Higgs field, the closedness of the Higgs field, the mixed
    condition nabla(R0) + Phi = [Phi, Rinf], and flatness of Rinf."""
    m = bundle.base_dim
    sp = bundle.space
    order = sp.order

    curvature = 0.0
    d_nabla_phi = 0.0
    phi_wedge = 0.0
    r0_phi = 0.0
    nabla_r0 = 0.0
    nabla_rinf = 0.0
    rinf_mat = JetMatrix.from_constant(sp, bundle.rinf)
    for i in range(m):
        omi = bundle.omega(i)
        for j in range(i + 1, m):
            omj = bundle.omega(j)
            if omi is not None or omj is not None:
                zi = omi if omi is not None else JetMatrix.zero(sp, bundle.rank, bundle.rank)
                zj = omj if omj is not None else JetMatrix.zero(sp, bundle.rank, bundle.rank)
                curv = zj.partial(i) - zi.partial(j) + commutator(zi, zj)
                curvature = max(curvature, curv.residual_norm())
            dphi = _cov_endo(omi, i, bundle.phi[j]) - _cov_endo(omj, j, bundle.phi[i])
            d_nabla_phi = max(d_nabla_phi, dphi.residual_norm())
            phi_wedge = max(
                phi_wedge, commutator(bundle.phi[i], bundle.phi[j]).residual_norm()
            )
        r0_phi = max(r0_phi, commutator(bundle.r0, bundle.phi[i]).residual_norm())
        mixed = (
            _cov_endo(omi, i, bundle.r0)
            + bundle.phi[i]
            - commutator(bundle.phi[i], rinf_mat)
        )
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


def check_saito_metric_axioms(bundle: SaitoBundle) -> ResidualReport:
    """Metric compatibility: flat Gram matrix, skew residue at infinity,
    symmetric residue at zero and symmetric Higgs matrices (all adjoints
    with respect to the constant frame metric)."""
    if bundle.metric is None:
        raise ShapeError("bundle has no metric")
    g = bundle.metric
    sp = bundle.space
    gm = JetMatrix.from_constant(sp, g)
    nabla_metric = 0.0
    if bundle.frame_connection is not None:
        for om in bundle.frame_connection:
            res = om.T @ gm + gm @ om
            nabla_metric = max(nabla_metric, res.residual_norm())
    rinf_skew = float(np.max(np.abs(bundle.rinf.T @ g + g @ bundle.rinf)))
    r0_sym = (bundle.r0.T @ gm - gm @ bundle.r0).residual_norm()
    phi_sym = max((p.T @ gm - gm @ p).residual_norm() for p in bundle.phi)
    return report_from(
        [
            ("nabla_metric", nabla_metric, sp.order),
            ("rinf_skew", rinf_skew, sp.order),
            ("r0_symmetric", r0_sym, sp.order),
            ("phi_symmetric", phi_sym, sp.order),
        ]
    )


def birkhoff_flatness(connection: BirkhoffConnection) -> ResidualReport:
    """Coefficients of d(Omega) + Omega ^ Omega in the basis
    {tau^-2 dx^dx, tau^-1 dx^dx, tau^-3 dtau^dx, tau^-2 dtau^dx}:

        c_commute     [C_i, C_j]                    (tau^-2 dx^dx)
        c_curl        d_i C_j - d_j C_i             (tau^-1 dx^dx)
        b0_c_commute  [B0, C_i]                     (tau^-3 dtau^dx)
        b0_mixed      d_i B0 + C_i - [Binf, C_i]    (tau^-2 dtau^dx)

    The grouping is locked by the equivalence with the Saito axioms of
    :func:`birkhoff_to_saito` output.
    """
    m = connection.base_dim
    sp = connection.space
    binf_mat = JetMatrix.from_constant(sp, connection.binf)
    c_commute = 0.0
    c_curl = 0.0
    b0_c = 0.0
    b0_mixed = 0.0
    for i in range(m):
        ci = connection.c[i]
        for j in range(i + 1, m):
            cj = connection.c[j]
            c_commute = max(c_commute, commutator(ci, cj).residual_norm())
            c_curl = max(c_curl, (cj.partial(i) - ci.partial(j)).residual_norm())
        b0_c = max(b0_c, commutator(connection.b0, ci).residual_norm())
        mixed = connection.b0.partial(i) + ci - commutator(binf_mat, ci)
        b0_mixed = max(b0_mixed, mixed.residual_norm())
    return report_from(
        [
            ("c_commute", c_commute, sp.order),
            ("c_curl", c_curl, sp.order - 1),
            ("b0_c_commute", b0_c, sp.order),
            ("b0_mixed", b0_mixed, sp.order - 1),
        ]
    )


def birkhoff_to_saito(connection: BirkhoffConnection) -> SaitoBundle:
    """The induced Saito data: flat frame connection, Phi = C, R0 = B0 and
    Rinf = -Binf."""
    return SaitoBundle(
        phi=connection.c,
        r0=connection.b0,
        rinf=-connection.binf,
        frame_connection=None,
    )


def fmanifold_from_saito(
    bundle: SaitoBundle, section, tol: float = 1e-10
) -> tuple[FManifoldModel, dict]:
    """Multiplication, unit and Euler field induced by a primitive section.

    The section identifies tangent directions with bundle elements through
    I(X) = Phi_X(section); structure data follow from linear solves in jets.
    The report verifies that multiplication by the Euler field matches the
    conjugated residue and that their origin spectra agree.
    """
    if bundle.base_dim != bundle.rank:
        raise ShapeError("a primitive section needs base dimension equal to the rank")
    s = np.asarray(section, dtype=np.complex128)
    if s.shape != (bundle.rank,):
        raise ShapeError("section must be a constant vector of rank length")
    sp = bundle.space
    n = bundle.rank
    cols = [bundle.phi[i].apply(s) for i in range(n)]
    iso = JetMatrix([[cols[i][k] for i in range(n)] for k in range(n)])
    i0 = iso.constant_term()
    if np.linalg.cond(i0) > 1.0 / max(tol, 1e-300):
        raise NotPrimitiveError("section is not primitive: I(0) is singular")
    iso_inv = iso.inverse()

    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            rhs = bundle.phi[i] @ cols[j]
            row.append(iso_inv @ rhs)
        mult.append(row)
    unit = iso_inv.apply(s)
    euler = iso_inv @ (-bundle.r0.apply(s))
    model = FManifoldModel(mult, unit, euler)

    u_model = mult_by_euler(model)
    u_expected = -(iso_inv @ bundle.r0 @ iso)
    conj_res = (u_model - u_expected).residual_norm()
    spec_u = regend.jordan_spectrum(u_model.constant_term())
    spec_r = regend.jordan_spectrum(-bundle.r0.constant_term())
    return model, {
        "u_matches_conjugated_residue": conj_res,
        "origin_spectrum": spec_u,
        "residue_spectrum": spec_r,
        "spectra_match": spec_u.matches(spec_r),
    }


def frobenius_from_saito(
    bundle: SaitoBundle,
    section,
    weight_q: complex,
    tol: float = 1e-8,
) -> tuple[JetMatrix, ResidualReport]:
    """Metric induced by a flat homogeneous primitive section, plus the
    residual of the Euler-derivative law
    nabla(E) = I^{-1} Rinf I + (1 - q) Id."""
    if bundle.metric is None:
        raise ShapeError("bundle has no metric")
    s = np.asarray(section, dtype=np.complex128)
    flat_res = 0.0
    if bundle.frame_connection is not None:
        for om in bundle.frame_connection:
            flat_res = max(flat_res, float(np.max(np.abs(om.apply(s).constant_terms()))))
            flat_res = max(flat_res, om.apply(s).residual_norm())
    hom = float(np.max(np.abs(bundle.rinf @ s - complex(weight_q) * s)))
    if hom > tol * max(1.0, float(np.max(np.abs(s)))):
        raise HomogeneityError(
            f"section is not homogeneous of weight {weight_q}: residual {hom:.3e}"
        )

    model, _ = fmanifold_from_saito(bundle, s)
    sp = bundle.space
    n = bundle.rank
    cols = [bundle.phi[i].apply(s) for i in range(n)]
    iso = JetMatrix([[cols[i][k] for i in range(n)] for k in range(n)])
    iso_inv = iso.inverse()
    gram = iso.T @ JetMatrix.from_constant(sp, bundle.metric) @ iso

    # Levi-Civita derivative of the Euler field vs the transported residue
    chris = levi_civita_curvature(gram, model.unit).christoffel
    nabla_mat = euler_derivative(chris, model.euler).to_matrix()
    expected = iso_inv @ JetMatrix.from_constant(sp, bundle.rinf) @ iso
    expected = expected + JetMatrix.from_constant(
        sp, (1.0 - complex(weight_q)) * np.eye(n)
    )
    res = (nabla_mat - expected).residual_norm()
    rep = report_from(
        [
            ("section_flat", flat_res, sp.order),
            ("section_homogeneous", hom, sp.order),
            ("euler_derivative", res, sp.order - 1),
        ]
    )
    return gram, rep
