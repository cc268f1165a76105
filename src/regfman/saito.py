"""Saito bundles and meromorphic connections in Birkhoff normal form.

Bundles are presented in a fixed global frame over the germ: connection
data are coefficient matrices of jets, held as :class:`JetArray` stacks.  A
Birkhoff-form connection

    (B0(x)/tau + Binf) dtau/tau + C_i(x) dx^i / tau

is flat precisely when four groups of coefficient identities hold; the same
identities are the Saito-bundle axioms of the induced tuple
(flat frame connection, C, B0, -Binf), which serves as the structural
cross-check for the expansion.

A bundle stacks its matrices (the Higgs field, the residues, the frame
connection and the metric) once and forms all their pairwise products in
one contraction, which both axiom checks read; commutators, curls and
covariant derivatives are slices and gradients of that product table.  The
flatness check of a connection does the same with its own matrices.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import regend
from .errors import (
    HomogeneityError,
    NotPrimitiveError,
    ShapeError,
)
from .fman import FManifoldModel, mult_by_euler
from .frob import euler_derivative, levi_civita_curvature
from .jets import JetArray, JetSpace, contract
from .reports import ResidualReport, report_from


def _checked(values, shape, name: str, space: JetSpace | None = None):
    """A jet array in ``space``, or constants when ``space`` is None, of the
    given shape."""
    out = np.asarray(values, dtype=np.complex128) if space is None else values
    if getattr(out, "shape", None) != shape or (space is not None and out.space is not space):
        raise ShapeError(f"{name} must have shape {shape}" + (f" in {space}" if space else ""))
    return out


def _higgs(values: JetArray, name: str) -> JetArray:
    """Square jet matrices, one per base variable, as one array."""
    m = values.space.num_vars
    if len(values.shape) != 3 or values.shape[0] != m or values.shape[1] != values.shape[2]:
        raise ShapeError(f"{name} needs one square jet matrix per base variable")
    return values


# A bundle metric is refused as singular above this condition number.
METRIC_COND_LIMIT = 1e12


class SaitoBundle:
    """Frame presentation of a Saito bundle.

    ``phi`` holds the Higgs-field matrices, shape (base_dim, rank, rank);
    ``frame_connection`` the coefficient matrices of the connection in the
    frame, of the same shape (``None`` means the canonical flat connection
    with zero coefficients); ``r0`` a jet matrix and ``rinf`` a constant
    matrix.  ``metric`` is an optional constant symmetric Gram matrix in
    the frame.  Jet matrices are :class:`JetArray` inputs.
    """

    def __init__(self, phi, r0, rinf, frame_connection=None, metric=None):
        self.phi = _higgs(phi, "phi")
        self.space: JetSpace = self.phi.space
        self.base_dim, self.rank = self.phi.shape[:2]
        square = (self.rank, self.rank)
        self.r0 = _checked(r0, square, "r0", self.space)
        self.rinf = _checked(rinf, square, "rinf")
        self.frame_connection = None
        if frame_connection is not None:
            self.frame_connection = _checked(frame_connection, self.phi.shape, "frame_connection", self.space)
        self.metric = None if metric is None else _checked(metric, square, "metric")
        if self.metric is not None and np.linalg.cond(self.metric) > METRIC_COND_LIMIT:
            raise ShapeError("bundle metric must be invertible")

    @cached_property
    def _table(self) -> tuple[JetArray, JetArray]:
        """Products and gradient (see :func:`_product_table`) of
        [Phi_0.., R0, Rinf, Omega_0.., g, g^T], with Omega and the metric
        only when present; built on first use, so the data must not be
        reassigned afterwards."""
        parts = [*self.phi, self.r0, JetArray.constant(self.space, self.rinf)]
        if self.frame_connection is not None:
            parts += [*self.frame_connection]
        if self.metric is not None:
            parts += [*JetArray.constant(self.space, np.stack([self.metric, self.metric.T]))]
        return _product_table(parts)

    def __repr__(self):
        return f"SaitoBundle(base={self.base_dim}, rank={self.rank}, metric={self.metric is not None})"


class BirkhoffConnection:
    """Matrix data of a rank-one-pole connection in Birkhoff normal form:
    ``b0`` a jet matrix, ``binf`` a constant matrix and ``c`` the matrices
    C_i, shape (base_dim, rank, rank)."""

    def __init__(self, b0, binf, c):
        self.c = _higgs(c, "C")
        self.space: JetSpace = self.c.space
        self.base_dim, self.rank = self.c.shape[:2]
        square = (self.rank, self.rank)
        self.b0 = _checked(b0, square, "b0", self.space)
        self.binf = _checked(binf, square, "binf")

    def __repr__(self):
        return f"BirkhoffConnection(base={self.base_dim}, rank={self.rank})"


def _product_table(parts: list[JetArray]) -> tuple[JetArray, JetArray]:
    """Stack the matrices ``parts`` as S and return all products
    prod[i, j] = S_i S_j, from one contraction, and the gradient
    grad[v, i] = d_v S_i."""
    stack = JetArray.stack(parts)
    return contract("iab,jbc->ijac", stack, stack), stack.grad()


@lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of the base directions."""
    return np.triu_indices(m, 1)


def check_saito_axioms(bundle: SaitoBundle) -> ResidualReport:
    """Jet residuals of the six Saito-bundle conditions: flatness of the
    connection, vanishing of the Higgs wedge, commutation of the residue
    with the Higgs field, the closedness of the Higgs field, the mixed
    condition nabla(R0) + Phi = [Phi, Rinf], and flatness of Rinf."""
    m = bundle.base_dim
    order = bundle.space.order
    prod, grad = bundle._table
    phi, r0, rinf, o = slice(0, m), m, m + 1, m + 2
    i, j = _pairs(m)

    d_nabla_phi = grad[i, j] - grad[j, i]
    phi_wedge = prod[i, j] - prod[j, i]
    r0_phi = prod[r0, phi] - prod[phi, r0]
    nabla_r0 = (grad[:, r0] + bundle.phi) - (prod[phi, rinf] - prod[rinf, phi])
    curvature = nabla_rinf = 0.0
    if bundle.frame_connection is not None:
        omega = slice(o, o + m)
        curvature = (
            (grad[i, o + j] - grad[j, o + i]) + (prod[o + i, o + j] - prod[o + j, o + i])
        ).residual_norm()
        # [Omega_i, Phi_j] - [Omega_j, Phi_i]
        d_nabla_phi = d_nabla_phi + (
            (prod[o + i, j] - prod[j, o + i]) - (prod[o + j, i] - prod[i, o + j])
        )
        nabla_r0 = nabla_r0 + (prod[omega, r0] - prod[r0, omega])
        nabla_rinf = (prod[omega, rinf] - prod[rinf, omega]).residual_norm()
    return report_from(
        [
            ("curvature", curvature, order - 1),
            ("phi_wedge_phi", phi_wedge.residual_norm(), order),
            ("r0_phi_commute", r0_phi.residual_norm(), order),
            ("d_nabla_phi", d_nabla_phi.residual_norm(), order - 1),
            ("nabla_r0", nabla_r0.residual_norm(), order - 1),
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
    m = bundle.base_dim
    prod, _ = bundle._table
    # the table ends with g and g^T: g S_i and S_i^T g = (g^T S_i)^T
    right = prod[-2]
    left = prod[-1].transpose(0, 2, 1)
    nabla_metric = 0.0
    if bundle.frame_connection is not None:
        omega = slice(m + 2, 2 * m + 2)
        nabla_metric = (left[omega] + right[omega]).residual_norm()
    rinf_skew = float(np.max(np.abs(bundle.rinf.T @ g + g @ bundle.rinf)))
    sym = left[: m + 1] - right[: m + 1]
    order = bundle.space.order
    return report_from(
        [
            ("nabla_metric", nabla_metric, order),
            ("rinf_skew", rinf_skew, order),
            ("r0_symmetric", sym[m].residual_norm(), order),
            ("phi_symmetric", sym[:m].residual_norm(), order),
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
    # stacked as [C_0..C_{m-1}, B0, Binf]
    c, b0, binf = slice(0, m), m, m + 1
    prod, grad = _product_table([*connection.c, connection.b0, JetArray.constant(sp, connection.binf)])
    i, j = _pairs(m)
    mixed = (grad[:, b0] + connection.c) - (prod[binf, c] - prod[c, binf])
    return report_from(
        [
            ("c_commute", (prod[i, j] - prod[j, i]).residual_norm(), sp.order),
            ("c_curl", (grad[i, j] - grad[j, i]).residual_norm(), sp.order - 1),
            ("b0_c_commute", (prod[b0, c] - prod[c, b0]).residual_norm(), sp.order),
            ("b0_mixed", mixed.residual_norm(), sp.order - 1),
        ]
    )


def birkhoff_to_saito(connection: BirkhoffConnection) -> SaitoBundle:
    """The induced Saito data: flat frame connection, Phi = C, R0 = B0 and
    Rinf = -Binf."""
    return SaitoBundle(phi=connection.c, r0=connection.b0, rinf=-connection.binf)


def _section(bundle: SaitoBundle, section) -> tuple[np.ndarray, JetArray]:
    s = np.asarray(section, dtype=np.complex128)
    if s.shape != (bundle.rank,):
        raise ShapeError("section must be a constant vector of rank length")
    # zero components drop out, as in a product with a constant vector
    return s, JetArray.constant(bundle.space, s).exact_zeros()


# A section is primitive when the frame I(0) = Phi(s)(0) has condition
# number at most 1 / PRIMITIVE_TOL.
PRIMITIVE_TOL = 1e-10

def _induced(bundle: SaitoBundle, section: JetArray) -> tuple[FManifoldModel, dict, JetArray, JetArray]:
    """:func:`fmanifold_from_saito` plus the frame iso[a, i] = (Phi_i s)^a
    and its inverse."""
    if bundle.base_dim != bundle.rank:
        raise ShapeError("a primitive section needs base dimension equal to the rank")
    iso = contract("iab,b->ai", bundle.phi, section)
    if np.linalg.cond(iso.constant_term()) > 1.0 / PRIMITIVE_TOL:
        raise NotPrimitiveError("section is not primitive: I(0) is singular")
    iso_inv = iso.inverse()

    # mult[i, j] = I^-1 Phi_i I(d_j), unit = I^-1 s, euler = -I^-1 R0 s
    mult = contract("ka,ija->ijk", iso_inv, contract("iab,bj->ija", bundle.phi, iso))
    unit = contract("ka,a->k", iso_inv, section)
    euler = -contract("ka,a->k", iso_inv, contract("ab,b->a", bundle.r0, section))
    model = FManifoldModel(mult, unit, euler)

    u_model = mult_by_euler(model)
    u_expected = -contract("ka,ab->kb", contract("ka,ab->kb", iso_inv, bundle.r0), iso)
    spec_u = regend.jordan_spectrum(u_model.constant_term())
    spec_r = regend.jordan_spectrum(-bundle.r0.constant_term())
    info = {
        "u_matches_conjugated_residue": (u_model - u_expected).residual_norm(),
        "origin_spectrum": spec_u,
        "residue_spectrum": spec_r,
        "spectra_match": spec_u.matches(spec_r),
    }
    return model, info, iso, iso_inv


def fmanifold_from_saito(bundle: SaitoBundle, section) -> tuple[FManifoldModel, dict]:
    """Multiplication, unit and Euler field induced by a primitive section.

    The section identifies tangent directions with bundle elements through
    I(X) = Phi_X(section); structure data follow from linear solves in jets.
    The report verifies that multiplication by the Euler field matches the
    conjugated residue and that their origin spectra agree.
    """
    model, info, _, _ = _induced(bundle, _section(bundle, section)[1])
    return model, info


# A flat section s is homogeneous of weight q when |Rinf s - q s| is at most
# this times max(1, |s|).
HOMOGENEITY_TOL = 1e-8


def frobenius_from_saito(
    bundle: SaitoBundle,
    section,
    weight_q: complex,
) -> tuple[JetArray, ResidualReport]:
    """Metric induced by a flat homogeneous primitive section, plus the
    residual of the Euler-derivative law
    nabla(E) = I^{-1} Rinf I + (1 - q) Id."""
    if bundle.metric is None:
        raise ShapeError("bundle has no metric")
    s, s_jet = _section(bundle, section)
    flat_res = 0.0
    if bundle.frame_connection is not None:
        flat_res = contract("iab,b->ia", bundle.frame_connection, s_jet).residual_norm()
    hom = float(np.max(np.abs(bundle.rinf @ s - complex(weight_q) * s)))
    if hom > HOMOGENEITY_TOL * max(1.0, float(np.max(np.abs(s)))):
        raise HomogeneityError(
            f"section is not homogeneous of weight {weight_q}: residual {hom:.3e}"
        )

    model, _, iso, iso_inv = _induced(bundle, s_jet)
    sp = bundle.space
    n = bundle.rank
    gram = contract(
        "al,lb->ab", contract("ka,kl->al", iso, JetArray.constant(sp, bundle.metric)), iso
    )

    # Levi-Civita derivative of the Euler field vs the transported residue
    chris = levi_civita_curvature(gram, model.unit).christoffel
    nabla = euler_derivative(chris, model.euler)
    expected = contract(
        "ka,ab->kb", contract("ka,ab->kb", iso_inv, JetArray.constant(sp, bundle.rinf)), iso
    ) + JetArray.constant(sp, (1.0 - complex(weight_q)) * np.eye(n))
    rep = report_from(
        [
            ("section_flat", flat_res, sp.order),
            ("section_homogeneous", hom, sp.order),
            ("euler_derivative", (nabla - expected).residual_norm(), sp.order - 1),
        ]
    )
    return gram, rep
