"""Flat Saito bundles with a frame connection, built as gauge transforms of
the bundles that deformation charts carry; shared by the Saito and CLI
tests."""

import numpy as np

from regfman.fman import standard_block
from regfman.jets import JetArray, JetMatrix, contract
from regfman.malgrange import (
    DeformationSpec,
    InitialData,
    canonical_connection,
    integrate_chart,
    validate_initial_data,
)
from regfman.saito import SaitoBundle, birkhoff_to_saito


def admissible_bundle(order=3):
    """The metric bundle an extension checks, for the nilpotent 2-block at
    weight 3: the chart of the negated companion pair, its tangent
    matrices and polar residue, Rinf = diag(-1/2, 1/2) and the moment
    pairing."""
    model = standard_block(0.0, 2, order=order)
    data = InitialData(model, np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([-0.5, 0.5]), 3.0)
    val = validate_initial_data(data)
    conn = canonical_connection(integrate_chart(DeformationSpec(-val.companion, -data.skew), order))
    g0 = np.array([[val.moments[i + j] for j in range(2)] for i in range(2)])
    return SaitoBundle(conn.c, conn.b0, -conn.binf, metric=g0)


def gauge(bundle, g):
    """The bundle in the frame changed by the jet matrix g: Phi -> g^-1 Phi g,
    R0 -> g^-1 R0 g and the frame connection Omega_i = g^-1 d_i g.  Rinf
    and the metric stay constant when g commutes with Rinf and preserves
    the metric."""
    ginv = g.inverse()
    conj = lambda x: contract("ab,ibc->iac", ginv, contract("iab,bc->iac", x, g))
    omega = contract("ab,ibc->iac", ginv, g.grad())
    return SaitoBundle(conj(bundle.phi), conj(bundle.r0[None])[0], bundle.rinf, omega, bundle.metric)


def exp_gauge(sp, a, s):
    """exp(s A) for a jet s and a constant matrix A: exp(s(0) A) times the
    finite series of (s - s(0)) A."""
    e0 = np.eye(len(a), dtype=complex)
    term = np.eye(len(a), dtype=complex)
    for k in range(1, 40):
        term = term @ a * (s.value0 / k)
        e0 = e0 + term
    ds = s - s.value0
    coeffs = np.zeros(a.shape + (sp.size,), dtype=complex)
    power, dsk = e0, sp.one()
    for k in range(sp.order + 1):
        coeffs += np.multiply.outer(power, dsk.coeffs)
        power = power @ a / (k + 1)
        dsk = dsk * ds
    return JetArray(sp, coeffs, np.full(a.shape, sp.order))


def non_abelian_gauged_bundle(order=3):
    """A flat bundle with Rinf = 0 in the frame of a generic jet matrix g
    with invertible g(0), so that the Omega_i do not commute."""
    spec = DeformationSpec(np.array([[0.5, 0.0], [1.0, 0.5]]), np.zeros((2, 2)))
    bundle = birkhoff_to_saito(canonical_connection(integrate_chart(spec, order)))
    sp = bundle.space
    rng = np.random.default_rng(5)
    m0, m1, m2 = (rng.standard_normal((2, 2)) for _ in range(3))
    x0, x1 = sp.variable(0), sp.variable(1)
    g = JetMatrix.from_constant(sp, m0 + 2.0 * np.eye(2)) + JetMatrix.from_constant(sp, m1).scale(x0)
    g = g + JetMatrix.from_constant(sp, m2).scale(x0 * x1 + x1 * x1)
    return gauge(bundle, JetArray.from_jets(g))


def metric_gauged_bundle(order=3):
    """The admissible bundle in the frame of exp(s(x) Rinf): g commutes with
    Rinf and preserves the pairing, since Rinf is skew for it."""
    bundle = admissible_bundle(order)
    sp = bundle.space
    x0, x1 = sp.variable(0), sp.variable(1)
    s = sp.constant(0.4) + x0.scale(0.3) - (x0 * x1).scale(0.2) + (x1 * x1).scale(0.25)
    return gauge(bundle, exp_gauge(sp, bundle.rinf, s))
