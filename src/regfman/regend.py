"""Linear algebra of regular endomorphisms.

A square complex matrix is *regular* when its characteristic and minimal
polynomials coincide; equivalently, when it admits a cyclic vector, or when
distinct Jordan blocks carry distinct eigenvalues.  For such matrices the
Jordan structure is fully described by the list of (eigenvalue, block size)
pairs, computed here by eigenvalue clustering.

Numerical caveat surfaced in every report: eigenvalues of a multiplicity-m
block scatter like eps**(1/m) under roundoff, so the clustering threshold is
widened accordingly (the cluster means stay accurate to first order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ClusteringAmbiguityError, RegularityError, ShapeError, SpectrumError

CLUSTER_TOL = 1e-6

_EPS = float(np.finfo(float).eps)


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class JordanSpectrum:
    """Conjugacy class of a regular endomorphism: (eigenvalue, size) blocks,
    canonically sorted by (Re, Im) of the eigenvalue."""

    blocks: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        blocks = tuple(
            (complex(a), int(m)) for a, m in self.blocks
        )
        if not blocks:
            raise SpectrumError("spectrum must contain at least one block")
        if any(m < 1 for _, m in blocks):
            raise SpectrumError("block sizes must be positive")
        blocks = tuple(sorted(blocks, key=lambda b: (b[0].real, b[0].imag)))
        scale = max(1.0, max(abs(a) for a, _ in blocks))
        for (a, _), (b, _) in zip(blocks, blocks[1:]):
            if abs(a - b) <= CLUSTER_TOL * scale:
                raise SpectrumError(
                    f"eigenvalues {a} and {b} are not separated; regularity "
                    "requires distinct block eigenvalues"
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(m for _, m in self.blocks)

    def eigenvalues(self) -> list[complex]:
        return [a for a, _ in self.blocks]

    def matches(self, other: "JordanSpectrum") -> bool:
        if self.dim != other.dim or len(self.blocks) != len(other.blocks):
            return False
        scale = max(1.0, max(abs(a) for a, _ in self.blocks))
        for (a, ma), (b, mb) in zip(self.blocks, other.blocks):
            if ma != mb or abs(a - b) > CLUSTER_TOL * scale:
                return False
        return True


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    probe: str
    condition: float
    threshold: float
    probes_tried: tuple[str, ...]

    def __bool__(self):
        return self.regular


def characteristic_polynomial(a) -> list[complex]:
    """Monic characteristic polynomial, ascending coefficients
    [c_0, ..., c_{n-1}, 1], via the Faddeev-LeVerrier recursion."""
    m = _as_matrix(a)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[n] = 1.0
    mk = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        am = m @ mk
        c = -np.trace(am) / k
        coeffs[n - k] = c
        mk = am + c * np.eye(n)
    return [complex(c) for c in coeffs]


def _krylov(a: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    cols = [v]
    for _ in range(count - 1):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def _probe_vectors(n: int) -> Iterator[tuple[str, np.ndarray]]:
    """The unit vectors e0, ..., e(n-1), the all-ones vector and one random
    vector of a fixed generator, in this order, each made when it is
    asked for."""
    eye = np.eye(n, dtype=np.complex128)
    for i in range(n):
        yield f"e{i}", eye[i]
    yield "ones", np.ones(n, dtype=np.complex128)
    rng = np.random.default_rng(0)
    yield "random", rng.standard_normal(n) + 1j * rng.standard_normal(n)


# A probe is cyclic when the smallest singular value of its Krylov matrix is
# above this times the largest.
KRYLOV_TOL = 1e-8


def _krylov_probes(a):
    """Krylov test of each probe vector in turn: yields the probe's name,
    its unit vector, the condition number of its Krylov matrix (of the
    matrix scaled to spectral norm at most one) and whether it is cyclic."""
    m = _as_matrix(a)
    n = m.shape[0]
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    for name, v in _probe_vectors(n):
        v = v / np.linalg.norm(v)
        sv = np.linalg.svd(_krylov(m / scale, v, n), compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        yield name, v, cond, bool(sv[-1] > KRYLOV_TOL * sv[0])


def is_regular(a) -> RegularityReport:
    """Cyclic-vector test over deterministic probes plus one random probe
    of a fixed generator.  Returns a report whose truth value is the
    verdict."""
    best_cond = np.inf
    best_probe = ""
    tried = []
    for name, _, cond, cyclic in _krylov_probes(a):
        tried.append(name)
        if cond < best_cond:
            best_cond = cond
            best_probe = name
        if cyclic:
            return RegularityReport(True, name, cond, KRYLOV_TOL, tuple(tried))
    return RegularityReport(False, best_probe, best_cond, KRYLOV_TOL, tuple(tried))


def minimal_polynomial(a) -> list[complex]:
    """Minimal polynomial via a Krylov relation on the first cyclic probe.

    Independent of :func:`characteristic_polynomial`; for regular input the
    two agree coefficient-wise.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    v = next((v for _, v, _, cyclic in _krylov_probes(m) if cyclic), None)
    if v is None:
        raise RegularityError("no cyclic vector found; the matrix is not regular")
    k = _krylov(m, v, n)
    rhs = m @ k[:, -1]
    sol, *_ = np.linalg.lstsq(k, rhs, rcond=None)
    coeffs = [-complex(c) for c in sol] + [1.0]
    return coeffs


def _clustering_threshold(n: int, scale: float) -> float:
    # Jordan-block eigenvalues scatter like (n*eps)^(1/n) under roundoff;
    # keep CLUSTER_TOL as a floor and surface the effective value.
    scatter = 4.0 * n * (_EPS * n) ** (1.0 / n)
    return max(CLUSTER_TOL, scatter) * scale


def jordan_spectrum(
    a,
    return_details: bool = False,
    *,
    regularity: RegularityReport | None = None,
):
    """Jordan spectrum of a regular matrix by eigenvalue clustering.

    Each cluster of numerically coincident eigenvalues is one Jordan block
    (regularity).  Raises if the matrix is not regular or if eigenvalue gaps
    sit within a factor 10 of the effective clustering threshold.  A
    ``regularity`` report of the same matrix, made by :func:`is_regular`,
    stands in for the probe this call would run.
    """
    m = _as_matrix(a)
    reg = is_regular(m) if regularity is None else regularity
    n = m.shape[0]
    if not reg:
        raise RegularityError(
            f"matrix is not regular (best Krylov condition {reg.condition:.3e})"
        )
    eig = np.linalg.eigvals(m)
    scale = max(1.0, float(np.max(np.abs(eig))))
    threshold = _clustering_threshold(n, scale)

    gaps = [abs(eig[i] - eig[j]) for i in range(n) for j in range(i + 1, n)]
    for g in gaps:
        if threshold < g < 10.0 * threshold:
            raise ClusteringAmbiguityError(
                f"eigenvalue gap {g:.3e} is within a factor 10 of the "
                f"clustering threshold {threshold:.3e}"
            )

    # single-linkage clustering below the threshold
    remaining = list(range(n))
    clusters: list[list[int]] = []
    while remaining:
        seed_idx = remaining.pop(0)
        cluster = [seed_idx]
        changed = True
        while changed:
            changed = False
            for idx in remaining[:]:
                if any(abs(eig[idx] - eig[c]) <= threshold for c in cluster):
                    cluster.append(idx)
                    remaining.remove(idx)
                    changed = True
        clusters.append(cluster)
    blocks = tuple(
        (complex(np.mean([eig[i] for i in c])), len(c)) for c in clusters
    )
    spectrum = JordanSpectrum(blocks)
    if return_details:
        return spectrum, {
            "clustering_threshold": threshold,
            "requested_tolerance": CLUSTER_TOL,
            "raw_eigenvalues": [complex(z) for z in eig],
            "probe": reg.probe,
        }
    return spectrum


# A vector is cyclic when its Krylov matrix has sv_min > this * max(sv_max, 1).
CYCLIC_TOL = 1e-10


def cyclic_basis_representation(a, v) -> np.ndarray:
    """The matrix of ``a`` in the basis {v, Av, ..., A^{n-1}v}: a companion
    matrix with sub-diagonal ones and the last column solved from A^n v."""
    m = _as_matrix(a)
    n = m.shape[0]
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (n,):
        raise ShapeError(f"cyclic vector must have length {n}")
    if not np.linalg.norm(v) > 0:
        raise RegularityError("zero vector cannot be cyclic")
    k = _krylov(m, v, n)
    sv = np.linalg.svd(k, compute_uv=False)
    if sv[-1] <= CYCLIC_TOL * max(sv[0], 1.0):
        raise RegularityError("the supplied vector is not cyclic (Krylov basis degenerate)")
    last = np.linalg.solve(k, m @ k[:, -1])
    comp = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        comp[i + 1, i] = 1.0
    comp[:, n - 1] = last
    return comp


def same_conjugacy_class(a, b) -> bool:
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        return False
    return jordan_spectrum(ma).matches(jordan_spectrum(mb))


def jordan_block(eigenvalue: complex, size: int) -> np.ndarray:
    """Lower Jordan block (sub-diagonal ones), matching the companion
    convention used throughout."""
    j = np.eye(size, dtype=np.complex128) * complex(eigenvalue)
    for i in range(size - 1):
        j[i + 1, i] = 1.0
    return j

