"""Regular-endomorphism tests: frozen examples plus conjugation properties."""

import numpy as np
import pytest

from regfman import regend
from regfman.errors import RegularityError, SpectrumError
from regfman.regend import (
    JordanSpectrum,
    characteristic_polynomial,
    cyclic_basis_representation,
    is_regular,
    jordan_block,
    jordan_spectrum,
    minimal_polynomial,
    same_conjugacy_class,
)


def companion_matrix(monic_ascending) -> np.ndarray:
    """Companion matrix of a monic polynomial given by ascending coefficients
    [c_0, ..., c_{n-1}, 1], in the sub-diagonal-ones convention."""
    coeffs = [complex(c) for c in monic_ascending]
    n = len(coeffs) - 1
    comp = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        comp[i + 1, i] = 1.0
    comp[:, n - 1] = [-c for c in coeffs[:-1]]
    return comp


def matrix_from_spectrum(spectrum: JordanSpectrum) -> np.ndarray:
    """The block-diagonal matrix of lower Jordan blocks of a spectrum."""
    n = spectrum.dim
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for a, m in spectrum.blocks:
        out[at : at + m, at : at + m] = jordan_block(a, m)
        at += m
    return out


class TestCharacteristicPolynomial:
    def test_nilpotent_block(self):
        # z^2
        got = characteristic_polynomial([[0, 0], [1, 0]])
        assert got == pytest.approx([0, 0, 1])

    def test_diag(self):
        # z^2 - 3z + 2
        got = characteristic_polynomial(np.diag([1.0, 2.0]))
        assert got == pytest.approx([2, -3, 1])

    def test_jordan_2x2(self):
        # det(zI - J_2(a)) = z^2 - 2az + a^2, oracle: direct 2x2 expansion
        a = 1.5 - 0.5j
        got = characteristic_polynomial([[a, 0], [1, a]])
        assert got == pytest.approx([a * a, -2 * a, 1])


class TestIsRegular:
    def test_single_jordan_block(self):
        assert is_regular(jordan_block(2 + 1j, 3))

    def test_identity_not_regular(self):
        rep = is_regular(np.eye(2))
        assert not rep
        assert rep.condition > 1e8

    def test_diag_distinct(self):
        rep = is_regular(np.diag([1.0, 2.0]))
        assert rep
        assert rep.probe in {"e0", "e1", "ones", "random"}

    def test_probes_are_made_in_order_and_the_random_one_last(self, monkeypatch):
        names, vectors = zip(*regend._probe_vectors(3))
        assert names == ("e0", "e1", "e2", "ones", "random")
        assert np.array_equal(np.stack(vectors[:3]), np.eye(3)) and np.array_equal(vectors[3], np.ones(3))
        rng = np.random.default_rng(0)
        assert np.array_equal(vectors[4], rng.standard_normal(3) + 1j * rng.standard_normal(3))

        def refuse(*args, **kwargs):
            raise AssertionError("the random probe was made")

        # the generator is built only when every other probe has failed
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert is_regular(jordan_block(0.5, 3)).probe == "e0"
        assert is_regular(np.diag([1.0, 2.0])).probe == "ones"
        with pytest.raises(AssertionError, match="random probe"):
            is_regular(np.eye(2))


class TestJordanSpectrum:
    def test_jordan_block(self):
        a = 0.5 + 2j
        spec = jordan_spectrum([[a, 0], [1, a]])
        assert spec.blocks == ((a, 2),) or abs(spec.blocks[0][0] - a) < 1e-8

    def test_diag(self):
        spec = jordan_spectrum(np.diag([2.0, 1.0]))
        assert [m for _, m in spec.blocks] == [1, 1]
        assert spec.eigenvalues() == pytest.approx([1.0, 2.0])

    def test_identity_rejected(self):
        with pytest.raises(RegularityError):
            jordan_spectrum(np.eye(2))

    def test_big_block_clusters(self):
        # eigenvalue scatter of a multiplicity-4 block exceeds 1e-6; the
        # effective threshold must still produce a single block
        spec, details = jordan_spectrum(jordan_block(1.0, 4), return_details=True)
        assert [m for _, m in spec.blocks] == [4]
        assert abs(spec.blocks[0][0] - 1.0) < 1e-8
        assert details["clustering_threshold"] >= 1e-6

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(11)
        base = matrix_from_spectrum(JordanSpectrum(((0.0, 2), (1.0, 1))))
        for _ in range(5):
            s = np.eye(3) + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            m = s @ base @ np.linalg.inv(s)
            spec = jordan_spectrum(m)
            assert [b for _, b in spec.blocks] == [2, 1]
            assert abs(spec.blocks[0][0]) < 1e-7
            assert abs(spec.blocks[1][0] - 1.0) < 1e-7

    def test_block_sizes_sum_to_dim(self):
        spec = jordan_spectrum(matrix_from_spectrum(JordanSpectrum(((2 + 1j, 3), (0.0, 1)))))
        assert spec.dim == 4

    def test_spectrum_type_rejects_repeats(self):
        with pytest.raises(SpectrumError):
            JordanSpectrum(((1.0, 1), (1.0, 1)))

    def test_clustering_ambiguity_raised(self):
        from regfman.errors import ClusteringAmbiguityError

        # gap of 3e-6 sits between the threshold and 10x the threshold
        with pytest.raises(ClusteringAmbiguityError):
            jordan_spectrum(np.diag([0.0, 3e-6]))


class TestCyclicBasis:
    def test_nilpotent(self):
        # J lower: A e0 = e1, A^2 e0 = 0 -> companion [[0,0],[1,0]]
        got = cyclic_basis_representation(jordan_block(0.0, 2), [1, 0])
        assert got == pytest.approx(np.array([[0, 0], [1, 0]]))

    def test_diag_ones_probe(self):
        # A^2 v = 3Av - 2v from z^2 - 3z + 2
        got = cyclic_basis_representation(np.diag([1.0, 2.0]), [1, 1])
        assert got == pytest.approx(np.array([[0, -2], [1, 3]]))

    def test_zero_vector(self):
        with pytest.raises(RegularityError):
            cyclic_basis_representation(np.diag([1.0, 2.0]), [0, 0])

    def test_companion_is_similar(self):
        m = jordan_block(1.0 + 1j, 3)
        comp = cyclic_basis_representation(m, np.array([1.0, 0.5, 0.25]))
        pa = characteristic_polynomial(m)
        pb = characteristic_polynomial(comp)
        assert np.max(np.abs(np.array(pa) - np.array(pb))) < 1e-8


class TestConjugacy:
    def test_jordan_vs_companion(self):
        a = 0.7 - 0.2j
        comp = companion_matrix([a * a, -2 * a, 1])
        assert same_conjugacy_class(jordan_block(a, 2), comp)

    def test_different_eigenvalues(self):
        assert not same_conjugacy_class(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))

    def test_dimension_mismatch(self):
        assert not same_conjugacy_class(np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0]))


class TestMinimalPolynomial:
    @pytest.mark.parametrize(
        "mat",
        [
            jordan_block(0.5 + 0.5j, 3),
            np.diag([1.0, 2.0, -1.0]),
            matrix_from_spectrum(JordanSpectrum(((0.0, 2), (2 + 1j, 1)))),
        ],
    )
    def test_min_equals_char_for_regular(self, mat):
        char = np.array(characteristic_polynomial(mat))
        minp = np.array(minimal_polynomial(mat))
        assert np.max(np.abs(char - minp)) < 1e-8
