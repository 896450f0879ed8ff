import numpy as np
import pytest

from wickforge.errors import NotHermitian
from wickforge.linalg import (
    dagger,
    hermitian_spectrum,
    kernel_basis,
    operator_norm,
    span_and_complement,
)

from oracles import flip_matrix, kron, kron_oracle

EPS = 1e-9


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar(self):
        assert np.array_equal(kron(np.array([[2.0]]), np.eye(2)), 2 * np.eye(2))

    def test_flip_times_identity_against_index_oracle(self):
        tau = flip_matrix(2)
        result = kron(tau, np.eye(2))
        assert result.shape == (8, 8)
        assert np.array_equal(result, kron_oracle(tau, np.eye(2, dtype=complex)))
        # permutes the first two slots of a three-fold product
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    vec = np.zeros(8)
                    vec[(i * 2 + j) * 2 + k] = 1.0
                    out = result @ vec
                    assert out[(j * 2 + i) * 2 + k] == 1.0

    def test_associative(self):
        rng = np.random.default_rng(7)
        # integer entries keep the products exact, so equality is literal
        a = rng.integers(-4, 5, (2, 3)).astype(complex)
        b = rng.integers(-4, 5, (3, 2)).astype(complex)
        c = rng.integers(-4, 5, (2, 2)).astype(complex)
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
        x = random_complex(rng, 2, 2)
        y = random_complex(rng, 2, 2)
        z = random_complex(rng, 2, 2)
        assert np.allclose(kron(kron(x, y), z), kron(x, kron(y, z)), atol=EPS)


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(3)), np.eye(3))

    def test_conjugates(self):
        assert dagger(np.array([[1j]]))[0, 0] == -1j

    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 2)
        assert np.array_equal(dagger(dagger(a)), a)

    def test_antihomomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 3, 3)
            assert np.allclose(dagger(a @ b), dagger(b) @ dagger(a), atol=EPS)


class TestHermitianSpectrum:
    def test_identity(self):
        assert np.allclose(hermitian_spectrum(np.eye(3)), [1, 1, 1])

    def test_id_plus_flip(self):
        # flip has eigenvalue +1 on the 3-dim symmetric subspace, -1 on the rest
        spectrum = hermitian_spectrum(np.eye(4) + flip_matrix(2))
        assert np.allclose(spectrum, [0, 2, 2, 2], atol=EPS)

    def test_pauli_x(self):
        spectrum = hermitian_spectrum(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(spectrum, [-1, 1], atol=EPS)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_tolerance_scales_with_the_entries(self):
        big = 1e6 * (np.eye(4) + flip_matrix(2)).astype(complex)
        big[0, 1] += 1e-5  # relative deviation 5e-12
        assert np.allclose(hermitian_spectrum(big) / 1e6, [0, 2, 2, 2], atol=EPS)
        big[0, 1] += 1e-2  # relative deviation 5e-9
        with pytest.raises(NotHermitian):
            hermitian_spectrum(big)

    def test_unitary_conjugation_recovers_diagonal(self):
        rng = np.random.default_rng(11)
        diag = np.sort(rng.standard_normal(4))
        unitary, _ = np.linalg.qr(random_complex(rng, 4, 4))
        mat = unitary @ np.diag(diag) @ dagger(unitary)
        assert np.allclose(hermitian_spectrum(mat, 1e-6), diag, atol=EPS)


class TestKernelBasis:
    def test_trivial(self):
        assert kernel_basis(np.eye(2)).shape == (2, 0)

    def test_zero_matrix(self):
        basis = kernel_basis(np.zeros((2, 2)))
        assert basis.shape == (2, 2)
        assert np.allclose(dagger(basis) @ basis, np.eye(2), atol=EPS)

    def test_id_plus_flip_kernel_is_antisymmetric(self):
        basis = kernel_basis(np.eye(4) + flip_matrix(2))
        assert basis.shape == (4, 1)
        target = np.zeros(4, dtype=complex)
        target[1], target[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        overlap = abs(np.vdot(target, basis[:, 0]))
        assert overlap == pytest.approx(1.0, abs=EPS)

    def test_id_minus_flip_kernel_is_symmetric(self):
        assert kernel_basis(np.eye(4) - flip_matrix(2)).shape == (4, 3)

    def test_vectors_annihilated_and_orthonormal(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            low_rank = random_complex(rng, 5, 2) @ random_complex(rng, 2, 5)
            basis = kernel_basis(low_rank)
            assert basis.shape[1] == 3
            smax = float(np.linalg.norm(low_rank, 2))
            assert np.max(np.abs(low_rank @ basis)) <= 10 * EPS * smax
            assert np.allclose(dagger(basis) @ basis, np.eye(3), atol=EPS)


class TestSpanAndComplement:
    def test_empty_input(self):
        span, comp = span_and_complement(np.zeros((3, 0)), 3)
        assert span.shape == (3, 0)
        assert comp.shape == (3, 3)

    def test_duplicate_collapse(self):
        e1 = np.array([1.0, 0.0])
        span, comp = span_and_complement(np.stack([e1, e1], axis=1), 2)
        assert span.shape == (2, 1)
        assert comp.shape == (2, 1)

    def test_columns_of_id_minus_flip(self):
        span, comp = span_and_complement(np.eye(4) - flip_matrix(2), 4)
        assert span.shape == (4, 1)
        assert comp.shape == (4, 3)

    def test_dimensions_always_add_up(self):
        rng = np.random.default_rng(17)
        for cols in range(5):
            mat = random_complex(rng, 4, cols) if cols else np.zeros((4, 0))
            span, comp = span_and_complement(mat, 4)
            assert span.shape[1] + comp.shape[1] == 4
            if span.shape[1] and comp.shape[1]:
                assert np.max(np.abs(dagger(span) @ comp)) <= EPS


class TestTolerance:
    def test_default_resolution(self):
        from wickforge.linalg import DEFAULT_EPS, resolve_eps

        assert resolve_eps(None) == DEFAULT_EPS
        assert resolve_eps(1e-6) == 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    def test_rejects_non_positive(self, bad):
        from wickforge.linalg import resolve_eps

        with pytest.raises(ValueError):
            resolve_eps(bad)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=EPS)

    def test_scaled_flip(self):
        assert operator_norm(0.5 * flip_matrix(2)) == pytest.approx(0.5, abs=EPS)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
