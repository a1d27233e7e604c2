"""Dense linear algebra: embedding, pseudoinverse, spectral operations."""

import tracemalloc

import numpy as np
import pytest

from qfit.exceptions import DimensionError, SchemaError, SingularMatrixError
from qfit.linalg import (
    apply_matrix_function,
    condition_estimate,
    eig_hermitian,
    embed,
    matrix_from_json,
    matrix_to_json,
    pseudoinverse,
    sparsity_profile,
    spectral_norm,
)

from conftest import random_complex_matrix, random_complex_vector


class TestEmbed:
    def test_smallest_embedding(self):
        op = embed([[1.0]])
        np.testing.assert_allclose(op.matrix, [[0, 1], [1, 0]])

    def test_zero_matrix(self):
        op = embed(np.zeros((2, 2)))
        assert op.matrix.shape == (4, 4)
        assert np.all(op.matrix == 0)

    def test_column_pair_eigenvalues(self):
        f = np.array([[1.0], [1.0]]) / np.sqrt(2)
        eig = eig_hermitian(embed(f))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_blocks_and_hermiticity(self, rng):
        f = random_complex_matrix(rng, 5, 3)
        op = embed(f)
        h = op.matrix
        np.testing.assert_allclose(h, h.conj().T)
        assert np.all(h[:3, :3] == 0)
        assert np.all(h[3:, 3:] == 0)
        np.testing.assert_allclose(h[3:, :3], f)

    def test_action_on_data_vector(self, rng):
        f = random_complex_matrix(rng, 6, 4)
        y = random_complex_vector(rng, 6)
        vec = np.concatenate([np.zeros(4), y])
        out = embed(f).matrix @ vec
        np.testing.assert_allclose(out[:4], f.conj().T @ y, atol=1e-12)
        np.testing.assert_allclose(out[4:], 0, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            embed(np.ones((60, 10)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            embed([[np.nan]])


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(2)), np.eye(2))

    def test_scalar(self):
        np.testing.assert_allclose(pseudoinverse([[2.0]]), [[0.5]])

    def test_column_vector(self):
        np.testing.assert_allclose(pseudoinverse([[1.0], [1.0]]), [[0.5, 0.5]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            pseudoinverse([[1.0, 1.0], [1.0, 1.0]])

    def test_wide_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            pseudoinverse(np.ones((1, 2)))


class TestAppendixProperties:
    """Defining identities of F F^+ on random well-conditioned instances."""

    def _instance(self, rng):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, min(n, 8) + 1))
        f = random_complex_matrix(rng, n, m)
        y = random_complex_vector(rng, n)
        return f, y

    def test_projector_identities(self, rng):
        for _ in range(25):
            f, y = self._instance(rng)
            proj = f @ pseudoinverse(f)
            assert spectral_norm(proj.conj().T - proj) <= 1e-10
            assert spectral_norm(proj @ f - f) <= 1e-10
            assert np.linalg.norm(f.conj().T @ (proj @ y - y)) <= 1e-10

    def test_minimality(self, rng):
        f, y = self._instance(rng)
        z = pseudoinverse(f) @ y
        base = np.linalg.norm(f @ z - y) ** 2
        for _ in range(100):
            delta = random_complex_vector(rng, f.shape[1], unit=False)
            delta /= max(np.linalg.norm(delta), 1.0)
            assert np.linalg.norm(f @ (z + delta) - y) ** 2 >= base - 1e-10


class TestEigHermitian:
    def test_pauli_x_spectrum(self):
        eig = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_diagonal(self):
        eig = eig_hermitian(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 3.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-12)

    def test_orthonormal_and_reconstructs(self, rng):
        f = random_complex_matrix(rng, 6, 3)
        op = embed(f)
        eig = eig_hermitian(op)
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        np.testing.assert_allclose(gram, np.eye(op.dim), atol=1e-10)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert spectral_norm(recon - op.matrix) <= 1e-10

    def test_phase_convention(self, rng):
        h = random_complex_matrix(rng, 4, 4)
        h = h + h.conj().T
        first = eig_hermitian(h)
        second = eig_hermitian(h)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)
        for col in first.eigenvectors.T:
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    def test_spectral_consistency_with_singular_values(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            f = random_complex_matrix(rng, n, m)
            sigma = np.linalg.svd(f, compute_uv=False)
            expected = np.sort(np.concatenate([sigma, -sigma, np.zeros(n - m)]))
            eig = eig_hermitian(embed(f))
            np.testing.assert_allclose(eig.eigenvalues, expected, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DimensionError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestApplyMatrixFunction:
    X = np.array([[0.0, 1.0], [1.0, 0.0]])

    def test_identity_function_is_matrix_product(self):
        out = apply_matrix_function(eig_hermitian(self.X), lambda e: e, [1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_inverse_of_involution(self):
        out = apply_matrix_function(eig_hermitian(self.X), lambda e: 1.0 / e, [0.0, 1.0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_constant_one_is_identity(self, rng):
        f = random_complex_matrix(rng, 4, 2)
        v = random_complex_vector(rng, 6)
        out = apply_matrix_function(eig_hermitian(embed(f)), lambda e: np.ones_like(e), v)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_pseudo_inverse_projects_kernel(self, rng):
        # 1/E then E acts as the projector onto the nonzero eigenspace.
        f = random_complex_matrix(rng, 5, 2)  # embedding has 3 zero modes
        eig = eig_hermitian(embed(f))
        v = random_complex_vector(rng, 7)
        inv = apply_matrix_function(eig, lambda e: 1.0 / e, v)
        back = apply_matrix_function(eig, lambda e: e, inv)
        nonzero = np.abs(eig.eigenvalues) > 1e-12
        basis = eig.eigenvectors[:, nonzero]
        projected = basis @ (basis.conj().T @ v)
        np.testing.assert_allclose(back, projected, atol=1e-10)


class TestConditionEstimate:
    def test_identity(self):
        est = condition_estimate(np.eye(3))
        assert est.kappa == pytest.approx(1.0)

    def test_diagonal(self):
        est = condition_estimate(np.diag([1.0, 0.5]))
        assert est.kappa == pytest.approx(2.0)
        assert est.sigma_max == pytest.approx(1.0)
        assert est.sigma_min == pytest.approx(0.5)

    def test_shear(self):
        est = condition_estimate([[1.0, 0.0], [1.0, 1.0]])
        expected = np.sqrt((3 + np.sqrt(5)) / (3 - np.sqrt(5)))
        assert est.kappa == pytest.approx(expected, abs=1e-9)

    def test_ill_posed(self):
        with pytest.raises(SingularMatrixError):
            condition_estimate([[1.0, 1.0], [1.0, 1.0]])

    def test_wide_matrix_is_refused_as_by_pseudoinverse(self):
        # Both nonzero singular values are 1; a third column makes F wide.
        wide = np.eye(2, 3)
        with pytest.raises(SingularMatrixError, match="more columns than rows") as estimate:
            condition_estimate(wide)
        with pytest.raises(SingularMatrixError) as pinv:
            pseudoinverse(wide)
        assert str(pinv.value) == str(estimate.value)


class TestSparsityProfile:
    def test_dense(self):
        assert sparsity_profile(np.ones((3, 2))) == 3

    def test_diagonal(self):
        assert sparsity_profile(np.eye(4)) == 1

    def test_small_entry_counts(self):
        f = np.eye(4)
        f[0, 2] = 1e-6
        assert sparsity_profile(f) == 2


class TestMatrixJson:
    def test_dense_roundtrip(self, rng):
        f = random_complex_matrix(rng, 3, 2)
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(f)), f)

    def test_sparse_triplets(self):
        obj = {"rows": 2, "cols": 2, "triplets": [[0, 1, 1.0, -2.0], [1, 0, 3.0, 0.0]]}
        mat = matrix_from_json(obj)
        np.testing.assert_allclose(mat, [[0, 1 - 2j], [3, 0]])

    def test_entry_count_mismatch(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    def test_triplet_out_of_range(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 1, "cols": 1, "triplets": [[0, 5, 1.0, 0.0]]})

    def test_missing_payload(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 1, "cols": 1})

    def test_matrix_over_the_entry_limit_is_refused_before_allocating(self):
        # 4097^2 complex entries would take 268 MB; the bound is 4096^2 = 2^24.
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="4097 x 4097"):
                matrix_from_json({"rows": 4097, "cols": 4097, "triplets": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("obj", [
        pytest.param({"rows": 2.9, "cols": 1, "triplets": []}, id="rows-float"),
        pytest.param({"rows": "2", "cols": 1, "triplets": []}, id="rows-string"),
        pytest.param({"rows": 2, "cols": 1.5, "triplets": []}, id="cols-float"),
        pytest.param({"rows": 2, "cols": True, "triplets": []}, id="cols-bool"),
        pytest.param({"rows": 2, "cols": 1, "triplets": [[0.7, 0, 1.0, 0.0]]}, id="index-float"),
        pytest.param({"rows": 2, "cols": 1, "triplets": [[1, False, 2.0, 0.0]]},
                     id="index-bool"),
        pytest.param({"rows": 2.9, "cols": 1.5,
                      "triplets": [[0.7, 0.2, 1.0, 0.0], [True, False, 2.0, 0.0]]},
                     id="all-truncated"),
    ])
    def test_counts_and_indices_must_be_integers(self, obj):
        with pytest.raises(SchemaError):
            matrix_from_json(obj)

    @pytest.mark.parametrize("triplet", [[0, 0, 1.0], [0, 0, 1.0, 0.0, 0.0], 7],
                             ids=["three-items", "five-items", "number"])
    def test_triplet_must_have_four_items(self, triplet):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 1, "cols": 1, "triplets": [triplet]})
