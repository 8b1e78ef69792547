import math

import numpy as np
import pytest
from conftest import (
    matrix_exp_hermitian,
    matrix_log_psd,
    random_hermitian,
    random_psd,
    taylor_expm,
)

from qmaxent import DomainError, ValidationError
from qmaxent.linalg import require_hermitian


class TestRequireHermitian:
    def test_non_finite_entry_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            m = np.eye(3, dtype=complex)
            m[2, 1] = bad
            with pytest.raises(ValidationError, match=r"entry \(2,1\).*not finite"):
                require_hermitian(m)

    def test_non_hermitian_rejected_with_entry_pair(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError, match=r"\(0,1\).*\(1,0\)"):
            require_hermitian(bad)


class TestMatrixExp:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(
            matrix_exp_hermitian(np.zeros((3, 3))), np.eye(3), atol=1e-14
        )

    def test_diagonal(self):
        m = np.diag([math.log(2.0), math.log(3.0)])
        np.testing.assert_allclose(
            matrix_exp_hermitian(m), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_against_taylor_series(self):
        m = np.array([[-1.0, -0.5], [-0.5, 0.0]])
        np.testing.assert_allclose(
            matrix_exp_hermitian(m), taylor_expm(m), atol=1e-10
        )

    def test_random_against_taylor_series(self):
        rng = np.random.default_rng(19)
        for dim in (2, 4, 8):
            m = random_hermitian(rng, dim)
            np.testing.assert_allclose(
                matrix_exp_hermitian(m), taylor_expm(m), atol=1e-10
            )

    def test_trace_is_sum_of_exp_eigenvalues(self):
        rng = np.random.default_rng(23)
        for dim in (2, 5, 12):
            m = random_hermitian(rng, dim)
            w = np.linalg.eigvalsh(m)
            e = matrix_exp_hermitian(m)
            tr = np.trace(e).real
            assert abs(tr - np.exp(w).sum()) <= 1e-10 * max(1.0, np.exp(w).sum())
            assert np.linalg.eigvalsh(e).min() > 0.0  # positive definite


class TestMatrixLog:
    def test_identity_gives_zero(self):
        np.testing.assert_allclose(
            matrix_log_psd(np.eye(4)), np.zeros((4, 4)), atol=1e-14
        )

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_log_psd(np.diag([2.0, 3.0])),
            np.diag([math.log(2.0), math.log(3.0)]),
            atol=1e-12,
        )

    def test_2x2_example_eigenvalue_logs(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        # eigenvalues (3 +- sqrt(5))/2, logs +-0.9624
        logm = matrix_log_psd(m)
        w = np.linalg.eigvalsh(logm)
        np.testing.assert_allclose(w, [-0.9624, 0.9624], atol=5e-5)
        np.testing.assert_allclose(matrix_exp_hermitian(logm), m, atol=1e-10)

    def test_exp_log_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4, 8):
            m = random_psd(rng, dim, min_eig=1e-6)
            back = matrix_exp_hermitian(matrix_log_psd(m, floor=1e-12))
            np.testing.assert_allclose(back, m, atol=1e-8 * max(1.0, np.abs(m).max()))

    def test_floor_clamps_small_eigenvalues(self):
        m = np.diag([1.0, 0.0])
        logm = matrix_log_psd(m, floor=1e-6)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(logm), [math.log(1e-6), 0.0], atol=1e-12
        )

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError, match="negative eigenvalue"):
            matrix_log_psd(np.diag([1.0, -0.5]))

    def test_bad_floor_rejected(self):
        with pytest.raises(ValidationError):
            matrix_log_psd(np.eye(2), floor=0.0)
