"""Test references: the paper's closed forms phi and psi, and the Horner distortion polynomial.

kappa_bound maps ell and mu through scheme_q_eigenvalues; phi and psi are
the two families' own formulas, each with its own xi, so the tests can
compare the two routes bit for bit. horner_distortion_matrix evaluates
Q = sum_k theta_k (I - gamma (A + alpha I))^(k-1) literally, one matmul per
step, against which quadratics.distortion_matrix (built from A's eigenpairs)
is compared within a tolerance.
"""

import numpy as np

from local_update_lab.matrices import check_count, check_rates
from local_update_lab.quadratics import _geometric_sums


def phi(lam: float, alpha: float, gamma: float, k: int) -> float:
    """sum_{j=1}^{K} (1 - gamma (lam + alpha))^(j-1) lam."""
    check_count(k, "k")
    xi = 1.0 - gamma * (lam + alpha)
    return float(_geometric_sums(xi, k)) * lam


def psi(lam: float, alpha: float, gamma: float, k: int) -> float:
    """(1 - gamma (lam + alpha))^(K-1) lam."""
    check_count(k, "k")
    xi = 1.0 - gamma * (lam + alpha)
    return xi ** (k - 1) * lam


def horner_distortion_matrix(a, alpha, gamma, theta):
    """sum_k theta_k (I - gamma (A + alpha I))^(k-1), symmetrised, for a (d, d) matrix or an (n, d, d) stack."""
    check_rates(alpha, gamma)
    coeffs = theta.coefficients[: theta.size]
    eye = np.eye(a.shape[-1])
    m = (1.0 - gamma * alpha) * eye - gamma * a
    q = np.broadcast_to(coeffs[-1] * eye, a.shape)
    for k in range(len(coeffs) - 2, -1, -1):
        q = q @ m
        if coeffs[k] != 0.0:
            q = q + coeffs[k] * eye
    return 0.5 * (q + q.swapaxes(-1, -2))
