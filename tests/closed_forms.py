"""The paper's closed forms phi and psi, a reference for bounds.kappa_bound.

kappa_bound maps ell and mu through bounds.scheme_q_eigenvalues; these are
the two families' own formulas, each with its own xi, so the tests can
compare the two routes bit for bit.
"""

from local_update_lab.bounds import _geometric_sums
from local_update_lab.matrices import check_count


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
