"""Principal specializations of skew Schur functions, as exact q-functions.

s_{mu/rho}(1, q, q^2, ...) via the Jacobi-Trudi determinant
det( h_{mu_i - rho_j - i + j} ) with h_k(1, q, ...) = 1/prod_{i<=k}(1 - q^i).
Everything lives in Q(u) with q = u^2.
"""
from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, contains, length
from .qfunc import QFunction, ULaurent, sum_of_products


@lru_cache(maxsize=None)
def h_principal(k: int) -> QFunction:
    """Complete homogeneous h_k at (1, q, q^2, ...)."""
    if k < 0:
        return QFunction.zero()
    den = ULaurent.const(1)
    for i in range(1, k + 1):
        den = den * (ULaurent.const(1) - ULaurent.mono(2 * i))
    return QFunction(0, ULaurent.const(1), den)


@lru_cache(maxsize=None)
def skew_schur_principal(mu: Partition, rho: Partition = ()) -> QFunction:
    """s_{mu/rho}(1, q, q^2, ...); zero when rho is not contained in mu."""
    if not contains(mu, rho):
        return QFunction.zero()
    n = length(mu)
    if n == 0:
        return QFunction.const(1)
    rho_p = rho + (0,) * (n - len(rho))
    entries = [[h_principal(mu[i] - rho_p[j] - i + j) for j in range(n)]
               for i in range(n)]
    return _det(tuple(range(n)), tuple(range(n)), entries)


def _det(rows: tuple[int, ...], cols: tuple[int, ...], entries) -> QFunction:
    """Laplace expansion along the first row."""
    if not rows:
        return QFunction.const(1)
    i, rest = rows[0], rows[1:]
    return sum_of_products(
        ((-entries[i][j] if t % 2 else entries[i][j],
          _det(rest, cols[:t] + cols[t + 1:], entries)), 0)
        for t, j in enumerate(cols) if entries[i][j])
