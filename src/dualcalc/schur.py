"""Principal specializations of skew Schur functions, as integer numerators
over factored denominators.

Stanley (EC2, Prop. 7.19.11): s_{mu/rho}(1, q, q^2, ...) = f_{mu/rho}(q)/(q;q)_n,
n = |mu/rho|, with f the Jacobi-Trudi determinant det(h_{mu_i - rho_j - i + j}),
h_k = 1/(q;q)_k, on integers: each minor on rows i.. is taken times (q;q)_m, m the
sum of its h-indices, so a Laplace step is a Gaussian binomial times a smaller
integer minor.  With q = u^2, (q;q)_n = (-1)^n prod_{i<=n} prod_{e | 2i} Phi_e(u)
comes factored (``pochhammer_factors``), so ``chern_simons.w_pair`` puts its
sum of numerator products over it and reduces each value once.
"""
from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, contains, length, size
from .qfunc import Factors, ULaurent, bracket_quotient


@lru_cache(maxsize=None)
def _gaussian(m: int, k: int) -> ULaurent:
    """The Gaussian binomial [m, k]_q for 0 <= k <= m."""
    if k in (0, m):
        return ULaurent.const(1)
    return _gaussian(m - 1, k - 1) + _gaussian(m - 1, k).shift(2 * k)


@lru_cache(maxsize=None)
def pochhammer_factors(*ns: int) -> Factors:
    """The cyclotomic factors of prod_{n in ns} prod_{i<=n} (u^{2i} - 1), u^{2i} - 1 = u^i [i]."""
    return bracket_quotient([], [i for n in ns for i in range(1, n + 1)]).fac


@lru_cache(maxsize=None)
def skew_numerator(mu: Partition, rho: Partition, top: int) -> ULaurent:
    """f_{mu/rho} prod_{n<i<=top} (u^{2i} - 1), n = |mu/rho| <= top: the integer numerator
    of (-1)^n s_{mu/rho} over prod_{i<=top} (u^{2i} - 1); zero unless rho is in mu."""
    if not contains(mu, rho):
        return ULaurent()
    n = length(mu)
    rho = rho + (0,) * (n - len(rho))
    minors = {(): ULaurent.const(1)}

    def minor(cols: tuple[int, ...], m: int) -> ULaurent:
        """(q;q)_m times the minor on rows n - len(cols).., columns cols; m sums its h-indices."""
        if cols not in minors:
            i = n - len(cols)
            acc = ULaurent()
            for t, j in enumerate(cols):
                a = mu[i] - rho[j] - i + j
                if 0 <= a <= m:
                    term = _gaussian(m, a) * minor(cols[:t] + cols[t + 1:], m - a)
                    acc = acc - term if t % 2 else acc + term
            minors[cols] = acc
        return minors[cols]

    out = minor(tuple(range(n)), size(mu) - size(rho))
    for i in range(size(mu) - size(rho) + 1, top + 1):
        out = out * ULaurent({2 * i: 1, 0: -1})
    return out
