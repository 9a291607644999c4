"""Quantum-dimension building blocks: one- and two-partition W values.

``w_one`` is the sine-product form for a single partition, with each factor
2 sin(m lambda/2) encoded as (-sqrt(-1)) (u^m - u^{-m}).  ``w_pair`` is the
two-partition skew-Schur form.  The two normalizations are related by the
fixed monomial bridge

    w_pair(nu, ()) = (-sqrt(-1))^{|nu|} u^{kappa_nu / 2} w_one(nu),

which ``check_pair_reduction`` tests for one partition (the
``local-p2-gv-integrality`` acceptance check runs it on small ones).
"""
from __future__ import annotations

from functools import lru_cache

from .errors import InternalError
from .partitions import (Partition, intersection, kappa, length, size,
                         sub_diagrams)
from .qfunc import QFunction, ULaurent, bracket_quotient
from .schur import pochhammer_factors, skew_numerator
from .series import LambdaSeries


@lru_cache(maxsize=None)
def w_one(mu: Partition) -> QFunction:
    """Sine-product W value of a single partition.

    The trailing product runs over the cells of mu (row index i, column
    index v) with arguments v - i + l(mu); the printed row bound is read as
    l(mu).  All arguments are positive for a valid partition, so no factor
    vanishes.
    """
    l = length(mu)
    tops, bottoms = [], []
    for a in range(l):
        for b in range(a + 1, l):
            m = mu[a] - mu[b] + (b + 1) - (a + 1)
            n = (b + 1) - (a + 1)
            if m <= 0 or n <= 0:
                raise InternalError(f"nonpositive bracket argument in w_one({mu})")
            tops.append(m)
            bottoms.append(n)
    for i in range(1, l + 1):
        for v in range(1, mu[i - 1] + 1):
            arg = v - i + l
            if arg <= 0:
                raise InternalError(f"vanishing sine factor in w_one({mu})")
            bottoms.append(arg)
    return bracket_quotient(-size(mu), tops, bottoms)


@lru_cache(maxsize=None)
def w_pair(mu: Partition, nu: Partition) -> QFunction:
    """Two-partition W value via the skew-Schur sum.

    (-1)^{|mu|+|nu|} q^{(kappa_mu + kappa_nu + |mu| + |nu|)/2}
    sum_rho q^{-|rho|} s_{mu/rho}(1,q,..) s_{nu/rho}(1,q,..),
    with rho running over diagrams contained in both mu and nu.  Over
    P_n = prod_{i<=n} (u^{2i} - 1), (-1)^{|mu/rho|} s_{mu/rho} has the integer
    numerator ``skew_numerator(mu, rho, |mu|)``, so the signs cancel and W is
    one integer numerator over P_{|mu|} P_{|nu|}, reduced once.
    """
    u_exp = kappa(mu) + kappa(nu) + size(mu) + size(nu)
    # kappa is even, so the u-exponent is an integer; assert the bookkeeping
    if (kappa(mu) + kappa(nu)) % 2:
        raise InternalError("odd kappa sum in w_pair")
    num = sum(((skew_numerator(mu, rho, size(mu)) * skew_numerator(nu, rho, size(nu)))
               .shift(u_exp - 2 * size(rho)) for rho in sub_diagrams(intersection(mu, nu))),
              ULaurent())
    return QFunction.from_factors(0, num, pochhammer_factors(size(mu), size(nu)))


@lru_cache(maxsize=None)
def pair_reduction_factor(nu: Partition) -> QFunction:
    """Monomial relating the two W normalizations on an empty second slot."""
    return QFunction.from_factors(size(nu), ULaurent.mono(kappa(nu) // 2), ())


def check_pair_reduction(nu: Partition) -> bool:
    return w_pair(nu, ()) == pair_reduction_factor(nu) * w_one(nu)


@lru_cache(maxsize=None)
def w_one_lambda(mu: Partition, trunc: int) -> LambdaSeries:
    """Lambda-expansion of w_one; floor is exactly -|mu|."""
    s = w_one(mu).to_lambda(trunc)
    if size(mu) and s.valuation() != -size(mu):
        raise InternalError(f"w_one({mu}) expansion floor {s.valuation()} != -|mu|")
    return s


@lru_cache(maxsize=None)
def w_pair_lambda(mu: Partition, nu: Partition, trunc: int) -> LambdaSeries:
    return w_pair(mu, nu).to_lambda(trunc)
