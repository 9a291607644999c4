"""Quantum-dimension building blocks: one- and two-partition W values.

Both are real rational functions of u = q^(1/2).  ``w_one`` is the
bracket quotient behind the sine-product form of a single partition: each
factor 2 sin(m lambda/2) is -i [m], [m] = u^m - u^{-m}, so the W value is
W_mu = i^{|mu|} w_one(mu).  ``w_pair`` is the two-partition skew-Schur form,
already real.  The two normalizations are related by the monomial bridge

    w_pair(nu, ()) = u^{kappa_nu / 2} w_one(nu),

which ``check_pair_reduction`` tests for one partition (the
``local-p2-gv-integrality`` acceptance check runs it on small ones).
``w_one_lambda`` expands the reduced ``w_one``; ``w_pair_lambda`` the unreduced
skew-Schur numerator over the Pochhammer brackets, one reciprocal series per two sizes;
each expansion is one ``Laurent`` in lambda' = i lambda, exact through lambda'^(trunc-1).
The vertex reads ``_pair_quotient`` unreduced; only ``w`` and the bridge check read ``w_pair``.
"""
from __future__ import annotations

from .errors import InternalError
from .laurent import Laurent
from .partitions import (Partition, check_partition, intersection, kappa, length, size,
                         sub_diagrams, typed_cache)
from .qfunc import Factors, QFunction, ULaurent, bracket_quotient, expand_lambda, sum_of_products
from .schur import pochhammer_factors, skew_numerator


@typed_cache("partition")
def w_one(mu: Partition) -> QFunction:
    """The real bracket quotient of a single partition, W_mu = i^{|mu|} w_one(mu):

        prod_{a<b} [mu_a - mu_b + b - a] / [b - a]  /  prod_{(i, v) in mu} [v - i + l(mu)],

    the trailing product over the cells of mu (row index i, column index v);
    the printed row bound is read as l(mu).  Every argument is positive for a
    partition, so no factor vanishes; anything else is a UsageError.
    """
    mu = check_partition(mu)
    l = length(mu)
    tops, bottoms = [], []
    for a in range(l):
        for b in range(a + 1, l):
            tops.append(mu[a] - mu[b] + b - a)
            bottoms.append(b - a)
    for i in range(1, l + 1):
        for v in range(1, mu[i - 1] + 1):
            bottoms.append(v - i + l)
    return bracket_quotient(tops, bottoms)


@typed_cache("partition", "partition")
def w_pair(mu: Partition, nu: Partition) -> QFunction:
    """Two-partition W value via the skew-Schur sum.

    (-1)^{|mu|+|nu|} q^{(kappa_mu + kappa_nu + |mu| + |nu|)/2}
    sum_rho q^{-|rho|} s_{mu/rho}(1,q,..) s_{nu/rho}(1,q,..),
    with rho running over diagrams contained in both mu and nu.  Over
    P_n = prod_{i<=n} (u^{2i} - 1), (-1)^{|mu/rho|} s_{mu/rho} has the integer
    numerator ``skew_numerator(mu, rho, |mu|)``, so the signs cancel and W is
    one integer numerator over P_{|mu|} P_{|nu|}, reduced once.
    """
    return QFunction.from_factors(*_pair_quotient(mu, nu))


def _pair_quotient(mu: Partition, nu: Partition) -> tuple[ULaurent, Factors]:
    """``w_pair(mu, nu)`` unreduced: its integer numerator and the factors of P_{|mu|} P_{|nu|}."""
    mu, nu = check_partition(mu), check_partition(nu)
    u_exp = kappa(mu) + kappa(nu) + size(mu) + size(nu)
    # kappa is even, so the u-exponent is an integer; assert the bookkeeping
    if (kappa(mu) + kappa(nu)) % 2:
        raise InternalError("odd kappa sum in w_pair")
    num = sum(((skew_numerator(mu, rho, size(mu)) * skew_numerator(nu, rho, size(nu)))
               .shift(u_exp - 2 * size(rho)) for rho in sub_diagrams(intersection(mu, nu))),
              ULaurent())
    return num, pochhammer_factors(size(mu), size(nu))


def check_pair_reduction(nu: Partition) -> bool:
    return w_pair(nu, ()) == sum_of_products([(1, (w_one(nu),), kappa(nu) // 2)])


@typed_cache("partition", "int")
def w_one_lambda(mu: Partition, trunc: int) -> Laurent:
    """Lambda'-expansion of w_one through lambda'^(trunc-1); its floor is exactly -|mu|."""
    s = w_one(mu).to_lambda(trunc)
    if size(mu) and (v := min(s.num, default=None)) != -size(mu):
        raise InternalError(f"w_one({mu}) expansion floor {v} != -|mu|")
    return s


@typed_cache("partition", "partition", "int")
def w_pair_lambda(mu: Partition, nu: Partition, trunc: int) -> Laurent:
    """Lambda'-expansion of w_pair through lambda'^(trunc-1), unreduced over the
    Pochhammer brackets: no trial division."""
    if nu > mu:  # W is symmetric in mu and nu
        return w_pair_lambda(nu, mu, trunc)
    return expand_lambda(*_pair_quotient(mu, nu), trunc)
