"""Hurwitz numbers two ways, the ELSV normalization, and psi-extraction.

* Burnside route: the disconnected series of p_mu is the character sum
  sum_nu chi_nu(mu)/z_mu e^{kappa_nu lambda/2} dim R_nu/|nu|!, held as an
  integer exponential sum {kappa_nu/2: sum chi_nu(mu) dim R_nu} over the
  denominator z_mu |mu|!.  The connected series Phi_mu(lambda) comes from
  the subset recursion on labelled parts (the connected part of a set of
  parts is its disconnected part minus the splits off the block of part 0),
  with products of exponential sums adding exponents; the lambda^j
  coefficient is a power sum (``dense.power_sums``) over j!, and a series is
  one ``laurent.Laurent`` in lambda, known below its truncation.
* Cut-and-join route: the same numbers are grown order by order from the
  genus-0 degree-1 seed by matching coefficients of the cut-and-join
  evolution d(Phi)/d(lambda) = CJ(Phi), on partition-keyed rationals: each
  lambda-slice is a {partition: Fraction} dict, and the linear operator is
  ``partitions.cut_join_terms``, the one the framed PDE residual uses.
* ELSV: I_{g,mu} = H_{g,mu} / r! with r = 2g-2+|mu|+l(mu); the bare linear
  Hodge integral is I scaled by |Aut(mu)| prod(mu_i!/mu_i^mu_i).
* psi_from_asymptotics: reads a psi-intersection number off the top-degree
  part of the bare-integral polynomial in the ramification profile, as one
  mixed finite difference of the bare integrals, formed for that coefficient
  alone.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from math import comb, factorial, prod

from .dense import power_sums
from .errors import InternalError, UsageError, VerificationFailure, as_index
from .laurent import Laurent
from .partitions import (Partition, _mn, add_parts, aut, character, check_partition,
                         cut_join_terms, dim, enumerate_partitions, kappa, length,
                         multiplicities, remove_part, size, zmu)

Frac = Fraction


def ramification_order(g: int, mu: Partition) -> int:
    """r = 2g - 2 + |mu| + l(mu), the simple-branch-point count."""
    return 2 * g - 2 + size(mu) + length(mu)


# ---------------------------------------------------------------------------
# Burnside route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple[tuple[Partition, int, int], ...]:
    """(nu, dim R_nu, kappa_nu/2) for each partition nu of n."""
    return tuple((nu, dim(nu), kappa(nu) // 2) for nu in enumerate_partitions(n))


def _exp_sum(n: int, weight) -> tuple[tuple[int, int], ...]:
    """sum_nu weight(nu, dim R_nu) e^{kappa_nu L/2} over partitions nu of n, as the
    integer exponential sum ((kappa_nu/2, summed weight), ...), zeros dropped."""
    by_half_kappa: dict[int, int] = {}
    for nu, d, hk in _shapes(n):
        c = weight(nu, d)
        if c:
            by_half_kappa[hk] = by_half_kappa.get(hk, 0) + c
    return tuple((hk, c) for hk, c in by_half_kappa.items() if c)


@lru_cache(maxsize=None)
def _disconnected_coeff(mu: Partition) -> tuple[tuple[int, int], ...]:
    """sum_nu chi_nu(mu) dim(R_nu) e^{kappa_nu L/2} as an exponential sum.

    Over z_mu |mu|! it is the disconnected series of p_mu; over
    prod(mu_i) |mu|! it is the same series for labelled parts.  Its callers
    pass checked profiles, so chi is read from the ribbon recursion's memo.
    """
    return _exp_sum(size(mu), lambda nu, d: _mn(nu, mu) * d)


@lru_cache(maxsize=None)
def _connected_sum(mu: Partition) -> tuple[tuple[int, int], ...]:
    """Labelled connected exponential sum C(S) of the parts S of mu.

    With L = ``_disconnected_coeff`` and every sum over prod(mu_i) |mu_S|!,
    C(S) = L(S) - sum_{T contains 0, T != S} C(|mu_S|, |mu_T|) C(T) L(S - T):
    2^(l-1) subsets, each one product of exponential sums.  Subsets of a
    descending profile stay descending, so equal sub-multisets share one
    cache entry.
    """
    total = dict(_disconnected_coeff(mu))
    n, rest = size(mu), mu[1:]
    for mask in range(2 ** len(rest) - 1):
        t = (mu[0],) + tuple(p for i, p in enumerate(rest) if mask >> i & 1)
        w = comb(n, size(t))
        outer = _disconnected_coeff(tuple(p for i, p in enumerate(rest) if not mask >> i & 1))
        for h1, c1 in _connected_sum(t):
            c1 *= w
            for h2, c2 in outer:
                total[h1 + h2] = total.get(h1 + h2, 0) - c1 * c2
    return tuple((h, c) for h, c in total.items() if c)


@lru_cache(maxsize=None)
def _connected_coeff(mu: Partition, j: int) -> Frac:
    """The L^j coefficient of the connected series of p_mu: the connected
    sum's moment sum c h^j over z_mu |mu|! j!."""
    if not mu:
        raise UsageError("connected series needs a nonempty profile")
    return Frac(sum(c * h ** j for h, c in _connected_sum(mu)),
                zmu(mu) * factorial(size(mu)) * factorial(j))


def burnside_phi(mu: Partition, trunc: int) -> Laurent:
    """Connected series Phi_mu = sum_g H_{g,mu} lambda^r / r! below lambda^trunc:
    the connected sum's power sums over z_mu |mu|! (trunc-1)!.

    Only exponents with r = |mu| + l(mu) (mod 2) appear; this parity is
    asserted.
    """
    mu, trunc = check_partition(mu), as_index(trunc, "truncation")
    if size(mu) < 1:
        raise UsageError("profile must be nonempty")
    r0 = ramification_order(0, mu)
    if trunc <= max(r0, 0):
        raise UsageError("truncation too small to contain any genus term")
    top = factorial(trunc - 1)
    num = {j: s * (top // factorial(j))
           for j, s in enumerate(power_sums(_connected_sum(mu), trunc)) if s}
    par = (size(mu) + length(mu)) % 2
    for j in num:
        if j % 2 != par:
            raise InternalError(f"parity violation in Phi_{mu} at order {j}")
    return Laurent()._new(num, zmu(mu) * factorial(size(mu)) * top)


# ---------------------------------------------------------------------------
# cut-and-join route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cutjoin_part(w: int, r: int) -> dict[Partition, Frac]:
    """The weight-w part of Phi_r.

    Grown from the degree-1 seed Phi_0 = p_1 by the cut-and-join evolution
    r Phi_r = CJ(Phi_{r-1}) + sum_{a+b=r-1} quad(Phi_a, Phi_b), with
    quad(A, B) = (1/2) sum_{ordered i,j} i j p_{i+j} (dA/dp_i)(dB/dp_j).
    CJ keeps the weight and quad adds the weights of its factors, so the
    weight-w part needs only the parts of lower weight, whatever the cap.
    """
    if r == 0:
        return {(1,): Frac(1)} if w == 1 else {}
    rhs: dict[Partition, Frac] = {}     # 2 r Phi_r at weight w
    for mu, c in _cutjoin_part(w, r - 1).items():
        for nu, x in cut_join_terms(mu):
            rhs[nu] = rhs.get(nu, 0) + 2 * x * c
    for a in range(r):
        for w1 in range(1, w):
            db = _cutjoin_derivs(w - w1, r - 1 - a)
            for i, di in _cutjoin_derivs(w1, a).items():
                for j, dj in db.items():
                    for k1, c1 in di.items():
                        c1 = i * j * c1
                        for k2, c2 in dj.items():
                            nu = add_parts(k1, i + j, *k2)
                            rhs[nu] = rhs.get(nu, 0) + c1 * c2
    return {nu: c / (2 * r) for nu, c in rhs.items() if c}


@lru_cache(maxsize=None)
def _cutjoin_derivs(w: int, r: int) -> dict[int, dict[Partition, Frac]]:
    """The nonzero dPhi_r/dp_i of the weight-w part, as {i: {partition: coefficient}}."""
    out: dict[int, dict[Partition, Frac]] = {}
    for mu, c in _cutjoin_part(w, r).items():
        for i, m in multiplicities(mu).items():
            out.setdefault(i, {})[remove_part(mu, i)] = m * c
    return out


def hurwitz_number(g: int, mu: Partition, method: str = "burnside") -> Frac:
    """Connected simple Hurwitz number H_{g,mu}."""
    g, mu = as_index(g, "genus"), check_partition(mu)
    if g < 0:
        raise UsageError("genus must be nonnegative")
    if size(mu) < 1:
        raise UsageError("profile must be nonempty")
    r = ramification_order(g, mu)  # >= 0 for g >= 0 and a nonempty mu
    if method == "burnside":
        return _connected_coeff(mu, r) * factorial(r)
    if method == "cutjoin":
        return _cutjoin_part(size(mu), r).get(mu, Frac(0)) * factorial(r)
    raise UsageError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# double Hurwitz series
# ---------------------------------------------------------------------------

def double_hurwitz(mu: Partition, nu: Partition, trunc: int) -> Laurent:
    """Disconnected two-profile series sum_eta chi(mu) chi(nu)/(z z) e^{kappa L/2}
    below L^trunc: the power sums over z_mu z_nu (trunc-1)!."""
    mu, nu, trunc = check_partition(mu), check_partition(nu), as_index(trunc, "truncation")
    if size(mu) != size(nu):
        raise UsageError("profiles must have equal sizes")
    top = factorial(max(trunc - 1, 0))
    s = power_sums(_exp_sum(size(mu), lambda eta, _d: character(eta, mu) * character(eta, nu)),
                   trunc)
    return Laurent()._new({j: x * (top // factorial(j)) for j, x in enumerate(s) if x},
                          zmu(mu) * zmu(nu) * top)


# ---------------------------------------------------------------------------
# ELSV normalization
# ---------------------------------------------------------------------------

def elsv_I(g: int, mu: Partition) -> tuple[Frac, Frac]:
    """(I_{g,mu}, bare linear Hodge integral).

    I = H / r!; bare = I * |Aut(mu)| * prod(mu_i! / mu_i^{mu_i}).
    """
    g, mu = as_index(g, "genus"), check_partition(mu)
    r = ramification_order(g, mu)
    if r < 0:
        raise UsageError(f"unstable profile (g={g}, mu={mu})")
    # H / r! is the connected coefficient itself; bare is reduced once
    i_val = _connected_coeff(mu, r)
    bare = Frac(i_val.numerator * aut(mu) * prod(map(factorial, mu)),
                i_val.denominator * prod(p ** p for p in mu))
    return i_val, bare


# ---------------------------------------------------------------------------
# psi-class intersections from large-profile asymptotics
# ---------------------------------------------------------------------------

def _bare_polynomial(g: int, n: int, rho: Partition) -> Frac:
    """The coefficient of mu^rho in the top-degree part of the bare-integral
    polynomial P(mu) for (g, n), rho a partition of D = 3g-3+n into at most n
    parts; only its own Hurwitz samples are formed.

    By ELSV, P is a symmetric polynomial of degree D in the parts, so for k
    = rho padded with zeros the mixed forward difference
    sum_{0 <= j <= k} prod_i (-1)^(k_i - j_i) C(k_i, j_i) P(base + j)
    is k! times the coefficient of mu^k, at any base.  It is taken at base
    (1, ..., 1) and again at (2, 1, ..., 1); a disagreement means the
    Hurwitz data is not polynomial of degree D.
    """
    deg = 3 * g - 3 + n

    def difference(base: tuple[int, ...]) -> Frac:
        total = Frac(0)
        for j in product(*(range(r + 1) for r in rho)):
            mu = tuple(sorted((b + x for b, x in zip_longest(base, j, fillvalue=0)),
                              reverse=True))
            w = (-1) ** (deg - sum(j))
            for r, x in zip(rho, j):
                w *= comb(r, x)
            total += w * elsv_I(g, mu)[1]
        return total

    top = difference((1,) * n)
    if difference((2,) + (1,) * (n - 1)) != top:
        raise VerificationFailure(
            f"Hurwitz data at g={g}, n={n} is not polynomial of the expected degree")
    for r in rho:
        top /= factorial(r)
    return top


def psi_from_asymptotics(g: int, ks: Sequence[int]) -> Frac:
    """<tau_{k_1} ... tau_{k_n}>_g read off the top degree of the Hurwitz data,
    afresh on every call from the memoised samples (``_connected_coeff``)."""
    g, ks = as_index(g, "genus"), tuple(as_index(k, "index") for k in ks)
    n = len(ks)
    if n < 1:
        raise UsageError("need at least one insertion")
    if any(k < 0 for k in ks):
        raise UsageError("indices must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise UsageError(f"unstable moduli (g={g}, n={n})")
    if sum(ks) != 3 * g - 3 + n:
        raise UsageError("dimension constraint sum(k) = 3g-3+n violated")
    return _bare_polynomial(g, n, tuple(sorted((k for k in ks if k), reverse=True)))
