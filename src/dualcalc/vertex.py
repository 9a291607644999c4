"""Local-P2 vertex gluing sum, Gromov-Witten extraction, GV inversion.

The degree-d slice of the disconnected partition function is the finite sum
over partition triples with total size d:

    Z_d = sum W(nu1,nu2) W(nu2,nu3) W(nu3,nu1) (-1)^d q^{(sum kappa_i)/2}

kept as an exact rational function of u (q^{kappa/2} is an integral u-power
because kappa is even): ``sum_of_products`` adds the unreduced W products
(``_pair_quotient``) of one triple per rotation orbit, times (-1)^d and the orbit
size, over a few size-determined denominators, and reduces each slice once.  The
connected free energy is the degree-graded log (``dense.graded_log``), again one
``sum_of_products`` per slice; its degree-d slice expands as one ``Laurent`` in
lambda' = i lambda (``QFunction.to_lambda``) with floor >= -2 and even exponents
only, and N_{g,d} is the lambda^{2g-2} coefficient: (-1)^{g-1} times the
lambda'^{2g-2} one, read off its integer numerator and denominator.

GV inversion is the Gopakumar-Vafa resummation

    N_{g,d} = sum_{k | d} sum_{h <= g} n^h_{d/k} [lambda^{2g-2}] (1/k) (2 sin(k lambda/2))^{2h-2}

(the standard resummation; the printed source mixes its indices, and this is
the reading under which the inverted numbers are the proven-integral ones).
The k-fold cover scales as k^{2g-3} c(g, h), c(g, h) = [lambda^{2g-2}]
(2 sin(lambda/2))^{2h-2}, so one rational table per g_max serves every k.
At g_max = 0 it is the Aspinwall-Morrison k^{-3} inversion of the quintic.
"""
from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from . import dense
from .chern_simons import _pair_quotient
from .errors import InternalError, UsageError, VerificationFailure
from .laurent import Laurent
from .partitions import Partition, compositions, enumerate_partitions, kappa, typed_cache
from .qfunc import QFunction, sum_of_products

Frac = Fraction
NTable = dict[tuple[int, int], Frac]
GVTable = dict[tuple[int, int], int]


@typed_cache("int")
def local_p2_z(d_max: int) -> tuple[QFunction, ...]:
    """Degree slices Z_0..Z_{d_max} of the local-P2 partition function."""
    if d_max < 0:
        raise UsageError("degree must be nonnegative")
    out = tuple(sum_of_products(_vertex_terms(d)) for d in range(d_max + 1))
    if out[0] != QFunction.const(1):
        raise InternalError("degree-0 vertex slice must be 1")
    return out


def _vertex_terms(d: int) -> Iterator[tuple[int, tuple[QFunction, ...], int]]:
    """(-1)^d m, the unreduced W(nu1,nu2) W(nu2,nu3) W(nu3,nu1) and the u-power sum
    kappa_i of the least triple of each orbit of (nu1,nu2,nu3) -> (nu2,nu3,nu1) in size d;
    the term is the same on the orbit, of size m = 3, or 1 when nu1 = nu2 = nu3."""
    sign = (-1) ** d
    for a in range(d + 1):
        for b in range(d + 1 - a):
            for nu1, nu2, nu3 in product(enumerate_partitions(a), enumerate_partitions(b),
                                         enumerate_partitions(d - a - b)):
                if (nu1, nu2, nu3) > (nu2, nu3, nu1) or (nu1, nu2, nu3) > (nu3, nu1, nu2):
                    continue
                ks = kappa(nu1) + kappa(nu2) + kappa(nu3)
                if ks % 2:
                    raise InternalError("odd kappa sum in vertex term")
                yield (sign * (1 if nu1 == nu2 == nu3 else 3),
                       (_w(nu1, nu2), _w(nu2, nu3), _w(nu3, nu1)), ks)


@lru_cache(maxsize=None)
def _w(mu: Partition, nu: Partition) -> QFunction:
    """W(mu, nu) as ``_pair_quotient`` gives it, unreduced: each slice is reduced once."""
    return QFunction._of(*_pair_quotient(mu, nu))


@lru_cache(maxsize=None)
def local_p2_free_energy(d_max: int) -> tuple[QFunction, ...]:
    """Slices F_0 = 0, F_1..F_{d_max}: the degree-graded log of Z, one
    ``sum_of_products`` per slice:

    F_d = Z_d - sum_{j<d} (j/d) F_j Z_{d-j}.
    """
    return tuple(dense.graded_log(local_p2_z(d_max), lambda terms: sum_of_products(
        (c, (a,) if b is None else (a, b), 0) for c, a, b in terms)))


def rebuild_partition_function(d_max: int) -> bool:
    """exp/log round trip at the rational-function level: exp(F) == Z, each
    slice one sum over the compositions of d into m parts >= 1 of
    prod F_{d_i} / m! (m = 0 gives the 1 of degree 0)."""
    z = local_p2_z(d_max)
    f = local_p2_free_energy(d_max)
    for d in range(d_max + 1):
        exp_f = sum_of_products((Frac(1, factorial(m)), [f[part + 1] for part in comp], 0)
                                for m in range(d + 1) for comp in compositions(d - m, m))
        if exp_f != z[d]:
            return False
    return True


def extract_gw(d_max: int, g_max: int) -> NTable:
    """N_{g,d} for d <= d_max, g <= g_max from the free-energy slices.

    Raises UsageError for d_max < 1 or g_max < 0 (an empty table), and
    InternalError unless the lambda-floor is >= -2 and odd lambda-powers
    vanish.  The lambda^{2g-2} coefficient is (-1)^{g-1} times the
    lambda'^{2g-2} one.
    """
    if d_max < 1:
        raise UsageError("local P2 needs a maximal degree >= 1")
    if g_max < 0:
        raise UsageError("local P2 needs a maximal genus >= 0")
    f = local_p2_free_energy(d_max)
    out: NTable = {}
    for d in range(1, d_max + 1):
        s = f[d].to_lambda(2 * g_max + 2)
        if s and (v := s.min_exp()) < -2:
            raise InternalError(f"free energy degree {d} has lambda-floor {v} < -2")
        if odd := sorted(e for e in s.num if e % 2):
            raise InternalError(f"odd lambda-power {odd[0]} survives at degree {d}")
        for g in range(g_max + 1):
            out[(g, d)] = Frac(s.num.get(2 * g - 2, 0), s.den) * (1 if g % 2 else -1)
    return out


@lru_cache(maxsize=None)
def cover_table(g_max: int) -> tuple[tuple[Frac, ...], ...]:
    """c[g][h] = [lambda^{2g-2}] (2 sin(lambda/2))^{2h-2}, h <= g <= g_max: the x^{g-h}
    coefficient of s^{2h-2}, s = 2 sin(lambda/2)/lambda as a series in x = lambda^2."""
    n = g_max + 1
    s = Laurent({j: Frac((-1) ** j, 4 ** j * factorial(2 * j + 1)) for j in range(n)})
    s2 = dense.mul(s, s, n)
    powers = [dense.inv(s2, n)]
    for _ in range(g_max):
        powers.append(dense.mul(powers[-1], s2, n))
    table = tuple(tuple(powers[h].c.get(g - h, Frac(0)) for h in range(g + 1)) for g in range(n))
    if any(row[-1] != 1 for row in table):
        raise InternalError("cover table diagonal is not 1: gv_invert cannot solve for n^g_d")
    return table


def _cover_sum(gv: GVTable, d: int, g: int, c: tuple[tuple[Frac, ...], ...]) -> Frac:
    """sum_{k | d} sum_{h <= g} n^h_{d/k} k^{2g-3} c[g][h], absent n^h read as 0."""
    return sum((Frac(k) ** (2 * g - 3) * sum(gv.get((h, d // k), 0) * c[g][h] for h in range(g + 1))
                for k in range(1, d + 1) if not d % k), Frac(0))


def gv_invert(n_table: NTable, d_max: int, g_max: int) -> GVTable:
    """Solve N_{g,d} = sum_{k | d} sum_{h <= g} n^h_{d/k} k^{2g-3} c[g][h] for
    integer n^g_d, degree by degree and genus by genus: every term but
    (k, h) = (1, g), whose weight is 1, is known when n^g_d is read."""
    c = cover_table(g_max)
    gv: GVTable = {}
    for d in range(1, d_max + 1):
        for g in range(g_max + 1):
            v = n_table[(g, d)] - _cover_sum(gv, d, g, c)
            if v.denominator != 1:
                raise VerificationFailure(f"n_{d}^{g} = {v} is not an integer")
            gv[(g, d)] = int(v)
    return gv


def gv_forward(gv: GVTable, d_max: int, g_max: int) -> NTable:
    """Multi-cover resummation of an integer table back to a GW table."""
    c = cover_table(g_max)
    return {(g, d): _cover_sum(gv, d, g, c) for d in range(1, d_max + 1) for g in range(g_max + 1)}
