"""Local-P2 vertex gluing sum, Gromov-Witten extraction, GV inversion.

The degree-d slice of the disconnected partition function is the finite sum
over partition triples with total size d:

    Z_d = sum W(nu1,nu2) W(nu2,nu3) W(nu3,nu1) (-1)^d q^{(sum kappa_i)/2}

kept as an exact rational function of u (q^{kappa/2} is an integral u-power
because kappa is even).  The connected free energy is the degree-graded log;
its degree-d slice expands as a lambda-Laurent series with floor >= -2 and
even exponents only, and N_{g,d} is the lambda^{2g-2} coefficient.

GV inversion uses the multi-cover kernel

    contribution of (g, d, k):   n_d^g (1/k) (2 sin(k lambda/2))^{2g-2} Q^{kd}

(the standard resummation; the printed source mixes its indices, and this is
the reading under which the inverted numbers are the proven-integral ones).
"""
from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .chern_simons import w_pair
from .dense import graded_log
from .errors import InternalError, UsageError, VerificationFailure
from .partitions import compositions, enumerate_partitions, kappa
from .qfunc import QFunction, ULaurent, sum_of_products
from .series import LambdaSeries

Frac = Fraction
NTable = dict[tuple[int, int], Frac]
GVTable = dict[tuple[int, int], int]


@lru_cache(maxsize=None)
def local_p2_z(d_max: int) -> tuple[QFunction, ...]:
    """Degree slices Z_0..Z_{d_max} of the local-P2 partition function."""
    if d_max < 0:
        raise UsageError("degree must be nonnegative")
    out: list[QFunction] = []
    for d in range(d_max + 1):
        acc = sum_of_products(_vertex_terms(d))
        if d % 2:
            acc = -acc
        if d == 0 and acc != QFunction.const(1):
            raise InternalError("degree-0 vertex slice must be 1")
        out.append(acc)
    return tuple(out)


def _vertex_terms(d: int) -> Iterator[tuple[tuple[QFunction, ...], int]]:
    """The factors W(nu1,nu2) W(nu2,nu3) W(nu3,nu1) and u-power sum kappa_i
    of each partition triple of total size d."""
    for a in range(d + 1):
        for b in range(d + 1 - a):
            for nus in product(enumerate_partitions(a), enumerate_partitions(b),
                               enumerate_partitions(d - a - b)):
                ks = sum(map(kappa, nus))
                if ks % 2:
                    raise InternalError("odd kappa sum in vertex term")
                nu1, nu2, nu3 = nus
                yield (w_pair(nu1, nu2), w_pair(nu2, nu3), w_pair(nu3, nu1)), ks


@lru_cache(maxsize=None)
def local_p2_free_energy(d_max: int) -> tuple[QFunction, ...]:
    """Connected slices F_1..F_{d_max}: the degree-graded log of Z.

    d F_d = d Z_d - sum_{j<d} j F_j Z_{d-j}.
    """
    return tuple(graded_log(local_p2_z(d_max), QFunction.zero()))


def rebuild_partition_function(d_max: int) -> bool:
    """exp/log round trip at the rational-function level: exp(F) == Z."""
    z = local_p2_z(d_max)
    f = local_p2_free_energy(d_max)
    for d in range(d_max + 1):
        acc = QFunction.const(1) if d == 0 else QFunction.zero()
        # sum over compositions of d into m parts >= 1 of prod F_{d_i} / m!
        for m in range(1, d + 1):
            for comp in compositions(d - m, m):
                term = QFunction.const(Frac(1, factorial(m)))
                for part in comp:
                    term = term * f[part + 1]
                acc = acc + term
        if acc != z[d]:
            return False
    return True


def extract_gw(d_max: int, g_max: int) -> NTable:
    """N_{g,d} for d <= d_max, g <= g_max from the free-energy slices.

    Raises UsageError for d_max < 1 or g_max < 0 (an empty table), and
    InternalError unless the lambda-floor is >= -2, odd lambda-powers vanish
    and the values are real.
    """
    if d_max < 1:
        raise UsageError("local P2 needs a maximal degree >= 1")
    if g_max < 0:
        raise UsageError("local P2 needs a maximal genus >= 0")
    f = local_p2_free_energy(d_max)
    out: NTable = {}
    for d in range(1, d_max + 1):
        s = f[d].to_lambda(2 * g_max + 2)
        if not s.is_exact_zero():
            v = s.valuation()
            if v is not None and v < -2:
                raise InternalError(f"free energy degree {d} has lambda-floor {v} < -2")
        for e in range(s.floor, s.trunc):
            if e % 2 and s.coeff(e):
                raise InternalError(f"odd lambda-power {e} survives at degree {d}")
        for g in range(g_max + 1):
            c = s.coeff(2 * g - 2).as_scalar()
            if c.im:
                raise InternalError("imaginary Gromov-Witten coefficient")
            out[(g, d)] = c.re
    return out


@lru_cache(maxsize=None)
def _kernel(g: int, k: int, trunc: int) -> LambdaSeries:
    """(1/k) (2 sin(k lambda / 2))^{2g-2}, with 2 sin(k lambda/2) = (-i)[k]."""
    power = ULaurent.const(1)
    for _ in range(abs(2 * g - 2)):
        power = power * ULaurent.bracket(k)
    num, den = (ULaurent.const(1), power) if g == 0 else (power, ULaurent.const(1))
    return QFunction(2 * g - 2, num.scale(Frac(1, k)), den).to_lambda(trunc)


def gv_invert(n_table: NTable, d_max: int, g_max: int) -> GVTable:
    """Solve for integer n_d^g from the Gromov-Witten table, degree by degree."""
    trunc = 2 * g_max + 1
    gv: GVTable = {}
    for d in range(1, d_max + 1):
        rem = LambdaSeries.from_map(
            {2 * g - 2: n_table[(g, d)] for g in range(g_max + 1)}, trunc)
        # subtract known multi-cover contributions (k >= 2, k | d)
        for k in range(2, d + 1):
            if d % k:
                continue
            dp = d // k
            for g in range(g_max + 1):
                cv = gv.get((g, dp), 0)
                if cv:
                    rem = rem - _kernel(g, k, trunc).scale(cv)
        # peel n_d^g off the k = 1 kernels, lowest genus first
        for g in range(g_max + 1):
            c = rem.coeff(2 * g - 2).as_scalar()
            if c.im:
                raise InternalError("imaginary GV coefficient")
            v = c.re
            if v.denominator != 1:
                raise VerificationFailure(
                    f"n_{d}^{g} = {v} is not an integer")
            gv[(g, d)] = int(v)
            if v:
                rem = rem - _kernel(g, 1, trunc).scale(v)
        # matched orders must now vanish (higher orders belong to g > g_max)
        if not all(not rem.coeff(e) for e in range(rem.floor, 2 * g_max - 1)):
            raise InternalError("GV peeling left a nonzero remainder in-window")
    return gv


def gv_forward(gv: GVTable, d_max: int, g_max: int) -> NTable:
    """Multi-cover resummation of an integer table back to a GW table."""
    trunc = 2 * g_max + 1
    out: NTable = {}
    for d in range(1, d_max + 1):
        acc = LambdaSeries.from_map({}, trunc)
        for k in range(1, d + 1):
            if d % k:
                continue
            dp = d // k
            for g in range(g_max + 1):
                cv = gv.get((g, dp), 0)
                if cv:
                    acc = acc + _kernel(g, k, trunc).scale(cv)
        for g in range(g_max + 1):
            out[(g, d)] = acc.coeff(2 * g - 2).as_scalar().re
    return out
