"""psi-class intersection numbers: DVV recursion and Virasoro residuals.

Normalized insertions carry (2k+1)!! so that the recursion on the largest
index has integer weights:

    <s_n prod_{k in S} s_k>_g =
        sum_{k in S} (2k+1) <s_{n+k-1} ...>_g
      + (1/2) sum_{a+b=n-2} <s_a s_b ...>_{g-1}
      + (1/2) sum_{a+b=n-2} sum_{S=X|Y, g1+g2=g} <s_a X>_{g1} <s_b Y>_{g2}

Seeds: <s_0^3>_0 = 1 and <s_1>_1 = 1/8 (i.e. <tau_1>_1 = 1/24, the value the
recursion cannot reach; it is fixed by the n = 0 Virasoro constraint and
frozen here).  Unstable factors vanish.  Plain correlators divide out the
double factorials.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import Iterator, Sequence, Tuple

from .errors import UsageError
from .partitions import compositions

Frac = Fraction


def double_factorial_odd(k: int) -> int:
    """(2k+1)!!"""
    out = 1
    for j in range(1, 2 * k + 2, 2):
        out *= j
    return out


def _sub_multisets(ms: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(X, Y, count) over labeled splits of the multiset ms."""
    vals = sorted(set(ms))
    mult = {v: ms.count(v) for v in vals}

    def rec(i: int):
        if i == len(vals):
            yield (), (), 1
            return
        v = vals[i]
        m = mult[v]
        for x, y, c in rec(i + 1):
            for take in range(m + 1):
                yield (v,) * take + x, (v,) * (m - take) + y, c * comb(m, take)

    yield from rec(0)


@lru_cache(maxsize=None)
def _norm(g: int, ks: Tuple[int, ...]) -> Frac:
    """Normalized correlator <prod s_{k}>_g on a sorted key."""
    n = len(ks)
    if n == 0 or g < 0:
        return Frac(0)
    if 2 * g - 2 + n <= 0:
        return Frac(0)
    if sum(ks) != 3 * g - 3 + n:
        return Frac(0)
    if g == 0 and ks == (0, 0, 0):
        return Frac(1)
    if g == 1 and ks == (1,):
        return Frac(1, 8)
    top = ks[0]
    rest = ks[1:]
    if top == 0:
        # all-zero keys are dimension-filtered away except the seed
        return Frac(0)
    total = Frac(0)
    # term 1: absorb one of the remaining insertions
    for idx in range(len(rest)):
        k = rest[idx]
        nxt = tuple(sorted(rest[:idx] + rest[idx + 1:] + (top + k - 1,), reverse=True))
        total += (2 * k + 1) * _norm(g, nxt)
    # term 2: nonseparating degeneration
    if g >= 1:
        for a in range(top - 1):
            b = top - 2 - a
            nxt = tuple(sorted(rest + (a, b), reverse=True))
            total += Frac(1, 2) * _norm(g - 1, nxt)
    # term 3: separating degenerations
    for a in range(top - 1):
        b = top - 2 - a
        for x, y, cnt in _sub_multisets(rest):
            for g1 in range(g + 1):
                g2 = g - g1
                left = _norm(g1, tuple(sorted(x + (a,), reverse=True)))
                if not left:
                    continue
                right = _norm(g2, tuple(sorted(y + (b,), reverse=True)))
                if not right:
                    continue
                total += Frac(cnt, 2) * left * right
    return total


def dvv(g: int, ks: Sequence[int]) -> Frac:
    """<tau_{k_1} ... tau_{k_n}>_g; zero off the dimension shell."""
    ks = tuple(int(k) for k in ks)
    if any(k < 0 for k in ks):
        raise UsageError("indices must be nonnegative")
    if not ks:
        raise UsageError("need at least one insertion")
    if g < 0:
        raise UsageError("genus must be nonnegative")
    key = tuple(sorted(ks, reverse=True))
    v = _norm(g, key)
    if not v:
        return Frac(0)
    den = 1
    for k in ks:
        den *= double_factorial_odd(k)
    return v / den


def dvv_normalized(g: int, ks: Sequence[int]) -> Frac:
    """<prod s_{k}>_g with s_k = (2k+1)!! psi^k."""
    ks = tuple(sorted((int(k) for k in ks), reverse=True))
    return _norm(g, ks)


# ---------------------------------------------------------------------------
# Virasoro constraints on the partition function
# ---------------------------------------------------------------------------

def _canon(mono: Tuple[int, ...]) -> Tuple[int, ...]:
    """Drop trailing zero exponents."""
    m = list(mono)
    while m and not m[-1]:
        m.pop()
    return tuple(m)


_F0 = Frac(0)


def _free_energy_coeff(mono: Tuple[int, ...]) -> Frac:
    """Coefficient of prod t_k^{mono_k} in sum_g <exp sum t_k s_k>_g.

    The genus is fixed by the dimension constraint; the coefficient carries
    1/prod m_k! from the exponential insertions.
    """
    n = sum(mono)
    s = sum(k * m for k, m in enumerate(mono))
    if n == 0 or (s - n) % 3:
        return _F0
    g = (s - n) // 3 + 1
    if g < 0:
        return _F0
    v = dvv_normalized(g, [k for k, m in enumerate(mono) for _ in range(m)])
    if not v:
        return _F0
    sym = 1
    for m in mono:
        sym *= factorial(m)
    return v / sym


@lru_cache(maxsize=None)
def tau_coefficient(mono: Tuple[int, ...]) -> Frac:
    """Coefficient of prod t_k^{mono_k} in tau = exp(free energy).

    Computed by the graded exponential formula: the Euler operator
    sum_k t_k d/dt_k turns tau = exp(F) into |m| T_m = sum_{0 < j <= m}
    |j| F_j T_{m-j}, where j runs over the exponent vectors below m and
    |.| is the total t-degree.  Keys are canonical (``_canon``).
    """
    deg = sum(mono)
    if not deg:
        return Frac(1)
    total = _F0
    for j in product(*(range(m + 1) for m in mono)):
        dj = sum(j)
        if not dj:
            continue
        f = _free_energy_coeff(j)
        if f:
            rest = _canon(tuple(a - b for a, b in zip(mono, j)))
            total += dj * f * tau_coefficient(rest)
    return total / deg


def _monomials(order: int, kmax: int) -> Iterator[Tuple[int, ...]]:
    """Exponent vectors in t_0..t_kmax of total degree <= order."""
    for mono in compositions(order, kmax + 2):
        yield _canon(mono[:-1])


def _bump(mono: Tuple[int, ...], var: int, by: int) -> Tuple[int, ...]:
    m = list(mono) + [0] * (var + 1 - len(mono))
    m[var] += by
    return _canon(tuple(m))


def virasoro_residual(n: int, order: int, kmax_check: int = 4) -> Frac:
    """Max |coefficient| of (L_n tau) through total t-degree ``order`` in
    the variables t_0..t_{kmax_check}; exact zero expected.

    L_n = -(1/2) d/dt_{n+1} + sum_k (k + 1/2) t_k d/dt_{k+n}
          + (1/4) sum_{i=1..n} d^2/dt_{i-1} dt_{n-i}
          + (1/4) t_0^2 [n = -1] + (1/16) [n = 0]

    The printed general-n derivative index is read as n+1, the unique choice
    consistent with the displayed L_{-1} and L_0.  The residual coefficient
    of each checked monomial is assembled directly from tau-coefficients.
    """
    if n < -1:
        raise UsageError("Virasoro index must be >= -1")
    if order < 0:
        raise UsageError("Virasoro order must be >= 0")
    worst = _F0
    for mono in _monomials(order, kmax_check):
        acc = _F0
        # -(1/2) d/dt_{n+1}
        up = _bump(mono, n + 1, 1)
        acc -= Frac(up[n + 1], 2) * tau_coefficient(up)
        # sum_k (k+1/2) t_k d/dt_{k+n}
        for k in range(len(mono)):
            if not mono[k] or k + n < 0:
                continue
            src = _bump(_bump(mono, k, -1), k + n, 1)
            acc += Frac(2 * k + 1, 2) * src[k + n] * tau_coefficient(src)
        # (1/4) sum_{i=1..n} d^2/dt_{i-1} dt_{n-i}
        for i in range(1, max(n, 0) + 1):
            a, b = i - 1, n - i
            if a == b:
                src = _bump(mono, a, 2)
                acc += Frac(src[a] * (src[a] - 1), 4) * tau_coefficient(src)
            else:
                src = _bump(_bump(mono, a, 1), b, 1)
                acc += Frac(src[a] * src[b], 4) * tau_coefficient(src)
        # (1/4) t_0^2 at n = -1
        if n == -1 and len(mono) > 0 and mono[0] >= 2:
            acc += Frac(1, 4) * tau_coefficient(_bump(mono, 0, -2))
        # 1/16 at n = 0
        if n == 0:
            acc += Frac(1, 16) * tau_coefficient(mono)
        if abs(acc) > worst:
            worst = abs(acc)
    return worst
