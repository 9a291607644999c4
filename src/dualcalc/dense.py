"""Truncated power series over Q as ``laurent.Laurent`` values.

A series is a ``Laurent`` in x with no negative exponents.  Every operation
takes the number ``n`` of coefficients to keep, reads its inputs through
x^(n-1) and returns a ``Laurent`` with no term of x^n or above.  The loops
run on the integer numerators over the one denominator, and each result is
built by one ``_new``, the one content reduction.  The kernel serves the
quintic mirror map's Q-series: ``lagrange`` inverts and substitutes it in
``mirror.candelas``, and ``compose`` substitutes for the round-trip check.

``graded_log`` takes the weight slices of a graded series over any ring
that has one sum of c*a*b terms: ``PSeries._fold`` by key weight, the
local-P2 ``QFunction`` slices by degree through ``qfunc.sum_of_products``.
Each slice of the log is one such sum, so each coefficient is reduced once.
``power_sums`` gives the moments of an exponential sum, which the Hurwitz
series and ``QFunction.to_lambda`` expand in.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import UsageError
from .laurent import Laurent


def _ints(a: Laurent, n: int) -> list[int]:
    """The numerators of a through x^(n-1), as a dense list."""
    return [a.num.get(k, 0) for k in range(n)]


def _conv(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The product of two dense int lists through x^(n-1)."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                if y:
                    out[j] += x * y
    return out


def _series(like: Laurent, num: Sequence[int], den: int) -> Laurent:
    return like._new({k: v for k, v in enumerate(num) if v}, den)


def mul(a: Laurent, b: Laurent, n: int) -> Laurent:
    return _series(a, _conv(_ints(a, n), _ints(b, n), n), a.den * b.den)


def inv(a: Laurent, n: int) -> Laurent:
    """1/a.  With a = g A / D, A primitive and A_0 > 0, the numbers
    c_m = A_0^(m+1) [x^m] 1/A are integers: c_0 = 1 and
    c_m = -sum_{j=1}^{m} A_j A_0^(j-1) c_{m-j}."""
    num = _ints(a, n)
    if not num[0]:
        raise UsageError("series with zero constant term is not invertible")
    g = gcd(*num) if num[0] > 0 else -gcd(*num)
    num = [v // g for v in num]
    pw = [num[0] ** k for k in range(n + 1)]
    terms = [(j, num[j] * pw[j - 1]) for j in range(1, n) if num[j]]
    c = [1] * n
    for m in range(1, n):
        c[m] = -sum(v * c[m - j] for j, v in terms if j <= m)
    # 1/a = D / (g A), over the denominator |g| A_0^n
    top = a.den if g > 0 else -a.den
    return _series(a, [top * cm * pw[n - 1 - m] for m, cm in enumerate(c)], abs(g) * pw[n])


def exp(a: Laurent, n: int) -> Laurent:
    """e^a.  With a = A / D, the numbers E_m = (n-1)! D^m [x^m] e^a are
    integers (the denominator of [x^m] e^a divides m! D^m), and
    m e_m = sum_k k a_k e_{m-k} gives m E_m = sum_{k=1}^{m} k A_k D^(k-1) E_{m-k}."""
    num = _ints(a, n)
    if num[0]:
        raise UsageError("exp needs zero constant term")
    dp = [a.den ** k for k in range(n + 1)]
    terms = [(k, k * num[k] * dp[k - 1]) for k in range(1, n) if num[k]]
    e = [factorial(n - 1)] * n
    for m in range(1, n):
        e[m] = sum(v * e[m - k] for k, v in terms if k <= m) // m
    return _series(a, [em * dp[n - 1 - m] for m, em in enumerate(e)], e[0] * dp[n - 1])


def compose(outer: Laurent, inner: Laurent, n: int) -> Laurent:
    """outer(inner(x)) with inner(0) = 0, by Horner from the top term.

    inner^m vanishes below x^m, so the step that adds outer_m keeps n - m
    coefficients.  With inner = I / D the integer Horner sum is
    sum_m outer_m I^m D^(top-m), over outer's denominator times D^top.
    """
    inner_num = _ints(inner, n)
    if inner_num[0]:
        raise UsageError("composition needs zero constant inner term")
    outer_num = _ints(outer, n)
    top = max((m for m, v in enumerate(outer_num) if v), default=0)
    acc = [outer_num[top]]
    scale = 1
    for m in range(top - 1, -1, -1):
        scale *= inner.den
        acc = _conv(acc, inner_num, n - m)
        acc[0] += outer_num[m] * scale
    return _series(outer, acc, outer.den * scale)


def lagrange(hs: Sequence[Laurent], u: Laurent, n: int) -> list[Laurent]:
    """Each h(Q(x)), with Q(x) the inverse of x = Q e^{u(Q)} and u(0) = 0.

    By Lagrange-Buermann (Stanley, EC2 5.4.2), for m >= 1
    m [x^m] h(Q(x)) = [Q^(m-1)] h'(Q) e^{-m u(Q)}.  With e^{-u} = A / D the
    powers A^m come from one running product; with h = H / h.den, each
    coefficient is the integer dot product of the k H_k with A^m over
    m h.den D^m, and goes over lcm(1..n-1) h.den D^(n-1).
    """
    if 0 in u.num:
        raise UsageError("Lagrange inversion needs zero constant term")
    e = exp(-u, n)
    a = _ints(e, n - 1)
    top = lcm(*range(1, n)) * e.den ** (n - 1)
    nums = [[h.num.get(0, 0) * top] for h in hs]
    derivs = [[k * h.num.get(k, 0) for k in range(1, n)] for h in hs]
    power = [1]
    for m in range(1, n):
        power = _conv(power, a, n - 1)
        rev, scale = power[m - 1::-1], top // (m * e.den ** m)
        for num, dnum in zip(nums, derivs):
            num.append(sum(x * y for x, y in zip(dnum, rev)) * scale)
    return [_series(h, num, h.den * top) for h, num in zip(hs, nums)]


def power_sums(terms: Iterable[tuple[int, int]], n: int) -> list[int]:
    """s_j = sum c h^j over the exponential sum ((h, c), ...), j < n: the x^j
    coefficient of sum c e^{h x} is s_j / j!."""
    s = [0] * n
    for h, c in terms:
        for j in range(n):
            s[j] += c
            c *= h
    return s


def graded_log(z: Sequence, fold: Callable) -> list:
    """Slices F_0 = 0, F_1..F_n of log Z from Z_0 = 1 (not read), Z_1..Z_n,
    each one ``fold`` of (c, a, b) terms (b None for 1):
    F_w = Z_w - sum_{0<j<w} (j/w) F_j Z_{w-j}."""
    f = [fold([])]
    for w in range(1, len(z)):
        f.append(fold([(1, z[w], None)]
                      + [(Fraction(-j, w), f[j], z[w - j]) for j in range(1, w)]))
    return f

