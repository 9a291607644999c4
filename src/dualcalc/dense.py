"""Truncated power series as dense lists of ``Fraction``.

A series is the list of its coefficients of x^0, x^1, ...; every operation
takes the number ``n`` of coefficients to keep and returns a list of exactly
that length.  Inputs may be shorter than ``n`` (missing terms are zero).
The same kernel serves the quintic nilpotent ring Q[H]/(H^5) and the mirror
map's Q-series.

``graded_log`` takes the weight slices of a graded series over any ring with
``*``, ``-`` and ``scale``: ``PSeries`` by key weight, the local-P2
``QFunction`` slices by degree.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, TypeVar

from .errors import UsageError

_F0 = Fraction(0)
_F1 = Fraction(1)

R = TypeVar("R")


def mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> List[Fraction]:
    out = [_F0] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in enumerate(b[:n - i]):
            if y:
                out[i + j] += x * y
    return out


def inv(a: Sequence[Fraction], n: int) -> List[Fraction]:
    if not a[0]:
        raise UsageError("series with zero constant term is not invertible")
    out = [_F0] * n
    out[0] = _F1 / a[0]
    for m in range(1, n):
        acc = _F0
        for j in range(1, min(m + 1, len(a))):
            if a[j]:
                acc += a[j] * out[m - j]
        out[m] = -acc / a[0]
    return out


def exp(a: Sequence[Fraction], n: int) -> List[Fraction]:
    if a[0]:
        raise UsageError("exp needs zero constant term")
    out = [_F1] + [_F0] * (n - 1)
    term = list(out)
    for m in range(1, n):
        term = [x / m for x in mul(term, a, n)]
        out = [x + y for x, y in zip(out, term)]
    return out


def compose(outer: Sequence[Fraction], inner: Sequence[Fraction], n: int) -> List[Fraction]:
    """outer(inner(x)) with inner(0) = 0."""
    if inner[0]:
        raise UsageError("composition needs zero constant inner term")
    out = [_F0] * n
    out[0] = outer[0] if outer else _F0
    power = [_F1] + [_F0] * (n - 1)
    # inner^m has valuation >= m, so powers from n on vanish
    for m in range(1, min(len(outer), n)):
        power = mul(power, inner, n)
        if outer[m]:
            out = [x + outer[m] * y for x, y in zip(out, power)]
    return out


def graded_log(z: Sequence[R], zero: R) -> List[R]:
    """Slices zero, F_1..F_n of log Z from Z_0 = 1 (not read), Z_1..Z_n:
    w F_w = w Z_w - sum_{0<j<w} j F_j Z_{w-j}."""
    f = [zero]
    for w in range(1, len(z)):
        acc = z[w].scale(w)
        for j in range(1, w):
            acc = acc - (f[j] * z[w - j]).scale(j)
        f.append(acc.scale(Fraction(1, w)))
    return f

