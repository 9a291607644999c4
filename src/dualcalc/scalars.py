"""Gaussian-rational scalars and Bernoulli numbers.

``GaussianRational`` is a complex number with arbitrary-precision rational
real and imaginary parts.  No computation of the package forms one: the
framed series are held in lambda' = i lambda, where every coefficient of a
``series.TauLaurent`` is rational, and ``qfunc.QFunction`` keeps a power of
-i apart from a rational function.  It is the type of the read-only view
``TauLaurent.c``, which reads coefficients out as complex numbers, and of
the test oracles that compare against one.
There is no floating point anywhere in the package.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import UsageError
from .partitions import typed_cache

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """a + b*sqrt(-1) with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("GaussianRational is immutable")

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_frac(x))

    # -- predicates ------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other).__sub__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = other if isinstance(other, GaussianRational) else GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        # zero-imaginary fast paths carry nearly all of the workload
        if not b:
            if not d:
                return GaussianRational(a * c)
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ------------------------------------------------
    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


@typed_cache("int")
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2 (so B_2 = 1/6, B_4 = -1/30): B_2k =
    (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), T_k = (2k-1)! [x^(2k-1)] tan x (Brent-Harvey)."""
    if n < 0:
        raise UsageError(f"bernoulli index must be nonnegative, got {n}")
    if n < 2 or n % 2:
        return {0: _F1, 1: Fraction(-1, 2)}.get(n, _F0)
    k = n // 2
    t = [factorial(j) for j in range(k)]
    for i in range(1, k):
        for j in range(i, k):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (k - 1) * n * t[-1], 4 ** k * (4 ** k - 1))
