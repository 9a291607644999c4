"""Exact polynomials over the rationals as integer numerators over one denominator.

A value holds ``num``, a dict from monomial keys to nonzero ints, over
``den``, a positive int coprime to the content of ``num``; zero is
({}, 1).  This is the layout of FLINT's ``fmpq_poly``: the form is
canonical, so equality is structural, and arithmetic runs on integers with
one content reduction per result (``Poly._new``).  ``Fraction`` appears
only at the boundary: the rational constructor, ``scale`` and the
read-only view ``c``.

``Poly`` is the key-agnostic kernel: construction, sums, rational scaling,
equality and the view.  ``Laurent`` adds the operations on integer
exponents of one variable: products, shifts, the derivative, x -> 1/x and
exact division.  The kernel holds rational functions in u = q^(1/2)
(``qfunc.ULaurent``) and the coefficients in the equivariant weight alpha
that the mirror series reads and prints; ``series.TauLaurent`` is a
``Laurent`` in tau.  The mirror module's nilpotent rings are
``Poly`` values keyed by exponent tuples, multiplied by ``nilpotent.mul``.
Every result keeps the class of its left operand.
"""
from __future__ import annotations

from collections.abc import Hashable
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalError


def convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two {exponent: nonzero int} numerators, without zeros."""
    c: dict[int, int] = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            c[k] = c.get(k, 0) + v1 * v2
    # a product with a monomial cannot cancel
    if len(a) > 1 and len(b) > 1:
        c = {k: v for k, v in c.items() if v}
    return c


class Poly:
    """Sum of num[key] * key / den over the rationals, keys left abstract."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: dict[Hashable, object] | None = None):
        """From {key: int or Fraction}; zero coefficients are dropped."""
        terms = [(k, v) for k, v in (coeffs or {}).items() if v]
        # reduced fractions over their lcm leave numerators coprime to den
        den = lcm(*(v.denominator for _k, v in terms))
        self.num = {k: v.numerator * (den // v.denominator) for k, v in terms}
        self.den = den

    def _new(self, num: dict, den: int) -> "Poly":
        """A value like self from nonzero integer numerators over den > 0,
        with the content of num divided out of den."""
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        out = object.__new__(type(self))
        out.num, out.den = num, den
        return out

    @property
    def c(self) -> dict[Hashable, Fraction]:
        """The coefficients as ``Fraction`` values (a fresh dict)."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.num.items()}

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, o: "Poly") -> "Poly":
        b = o.num
        if not b:
            return self
        a = self.num
        if not a:
            return o
        # over lcm(da, db): a takes the factor ma, b the factor mb
        da, db = self.den, o.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        c = {k: v * ma for k, v in a.items()} if ma != 1 else dict(a)
        for k, v in b.items():
            s = c.get(k, 0) + v * mb
            if s:
                c[k] = s
            else:
                del c[k]
        return self._new(c, da * ma)

    def __neg__(self):
        return self._new({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, o):
        return self + (-o)

    def scale(self, v) -> "Poly":
        """Times an int or a Fraction."""
        p = v.numerator
        return self._new({k: w * p for k, w in self.num.items()} if p else {},
                         self.den * v.denominator)

    # -- comparison ---------------------------------------------------------------
    def __eq__(self, o):
        return isinstance(o, Poly) and self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))


class Laurent(Poly):
    """Finite Laurent polynomial in one variable: num keyed by exponents."""

    __slots__ = ()
    var = "x"

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, v) -> "Laurent":
        return cls({0: v})

    @classmethod
    def mono(cls, exp: int) -> "Laurent":
        return cls({exp: 1})

    # -- structure -----------------------------------------------------------
    def min_exp(self) -> int:
        return min(self.num)

    def max_exp(self) -> int:
        return max(self.num)

    # -- arithmetic -------------------------------------------------------------
    def __mul__(self, o: "Laurent") -> "Laurent":
        return self._new(convolve(self.num, o.num), self.den * o.den)

    def shift(self, d: int) -> "Laurent":
        return self._new({k + d: v for k, v in self.num.items()}, self.den)

    def deriv(self) -> "Laurent":
        return self._new({k - 1: v * k for k, v in self.num.items() if k}, self.den)

    def subs_inverse(self) -> "Laurent":
        """x -> 1/x."""
        return self._new({-k: v for k, v in self.num.items()}, self.den)

    def divexact(self, o: "Laurent") -> "Laurent":
        """Exact division; raises InternalError on a remainder.

        The numerators are divided by the primitive part of the divisor's.
        By Gauss's lemma that quotient is integral whenever the division is
        exact, so the long division runs over integers and gives up at the
        first quotient coefficient that is not an integer.
        """
        b = o.num
        if not b:
            raise ZeroDivisionError(f"{self.var}-polynomial division by zero")
        a = self.num
        if not a:
            return self._new({}, 1)
        if len(b) == 1:
            (k, v), = b.items()
            m = o.den if v > 0 else -o.den
            return self._new({kk - k: vv * m for kk, vv in a.items()}, self.den * abs(v))
        # dense long division from the top; divisor zeros are skipped
        content = gcd(*b.values())
        sa, sb = min(a), min(b)
        rem = [0] * (max(a) - sa + 1)
        for k, v in a.items():
            rem[k - sa] = v
        db = max(b) - sb
        lead = b[db + sb] // content
        tail = [(k - sb, v // content) for k, v in b.items() if k - sb != db]
        q = {}
        for da in range(len(rem) - 1, db - 1, -1):
            f = rem[da]
            if not f:
                continue
            f, r = divmod(f, lead)
            if r:
                break
            off = da - db
            q[off + sa - sb] = f * o.den
            for k, v in tail:
                rem[off + k] -= f * v
        else:
            if not any(rem[:db]):
                return self._new(q, self.den * content)
        raise InternalError(f"{self.var}-polynomial division leaves a remainder")

    def __repr__(self):
        if not self.num:
            return "0"
        return " + ".join(f"({v})*{self.var}^{k}" if k else f"({v})"
                          for k, v in sorted(self.c.items()))
