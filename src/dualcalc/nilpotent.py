"""Truncated polynomial ring for the mirror module.

``XPoly``: polynomials in one Chern root x, the formal symbols P (the
pi sqrt(-1)/alpha bookkeeping unit) and t, and the equivariant weight alpha
(any integer power), truncated at an x-degree cap.  It is the integer
kernel of ``laurent.Poly`` with numerators keyed by (x, P, t, alpha)
exponents, so sums, scaling, equality and the content reduction come from
there; this module adds the cap, the truncated product, linear
combinations, d/dt and the substitutions.  ``laurent.Laurent``
coefficients in alpha appear only at the boundary (``scale`` and the ``c``
view).  The Grassmannian formulas need no several-variable polynomial: each
row of their determinants depends on one Chern root, and ``x_coefficients``
hands out the x^e coefficients as integer numerators keyed by (P, t, alpha)
exponents, which ``mirror._bialternant`` multiplies and sums as plain integers.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from fractions import Fraction
from math import comb, factorial, lcm
from operator import add

from .errors import UsageError
from .laurent import Laurent, Poly


class XPoly(Poly):
    """Numerators ``num`` keyed by (x, P, t, alpha) exponents over ``den``."""

    __slots__ = ("cap",)

    def __init__(self, cap: int, terms: dict[tuple[int, ...], object] | None = None):
        """From {(x, P, t, alpha) exponents: int or Fraction}, cut at the cap."""
        Poly.__init__(self, {key: f for key, f in (terms or {}).items() if key[0] <= cap})
        self.cap = cap

    def _new(self, num, den: int) -> "XPoly":
        out = Poly._new(self, num, den)
        out.cap = self.cap
        return out

    @property
    def c(self) -> dict[tuple[int, int, int], Laurent]:
        """Read-only view {(x, P, t): Laurent in alpha}."""
        rows: dict[tuple[int, ...], dict[int, int]] = {}
        for key, v in self.num.items():
            rows.setdefault(key[:-1], {})[key[-1]] = v
        zero = Laurent()
        return {key: zero._new(row, self.den) for key, row in rows.items()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(cap: int, v) -> "XPoly":
        """The constant v (an int or a Fraction)."""
        return XPoly(cap, {(0, 0, 0, 0): v})

    # -- arithmetic -----------------------------------------------------------
    @staticmethod
    def lincomb(cap: int, terms: Iterable[tuple[int, "XPoly"]]) -> "XPoly":
        """The sum of m * p over (m, p) in terms (m an int), built in one dict."""
        terms = list(terms)
        if any(p.cap != cap for _m, p in terms):
            raise UsageError("XPoly shape mismatch")
        den = lcm(*(p.den for _m, p in terms))
        acc: dict[tuple[int, ...], int] = defaultdict(int)
        for m, p in terms:
            m *= den // p.den
            for key, v in p.num.items():
                acc[key] += v * m
        return XPoly(cap)._new({key: v for key, v in acc.items() if v}, den)

    def __add__(self, o: "XPoly") -> "XPoly":
        return XPoly.lincomb(self.cap, ((1, self), (1, o)))

    def __mul__(self, o: "XPoly") -> "XPoly":
        if self.cap != o.cap:
            raise UsageError("XPoly shape mismatch")
        # the right operand grouped by x-degree, lowest first, so each left
        # key stops at the room cap - deg(k1) left under the cap
        by_deg: dict[int, list] = {}
        for k2, v2 in o.num.items():
            by_deg.setdefault(k2[0], []).append((k2, v2))
        buckets = sorted(by_deg.items())
        acc: dict[tuple[int, ...], int] = defaultdict(int)
        for k1, v1 in self.num.items():
            room = self.cap - k1[0]
            for d2, terms in buckets:
                if d2 > room:
                    break
                for k2, v2 in terms:
                    acc[tuple(map(add, k1, k2))] += v1 * v2
        return self._new({key: v for key, v in acc.items() if v}, self.den * o.den)

    def scale(self, v) -> "XPoly":
        """Times an int, a Fraction, or a Laurent in alpha term by term."""
        if not isinstance(v, Laurent):
            return Poly.scale(self, v)
        num: dict[tuple[int, ...], int] = defaultdict(int)
        for e, m in v.num.items():
            for key, w in self.num.items():
                num[key[:-1] + (key[-1] + e,)] += w * m
        return self._new({key: w for key, w in num.items() if w}, self.den * v.den)

    # -- calculus -------------------------------------------------------------
    def dt(self) -> "XPoly":
        """Derivative in the t variable (exact: t-degrees are fully stored)."""
        return self._new({(x, p, t - 1, a): v * t
                          for (x, p, t, a), v in self.num.items() if t}, self.den)

    # -- substitutions ------------------------------------------------------------
    def subs_t_plus_p_alpha(self) -> "XPoly":
        """t -> t + P alpha (each dropped t-power becomes a P with an alpha)."""
        num: dict[tuple[int, ...], int] = defaultdict(int)
        for (x, pe, m, a), v in self.num.items():
            for r in range(m + 1):
                num[(x, pe + m - r, r, a + m - r)] += v * comb(m, r)
        return self._new({k: v for k, v in num.items() if v}, self.den)

    def negate_alpha(self) -> "XPoly":
        return self._new({k: (-v if k[-1] % 2 else v) for k, v in self.num.items()},
                         self.den)

    def x_coefficients(self) -> dict[int, Poly]:
        """{e: the x^e coefficient}, each a ``Poly`` keyed by (P, t, alpha) exponents."""
        rows: dict[int, dict[tuple[int, ...], int]] = {}
        for key, v in self.num.items():
            rows.setdefault(key[0], {})[key[1:]] = v
        zero = Poly()
        return {x: zero._new(num, self.den) for x, num in rows.items()}


def exp_x_times(cap: int, sym_var: str, sign: int) -> XPoly:
    """Helper exponentials used by the operator formula.

    sym_var 'P': e^{sign * P x};  sym_var 't': e^{sign * t x / alpha}.
    """
    terms = {}
    for j in range(cap + 1):
        key = (j, j, 0, 0) if sym_var == "P" else (j, 0, j, -j)
        terms[key] = Fraction(sign ** j, factorial(j))
    return XPoly(cap, terms)
