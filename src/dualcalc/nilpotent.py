"""Truncated polynomial ring for the mirror module.

``XPoly``: polynomials in one Chern root x, the formal symbols P (the
pi sqrt(-1)/alpha bookkeeping unit) and t, and the equivariant weight alpha
(any integer power), truncated at an x-degree cap.  A value holds integer
numerators keyed by (x, P, t, alpha) exponents over one positive common
denominator coprime to their content, so the form is canonical and
arithmetic runs on integers; ``laurent.Laurent`` coefficients in alpha
appear only at the boundary (the constructor and the ``c`` view).  The
Grassmannian formulas need no several-variable polynomial: each row of
their determinants depends on one Chern root, and ``x_coefficients`` hands
out the x^e coefficients those determinants are read from.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import add
from typing import Dict, Iterable, Optional, Tuple

from .errors import UsageError
from .laurent import Laurent


class XPoly:
    """Numerators ``num`` keyed by (x, P, t, alpha) exponents over ``den``."""

    __slots__ = ("cap", "num", "den")

    def __init__(self, cap: int,
                 c: Optional[Dict[Tuple[int, int, int], Laurent]] = None):
        """From {(x, P, t) exponents: Laurent in alpha}."""
        terms = {}
        for key, v in (c or {}).items():
            if len(key) != 3:
                raise UsageError("exponent tuple must cover x, P and t")
            for e, f in v.c.items():
                terms[key + (e,)] = f
        self._fill(cap, terms)

    def _fill(self, cap: int, terms) -> None:
        terms = {key: f for key, f in terms.items() if f and key[0] <= cap}
        # reduced fractions over their lcm leave numerators coprime to den
        den = lcm(*(f.denominator for f in terms.values()))
        self.cap, self.den = cap, den
        self.num = {key: f.numerator * (den // f.denominator)
                    for key, f in terms.items()}

    @staticmethod
    def _make(cap: int, num: Dict[Tuple[int, ...], int], den: int) -> "XPoly":
        """From nonzero integer numerators over den > 0, reduced by their content."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: v // g for key, v in num.items()}
            den //= g
        out = object.__new__(XPoly)
        out.cap, out.num, out.den = cap, num, den
        return out

    def _like(self, num, den: Optional[int] = None) -> "XPoly":
        return XPoly._make(self.cap, num, self.den if den is None else den)

    @property
    def c(self) -> Dict[Tuple[int, int, int], Laurent]:
        """Read-only view {(x, P, t): Laurent in alpha}."""
        rows: Dict[Tuple[int, ...], dict] = {}
        for key, v in self.num.items():
            rows.setdefault(key[:-1], {})[key[-1]] = Fraction(v, self.den)
        return {key: Laurent(row) for key, row in rows.items()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def of_terms(cap: int, terms) -> "XPoly":
        """From {(x, P, t, alpha) exponents: int or Fraction}."""
        out = object.__new__(XPoly)
        out._fill(cap, terms)
        return out

    @staticmethod
    def const(cap: int, v) -> "XPoly":
        """The constant v (an int or a Fraction)."""
        return XPoly.of_terms(cap, {(0, 0, 0, 0): v})

    # -- arithmetic -----------------------------------------------------------
    @staticmethod
    def lincomb(cap: int, terms: Iterable[Tuple[int, "XPoly"]]) -> "XPoly":
        """The sum of m * p over (m, p) in terms (m an int), built in one dict."""
        terms = list(terms)
        if any(p.cap != cap for _m, p in terms):
            raise UsageError("XPoly shape mismatch")
        den = lcm(*(p.den for _m, p in terms))
        acc: Dict[Tuple[int, ...], int] = defaultdict(int)
        for m, p in terms:
            m *= den // p.den
            for key, v in p.num.items():
                acc[key] += v * m
        return XPoly._make(cap, {key: v for key, v in acc.items() if v}, den)

    def __add__(self, o: "XPoly") -> "XPoly":
        return XPoly.lincomb(self.cap, ((1, self), (1, o)))

    def __neg__(self):
        return self._like({k: -v for k, v in self.num.items()})

    def __mul__(self, o: "XPoly") -> "XPoly":
        if self.cap != o.cap:
            raise UsageError("XPoly shape mismatch")
        # the right operand grouped by x-degree, lowest first, so each left
        # key stops at the room cap - deg(k1) left under the cap
        by_deg: Dict[int, list] = {}
        for k2, v2 in o.num.items():
            by_deg.setdefault(k2[0], []).append((k2, v2))
        buckets = sorted(by_deg.items())
        acc: Dict[Tuple[int, ...], int] = defaultdict(int)
        for k1, v1 in self.num.items():
            room = self.cap - k1[0]
            for d2, terms in buckets:
                if d2 > room:
                    break
                for k2, v2 in terms:
                    acc[tuple(map(add, k1, k2))] += v1 * v2
        return self._like({key: v for key, v in acc.items() if v}, self.den * o.den)

    def scale(self, v) -> "XPoly":
        """Times an int, a Fraction, or a Laurent in alpha term by term."""
        terms = v.c if isinstance(v, Laurent) else {0: v}
        den = lcm(*(f.denominator for f in terms.values()))
        num: Dict[Tuple[int, ...], int] = defaultdict(int)
        for e, f in terms.items():
            m = f.numerator * (den // f.denominator)
            for key, w in self.num.items():
                num[key[:-1] + (key[-1] + e,)] += w * m
        return self._like({key: w for key, w in num.items() if w}, self.den * den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, o):
        return (isinstance(o, XPoly) and self.den == o.den
                and self.num == o.num)

    # -- calculus -------------------------------------------------------------
    def dt(self) -> "XPoly":
        """Derivative in the t variable (exact: t-degrees are fully stored)."""
        return self._like({(x, p, t - 1, a): v * t
                           for (x, p, t, a), v in self.num.items() if t})

    # -- substitutions ------------------------------------------------------------
    def subs_t_plus_p_alpha(self) -> "XPoly":
        """t -> t + P alpha (each dropped t-power becomes a P with an alpha)."""
        num: Dict[Tuple[int, ...], int] = defaultdict(int)
        for (x, pe, m, a), v in self.num.items():
            for r in range(m + 1):
                num[(x, pe + m - r, r, a + m - r)] += v * comb(m, r)
        return self._like({k: v for k, v in num.items() if v})

    def negate_alpha(self) -> "XPoly":
        return self._like({k: (-v if k[-1] % 2 else v) for k, v in self.num.items()})

    def p_free(self) -> bool:
        return not any(key[1] for key in self.num)

    def x_coefficients(self) -> Dict[int, "XPoly"]:
        """{e: the x^e coefficient}, each a polynomial in P, t and alpha alone."""
        rows: Dict[int, Dict[Tuple[int, ...], int]] = {}
        for (x, *rest), v in self.num.items():
            rows.setdefault(x, {})[(0, *rest)] = v
        return {x: self._like(num) for x, num in rows.items()}


def exp_x_times(cap: int, sym_var: str, sign: int) -> XPoly:
    """Helper exponentials used by the operator formula.

    sym_var 'P': e^{sign * P x};  sym_var 't': e^{sign * t x / alpha}.
    """
    terms = {}
    for j in range(cap + 1):
        key = (j, j, 0, 0) if sym_var == "P" else (j, 0, j, -j)
        terms[key] = Fraction(sign ** j, factorial(j))
    return XPoly.of_terms(cap, terms)
