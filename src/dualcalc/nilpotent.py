"""Truncated polynomial ring for the mirror module.

``XPoly``: polynomials in Chern roots x_1..x_k, the formal symbols P (the
pi sqrt(-1)/alpha bookkeeping unit) and t, and the equivariant weight alpha
(any integer power), truncated at a total x-degree cap.  A value holds
integer numerators keyed by (x_1..x_k, P, t, alpha) exponents over one
positive common denominator coprime to their content, so the form is
canonical and arithmetic runs on integers; ``laurent.Laurent``
coefficients in alpha appear only at the boundary (the constructor, the
``c`` view and ``schur_components``).  Division by the Vandermonde works
degree slice by degree slice, which keeps truncated inputs exact.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import add
from typing import Dict, Optional, Tuple

from .errors import InternalError, UsageError
from .laurent import Laurent


class XPoly:
    """Numerators ``num`` keyed by (x_1..x_k, P, t, alpha) exponents over ``den``."""

    __slots__ = ("k", "cap", "num", "den")

    def __init__(self, k: int, cap: int,
                 c: Optional[Dict[Tuple[int, ...], Laurent]] = None):
        """From {(x_1..x_k, P, t) exponents: Laurent in alpha}."""
        terms = {}
        for key, v in (c or {}).items():
            if len(key) != k + 2:
                raise UsageError("exponent tuple must cover x vars, P and t")
            for e, f in v.c.items():
                terms[key + (e,)] = f
        self._fill(k, cap, terms)

    def _fill(self, k: int, cap: int, terms) -> None:
        terms = {key: f for key, f in terms.items() if f and sum(key[:k]) <= cap}
        # reduced fractions over their lcm leave numerators coprime to den
        den = lcm(*(f.denominator for f in terms.values()))
        self.k, self.cap, self.den = k, cap, den
        self.num = {key: f.numerator * (den // f.denominator)
                    for key, f in terms.items()}

    @staticmethod
    def _make(k: int, cap: int, num: Dict[Tuple[int, ...], int], den: int) -> "XPoly":
        """From nonzero integer numerators over den > 0, reduced by their content."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: v // g for key, v in num.items()}
            den //= g
        out = object.__new__(XPoly)
        out.k, out.cap, out.num, out.den = k, cap, num, den
        return out

    def _like(self, num, den: Optional[int] = None) -> "XPoly":
        return XPoly._make(self.k, self.cap, num, self.den if den is None else den)

    @property
    def c(self) -> Dict[Tuple[int, ...], Laurent]:
        """Read-only view {(x_1..x_k, P, t): Laurent in alpha}."""
        rows: Dict[Tuple[int, ...], dict] = {}
        for key, v in self.num.items():
            rows.setdefault(key[:-1], {})[key[-1]] = Fraction(v, self.den)
        return {key: Laurent(row) for key, row in rows.items()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def of_terms(k: int, cap: int, terms) -> "XPoly":
        """From {(x_1..x_k, P, t, alpha) exponents: int or Fraction}."""
        out = object.__new__(XPoly)
        out._fill(k, cap, terms)
        return out

    @staticmethod
    def const(k: int, cap: int, v, a: int = 0) -> "XPoly":
        """The constant v * alpha^a (v an int or a Fraction)."""
        return XPoly.of_terms(k, cap, {(0,) * (k + 2) + (a,): v})

    @staticmethod
    def x_var(k: int, cap: int, i: int) -> "XPoly":
        return XPoly.of_terms(k, cap, {tuple(int(j == i) for j in range(k + 3)): 1})

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, o: "XPoly", sign: int = 1) -> "XPoly":
        if self.k != o.k or self.cap != o.cap:
            raise UsageError("XPoly shape mismatch")
        den = lcm(self.den, o.den)
        m1, m2 = den // self.den, sign * (den // o.den)
        num = {key: v * m1 for key, v in self.num.items()}
        for key, v in o.num.items():
            s = num.get(key, 0) + v * m2
            if s:
                num[key] = s
            else:
                del num[key]
        return self._like(num, den)

    def __neg__(self):
        return self._like({k: -v for k, v in self.num.items()})

    def __sub__(self, o):
        return self.__add__(o, -1)

    def __mul__(self, o: "XPoly") -> "XPoly":
        if self.k != o.k or self.cap != o.cap:
            raise UsageError("XPoly shape mismatch")
        # the right operand grouped by x-degree, lowest first, so each left
        # key stops at the room cap - deg(k1) left under the cap
        k = self.k
        by_deg: Dict[int, list] = {}
        for k2, v2 in o.num.items():
            by_deg.setdefault(sum(k2[:k]), []).append((k2, v2))
        buckets = sorted(by_deg.items())
        acc: Dict[Tuple[int, ...], int] = defaultdict(int)
        for k1, v1 in self.num.items():
            room = self.cap - sum(k1[:k])
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
        return (isinstance(o, XPoly) and self.k == o.k and self.den == o.den
                and self.num == o.num)

    # -- calculus -------------------------------------------------------------
    def dt(self) -> "XPoly":
        """Derivative in the t variable (exact: t-degrees are fully stored)."""
        tpos = self.k + 1
        return self._like({key[:tpos] + (key[tpos] - 1, key[-1]): v * key[tpos]
                           for key, v in self.num.items() if key[tpos]})

    # -- substitutions ------------------------------------------------------------
    def subs_t_plus_p_alpha(self) -> "XPoly":
        """t -> t + P alpha (each dropped t-power becomes a P with an alpha)."""
        num: Dict[Tuple[int, ...], int] = defaultdict(int)
        ppos = self.k
        for key, v in self.num.items():
            pe, m, a = key[ppos:]
            for r in range(m + 1):
                num[key[:ppos] + (pe + m - r, r, a + m - r)] += v * comb(m, r)
        return self._like({k: v for k, v in num.items() if v})

    def embed(self, k_total: int, pos: int, cap: int) -> "XPoly":
        """Embed a one-variable polynomial as variable ``pos`` of k_total."""
        if self.k != 1:
            raise UsageError("embed expects a one-variable polynomial")
        num: Dict[Tuple[int, ...], int] = {}
        for (xe, *rest), v in self.num.items():
            if xe <= cap:
                key = [0] * k_total + rest
                key[pos] = xe
                num[tuple(key)] = v
        return XPoly._make(k_total, cap, num, self.den)

    def negate_alpha(self) -> "XPoly":
        return self._like({k: (-v if k[-1] % 2 else v) for k, v in self.num.items()})

    def p_free(self) -> bool:
        return not any(key[self.k] for key in self.num)

    def is_symmetric(self) -> bool:
        for key, v in self.num.items():
            xs = key[: self.k]
            canon = tuple(sorted(xs, reverse=True)) + key[self.k:]
            if self.num.get(canon) != v:
                return False
        return True

    def is_antisymmetric(self) -> bool:
        from itertools import permutations

        idx = list(range(self.k))
        for key, v in self.num.items():
            xs = key[: self.k]
            for perm in permutations(idx):
                pk = tuple(xs[p] for p in perm) + key[self.k:]
                if self.num.get(pk, 0) != _perm_sign(perm) * v:
                    return False
        return True

    # -- Vandermonde ---------------------------------------------------------------
    def divide_linear(self, i: int, j: int) -> "XPoly":
        """Exact division by (x_i - x_j), one homogeneous x-slice at a time.

        The divisor is monic, so the quotient stays over the same denominator.
        """
        slices: Dict[int, Dict[Tuple[int, ...], int]] = {}
        for key, v in self.num.items():
            slices.setdefault(sum(key[: self.k]), {})[key] = v
        out: Dict[Tuple[int, ...], int] = defaultdict(int)
        for deg, terms in slices.items():
            work = defaultdict(int, terms)
            maxe = max((key[i] for key in work), default=0)
            for e in range(maxe, 0, -1):
                batch = [key for key in list(work) if key[i] == e]
                for key in batch:
                    v = work.pop(key)
                    if not v:
                        continue
                    qk = key[:i] + (e - 1,) + key[i + 1:]
                    out[qk] += v
                    # compensation: + x_j * q-term stays in the slice
                    work[qk[:j] + (qk[j] + 1,) + qk[j + 1:]] += v
            if any(work.values()):
                raise InternalError("Vandermonde division leaves a remainder")
        return self._like({k: v for k, v in out.items() if v})

    def vandermonde_divide(self) -> "XPoly":
        out = self
        for i in range(self.k):
            for j in range(i + 1, self.k):
                out = out.divide_linear(i, j)
        return out

    def vandermonde_multiply(self) -> "XPoly":
        out = self
        for i in range(self.k):
            for j in range(i + 1, self.k):
                out = out * (XPoly.x_var(self.k, self.cap, i)
                             - XPoly.x_var(self.k, self.cap, j))
        return out

    # -- Schur reduction -----------------------------------------------------------
    def schur_components(self) -> Dict[Tuple[Tuple[int, ...], int, int], Laurent]:
        """Expand a symmetric polynomial over Schur polynomials.

        Returns {(lambda, P exponent, t exponent): coefficient}.  The input
        must be symmetric in the x variables; multiply by the Vandermonde
        and read coefficients at strictly decreasing exponents lambda+delta.
        """
        if not self.is_symmetric():
            raise InternalError("Schur expansion of a non-symmetric polynomial")
        bumped = XPoly._make(self.k, self.cap + self.k * (self.k - 1) // 2,
                             self.num, self.den)
        anti = bumped.vandermonde_multiply()
        rows: Dict[Tuple[Tuple[int, ...], int, int], dict] = {}
        delta = tuple(self.k - 1 - i for i in range(self.k))
        for key, v in anti.num.items():
            xs = key[: self.k]
            if any(xs[i] <= xs[i + 1] for i in range(self.k - 1)):
                continue
            lam = tuple(xs[i] - delta[i] for i in range(self.k))
            if any(lam[i] < lam[i + 1] for i in range(self.k - 1)) or lam[-1] < 0:
                raise InternalError("bad Schur exponent bookkeeping")
            lam = tuple(p for p in lam if p)
            row = rows.setdefault((lam, key[self.k], key[self.k + 1]), {})
            row[key[-1]] = Fraction(v, anti.den)
        return {key: Laurent(row) for key, row in rows.items()}


def _perm_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def exp_x_times(k: int, cap: int, var: int, sym_var: str, sign: int) -> XPoly:
    """Helper exponentials used by the operator formula.

    sym_var 'P': e^{sign * P x_var};  sym_var 't': e^{sign * t x_var / alpha}.
    """
    terms = {}
    for j in range(cap + 1):
        key = [0] * (k + 3)
        key[var] = j
        if sym_var == "P":
            key[k] = j
        else:
            key[k + 1], key[k + 2] = j, -j
        terms[tuple(key)] = Fraction(sign ** j, factorial(j))
    return XPoly.of_terms(k, cap, terms)
