"""Exact rational functions in u = q^(1/2) with a tracked power of (-sqrt(-1)).

A ``QFunction`` stores value = (-sqrt(-1))**ipow * num(u)/den(u) with num, den
Laurent polynomials over the rationals.  Keeping the phase separate leaves all
polynomial arithmetic inside Q(u); the phase is recombined only when a value
is expanded as a lambda-series through ``to_lambda`` (u = e^{sqrt(-1)
lambda/2}, so q = e^{sqrt(-1) lambda}).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Dict, List, Tuple

from . import dense
from .errors import InternalError, UsageError
from .laurent import Laurent
from .scalars import GR_I, GaussianRational, neg_i_power
from .series import LambdaSeries, TauLaurent


# ---------------------------------------------------------------------------
# integer polynomial gcd (primitive pseudo-remainder sequence)
# ---------------------------------------------------------------------------

def _content(p: List[int]) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
    return g or 1

def _prim(p: List[int]) -> List[int]:
    g = _content(p)
    return [c // g for c in p]

def _trim(p: List[int]) -> List[int]:
    while p and p[-1] == 0:
        p.pop()
    return p

def _pseudo_rem(a: List[int], b: List[int]) -> List[int]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[da - db + i] -= la * c
        _trim(a)
        if not a:
            break
    return a

def _int_poly_gcd(a: List[int], b: List[int]) -> List[int]:
    a, b = _prim(_trim(list(a))), _prim(_trim(list(b)))
    if not a:
        return b
    if not b:
        return a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, (_prim(r) if r else [])
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


class ULaurent(Laurent):
    """Laurent polynomial in u over Fraction."""

    __slots__ = ()
    var = "u"

    @staticmethod
    def bracket(m: int) -> "ULaurent":
        """u^m - u^(-m)."""
        if m == 0:
            return ULaurent()
        return ULaurent({m: Fraction(1), -m: Fraction(-1)})

    def _dense_int(self) -> List[int]:
        """Dense coefficients from the lowest power up, cleared of denominators."""
        if not self.c:
            return []
        lo = self.min_exp()
        den = 1
        for v in self.c.values():
            den = den * v.denominator // gcd(den, v.denominator)
        out = [0] * (self.max_exp() - lo + 1)
        for k, v in self.c.items():
            out[k - lo] = int(v * den)
        return out

    def gcd(self, o: "ULaurent") -> "ULaurent":
        g = _int_poly_gcd(self._dense_int(), o._dense_int())
        return ULaurent({i: Fraction(c) for i, c in enumerate(g)})

    def subs_q_to_lambda(self, trunc: int) -> LambdaSeries:
        """Substitute u = e^{i lambda/2}, truncated at ``trunc``."""
        out: Dict[int, GaussianRational] = {}
        for m, v in self.c.items():
            e = _exp_iu(m, trunc)
            for j, g in enumerate(e):
                out[j] = out.get(j, _GR0) + g * v
        return LambdaSeries.from_map({k: TauLaurent.const(v) for k, v in out.items() if v},
                                     trunc)

    def q_series(self, order: int) -> List[Fraction]:
        """Coefficients of q^0..q^order, for u-even values with den(0) != 0."""
        if any(k % 2 for k in self.c):
            raise InternalError("odd u-power where a q-expansion was requested")
        return [self.c.get(2 * k, _F0) for k in range(order + 1)]


_F0 = Fraction(0)
_GR0 = GaussianRational(0)


@lru_cache(maxsize=None)
def _exp_iu(m: int, trunc: int) -> Tuple[GaussianRational, ...]:
    """Coefficients of e^{i m lambda / 2} through lambda^(trunc-1)."""
    half = GR_I * Fraction(m, 2)
    out = []
    p = GaussianRational(1)
    for j in range(trunc):
        out.append(p * Fraction(1, factorial(j)))
        p = p * half
    return tuple(out)


class QFunction:
    """(-sqrt(-1))**ipow * num(u) / den(u), reduced and canonically normalized.

    Canonical form: ipow in {0, 1}; den has valuation 0 and leading (highest
    u-power) coefficient 1; gcd(num, den) = 1.
    """

    __slots__ = ("ipow", "num", "den")

    def __init__(self, ipow: int, num: ULaurent, den: ULaurent):
        if not den:
            raise ZeroDivisionError("QFunction with zero denominator")
        sign = 1
        ipow %= 4
        if ipow >= 2:
            ipow -= 2
            sign = -1
        if num:
            g = num.gcd(den)
            if g.c and (len(g.c) > 1 or 0 not in g.c or g.c[0] != 1):
                num = num.divexact(g)
                den = den.divexact(g)
            dv = den.min_exp()
            if dv:
                den = den.shift(-dv)
                num = num.shift(-dv)
            lead = den.c[den.max_exp()]
            if lead != 1:
                den = den.scale(Fraction(1) / lead)
                num = num.scale(Fraction(1) / lead)
            if sign < 0:
                num = -num
        else:
            ipow = 0
            den = ULaurent.const(1)
        self.ipow = ipow
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(v) -> "QFunction":
        return QFunction(0, ULaurent.const(v), ULaurent.const(1))

    @staticmethod
    def u_mono(exp: int, v=1) -> "QFunction":
        return QFunction(0, ULaurent.mono(exp, v), ULaurent.const(1))

    @staticmethod
    def zero() -> "QFunction":
        return QFunction(0, ULaurent(), ULaurent.const(1))

    # -- predicates -----------------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def __eq__(self, o):
        if not isinstance(o, QFunction):
            return NotImplemented
        return self.ipow == o.ipow and self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.ipow, self.num, self.den))

    # -- arithmetic -------------------------------------------------------------
    def __mul__(self, o: "QFunction") -> "QFunction":
        return QFunction(self.ipow + o.ipow, self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "QFunction") -> "QFunction":
        if not o.num:
            raise ZeroDivisionError("QFunction division by zero")
        return QFunction(self.ipow - o.ipow, self.num * o.den, self.den * o.num)

    def __add__(self, o: "QFunction") -> "QFunction":
        if not self.num:
            return o
        if not o.num:
            return self
        if self.ipow != o.ipow:
            raise UsageError("adding QFunctions with incompatible phases")
        return QFunction(self.ipow,
                         self.num * o.den + o.num * self.den,
                         self.den * o.den)

    def __neg__(self):
        return QFunction(self.ipow + 2, self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __pow__(self, k: int) -> "QFunction":
        if k < 0:
            return QFunction.const(1) / (self ** (-k))
        out = QFunction.const(1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, v) -> "QFunction":
        return QFunction(self.ipow, self.num.scale(v), self.den)

    def mul_u_power(self, k: int) -> "QFunction":
        return QFunction(self.ipow, self.num.shift(k), self.den)

    # -- expansion ---------------------------------------------------------------
    def to_lambda(self, trunc: int) -> LambdaSeries:
        """Expansion at u = e^{i lambda/2}, truncated at order ``trunc``."""
        if not self.num:
            return LambdaSeries(0, [])
        # the vanishing order of den at u=1 is at most its degree span
        span = self.den.max_exp() - self.den.min_exp()
        probe = self.den.subs_q_to_lambda(max(trunc, span + 2, 2)).pruned()
        if probe.valuation() is None:
            raise UsageError("denominator expands to zero through the truncation")
        v = probe.valuation()
        margin = trunc + 2 * v + 2
        num_s = self.num.subs_q_to_lambda(margin)
        den_s = self.den.subs_q_to_lambda(margin)
        out = num_s.div(den_s)
        phase = neg_i_power(self.ipow)
        out = out.scale(phase)
        if out.trunc > trunc:
            out = LambdaSeries(out.floor, out.co[: trunc - out.floor])
        return out.pruned()

    def q_series(self, order: int) -> List[Fraction]:
        """q-expansion through q^order; requires ipow == 0 and u-even value."""
        if self.ipow:
            raise InternalError("q-expansion of a value with a residual phase")
        den = self.den.q_series(order)
        num = [_F0] * (order + 1)
        for k, v in self.num.c.items():
            if k % 2:
                raise InternalError("odd u-power where a q-expansion was requested")
            if k < 0:
                raise InternalError("negative u-power in q-expansion")
            if k // 2 <= order:
                num[k // 2] = v
        if not den[0]:
            raise InternalError("denominator not invertible as a q-series")
        return dense.mul(num, dense.inv(den, order + 1), order + 1)

    def __repr__(self):
        return f"(-i)^{self.ipow} * ({self.num}) / ({self.den})"
