"""Sparse Laurent polynomials in one variable over the rationals.

``Laurent`` stores ``{exponent: Fraction}`` with no zero coefficients.  The
same kernel serves rational functions in u = q^(1/2) (``qfunc.ULaurent``),
the coefficients in the equivariant weight alpha that the mirror series
reads and prints, and the exact division of ``series.TauLaurent``
numerators.  Subclasses add only their own operations; every result keeps
the class of its left operand.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from .errors import InternalError


class Laurent:
    """Finite Laurent polynomial in one variable over Fraction."""

    __slots__ = ("c",)
    var = "x"

    def __init__(self, coeffs: Optional[Dict[int, object]] = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                f = v if isinstance(v, Fraction) else Fraction(v)
                if f:
                    c[k] = f
        self.c = c

    def _new(self, c: dict) -> "Laurent":
        """A value of this class from a dict already free of zeros."""
        out = object.__new__(type(self))
        out.c = c
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, v) -> "Laurent":
        return cls({0: v})

    @classmethod
    def mono(cls, exp: int, v=1) -> "Laurent":
        return cls({exp: v})

    # -- structure -----------------------------------------------------------
    def __bool__(self):
        return bool(self.c)

    def min_exp(self) -> int:
        return min(self.c)

    def max_exp(self) -> int:
        return max(self.c)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, o: "Laurent") -> "Laurent":
        if not o.c:
            return self
        if not self.c:
            return o
        c = dict(self.c)
        for k, v in o.c.items():
            s = c.get(k)
            s = v if s is None else s + v
            if s:
                c[k] = s
            elif k in c:
                del c[k]
        return self._new(c)

    def __neg__(self):
        return self._new({k: -v for k, v in self.c.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o: "Laurent") -> "Laurent":
        c: dict = {}
        for k1, v1 in self.c.items():
            for k2, v2 in o.c.items():
                k = k1 + k2
                p = v1 * v2
                s = c.get(k)
                s = p if s is None else s + p
                if s:
                    c[k] = s
                elif k in c:
                    del c[k]
        return self._new(c)

    def scale(self, v) -> "Laurent":
        f = v if isinstance(v, Fraction) else Fraction(v)
        return self._new({k: w * f for k, w in self.c.items()} if f else {})

    def shift(self, d: int) -> "Laurent":
        return self._new({k + d: v for k, v in self.c.items()})

    def deriv(self) -> "Laurent":
        return self._new({k - 1: v * k for k, v in self.c.items() if k})

    def subs_inverse(self) -> "Laurent":
        """x -> 1/x."""
        return self._new({-k: v for k, v in self.c.items()})

    def negate_var(self) -> "Laurent":
        """x -> -x."""
        return self._new({k: (-v if k % 2 else v) for k, v in self.c.items()})

    def divexact(self, o: "Laurent") -> "Laurent":
        """Exact Laurent division; raises InternalError on a remainder."""
        if not o.c:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.c:
            return self._new({})
        if len(o.c) == 1:
            (k, v), = o.c.items()
            inv = 1 / v
            return self._new({kk - k: vv * inv for kk, vv in self.c.items()})
        # dense long division from the top; divisor zeros are skipped
        sa, sb = self.min_exp(), o.min_exp()
        rem = [Fraction(0)] * (self.max_exp() - sa + 1)
        for k, v in self.c.items():
            rem[k - sa] = v
        db = o.max_exp() - sb
        lead_inv = 1 / o.c[db + sb]
        tail = [(k - sb, v) for k, v in o.c.items() if k - sb != db]
        q = {}
        for da in range(len(rem) - 1, db - 1, -1):
            f = rem[da]
            if not f:
                continue
            f = f * lead_inv
            off = da - db
            q[off + sa - sb] = f
            for k, v in tail:
                rem[off + k] = rem[off + k] - f * v
        if any(rem[:db]):
            raise InternalError(f"{self.var}-polynomial division leaves a remainder")
        return self._new(q)

    # -- comparison ---------------------------------------------------------------
    def __eq__(self, o):
        return isinstance(o, Laurent) and self.c == o.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"({v})*{self.var}^{k}" if k else f"({v})"
                          for k, v in sorted(self.c.items()))
