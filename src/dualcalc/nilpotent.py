"""Truncated polynomial ring for the mirror module.

``XPoly``: polynomials in Chern roots x_1..x_k plus the formal symbols P
(the pi sqrt(-1)/alpha bookkeeping unit) and t, with coefficients that are
``laurent.Laurent`` polynomials in the equivariant weight alpha, truncated
at a total x-degree cap.  Division by the Vandermonde works degree slice by
degree slice, which keeps truncated inputs exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import add
from typing import Dict, Optional, Tuple

from .errors import InternalError, UsageError
from .laurent import Laurent

Frac = Fraction
AL_ONE = Laurent.const(1)


class XPoly:
    """Keys are (x_1..x_k exponents, P exponent, t exponent) -> Laurent in alpha."""

    __slots__ = ("k", "cap", "c")

    def __init__(self, k: int, cap: int,
                 c: Optional[Dict[Tuple[int, ...], Laurent]] = None):
        self.k = k
        self.cap = cap
        self.c: Dict[Tuple[int, ...], Laurent] = {}
        if c:
            for key, v in c.items():
                if len(key) != k + 2:
                    raise UsageError("exponent tuple must cover x vars, P and t")
                if sum(key[:k]) <= cap and v:
                    self.c[key] = v

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(k: int, cap: int, v) -> "XPoly":
        al = v if isinstance(v, Laurent) else Laurent.const(v)
        return XPoly(k, cap, {(0,) * (k + 2): al})

    @staticmethod
    def x_var(k: int, cap: int, i: int) -> "XPoly":
        key = [0] * (k + 2)
        key[i] = 1
        return XPoly(k, cap, {tuple(key): AL_ONE})

    def _like(self, c) -> "XPoly":
        return XPoly(self.k, self.cap, c)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, o: "XPoly") -> "XPoly":
        if self.k != o.k or self.cap != o.cap:
            raise UsageError("XPoly shape mismatch")
        c = dict(self.c)
        for key, v in o.c.items():
            s = c.get(key)
            s = v if s is None else s + v
            if s:
                c[key] = s
            elif key in c:
                del c[key]
        return self._like(c)

    def __neg__(self):
        return self._like({k: -v for k, v in self.c.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o: "XPoly") -> "XPoly":
        if self.k != o.k or self.cap != o.cap:
            raise UsageError("XPoly shape mismatch")
        # the right operand grouped by x-degree, lowest first, so each left
        # key stops at the room cap - deg(k1) left under the cap; alpha
        # coefficients accumulate per key before any Laurent is formed
        by_deg: Dict[int, list] = {}
        for k2, v2 in o.c.items():
            by_deg.setdefault(sum(k2[: self.k]), []).append((k2, v2.c.items()))
        buckets = sorted(by_deg.items())
        acc: Dict[Tuple[int, ...], dict] = {}
        for k1, v1 in self.c.items():
            room = self.cap - sum(k1[: self.k])
            a1 = v1.c.items()
            for d2, terms in buckets:
                if d2 > room:
                    break
                for k2, a2 in terms:
                    key = tuple(map(add, k1, k2))
                    row = acc.setdefault(key, {})
                    for e1, f1 in a1:
                        for e2, f2 in a2:
                            e = e1 + e2
                            row[e] = row[e] + f1 * f2 if e in row else f1 * f2
        return self._like({key: Laurent(row) for key, row in acc.items()})

    def scale(self, v) -> "XPoly":
        al = v if isinstance(v, Laurent) else Laurent.const(v)
        return self._like({k: w * al for k, w in self.c.items()})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, o):
        return isinstance(o, XPoly) and self.k == o.k and self.c == o.c

    # -- calculus -------------------------------------------------------------
    def dt(self) -> "XPoly":
        """Derivative in the t variable (exact: t-degrees are fully stored)."""
        c: Dict[Tuple[int, ...], Laurent] = {}
        tpos = self.k + 1
        for key, v in self.c.items():
            e = key[tpos]
            if not e:
                continue
            nk = key[:tpos] + (e - 1,)
            piece = v.scale(e)
            s = c.get(nk)
            c[nk] = piece if s is None else s + piece
        return self._like(c)

    # -- substitutions ------------------------------------------------------------
    def subs_t_plus_p_alpha(self) -> "XPoly":
        """t -> t + P alpha (each dropped t-power becomes a P with an alpha)."""
        c: Dict[Tuple[int, ...], Laurent] = {}
        tpos = self.k + 1
        ppos = self.k
        for key, v in self.c.items():
            m = key[tpos]
            for r in range(m + 1):
                nk = list(key)
                nk[tpos] = r
                nk[ppos] = key[ppos] + (m - r)
                coeff = v.shift(m - r).scale(comb(m, r))
                nkt = tuple(nk)
                s = c.get(nkt)
                c[nkt] = coeff if s is None else s + coeff
        return self._like({k: v for k, v in c.items() if v})

    def embed(self, k_total: int, pos: int, cap: int) -> "XPoly":
        """Embed a one-variable polynomial as variable ``pos`` of k_total."""
        if self.k != 1:
            raise UsageError("embed expects a one-variable polynomial")
        c: Dict[Tuple[int, ...], Laurent] = {}
        for (xe, pe, te), v in self.c.items():
            key = [0] * (k_total + 2)
            key[pos] = xe
            key[k_total] = pe
            key[k_total + 1] = te
            c[tuple(key)] = v
        return XPoly(k_total, cap, c)

    def negate_alpha(self) -> "XPoly":
        return self._like({k: v.negate_var() for k, v in self.c.items()})

    def p_free(self) -> bool:
        return all(not key[self.k] or not v for key, v in self.c.items())

    def is_symmetric(self) -> bool:
        for key, v in self.c.items():
            xs = key[: self.k]
            canon = tuple(sorted(xs, reverse=True)) + key[self.k:]
            if self.c.get(canon) != v:
                return False
        return True

    def is_antisymmetric(self) -> bool:
        from itertools import permutations

        idx = list(range(self.k))
        for key, v in self.c.items():
            xs = key[: self.k]
            for perm in permutations(idx):
                sign = _perm_sign(perm)
                pk = tuple(xs[p] for p in perm) + key[self.k:]
                w = self.c.get(pk, Laurent())
                if w != (v if sign > 0 else -v):
                    return False
        return True

    # -- Vandermonde ---------------------------------------------------------------
    def divide_linear(self, i: int, j: int) -> "XPoly":
        """Exact division by (x_i - x_j), one homogeneous x-slice at a time."""
        slices: Dict[int, Dict[Tuple[int, ...], Laurent]] = {}
        for key, v in self.c.items():
            slices.setdefault(sum(key[: self.k]), {})[key] = v
        out: Dict[Tuple[int, ...], Laurent] = {}
        for deg, terms in slices.items():
            work = dict(terms)
            maxe = max((key[i] for key in work), default=0)
            for e in range(maxe, 0, -1):
                batch = [key for key in list(work) if key[i] == e]
                for key in batch:
                    v = work.pop(key)
                    if not v:
                        continue
                    qk = key[:i] + (e - 1,) + key[i + 1:]
                    s = out.get(qk)
                    out[qk] = v if s is None else s + v
                    # compensation: + x_j * q-term stays in the slice
                    ck = qk[:j] + (qk[j] + 1,) + qk[j + 1:]
                    s = work.get(ck)
                    work[ck] = v if s is None else s + v
            for key, v in work.items():
                if v:
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
        bumped = XPoly(self.k, self.cap + self.k * (self.k - 1) // 2, dict(self.c))
        anti = bumped.vandermonde_multiply()
        out: Dict[Tuple[Tuple[int, ...], int, int], Laurent] = {}
        delta = tuple(self.k - 1 - i for i in range(self.k))
        for key, v in anti.c.items():
            xs = key[: self.k]
            if any(xs[i] <= xs[i + 1] for i in range(self.k - 1)):
                continue
            lam = tuple(xs[i] - delta[i] for i in range(self.k))
            if any(lam[i] < lam[i + 1] for i in range(self.k - 1)) or lam[-1] < 0:
                raise InternalError("bad Schur exponent bookkeeping")
            lam = tuple(p for p in lam if p)
            out[(lam, key[self.k], key[self.k + 1])] = v
        return out


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
    c: Dict[Tuple[int, ...], Laurent] = {}
    for j in range(cap + 1):
        key = [0] * (k + 2)
        key[var] = j
        if sym_var == "P":
            key[k] = j
            al = Laurent.mono(0, Frac(sign ** j, factorial(j)))
        else:
            key[k + 1] = j
            al = Laurent.mono(-j, Frac(sign ** j, factorial(j)))
        c[tuple(key)] = al
    return XPoly(k, cap, c)
