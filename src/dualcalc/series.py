"""Truncated Laurent series in the string coupling with tau-Laurent coefficients.

Two layers:

* ``TauLaurent`` -- finite Laurent polynomials in the framing parameter tau
  over the rationals: a ``laurent.Laurent`` (integer numerators over one
  positive denominator).  ``GaussianRational`` is only the type of the
  read-only view ``c``.
* ``LambdaSeries`` -- truncated Laurent series in lambda whose coefficients
  are ``TauLaurent`` values.  Every series carries an explicit window
  ``[floor, trunc)``; arithmetic narrows windows so that no operation ever
  claims coefficients it has not actually computed.  A series with an empty
  coefficient list is an *exact* zero (valid to every order);
  ``from_map({}, trunc)`` is zero only through its window.  There is no
  series division, and no rational function of q is held here:
  ``QFunction.to_lambda`` expands one into a plain ``laurent.Laurent``, whose
  integers the framed build reads (``hodge._block``).
  ``combine`` is the one sum of series: it forms a sum of products with one
  reduction per coefficient, and ``+``, ``-`` and ``*`` are calls to it.

``at`` evaluates a series at a rational tau into one plain ``laurent.Laurent``
in lambda', the form of every value without tau.

The framed series are stored in lambda' = i lambda (see ``hodge``), where
every coefficient is rational, so no value here carries a power of i.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .errors import InternalError, UsageError
from .laurent import Laurent
from .scalars import GaussianRational


class TauLaurent(Laurent):
    """Finite Laurent polynomial in tau: sum num[k] tau^k / den over the rationals.

    Arithmetic, shifts, the derivative, tau -> 1/tau and exact division come
    from ``Laurent`` unchanged; this class adds only the view ``c``.
    """

    __slots__ = ()
    var = "tau"

    @property
    def c(self) -> dict[int, GaussianRational]:
        """The coefficients as ``GaussianRational`` values (a fresh dict)."""
        den = self.den
        return {k: GaussianRational(Fraction(v, den)) for k, v in self.num.items()}


TL_ZERO = TauLaurent()


class LambdaSeries:
    """Laurent series in lambda with TauLaurent coefficients, truncated at ``trunc``.

    The window invariant: all coefficients with exponent in [floor, trunc)
    are exactly known; nothing is claimed outside.  ``co == []`` encodes the
    exact zero series.
    """

    __slots__ = ("floor", "co")

    def __init__(self, floor: int, co: list[TauLaurent]):
        self.floor = floor
        self.co = co

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero() -> "LambdaSeries":
        return LambdaSeries(0, [])

    @staticmethod
    def from_map(m: dict[int, object], trunc: int) -> "LambdaSeries":
        items = {k: (v if isinstance(v, TauLaurent) else TauLaurent.const(v))
                 for k, v in m.items()}
        items = {k: v for k, v in items.items() if v}
        if not items:
            return LambdaSeries(trunc - 1, [TL_ZERO])
        floor = min(items)
        if max(items) >= trunc:
            raise UsageError("coefficient at or beyond the truncation order")
        co = [items.get(e, TL_ZERO) for e in range(floor, trunc)]
        return LambdaSeries(floor, co)

    @staticmethod
    def one(trunc: int) -> "LambdaSeries":
        return LambdaSeries.from_map({0: 1}, trunc)

    # -- structure ---------------------------------------------------------------
    @property
    def trunc(self) -> int:
        return self.floor + len(self.co)

    def is_exact_zero(self) -> bool:
        return not self.co

    def pruned(self) -> "LambdaSeries":
        """Advance floor past leading zero coefficients, keeping the window."""
        i = 0
        while i < len(self.co) and not self.co[i]:
            i += 1
        if i == 0:
            return self
        if i == len(self.co):
            # all-zero through the window: keep a sentinel so trunc survives
            return LambdaSeries(self.trunc - 1, [TL_ZERO])
        return LambdaSeries(self.floor + i, self.co[i:])

    def coeff(self, e: int) -> TauLaurent:
        if not self.co:
            return TL_ZERO
        if e < self.floor:
            return TL_ZERO
        if e >= self.trunc:
            raise InternalError(f"coefficient lambda^{e} beyond truncation {self.trunc}")
        return self.co[e - self.floor]

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        return combine([(1, self, None), (1, other, None)])

    def __sub__(self, other):
        return combine([(1, self, None), (-1, other, None)])

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        return combine([(1, self, other)])

    def scale(self, v) -> "LambdaSeries":
        """Times an int or Fraction v."""
        if not v:
            return LambdaSeries(0, [])
        return LambdaSeries(self.floor, [c.scale(v) for c in self.co])

    def shift(self, d: int) -> "LambdaSeries":
        return LambdaSeries(self.floor + d, list(self.co))

    # -- tau plumbing ----------------------------------------------------------
    def tau_deriv(self) -> "LambdaSeries":
        return LambdaSeries(self.floor, [c.deriv() for c in self.co]).pruned()

    def tau_inverse(self) -> "LambdaSeries":
        return LambdaSeries(self.floor, [c.subs_inverse() for c in self.co]).pruned()

    # -- comparisons -------------------------------------------------------------
    def window_with(self, other: "LambdaSeries") -> tuple[int, int]:
        if not self.co:
            return (other.floor, other.trunc) if other.co else (0, 0)
        if not other.co:
            return (self.floor, self.trunc)
        return (min(self.floor, other.floor), min(self.trunc, other.trunc))

    def eq_through(self, other: "LambdaSeries", lo: int, hi: int) -> bool:
        if self.co and self.trunc < hi:
            raise UsageError(f"truncation {self.trunc} below requested order {hi}")
        if other.co and other.trunc < hi:
            raise UsageError(f"truncation {other.trunc} below requested order {hi}")
        return all(self.coeff(e) == other.coeff(e) for e in range(lo, hi))

    def is_zero_through(self) -> bool:
        return not any(self.co)

    def __eq__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        lo, hi = self.window_with(other)
        return self.eq_through(other, lo, hi)

    def __repr__(self):
        if not self.co:
            return "O(lambda^inf) [exact zero]"
        parts = [f"({c})*L^{self.floor + i}" for i, c in enumerate(self.co) if c]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(L^{self.trunc})"


def combine(terms: Iterable[tuple[object, LambdaSeries, LambdaSeries | None]]
            ) -> LambdaSeries:
    """Sum of c*a*b over (c, a, b): c rational, a a ``LambdaSeries``, b one or
    None for 1, with the windows of a term-by-term fold: a product is taken
    on pruned factors, exact zeros drop out, one remaining term comes back
    unpruned (a lone b-less term as it is, or scaled by c, with no
    reduction), and two or more are summed over the least floor and trunc
    and pruned.  The products and scaled coefficients that land on each
    lambda^e go over the lcm of their denominators and collect as integers
    in one accumulator, so each coefficient is reduced once.
    """
    kept = []
    for c, a, b in terms:
        if b is None:
            lo, hi = a.floor, a.trunc
        else:
            a, b = a.pruned(), b.pruned()
            lo, hi = a.floor + b.floor, min(a.floor + b.trunc, b.floor + a.trunc)
        if c and a.co and (b is None or b.co):
            kept.append((c, a, b, lo, hi))
    if not kept:
        return LambdaSeries(0, [])
    if len(kept) == 1 and kept[0][2] is None:
        c, a = kept[0][:2]
        return a if c == 1 else a.scale(c)
    floor = min(t[3] for t in kept)
    trunc = min(t[4] for t in kept)
    if trunc <= floor:
        raise InternalError("empty window in series addition")
    n = trunc - floor
    # per lambda-power: (denominator, numerator factor, a-coefficient, b-coefficient)
    slots: list[list] = [[] for _ in range(n)]
    for c, a, b, lo, _hi in kept:
        p, q = c.numerator, c.denominator
        off = lo - floor
        for i, ca in enumerate(a.co[:max(n - off, 0)]):
            if not ca.num:
                continue
            if b is None:
                slots[off + i].append((q * ca.den, p, ca, None))
                continue
            for j, cb in enumerate(b.co[:n - off - i], off + i):
                if cb.num:
                    slots[j].append((q * ca.den * cb.den, p, ca, cb))
    out = LambdaSeries(floor, [_collect(s) for s in slots])
    return out if len(kept) == 1 else out.pruned()


def _collect(parts: list) -> TauLaurent:
    """The sum of p ca cb / den (p ca / den when cb is None) over the
    (den, p, ca, cb) parts of one coefficient of ``combine``."""
    den = lcm(*(d for d, *_x in parts))
    acc: dict[int, int] = {}
    for d, p, ca, cb in parts:
        m = den // d * p
        if cb is None:
            for k, v in ca.num.items():
                acc[k] = acc.get(k, 0) + v * m
            continue
        y = cb.num.items()
        for k1, v1 in ca.num.items():
            v1 *= m
            for k2, v2 in y:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + v1 * v2
    return TL_ZERO._new({k: v for k, v in acc.items() if v}, den)


def at(s: LambdaSeries, x) -> Laurent:
    """The value of s at tau = x, an int or Fraction a/b, as one ``Laurent`` in
    lambda', known below s.trunc and with no term beyond.  On integers: with
    lo <= 0 <= hi the tau-exponent range of s, each coefficient is the sum of
    num[k] a^(k-lo) b^(hi-k) over den a^-lo b^hi (at x = 0 a negative power
    of tau divides by zero), and the coefficients go over their lcm."""
    a, b = x.numerator, x.denominator
    ks = {k for c in s.co for k in c.num} | {0}
    lo, hi = min(ks), max(ks)
    if not (scale := a ** -lo * b ** hi):
        raise ZeroDivisionError("a negative power of tau at tau = 0")
    pw = {k: a ** (k - lo) * b ** (hi - k) for k in ks}
    vals = [(e, sum(w * pw[k] for k, w in c.num.items()), c.den)
            for e, c in enumerate(s.co, s.floor) if c.num]
    den = lcm(*(d for _e, _v, d in vals))
    m = den if scale > 0 else -den
    return Laurent()._new({e: v * (m // d) for e, v, d in vals if v}, den * abs(scale))
