"""Truncated Laurent series in the string coupling with tau-Laurent coefficients.

Two layers:

* ``TauLaurent`` -- finite Laurent polynomials in the framing parameter tau:
  a ``laurent.Laurent`` (integer numerators over one positive denominator)
  with a phase i^ph.  The kernel does the integer arithmetic; this class
  adds only what involves the phase.  A value is built from rationals, and
  a phase enters only as an integer power of i (``phased``, ``scale``,
  ``LambdaSeries.subst_scale``); ``GaussianRational`` is only the type of
  the read-only view ``c``.
* ``LambdaSeries`` -- truncated Laurent series in lambda whose coefficients
  are ``TauLaurent`` values.  Every series carries an explicit window
  ``[floor, trunc)``; arithmetic narrows windows so that no operation ever
  claims coefficients it has not actually computed.  A series with an empty
  coefficient list is an *exact* zero (valid to every order);
  ``from_map({}, trunc)`` is zero only through its window.  There is no
  series division: a rational function of q reaches this type through
  ``QFunction.to_lambda``.
  ``combine`` is the one sum of series: it forms a sum of products with one
  reduction per coefficient, and ``+``, ``-`` and ``*`` are calls to it.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from math import factorial, lcm

from .errors import InternalError, UsageError
from .laurent import Laurent, convolve
from .scalars import GaussianRational


class TauLaurent(Laurent):
    """Finite Laurent polynomial in tau: i^ph * sum num[k] tau^k / den.

    A ``Laurent`` in tau with a phase ph in {0, 1}; zero has ph 0.  Every
    value the package forms is phase-pure, so one integer plane and a phase
    hold it; adding two nonzero values of different phase raises
    ``UsageError``.  The constructor takes rational coefficients (phase 0);
    ``phased`` and ``scale`` multiply by an integer power of i.  Shifts, the
    derivative, tau -> 1/tau and negation keep the phase and come from
    ``Laurent`` unchanged.  ``GaussianRational`` is only the type of the
    read-only view ``c``.
    """

    __slots__ = ("ph",)
    var = "tau"

    def __init__(self, coeffs: dict[int, object] | None = None):
        Laurent.__init__(self, coeffs)
        self.ph = 0

    def _new(self, num: dict[int, int], den: int,
             ph: int | None = None) -> "TauLaurent":
        """As ``Poly._new``, times i^ph for any integer ph (bit 1 of ph is the
        sign i^2 = -1, bit 0 the phase kept); the default keeps self's phase."""
        if ph is None:
            ph = self.ph
        elif ph & 2:
            num = {k: -v for k, v in num.items()}
        out = Laurent._new(self, num, den)
        out.ph = ph & 1 if num else 0
        return out

    @staticmethod
    def phased(ph: int, coeffs: dict[int, object]) -> "TauLaurent":
        """i^ph * sum coeffs[k] tau^k for rational coefficients."""
        t = TauLaurent(coeffs)
        return t._new(t.num, t.den, ph)

    @property
    def c(self) -> dict[int, GaussianRational]:
        """The coefficients as ``GaussianRational`` values (a fresh dict)."""
        den, ph = self.den, self.ph
        return {k: GaussianRational(0, Fraction(v, den)) if ph
                else GaussianRational(Fraction(v, den)) for k, v in self.num.items()}

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, o: "TauLaurent") -> "TauLaurent":
        if self.ph != o.ph and self.num and o.num:
            raise UsageError("adding tau-polynomials of different phase")
        return Laurent.__add__(self, o)

    def __mul__(self, o: "TauLaurent") -> "TauLaurent":
        return self._new(convolve(self.num, o.num), self.den * o.den, self.ph + o.ph)

    def scale(self, v, ph: int = 0) -> "TauLaurent":
        """Times i^ph v for an int or Fraction v."""
        p = v.numerator
        return self._new({k: w * p for k, w in self.num.items()} if p else {},
                         self.den * v.denominator, self.ph + ph)

    def divexact(self, o: "TauLaurent") -> "TauLaurent":
        """Exact division; raises InternalError on a remainder."""
        q = Laurent.divexact(self, o)
        return q._new(q.num, q.den, q.ph - o.ph)

    # -- evaluation -------------------------------------------------------------
    def eval(self, x) -> "TauLaurent":
        """The value at tau = x for an int or Fraction x = a/b, as a constant
        with self's phase, in integers: the sum of num[k] a^(k-lo) b^(hi-k)
        over den a^-lo b^hi, with lo <= 0 <= hi the exponent range (at 0 a
        negative power divides by zero)."""
        a, b = x.numerator, x.denominator
        lo, hi = min((0, *self.num)), max((0, *self.num))
        den = self.den * a ** -lo * b ** hi
        if not den:
            raise ZeroDivisionError("a negative power of tau at tau = 0")
        v = sum(w * a ** (k - lo) * b ** (hi - k) for k, w in self.num.items())
        if den < 0:
            v, den = -v, -den
        return self._new({0: v} if v else {}, den)

    # -- comparison ---------------------------------------------------------------
    def __eq__(self, o):
        return isinstance(o, TauLaurent) and self.ph == o.ph and Laurent.__eq__(self, o)


TL_ZERO = TauLaurent()
TL_ONE = TauLaurent({0: 1})


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

    def valuation(self) -> int | None:
        for i, c in enumerate(self.co):
            if c:
                return self.floor + i
        return None

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

    def scale(self, v, ph: int = 0) -> "LambdaSeries":
        """Times i^ph v for an int or Fraction v."""
        if not v:
            return LambdaSeries(0, [])
        return LambdaSeries(self.floor, [c.scale(v, ph) for c in self.co])

    def shift(self, d: int) -> "LambdaSeries":
        return LambdaSeries(self.floor + d, list(self.co))

    # -- tau plumbing ----------------------------------------------------------
    def map_coeffs(self, f: Callable[[int, TauLaurent], TauLaurent]) -> "LambdaSeries":
        return LambdaSeries(self.floor,
                            [f(self.floor + i, c) for i, c in enumerate(self.co)]).pruned()

    def tau_deriv(self) -> "LambdaSeries":
        return self.map_coeffs(lambda e, c: c.deriv())

    def tau_eval(self, x) -> "LambdaSeries":
        return self.map_coeffs(lambda e, c: c.eval(x))

    def tau_inverse(self) -> "LambdaSeries":
        return self.map_coeffs(lambda e, c: c.subs_inverse())

    def subst_scale(self, c, ph: int) -> "LambdaSeries":
        """lambda -> i^ph c lambda for a nonzero int or Fraction c, on integers
        (a sign of c is i^2)."""
        ph, pq = ph + 2 * (c < 0), (abs(c.numerator), c.denominator)
        return self.map_coeffs(lambda e, t: t._new(
            {k: w * pq[e < 0] ** abs(e) for k, w in t.num.items()}, t.den * pq[e >= 0] ** abs(e),
            t.ph + ph * e))

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
    in two phase planes (phase 1 times phase 1 lands on plane 0 negated), so
    each coefficient is reduced once.  Raises ``UsageError`` when both
    planes of a coefficient are nonzero after the whole sum, in whatever
    order the terms come.
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
    planes: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for d, p, ca, cb in parts:
        m = den // d * p
        if cb is None:
            plane = planes[ca.ph]
            for k, v in ca.num.items():
                plane[k] = plane.get(k, 0) + v * m
            continue
        ph = ca.ph + cb.ph
        if ph == 2:
            ph, m = 0, -m
        plane = planes[ph]
        y = cb.num.items()
        for k1, v1 in ca.num.items():
            v1 *= m
            for k2, v2 in y:
                k = k1 + k2
                plane[k] = plane.get(k, 0) + v1 * v2
    real, imag = ({k: v for k, v in plane.items() if v} for plane in planes)
    if real and imag:
        raise UsageError("adding tau-polynomials of different phase")
    return TL_ZERO._new(imag, den, 1) if imag else TL_ZERO._new(real, den, 0)


def exp_monomial(coeff, exp: int, trunc: int) -> LambdaSeries:
    """exp(coeff * lambda^exp) for exp >= 1, truncated at ``trunc``.

    ``coeff`` is a scalar or a ``TauLaurent``; the lambda^{k exp} coefficient
    coeff^k / k! is built by repeated ``TauLaurent`` products, so the framing
    exponentials of ``hodge`` come out with tau-polynomial coefficients.
    """
    if exp < 1:
        raise UsageError("exp_monomial requires exponent >= 1")
    c = coeff if isinstance(coeff, TauLaurent) else TauLaurent.const(coeff)
    m: dict[int, TauLaurent] = {}
    p = TL_ONE
    k = 0
    while k * exp < trunc:
        m[k * exp] = p.scale(Fraction(1, factorial(k)))
        p = p * c
        k += 1
    return LambdaSeries.from_map(m, trunc)
