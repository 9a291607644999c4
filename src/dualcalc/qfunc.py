"""Exact rational functions in u = q^(1/2) over the rationals.

A ``QFunction`` stores num(u)/den(u) with num a ``ULaurent`` (the ``laurent``
kernel: integer numerators over one positive denominator) and den a product
of cyclotomic polynomials Phi_e(u), kept factored as {e: m_e}.  Every
denominator the package builds has that form: the quantum integers
[m] = u^m - u^(-m) = u^(-m) prod_{e | 2m} Phi_e and the
principal-specialization factors 1 - u^(2i).  So no polynomial gcd is ever
taken: a product adds exponents, a sum takes the largest exponent of each
factor, and reduction is a trial exact division of the numerator by each
Phi_e present (Phi_e is irreducible over Q), run on the integer numerators.
``sum_of_products`` is the one sum: c u^k times a product of values, summed
over terms and reduced once; ``+`` and ``*`` are calls to it.  A value holds
no power of i: where a W value or 2 sin(d lambda/2) = -i [d] carries one,
the caller that reads it out supplies it (``chern_simons``, ``hodge``,
``cli``).
``to_lambda`` expands num/den at u = e^{lambda'/2} with lambda' =
sqrt(-1) lambda (so q = e^{sqrt(-1) lambda}) on integers: num and den
become integer series in y = lambda'/2 over one shared factorial, their
quotient is taken fraction-free against a cached denominator side (both
series are power sums, ``dense.power_sums``), and the powers of 2 join only
as each lambda'^e coefficient is stored.  Every coefficient is rational.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import factorial

from .dense import power_sums
from .errors import InternalError
from .laurent import Laurent
from .series import TL_ONE, LambdaSeries

Factors = tuple[tuple[int, int], ...]


class ULaurent(Laurent):
    """Laurent polynomial in u over the rationals."""

    __slots__ = ()
    var = "u"


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> ULaurent:
    """Phi_e(u): u^e - 1 over Phi_d for each d | e, d < e."""
    p = ULaurent({e: 1, 0: -1})
    for d in range(1, e):
        if e % d == 0:
            p = p.divexact(_cyclotomic(d))
    return p


def _strip(f: ULaurent, e: int, m: int) -> tuple[ULaurent, int]:
    """Divide Phi_e out of f up to m times; return the quotient and what is left of m.

    Each division is tried first on f folded modulo u^e - 1, a multiple of Phi_e.
    """
    phi = _cyclotomic(e)
    while m and f:
        r: dict[int, int] = {}
        for k, v in f.num.items():
            r[k % e] = r.get(k % e, 0) + v
        try:
            f._new({k: v for k, v in r.items() if v}, 1).divexact(phi)
        except InternalError:
            break
        f = f.divexact(phi)
        m -= 1
    return f, m


@lru_cache(maxsize=None)
def _expand(fac: Factors) -> ULaurent:
    """prod Phi_e^{m_e} as a polynomial (monic, valuation 0)."""
    out = ULaurent.const(1)
    for e, m in fac:
        for _ in range(m):
            out = out * _cyclotomic(e)
    return out


def _y_series(num: dict[int, int], n: int, length: int) -> list[int]:
    """sum_m num[m] e^{m y} through y^(n-1), times (length-1)! for n <= length:
    the y^j coefficient is (length-1)!/j! sum_m num[m] m^j, an integer."""
    return [s * (factorial(length - 1) // factorial(j))
            for j, s in enumerate(power_sums(num.items(), n))]


@lru_cache(maxsize=None)
def _den_series(fac: Factors, n: int, length: int) -> tuple[list[int], list[int], list[int]]:
    """For an n-term quotient in ``to_lambda``: b = ``_y_series`` of prod Phi_e^{m_e}
    through y^(v+n-1), d0^m (m <= n) for d0 = b_v and t = b_(v+j) d0^(j-1) (0 < j < n)."""
    v = dict(fac).get(1, 0)
    b = _y_series(_expand(fac).num, v + n, length)
    pw = [b[v] ** m for m in range(n + 1)]
    return b, pw, [b[v + j] * pw[j - 1] for j in range(1, n)]


class QFunction:
    """num(u) / den(u), reduced and canonically normalized.

    Canonical form: the denominator is the factored product ``fac`` =
    ((e, m_e), ...) of cyclotomic polynomials Phi_e(u)^{m_e}, sorted by e, so
    den has valuation 0 and leading coefficient 1; no Phi_e in ``fac``
    divides num, so gcd(num, den) = 1.  Zero is (0, ()).  Values are built
    from factors, never from a denominator polynomial; ``den`` expands
    ``fac`` back to its monic polynomial.
    """

    __slots__ = ("num", "fac")

    @staticmethod
    def _of(num: ULaurent, fac: Factors, trial=()) -> "QFunction":
        """num / prod Phi_e^{m_e}, each Phi_e with e in ``trial`` divided out
        of num as often as it divides it and fac allows."""
        kept = []
        for e, m in fac if num else ():
            if e in trial:
                num, m = _strip(num, e, m)
            if m:
                kept.append((e, m))
        out = object.__new__(QFunction)
        out.num, out.fac = num, tuple(kept)
        return out

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(v) -> "QFunction":
        return QFunction._of(ULaurent.const(v), ())

    @staticmethod
    def from_factors(num: ULaurent, fac: Factors) -> "QFunction":
        """num / prod Phi_e^{m_e} over ``fac``, sorted by e, reduced."""
        return QFunction._of(num, fac, dict(fac))

    @property
    def den(self) -> ULaurent:
        return _expand(self.fac)

    # -- predicates -----------------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def __eq__(self, o):
        if not isinstance(o, QFunction):
            return NotImplemented
        return self.fac == o.fac and self.num == o.num

    def __hash__(self):
        return hash((self.num, self.fac))

    # -- arithmetic -------------------------------------------------------------
    def __mul__(self, o: "QFunction") -> "QFunction":
        return sum_of_products([(1, (self, o), 0)])

    def __add__(self, o: "QFunction") -> "QFunction":
        return sum_of_products([(1, (self,), 0), (1, (o,), 0)])

    def scale(self, v) -> "QFunction":
        return QFunction._of(self.num.scale(v), self.fac)

    # -- expansion ---------------------------------------------------------------
    def to_lambda(self, trunc: int) -> LambdaSeries:
        """num/den as a series in lambda' = i lambda, truncated at order
        ``trunc``.

        num and den become integer series a, b in y = lambda'/2; den vanishes
        at y = 0 only through Phi_1 = u - 1, to order v.  With d0 = b_v,
        Q'_m = d0^m a_(lo+m) - sum_{0<j<=m} b_(v+j) d0^(j-1) Q'_(m-j) is d0^(m+1)
        times the y^(lo-v+m) coefficient of the quotient, found fraction-free;
        it is stored as lambda'^e over d0^(m+1) num.den 2^e.
        """
        if not self.num:
            return LambdaSeries(0, [])
        v = dict(self.fac).get(1, 0)
        length = trunc + 2 * v
        a = _y_series(self.num.num, trunc + v, length)
        lo = next((j for j, c in enumerate(a) if c), None)
        if lo is None:
            # the value's valuation lies at or beyond the window
            return LambdaSeries.from_map({}, trunc)
        n = trunc + v - lo
        b, pw, t = _den_series(self.fac, n, length)
        if any(b[:v]) or not b[v]:
            raise InternalError("denominator x-valuation differs from its Phi_1 exponent")
        quo, out = [], {}
        for m in range(n):
            c = pw[m] * a[lo + m] - sum(t[j] * quo[m - 1 - j] for j in range(m))
            quo.append(c)
            if c:
                # d0 > 0, a factorial times Phi_e(1) > 0 (e > 1); 2^(-e) is an integer
                e = lo - v + m
                out[e] = TL_ONE._new({0: c << -e if e < 0 else c},
                                     pw[m + 1] * self.num.den << max(e, 0))
        return LambdaSeries.from_map(out, trunc)

    def __repr__(self):
        return f"({self.num}) / ({self.den})"


def bracket_quotient(tops: Iterable[int], bottoms: Iterable[int]) -> QFunction:
    """prod [m] / prod [n] over m in ``tops``, n in ``bottoms``.

    Each bracket is [m] = u^m - u^(-m) = u^(-m) prod_{e | 2m} Phi_e for m > 0,
    so the Phi_e multisets cancel and the value comes out canonical by unique
    factorization, with no trial division.
    """
    mult: Counter = Counter()
    shift = 0
    for sign, args in ((1, tops), (-1, bottoms)):
        for m in args:
            shift -= sign * m
            mult.update({e: sign for e in range(1, 2 * m + 1) if 2 * m % e == 0})
    num = _expand(tuple(sorted((e, a) for e, a in mult.items() if a > 0))).shift(shift)
    return QFunction._of(num, tuple(sorted((e, -a) for e, a in mult.items() if a < 0)))


def sum_of_products(terms: Iterable[tuple[object, Sequence[QFunction], int]]) -> QFunction:
    """sum of c u^shift prod(factors) over ``terms`` = ((c, factors, shift), ...),
    c rational: the one sum of ``QFunction`` values, behind ``+`` and ``*``.

    The unreduced products are summed per denominator; the nonzero sums go
    over the largest exponent of each Phi_e, and their integer numerators are
    added and reduced once.
    """
    groups: dict[Factors, ULaurent] = {}
    for c, factors, shift in terms:
        num, fac = ULaurent({shift: c}), Counter()
        for f in factors:
            num = num * f.num
            fac.update(dict(f.fac))
        key = tuple(sorted(fac.items()))
        groups[key] = groups[key] + num if key in groups else num
    live = {fac: num for fac, num in groups.items() if num}
    top: Counter = Counter()
    for fac in live:
        top |= Counter(dict(fac))
    total = sum((num * _expand(tuple(sorted((top - Counter(dict(fac))).items())))
                 for fac, num in live.items()), ULaurent())
    return QFunction.from_factors(total, tuple(sorted(top.items())))
