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
``to_lambda`` (``expand_lambda``, num unreduced) expands num/den at u = e^{lambda'/2},
lambda' = sqrt(-1) lambda, on integers: den is prod (u^d - 1)^{w_d} by Moebius
inversion, 1/den is lambda'^(-sum w_d) prod (d/2)^(-w_d) e^L, L linear in the power
sums sum w_d d^j with Bernoulli weights, cached per denominator, shift and window.
A one-term num folds into L; any other joins by its power sums in one convolution.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import mul

from .dense import power_sums
from .errors import InternalError
from .laurent import Laurent
from .scalars import bernoulli
from .series import TL_ONE, TL_ZERO, LambdaSeries

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


@lru_cache(maxsize=None)
def _mobius(fac: Factors) -> Factors:
    """((d, w_d), ...) with prod Phi_e^{m_e} = prod_d (u^d - 1)^{w_d}, by Moebius
    inversion from the top: Phi_e^m is (u^e - 1)^m over Phi_d^m for d | e, d < e."""
    m, w = dict(fac), {}
    for e in range(max(m, default=0), 0, -1):
        if m.get(e):
            w[e] = m[e]
            for d in range(1, e):
                if e % d == 0:
                    m[d] = m.get(d, 0) - w[e]
    return tuple(sorted(w.items()))


@lru_cache(maxsize=None)
def _bernoulli_row(n: int) -> tuple[int, list[int]]:
    """D and D 4^k B_2k / 2k for 2 <= 2k < n, D the lcm of their denominators."""
    row = [4 ** k * bernoulli(2 * k) / (2 * k) for k in range(1, (n + 1) // 2)]
    big = lcm(*(v.denominator for v in row))
    return big, [v.numerator * (big // v.denominator) for v in row]


@lru_cache(maxsize=None)
def _reciprocal(w: Factors, s: int, n: int) -> tuple[list[int], int]:
    """x^v u^s / prod_d (u^d - 1)^{w_d} at u = e^{x/2}, v = sum w_d, through
    x^(n-1): integer numerators over one denominator.  With z = x/4,
    u^d - 1 = 2dz e^{dz} sinh(dz)/dz and log(sinh(t/2)/(t/2)) = sum_k B_2k
    t^2k / (2k (2k)!), so the value is prod (d/2)^{-w_d} e^L with
    L = sum_i l_i z^i / i!, l_1 = 2s - P_1, l_2k = -4^k B_2k P_2k / 2k and
    P_j = sum w_d d^j.  k E_k = sum_i i L_i E_(k-i) for E = e^L runs on the
    integers e_m = D^m m! E_m: e_m = sum_i C(m-1, i-1) l_i D^i e_(m-i)."""
    p, (big, row) = power_sums(w, n), _bernoulli_row(n)
    terms = [(i, a) for i, a in [(1, (2 * s - p[1]) * big if n > 1 else 0)]
             + [(2 * k, -b * p[2 * k] * big ** (2 * k - 1)) for k, b in enumerate(row, 1)] if a]
    e = [1]
    for m in range(1, n):
        e.append(sum(comb(m - 1, i - 1) * a * e[m - i] for i, a in terms if i <= m and e[m - i]))
    # x^m has e_m / (m! (4D)^m), over (n-1)! (4D)^(n-1); prod (d/2)^(-w_d) = cn / cd
    cn, q = prod(2 ** x if x > 0 else d ** -x for d, x in w), 4 * big
    cd = prod(d ** x if x > 0 else 2 ** -x for d, x in w)
    nums = [v and v * cn * (factorial(n - 1) // factorial(m)) * q ** (n - 1 - m)
            for m, v in enumerate(e)]
    den = factorial(n - 1) * q ** (n - 1) * cd
    g = gcd(den, *nums)
    return [v // g for v in nums], den // g


def expand_lambda(num: ULaurent, fac: Factors, trunc: int) -> LambdaSeries:
    """num / prod Phi_e^{m_e} as a series in x = lambda' truncated at order
    ``trunc``, num not necessarily reduced: num(e^{x/2}) x^(-v) times the
    cached ``_reciprocal``, into which a one-term num c u^s folds; any other
    num enters by its power sums, in one integer convolution."""
    w = _mobius(fac)
    if (v := sum(x for _d, x in w)) != dict(fac).get(1, 0):
        raise InternalError("denominator x-valuation differs from its Phi_1 exponent")
    n = trunc + v
    if len(num.num) == 1:
        (s, c), = num.num.items()
        a, den = [c][:max(n, 0)], num.den
    else:
        # the x^j coefficient of num(e^{x/2}) is s_j / (2^j j!)
        s, top = 0, factorial(max(n - 1, 0)) << max(n - 1, 0)
        a = [c * (top // (factorial(j) << j))
             for j, c in enumerate(power_sums(num.num.items(), n))]
        den = top * num.den
    lo = next((j for j, c in enumerate(a) if c), None)
    if lo is None:  # the value's valuation lies at or beyond the window
        return LambdaSeries.from_map({}, trunc)
    e, eden = _reciprocal(w, s, n)
    co = [sum(map(mul, a[lo:], e[k::-1])) for k in range(n - lo)]
    # the leading coefficient a_lo e_0 is nonzero, so the window is [lo - v, trunc)
    return LambdaSeries(lo - v, [TL_ONE._new({0: c}, den * eden) if c else TL_ZERO for c in co])


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
        """num/den as a series in lambda' = i lambda, truncated at order ``trunc``."""
        return expand_lambda(self.num, self.fac, trunc) if self.num else LambdaSeries(0, [])

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
