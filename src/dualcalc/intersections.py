"""psi-class intersection numbers: DVV recursion and Virasoro residuals.

Normalized insertions carry (2k+1)!! so that the recursion on the largest
index has integer weights:

    <s_n prod_{k in S} s_k>_g =
        sum_{k in S} (2k+1) <s_{n+k-1} ...>_g
      + (1/2) sum_{a+b=n-2} <s_a s_b ...>_{g-1}
      + (1/2) sum_{a+b=n-2} sum_{S=X|Y, g1+g2=g} <s_a X>_{g1} <s_b Y>_{g2}

Seeds: <s_0^3>_0 = 1 and <s_1>_1 = 1/8 (i.e. <tau_1>_1 = 1/24, the value the
recursion cannot reach; it is fixed by the n = 0 Virasoro constraint and
frozen here).  Unstable factors vanish.

The recursion runs on integers.  With n insertions, N_g = 2^(4g-3+2n) <...>_g
is an integer, and the recursion becomes

    N = 4 sum_{k in S} (2k+1) N' + 2 sum_{a+b=n-2} N'' + sum cnt N_1 N_2

with seeds N_0(0,0,0) = 8 and N_1(1) = 1.  In the separating term the
dimension constraint fixes g1 for each split.  Only keys with every index
>= 2 take this step: Witten's string and dilaton equations remove an s_0 or
an s_1 first,

    N(ks, 0) = 4 sum_{k_i >= 1} (2k_i+1) N(..., k_i - 1, ...)
    N(ks, 1) = 12 (2g-3+n) N(ks)          (n counts the s_1)

Correlators divide out the power of two (and, when plain, the double
factorials) once.

tau = exp F is held on packed monomials: t_0^{m_0} t_1^{m_1} ... is the
integer sum_k m_k 16^k, one 4-bit digit per variable.  A residual through
order k reads monomials of degree at most k + 2 (9 at the CLI's largest
order 7; virasoro_residual admits k <= 13), so no digit overflows: a bump is
+-16^v, an exponent is a shift and a mask, and j <= m digitwise makes m - j
the key of the quotient monomial.  tau is kept as the integer

    W_m = tau_m m! 2^(E(m)+|m|),    E(m) = (4 sum_k k m_k + 2|m|)/3,

with m! = prod m_k! and |m| the total degree.  W is zero off the shell
sum_k (k-1) m_k = 0 (mod 3), and on it E(m) is an integer.  The free-energy
coefficient is F_j = N(j) / (j! 2^(E(j)+1)), so the Euler operator turns
tau = exp F into

    |m| W_m = sum_{0<j<=m} |j| prod_k C(m_k, j_k) N(j) 2^(|j|-1) W_{m-j}.

The division by |m| is exact: by the exponential formula, W_m is the sum
over the set partitions of the |m| labelled insertions of prod_B N(B)
2^(|m| - #blocks), an integer (a remainder is an InternalError).  Each
Virasoro residual coefficient, on the scale of the monomial that
-(1/2) d/dt_{n+1} reads, is one integer sum of W values, so its zero test is
exact and a Fraction is formed only for a nonzero residual.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .errors import InternalError, UsageError, as_index
from .partitions import compositions

Frac = Fraction
Key = tuple[int, ...]


def double_factorial_odd(k: int) -> int:
    """(2k+1)!!"""
    out = 1
    for j in range(1, 2 * k + 2, 2):
        out *= j
    return out


def _desc(ks: Key) -> Key:
    return tuple(sorted(ks, reverse=True))


@lru_cache(maxsize=None)
def _splits(ms: Key) -> tuple[tuple[Key, Key, int, int], ...]:
    """(X, Y, count, sum(X) - len(X)) over the labelled splits of the
    descending multiset ms; X and Y stay descending."""
    out = [((), (), 1)]
    for v in sorted(set(ms), reverse=True):
        m = ms.count(v)
        out = [(x + (v,) * take, y + (v,) * (m - take), c * comb(m, take))
               for x, y, c in out for take in range(m + 1)]
    return tuple((x, y, c, sum(x) - len(x)) for x, y, c in out)


@lru_cache(maxsize=None)
def _norm(g: int, ks: Key) -> int:
    """N_g(ks) = 2^(4g-3+2n) <prod s_k>_g on a descending key of n indices."""
    n = len(ks)
    if n == 0 or g < 0 or 2 * g - 2 + n <= 0 or sum(ks) != 3 * g - 3 + n:
        return 0
    if g == 0 and ks == (0, 0, 0):
        return 8
    if g == 1 and ks == (1,):
        return 1
    if ks[-1] == 0:
        # string equation: remove the s_0, lower one other index
        rest = ks[:-1]
        return 4 * sum((2 * k + 1) * _norm(g, _desc(rest[:i] + (k - 1,) + rest[i + 1:]))
                       for i, k in enumerate(rest) if k)
    if ks[-1] == 1:
        # dilaton equation: remove the s_1
        return 12 * (2 * g - 3 + n) * _norm(g, ks[:-1])
    top, rest = ks[0], ks[1:]
    # term 1: absorb one of the remaining insertions
    absorbed = sum((2 * k + 1) * _norm(g, _desc(rest[:i] + rest[i + 1:] + (top + k - 1,)))
                   for i, k in enumerate(rest))
    nonsep = sep = 0
    for a in range(top - 1):
        b = top - 2 - a
        # term 2: nonseparating degeneration
        if g:
            nonsep += _norm(g - 1, _desc(rest + (a, b)))
        # term 3: separating degenerations, <s_a X>_{g1} fixes g1
        for x, y, cnt, excess in _splits(rest):
            g1, off = divmod(excess + a + 2, 3)
            if not off and 0 <= g1 <= g:
                sep += cnt * _norm(g1, _desc(x + (a,))) * _norm(g - g1, _desc(y + (b,)))
    return 4 * absorbed + 2 * nonsep + sep


def _scaled(g: int, ks: Sequence[int], den: int) -> Frac:
    """N_g(ks) / (2^(4g-3+2n) den)."""
    v = _norm(g, _desc(ks))
    return Frac(v, den << (4 * g - 3 + 2 * len(ks))) if v else Frac(0)


def dvv(g: int, ks: Sequence[int]) -> Frac:
    """<tau_{k_1} ... tau_{k_n}>_g; zero off the dimension shell."""
    g, ks = _indices(g, ks)
    if any(k < 0 for k in ks):
        raise UsageError("indices must be nonnegative")
    if not ks:
        raise UsageError("need at least one insertion")
    if g < 0:
        raise UsageError("genus must be nonnegative")
    if sum(ks) != 3 * g - 3 + len(ks):
        return Frac(0)  # off the dimension shell, before any double factorial
    den = 1
    for k in ks:
        den *= double_factorial_odd(k)
    return _scaled(g, ks, den)


def dvv_normalized(g: int, ks: Sequence[int]) -> Frac:
    """<prod s_{k}>_g with s_k = (2k+1)!! psi^k."""
    return _scaled(*_indices(g, ks), 1)


def _indices(g, ks) -> tuple[int, tuple[int, ...]]:
    """The genus and the indices as ints; anything not integral by type is a
    UsageError."""
    return as_index(g, "genus"), tuple(as_index(k, "index") for k in ks)


# ---------------------------------------------------------------------------
# Virasoro constraints on the partition function
# ---------------------------------------------------------------------------

_F0 = Frac(0)


def _digits(m: int) -> list[int]:
    """The exponents m_0, m_1, ... of a packed monomial."""
    out = []
    while m:
        out.append(m & 15)
        m >>= 4
    return out


def _scale(mono: Sequence[int]) -> int:
    """m! 2^(E(m)+|m|), the ratio W_m / tau_m, on a monomial of the shell."""
    return prod(map(factorial, mono)) << (4 * sum(k * e for k, e in enumerate(mono))
                                          + 5 * sum(mono)) // 3


@lru_cache(maxsize=None)
def _f(j: int) -> int:
    """|j| N(j) 2^(|j|-1), the weight of F_j in the recursion for W, on a packed key."""
    ks = [k for k, e in enumerate(_digits(j)) for _ in range(e)]
    n, excess = len(ks), sum(ks) - len(ks)
    if excess % 3:
        return 0
    return n * _norm(excess // 3 + 1, tuple(reversed(ks))) << n >> 1


@lru_cache(maxsize=None)
def _w(m: int) -> int:
    """W_m = tau_m m! 2^(E(m)+|m|) on a packed key m; zero off the shell."""
    ds = _digits(m)
    if sum((k - 1) * e for k, e in enumerate(ds)) % 3:
        return 0
    deg = sum(ds)
    if not deg:
        return 1
    js, cs = [0], [1]
    for k, e in enumerate(ds):
        if e:
            js = [j + (t << 4 * k) for j in js for t in range(e + 1)]
            cs = [c * comb(e, t) for c in cs for t in range(e + 1)]
    total = 0
    for j, c in zip(js, cs):
        f = _f(j)
        if f:
            total += c * f * _w(m - j)
    w, r = divmod(total, deg)
    if r:
        raise InternalError(f"|m| does not divide the exponential sum at exponents {ds}")
    return w


def tau_coefficient(mono: Sequence[int]) -> Frac:
    """Coefficient of prod t_k^{mono_k} in tau = exp(free energy): W over its scale."""
    if any(not 0 <= e < 16 for e in mono):
        raise UsageError("tau exponents must lie in 0..15")
    w = _w(sum(e << 4 * k for k, e in enumerate(mono)))
    return Frac(w, _scale(mono)) if w else _F0


VIRASORO_KMAX = 4


def virasoro_residual(n: int, order: int) -> tuple[Frac, int]:
    """(max |coefficient|, coefficients checked) of (L_n tau) through total
    t-degree ``order`` in the variables t_0..t_{VIRASORO_KMAX}; exact zero
    expected.

    L_n = -(1/2) d/dt_{n+1} + sum_k (k + 1/2) t_k d/dt_{k+n}
          + (1/4) sum_{i=1..n} d^2/dt_{i-1} dt_{n-i}
          + (1/4) t_0^2 [n = -1] + (1/16) [n = 0]

    The printed general-n derivative index is read as n+1, the unique choice
    consistent with the displayed L_{-1} and L_0.  The coefficient of t^m,
    times 16 m! 2^(E(u)+|u|) with u = m t_{n+1}, is one integer sum of W
    values; each source of L_n lies 0, 3, 1, 5 or 3 powers of two below u on
    that scale, in the order of the terms above.
    """
    if n < -1:
        raise UsageError("Virasoro index must be >= -1")
    if not 0 <= order <= 13:
        raise UsageError("Virasoro order must lie in 0..13")
    worst = _F0
    checked = 0
    for mono in compositions(order, VIRASORO_KMAX + 2):
        checked += 1
        mono = mono[:-1]
        m = sum(e << 4 * k for k, e in enumerate(mono))
        up = m + (1 << 4 * n + 4)
        acc = -8 * _w(up)
        for k, e in enumerate(mono):
            if e and k + n >= 0:
                acc += 8 * (2 * k + 1) * e * _w(m - (1 << 4 * k) + (1 << 4 * (k + n))) << 3
        for i in range(1, n + 1):
            acc += 4 * _w(m + (1 << 4 * i - 4) + (1 << 4 * (n - i))) << 1
        if n == -1 and mono[0] >= 2:
            acc += 4 * mono[0] * (mono[0] - 1) * _w(m - 2) << 5
        if n == 0:
            acc += _w(m) << 3
        if acc:  # over 16 m! 2^(E(u)+|u|) = 16 _scale(u) / u_{n+1}
            worst = max(worst, Frac(abs(acc) * (up >> 4 * n + 4 & 15), 16 * _scale(_digits(up))))
    return worst, checked
