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

tau = exp F is graded: F, hence tau, is zero off the shell
sum_k (k-1) m_k = 0 (mod 3), so tau_coefficient does no work there.  The
Virasoro residuals weigh each tau-coefficient by 16 times its operator
coefficient (all integers) and divide by 16 once per nonzero sum.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .errors import UsageError, as_index
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

def _canon(mono: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zero exponents."""
    m = list(mono)
    while m and not m[-1]:
        m.pop()
    return tuple(m)


_F0 = Frac(0)


@lru_cache(maxsize=None)
def _free_energy_coeff(mono: tuple[int, ...]) -> Frac:
    """Coefficient of prod t_k^{mono_k} in sum_g <exp sum t_k s_k>_g.

    The genus is fixed by the dimension constraint; the coefficient carries
    1/prod m_k! from the exponential insertions.  Keys are canonical
    (``_canon``).
    """
    n = sum(mono)
    s = sum(k * m for k, m in enumerate(mono))
    if n == 0 or (s - n) % 3:
        return _F0
    ks = [k for k, m in enumerate(mono) for _ in range(m)]
    sym = 1
    for m in mono:
        sym *= factorial(m)
    return dvv_normalized((s - n) // 3 + 1, ks) / sym


@lru_cache(maxsize=None)
def tau_coefficient(mono: tuple[int, ...]) -> Frac:
    """Coefficient of prod t_k^{mono_k} in tau = exp(free energy).

    Computed by the graded exponential formula: the Euler operator
    sum_k t_k d/dt_k turns tau = exp(F) into |m| T_m = sum_{0 < j <= m}
    |j| F_j T_{m-j}, where j runs over the exponent vectors below m and
    |.| is the total t-degree.  Keys are canonical (``_canon``).
    """
    deg = sum(mono)
    if not deg:
        return Frac(1)
    if sum((k - 1) * m for k, m in enumerate(mono)) % 3:
        return _F0
    total = _F0
    for j in product(*(range(m + 1) for m in mono)):
        f = _free_energy_coeff(_canon(j))
        if f:
            rest = _canon(tuple(a - b for a, b in zip(mono, j)))
            total += sum(j) * f * tau_coefficient(rest)
    return total / deg


def _monomials(order: int, kmax: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors in t_0..t_kmax of total degree <= order."""
    for mono in compositions(order, kmax + 2):
        yield _canon(mono[:-1])


def _bump(mono: tuple[int, ...], var: int, by: int) -> tuple[int, ...]:
    m = list(mono) + [0] * (var + 1 - len(mono))
    m[var] += by
    return _canon(tuple(m))


def _l_terms(n: int, mono: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(16 * weight, monomial) of each tau-coefficient in the coefficient of
    prod t_k^{mono_k} in L_n tau."""
    # -(1/2) d/dt_{n+1}
    up = _bump(mono, n + 1, 1)
    yield -8 * up[n + 1], up
    # sum_k (k+1/2) t_k d/dt_{k+n}
    for k in range(len(mono)):
        if mono[k] and k + n >= 0:
            src = _bump(_bump(mono, k, -1), k + n, 1)
            yield 8 * (2 * k + 1) * src[k + n], src
    # (1/4) sum_{i=1..n} d^2/dt_{i-1} dt_{n-i}
    for i in range(1, max(n, 0) + 1):
        a, b = i - 1, n - i
        src = _bump(_bump(mono, a, 1), b, 1)
        yield 4 * src[a] * (src[b] - (a == b)), src
    # (1/4) t_0^2 at n = -1, 1/16 at n = 0
    if n == -1 and len(mono) > 0 and mono[0] >= 2:
        yield 4, _bump(mono, 0, -2)
    if n == 0:
        yield 1, mono


VIRASORO_KMAX = 4


def virasoro_residual(n: int, order: int) -> tuple[Frac, int]:
    """(max |coefficient|, coefficients checked) of (L_n tau) through total
    t-degree ``order`` in the variables t_0..t_{VIRASORO_KMAX}; exact zero
    expected.

    L_n = -(1/2) d/dt_{n+1} + sum_k (k + 1/2) t_k d/dt_{k+n}
          + (1/4) sum_{i=1..n} d^2/dt_{i-1} dt_{n-i}
          + (1/4) t_0^2 [n = -1] + (1/16) [n = 0]

    The printed general-n derivative index is read as n+1, the unique choice
    consistent with the displayed L_{-1} and L_0.  The residual coefficient
    of each checked monomial is assembled directly from tau-coefficients.
    """
    if n < -1:
        raise UsageError("Virasoro index must be >= -1")
    if order < 0:
        raise UsageError("Virasoro order must be >= 0")
    worst = _F0
    checked = 0
    for mono in _monomials(order, VIRASORO_KMAX):
        checked += 1
        acc = 0
        for w, src in _l_terms(n, mono):
            t = tau_coefficient(src)
            if t:
                acc += w * t
        if acc:
            worst = max(worst, abs(acc) / 16)
    return worst, checked
