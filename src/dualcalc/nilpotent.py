"""The truncated product and the term maps of the mirror module's nilpotent rings.

Both rings hold ``laurent.Poly`` values keyed by exponent tuples.  The
toric ring Q[G_1..G_r]/(G_i^{n_i}) keys by the generator exponents and then
the t exponents; a Grassmannian row keys by (x, P, t, alpha) exponents: one
Chern root x, the formal symbols P (the pi sqrt(-1)/alpha bookkeeping unit)
and t, and the equivariant weight alpha (any integer power), truncated at
an x-degree cap.  ``mul`` is the one truncated product, and sums and
rational scaling come from ``Poly``.  The row term maps d/dt,
t -> t + P alpha and alpha -> -alpha and the exponentials of ``exp_x_times``
act on the (x, P, t, alpha) keys.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial
from operator import add, le

from .laurent import Poly


def mul(a: Poly, b: Poly, caps: tuple[int, ...]) -> Poly:
    """a * b with every key cut at key[i] <= caps[i] on its leading entries."""
    # the right operand grouped by leading degree, lowest first, so each left
    # key stops at the room caps[0] - k1[0] left under the first cap
    by_deg: dict[int, list] = {}
    for k2, v2 in b.num.items():
        by_deg.setdefault(k2[0], []).append((k2, v2))
    buckets = sorted(by_deg.items())
    more = len(caps) > 1
    acc: dict[tuple[int, ...], int] = defaultdict(int)
    for k1, v1 in a.num.items():
        room = caps[0] - k1[0]
        for d2, terms in buckets:
            if d2 > room:
                break
            for k2, v2 in terms:
                key = tuple(map(add, k1, k2))
                if not more or all(map(le, key, caps)):
                    acc[key] += v1 * v2
    return a._new({key: v for key, v in acc.items() if v}, a.den * b.den)


def dt(p: Poly) -> Poly:
    """Derivative in t (exact: t-degrees are fully stored)."""
    return p._new({(x, pe, t - 1, a): v * t for (x, pe, t, a), v in p.num.items() if t}, p.den)


def subs_t_plus_p_alpha(p: Poly) -> Poly:
    """t -> t + P alpha (each dropped t-power becomes a P with an alpha)."""
    num: dict[tuple[int, ...], int] = defaultdict(int)
    for (x, pe, m, a), v in p.num.items():
        for r in range(m + 1):
            num[(x, pe + m - r, r, a + m - r)] += v * comb(m, r)
    return p._new({key: v for key, v in num.items() if v}, p.den)


def negate_alpha(p: Poly) -> Poly:
    """alpha -> -alpha."""
    return p._new({key: (-v if key[-1] % 2 else v) for key, v in p.num.items()}, p.den)


def exp_x_times(cap: int, sym_var: str) -> Poly:
    """The exponentials of the Grassmannian rows, through x^cap.

    sym_var 'P': e^{P x};  sym_var 't': e^{-t x / alpha}.
    """
    if sym_var == "P":
        return Poly({(j, j, 0, 0): Fraction(1, factorial(j)) for j in range(cap + 1)})
    return Poly({(j, 0, j, -j): Fraction((-1) ** j, factorial(j)) for j in range(cap + 1)})
