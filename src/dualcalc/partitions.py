"""Partition combinatorics and symmetric-group character data.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Characters are computed by the Murnaghan-Nakayama
ribbon recursion with a shared memo cache; cached values are pure functions
of their keys.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache, wraps
from math import factorial

from .errors import InternalError, UsageError, as_index

Partition = tuple[int, ...]


def check_partition(mu) -> Partition:
    mu = tuple(as_index(p, "a part") for p in mu)
    if any(p <= 0 for p in mu):
        raise UsageError(f"parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise UsageError(f"parts must be weakly decreasing: {mu}")
    return mu


def typed_cache(*kinds: str | None):
    """``lru_cache`` over a function whose positional arguments are, in order,
    a "partition" (a tuple), an "int" or anything else (None).  The cache
    keys 2.0 as 2 and (2.0,) as (2,), and cannot hash a list, so an argument
    whose type, or whose parts' type, is not the one expected is read by
    ``check_partition`` or ``as_index`` before the lookup: a float is refused
    whatever is cached.  Testing only the types keeps a hit cheap (``vertex``
    makes about 1,200 at degree 6); the function checks the rest of its
    arguments on a miss."""
    types = [(i, tuple if k == "partition" else int) for i, k in enumerate(kinds) if k]
    parts = [i for i, k in enumerate(kinds) if k == "partition"]

    def decorate(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def checked(*args):
            if (any(type(args[i]) is not t for i, t in types)
                    or any(type(p) is not int for i in parts for p in args[i])):
                args = [a if k is None else check_partition(a) if k == "partition"
                        else as_index(a, "an argument") for k, a in zip(kinds, args)]
            return cached(*args)

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked
    return decorate


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"parts must be integers: {text!r}") from exc
    return check_partition(parts)


def format_partition(mu: Partition) -> str:
    return ",".join(str(p) for p in mu)


def size(mu: Partition) -> int:
    return sum(mu)


def length(mu: Partition) -> int:
    return len(mu)


def aut(mu: Partition) -> int:
    """|Aut(mu)|: product of factorials of part multiplicities."""
    out = 1
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        out *= factorial(m)
    return out


def zmu(mu: Partition) -> int:
    """prod_j m_j! j^{m_j} = |Aut(mu)| * prod(parts)."""
    out = aut(mu)
    for p in mu:
        out *= p
    return out


def kappa(mu: Partition) -> int:
    """|mu| + sum_i (mu_i^2 - 2 i mu_i); always even."""
    k = sum(mu) + sum(p * p - 2 * (i + 1) * p for i, p in enumerate(mu))
    if k % 2:
        raise InternalError(f"odd kappa for {mu}")
    return k


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    out = []
    for i in range(1, mu[0] + 1):
        out.append(sum(1 for p in mu if p >= i))
    return tuple(out)


def contains(mu: Partition, rho: Partition) -> bool:
    """Young-diagram containment rho subset-of mu."""
    if len(rho) > len(mu):
        return False
    return all(rho[i] <= mu[i] for i in range(len(rho)))


def intersection(mu: Partition, nu: Partition) -> Partition:
    out = tuple(min(a, b) for a, b in zip(mu, nu))
    return tuple(p for p in out if p > 0)


def sub_diagrams(mu: Partition) -> Iterator[Partition]:
    """All partitions contained in the diagram of mu."""
    if not mu:
        yield ()
        return

    def rec(i: int, prev: int) -> Iterator[tuple[int, ...]]:
        if i == len(mu):
            yield ()
            return
        cap = min(mu[i], prev)
        for first in range(cap, -1, -1):
            if first == 0:
                yield ()
                return
            for rest in rec(i + 1, first):
                yield (first,) + rest

    yield from rec(0, mu[0])


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic: (n) first, (1,...,1) last."""
    if n < 0:
        raise UsageError("cannot partition a negative integer")
    if n == 0:
        return ((),)

    def gen(rem: int, cap: int) -> Iterator[Partition]:
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def multiplicities(mu: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in mu:
        out[p] = out.get(p, 0) + 1
    return out


def remove_part(mu: Partition, p: int) -> Partition:
    out = list(mu)
    out.remove(p)
    return tuple(out)


def add_parts(mu: Partition, *parts: int) -> Partition:
    return tuple(sorted(mu + tuple(parts), reverse=True))


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Weak compositions of total into ``parts`` nonnegative parts, in
    lexicographic order."""
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in compositions(total - first, parts - 1))


# ---------------------------------------------------------------------------
# hooks and dimensions
# ---------------------------------------------------------------------------

def hook_lengths(nu: Partition) -> list[int]:
    conj = conjugate(nu)
    out = []
    for i, row in enumerate(nu):
        for j in range(row):
            out.append(row - j + conj[j] - i - 1)
    return out


def hook_product(nu: Partition) -> int:
    out = 1
    for h in hook_lengths(nu):
        out *= h
    return out


def dim(nu: Partition) -> int:
    d, r = divmod(factorial(size(nu)), hook_product(nu))
    if r:
        raise InternalError(f"hook product of {nu} does not divide |nu|!")
    return d


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters
# ---------------------------------------------------------------------------

def _beta_set(nu: Partition) -> tuple[int, ...]:
    l = len(nu)
    return tuple(nu[i] + l - 1 - i for i in range(l))


def _shape_from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    l = len(beta)
    sh = tuple(beta[i] - (l - 1 - i) for i in range(l))
    return tuple(p for p in sh if p > 0)


_char_cache: dict[tuple[Partition, Partition], int] = {}


def character(nu: Partition, mu: Partition) -> int:
    """Irreducible character chi_nu at the conjugacy class C(mu)."""
    if size(nu) != size(mu):
        raise UsageError(f"size mismatch: |{nu}| != |{mu}|")
    return _mn(nu, mu)


def _mn(nu: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    key = (nu, mu)
    val = _char_cache.get(key)
    if val is not None:
        return val
    k = mu[0]
    rest = mu[1:]
    beta = set(_beta_set(nu))
    total = 0
    for b in beta:
        b2 = b - k
        if b2 < 0 or b2 in beta:
            continue
        ht = sum(1 for x in beta if b2 < x < b)
        nb = list(beta)
        nb.remove(b)
        nb.append(b2)
        total += (-1) ** ht * _mn(_shape_from_beta(nb), rest)
    _char_cache[key] = total
    return total

