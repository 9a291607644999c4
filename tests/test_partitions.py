from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

import dualcalc
from dualcalc import chern_simons, hodge, hurwitz, partitions, pseries
from dualcalc.errors import UsageError
from dualcalc.partitions import (aut, character, check_partition, compositions,
                                 conjugate, dim, enumerate_partitions, format_partition,
                                 hook_product, kappa, length, parse_partition,
                                 size, sub_diagrams, zmu)
from oracles import set_partitions


# independent oracle: Euler's pentagonal-number recurrence for p(n)
def pentagonal_count(n):
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p[n]


def test_enumeration_counts():
    assert enumerate_partitions(0) == ((),)
    assert len(enumerate_partitions(4)) == 5 == pentagonal_count(4)
    assert len(enumerate_partitions(10)) == 42 == pentagonal_count(10)
    for n in range(12):
        assert len(enumerate_partitions(n)) == pentagonal_count(n)


def test_enumeration_reverse_lex_order():
    got = enumerate_partitions(4)
    assert got == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    # each exactly once
    assert len(set(got)) == len(got)
    assert all(sum(mu) == 4 for mu in got)


def test_parse_format_round_trip():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == ""
    with pytest.raises(UsageError):
        parse_partition("1,3")


# the library entries that take a partition, each called on a candidate mu
PARTITION_ENTRIES = {
    "hurwitz_number-burnside": lambda mu: hurwitz.hurwitz_number(0, mu, "burnside"),
    "hurwitz_number-cutjoin": lambda mu: hurwitz.hurwitz_number(0, mu, "cutjoin"),
    "elsv_I": lambda mu: hurwitz.elsv_I(0, mu),
    "burnside_phi": lambda mu: hurwitz.burnside_phi(mu, 6),
    "double_hurwitz": lambda mu: hurwitz.double_hurwitz(mu, mu, 6),
    "hodge_extract": lambda mu: hodge.hodge_extract(hodge.build_series(3, 9, 1), 1, mu),
    "w_one": lambda mu: chern_simons.w_one(mu),
    "w_pair": lambda mu: chern_simons.w_pair(mu, ()),
}


@pytest.mark.parametrize("mu", [(1, 2), (2, 0)], ids=["increasing", "zero-part"])
@pytest.mark.parametrize("entry", PARTITION_ENTRIES)
def test_library_entries_reject_a_non_partition(entry, mu):
    # the CLI checks through parse_partition; a library caller gets the same check
    with pytest.raises(UsageError, match="parts must be"):
        PARTITION_ENTRIES[entry](mu)


@pytest.mark.parametrize("mu", [(2.5,), (2.0,), (2.7, 1.2)], ids=["half", "integral", "two"])
@pytest.mark.parametrize("entry", [*PARTITION_ENTRIES, "check_partition"])
def test_library_entries_reject_a_float_part(entry, mu):
    # a part is read through as_index, not truncated by int(); called first
    # on the integer partition, a cached entry still refuses the float one,
    # which an untyped cache keys alike
    call = PARTITION_ENTRIES.get(entry, check_partition)
    call(tuple(map(int, mu)))
    with pytest.raises(UsageError, match="must be an integer"):
        call(mu)


@pytest.mark.parametrize("call", [
    lambda: chern_simons.w_one(2),
    lambda: hurwitz.hurwitz_number(0, 2),
    lambda: hurwitz.hurwitz_number(1.0, (2, 1), "burnside"),
    lambda: hurwitz.elsv_I(1.5, (2,)),
    lambda: hurwitz.burnside_phi((2, 1), 6.0),
    lambda: hurwitz.double_hurwitz((2, 1), (2, 1), 6.0),
], ids=["w_one-int", "hurwitz_number-int", "hurwitz_number-genus", "elsv_I-genus",
        "burnside_phi-trunc", "double_hurwitz-trunc"])
def test_library_entries_refuse_a_float_or_a_non_iterable(call):
    # each raised TypeError before; the CLI contract maps a bad argument to exit 1
    with pytest.raises(UsageError):
        call()


# every memoised entry that dualcalc exports: (good arguments, arguments
# with a float or a float part), each a thunk so that no series is built at
# collection time
MEMOISED = {
    "bernoulli": lambda: ((4,), (4.0,)),
    "build_series": lambda: ((1, 5, 1), (1, 5.0, 1)),
    "candelas": lambda: ((2,), (2.0,)),
    "character": lambda: (((2, 1), (3,)), ((2.5,), (2.5,))),
    "enumerate_partitions": lambda: ((3,), (3.0,)),
    "hg_projective": lambda: ((3, 2, 2), (3.0, 2, 2)),
    "hodge_extract": lambda: ((fs := dualcalc.build_series(2, 9, 1), 1, (2,)),
                              (fs, 1, (2.0,))),
    "hori_vafa_series": lambda: ((2, 3, 1), (2, 3, 1.0)),
    "local_p2_z": lambda: ((2,), (2.0,)),
    "w_one": lambda: (((2, 1),), ((2.0, 1),)),
    "w_pair": lambda: (((1,), (1,)), ((1,), (1.0,))),
}


@pytest.mark.parametrize("name", MEMOISED)
def test_call_order_cannot_change_a_memoised_answer(name):
    # an untyped cache keys 2.0 as 2: from an empty cache a float is refused,
    # and it must still be refused once the integer call is cached
    fn = getattr(dualcalc, name)
    good, bad = MEMOISED[name]()
    fn.cache_clear()
    for _ in range(2):
        with pytest.raises(UsageError, match="must be an integer"):
            fn(*bad)
        value = fn(*good)
    assert fn(*good) is value
    # a wrong count of positional arguments fails as the plain function does
    for args in (good[:-1], good + good[-1:]):
        with pytest.raises(TypeError, match="positional arguments"):
            fn(*args)


# the package's own memoised helpers: (module, name, good arguments, the
# same with a float part)
INTERNAL = [(hodge, "framing_prefactor", ((2, 1),), ((2.0, 1),)),
            (pseries, "cut_join_terms", ((2, 1),), ((2.0, 1),)),
            (partitions, "compositions", (2, 2), (2.0, 2)),
            (partitions, "dim", ((2, 1),), ((2.0, 1),))]


@pytest.mark.parametrize("module,name,good,bad", INTERNAL, ids=[n for _m, n, *_a in INTERNAL])
def test_internal_caches_refuse_floats_in_either_call_order(module, name, good, bad):
    # a float is refused from an empty cache and again once the integer
    # arguments are cached
    fn = getattr(module, name)
    fn.cache_clear()
    for _ in range(2):
        with pytest.raises(UsageError, match="must be an integer"):
            fn(*bad)
        value = fn(*good)
    assert fn(*good) is value


@pytest.mark.parametrize("mu,z,a,k", [
    ((2, 1), 2, 1, 0),
    ((1, 1), 2, 2, -2),
    ((2,), 2, 1, 2),
])
def test_basic_stats_examples(mu, z, a, k):
    assert (zmu(mu), aut(mu), kappa(mu)) == (z, a, k)


def test_z_factorization():
    for n in range(8):
        for mu in enumerate_partitions(n):
            prod = 1
            for p in mu:
                prod *= p
            assert zmu(mu) == aut(mu) * prod
            assert kappa(mu) % 2 == 0
            assert kappa(conjugate(mu)) == -kappa(mu)


def test_character_examples():
    # trivial representation
    for mu in enumerate_partitions(5):
        assert character((5,), mu) == 1
    # sign character
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert character((1,) * n, mu) == (-1) ** (size(mu) - length(mu))
    # standard representation of S3 at a 3-cycle: brute force over
    # permutation matrices (trace = fixed points, minus trivial part)
    fixed_point_trace = 0
    count = 0
    for perm in permutations(range(3)):
        cyc = _cycle_type(perm)
        if cyc == (3,):
            fixed_point_trace += sum(1 for i, x in enumerate(perm) if i == x)
            count += 1
    assert count == 2
    assert character((2, 1), (3,)) == fixed_point_trace // count - 1 == -1


def _cycle_type(perm):
    seen = [False] * len(perm)
    lens = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        ln, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            ln += 1
        lens.append(ln)
    return tuple(sorted(lens, reverse=True))


def test_character_size_mismatch():
    with pytest.raises(UsageError):
        character((2,), (1,))


def test_character_refuses_a_float_part_in_either_call_order():
    # each call is made from an empty cache and again once the integer call
    # is cached
    character.cache_clear()
    for _ in range(2):
        for nu, mu in [((2.5,), (2.5,)), ((1, 1, 0.5), (2.5,))]:
            with pytest.raises(UsageError, match="must be an integer"):
                character(nu, mu)
        # a list is read as the partition it lists, as by every typed cache
        assert character([2, 1], [3]) == -1
        assert character((2, 1), (3,)) == -1


def test_hook_dim():
    assert hook_product((1,)) == 1
    assert hook_product((2, 1)) == 3
    # dim via standard-tableaux count for a couple of shapes
    assert dim((2, 1)) == 2
    assert dim((2, 2)) == 2
    assert dim((3, 1)) == 3
    # cross-module consistency: dim = chi_nu(identity class)
    for n in range(1, 8):
        for nu in enumerate_partitions(n):
            assert character(nu, (1,) * n) == dim(nu)
            assert Fraction(1, hook_product(nu)) == Fraction(dim(nu), _fact(n))


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_character_orthogonality():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        for nu in parts:
            for nu2 in parts:
                s = sum(Fraction(character(nu, mu) * character(nu2, mu), zmu(mu))
                        for mu in parts)
                assert s == (1 if nu == nu2 else 0)


def test_column_orthogonality():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        for mu in parts:
            for mu2 in parts:
                s = sum(Fraction(character(nu, mu) * character(nu, mu2), zmu(mu))
                        for nu in parts)
                assert s == (1 if mu == mu2 else 0)


def test_conjugate_character_sign():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        for nu in parts:
            for mu in parts:
                assert character(conjugate(nu), mu) == \
                    (-1) ** (size(mu) - length(mu)) * character(nu, mu)


def test_sub_diagrams():
    subs = list(sub_diagrams((2, 1)))
    assert set(subs) == {(), (1,), (2,), (1, 1), (2, 1)}
    assert list(sub_diagrams(())) == [()]
    # each contained diagram once, with no de-duplication pass
    for mu in enumerate_partitions(6):
        subs = list(sub_diagrams(mu))
        assert len(subs) == len(set(subs))
        assert set(subs) == {rho for n in range(7) for rho in enumerate_partitions(n)
                             if len(rho) <= len(mu)
                             and all(r <= m for r, m in zip(rho, mu))}


def test_compositions():
    assert compositions(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert compositions(3, 1) == ((3,),)
    assert compositions(0, 0) == ((),) and compositions(2, 0) == ()
    for total in range(5):
        for parts in range(1, 4):
            comps = compositions(total, parts)
            assert list(comps) == sorted(set(comps))
            assert all(len(c) == parts and sum(c) == total for c in comps)
            assert len(comps) == comb(total + parts - 1, parts - 1)


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, b in enumerate(bell):
        parts = set_partitions(n)
        assert len(parts) == b
        canon = {frozenset(frozenset(block) for block in p) for p in parts}
        assert len(canon) == b
        assert all(sorted(x for block in p for x in block) == list(range(n))
                   for p in parts)
