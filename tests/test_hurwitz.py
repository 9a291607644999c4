import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

from dualcalc import cli, hurwitz
from dualcalc.errors import UsageError, VerificationFailure
from dualcalc.hurwitz import (_connected_coeff, _cutjoin_part, burnside_phi, double_hurwitz,
                              elsv_I, hurwitz_number, psi_from_asymptotics,
                              ramification_order)
from dualcalc.intersections import dvv
from dualcalc.partitions import (aut, character, enumerate_partitions,
                                 hook_product, kappa, length, size, zmu)
from oracles import (as_scalar, cutjoin_slice_reference, hurwitz_cutjoin_reference,
                     psi_interpolation_reference, set_partitions)


def brute_hurwitz(g, mu):
    """Count tuples of transpositions in S_n with product in class mu.

    H_{g,mu} = |{(t_1..t_r): t_1...t_r has cycle type mu, transitive}| / n!
    with r = 2g-2+|mu|+l(mu).  Only feasible for tiny n, r.
    """
    n = size(mu)
    r = ramification_order(g, mu)
    trans = [p for p in permutations(range(n)) if _cycle_type(p) == (2,) + (1,) * (n - 2)]
    ident = tuple(range(n))
    count = 0
    for tup in product(trans, repeat=r):
        p = ident
        for t in tup:
            p = tuple(t[p[i]] for i in range(n))
        if _cycle_type_sorted(p) == mu and _transitive(tup, n):
            count += 1
    return Fraction(count, factorial(n))


def _cycle_type(p):
    return tuple(sorted(_cycles(p), reverse=True) + [])


def _cycle_type_sorted(p):
    return tuple(sorted(_cycles(p), reverse=True))


def _cycles(p):
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        ln, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            ln += 1
        out.append(ln)
    return out


def _transitive(tup, n):
    if n == 1:
        return True
    adj = {i: set() for i in range(n)}
    for t in tup:
        for i in range(n):
            if t[i] != i:
                adj[i].add(t[i])
                adj[t[i]].add(i)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def test_seed_values():
    assert hurwitz_number(0, (1,)) == 1
    assert hurwitz_number(0, (2,)) == Fraction(1, 2)
    for g in range(1, 4):
        assert hurwitz_number(g, (1,)) == 0


def test_brute_force_small():
    assert brute_hurwitz(0, (2,)) == Fraction(1, 2)
    assert brute_hurwitz(0, (1, 1)) == Fraction(1, 2)
    assert brute_hurwitz(0, (3,)) == 1
    assert brute_hurwitz(1, (2,)) == Fraction(1, 2)
    for g, mu in [(0, (2,)), (0, (1, 1)), (0, (3,)), (1, (2,))]:
        assert hurwitz_number(g, mu) == brute_hurwitz(g, mu)


def test_phi_structure():
    # one Laurent in lambda: Phi_1 = 1, and Phi_2 starts at lambda/2
    assert burnside_phi((1,), 6).c == {0: 1}
    s2 = burnside_phi((2,), 6)
    assert s2.c[1] == Fraction(1, 2)
    assert 0 not in s2.num and max(s2.num) < 6
    with pytest.raises(UsageError):
        burnside_phi((1,), 0)


def test_oracle_equivalence_small():
    for n in range(1, 5):
        for mu in enumerate_partitions(n):
            for g in range(0, 3):
                assert hurwitz_number(g, mu, "burnside") == \
                    hurwitz_number(g, mu, "cutjoin"), (g, mu)


def test_cutjoin_matches_pseries_recursion():
    # the partition-keyed route against the PSeries slices it replaced
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            for g in range(3):
                assert hurwitz_number(g, mu, "cutjoin") == \
                    hurwitz_cutjoin_reference(g, mu), (g, mu)
    # whole slices, every key below the cap included
    for cap in range(1, 6):
        for r in range(2 * cap + 3):
            ref = cutjoin_slice_reference(cap, r)
            expect = {}
            for key, s in ref.co.items():
                v = as_scalar(s.coeff(0))
                assert not v.im
                expect[key[0]] = v.re
            got = {mu: c for w in range(1, cap + 1) for mu, c in _cutjoin_part(w, r).items()}
            assert got == expect, (cap, r)


def test_nonnegative():
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            for g in range(0, 3):
                assert hurwitz_number(g, mu) >= 0


def test_double_hurwitz_basics():
    assert double_hurwitz((1,), (1,), 5).c == {0: 1}
    # lambda^0 coefficient is delta_{mu nu} / z_mu by column orthogonality
    for n in range(1, 5):
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                s = double_hurwitz(mu, nu, 3)
                expect = Fraction(1, zmu(mu)) if mu == nu else Fraction(0)
                assert s.c.get(0, 0) == expect
                assert max(s.num, default=0) < 3
    # kappa parity: mu=(2), nu=(1,1) gives an odd series
    s = double_hurwitz((2,), (1, 1), 7)
    assert s.num and all(j % 2 for j in s.num)
    assert 1 in s.num
    with pytest.raises(UsageError):
        double_hurwitz((2,), (1,), 5)


def test_elsv_genus0_closed_form():
    # bare integral = |mu|^(l-3) for l(mu) = 3, 4 and |mu| <= 7
    for n in range(3, 8):
        for mu in enumerate_partitions(n):
            if length(mu) in (3, 4):
                _, bare = elsv_I(0, mu)
                assert bare == Fraction(size(mu)) ** (length(mu) - 3), mu


def test_elsv_seeds():
    i_val, bare = elsv_I(0, (1,))
    assert i_val == 1
    _, bare3 = elsv_I(0, (1, 1, 1))
    assert bare3 == 1


def test_psi_small_values():
    assert psi_from_asymptotics(0, (0, 0, 0)) == 1
    assert psi_from_asymptotics(1, (1,)) == Fraction(1, 24)
    assert psi_from_asymptotics(0, (1, 0, 0, 0)) == 1
    assert psi_from_asymptotics(1, (0, 2)) == Fraction(1, 24)
    assert psi_from_asymptotics(1, (1, 1)) == Fraction(1, 24)
    assert psi_from_asymptotics(2, (4,)) == Fraction(1, 1152)


def test_psi_preconditions():
    with pytest.raises(UsageError):
        psi_from_asymptotics(0, (1, 0, 0))  # dimension violated
    with pytest.raises(UsageError):
        psi_from_asymptotics(0, (0, 0))     # unstable


def _reference_connected_coeff(mu, order):
    """Moebius inversion with Fraction series products over the set
    partitions of the parts, those with the same block profiles taken
    together."""
    @lru_cache(maxsize=None)
    def disconnected(sub):
        out = [Fraction(0)] * (order + 1)
        for nu in enumerate_partitions(size(sub)):
            c = Fraction(character(nu, sub), zmu(sub) * hook_product(nu))
            p = Fraction(1)
            for j in range(order + 1):
                out[j] += c * p
                p = p * (kappa(nu) // 2) / (j + 1)
        return out

    def mul(a, b):
        out = [Fraction(0)] * (order + 1)
        for i, x in enumerate(a):
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
        return out

    profiles = Counter(
        tuple(sorted(tuple(sorted((mu[i] for i in block), reverse=True)) for block in blocks))
        for blocks in set_partitions(len(mu)))
    total = [Fraction(0)] * (order + 1)
    for subs, count in profiles.items():
        w = Fraction(count * (-1) ** (len(subs) - 1) * factorial(len(subs) - 1))
        prod = [Fraction(1)] + [Fraction(0)] * order
        for sub in subs:
            w *= aut(sub)
            prod = mul(prod, disconnected(sub))
        total = [t + w * p for t, p in zip(total, prod)]
    return tuple(t / aut(mu) for t in total)


def test_connected_coeff_matches_fraction_reference():
    # every power of the connected series, one moment each, and the series
    # burnside_phi assembles from the same power sums
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            order = ramification_order(2, mu)
            ref = _reference_connected_coeff(mu, order)
            assert tuple(_connected_coeff(mu, j) for j in range(order + 1)) == ref, mu
            assert burnside_phi(mu, order + 1).c == {j: c for j, c in enumerate(ref) if c}, mu
    # the subset recursion can only go wrong with many parts
    many = [mu for n in range(5, 10) for mu in enumerate_partitions(n) if 5 <= len(mu) <= 7]
    assert len(many) == 23
    for mu in many:
        order = ramification_order(1, mu)
        assert tuple(_connected_coeff(mu, j) for j in range(order + 1)) == \
            _reference_connected_coeff(mu, order), mu


def test_psi_differences_match_interpolation_and_dvv():
    cases = [(2, (3, 2, 1)), (2, (2, 2, 2, 1))]
    for g in range(3):
        for n in range(1, 7):
            if 0 < 2 * g - 2 + n <= 4:
                cases += [(g, rho + (0,) * (n - len(rho)))
                          for rho in enumerate_partitions(3 * g - 3 + n) if len(rho) <= n]
    assert len(cases) == 22 + 2
    for g, ks in cases:
        value = psi_from_asymptotics(g, ks)
        assert value == psi_interpolation_reference(g, ks) == dvv(g, ks), (g, ks)


def _elsv_with_degree_three(g, mu):
    """elsv_I with max(mu)^(D+1) added to the bare integral, for (g, n) = (1, 2)."""
    i_val, bare = elsv_I(g, mu)
    return i_val, bare + max(mu) ** 3


@pytest.fixture
def non_polynomial_data(monkeypatch):
    monkeypatch.setattr(hurwitz, "elsv_I", _elsv_with_degree_three)


def test_psi_guard_rejects_a_term_above_the_degree(non_polynomial_data):
    with pytest.raises(VerificationFailure, match="not polynomial of the expected degree"):
        psi_from_asymptotics(1, (1, 1))


def test_psi_guard_is_one_verification_document(non_polynomial_data, capsys):
    assert cli.main(["witten", "--psi", "1:1,1"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["kind"] == "verification"


_GUARD_UNDER_O = """
import sys
from dualcalc import cli, hurwitz
real = hurwitz.elsv_I
hurwitz.elsv_I = lambda g, mu: (real(g, mu)[0], real(g, mu)[1] + max(mu) ** 3)
sys.exit(cli.main(["witten", "--psi", "1:1,1"]))
"""


def test_psi_guard_holds_under_optimize():
    src = str(Path(hurwitz.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _GUARD_UNDER_O], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 2
    assert out.stdout.count("\n") == 1
    doc = json.loads(out.stdout)
    assert doc["kind"] == "verification"
    assert "not polynomial of the expected degree" in doc["error"]
