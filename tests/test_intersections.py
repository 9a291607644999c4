from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from dualcalc.errors import UsageError
from dualcalc.hurwitz import psi_from_asymptotics
from dualcalc.intersections import (double_factorial_odd, dvv, dvv_normalized,
                                    tau_coefficient, virasoro_residual)
from dualcalc.partitions import set_partitions


def test_seeds():
    assert dvv(0, (0, 0, 0)) == 1
    assert dvv(1, (1,)) == Fraction(1, 24)
    assert dvv_normalized(1, (1,)) == Fraction(1, 8)


def test_string_equation_instance():
    # <tau_0^3 tau_1>_0 = 1 via the k=0 reduction of the recursion
    assert dvv(0, (1, 0, 0, 0)) == 1
    assert dvv(0, (2, 0, 0, 0, 0)) == 1
    assert dvv(0, (1, 1, 0, 0, 0)) == 2


def test_genus_one_and_two_table():
    assert dvv(1, (2, 0)) == Fraction(1, 24)
    assert dvv(1, (1, 1)) == Fraction(1, 24)
    assert dvv(1, (3, 0, 0)) == Fraction(1, 24)
    assert dvv(1, (2, 1, 0)) == Fraction(1, 12)
    assert dvv(1, (1, 1, 1)) == Fraction(1, 12)
    assert dvv(2, (4,)) == Fraction(1, 1152)
    assert dvv(2, (5, 0)) == Fraction(1, 1152)
    assert dvv(2, (4, 1)) == Fraction(1, 384)
    assert dvv(2, (3, 2)) == Fraction(29, 5760)


def test_dimension_filter():
    for g in range(3):
        for ks in [(1,), (2, 0), (0, 0, 0), (3, 1), (2, 2, 1)]:
            if sum(ks) != 3 * g - 3 + len(ks):
                assert dvv(g, ks) == 0


def test_symmetry():
    vals = {dvv(1, p) for p in permutations((2, 1, 0))}
    assert vals == {Fraction(1, 12)}
    vals = {dvv(0, p) for p in permutations((1, 1, 0, 0, 0))}
    assert vals == {Fraction(2)}


def test_double_factorial():
    assert [double_factorial_odd(k) for k in range(4)] == [1, 3, 15, 105]


def test_cross_module_agreement():
    # dvv agrees with the Hurwitz asymptotic extraction on stable (g, n)
    # with 2g - 2 + n <= 3 (the small half; the full window is acceptance)
    cases = {
        (0, 3): [(0, 0, 0)],
        (1, 1): [(1,)],
        (0, 4): [(1, 0, 0, 0)],
        (1, 2): [(2, 0), (1, 1)],
        (2, 1): [(4,)],
        (0, 5): [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0)],
        (1, 3): [(3, 0, 0), (2, 1, 0), (1, 1, 1)],
    }
    for (g, n), kss in cases.items():
        for ks in kss:
            assert dvv(g, ks) == psi_from_asymptotics(g, ks), (g, ks)


def test_l0_constant_term_hand_check():
    # -(1/2) <s_1>_1 + 1/16 = 0 since <tau_1>_1 = 1/24 and s_1 = 3 psi
    assert Fraction(-1, 2) * dvv_normalized(1, (1,)) + Fraction(1, 16) == 0


def test_tau_coefficient_small():
    assert tau_coefficient(()) == 1
    # coefficient of t_1: <s_1>_1 = 1/8
    assert tau_coefficient((0, 1)) == Fraction(1, 8)
    # coefficient of t_0^3: <s_0^3>_0 / 3! = 1/6
    assert tau_coefficient((3,)) == Fraction(1, 6)
    # coefficient of t_1^2: <s_1^2>_1/2 + <s_1>_1^2/2
    expect = dvv_normalized(1, (1, 1)) / 2 + Fraction(1, 8) ** 2 / 2
    assert tau_coefficient((0, 2)) == expect


def _tau_by_set_partitions(mono):
    """Exponential formula over set partitions of the labelled insertions:
    each block B contributes the normalized correlator of its indices, and
    the sum carries 1/prod m_k!."""
    ms = [k for k, m in enumerate(mono) for _ in range(m)]
    total = Fraction(0)
    for blocks in set_partitions(len(ms)):
        term = Fraction(1)
        for block in blocks:
            sub = [ms[i] for i in block]
            excess = sum(sub) - len(sub)
            if excess % 3:
                term = 0
                break
            term *= dvv_normalized(excess // 3 + 1, sub)
        total += term
    for m in mono:
        total /= factorial(m)
    return total


def test_tau_coefficient_matches_set_partition_sum():
    # every monomial of degree <= 6 in t_0..t_4
    checked = 0
    for mono in product(range(7), repeat=5):
        if sum(mono) > 6:
            continue
        key = list(mono)
        while key and not key[-1]:
            key.pop()
        assert tau_coefficient(tuple(key)) == _tau_by_set_partitions(mono), mono
        checked += 1
    assert checked == 462


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
def test_virasoro_residuals(n):
    assert virasoro_residual(n, 4) == 0


def test_usage_errors():
    with pytest.raises(UsageError):
        dvv(-1, (0,))
    with pytest.raises(UsageError):
        dvv(0, ())
    with pytest.raises(UsageError):
        dvv(0, (-1, 0))
    with pytest.raises(UsageError):
        virasoro_residual(-2, 3)
