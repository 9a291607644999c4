from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import pytest

from dualcalc import intersections, verify
from dualcalc.errors import UsageError
from dualcalc.hurwitz import psi_from_asymptotics
from dualcalc.intersections import (double_factorial_odd, dvv, dvv_normalized,
                                    tau_coefficient, virasoro_residual)
from dualcalc.partitions import enumerate_partitions
from oracles import fraction_norm, set_partitions, virasoro_residual_reference


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


def test_off_shell_key_forms_no_double_factorial(monkeypatch):
    def no_work(_k):
        raise AssertionError("a double factorial was formed")

    monkeypatch.setattr(intersections, "double_factorial_odd", no_work)
    assert dvv(1, (3,)) == 0 and dvv(0, (1, 1, 1)) == 0 and dvv(2, (7, 1)) == 0


def test_symmetry():
    vals = {dvv(1, p) for p in permutations((2, 1, 0))}
    assert vals == {Fraction(1, 12)}
    vals = {dvv(0, p) for p in permutations((1, 1, 0, 0, 0))}
    assert vals == {Fraction(2)}


def _stable_keys(max_dim):
    """Every stable (g, descending ks) with 3g - 3 + n <= max_dim."""
    for g in range(max_dim // 3 + 2):
        for n in range(1, max_dim + 4 - 3 * g):
            deg = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0 or not 0 <= deg <= max_dim:
                continue
            for rho in enumerate_partitions(deg):
                if len(rho) <= n:
                    yield g, tuple(rho) + (0,) * (n - len(rho))


def test_integer_recursion_matches_fraction_reference():
    # the string and dilaton steps against the full DVV recursion
    keys = list(_stable_keys(12))
    assert len(keys) == 934 and max(g for g, _ in keys) == 4
    for g, ks in keys:
        assert dvv_normalized(g, ks) == fraction_norm(g, ks) > 0, (g, ks)


def test_one_point_closed_form():
    # <tau_{3g-2}>_g = 1/(24^g g!)
    for g in range(1, 9):
        assert dvv(g, (3 * g - 2,)) == Fraction(1, 24 ** g * factorial(g)), g


def test_genus_zero_multinomial():
    # <prod tau_{k_i}>_0 = (n-3)!/prod k_i! on the shell sum k_i = n - 3
    for g, ks in _stable_keys(4):
        if g == 0:
            expect = Fraction(factorial(len(ks) - 3))
            for k in ks:
                expect /= factorial(k)
            assert dvv(0, ks) == expect, ks


def test_genus_one_tau1_powers():
    # <tau_1^n>_1 = (n-1)!/24
    for n in range(1, 9):
        assert dvv(1, (1,) * n) == Fraction(factorial(n - 1), 24), n


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


def _on_shell(mono):
    return sum((k - 1) * m for k, m in enumerate(mono)) % 3 == 0


def _residual_reads():
    """Every monomial whose tau-coefficient virasoro_residual(n, 4) reads,
    n = -1..3."""
    return {src for n in range(-1, 4)
            for mono in intersections._monomials(4, intersections.VIRASORO_KMAX)
            for _w, src in intersections._l_terms(n, mono)}


def test_tau_coefficient_on_every_monomial_the_residuals_read():
    reads = _residual_reads()
    # t_0..t_7, 379 of them off the dimension shell
    assert len(reads) == 575 and max(map(len, reads)) == 8
    assert sum(not _on_shell(m) for m in reads) == 379
    for mono in reads:
        tau = tau_coefficient(mono)
        assert tau == _tau_by_set_partitions(mono), mono
        if not _on_shell(mono):
            assert tau == 0, mono


def test_residual_matches_fraction_assembly_under_a_perturbed_tau(monkeypatch):
    for n in range(-1, 4):
        # also fills the tau cache, so the perturbed function never recurses
        assert virasoro_residual(n, 4) == virasoro_residual_reference(n, 4) == (0, 126)
    real, target = intersections.tau_coefficient, (0, 0, 0, 0, 1)
    assert _on_shell(target) and real(target) != 0
    monkeypatch.setattr(intersections, "tau_coefficient",
                        lambda mono: real(mono) + Fraction(1, 7) * (mono == target))
    for n in range(-1, 4):
        got = virasoro_residual(n, 4)
        assert got == virasoro_residual_reference(n, 4) and got[0] != 0, n


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
def test_virasoro_residuals(n):
    # every monomial of degree <= 4 in t_0..t_4 is checked
    assert virasoro_residual(n, 4) == (0, comb(4 + 5, 5))


def test_witten_check_counts_what_it_compared(monkeypatch):
    ok, detail = verify.check_witten("full")
    # five Virasoro constraints through degree 4 in t_0..t_4, plus cross-checks
    assert ok and detail == {"virasoro_orders": 4, "cross_checked": 22,
                             "compared": 5 * comb(4 + 5, 5) + 22}
    monkeypatch.setattr(intersections, "virasoro_residual", lambda n, order: (0, 0))
    monkeypatch.setattr(verify, "enumerate_partitions", lambda n: ())
    assert verify.check_witten("full") == (
        False, {"virasoro_orders": 4, "cross_checked": 0, "compared": 0})


def test_usage_errors():
    with pytest.raises(UsageError):
        dvv(-1, (0,))
    with pytest.raises(UsageError):
        dvv(0, ())
    with pytest.raises(UsageError):
        dvv(0, (-1, 0))
    with pytest.raises(UsageError):
        virasoro_residual(-2, 3)


@pytest.mark.parametrize("entry", [dvv, dvv_normalized, psi_from_asymptotics])
def test_correlators_take_only_integer_indices(entry):
    # 1.5 was read as 1: <tau_1 tau_0 tau_0>_0 is off the shell and read 0
    for g, ks in [(0, (1.5, 0, 0)), (0, (1.0, 0, 0, 0)), (1.0, (1,)), (0, ("1", 0, 0, 0))]:
        with pytest.raises(UsageError, match="must be an integer"):
            entry(g, ks)
