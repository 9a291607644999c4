import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc import qfunc
from dualcalc.chern_simons import w_one, w_pair
from dualcalc.errors import InternalError, UsageError
from dualcalc.partitions import enumerate_partitions, size
from dualcalc.qfunc import QFunction, ULaurent, bracket_quotient, sum_of_products
from dualcalc.scalars import GaussianRational
from dualcalc.series import LambdaSeries
from oracles import (lambda_form, plain_form, q_series, qfunction, reciprocal, sin_expand,
                     sum_of_products_reference, to_lambda_reference)


def q(num, den, ipow=0):
    return qfunction(ipow, ULaurent(num), ULaurent(den))


def test_reduction_cancels():
    # (u^2 - 1)/(u - 1) = u + 1
    f = q({2: 1, 0: -1}, {1: 1, 0: -1})
    assert f == q({1: 1, 0: 1}, {0: 1})


def through(form, hi):
    """A ``lambda_form`` model cut below lambda^hi."""
    return {e: c for e, c in form.items() if e < hi}


def test_bracket_to_sine():
    # (-i)(u - u^{-1}) = 2 sin(lambda/2): (-i)^ipow times a series in lambda' = i lambda
    f = qfunction(1, ULaurent.bracket(1), ULaurent.const(1))
    got = f.to_lambda(8)
    assert got.trunc == 8
    assert lambda_form(got, -f.ipow) == plain_form(sin_expand(1, 8))


def test_const_expansion():
    assert QFunction.const(1).to_lambda(5).eq_through(LambdaSeries.one(5), 0, 5)


def test_inverse_bracket_expansion():
    # value = 1/(2 sin(lambda/2)): 1/L + L/24 + 7 L^3 / 5760 + ...
    f = qfunction(-1, ULaurent.const(1), ULaurent.bracket(1))
    s = f.to_lambda(4)
    assert s.floor == -1
    form = lambda_form(s, -f.ipow)
    assert form[-1] == {0: GaussianRational(1)}
    assert 0 not in form
    assert form[1] == {0: GaussianRational(Fraction(1, 24))}
    # independent oracle: series inversion of sin_expand(1, .)
    inv = reciprocal(sin_expand(1, 8))
    assert through(form, 3) == through(plain_form(inv), 3)


def test_add_same_phase_and_mismatch():
    a = q({1: 1}, {0: 1}, ipow=1)
    b = q({0: 2}, {0: 1}, ipow=1)
    assert (a + b) == q({1: 1, 0: 2}, {0: 1}, ipow=1)
    c = q({0: 1}, {0: 1}, ipow=0)
    with pytest.raises(UsageError):
        a + c


def test_neg_folds_phase():
    # a coefficient -1 negates the numerator and keeps the phase in {0, 1}
    a = q({1: 1}, {0: 1}, ipow=1)
    neg = sum_of_products([(-1, (a,), 0)])
    assert neg.ipow == 1
    assert neg.num == ULaurent({1: -1})
    assert a + neg == QFunction.const(0)


def test_q_series_matches_geometric():
    # 1/(1-q) = 1 + q + q^2 + ...
    f = q({0: 1}, {0: 1, 2: -1})
    assert q_series(f, 4) == [1, 1, 1, 1, 1]


small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=3)
coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)
upoly = st.dictionaries(st.integers(-3, 3), small_frac, max_size=3).map(ULaurent)
nonzero_upoly = upoly.filter(bool)


def _den_from(c, k, brackets, geoms):
    den = ULaurent({k: c})
    for m in brackets:
        den = den * ULaurent.bracket(m)
    for i in geoms:
        den = den * (ULaurent.const(1) - ULaurent.mono(2 * i))
    return den


# the domain of oracles.qfunction: c * u^k * products of brackets u^m - u^-m and of 1 - u^(2i)
den_poly = st.builds(_den_from, small_frac.filter(bool), st.integers(-3, 3),
                     st.lists(st.integers(1, 4), max_size=3),
                     st.lists(st.integers(1, 3), max_size=2))


@settings(max_examples=100, deadline=None)
@given(nonzero_upoly, nonzero_upoly, den_poly, den_poly)
def test_to_lambda_is_ring_hom(n1, n2, d1, d2):
    f = qfunction(0, n1, d1)
    g = qfunction(0, n2, d2)
    trunc = 6
    lhs = (f * g).to_lambda(trunc)
    rhs = f.to_lambda(trunc) * g.to_lambda(trunc)
    lo, hi = lhs.window_with(rhs)
    if hi > lo:
        assert lhs.eq_through(rhs, lo, hi)


@settings(max_examples=60, deadline=None)
@given(nonzero_upoly, nonzero_upoly, nonzero_upoly)
def test_qfunction_mul_assoc(a, b, c):
    fa = qfunction(0, a, ULaurent.const(1))
    fb = qfunction(0, b, ULaurent.const(1))
    fc = qfunction(1, c, ULaurent.const(1))
    assert (fa * fb) * fc == fa * (fb * fc)


# bracket-denominator values: c * u^k * num / (products of u^m - u^-m and 1 - u^(2i))
bracket_value = st.builds(lambda n, d, ipow: qfunction(ipow, n, d),
                          nonzero_upoly, den_poly, st.integers(0, 1))


@settings(max_examples=100, deadline=None)
@given(bracket_value, bracket_value)
def test_factored_sum_and_product_match_expansions(f, g):
    # each expansion read back in lambda, over the windows both sides know
    def agree(got, got_ph, want, want_ph):
        lo, hi = got.window_with(want)
        cut = [{e: c for e, c in lambda_form(x, ph).items() if lo <= e < hi}
               for x, ph in ((got, got_ph), (want, want_ph))]
        assert cut[0] == cut[1]

    trunc = 5
    fs, gs = f.to_lambda(trunc), g.to_lambda(trunc)
    fg = f * g
    agree(fg.to_lambda(trunc), -fg.ipow, fs * gs, -f.ipow - g.ipow)
    if f.ipow == g.ipow:
        total = f + g
        agree(total.to_lambda(trunc), -total.ipow, fs + gs, -f.ipow)


def test_factored_denominator_is_cyclotomic_product():
    # u^3 - u^-3 = u^-3 (u - 1)(u + 1)(u^2 + u + 1)(u^2 - u + 1)
    f = qfunction(0, ULaurent.const(1), ULaurent.bracket(3))
    assert f.fac == ((1, 1), (2, 1), (3, 1), (6, 1))
    assert f.num == ULaurent.mono(3)
    assert f.den == ULaurent({6: 1, 0: -1})
    # a shared factor cancels: (1 + u) / (1 - u^2) = 1 / (1 - u)
    g = qfunction(0, ULaurent({0: 1, 1: 1}), ULaurent({0: 1, 2: -1}))
    assert g.fac == ((1, 1),) and g.num == ULaurent.const(-1)


def test_non_cyclotomic_denominator_is_a_usage_error():
    with pytest.raises(UsageError):
        qfunction(0, ULaurent.const(1), ULaurent({0: 2, 1: 1}))
    with pytest.raises(UsageError):
        qfunction(0, ULaurent.const(1), ULaurent({0: 1, 1: 1, 3: 1}))


def test_sums_and_products_cancel_shared_factors():
    one_minus_u = ULaurent({0: 1, 1: -1})
    a = qfunction(0, ULaurent.const(1), one_minus_u)
    b = qfunction(0, ULaurent({1: -1}), one_minus_u)
    assert a + b == QFunction.const(1)                 # (1 - u)/(1 - u)
    assert a * qfunction(0, one_minus_u, ULaurent.const(1)) == QFunction.const(1)
    # 1/(u - u^-1) + 1/(u^2 - u^-2) over the common denominator, then reduced
    c = qfunction(1, ULaurent.const(1), ULaurent.bracket(1))
    d = qfunction(1, ULaurent.const(1), ULaurent.bracket(2))
    assert c + d == qfunction(1, ULaurent({3: 1, 1: 1, 2: 1}), ULaurent({4: 1, 0: -1}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coefficient, st.lists(bracket_value, min_size=1, max_size=3),
                          st.integers(-3, 3)), max_size=5))
def test_sum_of_products_matches_term_by_term_sum(terms):
    # phases of a sum must agree: keep terms whose total phase parity matches the first
    parity = [sum(f.ipow for f in fs) % 2 for _c, fs, _k in terms]
    terms = [t for t, p in zip(terms, parity) if p == parity[0]]
    assert sum_of_products(terms) == sum_of_products_reference(terms)


def test_sum_of_products_phase_two_is_a_negated_numerator():
    # phases 1 and 3 (and 0 and 2) differ by a sign; the sum is the fold's value
    a = qfunction(1, ULaurent({2: 1, 0: 3}), ULaurent.bracket(2))
    b = qfunction(3, ULaurent.const(5), ULaurent.bracket(3))
    c = qfunction(0, ULaurent.mono(1), ULaurent.bracket(1))
    terms = [(1, (a,), 1), (Fraction(-2, 3), (b,), 0), (1, (c, c, a), -2), (3, (a, c, c), 3)]
    got = sum_of_products(terms)
    assert got == sum_of_products_reference(terms)
    assert got.ipow == 1
    # a * a has phase 2: a negated numerator at phase 0
    sq = sum_of_products([(1, (a, a), 0)])
    assert sq.ipow == 0 and sq == sum_of_products_reference([(1, (a, a), 0)])
    assert sum_of_products([(1, (a, a), 0), (-1, (sq,), 0)]) == QFunction.const(0)


def test_sum_of_products_mismatched_phases_is_a_usage_error():
    a = qfunction(1, ULaurent.const(1), ULaurent.bracket(1))
    b = qfunction(0, ULaurent.const(1), ULaurent.bracket(2))
    with pytest.raises(UsageError, match="incompatible phases"):
        sum_of_products([(1, (a,), 0), (1, (b,), 0)])
    with pytest.raises(UsageError, match="incompatible phases"):
        sum_of_products([(1, (a, b), 0), (-1, (b, b), 1)])


def test_sum_of_products_all_cancelling_is_zero():
    a = qfunction(1, ULaurent({3: 1, 0: -2}), ULaurent.bracket(2) * ULaurent.bracket(3))
    b = qfunction(0, ULaurent.const(7), ULaurent.bracket(1))
    got = sum_of_products([(1, (a, b), 1), (-1, (b, a), 1), (1, (a,), 0), (-1, (a,), 0)])
    assert got == QFunction.const(0)
    assert (got.ipow, got.num, got.fac) == (0, ULaurent(), ())
    assert sum_of_products([]) == QFunction.const(0)


def _cyclotomic_value(ipow, num, fac):
    den = ULaurent.const(1)
    for e, m in fac:
        for _ in range(m):
            den = den * qfunc._cyclotomic(e)
    return qfunction(ipow, num, den)


# values over random products of cyclotomic polynomials Phi_e, with any phase
cyclotomic_value = st.builds(
    _cyclotomic_value, st.integers(0, 3), nonzero_upoly,
    st.dictionaries(st.integers(1, 10), st.integers(1, 2), max_size=3).map(
        lambda d: tuple(sorted(d.items()))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), st.lists(st.tuples(coefficient,
                                             st.lists(cyclotomic_value, min_size=1, max_size=3),
                                             st.integers(-4, 4)), max_size=6))
def test_sum_of_products_matches_pairwise_fold(parity, terms):
    # one reduction over the largest exponent of each Phi_e against the fold of
    # reduced values; the fold needs every term's phase to share one parity
    terms = [(c, fs, k) for c, fs, k in terms if sum(f.ipow for f in fs) % 2 == parity]
    got, want = sum_of_products(terms), sum_of_products_reference(terms)
    assert (got.ipow, got.num, got.fac) == (want.ipow, want.num, want.fac)


def test_window_at_or_below_valuation_is_zero_through_window():
    # (u - u^-1)^2 = (2i sin(lambda/2))^2 = -lambda^2 + ...: zero below lambda^2,
    # not the exact zero
    sq = qfunction(0, ULaurent.bracket(1) * ULaurent.bracket(1), ULaurent.const(1))
    for trunc in (-2, 0, 1, 2):
        s = sq.to_lambda(trunc)
        assert not s.is_exact_zero() and s.trunc == trunc and s.is_zero_through()
    assert lambda_form(sq.to_lambda(3), -sq.ipow) == {2: {0: GaussianRational(-1)}}
    # 1/(2 sin(lambda/2)) = 1/lambda + ...; trunc + (Phi_1 exponent) <= 0 is not an IndexError
    inv = qfunction(-1, ULaurent.const(1), ULaurent.bracket(1))
    for trunc in (-4, -1):
        s = inv.to_lambda(trunc)
        assert not s.is_exact_zero() and s.trunc == trunc and s.is_zero_through()
    assert lambda_form(inv.to_lambda(0), -inv.ipow) == {-1: {0: GaussianRational(1)}}


def _direct(ipow, p: ULaurent, j: int) -> GaussianRational:
    """The lambda^j coefficient of (-i)^ipow p(e^{i lambda/2}), summed directly:
    (-i)^ipow sum_m p_m (i m/2)^j / j!."""
    acc = GaussianRational(0)
    for m, v in p.c.items():
        acc = acc + (GaussianRational(0, Fraction(m, 2)) ** j) * v
    return acc * GaussianRational(0, -1) ** ipow / factorial(j)


@settings(max_examples=100, deadline=None)
@given(nonzero_upoly, st.integers(0, 3), st.integers(-2, 7))
def test_to_lambda_of_polynomial_is_direct_sum(p, ipow, trunc):
    f = qfunction(ipow, p, ULaurent.const(1))
    s = f.to_lambda(trunc)
    assert s.trunc == trunc and (s.floor >= 0 or s.is_zero_through())
    direct = {j: {0: _direct(ipow, p, j)} for j in range(max(trunc, 0))}
    assert lambda_form(s, -f.ipow) == {j: c for j, c in direct.items() if c[0]}


@settings(max_examples=100, deadline=None)
@given(bracket_value, st.integers(1, 5))
def test_to_lambda_times_denominator_is_numerator(f, extra):
    v = dict(f.fac).get(1, 0)
    trunc = v + extra
    prod = f.to_lambda(trunc) * qfunction(0, f.den, ULaurent.const(1)).to_lambda(trunc)
    assert prod.trunc >= extra
    # (-i)^ipow num/den times den is (-i)^ipow num
    direct = {j: {0: _direct(f.ipow, f.num, j)} for j in range(prod.trunc)}
    assert through(lambda_form(prod, -f.ipow), prod.trunc) == {
        j: c for j, c in direct.items() if c[0]}


def _exact(s):
    """A lambda'-series as its window and its coefficients' (num, den)."""
    return s.floor, s.trunc, [(c.num, c.den) for c in s.co]


def test_to_lambda_matches_reference_on_framed_w_values():
    # the W values and windows that the framed series expand
    small = [nu for k in range(4) for nu in enumerate_partitions(k)]
    for k in range(7):
        for nu in enumerate_partitions(k):
            f, trunc = w_one(nu), 15 + k
            assert _exact(f.to_lambda(trunc)) == _exact(to_lambda_reference(f, trunc))
    for a in small:
        for b in small:
            f, trunc = w_pair(a, b), 9 + size(a) + size(b)
            assert _exact(f.to_lambda(trunc)) == _exact(to_lambda_reference(f, trunc))


brackets = st.lists(st.integers(1, 5), max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), brackets, brackets, st.integers(-3, 6))
def test_to_lambda_matches_reference_on_bracket_quotients(ipow, tops, bottoms, above):
    # each bracket has lambda-valuation 1; windows reach from below the
    # value's valuation to a few terms above it
    f = bracket_quotient(ipow, tops, bottoms)
    trunc = len(tops) - len(bottoms) + above
    assert _exact(f.to_lambda(trunc)) == _exact(to_lambda_reference(f, trunc))


def _drop_phi1(fac, n, length, real=qfunc._den_series):
    return real(tuple((e, m) for e, m in fac if e != 1), n, length)


def test_to_lambda_guard_catches_a_denominator_without_phi1(monkeypatch):
    monkeypatch.setattr(qfunc, "_den_series", _drop_phi1)
    with pytest.raises(InternalError, match="Phi_1 exponent"):
        bracket_quotient(1, [], [1, 2]).to_lambda(4)


_GUARD_UNDER_O = """
from dualcalc import qfunc
from dualcalc.errors import InternalError
real = qfunc._den_series
qfunc._den_series = lambda fac, n, length: real(tuple(f for f in fac if f[0] != 1), n, length)
try:
    qfunc.bracket_quotient(1, [], [1, 2]).to_lambda(4)
except InternalError as exc:
    print(exc)
"""


def test_to_lambda_guard_holds_under_optimize():
    src = str(Path(qfunc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _GUARD_UNDER_O], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=120)
    assert out.stdout.strip() == "denominator x-valuation differs from its Phi_1 exponent"
