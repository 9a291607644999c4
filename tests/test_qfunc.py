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
from oracles import (bracket, lambda_form, plain_form, q_series, qfunction, reciprocal,
                     sin_expand, sum_of_products_reference, to_lambda_reference)


def q(num, den):
    return qfunction(ULaurent(num), ULaurent(den))


def test_reduction_cancels():
    # (u^2 - 1)/(u - 1) = u + 1
    f = q({2: 1, 0: -1}, {1: 1, 0: -1})
    assert f == q({1: 1, 0: 1}, {0: 1})


def through(form, hi):
    """A ``lambda_form`` model cut below lambda^hi."""
    return {e: c for e, c in form.items() if e < hi}


def test_bracket_to_sine():
    # (-i)(u - u^{-1}) = 2 sin(lambda/2): i^-1 times a series in lambda' = i lambda
    f = qfunction(bracket(1), ULaurent.const(1))
    got = f.to_lambda(8)
    assert got.trunc == 8
    assert lambda_form(got, -1) == plain_form(sin_expand(1, 8))


def test_const_expansion():
    assert QFunction.const(1).to_lambda(5).eq_through(LambdaSeries.one(5), 0, 5)


def test_inverse_bracket_expansion():
    # value = 1/(2 sin(lambda/2)): 1/L + L/24 + 7 L^3 / 5760 + ...
    f = qfunction(ULaurent.const(1), bracket(1))
    s = f.to_lambda(4)
    assert s.floor == -1
    form = lambda_form(s, 1)
    assert form[-1] == {0: GaussianRational(1)}
    assert 0 not in form
    assert form[1] == {0: GaussianRational(Fraction(1, 24))}
    # independent oracle: series inversion of sin_expand(1, .)
    inv = reciprocal(sin_expand(1, 8))
    assert through(form, 3) == through(plain_form(inv), 3)


def test_add_sums_the_numerators():
    a = q({1: 1}, {0: 1})
    b = q({0: 2}, {0: 1})
    assert (a + b) == q({1: 1, 0: 2}, {0: 1})
    c = q({0: 1}, {1: 1, 0: -1})
    assert a + c == q({2: 1, 1: -1, 0: 1}, {1: 1, 0: -1})


def test_neg_folds_phase():
    # a coefficient -1, the phase (-i)^2, goes into the numerator
    a = q({1: 1}, {0: 1})
    neg = sum_of_products([(-1, (a,), 0)])
    assert neg.fac == a.fac
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
        den = den * bracket(m)
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
    f = qfunction(n1, d1)
    g = qfunction(n2, d2)
    trunc = 6
    lhs = (f * g).to_lambda(trunc)
    rhs = f.to_lambda(trunc) * g.to_lambda(trunc)
    lo, hi = lhs.window_with(rhs)
    if hi > lo:
        assert lhs.eq_through(rhs, lo, hi)


@settings(max_examples=60, deadline=None)
@given(nonzero_upoly, nonzero_upoly, nonzero_upoly)
def test_qfunction_mul_assoc(a, b, c):
    fa = qfunction(a, ULaurent.const(1))
    fb = qfunction(b, ULaurent.const(1))
    fc = qfunction(c, ULaurent.const(1))
    assert (fa * fb) * fc == fa * (fb * fc)


# bracket-denominator values: c * u^k * num / (products of u^m - u^-m and 1 - u^(2i))
bracket_value = st.builds(qfunction, nonzero_upoly, den_poly)


@settings(max_examples=100, deadline=None)
@given(bracket_value, bracket_value, st.integers(-3, 4), st.integers(-3, 4))
def test_factored_sum_and_product_match_expansions(f, g, pf, pg):
    # the values i^pf f and i^pg g, each expansion read back in lambda, over
    # the windows both sides know
    def agree(got, want, ph):
        lo, hi = got.window_with(want)
        cut = [{e: c for e, c in lambda_form(x, ph).items() if lo <= e < hi}
               for x in (got, want)]
        assert cut[0] == cut[1]

    trunc = 5
    fs, gs = f.to_lambda(trunc), g.to_lambda(trunc)
    agree((f * g).to_lambda(trunc), fs * gs, pf + pg)
    agree((f + g).to_lambda(trunc), fs + gs, pf)


def test_factored_denominator_is_cyclotomic_product():
    # u^3 - u^-3 = u^-3 (u - 1)(u + 1)(u^2 + u + 1)(u^2 - u + 1)
    f = qfunction(ULaurent.const(1), bracket(3))
    assert f.fac == ((1, 1), (2, 1), (3, 1), (6, 1))
    assert f.num == ULaurent.mono(3)
    assert f.den == ULaurent({6: 1, 0: -1})
    # a shared factor cancels: (1 + u) / (1 - u^2) = 1 / (1 - u)
    g = qfunction(ULaurent({0: 1, 1: 1}), ULaurent({0: 1, 2: -1}))
    assert g.fac == ((1, 1),) and g.num == ULaurent.const(-1)


def test_non_cyclotomic_denominator_is_a_usage_error():
    with pytest.raises(UsageError):
        qfunction(ULaurent.const(1), ULaurent({0: 2, 1: 1}))
    with pytest.raises(UsageError):
        qfunction(ULaurent.const(1), ULaurent({0: 1, 1: 1, 3: 1}))


def test_sums_and_products_cancel_shared_factors():
    one_minus_u = ULaurent({0: 1, 1: -1})
    a = qfunction(ULaurent.const(1), one_minus_u)
    b = qfunction(ULaurent({1: -1}), one_minus_u)
    assert a + b == QFunction.const(1)                 # (1 - u)/(1 - u)
    assert a * qfunction(one_minus_u, ULaurent.const(1)) == QFunction.const(1)
    # 1/(u - u^-1) + 1/(u^2 - u^-2) over the common denominator, then reduced
    c = qfunction(ULaurent.const(1), bracket(1))
    d = qfunction(ULaurent.const(1), bracket(2))
    assert c + d == qfunction(ULaurent({3: 1, 1: 1, 2: 1}), ULaurent({4: 1, 0: -1}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coefficient, st.lists(bracket_value, min_size=1, max_size=3),
                          st.integers(-3, 3)), max_size=5))
def test_sum_of_products_matches_term_by_term_sum(terms):
    assert sum_of_products(terms) == sum_of_products_reference(terms)


def test_sum_of_products_all_cancelling_is_zero():
    a = qfunction(ULaurent({3: 1, 0: -2}), bracket(2) * bracket(3))
    b = qfunction(ULaurent.const(7), bracket(1))
    got = sum_of_products([(1, (a, b), 1), (-1, (b, a), 1), (1, (a,), 0), (-1, (a,), 0)])
    assert got == QFunction.const(0)
    assert (got.num, got.fac) == (ULaurent(), ())
    assert sum_of_products([]) == QFunction.const(0)


def _cyclotomic_value(num, fac):
    den = ULaurent.const(1)
    for e, m in fac:
        for _ in range(m):
            den = den * qfunc._cyclotomic(e)
    return qfunction(num, den)


# values over random products of cyclotomic polynomials Phi_e
cyclotomic_value = st.builds(
    _cyclotomic_value, nonzero_upoly,
    st.dictionaries(st.integers(1, 10), st.integers(1, 2), max_size=3).map(
        lambda d: tuple(sorted(d.items()))))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coefficient, st.lists(cyclotomic_value, min_size=1, max_size=3),
                          st.integers(-4, 4)), max_size=6))
def test_sum_of_products_matches_pairwise_fold(terms):
    # one reduction over the largest exponent of each Phi_e against the fold of
    # reduced values
    got, want = sum_of_products(terms), sum_of_products_reference(terms)
    assert (got.num, got.fac) == (want.num, want.fac)


def test_window_at_or_below_valuation_is_zero_through_window():
    # (u - u^-1)^2 = (2i sin(lambda/2))^2 = -lambda^2 + ...: zero below lambda^2,
    # not the exact zero
    sq = qfunction(bracket(1) * bracket(1), ULaurent.const(1))
    for trunc in (-2, 0, 1, 2):
        s = sq.to_lambda(trunc)
        assert not s.is_exact_zero() and s.trunc == trunc and s.is_zero_through()
    assert lambda_form(sq.to_lambda(3), 0) == {2: {0: GaussianRational(-1)}}
    # 1/(2 sin(lambda/2)) = i/[1] = 1/lambda + ...; trunc + (Phi_1 exponent) <= 0
    # is not an IndexError
    inv = qfunction(ULaurent.const(1), bracket(1))
    for trunc in (-4, -1):
        s = inv.to_lambda(trunc)
        assert not s.is_exact_zero() and s.trunc == trunc and s.is_zero_through()
    assert lambda_form(inv.to_lambda(0), 1) == {-1: {0: GaussianRational(1)}}


def _direct(ph, p: ULaurent, j: int) -> GaussianRational:
    """The lambda^j coefficient of i^ph p(e^{i lambda/2}), summed directly:
    i^ph sum_m p_m (i m/2)^j / j!."""
    acc = GaussianRational(0)
    for m, v in p.c.items():
        acc = acc + (GaussianRational(0, Fraction(m, 2)) ** j) * v
    return acc * GaussianRational(0, 1) ** (ph % 4) / factorial(j)


@settings(max_examples=100, deadline=None)
@given(nonzero_upoly, st.integers(-3, 4), st.integers(-2, 7))
def test_to_lambda_of_polynomial_is_direct_sum(p, ph, trunc):
    f = qfunction(p, ULaurent.const(1))
    s = f.to_lambda(trunc)
    assert s.trunc == trunc and (s.floor >= 0 or s.is_zero_through())
    direct = {j: {0: _direct(ph, p, j)} for j in range(max(trunc, 0))}
    assert lambda_form(s, ph) == {j: c for j, c in direct.items() if c[0]}


@settings(max_examples=100, deadline=None)
@given(bracket_value, st.integers(1, 5))
def test_to_lambda_times_denominator_is_numerator(f, extra):
    v = dict(f.fac).get(1, 0)
    trunc = v + extra
    prod = f.to_lambda(trunc) * qfunction(f.den, ULaurent.const(1)).to_lambda(trunc)
    assert prod.trunc >= extra
    # num/den times den is num
    direct = {j: {0: _direct(0, f.num, j)} for j in range(prod.trunc)}
    assert through(lambda_form(prod, 0), prod.trunc) == {
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
@given(brackets, brackets, st.integers(-3, 6))
def test_to_lambda_matches_reference_on_bracket_quotients(tops, bottoms, above):
    # each bracket has lambda-valuation 1; windows reach from below the
    # value's valuation to a few terms above it
    f = bracket_quotient(tops, bottoms)
    trunc = len(tops) - len(bottoms) + above
    assert _exact(f.to_lambda(trunc)) == _exact(to_lambda_reference(f, trunc))


def test_to_lambda_is_ring_hom_on_a_cubed_bracket():
    # a falsifying example once drawn for test_to_lambda_is_ring_hom, pinned
    cube = bracket(1) * bracket(1) * bracket(1)
    f, g = qfunction(ULaurent.const(1), cube), qfunction(ULaurent({0: 1, 1: 1}), cube)
    lhs = (f * g).to_lambda(6)
    rhs = f.to_lambda(6) * g.to_lambda(6)
    lo, hi = lhs.window_with(rhs)
    assert hi > lo and lhs.eq_through(rhs, lo, hi)


@pytest.mark.parametrize("fac", [((1, 4), (3, 1)), ((1, 4), (5, 1)), ((1, 4), (9, 1)),
                                 ((1, 4), (15, 1)), ((1, 4), (3, 2), (5, 1), (9, 1), (15, 1))])
def test_to_lambda_matches_reference_on_odd_cyclotomic_denominators(fac):
    # den_poly draws brackets and 1 - u^(2i) only; odd Phi_e give odd u^d - 1
    for num in (ULaurent.const(1), ULaurent({0: 1, 1: 2, 3: -1}),
                ULaurent({-2: Fraction(1, 3), 5: 1})):
        f = _cyclotomic_value(num, fac)
        for trunc in (-2, 1, 4, 9):
            assert _exact(f.to_lambda(trunc)) == _exact(to_lambda_reference(f, trunc))


def _drop_phi1(fac, real=qfunc._mobius):
    return real(tuple((e, m) for e, m in fac if e != 1))


def test_to_lambda_guard_catches_a_denominator_without_phi1(monkeypatch):
    monkeypatch.setattr(qfunc, "_mobius", _drop_phi1)
    with pytest.raises(InternalError, match="Phi_1 exponent"):
        bracket_quotient([], [1, 2]).to_lambda(4)


_GUARD_UNDER_O = """
from dualcalc import qfunc
from dualcalc.errors import InternalError
real = qfunc._mobius
qfunc._mobius = lambda fac: real(tuple(f for f in fac if f[0] != 1))
try:
    qfunc.bracket_quotient([], [1, 2]).to_lambda(4)
except InternalError as exc:
    print(exc)
"""


def test_to_lambda_guard_holds_under_optimize():
    src = str(Path(qfunc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _GUARD_UNDER_O], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=120)
    assert out.stdout.strip() == "denominator x-valuation differs from its Phi_1 exponent"
