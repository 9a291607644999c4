"""Property tests for the dense truncated-series kernel on ``Laurent``
values, against the ``Fraction``-list kernels in ``oracles``."""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from dualcalc import dense
from dualcalc.errors import UsageError
from dualcalc.laurent import Laurent
from oracles import (as_laurent, as_list, canonical, dense_compose, dense_exp,
                     dense_inv, dense_mul, fixed_point_inverse)

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)
series = st.lists(small_frac, min_size=1, max_size=6)
unit_series = series.filter(lambda a: a[0] != 0)
nil_series = series.map(lambda a: [Fraction(0)] + a[1:])
lengths = st.integers(1, 6)


def same(got, want, n):
    """got is a canonical ``Laurent`` truncated below x^n with the
    coefficients of the list want."""
    canonical(got)
    assert all(0 <= k < n for k in got.num)
    assert as_list(got, n) == want


@settings(max_examples=80, deadline=None)
@given(unit_series, lengths)
def test_inverse_times_series_is_one(a, n):
    a = as_laurent(a)
    assert dense.mul(a, dense.inv(a, n), n) == Laurent.const(1)


def test_inverse_needs_nonzero_constant_term():
    with pytest.raises(UsageError):
        dense.inv(Laurent.mono(1), 3)


@settings(max_examples=80, deadline=None)
@given(series, lengths)
def test_compose_with_identity(f, n):
    got = dense.compose(as_laurent(f), Laurent.mono(1), n)
    same(got, (f + [Fraction(0)] * n)[:n], n)


@settings(max_examples=60, deadline=None)
@given(nil_series, lengths)
def test_exp_matches_term_by_term_sum(a, n):
    # a^k vanishes below x^k, so the sum stops at k = n - 1
    a = as_laurent(a)
    expect = Laurent()
    power = Laurent.const(1)
    for k in range(n):
        expect = expect + power.scale(Fraction(1, factorial(k)))
        power = dense.mul(power, a, n)
    assert dense.exp(a, n) == expect


@settings(max_examples=80, deadline=None)
@given(series, series, lengths)
def test_mul_matches_reference(a, b, n):
    same(dense.mul(as_laurent(a), as_laurent(b), n), dense_mul(a, b, n), n)


@settings(max_examples=80, deadline=None)
@given(unit_series, lengths)
@example([Fraction(-3), Fraction(2), Fraction(-1, 2)], 5)
@example([Fraction(-1, 3)], 3)
@example([Fraction(-2, 3), Fraction(4, 3)], 4)
def test_inv_matches_reference(a, n):
    same(dense.inv(as_laurent(a), n), dense_inv(a, n), n)


@settings(max_examples=60, deadline=None)
@given(nil_series, lengths)
def test_exp_matches_reference(a, n):
    same(dense.exp(as_laurent(a), n), dense_exp(a, n), n)


@settings(max_examples=60, deadline=None)
@given(series, nil_series, lengths)
@example([Fraction(1), Fraction(-2, 3), Fraction(1, 2)], [Fraction(0), Fraction(3, 2), Fraction(-4, 3)], 6)
def test_compose_matches_reference(f, g, n):
    same(dense.compose(as_laurent(f), as_laurent(g), n), dense_compose(f, g, n), n)


def test_kernels_ignore_terms_past_the_truncation():
    a = Laurent({0: 1, 1: Fraction(1, 2), 5: 7})
    z = Laurent({1: 1, 4: 3})
    assert dense.mul(a, a, 2) == Laurent({0: 1, 1: 1})
    assert dense.inv(a, 2) == Laurent({0: 1, 1: Fraction(-1, 2)})
    assert dense.exp(z, 2) == Laurent({0: 1, 1: 1})
    assert dense.compose(a, z, 2) == Laurent({0: 1, 1: Fraction(1, 2)})


@settings(max_examples=60, deadline=None)
@given(st.lists(series, max_size=3), st.lists(small_frac, max_size=11), st.integers(1, 12))
@example([[Fraction(1), Fraction(-1, 2), Fraction(3)]], [Fraction(1), Fraction(-2, 3)], 12)
def test_lagrange_matches_fixed_point_inversion(hs, u, n):
    # h = Q gives the inverse itself; each other h is composed with it
    u = as_laurent([Fraction(0)] + u)
    q = as_list(fixed_point_inverse(u, n), n)
    hs = [[Fraction(0), Fraction(1)]] + hs
    got = dense.lagrange([as_laurent(h) for h in hs], u, n)
    assert len(got) == len(hs)
    for g, h in zip(got, hs):
        same(g, dense_compose(h, q, n), n)


def test_lagrange_inverts_the_exponential_map():
    # x = Q e^Q inverts to the Lambert series Q = sum_m (-m)^(m-1) x^m / m!
    (q,) = dense.lagrange([Laurent.mono(1)], Laurent.mono(1), 8)
    assert q == Laurent({m: Fraction((-m) ** (m - 1), factorial(m)) for m in range(1, 8)})
    with pytest.raises(UsageError):
        dense.lagrange([Laurent.mono(1)], Laurent({0: 1, 1: 1}), 3)
