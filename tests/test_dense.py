"""Property tests for the dense truncated-series kernel."""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc import dense
from dualcalc.errors import UsageError

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)
series = st.lists(small_frac, min_size=1, max_size=6)
lengths = st.integers(1, 6)


@settings(max_examples=80, deadline=None)
@given(series.filter(lambda a: a[0] != 0), lengths)
def test_inverse_times_series_is_one(a, n):
    assert dense.mul(a, dense.inv(a, n), n) == [1] + [0] * (n - 1)


def test_inverse_needs_nonzero_constant_term():
    with pytest.raises(UsageError):
        dense.inv([Fraction(0), Fraction(1)], 3)


@settings(max_examples=80, deadline=None)
@given(series, lengths)
def test_compose_with_identity(f, n):
    identity = [Fraction(0), Fraction(1)] + [Fraction(0)] * n
    assert dense.compose(f, identity, n) == (f + [Fraction(0)] * n)[:n]


@settings(max_examples=60, deadline=None)
@given(series.map(lambda a: [Fraction(0)] + a[1:]), lengths)
def test_exp_matches_term_by_term_sum(a, n):
    # a^k vanishes below x^k, so the sum stops at k = n - 1
    expect = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(n):
        expect = [x + y / factorial(k) for x, y in zip(expect, power)]
        power = dense.mul(power, a, n)
    assert dense.exp(a, n) == expect
