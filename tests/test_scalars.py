from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from dualcalc.qfunc import bernoulli
from dualcalc.scalars import GR_I, GR_ONE, GaussianRational


def test_i_squared():
    assert GR_I * GR_I == GaussianRational(-1)


def test_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == GR_ONE


small = st.fractions(min_value=-50, max_value=50, max_denominator=10)
gauss = st.builds(GaussianRational, small, small)


@given(gauss, gauss, gauss)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


# B_n values computed independently from the defining recurrence
# sum_{k=0}^{n} C(n+1,k) B_k = 0 with B_0 = 1.
def _bern_oracle(n):
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(comb(m + 1, k) * vals[k] for k in range(m))
        vals.append(-s / (m + 1))
    return vals[n]


@pytest.mark.parametrize("n,expect", [(0, Fraction(1)), (2, Fraction(1, 6)), (4, Fraction(-1, 30))])
def test_bernoulli_small(n, expect):
    assert bernoulli(n) == expect
    assert bernoulli(n) == _bern_oracle(n)


def test_bernoulli_convention():
    assert bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_recurrence_holds():
    for n in range(1, 31):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0
