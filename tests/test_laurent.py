"""Property tests for the sparse Laurent kernel over the rationals.

The tau-polynomials of ``series.TauLaurent`` have their own kernel; their
tests live in ``tests/test_series.py``.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc.errors import InternalError
from dualcalc.laurent import Laurent

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polys(min_size=0, max_size=4):
    return st.dictionaries(st.integers(-3, 3), small_frac, min_size=min_size,
                           max_size=max_size).map(Laurent)


@settings(max_examples=80, deadline=None)
@given(polys(), polys().filter(bool))
def test_product_divides_back(a, b):
    q = (a * b).divexact(b)
    assert q == a and type(q) is type(a)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(2).filter(lambda b: len(b.c) > 1), st.integers(-4, 4),
       small_frac.filter(bool))
def test_non_multiple_raises(a, b, k, v):
    # a non-monomial b divides no nonzero monomial, so a*b + v x^k has a remainder
    with pytest.raises(InternalError):
        (a * b + Laurent.mono(k, v)).divexact(b)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_substitutions_are_involutions(a):
    assert a.negate_var().negate_var() == a
    assert a.subs_inverse().subs_inverse() == a


def test_negate_var_and_subs_inverse_values():
    a = Laurent({-1: 2, 0: 1, 3: Fraction(1, 2)})
    assert a.negate_var() == Laurent({-1: -2, 0: 1, 3: Fraction(-1, 2)})
    assert a.subs_inverse() == Laurent({1: 2, 0: 1, -3: Fraction(1, 2)})


def test_zero_coefficients_are_dropped():
    assert Laurent({0: 0, 2: Fraction(0)}) == Laurent()
    assert not (Laurent({1: 1}) - Laurent({1: 1})).c
