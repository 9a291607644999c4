"""Property tests for the one sparse Laurent kernel, over both of its rings."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc.errors import InternalError
from dualcalc.laurent import Laurent
from dualcalc.scalars import GaussianRational
from dualcalc.series import TauLaurent

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_gauss = st.builds(GaussianRational, small_frac, small_frac)
RINGS = {Laurent: small_frac, TauLaurent: small_gauss}


def polys(cls, min_size=0, max_size=4):
    return st.dictionaries(st.integers(-3, 3), RINGS[cls], min_size=min_size,
                           max_size=max_size).map(cls)


def with_class(build):
    return st.sampled_from(sorted(RINGS, key=lambda c: c.__name__)).flatmap(build)


@settings(max_examples=80, deadline=None)
@given(with_class(lambda cls: st.tuples(polys(cls), polys(cls).filter(bool))))
def test_product_divides_back(ab):
    a, b = ab
    q = (a * b).divexact(b)
    assert q == a and type(q) is type(a)


@settings(max_examples=80, deadline=None)
@given(with_class(lambda cls: st.tuples(
    polys(cls), polys(cls, 2).filter(lambda b: len(b.c) > 1),
    st.integers(-4, 4), RINGS[cls].filter(bool))))
def test_non_multiple_raises(case):
    # a non-monomial b divides no nonzero monomial, so a*b + v x^k has a remainder
    a, b, k, v = case
    with pytest.raises(InternalError):
        (a * b + type(a).mono(k, v)).divexact(b)


@settings(max_examples=80, deadline=None)
@given(with_class(polys))
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
