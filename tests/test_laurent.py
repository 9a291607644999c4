"""Model tests for the integer polynomial kernel of ``dualcalc.laurent``.

``Laurent`` holds integer numerators over one denominator; it is checked
here against a plain {exponent: Fraction} dict model, and every result is
checked to be in canonical form.  ``TauLaurent`` and the mirror module's
nilpotent rings share the kernel; their model tests live in
``tests/test_series.py`` and ``tests/test_mirror.py``.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc.errors import InternalError
from dualcalc.laurent import Laurent
from oracles import canonical

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def models(min_size=0, max_size=4):
    return st.dictionaries(st.integers(-3, 3), small_frac.filter(bool),
                           min_size=min_size, max_size=max_size)


def polys(min_size=0, max_size=4):
    return models(min_size, max_size).map(Laurent)


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _add(a, b):
    return _clean({k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}})


def _mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return _clean(out)


def check(p, model):
    canonical(p)
    assert type(p) is Laurent and p.c == model
    return p


@settings(max_examples=100, deadline=None)
@given(models(), models(), st.one_of(st.integers(-5, 5), small_frac), st.integers(-3, 3))
def test_operations_match_model(a, b, v, d):
    pa, pb = check(Laurent(a), a), Laurent(b)
    check(pa + pb, _add(a, b))
    check(pa - pb, _add(a, {k: -w for k, w in b.items()}))
    check(-pa, {k: -w for k, w in a.items()})
    check(pa * pb, _mul(a, b))
    check(pa.scale(v), _clean({k: w * v for k, w in a.items()}))
    check(pa.shift(d), {k + d: w for k, w in a.items()})
    check(pa.deriv(), _clean({k - 1: w * k for k, w in a.items()}))
    check(pa.subs_inverse(), {-k: w for k, w in a.items()})


# divisors with integer numerators times a content: leading coefficients of
# either sign that need not divide the dividend's numerators
divisors = st.one_of(
    polys(1),
    st.tuples(st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), min_size=1,
                              max_size=3).map(Laurent).filter(bool),
              st.sampled_from([-3, -2, 1, 2, 3])).map(lambda t: t[0].scale(t[1])))


@settings(max_examples=100, deadline=None)
@given(models(), divisors.filter(bool))
def test_product_divides_back(a, b):
    check((Laurent(a) * b).divexact(b), a)


@pytest.mark.parametrize("a,b,q", [
    ({0: 1, 1: 1}, {0: 2, 1: 2}, {0: Fraction(1, 2)}),
    ({0: 3, 1: 1, 2: -2}, {0: 3, 1: -2}, {0: 1, 1: 1}),
    ({0: Fraction(1, 3), 2: Fraction(-1, 3)}, {0: -3, 1: -3}, {0: Fraction(-1, 9),
                                                            1: Fraction(1, 9)}),
    ({-1: 5}, {2: Fraction(-5, 2)}, {-3: -2}),
], ids=["non-primitive", "negative-lead", "rational", "monomial"])
def test_divexact_values(a, b, q):
    check(Laurent(a).divexact(Laurent(b)), q)


@settings(max_examples=100, deadline=None)
@given(polys(), divisors.filter(lambda b: len(b.num) > 1), st.integers(-4, 4),
       small_frac.filter(bool))
def test_non_multiple_raises(a, b, k, v):
    # a non-monomial b divides no nonzero monomial, so a*b + v x^k has a remainder
    with pytest.raises(InternalError):
        (a * b + Laurent({k: v})).divexact(b)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_substitutions_are_involutions(a):
    assert a.subs_inverse().subs_inverse() == a


def test_subs_inverse_values():
    a = Laurent({-1: 2, 0: 1, 3: Fraction(1, 2)})
    assert a.subs_inverse() == Laurent({1: 2, 0: 1, -3: Fraction(1, 2)})


def test_zero_coefficients_are_dropped():
    assert Laurent({0: 0, 2: Fraction(0)}) == Laurent()
    assert not (Laurent({1: 1}) - Laurent({1: 1})).c
    canonical(Laurent({1: Fraction(1, 3)}) - Laurent({1: Fraction(1, 3)}))
