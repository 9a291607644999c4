from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from dualcalc.errors import InternalError, UsageError
from dualcalc.laurent import Laurent
from dualcalc.scalars import GaussianRational
from dualcalc.series import TL_ZERO, LambdaSeries, TauLaurent, at, combine
from oracles import as_scalar, canonical, combine_reference, exp_monomial, sin_expand


# -- TauLaurent ---------------------------------------------------------------

def test_tau_basic():
    t = TauLaurent({1: 1, -2: Fraction(1, 3)})
    assert (t - t) == TauLaurent()
    assert t * TauLaurent.const(3) == TauLaurent({1: 3, -2: 1})
    assert t.subs_inverse() == TauLaurent({-1: 1, 2: Fraction(1, 3)})
    assert t.deriv() == TauLaurent({0: 1, -3: Fraction(-2, 3)})
    # its value at tau = 2, read as the lambda'^0 coefficient of a one-term series
    v = at(LambdaSeries.from_map({0: t}, 1), 2)
    assert v == Laurent.const(Fraction(2) + Fraction(1, 12))
    assert v.c == {0: Fraction(25, 12)}


def test_tau_divexact():
    a = TauLaurent({0: 1, 1: 2, 2: 1})   # (1+tau)^2
    b = TauLaurent({0: 1, 1: 1})
    assert a.divexact(b) == b
    with pytest.raises(InternalError):
        TauLaurent({0: 1, 2: 1}).divexact(b)


def test_tau_divexact_laurent_shift():
    a = TauLaurent({-1: 2, 0: 2})
    b = TauLaurent({-1: 1})
    assert a.divexact(b) == TauLaurent({0: 2, 1: 2})


# coefficients against a {k: Fraction} dict model, which TauLaurent turns
# into the value under test
small_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def models(min_size=0, max_size=4):
    return st.dictionaries(st.integers(-3, 3), small_q.filter(bool), min_size=min_size,
                           max_size=max_size)


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


def check(t, model):
    canonical(t)
    assert {k: Fraction(v, t.den) for k, v in t.num.items()} == model
    return t


@settings(max_examples=150, deadline=None)
@given(models(), models())
def test_sum_and_difference_match_model(a, b):
    ta, tb = TauLaurent(a), TauLaurent(b)
    check(ta + tb, _add(a, b))
    check(ta - tb, _add(a, {k: -v for k, v in b.items()}))
    check(-ta, {k: -v for k, v in a.items()})


@settings(max_examples=150, deadline=None)
@given(models(), models())
def test_product_matches_model(a, b):
    check(TauLaurent(a) * TauLaurent(b), _mul(a, b))


@settings(max_examples=150, deadline=None)
@given(models(), st.one_of(st.integers(-5, 5), small_q))
def test_scale_matches_model(a, v):
    check(TauLaurent(a).scale(v), _clean({k: w * v for k, w in a.items()}))


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(-3, 3))
def test_key_operations_match_model(a, d):
    t = TauLaurent(a)
    check(t.shift(d), {k + d: v for k, v in a.items()})
    check(t.deriv(), _clean({k - 1: v * k for k, v in a.items()}))
    check(t.subs_inverse(), {-k: v for k, v in a.items()})


@settings(max_examples=200, deadline=None)
@given(models(), models(), st.one_of(small_q, st.integers(-7, 7)))
@example({0: Fraction(-1, 2), 2: -3}, {}, 0)
@example({-1: 1, 0: 1}, {}, 0)
@example({-2: 3, 1: 1}, {}, Fraction(-2, 3))
@example({0: Fraction(1, 3)}, {1: Fraction(-1, 3)}, 1)
def test_eval_matches_model(a, b, x):
    # the series a lambda'^-1 + b lambda'^2 at tau = x, one Laurent in lambda'
    s = LambdaSeries.from_map({-1: TauLaurent(a), 2: TauLaurent(b)}, 3)
    try:
        expect = {e: sum((v * Fraction(x) ** k for k, v in m.items()), Fraction(0))
                  for e, m in ((-1, a), (2, b))}
    except ZeroDivisionError:
        # a negative power of tau at tau = 0
        with pytest.raises(ZeroDivisionError):
            at(s, x)
        return
    check(at(s, x), _clean(expect))


@settings(max_examples=150, deadline=None)
@given(models(), models(min_size=1))
def test_product_divides_back(a, b):
    check(TauLaurent(_mul(a, b)).divexact(TauLaurent(b)), a)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_non_multiple_raises(data):
    # a non-monomial b divides no nonzero monomial, so a*b + v tau^k has a remainder
    a, b = data.draw(models()), data.draw(models(min_size=2))
    k, v = data.draw(st.integers(-4, 4)), data.draw(small_q.filter(bool))
    with pytest.raises(InternalError):
        TauLaurent(_add(_mul(a, b), {k: v})).divexact(TauLaurent(b))


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(-3, 3))
def test_involutions(a, d):
    t = TauLaurent(a)
    assert t.subs_inverse().subs_inverse() == t
    assert -(-t) == t
    assert t.shift(d).shift(-d) == t


@settings(max_examples=150, deadline=None)
@given(models())
def test_view_round_trip(a):
    # the GaussianRational view reads the rationals back, with no imaginary part
    t = check(TauLaurent(a), a)
    assert t.c == {k: GaussianRational(v) for k, v in a.items()}
    assert TauLaurent({k: v.re for k, v in t.c.items()}) == t


def test_canonical_form_pin():
    half = TauLaurent({0: Fraction(1, 2), 1: Fraction(-3, 4)})
    assert (half.num, half.den) == ({0: 2, 1: -3}, 4)
    # the content cancels against den, in sums, products and scaling
    assert canonical(half + half).den == 2
    assert (half.scale(4).num, half.scale(4).den) == ({0: 2, 1: -3}, 1)
    assert canonical(half * TauLaurent({0: 4})).den == 1
    # a negative scale goes to the numerators; den stays positive
    t = half.scale(Fraction(-2, 3))
    assert (t.num, t.den) == ({0: -2, 1: 3}, 6)
    # zero is unique whatever produced it
    for z in (TauLaurent(), half - half, half.scale(0), TauLaurent({0: 1}).deriv(),
              TauLaurent({0: 0, 1: Fraction(0)}),
              at(LambdaSeries.from_map({0: TauLaurent({0: 1, 1: 1})}, 1), 0) - Laurent.const(1)):
        assert (z.num, z.den) == ({}, 1) and z == TauLaurent()


def test_tau_laurent_adds_only_the_view():
    # every other operation is the kernel's, with no phase; the value at a
    # rational tau is ``series.at``, on a whole series
    assert {k for k in vars(TauLaurent) if not k.startswith("__")} == {"var", "c"}


# -- LambdaSeries -------------------------------------------------------------

def mono(e, v, trunc):
    return LambdaSeries.from_map({e: v}, trunc)


def test_monomial_shift_product():
    # (L + L^2) * L^{-1} = 1 + L
    a = LambdaSeries.from_map({1: 1, 2: 1}, 8)
    b = mono(-1, 1, 8)
    assert (a * b).eq_through(LambdaSeries.from_map({0: 1, 1: 1}, 6), -1, 6)


def test_geometric_series_oracle():
    # sum_k L^k times (1 - L) = 1, checked by direct convolution
    trunc = 8
    geo = LambdaSeries.from_map({k: 1 for k in range(trunc)}, trunc)
    one_minus = LambdaSeries.from_map({0: 1, 1: -1}, trunc)
    prod = geo * one_minus
    expect = LambdaSeries.one(prod.trunc)
    assert prod.eq_through(expect, 0, prod.trunc)


def test_sin_expand_values():
    # m=1, trunc 4: L - L^3/24
    s = sin_expand(1, 4)
    assert as_scalar(s.coeff(1)) == GaussianRational(1)
    assert as_scalar(s.coeff(2)) == GaussianRational(0)
    assert as_scalar(s.coeff(3)) == GaussianRational(Fraction(-1, 24))
    assert sin_expand(0, 5).is_exact_zero()
    for d in (1, 2, 5):
        assert as_scalar(sin_expand(d, 6).coeff(1)) == GaussianRational(d)


def test_exp_monomial_matches_series_exp():
    # exp(c L^e) has c^k/k! at L^{k e} and nothing elsewhere
    c = Fraction(3, 2)
    for e in (1, 2, 3):
        a = exp_monomial(c, e, 8)
        assert (a.floor, a.trunc) == (0, 8)
        for j in range(8):
            k, r = divmod(j, e)
            expect = c ** k / factorial(k) if not r else 0
            assert as_scalar(a.coeff(j)) == GaussianRational(expect), (e, j)
    with pytest.raises(UsageError):
        exp_monomial(c, 0, 8)


def _framing_one_reference(kap, trunc):
    """e^{(tau + 1/2) kap L / 2}: (tau + 1/2)^m by Pascal's rule."""
    co, pasc = {}, [Fraction(1)]
    for m in range(trunc):
        scalar = Fraction(kap, 2) ** m / factorial(m)
        co[m] = TauLaurent({j: scalar * v for j, v in enumerate(pasc)})
        nxt = [Fraction(0)] * (m + 2)
        for j, v in enumerate(pasc):
            nxt[j] += v / 2
            nxt[j + 1] += v
        pasc = nxt
    return LambdaSeries.from_map(co, trunc)


def _framing_two_reference(kp, km, trunc):
    """e^{(kp tau + km / tau) L / 2}: (kp tau + km / tau)^m expanded binomially."""
    co = {}
    for m in range(trunc):
        scalar = Fraction(1, 2) ** m / factorial(m)
        co[m] = TauLaurent({2 * j - m: scalar * (comb(m, j) * kp ** j * km ** (m - j))
                            for j in range(m + 1)})
    return LambdaSeries.from_map(co, trunc)


# the framing exponentials of hodge, which are real in lambda' = i lambda
@pytest.mark.parametrize("kap", [-6, -2, 0, 2, 4, 12])
def test_exp_monomial_tau_coefficient_framing_one(kap):
    got = exp_monomial(TauLaurent({0: Fraction(kap, 4), 1: Fraction(kap, 2)}), 1, 9)
    expect = _framing_one_reference(kap, 9)
    assert (got.floor, got.trunc) == (expect.floor, expect.trunc)
    assert got.co == expect.co


@pytest.mark.parametrize("kp,km", [(0, 0), (2, 0), (0, -2), (4, -6), (-2, 2), (6, 6)])
def test_exp_monomial_tau_coefficient_framing_two(kp, km):
    got = exp_monomial(TauLaurent({1: Fraction(kp, 2), -1: Fraction(km, 2)}), 1, 8)
    expect = _framing_two_reference(kp, km, 8)
    assert (got.floor, got.trunc) == (expect.floor, expect.trunc)
    assert got.co == expect.co


def test_tau_plumbing_on_series():
    s = LambdaSeries.from_map({0: TauLaurent({1: 1}), 2: TauLaurent({-1: 2})}, 5)
    d = s.tau_deriv()
    assert d.coeff(0) == TauLaurent.const(1)
    assert d.coeff(2) == TauLaurent({-2: -2})
    e = at(s, Fraction(1, 2))
    assert e == Laurent({0: Fraction(1, 2), 2: 4})
    inv = s.tau_inverse()
    assert inv.coeff(0) == TauLaurent({-1: 1})


def _tau_graded(s):
    """s with tau^e put on its lambda^e coefficient: its value at tau = c is
    s(c lambda) at tau = c."""
    return LambdaSeries(s.floor, [t.shift(e) for e, t in enumerate(s.co, s.floor)])


def test_subst_scale():
    # lambda -> c lambda of a tau-free series is ``at`` on the tau-graded series
    s = LambdaSeries.from_map({-1: 1, 2: 3}, 4)
    assert at(_tau_graded(s), Fraction(2)) == Laurent({-1: Fraction(1, 2), 2: 12})


small_frac = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def series_strategy(floor=-2, trunc=5):
    n = trunc - floor
    return st.lists(small_frac, min_size=n, max_size=n).map(
        lambda cs: LambdaSeries(floor, [TauLaurent.const(c) for c in cs]))


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_series_ring_axioms(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    lo, hi = lhs.window_with(rhs)
    assert lhs.eq_through(rhs, lo, hi)
    d1 = a * (b + c)
    d2 = a * b + a * c
    lo, hi = d1.window_with(d2)
    assert d1.eq_through(d2, lo, hi)


# -- combine against the pairwise fold -----------------------------------------

@st.composite
def random_series(draw):
    """An exact zero, an all-zero sentinel, or a window of random coefficients."""
    kind = draw(st.sampled_from(["window", "window", "window", "exact-zero", "sentinel"]))
    if kind == "exact-zero":
        return LambdaSeries(0, [])
    floor = draw(st.integers(-3, 2))
    trunc = draw(st.integers(floor + 1, floor + 6))
    if kind == "sentinel":
        return LambdaSeries(trunc - 1, [TL_ZERO])
    co = []
    for e in range(floor, trunc):
        num = draw(st.dictionaries(st.integers(-2, 2), st.integers(-6, 6), max_size=3))
        den = draw(st.integers(1, 6))
        co.append(TauLaurent({k: Fraction(v, den) for k, v in num.items()}))
    return LambdaSeries(floor, co)


@st.composite
def combine_terms(draw):
    """One to four (c, a, b) terms, plus negated copies of some of them."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.one_of(st.sampled_from([0, 1, -1]), small_q))
        b = draw(random_series()) if draw(st.booleans()) else None
        terms.append((c, draw(random_series()), b))
    for c, a, b in draw(st.lists(st.sampled_from(terms), max_size=2)):
        terms.append((-c, a, b))
    return terms


def same_series(x, y):
    """Equal coefficients over equal windows; exact zeros agree whatever their floor."""
    if not x.co or not y.co:
        return not x.co and not y.co
    return x.floor == y.floor and x.co == y.co


# a window with a leading zero, so that a lone term shows whether it was pruned
_LONE = LambdaSeries(-2, [TL_ZERO, TauLaurent({0: 1, 1: Fraction(1, 2)}), TauLaurent({2: 3})])


@settings(max_examples=200, deadline=None)
@given(combine_terms())
@example([(1, _LONE, None)])
@example([(Fraction(-2, 3), _LONE, None)])
@example([(1, _LONE, None), (0, _LONE, None)])
@example([(-1, LambdaSeries(0, []), None), (-1, _LONE, None)])
@example([(1, LambdaSeries(4, [TL_ZERO]), None)])
def test_combine_matches_pairwise_fold(terms):
    got = combine(terms)
    assert same_series(got, combine_reference(terms))
    for c in got.co:
        canonical(c)


# -- lambda -> c lambda and tau = c against Fraction powers --------------------

def _subst_scale_reference(s, c):
    """s(c lambda) at tau = c through Fraction powers, negative ones included."""
    return Laurent({e: sum((Fraction(v, t.den) * Fraction(c) ** (k + e)
                            for k, v in t.num.items()), Fraction(0))
                    for e, t in enumerate(s.co, s.floor)})


# c for lambda -> c lambda, three of them negative
SCALES = [3, Fraction(-2, 3), Fraction(-1, 2), Fraction(5, 2), -1]


@pytest.mark.parametrize("c", SCALES, ids=[f"c{i}" for i in range(len(SCALES))])
def test_subst_scale_matches_gaussian_powers(c):
    s = LambdaSeries(-3, [TauLaurent({-1: Fraction(1, 3), 2: 5}), TauLaurent({0: 2}), TL_ZERO,
                          TauLaurent({1: Fraction(-7, 2)}), TauLaurent({3: 1, 0: -4})])
    got = at(_tau_graded(s), c)
    assert got == _subst_scale_reference(s, c)
    canonical(got)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCALES), random_series())
def test_subst_scale_matches_gaussian_powers_on_random_windows(c, s):
    got = at(_tau_graded(s), c)
    assert got == _subst_scale_reference(s, c)
    canonical(got)
