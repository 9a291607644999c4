import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dualcalc import series
from dualcalc.errors import InternalError, UsageError
from dualcalc.scalars import GaussianRational
from dualcalc.series import TL_ZERO, LambdaSeries, TauLaurent, combine, exp_monomial
from oracles import as_scalar, canonical, combine_reference, sin_expand, tau_from_model


# -- TauLaurent ---------------------------------------------------------------

def test_tau_basic():
    t = TauLaurent({1: 1, -2: Fraction(1, 3)})
    assert (t - t) == TauLaurent()
    assert t * TauLaurent.const(3) == TauLaurent({1: 3, -2: 1})
    assert t.subs_inverse() == TauLaurent({-1: 1, 2: Fraction(1, 3)})
    assert t.deriv() == TauLaurent({0: 1, -3: Fraction(-2, 3)})
    assert t.eval(2) == TauLaurent.const(Fraction(2) + Fraction(1, 12))
    assert as_scalar(t.eval(2)) == GaussianRational(Fraction(2) + Fraction(1, 12))


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


# phase-pure coefficients i^ph * q, against a {k: GaussianRational} dict model
# that oracles.tau_from_model turns into the value under test
I_POW = [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
         GaussianRational(0, -1)]
small_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
phases = st.integers(0, 3)


def models(ph, min_size=0, max_size=4):
    return st.dictionaries(st.integers(-3, 3), small_q.filter(bool), min_size=min_size,
                           max_size=max_size).map(
        lambda d: {k: I_POW[ph] * v for k, v in d.items()})


def phased_models(min_size=0, max_size=4):
    return phases.flatmap(lambda ph: models(ph, min_size, max_size))


def same_phase_pair():
    return phases.flatmap(lambda ph: st.tuples(models(ph), models(ph)))


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
    assert t.c == model
    return t


@settings(max_examples=150, deadline=None)
@given(same_phase_pair())
def test_sum_and_difference_match_model(ab):
    a, b = ab
    ta, tb = tau_from_model(a), tau_from_model(b)
    check(ta + tb, _add(a, b))
    check(ta - tb, _add(a, {k: -v for k, v in b.items()}))
    check(-ta, {k: -v for k, v in a.items()})


@settings(max_examples=150, deadline=None)
@given(phased_models(), phased_models())
def test_product_matches_model(a, b):
    check(tau_from_model(a) * tau_from_model(b), _mul(a, b))


@settings(max_examples=150, deadline=None)
@given(phased_models(), st.one_of(st.integers(-5, 5), small_q), st.integers(-5, 5))
def test_scale_matches_model(a, v, ph):
    check(tau_from_model(a).scale(v, ph), _clean({k: w * I_POW[ph % 4] * v for k, w in a.items()}))


@settings(max_examples=150, deadline=None)
@given(phased_models(), st.integers(-3, 3))
def test_key_operations_match_model(a, d):
    t = tau_from_model(a)
    check(t.shift(d), {k + d: v for k, v in a.items()})
    check(t.deriv(), _clean({k - 1: v * k for k, v in a.items()}))
    check(t.subs_inverse(), {-k: v for k, v in a.items()})


@settings(max_examples=200, deadline=None)
@given(phased_models(), st.one_of(small_q, st.integers(-7, 7)))
@example({0: I_POW[3] * Fraction(1, 2), 2: I_POW[3] * 3}, 0)
@example({-1: I_POW[0], 0: I_POW[0]}, 0)
@example({-2: I_POW[1] * 3, 1: I_POW[1]}, Fraction(-2, 3))
def test_eval_matches_model(a, x):
    g = GaussianRational.coerce(x)
    expect = GaussianRational(0)
    t = tau_from_model(a)
    try:
        for k, v in a.items():
            expect = expect + v * g ** k
    except ZeroDivisionError:
        # a negative power of tau at tau = 0
        with pytest.raises(ZeroDivisionError):
            t.eval(x)
        return
    got = canonical(t.eval(x))
    assert set(got.num) <= {0}
    assert as_scalar(got) == expect


@settings(max_examples=150, deadline=None)
@given(phased_models(), phased_models(min_size=1))
def test_product_divides_back(a, b):
    check(tau_from_model(_mul(a, b)).divexact(tau_from_model(b)), a)


@settings(max_examples=150, deadline=None)
@given(phases, phases, st.data())
def test_non_multiple_raises(pa, pb, data):
    # a non-monomial b divides no nonzero monomial, so a*b + v tau^k has a
    # remainder; the monomial takes the product's phase, so the sum is phase-pure
    a, b = data.draw(models(pa)), data.draw(models(pb, min_size=2))
    k, v = data.draw(st.integers(-4, 4)), data.draw(small_q.filter(bool))
    with pytest.raises(InternalError):
        tau_from_model(_add(_mul(a, b), {k: I_POW[(pa + pb) % 4] * v})).divexact(
            tau_from_model(b))


@settings(max_examples=150, deadline=None)
@given(phased_models(), st.integers(-3, 3))
def test_involutions(a, d):
    t = tau_from_model(a)
    assert t.subs_inverse().subs_inverse() == t
    assert -(-t) == t
    assert t.shift(d).shift(-d) == t


@settings(max_examples=150, deadline=None)
@given(phased_models())
def test_view_round_trip(a):
    t = check(tau_from_model(a), a)
    assert tau_from_model(t.c) == t
    if not t.ph:
        assert TauLaurent({k: v.re for k, v in a.items()}) == t


def test_canonical_form_pin():
    half = TauLaurent({0: Fraction(1, 2), 1: Fraction(-3, 4)})
    assert (half.ph, half.num, half.den) == (0, {0: 2, 1: -3}, 4)
    # the content cancels against den, in sums, products and scaling
    assert canonical(half + half).den == 2
    assert (half.scale(4).num, half.scale(4).den) == ({0: 2, 1: -3}, 1)
    assert canonical(half * TauLaurent({0: 4})).den == 1
    # i^2 = -1 folds into the numerator; i^3 = -i keeps phase 1
    t = TauLaurent({2: Fraction(2, 3)}).scale(1, 1).scale(1, 1)
    assert (t.ph, t.num, t.den) == (0, {2: -2}, 3)
    t = TauLaurent.phased(1, {0: 5}).scale(1, 2)
    assert (t.ph, t.num, t.den) == (1, {0: -5}, 1)
    t = TauLaurent.phased(-1, {0: Fraction(1, 2)})
    assert (t.ph, t.num, t.den) == (1, {0: -1}, 2)
    # zero is unique whatever produced it
    i = TauLaurent.phased(1, {0: 1})
    for z in (TauLaurent(), half - half, i - i, half.scale(0), i.scale(0, 1),
              TauLaurent({0: 1}).deriv(), TauLaurent({0: 0, 1: Fraction(0)}),
              TauLaurent.phased(1, {})):
        assert (z.ph, z.num, z.den) == (0, {}, 1) and z == TauLaurent()


def test_mixed_phase_raises():
    i = TauLaurent.phased(1, {0: 1})
    with pytest.raises(UsageError):
        TauLaurent({0: 1}) + i.shift(1)
    with pytest.raises(UsageError):
        TauLaurent({0: 1}) - i
    # adding zero of any phase is fine
    assert i + TauLaurent() == i


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
    """e^{i (tau + 1/2) kap L / 2}: (tau + 1/2)^m by Pascal's rule."""
    co, pasc = {}, [Fraction(1)]
    for m in range(trunc):
        scalar = GaussianRational(0, Fraction(kap, 2)) ** m
        co[m] = tau_from_model({j: scalar * (v / factorial(m)) for j, v in enumerate(pasc)})
        nxt = [Fraction(0)] * (m + 2)
        for j, v in enumerate(pasc):
            nxt[j] += v / 2
            nxt[j + 1] += v
        pasc = nxt
    return LambdaSeries.from_map(co, trunc)


def _framing_two_reference(kp, km, trunc):
    """e^{i (kp tau + km / tau) L / 2}: (kp tau + km / tau)^m expanded binomially."""
    co = {}
    for m in range(trunc):
        scalar = GaussianRational(0, Fraction(1, 2)) ** m / factorial(m)
        co[m] = tau_from_model({2 * j - m: scalar * (comb(m, j) * kp ** j * km ** (m - j))
                                for j in range(m + 1)})
    return LambdaSeries.from_map(co, trunc)


@pytest.mark.parametrize("kap", [-6, -2, 0, 2, 4, 12])
def test_exp_monomial_tau_coefficient_framing_one(kap):
    got = exp_monomial(TauLaurent.phased(1, {0: Fraction(kap, 4), 1: Fraction(kap, 2)}), 1, 9)
    expect = _framing_one_reference(kap, 9)
    assert (got.floor, got.trunc) == (expect.floor, expect.trunc)
    assert got.co == expect.co


@pytest.mark.parametrize("kp,km", [(0, 0), (2, 0), (0, -2), (4, -6), (-2, 2), (6, 6)])
def test_exp_monomial_tau_coefficient_framing_two(kp, km):
    got = exp_monomial(TauLaurent.phased(1, {1: Fraction(kp, 2), -1: Fraction(km, 2)}), 1, 8)
    expect = _framing_two_reference(kp, km, 8)
    assert (got.floor, got.trunc) == (expect.floor, expect.trunc)
    assert got.co == expect.co


def test_tau_plumbing_on_series():
    s = LambdaSeries.from_map({0: TauLaurent({1: 1}), 2: TauLaurent({-1: 2})}, 5)
    d = s.tau_deriv()
    assert d.coeff(0) == TauLaurent.const(1)
    assert d.coeff(2) == TauLaurent({-2: -2})
    e = s.tau_eval(Fraction(1, 2))
    assert e.coeff(2) == TauLaurent.const(4)
    inv = s.tau_inverse()
    assert inv.coeff(0) == TauLaurent({-1: 1})


def test_subst_scale():
    s = LambdaSeries.from_map({-1: 1, 2: 3}, 4)
    t = s.subst_scale(Fraction(2), 0)
    assert as_scalar(t.coeff(-1)) == GaussianRational(Fraction(1, 2))
    assert as_scalar(t.coeff(2)) == GaussianRational(12)


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
def phased_series(draw, ph, alt):
    """An exact zero, an all-zero sentinel, or a window of random coefficients
    whose lambda^e coefficient has phase ph + alt*e."""
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
        co.append(TauLaurent.phased((ph + alt * e) % 2,
                                    {k: Fraction(v, den) for k, v in num.items()}))
    return LambdaSeries(floor, co)


@st.composite
def combine_terms(draw):
    """One to four (c, a, b) terms, plus negated copies of some of them.  Every
    product or scaled coefficient on lambda^e has phase ph + alt*e, counting a
    product of two phase-1 values as phase 0, so no order of the pairwise fold
    mixes phases."""
    ph, alt = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.one_of(st.sampled_from([0, 1, -1]), small_q))
        if draw(st.booleans()):
            terms.append((c, draw(phased_series(ph, alt)), None))
        else:
            pa = draw(st.integers(0, 1))
            terms.append((c, draw(phased_series(pa, alt)), draw(phased_series(ph - pa, alt))))
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


_TAU = LambdaSeries.from_map({0: TauLaurent({1: 1})}, 3)
_ONE = LambdaSeries.one(3)
_I = LambdaSeries.from_map({0: TauLaurent.phased(1, {0: 1})}, 3)


def test_phase_rule_is_order_free():
    # two real products cancel next to an imaginary one: no order raises
    for terms in permutations([(1, _ONE, _TAU), (-1, _TAU, _ONE), (1, _I, _TAU)]):
        assert same_series(combine(terms), _I * _TAU)
    # both phases survive: every order raises
    for terms in permutations([(1, _ONE, _TAU), (2, _TAU, _ONE), (1, _I, _TAU)]):
        with pytest.raises(UsageError, match="different phase"):
            combine(terms)


_PHASE_UNDER_O = """
from dualcalc.errors import UsageError
from dualcalc.series import LambdaSeries, TauLaurent, combine
tau = LambdaSeries.from_map({0: TauLaurent({1: 1})}, 3)
i = LambdaSeries.from_map({0: TauLaurent.phased(1, {0: 1})}, 3)
try:
    combine([(1, LambdaSeries.one(3), tau), (1, i, tau)])
except UsageError as exc:
    print(exc)
"""


def test_phase_rule_holds_under_optimize():
    src = str(Path(series.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _PHASE_UNDER_O], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=120)
    assert out.stdout.strip() == "adding tau-polynomials of different phase"


# -- lambda -> i^ph c lambda against GaussianRational powers -------------------

def _subst_scale_reference(s, c, ph):
    """lambda -> i^ph c lambda through GaussianRational powers, negative ones included."""
    g = I_POW[ph % 4] * c
    return s.map_coeffs(lambda e, t: tau_from_model({k: v * g ** e for k, v in t.c.items()}))


# (c, ph) for lambda -> i^ph c lambda
SCALES = [(3, 1), (Fraction(-2, 3), 0), (Fraction(-1, 2), 1), (Fraction(5, 2), -1), (-1, 2)]


@pytest.mark.parametrize("c", SCALES)
def test_subst_scale_matches_gaussian_powers(c):
    s = LambdaSeries(-3, [TauLaurent({-1: Fraction(1, 3), 2: 5}), TauLaurent({0: 2}), TL_ZERO,
                          TauLaurent.phased(1, {1: Fraction(-7, 2)}), TauLaurent({3: 1, 0: -4})])
    got, want = s.subst_scale(*c), _subst_scale_reference(s, *c)
    assert (got.floor, got.trunc, got.co) == (want.floor, want.trunc, want.co)
    for t in got.co:
        canonical(t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCALES), phased_series(0, 0) | phased_series(1, 1))
def test_subst_scale_matches_gaussian_powers_on_random_windows(c, s):
    got, want = s.subst_scale(*c), _subst_scale_reference(s, *c)
    assert (got.floor, got.trunc, got.co) == (want.floor, want.trunc, want.co)
