from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc.errors import InternalError, UsageError, VerificationFailure
from dualcalc.laurent import Laurent
from dualcalc import mirror, verify
from dualcalc.nilpotent import XPoly
from dualcalc.mirror import (candelas, gr23_matches_p2, hg_projective,
                             hori_vafa_series, mirror_map_round_trip,
                             toric_b_series, _inv_linear_power)
from dualcalc.vertex import gv_forward, gv_invert
from oracles import (bialternant_reference, canonical, gr_loc_sum, quintic_hg_reference,
                     toric_b_series_reference)

F = Fraction
AL_ONE = Laurent.const(1)


# -- quintic ------------------------------------------------------------------

def test_quintic_leading_values():
    # read through the H -> -H bridge: [H^h t^j] of f_{h-1} is -(-1)^h b
    b = quintic_toric(1)
    # d = 0: the k = 0 factor keeps the overall 5
    assert b[(0,)][((1,), (0,))] == 5
    # coefficient of e^t in f0: 5 * 5! = 600
    assert b[(1,)][((1,), (0,))] == 600
    # all d = 0 log-dependence comes from e^{Ht}: f1 = 5 t at d = 0
    assert -b[(0,)][((2,), (1,))] == 5 and ((2,), (0,)) not in b[(0,)]


def _genus0(values):
    """{(0, d): v_d} for the genus-0 case of the GV inversion."""
    return {(0, d): v for d, v in enumerate(values, 1)}


def test_candelas_structure():
    data = candelas(4)
    assert data["cubic"] == F(5, 6)
    assert len(data["K"]) == 4
    # the genus-0 inversion of the computed coefficients is integral
    n = gv_invert(_genus0(data["K"]), 4, 0)
    assert all(isinstance(v, int) for v in n.values())


def _perturbed_k(monkeypatch, index, delta):
    real = mirror.candelas

    def perturbed(d_max):
        data = dict(real(d_max))
        data["K"] = [v + delta if i == index else v for i, v in enumerate(data["K"])]
        return data

    monkeypatch.setattr(mirror, "candelas", perturbed)


def test_candelas_check_compares_the_instanton_numbers(monkeypatch):
    assert verify.check_candelas("full") == (True, {"cubic": "5/6", "degrees": 5})
    assert verify.check_candelas("quick") == (True, {"cubic": "5/6", "degrees": 3})
    # K_5 + 1 inverts to n_5 + 1 (5 is prime): integral, but not the published count
    _perturbed_k(monkeypatch, 4, 1)
    assert verify.check_candelas("full") == (False, {
        "failed": "instanton-numbers",
        "n": [2875, 609250, 317206375, 242467530000, 229305888887626]})


def test_candelas_check_requires_integral_instanton_numbers(monkeypatch):
    _perturbed_k(monkeypatch, 2, F(1, 2))
    ok, detail = verify.check_candelas("quick")
    assert not ok and detail["failed"] == "instanton-integrality"
    assert "n_3" in detail["error"]


def test_mirror_map_round_trip():
    assert mirror_map_round_trip(3)


def test_multiple_cover_inversion():
    # genus 0 of the GV resummation: K_d = sum_{k | d} n_{d/k} / k^3
    assert gv_invert(_genus0([F(7)]), 1, 0) == _genus0([7])
    assert gv_invert(_genus0([F(0), F(0), F(0)]), 3, 0) == _genus0([0, 0, 0])
    synth = _genus0([4, -9, 11, 0, 2, 31])
    assert gv_invert(gv_forward(synth, 6, 0), 6, 0) == synth
    with pytest.raises(VerificationFailure):
        gv_invert(_genus0([F(1, 2)]), 1, 0)


# -- toric --------------------------------------------------------------------

def quintic_toric(d_max):
    return toric_b_series([("H", 5)], [[5]], [[1]] * 5, d_max)


def test_toric_specializes_to_quintic():
    # flipping the generator sign sends the toric series to minus the
    # quintic series (the e^{+-Ht} convention bridge), term for term
    b = quintic_toric(10)
    f = quintic_hg_reference(10)
    assert sorted(b) == [(d,) for d in range(11)]
    for d in range(11):
        flipped = {((h,), (j,)): -(-1) ** h * c
                   for h in range(1, 5) for j, c in enumerate(f[h - 1][d]) if c}
        assert b[(d,)] == flipped, d


# two generators; the second spec has a divisor with a negative pairing,
# so some factors move from the denominator to the numerator
TWO_GENERATOR_SPECS = [
    ([("H1", 2), ("H2", 2)], [[2, 2]], [[1, 0], [1, 0], [0, 1], [0, 1]], 3),
    ([("H1", 3), ("H2", 2)], [[1, 1]], [[1, 0], [1, -1], [0, 1], [0, 1]], 3),
]


@pytest.mark.parametrize("gens,bundles,divisors,d_max", TWO_GENERATOR_SPECS)
def test_two_generator_toric_matches_reference(gens, bundles, divisors, d_max):
    got = toric_b_series(gens, bundles, divisors, d_max)
    assert got == toric_b_series_reference(gens, bundles, divisors, d_max)
    assert len(got) == (d_max + 1) * (d_max + 2) // 2
    assert all(got.values())


@pytest.mark.parametrize("gens,d_max", [([("H", 5)], -1), ([], 1), ([("H", 0)], 1),
                                         ([("H1", 2), ("H2", 0)], 1)])
def test_toric_degenerate_input_raises_before_any_work(gens, d_max, monkeypatch):
    def no_work(*_args):
        raise AssertionError("a degree was enumerated")

    monkeypatch.setattr(mirror, "compositions", no_work)
    vec = [1] * len(gens)
    with pytest.raises(UsageError):
        toric_b_series(gens, [vec], [vec], d_max)


def test_toric_p1_degree_one():
    b = toric_b_series([("H", 2)], [[2]], [[1], [1]], 1)
    # the k = 0 numerator factor keeps the overall first Chern class at d=0,
    # matching the quintic convention (the display's product starts at k=0)
    assert b[(0,)] == {((1,), (0,)): F(2)}
    # slice: 2H(2H-1)(2H-2)/(H-1)^2 = 4H; e^{-Ht} does not correct at H^1 t^0
    assert b[(1,)][((1,), (0,))] == 4
    assert ((0,), (0,)) not in b[(1,)]


def test_toric_convexity_guard():
    with pytest.raises(UsageError):
        toric_b_series([("H", 2)], [[-1]], [[1], [1]], 1)


# -- projective / Grassmannian -----------------------------------------------

def test_hg_projective_degree_zero():
    p = hg_projective(3, 1)
    # pure e^{-tx/alpha}: coefficient of x^j t^j is (-1)^j/j! alpha^{-j}
    assert p[0].c[(0, 0, 0)] == AL_ONE
    assert p[0].c[(1, 0, 1)] == Laurent.mono(-1, -1)
    assert p[0].c[(2, 0, 2)] == Laurent.mono(-2, F(1, 2))


def test_hg_projective_p1_degree_one():
    # 1/(x - alpha)^2 = alpha^{-2} (1 + 2x/alpha + ...) with x^2 = 0
    p = hg_projective(2, 1)
    assert p[1].c[(0, 0, 0)] == Laurent.mono(-2)
    assert p[1].c[(1, 0, 0)] == Laurent.mono(-3, 2)


def test_hg_projective_alpha_homogeneity():
    # alpha-exponent of the (x^j, t^m) coefficient at degree d is m - j - n d
    for n in (2, 3):
        p = hg_projective(n, 2)
        for d in range(3):
            for (xe, pe, te), v in p[d].c.items():
                assert pe == 0
                # joint (x, alpha)-degree is -n d; t carries degree 0
                for aexp in v.c:
                    assert aexp == -(n * d) - xe


def test_gr_loc_sum_degree_zero():
    assert gr_loc_sum(2, 4, 0) == {(): AL_ONE}
    assert gr_loc_sum(1, 2, 0) == {(): AL_ONE}
    assert gr_loc_sum(1, 3, 0) == {(): AL_ONE}


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4)])
def test_gr_loc_sum_negative_degree_raises(k, n):
    with pytest.raises(UsageError):
        gr_loc_sum(k, n, -1)


def test_gr_loc_sum_k1_shape():
    # k = 1 reduces to 1/prod (x + l alpha)^n, reduced mod x^{n-1}
    for n in (2, 3):
        for d in (1, 2):
            got = gr_loc_sum(1, n, d)
            direct = _inv_linear_power(n - 1, 1, n)
            for l in range(2, d + 1):
                direct = direct * _inv_linear_power(n - 1, l, n)
            for (xe, pe, te), v in direct.c.items():
                lam = (xe,) if xe else ()
                assert got.get(lam, Laurent()) == v


def test_gr_loc_sum_symmetry_witness():
    # the (2,4) degree-1 class exists and is indexed by partitions in the box
    got = gr_loc_sum(2, 4, 1)
    assert got and all(lam == tuple(sorted(lam, reverse=True)) for lam in got)
    assert all((not lam or lam[0] <= 2) for lam in got)


@pytest.mark.parametrize("k,n,dm", [(1, 2, 3), (2, 3, 2), (2, 4, 2)])
def test_hori_vafa_equality(k, n, dm):
    hv = hori_vafa_series(k, n, dm)
    assert hv["equal"]
    # nontrivial content on both sides
    assert any(hv["operator"][d] for d in hv["operator"])


def test_hori_vafa_k1_is_projective_series():
    hv = hori_vafa_series(1, 3, 2)
    p = hg_projective(3, 2, cap=1 * 2 + 0 + 2)
    for d in range(3):
        flat = {}
        for (xe, pe, te), v in p[d].c.items():
            if xe <= 2 and v:
                flat[(te, (xe,) if xe else ())] = v
        got = {(te, lam): v for te, lams in hv["operator"][d].items()
               for lam, v in lams.items() if v}
        assert got == flat


def test_gr23_matches_p2():
    assert gr23_matches_p2(2)


def _of_rows(cap, c):
    """The XPoly with the view c = {(x, P, t): Laurent in alpha}."""
    return XPoly(cap, {key + (e,): f for key, v in c.items() for e, f in v.c.items()})


def _all_pairs_product(a, b):
    # reference: every key pair, kept when the x-degrees fit under the cap
    c = {}
    for k1, v1 in a.c.items():
        for k2, v2 in b.c.items():
            if k1[0] + k2[0] > a.cap:
                continue
            key = tuple(x + y for x, y in zip(k1, k2))
            c[key] = c.get(key, Laurent()) + v1 * v2
    return _of_rows(a.cap, c)


_alpha_coeff = st.dictionaries(
    st.integers(-2, 2), st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=1, max_size=2).map(Laurent)


@st.composite
def _xpoly_pair(draw):
    cap = draw(st.integers(1, 4))
    key = st.tuples(st.integers(0, cap), st.integers(0, 2), st.integers(0, 2))
    poly = st.dictionaries(key, _alpha_coeff, max_size=8).map(lambda c: _of_rows(cap, c))
    return draw(poly), draw(poly)


@settings(max_examples=150, deadline=None)
@given(_xpoly_pair())
def test_bucketed_xpoly_product_matches_all_pairs(pair):
    a, b = pair
    assert canonical(a * b) == _all_pairs_product(a, b)


# -- integer-numerator XPoly against a Laurent-valued reference ---------------
# The references work on the {(x, P, t): Laurent in alpha} view, the
# way XPoly computed before its coefficients became integers over one
# common denominator.

def _ref_sum(a, b, sign=1):
    c = dict(a.c)
    for key, v in b.c.items():
        c[key] = c.get(key, Laurent()) + (v if sign > 0 else -v)
    return _of_rows(a.cap, c)


def _ref_scale(a, v):
    al = v if isinstance(v, Laurent) else Laurent.const(v)
    return _of_rows(a.cap, {key: w * al for key, w in a.c.items()})


def _ref_dt(a):
    c = {}
    for key, v in a.c.items():
        e = key[-1]
        if e:
            nk = key[:-1] + (e - 1,)
            c[nk] = c.get(nk, Laurent()) + v.scale(e)
    return _of_rows(a.cap, c)


def _ref_subs_t_plus_p_alpha(a):
    c = {}
    for key, v in a.c.items():
        m = key[-1]
        for r in range(m + 1):
            nk = key[:-2] + (key[-2] + m - r, r)
            c[nk] = c.get(nk, Laurent()) + v.shift(m - r).scale(comb(m, r))
    return _of_rows(a.cap, c)


def _ref_negate_alpha(a):
    return _of_rows(a.cap, {key: Laurent({e: -f if e % 2 else f for e, f in v.c.items()})
                            for key, v in a.c.items()})


@settings(max_examples=150, deadline=None)
@given(_xpoly_pair(),
       st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.dictionaries(st.integers(-2, 2),
                       st.fractions(min_value=-3, max_value=3, max_denominator=3),
                       min_size=2, max_size=3).map(Laurent))
def test_xpoly_arithmetic_matches_laurent_reference(pair, frac, laurent):
    a, b = pair
    assert canonical(a + b) == _ref_sum(a, b)
    assert canonical(XPoly.lincomb(a.cap, ((1, a), (-1, b)))) == _ref_sum(a, b, -1)
    assert canonical(-a) == _ref_scale(a, -1)
    assert canonical(a.scale(frac)) == _ref_scale(a, frac)
    assert canonical(a.scale(laurent)) == _ref_scale(a, laurent)
    assert canonical(a.dt()) == _ref_dt(a)
    assert canonical(a.subs_t_plus_p_alpha()) == _ref_subs_t_plus_p_alpha(a)
    assert canonical(a.negate_alpha()) == _ref_negate_alpha(a)
    for e, row in a.x_coefficients().items():
        assert canonical(row).c == {(pe, te, al): v for (x, pe, te), coef in a.c.items()
                                    if x == e for al, v in coef.c.items()}
    assert set(a.x_coefficients()) == {x for x, _pe, _te in a.c}


def test_xpoly_canonical_form():
    half = _of_rows(2, {(0, 0, 0): Laurent.const(F(1, 2))})
    assert _of_rows(2, {(0, 0, 0): Laurent.const(F(2, 4))}) == half
    assert half.num == {(0, 0, 0, 0): 1} and half.den == 2
    # the content is taken out after products, sums and scaling
    by_scale = XPoly.const(2, F(1, 4)).scale(2)
    by_sum = XPoly.const(2, F(1, 6)) + XPoly.const(2, F(1, 3))
    by_mul = XPoly.const(2, F(2, 3)) * XPoly.const(2, F(3, 4))
    for p in (by_scale, by_sum, by_mul):
        assert p == half and p.den == 2 and p.num == half.num
    neg = XPoly.const(2, F(-3, 4))
    assert neg.den == 4 and neg.num == {(0, 0, 0, 0): -3}
    zero = half + -half
    assert not zero and zero.den == 1 and zero == XPoly(2)


def test_non_monomial_alpha_coefficients_round_trip():
    c = {(1, 0, 2): Laurent({-1: F(1, 3), 2: F(-5, 2)}),
         (0, 1, 1): Laurent({0: 2, 1: F(1, 6)})}
    p = _of_rows(3, c)
    assert p.c == c
    assert p.den == 6
    assert len(p.num) == 4


@pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
def test_hori_vafa_equality_degree_one(k, n):
    hv = hori_vafa_series(k, n, 1)
    assert hv["equal"] is True
    assert hv["operator"][1] and hv["localization"][1]


@pytest.fixture
def uncached_hori_vafa():
    """Fault injections reach a fresh hori_vafa_series, and the faulty
    result they leave in its cache is dropped before the next test."""
    mirror.hori_vafa_series.cache_clear()
    yield
    mirror.hori_vafa_series.cache_clear()


def test_empty_comparison_is_not_equal(monkeypatch, uncached_hori_vafa):
    monkeypatch.setattr(mirror, "_bialternant", lambda *args: {})
    assert hori_vafa_series(2, 3, 1)["equal"] is False


def test_surviving_p_in_an_operator_row_raises(monkeypatch, uncached_hori_vafa):
    # e^{2Px} in place of e^{Px}: the P-dependence no longer cancels
    real = mirror.exp_x_times
    monkeypatch.setattr(mirror, "exp_x_times", lambda cap, var, sign: real(
        cap, var, 2 * sign if var == "P" else sign))
    with pytest.raises(InternalError, match="P-dependence"):
        hori_vafa_series(2, 3, 1)


def test_dropped_composition_breaks_antisymmetry(monkeypatch, uncached_hori_vafa):
    # the first row never takes part 1 in column 0, so each composition whose
    # first part is 1 loses its terms with column 0 first; a bad entry of the
    # row table would not do, since every row reads the same (c, j) table
    real = mirror._row_step

    def faulty(states, *args):
        out = real(states, *args)
        if (0, 0) in states:
            out.pop((0b1, 1), None)
        return out

    monkeypatch.setattr(mirror, "_row_step", faulty)
    with pytest.raises(InternalError, match="antisymmetric"):
        hori_vafa_series(2, 4, 1)


def _gr_rows(k, n, d_max, monkeypatch):
    """The operator and localization rows that hori_vafa_series reads."""
    seen = []
    real = mirror._bialternant
    monkeypatch.setattr(mirror, "_bialternant", lambda rows, *args: seen.append(rows) or real(rows, *args))
    assert hori_vafa_series(k, n, d_max)["equal"]
    return seen


# every 1 <= k < n <= 6, at degree 2 where the reference's k! permutations
# per composition stay cheap: Gr(3,6) at degree 1, k = 4 at degree 1 and
# Gr(5,6) at degree 0
BIALTERNANT_CASES = ([(k, n, 2) for n in range(2, 7) for k in range(1, min(n, 4))
                      if (k, n) != (3, 6)]
                     + [(3, 6, 1), (4, 5, 1), (4, 6, 1), (5, 6, 0)])


@pytest.mark.parametrize("k,n,d_max", BIALTERNANT_CASES)
def test_bialternant_matches_composition_reference(k, n, d_max, monkeypatch, uncached_hori_vafa):
    real, cap = mirror._bialternant, mirror._gr_cap(k, n)
    for rows in _gr_rows(k, n, d_max, monkeypatch):
        got = real(rows, k, n, d_max, cap)
        assert sorted(got) == list(range(d_max + 1))
        for d in range(d_max + 1):
            assert got[d] == bialternant_reference(rows, k, n, d, cap), d


@pytest.mark.parametrize("k,n,d_max", [(2, 4, 2), (3, 5, 1), (4, 6, 1)])
def test_bialternant_forms_no_xpoly_product_or_sum(k, n, d_max, monkeypatch, uncached_hori_vafa):
    # the rows are XPoly values; the reader multiplies and adds their numerators as integers
    real, cap = mirror._bialternant, mirror._gr_cap(k, n)
    rows_seen = _gr_rows(k, n, d_max, monkeypatch)
    expected = [real(rows, k, n, d_max, cap) for rows in rows_seen]

    def forbidden(*_args):
        raise AssertionError("the Schur reader formed an XPoly product or sum")

    monkeypatch.setattr(XPoly, "__mul__", forbidden)
    monkeypatch.setattr(XPoly, "lincomb", forbidden)
    assert [real(rows, k, n, d_max, cap) for rows in rows_seen] == expected
