from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc.errors import InternalError, UsageError, VerificationFailure
from dualcalc.laurent import Laurent, Poly
from dualcalc import cli, dense, mirror, nilpotent, verify
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
    # K_5 + 1 inverts to n_5 + 1 (5 is prime): integral, but not the published count
    _perturbed_k(monkeypatch, 4, 1)
    assert verify.check_candelas("full") == (False, {
        "failed": "instanton-numbers",
        "n": [2875, 609250, 317206375, 242467530000, 229305888887626]})


def test_candelas_check_requires_integral_instanton_numbers(monkeypatch):
    _perturbed_k(monkeypatch, 2, F(1, 2))
    ok, detail = verify.check_candelas("full")
    assert not ok and detail["failed"] == "instanton-integrality"
    assert "n_3" in detail["error"]


def test_mirror_map_round_trip():
    assert mirror_map_round_trip(3)


@pytest.fixture
def uncached_candelas():
    """A fresh candelas run, whose result is dropped before the next test."""
    mirror.candelas.cache_clear()
    yield
    mirror.candelas.cache_clear()


def test_candelas_inverts_the_mirror_map_without_composing(monkeypatch, uncached_candelas):
    def forbidden(*_args):
        raise AssertionError("candelas composed two series")

    inverses = []
    real_inv = dense.inv
    monkeypatch.setattr(dense, "compose", forbidden)
    monkeypatch.setattr(dense, "inv", lambda *args: inverses.append(args) or real_inv(*args))
    data = candelas(6)
    # one inverse, of the s0 normalization; no per-round inverse
    assert len(inverses) == 1
    assert gv_invert(_genus0(data["K"]), 6, 0)[(0, 6)] == 248249742118022000


def test_round_trip_composes_the_lagrange_inverse(monkeypatch):
    # the round trip substitutes by dense.compose, a path of its own, so a
    # wrong q_of_qt fails it
    real_compose, composed = dense.compose, []
    monkeypatch.setattr(dense, "compose", lambda *args: composed.append(args) or real_compose(*args))
    assert mirror_map_round_trip(6)
    assert len(composed) == 1
    real = mirror.candelas

    def perturbed(d_max):
        data = dict(real(d_max))
        data["q_of_qt"] = data["q_of_qt"][:-1] + [data["q_of_qt"][-1] + 1]
        return data

    monkeypatch.setattr(mirror, "candelas", perturbed)
    assert not mirror_map_round_trip(6)


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
# so some factors move from the denominator to the numerator; in the third,
# with no line bundle, the pairing d2 - d1 runs -1 -> 0 -> 1 along the second
# generator, where a slice is not its neighbour times linear factors: the
# ratio across 0 is 1/D, and D is nilpotent
TWO_GENERATOR_SPECS = [
    ([("H1", 2), ("H2", 2)], [[2, 2]], [[1, 0], [1, 0], [0, 1], [0, 1]], 3),
    ([("H1", 3), ("H2", 2)], [[1, 1]], [[1, 0], [1, -1], [0, 1], [0, 1]], 3),
    ([("H1", 2), ("H2", 3)], [], [[1, 0], [1, 0], [-1, 1], [0, 1], [0, 1]], 4),
]


@pytest.mark.parametrize("gens,bundles,divisors,d_max", TWO_GENERATOR_SPECS)
def test_two_generator_toric_matches_reference(gens, bundles, divisors, d_max):
    got = toric_b_series(gens, bundles, divisors, d_max)
    assert got == toric_b_series_reference(gens, bundles, divisors, d_max)
    assert len(got) == (d_max + 1) * (d_max + 2) // 2
    assert all(got.values())


def test_kp2_toric_matches_reference():
    # divisors only, the concave one [-3] in the numerator at every degree
    spec = ([("H", 3)], [], [[1], [1], [1], [-3]], 6)
    got = toric_b_series(*spec)
    assert got == toric_b_series_reference(*spec)
    assert sorted(got) == [(d,) for d in range(7)] and all(got.values())


def test_toric_builds_each_linear_factor_once(monkeypatch):
    # one running product per class and direction: the quintic at degree 50
    # makes 251 + 50 table products and about a dozen per slice
    real, calls = nilpotent.mul, []
    monkeypatch.setattr(nilpotent, "mul", lambda *args: calls.append(1) or real(*args))
    assert quintic_toric(50)[(50,)]
    assert len(calls) <= 20 * 51


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


def test_hori_vafa_series_takes_only_integer_arguments():
    # a typed cache: 2.0 is refused even when the series of 2 is cached
    assert mirror.hori_vafa_series(2, 4, 1)["equal"]
    for args in [(2.0, 4, 1), (2, 4.0, 1), (2, 4, 1.5)]:
        with pytest.raises(UsageError, match="must be an integer"):
            mirror.hori_vafa_series(*args)


# -- projective / Grassmannian -----------------------------------------------

def test_hg_projective_degree_zero():
    p = hg_projective(3, 1)
    # pure e^{-tx/alpha}: coefficient of x^j t^j is (-1)^j/j! alpha^{-j}
    assert p[0].c == {(0, 0, 0, 0): 1, (1, 0, 1, -1): -1, (2, 0, 2, -2): F(1, 2)}


def test_hg_projective_p1_degree_one():
    # 1/(x - alpha)^2 = alpha^{-2} (1 + 2x/alpha + ...) with x^2 = 0
    p = hg_projective(2, 1)
    assert p[1].c[(0, 0, 0, -2)] == 1
    assert p[1].c[(1, 0, 0, -3)] == 2


def test_hg_projective_alpha_homogeneity():
    # alpha-exponent of the (x^j, t^m) coefficient at degree d is m - j - n d
    for n in (2, 3):
        p = hg_projective(n, 2)
        for d in range(3):
            for (xe, pe, te, aexp) in p[d].c:
                assert pe == 0
                # joint (x, alpha)-degree is -n d; t carries degree 0
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
                direct = nilpotent.mul(direct, _inv_linear_power(n - 1, l, n), (n - 1,))
            for (xe, _pe, _te), v in _view(direct).items():
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
        flat = {(te, (xe,) if xe else ()): v
                for (xe, pe, te), v in _view(p[d]).items() if xe <= 2}
        got = {(te, lam): v for te, lams in hv["operator"][d].items()
               for lam, v in lams.items() if v}
        assert got == flat


def test_gr23_matches_p2():
    assert gr23_matches_p2(2)


# -- the nilpotent kernels against Laurent-valued references ------------------
# The references work on the {(x, P, t): Laurent in alpha} view of a row, the
# way the rows were computed before their coefficients became integers over
# one common denominator.

def _of_rows(c):
    """The row, a ``Poly`` keyed by (x, P, t, alpha), with the view c."""
    return Poly({key + (e,): f for key, v in c.items() for e, f in v.c.items()})


def _view(p):
    """The view {(x, P, t): Laurent in alpha} of the row p."""
    rows = {}
    for (x, pe, t, a), f in p.c.items():
        rows.setdefault((x, pe, t), {})[a] = f
    return {key: Laurent(row) for key, row in rows.items()}


def _all_pairs_product(a, b, caps):
    # reference: every key pair, kept when each leading entry fits under its cap
    c = {}
    for k1, v1 in _view(a).items():
        for k2, v2 in _view(b).items():
            key = tuple(x + y for x, y in zip(k1, k2))
            if all(x <= m for x, m in zip(key, caps)):
                c[key] = c.get(key, Laurent()) + v1 * v2
    return _of_rows(c)


_alpha_coeff = st.dictionaries(
    st.integers(-2, 2), st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=1, max_size=2).map(Laurent)


@st.composite
def _xpoly_pair(draw):
    """(caps, a, b): one x-degree cap, or a box on the leading two or three
    entries as in a ring with several generators."""
    cap = draw(st.integers(1, 4))
    caps = (cap,) + tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    key = st.tuples(st.integers(0, cap), st.integers(0, 2), st.integers(0, 2))
    poly = st.dictionaries(key, _alpha_coeff, max_size=8).map(_of_rows)
    return caps, draw(poly), draw(poly)


@settings(max_examples=150, deadline=None)
@given(_xpoly_pair())
def test_bucketed_xpoly_product_matches_all_pairs(pair):
    caps, a, b = pair
    assert canonical(nilpotent.mul(a, b, caps)) == _all_pairs_product(a, b, caps)


def test_truncated_product_cuts_every_generator_of_a_box():
    # Q[G1, G2]/(G1^2, G2^3) keyed (G1, G2, t1, t2): (1 + G1 + G2 t2)(G1 + G2^2)
    # loses G1^2 to the first cap and G2^3 t2 to the second
    a = Poly({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 0, 1): 1})
    b = Poly({(1, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    assert nilpotent.mul(a, b, (1, 2)).c == {(1, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                                             (1, 2, 0, 0): 1, (1, 1, 0, 1): 1}


def _ref_sum(a, b, sign=1):
    c = _view(a)
    for key, v in _view(b).items():
        c[key] = c.get(key, Laurent()) + (v if sign > 0 else -v)
    return _of_rows(c)


def _ref_scale(a, v):
    al = v if isinstance(v, Laurent) else Laurent.const(v)
    return _of_rows({key: w * al for key, w in _view(a).items()})


def _ref_dt(a):
    c = {}
    for key, v in _view(a).items():
        e = key[-1]
        if e:
            nk = key[:-1] + (e - 1,)
            c[nk] = c.get(nk, Laurent()) + v.scale(e)
    return _of_rows(c)


def _ref_subs_t_plus_p_alpha(a):
    c = {}
    for key, v in _view(a).items():
        m = key[-1]
        for r in range(m + 1):
            nk = key[:-2] + (key[-2] + m - r, r)
            c[nk] = c.get(nk, Laurent()) + v.shift(m - r).scale(comb(m, r))
    return _of_rows(c)


def _ref_negate_alpha(a):
    return _of_rows({key: Laurent({e: -f if e % 2 else f for e, f in v.c.items()})
                     for key, v in _view(a).items()})


@settings(max_examples=150, deadline=None)
@given(_xpoly_pair(),
       st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.dictionaries(st.integers(-2, 2),
                       st.fractions(min_value=-3, max_value=3, max_denominator=3),
                       min_size=2, max_size=3).map(Laurent))
def test_xpoly_arithmetic_matches_laurent_reference(pair, frac, laurent):
    caps, a, b = pair
    assert canonical(a + b) == _ref_sum(a, b)
    assert canonical(a - b) == _ref_sum(a, b, -1)
    assert canonical(-a) == _ref_scale(a, -1)
    assert canonical(a.scale(frac)) == _ref_scale(a, frac)
    by_laurent = nilpotent.mul(a, _of_rows({(0, 0, 0): laurent}), caps[:1])
    assert canonical(by_laurent) == _ref_scale(a, laurent)
    assert canonical(nilpotent.dt(a)) == _ref_dt(a)
    assert canonical(nilpotent.subs_t_plus_p_alpha(a)) == _ref_subs_t_plus_p_alpha(a)
    assert canonical(nilpotent.negate_alpha(a)) == _ref_negate_alpha(a)


def test_xpoly_canonical_form():
    half = _of_rows({(0, 0, 0): Laurent.const(F(1, 2))})
    assert _of_rows({(0, 0, 0): Laurent.const(F(2, 4))}) == half
    assert half.num == {(0, 0, 0, 0): 1} and half.den == 2

    def const(v):
        return Poly({(0, 0, 0, 0): v})

    # the content is taken out after products, sums and scaling
    by_scale = const(F(1, 4)).scale(2)
    by_sum = const(F(1, 6)) + const(F(1, 3))
    by_mul = nilpotent.mul(const(F(2, 3)), const(F(3, 4)), (2,))
    for p in (by_scale, by_sum, by_mul):
        assert p == half and p.den == 2 and p.num == half.num
    # d/dt of t^2/4 is 2t/4 = t/2
    by_dt = nilpotent.dt(Poly({(0, 0, 2, 0): F(1, 4)}))
    assert by_dt.num == {(0, 0, 1, 0): 1} and by_dt.den == 2
    neg = const(F(-3, 4))
    assert neg.den == 4 and neg.num == {(0, 0, 0, 0): -3}
    zero = half + -half
    assert not zero and zero.den == 1 and zero == Poly()


def test_non_monomial_alpha_coefficients_round_trip():
    c = {(1, 0, 2): Laurent({-1: F(1, 3), 2: F(-5, 2)}),
         (0, 1, 1): Laurent({0: 2, 1: F(1, 6)})}
    p = _of_rows(c)
    assert _view(p) == c
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
    # both sides' rows zero: they agree entry by entry, but the read is empty
    for name in ("_op_rows", "_loc_rows"):
        real = getattr(mirror, name)
        monkeypatch.setattr(mirror, name, lambda *args, real=real: {key: Poly() for key in real(*args)})
    hv = hori_vafa_series(2, 3, 1)
    assert hv["operator"] == hv["localization"] == {0: {}, 1: {}}
    assert hv["equal"] is False


# every (k, n, d) that `mirror grassmannian` accepts
GR_CLI_CASES = [(k, n, d) for k in range(1, cli.GR_MAX_K + 1) for n in range(k + 1, cli.GR_MAX_N + 1)
                for d in range(cli.GR_MAX_DEGREE + 1) if k * (n - k) * (d + 1) <= cli.GR_MAX_SIZE]


def test_operator_rows_equal_localization_rows_on_every_cli_case():
    # (alpha d/dt + c alpha)^r e^{-tx/alpha} = (c alpha - x)^r e^{-tx/alpha}, and
    # t -> t + P alpha cancels e^{Px} below x^{cap+1}: no read is needed
    assert len(GR_CLI_CASES) == 88
    for k, n, d in GR_CLI_CASES:
        cap = mirror._gr_cap(k, n)
        op_rows = mirror._op_rows(k, n, d, cap)
        assert len(op_rows) == k * (d + 1) and all(op_rows.values())
        assert op_rows == mirror._loc_rows(k, n, d, cap), (k, n, d)


def test_perturbed_localization_entry_is_read_and_not_equal(monkeypatch, uncached_hori_vafa):
    real_rows, real_read = mirror._loc_rows, mirror._bialternant

    def perturbed(*args):
        rows = real_rows(*args)
        rows[(1, 0)] = rows[(1, 0)].scale(2)
        return rows

    reads = []
    monkeypatch.setattr(mirror, "_loc_rows", perturbed)
    monkeypatch.setattr(mirror, "_bialternant", lambda rows, *args: reads.append(rows) or real_read(rows, *args))
    hv = hori_vafa_series(2, 3, 1)
    cap = mirror._gr_cap(2, 3)
    assert hv["equal"] is False
    assert reads == [mirror._op_rows(2, 3, 1, cap), perturbed(2, 3, 1, cap)]
    assert hv["localization"] == real_read(reads[1], 2, 3, 1, cap) != hv["operator"]


def test_surviving_p_in_an_operator_row_raises(monkeypatch, uncached_hori_vafa):
    # e^{2Px} in place of e^{Px}: the P-dependence no longer cancels
    real = nilpotent.exp_x_times

    def doubled_p(cap, var):
        e = real(cap, var)
        return Poly({k: Fraction(v * 2 ** k[1], e.den) for k, v in e.num.items()})

    monkeypatch.setattr(nilpotent, "exp_x_times", doubled_p)
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
    """The rows that hori_vafa_series reads: the operator rows, read once,
    since the localization rows equal them."""
    seen = []
    real = mirror._bialternant
    monkeypatch.setattr(mirror, "_bialternant", lambda rows, *args: seen.append(rows) or real(rows, *args))
    assert hori_vafa_series(k, n, d_max)["equal"]
    assert len(seen) == 1
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
    # the rows are x-polynomials; the reader splits them by x and multiplies and adds
    # their numerators as integers, with no row product, sum or term map
    real, cap = mirror._bialternant, mirror._gr_cap(k, n)
    rows_seen = _gr_rows(k, n, d_max, monkeypatch)
    expected = [real(rows, k, n, d_max, cap) for rows in rows_seen]

    def forbidden(*_args):
        raise AssertionError("the Schur reader formed a row product, sum or term map")

    for name in ("mul", "dt", "subs_t_plus_p_alpha", "negate_alpha", "exp_x_times"):
        monkeypatch.setattr(nilpotent, name, forbidden)
    monkeypatch.setattr(Poly, "__add__", forbidden)
    assert [real(rows, k, n, d_max, cap) for rows in rows_seen] == expected
