import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from dualcalc import pseries
from dualcalc.dense import graded_log
from dualcalc.errors import UsageError
from dualcalc.hodge import build_series, pde_residual
from dualcalc.partitions import enumerate_partitions, zmu
from dualcalc.pseries import PSeries, cut_join_terms, empty_key, key_weight
from dualcalc.series import LambdaSeries, TauLaurent
import oracles
from oracles import (add_reference, as_scalar, assert_same_pseries,
                     cut_join_linear_reference, cut_join_nonlinear_reference,
                     graded_log_reference, mul_parts_reference, mul_reference,
                     pderiv_reference, pscale, pseries_exp)

TR = 6


def mono(fams, caps, key, val=1, trunc=TR):
    return PSeries(fams, caps, {key: LambdaSeries.from_map({0: val}, trunc)})


def one_fam(caps=6):
    return 1, (caps,)


def test_mul_union_of_parts():
    f, caps = one_fam()
    a = mono(f, caps, ((2,),))
    b = mono(f, caps, ((1,),))
    prod = a * b
    assert list(prod.co) == [((2, 1),)]
    # unit
    u = mono(f, caps, ((),))
    s = mono(f, caps, ((3, 1),), val=Fraction(2, 3))
    assert (u * s - s).is_zero_through_windows()


def test_square_of_sum():
    f, caps = one_fam()
    s = mono(f, caps, ((1,),)) + mono(f, caps, ((2,),))
    sq = s * s
    assert as_scalar(sq.coeff(((1, 1),)).coeff(0)) == 1
    assert as_scalar(sq.coeff(((2, 1),)).coeff(0)) == 2
    assert as_scalar(sq.coeff(((2, 2),)).coeff(0)) == 1


def test_cap_mismatch_raises():
    a = mono(1, (4,), ((1,),))
    b = mono(1, (5,), ((1,),))
    with pytest.raises(UsageError):
        a + b


def test_exp_multinomial():
    f, caps = one_fam()
    s = mono(f, caps, ((1,),)) + mono(f, caps, ((2,),))
    e = pseries_exp(s, TR)
    # coefficient of p_1 p_2 in exp(p_1 + p_2) is 1
    assert as_scalar(e.coeff(((2, 1),)).coeff(0)) == 1
    assert as_scalar(e.coeff(((1, 1),)).coeff(0)) == Fraction(1, 2)
    assert as_scalar(e.coeff(empty_key(1)).coeff(0)) == 1


def test_exp_log_round_trip():
    f, caps = 1, (5,)
    s = mono(f, caps, ((1,),), val=Fraction(1, 2)) \
        + mono(f, caps, ((2, 1),), val=-2) \
        + PSeries(f, caps, {((3,),): LambdaSeries.from_map({1: Fraction(1, 3)}, TR)})
    assert (pseries_exp(s, TR).log() - s).is_zero_through_windows()


def test_log_of_exp_lambda_monomial():
    # log(exp(L p_1)) = L p_1
    f, caps = one_fam()
    s = PSeries(f, caps, {((1,),): LambdaSeries.from_map({1: 1}, TR)})
    assert (pseries_exp(s, TR).log() - s).is_zero_through_windows()


def test_exp_requires_no_constant():
    f, caps = one_fam()
    with pytest.raises(UsageError):
        pseries_exp(mono(f, caps, ((),)), TR)


# -- cut-and-join ------------------------------------------------------------

def cj_matrix(n):
    """Matrix of the linear cut-and-join operator on the weight-n monomial basis."""
    parts = enumerate_partitions(n)
    idx = {mu: i for i, mu in enumerate(parts)}
    cols = []
    for mu in parts:
        out = cut_join_linear_reference(mono(1, (n,), (mu,)), 0)
        col = [Fraction(0)] * len(parts)
        for key, s in out.co.items():
            v = as_scalar(s.coeff(0))
            assert not v.im
            col[idx[key[0]]] = v.re
        cols.append(col)
    return parts, cols


def test_cut_join_examples():
    f, caps = one_fam()
    assert as_scalar(cut_join_linear_reference(mono(f, caps, ((2,),)), 0).coeff(((1, 1),)).coeff(0)) == 1
    assert as_scalar(cut_join_linear_reference(mono(f, caps, ((1, 1),)), 0).coeff(((2,),)).coeff(0)) == 1
    # ordered pairs (1,2),(2,1) each contribute (1/2)*3*p_1 p_2
    out = cut_join_linear_reference(mono(f, caps, ((3,),)), 0)
    assert as_scalar(out.coeff(((2, 1),)).coeff(0)) == 3
    # single p_1: nothing cuts or joins
    assert not cut_join_linear_reference(mono(f, caps, ((1,),)), 0).co


def cycle_type(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x, n = perm[x], n + 1
        if n:
            out.append(n)
    return tuple(sorted(out, reverse=True))


@pytest.mark.parametrize("n", range(1, 7))
def test_cut_join_terms_count_products_with_transpositions(n):
    # p_mu -> sum c p_nu with c = #{transpositions t : sigma t has type nu}
    # for any one sigma of type mu
    for mu in enumerate_partitions(n):
        sigma, start = list(range(n)), 0
        for part in mu:
            for x in range(start, start + part):
                sigma[x] = start + (x - start + 1) % part
            start += part
        expect = Counter()
        for a, b in combinations(range(n), 2):
            t = list(range(n))
            t[a], t[b] = b, a
            expect[cycle_type([sigma[t[x]] for x in range(n)])] += 1
        terms = cut_join_terms(mu)
        assert all(type(c) is int and c > 0 for _nu, c in terms), mu
        assert len({nu for nu, _c in terms}) == len(terms), mu
        got = Counter()
        for nu, c in terms:
            got[nu] += c
        assert got == expect, mu


def test_cut_join_preserves_weight():
    for n in range(1, 7):
        parts, cols = cj_matrix(n)
        # cj_matrix raises KeyError if any image leaves weight n; the matrix
        # is nontrivial once both a cut and a join are possible
        if n >= 2:
            assert any(any(c for c in col) for col in cols)


def test_cut_join_self_adjoint():
    # <CJ p_mu, p_nu> = <p_mu, CJ p_nu> with <p_mu, p_nu> = z_mu delta
    for n in range(1, 7):
        parts, cols = cj_matrix(n)
        for a, mu in enumerate(parts):
            for b, nu in enumerate(parts):
                assert cols[a][b] * zmu(nu) == cols[b][a] * zmu(mu)


def test_schur_eigenvectors():
    # sum_mu chi_nu(mu)/z_mu p_mu is an eigenvector with eigenvalue kappa/2
    from dualcalc.partitions import character, kappa

    for n in range(1, 6):
        for nu in enumerate_partitions(n):
            s = None
            for mu in enumerate_partitions(n):
                t = mono(1, (n,), (mu,), val=Fraction(character(nu, mu), zmu(mu)))
                s = t if s is None else s + t
            lhs = cut_join_linear_reference(s, 0)
            rhs = pscale(s, Fraction(kappa(nu), 2))
            assert (lhs - rhs).is_zero_through_windows()


def test_nonlinear_conjugation_identity():
    # cut_join_linear(exp F) = exp(F) * cut_join_nonlinear(F), exactly: the
    # identity that lets hodge.pde_residual check the disconnected series
    rng = random.Random(7)
    caps = (6,)
    for trial in range(4):
        co = {}
        for n in range(1, 5):
            for mu in enumerate_partitions(n):
                if rng.random() < 0.4:
                    co[(mu,)] = LambdaSeries.from_map(
                        {rng.randint(0, 1): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}, TR)
        f = PSeries(1, caps, co)
        ef = pseries_exp(f, TR)
        lhs = cut_join_linear_reference(ef, 0)
        rhs = ef * cut_join_nonlinear_reference(f, 0)
        assert (lhs - rhs).is_zero_through_windows()


def test_nonlinear_quadratic_piece():
    # the quadratic term on a single monomial p_s adds (s^2/2) p_{2s}, as
    # the conjugation identity CJ_lin(exp F) = exp(F) CJ_nl(F) requires
    f, caps = one_fam()
    nl3 = cut_join_nonlinear_reference(mono(f, caps, ((3,),)), 0)
    assert as_scalar(nl3.coeff(((2, 1),)).coeff(0)) == 3
    assert as_scalar(nl3.coeff(((6,),)).coeff(0)) == Fraction(9, 2)
    nl1 = cut_join_nonlinear_reference(mono(f, caps, ((1,),)), 0)
    assert list(nl1.co) == [((2,),)]
    assert as_scalar(nl1.coeff(((2,),)).coeff(0)) == Fraction(1, 2)


def test_three_family_support():
    caps = (2, 3, 2)
    s = mono(3, caps, (((1,), (2,), ()))) + mono(3, caps, (((), (1,), (1,))))
    t = s * s
    assert as_scalar(t.coeff(((1,), (2, 1), (1,))).coeff(0)) == 2
    # per-family operators act on their own family only
    cj2 = cut_join_linear_reference(mono(3, caps, (((), (2,), ()))), 1)
    assert list(cj2.co) == [((), (1, 1), ())]
    assert key_weight(((1,), (2, 2), ())) == 5


# -- the pruned product and the graded log/exp against their plain forms -----

def exact(ps):
    """Coefficients with their lambda windows, for window-exact comparison."""
    return {k: (s.floor, s.co) for k, s in ps.co.items()}


def random_series(rng, fams, caps, density=0.5):
    """Random coefficients on keys within the caps, mixed lambda floors and
    truncations, some tau-dependent."""
    parts = [[mu for n in range(cap + 1) for mu in enumerate_partitions(n)]
             for cap in caps]
    keys = [()]
    for ps in parts:
        keys = [k + (mu,) for k in keys for mu in ps]
    co = {}
    for key in keys:
        if key == empty_key(fams) or rng.random() > density:
            continue
        floor = rng.randint(-2, 1)
        trunc = rng.randint(floor + 2, floor + 5)
        co[key] = LambdaSeries.from_map(
            {e: TauLaurent({0: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            1: rng.randint(-1, 1)})
             for e in range(floor, trunc) if rng.random() < 0.7}, trunc)
    return PSeries(fams, caps, co)


def cut_join_nonlinear_unpruned(f, fam):
    """The quadratic term formed at full cap, then cut by the p_{i+j} shift."""
    out = cut_join_linear_reference(f, fam)
    cap = f.caps[fam]
    derivs = {i: pderiv_reference(f, fam, i) for i in range(1, cap + 1)}
    derivs = {i: d for i, d in derivs.items() if d.co}
    for i, di in derivs.items():
        for j, dj in derivs.items():
            if j < i or i + j > cap:
                continue
            prod = mul_parts_reference(di * dj, fam, i + j)
            w = Fraction(i * j) if i != j else Fraction(i * j, 2)
            out = out + pscale(prod, w)
    return out


def exp_power_sum(f, trunc):
    ek = empty_key(f.fams)
    x = PSeries(f.fams, f.caps, {k: s for k, s in f.co.items() if k != ek})
    out = term = PSeries(f.fams, f.caps, {ek: LambdaSeries.one(trunc)})
    for m in range(1, sum(f.caps) + 1):
        term = pscale(term * x, Fraction(1, m))
        out = out + term
    return out


def log_power_sum(z):
    ek = empty_key(z.fams)
    x = PSeries(z.fams, z.caps, {k: s for k, s in z.co.items() if k != ek})
    out = term = x
    for m in range(2, sum(z.caps) + 1):
        term = term * x
        out = out + pscale(term, Fraction((-1) ** (m - 1), m))
    return out


@pytest.mark.parametrize("cap", [3, 4, 5, 6])
def test_pruned_cut_join_matches_unpruned(cap):
    rng = random.Random(100 + cap)
    for _ in range(2):
        f = random_series(rng, 1, (cap,), density=0.6)
        assert exact(cut_join_nonlinear_reference(f, 0)) == exact(cut_join_nonlinear_unpruned(f, 0))
    # the operator of one family leaves the other family's cap alone
    f = random_series(rng, 2, (3, 2))
    for fam in (0, 1):
        assert (exact(cut_join_nonlinear_reference(f, fam))
                == exact(cut_join_nonlinear_unpruned(f, fam)))


def test_cut_join_forms_only_kept_keys(monkeypatch):
    # the reference forms dF/dp_i dF/dp_j only on keys with room for p_{i+j}
    calls = []
    real = oracles.mul_parts_reference

    def spy(x, fam, *parts):
        out = real(x, fam, *parts)
        calls.append((len(x.co), len(out.co)))
        return out

    monkeypatch.setattr(oracles, "mul_parts_reference", spy)
    cut_join_nonlinear_reference(random_series(random.Random(5), 1, (6,), density=0.8), 0)
    assert calls and sum(formed for formed, _ in calls) > 0
    assert all(formed == kept for formed, kept in calls)


@pytest.mark.parametrize("fams,caps", [(1, (5,)), (2, (3, 2)), (3, (2, 1, 3))])
def test_graded_exp_log_match_power_sums(fams, caps):
    rng = random.Random(sum(caps) * 10 + fams)
    f = random_series(rng, fams, caps, density=0.4)
    e = pseries_exp(f, TR)
    assert exact(e) == exact(exp_power_sum(f, TR))
    assert exact(e.log()) == exact(log_power_sum(e))


def test_products_match_pairwise_fold_on_framed_slices():
    # each key sums its coefficient products once (series.combine); the
    # reference adds them pairwise in first-seen key order
    slices = build_series(3, 8, 1).disconnected._slices()
    for x in slices:
        for y in slices:
            assert_same_pseries(x * y, mul_reference(x, y))


@pytest.mark.parametrize("args", [(3, 8, 1), (2, 7, 2)])
def test_sums_match_pairwise_fold_on_framed_series(args):
    # every sum is one series.combine per key; the references add each key's
    # pieces pairwise, as the operators did before
    fs = build_series(*args)
    x, y = fs.disconnected, fs.connected
    assert_same_pseries(x + y, add_reference(x, y))
    assert_same_pseries(x - y, add_reference(x, pscale(y, -1)))


@pytest.mark.parametrize("args", [(5, 11, 1), (3, 9, 2)])
def test_graded_log_matches_pairwise_recursion_on_framed_slices(args):
    # one fold per slice against the recursion that reduces each product and
    # each partial sum on its own: equal keys, windows and coefficients
    x = build_series(*args).disconnected
    got = graded_log(x._slices(), x._fold)
    want = graded_log_reference(x._slices(), x._like({}))
    for g, w in zip(got, want, strict=True):
        assert_same_pseries(g, w)
    assert_same_pseries(x.log(), x._join(want))


def _count_combines(monkeypatch):
    calls = []
    real = pseries.combine

    def spy(terms):
        calls.append(1)
        return real(terms)

    monkeypatch.setattr(pseries, "combine", spy)
    return calls


@pytest.mark.parametrize("args", [(4, 9, 1), (2, 7, 2)])
def test_log_and_cut_join_reduce_each_key_once(monkeypatch, args):
    # every output key of the log and of the cut-and-join residual is one
    # series.combine; the operator's terms on each key form none
    fs = build_series(*args)
    calls = _count_combines(monkeypatch)
    log = fs.disconnected.log()
    assert len(calls) == len(log.co) > 0
    calls.clear()
    res = pde_residual(fs)
    assert len(calls) == len(res.co) > 0


def test_two_family_residual_is_one_fold(monkeypatch):
    # dG/dtau - (CJ)+ G + (CJ)- G / tau^2 is one sum of every key's terms:
    # one combine per key of the residual, none for the operators apart
    fs = build_series(2, 7, 2)
    calls = _count_combines(monkeypatch)
    res = pde_residual(fs)
    assert len(calls) == len(res.co) > 0
