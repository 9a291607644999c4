import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import dualcalc
from dualcalc import chern_simons, hodge, qfunc, series
from dualcalc.errors import InternalError, UsageError
from dualcalc.hodge import (FramedSeries, b_constant, build_series,
                            convolution_check, elsv_limit_check,
                            framing_prefactor, hodge_extract,
                            initial_value_report, lambda_g_check, ov_term,
                            pde_residual, slice_reduction_check,
                            swap_symmetry_check, window_reaches)
from dualcalc.partitions import character, enumerate_partitions, kappa, length, size
from dualcalc.pseries import PSeries
from dualcalc.qfunc import QFunction
from dualcalc.series import LambdaSeries, TauLaurent
from oracles import (assert_same_pseries, build_series_reference,
                     cut_join_nonlinear_reference, lambda_form, plain_form, reciprocal,
                     sin_expand)


@pytest.fixture(scope="module")
def fs3():
    return build_series(3, 11, 1)


@pytest.fixture(scope="module")
def fs2fam():
    return build_series(2, 9, 2)


def test_empty_key_is_one(fs3):
    c = fs3.disconnected.coeff(((),))
    assert c.eq_through(LambdaSeries.one(c.trunc), 0, c.trunc)


def test_p1_coefficient_is_inverse_sine(fs3):
    # coefficient of p_1 is tau-independent: 1/(2 sin(lambda/2)), read back in
    # lambda from the stored S_1 (G_1(lambda) = i S_1(i lambda)) and from the
    # lambda' expansion of ov_term(1) (1/(2 sin(lambda/2)) = i ov_term(1))
    s = fs3.disconnected.coeff(((1,),))
    expect = ov_term(1).to_lambda(s.trunc)
    assert (s.floor, s.trunc) == (expect.min_exp(), fs3.trunc) == (-1, fs3.trunc)
    assert lambda_form(s, 1) == lambda_form(expect, 1)
    # and from the reciprocal of the sine series itself
    want = plain_form(reciprocal(sin_expand(1, s.trunc + 2)))
    assert lambda_form(s, 1) == {e: c for e, c in want.items() if e < s.trunc}


def test_single_part_floor(fs3):
    for d in (1, 2, 3):
        s = fs3.connected.coeff(((d,),)).pruned()
        assert s.floor == -1 and s.co[0]


def test_pde_residual_one_family(fs3):
    assert pde_residual(fs3).is_zero_through_windows()
    # the connected windows cover the g <= 3 orders for every key, and no more
    assert window_reaches(3, 11, 3) and not window_reaches(3, 11, 4)


@pytest.mark.parametrize("cap,trunc", [(2, 7), (3, 9), (4, 15), (6, 15)])
def test_window_rule_is_the_connected_windows(cap, trunc):
    # R_mu lives on [l(mu) - 2, trunc - l(mu) + 1): the closed form that
    # window_reaches reads, against the windows the log actually gives
    fs = build_series(cap, trunc, 1)
    for (mu,), s in fs.connected.co.items():
        assert s.floor >= length(mu) - 2 and s.trunc == trunc - length(mu) + 1
    for g in range(4):
        want = all(trunc - length(mu) + 1 > 2 * g - 2 + length(mu)
                   for (mu,) in fs.connected.co)
        assert window_reaches(cap, trunc, g) == want


def _connected_residual(fs):
    """dR/dtau - lambda' CJ_nl(R) on R = log G, every operator the pairwise
    reference: the nonlinear form of the evolution pde_residual checks."""
    r = fs.connected
    cj = cut_join_nonlinear_reference(r, 0)
    return r._fold([(1, r.map_coeffs(lambda key, s: s.tau_deriv()), None),
                    (-1, cj.map_coeffs(lambda key, s: s.shift(1)), None)])


@pytest.mark.parametrize("cap,trunc", [(2, 7), (3, 9), (4, 15), (6, 15)])
def test_linear_and_connected_residuals_agree(cap, trunc):
    fs = build_series(cap, trunc, 1)
    assert pde_residual(fs).is_zero_through_windows()
    assert _connected_residual(fs).is_zero_through_windows()


def _flip_one_character(nu, mu):
    c = character(nu, mu)
    return -c if (nu, mu) == ((2, 1), (3,)) else c


@pytest.mark.parametrize("name,value", [("kappa", lambda nu: 2 * kappa(nu)),
                                        ("character", _flip_one_character)],
                         ids=["kappa-doubled", "chi21-at-3-flipped"])
def test_both_residuals_see_a_wrong_build(monkeypatch, name, value):
    assert character((2, 1), (3,))  # the flipped value is not zero
    monkeypatch.setattr(hodge, name, value)
    fs = build_series.__wrapped__(3, 9, 1)  # past the cache, with the mutant
    assert not pde_residual(fs).is_zero_through_windows()
    assert not _connected_residual(fs).is_zero_through_windows()


def test_pde_residual_degree_one_trivial():
    fs = build_series(1, 6, 1)
    res = pde_residual(fs)
    assert res.is_zero_through_windows()


def test_initial_value(fs3):
    rep = initial_value_report(fs3)
    assert rep["ok"]
    assert rep["multi_part_vanish"] and rep["single_part_match"]
    assert rep["phase_by_degree"] == {1: "i^0", 2: "i^1", 3: "i^2"}


def test_framing_prefactor_structure():
    # degree |mu| + l - 2, lowest term degree l - 1, ends nonzero
    for n in range(1, 5):
        for mu in enumerate_partitions(n):
            a = framing_prefactor(mu)
            assert a.max_exp() == size(mu) + length(mu) - 2
            assert a.min_exp() == length(mu) - 1
            assert a.c[a.max_exp()] and a.c[a.min_exp()]


def test_hodge_extract_g0(fs3):
    # g=0 values follow the closed form |mu|^(l-3), including the
    # extension to l < 3
    for n in range(1, 4):
        for mu in enumerate_partitions(n):
            poly = hodge_extract(fs3, 0, mu)
            expect = Fraction(size(mu)) ** (length(mu) - 3)
            assert poly[0] == expect
            assert all(not c for c in poly[1:])


def test_hodge_extract_reality_and_degree(fs3):
    for g in (0, 1, 2):
        for n in range(1, 4):
            for mu in enumerate_partitions(n):
                poly = hodge_extract(fs3, g, mu)  # raises on any failure
                assert len(poly) <= 2 * g + 1


def test_lambda_g_values(fs3):
    assert b_constant(1) == Fraction(1, 24)
    assert b_constant(2) == Fraction(7, 5760)
    assert lambda_g_check(fs3, 1, (1,))
    assert lambda_g_check(fs3, 1, (2, 1))
    assert lambda_g_check(fs3, 2, (1,))
    # the (2,1) case carries b_1 |mu|^(2g+n-3) = (1/24) * 3^1 = 1/8
    # (2g+n-3 = 1 for g=1, n=2)
    poly = hodge_extract(fs3, 1, (2, 1))
    assert poly[0] == Fraction(1, 8)


_NEGATED_FIRST_CASE = """
from dualcalc import hodge
extract = hodge.hodge_extract
hodge.hodge_extract = lambda fs, g, mu: [-c for c in extract(fs, g, mu)]
print(hodge.lambda_g_check(hodge.build_series(1, 9, 1), 1, (1,)))
"""


def test_lambda_g_rejects_negated_first_case():
    # a fresh interpreter, so this is the first lambda_g_check call of the
    # process: the verdict may not depend on which case happens to run first
    src = str(Path(dualcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _NEGATED_FIRST_CASE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_elsv_limit(fs3):
    assert elsv_limit_check(fs3)


def test_convolution(fs3):
    assert convolution_check(fs3)


@pytest.mark.parametrize("mu,e", [((2,), -1), ((1, 1), 0), ((2,), 5)])
def test_convolution_sees_a_framing_dependent_term(fs3, mu, e):
    # tau lambda'^e vanishes at tau = 0, where the kernel is read, so the
    # kernel cannot absorb it; fs3 is left as it is
    co = dict(fs3.disconnected.co)
    s = co[(mu,)]
    co[(mu,)] = s + LambdaSeries.from_map({e: TauLaurent({1: 1})}, s.trunc)
    bad = FramedSeries(1, fs3.caps, fs3.trunc, PSeries(1, fs3.caps, co))
    assert not convolution_check(bad)
    assert convolution_check(fs3)


def test_two_family_pde(fs2fam):
    res = pde_residual(fs2fam)
    assert res.is_zero_through_windows()


def test_two_family_swap(fs2fam):
    assert swap_symmetry_check(fs2fam)


def test_two_family_slice_bridge(fs2fam):
    fs1 = build_series(2, 9, 1)
    assert slice_reduction_check(fs2fam, fs1)


def _altered(fs, key, e, tau_exp):
    """A new FramedSeries: fs with tau^tau_exp lambda'^e added to the
    coefficient of key; fs is left as it is."""
    co = dict(fs.disconnected.co)
    s = co[key]
    co[key] = s + LambdaSeries.from_map({e: TauLaurent({tau_exp: 1})}, s.trunc)
    return FramedSeries(fs.families, fs.caps, fs.trunc, PSeries(fs.families, fs.caps, co))


@pytest.mark.parametrize("key,e,tau_exp", [(((2,), (1,)), 0, 0), (((1,), (1,)), 1, 1),
                                           (((1, 1), ()), 2, -1)])
def test_swap_symmetry_sees_one_altered_coefficient(fs2fam, key, e, tau_exp):
    assert not swap_symmetry_check(_altered(fs2fam, key, e, tau_exp))
    assert swap_symmetry_check(fs2fam)


@pytest.mark.parametrize("mu,e,tau_exp", [((1,), 0, 0), ((2,), 1, 1), ((1, 1), 3, 0)])
def test_slice_bridge_sees_one_altered_coefficient(fs2fam, mu, e, tau_exp):
    fs1 = build_series(2, 9, 1)
    assert not slice_reduction_check(_altered(fs2fam, (mu, ()), e, tau_exp), fs1)
    assert slice_reduction_check(fs2fam, fs1)


def test_framing_prefactor_is_built_once_per_partition(fs3):
    cases = [(g, mu) for g in (1, 2) for n in range(1, 4) for mu in enumerate_partitions(n)]
    partitions = len({mu for _g, mu in cases})
    framing_prefactor.cache_clear()
    # the extractions too, or a case extracted earlier would not reach the prefactor
    hodge_extract.cache_clear()
    assert all(lambda_g_check(fs3, g, mu) for g, mu in cases)
    assert framing_prefactor.cache_info()[:2] == (len(cases) - partitions, partitions)
    # a second pass reads every extraction from its cache: no prefactor is read
    assert all(lambda_g_check(fs3, g, mu) for g, mu in cases)
    assert framing_prefactor.cache_info()[:2] == (len(cases) - partitions, partitions)
    assert hodge_extract.cache_info()[:2] == (len(cases), len(cases))


# (3, 9, 1) has a zero character in its weight-3 block and the lone term of
# weight 1; (6, 15, 1), (3, 9, 2) and (4, 15, 1) are the benchmark's and the
# verdict's builds
@pytest.mark.parametrize("args", [(3, 8, 1), (2, 7, 2), (3, 9, 2), (6, 15, 1), (4, 15, 1),
                                  (3, 9, 1)])
def test_build_matches_two_branch_reference(args):
    assert_same_pseries(build_series(*args).disconnected,
                        build_series_reference(*args).disconnected)


def test_build_forms_no_series_sum_or_product(monkeypatch):
    # the blocks are summed on integers: no series.combine, no series product
    def refuse(*args):
        raise AssertionError("a series sum or product in the build")

    build_series.cache_clear()
    for module in (series, hodge):
        monkeypatch.setattr(module, "combine", refuse)
    monkeypatch.setattr(LambdaSeries, "__mul__", refuse)
    builds = {args: build_series(*args) for args in [(3, 8, 1), (2, 7, 2)]}
    monkeypatch.undo()
    for args, fs in builds.items():
        assert_same_pseries(fs.disconnected, build_series_reference(*args).disconnected)


def test_two_family_build_takes_no_trial_division(monkeypatch):
    # each two-family W is expanded from its unreduced numerator: no value is
    # reduced against its Pochhammer brackets
    calls = []
    real_from, real_strip = QFunction.from_factors, qfunc._strip
    monkeypatch.setattr(QFunction, "from_factors",
                        staticmethod(lambda *a: calls.append("from_factors") or real_from(*a)))
    monkeypatch.setattr(qfunc, "_strip", lambda *a: calls.append("_strip") or real_strip(*a))
    for cached in (build_series, chern_simons.w_pair, chern_simons.w_pair_lambda):
        cached.cache_clear()
    build_series(3, 9, 2)
    assert calls == []


@pytest.mark.parametrize("families,target", [(1, ((1, 1),)), (2, ((1,), (1,)))],
                         ids=["one-family", "two-family"])
@pytest.mark.parametrize("off", ["shifted"])
def test_a_w_off_the_block_window_is_an_internal_error(monkeypatch, families, target, off):
    # every W of a weight-n block starts at lambda'^(-n), the floor of the
    # block's one window [-n, trunc): a W moved up by one power is caught.  An
    # expansion is exact through trunc and holds no window, so none is cut short
    name = "w_one_lambda" if families == 1 else "w_pair_lambda"
    real, trunc = getattr(hodge, name), 7

    def moved(*args):
        w = real(*args)
        return w.shift(1) if args[:-1] == target else w

    monkeypatch.setattr(hodge, name, moved)
    keys = list(product(*map(enumerate_partitions, (2,) if families == 1 else (1, 1))))
    with pytest.raises(InternalError, match=r"does not span \[-2, 7\)"):
        hodge._block(keys, trunc, families)


def test_framed_checks_add_no_tau_polynomials_pairwise(monkeypatch):
    # every lambda-series sum of the evolution and the log is one
    # series.combine, so the pairwise TauLaurent sum is never reached
    builds = [build_series(3, 8, 1), build_series(2, 7, 2)]

    def refuse(self, other):
        raise AssertionError("pairwise TauLaurent sum")

    monkeypatch.setattr(TauLaurent, "__add__", refuse)
    for fs in builds:
        # a new FramedSeries takes its logarithm afresh
        fresh = FramedSeries(fs.families, fs.caps, fs.trunc, fs.disconnected)
        assert pde_residual(fresh).is_zero_through_windows()
        assert fresh.disconnected.log().co


def test_family_count_guard(fs3, fs2fam):
    with pytest.raises(UsageError):
        initial_value_report(fs2fam)
    with pytest.raises(UsageError):
        swap_symmetry_check(fs3)
    with pytest.raises(UsageError):
        build_series(2, 6, 3)


def test_extraction_cache_refuses_floats_in_either_call_order(fs3):
    # an untyped cache keys 1.0 as 1 and (2.0,) as (2,): a float is refused
    # before and after the integer arguments are cached
    hodge_extract.cache_clear()
    for _ in range(2):
        for g, mu in [(1, (2.0,)), (1.0, (2,))]:
            with pytest.raises(UsageError, match="must be an integer"):
                hodge_extract(fs3, g, mu)
        hodge_extract(fs3, 1, (2,))


def test_build_series_takes_only_integer_arguments():
    # a typed cache: 2.0 is refused even when the build of 2 is cached
    build_series(2, 5, 1)
    for args in [(2.5, 5, 1), (2.0, 5, 1), (2, 5.0, 1), (2, 5, 1.0)]:
        with pytest.raises(UsageError, match="must be an integer"):
            build_series(*args)
