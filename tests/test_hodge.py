import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dualcalc
from dualcalc.errors import UsageError
from dualcalc.hodge import (FramedSeries, b_constant, build_series,
                            convolution_check, elsv_limit_check,
                            framing_prefactor, hodge_extract, hodge_extract_cached,
                            initial_value_report, lambda_g_check, ov_term,
                            pde_residual, residual_window_ok,
                            slice_reduction_check, swap_symmetry_check)
from dualcalc.partitions import enumerate_partitions, length, size
from dualcalc.pseries import PSeries
from dualcalc.series import LambdaSeries, TauLaurent
from oracles import (assert_same_pseries, build_series_reference, lambda_form, plain_form,
                     reciprocal, sin_expand)


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
    assert (s.floor, s.trunc) == (expect.floor, expect.trunc) == (-1, fs3.trunc)
    assert lambda_form(s, 1) == lambda_form(expect, 1)
    # and from the reciprocal of the sine series itself
    want = plain_form(reciprocal(sin_expand(1, s.trunc + 2)))
    assert lambda_form(s, 1) == {e: c for e, c in want.items() if e < s.trunc}


def test_single_part_floor(fs3):
    for d in (1, 2, 3):
        s = fs3.connected.coeff(((d,),))
        assert s.valuation() == -1


def test_pde_residual_one_family(fs3):
    res = pde_residual(fs3)
    assert res.is_zero_through_windows()
    # windows must cover the g <= 2 orders for every key
    assert residual_window_ok(res, lambda key: 2 * 2 - 2 + length(key[0]) + 1)


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
    hodge_extract_cached.cache_clear()
    assert all(lambda_g_check(fs3, g, mu) for g, mu in cases)
    assert framing_prefactor.cache_info()[:2] == (len(cases) - partitions, partitions)
    # a second pass reads every extraction from its cache: no prefactor is read
    assert all(lambda_g_check(fs3, g, mu) for g, mu in cases)
    assert framing_prefactor.cache_info()[:2] == (len(cases) - partitions, partitions)
    assert hodge_extract_cached.cache_info()[:2] == (len(cases), len(cases))


@pytest.mark.parametrize("args", [(3, 8, 1), (2, 7, 2), (3, 9, 2)])
def test_build_matches_two_branch_reference(args):
    assert_same_pseries(build_series(*args).disconnected,
                        build_series_reference(*args).disconnected)


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
    hodge_extract_cached.cache_clear()
    for _ in range(2):
        for g, mu in [(1, (2.0,)), (1.0, (2,))]:
            with pytest.raises(UsageError, match="must be an integer"):
                hodge_extract_cached(fs3, g, mu)
        hodge_extract_cached(fs3, 1, (2,))


def test_build_series_takes_only_integer_arguments():
    # a typed cache: 2.0 is refused even when the build of 2 is cached
    build_series(2, 5, 1)
    for args in [(2.5, 5, 1), (2.0, 5, 1), (2, 5.0, 1), (2, 5, 1.0)]:
        with pytest.raises(UsageError, match="must be an integer"):
            build_series(*args)
