from fractions import Fraction

import pytest

from dualcalc.chern_simons import (check_pair_reduction, w_one, w_one_lambda,
                                   w_pair, w_pair_lambda)
from dualcalc.errors import UsageError
from dualcalc.partitions import enumerate_partitions
from dualcalc.qfunc import QFunction, ULaurent
from dualcalc.scalars import GaussianRational
from oracles import (bracket, lambda_form, phased, phased_product, plain_form, qfunction,
                     reciprocal, sin_expand, w_pair_reference)


def test_w_one_empty_and_single():
    assert w_one(()) == QFunction.const(1)
    # 1/(2 sin(lambda/2)) = i / [1]
    assert w_one((1,)) == qfunction(ULaurent.const(1), bracket(1))


def test_w_one_two_cells():
    # 1/(2 sin(lambda/2) 2 sin(lambda)) = i^2 / ([1] [2])
    expect = qfunction(ULaurent.const(1), bracket(1) * bracket(2))
    assert w_one((2,)) == expect
    assert w_one((1, 1)) == expect  # ratio part is 1 for (1,1)


def _w_one_by_constructor(mu):
    """w_one as ``oracles.qfunction`` reduces it: the bracket products
    multiplied out and the denominator factored by trial division."""
    tops, bottoms = _sine_arguments(mu)
    num, den = ULaurent.const(1), ULaurent.const(1)
    for m in tops:
        num = num * bracket(m)
    for m in bottoms:
        den = den * bracket(m)
    return qfunction(num, den)


def _sine_arguments(mu):
    """The arguments m of the factors 2 sin(m lambda/2) of W_mu over and under
    the line: pairs a < b give (mu_a - mu_b + b - a) over (b - a), and each
    cell (i, v) gives (v - i + l) under."""
    l = len(mu)
    pairs = [(a, b) for a in range(l) for b in range(a + 1, l)]
    tops = [mu[a] - mu[b] + b - a for a, b in pairs]
    bottoms = [b - a for a, b in pairs]
    bottoms += [v - i + l for i in range(1, l + 1) for v in range(1, mu[i - 1] + 1)]
    return tops, bottoms


def test_w_one_factored_matches_constructor():
    # w_one cancels the cyclotomic factor multisets of the brackets directly
    for n in range(8):
        for mu in enumerate_partitions(n):
            got, expect = w_one(mu), _w_one_by_constructor(mu)
            assert got == expect, mu
            assert (got.num.c, got.fac) == (expect.num.c, expect.fac)


def test_w_one_times_its_power_of_i_is_the_sine_product():
    # W_mu = i^{|mu|} w_one(mu) against the product of its factors
    # 2 sin(m lambda/2) = (-i)[m], each carrying its own phase: the
    # (-i)^{-|mu|} bracket form of W_mu
    for n in range(8):
        for mu in enumerate_partitions(n):
            tops, bottoms = _sine_arguments(mu)
            sines = [phased(1, qfunction(bracket(m), ULaurent.const(1))) for m in tops]
            sines += [phased(-1, qfunction(ULaurent.const(1), bracket(m))) for m in bottoms]
            assert phased(-n, w_one(mu)) == phased_product(*sines), mu


def test_w_one_floor():
    for n in range(0, 7):
        for mu in enumerate_partitions(n):
            s = w_one_lambda(mu, 3)
            if n:
                assert s.min_exp() == -n


def test_w_one_lambda_inverse_sine():
    # a series in lambda' = i lambda; W_1 = i w_one((1,)) is i times it
    s = w_one_lambda((1,), 4)
    form = lambda_form(s, 1)
    assert form[-1] == {0: GaussianRational(1)}
    assert form[1] == {0: GaussianRational(Fraction(1, 24))}
    # independent oracle: invert the sine series directly
    want = plain_form(reciprocal(sin_expand(1, 8)))
    assert {e: c for e, c in form.items() if e < 3} == {e: c for e, c in want.items() if e < 3}


def test_w_pair_basics():
    assert w_pair((), ()) == QFunction.const(1)
    # mu=(1), nu=(): -q^{1/2}/(1-q) = -u/(1-u^2)
    expect = qfunction(ULaurent({1: -1}), ULaurent.const(1) - ULaurent.mono(2))
    assert w_pair((1,), ()) == expect
    # mu=nu=(1): q*(1/(1-q)^2 + q^{-1})
    one_minus_q = ULaurent.const(1) - ULaurent.mono(2)
    s11 = qfunction(ULaurent.const(1), one_minus_q * one_minus_q)
    expect11 = (s11 + qfunction(ULaurent.mono(-2), ULaurent.const(1))) * qfunction(
        ULaurent.mono(2), ULaurent.const(1))
    assert w_pair((1,), (1,)) == expect11


def test_w_pair_symmetry():
    for a in range(0, 6):
        for b in range(0, 6):
            for mu in enumerate_partitions(a):
                for nu in enumerate_partitions(b):
                    assert w_pair(mu, nu) == w_pair(nu, mu)


def test_pair_reduction_bridge():
    for n in range(0, 6):
        for mu in enumerate_partitions(n):
            assert check_pair_reduction(mu)


def test_w_pair_lambda_cached():
    a = w_pair_lambda((2, 1), (1,), 4)
    b = w_pair_lambda((2, 1), (1,), 4)
    assert a is b


def test_w_pair_lambda_is_the_reduced_expansion():
    # the unreduced numerator over the Pochhammer brackets expands to the
    # reduced value's expansion, numerators and denominator
    small = [mu for n in range(5) for mu in enumerate_partitions(n)]
    for mu in small:
        for nu in small:
            for t in (1, 5, 13):
                got, want = w_pair_lambda(mu, nu, t), w_pair(mu, nu).to_lambda(t)
                assert (got.num, got.den) == (want.num, want.den), (mu, nu, t)


@pytest.mark.parametrize("fn,good,bad", [
    (w_one_lambda, ((2,), 3), [((2.0,), 3), ((2,), 3.0)]),
    (w_pair_lambda, ((2,), (1,), 3), [((2.0,), (1,), 3), ((2,), (1.0,), 3), ((2,), (1,), 3.0)]),
], ids=["w_one_lambda", "w_pair_lambda"])
def test_lambda_caches_refuse_floats_in_either_call_order(fn, good, bad):
    # an untyped cache keys 2.0 as 2: a float is refused before and after
    # the integer arguments are cached
    fn.cache_clear()
    for _ in range(2):
        for args in bad:
            with pytest.raises(UsageError, match="must be an integer"):
                fn(*args)
        fn(*good)
    # a list, which the cache cannot hash, is read as its partition
    assert fn(*(list(a) if type(a) is tuple else a for a in good)) is fn(*good)


def test_pair_reduction_failure_is_a_verdict(monkeypatch):
    from dualcalc import verify

    monkeypatch.setattr(verify, "check_pair_reduction", lambda nu: False)
    assert verify.check_vertex("full") == (False, {"failed": "pair-reduction"})


def test_import_computes_no_w_value():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import dualcalc.chern_simons as c; "
            "print(c.w_pair.cache_info().currsize, c.w_one.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["0", "0"]


def test_w_pair_matches_reduced_product_reference():
    # one integer numerator per W against the fold of reduced skew-Schur products
    small = [mu for n in range(6) for mu in enumerate_partitions(n)]
    for mu in small:
        for nu in small:
            got, want = w_pair(mu, nu), w_pair_reference(mu, nu)
            assert (got.num, got.fac) == (want.num, want.fac), (mu, nu)
