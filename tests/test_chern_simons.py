from fractions import Fraction

from dualcalc.chern_simons import (check_pair_reduction, w_one, w_one_lambda,
                                   w_pair, w_pair_lambda)
from dualcalc.partitions import enumerate_partitions, size
from dualcalc.qfunc import QFunction, ULaurent
from dualcalc.scalars import GaussianRational
from oracles import (lambda_form, plain_form, qfunction, reciprocal, sin_expand,
                     w_pair_reference)


def test_w_one_empty_and_single():
    assert w_one(()) == QFunction.const(1)
    # 1/(2 sin(lambda/2))
    assert w_one((1,)) == qfunction(-1, ULaurent.const(1), ULaurent.bracket(1))


def test_w_one_two_cells():
    # 1/(2 sin(lambda/2) 2 sin(lambda))
    expect = qfunction(-2, ULaurent.const(1),
                       ULaurent.bracket(1) * ULaurent.bracket(2))
    assert w_one((2,)) == expect
    assert w_one((1, 1)) == expect  # ratio part is 1 for (1,1)


def _w_one_by_constructor(mu):
    """w_one as ``oracles.qfunction`` reduces it: the bracket products
    multiplied out and the denominator factored by trial division."""
    l = len(mu)
    num, den = ULaurent.const(1), ULaurent.const(1)
    for a in range(l):
        for b in range(a + 1, l):
            num = num * ULaurent.bracket(mu[a] - mu[b] + b - a)
            den = den * ULaurent.bracket(b - a)
    for i in range(1, l + 1):
        for v in range(1, mu[i - 1] + 1):
            den = den * ULaurent.bracket(v - i + l)
    return qfunction(-size(mu), num, den)


def test_w_one_factored_matches_constructor():
    # w_one cancels the cyclotomic factor multisets of the brackets directly
    for n in range(8):
        for mu in enumerate_partitions(n):
            got, expect = w_one(mu), _w_one_by_constructor(mu)
            assert got == expect, mu
            assert (got.ipow, got.num.c, got.fac) == (expect.ipow, expect.num.c, expect.fac)


def test_w_one_floor():
    for n in range(0, 7):
        for mu in enumerate_partitions(n):
            s = w_one_lambda(mu, 3)
            if n:
                assert s.valuation() == -n


def test_w_one_lambda_inverse_sine():
    # a series in lambda' = i lambda; the value is (-i)^ipow times it
    s = w_one_lambda((1,), 4)
    form = lambda_form(s, -w_one((1,)).ipow)
    assert form[-1] == {0: GaussianRational(1)}
    assert form[1] == {0: GaussianRational(Fraction(1, 24))}
    # independent oracle: invert the sine series directly
    want = plain_form(reciprocal(sin_expand(1, 8)))
    assert {e: c for e, c in form.items() if e < 3} == {e: c for e, c in want.items() if e < 3}


def test_w_pair_basics():
    assert w_pair((), ()) == QFunction.const(1)
    # mu=(1), nu=(): -q^{1/2}/(1-q) = -u/(1-u^2)
    expect = qfunction(2, ULaurent.mono(1), ULaurent.const(1) - ULaurent.mono(2))
    assert w_pair((1,), ()) == expect
    # mu=nu=(1): q*(1/(1-q)^2 + q^{-1})
    one_minus_q = ULaurent.const(1) - ULaurent.mono(2)
    s11 = qfunction(0, ULaurent.const(1), one_minus_q * one_minus_q)
    expect11 = (s11 + qfunction(0, ULaurent.mono(-2), ULaurent.const(1))) * qfunction(
        0, ULaurent.mono(2), ULaurent.const(1))
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


def test_pair_reduction_failure_is_a_verdict(monkeypatch):
    from dualcalc import verify

    monkeypatch.setattr(verify, "check_pair_reduction", lambda nu: False)
    assert verify.check_vertex("quick") == (False, {"failed": "pair-reduction"})


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
            assert (got.ipow, got.num, got.fac) == (want.ipow, want.num, want.fac), (mu, nu)
