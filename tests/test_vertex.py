import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dualcalc import qfunc, verify, vertex
from dualcalc.chern_simons import w_pair
from dualcalc.errors import UsageError, VerificationFailure
from dualcalc.partitions import kappa
from dualcalc.qfunc import QFunction, ULaurent
from dualcalc.series import LambdaSeries
from dualcalc.vertex import (cover_table, extract_gw, gv_forward, gv_invert,
                             local_p2_free_energy, local_p2_z,
                             rebuild_partition_function)
from oracles import (as_scalar, graded_log_reference, gv_forward_reference, q_add_reference,
                     q_mul_reference, qfunction, qneg, reciprocal, sin_expand)


def test_degree_zero_is_one():
    assert local_p2_z(0)[0] == QFunction.const(1)


def test_degree_one_slice_explicit():
    # three placements of the single box, each contributing
    # -W((1),0) W(0,0) W(0,(1)) with kappa-prefactor 1
    z1 = local_p2_z(1)[1]
    single = q_mul_reference(q_mul_reference(w_pair((1,), ()), w_pair((), ())), w_pair((), (1,)))
    expect = qneg(q_add_reference(q_add_reference(single, single), single))
    assert z1 == expect


def test_free_energy_low_degrees():
    z = local_p2_z(3)
    f = local_p2_free_energy(3)
    assert f[1] == z[1]
    assert f[2] == q_add_reference(z[2], q_mul_reference(z[1], z[1]).scale(Fraction(-1, 2)))


def test_gw_values_and_parity():
    n_table = extract_gw(3, 2)
    # degree-1 genus-0 slice comes out to 3 covers of the hyperplane class
    assert n_table[(0, 1)] == 3
    # denominators divide d^3-products
    for d in (1, 2, 3):
        assert (n_table[(0, d)] * d ** 3).denominator in (1, 2, 4, 8)


def test_gv_integrality_window():
    n_table = extract_gw(3, 2)
    gv = gv_invert(n_table, 3, 2)
    assert all(isinstance(v, int) for v in gv.values())
    assert gv[(0, 1)] == 3


def test_gv_zero_maps_to_zero():
    zeros = {(g, d): Fraction(0) for g in range(3) for d in range(1, 4)}
    assert all(v == 0 for v in gv_invert(zeros, 3, 2).values())


def test_gv_forward_round_trip_synthetic():
    # synthetic integer tables round-trip exactly (d <= 4, g <= 3)
    synth = {(g, d): ((-1) ** (g + d)) * (3 * g + 2 * d - 1)
             for g in range(4) for d in range(1, 5)}
    n_table = gv_forward(synth, 4, 3)
    assert gv_invert(n_table, 4, 3) == synth


@pytest.mark.parametrize("d_max,g_max", [(6, 2), (9, 2)])
def test_verdict_synthetic_round_trip_past_degree_four(d_max, g_max):
    # the acceptance check runs it at (3, 2); its table once stopped at
    # degree 4, which failed a correct vertex from d_max = 5 on
    assert verify.synthetic_round_trip(d_max, g_max)


def test_gv_non_integer_rejected():
    bad = {(g, d): Fraction(0) for g in range(2) for d in range(1, 3)}
    bad[(0, 1)] = Fraction(1, 3)
    with pytest.raises(VerificationFailure):
        gv_invert(bad, 2, 1)


def test_exp_log_round_trip():
    assert rebuild_partition_function(3)


def test_u_exponent_integrality():
    # q^{(1/2) sum kappa} is an integral u-power since kappa is even
    for nu in [(1,), (2,), (1, 1), (2, 1)]:
        assert kappa(nu) % 2 == 0


@pytest.mark.parametrize("d_max,g_max", [(2, -1), (0, 1)])
def test_extract_gw_rejects_empty_table(d_max, g_max):
    with pytest.raises(UsageError):
        extract_gw(d_max, g_max)


@pytest.mark.parametrize("d", range(7))
def test_grouped_slice_matches_term_by_term_sum(d):
    # reference: one reduced QFunction product and sum per partition triple
    from dualcalc.partitions import enumerate_partitions

    acc = QFunction.const(0)
    for a in range(d + 1):
        for b in range(d + 1 - a):
            for nu1 in enumerate_partitions(a):
                for nu2 in enumerate_partitions(b):
                    for nu3 in enumerate_partitions(d - a - b):
                        ks = kappa(nu1) + kappa(nu2) + kappa(nu3)
                        u_ks = qfunction(ULaurent.mono(ks), ULaurent.const(1))
                        term = q_mul_reference(q_mul_reference(
                            w_pair(nu1, nu2), w_pair(nu2, nu3)), w_pair(nu3, nu1))
                        acc = q_add_reference(acc, q_mul_reference(term, u_ks))
    if d % 2:
        acc = qneg(acc)
    assert local_p2_z(6)[d] == acc


@pytest.mark.parametrize("d", range(9))
def test_orbit_representatives_cover_every_ordered_triple_once(d, monkeypatch):
    # with W replaced by its argument pair, each representative repeated m
    # times and rotated must give every ordered triple of size d exactly once
    from dualcalc.partitions import enumerate_partitions

    monkeypatch.setattr(vertex, "_w", lambda mu, nu: (mu, nu))
    got = Counter()
    for c, (w12, w23, w31), ks in vertex._vertex_terms(d):
        nus = (w12[0], w23[0], w31[0])
        assert (w12[1], w23[1], w31[1]) == nus[1:] + nus[:1]
        assert ks == sum(map(kappa, nus))
        m = c * (-1) ** d
        assert m == (1 if len(set(nus)) == 1 else 3)
        got.update(nus[k:] + nus[:k] for k in range(m))
    want = Counter((nu1, nu2, nu3) for a in range(d + 1) for b in range(d + 1 - a)
                   for nu1 in enumerate_partitions(a) for nu2 in enumerate_partitions(b)
                   for nu3 in enumerate_partitions(d - a - b))
    assert got == want


def test_vertex_reduces_no_w_and_reads_both_orders():
    # in a fresh process: the reduced w_pair is never called, trial division
    # runs once per slice sum and never on a W, and the unreduced W memo is
    # closed under swapping its two partitions (the vertex reads both orders)
    code = """
import json
from dualcalc import chern_simons, qfunc, vertex
from dualcalc.partitions import enumerate_partitions
from dualcalc.qfunc import QFunction
calls = []
real_from, real_sum, real_pair = QFunction.from_factors, qfunc.sum_of_products, chern_simons.w_pair
chern_simons.w_pair = lambda *a: calls.append("w_pair") or real_pair(*a)
QFunction.from_factors = staticmethod(lambda *a: calls.append("from_factors") or real_from(*a))
vertex.sum_of_products = lambda terms: calls.append("sum") or real_sum(terms)
vertex.extract_gw(6, 1)
held = vertex._w.cache_info()
pairs = [(mu, nu) for n in range(7) for k in range(n + 1)
         for mu in enumerate_partitions(k) for nu in enumerate_partitions(n - k)]
for mu, nu in pairs:
    vertex._w(nu, mu)
print(json.dumps({"calls": calls,
                  "held": held.currsize, "pairs": len(pairs),
                  "misses": vertex._w.cache_info().misses - held.misses}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env={**os.environ, "PYTHONPATH": src}, check=True).stdout)
    # Z_0..Z_6, then F_0..F_6: each sum is followed by its one reduction
    assert out["calls"] == ["sum", "from_factors"] * 14
    assert out["held"] == out["pairs"] == 139 and out["misses"] == 0


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_kernel_matches_sine_powers(g, k):
    # oracle: (1/k) (2 sin(k lambda/2))^{2h-2} from sin_expand by series products;
    # its lambda^{2g-2} coefficient is the k-fold cover weight k^{2g-3} c[g][h]
    c = cover_table(g)
    trunc = 2 * g + 5
    s = sin_expand(k, trunc + 4)
    for h in range(g + 1):
        expect = LambdaSeries.one(trunc + 4)
        for _ in range(abs(2 * h - 2)):
            expect = expect * (reciprocal(s) if h == 0 else s)
        want = as_scalar(expect.coeff(2 * g - 2))
        assert not want.im
        assert Fraction(k) ** (2 * g - 3) * c[g][h] == want.re / k, (h, k)


gv_tables = st.integers(1, 6).flatmap(lambda d: st.integers(0, 3).flatmap(
    lambda g: st.tuples(st.just(d), st.just(g), st.fixed_dictionaries(
        {(h, e): st.integers(-10 ** 6, 10 ** 6) for h in range(g + 1) for e in range(1, d + 1)}))))


@settings(max_examples=60, deadline=None)
@given(gv_tables)
def test_gv_resummation_matches_lambda_series_reference(case):
    d_max, g_max, table = case
    n_table = gv_forward(table, d_max, g_max)
    assert n_table == gv_forward_reference(table, d_max, g_max)
    assert gv_invert(n_table, d_max, g_max) == table


def test_free_energy_matches_pairwise_recursion():
    # one sum_of_products per slice against the recursion that reduces each
    # product and each partial sum on its own, in canonical form
    got = local_p2_free_energy(6)
    want = graded_log_reference(local_p2_z(6), QFunction.const(0))
    assert [(f.num, f.fac) for f in got] == [(f.num, f.fac) for f in want]


def test_free_energy_is_one_sum_per_slice(monkeypatch):
    z = local_p2_z(5)
    calls = []
    real = qfunc.sum_of_products

    def spy(terms):
        calls.append(1)
        return real(terms)

    monkeypatch.setattr(qfunc, "sum_of_products", spy)
    monkeypatch.setattr(vertex, "sum_of_products", spy)
    f = local_p2_free_energy.__wrapped__(5)
    assert len(calls) == len(f) == len(z)
