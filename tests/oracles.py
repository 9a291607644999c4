"""Helpers shared by the tests: the canonical-form check of the integer
polynomial kernel in ``dualcalc.laurent`` and a q-expansion oracle."""
from fractions import Fraction
from math import gcd

from dualcalc import dense


def canonical(p):
    """Assert that p (a ``Laurent``, ``TauLaurent`` or ``XPoly``) is in the
    kernel's canonical form, and return it.

    ``den`` is positive and coprime to the content of ``num``, ``num`` holds
    no zeros, and zero is ({}, 1), with phase 0 for a ``TauLaurent``.
    """
    assert p.den > 0
    assert gcd(p.den, *p.num.values()) == 1
    assert all(p.num.values())
    ph = getattr(p, "ph", 0)
    assert ph in (0, 1)
    if not p.num:
        assert (p.num, p.den, ph) == ({}, 1, 0)
    return p


def q_series(f, order):
    """q-expansion of a ``QFunction`` through q^order, as Fractions.

    Requires ipow == 0 and only even nonnegative u-powers in num and den.
    """
    num, den = f.num.c, f.den.c
    assert not f.ipow and not any(k % 2 or k < 0 for k in (*num, *den))
    num, den = ([p.get(2 * k, Fraction(0)) for k in range(order + 1)] for p in (num, den))
    return dense.mul(num, dense.inv(den, order + 1), order + 1)
