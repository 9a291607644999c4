from fractions import Fraction
from functools import lru_cache

from dualcalc.partitions import enumerate_partitions, sub_diagrams
from dualcalc.qfunc import QFunction, ULaurent, bracket_quotient
from dualcalc.schur import pochhammer_factors, skew_numerator
from oracles import h_principal_reference, q_series, qfunction, skew_schur_reference


def skew_schur_principal(mu, rho):
    """s_{mu/rho}(1, q, q^2, ...) = f_{mu/rho}/(q;q)_n, n = |mu/rho|, as the
    package's integer numerator over its cyclotomic factors: (q;q)_n is
    (-1)^n prod_{i<=n} (u^{2i} - 1), so the sign is (-1)^n."""
    n = sum(mu) - sum(rho)
    return QFunction.from_factors(skew_numerator(mu, rho, n).scale(-1 if n % 2 else 1),
                                  pochhammer_factors(n))


def geom_den(ks):
    den = ULaurent.const(1)
    for i in ks:
        den = den * (ULaurent.const(1) - ULaurent.mono(2 * i))
    return den


def test_trivial_cases():
    assert skew_schur_principal((), ()) == QFunction.const(1)
    assert skew_schur_principal((2, 1), (2, 1)) == QFunction.const(1)
    assert skew_schur_principal((1,), ()) == qfunction(ULaurent.const(1), geom_den([1]))
    assert skew_schur_principal((2,), ()) == qfunction(ULaurent.const(1), geom_den([1, 2]))
    assert not skew_schur_principal((1,), (2,))


def _ssyt_expansion(mu, rho, order):
    """Brute-force semistandard skew tableaux, weight q^(sum of entries-1).

    Entries bounded by order+1 suffice: an entry v contributes at least
    q^(v-1), so larger entries cannot touch coefficients through q^order.
    """
    coeffs = [Fraction(0)] * (order + 1)
    n = len(mu)
    rho = tuple(rho) + (0,) * (n - len(rho))
    rows = [list(range(rho[i], mu[i])) for i in range(n)]

    def fill(i, j, grid):
        if i == n:
            w = sum(v - 1 for row in grid for v in row if v is not None)
            if w <= order:
                coeffs[w] += 1
            return
        if j >= len(rows[i]):
            fill(i + 1, 0, grid)
            return
        col = rows[i][j]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])          # weakly increasing rows
        if i > 0 and rho[i - 1] <= col < mu[i - 1]:
            above = grid[i - 1][col - rho[i - 1]]
            lo = max(lo, above + 1)               # strictly increasing columns
        for v in range(lo, order + 2):
            grid[i][j] = v
            fill(i, j + 1, grid)
            grid[i][j] = None

    fill(0, 0, [[None] * len(r) for r in rows])
    return coeffs


def test_skew_matches_tableaux_enumeration():
    order = 10
    for n in range(0, 6):
        for mu in enumerate_partitions(n):
            for rho in sub_diagrams(mu):
                got = skew_schur_principal(mu, rho)
                if not got:
                    continue
                assert q_series(got, order) == _ssyt_expansion(mu, rho, order)


def test_h_matches_schur_row():
    for k in range(5):
        assert h_principal_reference(k) == skew_schur_principal((k,) if k else (), ())


def test_skew_schur_matches_laplace_expansion_reference():
    # the fraction-free determinant against the expansion over reduced entries
    for n in range(9):
        for mu in enumerate_partitions(n):
            for rho in sub_diagrams(mu):
                got, want = skew_schur_principal(mu, rho), skew_schur_reference(mu, rho)
                assert (got.num, got.fac) == (want.num, want.fac), (mu, rho)
    assert not skew_schur_principal((2, 1), (1, 1, 1))


@lru_cache(maxsize=None)
def _standard_tableaux(mu, rho):
    """Standard Young tableaux of mu/rho, counted by removing the cell that
    holds the largest entry: a corner of mu outside rho."""
    if mu == rho:
        return 1
    total = 0
    for i, row in enumerate(mu):
        if (i + 1 == len(mu) or mu[i + 1] < row) and row > (rho[i] if i < len(rho) else 0):
            rest = mu[:i] + (row - 1,) + mu[i + 1:]
            total += _standard_tableaux(tuple(p for p in rest if p), rho)
    return total


def test_stanley_numerator_at_one_counts_standard_tableaux():
    # EC2 7.19.11: f_{mu/rho}(q) = (q;q)_n s_{mu/rho}(1, q, ...) has f(1) = f^{mu/rho}
    for n in range(9):
        for mu in enumerate_partitions(n):
            for rho in sub_diagrams(mu):
                f = skew_numerator(mu, rho, n - sum(rho))
                assert f.den == 1
                assert sum(f.num.values()) == _standard_tableaux(mu, rho), (mu, rho)


def test_straight_shape_is_hook_formula():
    # s_mu(1, q, ...) = q^{n(mu)} / prod_cells (1 - q^h), with 1 - q^h = -u^h [h]
    for n in range(9):
        for mu in enumerate_partitions(n):
            conj = [sum(1 for row in mu if row > j) for j in range(mu[0] if mu else 0)]
            hooks = [row - j + conj[j] - i - 1 for i, row in enumerate(mu) for j in range(row)]
            n_mu = sum(i * row for i, row in enumerate(mu))
            shift = qfunction(ULaurent.mono(2 * n_mu - sum(hooks)), ULaurent.const(1))
            want = shift * bracket_quotient([], hooks).scale(-1 if n % 2 else 1)
            assert skew_schur_principal(mu, ()) == want
