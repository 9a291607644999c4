from fractions import Fraction


from dualcalc.partitions import enumerate_partitions, sub_diagrams
from dualcalc.qfunc import QFunction, ULaurent
from dualcalc.schur import h_principal, skew_schur_principal
from oracles import q_series


def geom_den(ks):
    den = ULaurent.const(1)
    for i in ks:
        den = den * (ULaurent.const(1) - ULaurent.mono(2 * i))
    return den


def test_trivial_cases():
    assert skew_schur_principal((), ()) == QFunction.const(1)
    assert skew_schur_principal((2, 1), (2, 1)) == QFunction.const(1)
    assert skew_schur_principal((1,), ()) == QFunction(0, ULaurent.const(1), geom_den([1]))
    assert skew_schur_principal((2,), ()) == QFunction(0, ULaurent.const(1), geom_den([1, 2]))
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
        assert h_principal(k) == skew_schur_principal((k,) if k else (), ())
