"""Helpers shared by the tests: the canonical-form check of the integer
polynomial kernel in ``dualcalc.laurent``, a q-expansion oracle, a
``Fraction`` lambda-expansion oracle, a series reciprocal, the pairwise fold
that ``series.combine`` replaces, the pairwise ``PSeries`` sums and the
two-branch framed build that ``PSeries._sum`` and the one build loop
replace, the graded exponential of a ``PSeries``, the ``Fraction`` DVV
recursion, the cut-and-join Hurwitz recursion on ``PSeries`` slices, the
interpolation that the finite-difference psi-extraction replaces, and set
partitions."""
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import comb, factorial, gcd

from dualcalc import dense
from dualcalc.errors import InternalError, UsageError, VerificationFailure
from dualcalc.hodge import FramedSeries, _one_family_term, _two_family_term
from dualcalc.hurwitz import elsv_I, ramification_order
from dualcalc.partitions import add_parts, character, enumerate_partitions, remove_part, zmu
from dualcalc.pseries import PSeries, cut_join_terms, empty_key
from dualcalc.series import TL_ZERO, LambdaSeries, TauLaurent, combine


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


def _x_series(p, n):
    """p(e^{x/2}) through x^(n-1) for a ``ULaurent`` p: the x^j coefficient
    is sum_m p_m (m/2)^j / j!."""
    c, terms = p.den, list(p.num.items())
    out = []
    for j in range(n):
        out.append(Fraction(sum(v for _m, v in terms), c))
        terms = [(m, v * m) for m, v in terms]
        c *= 2 * (j + 1)
    return out


def to_lambda_reference(f, trunc):
    """``QFunction.to_lambda`` over ``Fraction`` series in x = sqrt(-1) lambda,
    divided by ``dense.mul``/``dense.inv``: the reference for the integer
    quotient."""
    if not f.num:
        return LambdaSeries(0, [])
    v = dict(f.fac).get(1, 0)
    num = _x_series(f.num, trunc + v)
    lo = next((j for j, c in enumerate(num) if c), None)
    if lo is None:
        return LambdaSeries.from_map({}, trunc)
    n = trunc + v - lo
    den = _x_series(f.den, v + n)
    if any(den[:v]) or not den[v]:
        raise InternalError("denominator x-valuation differs from its Phi_1 exponent")
    quo = dense.mul(num[lo:], dense.inv(den[v:], n), n)
    lo -= v
    return LambdaSeries.from_map(
        {lo + j: TauLaurent.phased(lo + j - f.ipow, {0: c})
         for j, c in enumerate(quo) if c}, trunc)


def reciprocal(s):
    """1/s for a ``LambdaSeries`` with rational coefficients, by ``dense.inv``
    on the coefficients from its lowest nonzero term: 1/s has as many
    coefficients as s from there, starting at minus its valuation."""
    s = s.pruned()
    co = [c.as_scalar() for c in s.co]
    assert not any(c.im for c in co)
    inv = dense.inv([c.re for c in co], len(co))
    return LambdaSeries.from_map({j - s.floor: c for j, c in enumerate(inv) if c},
                                 len(co) - s.floor)


def product_reference(x, y):
    """x * y by one ``TauLaurent`` product and one running sum per pair of
    coefficients, on pruned factors; the result is not pruned."""
    a, b = x.pruned(), y.pruned()
    if not a.co or not b.co:
        return LambdaSeries(0, [])
    floor = a.floor + b.floor
    n = min(a.floor + b.trunc, b.floor + a.trunc) - floor
    out = [TL_ZERO] * n
    for i, ca in enumerate(a.co):
        for j in range(min(len(b.co), n - i)):
            cb = b.co[j]
            if ca and cb:
                out[i + j] = out[i + j] + ca * cb
    return LambdaSeries(floor, out)


def sum_reference(x, y):
    """x + y coefficient by coefficient over the least floor and trunc,
    pruned; an exact zero is the identity.  A copy of ``LambdaSeries.__add__``,
    so that the reference does not run the code under test."""
    if not y.co:
        return x
    if not x.co:
        return y
    floor, trunc = min(x.floor, y.floor), min(x.trunc, y.trunc)
    if trunc <= floor:
        raise InternalError("empty window in series addition")
    return LambdaSeries(floor, [x.coeff(e) + y.coeff(e)
                                for e in range(floor, trunc)]).pruned()


def combine_reference(terms):
    """sum c*a*b over (c, a, b) as a left fold of ``product_reference``,
    ``scale`` and ``sum_reference``: the reference for ``series.combine``."""
    acc = LambdaSeries(0, [])
    for c, a, b in terms:
        acc = sum_reference(acc, (a if b is None else product_reference(a, b)).scale(c))
    return acc


def assert_same_pseries(got, want):
    """Equal keys in equal order, equal windows and coefficients, every
    coefficient in canonical form."""
    assert (got.fams, got.caps) == (want.fams, want.caps)
    assert list(got.co) == list(want.co)
    for k, s in got.co.items():
        assert (s.floor, s.co) == (want.co[k].floor, want.co[k].co), k
        for c in s.co:
            canonical(c)


def _fold_reference(like, pieces):
    """A ``PSeries`` with the caps of ``like`` from (key, series) pieces, the
    pieces on one key added in turn by ``sum_reference``."""
    co = {}
    for key, piece in pieces:
        co[key] = piece if key not in co else sum_reference(co[key], piece)
    return like._like(co)


def add_reference(x, y):
    """x + y by the pairwise fold: the reference for ``PSeries.__add__``."""
    return _fold_reference(x, chain(x.co.items(), y.co.items()))


def mul_reference(x, y):
    """x * y as ``product_reference`` per key pair, folded pairwise."""
    keys = ((tuple(add_parts(a, *b) for a, b in zip(k1, k2)), s1, s2)
            for k1, s1 in x.co.items() for k2, s2 in y.co.items())
    return _fold_reference(x, ((key, product_reference(s1, s2))
                               for key, s1, s2 in keys if x._fits(key)))


def pderiv_reference(x, fam, part):
    pieces = ((k[:fam] + (remove_part(k[fam], part),) + k[fam + 1:], s.scale(k[fam].count(part)))
              for k, s in x.co.items() if part in k[fam])
    return _fold_reference(x, pieces)


def mul_parts_reference(x, fam, *parts):
    pieces = ((k[:fam] + (add_parts(k[fam], *parts),) + k[fam + 1:], s) for k, s in x.co.items())
    return _fold_reference(x, ((k, s) for k, s in pieces if x._fits(k)))


def cut_join_linear_reference(x, fam):
    return _fold_reference(x, ((k[:fam] + (nu,) + k[fam + 1:], s.scale(c))
                               for k, s in x.co.items() for nu, c in cut_join_terms(k[fam])))


def cut_join_nonlinear_reference(x, fam):
    """The nonlinear cut-and-join operator with every sum a pairwise fold:
    the reference for ``PSeries.cut_join_nonlinear``."""
    out = cut_join_linear_reference(x, fam)
    cap = x.caps[fam]
    derivs = {i: pderiv_reference(x, fam, i) for i in range(1, cap + 1)}
    derivs = {i: d for i, d in derivs.items() if d.co}
    for i, di in derivs.items():
        for j, dj in derivs.items():
            if j < i or i + j > cap:
                continue
            room = x.caps[:fam] + (cap - i - j,) + x.caps[fam + 1:]
            prod = mul_reference(PSeries(x.fams, room, di.co), PSeries(x.fams, room, dj.co))
            prod = mul_parts_reference(x._like(prod.co), fam, i + j)
            w = Fraction(i * j) if i != j else Fraction(i * j, 2)
            out = add_reference(out, prod.scale(w))
    return out


def build_series_reference(degree_cap, trunc, families):
    """The framed series by one branch per family count: the reference for
    the one build loop of ``hodge.build_series``."""
    if families == 1:
        caps = (degree_cap,)
        co = {empty_key(1): LambdaSeries.one(trunc)}
        for n in range(1, degree_cap + 1):
            parts = enumerate_partitions(n)
            terms = {nu: _one_family_term(nu, trunc) for nu in parts}
            for mu in parts:
                z = zmu(mu)
                co[(mu,)] = combine([(Fraction(character(nu, mu), z), terms[nu], None)
                                     for nu in parts])
        return FramedSeries(1, caps, trunc, PSeries(1, caps, co))
    caps = (degree_cap, degree_cap)
    co = {empty_key(2): LambdaSeries.one(trunc)}
    for npos in range(0, degree_cap + 1):
        for nneg in range(0, degree_cap + 1):
            if npos == 0 and nneg == 0:
                continue
            pplus = enumerate_partitions(npos)
            pminus = enumerate_partitions(nneg)
            terms = {(a, b): _two_family_term(a, b, trunc) for a in pplus for b in pminus}
            for mup in pplus:
                for mum in pminus:
                    zz = zmu(mup) * zmu(mum)
                    co[(mup, mum)] = combine(
                        [(Fraction(character(a, mup) * character(b, mum), zz),
                          terms[(a, b)], None) for a in pplus for b in pminus])
    return FramedSeries(2, caps, trunc, PSeries(2, caps, co))


def graded_exp(f, one):
    """Slices one, T_1..T_n of exp F from F_0 (not read), F_1..F_n:
    w T_w = sum_{0<j<=w} j F_j T_{w-j}."""
    t = [one]
    for w in range(1, len(f)):
        acc = f[1] * t[w - 1]
        for j in range(2, w + 1):
            acc = acc + (f[j] * t[w - j]).scale(j)
        t.append(acc.scale(Fraction(1, w)))
    return t


def pseries_exp(f, trunc):
    """exp of a ``PSeries`` with no constant (empty-key) term, by
    ``graded_exp`` over its weight slices."""
    ek = empty_key(f.fams)
    if ek in f.co and not f.co[ek].is_zero_through():
        raise UsageError("exp requires zero constant term")
    one = f._like({ek: LambdaSeries.one(trunc)})
    return f._join(graded_exp(f._slices(), one))


def _labelled_splits(ms):
    """(X, Y, count) over the labelled splits of the multiset ms."""
    vals = sorted(set(ms))
    out = [((), (), 1)]
    for v in vals:
        m = ms.count(v)
        out = [((v,) * take + x, (v,) * (m - take) + y, c * comb(m, take))
               for x, y, c in out for take in range(m + 1)]
    return out


@lru_cache(maxsize=None)
def fraction_norm(g, ks):
    """Normalized correlator <prod s_k>_g on a descending key, by the DVV
    recursion over ``Fraction``s with every genus split tried: the
    reference for ``dualcalc.intersections``."""
    n = len(ks)
    if n == 0 or g < 0 or 2 * g - 2 + n <= 0 or sum(ks) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and ks == (0, 0, 0):
        return Fraction(1)
    if g == 1 and ks == (1,):
        return Fraction(1, 8)
    top, rest = ks[0], ks[1:]
    if top == 0:
        return Fraction(0)

    def key(t):
        return tuple(sorted(t, reverse=True))

    total = Fraction(0)
    for idx, k in enumerate(rest):
        total += (2 * k + 1) * fraction_norm(g, key(rest[:idx] + rest[idx + 1:] + (top + k - 1,)))
    for a in range(top - 1):
        b = top - 2 - a
        if g >= 1:
            total += Fraction(1, 2) * fraction_norm(g - 1, key(rest + (a, b)))
        for x, y, cnt in _labelled_splits(rest):
            for g1 in range(g + 1):
                total += Fraction(cnt, 2) * fraction_norm(g1, key(x + (a,))) \
                    * fraction_norm(g - g1, key(y + (b,)))
    return total


def _quad_term(da, db, cap):
    """(1/2) sum_{ordered i,j} i j p_{i+j} (dA/dp_i)(dB/dp_j), from the
    derivative dicts, every product formed at full weight."""
    out = PSeries(1, (cap,), {})
    for i, ai in da.items():
        for j, bj in db.items():
            if i + j <= cap:
                out = out + (ai * bj).mul_parts(0, i + j).scale(Fraction(i * j, 2))
    return out


@lru_cache(maxsize=None)
def cutjoin_slice_reference(cap, r):
    """The lambda^r slice Phi_r of the connected Hurwitz series through
    weight cap as a ``PSeries`` of one-term ``LambdaSeries``:
    r Phi_r = CJ(Phi_(r-1)) + sum_(a+b=r-1) quad(Phi_a, Phi_b) from
    Phi_0 = p_1."""
    if r == 0:
        return PSeries(1, (cap,), {((1,),): LambdaSeries.one(1)})
    rhs = cutjoin_slice_reference(cap, r - 1).cut_join_linear(0)
    for a in range(r):
        rhs = rhs + _quad_term(_cutjoin_derivs_reference(cap, a),
                               _cutjoin_derivs_reference(cap, r - 1 - a), cap)
    return rhs.scale(Fraction(1, r))


@lru_cache(maxsize=None)
def _cutjoin_derivs_reference(cap, r):
    s = cutjoin_slice_reference(cap, r)
    derivs = {i: s.pderiv(0, i) for i in range(1, cap + 1)}
    return {i: d for i, d in derivs.items() if d.co}


def hurwitz_cutjoin_reference(g, mu):
    """H_{g,mu} read off ``cutjoin_slice_reference``: the reference for the
    partition-keyed cut-and-join route of ``dualcalc.hurwitz``."""
    r = ramification_order(g, mu)
    if r < 0:
        return Fraction(0)
    v = cutjoin_slice_reference(sum(mu), r).coeff((mu,)).coeff(0).as_scalar()
    assert not v.im
    return v.re * factorial(r)


def _exponent_multisets(total_max, n):
    return [rho for m in range(total_max + 1) for rho in enumerate_partitions(m)
            if len(rho) <= n]


def _monomial_symmetric(rho, point):
    padded = tuple(rho) + (0,) * (len(point) - len(rho))
    total = 0
    for perm in set(permutations(padded)):
        v = 1
        for x, e in zip(point, perm):
            v *= x ** e
        total += v
    return Fraction(total)


def _parts_exactly(m, n, cap):
    """Partitions of m into exactly n parts, each at most cap, ascending."""
    if n == 0:
        if m == 0:
            yield ()
        return
    for first in range(-(-m // n), min(cap, m - n + 1) + 1):
        for rest in _parts_exactly(m - first, n - 1, first):
            yield (first,) + rest


def _sample_points(n, count):
    """Weakly decreasing positive n-tuples, smallest sums first."""
    out = []
    m = n
    while len(out) < count:
        out.extend(_parts_exactly(m, n, m))
        m += 1
    return out[:count]


def _adds_rank(echelon, row):
    work = list(row)
    for base in echelon:
        piv = next(i for i, x in enumerate(base) if x)
        if work[piv]:
            f = work[piv] / base[piv]
            work = [x - f * y for x, y in zip(work, base)]
    if any(work):
        echelon.append(work)
        return True
    return False


def _solve_overdetermined(rows, rhs, ncols):
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows = len(m)
    pivots = []
    ri = 0
    for col in range(ncols):
        piv = next((r for r in range(ri, nrows) if m[r][col]), None)
        if piv is None:
            raise InternalError("singular interpolation system; add sample points")
        m[ri], m[piv] = m[piv], m[ri]
        pv = m[ri][col]
        m[ri] = [x / pv for x in m[ri]]
        for r in range(nrows):
            if r != ri and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[ri])]
        pivots.append(col)
        ri += 1
        if ri == ncols:
            break
    # every leftover row must now be identically zero: consistency check
    for r in range(ri, nrows):
        if any(m[r]):
            raise VerificationFailure("interpolation data is not polynomial of the expected degree")
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = m[i][ncols]
    return sol


@lru_cache(maxsize=None)
def _interpolated_bare_polynomial(g, n):
    """The whole bare-integral polynomial in the monomial-symmetric basis,
    interpolated through sample profiles chosen greedily for rank, with two
    extra points as a consistency check on the degree."""
    basis = _exponent_multisets(3 * g - 3 + n, n)
    count = len(basis)
    echelon, pts, rows = [], [], []
    for pt in _sample_points(n, 4 * count + 8):
        row = [_monomial_symmetric(rho, pt) for rho in basis]
        if len(pts) < count and not _adds_rank(echelon, row):
            continue
        pts.append(pt)
        rows.append(row)
        if len(pts) == count + 2:
            break
    if len(pts) < count:
        raise InternalError("singular interpolation system; add sample points")
    sol = _solve_overdetermined(rows, [elsv_I(g, pt)[1] for pt in pts], count)
    return dict(zip(basis, sol))


def psi_interpolation_reference(g, ks):
    """<tau_{k_1} ... tau_{k_n}>_g as the coefficient of m_rho in the
    interpolated bare-integral polynomial: the reference for the
    finite-difference reading of ``dualcalc.hurwitz.psi_from_asymptotics``."""
    rho = tuple(sorted((k for k in ks if k), reverse=True))
    return _interpolated_bare_polynomial(g, len(ks)).get(rho, Fraction(0))


@lru_cache(maxsize=None)
def set_partitions(n):
    """Set partitions of {0, ..., n-1}; each is a tuple of blocks."""
    if not n:
        return ((),)
    out = []
    for sub in set_partitions(n - 1):
        # relabel {0..n-2} as {1..n-1}, then join 0 to each block or alone
        sub = tuple(tuple(x + 1 for x in block) for block in sub)
        for i in range(len(sub)):
            out.append(sub[:i] + ((0,) + sub[i],) + sub[i + 1:])
        out.append(((0,),) + sub)
    return tuple(out)
