"""Helpers shared by the tests: the canonical-form check of the integer
polynomial kernel in ``dualcalc.laurent``, the read of a tau-free
``TauLaurent`` as a ``GaussianRational``, the complex model of a series in
lambda' = i lambda read back in lambda, ``PSeries`` scaling and ``QFunction``
negation (the package sums with coefficients instead), the bracket [m], a
phase-carrying model of a power of i times a ``QFunction``, a q-expansion
oracle, a
``Fraction`` lambda-expansion oracle, a series reciprocal, the pairwise fold
that ``series.combine`` replaces, the pairwise ``PSeries`` sums that
``PSeries._sum`` replaces, the framed build from series products (the
framing exponential times W, summed by ``series.combine``) that the integer
block kernel of ``hodge`` replaces, the graded exponential of a ``PSeries``, the ``Fraction`` DVV
recursion, the cut-and-join Hurwitz recursion on ``PSeries`` slices, the
interpolation that the finite-difference psi-extraction replaces, set
partitions, the tuple-keyed monomials and ``Fraction`` assembly of the
Virasoro residuals that the packed integer sums replace, the ``Fraction``-list dense kernels, the
``Fraction``-dict toric ring, the quintic bracket series built on its own (``mirror.candelas`` reads
it off the toric series), the 2 sin(m lambda/2) expansion, the
composition-by-permutation Schur reader that the row-by-row pass of
``mirror._bialternant`` replaces, the localization-sum class of a
Grassmannian read through the live ``mirror`` row kernels, the
lambda-series multi-cover resummation that ``vertex.gv_forward`` replaces,
the Jacobi-Trudi expansion over reduced ``QFunction`` entries that the
fraction-free ``schur`` determinant replaces, the reduced-product W pair that
``chern_simons.w_pair`` replaces, the pairwise ``QFunction`` product, sum and
fold that ``qfunc.sum_of_products`` replaces, and the pairwise graded log
that the one fold per slice of ``dense.graded_log`` replaces."""
from fractions import Fraction
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import comb, factorial, gcd

from dualcalc import dense, intersections, mirror, nilpotent
from dualcalc.errors import InternalError, UsageError, VerificationFailure
from dualcalc.chern_simons import w_one_lambda, w_pair_lambda
from dualcalc.hodge import FramedSeries
from dualcalc.hurwitz import elsv_I, ramification_order
from dualcalc.laurent import Laurent, Poly
from dualcalc.partitions import (add_parts, character, compositions, cut_join_terms,
                                 enumerate_partitions, intersection, kappa, remove_part,
                                 sub_diagrams, zmu)
from dualcalc.pseries import PSeries, empty_key
from dualcalc.qfunc import QFunction, ULaurent, _expand, _strip
from dualcalc.scalars import GaussianRational
from dualcalc.series import TL_ZERO, LambdaSeries, TauLaurent, combine


def qfunction(num, den):
    """num / den as a reduced ``QFunction``, for any ``ULaurent``
    den = c * u^k * prod Phi_e^{m_e}, its factors found by trial division.

    Raises UsageError for a denominator with any other factor.  A factor
    Phi_e of degree phi(e) <= D has e <= 2 D^2, because phi(e) >= sqrt(e/2).
    """
    if not den:
        raise ZeroDivisionError("QFunction with zero denominator")
    lo, lead = den.min_exp(), Fraction(den.num[den.max_exp()], den.den)
    rest = den.shift(-lo).scale(1 / lead)
    fac = []
    e = 0
    while rest.max_exp() and e < 2 * rest.max_exp() ** 2:
        e += 1
        m = rest.max_exp()
        rest, left = _strip(rest, e, m)
        if left < m:
            fac.append((e, m - left))
    if rest != ULaurent.const(1):
        raise UsageError("denominator is not a u-power times cyclotomic polynomials")
    return QFunction.from_factors(num.shift(-lo).scale(1 / lead), tuple(fac))


def canonical(p):
    """Assert that p (a ``Poly``, ``Laurent`` or ``TauLaurent``) is in the
    kernel's canonical form, and return it.

    ``den`` is positive and coprime to the content of ``num``, ``num`` holds
    no zeros, and zero is ({}, 1).
    """
    assert p.den > 0
    assert gcd(p.den, *p.num.values()) == 1
    assert all(p.num.values())
    if not p.num:
        assert (p.num, p.den) == ({}, 1)
    return p


# i^0, i^1, i^2, i^3
I_POW = (GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
         GaussianRational(0, -1))


def lambda_form(s, ph):
    """The complex model {e: {k: GaussianRational}} of i^ph s(i lambda) for a
    series s in lambda' = i lambda: its lambda^e coefficient is i^(ph+e) s_e,
    the rule ``cli.series_json`` prints.  Zero coefficients are left out.  A
    lambda' expansion of a ``QFunction``, one ``Laurent``, has the tau-free
    coefficients {0: ...}."""
    if not isinstance(s, LambdaSeries):
        return {e: {0: I_POW[(ph + e) % 4] * Fraction(v, s.den)} for e, v in s.num.items()}
    return {e: {k: I_POW[(ph + e) % 4] * Fraction(v, c.den) for k, v in c.num.items()}
            for e, c in enumerate(s.co, s.floor) if c}


def lambda_series(s, trunc):
    """A lambda' expansion of a ``QFunction``, one ``Laurent`` exact through
    lambda'^(trunc-1), as the ``LambdaSeries`` on [its valuation, trunc), or
    zero through the window [trunc - 1, trunc) when it has no term."""
    return LambdaSeries.from_map(s.c, trunc)


def plain_form(s):
    """The same model of a series s in lambda itself: its coefficients as they are."""
    return {e: {k: GaussianRational(Fraction(v, c.den)) for k, v in c.num.items()}
            for e, c in enumerate(s.co, s.floor) if c}


def as_scalar(t):
    """A tau-free ``TauLaurent`` as one ``GaussianRational``; raises
    InternalError when it depends on tau."""
    if not t.num:
        return GaussianRational(0)
    if set(t.num) != {0}:
        raise InternalError(f"tau-dependent where scalar expected: {t}")
    return t.c[0]


def pscale(x, v):
    """v times a ``PSeries``, coefficient by coefficient."""
    return PSeries(x.fams, x.caps, {k: s.scale(v) for k, s in x.co.items()})


def qneg(f):
    """-f for a ``QFunction``."""
    return f.scale(-1)


def bracket(m):
    """The quantum integer [m] = u^m - u^(-m) as a ``ULaurent``."""
    return ULaurent({m: 1, -m: -1}) if m else ULaurent()


def phased(ipow, f):
    """A model of the value (-sqrt(-1))**ipow * f for a real ``QFunction`` f,
    carrying its phase: (ipow, f) with ipow in {0, 1}, (-i)^2 = -1 folded into
    f, and zero as (0, 0), the form ``cli.qfun_json`` prints."""
    ipow %= 4
    if ipow >= 2:
        ipow, f = ipow - 2, f.scale(-1)
    return (ipow if f else 0, f)


def phased_product(*models):
    """The product of ``phased`` models: phases add and values multiply."""
    ipow, f = 0, QFunction.const(1)
    for a, g in models:
        ipow, f = ipow + a, q_mul_reference(f, g)
    return phased(ipow, f)


def q_series(f, order):
    """q-expansion of a ``QFunction`` through q^order, as Fractions.

    Requires only even nonnegative u-powers in num and den.
    """
    num, den = f.num.c, f.den.c
    assert not any(k % 2 or k < 0 for k in (*num, *den))
    num, den = ([p.get(2 * k, Fraction(0)) for k in range(order + 1)] for p in (num, den))
    return dense_mul(num, dense_inv(den, order + 1), order + 1)


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
    """``QFunction.to_lambda`` over ``Fraction`` series in x = lambda' =
    sqrt(-1) lambda, divided by ``dense_mul``/``dense_inv``: the reference for
    the integer quotient, a ``Laurent`` in lambda' exact through lambda'^(trunc-1)."""
    if not f.num:
        return Laurent()
    v = dict(f.fac).get(1, 0)
    num = _x_series(f.num, trunc + v)
    lo = next((j for j, c in enumerate(num) if c), None)
    if lo is None:
        return Laurent()
    n = trunc + v - lo
    den = _x_series(f.den, v + n)
    if any(den[:v]) or not den[v]:
        raise InternalError("denominator x-valuation differs from its Phi_1 exponent")
    quo = dense_mul(num[lo:], dense_inv(den[v:], n), n)
    lo -= v
    return Laurent({lo + j: c for j, c in enumerate(quo)})


def reciprocal(s):
    """1/s for a ``LambdaSeries`` with rational coefficients, by ``dense_inv``
    on the coefficients from its lowest nonzero term: 1/s has as many
    coefficients as s from there, starting at minus its valuation."""
    s = s.pruned()
    co = [as_scalar(c) for c in s.co]
    assert not any(c.im for c in co)
    inv = dense_inv([c.re for c in co], len(co))
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
    """The nonlinear cut-and-join operator CJ_lin(F) + (1/2) sum_{i,j} i j
    p_{i+j} dF/dp_i dF/dp_j with every sum a pairwise fold: the connected form
    of the evolution that ``hodge.pde_residual`` checks on the disconnected
    series.  A product dF/dp_i dF/dp_j is formed only on keys with room for
    the part i+j."""
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
            out = add_reference(out, pscale(prod, w))
    return out


def exp_monomial(coeff, exp: int, trunc: int) -> LambdaSeries:
    """exp(coeff * lambda^exp) for exp >= 1, truncated at ``trunc``.

    ``coeff`` is a scalar or a ``TauLaurent``; the lambda^{k exp} coefficient
    coeff^k / k! is built by repeated ``TauLaurent`` products, so the framing
    exponentials come out with tau-polynomial coefficients.
    """
    if exp < 1:
        raise UsageError("exp_monomial requires exponent >= 1")
    c = coeff if isinstance(coeff, TauLaurent) else TauLaurent.const(coeff)
    m = {}
    p = TauLaurent.const(1)
    k = 0
    while k * exp < trunc:
        m[k * exp] = p.scale(Fraction(1, factorial(k)))
        p = p * c
        k += 1
    return LambdaSeries.from_map(m, trunc)


@lru_cache(maxsize=None)
def one_family_term(nu, trunc):
    """e^{(tau + 1/2) kappa lambda' / 2} w_one(nu) as a product of series."""
    t = trunc + sum(nu)
    framing = exp_monomial(TauLaurent({0: Fraction(kappa(nu), 4), 1: Fraction(kappa(nu), 2)}),
                           1, t)
    return framing * lambda_series(w_one_lambda(nu, t), t)


@lru_cache(maxsize=None)
def two_family_term(nup, num, trunc):
    """e^{(kappa+ tau + kappa- / tau) lambda' / 2} w_pair(nu+, nu-) as a
    product of series."""
    t = trunc + sum(nup) + sum(num)
    framing = exp_monomial(TauLaurent({1: Fraction(kappa(nup), 2), -1: Fraction(kappa(num), 2)}),
                           1, t)
    return framing * lambda_series(w_pair_lambda(nup, num, t), t)


def build_series_reference(degree_cap, trunc, families):
    """The framed series by one branch per family count, each term a product
    of the framing exponential and W as series, summed by ``series.combine``:
    the reference for the integer block kernel of ``hodge.build_series``."""
    if families == 1:
        caps = (degree_cap,)
        co = {empty_key(1): LambdaSeries.one(trunc)}
        for n in range(1, degree_cap + 1):
            parts = enumerate_partitions(n)
            terms = {nu: one_family_term(nu, trunc) for nu in parts}
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
            terms = {(a, b): two_family_term(a, b, trunc) for a in pplus for b in pminus}
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
            acc = acc + pscale(f[j] * t[w - j], j)
        t.append(pscale(acc, Fraction(1, w)))
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


def canon(mono):
    """Drop trailing zero exponents."""
    m = list(mono)
    while m and not m[-1]:
        m.pop()
    return tuple(m)


def monomials(order, kmax):
    """Exponent vectors in t_0..t_kmax of total degree <= order, canonical."""
    for mono in compositions(order, kmax + 2):
        yield canon(mono[:-1])


def bump(mono, var, by):
    """mono times t_var^by, canonical."""
    m = list(mono) + [0] * (var + 1 - len(mono))
    m[var] += by
    return canon(m)


def virasoro_terms(n, mono):
    """(Fraction weight, monomial) of each tau-coefficient in the coefficient
    of prod t_k^{mono_k} in L_n tau."""
    up = bump(mono, n + 1, 1)
    yield -Fraction(up[n + 1], 2), up
    for k in range(len(mono)):
        if mono[k] and k + n >= 0:
            src = bump(bump(mono, k, -1), k + n, 1)
            yield Fraction(2 * k + 1, 2) * src[k + n], src
    for i in range(1, max(n, 0) + 1):
        a, b = i - 1, n - i
        src = bump(bump(mono, a, 1), b, 1)
        yield Fraction(src[a] * (src[b] - (a == b)), 4), src
    if n == -1 and len(mono) > 0 and mono[0] >= 2:
        yield Fraction(1, 4), bump(mono, 0, -2)
    if n == 0:
        yield Fraction(1, 16), mono


def virasoro_residual_reference(n, order):
    """(max |coefficient|, coefficients checked) of L_n tau through total
    t-degree ``order``, each term a ``Fraction`` operator coefficient times
    ``intersections.tau_coefficient`` (read at call time, so a test can
    perturb what it reads): the reference for the packed integer sums of
    ``intersections.virasoro_residual``."""
    tau = intersections.tau_coefficient
    worst = Fraction(0)
    checked = 0
    for mono in monomials(order, intersections.VIRASORO_KMAX):
        checked += 1
        worst = max(worst, abs(sum(w * tau(src) for w, src in virasoro_terms(n, mono))))
    return worst, checked


def _quad_term(da, db, cap):
    """(1/2) sum_{ordered i,j} i j p_{i+j} (dA/dp_i)(dB/dp_j), from the
    derivative dicts, every product formed at full weight."""
    out = PSeries(1, (cap,), {})
    for i, ai in da.items():
        for j, bj in db.items():
            if i + j <= cap:
                out = out + pscale(mul_parts_reference(ai * bj, 0, i + j), Fraction(i * j, 2))
    return out


@lru_cache(maxsize=None)
def cutjoin_slice_reference(cap, r):
    """The lambda^r slice Phi_r of the connected Hurwitz series through
    weight cap as a ``PSeries`` of one-term ``LambdaSeries``:
    r Phi_r = CJ(Phi_(r-1)) + sum_(a+b=r-1) quad(Phi_a, Phi_b) from
    Phi_0 = p_1."""
    if r == 0:
        return PSeries(1, (cap,), {((1,),): LambdaSeries.one(1)})
    rhs = cut_join_linear_reference(cutjoin_slice_reference(cap, r - 1), 0)
    for a in range(r):
        rhs = rhs + _quad_term(_cutjoin_derivs_reference(cap, a),
                               _cutjoin_derivs_reference(cap, r - 1 - a), cap)
    return pscale(rhs, Fraction(1, r))


@lru_cache(maxsize=None)
def _cutjoin_derivs_reference(cap, r):
    s = cutjoin_slice_reference(cap, r)
    derivs = {i: pderiv_reference(s, 0, i) for i in range(1, cap + 1)}
    return {i: d for i, d in derivs.items() if d.co}


def hurwitz_cutjoin_reference(g, mu):
    """H_{g,mu} read off ``cutjoin_slice_reference``: the reference for the
    partition-keyed cut-and-join route of ``dualcalc.hurwitz``."""
    r = ramification_order(g, mu)
    if r < 0:
        return Fraction(0)
    v = as_scalar(cutjoin_slice_reference(sum(mu), r).coeff((mu,)).coeff(0))
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


# -- dense series over Fraction lists -------------------------------------------
# A series is the list of its coefficients of x^0, x^1, ...; each kernel
# returns exactly n of them, and shorter inputs are padded with zeros.

def dense_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in enumerate(b[:n - i]):
            if y:
                out[i + j] += x * y
    return out


def dense_inv(a, n):
    if not a[0]:
        raise UsageError("series with zero constant term is not invertible")
    out = [Fraction(0)] * n
    out[0] = 1 / Fraction(a[0])
    for m in range(1, n):
        acc = Fraction(0)
        for j in range(1, min(m + 1, len(a))):
            if a[j]:
                acc += a[j] * out[m - j]
        out[m] = -acc / a[0]
    return out


def dense_exp(a, n):
    if a[0]:
        raise UsageError("exp needs zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    term = list(out)
    for m in range(1, n):
        term = [x / m for x in dense_mul(term, a, n)]
        out = [x + y for x, y in zip(out, term)]
    return out


def dense_compose(outer, inner, n):
    """outer(inner(x)) with inner(0) = 0, by running powers of inner."""
    if inner[0]:
        raise UsageError("composition needs zero constant inner term")
    out = [Fraction(0)] * n
    out[0] = outer[0] if outer else Fraction(0)
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, min(len(outer), n)):
        power = dense_mul(power, inner, n)
        if outer[m]:
            out = [x + outer[m] * y for x, y in zip(out, power)]
    return out


def fixed_point_inverse(u, n):
    """Q as a series in x = Q e^{u(Q)} through x^(n-1), u a ``Laurent`` with u(0) = 0, by n
    rounds of B = 1 / e^{u(x B)} from B = 1, each round one ``dense.compose``
    and one ``dense.inv``: the inversion that ``dense.lagrange`` replaces."""
    e_u = dense.exp(u, n)
    b = Laurent.const(1)
    for _ in range(n):
        b = dense.inv(dense.compose(e_u, b.shift(1), n), n)
    return b.shift(1)


def as_list(p, n):
    """The coefficients of x^0..x^(n-1) of a ``Laurent`` series."""
    c = p.c
    return [c.get(k, Fraction(0)) for k in range(n)]


def as_laurent(a):
    return Laurent(dict(enumerate(a)))


# -- mirror series on Fraction -----------------------------------------------------

def quintic_hg_reference(d_max):
    """Bracket coefficients (f0, f1, f2, f3) of the quintic series, built on
    its own: each f_i maps degree d to the t-polynomial coefficient list of
    e^{dt} at H^(i+1), in Q[H]/(H^5).  The m = 0 factor keeps the overall 5."""
    nilp = 5
    f = tuple({} for _ in range(4))
    for d in range(d_max + 1):
        num = [Fraction(1)]
        for m in range(0, 5 * d + 1):
            num = dense_mul(num, [Fraction(m), Fraction(5)], nilp)
        den = [Fraction(1)]
        for m in range(1, d + 1):
            for _ in range(5):
                den = dense_mul(den, [Fraction(m), Fraction(1)], nilp)
        slice_d = dense_mul(num, dense_inv(den, nilp), nilp)
        assert not slice_d[0]
        # multiply by e^{Ht} and read off the coefficients of H^(i+1)
        for i in range(4):
            tpoly = [slice_d[i + 1 - j] / factorial(j) for j in range(i + 2)]
            while tpoly and not tpoly[-1]:
                tpoly.pop()
            f[i][d] = tpoly
    return f


def toric_b_series_reference(generators, line_bundles, divisors, d_max):
    """``mirror.toric_b_series`` on a ``Fraction``-dict ring keyed by
    generator exponents, with the inverse as a Neumann series of powers."""
    r = len(generators)
    nilps = tuple(n for _, n in generators)
    zero = (0,) * r

    def ring_mul(a, b):
        out = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if all(x < n for x, n in zip(e, nilps)):
                    out[e] = out.get(e, Fraction(0)) + v1 * v2
        return {k: v for k, v in out.items() if v}

    def lin(vec, const):
        out = {zero: Fraction(const)} if const else {}
        for i, c in enumerate(vec):
            if c:
                out[tuple(int(j == i) for j in range(r))] = Fraction(c)
        return out

    def ring_inv(a):
        # (c0 + N)^{-1} = sum_m (-1)^m N^m / c0^{m+1} with N nilpotent
        c0 = a[zero]
        nil = {k: v for k, v in a.items() if k != zero}
        out, power, m = {}, {zero: Fraction(1)}, 0
        while power:
            for k, v in power.items():
                out[k] = out.get(k, Fraction(0)) + (-1) ** m * v / c0 ** (m + 1)
            power, m = ring_mul(power, nil), m + 1
        return {k: v for k, v in out.items() if v}

    # e^{-H t}, keyed (generator exponents, t exponents)
    expfac = [(zero, zero, Fraction(1))]
    for j in range(r):
        expfac = [(tuple(x + m * (i == j) for i, x in enumerate(ge)),
                   tuple(x + m * (i == j) for i, x in enumerate(te)),
                   v * Fraction((-1) ** m, factorial(m)))
                  for ge, te, v in expfac for m in range(nilps[j])]
    out = {}
    for d in (d for s in range(d_max + 1) for d in compositions(s, r)):
        num, den = {zero: Fraction(1)}, {zero: Fraction(1)}
        for vec in line_bundles:
            pair = sum(c * dd for c, dd in zip(vec, d))
            for k in range(pair + 1):
                num = ring_mul(num, lin(vec, -k))
        for vec in divisors:
            pair = sum(c * dd for c, dd in zip(vec, d))
            if pair < 0:
                for k in range(-pair):
                    num = ring_mul(num, lin(vec, k))
            else:
                for k in range(1, pair + 1):
                    den = ring_mul(den, lin(vec, -k))
        slice_d = ring_mul(num, ring_inv(den))
        full = {}
        for ge, te, v in expfac:
            for e2, v2 in slice_d.items():
                e = tuple(x + y for x, y in zip(ge, e2))
                if all(x < n for x, n in zip(e, nilps)):
                    full[(e, te)] = full.get((e, te), Fraction(0)) + v * v2
        out[d] = {k: v for k, v in full.items() if v}
    return out


def p_free(p):
    """Whether the row p, a ``Poly`` keyed by (x, P, t, alpha) exponents, has no
    term with a positive power of P."""
    return not any(pe for _x, pe, _t, _a in p.num)


def x_slices(row):
    """{e: the x^e coefficient of the row, as a ``Poly`` with no x}, read
    through the ``c`` view."""
    terms = {}
    for (x, pe, te, a), v in row.c.items():
        terms.setdefault(x, {})[(0, pe, te, a)] = v
    return {x: Poly(t) for x, t in terms.items()}


def bialternant_reference(rows, k, n, d, cap):
    """The degree-d Schur coefficients that ``mirror._bialternant`` reads for
    every degree in one row-by-row pass, summed here one degree at a time over
    the compositions c of d into k parts and all k! permutations, with both
    guards re-evaluating every swapped tuple in full."""
    coeffs = {key: x_slices(row) for key, row in rows.items() if key[0] <= d}
    comps = compositions(d, k)
    # each permutation with its sign, (-1)^{number of inversions}
    perms = [((-1) ** sum(a > b for a, b in combinations(sigma, 2)), sigma)
             for sigma in permutations(range(k))]

    def at(e):
        total = Poly()
        for compn in comps:
            for sign, sigma in perms:
                term = None
                for i in range(k):
                    f = coeffs[(compn[i], sigma[i])].get(e[i])
                    if f is None:
                        break
                    term = f if term is None else nilpotent.mul(term, f, (cap,))
                else:
                    total = total + term.scale(sign)
        return total

    by_t = {}
    for e in combinations(range(cap, -1, -1), k):
        if sum(e) > cap:
            continue
        v = at(e)
        if not p_free(v):
            raise InternalError("surviving P-dependence in a Schur coefficient")
        for i in range(k - 1):
            if at(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != -v:
                raise InternalError("determinant sum is not antisymmetric")
        lam = tuple(p for p in (x - (k - 1 - i) for i, x in enumerate(e)) if p)
        if lam and lam[0] > n - k:
            continue
        for (_x, _p, te, a), f in v.c.items():
            by_t.setdefault(te, {}).setdefault(lam, {})[a] = f
    return {te: {lam: Laurent(c) for lam, c in lams.items()} for te, lams in by_t.items()}


def gr_loc_sum(k, n, d):
    """Localization-sum class in the Schur basis of H*(Gr(k,n)): the degree-d
    composition sum of ``mirror._loc_rows`` read by ``mirror._bialternant``,
    without the rows' e^{-tx/alpha} factor (the t^0 part) and alpha flip."""
    if not (1 <= k < n):
        raise UsageError("need 1 <= k < n")
    if d < 0:
        raise UsageError("degree must be nonnegative")
    cap = mirror._gr_cap(k, n)
    by_t = mirror._bialternant(mirror._loc_rows(k, n, d, cap), k, n, d, cap)[d]
    return {lam: Laurent({a: -f if a % 2 else f for a, f in v.c.items()})
            for lam, v in by_t.get(0, {}).items()}


# -- lambda series ------------------------------------------------------------------

def sin_expand(m: int, trunc: int) -> LambdaSeries:
    """2*sin(m*lambda/2) as a series with rational coefficients, to order ``trunc``."""
    if trunc <= 1:
        raise UsageError("truncation order must exceed 1")
    if m == 0:
        return LambdaSeries(0, [])
    half = Fraction(m, 2)
    coeffs = {}
    k = 1
    while k < trunc:
        coeffs[k] = 2 * (-1) ** ((k - 1) // 2) * half ** k / factorial(k)
        k += 2
    return LambdaSeries.from_map(coeffs, trunc)


@lru_cache(maxsize=None)
def _gv_kernel(g: int, k: int, trunc: int) -> Laurent:
    """(1/k) (2 sin(k lambda / 2))^{2g-2}, with 2 sin(k lambda/2) = (-i)[k], in
    lambda' = i lambda through lambda'^(trunc-1): (-i)^{2g-2}, the real part of
    its ``phased`` model, times the lambda' expansion of [k]^{2g-2} / k."""
    power = ULaurent.const(1)
    for _ in range(abs(2 * g - 2)):
        power = power * bracket(k)
    num, den = (ULaurent.const(1), power) if g == 0 else (power, ULaurent.const(1))
    ipow, f = phased(2 * g - 2, qfunction(num.scale(Fraction(1, k)), den))
    assert ipow == 0
    return f.to_lambda(trunc)


def gv_forward_reference(gv, d_max, g_max):
    """The multi-cover resummation summed as lambda'-series of q-brackets, one
    kernel per (genus, cover degree), read back in lambda through
    ``lambda_form``: the sum that ``vertex.gv_forward`` reads off one rational
    cover table."""
    trunc = 2 * g_max + 1
    out = {}
    for d in range(1, d_max + 1):
        acc = Laurent()
        for k in range(1, d + 1):
            if d % k:
                continue
            dp = d // k
            for g in range(g_max + 1):
                cv = gv.get((g, dp), 0)
                if cv:
                    acc = acc + _gv_kernel(g, k, trunc).scale(cv)
        form = lambda_form(acc, 0)
        for g in range(g_max + 1):
            v = form.get(2 * g - 2, {}).get(0, GaussianRational(0))
            assert not v.im
            out[(g, d)] = v.re
    return out


# -- skew Schur values and W pairs ------------------------------------------------

@lru_cache(maxsize=None)
def h_principal_reference(k):
    """Complete homogeneous h_k at (1, q, q^2, ...): 1/prod_{i<=k}(1 - q^i)."""
    if k < 0:
        return QFunction.const(0)
    den = ULaurent.const(1)
    for i in range(1, k + 1):
        den = den * (ULaurent.const(1) - ULaurent.mono(2 * i))
    return qfunction(ULaurent.const(1), den)


def _jt_det(rows, cols, entries):
    """Laplace expansion along the first row, summed as reduced ``QFunction``s."""
    if not rows:
        return QFunction.const(1)
    i, rest = rows[0], rows[1:]
    acc = QFunction.const(0)
    for t, j in enumerate(cols):
        if entries[i][j]:
            term = q_mul_reference(entries[i][j], _jt_det(rest, cols[:t] + cols[t + 1:], entries))
            acc = q_add_reference(acc, qneg(term) if t % 2 else term)
    return acc


def skew_schur_reference(mu, rho):
    """s_{mu/rho}(1, q, q^2, ...) as det(h_{mu_i - rho_j - i + j}) over reduced
    ``QFunction`` entries: the expansion that ``schur.skew_schur_principal``'s
    fraction-free determinant replaces."""
    if len(rho) > len(mu) or any(r > m for r, m in zip(rho, mu)):
        return QFunction.const(0)
    n = len(mu)
    rho_p = tuple(rho) + (0,) * (n - len(rho))
    entries = [[h_principal_reference(mu[i] - rho_p[j] - i + j) for j in range(n)]
               for i in range(n)]
    return _jt_det(tuple(range(n)), tuple(range(n)), entries)


def w_pair_reference(mu, nu):
    """(-1)^{|mu|+|nu|} q^{(kappa_mu + kappa_nu + |mu| + |nu|)/2}
    sum_rho q^{-|rho|} s_{mu/rho} s_{nu/rho}, folded over reduced products of
    ``skew_schur_reference`` values: the sum that ``chern_simons.w_pair``
    builds on one integer numerator."""
    u_exp = kappa(mu) + kappa(nu) + sum(mu) + sum(nu)
    acc = QFunction.const(0)
    for rho in sub_diagrams(intersection(mu, nu)):
        shift = qfunction(ULaurent.mono(u_exp - 2 * sum(rho)), ULaurent.const(1))
        acc = q_add_reference(acc, q_mul_reference(q_mul_reference(
            shift, skew_schur_reference(mu, rho)), skew_schur_reference(nu, rho)))
    return qneg(acc) if (sum(mu) + sum(nu)) % 2 else acc


def q_mul_reference(a, b):
    """a * b for reduced ``QFunction`` values, trial-dividing only the factors
    of exactly one denominator: the pairwise product that
    ``qfunc.sum_of_products`` replaces."""
    fac = Counter(dict(a.fac))
    fac.update(dict(b.fac))
    return QFunction._of(a.num * b.num, tuple(sorted(fac.items())),
                         dict(a.fac).keys() ^ dict(b.fac).keys())


def q_add_reference(a, b):
    """a + b for reduced ``QFunction`` values over the largest exponent of
    each Phi_e, trial-dividing only the factors of equal exponent: the
    pairwise sum that ``qfunc.sum_of_products`` replaces."""
    if not a.num:
        return b
    if not b.num:
        return a
    fa, fb = dict(a.fac), dict(b.fac)
    top = tuple(sorted((e, max(fa.get(e, 0), fb.get(e, 0))) for e in {**fa, **fb}))
    num = (a.num * _expand(tuple((e, m - fa.get(e, 0)) for e, m in top))
           + b.num * _expand(tuple((e, m - fb.get(e, 0)) for e, m in top)))
    return QFunction._of(num, top, {e for e in fa if fa[e] == fb.get(e)})


def sum_of_products_reference(terms):
    """sum of c u^shift prod(factors) over ``terms`` = ((c, factors, shift), ...),
    as the pairwise fold of reduced products and sums."""
    acc = QFunction.const(0)
    for c, factors, shift in terms:
        term = QFunction.from_factors(ULaurent({shift: c}), ())
        for f in factors:
            term = q_mul_reference(term, f)
        acc = q_add_reference(acc, term)
    return acc


def graded_log_reference(z, zero):
    """Slices zero, F_1..F_n of log Z from Z_0 = 1 (not read), Z_1..Z_n, by
    the pairwise recursion w F_w = w Z_w - sum_{0<j<w} j F_j Z_{w-j}, each
    product and sum reduced on its own (``PSeries`` or ``QFunction`` slices):
    the reference for the one fold per slice of ``dense.graded_log``."""
    if isinstance(zero, PSeries):
        add, mul, scale = add_reference, mul_reference, pscale
    else:
        add, mul, scale = q_add_reference, q_mul_reference, QFunction.scale
    f = [zero]
    for w in range(1, len(z)):
        acc = scale(z[w], w)
        for j in range(1, w):
            acc = add(acc, scale(mul(f[j], z[w - j]), -j))
        f.append(scale(acc, Fraction(1, w)))
    return f
