"""Mirror hypergeometric engine.

Quintic side: the degree-5 hypersurface series in Q[H]/(H^5), the mirror-map
change of variables and the cubic-normalized potential, plus the classical
k^{-3} multiple-cover inversion.

Grassmannian side: the product-of-projective-spaces series, the
antisymmetrizing derivative operator with its pi sqrt(-1) bookkeeping symbol
P, the composition-sum localization formula, and the equality test between
the two in the Schur basis of H*(Gr(k,n)).  Both sides are sums over
compositions of a determinant whose row i depends on the Chern root x_i
alone, so by the bialternant formula s_lambda = a_{lambda+delta} / a_delta
the s_lambda coefficient is the x^{lambda+delta} coefficient of that sum,
read from one-variable rows without any Vandermonde division.  Two guards
hold on every coefficient read: it is free of P, and it changes sign when
two adjacent exponents are swapped.

Sign conventions: the projective-space displays use (x - m alpha) while the
composition sum uses (x_i + l alpha); the bridge, validated by the equality
test, is alpha -> -alpha inside the composition sum.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from . import dense
from .errors import InternalError, UsageError, VerificationFailure
from .laurent import Laurent
from .nilpotent import XPoly, exp_x_times
from .partitions import compositions

Frac = Fraction


# ===========================================================================
# quintic
# ===========================================================================

@lru_cache(maxsize=None)
def quintic_hg(d_max: int) -> Tuple[Dict[int, List[Frac]], ...]:
    """Bracket coefficients (f0, f1, f2, f3) of the quintic series.

    Each f_i maps degree d to the t-polynomial coefficient list of e^{dt}.
    The m = 0 factor keeps the overall 5; downstream ratios are insensitive.
    """
    if d_max < 1:
        raise UsageError("need at least degree 1")
    nilp = 5
    f: Tuple[Dict[int, List[Frac]], ...] = tuple({} for _ in range(4))
    for d in range(d_max + 1):
        num = [Frac(1)]
        for m in range(0, 5 * d + 1):
            num = dense.mul(num, [Frac(m), Frac(5)], nilp)
        den = [Frac(1)]
        for m in range(1, d + 1):
            lin = [Frac(m), Frac(1)]
            for _ in range(5):
                den = dense.mul(den, lin, nilp)
        slice_d = dense.mul(num, dense.inv(den, nilp), nilp)
        if slice_d[0]:
            raise InternalError("quintic slice not divisible by the hyperplane class")
        # multiply by e^{Ht} and read off coefficients of H^{i+1}
        for i in range(4):
            tpoly = [Frac(0)] * (i + 2)
            for j in range(i + 2):
                h = i + 1 - j
                if h < nilp and slice_d[h]:
                    tpoly[j] = slice_d[h] / factorial(j)
            while tpoly and not tpoly[-1]:
                tpoly.pop()
            f[i][d] = tpoly
    return f


@lru_cache(maxsize=None)
def candelas(d_max: int) -> dict:
    """Mirror map and degree coefficients of the cubic-normalized potential.

    Returns {"K": [K_1..K_dmax], "mirror_map": u-series, "cubic": 5/6,
    "inverse_map": B-series with Q = Qt * B(Qt)}.
    """
    if d_max < 1:
        raise UsageError("need at least degree 1")
    f = quintic_hg(d_max)
    n = d_max + 1

    def tq(fi: Dict[int, List[Frac]]) -> Dict[int, List[Frac]]:
        out: Dict[int, List[Frac]] = {}
        for d, tpoly in fi.items():
            for j, c in enumerate(tpoly):
                if c:
                    out.setdefault(j, [Frac(0)] * n)[d] = c
        return out

    F = [tq(fi) for fi in f]
    # peel the e^{Ht}-injected t-powers: f_k = sum_j t^j/j! S_{k-j}
    S: List[List[Frac]] = []
    for k in range(4):
        Sk = list(F[k].get(0, [Frac(0)] * n))
        for j in range(1, k + 1):
            expect = [c / factorial(j) for c in S[k - j]]
            got = F[k].get(j, [Frac(0)] * n)
            if got != expect:
                raise InternalError("bracket coefficients violate the e^{Ht} structure")
        S.append(Sk)
    s0 = S[0]
    if s0[0] != 5:
        raise InternalError("unexpected overall normalization of the quintic series")
    u = dense.mul(S[1], dense.inv(s0, n), n)       # mirror map: T = t + u(Q)
    if u[0]:
        raise InternalError("mirror map must fix the log term")
    # inverse map: Q = Qt B(Qt) with Qt = Q e^{u(Q)}
    e_u = dense.exp(u, n)
    B = [Frac(1)] + [Frac(0)] * (n - 1)
    for _ in range(n):
        inner = dense.mul([Frac(0), Frac(1)], B, n)      # Qt * B
        B = dense.inv(dense.compose(e_u, inner, n), n)
    q_of_qt = dense.mul([Frac(0), Frac(1)], B, n)

    # potential as a t-polynomial with Q-series coefficients
    inv0 = dense.inv(s0, n)
    inv0sq = dense.mul(inv0, inv0, n)

    def fprod(a: Dict[int, List[Frac]], b: Dict[int, List[Frac]]) -> Dict[int, List[Frac]]:
        out: Dict[int, List[Frac]] = {}
        for j1, c1 in a.items():
            for j2, c2 in b.items():
                cur = out.setdefault(j1 + j2, [Frac(0)] * n)
                prod = dense.mul(c1, c2, n)
                out[j1 + j2] = [x + y for x, y in zip(cur, prod)]
        return out

    def fscale(a: Dict[int, List[Frac]], qs: List[Frac]) -> Dict[int, List[Frac]]:
        return {j: dense.mul(c, qs, n) for j, c in a.items()}

    pot = fscale(fprod(F[1], F[2]), inv0sq)
    f3s = fscale(F[3], inv0)
    potential: Dict[int, List[Frac]] = {}
    for j in set(pot) | set(f3s):
        a = pot.get(j, [Frac(0)] * n)
        b = f3s.get(j, [Frac(0)] * n)
        potential[j] = [Frac(5, 2) * (x - y) for x, y in zip(a, b)]

    # substitute t = T - u(Q), then Q = Q(Qt)
    minus_u_pow = {0: [Frac(1)] + [Frac(0)] * (n - 1)}
    for j in range(1, max(potential) + 1):
        minus_u_pow[j] = dense.mul(minus_u_pow[j - 1], [-c for c in u], n)
    in_T: Dict[int, List[Frac]] = {}
    for j, qs in potential.items():
        for r in range(j + 1):
            w = comb(j, r)
            piece = dense.mul(qs, minus_u_pow[j - r], n)
            cur = in_T.setdefault(r, [Frac(0)] * n)
            in_T[r] = [x + w * y for x, y in zip(cur, piece)]
    for r in in_T:
        in_T[r] = dense.compose(in_T[r], q_of_qt, n)

    cubic = in_T.get(3, [Frac(0)] * n)
    if cubic[0] != Frac(5, 6) or any(cubic[1:]):
        raise VerificationFailure("cubic coefficient of the potential is not 5/6")
    for r in (1, 2):
        if any(in_T.get(r, [])):
            raise VerificationFailure(f"T^{r} coefficient of the potential survives")
    k_series = in_T.get(0, [Frac(0)] * n)
    if k_series[0]:
        raise VerificationFailure("constant term of the potential survives")
    return {
        "K": k_series[1:],
        "mirror_map": u,
        "inverse_map": B,
        "cubic": cubic[0],
        "q_of_qt": q_of_qt,
    }


def mirror_map_round_trip(d_max: int) -> bool:
    """t(T(t)) = t through e^{d_max t}: Q(Qt(Q)) = Q as series."""
    data = candelas(d_max)
    n = d_max + 1
    e_u = dense.exp(data["mirror_map"], n)
    qt_of_q = dense.mul([Frac(0), Frac(1)], e_u, n)
    round_trip = dense.compose(data["q_of_qt"], qt_of_q, n)
    return round_trip == [Frac(0), Frac(1)] + [Frac(0)] * (n - 2)


def multiple_cover_invert(k_list: Sequence[Frac]) -> List[int]:
    """K_d = sum_{k | d} n_{d/k} / k^3, solved triangularly; entries must be integers."""
    out: List[int] = []
    for d in range(1, len(k_list) + 1):
        v = Frac(k_list[d - 1])
        for k in range(2, d + 1):
            if d % k == 0:
                v -= Frac(out[d // k - 1], k ** 3)
        if v.denominator != 1:
            raise VerificationFailure(f"multiple-cover count n_{d} = {v} is not an integer")
        out.append(int(v))
    return out


def multiple_cover_forward(n_list: Sequence[int]) -> List[Frac]:
    out = []
    for d in range(1, len(n_list) + 1):
        v = Frac(0)
        for k in range(1, d + 1):
            if d % k == 0:
                v += Frac(n_list[d // k - 1], k ** 3)
        out.append(v)
    return out


# ===========================================================================
# general convex toric series
# ===========================================================================

def toric_b_series(generators: Sequence[Tuple[str, int]],
                   line_bundles: Sequence[Sequence[int]],
                   divisors: Sequence[Sequence[int]],
                   d_max: int) -> Dict[Tuple[int, ...], Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Frac]]:
    """Degree slices of the convex-case toric series.

    Classes are integer vectors in the generator basis; the pairing of a
    class with a multidegree d is the dot product (generators dual to the
    degree basis).  Output: {d: {(gen exps, t exps): coefficient}} including
    the e^{-H t} factor.
    """
    r = len(generators)
    nilps = tuple(n for _, n in generators)
    if any(len(v) != r for v in line_bundles) or any(len(v) != r for v in divisors):
        raise UsageError("class vectors must match the generator count")

    def ring_mul(a, b):
        out: Dict[Tuple[int, ...], Frac] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if any(e[i] >= nilps[i] for i in range(r)):
                    continue
                out[e] = out.get(e, Frac(0)) + v1 * v2
        return {k: v for k, v in out.items() if v}

    def lin(vec, const) -> Dict[Tuple[int, ...], Frac]:
        out = {(0,) * r: Frac(const)} if const else {}
        for i, c in enumerate(vec):
            if c:
                e = tuple(1 if j == i else 0 for j in range(r))
                out[e] = out.get(e, Frac(0)) + c
        return out

    def ring_inv(a):
        # (c0 + N)^{-1} = sum_m (-1)^m N^m / c0^{m+1} with N nilpotent
        c0 = a.get((0,) * r, Frac(0))
        if not c0:
            raise UsageError("non-invertible denominator factor")
        nil = {k: v for k, v in a.items() if any(k)}
        max_steps = sum(nn - 1 for nn in nilps)
        out: Dict[Tuple[int, ...], Frac] = {}
        power = {(0,) * r: Frac(1)}
        for m in range(max_steps + 1):
            for kk, v in power.items():
                out[kk] = out.get(kk, Frac(0)) + ((-1) ** m) * v / c0 ** (m + 1)
            power = ring_mul(power, nil)
            if not power:
                break
        return {k: v for k, v in out.items() if v}

    # e^{-H t} = prod_j e^{-G_j t_j}
    expfac: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Frac] = {}
    base = [((0,) * r, (0,) * r, Frac(1))]
    for j in range(r):
        new = []
        for ge, te, v in base:
            for m in range(nilps[j]):
                ge2 = tuple(ge[i] + (m if i == j else 0) for i in range(r))
                if any(ge2[i] >= nilps[i] for i in range(r)):
                    continue
                te2 = tuple(te[i] + (m if i == j else 0) for i in range(r))
                new.append((ge2, te2, v * Frac((-1) ** m, factorial(m))))
        base = new
    for ge, te, v in base:
        expfac[(ge, te)] = expfac.get((ge, te), Frac(0)) + v

    degrees = [d for s in range(d_max + 1) for d in compositions(s, r)]
    out: Dict[Tuple[int, ...], Dict] = {}
    for d in degrees:
        num = {(0,) * r: Frac(1)}
        for vec in line_bundles:
            pair = sum(c * dd for c, dd in zip(vec, d))
            if pair < 0:
                raise UsageError("negative line-bundle pairing: outside the convex case")
            for k in range(0, pair + 1):
                num = ring_mul(num, lin(vec, -k))
        den = {(0,) * r: Frac(1)}
        for vec in divisors:
            pair = sum(c * dd for c, dd in zip(vec, d))
            if pair < 0:
                for k in range(0, -pair):
                    num = ring_mul(num, lin(vec, k))
            else:
                for k in range(1, pair + 1):
                    den = ring_mul(den, lin(vec, -k))
        slice_d = ring_mul(num, ring_inv(den))
        full: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Frac] = {}
        for (ge, te), v in expfac.items():
            for e2, v2 in slice_d.items():
                e = tuple(x + y for x, y in zip(ge, e2))
                if any(e[i] >= nilps[i] for i in range(r)):
                    continue
                key = (e, te)
                s = full.get(key, Frac(0)) + v * v2
                if s:
                    full[key] = s
                elif key in full:
                    del full[key]
        out[d] = full
    return out


# ===========================================================================
# projective space and Grassmannian series
# ===========================================================================

@lru_cache(maxsize=None)
def hg_projective(n: int, d_max: int, cap: Optional[int] = None) -> Tuple[XPoly, ...]:
    """Degree slices of the fundamental series of P^{n-1}.

    Slice d: e^{-t x / alpha} / prod_{m=1}^{d} (x - m alpha)^n, expanded in x
    through the cap (default n-1, the nilpotency order).
    """
    if n < 2:
        raise UsageError("need projective space of dimension >= 1")
    if cap is None:
        cap = n - 1
    pre = exp_x_times(cap, "t", -1)
    out: List[XPoly] = []
    for d in range(d_max + 1):
        slice_d = XPoly.const(cap, 1)
        for m in range(1, d + 1):
            slice_d = slice_d * _inv_linear_power(cap, -m, n)
        out.append(pre * slice_d)
    return tuple(out)


def _inv_linear_power(cap: int, mcoef: int, power: int) -> XPoly:
    """(x + mcoef*alpha)^{-power} as a truncated x-series."""
    if mcoef == 0:
        raise UsageError("non-invertible linear factor")
    return XPoly(cap, {
        (j, 0, 0, -(power + j)): Frac(comb(power - 1 + j, j) * (-1) ** j,
                                      mcoef ** (power + j))
        for j in range(cap + 1)})


def _gr_cap(k: int, n: int) -> int:
    """x-degree cap of the Grassmannian rows: above every lambda + delta
    with lambda in the k x (n-k) box."""
    return k * (n - k) + k * (k - 1) // 2 + 2


def _loc_rows(k: int, n: int, d_max: int, cap: int) -> Dict[Tuple[int, int], XPoly]:
    """Entries of the composition-sum determinant, keyed (part c, column j).

    (x + c alpha)^{k-1-j} prod_{l=1}^{c} (x + l alpha)^{-n} with the row
    sign (-1)^{(k-1)c}: row i of composition c is the entries (c_i, j) in
    x_i, and prod_{i<j} (x_i - x_j + (c_i - c_j) alpha) is the Vandermonde
    determinant in the x_i + c_i alpha.
    """
    out: Dict[Tuple[int, int], XPoly] = {}
    for c in range(d_max + 1):
        base = XPoly.const(cap, (-1) ** ((k - 1) * c))
        for l in range(1, c + 1):
            base = base * _inv_linear_power(cap, l, n)
        for j in range(k):
            m = k - 1 - j
            shifted = XPoly(cap, {(i, 0, 0, m - i): comb(m, i) * c ** (m - i)
                                  for i in range(m + 1)})
            out[(c, j)] = shifted * base
    return out


def _bialternant(rows: Dict[Tuple[int, int], XPoly], k: int, n: int, d: int,
                 cap: int) -> Dict[int, Dict[Tuple[int, ...], Laurent]]:
    """Schur coefficients of sum_c det[rows[c_i, j](x_i)] / a_delta, by t-exponent.

    The sum runs over the compositions c of d into k parts.  By the
    bialternant formula s_lambda = a_{lambda+delta} / a_delta, the s_lambda
    coefficient is the x^{lambda+delta} coefficient of the determinant sum:
    a Leibniz sum of products of one-variable coefficients.  Every strictly
    decreasing exponent tuple with total <= cap is read, and each must be
    P-free and change sign under every adjacent swap.  Only the Schur
    classes of H*(Gr(k,n)) are kept: partitions inside the k x (n-k) box.
    """
    coeffs = {key: row.x_coefficients() for key, row in rows.items() if key[0] <= d}
    comps = compositions(d, k)
    # each permutation with its sign, (-1)^{number of inversions}
    perms = [((-1) ** sum(a > b for a, b in combinations(sigma, 2)), sigma)
             for sigma in permutations(range(k))]

    def at(e: Tuple[int, ...]) -> XPoly:
        terms = []
        for compn in comps:
            for sign, sigma in perms:
                term = None
                for i in range(k):
                    f = coeffs[(compn[i], sigma[i])].get(e[i])
                    if f is None:
                        break
                    term = f if term is None else term * f
                else:
                    terms.append((sign, term))
        return XPoly.lincomb(cap, terms)

    by_t: Dict[int, Dict[Tuple[int, ...], Laurent]] = {}
    for e in combinations(range(cap, -1, -1), k):
        if sum(e) > cap:
            continue
        v = at(e)
        if not v.p_free():
            raise InternalError("surviving P-dependence in a Schur coefficient")
        for i in range(k - 1):
            if at(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != -v:
                raise InternalError("determinant sum is not antisymmetric")
        lam = tuple(p for p in (x - (k - 1 - i) for i, x in enumerate(e)) if p)
        if lam and lam[0] > n - k:
            continue
        for (_x, _p, te), coef in v.c.items():
            by_t.setdefault(te, {})[lam] = coef
    return by_t


def gr_loc_sum(k: int, n: int, d: int) -> Dict[Tuple[int, ...], Laurent]:
    """Localization-sum class in the Schur basis of H*(Gr(k,n))."""
    if not (1 <= k < n):
        raise UsageError("need 1 <= k < n")
    if d < 0:
        raise UsageError("degree must be nonnegative")
    cap = _gr_cap(k, n)
    by_t = _bialternant(_loc_rows(k, n, d, cap), k, n, d, cap)
    if set(by_t) - {0}:
        raise InternalError("unexpected symbol in the localization sum")
    return by_t.get(0, {})


@lru_cache(maxsize=None)
def hori_vafa_series(k: int, n: int, d_max: int) -> dict:
    """Operator-formula series, localization series, and their equality.

    Output: {"operator": {d: {t_exp: {lam: Laurent}}}, "localization":
    same shape, "equal": bool}.  The alpha -> -alpha bridge between the two
    printed conventions is applied to the composition sum.
    """
    if not (1 <= k < n):
        raise UsageError("need 1 <= k < n")
    if d_max < 0:
        raise UsageError("degree must be nonnegative")
    cap = _gr_cap(k, n)
    slices = hg_projective(n, d_max, cap=cap)

    # operator entries: column j carries (alpha d/dt)^r, r = k-1-j, acting
    # on slice * e^{c t} as alpha^r (c + d/dt)^r, framed-substituted and
    # times e^{P x}.  The sign (-1)^r gathers to the Vandermonde orientation
    # sign (-1)^{k(k-1)/2}; (-1)^{(k-1)c} is the copy sign from e^{c t}.
    e_p = exp_x_times(cap, "P", 1)
    op_rows: Dict[Tuple[int, int], XPoly] = {}
    for c in range(d_max + 1):
        cur = slices[c]
        for r in range(k):
            if r:
                cur = cur.scale(c) + cur.dt()
            factor = Laurent.mono(r, (-1) ** (r + (k - 1) * c))
            op_rows[(c, k - 1 - r)] = cur.subs_t_plus_p_alpha().scale(factor) * e_p

    # localization side: e^{-t x_i/alpha} times each row, alpha flipped first
    pre_t = exp_x_times(cap, "t", -1)
    loc_rows = {key: pre_t * row.negate_alpha()
                for key, row in _loc_rows(k, n, d_max, cap).items()}

    operator_out = {d: _bialternant(op_rows, k, n, d, cap) for d in range(d_max + 1)}
    loc_out = {d: _bialternant(loc_rows, k, n, d, cap) for d in range(d_max + 1)}
    equal = _reduced_equal(operator_out, loc_out)
    return {"operator": operator_out, "localization": loc_out, "equal": equal}


def _reduced_equal(a, b) -> bool:
    """Coefficient-wise equality over (d, t, lambda); false if none compared."""
    def norm(side):
        out = {}
        for d, by_t in side.items():
            for te, lams in by_t.items():
                for lam, v in lams.items():
                    if v:
                        out[(d, te, lam)] = v
        return out

    compared = norm(a)
    return len(compared) > 0 and compared == norm(b)


def gr23_matches_p2(d_max: int = 2) -> bool:
    """The (2,3) operator output equals the P^2 series under s_1 <-> x."""
    lam_of_deg = {0: (), 1: (1,), 2: (1, 1)}
    expect: Dict[int, Dict[int, Dict[Tuple[int, ...], Laurent]]] = {}
    for d, slice_d in enumerate(hg_projective(3, d_max)):
        for (xe, _pe, te), v in slice_d.c.items():
            expect.setdefault(d, {}).setdefault(te, {})[lam_of_deg[xe]] = v
    return _reduced_equal(hori_vafa_series(2, 3, d_max)["operator"], expect)
