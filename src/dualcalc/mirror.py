"""Mirror hypergeometric engine.

Quintic side: the bracket coefficients read off the toric series of the
quintic spec, the cubic-normalized potential on ``dense`` Q-series and the
mirror-map change of variables, one ``dense.lagrange`` pass.  The instanton
numbers come from its degree coefficients by the genus-0 case of
``vertex.gv_invert``.

Toric side: the convex-case series of a toric spec in the truncated ring
Q[G_1..G_r]/(G_i^{n_i}), held as ``Poly`` values keyed by exponent tuples
and multiplied by ``nilpotent.mul`` in the nilpotency box; each slice
multiplies one running product of linear factors per class.

Grassmannian side: the product-of-projective-spaces series, the
antisymmetrizing derivative operator with its pi sqrt(-1) bookkeeping symbol
P, the composition-sum localization formula, and their equality in the Schur
basis of H*(Gr(k,n)).  Both sides sum, over compositions, a determinant whose
row i depends on the Chern root x_i alone; each row entry is a ``Poly`` keyed
by (x, P, t, alpha) exponents and cut at an x-degree cap.  The two sides' row
entries agree one by one, which is what the equality compares: (alpha d/dt +
c alpha)^r e^{-t x/alpha} = (c alpha - x)^r e^{-t x/alpha}, and t -> t + P
alpha cancels e^{P x} exactly below the cap.  By the bialternant formula
s_lambda = a_{lambda+delta} / a_delta the s_lambda coefficient is the
x^{lambda+delta} coefficient: one pass builds the Leibniz sum row by row on
integers, for every degree at once, over (used-column mask, degree) states
memoised on the row prefix.  Each read is P-free and flips under adjacent
swaps.  The CLI bounds k, n and the degree (``cli.GR_MAX_*``).

Sign conventions: the projective-space displays use (x - m alpha) while the
composition sum uses (x_i + l alpha); the bridge, validated by the equality
test, is alpha -> -alpha inside the composition sum.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod

from . import dense, nilpotent
from .errors import InternalError, UsageError, VerificationFailure
from .laurent import Laurent, Poly
from .partitions import compositions, typed_cache

Frac = Fraction


# ===========================================================================
# quintic
# ===========================================================================

@typed_cache("int")
def candelas(d_max: int) -> dict:
    """Mirror map and degree coefficients of the cubic-normalized potential.

    The bracket coefficients are the toric series of the quintic spec: the
    degree-5 line bundle on P^4.  Returns {"K": [K_1..K_dmax], "mirror_map":
    u-series, "cubic": 5/6, "q_of_qt": Q as a series in Qt = Q e^{u(Q)}},
    each series the list of its Fraction coefficients of Q^0..Q^dmax.  One
    ``dense.lagrange`` pass gives Q(Qt) and the potential's T-coefficients
    in Qt.
    """
    if d_max < 1:
        raise UsageError("need at least degree 1")
    n = d_max + 1
    zero = Laurent()
    # F[i][j]: the Q-series of H^(i+1) t^j.  H -> -H sends the toric slices
    # to minus the quintic's, each t^j/j! of e^{-Ht} to that of e^{Ht}:
    # [H^h t^j] of degree d is -(-1)^h b[(d,)][((h,), (j,))].  The k = 0
    # numerator factor keeps the overall 5; downstream ratios are insensitive.
    by_j: list[dict[int, dict[int, Frac]]] = [{} for _ in range(4)]
    for (d,), coeffs in toric_b_series([("H", 5)], [[5]], [[1]] * 5, d_max).items():
        for ((h,), (j,)), v in coeffs.items():
            if not h:
                raise InternalError("quintic slice not divisible by the hyperplane class")
            by_j[h - 1].setdefault(j, {})[d] = v if h % 2 else -v
    F = [{j: Laurent(qs) for j, qs in fi.items()} for fi in by_j]
    # peel the e^{Ht}-injected t-powers: f_k = sum_j t^j/j! S_{k-j}
    S: list[Laurent] = []
    for k in range(4):
        for j in range(1, k + 1):
            if F[k].get(j, zero) != S[k - j].scale(Frac(1, factorial(j))):
                raise InternalError("bracket coefficients violate the e^{Ht} structure")
        S.append(F[k].get(0, zero))
    s0 = S[0]
    if Frac(s0.num.get(0, 0), s0.den) != 5:
        raise InternalError("unexpected overall normalization of the quintic series")
    inv0 = dense.inv(s0, n)
    u = dense.mul(S[1], inv0, n)       # mirror map: T = t + u(Q)
    if 0 in u.num:
        raise InternalError("mirror map must fix the log term")

    # potential as a t-polynomial with Q-series coefficients:
    # 5/2 (f1 f2 / s0^2 - f3 / s0)
    inv0sq = dense.mul(inv0, inv0, n)
    f12: dict[int, Laurent] = {}
    for j1, c1 in F[1].items():
        for j2, c2 in F[2].items():
            f12[j1 + j2] = f12.get(j1 + j2, zero) + dense.mul(c1, c2, n)
    potential = {j: dense.mul(c, inv0sq, n) for j, c in f12.items()}
    for j, c in F[3].items():
        potential[j] = potential.get(j, zero) - dense.mul(c, inv0, n)

    # substitute t = T - u(Q), then Q = Q(Qt), the inverse of Qt = Q e^{u(Q)}
    minus_u_pow = [Laurent.const(1)]
    for _ in range(max(potential)):
        minus_u_pow.append(dense.mul(minus_u_pow[-1], -u, n))
    in_T = [zero] * 4
    for j, qs in potential.items():
        for r in range(j + 1):
            in_T[r] += dense.mul(qs, minus_u_pow[j - r], n).scale(Frac(5, 2) * comb(j, r))
    q_of_qt, k_series, *middle, cubic = dense.lagrange([Laurent.mono(1), *in_T], u, n)

    if cubic != Laurent.const(Frac(5, 6)):
        raise VerificationFailure("cubic coefficient of the potential is not 5/6")
    for r, c in enumerate(middle, 1):
        if c:
            raise VerificationFailure(f"T^{r} coefficient of the potential survives")
    if 0 in k_series.num:
        raise VerificationFailure("constant term of the potential survives")

    def fracs(qs: Laurent) -> list[Frac]:
        c = qs.c
        return [c.get(k, Frac(0)) for k in range(n)]

    return {
        "K": fracs(k_series)[1:],
        "mirror_map": fracs(u),
        "cubic": fracs(cubic)[0],
        "q_of_qt": fracs(q_of_qt),
    }


def mirror_map_round_trip(d_max: int) -> bool:
    """t(T(t)) = t through e^{d_max t}: Q(Qt(Q)) = Q as series."""
    data = candelas(d_max)
    n = d_max + 1
    u, q_of_qt = (Laurent(dict(enumerate(data[key]))) for key in ("mirror_map", "q_of_qt"))
    qt_of_q = dense.exp(u, n).shift(1)
    return dense.compose(q_of_qt, qt_of_q, n) == Laurent.mono(1)


# ===========================================================================
# general convex toric series
# ===========================================================================

def toric_b_series(generators: Sequence[tuple[str, int]],
                   line_bundles: Sequence[Sequence[int]],
                   divisors: Sequence[Sequence[int]],
                   d_max: int) -> dict[tuple[int, ...], dict[tuple[tuple[int, ...], tuple[int, ...]], Frac]]:
    """Degree slices of the convex-case toric series.

    Classes are integer vectors in the generator basis; the pairing of a
    class with a multidegree d is the dot product (generators dual to the
    degree basis).  Output: {d: {(gen exps, t exps): coefficient}} including
    the e^{-H t} factor.  Ring values are ``Poly`` keyed by the generator
    exponents followed by the t exponents.
    """
    r = len(generators)
    nilps = tuple(n for _, n in generators)
    if d_max < 0:
        raise UsageError("degree must be nonnegative")
    if not r:
        raise UsageError("need at least one generator")
    if min(nilps) < 1:
        raise UsageError("nilpotency must be at least 1")
    if not line_bundles and not divisors:
        raise UsageError("need at least one line bundle or divisor")
    if any(len(v) != r for v in line_bundles) or any(len(v) != r for v in divisors):
        raise UsageError("class vectors must match the generator count")
    zero = (0,) * (2 * r)
    units = [tuple(int(k == i) for k in range(2 * r)) for i in range(r)]
    one = Poly({zero: 1})
    box = tuple(n - 1 for n in nilps)  # the truncation of every ring product

    def lin(vec: Sequence[int], const: int) -> Poly:
        return Poly({zero: const, **dict(zip(units, vec))})

    def ring_inv(a: Poly) -> Poly:
        # (c0 + N)^{-1} = c0^{-1} sum_m (-N/c0)^m with N nilpotent, by Horner
        c0 = Frac(a.num.get(zero, 0), a.den)
        if not c0:
            raise UsageError("non-invertible denominator factor")
        step = (a - Poly({zero: c0})).scale(-1 / c0)
        out = one
        for _ in range(sum(nilps) - r):
            out = one + nilpotent.mul(step, out, box)
        return out.scale(1 / c0)

    # e^{-H t} = prod_j e^{-G_j t_j}
    expfac = one
    for j, nilp in enumerate(nilps):
        expfac = nilpotent.mul(expfac, Poly({tuple(m * (i % r == j) for i in range(2 * r)):
                                             Frac((-1) ** m, factorial(m)) for m in range(nilp)}), box)

    # (class, first k, sign) -> running products of lin(class, sign k) from the
    # first k on.  No slice comes from a neighbour: where a divisor's pairing
    # goes from -1 to 0 their ratio is 1/D, and D is nilpotent.
    tables: dict[tuple, list[Poly]] = {}

    def running(vec: Sequence[int], first: int, count: int, sign: int) -> Poly:
        table = tables.setdefault((tuple(vec), first, sign), [one])
        while len(table) <= count:
            table.append(nilpotent.mul(table[-1], lin(vec, sign * (first + len(table) - 1)), box))
        return table[count]

    out: dict[tuple[int, ...], dict] = {}
    for d in (d for s in range(d_max + 1) for d in compositions(s, r)):
        num = one
        for vec in line_bundles:
            pair = sum(c * dd for c, dd in zip(vec, d))
            if pair < 0:
                raise UsageError("negative line-bundle pairing: outside the convex case")
            num = nilpotent.mul(num, running(vec, 0, pair + 1, -1), box)
        den = one
        for vec in divisors:
            pair = sum(c * dd for c, dd in zip(vec, d))
            if pair < 0:
                num = nilpotent.mul(num, running(vec, 0, -pair, 1), box)
            else:
                den = nilpotent.mul(den, running(vec, 1, pair, -1), box)
        full = nilpotent.mul(expfac, nilpotent.mul(num, ring_inv(den), box), box)
        out[d] = {(e[:r], e[r:]): v for e, v in full.c.items()}
    return out


# ===========================================================================
# projective space and Grassmannian series
# ===========================================================================

@typed_cache("int", "int", "int")
def hg_projective(n: int, d_max: int, cap: int) -> tuple[Poly, ...]:
    """Degree slices of the fundamental series of P^{n-1}.

    Slice d: e^{-t x / alpha} / prod_{m=1}^{d} (x - m alpha)^n, expanded in x
    through the cap (n-1 is the nilpotency order), as a ``Poly`` keyed by
    (x, P, t, alpha) exponents.
    """
    if n < 2:
        raise UsageError("need projective space of dimension >= 1")
    caps = (cap,)
    pre = nilpotent.exp_x_times(cap, "t")
    out: list[Poly] = []
    slice_d = Poly({(0, 0, 0, 0): 1})
    for d in range(d_max + 1):
        if d:
            slice_d = nilpotent.mul(slice_d, _inv_linear_power(cap, -d, n), caps)
        out.append(nilpotent.mul(pre, slice_d, caps))
    return tuple(out)


def _inv_linear_power(cap: int, mcoef: int, power: int) -> Poly:
    """(x + mcoef*alpha)^{-power} as a truncated x-series."""
    if mcoef == 0:
        raise UsageError("non-invertible linear factor")
    return Poly({(j, 0, 0, -(power + j)): Frac(comb(power - 1 + j, j) * (-1) ** j,
                                              mcoef ** (power + j))
                 for j in range(cap + 1)})


def _gr_cap(k: int, n: int) -> int:
    """x-degree cap of the Grassmannian rows: above every lambda + delta
    with lambda in the k x (n-k) box."""
    return k * (n - k) + k * (k - 1) // 2 + 2


def _op_rows(k: int, n: int, d_max: int, cap: int) -> dict[tuple[int, int], Poly]:
    """Entries of the operator-formula determinant, keyed (part c, column j).

    Column j carries (alpha d/dt)^r, r = k-1-j, acting on slice * e^{c t} as
    alpha^r (c + d/dt)^r, framed-substituted, times e^{P x} (t-free, so taken
    into the slice first).  The sign (-1)^r gathers to the Vandermonde
    orientation sign (-1)^{k(k-1)/2}; (-1)^{(k-1)c} is the copy sign.
    """
    caps = (cap,)
    e_p = nilpotent.exp_x_times(cap, "P")
    out: dict[tuple[int, int], Poly] = {}
    for c, s in enumerate(hg_projective(n, d_max, cap)):
        cur = nilpotent.mul(s, e_p, caps)
        for r in range(k):
            if r:
                cur = cur.scale(c) + nilpotent.dt(cur)
            factor = Poly({(0, 0, 0, r): (-1) ** (r + (k - 1) * c)})
            out[(c, k - 1 - r)] = nilpotent.mul(nilpotent.subs_t_plus_p_alpha(cur), factor, caps)
    return out


def _loc_rows(k: int, n: int, d_max: int, cap: int) -> dict[tuple[int, int], Poly]:
    """Entries of the composition-sum determinant, keyed (part c, column j).

    e^{-t x/alpha} times (x + c alpha)^{k-1-j} prod_{l=1}^{c} (x + l alpha)^{-n}
    with alpha -> -alpha and the row sign (-1)^{(k-1)c}: row i of composition
    c is the entries (c_i, j) in x_i, and prod_{i<j} (x_i - x_j + (c_i - c_j)
    alpha) is the Vandermonde determinant in the x_i + c_i alpha.
    """
    caps = (cap,)
    pre_t = nilpotent.exp_x_times(cap, "t")
    out: dict[tuple[int, int], Poly] = {}
    inv_prod = Poly({(0, 0, 0, 0): 1})
    for c in range(d_max + 1):
        if c:
            inv_prod = nilpotent.mul(inv_prod, _inv_linear_power(cap, c, n), caps)
        base = inv_prod.scale((-1) ** ((k - 1) * c))
        for j in range(k):
            m = k - 1 - j
            shifted = Poly({(i, 0, 0, m - i): comb(m, i) * c ** (m - i) for i in range(m + 1)})
            row = nilpotent.negate_alpha(nilpotent.mul(shifted, base, caps))
            out[(c, j)] = nilpotent.mul(pre_t, row, caps)
    return out


def _row_step(states: dict, at_x: dict[int, list], d_max: int) -> dict:
    """One more row of the Leibniz sum, on {(used-column mask, degree so far): {(P, t, alpha)
    exponents: integer numerator}}: an unused column j, a part c of at_x[j] within d_max, sign
    (-1)^{used columns above j}.  The numerators share one denominator: products add as integers."""
    out: dict[tuple[int, int], dict] = {}
    for (mask, s), v in states.items():
        for j, pairs in at_x.items():
            if not mask >> j & 1:
                sign = -1 if (mask >> j).bit_count() & 1 else 1
                for c, f in pairs:
                    if s + c <= d_max:
                        acc = out.setdefault((mask | 1 << j, s + c), {})
                        for (p1, t1, a1), w1 in v.items():
                            w1 *= sign
                            for (p2, t2, a2), w2 in f.items():
                                key = (p1 + p2, t1 + t2, a1 + a2)
                                acc[key] = acc.get(key, 0) + w1 * w2
    return {key: acc for key, t in out.items() if (acc := {m: w for m, w in t.items() if w})}


def _bialternant(rows: dict[tuple[int, int], Poly], k: int, n: int, d_max: int,
                 cap: int) -> dict[int, dict[int, dict[tuple[int, ...], Laurent]]]:
    """Schur coefficients of sum_c det[rows[c_i, j](x_i)] / a_delta by |c| <= d_max and
    t-exponent, all degrees in one pass: by s_lambda = a_{lambda+delta} / a_delta, the
    x^{lambda+delta} coefficients, each P-free and changing sign under every adjacent
    swap.  Every decreasing e with total <= cap is checked; the k x (n-k) box is kept.  Each
    row is split by x into (P, t, alpha) numerators over that slice's reduced denominator,
    and every slice at x^x is put over one dens[x]: e and its swaps share prod dens[e_i]."""
    slices = []  # (c, j, x, numerators, reduced denominator)
    for (c, j), row in rows.items():
        by_x: dict[int, dict] = {}
        for key, w in row.num.items():
            by_x.setdefault(key[0], {})[key[1:]] = w
        for x, num in by_x.items():
            g = gcd(row.den, *num.values())
            slices.append((c, j, x, {m: w // g for m, w in num.items()}, row.den // g))
    dens = [lcm(*(den for _c, _j, y, _num, den in slices if y == x)) for x in range(cap + 1)]
    cols: list[dict] = [{} for _ in range(cap + 1)]  # x -> j -> [(c, numerators at x^x)]
    for c, j, x, num, den in slices:
        cols[x].setdefault(j, []).append((c, {m: w * (dens[x] // den) for m, w in num.items()}))
    memo = [{(): {(0, 0): {(0, 0, 0): 1}}}] + [{} for _ in range(k - 1)]  # by prefix length

    def at(e: tuple[int, ...]) -> dict[tuple[int, int], dict]:
        for i in range(1, k):
            if e[:i] not in memo[i]:
                memo[i][e[:i]] = _row_step(memo[i - 1][e[:i - 1]], cols[e[i - 1]], d_max)
        return _row_step(memo[k - 1][e[:-1]], cols[e[-1]], d_max)

    by_d: dict[int, dict[int, dict[tuple[int, ...], Laurent]]] = {d: {} for d in range(d_max + 1)}
    es = [e for e in combinations(range(cap, -1, -1), k) if sum(e) <= cap]
    for prev, e in zip([(-1,) * k] + es, es):
        # lexicographic order: no later e reaches a prefix 2 rows past the one shared with prev
        for level in memo[next(i for i in range(k) if e[i] != prev[i]) + 2:]:
            level.clear()
        v = at(e)
        if any(pe for p in v.values() for pe, _t, _a in p):
            raise InternalError("surviving P-dependence in a Schur coefficient")
        neg = {key: {m: -w for m, w in p.items()} for key, p in v.items()}
        for i in range(k - 1):
            if at(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != neg:
                raise InternalError("determinant sum is not antisymmetric")
        lam = tuple(p for p in (x - (k - 1 - i) for i, x in enumerate(e)) if p)
        if not lam or lam[0] <= n - k:
            for (_mask, d), p in v.items():
                by_t: dict[int, dict[int, int]] = {}
                for (_p, te, a), w in p.items():
                    by_t.setdefault(te, {})[a] = w
                for te, num in by_t.items():
                    by_d[d].setdefault(te, {})[lam] = Laurent()._new(num, prod(dens[x] for x in e))
    return by_d


@typed_cache("int", "int", "int")
def hori_vafa_series(k: int, n: int, d_max: int) -> dict:
    """Operator-formula series, localization series, and their equality:
    {"operator": {d: {t_exp: {lam: Laurent}}}, "localization": same shape,
    "equal": bool}.  "equal" is the entry-by-entry equality of the two sides'
    rows on a nonempty read; the localization rows are read on their own only
    when they differ."""
    if not (1 <= k < n):
        raise UsageError("need 1 <= k < n")
    if d_max < 0:
        raise UsageError("degree must be nonnegative")
    cap = _gr_cap(k, n)
    op_rows, loc_rows = _op_rows(k, n, d_max, cap), _loc_rows(k, n, d_max, cap)
    operator_out = _bialternant(op_rows, k, n, d_max, cap)
    same = op_rows == loc_rows
    loc_out = operator_out if same else _bialternant(loc_rows, k, n, d_max, cap)
    return {"operator": operator_out, "localization": loc_out,
            "equal": same and any(operator_out.values())}


def _reduced_equal(read, flat) -> bool:
    """Coefficient-wise equality of a {d: {t: {lambda: v}}} read and a flat
    {(d, t, lambda): v}; false if none compared."""
    compared = {(d, te, lam): v for d, by_t in read.items() for te, lams in by_t.items()
                for lam, v in lams.items() if v}
    return len(compared) > 0 and compared == flat


def gr23_matches_p2(d_max: int = 2) -> bool:
    """The (2,3) operator output equals the P^2 series under s_1 <-> x."""
    lam_of_deg = {0: (), 1: (1,), 2: (1, 1)}
    expect: dict[tuple, dict[int, Frac]] = {}
    for d, slice_d in enumerate(hg_projective(3, d_max, 2)):
        for (xe, _pe, te, a), v in slice_d.c.items():
            expect.setdefault((d, te, lam_of_deg[xe]), {})[a] = v
    return _reduced_equal(hori_vafa_series(2, 3, d_max)["operator"],
                          {key: Laurent(c) for key, c in expect.items()})
