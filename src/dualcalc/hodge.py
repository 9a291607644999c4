"""Framed triple-Hodge generating series (one and two partition families).

The disconnected series is a character sum of framing exponentials times
the W building blocks, one block per family weight (n) or (n+, n-):

    one family:  sum_nu chi_nu(mu)/z_mu e^{i (tau+1/2) kappa_nu lambda/2} W_nu
    two family:  sum   chi chi / (z z) e^{i (kappa+ tau + kappa- / tau) lambda/2}
                 W_{nu+, nu-}

A block is summed on integers, with no intermediate series (``_block``):
each W arrives as its lambda' expansion, one ``Laurent`` whose integer
numerators go over the block's lcm; each tau-polynomial is packed into one
integer, a digit per tau-power, so
framing x W is a convolution of integer rows in lambda' (the framing
exponential's rows cached per kappa, length and digit width), the character
sum is a sum of integers, and each stored coefficient is unpacked and
reduced once.
The connected series is its logarithm, taken on first read.  A built series
is a read-only named tuple, cached per (degree cap, order, families), so
every check and query of a process shares one build.  The module verifies
the cut-and-join evolution in tau (one linear operator on the disconnected
series for either family count, so the check takes no log), the initial
value at tau = 0, the degeneration onto the Hurwitz series, the convolution
with double Hurwitz numbers (its kernel is the tau = 0 slice, so no series
is ever inverted), and extracts triple Hodge integrals through the framing
prefactor (``hodge_extract``).
The initial value, the degeneration and the convolution compare values
without tau, each one ``laurent.Laurent`` in lambda' (``series.at``, the
Hurwitz series), below each check's compared power (``_agree_below``).

Phase conventions.  With the sine-normalized W, the tau = 0 slice of the
series equals sum_d i^{d-1} p_d / (2 d sin(d lambda / 2)): each degree-d part
carries the phase i^{d-1} relative to the all-real form of the initial-value
display.  The series, the framing prefactor A(tau) and the cut-and-join
evolution all carry it consistently, so the initial-value check pins the
phase exactly and verifies the identity in this documented normalization.

Where the phase lives: every series here is stored in lambda' = i lambda,
where its coefficients are rational: a one-family value as S_mu with
G_mu(lambda) = i^{|mu|} S_mu(lambda'), a two-family value as S(lambda').
p_d -> i^d p_d and lambda -> lambda' commute with the log and the
cut-and-join operators, so the framing exponentials are real and the
evolution's i lambda is lambda'.  The twist i^{|nu|} is the phase of
W_nu = i^{|nu|} w_one(nu), so the one-family terms are built from the real
``w_one`` and the two-family ones from the real ``w_pair``; the initial value
i^{d-1} / (2 d sin(d lambda / 2)) is i^d ``ov_term(d)``.  The one power of i
left is read out by ``hodge_extract``: lambda^{2g-2} is (-1)^{g-1}
lambda'^{2g-2}.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import factorial, lcm, prod
from operator import mul

from .chern_simons import w_one_lambda, w_pair_lambda
from .errors import InternalError, UsageError, as_index
from .hurwitz import burnside_phi, double_hurwitz
from .laurent import Laurent
from .partitions import (Partition, aut, character, check_partition, cut_join_terms,
                         enumerate_partitions, kappa, length, size, typed_cache, zmu)
from .pseries import PSeries, empty_key
from .qfunc import QFunction, bernoulli, bracket_quotient
from .series import TL_ZERO, LambdaSeries, TauLaurent, at

Frac = Fraction


# ---------------------------------------------------------------------------
# series construction
# ---------------------------------------------------------------------------

class FramedSeries(namedtuple("FramedSeries", "families caps trunc disconnected")):
    """families: int, caps: one degree cap per family, trunc: int, disconnected: PSeries."""

    def __setattr__(self, name, value):
        raise AttributeError(f"a FramedSeries is read-only: cannot set {name!r}")

    @cached_property
    def connected(self) -> PSeries:
        return self.disconnected.log()


@lru_cache(maxsize=None)
def _framing_rows(kappas: tuple[int, ...], length: int, bits: int) -> tuple[int, ...]:
    """The framing exponential e^{alpha lambda'} on integers: row k < length
    is d^top top! alpha^k / k!, top = length - 1, with the coefficient of
    tau^p at digit p + shift of width ``bits``.  One family has alpha =
    kappa (1 + 2 tau) / 4, d = 4 and shift 0; two have alpha = (kappa+ tau^2
    + kappa-) / (2 tau), d = 2 and shift top.  Private: ``build_series``
    calls it with checked integers only."""
    top = length - 1
    if len(kappas) == 1:
        g, d, shift = kappas[0] * (1 + (2 << bits)), 4, 0
    else:
        g, d, shift = kappas[1] + (kappas[0] << 2 * bits), 2, top
    c, x, rows = d ** top * factorial(top), 1 << shift * bits, []
    for k in range(1, length + 1):
        rows.append(c * x)
        c, x = c // (d * k), x * g >> (bits if shift else 0)
    return tuple(rows)


def _block(keys: list, trunc: int, families: int) -> dict:
    """The coefficients p_mu of one weight-n block, sum_nu chi_nu(mu) / z_mu
    framing_nu W_nu, each over the block's window [-n, trunc), pruned: every W
    of the block starts at lambda'^(-n) (an ``InternalError`` if not) and is
    exact through trunc.  The W numerators go over their lcm and the framing
    rows over d^top top!, so the sum is one integer per lambda'-power whose
    digits of width ``bits`` are its tau-coefficients.
    """
    n = sum(map(size, keys[0]))
    t = trunc + n
    w_lambda, d, shift = (w_one_lambda, 4, 0) if families == 1 else (w_pair_lambda, 2, t - 1)
    ws = [w_lambda(*nu, t) for nu in keys]
    if any(min(w.num, default=None) != -n for w in ws):
        raise InternalError(f"a W of the weight-{n} block does not span [{-n}, {trunc})")
    big = lcm(*(w.den for w in ws))
    nums = [[w.num.get(e, 0) * (big // w.den) for e in range(-n, trunc)] for w in ws]
    kaps = [tuple(map(kappa, nu)) for nu in keys]
    chars = [[prod(map(character, nu, mu)) for nu in keys] for mu in keys]
    # a framing digit is at most d^top top! e^{|g|_1 / d} <= d^top top! 3^ceil(|g|_1 / d),
    # |g|_1 = 3 |kappa| or |kappa+| + |kappa-|
    norm = 3 if families == 1 else 1
    sizes = [3 ** -(-norm * sum(map(abs, k)) // d) * sum(map(abs, a))
             for k, a in zip(kaps, nums)]
    scale = d ** (t - 1) * factorial(t - 1)
    bits = 1 + (scale * max(sum(abs(c) * z for c, z in zip(row, sizes))
                            for row in chars)).bit_length()
    # framing x W: column e holds each nu's sum_j W_j framing_{e-j}, at lambda'^(e-n)
    cols = list(zip(*[[sum(map(mul, a, f[e::-1])) for e in range(t)]
                      for f, a in zip((_framing_rows(k, t, bits) for k in kaps), nums)]))
    half, mask = 1 << bits - 1, (1 << bits) - 1
    off = half * (((1 << bits * (t + shift)) - 1) // mask)  # half in every digit
    out = {}
    for mu, row in zip(keys, chars):
        den = prod(map(zmu, mu)) * scale * big
        co = []
        for e, col in enumerate(cols):
            v = sum(map(mul, row, col))
            p0 = -e if shift else 0  # row e holds tau^p for |p| <= e only
            u = v + off >> (p0 + shift) * bits
            co.append(TL_ZERO._new({p: c for p in range(p0, e + 1)
                                    if (c := (u >> (p - p0) * bits & mask) - half)}, den)
                      if v else TL_ZERO)
        out[mu] = LambdaSeries(-n, co).pruned()
    return out


@typed_cache("int", "int", "int")
def build_series(degree_cap: int, trunc: int, families: int) -> FramedSeries:
    """Assemble the disconnected series through the given caps, once per process."""
    if families not in (1, 2):
        raise UsageError("families must be 1 or 2")
    caps = (degree_cap,) * families
    co = {empty_key(families): LambdaSeries.one(trunc)}
    for weights in product(range(degree_cap + 1), repeat=families):
        if any(weights):
            co.update(_block(list(product(*map(enumerate_partitions, weights))), trunc, families))
    return FramedSeries(families, caps, trunc, PSeries(families, caps, co))


# ---------------------------------------------------------------------------
# cut-and-join evolution
# ---------------------------------------------------------------------------

def pde_residual(fs: FramedSeries) -> PSeries:
    """Residual of the tau-evolution of the disconnected series G; identically
    zero when everything is right.  The evolution is linear in G, with
    (CJ) = i lambda * [cut + join] acting on one family's variables:

        one family:    dG/dtau - (CJ) G
        two families:  dG/dtau - (1/2)(CJ)+ G + (1/(2 tau^2))(CJ)- G

    The connected R = log G obeys the same identity in nonlinear form,
    dR/dtau = (CJ) R + i lambda quad(R, R) with quad(R, R) = (1/2) sum_{i,j}
    i j p_{i+j} dR/dp_i dR/dp_j, as (CJ) e^R = e^R ((CJ) R + i lambda
    quad(R, R)) (Goulden-Jackson).  G is known on [-|mu|, trunc) for every
    key, which fixes R's residual on R's whole window [l(mu) - 2, trunc -
    l(mu) + 1), so the linear form compares at least as much and needs no
    log.  ``cut_join_terms``
    carries the global 1/2 over ordered index pairs, so the displayed (1/2)
    i lambda (over a bracket without the half) becomes i lambda; on the
    stored series it is lambda' (see the module docstring).
    """
    # one sum over every key's terms: its tau-derivative, then the linear
    # operator's terms on it times lambda' (plus) and times lambda' / tau^2 (minus)
    g = fs.disconnected
    terms = [(key, 1, s.tau_deriv(), None) for key, s in g.co.items()]
    for key, s in g.co.items():
        plus = s.shift(1)
        terms.extend(((nu,) + key[1:], -c, plus, None) for nu, c in cut_join_terms(key[0]))
        if fs.families == 2:
            minus = LambdaSeries(plus.floor, [c.shift(-2) for c in s.co])
            terms.extend(((key[0], nu), c, minus, None) for nu, c in cut_join_terms(key[1]))
    return g._sum(terms)


def window_reaches(cap: int, trunc: int, genus: int) -> bool:
    """True when every connected coefficient window of the (cap, trunc) build
    reaches its genus-``genus`` term lambda^{2 genus - 2 + l(mu)}: R_mu is
    known on [l(mu) - 2, trunc - l(mu) + 1), and mu = 1^cap reaches last."""
    return trunc >= 2 * cap + 2 * genus - 2


# ---------------------------------------------------------------------------
# initial value at tau = 0
# ---------------------------------------------------------------------------

def _agree_below(x: Laurent, y: Laurent, hi: int) -> bool:
    """x and y agree below lambda'^hi (both are zero below their floors)."""
    return all(e >= hi for e in (x - y).num)


def ov_term(d: int) -> QFunction:
    """1/(d [d]), [d] = u^d - u^{-d}: 1/(2 d sin(d lambda / 2)) is i times it,
    since 2 sin(d lambda/2) = -i [d]."""
    return bracket_quotient((), (d,)).scale(Frac(1, d))


def initial_value_report(fs: FramedSeries, through: int | None = None) -> dict:
    """Check the tau = 0 slice of the connected series.

    Multi-part coefficients must vanish identically; the p_d coefficient
    must equal i^{d-1}/(2 d sin(d lambda/2)), with the phase i^{d-1} pinned
    exactly (see the module docstring).  When ``through`` is given, every
    coefficient window must reach that (exclusive) order; a window that
    falls short fails the check instead of silently narrowing it.
    """
    if fs.families != 1:
        raise UsageError("initial value check applies to the one-family series")
    multi_ok = single_ok = window_ok = True
    phases: dict[int, str] = {}
    for key, s in fs.connected.co.items():
        mu = key[0]
        if through is not None and s.trunc < through:
            window_ok = False
        hi = s.trunc if through is None else min(s.trunc, through)
        if length(mu) >= 2:
            multi_ok &= _agree_below(at(s, 0), Laurent(), hi)
        else:
            d = mu[0]
            # i^{d-1} / (2 d sin(d lambda/2)) = i^d ov_term(d), stored as ov_term(d) in lambda'
            single_ok &= _agree_below(at(s, 0), ov_term(d).to_lambda(s.trunc), hi)
            phases[d] = f"i^{(d - 1) % 4}"
    return {
        "multi_part_vanish": multi_ok,
        "single_part_match": single_ok,
        "window_reaches_order": window_ok,
        "phase_by_degree": phases,
        "ok": multi_ok and single_ok and window_ok,
    }


# ---------------------------------------------------------------------------
# Hodge-integral extraction
# ---------------------------------------------------------------------------

@typed_cache("partition")
def framing_prefactor(mu: Partition) -> TauLaurent:
    """A(tau) = -1 / |Aut mu| [tau(tau+1)]^{l-1} prod prod (mu_i tau + a)/(mu_i - 1)!.

    The prefactor of the p_mu lambda^{2g-2+l} coefficient is i^{|mu|+l} A(tau),
    whose phase the lambda' convention absorbs (``hodge_extract``).  Its
    tau-degree is |mu| + l(mu) - 2 and its lowest term has degree l - 1.
    """
    l = length(mu)
    if l == 0:
        raise UsageError("prefactor needs a nonempty partition")
    poly = TauLaurent.const(1)
    tt1 = TauLaurent({1: 1, 2: 1})
    for _ in range(l - 1):
        poly = poly * tt1
    denom = 1
    for p in mu:
        for a in range(1, p):
            poly = poly * TauLaurent({0: a, 1: p})
        denom *= factorial(p - 1)
    poly = poly.scale(Frac(-1, aut(mu) * denom))
    if poly.max_exp() - 0 != size(mu) + l - 2 or poly.min_exp() != l - 1:
        raise InternalError("framing prefactor degree bookkeeping is off")
    return poly


def hodge_extract(fs: FramedSeries, g: int, mu: Partition) -> tuple[Frac, ...]:
    """Triple Hodge integral as a tau-polynomial (coefficient tuple).

    Reads the p_mu lambda^{2g-2+l(mu)} coefficient of the connected series,
    i^{|mu|+l} (-1)^{g-1} times its stored lambda'^{2g-2+l} coefficient, and
    divides out the framing prefactor i^{|mu|+l} A(tau); the quotient must be
    a polynomial of degree at most 2g.  Not memoised: the series and the
    prefactor are.
    """
    g, mu = as_index(g, "genus"), check_partition(mu)
    if g < 0:
        raise UsageError("genus must be nonnegative")
    if size(mu) > fs.caps[0]:
        raise UsageError("partition exceeds the built degree cap")
    e = 2 * g - 2 + length(mu)
    s = fs.connected.coeff((mu,))
    if s.co and e >= s.trunc:
        raise UsageError(f"lambda^{e} lies beyond the series window (order {s.trunc})")
    c = s.coeff(e).scale(1 if g % 2 else -1)
    a = framing_prefactor(mu)
    quotient = c.divexact(a)
    if quotient and quotient.min_exp() < 0:
        raise InternalError("prefactor division left tau poles")
    deg = quotient.max_exp() if quotient else 0
    if deg > 2 * g:
        raise InternalError(f"tau-degree {deg} exceeds 2g for (g={g}, mu={mu})")
    out = tuple(Frac(quotient.num.get(j, 0), quotient.den) for j in range(deg + 1))
    # multiply-back divisibility oracle
    if TauLaurent({j: v for j, v in enumerate(out)}) * a != c:
        raise InternalError("prefactor division is not exact")
    return out


@lru_cache(maxsize=None)
def b_constant(g: int) -> Frac:
    """(2^{2g-1} - 1)/2^{2g-1} |B_{2g}|/(2g)! for g > 0; 1 at g = 0."""
    if g == 0:
        return Frac(1)
    p = 2 ** (2 * g - 1)
    return Frac(p - 1, p) * abs(bernoulli(2 * g)) / factorial(2 * g)


def lambda_g_check(fs: FramedSeries, g: int, mu: Partition) -> bool:
    """tau = 0 value of the extracted polynomial against b_g |mu|^{2g+n-3}.

    The two sides must agree exactly, sign included, for every (g, mu).
    """
    g, mu = as_index(g, "genus"), check_partition(mu)
    if g < 1:
        raise UsageError("the identity concerns g >= 1")
    poly = hodge_extract(fs, g, mu)
    target = b_constant(g) * Frac(size(mu)) ** (2 * g + length(mu) - 3)
    return poly[0] == target


# ---------------------------------------------------------------------------
# degeneration onto the Hurwitz series
# ---------------------------------------------------------------------------

ELSV_G_MAX = 2  # the genus through which elsv_limit_check compares


def elsv_limit_check(fs: FramedSeries) -> bool:
    """Substitute lambda -> lambda tau, tau -> 1/tau, p_d -> (lambda tau)^d p_d,
    send tau -> 0, and compare with the Burnside series at i lambda: on the
    stored series, in lambda', with the Burnside series itself.
    """
    if fs.families != 1:
        raise UsageError("the degeneration applies to the one-family series")
    ok = True
    for key, s in fs.connected.co.items():
        mu = key[0]
        if not mu:
            continue
        w = size(mu)
        limit: dict[int, Frac] = {}
        for e, c in enumerate(s.co, s.floor):
            if c and c.max_exp() > e + w:
                raise InternalError(
                    f"negative tau-power survives the degeneration at p_{mu} lambda^{e}")
            if v := c.num.get(e + w):
                limit[e + w] = Frac(v, c.den)
        need = 2 * ELSV_G_MAX - 2 + w + length(mu) + 1
        ok &= _agree_below(Laurent(limit), burnside_phi(mu, s.trunc + w), min(s.trunc + w, need))
    return ok


# ---------------------------------------------------------------------------
# convolution with double Hurwitz numbers
# ---------------------------------------------------------------------------

def convolution_check(fs: FramedSeries, max_weight: int | None = None) -> bool:
    """Read the kernel off tau = 0 and verify the convolution at tau = 1, 2, 3.

    Implemented as G_mu(lambda, tau) = sum_nu Phi2_{mu,nu}(i tau lambda) z_nu K_nu,
    on the stored series with argument tau lambda' (the twist i^{|mu|} cancels);
    the + sign of the scaled argument is the one that makes the kernel
    framing-independent given the e^{+kappa lambda/2} normalization of the
    double Hurwitz series.  At tau = 0, Phi2_{mu,nu}(0) z_nu = delta_{mu,nu}
    by character orthogonality, so K_nu = G_nu(lambda, 0).
    """
    if fs.families != 1:
        raise UsageError("convolution check applies to the one-family series")
    trunc = fs.trunc
    top = fs.caps[0] if max_weight is None else min(max_weight, fs.caps[0])
    for n in range(1, top + 1):
        parts = list(enumerate_partitions(n))
        phi = {(mu, nu): double_hurwitz(mu, nu, trunc) for mu in parts for nu in parts}
        kernel = [at(fs.disconnected.coeff((nu,)), 0) for nu in parts]
        for tv in (1, 2, 3):
            for mu in parts:
                # sum_nu z_nu Phi2_{mu,nu}(tv lambda') K_nu: both factors are known
                # below trunc, so each product is known below trunc + the lesser
                # valuation, a factor zero below trunc counting as valuation trunc
                total, hi = Laurent(), trunc
                for nu, k in zip(parts, kernel):
                    p = phi[(mu, nu)]
                    hi = min(hi, trunc + min(p.min_exp() if p else trunc,
                                             k.min_exp() if k else trunc))
                    if p and k:
                        p = p._new({e: v * tv ** e for e, v in p.num.items()}, p.den)
                        total += (p * k).scale(zmu(nu))
                if not _agree_below(total, at(fs.disconnected.coeff((mu,)), tv), hi):
                    return False
    return True


# ---------------------------------------------------------------------------
# two-family structure checks
# ---------------------------------------------------------------------------

def swap_symmetry_check(fs: FramedSeries) -> bool:
    """R(p+, p-; tau) = R(p-, p+; 1/tau) coefficientwise."""
    if fs.families != 2:
        raise UsageError("swap symmetry concerns the two-family series")
    g = fs.disconnected
    for (mup, mum), s in g.co.items():
        if s != g.coeff((mum, mup)).tau_inverse():
            return False
    return True


def slice_reduction_check(fs2: FramedSeries, fs1: FramedSeries) -> bool:
    """The p- = 0 slice matches the one-family series up to (-i)^{|mu|}, which
    the one-family twist i^{|mu|} cancels: the stored series are equal."""
    if fs2.families != 2 or fs1.families != 1:
        raise UsageError("need a two-family and a one-family series")
    for n in range(1, min(fs2.caps[0], fs1.caps[0]) + 1):
        for mu in enumerate_partitions(n):
            if fs2.disconnected.coeff((mu, ())) != fs1.disconnected.coeff((mu,)):
                return False
    return True
