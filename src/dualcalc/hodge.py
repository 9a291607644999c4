"""Framed triple-Hodge generating series (one and two partition families).

The disconnected series is assembled directly from character sums,
framing exponentials and the W building blocks, in one loop over the
family weights (n) or (n+, n-):

    one family:  sum_nu chi_nu(mu)/z_mu e^{i (tau+1/2) kappa_nu lambda/2} W_nu
    two family:  sum   chi chi / (z z) e^{i (kappa+ tau + kappa- / tau) lambda/2}
                 W_{nu+, nu-}

The connected series is its logarithm, taken on first read.  A built series
is a read-only named tuple, cached per (degree cap, order, families), so
every check and query of a process shares one build.  The module verifies
the cut-and-join evolution in tau, the initial value at tau = 0, the
degeneration onto the Hurwitz series, the convolution with double Hurwitz
numbers (its kernel is the tau = 0 slice, so no series is ever inverted),
and extracts triple Hodge integrals through the framing prefactor, each
once per (series, genus, partition) (``hodge_extract_cached``).

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
from math import factorial, prod

from .chern_simons import w_one_lambda, w_pair_lambda
from .errors import InternalError, UsageError, as_index
from .hurwitz import burnside_phi, double_hurwitz
from .partitions import (Partition, aut, character, check_partition,
                         enumerate_partitions, kappa, length, size, typed_cache, zmu)
from .pseries import PSeries, empty_key
from .qfunc import QFunction, bracket_quotient
from .series import LambdaSeries, TauLaurent, combine, exp_monomial

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
def _one_family_term(nu: Partition, trunc: int) -> LambdaSeries:
    t = trunc + size(nu)
    # e^{(tau + 1/2) kappa lambda' / 2} times w_one(nu), W_nu = i^{|nu|} w_one(nu)
    framing = exp_monomial(TauLaurent({0: Frac(kappa(nu), 4), 1: Frac(kappa(nu), 2)}), 1, t)
    return framing * w_one_lambda(nu, t)


@lru_cache(maxsize=None)
def _two_family_term(nup: Partition, num: Partition, trunc: int) -> LambdaSeries:
    t = trunc + size(nup) + size(num)
    # e^{(kappa+ tau + kappa- / tau) lambda' / 2}
    framing = exp_monomial(TauLaurent({1: Frac(kappa(nup), 2), -1: Frac(kappa(num), 2)}), 1, t)
    return framing * w_pair_lambda(nup, num, t)


@lru_cache(maxsize=None, typed=True)
def build_series(degree_cap: int, trunc: int, families: int) -> FramedSeries:
    """Assemble the disconnected series through the given caps, once per
    process: ``lru_cache`` keys a keyword and a positional ``families``
    apart, so the package passes it positionally.  The cache is typed, so
    2.0 is not served the build of 2 but refused like 2.5."""
    degree_cap, trunc, families = (as_index(v, name) for v, name in (
        (degree_cap, "degree cap"), (trunc, "order"), (families, "families")))
    if families not in (1, 2):
        raise UsageError("families must be 1 or 2")
    family_term = _one_family_term if families == 1 else _two_family_term
    caps = (degree_cap,) * families
    co = {empty_key(families): LambdaSeries.one(trunc)}
    for weights in product(range(degree_cap + 1), repeat=families):
        if not any(weights):
            continue
        keys = list(product(*map(enumerate_partitions, weights)))
        terms = {nu: family_term(*nu, trunc) for nu in keys}
        for mu in keys:
            z = prod(map(zmu, mu))
            co[mu] = combine([(Frac(prod(map(character, nu, mu)), z), terms[nu], None)
                              for nu in keys])
    return FramedSeries(families, caps, trunc, PSeries(families, caps, co))


# ---------------------------------------------------------------------------
# cut-and-join evolution
# ---------------------------------------------------------------------------

def _times_lambda(ps: PSeries) -> PSeries:
    return ps.map_coeffs(lambda key, s: s.shift(1))


def pde_residual(fs: FramedSeries) -> PSeries:
    """Residual of the tau-evolution; identically zero when everything is right.

    One family (connected R):   dR/dtau - i lambda CJ_nl(R)
    Two families (disconnected G, with (CJ)+- = i lambda * [cut+join]):
        dG/dtau - (1/2)(CJ)+ G + (1/(2 tau^2))(CJ)- G

    The operators here carry the global 1/2 over ordered index pairs, so the
    displayed prefactor (1/2) i lambda (over a bracket without the half)
    becomes i lambda against cut_join_nonlinear; on the stored series it is
    lambda' (see the module docstring).
    """
    if fs.families == 1:
        r = fs.connected
        return r._fold([(1, r.tau_deriv(), None),
                        (-1, _times_lambda(r.cut_join_nonlinear(0)), None)])
    g = fs.disconnected
    plus = _times_lambda(g.cut_join_linear(0))
    minus = _times_lambda(g.cut_join_linear(1))
    minus = minus.map_coeffs(lambda key, s: s.map_coeffs(lambda e, t: t.shift(-2)))
    return g._fold([(1, g.tau_deriv(), None), (-1, plus, None), (1, minus, None)])


def residual_window_ok(res: PSeries, need) -> bool:
    """True when every stored coefficient window reaches need(key)."""
    for key, s in res.co.items():
        if s.co and s.trunc < need(key):
            return False
    return True


# ---------------------------------------------------------------------------
# initial value at tau = 0
# ---------------------------------------------------------------------------

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
    r0 = fs.connected.tau_eval(0)
    multi_ok = True
    single_ok = True
    window_ok = True
    phases: dict[int, str] = {}
    for key, s in r0.co.items():
        mu = key[0]
        if through is not None and s.trunc < through:
            window_ok = False
        hi = s.trunc if through is None else min(s.trunc, through)
        if length(mu) >= 2:
            if not all(not s.coeff(e) for e in range(s.floor, hi)):
                multi_ok = False
        else:
            d = mu[0]
            # i^{d-1} / (2 d sin(d lambda/2)) = i^d ov_term(d), stored as ov_term(d) in lambda'
            expect = ov_term(d).to_lambda(s.trunc)
            lo, _ = s.window_with(expect)
            if not s.eq_through(expect, lo, hi):
                single_ok = False
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

@lru_cache(maxsize=None)
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


def hodge_extract(fs: FramedSeries, g: int, mu: Partition) -> list[Frac]:
    """Triple Hodge integral as a tau-polynomial (coefficient list).

    Reads the p_mu lambda^{2g-2+l(mu)} coefficient of the connected series,
    i^{|mu|+l} (-1)^{g-1} times its stored lambda'^{2g-2+l} coefficient, and
    divides out the framing prefactor i^{|mu|+l} A(tau); the quotient must be
    a polynomial of degree at most 2g.
    """
    mu = check_partition(mu)
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
    out = [Frac(quotient.num.get(j, 0), quotient.den) for j in range(deg + 1)]
    # multiply-back divisibility oracle
    if TauLaurent({j: v for j, v in enumerate(out)}) * a != c:
        raise InternalError("prefactor division is not exact")
    return out


@typed_cache(None, "int", "partition")
def hodge_extract_cached(fs: FramedSeries, g: int, mu: Partition) -> tuple[Frac, ...]:
    """``hodge_extract`` once per (series, genus, partition), as a tuple.

    Keyed by the series itself: a ``FramedSeries`` hashes and compares its
    ``PSeries`` by identity, so a series built apart is extracted apart.  A
    raising extraction is not kept.
    """
    return tuple(hodge_extract(fs, g, mu))


@lru_cache(maxsize=None)
def b_constant(g: int) -> Frac:
    """(2^{2g-1} - 1)/2^{2g-1} |B_{2g}|/(2g)! for g > 0; 1 at g = 0."""
    from .scalars import bernoulli

    if g == 0:
        return Frac(1)
    p = 2 ** (2 * g - 1)
    return Frac(p - 1, p) * abs(bernoulli(2 * g)) / factorial(2 * g)


def lambda_g_check(fs: FramedSeries, g: int, mu: Partition) -> bool:
    """tau = 0 value of the extracted polynomial against b_g |mu|^{2g+n-3}.

    The two sides must agree exactly, sign included, for every (g, mu).  The
    extraction is read from its cache; the comparison runs on every call.
    """
    g, mu = as_index(g, "genus"), check_partition(mu)
    if g < 1:
        raise UsageError("the identity concerns g >= 1")
    poly = hodge_extract_cached(fs, g, mu)
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
        for e in range(s.floor, s.trunc):
            c = s.coeff(e)
            if c and c.max_exp() > e + w:
                raise InternalError(
                    f"negative tau-power survives the degeneration at p_{mu} lambda^{e}")
            if v := c.num.get(e + w):
                limit[e + w] = Frac(v, c.den)
        got = LambdaSeries.from_map(limit, s.trunc + w)
        expect = burnside_phi(mu, s.trunc + w)
        need = 2 * ELSV_G_MAX - 2 + w + length(mu) + 1
        lo = min(got.floor, expect.floor)
        hi = min(min(got.trunc, expect.trunc), max(need, lo))
        if not got.eq_through(expect, lo, hi):
            ok = False
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
        kernel = [fs.disconnected.coeff((nu,)).tau_eval(0) for nu in parts]
        for tv in (1, 2, 3):
            for mu in parts:
                terms = [(zmu(nu), phi[(mu, nu)].subst_scale(tv), k)
                         for nu, k in zip(parts, kernel)]
                g = fs.disconnected.coeff((mu,)).tau_eval(tv)
                if not combine(terms + [(-1, g, None)]).is_zero_through():
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
