"""Acceptance checks, shared by the CLI verify-all command and the test suite.

Each check returns (ok, detail) at the shipped caps; there is one profile,
"full".  A check takes one positional argument and reads none of it, so that
callers of ``CHECKS[name]("full")`` (the acceptance tests and the benchmark's
child) keep working.  Checks run one after another in registry order, in the
calling thread.

A check that returns (False, detail), or raises a VerificationFailure, an
InternalError or a ZeroDivisionError (detail ``errors.failure(exc)``), is its
failing entry in ``run_all``; the next check still runs.  Others propagate.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from fractions import Fraction

from . import hodge, hurwitz, intersections, mirror, vertex
from .chern_simons import _pair_quotient, check_pair_reduction
from .errors import KINDS, UsageError, failure
from .partitions import enumerate_partitions, length, size

Detail = dict
CheckFn = Callable[[str], tuple[bool, Detail]]


def check_hurwitz_oracles(_profile: str) -> tuple[bool, Detail]:
    compared = 0
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            for g in range(3):
                a = hurwitz.hurwitz_number(g, mu, "burnside")
                b = hurwitz.hurwitz_number(g, mu, "cutjoin")
                if a != b:
                    return False, {"mu": mu, "g": g, "burnside": str(a), "cutjoin": str(b)}
                if a < 0:
                    return False, {"mu": mu, "g": g, "negative": str(a)}
                compared += 1
    return True, {"compared": compared, "seed": str(hurwitz.hurwitz_number(0, (1,)))}


def check_genus0_closed_form(_profile: str) -> tuple[bool, Detail]:
    checked = 0
    for n in range(3, 8):
        for mu in enumerate_partitions(n):
            if length(mu) not in (3, 4):
                continue
            _, bare = hurwitz.elsv_I(0, mu)
            if bare != Fraction(size(mu)) ** (length(mu) - 3):
                return False, {"mu": mu, "bare": str(bare)}
            checked += 1
    return True, {"profiles": checked}


def check_mv_pde(_profile: str) -> tuple[bool, Detail]:
    cap, trunc, gmax = 4, 15, 2
    fs = hodge.build_series(cap, trunc, 1)
    ok = hodge.pde_residual(fs).is_zero_through_windows()
    cover = hodge.window_reaches(cap, trunc, gmax)
    return ok and cover, {"degree_cap": cap, "order": trunc, "window_covers_g": gmax}


def check_initial_value(_profile: str) -> tuple[bool, Detail]:
    # "through order 10" needs every window to pass order 10 inclusive,
    # hence the exclusive bound 11 and the taller build
    fs = hodge.build_series(4, 15, 1)
    rep = hodge.initial_value_report(fs, through=11)
    return rep["ok"], rep


def check_elsv_limit(_profile: str) -> tuple[bool, Detail]:
    fs = hodge.build_series(4, 15, 1)
    return hodge.elsv_limit_check(fs), {"degree_cap": 4, "g_max": hodge.ELSV_G_MAX}


def check_lambda_g(_profile: str) -> tuple[bool, Detail]:
    cap = 4
    fs = hodge.build_series(cap, 15, 1)
    cases = [(g, mu) for g in (1, 2)
             for n in range(1, cap + 1) for mu in enumerate_partitions(n)]
    for g, mu in cases:
        if not hodge.lambda_g_check(fs, g, mu):
            return False, {"g": g, "mu": mu}
    return True, {"cases": len(cases),
                  "b1": str(hodge.b_constant(1)), "b2": str(hodge.b_constant(2))}


def check_two_partition(_profile: str) -> tuple[bool, Detail]:
    cap, trunc = 3, 9
    fs2 = hodge.build_series(cap, trunc, 2)
    res = hodge.pde_residual(fs2)
    if not res.is_zero_through_windows():
        return False, {"failed": "pde"}
    if not hodge.swap_symmetry_check(fs2):
        return False, {"failed": "swap"}
    # the build reads W(nu, mu) from W(mu, nu), so the swap holds for any W;
    # the unreduced W numerators must be symmetric on their own
    small = [mu for n in range(cap + 1) for mu in enumerate_partitions(n)]
    if any(_pair_quotient(a, b) != _pair_quotient(b, a) for a in small for b in small):
        return False, {"failed": "w-swap"}
    fs1 = hodge.build_series(cap, trunc, 1)
    if not hodge.slice_reduction_check(fs2, fs1):
        return False, {"failed": "slice-bridge"}
    return True, {"bidegree": (cap, cap), "order": trunc}


def check_convolution(_profile: str) -> tuple[bool, Detail]:
    top = 3
    fs = hodge.build_series(4, 15, 1)  # reuses the PDE-check build
    ok = hodge.convolution_check(fs, max_weight=top)
    return ok, {"profiles_through": top, "kernel_at": 0, "verified_at": [1, 2, 3]}


def check_witten(_profile: str) -> tuple[bool, Detail]:
    order = 4
    compared = 0
    for n in range(-1, 4):
        r, checked = intersections.virasoro_residual(n, order)
        if r:
            return False, {"virasoro_n": n, "residual": str(r)}
        compared += checked
    cross = 0
    for g in range(0, 3):
        for n in range(1, 7):
            if not (0 < 2 * g - 2 + n <= 4):
                continue
            for rho in enumerate_partitions(3 * g - 3 + n):
                if len(rho) > n:
                    continue
                ks = rho + (0,) * (n - len(rho))
                if intersections.dvv(g, ks) != hurwitz.psi_from_asymptotics(g, ks):
                    return False, {"g": g, "ks": ks}
                cross += 1
    seeds_ok = (intersections.dvv(0, (0, 0, 0)) == 1
                and intersections.dvv(1, (1,)) == Fraction(1, 24))
    compared += cross
    return seeds_ok and compared > 0, {
        "virasoro_orders": order, "cross_checked": cross, "compared": compared}


def check_vertex(_profile: str) -> tuple[bool, Detail]:
    d_max, g_max = 3, 2
    if not all(check_pair_reduction(nu) for nu in ((1,), (2,), (1, 1))):
        return False, {"failed": "pair-reduction"}
    n_table = vertex.extract_gw(d_max, g_max)
    gv = vertex.gv_invert(n_table, d_max, g_max)
    fwd = vertex.gv_forward(gv, d_max, g_max)
    if any(fwd[key] != n_table[key] for key in n_table):
        return False, {"failed": "gv-round-trip"}
    if not vertex.rebuild_partition_function(d_max):
        return False, {"failed": "exp-log"}
    if not synthetic_round_trip(d_max, g_max):
        return False, {"failed": "synthetic-round-trip"}
    return True, {"n": {f"{g},{d}": v for (g, d), v in sorted(gv.items())},
                  "integral": True}


def synthetic_round_trip(d_max: int, g_max: int) -> bool:
    """The multiple-cover sum and its inversion give back a synthetic GV table
    over genus 0..g_max and degree 1..d_max."""
    synth = {(g, d): (-1) ** d * (g + d) for g in range(g_max + 1) for d in range(1, d_max + 1)}
    return vertex.gv_invert(vertex.gv_forward(synth, d_max, g_max), d_max, g_max) == synth


# the quintic's genus-0 instanton numbers n_1..n_5 (Candelas-de la Ossa-Green-Parkes)
QUINTIC_N = (2875, 609250, 317206375, 242467530000, 229305888887625)


def check_candelas(_profile: str) -> tuple[bool, Detail]:
    d_max = 5
    data = mirror.candelas(d_max)
    if data["cubic"] != Fraction(5, 6):
        return False, {"cubic": str(data["cubic"])}
    if not mirror.mirror_map_round_trip(3):
        return False, {"failed": "mirror-map-round-trip"}
    synth = {(0, d): n for d, n in enumerate([3, -14, 0, 27], 1)}
    if vertex.gv_invert(vertex.gv_forward(synth, 4, 0), 4, 0) != synth:
        return False, {"failed": "multiple-cover-round-trip"}
    gv = vertex.gv_invert({(0, d): k for d, k in enumerate(data["K"], 1)}, d_max, 0)
    n_list = [gv[(0, d)] for d in range(1, d_max + 1)]
    if n_list != list(QUINTIC_N[:d_max]):
        return False, {"failed": "instanton-numbers", "n": n_list}
    return True, {"cubic": "5/6", "degrees": d_max}


def check_hori_vafa(_profile: str) -> tuple[bool, Detail]:
    cases = [(1, 2, 2), (2, 3, 2), (2, 4, 2)]
    for (k, n, dm) in cases:
        hv = mirror.hori_vafa_series(k, n, dm)
        if not hv["equal"]:
            return False, {"k": k, "n": n}
    if not mirror.gr23_matches_p2(2):
        return False, {"failed": "gr23-p2"}
    return True, {"cases": [f"Gr({k},{n}) d<={dm}" for (k, n, dm) in cases]}


CHECKS: dict[str, CheckFn] = {
    "hurwitz-oracle-equivalence": check_hurwitz_oracles,
    "genus0-closed-form": check_genus0_closed_form,
    "mv-pde-one-family": check_mv_pde,
    "ov-initial-value": check_initial_value,
    "mv-elsv-limit": check_elsv_limit,
    "lambda-g-identity": check_lambda_g,
    "two-partition-structure": check_two_partition,
    "convolution-tau-independence": check_convolution,
    "witten-virasoro-dvv": check_witten,
    "local-p2-gv-integrality": check_vertex,
    "candelas-structure": check_candelas,
    "hori-vafa-equality": check_hori_vafa,
}

# the wall-clock budget (seconds) of each check, over 100 times the slowest
# one's cold run (about 0.04 s on a 2-vCPU shared VM)
TIME_BOUND = 5


def run_all() -> dict:
    results = []
    for name, check in CHECKS.items():
        t0 = time.monotonic()
        try:
            ok, detail = check("full")
        except UsageError:
            raise
        except tuple(KINDS) as exc:
            ok, detail = False, failure(exc)
        results.append({"name": name, "pass": bool(ok),
                        "seconds": round(time.monotonic() - t0, 3), "detail": detail})
    return {"checks": results, "all_pass": all(r["pass"] for r in results)}
