"""Command-line front end.

Every subcommand prints exactly one JSON document on stdout:

    {"query": ..., "params": ..., "result": ..., "checks": [{name, pass}]}

A -h/--help request prints {"help": <usage text>, "kind": "help"} and exits
0.  Exit codes: 0 success, 1 usage error, 2 verification failure, 3 internal
inconsistency (``errors.EXIT_CODES``).  A raised failure prints one
{"error", "kind"} document, except that a ``verify-all`` check that raises
is its own failing entry, with that error and kind: exit 3 if one raised an
internal error, else 2 if any check failed.  When the reader closes stdout early (``dualcalc verify-all |
head -c 100``), the exit code is still that of the document being written,
and nothing goes to stderr.  Rationals are serialized as decimal strings
"p/q", and a lambda-series coefficient, a power of i times a rational, as
"p/q" or "p/q*i": the series are held in lambda' = i lambda with rational
coefficients, and ``series_json`` puts the powers of i back, as ``w --expand``
does for the one ``Laurent`` of a W expansion.  A W value i^ph f, f a real
``QFunction``, is printed by ``qfun_json`` as a power of -sqrt(-1), 0 or 1,
times num/den.  Every coefficient is printed by ``coeffs_json``.  Partitions are
comma-separated descending integers; keys are sorted, so output is
byte-deterministic for fixed inputs apart from the ``seconds`` timings of
``verify-all``.

A process builds its parser once (``build_parser``).  A plain argv (the
command words, the leaf's positionals, then exact option strings, each
given once, with values that do not start with "-") is read from the
parser's own actions, so no option is declared twice; every other argv
goes through argparse, which alone writes usage and help text.  No flag
selects between the two.  ``respond`` keeps the text of each passing
document that depends on its argv alone, so a repeated query prints it
again and calls no parser, handler or check; help, errors, failed checks,
``verify-all`` (it prints timings) and ``mirror toric`` (it reads --spec)
are computed on every call.  A first-seen query reads the memoised mirror
series, framed series and W expansions, each a ``partitions.typed_cache``,
which checks argument types before the lookup.  A rational held as an
integer numerator over a denominator is printed by ``ratio_str``, with no
``Fraction`` formed.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, prod

from . import hodge, hurwitz, intersections, mirror, vertex, verify
from .chern_simons import w_one, w_one_lambda, w_pair, w_pair_lambda
from .errors import EXIT_CODES, KINDS, UsageError, failure
from .partitions import enumerate_partitions, format_partition, parse_partition
from .qfunc import QFunction
from .series import LambdaSeries


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def ratio_str(v: int, den: int) -> str:
    """str(Fraction(v, den)) for den > 0, with one gcd and no Fraction: how a
    coefficient of a ``laurent.Poly``, an integer numerator over its
    denominator, is printed."""
    g = gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def coeffs_json(num: dict, den: int, ph: int = 0) -> dict[str, str]:
    """i^ph num[k] / den for each key k, sorted: "p/q", or "p/q*i" at an odd ph."""
    sign = -1 if ph % 4 >= 2 else 1
    return {str(k): ratio_str(sign * v, den) + "*i" * (ph % 2) for k, v in sorted(num.items())}


def series_json(s: LambdaSeries, ph: int) -> dict:
    """i^ph s(i lambda) for a series s in lambda': the lambda^e coefficient
    is i^(ph+e) s_e."""
    return {
        "floor": s.floor,
        "trunc": s.trunc,
        "coeffs": {str(s.floor + i): coeffs_json(c.num, c.den, ph + s.floor + i)
                   for i, c in enumerate(s.co) if c},
    }


def qfun_json(f: QFunction, ph: int) -> dict:
    # u = q^{1/2}; i^ph f as (-sqrt(-1))**ipow * num/den, (-i)^2 = -1 going to num
    num, den = f.num, f.den
    return {
        "ipow": -ph % 2,
        "num": coeffs_json(num.num, num.den, -ph % 4 & 2),
        "den": coeffs_json(den.num, den.den),
        "variable": "u = q^(1/2)",
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# input limits, checked before any W value, Hurwitz number, framed series,
# vertex sum or mirror series is formed
# hurwitz, about 2 s cold at its worst (twelve parts of size 1 at genus 6)
HURWITZ_MAX_GENUS = 6
HURWITZ_MAX_BOXES = 12
# mv, about 3 s cold at its worst (two-partition at degree 5 and order 19): the
# built degree cap and order.  mv hodge builds through max(--degree, |mu|) and
# max(--order, 2g+l+|mu|+3), so its partition and genus are bounded by them.
MV_MAX_DEGREE = 8
MV_MAX_TWO_PARTITION_DEGREE = 5
MV_MAX_ORDER = 19
W_MAX_EXPAND = 64
W_MAX_BOXES = 12
VERTEX_MAX_DEGREE = 9  # degree 9: about 0.23 s cold; 10 (about 0.39 s) needs a mirror-side check
VERTEX_MAX_GENUS = 24
MIRROR_MAX_DEGREE = 50
MIRROR_MAX_TORIC_SIZE = 256  # mirror toric: multidegree slices times ring dimension prod n_i
MIRROR_MAX_TORIC_PAIRING = 2500  # summed largest |pairing| per class times max(dimension, 2)
# mirror grassmannian: k, n, the degree, and k(n-k)(max_degree+1)
GR_MAX_K = 4
GR_MAX_N = 8
GR_MAX_DEGREE = 4
GR_MAX_SIZE = 32
# witten, each about 0.9 s cold at its worst: the moduli dimension 3g-3+n and
# index sum of --correlator, the largest Hurwitz degree 3g-2+2n that --psi
# interpolates over, and the --virasoro index and --order
WITTEN_MAX_DIMENSION = 40
WITTEN_MAX_PSI_DEGREE = 15
WITTEN_MAX_VIRASORO = 6
WITTEN_MAX_ORDER = 7


class _Help(Exception):
    """Raised by ``_Parser.print_help``, which argparse's -h/--help action
    calls, so that the usage text goes into the JSON document."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a fixed width, not the terminal's, keeps the help document byte-deterministic
        super().__init__(*args, **kwargs,
                         formatter_class=lambda prog: argparse.HelpFormatter(prog, width=79))

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())

    @cached_property
    def _grammar(self):
        # kept on the parser, so that a rebuilt parser reads its own actions
        return _plain_grammar(self, {}, frozenset())

    def parse_plain(self, argv) -> dict | None:
        """``vars(self.parse_args(argv))`` for a plain argv, else None.  A
        plain argv is the command words, then the leaf subcommand's
        positionals in order, then exact option strings, each given once:
        a store_true flag, or an option with one value that does not start
        with "-", read through the action's own type and choices.  Defaults
        come from the actions, and a missing required argument makes the
        argv not plain."""
        node, i = self._grammar, 0
        while isinstance(node, dict) and i < len(argv):
            node, i = node.get(argv[i]), i + 1
        if not isinstance(node, tuple):
            return None
        positionals, options, required, args = node
        rest, pairs = argv[i:], []
        for action in positionals:
            if not rest or rest[0].startswith("-"):
                break
            pairs.append((action, rest[0]))
            rest = rest[1:]
        while rest:
            action = options.get(rest[0])
            if action is None:
                return None
            if action.nargs == 0:  # a store_true flag
                pairs.append((action, None))
                rest = rest[1:]
            elif len(rest) > 1 and not rest[1].startswith("-"):
                pairs.append((action, rest[1]))
                rest = rest[2:]
            else:
                return None
        given = {action for action, _text in pairs}
        if len(given) < len(pairs) or not required <= given:
            return None
        args = dict(args)
        for action, text in pairs:
            if text is None:
                args[action.dest] = action.const
                continue
            try:
                value = (action.type or str)(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            args[action.dest] = value
        return args


def _plain_grammar(parser: _Parser, defaults: dict, required: frozenset):
    """The plain argv grammar below ``parser``, read from its actions: a dict
    from each command word to the tree below it, or at a leaf subcommand the
    tuple (positionals, options by exact string, required actions, defaults)
    that ``_Parser.parse_plain`` reads, or None when a positional of the leaf
    is not one plain value.  A string default goes through the action's type,
    as argparse reads it."""
    acts = [a for a in parser._actions if a.dest is not argparse.SUPPRESS]  # no -h
    defaults = {**defaults, **{
        a.dest: (a.type or str)(a.default) if isinstance(a.default, str) else a.default
        for a in acts if a.default is not argparse.SUPPRESS}}
    required = required | {a for a in acts if a.required}
    for a in acts:
        if isinstance(a, argparse._SubParsersAction):
            return {word: _plain_grammar(child, {**defaults, a.dest: word}, required - {a})
                    for word, child in a.choices.items()}
    positionals = [a for a in acts if not a.option_strings]
    if any(type(a) is not argparse._StoreAction or a.nargs not in (None, "?")
           for a in positionals):
        return None
    options = {s: a for a in acts for s in a.option_strings
               if (type(a), a.nargs) == (argparse._StoreAction, None)
               or isinstance(a, argparse._StoreConstAction)}
    return positionals, options, required, defaults


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    p = _Parser(prog="dualcalc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    hw = sub.add_parser("hurwitz", help="connected simple Hurwitz numbers")
    hw.add_argument("--genus", type=int, required=True, help=f"at most {HURWITZ_MAX_GENUS}")
    hw.add_argument("--partition", type=str, required=True,
                    help=f"at most {HURWITZ_MAX_BOXES} boxes")
    hw.add_argument("--method", choices=["burnside", "cutjoin", "both"],
                    default="both")
    hw.add_argument("--elsv", action="store_true",
                    help="include the ELSV-normalized values")

    w = sub.add_parser("w", help="quantum-dimension W values")
    w.add_argument("--mu", type=str, required=True, help=f"at most {W_MAX_BOXES} boxes")
    w.add_argument("--nu", type=str, default=None, help=f"at most {W_MAX_BOXES} boxes")
    w.add_argument("--expand", type=int, default=None, metavar="ORDER",
                   help=f"also print the lambda-expansion to this order (1 to {W_MAX_EXPAND})")

    mv = sub.add_parser("mv", help="framed triple-Hodge series checks")
    mv.add_argument("action", nargs="?", choices=["hodge"], default=None)
    mv.add_argument("--check",
                    choices=["pde", "initial", "elsv-limit", "convolution",
                             "lambda-g", "two-partition"],
                    default=None)
    mv.add_argument("--degree", type=int, default=3,
                    help=f"at most {MV_MAX_DEGREE}, or {MV_MAX_TWO_PARTITION_DEGREE} "
                         "for --check two-partition")
    mv.add_argument("--order", type=int, default=11, help=f"at most {MV_MAX_ORDER}")
    mv.add_argument("--genus", type=int, default=None,
                    help=f"mv hodge: 2g+l+|mu|+3 at most {MV_MAX_ORDER}")
    mv.add_argument("--partition", type=str, default=None,
                    help=f"mv hodge: at most {MV_MAX_DEGREE} boxes")
    mv.add_argument("--dump", choices=["connected", "disconnected"],
                    default=None, help="debug dump of the built series")

    vx = sub.add_parser("vertex", help="topological-vertex partition function")
    vx.add_argument("geometry", choices=["local-p2"])
    vx.add_argument("--max-degree", type=int, default=3, help=f"at most {VERTEX_MAX_DEGREE}")
    vx.add_argument("--max-genus", type=int, default=2, help=f"at most {VERTEX_MAX_GENUS}")
    vx.add_argument("--gv", action="store_true",
                    help="invert to integer multi-cover counts")

    wt = sub.add_parser("witten", help="psi-class intersection numbers")
    wt.add_argument("--correlator", type=str, default=None, metavar="g:k1,k2,...",
                    help=f"3g-3+n and k1+...+kn at most {WITTEN_MAX_DIMENSION}")
    wt.add_argument("--psi", type=str, default=None, metavar="g:k1,k2,...",
                    help="the same correlator via Hurwitz asymptotics, "
                         f"with 3g-2+2n at most {WITTEN_MAX_PSI_DEGREE}")
    wt.add_argument("--virasoro", type=int, default=None, metavar="N",
                    help=f"at most {WITTEN_MAX_VIRASORO}")
    wt.add_argument("--order", type=int, default=4, help=f"at most {WITTEN_MAX_ORDER}")

    mr = sub.add_parser("mirror", help="mirror hypergeometric series")
    mrsub = mr.add_subparsers(dest="geometry", required=True)
    q = mrsub.add_parser("quintic")
    q.add_argument("--max-degree", type=int, default=5, help=f"at most {MIRROR_MAX_DEGREE}")
    tor = mrsub.add_parser("toric")
    tor.add_argument("--spec", type=str, required=True,
                     help="JSON file with generators / line_bundles / divisors")
    tor.add_argument("--max-degree", type=int, default=3,
                     help=f"at most {MIRROR_MAX_DEGREE}; the multidegree slices times the "
                          f"ring dimension at most {MIRROR_MAX_TORIC_SIZE}, and the summed class "
                          f"pairings times max(dimension, 2) at most {MIRROR_MAX_TORIC_PAIRING}")
    gr = mrsub.add_parser("grassmannian")
    gr.add_argument("-k", type=int, required=True, help=f"at most {GR_MAX_K}")
    gr.add_argument("-n", type=int, required=True, help=f"k < n <= {GR_MAX_N}")
    gr.add_argument("--max-degree", type=int, default=2,
                    help=f"at most {GR_MAX_DEGREE}, with k(n-k)(max-degree+1) at most {GR_MAX_SIZE}")
    gr.add_argument("--verify", action="store_true")

    va = sub.add_parser("verify-all", help="run the acceptance checks")
    va.add_argument("--profile", choices=["full"], default="full")
    return p


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_hurwitz(args) -> dict:
    mu = parse_partition(args.partition)
    if args.genus > HURWITZ_MAX_GENUS or sum(mu) > HURWITZ_MAX_BOXES:
        raise UsageError(f"hurwitz is limited to --genus {HURWITZ_MAX_GENUS} "
                         f"and {HURWITZ_MAX_BOXES} boxes")
    out: dict = {}
    checks = []
    if args.method in ("burnside", "both"):
        out["H_burnside"] = str(hurwitz.hurwitz_number(args.genus, mu, "burnside"))
    if args.method in ("cutjoin", "both"):
        out["H_cutjoin"] = str(hurwitz.hurwitz_number(args.genus, mu, "cutjoin"))
    out["H"] = out.get("H_burnside", out.get("H_cutjoin"))
    if args.method == "both":
        out["agree"] = out["H_burnside"] == out["H_cutjoin"]
        checks.append({"name": "oracle-agreement", "pass": out["agree"]})
    if args.elsv:
        i_val, bare = hurwitz.elsv_I(args.genus, mu)
        out["I"] = str(i_val)
        out["bare_hodge_integral"] = str(bare)
    return {"result": out, "checks": checks}


def _cmd_w(args) -> dict:
    if args.expand is not None and not 1 <= args.expand <= W_MAX_EXPAND:
        raise UsageError(f"--expand needs an order from 1 to {W_MAX_EXPAND}")
    mu = parse_partition(args.mu)
    nu = None if args.nu is None else parse_partition(args.nu)
    if max(sum(mu), sum(nu or ())) > W_MAX_BOXES:
        raise UsageError(f"w partitions are limited to {W_MAX_BOXES} boxes")
    # W_mu = i^{|mu|} w_one(mu); w_pair is real
    f, ph = (w_one(mu), sum(mu)) if nu is None else (w_pair(mu, nu), 0)
    out = {"kind": "one-partition" if nu is None else "two-partition",
           "mu": format_partition(mu), "value": qfun_json(f, ph)}
    if nu is not None:
        out["nu"] = format_partition(nu)
    if args.expand is not None:
        # i^ph s(i lambda) for s in lambda', as ``series_json`` prints a series
        s = w_one_lambda(mu, args.expand) if nu is None else w_pair_lambda(mu, nu, args.expand)
        out["lambda_expansion"] = {"floor": s.min_exp(), "trunc": args.expand, "coeffs": {
            str(e): coeffs_json({0: v}, s.den, ph + e) for e, v in sorted(s.num.items())}}
    return {"result": out, "checks": []}


def _cmd_mv(args) -> dict:
    top = MV_MAX_TWO_PARTITION_DEGREE if args.check == "two-partition" else MV_MAX_DEGREE
    if args.degree > top or args.order > MV_MAX_ORDER:
        raise UsageError(f"mv is limited to --degree {top} and --order {MV_MAX_ORDER}")
    checks: list[dict] = []
    if args.action == "hodge":
        if args.genus is None or args.partition is None:
            raise UsageError("mv hodge needs --genus and --partition")
        mu = parse_partition(args.partition)
        cap = max(args.degree, sum(mu))
        trunc = max(args.order, 2 * args.genus + len(mu) + sum(mu) + 3)
        if cap > MV_MAX_DEGREE or trunc > MV_MAX_ORDER:
            raise UsageError(f"mv hodge is limited to {MV_MAX_DEGREE} boxes and "
                             f"2g+l+|mu|+3 {MV_MAX_ORDER}")
        fs = hodge.build_series(cap, trunc, 1)
        poly = hodge.hodge_extract(fs, args.genus, mu)
        return {"result": {"genus": args.genus, "partition": format_partition(mu),
                           "tau_polynomial": [str(c) for c in poly]},
                "checks": []}
    if args.dump is not None:
        fs = hodge.build_series(args.degree, args.order, 1)
        ps = fs.connected if args.dump == "connected" else fs.disconnected
        # the stored S_mu(lambda') is G_mu(lambda) = i^{|mu|} S_mu(i lambda)
        dump = [{"key": [format_partition(mu) for mu in key],
                 "value": series_json(s, sum(key[0]))}
                for key, s in sorted(ps.co.items())]
        return {"result": {"series": dump}, "checks": []}
    if args.check is None:
        raise UsageError("mv needs either an action or --check")
    if args.degree < 1:
        raise UsageError("mv --check needs --degree >= 1")
    cap, trunc = args.degree, args.order
    # every connected window must reach the genus-0 power lambda^{l(mu)-2}
    if args.check == "pde" and not hodge.window_reaches(cap, trunc, 0):
        raise UsageError(f"order {trunc} leaves a residual window below its genus-0 term")
    fs = hodge.build_series(cap, trunc, 2 if args.check == "two-partition" else 1)
    if args.check == "pde":
        ok = hodge.pde_residual(fs).is_zero_through_windows()
        checks.append({"name": "pde-residual-zero", "pass": ok})
        result = {"residual_zero": ok, "degree": cap, "order": trunc}
    elif args.check == "initial":
        rep = hodge.initial_value_report(fs)
        checks.append({"name": "initial-value", "pass": rep["ok"]})
        result = rep
    elif args.check == "elsv-limit":
        ok = hodge.elsv_limit_check(fs)
        checks.append({"name": "elsv-limit", "pass": ok})
        result = {"limit_matches": ok}
    elif args.check == "convolution":
        ok = hodge.convolution_check(fs)
        checks.append({"name": "convolution-tau-independence", "pass": ok})
        result = {"tau_independent": ok}
    elif args.check == "lambda-g":
        cases = {f"{g}:{format_partition(mu)}": hodge.lambda_g_check(fs, g, mu)
                 for g in (1, 2) for n in range(1, cap + 1) for mu in enumerate_partitions(n)}
        checks.append({"name": "lambda-g", "pass": all(cases.values())})
        result = {"cases": cases}
    else:  # two-partition
        pde_ok = hodge.pde_residual(fs).is_zero_through_windows()
        swap_ok = hodge.swap_symmetry_check(fs)
        checks.append({"name": "two-family-pde", "pass": pde_ok})
        checks.append({"name": "swap-symmetry", "pass": swap_ok})
        result = {"pde_residual_zero": pde_ok, "swap_symmetric": swap_ok}
    return {"result": result, "checks": checks}


def _cmd_vertex(args) -> dict:
    d_max, g_max = args.max_degree, args.max_genus
    if d_max > VERTEX_MAX_DEGREE or g_max > VERTEX_MAX_GENUS:
        raise UsageError(f"vertex local-p2 is limited to --max-degree {VERTEX_MAX_DEGREE} "
                         f"and --max-genus {VERTEX_MAX_GENUS}")
    n_table = vertex.extract_gw(d_max, g_max)
    result = {"N": [[str(n_table[(g, d)]) for d in range(1, d_max + 1)]
                    for g in range(g_max + 1)]}
    checks = [{"name": "lambda-floor-and-parity", "pass": True}]
    if args.gv:
        gv = vertex.gv_invert(n_table, d_max, g_max)
        result["n"] = [[gv[(g, d)] for d in range(1, d_max + 1)]
                       for g in range(g_max + 1)]
        result["integral"] = True
        checks.append({"name": "gv-integrality",
                       "pass": vertex.gv_forward(gv, d_max, g_max) == n_table})
    return {"result": result, "checks": checks}


def _parse_correlator(text: str):
    try:
        gpart, kpart = text.split(":")
        return int(gpart), tuple(int(x) for x in kpart.split(","))
    except ValueError as exc:
        raise UsageError(f"bad correlator spec {text!r}") from exc


def _cmd_witten(args) -> dict:
    if args.correlator is None and args.virasoro is None and args.psi is None:
        raise UsageError("witten needs --correlator, --psi or --virasoro")
    corr, psi = (None if a is None else _parse_correlator(a)
                 for a in (args.correlator, args.psi))
    if corr and max(3 * corr[0] - 3 + len(corr[1]), sum(corr[1])) > WITTEN_MAX_DIMENSION:
        raise UsageError("witten --correlator is limited to 3g-3+n and k1+...+kn "
                         f"{WITTEN_MAX_DIMENSION}")
    if psi and 3 * psi[0] - 2 + 2 * len(psi[1]) > WITTEN_MAX_PSI_DEGREE:
        raise UsageError(f"witten --psi is limited to 3g-2+2n {WITTEN_MAX_PSI_DEGREE}")
    if args.virasoro is not None and (args.virasoro > WITTEN_MAX_VIRASORO
                                      or args.order > WITTEN_MAX_ORDER):
        raise UsageError(f"witten is limited to --virasoro {WITTEN_MAX_VIRASORO} "
                         f"and --order {WITTEN_MAX_ORDER}")
    result: dict = {}
    checks = []
    if corr:
        result["value"] = str(intersections.dvv(*corr))
    if psi:
        result["psi_asymptotic"] = str(hurwitz.psi_from_asymptotics(*psi))
        # compared only when both name one correlator, up to the order of its indices
        if corr and (corr[0], sorted(corr[1])) == (psi[0], sorted(psi[1])):
            agree = result["value"] == result["psi_asymptotic"]
            checks.append({"name": "dvv-vs-asymptotics", "pass": agree})
    if args.virasoro is not None:
        r, _ = intersections.virasoro_residual(args.virasoro, args.order)
        result["virasoro_residual_max"] = str(r)
        checks.append({"name": f"virasoro-L{args.virasoro}", "pass": r == 0})
    return {"result": result, "checks": checks}


def _cmd_mirror(args) -> dict:
    checks = []
    if args.geometry != "grassmannian" and args.max_degree > MIRROR_MAX_DEGREE:
        raise UsageError(f"mirror {args.geometry} is limited to --max-degree {MIRROR_MAX_DEGREE}")
    if args.geometry == "quintic":
        d_max = args.max_degree
        data = mirror.candelas(d_max)
        k_table = {(0, d): k for d, k in enumerate(data["K"], 1)}
        gv = vertex.gv_invert(k_table, d_max, 0)
        checks.append({"name": "cubic-5/6", "pass": data["cubic"] == Fraction(5, 6)})
        checks.append({"name": "multiple-cover-integrality",
                       "pass": vertex.gv_forward(gv, d_max, 0) == k_table})
        result = {
            "K": [str(k) for k in data["K"]],
            "n": [gv[(0, d)] for d in range(1, d_max + 1)],
            "cubic": str(data["cubic"]),
            "mirror_map": [str(c) for c in data["mirror_map"]],
        }
    elif args.geometry == "toric":
        gens, bundles, divisors = _read_toric_spec(args.spec)
        # the multidegrees of total at most deg in r generators: comb(deg + r, r)
        deg, dim = args.max_degree, prod(n for _name, n in gens)
        if deg >= 0 and comb(deg + len(gens), len(gens)) * dim > MIRROR_MAX_TORIC_SIZE:
            raise UsageError("mirror toric is limited to multidegree slices times ring "
                             f"dimension {MIRROR_MAX_TORIC_SIZE}")
        if deg * sum(max(map(abs, v), default=0) for v in bundles + divisors) * max(dim, 2) > MIRROR_MAX_TORIC_PAIRING:
            raise UsageError("mirror toric is limited to summed class pairings times "
                             f"max(ring dimension, 2) {MIRROR_MAX_TORIC_PAIRING}")
        b = mirror.toric_b_series(gens, bundles, divisors, args.max_degree)
        result = {"slices": {
            ",".join(map(str, d)): {
                "H^" + ",".join(map(str, ge)) + "|t^" + ",".join(map(str, te)):
                    str(v)
                for (ge, te), v in sorted(coeffs.items())}
            for d, coeffs in sorted(b.items())}}
    else:  # grassmannian
        k, n = args.k, args.n
        if not (1 <= k <= GR_MAX_K and k < n <= GR_MAX_N):
            raise UsageError(f"mirror grassmannian needs 1 <= k <= {GR_MAX_K} and k < n <= {GR_MAX_N}")
        if args.max_degree > GR_MAX_DEGREE or k * (n - k) * (args.max_degree + 1) > GR_MAX_SIZE:
            raise UsageError(f"mirror grassmannian is limited to --max-degree {GR_MAX_DEGREE} "
                             f"and k(n-k)(max-degree+1) {GR_MAX_SIZE}")
        hv = mirror.hori_vafa_series(k, n, args.max_degree)
        op = _reduced_json(hv["operator"])
        # when the rows agree, the series holds one side object for both
        result = {"operator": op, "localization": op if hv["localization"] is hv["operator"]
                  else _reduced_json(hv["localization"])}
        if args.verify:
            checks.append({"name": "operator-equals-localization",
                           "pass": hv["equal"]})
            result["equal"] = hv["equal"]
    return {"result": result, "checks": checks}


def _read_toric_spec(path: str):
    """(generators, line bundles, divisors) from a toric spec JSON file."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read toric spec {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"toric spec {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or set(spec) != {"generators", "line_bundles", "divisors"}:
        raise UsageError("toric spec must be a JSON object with exactly the keys "
                         "generators, line_bundles and divisors")
    try:
        gens = [(_spec_entry(g["name"], str, "name"),
                 _spec_entry(g["nilpotency"], int, "nilpotency")) for g in spec["generators"]]
        bundles = [[_spec_entry(c, int, "line_bundles") for c in vec] for vec in spec["line_bundles"]]
        divisors = [[_spec_entry(c, int, "divisors") for c in vec] for vec in spec["divisors"]]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed toric spec: {exc!r}") from exc
    return gens, bundles, divisors


def _spec_entry(v, kind: type, field: str):
    """v when it is a JSON integer (``kind`` int) or string (str); a float, a
    boolean, null or any other JSON value is a usage error."""
    if type(v) is not kind:
        noun = "an integer" if kind is int else "a string"
        raise UsageError(f"toric spec field {field} must be {noun}, not {v!r}")
    return v


def _reduced_json(side) -> dict:
    out = {}
    for d, by_t in sorted(side.items()):
        row = {}
        for te, lams in sorted(by_t.items()):
            row[f"t^{te}"] = {format_partition(lam) or "1": coeffs_json(v.num, v.den)
                              for lam, v in sorted(lams.items()) if v}
        out[str(d)] = row
    return out


def _cmd_verify_all(args) -> dict:
    summary = verify.run_all()
    # a check that raised carries its error and kind; the kind sets the exit code
    checks = [{"name": c["name"], "pass": c["pass"], "seconds": c["seconds"],
               **(c["detail"] if "kind" in c["detail"] else {})} for c in summary["checks"]]
    return {"result": {"profile": args.profile, "all_pass": summary["all_pass"]},
            "checks": checks}


HANDLERS = {
    "hurwitz": _cmd_hurwitz,
    "w": _cmd_w,
    "mv": _cmd_mv,
    "vertex": _cmd_vertex,
    "witten": _cmd_witten,
    "mirror": _cmd_mirror,
    "verify-all": _cmd_verify_all,
}


def _parsed(argv: tuple[str, ...]) -> argparse.Namespace:
    """The parsed arguments of one argv, in a fresh Namespace.  A plain argv
    is read from the parser's own actions (``_Parser.parse_plain``), any
    other by argparse, which alone writes usage and help text."""
    parser = build_parser()
    args = parser.parse_plain(argv)
    return parser.parse_args(argv) if args is None else argparse.Namespace(**args)


class _Unkept(Exception):
    """A document ``respond`` does not keep, raised with its (text, exit code)."""


@lru_cache(maxsize=None)
def respond(argv: tuple[str, ...]) -> tuple[str, int]:
    """The JSON text of one argv's document and its exit code, kept for the
    life of the process when it passes and depends on the argv alone; any
    other document is raised as ``_Unkept``, which ``lru_cache`` does not keep."""
    try:
        args = _parsed(argv)
        payload = HANDLERS[args.command](args)
        doc = {
            "query": args.command,
            "params": {k: v for k, v in vars(args).items() if k != "command"},
            "result": payload["result"],
            "checks": payload["checks"],
        }
        # a failed check is a verification failure unless it names its kind
        code = max((EXIT_CODES[c.get("kind", "verification")]
                    for c in payload["checks"] if not c["pass"]), default=0)
        # verify-all prints the seconds its checks took, mirror toric reads its --spec file
        keep = code == 0 and args.command != "verify-all" and getattr(args, "spec", None) is None
    except _Help as req:
        doc, code, keep = {"help": str(req), "kind": "help"}, 0, False
    except tuple(KINDS) as exc:
        doc, keep = failure(exc), False
        code = EXIT_CODES[doc["kind"]]
    text = json.dumps(doc, sort_keys=True)
    if not keep:
        raise _Unkept(text, code)
    return text, code


def main(argv: list[str] | None = None) -> int:
    try:
        text, code = respond(tuple(sys.argv[1:] if argv is None else argv))
    except _Unkept as fresh:
        text, code = fresh.args
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: drop the unwritten rest so that the
        # exit-time flush stays quiet, and keep the document's exit code
        sys.stdout = None
    return code


if __name__ == "__main__":
    sys.exit(main())
