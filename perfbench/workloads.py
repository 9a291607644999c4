"""Workloads of the dualcalc benchmark, their seeded inputs and their checks.

Three cold workloads run fixed CLI commands, each in a fresh process; they
are the shipped verdict and the two frontier computations.  ``query-mix``
runs a seeded stream of small queries in one warm process.  Every output is
checked here: the document's own ``checks[]`` and, independently of
dualcalc, published reference values.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial
from typing import Dict, Iterator, List, Optional, Tuple

Argv = List[str]

COLD: Dict[str, List[Argv]] = {
    # the shipped verdict; the Witten check's ELSV interpolation dominates
    "verify-full": [["verify-all", "--profile", "full"]],
    # framed triple-Hodge series: scalars/series, cut-and-join and hodge
    "framed-frontier": [
        ["mv", "--check", "pde", "--degree", "6", "--order", "15"],
        ["mv", "--check", "two-partition", "--degree", "3", "--order", "9"],
    ],
    # qfunc normalisation and nilpotent XPoly; no hurwitz, pseries or hodge
    "geometry-frontier": [
        ["vertex", "local-p2", "--max-degree", "6", "--max-genus", "1", "--gv"],
        ["mirror", "grassmannian", "-k", "3", "-n", "5", "--max-degree", "1",
         "--verify"],
        ["mirror", "quintic", "--max-degree", "10"],
    ],
}
WORKLOADS = (*COLD, "query-mix")

VERIFY_CHECKS = frozenset({
    "hurwitz-oracle-equivalence", "genus0-closed-form", "mv-pde-one-family",
    "ov-initial-value", "mv-elsv-limit", "lambda-g-identity",
    "two-partition-structure", "convolution-tau-independence",
    "witten-virasoro-dvv", "local-p2-gv-integrality", "candelas-structure",
    "hori-vafa-equality",
})

# Published values.  Local P2 genus 0 and 1 BPS counts: Chiang-Klemm-Yau-
# Zaslow 1999; Aganagic-Klemm-Marino-Vafa, "The topological vertex", 2003.
LOCAL_P2_N = (
    (3, -6, 27, -192, 1695, -17064),
    (0, 0, -10, 231, -4452, 80948),
)
# Quintic genus-0 instanton counts (Candelas-de la Ossa-Green-Parkes 1991).
QUINTIC_N = (2875, 609250, 317206375, 242467530000, 229305888887625,
             248249742118022000)
# psi-class intersection numbers <tau_k1 ... tau_kn>_g with 2g-2+n <= 3,
# from the string and dilaton equations and <tau_4>_2 = 1/1152.
WITTEN = {
    "0:0,0,0": Fraction(1), "0:1,0,0,0": Fraction(1),
    "0:2,0,0,0,0": Fraction(1), "0:1,1,0,0,0": Fraction(2),
    "1:1": Fraction(1, 24), "1:2,0": Fraction(1, 24), "1:1,1": Fraction(1, 24),
    "1:3,0,0": Fraction(1, 24), "1:2,1,0": Fraction(1, 12),
    "1:1,1,1": Fraction(1, 12), "2:4": Fraction(1, 1152),
}

# query-mix: queries of each family in every block of 20, and the pools
# the draws come from
FAMILY_QUOTA = (("hurwitz", 5), ("witten", 4), ("w", 4), ("quintic", 2),
                ("lambda-g", 3), ("grassmannian", 2))
BLOCK = sum(q for _f, q in FAMILY_QUOTA)
# The slowest queries set query_tail_ms: the uncached Grassmannian cases
# (their costs differ 30-fold) and the first of each Witten correlator (the
# genus-0, five-point ones take about a second).  Those two families are
# dealt from a shuffled deck instead of drawn independently, so every pass
# holds each case equally often (the five Grassmannian cases four times each
# in a pass of ten blocks) and the tail does not swing with the seed.
DEALT = ("witten", "grassmannian")
GRASSMANNIAN = ((1, 3, 2), (2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2))


def partitions(n: int, cap: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """Partitions of n into parts <= cap, in reverse-lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _fmt(mu) -> str:
    return ",".join(map(str, mu))


def query_pool() -> Dict[str, List[Argv]]:
    """The finite pool of each query-mix family."""
    small = [mu for n in range(1, 4) for mu in partitions(n)]
    tiny = [mu for n in range(1, 3) for mu in partitions(n)]
    return {
        "hurwitz": [["hurwitz", "--genus", str(g), "--partition", _fmt(mu),
                     "--method", "both"]
                    for n in range(1, 7) for mu in partitions(n)
                    for g in range(3)],
        "witten": [["witten", "--correlator", c, "--psi", c] for c in WITTEN],
        "w": ([["w", "--mu", _fmt(mu), "--expand", str(k)]
               for mu in small for k in (4, 6)]
              + [["w", "--mu", _fmt(mu), "--nu", _fmt(nu), "--expand", "4"]
                 for mu in tiny for nu in tiny]),
        "quintic": [["mirror", "quintic", "--max-degree", str(d)]
                    for d in range(1, 7)],
        "lambda-g": [["mv", "--check", "lambda-g", "--degree", str(c),
                      "--order", str(t)]
                     for c in (1, 2, 3) for t in (9, 11)],
        "grassmannian": [["mirror", "grassmannian", "-k", str(k), "-n", str(n),
                          "--max-degree", str(d), "--verify"]
                         for k, n, d in GRASSMANNIAN],
    }


def query_stream(seed: int, pass_index: int, blocks: int) -> List[Tuple[str, Argv]]:
    """Seeded (family, argv) stream for one warm process.

    Every block of ``BLOCK`` queries holds each family's quota, so family
    shares do not depend on the seed; which pool entries are drawn, and so
    how often queries repeat, does (families in ``DEALT`` excepted).
    """
    rng = random.Random(f"query-mix:{seed}:{pass_index}")
    pool = query_pool()
    decks: Dict[str, List[Argv]] = {fam: [] for fam in DEALT}

    def draw(fam: str) -> Argv:
        if fam not in decks:
            return rng.choice(pool[fam])
        if not decks[fam]:
            decks[fam] = rng.sample(pool[fam], len(pool[fam]))
        return decks[fam].pop()

    out: List[Tuple[str, Argv]] = []
    for _ in range(blocks):
        block = [(fam, draw(fam)) for fam, quota in FAMILY_QUOTA for _ in range(quota)]
        rng.shuffle(block)
        out.extend(block)
    return out


def stream_shares(stream: List[Tuple[str, Argv]]) -> dict:
    """Share of each family, and of queries seen before in the stream."""
    seen, repeats, fams = set(), 0, {}
    for fam, argv in stream:
        key = tuple(argv)
        repeats += key in seen
        seen.add(key)
        fams[fam] = fams.get(fam, 0) + 1
    n = len(stream)
    return {"families": {f: c / n for f, c in sorted(fams.items())},
            "repeat_share": repeats / n}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def verdict(stdout: str) -> str:
    """The document without the per-check ``seconds`` that verify-all
    prints, so that two runs of one query can be compared."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    for check in doc.get("checks", []):
        check.pop("seconds", None)
    return json.dumps(doc, sort_keys=True)


def _opt(argv: Argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _aut(mu) -> int:
    out = 1
    for part in set(mu):
        out *= factorial(mu.count(part))
    return out


def genus0_hurwitz(mu) -> Fraction:
    """Hurwitz's formula for connected genus-0 simple Hurwitz numbers."""
    d, n = sum(mu), len(mu)
    value = Fraction(factorial(d + n - 2), _aut(mu)) * Fraction(d) ** (n - 3)
    for m in mu:
        value *= Fraction(m ** m, factorial(m))
    return value


def check_output(argv: Argv, code: int, stdout: str) -> List[str]:
    """Problems with one CLI run; an empty list means it is correct.

    A run must exit 0 with exactly one JSON document whose ``checks[]`` all
    pass, and must match the reference values its query has.
    """
    lines = stdout.splitlines()
    if code != 0:
        return [f"exit code {code}: {stdout.strip()[:200]}"]
    if len(lines) != 1:
        return [f"{len(lines)} lines on stdout, expected one JSON document"]
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return ["stdout is not JSON"]
    try:
        return _check_document(argv, doc)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed document: {exc!r}"]


def _check_document(argv: Argv, doc: dict) -> List[str]:
    errors = [f"check {c['name']} failed" for c in doc["checks"]
              if c["pass"] is not True]
    res = doc["result"]
    head = argv[0]
    if head == "verify-all":
        names = {c["name"] for c in doc["checks"]}
        if res.get("all_pass") is not True:
            errors.append("all_pass is not true")
        if names != VERIFY_CHECKS:
            errors.append(f"check names differ: {sorted(names ^ VERIFY_CHECKS)}")
    elif head == "vertex":
        d, g = int(_opt(argv, "--max-degree")), int(_opt(argv, "--max-genus"))
        for genus in range(min(g, 1) + 1):
            if res["n"][genus] != list(LOCAL_P2_N[genus][:d]):
                errors.append(f"local P2 genus-{genus} counts differ")
    elif argv[:2] == ["mirror", "quintic"]:
        d = min(int(_opt(argv, "--max-degree")), len(QUINTIC_N))
        if res["n"][:d] != list(QUINTIC_N[:d]):
            errors.append("quintic instanton counts differ")
        if res.get("cubic") != "5/6":
            errors.append("quintic cubic term is not 5/6")
    elif argv[:2] == ["mirror", "grassmannian"]:
        if res.get("equal") is not True:
            errors.append("operator side differs from localization")
    elif head == "hurwitz":
        if res.get("agree") is not True:
            errors.append("Burnside and cut-and-join differ")
        mu = tuple(int(x) for x in _opt(argv, "--partition").split(","))
        if _opt(argv, "--genus") == "0" and res.get("H") != str(genus0_hurwitz(mu)):
            errors.append("genus-0 Hurwitz number differs from Hurwitz's formula")
    elif head == "witten":
        spec = _opt(argv, "--correlator")
        want = str(WITTEN[spec])
        if res.get("value") != want or res.get("psi_asymptotic") != want:
            errors.append(f"<{spec}> differs from {want}")
    elif head == "mv":
        check = _opt(argv, "--check")
        flags = {"pde": ("residual_zero",),
                 "two-partition": ("pde_residual_zero", "swap_symmetric")}
        for flag in flags.get(check, ()):
            if res.get(flag) is not True:
                errors.append(f"{flag} is not true")
        if check == "lambda-g" and not (res["cases"] and all(res["cases"].values())):
            errors.append("a lambda_g case failed")
    elif head == "w":
        if not {"ipow", "num", "den"} <= set(res["value"]):
            errors.append("W value is incomplete")
    if not doc["checks"] and head != "w":
        errors.append("no checks in the document")
    return errors
