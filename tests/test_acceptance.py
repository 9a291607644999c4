"""Acceptance suite: runs every shipped contract at its stated caps.

Each test prints one pass/fail line (visible with -s or in the verify-all
CLI, which shares the same registry) and asserts both the check and, where
stated, its wall-clock budget.  All comparisons are exact.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dualcalc
from dualcalc.verify import CHECKS, TIME_BOUND, run_all

DETAILS = Path(__file__).parent / "golden" / "verify-all-details.json"

CRITERIA = [
    ("hurwitz-oracle-equivalence", 1),
    ("genus0-closed-form", 2),
    ("mv-pde-one-family", 3),
    ("ov-initial-value", 4),
    ("mv-elsv-limit", 5),
    ("lambda-g-identity", 6),
    ("two-partition-structure", 7),
    ("convolution-tau-independence", 8),
    ("witten-virasoro-dvv", 9),
    ("local-p2-gv-integrality", 10),
    ("candelas-structure", 11),
    ("hori-vafa-equality", 12),
]


@pytest.mark.parametrize("name,number", CRITERIA,
                         ids=[f"criterion-{n:02d}-{name}" for name, n in CRITERIA])
def test_acceptance(name, number):
    t0 = time.monotonic()
    ok, detail = CHECKS[name]("full")
    seconds = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} {name}: {seconds:.2f}s  {detail}")
    assert ok, (name, detail)
    assert seconds < TIME_BOUND, f"{name} took {seconds:.1f}s (budget {TIME_BOUND}s)"


def test_verdict_details_are_pinned():
    # verify-all prints name, pass and seconds; the details are pinned here
    checks = run_all()["checks"]
    got = json.dumps([[c["name"], c["pass"], c["detail"]] for c in checks],
                     sort_keys=True) + "\n"
    assert got == DETAILS.read_text()


# each in a fresh process, so that no cache of this one is read: the verdict
# under ``python -O`` (no ``assert`` guards a check), and the twelve checks in
# reverse registry order (no check leans on a cache an earlier one filled)
FRESH_VERDICT = """
import json, sys
from dualcalc import verify
if sys.argv[1] == "reversed":
    verify.CHECKS = dict(reversed(verify.CHECKS.items()))
print(json.dumps([[c["name"], c["pass"], c["detail"]] for c in verify.run_all()["checks"]],
                 sort_keys=True))
"""


@pytest.mark.parametrize("flags,order", [(["-O"], "registry"), ([], "reversed")],
                         ids=["python-O", "reverse-order"])
def test_a_fresh_verdict_repeats_the_pinned_details(flags, order):
    env = dict(os.environ, PYTHONPATH=str(Path(dualcalc.__file__).parents[1]))
    out = subprocess.run([sys.executable, *flags, "-c", FRESH_VERDICT, order], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    pinned = json.loads(DETAILS.read_text())
    assert out == json.dumps(pinned[::-1] if order == "reversed" else pinned,
                             sort_keys=True) + "\n"
