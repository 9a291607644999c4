"""Acceptance suite: runs every shipped contract at its stated caps.

Each test prints one pass/fail line (visible with -s or in the verify-all
CLI, which shares the same registry) and asserts both the check and, where
stated, its wall-clock budget.  All comparisons are exact.
"""
import json
import time
from pathlib import Path

import pytest

from dualcalc.errors import UsageError
from dualcalc.verify import CHECKS, TIME_BOUNDS, run_all

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
    bound = TIME_BOUNDS.get(name)
    if bound is not None:
        assert seconds < bound, f"{name} took {seconds:.1f}s (budget {bound}s)"


def test_verdict_details_are_pinned():
    # verify-all prints name, pass and seconds; the details are pinned here
    checks = run_all("full")["checks"]
    got = json.dumps([[c["name"], c["pass"], c["detail"]] for c in checks],
                     sort_keys=True) + "\n"
    assert got == DETAILS.read_text()


def test_full_is_the_only_profile():
    with pytest.raises(UsageError, match="unknown profile"):
        run_all("quick")
