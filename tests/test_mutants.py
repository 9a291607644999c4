"""Pinned kills: small wrong programs that the verdict must keep failing.

Each row is a text patch to one function of the package.  The patch is
applied to a copy of the package, and ``verify.run_all()`` runs on that copy
in a fresh process, so that no cache of this process carries over.  The row
passes when the named check fails there.  A change that makes a row pass
has lost a kill: mend the check, or delete the row and say why."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dualcalc

PACKAGE = Path(dualcalc.__file__).parent

# name: (module file, text, replacement, the check that must fail)
MUTANTS = {
    # W(mu, nu) loses its |rho| >= 2 terms only when mu > nu
    "pair-quotient-one-sided": (
        "chern_simons.py", "for rho in sub_diagrams(intersection(mu, nu))),",
        "for rho in sub_diagrams(intersection(mu, nu)) if not (mu > nu and size(rho) >= 2)),",
        "two-partition-structure"),
    "cover-power": ("vertex.py", "Frac(k) ** (2 * g - 3)", "Frac(k) ** (2 * g - 2)",
                    "local-p2-gv-integrality"),
    "cover-sum-skips-k-equal-d": (
        "vertex.py", "for k in range(1, d + 1) if not d % k)", "for k in range(1, d) if not d % k)",
        "candelas-structure"),
    # a rotation orbit with two equal partitions counted once, not three times
    "orbit-multiplicity": ("vertex.py", "1 if nu1 == nu2 == nu3 else 3", "1 if nu1 == nu2 else 3",
                           "local-p2-gv-integrality"),
    "cover-table-2-to-the-j": ("vertex.py", "4 ** j", "2 ** j", "local-p2-gv-integrality"),
    "lagrange-sign-of-u": ("dense.py", "e = exp(-u, n)", "e = exp(u, n)", "candelas-structure"),
    "dilaton-factor": ("intersections.py", "12 * (2 * g - 3 + n)", "12 * (2 * g - 2 + n)",
                       "witten-virasoro-dvv"),
    "string-weight": ("intersections.py",
                      "4 * sum((2 * k + 1) * _norm(g, _desc(rest[:i] + (k - 1,)",
                      "4 * sum((2 * k - 1) * _norm(g, _desc(rest[:i] + (k - 1,)",
                      "witten-virasoro-dvv"),
    "virasoro-second-derivative-weight": ("intersections.py", "acc += 4 * _w(", "acc += 2 * _w(",
                                          "witten-virasoro-dvv"),
}

_FAILED_CHECKS = """
import json
from dualcalc import verify
print(json.dumps([c["name"] for c in verify.run_all()["checks"] if not c["pass"]]))
"""


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_verdict_fails_the_mutant(name, tmp_path):
    module, text, replacement, check = MUTANTS[name]
    shutil.copytree(PACKAGE, tmp_path / "dualcalc", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "dualcalc" / module
    source = path.read_text()
    assert source.count(text) == 1, f"the {name} patch no longer applies"
    path.write_text(source.replace(text, replacement))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    child = subprocess.run([sys.executable, "-c", _FAILED_CHECKS], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert check in json.loads(child.stdout)
