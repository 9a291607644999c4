"""The benchmark's traced child still reads what it expects from dualcalc.

``perfbench/child.py`` wraps dualcalc callables by name and its observers
read fields of their arguments and results (``hodge.build_series`` reads the
numerators in the ``GaussianRational`` view ``c`` of the series'
coefficients).  A rename or a change of representation breaks a traced
benchmark run; this test runs a few small traced queries through the child's
own ``run_queries`` and fails first.
"""
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from child import run_queries  # noqa: E402

QUERIES = [
    ["mv", "--check", "pde", "--degree", "2", "--order", "6"],
    ["mv", "--check", "two-partition", "--degree", "1", "--order", "5"],
    ["witten", "--correlator", "1:1", "--psi", "1:1"],
    ["hurwitz", "--genus", "1", "--partition", "2,1"],
]


def test_traced_queries_feed_the_observers():
    out = run_queries({"queries": QUERIES, "trace": 1})
    for argv, (code, _ms, stdout) in zip(QUERIES, out["results"]):
        assert code == 0, argv
        assert stdout.count("\n") == 1, argv
        json.loads(stdout)
    counters = out["trace"]["counters"]
    for name in ("hodge.build_series.coeffs", "hodge.build_series.max_num_bits",
                 "hurwitz.max_sample_size"):
        assert counters.get(name, 0) > 0, name
