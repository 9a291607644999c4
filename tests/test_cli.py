import argparse
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dualcalc import cli, verify
from dualcalc.chern_simons import w_one, w_pair
from dualcalc.errors import InternalError, UsageError, VerificationFailure
from dualcalc.qfunc import QFunction, ULaurent
from dualcalc.scalars import GaussianRational
from dualcalc.series import LambdaSeries, TauLaurent
from oracles import lambda_form, phased

GOLDEN = Path(__file__).parent / "golden"
P4_SPEC = str(GOLDEN / "toric-p4-spec.json")


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv)
    return code, json.loads(out)


def test_document_shape():
    code, doc = run_json(["hurwitz", "--genus", "0", "--partition", "2"])
    assert code == 0
    assert set(doc) == {"query", "params", "result", "checks"}
    assert doc["query"] == "hurwitz"


def test_hurwitz_example():
    code, doc = run_json(["hurwitz", "--genus", "0", "--partition", "2",
                          "--method", "both"])
    assert code == 0
    assert doc["result"]["H"] == "1/2"
    assert doc["result"]["agree"] is True


def test_witten_example():
    code, doc = run_json(["witten", "--correlator", "1:1"])
    assert code == 0
    assert doc["result"]["value"] == "1/24"


def test_witten_cross():
    code, doc = run_json(["witten", "--correlator", "1:1", "--psi", "1:1"])
    assert code == 0
    assert doc["result"]["psi_asymptotic"] == "1/24"
    assert doc["checks"] == [{"name": "dvv-vs-asymptotics", "pass": True}]


def test_witten_cross_compares_only_one_correlator():
    # the same correlator up to the order of its indices is compared
    code, doc = run_json(["witten", "--correlator", "1:2,1,0", "--psi", "1:0,1,2"])
    assert code == 0
    assert doc["checks"] == [{"name": "dvv-vs-asymptotics", "pass": True}]
    # two different correlators are both computed, and neither fails the other
    code, doc = run_json(["witten", "--correlator", "1:1", "--psi", "0:0,0,0"])
    assert code == 0 and doc["checks"] == []
    assert (doc["result"]["value"], doc["result"]["psi_asymptotic"]) == ("1/24", "1")


def test_witten_virasoro():
    code, doc = run_json(["witten", "--virasoro", "0", "--order", "3"])
    assert code == 0
    assert doc["result"]["virasoro_residual_max"] == "0"


def test_mv_pde_example():
    code, doc = run_json(["mv", "--check", "pde", "--degree", "2", "--order", "8"])
    assert code == 0
    assert doc["result"]["residual_zero"] is True


def test_mv_hodge():
    code, doc = run_json(["mv", "hodge", "--genus", "1", "--partition", "1"])
    assert code == 0
    assert doc["result"]["tau_polynomial"][0] == "1/24"


def test_usage_errors_exit_1():
    code, doc = run_json(["hurwitz", "--genus", "0", "--partition", "1,3"])
    assert code == 1 and doc["kind"] == "usage"
    code, doc = run_json(["mv"])
    assert code == 1
    code, doc = run_json(["witten"])
    assert code == 1
    code, doc = run_json(["witten", "--correlator", "nonsense"])
    assert code == 1


def test_unknown_subcommand_exits_1():
    code, _ = run(["frobnicate"])
    assert code == 1


def test_internal_error_maps_to_3(monkeypatch):
    def boom(args):
        raise InternalError("division leaves a remainder")

    monkeypatch.setitem(cli.HANDLERS, "witten", boom)
    code, doc = run_json(["witten", "--correlator", "1:1"])
    assert code == 3 and doc["kind"] == "internal"


def test_determinism():
    _, a = run(["vertex", "local-p2", "--max-degree", "2", "--max-genus", "1"])
    _, b = run(["vertex", "local-p2", "--max-degree", "2", "--max-genus", "1"])
    assert a == b


def _fails_after_running(name):
    """The check ``name``, run as shipped and then reported failing."""
    real = verify.CHECKS[name]
    return lambda profile: (False, real(profile)[1])


def test_fault_injection_exits_2(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "genus0-closed-form",
                        _fails_after_running("genus0-closed-form"))
    code, doc = run_json(["verify-all"])
    assert code == 2
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert failing == ["genus0-closed-form"]


@pytest.mark.parametrize("exc,kind,code", [(VerificationFailure, "verification", 2),
                                           (InternalError, "internal", 3),
                                           (ZeroDivisionError, "internal", 3)],
                         ids=["verification", "internal", "zero-division"])
def test_a_raising_check_is_its_own_failing_entry(exc, kind, code):
    # one check at a time raises; the other eleven still run and pass
    names = list(verify.CHECKS)
    for name in names:
        def raising(_profile, name=name):
            raise exc(f"{name} raised")

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verify.CHECKS, name, raising)
            got, doc = run_json(["verify-all"])
        assert got == code, name
        assert [c["name"] for c in doc["checks"]] == names
        entry = doc["checks"][names.index(name)]
        assert entry == {"name": name, "pass": False, "seconds": entry["seconds"],
                         "error": f"{name} raised", "kind": kind}
        assert sum(c["pass"] for c in doc["checks"]) == 11
        assert doc["result"]["all_pass"] is False


def test_a_check_that_raises_a_usage_error_ends_the_verdict(monkeypatch):
    # a UsageError is the caller's bug: one usage document, as from any command
    def misused(_profile):
        raise UsageError("need at least degree 1")

    monkeypatch.setitem(verify.CHECKS, "candelas-structure", misused)
    code, out = run(["verify-all"])
    assert (code, out) == (1, '{"error": "need at least degree 1", "kind": "usage"}\n')
    # and an exception outside the failure table propagates
    monkeypatch.setitem(verify.CHECKS, "candelas-structure", lambda _profile: {}["missing"])
    with pytest.raises(KeyError):
        verify.run_all()


def test_a_raise_inside_the_library_fails_only_its_check(monkeypatch):
    # a fresh candelas whose Lagrange pass doubles the cubic term raises
    # VerificationFailure from inside the candelas-structure check
    from dualcalc import dense, mirror

    real = dense.lagrange

    def doubled_cubic(*args):
        *rest, cubic = real(*args)
        return [*rest, cubic.scale(2)]

    monkeypatch.setattr(dense, "lagrange", doubled_cubic)
    mirror.candelas.cache_clear()
    try:
        code, doc = run_json(["verify-all"])
    finally:
        mirror.candelas.cache_clear()
    assert code == 2 and doc["result"]["all_pass"] is False
    failing = [(c["name"], c.get("error"), c.get("kind")) for c in doc["checks"] if not c["pass"]]
    assert failing == [("candelas-structure", "cubic coefficient of the potential is not 5/6",
                        "verification")]
    assert sum(c["pass"] for c in doc["checks"]) == 11


def test_mv_dump_series():
    code, doc = run_json(["mv", "--dump", "connected", "--degree", "2",
                          "--order", "6"])
    assert code == 0
    keys = [entry["key"] for entry in doc["result"]["series"]]
    assert ["1"] in keys and ["2"] in keys and ["1,1"] in keys


def test_verify_all_defaults():
    code, doc = run_json(["verify-all"])
    assert code == 0
    assert doc["result"]["profile"] == "full"
    assert doc["result"]["all_pass"] is True
    assert [c["name"] for c in doc["checks"]] == list(verify.CHECKS)
    assert len(doc["checks"]) == 12


def test_toric_spec_file(tmp_path):
    spec = {"generators": [{"name": "H", "nilpotency": 2}],
            "line_bundles": [[2]], "divisors": [[1], [1]]}
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(["mirror", "toric", "--spec", str(path),
                          "--max-degree", "1"])
    assert code == 0
    assert doc["result"]["slices"]["1"]["H^1|t^0"] == "4"


def test_toric_unknown_keys_rejected(tmp_path):
    spec = {"generators": [{"name": "H", "nilpotency": 2}],
            "line_bundles": [[2]], "divisors": [[1], [1]], "bogus": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(["mirror", "toric", "--spec", str(path)])
    assert code == 1 and doc["kind"] == "usage"


# inputs that would otherwise compare nothing and report a vacuous pass,
# or lie outside the range the computation is defined or built for
VACUOUS = {
    "virasoro-negative-order": ["witten", "--virasoro", "1", "--order", "-1"],
    "mv-check-degree-zero": ["mv", "--check", "pde", "--degree", "0", "--order", "1"],
    "vertex-degree-zero": ["vertex", "local-p2", "--max-degree", "0", "--gv"],
    "vertex-negative-genus": ["vertex", "local-p2", "--max-degree", "2",
                              "--max-genus", "-1", "--gv"],
    "grassmannian-negative-degree": ["mirror", "grassmannian", "-k", "1", "-n", "2",
                                     "--max-degree", "-1", "--verify"],
    "hodge-negative-genus": ["mv", "hodge", "--genus", "-1", "--partition", "1"],
    "lambda-g-order-1": ["mv", "--check", "lambda-g", "--degree", "1", "--order", "1"],
    "lambda-g-order-3": ["mv", "--check", "lambda-g", "--degree", "2", "--order", "3"],
    "w-expand-negative": ["w", "--mu", "1", "--expand", "-2"],
    "w-expand-zero": ["w", "--mu", "1", "--expand", "0"],
    # verify-all has no such option
    "inject-unknown-check": ["verify-all", "--inject-fault", "no-such-check"],
    "verify-quick-profile": ["verify-all", "--profile", "quick"],
    "mv-pde-order-too-small": ["mv", "--check", "pde", "--degree", "4", "--order", "1"],
    # a dict stands for a toric spec file with that content
    "toric-negative-degree": ["mirror", "toric", "--spec", P4_SPEC, "--max-degree", "-1"],
    "toric-no-generators": ["mirror", "toric", "--spec",
                            {"generators": [], "line_bundles": [], "divisors": []}],
    "toric-nilpotency-zero": ["mirror", "toric", "--spec",
                              {"generators": [{"name": "H", "nilpotency": 0}],
                               "line_bundles": [[1]], "divisors": [[1]]}],
    "toric-empty-spec": ["mirror", "toric", "--spec",
                         {"generators": [{"name": "H", "nilpotency": 2}],
                          "line_bundles": [], "divisors": []}],
}


@pytest.mark.parametrize("case", ["non-integer-part", "missing-spec",
                                  "malformed-spec", "spec-not-object",
                                  *VACUOUS])
def test_bad_input_is_one_usage_document(case, tmp_path):
    spec = tmp_path / "spec.json"
    argv = VACUOUS.get(case, ["mirror", "toric", "--spec", str(spec)])
    for a in argv:
        if isinstance(a, dict):
            spec.write_text(json.dumps(a))
    argv = [str(spec) if isinstance(a, dict) else a for a in argv]
    if case == "non-integer-part":
        argv = ["hurwitz", "--genus", "0", "--partition", "a,b"]
    elif case == "malformed-spec":
        spec.write_text('{"generators": [')
    elif case == "spec-not-object":
        spec.write_text("[1, 2]")
    code, out = run(argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["kind"] == "usage"


@pytest.mark.parametrize("argv,usage", [(["-h"], "usage: dualcalc ["),
                                        (["w", "--help"], "usage: dualcalc w [")])
def test_help_is_one_json_document(argv, usage, monkeypatch):
    code, out = run(argv)
    assert code == 0
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["kind"] == "help" and doc["help"].startswith(usage)
    # the text does not wrap to the terminal
    monkeypatch.setenv("COLUMNS", "30")
    assert run(argv) == (code, out)


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


# verify-all exits 2 with genus0-closed-form set to fail
CLOSED_PIPE_CASES = [(["hurwitz", "--genus", "0", "--partition", "2"], 0),
                     (["hurwitz", "--genus", "0", "--partition", "x"], 1),
                     (["verify-all"], 2)]
_FAILING_CHECK = """
import sys
from dualcalc import cli, verify
verify.CHECKS["genus0-closed-form"] = lambda _profile: (False, {})
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,code", CLOSED_PIPE_CASES)
def test_closed_stdout_keeps_the_document_exit_code(argv, code, monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "genus0-closed-form",
                        _fails_after_running("genus0-closed-form"))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(argv) == code
    # the unwritten rest is dropped, so the exit-time flush cannot raise
    assert sys.stdout is None


def test_closed_stdout_prints_no_traceback():
    # the read end is closed before the child writes, so every write fails
    argv, code = CLOSED_PIPE_CASES[2]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", _FAILING_CHECK, *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    assert (child.wait(timeout=120), child.stderr.read()) == (code, b"")
    child.stderr.close()


W_LIMITS_ACCEPTED = [["w", "--mu", "1", "--expand", "64"], ["w", "--mu", "12"],
                     ["w", "--mu", "1", "--nu", "12"]]
W_LIMITS_REJECTED = [["w", "--mu", "1", "--expand", "65"], ["w", "--mu", "13"],
                     ["w", "--mu", "1", "--nu", "7,6"]]


@pytest.mark.parametrize("argv", W_LIMITS_ACCEPTED)
def test_w_limits_accept_the_boundary(argv):
    code, doc = run_json(argv)
    assert code == 0 and doc["query"] == "w"


@pytest.mark.parametrize("argv", W_LIMITS_REJECTED)
def test_w_limits_reject_before_any_work(argv, monkeypatch):
    def no_work(*_args):
        raise AssertionError("a W value was formed past the input limits")

    # a call would end as an internal error, exit 3
    monkeypatch.setattr(cli, "w_one", no_work)
    monkeypatch.setattr(cli, "w_pair", no_work)
    code, out = run(argv)
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["kind"] == "usage"


MIRROR_LIMITS = [(["mirror", "quintic"], "candelas"),
                 (["mirror", "toric", "--spec", P4_SPEC], "toric_b_series")]


def _mirror_limit_run(argv, worker, degree, monkeypatch):
    from dualcalc import mirror

    def started(*_args):
        raise InternalError("the mirror series was started")

    # the worker fails, so no degree is computed: a document of kind
    # "internal" (exit 3) means the limit let the query through
    monkeypatch.setattr(mirror, worker, started)
    code, out = run([*argv, "--max-degree", str(degree)])
    assert out.count("\n") == 1
    return code, json.loads(out)["kind"]


@pytest.mark.parametrize("argv,worker", MIRROR_LIMITS)
def test_mirror_limits_accept_the_boundary(argv, worker, monkeypatch):
    # the limit admits the degree-40 quintic, about 0.5 s cold
    assert cli.MIRROR_MAX_DEGREE >= 40
    assert _mirror_limit_run(argv, worker, cli.MIRROR_MAX_DEGREE, monkeypatch) == (3, "internal")
    _, doc = run_json([*argv[:2], "--help"])
    assert f"at most {cli.MIRROR_MAX_DEGREE}" in doc["help"]


@pytest.mark.parametrize("argv,worker", MIRROR_LIMITS)
def test_mirror_limits_reject_before_any_work(argv, worker, monkeypatch):
    assert _mirror_limit_run(argv, worker, cli.MIRROR_MAX_DEGREE + 1, monkeypatch) == (1, "usage")


def _vertex_limit_run(degree, genus, monkeypatch):
    from dualcalc import vertex

    def started(*_args):
        raise InternalError("the vertex sum was started")

    # as for the mirror limits: "internal" (exit 3) means the limit let the query through
    monkeypatch.setattr(vertex, "extract_gw", started)
    code, out = run(["vertex", "local-p2", "--max-degree", str(degree),
                     "--max-genus", str(genus), "--gv"])
    assert out.count("\n") == 1
    return code, json.loads(out)["kind"]


def test_vertex_limits_accept_the_boundary(monkeypatch):
    # the limits admit degree 9, about 2.4 s cold; degree 10 takes about 10 s
    assert (cli.VERTEX_MAX_DEGREE, cli.VERTEX_MAX_GENUS) == (9, 24)
    assert _vertex_limit_run(9, 24, monkeypatch) == (3, "internal")
    _, doc = run_json(["vertex", "--help"])
    assert "at most 9" in doc["help"] and "at most 24" in doc["help"]


@pytest.mark.parametrize("degree,genus", [(10, 0), (1, 25)])
def test_vertex_limits_reject_before_any_work(degree, genus, monkeypatch):
    assert _vertex_limit_run(degree, genus, monkeypatch) == (1, "usage")


# (argv, worker) at the witten limits: 3g-3+n and k1+...+kn <= 40 for
# --correlator, 3g-2+2n <= 15 for --psi, --virasoro <= 6 and --order <= 7
WITTEN_LIMITS_ACCEPTED = [
    (["--correlator", "14:40"], ("intersections", "dvv")),
    (["--correlator", "0:40" + ",0" * 42], ("intersections", "dvv")),
    (["--psi", "1:7" + ",0" * 6], ("hurwitz", "psi_from_asymptotics")),
    (["--virasoro", "6", "--order", "7"], ("intersections", "virasoro_residual")),
]
WITTEN_LIMITS_REJECTED = [
    (["--correlator", "14:41"], ("intersections", "dvv")),
    (["--correlator", "0:40" + ",0" * 43], ("intersections", "dvv")),
    (["--psi", "0:6" + ",0" * 8], ("hurwitz", "psi_from_asymptotics")),
    (["--virasoro", "7", "--order", "7"], ("intersections", "virasoro_residual")),
    (["--virasoro", "6", "--order", "8"], ("intersections", "virasoro_residual")),
]


def _witten_limit_run(argv, worker, monkeypatch):
    def started(*_args):
        raise InternalError("the witten computation was started")

    # as for the mirror limits: "internal" (exit 3) means the limit let the query through
    monkeypatch.setattr(getattr(cli, worker[0]), worker[1], started)
    code, out = run(["witten", *argv])
    assert out.count("\n") == 1
    return code, json.loads(out)["kind"]


@pytest.mark.parametrize("argv,worker", WITTEN_LIMITS_ACCEPTED)
def test_witten_limits_accept_the_boundary(argv, worker, monkeypatch):
    assert (cli.WITTEN_MAX_DIMENSION, cli.WITTEN_MAX_PSI_DEGREE,
            cli.WITTEN_MAX_VIRASORO, cli.WITTEN_MAX_ORDER) == (40, 15, 6, 7)
    assert _witten_limit_run(argv, worker, monkeypatch) == (3, "internal")
    _, doc = run_json(["witten", "--help"])
    assert all(f"at most {v}" in doc["help"] for v in (40, 15, 6, 7))


@pytest.mark.parametrize("argv,worker", WITTEN_LIMITS_REJECTED)
def test_witten_limits_reject_before_any_work(argv, worker, monkeypatch):
    assert _witten_limit_run(argv, worker, monkeypatch) == (1, "usage")


# (argv, worker) at the mv and hurwitz limits: the built degree cap 8 (5 for
# two families) and order 19, which also bound mv hodge's partition and
# 2g+l+|mu|+3, and hurwitz's genus 6 and twelve boxes
MV_LIMITS_ACCEPTED = [
    ["mv", "--check", "pde", "--degree", "8", "--order", "19"],
    ["mv", "--check", "two-partition", "--degree", "5", "--order", "19"],
    ["mv", "--dump", "connected", "--degree", "8", "--order", "19"],
    ["mv", "hodge", "--genus", "7", "--partition", "1"],
    ["mv", "hodge", "--genus", "0", "--partition", "8", "--degree", "8"],
    ["mv", "hodge", "--genus", "4", "--partition", "3,3"],
]
MV_LIMITS_REJECTED = [
    ["mv", "--check", "pde", "--degree", "9", "--order", "19"],
    ["mv", "--check", "lambda-g", "--degree", "8", "--order", "20"],
    ["mv", "--check", "two-partition", "--degree", "6", "--order", "13"],
    ["mv", "--dump", "connected", "--degree", "9", "--order", "7"],
    ["mv", "hodge", "--genus", "8", "--partition", "1"],
    ["mv", "hodge", "--genus", "0", "--partition", "9"],
    ["mv", "hodge", "--genus", "5", "--partition", "3,3"],
]
HURWITZ_LIMITS_ACCEPTED = [
    ["hurwitz", "--genus", "6", "--partition", "1" + ",1" * 11, "--elsv"],
    ["hurwitz", "--genus", "6", "--partition", "12", "--method", "cutjoin"],
]
HURWITZ_LIMITS_REJECTED = [
    ["hurwitz", "--genus", "7", "--partition", "1"],
    ["hurwitz", "--genus", "0", "--partition", "1" + ",1" * 12],
    ["hurwitz", "--genus", "1", "--partition", "7,6", "--method", "burnside"],
]


def _limit_run(argv, worker, monkeypatch):
    def started(*_args):
        raise InternalError(f"the {argv[0]} computation was started")

    # as for the witten limits: "internal" (exit 3) means the limit let the query through
    monkeypatch.setattr(*worker, started)
    code, out = run(argv)
    assert out.count("\n") == 1
    return code, json.loads(out)["kind"]


def _worker(argv):
    from dualcalc import hodge, hurwitz

    return (hodge, "build_series") if argv[0] == "mv" else (hurwitz, "hurwitz_number")


@pytest.mark.parametrize("argv", MV_LIMITS_ACCEPTED + HURWITZ_LIMITS_ACCEPTED)
def test_mv_and_hurwitz_limits_accept_the_boundary(argv, monkeypatch):
    assert (cli.MV_MAX_DEGREE, cli.MV_MAX_TWO_PARTITION_DEGREE, cli.MV_MAX_ORDER,
            cli.HURWITZ_MAX_GENUS, cli.HURWITZ_MAX_BOXES) == (8, 5, 19, 6, 12)
    assert _limit_run(argv, _worker(argv), monkeypatch) == (3, "internal")
    _, doc = run_json([argv[0], "--help"])
    help_text = " ".join(doc["help"].split())
    limits = (8, 5, 19) if argv[0] == "mv" else (6, 12)
    assert all(f"at most {v}" in help_text or f"or {v}" in help_text for v in limits)


@pytest.mark.parametrize("argv", MV_LIMITS_REJECTED + HURWITZ_LIMITS_REJECTED)
def test_mv_and_hurwitz_limits_reject_before_any_work(argv, monkeypatch):
    assert _limit_run(argv, _worker(argv), monkeypatch) == (1, "usage")


def test_mv_pde_rejects_a_short_order_before_any_work(monkeypatch):
    # every connected window [l - 2, order - l + 1) must reach its genus-0
    # term lambda^(l - 2), l up to the degree: order >= 2 degree - 2; a
    # rejected query never starts the build (exit 3 here means it did)
    grid = [(d, o) for d in range(1, cli.MV_MAX_DEGREE + 1) for o in range(1, cli.MV_MAX_ORDER + 1)]
    argv = {k: ["mv", "--check", "pde", "--degree", str(k[0]), "--order", str(k[1])] for k in grid}
    got = {k: _limit_run(argv[k], _worker(argv[k]), monkeypatch) for k in grid}
    assert {k for k, v in got.items() if v == (1, "usage")} == {(d, o) for d, o in grid
                                                                 if o < 2 * d - 2}
    assert {k for k, v in got.items() if v == (3, "internal")} == {(d, o) for d, o in grid
                                                                    if o >= 2 * d - 2}
    _, doc = run_json(argv[(4, 5)])
    assert doc["error"] == "order 5 leaves a residual window below its genus-0 term"


def _p1_power(r):
    return {"generators": [{"name": f"H{i}", "nilpotency": 2} for i in range(r)],
            "line_bundles": [[2] * r],
            "divisors": [[int(i == j) for i in range(r)] for j in range(r) for _ in (0, 1)]}


def _one_generator(nilpotency):
    return {"generators": [{"name": "H", "nilpotency": nilpotency}],
            "line_bundles": [[1]], "divisors": [[1]]}


# (spec, degree) at the bound on multidegree slices times ring dimension,
# comb(degree + r, r) * prod n_i <= 256, and one step past it; every slice
# of the degree-50 quintic (51 * 5) stays inside
TORIC_SIZE_ACCEPTED = [(_p1_power(2), 9), (_p1_power(3), 3), (_one_generator(128), 1),
                       (_one_generator(256), 0)]
TORIC_SIZE_REJECTED = [(_p1_power(2), 10), (_p1_power(3), 4), (_one_generator(129), 1),
                       (_one_generator(257), 0)]


@pytest.mark.parametrize("accepted,cases", [(True, TORIC_SIZE_ACCEPTED),
                                            (False, TORIC_SIZE_REJECTED)])
def test_toric_size_limit_at_its_boundary(accepted, cases, tmp_path, monkeypatch):
    assert cli.MIRROR_MAX_TORIC_SIZE == 256
    path = tmp_path / "spec.json"
    for spec, degree in cases:
        path.write_text(json.dumps(spec))
        got = _mirror_limit_run(["mirror", "toric", "--spec", str(path)], "toric_b_series",
                                degree, monkeypatch)
        assert got == ((3, "internal") if accepted else (1, "usage")), (spec, degree)
    _, doc = run_json(["mirror", "toric", "--help"])
    assert f"ring dimension at most {cli.MIRROR_MAX_TORIC_SIZE}" in " ".join(doc["help"].split())


def _spec(nilpotency, bundles, divisors):
    return {"generators": [{"name": "H", "nilpotency": nilpotency}],
            "line_bundles": bundles, "divisors": divisors}


QUINTIC_SPEC = _spec(5, [[5]], [[1]] * 5)

# (spec, degree) at the bound on the classes' largest |pairings| with the
# multidegrees, summed, times max(ring dimension, 2), and past it: the quintic
# spec at degree 50 is (250 + 5 * 50) * 5; a divisor [m] on a ring of
# dimension 1 prints 1/m!, past Python's 4300-digit int-to-str limit at
# m = 2500, and the last rejected spec passes that limit at degree 1 too
TORIC_PAIRING_ACCEPTED = [(QUINTIC_SPEC, 50), (_spec(2, [], [[1250]]), 1),
                          (_spec(2, [[625]], [[-625]]), 1), (_spec(1, [], [[1250]]), 1),
                          (_spec(1, [[1250]], []), 1)]
TORIC_PAIRING_REJECTED = [(_spec(5, [[5]], [[1]] * 6), 50),
                          (_spec(2, [], [[1251]]), 1), (_spec(2, [[625]], [[-626]]), 1),
                          (_spec(1, [], [[1251]]), 1), (_spec(1, [], [[2500]]), 1),
                          (_spec(1, [[1251]], []), 1), (_spec(5, [[2000]], [[1]]), 1)]


@pytest.mark.parametrize("accepted,cases", [(True, TORIC_PAIRING_ACCEPTED),
                                            (False, TORIC_PAIRING_REJECTED)])
def test_toric_pairing_limit_at_its_boundary(accepted, cases, tmp_path, monkeypatch):
    assert cli.MIRROR_MAX_TORIC_PAIRING == 2500
    path = tmp_path / "spec.json"
    for spec, degree in cases:
        path.write_text(json.dumps(spec))
        got = _mirror_limit_run(["mirror", "toric", "--spec", str(path)], "toric_b_series",
                                degree, monkeypatch)
        assert got == ((3, "internal") if accepted else (1, "usage")), (spec, degree)
    _, doc = run_json(["mirror", "toric", "--help"])
    assert (f"pairings times max(dimension, 2) at most {cli.MIRROR_MAX_TORIC_PAIRING}"
            in " ".join(doc["help"].split()))


def test_toric_pairing_limit_admits_printable_coefficients(tmp_path):
    # the largest admitted divisor on a ring of dimension 1 prints 1/1250!,
    # about 3,300 digits, in one document
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec(1, [], [[1250]])))
    code, doc = run_json(["mirror", "toric", "--spec", str(path), "--max-degree", "1"])
    assert code == 0
    (coef,) = doc["result"]["slices"]["1"].values()
    assert coef == f"1/{factorial(1250)}"


# (k, n, degree) at the Grassmannian limits: k <= 4, k < n <= 8, degree <= 4
# and k(n-k)(degree+1) <= 32, and one step past each; the admitted boundary
# cases take at most about 3 s cold, Gr(4,6) to degree 3 and Gr(4,8) to 1
GR_LIMITS_ACCEPTED = [(4, 8, 1), (4, 6, 3), (4, 5, 4), (1, 8, 3), (2, 3, 4), (3, 8, 1)]
GR_LIMITS_REJECTED = [(5, 6, 0), (1, 9, 0), (2, 3, 5), (4, 8, 2), (4, 6, 4), (3, 6, 3),
                      (0, 2, 1), (3, 3, 1)]


@pytest.mark.parametrize("accepted,cases", [(True, GR_LIMITS_ACCEPTED),
                                            (False, GR_LIMITS_REJECTED)])
def test_grassmannian_limits_at_their_boundary(accepted, cases, monkeypatch):
    assert (cli.GR_MAX_K, cli.GR_MAX_N, cli.GR_MAX_DEGREE, cli.GR_MAX_SIZE) == (4, 8, 4, 32)
    for k, n, degree in cases:
        argv = ["mirror", "grassmannian", "-k", str(k), "-n", str(n), "--verify"]
        got = _mirror_limit_run(argv, "hori_vafa_series", degree, monkeypatch)
        assert got == ((3, "internal") if accepted else (1, "usage")), (k, n, degree)
    _, doc = run_json(["mirror", "grassmannian", "--help"])
    for text in ("at most 4", "k < n <= 8", "k(n-k)(max-degree+1) at most 32"):
        assert text in " ".join(doc["help"].split())


def test_gv_integrality_checks_forward_map(monkeypatch):
    from dualcalc import vertex

    real = vertex.gv_forward

    def off_by_one(gv, d_max, g_max):
        out = real(gv, d_max, g_max)
        out[(0, 1)] += 1
        return out

    monkeypatch.setattr(vertex, "gv_forward", off_by_one)
    code, doc = run_json(["vertex", "local-p2", "--max-degree", "2",
                          "--max-genus", "1", "--gv"])
    assert code == 2
    assert {"name": "gv-integrality", "pass": False} in doc["checks"]


def test_multiple_cover_integrality_checks_forward_map(monkeypatch):
    from dualcalc import vertex

    real = vertex.gv_forward

    def off_by_one(gv, d_max, g_max):
        out = real(gv, d_max, g_max)
        out[(0, d_max)] += 1
        return out

    monkeypatch.setattr(vertex, "gv_forward", off_by_one)
    code, doc = run_json(["mirror", "quintic", "--max-degree", "3"])
    assert code == 2
    assert {"name": "multiple-cover-integrality", "pass": False} in doc["checks"]


def test_grassmannian_verify():
    code, doc = run_json(["mirror", "grassmannian", "-k", "2", "-n", "3",
                          "--max-degree", "1", "--verify"])
    assert code == 0
    assert doc["result"]["equal"] is True


GOLDEN_COMMANDS = [
    ("hurwitz", ["hurwitz", "--genus", "1", "--partition", "2,1", "--method", "both"]),
    ("w-expand", ["w", "--mu", "2", "--expand", "4"]),
    ("witten", ["witten", "--correlator", "1:1"]),
    ("vertex", ["vertex", "local-p2", "--max-degree", "2", "--max-genus", "1", "--gv"]),
    ("quintic", ["mirror", "quintic", "--max-degree", "3"]),
    ("mv-dump", ["mv", "--dump", "connected", "--degree", "3", "--order", "7"]),
    ("w-pair-expand", ["w", "--mu", "2,1", "--nu", "2,1", "--expand", "4"]),
    ("grassmannian", ["mirror", "grassmannian", "-k", "3", "-n", "5",
                      "--max-degree", "1", "--verify"]),
    ("w-expand-321", ["w", "--mu", "3,2,1", "--expand", "10"]),
    ("w-pair-expand-31-22", ["w", "--mu", "3,1", "--nu", "2,2", "--expand", "8"]),
    ("vertex-d4-g3", ["vertex", "local-p2", "--max-degree", "4", "--max-genus", "3", "--gv"]),
    ("mv-dump-disconnected-d4", ["mv", "--dump", "disconnected", "--degree", "4",
                                 "--order", "9"]),
    ("mv-hodge-g2-21", ["mv", "hodge", "--genus", "2", "--partition", "2,1"]),
    ("mv-initial-d3", ["mv", "--check", "initial", "--degree", "3", "--order", "9"]),
    ("grassmannian-k2-n4-d2", ["mirror", "grassmannian", "-k", "2", "-n", "4",
                               "--max-degree", "2", "--verify"]),
    ("grassmannian-k2-n5-d3", ["mirror", "grassmannian", "-k", "2", "-n", "5",
                               "--max-degree", "3", "--verify"]),
    ("grassmannian-k3-n6-d1", ["mirror", "grassmannian", "-k", "3", "-n", "6",
                               "--max-degree", "1", "--verify"]),
    ("vertex-d6-g1", ["vertex", "local-p2", "--max-degree", "6", "--max-genus", "1", "--gv"]),
    ("witten-psi-g2-32", ["witten", "--correlator", "2:3,2", "--psi", "2:3,2"]),
    ("witten-psi-g0-111", ["witten", "--correlator", "0:1,1,1,0,0,0",
                           "--psi", "0:1,1,1,0,0,0"]),
    ("witten-virasoro-2-o5", ["witten", "--virasoro", "2", "--order", "5"]),
    ("witten-g8", ["witten", "--correlator", "8:22"]),
    ("hurwitz-g2-321-elsv", ["hurwitz", "--genus", "2", "--partition", "3,2,1",
                             "--method", "both", "--elsv"]),
    ("w-expand-6", ["w", "--mu", "6", "--expand", "8"]),
    ("w-pair-expand-33-21", ["w", "--mu", "3,3", "--nu", "2,1", "--expand", "6"]),
    ("w-pair-expand-411-3", ["w", "--mu", "4,1,1", "--nu", "3", "--expand", "7"]),
    ("mv-dump-connected-d5-o11", ["mv", "--dump", "connected", "--degree", "5",
                                  "--order", "11"]),
    ("mv-dump-disconnected-d5-o11", ["mv", "--dump", "disconnected", "--degree", "5",
                                     "--order", "11"]),
    ("hurwitz-g3-3211", ["hurwitz", "--genus", "3", "--partition", "3,2,1,1",
                         "--method", "both"]),
    ("quintic-d20", ["mirror", "quintic", "--max-degree", "20"]),
    ("vertex-d8-g2", ["vertex", "local-p2", "--max-degree", "8", "--max-genus", "2", "--gv"]),
    ("grassmannian-k3-n6-d2", ["mirror", "grassmannian", "-k", "3", "-n", "6",
                               "--max-degree", "2", "--verify"]),
    ("grassmannian-k4-n7-d1", ["mirror", "grassmannian", "-k", "4", "-n", "7",
                               "--max-degree", "1", "--verify"]),
    ("vertex-d9-g2", ["vertex", "local-p2", "--max-degree", "9", "--max-genus", "2", "--gv"]),
    ("quintic-d50", ["mirror", "quintic", "--max-degree", "50"]),
]
# the spec path is echoed in params, so these run relative to GOLDEN
TORIC_GOLDENS = [
    ("toric-p4-d3", "toric-p4-spec.json", 3),
    ("toric-p1xp1-d2", "toric-p1xp1-spec.json", 2),
    ("toric-kp2-d6", "toric-kp2-spec.json", 6),
]


def _toric_argv(spec, degree):
    return ["mirror", "toric", "--spec", spec, "--max-degree", str(degree)]


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS)
def test_golden(name, argv):
    code, out = run(argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name,spec,degree", TORIC_GOLDENS)
def test_toric_golden(name, spec, degree, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = run(_toric_argv(spec, degree))
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


# every operation of every module is reachable from some subcommand: each
# row names the function it claims, and the command must call it
OP_COVERAGE = {
    # exact core
    "series_arith": ("series.combine",
                     ["mv", "--check", "pde", "--degree", "2", "--order", "7"]),
    "series_exp_log": ("dense.graded_log",
                       ["mv", "--check", "initial", "--degree", "2", "--order", "8"]),
    "bernoulli": ("qfunc.bernoulli",
                  ["mv", "--check", "lambda-g", "--degree", "1", "--order", "9"]),
    "gv_kernel": ("vertex.cover_table", ["vertex", "local-p2", "--max-degree", "1",
                                         "--max-genus", "1", "--gv"]),
    "qfun_to_lambda": ("qfunc.QFunction.to_lambda", ["w", "--mu", "2", "--expand", "6"]),
    # partition engine
    "enumerate_partitions": ("partitions.enumerate_partitions",
                             ["hurwitz", "--genus", "0", "--partition", "3"]),
    # the Burnside sums read the ribbon recursion's memo; the framed build calls character
    "character": ("partitions.character",
                  ["mv", "--check", "pde", "--degree", "2", "--order", "7"]),
    "skew_schur_principal": ("schur.skew_numerator", ["w", "--mu", "2,1", "--nu", "1"]),
    # chern-simons
    "w_one": ("chern_simons.w_one", ["w", "--mu", "2,1"]),
    "w_pair": ("chern_simons.w_pair", ["w", "--mu", "2", "--nu", "1,1"]),
    # series ring
    # products of series are terms of the one PSeries sum: the log's slices
    "pseries_mul": ("pseries.PSeries._fold",
                    ["mv", "--check", "initial", "--degree", "2", "--order", "8"]),
    "cut_join_linear": ("pseries.cut_join_terms", ["hurwitz", "--genus", "0", "--partition",
                                                   "2,1", "--method", "cutjoin"]),
    # hurwitz / elsv
    "burnside_phi": ("hurwitz.burnside_phi",
                     ["mv", "--check", "elsv-limit", "--degree", "2", "--order", "8"]),
    "hurwitz_number": ("hurwitz.hurwitz_number",
                       ["hurwitz", "--genus", "1", "--partition", "2,1"]),
    "double_hurwitz": ("hurwitz.double_hurwitz",
                       ["mv", "--check", "convolution", "--degree", "2", "--order", "8"]),
    "elsv_I": ("hurwitz.elsv_I", ["hurwitz", "--genus", "0", "--partition", "1,1,1", "--elsv"]),
    "psi_from_asymptotics": ("hurwitz.psi_from_asymptotics", ["witten", "--psi", "1:1"]),
    # framed series
    "mv_R": ("hodge.build_series", ["mv", "--check", "initial", "--degree", "2", "--order", "8"]),
    "mv_pde_residual": ("hodge.pde_residual",
                        ["mv", "--check", "pde", "--degree", "2", "--order", "7"]),
    "mv_initial_value_check": ("hodge.initial_value_report",
                               ["mv", "--check", "initial", "--degree", "2", "--order", "8"]),
    "mv_hodge_extract": ("hodge.hodge_extract",
                         ["mv", "hodge", "--genus", "0", "--partition", "1,1,1"]),
    "lambda_g_check": ("hodge.lambda_g_check",
                       ["mv", "--check", "lambda-g", "--degree", "1", "--order", "9"]),
    "mv_to_elsv_limit": ("hodge.elsv_limit_check",
                         ["mv", "--check", "elsv-limit", "--degree", "2", "--order", "8"]),
    "convolution_check": ("hodge.convolution_check",
                          ["mv", "--check", "convolution", "--degree", "2", "--order", "8"]),
    "two_family_structure": ("hodge._block", ["mv", "--check", "two-partition",
                                              "--degree", "2", "--order", "7"]),
    # vertex / gv
    "local_p2_z": ("vertex.local_p2_z",
                   ["vertex", "local-p2", "--max-degree", "1", "--max-genus", "1"]),
    "extract_gw": ("vertex.extract_gw",
                   ["vertex", "local-p2", "--max-degree", "1", "--max-genus", "1"]),
    "gv_invert": ("vertex.gv_invert", ["vertex", "local-p2", "--max-degree", "1",
                                       "--max-genus", "1", "--gv"]),
    # witten
    "dvv": ("intersections.dvv", ["witten", "--correlator", "0:0,0,0"]),
    "virasoro_residual": ("intersections.virasoro_residual",
                          ["witten", "--virasoro", "1", "--order", "3"]),
    # mirror
    "toric_b_series": ("mirror.toric_b_series", ["mirror", "quintic", "--max-degree", "2"]),
    "candelas": ("mirror.candelas", ["mirror", "quintic", "--max-degree", "2"]),
    # both substitution paths: the Lagrange pass in candelas, and the
    # composition that the round-trip check runs on its own
    "lagrange": ("dense.lagrange", ["mirror", "quintic", "--max-degree", "2"]),
    "compose": ("dense.compose", ["verify-all", "--profile", "full"]),
    "multiple_cover_invert": ("vertex.gv_invert", ["mirror", "quintic", "--max-degree", "2"]),
    "hg_projective": ("mirror.hg_projective", ["mirror", "grassmannian", "-k", "1", "-n", "2",
                                               "--max-degree", "1", "--verify"]),
    "hori_vafa_series": ("mirror.hori_vafa_series", ["mirror", "grassmannian", "-k", "2",
                                                     "-n", "3", "--max-degree", "1", "--verify"]),
    # the one truncated product serves both nilpotent rings
    "truncated_mul_toric": ("nilpotent.mul", ["mirror", "quintic", "--max-degree", "2"]),
    "truncated_mul_grassmannian": ("nilpotent.mul", ["mirror", "grassmannian", "-k", "2", "-n",
                                                     "3", "--max-degree", "1", "--verify"]),
    # cli itself
    "verify_all": ("verify.run_all", ["verify-all"]),
}


def _code(target):
    """The code object of a "module.function" or "module.Class.method" target,
    under any ``lru_cache``."""
    module, *path = target.split(".")
    obj = importlib.import_module(f"dualcalc.{module}")
    for name in path:
        obj = getattr(obj, name)
    return inspect.unwrap(obj).__code__


def _clear_caches():
    """Empty every ``lru_cache`` of the package, so that a call that an
    earlier test cached is made again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("dualcalc."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_toric_coverage(tmp_path):
    spec = {"generators": [{"name": "H", "nilpotency": 5}],
            "line_bundles": [[5]], "divisors": [[1]] * 5}
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(spec))
    code, _ = run(["mirror", "toric", "--spec", str(path), "--max-degree", "1"])
    assert code == 0


@pytest.mark.parametrize("op", sorted(OP_COVERAGE))
def test_op_reachable_from_cli(op):
    target, argv = OP_COVERAGE[op]
    want = _code(target)
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    _clear_caches()
    sys.setprofile(profile)
    try:
        code, _ = run(argv)
    finally:
        sys.setprofile(None)
    assert code == 0, op
    assert want in called, f"{' '.join(argv)} does not call {target}"


# one argv per subcommand and mirror family, a help request, a usage error
# and a verify-all whose candelas-structure check is set to fail (in the
# test below): every exit code the CLI has but 3
MIXED = [
    ["hurwitz", "--genus", "1", "--partition", "2,1", "--method", "both", "--elsv"],
    ["w", "--mu", "2,1", "--nu", "1", "--expand", "3"],
    ["mv", "--check", "initial", "--degree", "2", "--order", "8"],
    ["mv", "--check", "lambda-g", "--degree", "2", "--order", "9"],
    ["mv", "hodge", "--genus", "1", "--partition", "2,1"],
    ["vertex", "local-p2", "--max-degree", "2", "--max-genus", "1", "--gv"],
    ["witten", "--correlator", "1:1", "--psi", "1:1"],
    ["mirror", "quintic", "--max-degree", "3"],
    ["mirror", "grassmannian", "-k", "2", "-n", "3", "--max-degree", "1", "--verify"],
    ["mirror", "grassmannian", "--help"],
    ["hurwitz", "--genus", "0", "--partition", "1,3"],
    ["verify-all", "--profile", "full"],
]


def _without_seconds(out):
    return re.sub(r'"seconds": [0-9.]+', '"seconds": 0', out)


def test_repeated_queries_in_one_process_repeat_their_documents(monkeypatch):
    # the first pass computes the mirror and framed series afresh, the second
    # reads them from the caches: a handler that mutated a cached value, or a
    # parser that kept state between calls, would change a second-pass document
    from dualcalc import hodge, mirror

    monkeypatch.setitem(verify.CHECKS, "candelas-structure",
                        _fails_after_running("candelas-structure"))
    mirror.candelas.cache_clear()
    mirror.hori_vafa_series.cache_clear()
    hodge.build_series.cache_clear()
    first = [run(argv) for argv in MIXED]
    second = [run(argv) for argv in MIXED]
    assert sorted({code for code, _ in first}) == [0, 1, 2]
    for argv, (code1, out1), (code2, out2) in zip(MIXED, first, second):
        assert code1 == code2, argv
        assert _without_seconds(out1) == _without_seconds(out2), argv
    # a cached framed series cannot be changed in place, and its connected
    # series is computed once
    fs = hodge.build_series(2, 9, 1)
    for field in ("families", "caps", "trunc", "disconnected", "connected"):
        with pytest.raises(AttributeError):
            setattr(fs, field, getattr(fs, field))
    assert fs.connected is fs.connected


def test_a_cold_process_loads_no_typing_or_dataclasses():
    # every cold command pays for what ``import dualcalc.cli`` loads; these
    # modules come in only through annotations or a dataclass decorator
    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize", "typing"]
    code = ("import sys, dualcalc.cli; dualcalc.cli.build_parser(); import dualcalc; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


def test_a_process_builds_one_parser(monkeypatch):
    built = []
    real = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    # the parse memo too, or a parsed argv would not reach the parser
    cli._parsed.cache_clear()
    cli.build_parser.cache_clear()
    run(MIXED[0])
    assert built, "the first call builds the parser"
    built.clear()
    cheap = [argv for argv in MIXED if argv[0] not in ("mv", "vertex", "verify-all")]
    for i in range(50):
        run(cheap[i % len(cheap)])
    assert built == []


# repeated queries, one per cached value a warm query reads: parsed arguments,
# W expansions of both kinds, Hodge extractions and the quintic's GV numbers.
# vertex local-p2 is left out: it expands its free energy on every call.
WARM = [
    ["hurwitz", "--genus", "1", "--partition", "2,1", "--method", "both", "--elsv"],
    ["w", "--mu", "2,1", "--expand", "6"],
    ["w", "--mu", "2,1", "--nu", "1", "--expand", "4"],
    ["mv", "--check", "lambda-g", "--degree", "2", "--order", "9"],
    ["mv", "hodge", "--genus", "1", "--partition", "2,1"],
    ["witten", "--correlator", "1:1", "--psi", "1:1"],
    ["mirror", "quintic", "--max-degree", "4"],
    ["mirror", "grassmannian", "-k", "2", "-n", "3", "--max-degree", "1", "--verify"],
]


def test_a_repeated_query_pays_only_for_serialisation(monkeypatch):
    from dualcalc import hodge, vertex

    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(cli._Parser, "parse_args"), (cli._Parser, "parse_plain"),
                        (QFunction, "to_lambda"), (hodge, "framing_prefactor"),
                        (vertex, "gv_invert")]:
        count(owner, name)
    _clear_caches()
    first = [run(argv) for argv in WARM]
    # each counted call but argparse's is on the path of the first pass: a
    # plain argv is read without it
    assert set(calls) == {"parse_plain", "to_lambda", "framing_prefactor", "gv_invert"}
    calls.clear()
    second = [run(argv) for argv in WARM]
    assert calls == Counter()
    assert second == first
    assert {code for code, _out in first} == {0}
    # a parse that raises is never kept: each call parses again
    for argv, code, kind in [(["hurwitz", "--genus", "x", "--partition", "1"], 1, "usage"),
                             (["mirror", "quintic", "-h"], 0, "help")]:
        docs = [run(argv) for _ in range(2)]
        assert calls.pop("parse_args") == 2
        assert docs[0] == docs[1] and docs[0][0] == code
        assert json.loads(docs[0][1])["kind"] == kind


# argv that argparse alone reads, with the documents the argparse-only
# front end printed for them: a help request, an abbreviation, an attached
# value and a value that starts with "-"
ARGPARSE_ONLY = [
    (["hurwitz", "-h"], 0,
     '{"help": "usage: dualcalc hurwitz [-h] --genus GENUS --partition PARTITION\\n'
     '                        [--method {burnside,cutjoin,both}] [--elsv]\\n\\noptions:\\n'
     '  -h, --help            show this help message and exit\\n'
     '  --genus GENUS         at most 6\\n  --partition PARTITION\\n'
     '                        at most 12 boxes\\n  --method {burnside,cutjoin,both}\\n'
     '  --elsv                include the ELSV-normalized values\\n", "kind": "help"}\n'),
    *((["hurwitz", *genus, "--partition", "2,1"], 0,
       '{"checks": [{"name": "oracle-agreement", "pass": true}], "params": {"elsv": false, '
       '"genus": 1, "method": "both", "partition": "2,1"}, "query": "hurwitz", "result": '
       '{"H": "40", "H_burnside": "40", "H_cutjoin": "40", "agree": true}}\n')
      for genus in (["--gen", "1"], ["--genus=1"])),
    (["hurwitz", "--genus", "-1", "--partition", "2,1"], 1,
     '{"error": "genus must be nonnegative", "kind": "usage"}\n'),
]


def test_plain_argv_skip_argparse(monkeypatch):
    calls = []
    real = cli._Parser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", counted)
    cli._parsed.cache_clear()
    plain = [argv for argv in MIXED + WARM if "--help" not in argv]
    assert len(plain) == len(MIXED + WARM) - 1
    for argv in plain:
        run(argv)
    assert calls == []
    for argv, code, doc in ARGPARSE_ONLY:
        assert run(argv) == (code, doc)
        assert calls == [(tuple(argv),)]
        calls.clear()


def test_grassmannian_prints_a_shared_side_once(monkeypatch):
    from dualcalc import mirror

    sides = []
    real = cli._reduced_json
    monkeypatch.setattr(cli, "_reduced_json", lambda side: sides.append(side) or real(side))
    hv = mirror.hori_vafa_series(2, 3, 1)
    assert hv["localization"] is hv["operator"]
    code, doc = run_json(["mirror", "grassmannian", "-k", "2", "-n", "3", "--max-degree",
                          "1", "--verify"])
    assert code == 0 and sides == [hv["operator"]]
    assert doc["result"]["localization"] == doc["result"]["operator"]


def _leaves(parser, words=()):
    """(command words, actions) of each leaf subcommand below ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, child in action.choices.items():
                yield from _leaves(child, (*words, word))
            return
    yield words, parser._actions


def _drawn_value(action):
    """A value for one action: mostly one of its choices or a small text of
    its type, else a bad, empty or negative one."""
    if action.choices is not None:
        good, bad = st.sampled_from(list(action.choices)), st.sampled_from(["bad", ""])
    elif action.type is int:
        good, bad = st.sampled_from("012"), st.sampled_from(["-1", "x", "1.5", ""])
    else:
        good, bad = st.sampled_from(["1", "2,1", "1:1", P4_SPEC]), st.sampled_from(["x", "", "-1"])
    return st.one_of(good, good, good, good, good, bad)


@st.composite
def _drawn_argv(draw):
    """A leaf's command words, its positionals, most of its options in drawn
    order with drawn values, and at times hostile tokens or a repeated
    option, built from the parser's own words, option strings and choices."""
    words, actions = draw(st.sampled_from(list(_leaves(cli.build_parser()))))
    argv = list(words)
    mostly = st.sampled_from([True, True, True, False])
    for action in actions:
        if not action.option_strings and draw(mostly):
            argv.append(draw(_drawn_value(action)))
    options = [a for a in actions if a.option_strings and (a.nargs is None or a.const is True)]
    for action in draw(st.permutations([a for a in options if draw(mostly)])):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs is None:
            argv.append(draw(_drawn_value(action)))
    hostile = ["-h", "--gen", "--genus=1", "-1", "--", "", *argv[len(words):][-2:]]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(hostile)))
    return argv


@settings(max_examples=500, deadline=None)
@given(_drawn_argv())
@example(["hurwitz", "--genus", "1", "--partition", "2,1"])
@example(["mv", "hodge", "--partition", "2,1", "--genus", "1"])
@example(["mirror", "grassmannian", "-n", "3", "-k", "2", "--verify"])
@example(["hurwitz", "--genus", "1", "--partition", "2,1", "--genus", "1"])
def test_a_plain_argv_reads_as_argparse_reads_it(argv):
    parser = cli.build_parser()
    got = parser.parse_plain(argv)
    if got is None:
        return
    assert got == vars(parser.parse_args(argv)), argv
    # main prints the same document, exit code included, when argparse reads
    # the argv; verify-all is stubbed, since only its parse is under test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_all", lambda: {"all_pass": True, "checks": []})
        cli._parsed.cache_clear()
        plain = run(argv)
        mp.setattr(cli._Parser, "parse_plain", lambda self, argv: None)
        cli._parsed.cache_clear()
        assert run(argv) == plain, argv
    cli._parsed.cache_clear()


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 6)
@example(-4, 6)
@example(-7, 1)
@example(12, 4)
def test_ratio_str_prints_the_fraction(v, den):
    assert cli.ratio_str(v, den) == str(Fraction(v, den))


# a fresh process whose GaussianRational constructor fails: no command forms
# one, so ``TauLaurent.c`` is the only package code that does; the framed
# series and the W expansions are held in lambda' = i lambda, with rational
# coefficients
_NO_GAUSSIAN_RATIONAL = """
import io, json, sys
from contextlib import redirect_stdout
from dualcalc import cli, scalars

def refuse(self, *args):
    raise AssertionError("a GaussianRational was formed")

scalars.GaussianRational.__init__ = refuse
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""

# the goldens that only this guard reads, then every other golden
NO_GAUSSIAN_RATIONAL_COMMANDS = [
    ("mv-check-pde-d3", ["mv", "--check", "pde", "--degree", "3", "--order", "9"]),
    ("mv-check-elsv-limit-d3", ["mv", "--check", "elsv-limit", "--degree", "3",
                                "--order", "9"]),
    ("mv-check-convolution-d3", ["mv", "--check", "convolution", "--degree", "3",
                                 "--order", "9"]),
    ("mv-check-lambda-g-d3", ["mv", "--check", "lambda-g", "--degree", "3", "--order", "9"]),
    ("mv-check-two-partition-d2", ["mv", "--check", "two-partition", "--degree", "2",
                                   "--order", "7"]),
    *GOLDEN_COMMANDS,
    *((name, _toric_argv(spec, degree)) for name, spec, degree in TORIC_GOLDENS),
]


def test_framed_and_w_commands_form_no_gaussian_rational():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argvs = [argv for _name, argv in NO_GAUSSIAN_RATIONAL_COMMANDS]
    argvs.append(["verify-all"])
    child = subprocess.run([sys.executable, "-c", _NO_GAUSSIAN_RATIONAL, json.dumps(argvs)],
                           env=env, cwd=GOLDEN, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    *goldens, (verdict_code, verdict) = json.loads(child.stdout)
    for (name, _argv), (code, out) in zip(NO_GAUSSIAN_RATIONAL_COMMANDS, goldens, strict=True):
        assert code == 0, (name, out)
        assert out == (GOLDEN / f"{name}.json").read_text(), name
    assert verdict_code == 0 and json.loads(verdict)["result"]["all_pass"] is True


def _gaussian(text):
    """A printed coefficient, "p/q" or "p/q*i", as a GaussianRational."""
    if text.endswith("*i"):
        return GaussianRational(0, Fraction(text[:-2]))
    return GaussianRational(Fraction(text))


_LAMBDA_PRIME = LambdaSeries(-2, [TauLaurent({0: Fraction(-3, 4), 2: 5}), TauLaurent(),
                                  TauLaurent({-1: 1}), TauLaurent({1: Fraction(7, 6)}),
                                  TauLaurent({0: -2, 3: Fraction(1, 3)})])


@pytest.mark.parametrize("ph", range(-3, 5))
def test_series_json_prints_the_lambda_form(ph):
    doc = cli.series_json(_LAMBDA_PRIME, ph)
    assert (doc["floor"], doc["trunc"]) == (-2, 3)
    got = {int(e): {int(k): _gaussian(v) for k, v in c.items()}
           for e, c in doc["coeffs"].items()}
    assert got == lambda_form(_LAMBDA_PRIME, ph)


# real W values and monomials with numerators of either sign
_QFUN_VALUES = [w_one((2, 1)), w_one((3,)), w_pair((2,), (1,)),
                QFunction.from_factors(ULaurent({3: -2, 0: Fraction(1, 3)}), ((1, 1), (4, 2)))]


@pytest.mark.parametrize("ph", range(-3, 5))
def test_qfun_json_prints_the_phased_value(ph):
    # i^ph f against the phase-carrying model of (-i)^(-ph) f
    for f in _QFUN_VALUES:
        ipow, g = phased(-ph, f)
        assert cli.qfun_json(f, ph) == {
            "ipow": ipow,
            "num": {str(k): str(v) for k, v in sorted(g.num.c.items())},
            "den": {str(k): str(v) for k, v in sorted(g.den.c.items())},
            "variable": "u = q^(1/2)"}


# -- the CLI contract under drawn input ------------------------------------------

def _number(lo, hi, *far):
    """An integer option value: mostly a small one, else one past a limit or
    not an integer."""
    small = st.integers(lo, hi).map(str)
    return st.one_of(small, small, small, st.sampled_from([*map(str, far), "x", "1.5", ""]))


def _partition(top):
    """A partition of at most 3 parts of at most ``top``, a list of small
    integers that may not be one, or malformed text."""
    parts = st.lists(st.integers(1, top), max_size=3)
    return st.one_of(
        parts.map(lambda ps: ",".join(map(str, sorted(ps, reverse=True)))),
        st.lists(st.integers(-1, top), max_size=3).map(lambda ps: ",".join(map(str, ps))),
        st.sampled_from(["1,,2", "2,1,", "a", "1.5", " ", "3;1", "-", "1,2"]))


_PARTITION = _partition(3)
_CORRELATOR = st.one_of(
    st.builds(lambda g, ks: f"{g}:{','.join(map(str, ks))}",
              st.integers(-1, 2), st.lists(st.integers(-1, 3), max_size=3)),
    st.sampled_from(["1", "1:1:1", ":", "a:1", "1:a", "0:", "1:1,,1"]))


def _options(*pairs):
    """argv fragments: each (flag, values) pair present, mostly, or absent."""
    return st.tuples(*(st.one_of(values.map(lambda v, f=flag: [f, v]),
                                 values.map(lambda v, f=flag: [f, v]), st.just([]))
                       for flag, values in pairs)).map(lambda parts: sum(parts, []))


def _flag(name):
    return st.sampled_from([[], [name]])


_COMMANDS = st.one_of(
    st.builds(lambda *parts: ["hurwitz", *sum(parts, [])],
              _options(("--genus", _number(-2, 2, 7, 10 ** 6)), ("--partition", _PARTITION),
                       ("--method", st.sampled_from(["burnside", "cutjoin", "both"] * 2 + ["bad"]))),
              _flag("--elsv")),
    st.builds(lambda opts: ["w", *opts],
              _options(("--mu", _PARTITION), ("--nu", _PARTITION),
                       ("--expand", _number(-1, 9, 65, 10 ** 6)))),
    st.builds(lambda head, opts: ["mv", *head, *opts],
              st.sampled_from([[], [], ["hodge"], ["hodge"], ["bad"]]),
              _options(("--check", st.sampled_from(["pde", "initial", "elsv-limit",
                                                    "convolution", "lambda-g",
                                                    "two-partition", "bad"])),
                       ("--dump", st.sampled_from(["connected", "disconnected"] * 2 + ["bad"])),
                       ("--degree", _number(-1, 3, 9, 10 ** 6)),
                       ("--order", _number(-1, 9, 20, 10 ** 6)),
                       ("--genus", _number(-1, 1, 10 ** 6)),
                       # at most 6 boxes: mv hodge builds through max(--degree, |mu|)
                       ("--partition", _partition(2)))),
    st.builds(lambda geometry, opts, gv: ["vertex", geometry, *opts, *gv],
              st.sampled_from(["local-p2"] * 3 + ["local-p3"]),
              _options(("--max-degree", _number(-1, 3, 10, 10 ** 6)),
                       ("--max-genus", _number(-1, 3, 25, 10 ** 6))),
              _flag("--gv")),
    st.builds(lambda opts: ["witten", *opts],
              _options(("--correlator", _CORRELATOR), ("--psi", _CORRELATOR),
                       ("--virasoro", _number(-1, 3, 7, 10 ** 6)),
                       ("--order", _number(-1, 4, 8, 10 ** 6)))),
    st.builds(lambda opts: ["mirror", "quintic", *opts],
              _options(("--max-degree", _number(-1, 5, 51, 10 ** 6)))),
    st.builds(lambda opts: ["mirror", "toric", *opts],
              _options(("--spec", st.sampled_from([P4_SPEC, str(GOLDEN / "no-such-spec.json"),
                                                   str(GOLDEN / "w-expand.json")])),
                       ("--max-degree", _number(-1, 3, 51, 10 ** 6)))),
    st.builds(lambda opts, verify: ["mirror", "grassmannian", *opts, *verify],
              _options(("-k", _number(1, 3, -1, 5)), ("-n", _number(2, 5, 0, 9)),
                       ("--max-degree", _number(-1, 2, 5, 10 ** 6))),
              _flag("--verify")),
    st.builds(lambda profile: ["verify-all", "--profile", profile],
              st.sampled_from(["bad", "", "quick", "Quick", "full,quick"])),
    st.sampled_from([[sub, "-h"] for sub in ("hurwitz", "w", "mv", "vertex", "witten",
                                             "mirror", "verify-all")]
                    + [["mirror", "quintic", "-h"], [], ["bad"]]),
)


@settings(max_examples=500, deadline=None)
@given(_COMMANDS)
def test_every_drawn_command_prints_one_document(argv):
    # exit 3 is an internal inconsistency: a defect whatever the input
    code, out = run(argv)
    assert code in (0, 1, 2), (argv, out)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    assert isinstance(json.loads(out), dict), argv
