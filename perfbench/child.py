"""Worker process of the dualcalc benchmark.

Two modes, both run in a fresh interpreter started by ``run.py``:

``child.py queries``
    Reads ``{"queries": [argv, ...], "trace": bool, "spans_out": path}`` as
    JSON on stdin, runs each argv through ``dualcalc.cli.main`` in this one
    process with stdout captured, and prints one JSON line with
    ``[exit code, milliseconds, captured stdout]`` per query.  Untraced,
    a ``calibrate.Sampler`` runs for the whole stream: its slice times are
    returned as ``calibration_ms`` and the slices that fell inside a query
    are taken out of that query's milliseconds.  With tracing on, the tracer
    is installed before the first query, its summary is added to the
    output, and its spans are written to ``spans_out``.

``child.py check NAME``
    Runs one acceptance check of ``dualcalc.verify`` on the full profile
    and prints its verdict and in-process seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import calibrate
from tracer import Tracer


def _observe_sample(tr, args, result, parent):
    if parent == "hurwitz._bare_polynomial":
        tr.raise_to("hurwitz.max_sample_size", sum(args[1]))


def _observe_adds_rank(tr, args, result, parent):
    tr.bump("hurwitz.solve.rows_tried")
    if result:
        tr.bump("hurwitz.solve.rows_useful")


def _observe_mul_parts(tr, args, result, parent):
    if parent == "pseries.PSeries.cut_join_nonlinear":
        tr.bump("pseries.cut_join_nonlinear.formed", len(args[0].co))
        tr.bump("pseries.cut_join_nonlinear.kept", len(result.co))


def _observe_build(tr, args, result, parent):
    coeffs, bits = 0, 0
    for ls in result.disconnected.co.values():
        for tau in ls.co:
            for v in tau.c.values():
                coeffs += 1
                bits = max(bits, v.re.numerator.bit_length(),
                           v.im.numerator.bit_length())
    tr.bump("hodge.build_series.coeffs", coeffs)
    tr.raise_to("hodge.build_series.max_num_bits", bits)


OBSERVERS = {
    "hurwitz.elsv_I": _observe_sample,
    "hurwitz._adds_rank": _observe_adds_rank,
    "pseries.PSeries.mul_parts": _observe_mul_parts,
    "hodge.build_series": _observe_build,
}


def run_queries(request: dict) -> dict:
    from dualcalc import cli, partitions

    tracer = None
    if request.get("trace"):
        tracer = Tracer(observers=OBSERVERS)
        tracer.install()
    sampler = calibrate.Sampler()
    results = []
    try:
        with contextlib.ExitStack() as stack:
            if tracer is None:
                stack.enter_context(sampler)
            for argv in request["queries"]:
                buf = io.StringIO()
                start, spent = time.perf_counter(), sampler.spent_ms
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                ms = (time.perf_counter() - start) * 1e3 - (sampler.spent_ms - spent)
                results.append([code, ms, buf.getvalue()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"results": results, "calibration_ms": sampler.slices}
    if tracer is not None:
        tracer.counters["partitions.char_cache.size"] = len(partitions._char_cache)
        out["trace"] = tracer.summary()
        start = time.perf_counter()
        if request.get("spans_out"):
            with open(request["spans_out"], "w") as fh:
                json.dump(tracer.spans, fh, separators=(",", ":"))
        # spent after the last query; run.py takes it out of the traced wall
        out["trace"]["spans_write_s"] = time.perf_counter() - start
    return out


def run_check(name: str) -> dict:
    from dualcalc import verify

    start = time.perf_counter()
    ok, _detail = verify.CHECKS[name]("full")
    return {"name": name, "pass": bool(ok),
            "seconds": time.perf_counter() - start}


def main(argv) -> int:
    if argv[:1] == ["queries"]:
        out = run_queries(json.load(sys.stdin))
    elif len(argv) == 2 and argv[0] == "check":
        out = run_check(argv[1])
    else:
        print("usage: child.py queries < request.json | child.py check NAME",
              file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
