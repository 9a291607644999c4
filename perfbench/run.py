"""Benchmark of the dualcalc verifier, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Children run with the checkout's ``src`` on ``PYTHONPATH``.  With
``--trace 0`` a run makes as many passes of the workload as fit ``--seconds``
on the reference machine and reports the end-to-end metrics, its times
scaled by the host factor ``calibrate.py`` measures next to the work; with
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.  Every
metric is printed by name with its unit and sample count; the last stdout
line is one JSON object.  The run exits 1 if any output was wrong and 2 on a
set-up error.  Full records go to ``.bench_build/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import workloads as wl
from tracer import MODULES

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CHILD = Path(__file__).resolve().parent / "child.py"
COLD = Path(__file__).resolve().parent / "cold.py"
DEADLINE_S = 170          # each workload's run ends inside three minutes
SETUP_REPEATS = 21
SETUP_CAL_SLICES = 20     # calibration slices before each set-up process and after the last
QUERY_BLOCKS = 10         # query-mix pass length, in blocks of wl.BLOCK
# Length of one pass on a 2-core Xeon at 2.1 GHz.  A run makes
# seconds // PASS_S passes (at least one): a fixed amount of work, so the
# sample count, and with it the tail percentile, is the same in every run.
PASS_S = {"verify-full": 15, "framed-frontier": 12, "geometry-frontier": 18,
          "query-mix": 5}

END_TO_END = (
    ("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
    ("query_p50_ms", "ms", "lower"), ("query_tail_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
)

PER_LAYER = tuple(
    [(n, u, "lower") for n, u in (
        ("hurwitz.psi_from_asymptotics.calls", "count"),
        ("hurwitz.psi_from_asymptotics.self_s", "s"),
        ("hurwitz._disconnected_coeff.self_s", "s"),
        ("hurwitz._disconnected_coeff.size", "count"),
        ("hurwitz._bare_polynomial.self_s", "s"),
        ("hurwitz.hurwitz_number.self_s", "s"),
        ("hurwitz.max_sample_size", "count"),
        ("intersections.dvv.calls", "count"),
        ("intersections.dvv.self_s", "s"),
        ("intersections.virasoro_residual.self_s", "s"),
        ("partitions.character.calls", "count"),
        ("partitions.character.self_s", "s"),
        ("partitions.char_cache.size", "count"),
        ("partitions.hook_lengths.calls", "count"),
        ("scalars.GaussianRational.mul.calls", "count"),
        ("scalars.GaussianRational.add.calls", "count"),
        ("series.LambdaSeries.mul.calls", "count"),
        ("series.LambdaSeries.mul.self_s", "s"),
        ("series.LambdaSeries.inverse.self_s", "s"),
        ("series.TauLaurent.mul.calls", "count"),
        ("series.TauLaurent.mul.self_s", "s"),
        ("pseries.PSeries.log.self_s", "s"),
        ("pseries.PSeries.mul.calls", "count"),
        ("pseries.PSeries.mul.self_s", "s"),
        ("pseries.PSeries.cut_join_nonlinear.self_s", "s"),
        ("pseries.PSeries.cut_join_linear.self_s", "s"),
        ("hodge.build_series.self_s", "s"),
        ("hodge.build_series.coeffs", "count"),
        ("hodge.build_series.max_num_bits", "bits"),
        ("hodge.pde_residual.self_s", "s"),
        ("hodge.convolution_check.self_s", "s"),
        ("hodge.elsv_limit_check.self_s", "s"),
        ("hodge.lambda_g_check.self_s", "s"),
        ("qfunc.QFunction.init.calls", "count"),
        ("qfunc.QFunction.init.self_s", "s"),
        ("qfunc.QFunction.init.total_s", "s"),
        ("qfunc.ULaurent.gcd.calls", "count"),
        ("qfunc.ULaurent.gcd.self_s", "s"),
        ("qfunc.ULaurent.divexact.self_s", "s"),
        ("qfunc.ULaurent.mul.self_s", "s"),
        ("qfunc.QFunction.to_lambda.self_s", "s"),
        ("schur.skew_schur_principal.calls", "count"),
        ("schur.skew_schur_principal.self_s", "s"),
        ("chern_simons.w_pair.self_s", "s"),
        ("chern_simons.w_one_lambda.self_s", "s"),
        ("chern_simons.w_pair_lambda.self_s", "s"),
        ("vertex.local_p2_z.self_s", "s"),
        ("vertex.extract_gw.self_s", "s"),
        ("vertex.gv_invert.self_s", "s"),
        ("nilpotent.XPoly.mul.calls", "count"),
        ("nilpotent.XPoly.mul.self_s", "s"),
        ("nilpotent.XPoly.schur_components.self_s", "s"),
        ("nilpotent.XPoly.vandermonde_divide.self_s", "s"),
        ("mirror.hori_vafa_series.self_s", "s"),
        ("mirror.gr_loc_sum.self_s", "s"),
        ("mirror.candelas.self_s", "s"),
        ("cli.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    )]
    + [(n, "ratio", "higher") for n in (
        "hurwitz._disconnected_coeff.hit_ratio",
        "hurwitz.solve.rows_useful_per_tried",
        "intersections._norm.hit_ratio",
        "pseries.cut_join_nonlinear.kept_per_formed",
        "schur.skew_schur_principal.hit_ratio",
        "chern_simons.w_pair.hit_ratio",
        "chern_simons.w_one_lambda.hit_ratio",
        "chern_simons.w_pair_lambda.hit_ratio",
        "trace.coverage_frac",
    )]
    + [(f"verify.{c}.cold_s", "s", "lower") for c in sorted(wl.VERIFY_CHECKS)]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """A controlled environment: the checkout's ``src``, bytecode cached
    outside the tracked tree, fixed hashing, and no DUALCALC_* or other
    PYTHON* settings (so the thread pool never turns on)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "DUALCALC_"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    return env


class Runner:
    """Starts children one at a time and records what each one cost."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def spawn(self, cmd: List[str], stdin: Optional[str] = None) -> dict:
        """Run one child to completion; wall, CPU and max RSS come from
        ``os.wait4``.  A child still running at the deadline is killed."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        status = None
        try:
            if stdin is not None:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            out = proc.stdout.read().decode()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "stdout": out,
                "wall_s": time.perf_counter() - start,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024}

    def dualcalc(self, argv: List[str]) -> dict:
        """One cold command under ``cold.py``; the time its calibration
        slices took is taken out of the run's wall and CPU time."""
        cal_out = BUILD / "calibration.json"
        BUILD.mkdir(exist_ok=True)
        cal_out.unlink(missing_ok=True)
        run = self.spawn([sys.executable, str(COLD), str(cal_out), *argv])
        run["cal_ms"] = json.loads(cal_out.read_text()) if cal_out.is_file() else []
        run["wall_s"] -= sum(run["cal_ms"]) / 1e3
        run["cpu_s"] -= sum(run["cal_ms"]) / 1e3
        return run

    def child(self, args: List[str], request: Optional[dict] = None) -> dict:
        run = self.spawn([sys.executable, str(CHILD), *args],
                         None if request is None else json.dumps(request))
        run["reply"] = None
        if run["code"] == 0:
            try:
                run["reply"] = json.loads(run["stdout"])
            except ValueError:
                pass
        return run


def compile_sources() -> None:
    """Byte-compile once, into the cache prefix, so timings measure import."""
    env = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(CHILD.parent)],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


def machine() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "commit": commit, "loadavg": os.getloadavg()}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """What one pass of a workload cost and whether its outputs were right.
    Times are kept raw and scaled by the host factor of the child that
    spent them."""

    def __init__(self):
        self.load_before = os.getloadavg()
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.scaled_wall_s = self.scaled_cpu_s = 0.0
        self.latencies_ms: List[float] = []
        self.scaled_ms: List[float] = []
        self.attempted = self.failed = 0
        self.errors: List[str] = []
        self.traces: List[dict] = []
        self.cal_ms: List[float] = []
        self.load_after = None

    def factor(self) -> float:
        """Effective host factor of the pass: raw over scaled wall time."""
        return self.wall_s / self.scaled_wall_s if self.scaled_wall_s else 1.0

    def add_child(self, run: dict) -> float:
        """Add one child's cost; returns its host factor (1 for a child
        without calibration slices)."""
        cal = run.get("cal_ms", [])
        factor = calibrate.host_factor(cal) if cal else 1.0
        self.cal_ms += cal
        self.wall_s += run["wall_s"]
        self.cpu_s += run["cpu_s"]
        self.scaled_wall_s += run["wall_s"] / factor
        self.scaled_cpu_s += run["cpu_s"] / factor
        self.rss_mb = max(self.rss_mb, run["rss_mb"])
        return factor

    def add_latency(self, ms: float, factor: float) -> None:
        self.latencies_ms.append(ms)
        self.scaled_ms.append(ms / factor)

    def check(self, argv, code, stdout, first: Dict[tuple, str]) -> None:
        self.attempted += 1
        problems = wl.check_output(argv, code, stdout)
        key, seen = tuple(argv), wl.verdict(stdout)
        if first.setdefault(key, seen) != seen:
            problems.append("repeated query gave a different document")
        self.fail(argv, *problems)

    def fail(self, argv, *problems: str) -> None:
        """Count one failed operation, if there are problems, and keep them."""
        if problems:
            self.failed += 1
            self.errors += [f"{' '.join(argv)}: {p}" for p in problems]

    def done(self) -> "Pass":
        self.load_after = os.getloadavg()
        return self

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "rss_mb": self.rss_mb,
                "scaled_wall_s": self.scaled_wall_s, "scaled_cpu_s": self.scaled_cpu_s,
                "latencies_ms": self.latencies_ms,
                "queries": len(self.latencies_ms), "errors": self.errors,
                "calibration_ms": self.cal_ms, "host_factor": self.factor(),
                "loadavg_before": self.load_before,
                "loadavg_after": self.load_after}


def cold_pass(runner: Runner, commands, spans: Optional[Path], first) -> Pass:
    """Each command in a fresh process, as ``python -m dualcalc`` runs it;
    traced (through child.py, spans written under ``spans``) when ``spans``
    is given, else sampled by ``cold.py`` and scaled by its own host factor
    (every cold command runs long enough for several slices)."""
    p = Pass()
    for i, argv in enumerate(commands):
        if spans is not None:
            run = runner.child(["queries"], {"queries": [argv], "trace": True,
                                             "spans_out": f"{spans}-{i}.json"})
            if run["reply"] is None:
                p.attempted += 1
                p.fail(argv, f"traced child exited with {run['code']}")
                continue
            code, _ms, out = run["reply"]["results"][0]
            p.traces.append(run["reply"]["trace"])
        else:
            run = runner.dualcalc(argv)
            code, out = run["code"], run["stdout"]
        factor = p.add_child(run)
        p.add_latency(run["wall_s"] * 1e3, factor)
        p.check(argv, code, out, first)
    return p.done()


def query_pass(runner: Runner, stream, spans: Optional[Path], first) -> Pass:
    """The whole stream in one fresh child.py process, sampled unless
    traced.  The calibration's own time is taken out of the child's wall
    and CPU time, and every query is scaled by the child's host factor (a
    query is too short to carry slices of its own)."""
    p = Pass()
    request = {"queries": [argv for _fam, argv in stream], "trace": spans is not None}
    if spans is not None:
        request["spans_out"] = f"{spans}-0.json"
    run = runner.child(["queries"], request)
    if run["reply"] is None:
        p.add_child(run)
        p.attempted = p.failed = len(stream)
        p.errors.append(f"query child exited with {run['code']}")
        return p.done()
    run["cal_ms"] = run["reply"]["calibration_ms"]
    run["wall_s"] -= sum(run["cal_ms"]) / 1e3
    run["cpu_s"] -= sum(run["cal_ms"]) / 1e3
    factor = p.add_child(run)
    for (_fam, argv), (code, ms, out) in zip(stream, run["reply"]["results"]):
        p.add_latency(ms, factor)
        p.check(argv, code, out, first)
    if spans is not None:
        p.traces.append(run["reply"]["trace"])
    return p.done()


def run_pass(runner, workload, seed, index, first, traced=False) -> Pass:
    spans = None
    if traced:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        spans = BUILD / "traces" / f"{workload}-seed{seed}"
    if workload == "query-mix":
        stream = wl.query_stream(seed, index, QUERY_BLOCKS)
        return query_pass(runner, stream, spans, first)
    return cold_pass(runner, wl.COLD[workload], spans, first)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: List[float]):
    """Highest percentile with at least ten samples beyond it, and its value
    (the largest sample when there are too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_times(runner: Runner):
    """Set-up times and the calibration slices made between them."""
    code = "import dualcalc.cli as c; c.build_parser()"
    times, cal_ms = [], []
    for _ in range(SETUP_REPEATS):
        cal_ms += calibrate.slices(SETUP_CAL_SLICES)
        run = runner.spawn([sys.executable, "-c", code])
        if run["code"] != 0:
            raise RuntimeError("dualcalc.cli does not import")
        times.append(run["wall_s"])
    cal_ms += calibrate.slices(SETUP_CAL_SLICES)
    return times, cal_ms


def end_to_end(passes: List[Pass], setup: List[float],
               setup_factor: float = 1.0, scale: bool = True) -> Dict[str, tuple]:
    """Metric -> (value, sample count).  With ``scale`` the times are the
    ones scaled by host factors (``setup_factor`` for set-up)."""
    sf = setup_factor if scale else 1.0
    lat = [x for p in passes for x in (p.scaled_ms if scale else p.latencies_ms)]
    walls = [p.scaled_wall_s if scale else p.wall_s for p in passes]
    pct, tail_ms = tail(lat)
    return {
        "wall_s": (statistics.median(walls), len(passes)),
        "cpu_s": (statistics.median(p.scaled_cpu_s if scale else p.cpu_s
                                    for p in passes), len(passes)),
        "peak_rss_mb": (max(p.rss_mb for p in passes), len(passes)),
        "query_p50_ms": (statistics.median(lat), len(lat)),
        "query_tail_ms": (tail_ms, len(lat), pct),
        "queries_per_s": (len(lat) / sum(walls), len(lat)),
        "setup_s": (statistics.median(setup) / sf, len(setup)),
    }


def merge_traces(traces: List[dict]) -> dict:
    """Sum the summaries of several traced children (cache sizes: max)."""
    out = {"stats": {}, "caches": {}, "counters": {}, "top_level_s": 0.0,
           "spans_write_s": 0.0}
    for tr in traces:
        for k, v in tr["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in tr["caches"].items():
            acc = out["caches"].setdefault(k, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += v["hits"]
            acc["misses"] += v["misses"]
            acc["size"] = max(acc["size"], v["size"])
        for k, v in tr["counters"].items():
            if "max_" in k or k.endswith(".size"):
                out["counters"][k] = max(out["counters"].get(k, v), v)
            else:
                out["counters"][k] = out["counters"].get(k, 0) + v
        out["top_level_s"] += tr["top_level_s"]
        out["spans_write_s"] += tr["spans_write_s"]
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: dict, untraced_wall: float, traced_wall: float,
                  cold: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from a merged trace summary.  The traced wall
    time excludes writing the spans out, which happens after the work."""
    stats, caches, counters = tr["stats"], tr["caches"], tr["counters"]
    traced_wall -= tr["spans_write_s"]
    handlers = sum(v[1] for k, v in stats.items() if k.startswith("cli._cmd_"))
    derived = {
        "hurwitz.solve.rows_useful_per_tried": _ratio(
            counters.get("hurwitz.solve.rows_useful", 0),
            counters.get("hurwitz.solve.rows_tried", 0)),
        "pseries.cut_join_nonlinear.kept_per_formed": _ratio(
            counters.get("pseries.cut_join_nonlinear.kept", 0),
            counters.get("pseries.cut_join_nonlinear.formed", 0)),
        "cli.overhead_s": stats.get("cli.main", [0, 0.0])[1] - handlers,
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1,
        "trace.coverage_frac": _ratio(tr["top_level_s"], traced_wall),
    }
    for m in MODULES:
        derived[f"{m}.self_s"] = sum(v[2] for k, v in stats.items()
                                     if k.startswith(m + "."))
    for c, secs in cold.items():
        derived[f"verify.{c}.cold_s"] = secs
    out = {}
    for name, _unit, _better in PER_LAYER:
        key, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif name in counters:
            value = counters[name]
        elif stat in ("calls", "total_s", "self_s"):
            value = stats.get(key, [0, 0.0, 0.0])[("calls", "total_s", "self_s").index(stat)]
        elif stat == "hit_ratio":
            c = caches.get(key, {"hits": 0, "misses": 0})
            value = _ratio(c["hits"], c["hits"] + c["misses"])
        elif stat == "size":
            value = caches.get(key, {"size": 0})["size"]
        else:
            value = 0
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, runner: Runner) -> dict:
    """Untraced passes worth about ``seconds`` seconds -> end-to-end metrics."""
    setup, setup_cal = setup_times(runner)
    setup_factor = calibrate.host_factor(setup_cal)
    first: Dict[tuple, str] = {}
    passes = [run_pass(runner, workload, seed, i, first)
              for i in range(max(1, seconds // PASS_S[workload]))]
    values = end_to_end(passes, setup, setup_factor)
    raw = end_to_end(passes, setup, scale=False)
    record = {"passes": [p.record() for p in passes], "setup_s": setup,
              "setup_calibration_ms": setup_cal, "setup_host_factor": setup_factor,
              "metrics": {k: list(v) for k, v in values.items()},
              "raw_metrics": {k: list(v) for k, v in raw.items()}}
    units = {n: u for n, u, _b in END_TO_END}
    lines = []
    if workload == "query-mix":
        streams = [wl.query_stream(seed, i, QUERY_BLOCKS) for i in range(len(passes))]
        record["shares"] = [wl.stream_shares(s) for s in streams]
        repeat = statistics.mean(s["repeat_share"] for s in record["shares"])
        fams = ", ".join(f"{f} {v:.2f}" for f, v in
                         record["shares"][0]["families"].items())
        lines.append(f"{workload} repeat share {repeat:.3f}; family shares {fams}")
    factors = " ".join(f"{p.factor():.3f}" for p in passes)
    lines.append(f"{workload} host factor: set-up {setup_factor:.3f}, passes {factors}"
                 f" (reference slice {calibrate.REFERENCE_MS} ms)")
    for name, v in values.items():
        extra = f", p{v[2]:.2f}" if name == "query_tail_ms" else ""
        if raw[name][0] != v[0]:
            extra += f"; unscaled {raw[name][0]:.6g}"
        lines.append(f"{workload} {name} = {v[0]:.6g} {units[name]} (n={v[1]}{extra})")
    metrics = {n: {"value": values[n][0], "unit": units[n]} for n, _u, _b in END_TO_END}
    return {"passes": passes, "record": record, "lines": lines, "metrics": metrics}


def measure_traced(workload: str, seed: int, runner: Runner) -> dict:
    """One untraced and one traced pass, plus (for verify-full) every
    acceptance check cold in its own process -> per-layer metrics."""
    first: Dict[tuple, str] = {}
    plain = run_pass(runner, workload, seed, 0, first)
    traced = run_pass(runner, workload, seed, 0, first, traced=True)
    passes = [plain, traced]
    cold: Dict[str, float] = {}
    if workload == "verify-full":
        checks = Pass()
        for name in sorted(wl.VERIFY_CHECKS):
            run = runner.child(["check", name])
            checks.attempted += 1
            reply = run["reply"]
            if reply is None or reply["pass"] is not True:
                checks.fail(["check", name], "failed in its own process")
                continue
            cold[name] = reply["seconds"]
        passes.append(checks.done())
    tr = merge_traces(traced.traces)
    values = layer_metrics(tr, plain.wall_s, traced.wall_s, cold)
    units = {n: u for n, u, _b in PER_LAYER}
    shares = sorted(((values[f"{m}.self_s"], m) for m in MODULES), reverse=True)
    lines = [f"{workload} share of traced wall time, self in {m}.* = "
             f"{_ratio(s, traced.wall_s):.3f} ({s:.3f} s)" for s, m in shares if s]
    lines += [f"{workload} {n} = {values[n]:.6g} {units[n]} (n=1)" for n, _u, _b in PER_LAYER]
    record = {"passes": [p.record() for p in passes], "trace": tr, "cold_checks": cold}
    metrics = {n: {"value": values[n], "unit": units[n]} for n, _u, _b in PER_LAYER}
    return {"passes": passes, "record": record, "lines": lines, "metrics": metrics}


def run_one(workload: str, seed: int, seconds: int, trace: bool,
            runner: Runner) -> dict:
    runner.deadline = time.monotonic() + DEADLINE_S
    res = (measure_traced(workload, seed, runner) if trace
           else measure(workload, seed, seconds, runner))
    passes = res["passes"]
    res["attempted"] = sum(p.attempted for p in passes)
    res["failed"] = sum(p.failed for p in passes)
    res["errors"] = [e for p in passes for e in p.errors]
    res["record"].update(workload=workload, seed=seed, seconds=seconds,
                         traced=trace, machine=machine(),
                         attempted=res["attempted"], failed=res["failed"],
                         errors=res["errors"])
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(res["record"], indent=1))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dualcalc" / "cli.py").is_file():
        print(f"no dualcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        compile_sources()
        runner = Runner()
        names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace), runner)
                   for w in names}
    except (RuntimeError, subprocess.CalledProcessError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(f"# machine {json.dumps(machine())}")
    for w, res in results.items():
        for line in res["lines"]:
            print(line)
        for err in res["errors"]:
            print(f"{w} FAILED {err}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{n}": m for w, r in results.items()
                   for n, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
