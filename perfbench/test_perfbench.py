"""Tests of the benchmark itself: span arithmetic, correctness gate, tracer
install/uninstall, seeded streams, host-speed scaling and metric names.

    python3 -m pytest perfbench      # or: python3 perfbench/test_perfbench.py
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import re
import signal
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def cli_run(argv):
    from dualcalc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [("a", 0.0, 10.0, -1),   # children b and d cover 3 + 4
                 ("b", 1.0, 4.0, 0),     # child c covers 1
                 ("c", 2.0, 3.0, 1),
                 ("d", 5.0, 9.0, 0)]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_online_aggregate_matches_recorded_spans(self):
        tr = tracer.Tracer()
        inner = tr.wrap("m.inner", lambda: sum(range(2000)))

        def mid():
            return inner() + inner()

        mid_w = tr.wrap("m.mid", mid)
        outer = tr.wrap("m.outer", lambda: mid_w() + inner())
        outer()
        spans = [tuple(s) for s in tr.spans]
        selfs = tracer.self_times(spans)
        by_name = {}
        for (name, *_rest), s in zip(spans, selfs):
            by_name[name] = by_name.get(name, 0.0) + s
        for name, (calls, _total, self_s) in tr.stats.items():
            self.assertAlmostEqual(self_s, by_name[name], places=9)
        self.assertEqual(tr.stats["m.inner"][0], 3)
        self.assertAlmostEqual(sum(selfs), tr.top_level_s, places=9)


class CorrectnessGate(unittest.TestCase):
    def test_real_outputs_pass(self):
        for argv in (["mirror", "quintic", "--max-degree", "4"],
                     ["witten", "--correlator", "1:1", "--psi", "1:1"],
                     ["hurwitz", "--genus", "0", "--partition", "2,1",
                      "--method", "both"]):
            code, out = cli_run(argv)
            self.assertEqual(wl.check_output(argv, code, out), [], argv)

    def test_wrong_reference_value_counts_as_failed(self):
        argv = ["mirror", "quintic", "--max-degree", "3"]
        code, out = cli_run(argv)
        wrong = (2875, 609251, 317206375)
        with mock.patch.object(wl, "QUINTIC_N", wrong):
            p = run.Pass()
            p.check(argv, code, out, {})
        self.assertEqual((p.attempted, p.failed), (1, 1))
        self.assertIn("quintic instanton counts differ", p.errors[0])

    def test_bad_documents_fail(self):
        argv = ["witten", "--correlator", "1:1", "--psi", "1:1"]
        code, out = cli_run(argv)
        self.assertTrue(wl.check_output(argv, 2, out))
        self.assertTrue(wl.check_output(argv, code, out + out))
        failing = out.replace('"pass": true', '"pass": false')
        self.assertTrue(wl.check_output(argv, code, failing))
        self.assertTrue(wl.check_output(argv, code, '{"checks": []}'))

    def test_repeated_query_must_repeat_its_verdict(self):
        argv = ["mirror", "quintic", "--max-degree", "2"]
        code, out = cli_run(argv)
        p, first = run.Pass(), {}
        p.check(argv, code, out, first)
        p.check(argv, code, out.replace("2875", "2876"), first)
        self.assertEqual((p.attempted, p.failed), (2, 1))

    def test_verdict_ignores_check_seconds(self):
        a = '{"checks": [{"name": "x", "pass": true, "seconds": 1.5}]}'
        b = '{"checks": [{"name": "x", "pass": true, "seconds": 2.0}]}'
        self.assertEqual(wl.verdict(a), wl.verdict(b))

    def test_genus0_formula(self):
        self.assertEqual(wl.genus0_hurwitz((1,)), 1)
        self.assertEqual(wl.genus0_hurwitz((1, 1)), wl.Fraction(1, 2))


def _snapshot():
    """Every attribute the tracer may replace, by identity."""
    import importlib

    out = {}
    for short in tracer.MODULES + ("__init__",):
        name = tracer.PACKAGE if short == "__init__" else f"{tracer.PACKAGE}.{short}"
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj):
                for k, v in vars(obj).items():
                    out[(name, attr, k)] = v
            elif isinstance(obj, dict) and attr.isupper():
                for k, v in obj.items():
                    out[(name, attr, "[]", k)] = v
    return out


class InstallUninstall(unittest.TestCase):
    def test_uninstall_restores_unwrapped_code(self):
        from dualcalc import cli, hurwitz, scalars

        before = _snapshot()
        tr = tracer.Tracer(observers={})
        tr.install()
        try:
            self.assertTrue(hasattr(hurwitz.hurwitz_number, "__wrapped__"))
            self.assertTrue(hasattr(cli.HANDLERS["w"], "__wrapped__"))
            self.assertTrue(hasattr(scalars.GaussianRational.__mul__, "__wrapped__"))
            code, out = cli_run(["hurwitz", "--genus", "1", "--partition", "2",
                                 "--method", "both"])
            self.assertEqual(code, 0)
            self.assertGreater(tr.stats["cli.main"][0], 0)
            self.assertGreater(tr.stats["hurwitz.hurwitz_number"][0], 0)
        finally:
            tr.uninstall()
        after = _snapshot()
        changed = [k for k in before if after.get(k) is not before[k]]
        self.assertEqual(changed, [])
        self.assertFalse(hasattr(hurwitz.hurwitz_number, "__wrapped__"))
        self.assertEqual(json.loads(out)["result"]["agree"], True)


class Streams(unittest.TestCase):
    def test_seeded_stream(self):
        a = wl.query_stream(7, 0, 3)
        self.assertEqual(a, wl.query_stream(7, 0, 3))
        self.assertNotEqual(a, wl.query_stream(8, 0, 3))
        self.assertNotEqual(a, wl.query_stream(7, 1, 3))
        pool = wl.query_pool()
        self.assertTrue(all(argv in pool[fam] for fam, argv in a))
        shares = wl.stream_shares(a)["families"]
        self.assertEqual(shares, {f: q / wl.BLOCK for f, q in sorted(wl.FAMILY_QUOTA)})

    def test_dealt_families_cover_their_pools(self):
        stream = wl.query_stream(3, 0, 10)
        for fam in wl.DEALT:
            pool = wl.query_pool()[fam]
            dealt = [argv for f, argv in stream if f == fam]
            counts = [dealt.count(argv) for argv in pool]
            self.assertLessEqual(max(counts) - min(counts), 1, fam)
        grassmannian = [argv for f, argv in stream if f == "grassmannian"]
        self.assertEqual(len(grassmannian) % len(wl.GRASSMANNIAN), 0)

    def test_repeat_share(self):
        s = [("a", ["x"]), ("a", ["y"]), ("a", ["x"]), ("a", ["x"])]
        self.assertEqual(wl.stream_shares(s)["repeat_share"], 0.5)

    def test_tail_keeps_ten_samples_beyond(self):
        pct, value = run.tail([float(i) for i in range(100)])
        self.assertEqual(value, 89.0)
        self.assertEqual(pct, 90.0)
        self.assertEqual(run.tail([3.0, 1.0]), (100.0, 3.0))


class HostScaling(unittest.TestCase):
    def _pass(self, factor, wall_s, latencies_ms):
        """Two children of equal cost: one whose slices give ``factor``,
        one without slices (factor 1)."""
        p = run.Pass()
        child = {"cal_ms": [calibrate.REFERENCE_MS * factor] * 4,
                 "wall_s": wall_s / 2, "cpu_s": wall_s / 2, "rss_mb": 1.0}
        for c in (child, dict(child, cal_ms=[])):
            f = p.add_child(c)
            for ms in latencies_ms:
                p.add_latency(ms, f)
        return p

    def test_times_are_divided_by_their_childs_factor(self):
        passes = [self._pass(3.0, 12.0, [3.0, 9.0]), self._pass(0.5, 4.0, [1.0, 2.0])]
        scaled = run.end_to_end(passes, [0.3, 0.3, 0.3], setup_factor=1.5)
        raw = run.end_to_end(passes, [0.3, 0.3, 0.3], setup_factor=1.5, scale=False)
        self.assertEqual([p.scaled_wall_s for p in passes], [8.0, 6.0])
        self.assertEqual(scaled["wall_s"][0], 7.0)
        self.assertEqual(scaled["cpu_s"][0], 7.0)
        self.assertEqual(sorted(passes[0].scaled_ms), [1.0, 3.0, 3.0, 9.0])
        self.assertEqual(scaled["query_p50_ms"][0], 2.5)
        self.assertEqual(scaled["queries_per_s"][0], 8 / 14.0)
        self.assertAlmostEqual(scaled["setup_s"][0], 0.2)
        self.assertEqual(raw["wall_s"][0], 8.0)
        self.assertEqual(raw["queries_per_s"][0], 8 / 16.0)
        self.assertEqual(raw["setup_s"][0], 0.3)
        self.assertEqual(passes[0].factor(), 1.5)

    def test_sampler_slices_during_work_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with calibrate.Sampler() as sampler:
            end = time.perf_counter() + 8 * calibrate.INTERVAL_S
            while time.perf_counter() < end:
                sum(range(1000))
        self.assertGreaterEqual(len(sampler.slices), 4)
        self.assertAlmostEqual(sampler.spent_ms, sum(sampler.slices))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Manifest(unittest.TestCase):
    def test_metric_names(self):
        names = [n for n, _u, _b in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(NAME.fullmatch(n), n)

    def test_manifest_matches_the_code(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(manifest), {"command", "paths", "run_seconds",
                                         "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(wl.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in manifest["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in manifest["per_layer"]], list(run.PER_LAYER))
        for m in manifest["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
