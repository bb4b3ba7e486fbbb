"""Seconds-long self-test of the benchmark harness.

Run from the repository root:  python3 perfbench/selftest.py

Covers the span self-time arithmetic, the quartile helper, the per-call
gate (it must reject a doctored failing report), the keying of reference
outputs on the code under test, the seeded config text and the wrapping of
names that ``cli`` imported from other modules.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import unittest
from pathlib import Path

from run import (SRC, WORK, call_problems, code_digest, layer_metrics,
                 quartiles, reference_path)
from tracer import Tracer, install
from workloads import WORKLOADS, config_text, shipped_text


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # outer [0, 10] holds inner [1, 4] and inner [5, 9]; the second
        # inner holds leaf [6, 7].
        tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
        leaf = tracer.wrap("b.leaf", lambda: None)

        def inner_body(nested):
            if nested:
                leaf()

        inner = tracer.wrap("b.inner", inner_body)
        outer = tracer.wrap("a.outer", lambda: (inner(False), inner(True)))
        outer()
        s = tracer.summary()
        self.assertEqual(s["a.outer"], {"calls": 1, "s": 10, "self_s": 3})
        self.assertEqual(s["b.inner"], {"calls": 2, "s": 7, "self_s": 6})
        self.assertEqual(s["b.leaf"], {"calls": 1, "s": 1, "self_s": 1})
        self.assertEqual(list(tracer.span_parent), [-1, 0, 0, 2])

    def test_recursive_span_counted_once(self):
        # outer [0, 8] holds inner [2, 3]: self times 7 + 1.
        tracer = Tracer(clock=FakeClock([0, 2, 3, 8]))

        def body(depth):
            if depth:
                rec(depth - 1)

        rec = tracer.wrap("a.rec", body)
        rec(1)
        s = tracer.summary()["a.rec"]
        self.assertEqual(s, {"calls": 2, "s": 8, "self_s": 8})

    def test_span_closed_when_call_raises(self):
        tracer = Tracer(clock=FakeClock([0, 5]))

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("a.boom", boom)()
        self.assertEqual(tracer.stack, [])
        self.assertEqual(tracer.summary()["a.boom"]["s"], 5)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 5.9, 2.0]
        q1, med, q3 = quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value(self):
        self.assertEqual(quartiles([2.5]), (2.5, 2.5, 2.5))


def passing_result(workload):
    return {
        "wall_s": 1.0,
        "report": {"overall": True, "records": [
            {"name": n, "observed": 0.0, "pass": True}
            for n in workload.checks]},
        "files": {"report.json": [10, "ab"]},
    }


class GateTest(unittest.TestCase):
    workload = WORKLOADS["euler_shifted"]

    def test_passing_call(self):
        reference = {"files": {"report.json": [10, "ab"]}}
        self.assertEqual(
            call_problems(self.workload, passing_result(self.workload),
                          reference), [])

    def test_rejects_doctored_failing_report(self):
        result = passing_result(self.workload)
        result["report"]["records"][1]["pass"] = False
        result["report"]["overall"] = False
        problems = call_problems(self.workload, result, {})
        self.assertEqual(len(problems), 2)

    def test_rejects_missing_or_renamed_check(self):
        result = passing_result(self.workload)
        result["report"]["records"].pop()
        self.assertTrue(call_problems(self.workload, result, {}))
        result = passing_result(self.workload)
        result["report"]["records"][0]["name"] = "other"
        self.assertTrue(call_problems(self.workload, result, {}))

    def test_rejects_changed_bytes_and_counters(self):
        result = passing_result(self.workload)
        result["counters"] = {"integrators.steps": 12000}
        reference = {"files": {"report.json": [10, "cd"]},
                     "counters": {"integrators.steps": 11999}}
        self.assertEqual(len(call_problems(self.workload, result,
                                           reference)), 2)

    def test_coverage_leaves_out_run_experiment_self_time(self):
        spans = {"cli.run_experiment": {"calls": 1, "s": 10.0, "self_s": 4.0},
                 "integrators.integrate_autonomous": {
                     "calls": 1, "s": 6.0, "self_s": 6.0}}
        result = {"wall_s": 10.0, "scale": 0.5, "files": {},
                  "trace": {"spans": spans, "counts": {}}}
        m = layer_metrics(result, untraced_wall=4.0)
        self.assertEqual(m["trace.coverage"], (0.6, "ratio"))
        self.assertEqual(m["trace.wall_ratio"], (1.25, "ratio"))
        self.assertEqual(m["cli.run_experiment.self_s"], (2.0, "s"))

    def test_rejects_crashed_call(self):
        self.assertEqual(call_problems(self.workload, {"error": "boom"}, {}),
                         ["boom"])


class ReferenceKeyTest(unittest.TestCase):
    def test_changed_source_does_not_inherit_reference(self):
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            work = Path(tmp)
            pkg = work / "src" / "fastslow"
            (pkg / "__pycache__").mkdir(parents=True)
            (pkg / "cli.py").write_text("A = 1\n")
            before = code_digest(pkg)
            (pkg / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"x")
            self.assertEqual(code_digest(pkg), before)
            old = reference_path(work, "euler_shifted", 3, before)
            old.parent.mkdir()
            old.write_text('{"files": {}}')
            (pkg / "cli.py").write_text("A = 2\n")
            after = code_digest(pkg)
            self.assertNotEqual(after, before)
            new = reference_path(work, "euler_shifted", 3, after)
            self.assertNotEqual(new, old)
            self.assertFalse(new.exists())
            (pkg / "cli.py").write_text("A = 1\n")
            self.assertEqual(reference_path(work, "euler_shifted", 3,
                                            code_digest(pkg)), old)


class SeedTest(unittest.TestCase):
    def test_seed_zero_is_shipped_text(self):
        for workload in WORKLOADS.values():
            self.assertEqual(config_text(workload, SRC, 0),
                             shipped_text(SRC, workload.experiment))

    def test_other_seeds_move_only_initial_data_within_box(self):
        for workload in WORKLOADS.values():
            shipped = shipped_text(SRC, workload.experiment).splitlines()
            text = config_text(workload, SRC, 7)
            self.assertEqual(text, config_text(workload, SRC, 7))
            self.assertNotEqual(text, config_text(workload, SRC, 8))
            box = dict(workload.jitter)
            for old, new in zip(shipped, text.splitlines(), strict=True):
                if old == new:
                    continue
                key = new.split("=")[0].strip()
                self.assertIn(key, box)
                olds = [float(v) for v in old.split("=")[1].split(",")]
                news = [float(v) for v in new.split("=")[1].split(",")]
                for a, b in zip(olds, news, strict=True):
                    self.assertLessEqual(abs(a - b), box[key])


class InstallTest(unittest.TestCase):
    def test_wraps_imported_names_and_counts_a_small_run(self):
        sys.path.insert(0, str(SRC))
        import fastslow.cli as cli
        import fastslow.integrators as integrators
        tracer = Tracer()
        install(tracer)
        for workload in WORKLOADS.values():
            self.assertEqual(shipped_text(SRC, workload.experiment),
                             cli.shipped_config_text(workload.experiment))
        derivatives = sys.modules["fastslow._derivatives"]
        for here, there, name in ((cli, integrators, "integrate_autonomous"),
                                  (integrators, derivatives, "jacobian")):
            self.assertIs(getattr(here, name), getattr(there, name))
            self.assertTrue(hasattr(getattr(here, name), "__wrapped__"))
        text = (shipped_text(SRC, "euler")
                .replace("horizon = 100.0", "horizon = 0.5")
                .replace("formats = csv, json", "formats = csv"))
        config = cli.parse_config(text)
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            report = cli.run_experiment(config, base_dir=tmp)
            files = {p.name: [p.stat().st_size, ""]
                     for p in (Path(tmp) / config.output_dir).iterdir()}
        self.assertTrue(report.overall)
        result = {"wall_s": 1.0, "scale": 1.0, "files": files,
                  "trace": {"spans": tracer.summary(),
                            "counts": dict(tracer.counts)}}
        m = layer_metrics(result, untraced_wall=0.5)
        # 50 steps of the shifted flow, then 50 + 50 for the equivalence.
        self.assertEqual(m["integrators.steps"][0], 150)
        self.assertEqual(m["_derivatives.jacobian.calls"][0], 150)
        self.assertEqual(m["integrators.newton_updates_per_step"][0], 1.0)
        # Each step makes two residuals and a six-evaluation Jacobian;
        # each of the three runs adds one first guess and one stored
        # derivative per node.
        self.assertEqual(m["integrators.rhs_calls"][0], 8 * 150 + 3 * 52)
        self.assertEqual(m["trace.wall_ratio"][0], 2.0)
        self.assertEqual(m["cli.output_bytes"][0],
                         sum(size for size, _ in files.values()))
        self.assertGreater(m["cli.emit_csv.s"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
