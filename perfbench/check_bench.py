"""The benchmark's own tests.

    python3 perfbench/check_bench.py          # about two minutes

Not named test_*.py, so the repository's test run does not collect them:
the short runs below take minutes (a run makes at least two passes, and two
fiber-p5 passes alone take about 25 s).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_hopfgal()

import hopfgal as hg  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def wrapped_attributes() -> list[str]:
    """Attributes of loaded hopfgal modules and classes that hold a
    benchmark wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "hopfgal" and not modname.startswith("hopfgal."):
            continue
        for name, val in vars(mod).items():
            owners = [(name, val)]
            if isinstance(val, type):
                owners += [(f"{name}.{c}", v) for c, v in vars(val).items()]
            found += [f"{modname}.{n}" for n, v in owners
                      if getattr(v, "__wrapped_by_perfbench__", False)]
    return found


def _run(workload, trace, seconds=1, seed=7, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class ShortRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = _run(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertTrue(all(m["value"] > 0 for m in
                                            res["metrics"].values()))

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
        try:
            shutil.copytree(
                HERE, os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = _run("twist-p3", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class InProcess(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(run.OUT, f"check-{os.getpid()}")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _scan_workload(self, seed=3):
        """fiber-p5 cut down to its `hopfgal scan` job, the quickest."""
        wl = workloads.make("fiber-p5", seed, self.workdir)
        wl.jobs = [job for job in wl.jobs if job[0] == "fiber.scan"]
        return wl

    def _with_probe(self, wl, seen):
        """Add a job to every pass that records the wrapped attributes."""
        def probe():
            seen.append(wrapped_attributes())
            return [], 0
        wl.jobs = wl.jobs + [("probe", probe)]

    def test_no_wrapper_untraced_and_none_left_after_tracing(self):
        seen = []
        wl = self._scan_workload()
        self._with_probe(wl, seen)
        run.run_passes(wl, 0)
        self.assertEqual(seen, [[]] * run.MIN_PASSES)
        originals = {n: getattr(hg, n) for n in ("simples", "scan", "Fiber")}
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertTrue(wrapped_attributes())
            self.assertIsNot(hg.simples, originals["simples"])
            jobs, _, _ = run.run_passes(self._scan_workload(seed=4), 0, tr)
        finally:
            tr.remove()
        self.assertEqual(wrapped_attributes(), [])
        for n, obj in originals.items():
            self.assertIs(getattr(hg, n), obj)
        summary = tr.summary()
        self.assertGreater(summary["fn_calls"]["speclab.scan"], 0)
        for job in summary["jobs"].values():
            self.assertGreaterEqual(job["cover"], 0.9)
        per = run.one_pass(summary, jobs)
        self.assertEqual(per["fn_calls"]["speclab.scan"], 1)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.make_inputs(name, 11),
                                 workloads.make_inputs(name, 11))
                self.assertNotEqual(workloads.make_inputs(name, 11),
                                    workloads.make_inputs(name, 12))

    def test_moved_points_keep_their_stratum(self):
        f9 = hg.Field(3, 2)
        for seed in range(5):
            for pt in workloads.make_inputs("fiber-p5", seed)["scan"]:
                got = hg.classify_point(
                    "sl2", [f9.scalar(v) for v in pt["point"]]).tag
                self.assertEqual(got, pt["stratum"])

    def test_planted_failures_are_counted_and_the_run_goes_on(self):
        """Each pass: a job raising HopfgalError, a scan job checked
        against a planted wrong expectation, and a passing job."""
        real = workloads.expected_fiber

        def planted(p, stratum):
            exp = real(p, stratum)
            if stratum == "zero":
                exp["simple_dims"] = [p]
            return exp

        def raises():
            raise hg.errors.HopfgalError("planted")

        wl = self._scan_workload()
        wl.jobs = ([("raises", raises)] + wl.jobs
                   + [("passes", lambda: ([], 0))])
        workloads.expected_fiber = planted
        try:
            jobs, passes, _ = run.run_passes(wl, 0)
        finally:
            workloads.expected_fiber = real
        self.assertEqual(passes, run.MIN_PASSES)
        self.assertEqual([j["kind"] for j in jobs],
                         ["raises", "fiber.scan", "passes"] * passes)
        self.assertIn("HopfgalError: planted", jobs[0]["problems"][0])
        self.assertIn("simple_dims", jobs[1]["problems"][0])
        self.assertEqual(jobs[2]["problems"], [])
        metrics = run.end_to_end_metrics([1.0], jobs)
        self.assertAlmostEqual(metrics["ok_frac"]["value"], 1 / 3)


if __name__ == "__main__":
    unittest.main()
