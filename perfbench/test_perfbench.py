#!/usr/bin/env python3
"""Tests of the benchmark itself: the spec, the output checks, the seeds.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. The first test run builds the program
like run.py does; the fault-injection tests then take about a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args):
    """Run run.py; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    lines = proc.stdout.strip().split("\n")
    try:
        return proc.returncode, json.loads(lines[-1])
    except ValueError:
        return proc.returncode, None


class SpecTest(unittest.TestCase):
    def test_names_units_and_bounds_are_valid(self):
        spec = run.SPEC
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names + run.UNGATED, run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])

    def test_no_link_path_or_index_option(self):
        for name in os.listdir(HERE):
            if name.endswith((".py", ".cpp", ".txt")) and name != os.path.basename(__file__):
                with open(os.path.join(HERE, name)) as f:
                    text = f.read()
                for knob in ("use_streaming", "--streaming", "--index", "streaming_link"):
                    self.assertNotIn(knob, text, "%s passes %s" % (name, knob))


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build_program()

    def test_clean_run_reports_every_end_to_end_metric(self):
        code, result = bench("--workload", "serve-point", "--seconds", "1")
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, run.END_TO_END)
        for value in result["metrics"].values():
            self.assertGreater(value["value"], 0)

    def test_corrupted_export_fails_the_run(self):
        code, result = bench("--workload", "build-wide", "--seconds", "0",
                             "--test-hook", "corrupt-export")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_reference_digest_fails_the_run(self):
        with open(run.REFERENCES) as f:
            references = json.load(f)
        references["build-wide"]["42"] = "0123456789abcdef"
        os.makedirs(run.WORK, exist_ok=True)
        wrong = os.path.join(run.WORK, "wrong-references.json")
        with open(wrong, "w") as f:
            json.dump(references, f)
        code, result = bench("--workload", "build-wide", "--seconds", "0",
                             "--references", wrong)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_tampered_response_fails_the_run(self):
        code, result = bench("--workload", "serve-point", "--seconds", "1",
                             "--test-hook", "tamper-response")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_different_seeds_give_different_inputs(self):
        def inputs(seed):
            return run.driver(["inputs", "--seed", seed])[0]

        first, again, other = inputs(1), inputs(1), inputs(2)
        self.assertEqual(first, again)
        self.assertNotEqual(first["world"], other["world"])
        self.assertNotEqual(first["requests"], other["requests"])


if __name__ == "__main__":
    unittest.main()
