"""Each workload's output check fails on a corrupted output.

    python3 -m unittest discover -s perfbench/tests

Runs from the root of a checkout, about a minute in all: the golden-c5 test
makes one full pass of that workload against a golden with one coefficient
changed.
"""

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import algebra_verify  # noqa: E402
import chern_weil_c5  # noqa: E402
import cli_lagrangian  # noqa: E402
import golden_c5  # noqa: E402
from run import cleanup  # noqa: E402
from seeds import DEFAULT_SEED  # noqa: E402
from sexpansion.goldens import Golden  # noqa: E402
from sexpansion.scalars import Q2, ScalarExpr  # noqa: E402


class GoldenC5(unittest.TestCase):
    def test_changed_golden_coefficient_fails(self):
        state = golden_c5.setup(DEFAULT_SEED)
        golden = state["golden"]
        first, rest = golden.text.split("\n", 1)
        self.assertTrue(first.startswith("3 a0 1/2 "))
        state["golden"] = Golden(golden.name, golden.dimension,
                                 first.replace("3 a0 1/2 ", "3 a0 1/3 ", 1)
                                 + "\n" + rest)
        problems = golden_c5.check(state, golden_c5.run_pass(state))
        self.assertTrue(problems)


class AlgebraVerify(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.state = algebra_verify.setup(DEFAULT_SEED)
        cls.out = algebra_verify.run_pass(cls.state)

    def test_outputs_pass(self):
        self.assertEqual(algebra_verify.check(self.state, self.out), [])

    def test_changed_structure_constant_fails(self):
        name, n, L, R, axioms, route = next(
            r for r in self.out["reductions"] if r[:2] == ("ads3", 2))
        key = min(R.constants)
        row = dict(R.constants[key])
        c = min(row)
        row[c] = row[c] + Q2(1)
        saved = R.constants[key]
        R.constants[key] = row
        try:
            problems = algebra_verify.check(self.state, self.out)
        finally:
            R.constants[key] = saved
        self.assertTrue(any(f"h_reduce({n}, {name})" in p for p in problems),
                        problems)


class ChernWeilC5(unittest.TestCase):
    def test_changed_monomial_fails(self):
        state = chern_weil_c5.setup(DEFAULT_SEED)
        out = chern_weil_c5.run_pass(state)
        self.assertEqual(chern_weil_c5.check(state, out), [])
        mono = min(out["dL"].terms, key=str)
        out["dL"].terms[mono] = out["dL"].terms[mono] + ScalarExpr.const(1)
        self.assertTrue(chern_weil_c5.check(state, out))


class CliLagrangian(unittest.TestCase):
    def test_changed_monomial_and_scale_fail(self):
        state = cli_lagrangian.setup(DEFAULT_SEED)
        try:
            state["order"] = ["c5_general", "c3"]
            out = cli_lagrangian.run_pass(state)
            self.assertEqual(cli_lagrangian.check(state, out), [])

            # one w,e monomial of the general-alpha c5 Lagrangian
            path = out["c5_general"][2] / "lagrangian.json"
            payload = json.loads(path.read_text())
            for item in payload["form"]["monomials"]:
                if all(s.lstrip("d")[0] in "we"
                       for s in item["monomial"].split("^")):
                    q = Fraction(item["coeff"][0]["q"])
                    item["coeff"][0]["q"] = str(q + 1)
                    break
            path.write_text(json.dumps(payload))
            problems = cli_lagrangian.check(state, out)
            self.assertTrue(any("c5_general" in p for p in problems), problems)

            # the solved scale of the c3 comparison
            path = out["c3"][2] / "comparison.txt"
            path.write_text(path.read_text().replace("scale=('1', 1)",
                                                     "scale=('2', 1)", 1))
            problems = cli_lagrangian.check(state, out)
            self.assertTrue(any(p.startswith("c3:") for p in problems), problems)

            # a child that exits non-zero
            out["c3"] = (1, "verification failure", out["c3"][2])
            self.assertTrue(any("exit 1" in p for p in cli_lagrangian.check(state, out)))
        finally:
            cleanup(state)


if __name__ == "__main__":
    unittest.main()
