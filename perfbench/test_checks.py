"""Tests of the text-comparing output checks: each passes on consistent
output and fails on a tampered copy.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import checks

CLI_OUTPUT = """mpcgs: 1 locus/loci, 12 sequences, 200 total sites, initial theta 1
  locus data         200 sites
  backend rayon, scalar kernel (auto; host cpu: sse2)

  iter   driving-theta      estimate   accept-rate   mean ln P(D|G)
     1        1.000000      0.674374         0.592        -1335.315
     2        0.674374      0.691275         0.610        -1334.894

final estimate of theta: 0.691275
"""

SERVE_OUTPUT = """mpcgs serve: 2 job(s), 2 worker(s) on the rayon pool, quantum 64
[a] started
[b] started
[a] EM round 0: driving theta 1.000000 -> estimate 0.800000
[a] finished: theta = 0.800000
[b] finished: theta = 1.250000

drained 2 job(s) in 0.010s: 200.00 jobs/s, latency p50 0.005s p99 0.010s, 0 failed
"""


def replay_op(**overrides):
    op = {
        "rows": [["1", "1.000000", "0.674374", "0.592", "-1335.315"],
                 ["2", "0.674374", "0.691275", "0.610", "-1334.894"]],
        "theta": "0.691275",
        "eq26_deviation": 4e-7,
        "pruning_deviation": 3e-16,
        "backend": "rayon",
        "kernel": "scalar",
    }
    op.update(overrides)
    return op


class CliChecks(unittest.TestCase):
    def setUp(self):
        self.rows, self.theta = checks.parse_cli_output(CLI_OUTPUT)

    def test_parse(self):
        self.assertEqual(len(self.rows), 2)
        self.assertEqual(self.rows[1][2], "0.691275")
        self.assertEqual(self.theta, "0.691275")

    def test_r1(self):
        self.assertEqual(checks.check_r1("op", self.rows, self.theta, replay_op()), [])
        tampered = replay_op(theta="0.691276")
        self.assertTrue(checks.check_r1("op", self.rows, self.theta, tampered))
        rows = [list(r) for r in replay_op()["rows"]]
        rows[0][3] = "0.593"
        self.assertTrue(checks.check_r1("op", self.rows, self.theta, replay_op(rows=rows)))
        engine = checks.printed_engine(CLI_OUTPUT)
        self.assertEqual(engine, ("rayon", "scalar"))
        self.assertEqual(checks.check_r1("op", self.rows, self.theta, replay_op(), engine), [])
        simd = replay_op(kernel="simd+avx2+fma")
        self.assertTrue(checks.check_r1("op", self.rows, self.theta, simd, engine))

    def test_r2_and_r3(self):
        self.assertEqual(checks.check_r2("op", replay_op()), [])
        self.assertTrue(checks.check_r2("op", replay_op(eq26_deviation=3e-4)))
        self.assertTrue(checks.check_r2("op", replay_op(eq26_deviation=float("nan"))))
        self.assertEqual(checks.check_r3("op", replay_op()), [])
        self.assertTrue(checks.check_r3("op", replay_op(pruning_deviation=2e-6)))

    def test_l1(self):
        truth = {"theta": 1.0, "mle": 0.70}
        good = [("a", "0.691275", truth), ("b", "0.720000", truth), ("c", "0.900000", truth)]
        self.assertEqual(checks.check_l1(good), [])
        # Gross errors in one estimation: twice the MLE, or 0.
        self.assertTrue(checks.check_l1(good + [("d", "2.000000", truth)]))
        self.assertTrue(checks.check_l1(good + [("d", "0.000000", truth)]))
        # A systematic 15 % bias, each estimation within the per-op bound.
        biased = [(label, f"{float(t) * 1.15:.6f}", truth) for label, t, truth in good]
        self.assertTrue(checks.check_l1(biased))

    def test_l2(self):
        resumed = CLI_OUTPUT.replace("     1        1.000000      0.674374         0.592"
                                     "        -1335.315\n", "")
        rows, theta = checks.parse_cli_output(resumed)
        self.assertEqual(checks.check_l2("op", self.rows, self.theta, rows, theta), [])
        tampered = resumed.replace("0.610", "0.611")
        rows, theta = checks.parse_cli_output(tampered)
        self.assertTrue(checks.check_l2("op", self.rows, self.theta, rows, theta))
        self.assertTrue(checks.check_l2("op", self.rows, self.theta, [], theta))


class ServeChecks(unittest.TestCase):
    def test_s1(self):
        finished, failed = checks.parse_serve_output(SERVE_OUTPUT)
        self.assertEqual(checks.check_s1("d", finished, failed, 2, 0), [])
        self.assertTrue(checks.check_s1("d", finished, failed, 3, 0))
        self.assertTrue(checks.check_s1("d", finished, failed, 2, 1))
        broken = SERVE_OUTPUT.replace("[b] finished: theta = 1.250000", "[b] FAILED: boom")
        finished, failed = checks.parse_serve_output(broken)
        self.assertTrue(checks.check_s1("d", finished, failed, 2, 0))

    def test_s2(self):
        finished, _ = checks.parse_serve_output(SERVE_OUTPUT)
        alone = [{"name": "a", "theta": "0.800000"}, {"name": "b", "theta": "1.250000"}]
        self.assertEqual(checks.check_s2("d", finished, alone), [])
        alone[1]["theta"] = "1.250001"
        self.assertTrue(checks.check_s2("d", finished, alone))


if __name__ == "__main__":
    unittest.main()
