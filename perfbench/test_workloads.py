"""Tests of the benchmark's input generators.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The benchmark's seed must fully determine the program's inputs, and the
serve stream must keep the deadlines and recurring jobs real streams have.
"""
import hashlib
import re
import unittest

import workloads


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class SplitMixTest(unittest.TestCase):
    def test_reference_output(self):
        # First output of splitmix64 seeded with 0 (Vigna's reference code).
        self.assertEqual(workloads.SplitMix64(0).next_u64(), 0xE220A8397B1DCDAF)


class StreamTest(unittest.TestCase):
    def stream_jobs(self, seed):
        text = workloads.generate("serve-mixed", seed)
        return [line for line in text.splitlines() if not line.startswith("#")]

    def test_same_seed_gives_byte_identical_stream(self):
        for seed in (1, 2, 77):
            self.assertEqual(workloads.generate("serve-mixed", seed),
                             workloads.generate("serve-mixed", seed))

    def test_seed_changes_stream(self):
        self.assertNotEqual(workloads.generate("serve-mixed", 1),
                            workloads.generate("serve-mixed", 2))

    def test_stream_is_pinned(self):
        # The generator is part of the benchmark definition: changing its
        # output changes every serve-mixed baseline.
        self.assertEqual(
            sha(workloads.generate("serve-mixed", 1))[:16], "e5fc9ec345ef667a")

    def test_deadlines_priorities_and_recurring_jobs(self):
        for seed in range(1, 6):
            jobs = self.stream_jobs(seed)
            self.assertEqual(len(jobs), workloads.SERVE["serve-mixed"]["count"])
            deadlines = sum("@deadline=" in j for j in jobs) / len(jobs)
            prios = sum("@prio=" in j for j in jobs) / len(jobs)
            self.assertTrue(0.10 < deadlines < 0.30, deadlines)
            self.assertTrue(0.20 < prios < 0.40, prios)
            bodies = [re.sub(r"@\S+ ", "", j) for j in jobs]
            self.assertLess(len(set(bodies)), len(bodies) // 4)

    def test_arrivals_never_go_backwards(self):
        at = [int(re.search(r"@at=(\d+)", j).group(1))
              for j in self.stream_jobs(3)]
        self.assertEqual(at, sorted(at))
        self.assertGreater(at[-1], at[0])


class ArgumentFileTest(unittest.TestCase):
    def seeds(self, name, seed):
        text = workloads.generate(name, seed)
        return [int(re.search(r"-s (\d+)", line).group(1))
                for line in text.splitlines()]

    def test_same_seed_gives_byte_identical_file(self):
        for name in workloads.ENSEMBLE:
            self.assertEqual(workloads.generate(name, 5),
                             workloads.generate(name, 5))
            self.assertNotEqual(workloads.generate(name, 5),
                                workloads.generate(name, 6))

    def test_argument_file_is_pinned(self):
        self.assertEqual(
            sha(workloads.generate("xs-fig6a", 1))[:16], "10bca9425e6ee1e4")

    def test_fig6_instances_have_distinct_seeds(self):
        for name in ("xs-fig6a", "amg-fig6b"):
            seeds = self.seeds(name, 3)
            self.assertEqual(len(seeds), 64)
            self.assertEqual(len(set(seeds)), 64)

    def test_replicas_cover_four_inputs_equally(self):
        seeds = self.seeds("xs-replica-setup", 3)
        self.assertEqual(len(seeds), 64)
        self.assertEqual(sorted(seeds.count(s) for s in set(seeds)),
                         [16, 16, 16, 16])


if __name__ == "__main__":
    unittest.main()
