"""Self-tests of the benchmark's own machinery.

    python3 -m unittest perfbench.selftest      (from the checkout root)

They check the SCC oracle against a brute-force closure, the tail and
throughput arithmetic, the reference comparison rules, that a perturbed reference raises ``failed_frac`` above 0,
that the tracer wraps every binding of a public function and restores them,
that the coverage check fails when spans are missing, and that the benchmark
refuses to run where the library sources are absent.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402  (pins BLAS threads first)

_PROBLEM = bench.use_checkout_sources()
if _PROBLEM:
    raise unittest.SkipTest(_PROBLEM)

from perfbench import graphs, inputs, ops, tracing  # noqa: E402


def _closure_classes(n, edges):
    reach = [set() for _ in range(n)]
    for i, j in edges:
        reach[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set().union(*(reach[j] for j in reach[i])) - reach[i]
            if extra:
                reach[i] |= extra
                changed = True
    cyclic = sorted({tuple(sorted(j for j in reach[i] if i in reach[j]))
                     for i in range(n) if i in reach[i]})
    terminal = [c for c in cyclic if reach[c[0]] <= set(c)]
    return [list(c) for c in cyclic], [list(c) for c in terminal]


class OracleTest(unittest.TestCase):
    def test_scc_matches_brute_force_closure(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 12)
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 3 * n))}
            self.assertEqual(graphs.basic_sets(n, edges), _closure_classes(n, edges))

    def test_prune_starved(self):
        # 0 -> 1 -> 2 (starved), 3 <-> 4, 5 -> 3
        edges = [(0, 1), (1, 2), (3, 4), (4, 3), (5, 3)]
        self.assertEqual(graphs.prune_starved(6, edges), [3, 4, 5])


class CompareTest(unittest.TestCase):
    def test_rules(self):
        ref = {"w": "1/3", "n": 2, "x": 0.5, "l": ["a", "b"], "ok": True}
        self.assertEqual(ops.compare(ref, dict(ref, added=1)), [])
        self.assertEqual(ops.compare(ref, dict(ref, x=0.5 * (1 + 1e-12))), [])
        for bad in (dict(ref, w="2/3"), dict(ref, n=3), dict(ref, x=0.51),
                    dict(ref, l=["a"]), dict(ref, ok=1),
                    {k: v for k, v in ref.items() if k != "l"}):
            self.assertNotEqual(ops.compare(ref, bad), [], bad)


class MetricTest(unittest.TestCase):
    def test_rate_weights_each_shape_by_the_schedule(self):
        # Shape "a" is 3 of 4 schedule entries and takes 1 s (median of
        # 1, 1 and a slow 9); shape "b" takes 5 s.  4 ops per 3*1 + 5 s.
        ops_list = [(inputs.Case(0, "a", 1, shape=("a",)), None, None, None, t)
                    for t in (1.0, 9.0, 1.0)]
        ops_list.append((inputs.Case(0, "b", 1, shape=("b",)), None, None, None, 5.0))
        self.assertAlmostEqual(
            bench.ops_per_s_at_mix(ops_list, {("a",): 3, ("b",): 1}), 0.5)

    def test_tail_leaves_ten_ops_beyond(self):
        value, percentile, beyond = bench.tail([float(i) for i in range(40)])
        self.assertEqual((value, beyond), (29.0, 10))
        self.assertAlmostEqual(percentile, 75.0)


class ReferenceTest(unittest.TestCase):
    WORKLOAD = "blockmap"
    OPS = 5

    def _run(self):
        make_cases, _, run, _, _ = ops.WORKLOADS[self.WORKLOAD]
        work = bench.WORK_DIR / "selftest-reference"
        shutil.rmtree(work, ignore_errors=True)
        (work / "in").mkdir(parents=True)
        self.addCleanup(shutil.rmtree, work, True)
        cases = make_cases(ops.DEFAULT_SEED, str(work / "in"),
                           bench.CORPUS[self.WORKLOAD])
        records, _ = bench.closed_loop(cases, run, work / "ops", count=self.OPS)
        return records

    def test_perturbed_reference_raises_failed_frac(self):
        path = bench.REFERENCE_DIR / f"{self.WORKLOAD}.json.gz"
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            reference = json.load(handle)["cases"]
        records = self._run()
        failures, _ = bench.check_records(self.WORKLOAD, records, reference)
        self.assertEqual(failures, [])

        perturbed = json.loads(json.dumps(reference))
        weights = perturbed["1"]["report"]["stationary"][0]["weights"]
        label = sorted(weights)[0]
        weights[label] = "1/7" if weights[label] != "1/7" else "1/9"
        failures, _ = bench.check_records(self.WORKLOAD, records, perturbed)
        self.assertEqual(len(failures), 1)
        self.assertGreater(len(failures) / len(records), 0)

        # A key the reference holds but the output lacks: a removed key.
        removed = json.loads(json.dumps(reference))
        removed["2"]["system"]["dropped"] = 0
        failures, _ = bench.check_records(self.WORKLOAD, records, removed)
        self.assertEqual(len(failures), 1)


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        from tractable_dyn import cli, markov, relation, two_alphabet
        import tractable_dyn
        original = relation.basic_sets
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in (relation, markov, two_alphabet, cli, tractable_dyn):
                self.assertIsNot(module.basic_sets, original, module.__name__)
                self.assertIs(module.basic_sets.__wrapped__, original)
            tracer.op = 0
            rel = relation.FiniteRelation(("a", "b"), frozenset({(0, 1), (1, 0)}))
            cover = markov.uniform_cover(rel)
            markov.tractability_report_subshift(
                cover, markov.Distribution.uniform(2))
        finally:
            tracer.uninstall()
        self.assertIs(relation.basic_sets, original)
        self.assertIs(markov.basic_sets, original)
        names = [s[0] for s in tracer.spans]
        self.assertIn("relation.basic_sets", names)
        self.assertIn("markov.validate_cover", names)
        self.assertEqual(tracer.counts["relation.elements"], 2)
        inclusive, self_by_layer = tracing.span_seconds(tracer.spans)
        self.assertGreaterEqual(inclusive["markov.stationary_distribution"], 0)
        self.assertTrue(all(v >= 0 for v in self_by_layer.values()))

    def test_coverage_fails_without_spans(self):
        problems = tracing.coverage_problems(tracing.Tracer(), "subshift")
        self.assertIn("no span for relation.restrict on subshift", problems)

    def test_every_per_layer_metric_is_reported(self):
        root = Path(__file__).resolve().parent.parent
        declared = {m["name"] for m in
                    json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
        reported = set(tracing.per_layer_metrics(tracing.Tracer(), 1, 0, 0.0))
        self.assertEqual(declared, reported)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        work = bench.WORK_DIR / "selftest-inputs"
        shutil.rmtree(work, ignore_errors=True)
        self.addCleanup(shutil.rmtree, work, True)
        texts = []
        for side in ("a", "b"):
            (work / side).mkdir(parents=True)
            cases = inputs.plmap_cases(3, str(work / side), 12)
            texts.append([Path(c.files["input"]).read_text() for c in cases])
        self.assertEqual(texts[0], texts[1])


class RefusesWithoutSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        root = Path(__file__).resolve().parent.parent
        bare = bench.WORK_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plmap",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
