"""Self-tests of the benchmark's own code.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, aggregate, nearest_rank, self_times, union_length  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_deterministic_regular_connected(self):
        a = gen.circulant_swap_regular(60, 6, seed="1")
        self.assertEqual(a, gen.circulant_swap_regular(60, 6, seed="1"))
        self.assertNotEqual(a, gen.circulant_swap_regular(60, 6, seed="2"))
        gen.check_simple_regular_connected(a, 6)
        circulant = [{(v + k) % 60 for k in (-3, -2, -1, 1, 2, 3)} for v in range(60)]
        self.assertNotEqual(a, circulant)

    def test_rejects_bad_graphs(self):
        with self.assertRaises(ValueError):
            gen.circulant_swap_regular(10, 3, seed="1")
        two_triangles = [{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}]
        with self.assertRaisesRegex(ValueError, "disconnected"):
            gen.check_simple_regular_connected(two_triangles, 2)
        with self.assertRaisesRegex(ValueError, "degree"):
            gen.check_simple_regular_connected(two_triangles, 3)

    def test_graph6_matches_llycurv_reader(self):
        from llycurv.graphio import from_graph6

        for adj in (gen.paley_prime_adjacency(13), gen.circulant_swap_regular(70, 4, seed="3")):
            g = from_graph6(gen.graph6(adj))
            self.assertEqual([tuple(g.neighbors(v)) for v in range(g.n)], [tuple(sorted(r)) for r in adj])

    def test_feasible_tuples_match_scan(self):
        from llycurv.certify import scan_parameters

        self.assertEqual(gen.srg_feasible_tuples(120), [r.params.as_tuple() for r in scan_parameters(120)])

    def test_capped_distance(self):
        cycle = [{(v - 1) % 10, (v + 1) % 10} for v in range(10)]
        self.assertEqual([gen.capped_distance(cycle, 0, v) for v in range(6)], [0, 1, 2, 3, 3, 3])


def span(name, start, end, parent=-1, command="c", tag=None):
    return [name, start, end, parent, command, tag]


class SpanArithmeticTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(union_length([]), 0)
        self.assertEqual(union_length([(1, 3), (2, 5), (7, 8)]), 5)
        self.assertEqual(union_length([(0, 10), (2, 3)]), 10)

    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 3.0, 0),
            span("b", 2.0, 5.0, 0),  # overlaps a: covered time counts once
            span("c", 7.0, 8.0, 0),
            span("a.child", 1.5, 2.0, 1),
        ]
        self.assertEqual(self_times(spans), [5.0, 1.5, 3.0, 1.0, 0.5])

    def test_aggregate(self):
        spans = [
            span("root", 0.0, 4.0),
            span("x", 0.0, 1.0, 0, tag=3),
            span("x", 1.0, 3.0, 0, tag=4),
            span("y", 3.0, 4.0, 0, tag="inconclusive"),
            span("p", 5.0, 6.0, command="probe:z", tag=True),
        ]
        stats = aggregate(spans)
        self.assertEqual((stats["x"].calls, stats["x"].self_s, stats["x"].counted), (2, 3.0, 7))
        self.assertEqual(stats["root"].self_s, 0.0)
        self.assertEqual(stats["y"].outcomes["inconclusive"], 1)
        self.assertEqual(stats["p"].outcomes[True], 1)

    def test_nearest_rank_leaves_ten_samples_above_p90(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(nearest_rank(values, 50), 50.0)
        p90 = nearest_rank(values, 90)
        self.assertEqual(p90, 90.0)
        self.assertEqual(sum(v > p90 for v in values), 10)
        self.assertEqual(nearest_rank([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            nearest_rank([], 50)

    def test_patched_records_nested_layer_calls_and_restores(self):
        import llycurv.graphs
        import llycurv.transport
        from llycurv.families import paley_graph

        original = llycurv.transport.decompose_edge
        tracer = Tracer()
        with tracer.patched([("transport", "lly_curvature", None), ("graphs", "decompose_edge", None)]):
            tracer.command = "t"
            llycurv.transport.lly_curvature(paley_graph(13), 0, 1)
        self.assertIs(llycurv.transport.decompose_edge, original)
        self.assertIs(llycurv.graphs.decompose_edge, original)
        names = [(s[0], s[3], s[4]) for s in tracer.spans]
        self.assertEqual(names, [("transport.lly_curvature", -1, "t"), ("graphs.decompose_edge", 0, "t")])


class CacheClearTest(unittest.TestCase):
    def test_clears_caches_behind_the_tracer(self):
        from llycurv.fields import make_field
        from llycurv.residues import square_index_set

        square_index_set(make_field(7))
        with Tracer().patched([("fields", "make_field", None)]):
            run.clear_llycurv_caches()
        self.assertEqual(make_field.cache_info().currsize, 0)
        self.assertEqual(square_index_set.cache_info().currsize, 0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(w.name, w.why) for w in run.WORKLOADS.values()],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [entry[:3] for entry in run.PER_LAYER],
        )


if __name__ == "__main__":
    unittest.main()
