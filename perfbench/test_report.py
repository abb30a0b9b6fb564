"""Tests of the benchmark's own arithmetic and checks (no build needed):

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from pathlib import Path

import report


def span(id_, parent, start, end, name="x.y", it=0):
    return {"id": id_, "parent": parent, "iter": it, "start": start,
            "end": end, "name": name}


def iteration(output, **num):
    return {"name": "iteration", "wall_s": 1.0, "text": {"output": output},
            "num": num, "error": ""}


TABLE3 = {"pscan_cycles": 1_081_344, "pscan_predicted": 1_081_344,
          "gather_clean": 1, "tp1_cycles": 3_211_266, "tp4_cycles": 6_356_994}


def table3_report(outputs, seed=report.DEFAULT_SEED, checks=()):
    return {"workload": "table3_transpose", "seed": seed,
            "iterations": [iteration(o, **TABLE3) for o in outputs],
            "checks": list(checks)}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0),
                 span(3, 2, 2.0, 3.0)]
        own = report.self_times(spans)
        self.assertAlmostEqual(own[1], 7.0)   # 10 - child 2's 3
        self.assertAlmostEqual(own[2], 2.0)   # 3 - grandchild's 1
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlapping_children_count_once(self):
        # Two parallel workers overlap on [3, 5]: the parent loses 6, not 8.
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0),
                 span(3, 1, 3.0, 7.0)]
        self.assertAlmostEqual(report.self_times(spans)[1], 4.0)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, 2.0, 6.0), span(2, 1, 0.0, 3.0),
                 span(3, 1, 5.0, 9.0)]
        self.assertAlmostEqual(report.self_times(spans)[1], 2.0)

    def test_shares_of_wall_by_component(self):
        spans = [span(1, 0, 0.0, 10.0, "bench.iteration"),
                 span(2, 1, 0.0, 6.0, "core.mesh_machine.fft2d"),
                 span(3, 1, 6.0, 8.0, "driver.render"),
                 span(4, 0, 20.0, 30.0, "driver.freeze", it=-1)]
        shares = report.self_shares(spans)
        self.assertAlmostEqual(shares["core.mesh_machine"], 60.0)
        self.assertAlmostEqual(shares["driver"], 20.0)  # set-up excluded
        self.assertAlmostEqual(shares["bench"], 20.0)

    def test_component_names(self):
        self.assertEqual(report.component("core.sca.gather"), "core.sca")
        self.assertEqual(report.component("driver.point"), "driver")
        self.assertEqual(report.component("bench.iteration"), "bench")


class Timing(unittest.TestCase):
    def test_median_with_sample_count(self):
        t = report.timing([3.0, 1.0, 2.0])
        self.assertEqual(t, {"median": 2.0, "samples": 3})

    def test_quartiles_once_there_are_four_samples(self):
        t = report.timing([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((t["median"], t["samples"]), (2.5, 4))
        self.assertLess(t["p25"], t["median"])
        self.assertGreater(t["p75"], t["median"])

    def test_wall_and_setup_scale_to_reference_speed(self):
        # A host running at half the reference speed takes twice as long
        # on the calibration kernel; the reported times halve back.
        rep = {"iterations": [iteration("a"), iteration("a")],
               "setup_s": [[0.2, 0.4], [0.3]], "peak_rss_mb": 10.0,
               "calibration_s": [2 * report.CAL_REF_S] * 3}
        m = report.end_to_end(rep)
        self.assertAlmostEqual(m["wall_s"], 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.15)
        self.assertEqual(m["peak_rss_mb"], 10.0)


class Checks(unittest.TestCase):
    GOLDEN = {"table3_transpose": "aaaa"}

    def test_clean_run_has_no_failures(self):
        attempted, failures = report.check(table3_report(["aaaa"] * 3),
                                           self.GOLDEN)
        self.assertEqual((attempted, failures), (3, []))

    def test_corrupted_golden_makes_error_rate_nonzero(self):
        golden = {"table3_transpose": "bbbb"}
        attempted, failures = report.check(table3_report(["aaaa"] * 3), golden)
        self.assertEqual(len(failures), 3)
        self.assertGreater(len(failures) / attempted, 0)

    def test_shipped_goldens_cover_every_workload(self):
        golden = json.loads(
            (Path(__file__).parent / "golden.json").read_text())
        self.assertEqual(sorted(golden), sorted(
            ["paper_fft2d", "table3_transpose", "psync_sweep",
             "served_campaign"]))

    def test_held_out_seed_compares_iterations_not_goldens(self):
        rep = table3_report(["cccc", "cccc", "dddd"], seed=7)
        attempted, failures = report.check(rep, self.GOLDEN)
        self.assertEqual(attempted, 3)
        self.assertEqual(len(failures), 1)
        self.assertIn("iteration 2", failures[0])

    def test_shape_band_applies_at_any_seed(self):
        rep = table3_report(["cccc"], seed=7)
        rep["iterations"][0]["num"]["tp4_cycles"] = 9_000_000
        _, failures = report.check(rep, self.GOLDEN)
        self.assertIn("t_p=4 multiplier", failures[0])

    def test_second_execution_path_must_match(self):
        same = {"name": "session_run", "wall_s": 1.0,
                "text": {"output": "aaaa"}, "num": {}, "error": ""}
        other = dict(same, text={"output": "eeee"})
        for rec, failed in ((same, 0), (other, 1)):
            attempted, failures = report.check(
                table3_report(["aaaa"] * 2, checks=[rec]), self.GOLDEN)
            self.assertEqual((attempted, len(failures)), (3, failed))

    def test_paper_err_pct(self):
        self.assertAlmostEqual(report.paper_err_pct(3_211_266, 6_356_994),
                               5.97, places=2)


class CacheHitRatio(unittest.TestCase):
    def test_base_is_points_submitted(self):
        # 48 of the warm grid's 64 submitted points come from the cache;
        # the 16 executed ones are in the base too.
        self.assertEqual(report.cache_hit_ratio(48, 64), 0.75)

    def test_per_layer_metric_uses_submitted_points(self):
        rep = {"workload": "served_campaign", "spans": [], "checks": [],
               "probes": {}, "calibration_s": [report.CAL_REF_S] * 2,
               "setup_s": [[1.0]], "peak_rss_mb": 1.0,
               "iterations": [iteration("a", warm_points=64,
                                        warm_cache_hits=48, warm_executed=16)]}
        self.assertEqual(report.per_layer(rep)["serve.cache_hit_ratio"], 0.75)


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_metrics_match_what_run_reports(self):
        bench = json.loads(
            (Path(__file__).parent.parent / "BENCHMARK.json").read_text())
        rep = {"workload": "paper_fft2d", "spans": [], "checks": [],
               "probes": {}, "calibration_s": [report.CAL_REF_S] * 2,
               "setup_s": [[1.0]], "peak_rss_mb": 1.0,
               "iterations": [iteration("a")]}
        for key, values in (("end_to_end", report.end_to_end(rep)),
                            ("per_layer", report.per_layer(rep))):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(declared,
                             {k: report.unit(k) for k in values}, key)


if __name__ == "__main__":
    unittest.main()
