#!/usr/bin/env python3
"""Self-test of tools/gate.py: every subcommand passes on a good
synthetic record and fails, with its message, on a bad one. The
throughput gates run stand-in bench binaries that write a fixed
record to --out.

Run: python3 tools/gate_test.py
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gate.py")

SCALE_ROW = {"scale": 20, "kind": "kron", "mode": "autonuma",
             "segments": 4, "nodes": 1048576, "edges": 31402642,
             "footprint_bytes": 133999208, "load_sim_sec": 0.469983,
             "compute_sim_sec": 1.91878, "total_accesses": 103805499,
             "wall_sec": 12.4519, "accesses_per_sec": 8.33652e+06,
             "copy_bytes": 1527808, "dram_hit_fraction": 0.61091,
             "pgpromote": 373, "pgdemote": 45056,
             "peak_rss_bytes": 320221184}


def scale_record(row=SCALE_ROW, identical=True):
    return {"bench": "scale_sweep", "segment1_bit_identical": identical,
            "rows": [row]}


class GateTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self.dir, name)

    def json_file(self, name, record):
        with open(self.path(name), "w") as f:
            json.dump(record, f)
        return self.path(name)

    def csv_file(self, name, rows):
        with open(self.path(name), "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        return self.path(name)

    def bench(self, name, record):
        """A stand-in bench binary that writes `record` to --out."""
        path = self.path(name)
        with open(path, "w") as f:
            f.write("#!" + sys.executable + "\n"
                    "import json, sys\n"
                    "out = [a[6:] for a in sys.argv if "
                    "a.startswith('--out=')][0]\n"
                    f"json.dump({record!r}, open(out, 'w'))\n")
        os.chmod(path, 0o755)
        return path

    def gate(self, *args):
        return subprocess.run([sys.executable, GATE, *args],
                              capture_output=True, text=True)

    def passes(self, *args):
        r = self.gate(*args)
        self.assertEqual(r.returncode, 0, r.stderr)
        return r.stdout

    def fails(self, message, *args):
        r = self.gate(*args)
        self.assertNotEqual(r.returncode, 0, r.stdout)
        self.assertIn(message, r.stderr)

    def test_scale_smoke(self):
        row = {"pgpromote": 12, "dram_hit_fraction": 0.7}
        self.passes("scale-smoke", self.json_file("ok.json",
                                                  {"rows": [row]}))
        self.fails("AutoNUMA promoted nothing", "scale-smoke",
                   self.json_file("none.json",
                                  {"rows": [dict(row, pgpromote=0)]}))
        self.fails("dram_hit_fraction 1.5 out of range", "scale-smoke",
                   self.json_file("range.json", {"rows": [
                       dict(row, dram_hit_fraction=1.5)]}))

    def test_object_dynamic_smoke(self):
        row = {"workload": "bfs_kron", "migrations": 131, "promotions": 64}
        self.passes("object-dynamic-smoke", self.csv_file("ok.csv", [row]))
        self.fails("migrations=131 promotions=0", "object-dynamic-smoke",
                   self.csv_file("bad.csv", [dict(row, promotions=0)]))

    def test_hotpath(self):
        def run(fresh_aps):
            base = self.bench("base", {"batched_accesses_per_sec": 1e8})
            fresh = self.bench("fresh",
                               {"batched_accesses_per_sec": fresh_aps})
            return ("hotpath", "--base", base, "--fresh", fresh,
                    "--workdir", self.dir)
        out = self.passes(*run(0.8e8))
        self.assertIn("pair 3/3", out)
        self.fails("batched hot path regressed >20%", *run(0.79e8))

    def test_hotpath_fails_when_the_bench_fails(self):
        broken = self.path("broken")
        with open(broken, "w") as f:
            f.write("#!/bin/sh\nexit 1\n")
        os.chmod(broken, 0o755)
        self.fails("exited with status 1", "hotpath", "--base", broken,
                   "--fresh", broken, "--workdir", self.dir)

    def test_parallel(self):
        rows = [{"workers": w, "migration_speedup": s}
                for w, s in ((1, 1.0), (2, 1.9), (4, 3.5))]
        self.passes("parallel", self.json_file("ok.json",
                                               {"per_workers": rows}))
        self.fails("no row with workers=4", "parallel",
                   self.json_file("no4.json", {"per_workers": rows[:2]}))
        slow = rows[:2] + [{"workers": 4, "migration_speedup": 1.99}]
        self.fails("fell below 2x", "parallel",
                   self.json_file("slow.json", {"per_workers": slow}))

    def test_scale(self):
        committed = self.json_file("committed.json", {"rows": [
            dict(SCALE_ROW, scale=25, kind="urand"), SCALE_ROW]})

        def run(fresh_record, base_aps=8.0e6):
            base = self.bench("base", scale_record(
                dict(SCALE_ROW, accesses_per_sec=base_aps)))
            fresh = self.bench("fresh", fresh_record)
            return ("scale", "--base", base, "--fresh", fresh,
                    "--record", committed, "--workdir", self.dir)

        out = self.passes(*run(scale_record()))
        self.assertIn("matches its committed simulated output", out)
        self.fails("segmented-path throughput regressed >20%",
                   *run(scale_record(), base_aps=8.33652e+06 / 0.79))
        self.fails("no longer bit-identical",
                   *run(scale_record(identical=False)))
        for field in ("total_accesses", "pgpromote", "edges"):
            off = dict(SCALE_ROW)
            off[field] += 1
            self.fails(f"{field} of cell 20:kron:autonuma:4 is "
                       f"{off[field]}", *run(scale_record(off)))
        bad_row = dict(SCALE_ROW, dram_hit_fraction=0.610911)
        self.fails("dram_hit_fraction", *run(scale_record(bad_row)))

    def test_scale_needs_the_committed_cell(self):
        committed = self.json_file("committed.json", {"rows": [
            dict(SCALE_ROW, scale=18)]})
        self.fails("no row with scale=20", "scale", "--base", "x",
                   "--fresh", "x", "--record", committed,
                   "--workdir", self.dir)

    def test_ecc(self):
        keys = ("frames_retired", "soft_offline", "sigbus", "errors")
        base = dict({k: 0 for k in keys}, ce_prob=0, availability=1)
        hot = dict({k: 5 for k in keys}, ce_prob=0.25, availability=0.99)
        self.passes("ecc", self.csv_file("ok.csv", [base, hot]))
        self.fails("healthy baseline has sigbus=2", "ecc",
                   self.csv_file("dirty.csv", [dict(base, sigbus=2), hot]))
        self.fails("hot cell has frames_retired=0", "ecc",
                   self.csv_file("cold.csv",
                                 [base, dict(hot, frames_retired=0)]))
        self.fails("full availability", "ecc",
                   self.csv_file("avail.csv",
                                 [base, dict(hot, availability=1)]))
        self.fails("no row with ce_prob=0.25", "ecc",
                   self.csv_file("nohot.csv", [base]))

    def test_autotune_smoke(self):
        cell = {"workload": "pr_kron", "tuner_epochs": 9,
                "tuner_applied": 2, "tuner_accepted": 1}
        self.passes("autotune-smoke", self.json_file("ok.json",
                                                     {"cells": [cell]}))
        self.fails("tuner moved no tunable on kv_kron", "autotune-smoke",
                   self.json_file("bad.json", {"cells": [
                       cell, dict(cell, workload="kv_kron",
                                  tuner_applied=0)]}))

    def test_autotune(self):
        def cells(*speedups):
            return {"cells": [{"workload": f"w{i}", "speedup": s}
                              for i, s in enumerate(speedups)]}
        self.passes("autotune", self.json_file("ok.json",
                                               cells(1.0, 1.02, 1.06)))
        self.fails("lost to the default on w0 (0.990x", "autotune",
                   self.json_file("lost.json", cells(0.99, 1.02, 1.3)))
        self.fails("best committed win is only 1.050x", "autotune",
                   self.json_file("flat.json", cells(1.0, 1.05, 1.01)))
        self.fails("fewer than 3 committed cells", "autotune",
                   self.json_file("few.json", cells(1.1, 1.2)))


if __name__ == "__main__":
    unittest.main()
