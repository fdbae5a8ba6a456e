#!/usr/bin/env python3
"""The one gate script: every pass/fail check ci.sh applies to a bench
record, one subcommand per check.

  scale-smoke RECORD        the segmented-path smoke cell promoted pages
                            and its DRAM-hit fraction lies in (0, 1]
  object-dynamic-smoke CSV  the object-dynamic sweep point moved pages,
                            promotions included
  hotpath --base B --fresh F --workdir D
                            same-host throughput of the batched hot path
                            (hotpath_speed) against the parent build
  parallel RECORD           >= 2x migration bandwidth at 4 copy workers
  scale --base B --fresh F --record BENCH_scale.json --workdir D
                            the segmented-path cell's simulated output
                            equals its committed row exactly, the
                            one-segment build stays bit-identical, and
                            same-host throughput holds against the
                            parent build
  ecc CSV                   a hot ECC cell retired frames and killed
                            requests while the healthy baseline stayed
                            clean
  autotune-smoke RECORD     the online tuner moved a tunable on every cell
  autotune RECORD           tuned >= 1.0x default on every committed
                            cell, > 1.05x on at least one

Every failure exits nonzero with a message naming the gate. The
throughput checks run the parent build's binary and the fresh binary
on the same cell in alternating pairs on this host, so a slow or fast
host moves both sides alike; an absolute figure committed from another
host cannot be compared this way.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys

# Alternating (parent, fresh) pairs per throughput gate, and the
# lowest median fresh/parent ratio that passes.
PAIRS = 3
MIN_RATIO = 0.8

# The hotpath gate takes the best of 10 reps per run, not the default
# 3: one rep of the sweep lasts ~50 ms, so on a shared 4-vCPU host a
# busy moment decides a best-of-3 figure. Two builds of the same
# simulator read 0.87-1.39x best-of-3 and 0.94-1.05x best-of-10 in
# five of six pairs; a single pair still reached 0.66x or 1.42x, which
# the median of PAIRS absorbs.
HOTPATH_REPS = "--reps=10"

# The scale gate's cell. 2^20 runs in ~15 s on a 4-vCPU host; the
# largest committed cell (urand 2^25) takes ~25 min a run.
SCALE_CELL = "20:kron:autonuma:4"

# Simulated outputs of a scale cell: host-independent, so a fresh run
# must reproduce the committed row exactly.
SCALE_SIM_FIELDS = ("edges", "footprint_bytes", "load_sim_sec",
                    "compute_sim_sec", "total_accesses", "copy_bytes",
                    "dram_hit_fraction", "pgpromote", "pgdemote")


def fail(msg):
    sys.exit(msg)


def _number(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load(path):
    """A JSON record, or a CSV as a list of rows with numeric cells parsed."""
    with open(path) as f:
        if path.endswith(".csv"):
            return [{k: _number(v) for k, v in row.items()}
                    for row in csv.DictReader(f)]
        return json.load(f)


def pick(rows, gate, **want):
    """The first row whose fields equal every `want` value."""
    for row in rows:
        if all(row.get(k) == v for k, v in want.items()):
            return row
    desc = ", ".join(f"{k}={v}" for k, v in want.items())
    fail(f"{gate} gate FAILED: no row with {desc} in record")


def run_bench(gate, cmd, out):
    result = subprocess.run(cmd + [f"--out={out}"],
                            stdout=subprocess.DEVNULL)
    if result.returncode != 0:
        fail(f"{gate} gate FAILED: {' '.join(cmd)} exited with status "
             f"{result.returncode}")
    return load(out)


def throughput(gate, base_cmd, fresh_cmd, workdir, metric, check=None):
    """Median fresh/parent ratio of `metric` over PAIRS alternating
    pairs; `check` vets every fresh record before it counts."""
    ratios = []
    for i in range(PAIRS):
        sides = [("base", base_cmd), ("fresh", fresh_cmd)]
        if i % 2:
            sides.reverse()
        value = {}
        for side, cmd in sides:
            rec = run_bench(gate, cmd,
                            os.path.join(workdir, f"{gate}_{side}_{i}.json"))
            if side == "fresh" and check:
                check(rec)
            value[side] = metric(rec)
        ratios.append(value["fresh"] / value["base"])
        print(f"{gate} gate: pair {i + 1}/{PAIRS}: parent "
              f"{value['base']:.3e} acc/s, now {value['fresh']:.3e} acc/s "
              f"({ratios[-1]:.2f}x)")
    return statistics.median(ratios)


def check_scale_smoke(args):
    row = load(args.record)["rows"][0]
    if row["pgpromote"] == 0:
        fail("scale smoke FAILED: AutoNUMA promoted nothing on the "
             "segmented path")
    if not 0.0 < row["dram_hit_fraction"] <= 1.0:
        fail(f"scale smoke FAILED: dram_hit_fraction "
             f"{row['dram_hit_fraction']} out of range")
    print(f"scale smoke: {row['pgpromote']} promotions, dram_hit "
          f"{row['dram_hit_fraction']:.3f} under the invariant checker")


def check_object_dynamic_smoke(args):
    row = load(args.csv)[0]
    if row["migrations"] == 0 or row["promotions"] == 0:
        fail(f"object-dynamic smoke FAILED: migrations="
             f"{row['migrations']} promotions={row['promotions']}")
    print(f"object-dynamic smoke: {row['migrations']} migrations "
          f"({row['promotions']} promotions) under the invariant checker")


def check_hotpath(args):
    r = throughput("perf", [args.base, HOTPATH_REPS],
                   [args.fresh, HOTPATH_REPS], args.workdir,
                   lambda rec: rec["batched_accesses_per_sec"])
    print(f"perf gate: median batched throughput {r:.2f}x the parent "
          f"build")
    if r < MIN_RATIO:
        fail("perf gate FAILED: batched hot path regressed >20% vs the "
             "parent commit built on this host")


def check_parallel(args):
    row = pick(load(args.record)["per_workers"], "parallel", workers=4)
    mig = row["migration_speedup"]
    print(f"parallel gate: migration bandwidth at 4 copy workers "
          f"{mig:.2f}x the 1-worker figure")
    if mig < 2.0:
        fail("parallel gate FAILED: migration bandwidth at 4 copy "
             "workers fell below 2x the 1-worker figure")


def check_scale(args):
    scale, kind, mode, segments = SCALE_CELL.split(":")
    want = pick(load(args.record)["rows"], "scale", scale=int(scale),
                kind=kind, mode=mode, segments=int(segments))

    def golden(rec):
        if not rec.get("segment1_bit_identical", False):
            fail("scale gate FAILED: the one-segment out-of-core build "
                 "is no longer bit-identical to the monolithic loader")
        now = rec["rows"][0]
        for field in SCALE_SIM_FIELDS:
            if now[field] != want[field]:
                fail(f"scale gate FAILED: {field} of cell {SCALE_CELL} "
                     f"is {now[field]}, committed {want[field]} (the "
                     f"simulated output changed; refresh BENCH_scale.json "
                     f"via run_benches.sh if the change is intentional)")

    rows = f"--rows={SCALE_CELL}"
    r = throughput("scale", [args.base, rows, "--no-check"],
                   [args.fresh, rows], args.workdir,
                   lambda rec: rec["rows"][0]["accesses_per_sec"], golden)
    print(f"scale gate: cell {SCALE_CELL} matches its committed simulated "
          f"output; median throughput {r:.2f}x the parent build")
    if r < MIN_RATIO:
        fail("scale gate FAILED: segmented-path throughput regressed "
             ">20% vs the parent commit built on this host")


def check_ecc(args):
    rows = load(args.csv)
    base = pick(rows, "ecc", ce_prob=0.0)
    hot = pick(rows, "ecc", ce_prob=0.25)
    for key in ("frames_retired", "soft_offline", "sigbus", "errors"):
        if base[key] != 0:
            fail(f"ecc gate FAILED: healthy baseline has {key}="
                 f"{base[key]} (must be 0)")
        if hot[key] == 0:
            fail(f"ecc gate FAILED: hot cell has {key}=0 "
                 "(the ECC plan injected nothing)")
    if hot["availability"] >= 1.0:
        fail("ecc gate FAILED: hot cell reports full availability "
             "despite SIGBUS kills")
    print(f"ecc gate: {hot['frames_retired']} frames retired, "
          f"{hot['sigbus']} SIGBUS kills, availability "
          f"{hot['availability']:.4f} (baseline clean)")


def check_autotune_smoke(args):
    cells = load(args.record)["cells"]
    for c in cells:
        if c["tuner_applied"] < 1:
            fail(f"autotune smoke FAILED: tuner moved no tunable on "
                 f"{c['workload']} (epochs={c['tuner_epochs']})")
    print("autotune smoke: " +
          ", ".join(f"{c['workload']} applied {c['tuner_applied']} "
                    f"(accepted {c['tuner_accepted']})" for c in cells) +
          " under the invariant checker")


def check_autotune(args):
    cells = load(args.record)["cells"]
    if len(cells) < 3:
        fail("autotune gate FAILED: fewer than 3 committed cells")
    worst = min(cells, key=lambda c: c["speedup"])
    best = max(cells, key=lambda c: c["speedup"])
    for c in cells:
        print(f"autotune gate: {c['workload']} tuned/default "
              f"{c['speedup']:.3f}x")
    if worst["speedup"] < 1.0:
        fail(f"autotune gate FAILED: tuned autonuma lost to the default "
             f"on {worst['workload']} ({worst['speedup']:.3f}x; refresh "
             f"the baseline via run_benches.sh if the change is "
             f"intentional)")
    if best["speedup"] <= 1.05:
        fail(f"autotune gate FAILED: best committed win is only "
             f"{best['speedup']:.3f}x (need >1.05x on at least one cell)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="gate", required=True)

    def gate(name, fn, *positional):
        p = sub.add_parser(name)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    gate("scale-smoke", check_scale_smoke, "record")
    gate("object-dynamic-smoke", check_object_dynamic_smoke, "csv")
    gate("parallel", check_parallel, "record")
    gate("ecc", check_ecc, "csv")
    gate("autotune-smoke", check_autotune_smoke, "record")
    gate("autotune", check_autotune, "record")
    for name, fn, extra in (("hotpath", check_hotpath, ()),
                            ("scale", check_scale, ("--record",))):
        p = gate(name, fn)
        for flag in ("--base", "--fresh", "--workdir") + extra:
            p.add_argument(flag, required=True)

    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
