#!/usr/bin/env python3
"""Build and run the memtier end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pr_kron --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test

The first call configures and builds perfbench/ (and the memtier
libraries it compiles from src/) into .bench_build/; later calls only
rebuild what changed. The benchmark runs single-threaded with every
MEMTIER_* variable removed from its environment (the binary names and
refuses the knobs that would change what is measured), and a private
spill directory that is deleted on exit.
Standard output ends with one JSON line: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). The
line before it stamps the host, build type and source revision.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
# A run that has not finished by then is killed (the perfbench binary
# itself stops starting instances well before).
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure and build incrementally; build logs go to stderr.
    Returns False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_stamp(bdir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = None
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"cpu_model": cpu, "cores": os.cpu_count(),
            "build_type": build_type, "git_rev": git_rev(),
            "source_digest": source_digest()}


def clean_env(spill_dir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MEMTIER_")}
    for k in sorted(os.environ.keys() - env.keys()):
        print(f"perfbench: clearing {k} from the environment",
              file=sys.stderr)
    env["MEMTIER_SPILL_DIR"] = spill_dir
    return env


def main():
    # Turn SIGTERM into an exception so the perfbench binary is killed and
    # waited for, and the spill directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.test and (args.workload is None or args.seed is None
                          or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    bdir = build_dir()
    if not build(bdir):
        return 1

    spill_root = os.path.join(ROOT, ".bench_spill")
    os.makedirs(spill_root, exist_ok=True)
    spill = tempfile.mkdtemp(prefix="run-", dir=spill_root)
    try:
        env = clean_env(spill)
        if args.test:
            return subprocess.run([os.path.join(bdir, "perfbench_test")],
                                  cwd=spill, env=env).returncode
        cmd = [os.path.join(bdir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                out_dir, f"trace-{args.workload}-{args.seed}.json")]
        try:
            proc = subprocess.run(cmd, cwd=spill, env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 3
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: binary exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 4
        result = json.loads(lines[-1])
        print(json.dumps({"host": host_stamp(bdir),
                          "workload": args.workload, "seed": args.seed}))
        print(json.dumps(result))
        return proc.returncode
    finally:
        shutil.rmtree(spill, ignore_errors=True)
        try:
            os.rmdir(spill_root)  # Only when no other run still uses it.
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
