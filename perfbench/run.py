#!/usr/bin/env python3
"""The repo benchmark: one run of one workload against a real suu_serve.

Run from the repository root:

    python3 perfbench/run.py --workload indep_solve --seed 1 \
        --seconds 20 --trace 0

Builds the perfbench package (libsuu, suu_serve, perfbench_driver and
perfbench_selftest) from source under $CARGO_TARGET_DIR or .bench_build,
runs the self-test, then perfbench_driver. Build output goes to stderr.
perfbench_driver's human-readable report (every metric with its unit) and,
as the last line, its JSON result go to stdout. --trace 1 selects the
traced run (per-layer metrics). Exits nonzero on a build failure, a
self-test failure, a failed reply or oracle check, or a result whose metric
names differ from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# perfbench_driver finishes well inside this; a hung run is killed and fails.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", str(build_dir), "-j", jobs, "--target",
           "perfbench_driver", "perfbench_selftest", "suu_serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a libsuu source tree (no CMakeLists.txt/src)")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json missing")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build(build_dir)

    st = subprocess.run([str(build_dir / "perfbench_selftest")],
                        stdout=sys.stderr)
    if st.returncode != 0:
        fail("self-test failed")

    cmd = [str(build_dir / "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench_driver did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        fail(f"perfbench_driver exited with status {run.returncode}")
    result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(want))}")


if __name__ == "__main__":
    main()
