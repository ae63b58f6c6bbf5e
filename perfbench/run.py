#!/usr/bin/env python3
"""Build and run the FMM-FFT benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

The first form configures and builds perfbench/ (CMake, Release) into the
directory named by CARGO_TARGET_DIR (default .bench_build), then runs one
workload. The driver's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --selfcheck runs every workload at
tiny sizes (N = 2^14, 32^3) in both trace modes, checks that each metric
BENCHMARK.json names is printed with its unit, and checks that a corrupted
output is counted as failed and makes the run exit nonzero.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_WIDTH = 1  # worker threads of the library pool, fixed and recorded
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build the driver; build output goes to stderr."""
    out = build_dir()
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def driver_env():
    # Only the pool width is set; every other library knob keeps its
    # default so the plan, precision and exec mode come from the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FMMFFT_")}
    env["FMMFFT_NUM_THREADS"] = str(POOL_WIDTH)
    return env


def run_driver(exe, args):
    """Run the driver to completion; returns (exit code, stdout text)."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, env=driver_env(), cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: driver timed out")
    return proc.returncode, out


def selfcheck(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", wl["name"], "--seed", "7", "--seconds", "0.2",
                    "--trace", str(trace), "--size", "tiny"]
            rc, out = run_driver(exe, args)
            result = json.loads(out.strip().splitlines()[-1])
            got = result["metrics"]
            for m in spec[group]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    print(f"FAIL {wl['name']} trace={trace}: {m['name']} missing or wrong unit")
                    ok = False
                elif m["name"] not in out.split("{", 1)[0]:
                    print(f"FAIL {wl['name']} trace={trace}: {m['name']} not printed")
                    ok = False
            extra = set(got) - {m["name"] for m in spec[group]}
            if extra:
                print(f"FAIL {wl['name']} trace={trace}: unlisted metrics {sorted(extra)}")
                ok = False
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                print(f"FAIL {wl['name']} trace={trace}: rc={rc} result={result['correct']}")
                ok = False
            # Attempt 2 is a repeat output of a warm plan: damage it and the
            # gate must count it and fail the run.
            rc, out = run_driver(exe, args + ["--corrupt", "2"])
            result = json.loads(out.strip().splitlines()[-1])
            if rc == 0 or result["correct"] or result["failed"] < 1:
                print(f"FAIL {wl['name']} trace={trace}: corrupted output not caught")
                ok = False
            else:
                print(f"ok   {wl['name']} trace={trace}: {len(got)} metrics, "
                      f"corruption caught ({result['failed']}/{result['attempted']} failed)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    exe = build()
    if a.selfcheck:
        return selfcheck(exe)
    spans = os.path.join(build_dir(), f"spans-{a.workload}-seed{a.seed}.json")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans", spans]
    rc, out = run_driver(exe, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
