#!/usr/bin/env python3
"""Builds and runs the wire-level benchmark of the viewauth engine.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (the engine libraries from src/ plus
the benchmark program) into $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. Its last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones; spans of a traced run are kept in
<build dir>/traces/<workload>-seed<N>.jsonl.

--smoke is the benchmark's self-test: it runs every workload briefly in
both modes, checks that every metric BENCHMARK.json names is printed
with its unit and that nothing failed, and checks that the answer
oracle flags a deliberately planted wrong cell.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; stop short of that.
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures once and builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      env=env).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    scratch = os.path.join(build_dir(), "scratch-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it on timeout.
        code = 1
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else ""
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    spans = os.path.join(scratch, "spans.jsonl")
    if os.path.isfile(spans):
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, seed)))
    shutil.rmtree(scratch, ignore_errors=True)
    return code, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            where = "%s --trace %d" % (workload, trace)
            found = []
            code, out = run_binary(binary, workload, 1, SMOKE_SECONDS, trace)
            result = result_of(out) if code == 0 else None
            if result is None:
                found.append("exit code %d, no result" % code)
            else:
                if not result["correct"] or result["failed"] != 0:
                    found.append("%d of %d operations failed" %
                                 (result["failed"], result["attempted"]))
                for metric in spec[group]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got.get("unit") != metric["unit"]:
                        found.append("metric %s missing or not in %s" %
                                     (metric["name"], metric["unit"]))
                frac = result["metrics"].get("failed_frac", {}).get("value")
                if trace == 1 and frac != 0:
                    found.append("failed_frac is %r" % frac)
            print("smoke: %s %s" % (where, "FAIL" if found else "ok"))
            problems += ["%s: %s" % (where, p) for p in found]
    # The oracle must not be vacuous: a planted wrong cell is flagged.
    code, out = run_binary(binary, "point_hot", 1, 1, 0,
                           ["--plant-wrong-cell"])
    result = result_of(out) if code == 0 else None
    flagged = result is not None and not result["correct"] and \
        result["failed"] >= 1
    print("smoke: planted wrong cell %s" %
          ("flagged" if flagged else "NOT flagged"))
    if not flagged:
        problems.append("the oracle did not flag the planted wrong cell")
    for problem in problems:
        print("smoke FAIL: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        sys.exit(smoke(build()))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    code, out = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
