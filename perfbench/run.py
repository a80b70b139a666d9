#!/usr/bin/env python3
"""Wall-clock benchmark of the elmo engine and its tuning loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # build and run the helper tests

Builds the engine and the benchmark from source (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs one workload and prints the benchmark's output. The traced run adds
the util and MemTable kernel rows, read from the engine's own
micro-benchmarks (bench/micro_engine.cc). The last line is the
result: {"correct", "attempted", "failed", "metrics"}. Build logs go to
stderr. Exits non-zero, without a result, when the sources or the build are
missing or broken, or when the result does not name exactly the metrics
BENCHMARK.json lists for the mode.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150
MICRO_TIMEOUT_S = 20

# Per-layer rows taken from micro_engine: metric -> (benchmark, unit, how
# its median repetition reads as the metric).
MICRO_ROWS = {
    "util.crc32c.mb_s": ("BM_Crc32c/4096", "MiB/s",
                         lambda b: b["bytes_per_second"] / 2**20),
    "util.histogram.add_ns": ("BM_HistogramAdd", "ns",
                              lambda b: b["real_time"]),
    "lsm.memtable.add_ns": ("BM_MemTableAdd", "ns", lambda b: b["real_time"]),
    "lsm.memtable.get_ns": ("BM_MemTableGet", "ns", lambda b: b["real_time"]),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(*targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def micro_rows(binary):
    """The MICRO_ROWS metrics: medians of five repetitions each."""
    names = sorted(row[0] for row in MICRO_ROWS.values())
    cmd = [binary, "--benchmark_filter=^(%s)$" % "|".join(names),
           "--benchmark_format=json", "--benchmark_repetitions=5",
           "--benchmark_report_aggregates_only=true",
           "--benchmark_min_time=0.1"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=MICRO_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("micro_engine exceeded %d s" % MICRO_TIMEOUT_S)
    if r.returncode:
        fail("micro_engine failed (exit %d): %s" % (r.returncode, r.stderr))
    medians = {b["run_name"]: b for b in json.loads(r.stdout)["benchmarks"]
               if b.get("aggregate_name") == "median"}
    rows = {}
    for metric, (bench, unit, read) in MICRO_ROWS.items():
        b = medians.get(bench)
        if b is None or b.get("time_unit") != "ns":
            fail("micro_engine gave no median in ns for " + bench)
        rows[metric] = {"value": read(b), "unit": unit}
    return rows


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources, path by path."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true",
                    help="build and run the tests of the benchmark's helpers")
    args = ap.parse_args()
    if args.test:
        out = build("perfbench_test")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_test")])
                 .returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    want = expected_metrics(args.trace == 1)
    # Both programs, so that the first run of a checkout builds everything.
    out = build("perfbench", "micro_engine")
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git_sha", git_sha(), "--source_digest", source_digest()]
    if args.trace:
        cmd += ["--spans_out", os.path.join(
            build_dir(), "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if not lines:
        fail("no output (exit %d)" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON")
    if args.trace:
        result.setdefault("metrics", {}).update(
            micro_rows(os.path.join(out, "bench", "micro_engine")))
        lines[-1] = json.dumps(result)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))
    print("\n".join(lines))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
