#!/usr/bin/env python3
"""EBV end-to-end benchmark.

Builds the program and the benchmark's own ebv_perf from source
(perfbench/ is a CMake project that compiles ../src), runs one workload,
and prints every metric by name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload ibd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload tip --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
run that reports the per-layer metrics and writes its spans to
<build dir>/traces/<workload>-<seed>.jsonl. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build, under the checkout root.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build ebv_perf; returns its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the program's sources (src/) are not in this checkout")
        return None
    bdir = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "ebv_perf")


def source_identity():
    """Git SHA when the checkout is a repository, and a digest of src/."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_perf(cmd, env=None):
    """Run ebv_perf; returns (returncode, parsed last stdout line or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("perfbench: ebv_perf did not finish in %d s" % RUN_TIMEOUT_S)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def report(result, sha, src_digest):
    provenance = dict(result["provenance"], git_sha=sha, src_sha256=src_digest)
    print("workload %s, seed %d, trace %d" % (result["workload"], result["seed"], result["trace"]))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for note in result["notes"]:
        print("  " + note)
    for failure in result["failures"]:
        print("  FAILED: " + failure)
    attempted, failed = result["attempted"], result["failed"]
    print("  error_rate = %.6g (%d failed of %d attempted)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    for name, metric in result["metrics"].items():
        print("  %s = %.6g %s" % (name, metric["value"], metric["unit"]))


def benchmark(args):
    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    code, result = run_perf(cmd)
    if result is None:
        return code
    sha, src_digest = source_identity()
    report(result, sha, src_digest)
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def selftest():
    """Tiny-scale pass of every workload in both modes, the mutant counting
    check, and the refusals; exits 0 only when every check holds."""
    binary = build()
    if binary is None:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {mode: {m["name"]: m["unit"] for m in spec[key]}
             for mode, key in ((0, "end_to_end"), (1, "per_layer"))}
    names = [w["name"] for w in spec["workloads"]]
    results = []

    def check(ok, what):
        results.append(ok)
        print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)

    listed = subprocess.run([binary, "--list-workloads"], capture_output=True,
                            text=True).stdout.split()
    check(listed == names, "workload names match BENCHMARK.json")
    for workload in names:
        for trace in (0, 1):
            code, r = run_perf([binary, "--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace), "--tiny"])
            tag = "%s --trace %d" % (workload, trace)
            check(r is not None and r["attempted"] > 0 and r["failed"] == 0,
                  tag + ": tiny pass with error_rate 0")
            printed = {} if r is None else {n: m["unit"] for n, m in r["metrics"].items()}
            check(printed == units[trace],
                  tag + ": metric names and units match BENCHMARK.json")

    code, r = run_perf([binary, "--selftest-mutants"])
    check(code == 0 and r is not None and r["accepted_copy_counted_as_failure"]
          and r["mutants_rejected"],
          "an accepted mutant counts as a failure; both mutants are rejected as expected")
    env = dict(os.environ, EBV_SCHEDULER="counter")
    code, r = run_perf([binary, "--workload", "tip", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--tiny"], env=env)
    check(code == 2 and r is None, "an EBV_* program knob in the environment refuses the run")
    cpus = len(os.sched_getaffinity(0))
    code, r = run_perf([binary, "--workload", "tip", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--tiny", "--threads", str(cpus + 1)])
    check(code == 2 and r is None, "a pool wider than the visible CPUs refuses the run")
    print("%d/%d self-tests passed" % (sum(results), len(results)))
    return 0 if all(results) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
