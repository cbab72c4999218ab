#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload star-vdi-src [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds perfbench/ (which compiles the simulator from ../src) as a Release
CMake project under $CARGO_TARGET_DIR, default .bench_build at the repository
root, then runs the perfbench binary. Build output goes to stderr; stdout
carries only the benchmark's report, whose last line is the JSON result.
Workloads, metrics and bounds are declared in BENCHMARK.json; which
end-to-end metric each layer metric should move is in perfbench/layers.json.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, cwd):
    """Run a build step with its output on stderr; stop on failure."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        fail(f"build step failed ({code}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs], ROOT)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark compiles."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the requests; for the self-test")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload,
           "--manifest-dir", os.path.join(HERE, "workloads"),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir, "--commit", source_id()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
