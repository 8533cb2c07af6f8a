#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload eop_join --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Workloads: eop_join and htap_mix (the ones BENCHMARK.json lists) and
oe_ingest, which the smoke test and manual runs use (see perfbench.cc). The script
builds perfbench/ with CMake -- which compiles the database from src/ -- into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root, then runs perfbench with a work directory for the block
stores inside that build directory. Build output goes to stderr. The
program's last line on stdout is the JSON result; when the build or the run
fails, the script exits non-zero without printing one.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# perfbench stops itself after 165 s; this is the outer guard.
RUN_TIMEOUT_S = 172
BUILD_TIMEOUT_S = 880


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally. Returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_sha():
    """sha256 over the program and benchmark sources, for the envelope."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short traced run of every workload")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Flush dirty pages (a fresh build leaves hundreds of MB) so they do not
    # queue ahead of the block stores' fsyncs during the measurement.
    os.sync()
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--git-sha", git_sha(), "--source-sha", source_sha()]
    sys.stdout.flush()
    # A SIGTERM to this script must not orphan perfbench.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        rc = 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
