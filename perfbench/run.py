#!/usr/bin/env python3
"""Builds and runs the KV-Direct performance benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package that compiles the library sources in
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
the driver binary. The driver's last stdout line is the JSON result; the
exit code is nonzero when the build fails or any correctness check fails.
`--workload all` runs every workload and correctness scenario, each in a
process of its own, and fails if any of them fails. See perfbench/README.md
for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_JOBS = "4"


def build(build_dir: Path) -> Path:
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found under {REPO_ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench_build.log"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail_build(log_path)
        compile_cmd = ["cmake", "--build", str(build_dir), "--target", "kvd_perfbench",
                       "-j", BUILD_JOBS]
        if subprocess.run(compile_cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail_build(log_path)
    return build_dir / "kvd_perfbench"


def fail_build(log_path: Path) -> None:
    tail = log_path.read_text(errors="replace").splitlines()[-40:]
    sys.stderr.write("\n".join(tail) + "\n")
    sys.exit("perfbench: build failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = REPO_ROOT / build_dir
    binary = build(build_dir)
    if args.workload == "all":
        names = subprocess.run([str(binary), "--list"], check=True, capture_output=True,
                               text=True).stdout.split()
    else:
        names = [args.workload]
    status = 0
    for name in names:
        sys.stdout.flush()
        code = subprocess.run([str(binary), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
        if code != 0:
            print(f"perfbench: {name} exited with {code}", file=sys.stderr)
            status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
