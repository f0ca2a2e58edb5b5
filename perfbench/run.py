#!/usr/bin/env python3
"""The one ROTA benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (and the ROTA library it links, from ../src) in Release
under $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
measured run. The last line of standard output is the run's JSON result;
build output goes to standard error. Extra flags (--inject MODE,
--fingerprint) pass through to the benchmark binary; see README.md.

Run from the root of the repository. Exits non-zero without a result when
the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no ROTA sources at %s/src" % ROOT)
    out = build_dir()
    cmake_dir = out / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(cmake_dir), "--target", "rota_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return cmake_dir / "rota_perfbench"


def main(argv) -> int:
    binary = build()
    run_dir = build_dir() / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Socket paths are short relative paths, well under the unix-socket limit
    # however deep the checkout sits.
    cmd = [str(binary), "--run-dir", os.path.relpath(run_dir, ROOT)] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
