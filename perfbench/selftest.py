#!/usr/bin/env python3
"""The benchmark's own test: short runs that must pass, and planted faults
its checks must catch.

    python3 perfbench/selftest.py

1. Every workload, untraced, for a short run: correct, no failed operation,
   and exactly the end-to-end metrics BENCHMARK.json lists.
2. One traced short run: exactly the per-layer metrics BENCHMARK.json lists.
3. Each planted fault makes a run fail (correct=false, non-zero exit):
   one tick of extra usage in an admitted plan, two batch decisions swapped,
   one served response dropped.

Exits 0 when every expectation holds.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"
SEED = "7"


def run(workload, trace="0", extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", trace, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what, output=""):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)
            sys.stdout.write(output[-2000:])

    for w in spec["workloads"]:
        rc, res, out = run(w["name"])
        expect(rc == 0 and res is not None and res["correct"] and res["failed"] == 0
               and res["attempted"] > 0 and set(res["metrics"]) == e2e,
               "%s: short run passes with every end-to-end metric" % w["name"], out)

    rc, res, out = run("admit-contended", trace="1")
    expect(rc == 0 and res is not None and res["correct"] and set(res["metrics"]) == layers,
           "admit-contended: traced short run reports every per-layer metric", out)

    # (workload, fault, the check that must report it)
    for workload, fault, check in (("admit-contended", "extra-usage", "referee: capacity"),
                                   ("admit-ample", "extra-usage", "referee (daemon A): capacity"),
                                   ("admit-ample", "swap-decision", "FCFS parity"),
                                   ("admit-contended", "drop-response", "got 0 responses")):
        rc, res, out = run(workload, extra=("--inject", fault))
        caught = any(line.startswith("CHECK FAILED: ") and check in line
                     for line in out.splitlines())
        expect(rc != 0 and res is not None and not res["correct"] and res["failed"] > 0
               and caught, "%s: planted %s is caught by '%s'" % (workload, fault, check), out)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
