#!/usr/bin/env python3
"""The repo benchmark (see perfbench/README.md).

Builds perfbench/ from source with CMake, then runs its `lambench` binary:

  python3 perfbench/run.py --workload cold_scan|join_shuffle|serve_mix \\
      --seed N --seconds S --trace 0|1

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only if
every query completed with the right result.

  python3 perfbench/run.py --self-check [--seed N]

is the determinism self-check: per workload, two runs with seed N must
print bit-identical modeled metrics, and a run with seed N+1 must pass.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/),
relative to the repository root. Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["cold_scan", "join_shuffle", "serve_mix"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds lambench; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "lambench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return out / "lambench"


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def modeled_line(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("modeled: ")]
    return lines[-1] if lines else None


def self_check(binary, seed):
    ok = True
    for w in WORKLOADS:
        a = run(binary, w, seed, 0.1, 0, capture=True)
        b = run(binary, w, seed, 0.1, 0, capture=True)
        c = run(binary, w, seed + 1, 0.1, 0, capture=True)
        same = (a.returncode == 0 and b.returncode == 0 and
                modeled_line(a.stdout) is not None and
                modeled_line(a.stdout) == modeled_line(b.stdout))
        clean = c.returncode == 0
        print(f"{w}: seed {seed} twice {'identical' if same else 'DIFFERENT'}"
              f" ({modeled_line(a.stdout)}); seed {seed + 1} "
              f"{'clean' if clean else 'FAILED'}")
        ok = ok and same and clean
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return 0 if self_check(binary, args.seed) else 1
    sys.stdout.flush()
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
