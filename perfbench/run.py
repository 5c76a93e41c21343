"""Run the repository benchmark: every workload in its own fresh process.

    python3 perfbench/run.py --workload join_ip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  Each workload runs in a child interpreter
whose environment is pinned before it starts: one BLAS thread, a fixed
``PYTHONHASHSEED``, and ``REPRO_COSTMODEL=""`` so a calibration file on the
host cannot change what ``backend="auto"`` picks.  The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``; the exit code is non-zero when any answer check failed or the
program could not run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("serve_topk", "join_ip", "join_jaccard")

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_COSTMODEL": "",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int,
            size: str) -> tuple:
    """Run one workload child; return ``(exit_code, result_or_None)``."""
    cmd = [sys.executable, "-m", "perfbench.workload",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(exc.stdout or "")
        print(f"[perfbench] {workload}: timed out after {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return 3, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line)
    return proc.returncode, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"[perfbench] no program source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code, merged = 0, {"correct": True, "attempted": 0, "failed": 0,
                       "metrics": {}}
    for name in names:
        rc, result = run_one(name, args.seed, args.seconds, args.trace,
                             args.size)
        if result is None:
            print(f"[perfbench] {name}: no result (exit {rc})",
                  file=sys.stderr)
            return rc or 4
        code = code or rc
        if len(names) == 1:
            merged = result
            break
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
