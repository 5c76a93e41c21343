"""One workload in one fresh process: ``python -m perfbench.workload``.

Started by ``perfbench/run.py``, which pins the environment (BLAS threads,
``PYTHONHASHSEED``, ``REPRO_COSTMODEL``) before this interpreter starts.
Prints a metric table and a detail line (host fingerprint included) to
stdout, then the result object as the last line.  Exits 1 when any answer
or replay check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback


def host_fingerprint() -> dict:
    import numpy as np

    from repro.utils import blasctl

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blasctl.get_blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "env": {k: os.environ.get(k) for k in (
            "REPRO_COSTMODEL", "PYTHONHASHSEED", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS")},
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    """Run one workload and return ``{correct, attempted, failed, metrics,
    detail}`` with metrics as ``{name: (value, unit)}``."""
    from perfbench import layers, timed, workloads

    load_start = os.getloadavg()
    if trace:
        wl, = workloads.make(name, seed, size, count=1)
        try:
            report = layers.run(wl, seconds)
        except (layers.Mismatch, layers.Unreplayable) as exc:
            wl.close()
            print(f"[perfbench] {name}: {exc}; layer numbers discarded",
                  file=sys.stderr)
            report = {"metrics": {}, "attempted": 1, "failed": 1,
                      "detail": {"replay_identical": False,
                                 "error": str(exc)}}
        report["correct"] = report["failed"] == 0
    else:
        report = timed.run(workloads.make(name, seed, size), seconds)
    report["detail"].update(
        workload=name, seed=seed, size=size, trace=trace,
        host=dict(host_fingerprint(), loadavg_start=load_start,
                  loadavg_end=os.getloadavg()),
    )
    return report


def emit(report: dict) -> None:
    for key, (value, unit) in report["metrics"].items():
        print(f"{key:32s} {value:16.6f} {unit}")
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in report["metrics"].items()
        },
    }), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.size)
    except Exception:
        traceback.print_exc()
        return 2
    emit(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
