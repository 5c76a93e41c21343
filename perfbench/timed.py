"""The untraced run: set-up, the timed closed loop, end-to-end metrics.

One client calls the public API back to back (a closed loop: the next
call starts when the previous one returned, because ``session.query`` and
``engine.join`` both block their caller).  Only the call itself is inside
the timer; each result is checked right after, outside it.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback

#: The tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(walls):
    """``(value, percentile, samples_beyond)``: the highest order statistic
    with at least :data:`TAIL_BEYOND` samples above it (the maximum when the
    run has too few calls to leave that many)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / n, n - i - 1


def round_p50(walls, k: int) -> float:
    """Median over rounds of ``k`` consecutive calls (one per instance) of
    the round's mean call wall.  Instances differ in cost, so the plain
    median of a rotating loop falls between their modes and jumps from
    run to run; a round's mean weighs every instance equally."""
    rounds = [walls[j:j + k] for j in range(0, len(walls) - k + 1, k)]
    if not rounds:
        return statistics.median(walls)
    return statistics.median(sum(r) / k for r in rounds)


def run(instances, seconds: float) -> dict:
    """Set up each instance, loop for ``seconds`` of call time with calls
    rotating over the instances, and return the report."""
    setups = []
    for wl in instances:
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    walls, failed, rows = [], 0, 0
    picked = ""
    found = expected = 0
    busy = 0.0
    deadline = time.perf_counter() + 4 * seconds + 30
    i = 0
    while (busy < seconds or len(walls) <= TAIL_BEYOND) \
            and time.perf_counter() < deadline:
        wl = instances[i % len(instances)]
        index = (i // len(instances)) % len(wl.batches)
        batch = wl.batches[index]
        i += 1
        t0 = time.perf_counter()
        try:
            result = wl.call(batch)
        except Exception:  # a failed call is counted, never silent
            wall = time.perf_counter() - t0
            failed += 1
            walls.append(wall)
            busy += wall
            traceback.print_exc(file=sys.stderr)
            continue
        wall = time.perf_counter() - t0
        walls.append(wall)
        busy += wall
        rows += wl.rows_per_call
        picked = result.backend
        out = wl.check(index, result)
        found += out.found
        expected += out.expected
        if not wl.passes(out):
            failed += 1
            print(f"[perfbench] {wl.name}: call {i} failed its check "
                  f"(sound={out.sound}, recall={out.recall:.4f}) "
                  f"{out.detail}", file=sys.stderr)
    for wl in instances:
        wl.close()

    tail_value, tail_pct, beyond = tail(walls)
    recall = found / expected if expected else 1.0
    metrics = {
        "rows_per_s": (rows / busy, "1/s"),
        "call_p50_ms": (round_p50(walls, len(instances)) * 1e3, "ms"),
        "call_tail_ms": (tail_value * 1e3, "ms"),
        "recall": (recall, "ratio"),
        "success_rate": ((len(walls) - failed) / len(walls), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    exact_ok = (not instances[0].exact) or recall == 1.0
    return {
        "correct": failed == 0 and exact_ok,
        "attempted": len(walls),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "picked": picked,
            "calls": len(walls),
            "rows_per_call": instances[0].rows_per_call,
            "instances": len(instances),
            "busy_s": busy,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "setup_samples_s": setups,
        },
    }

