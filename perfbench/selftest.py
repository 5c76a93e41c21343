"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` (repo root).

Runs every workload small, untraced and traced, and asserts

* each run is correct and prints exactly the metrics ``BENCHMARK.json``
  names (``end_to_end`` untraced, ``per_layer`` traced), with their units;
* the counts (``*.pairs_per_row``, ``*.candidates_per_row``, ``recall``)
  repeat exactly for one seed, and change under another (of two tried);

``join_ip`` runs at full size, the only size at which ``auto`` picks LSH:
at the tiny size it picks a norm-pruned scan, whose pair count is the same
for every seed.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, WORKLOADS, run_one  # noqa: E402

COUNTS = ("kernel.pairs_per_row", "lsh.candidates_per_row",
          "minhash.pairs_per_row")

SIZES = {"join_ip": "full"}


def _spec(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run(name, seed, trace, size="tiny", seconds=1) -> dict:
    rc, result = run_one(name, seed, seconds, trace, size)
    if rc != 0 or result is None or not result["correct"]:
        raise SystemExit(f"FAIL {name} seed={seed} trace={trace}: exit {rc}")
    return result


def _check_units(name, result, expected) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"FAIL {name}: metrics {sorted(got)} != "
                         f"BENCHMARK.json {sorted(expected)}")


def _counts(untraced, traced) -> dict:
    out = {k: traced["metrics"][k]["value"] for k in COUNTS}
    out["recall"] = untraced["metrics"]["recall"]["value"]
    return out


def main() -> int:
    end_to_end, per_layer = _spec("end_to_end"), _spec("per_layer")
    for name in WORKLOADS:
        size = SIZES.get(name, "tiny")
        runs = {}
        for seed in (1, 1, 2, 3):
            untraced = _run(name, seed, 0, size)
            traced = _run(name, seed, 1, size)
            _check_units(name, untraced, end_to_end)
            _check_units(name, traced, per_layer)
            runs.setdefault(seed, []).append(_counts(untraced, traced))
        first, again = runs[1]
        if first != again:
            raise SystemExit(f"FAIL {name}: counts differ for one seed: "
                             f"{first} vs {again}")
        # Two other seeds: tiny inputs can tie on a count by chance.
        if runs[2][0] == first and runs[3][0] == first:
            raise SystemExit(f"FAIL {name}: counts ignore the seed: {first}")
        print(f"ok {name} ({size}): {first}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
