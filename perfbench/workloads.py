"""Workload definitions: seeded inputs, the exact reference, answer checks.

:func:`make` draws a workload's input instances from a seed and a size
(``full`` for measurement, ``tiny`` for the self-test).  Each instance is a
:class:`Workload` that owns

* the generated inputs (the engine sees only these arrays),
* the exact reference, computed once with numpy outside the timed region,
* ``call(batch)`` — the one public-API call the timed loop measures,
* ``check(batch, result)`` — the correctness check run after every call.

Nothing here times anything; see ``timed.py`` and ``layers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List

import numpy as np

from repro import engine
from repro.core.problems import JoinSpec
from repro.datasets import jaccard_pair, planted_jaccard_sets, random_unit
from repro.datasets.recommender import latent_factor_model

NAMES = ("serve_topk", "join_ip", "join_jaccard")

#: Input instances per untraced run.  Calls rotate over them, so a run's
#: figures average over several draws of the data instead of hanging on
#: one, and ``setup_s`` is the median of one set-up per instance.
INSTANCES = 4

#: Seed of the first serving catalog; instance ``i`` serves catalog
#: ``CATALOG_SEED + i`` whatever the run's seed.
CATALOG_SEED = 7001

#: Score tolerance of the outside re-scoring: the engine compares its own
#: GEMM scores against ``cs``, numpy re-scores in another summation order.
TOL = 1e-9

#: Minimum per-call recall for approximate workloads.  Exact workloads
#: must reach 1.0 on every call.
APPROX_RECALL_FLOOR = 0.90

SIZES = {
    "full": {
        "serve_topk": dict(n_items=50_000, rank=64, skew=0.5, users=1024,
                           batch=64, k=10, s=0.05),
        "join_ip": dict(n=20_000, m=4000, d=64, planted=800, rho=0.92,
                        s=0.75, c=0.8),
        "join_jaccard": dict(n=1000, m=100, universe=512, mean_size=24,
                             s=0.6),
    },
    "tiny": {
        "serve_topk": dict(n_items=3000, rank=32, skew=0.5, users=256,
                           batch=64, k=10, s=0.05),
        "join_ip": dict(n=3000, m=600, d=48, planted=60, rho=0.92,
                        s=0.75, c=0.8),
        "join_jaccard": dict(n=200, m=40, universe=128, mean_size=12,
                             s=0.6),
    },
}


@dataclass
class Outcome:
    """One checked call: soundness plus reference answers found/expected."""

    sound: bool
    found: int
    expected: int
    detail: str = ""

    @property
    def recall(self) -> float:
        return self.found / self.expected if self.expected else 1.0


@dataclass
class Workload:
    name: str
    P: Any
    spec: JoinSpec
    batches: List[Any]
    exact: bool
    backend: str = "auto"
    #: Per-batch reference (top-k score lists, or a per-query hit mask).
    reference: List[Any] = field(default_factory=list)
    serving: bool = False
    session: Any = None

    @property
    def rows_per_call(self) -> int:
        return int(self.batches[0].shape[0])

    def setup(self) -> None:
        """The untimed work before the first timed call."""
        if self.serving:
            if self.session is not None:
                self.session.close()
            self.session = engine.open(self.P, self.spec, backend=self.backend)
        else:
            self.check(0, self.call(self.batches[0]), strict=True)

    def call(self, batch):
        if self.serving:
            return self.session.query(batch)
        return engine.join(self.P, batch, self.spec, backend=self.backend)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- correctness --------------------------------------------------

    def check(self, index: int, result, strict: bool = False) -> Outcome:
        """Re-score every reported answer outside the engine."""
        Q = self.batches[index]
        ref = self.reference[index]
        if self.spec.is_topk:
            out = _check_topk(self.P, Q, result.topk, ref, self.spec)
        elif self.spec.measure == "jaccard":
            out = _check_jaccard(self.P, Q, result.matches, ref, self.spec)
        else:
            out = _check_join(self.P, Q, result.matches, ref, self.spec)
        if strict and not self.passes(out):
            raise AssertionError(f"{self.name}: wrong answer ({out.detail})")
        return out

    def passes(self, out: Outcome) -> bool:
        floor = 1.0 if self.exact else APPROX_RECALL_FLOOR
        return out.sound and out.recall >= floor


def _check_topk(P, Q, lists, ref_scores, spec) -> Outcome:
    if lists is None or len(lists) != Q.shape[0]:
        return Outcome(False, 0, 1, "top-k list count differs from batch")
    found = expected = 0
    for q, lst, ref in zip(Q, lists, ref_scores):
        idx = np.asarray(lst, dtype=np.int64)
        if idx.size > spec.k or np.unique(idx).size != idx.size:
            return Outcome(False, 0, 1, "oversized or repeated top-k list")
        got = np.sort(P[idx] @ q)[::-1]
        if got.size and got[-1] < spec.cs - TOL:
            return Outcome(False, 0, 1, "top-k entry below cs")
        # Position-wise score comparison: a tie swapped across the k-th
        # place by a different summation order still counts as found.
        n = min(got.size, ref.size)
        found += int(np.count_nonzero(got[:n] >= ref[:n] - TOL))
        expected += int(ref.size)
    return Outcome(True, found, expected)


def _check_join(P, Q, matches, ref_hit, spec) -> Outcome:
    if len(matches) != Q.shape[0]:
        return Outcome(False, 0, 1, "match count differs from batch")
    js = np.array([j for j, i in enumerate(matches) if i is not None],
                  dtype=np.int64)
    ids = np.array([i for i in matches if i is not None], dtype=np.int64)
    if js.size:
        scores = np.einsum("ij,ij->i", P[ids], Q[js])
        if not spec.signed:
            scores = np.abs(scores)
        if scores.min() < spec.cs - TOL:
            return Outcome(False, 0, 1, "match scores below cs")
    found = int(np.count_nonzero(ref_hit[js])) if js.size else 0
    return Outcome(True, found, int(ref_hit.sum()))


def _check_jaccard(P, Q, matches, ref_hit, spec) -> Outcome:
    if len(matches) != len(Q):
        return Outcome(False, 0, 1, "match count differs from batch")
    js = [j for j, i in enumerate(matches) if i is not None]
    for j in js:
        if jaccard_pair(P.row(matches[j]), Q.row(j)) < spec.cs - TOL:
            return Outcome(False, 0, 1, "match Jaccard below cs")
    found = int(np.count_nonzero(ref_hit[js])) if js else 0
    return Outcome(True, found, int(ref_hit.sum()))


# -- exact references (numpy only, computed once per run) ----------------


def _topk_reference(P, Q, k: int, cs: float, rows: int = 64) -> List[np.ndarray]:
    out = []
    for r0 in range(0, Q.shape[0], rows):
        S = Q[r0:r0 + rows] @ P.T
        top = np.argpartition(-S, k - 1, axis=1)[:, :k]
        for row, idx in zip(S, top):
            scores = np.sort(row[idx])[::-1]
            out.append(scores[scores >= cs])
    return out


def _join_reference(P, Q, cs: float, rows: int = 128) -> np.ndarray:
    best = np.empty(Q.shape[0])
    for r0 in range(0, Q.shape[0], rows):
        best[r0:r0 + rows] = (Q[r0:r0 + rows] @ P.T).max(axis=1)
    return best >= cs


def _jaccard_reference(P, Q, cs: float) -> np.ndarray:
    Pd, Qd = P.to_dense(), Q.to_dense()
    inter = Qd @ Pd.T
    union = Qd.sum(axis=1)[:, None] + Pd.sum(axis=1)[None, :] - inter
    J = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    return J.max(axis=1) >= cs


def planted_ip(n: int, m: int, d: int, planted: int, rho: float, seed: int):
    """0.95-scaled unit rows; the first ``planted`` queries get a partner
    at cosine ``rho`` (the planted instance of ``tools/bench_perf.py``)."""
    P = random_unit(n, d, seed=seed)
    Q = random_unit(m, d, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    idx = rng.choice(n, size=planted, replace=False)
    noise = rng.standard_normal((planted, d))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    Q[:planted] = rho * P[idx] + math.sqrt(1.0 - rho * rho) * noise
    Q[:planted] /= np.linalg.norm(Q[:planted], axis=1, keepdims=True)
    return P * 0.95, Q * 0.95


def make(name: str, seed: int, size: str = "full",
         count: int = INSTANCES) -> List[Workload]:
    """Generate ``count`` input instances of a workload from ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    # Instance seeds are spaced by 4: planted_ip draws from seed .. seed+2.
    return [_make_one(name, seed * 16 + 4 * i, i, size) for i in range(count)]


def _make_one(name: str, seed: int, instance: int, size: str) -> Workload:
    """Generate one instance's inputs and its exact reference."""
    cfg = SIZES[size][name]
    if name == "serve_topk":
        # The item catalog is the served model: fixed per instance, so the
        # seed draws the user traffic only.  Per-catalog cost differs by
        # up to ~1.5x under norm pruning, which a seeded catalog would
        # turn into run-to-run spread.
        items = latent_factor_model(
            1, cfg["n_items"], rank=cfg["rank"],
            popularity_skew=cfg["skew"], seed=CATALOG_SEED + instance,
        ).items
        users = latent_factor_model(
            cfg["users"], 1, rank=cfg["rank"], seed=seed).users
        spec = JoinSpec(s=cfg["s"], c=1.0, k=cfg["k"])
        b = cfg["batch"]
        batches = [users[i:i + b] for i in range(0, cfg["users"], b)]
        wl = Workload(name, items, spec, batches, exact=True, serving=True)
        wl.reference = [
            _topk_reference(wl.P, Q, spec.k, spec.cs) for Q in batches
        ]
        return wl
    if name == "join_ip":
        P, Q = planted_ip(cfg["n"], cfg["m"], cfg["d"], cfg["planted"],
                          cfg["rho"], seed)
        spec = JoinSpec(s=cfg["s"], c=cfg["c"])
        wl = Workload(name, P, spec, [Q], exact=False)
        wl.reference = [_join_reference(P, Q, spec.cs)]
        return wl
    P, Q = planted_jaccard_sets(
        cfg["n"], cfg["m"], universe=cfg["universe"],
        mean_size=cfg["mean_size"], threshold=cfg["s"], seed=seed,
    )
    spec = JoinSpec(s=cfg["s"], measure="jaccard")
    wl = Workload(name, P, spec, [Q], exact=False, backend="minhash_lsh")
    wl.reference = [_jaccard_reference(P, Q, spec.cs)]
    return wl
