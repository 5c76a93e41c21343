"""Norm-pruned exact joins in the style of LEMP (Teflioudi et al. [50]).

The paper's motivating prior work on IPS join for recommender systems:
because ``p . q <= |p| |q|`` (Cauchy-Schwarz), a query with threshold
``t`` can only match data vectors with ``|p| >= t / |q|``.  Sorting the
data by decreasing norm turns that into a *prefix* scan, and a running
best value tightens the cutoff further for MIPS-style queries:
once ``best >= |p_i| |q|`` for the next vector in norm order, no later
vector can win.

On realistic (popularity-skewed) norm distributions the qualifying
prefix is a small fraction of the data — an *exact* subquadratic-in-
practice join, the kind of baseline the paper's theory explains the
limits of (in the worst case, when all norms are equal, it degrades to
the full scan).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from typing import Tuple

from repro.core.problems import JoinResult, JoinSpec, QueryStats
from repro.core.verify import GEMM_ADVANTAGE
from repro.errors import ParameterError
from repro.obs.trace import span
from repro.utils.validation import check_matrix, check_vector


class NormScanIndex:
    """Data sorted by decreasing norm, with prefix-pruned exact queries."""

    def __init__(self, P):
        P = check_matrix(P, "P")
        self.norms_unsorted = np.linalg.norm(P, axis=1)
        self.order = np.argsort(-self.norms_unsorted, kind="stable")
        self.P_sorted = P[self.order]
        self.norms = self.norms_unsorted[self.order]
        self.n, self.d = P.shape

    def prefix_length(self, query_norm: float, threshold: float) -> int:
        """Vectors that could reach ``threshold`` against a query this long."""
        if threshold <= 0:
            return self.n
        if query_norm <= 0:
            return 0
        # Lower the cutoff by the dot product's rounding-error bound
        # (gamma_d = d * eps, plus the norm and the division): a computed
        # p . q can reach the threshold while |p| rounds to just below
        # threshold / |q|, and pruning must never drop an exact match.
        slack = (self.d + 2) * np.finfo(np.float64).eps
        cutoff = threshold / query_norm * (1.0 - slack)
        # norms are descending; count entries >= cutoff.
        return int(np.searchsorted(-self.norms, -cutoff, side="right"))

    def query(self, q, threshold: float, signed: bool = True, block: int = 256):
        """Best data index with (absolute) inner product >= threshold.

        Returns ``(index, value, work)`` with ``index = None`` on a miss;
        ``work`` is the number of inner products evaluated.  Scans the
        norm-ordered prefix in blocks, tightening with the running best:
        scanning stops as soon as ``|p| |q|`` of the next block cannot
        beat the current best *and* the best already clears the
        threshold.
        """
        q = check_vector(q, "q")
        if q.size != self.d:
            raise ParameterError(f"expected query dimension {self.d}, got {q.size}")
        q_norm = float(np.linalg.norm(q))
        limit = self.prefix_length(q_norm, threshold)
        best_value = -np.inf
        best_index: Optional[int] = None
        work = 0
        for start in range(0, limit, block):
            stop = min(start + block, limit)
            # Upper bound for everything from `start` on.
            bound = self.norms[start] * q_norm
            if best_value >= threshold and best_value >= bound:
                break
            values = self.P_sorted[start:stop] @ q
            scores = values if signed else np.abs(values)
            work += stop - start
            local = int(np.argmax(scores))
            if scores[local] > best_value:
                best_value = float(scores[local])
                best_index = int(self.order[start + local])
        if best_index is None or best_value < threshold:
            return None, best_value, work
        return best_index, best_value, work

    def query_block(
        self, Q_block, threshold: float, signed: bool = True, block: int = 256
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`query` over the rows of ``Q_block``.

        Returns ``(indices, values, work)`` arrays; ``indices[i]`` is
        ``-1`` on a miss.  Walks the norm-ordered data in the same
        ``block``-sized prefix steps as the scalar scan, evaluating each
        step as one GEMM over the still-active queries (falling back to
        per-query GEMVs when per-query prefix limits make the shared GEMM
        waste arithmetic, the :mod:`repro.core.verify` cost test).  A
        query leaves the active set exactly when the scalar scan would
        have stopped, so per-query work counts are preserved.
        """
        Q_block = check_matrix(Q_block, "Q", allow_empty=True)
        b = Q_block.shape[0]
        if b and Q_block.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q_block.shape[1]}"
            )
        best_values = np.full(b, -np.inf)
        best_indices = np.full(b, -1, dtype=np.int64)
        work = np.zeros(b, dtype=np.int64)
        if b == 0:
            return best_indices, best_values, work
        q_norms = np.linalg.norm(Q_block, axis=1)
        limits = np.array(
            [self.prefix_length(float(qn), threshold) for qn in q_norms],
            dtype=np.int64,
        )
        active = limits > 0
        start = 0
        max_limit = int(limits.max())
        while start < max_limit and active.any():
            stop = min(start + block, max_limit)
            # The scalar scan checks its stopping rule *before* this step.
            bound = self.norms[start] * q_norms
            active &= ~((best_values >= threshold) & (best_values >= bound))
            active &= limits > start
            qidx = np.flatnonzero(active)
            if qidx.size == 0:
                start = stop
                continue
            stops = np.minimum(limits[qidx], stop)
            evaluated = int((stops - start).sum())
            work[qidx] += stops - start
            if (stop - start) * qidx.size <= GEMM_ADVANTAGE * evaluated:
                values = self.P_sorted[start:stop] @ Q_block[qidx].T
                scores = values if signed else np.abs(values)
                # Rows past a query's own prefix limit were never part of
                # its scalar scan; mask them out of the argmax.
                rows = np.arange(start, stop)[:, None]
                scores = np.where(rows < stops[None, :], scores, -np.inf)
                local = np.argmax(scores, axis=0)
                local_scores = scores[local, np.arange(qidx.size)]
            else:
                local = np.empty(qidx.size, dtype=np.int64)
                local_scores = np.empty(qidx.size)
                for pos, (qi, q_stop) in enumerate(zip(qidx, stops)):
                    vals = self.P_sorted[start:q_stop] @ Q_block[qi]
                    sc = vals if signed else np.abs(vals)
                    local[pos] = int(np.argmax(sc))
                    local_scores[pos] = sc[local[pos]]
            better = local_scores > best_values[qidx]
            upd = qidx[better]
            best_values[upd] = local_scores[better]
            best_indices[upd] = self.order[start + local[better]]
            start = stop
        misses = best_values < threshold
        best_indices[misses] = -1
        return best_indices, best_values, work

    def _collect_topk(self, buf, scores, start: int, threshold: float, k: int):
        """Merge one prefix step's above-threshold scores into a top-k buffer.

        ``buf`` holds ``(score, global_index)`` pairs ranked by
        ``(-score, index)`` — the deterministic tie order the top-k scan
        reports — and is kept truncated to ``k``.
        """
        for local in np.flatnonzero(scores >= threshold):
            buf.append((float(scores[local]), int(self.order[start + local])))
        buf.sort(key=lambda entry: (-entry[0], entry[1]))
        del buf[k:]

    def topk_block(
        self,
        Q_block,
        threshold: float,
        k: int,
        signed: bool = True,
        block: int = 256,
    ) -> Tuple[List[List[int]], np.ndarray]:
        """Top-k-above-threshold lists for the rows of ``Q_block``.

        The LEMP-style extension of :meth:`query_block`: the same
        norm-ordered prefix walk, but each query keeps its ``k`` best
        above-``threshold`` scores instead of a single champion.  A query
        leaves the active set once its k-th best score reaches the
        ``|p| |q|`` bound of the next prefix step — no later vector can
        then displace any of its current top k.  Ties rank by
        ``(-score, index)``.  Returns ``(topk_lists, work)``.
        """
        Q_block = check_matrix(Q_block, "Q", allow_empty=True)
        b = Q_block.shape[0]
        if b and Q_block.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q_block.shape[1]}"
            )
        work = np.zeros(b, dtype=np.int64)
        buffers: List[List[Tuple[float, int]]] = [[] for _ in range(b)]
        if b == 0:
            return [], work
        # k-th best collected score per query; -inf until k entries clear
        # the threshold, so the stop rule below cannot fire early.
        kth_best = np.full(b, -np.inf)
        q_norms = np.linalg.norm(Q_block, axis=1)
        limits = np.array(
            [self.prefix_length(float(qn), threshold) for qn in q_norms],
            dtype=np.int64,
        )
        active = limits > 0
        start = 0
        max_limit = int(limits.max())
        while start < max_limit and active.any():
            stop = min(start + block, max_limit)
            bound = self.norms[start] * q_norms
            active &= ~(kth_best >= bound)
            active &= limits > start
            qidx = np.flatnonzero(active)
            if qidx.size == 0:
                start = stop
                continue
            stops = np.minimum(limits[qidx], stop)
            evaluated = int((stops - start).sum())
            work[qidx] += stops - start
            if (stop - start) * qidx.size <= GEMM_ADVANTAGE * evaluated:
                values = self.P_sorted[start:stop] @ Q_block[qidx].T
                scores = values if signed else np.abs(values)
                rows = np.arange(start, stop)[:, None]
                scores = np.where(rows < stops[None, :], scores, -np.inf)
                for pos, qi in enumerate(qidx):
                    self._collect_topk(
                        buffers[qi], scores[:, pos], start, threshold, k
                    )
            else:
                for qi, q_stop in zip(qidx, stops):
                    vals = self.P_sorted[start:q_stop] @ Q_block[qi]
                    sc = vals if signed else np.abs(vals)
                    self._collect_topk(buffers[qi], sc, start, threshold, k)
            for qi in qidx:
                if len(buffers[qi]) == k:
                    kth_best[qi] = buffers[qi][-1][0]
            start = stop
        lists = [[gidx for _, gidx in buf] for buf in buffers]
        return lists, work


def norm_scan_topk_chunk(
    index: NormScanIndex,
    Q_chunk,
    signed: bool,
    cs: float,
    k: int,
    scan_block: int,
    block: int,
) -> Tuple[List[List[int]], int, int, QueryStats]:
    """Prefix-pruned exact top-k over one contiguous query chunk.

    Returns ``(topk_lists, inner_products_evaluated,
    candidates_generated, stats)`` — the same tuple shape as
    :func:`repro.core.topk.topk_chunk`, and the same lists on tie-free
    data, evaluating only the norm-qualified prefixes.  Chunk boundaries
    must align to ``block`` multiples (the executor's contract), for the
    same GEMM/GEMV cost-test reason as :func:`norm_scan_chunk`.
    """
    out: List[List[int]] = []
    work = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        with span("scan", n_queries=min(block, Q_chunk.shape[0] - q0)):
            lists, evaluated = index.topk_block(
                Q_chunk[q0:q0 + block],
                threshold=cs,
                k=k,
                signed=signed,
                block=scan_block,
            )
        work += int(evaluated.sum())
        out.extend(lists)
    stats = QueryStats(
        queries=len(out), candidates=work, unique_candidates=work
    )
    return out, work, work, stats


def norm_scan_chunk(
    index: NormScanIndex,
    Q_chunk,
    signed: bool,
    cs: float,
    scan_block: int,
    block: int,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Prefix-pruned exact scan over one contiguous query chunk.

    Returns ``(matches, inner_products_evaluated, candidates_generated,
    stats)``.  ``block`` groups queries into the shared-GEMM batches of
    :meth:`NormScanIndex.query_block`; ``scan_block`` is the prefix step
    along the norm-sorted data.  Because the GEMM/GEMV cost test inside
    ``query_block`` depends on which queries share a batch, chunk
    boundaries must align to ``block`` multiples for results to be
    independent of chunking — the same contract the executor enforces.
    """
    matches: List[Optional[int]] = []
    work = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        with span("scan", n_queries=min(block, Q_chunk.shape[0] - q0)):
            indices, _, evaluated = index.query_block(
                Q_chunk[q0:q0 + block],
                threshold=cs,
                signed=signed,
                block=scan_block,
            )
        work += int(evaluated.sum())
        matches.extend(int(i) if i >= 0 else None for i in indices)
    stats = QueryStats(
        queries=len(matches), candidates=work, unique_candidates=work
    )
    return matches, work, work, stats


def norm_pruned_join(
    P,
    Q,
    spec: JoinSpec,
    block: int = 256,
    query_block: int = 256,
) -> JoinResult:
    """Exact ``(cs, s)`` join with Cauchy-Schwarz norm pruning.

    Produces exactly the matches of :func:`repro.core.brute_force.
    brute_force_join` (same best-partner convention) while evaluating only
    the norm-qualified prefixes.  A thin shim over the unified engine
    (``backend="norm_pruned"``): queries are processed ``query_block`` at
    a time through :meth:`NormScanIndex.query_block`, turning the
    per-query GEMV stream into shared prefix GEMMs without changing
    matches or work counts.
    """
    from repro.engine.api import join as engine_join

    return engine_join(
        P, Q, spec, backend="norm_pruned", block=query_block, scan_block=block
    )
