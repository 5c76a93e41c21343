"""Exact and MinHash-filtered Jaccard set-join chunk kernels.

The Jaccard analogues of :mod:`repro.core.brute_force` /
:mod:`repro.core.topk` / :mod:`repro.core.self_join`: every kernel here
operates on one contiguous query chunk of a :class:`SetCollection` and
returns the ``(matches, evaluated, generated, stats)`` tuple the engine's
chunk contract expects, with the same determinism guarantees — strict
improvement / stable ranking keeps the lowest-index maximizer, so block
size, chunking, and worker count never change results.

Both kernels work on the CSR arrays directly and make a fixed number of
numpy passes per chunk (no Python loop per query, table or candidate).
Each produces ``(query, row, score)`` triples sorted by query then row,
and one reducer, :func:`reduce_pairs`, turns them into threshold, top-k
or self-join answers.

The exact scan inverts ``P`` into element postings once and intersects
a block of queries against *all* overlapping rows with one gather +
``bincount`` (cost per query = total posting length of its members, the
set analogue of one GEMV row).  The MinHash index partitions ``P`` by
set size (the ``MinHashLSHEnsemble`` idea: a size-incompatible partition
cannot reach the threshold, so it is never probed) and bands
``n_tables`` fused MinHash keys per row into one sorted bucket table of
``(partition, table, key)`` codes, so all of a chunk's probes are one
batched lookup.  Candidates are verified exactly, so the filter only
affects recall, never precision.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.problems import QueryStats
from repro.datasets.sets import SetCollection
from repro.errors import ParameterError
from repro.lsh.csr import CSRBucketTable, multi_arange, sorted_unique
from repro.lsh.minhash import MinHash
from repro.obs.trace import span

#: Default MinHash banding: 32 tables of 4 fused minima per key.  At the
#: bench's planted threshold (J >= 0.6) a true pair collides in at least
#: one table with probability ``1 - (1 - 0.6^4)^32 ~ 0.989``.
DEFAULT_MINHASH_TABLES = 32
DEFAULT_MINHASH_HASHES = 4
DEFAULT_MINHASH_PARTITIONS = 8

#: Element budget for one pass's intermediates (the scan's gathered
#: postings plus ``n`` overlap counters per query; the verifier's query
#: member masks plus gathered candidate members).  Queries go through in
#: consecutive runs that stay within it; 512 KiB of int64 keeps a run's
#: arrays cache-resident, which measured fastest for the scan.
CHUNK_ELEMS = 1 << 16


def _budget_runs(weights: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Consecutive ``[lo, hi)`` item ranges whose ``weights`` sum to at
    most ``budget`` (a single heavier item gets a range of its own)."""
    ends = np.cumsum(weights)
    runs = []
    lo = 0
    while lo < ends.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        runs.append((lo, hi))
        lo = hi
    return runs


def _jaccard_scores(
    inter: np.ndarray, sizes_p: np.ndarray, sizes_q: np.ndarray
) -> np.ndarray:
    union = sizes_p + sizes_q - inter
    # union == 0 only for empty-vs-empty pairs, defined as similarity 0.
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def reduce_pairs(
    qid: np.ndarray,
    rows: np.ndarray,
    scores: np.ndarray,
    n_queries: int,
    cs: float,
    *,
    k: Optional[int] = None,
    self_start: Optional[int] = None,
    match_duplicates: bool = True,
):
    """Per-query answers from ``(query, row, score)`` triples in any order.

    Without ``k`` each query
    gets its lowest-index maximizer, or ``None`` below ``cs``; with ``k``
    it gets up to ``k`` rows scoring at least ``cs``, ranked by score
    with ties to the lower index.  With ``self_start`` (the chunk's
    global offset into ``P``) each query's own row is dropped, and with
    ``match_duplicates`` off so are rows scoring exactly 1 (sets equal to
    the query set).  Returns ``(answers, pairs)``, where ``pairs[q]``
    counts the triples query ``q`` kept after the self mask.
    """
    if self_start is not None:
        keep = rows != self_start + qid
        qid, rows, scores = qid[keep], rows[keep], scores[keep]
    pairs = np.bincount(qid, minlength=n_queries)
    keep = scores >= cs
    if self_start is not None and not match_duplicates:
        keep &= scores < 1.0
    qid, rows, scores = qid[keep], rows[keep], scores[keep]
    order = np.lexsort((rows, -scores, qid))
    qid, rows = qid[order], rows[order]
    starts = np.searchsorted(qid, np.arange(n_queries + 1))
    rank = np.arange(qid.size) - np.repeat(starts[:-1], np.diff(starts))
    top = rank < (1 if k is None else k)
    ranked = rows[top].tolist()
    bounds = np.searchsorted(qid[top], np.arange(n_queries + 1)).tolist()
    lists = [ranked[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if k is None:
        return [lst[0] if lst else None for lst in lists], pairs
    return lists, pairs


def _chunk_answer(answers, n_queries: int, evaluated: int, generated: int):
    """The chunk contract's ``(answers, evaluated, generated, stats)``."""
    stats = QueryStats()
    stats.record_batch(n_queries, generated, evaluated)
    return answers, evaluated, generated, stats


class SetPostings:
    """Inverted index of a :class:`SetCollection`: element -> member rows.

    ``rows[indptr[e]:indptr[e+1]]`` lists (ascending) the rows whose sets
    contain element ``e`` — the transpose of the collection's CSR, built
    once per join and shared read-only across workers.
    """

    __slots__ = ("indptr", "rows", "sizes", "n", "universe")

    def __init__(self, sets: SetCollection):
        n, universe = sets.shape
        counts = np.bincount(sets.indices, minlength=universe)
        indptr = np.zeros(universe + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(sets.indices, kind="stable")
        self.rows = np.repeat(np.arange(n, dtype=np.int64), sets.sizes)[order]
        self.indptr = indptr
        self.sizes = sets.sizes.astype(np.int64)
        self.n = int(n)
        self.universe = int(universe)

    def overlap_runs(self, Q: SetCollection):
        """Yield ``(lo, qid, rows, inter, gathered)`` per run of queries.

        A run starting at query ``lo`` lists every ``(query, row)`` pair
        sharing at least one element, sorted by query then row, with its
        intersection size; ``gathered`` holds the posting entries each of
        its queries touched (candidate pairs with multiplicity).  Runs
        stay within ``CHUNK_ELEMS`` gathered entries plus ``n`` counters
        per query.
        """
        n = self.n
        member_lens = self.indptr[Q.indices + 1] - self.indptr[Q.indices]
        ends = np.r_[0, np.cumsum(member_lens)]
        per_query = ends[Q.indptr[1:]] - ends[Q.indptr[:-1]]
        for lo, hi in _budget_runs(per_query + n, CHUNK_ELEMS):
            a, b = Q.indptr[lo], Q.indptr[hi]
            lens = member_lens[a:b]
            owner = np.repeat(np.arange(hi - lo) * n, Q.sizes[lo:hi])
            pair = np.repeat(owner, lens) + self.rows[
                multi_arange(self.indptr[Q.indices[a:b]], lens)
            ]
            counts = np.bincount(pair, minlength=(hi - lo) * n)
            hits = np.flatnonzero(counts)
            per_run = np.diff(np.searchsorted(hits, np.arange(hi - lo + 1) * n))
            qid = np.repeat(np.arange(hi - lo), per_run)
            yield lo, qid, hits - qid * n, counts[hits], per_query[lo:hi]


def set_scan_chunk(
    postings: SetPostings,
    Q_chunk: SetCollection,
    cs: float,
    *,
    k: Optional[int] = None,
    self_start: Optional[int] = None,
    match_duplicates: bool = True,
):
    """Exact Jaccard join over one contiguous query chunk.

    Handles the same three variants as :func:`minhash_join_chunk`.  A
    self-join query whose only overlap is itself counts no generated
    pairs.
    """
    m = len(Q_chunk)
    answers: list = []
    evaluated = generated = 0
    with span("set_scan", n_queries=m):
        for lo, qid, rows, inter, gathered in postings.overlap_runs(Q_chunk):
            scores = _jaccard_scores(inter, postings.sizes[rows],
                                     Q_chunk.sizes[lo + qid])
            run, pairs = reduce_pairs(
                qid, rows, scores, gathered.size, cs, k=k,
                self_start=None if self_start is None else self_start + lo,
                match_duplicates=match_duplicates,
            )
            answers += run
            evaluated += int(pairs.sum())
            generated += int(gathered[pairs > 0].sum())
    return _chunk_answer(answers, m, evaluated, generated)


def hash_sets(tables, sets: SetCollection, side: str = "data") -> np.ndarray:
    """Fused MinHash keys ``(n, n_tables)`` of a collection, hashed
    straight from its CSR arrays."""
    return tables.hash_csr(sets.indptr, sets.indices, sets.universe, side=side)


class MinHashSetIndex:
    """Size-partitioned MinHash index over a :class:`SetCollection`.

    ``P`` is split into ``num_part`` equal-count partitions by set size
    (the ensemble trick): a partition whose size range ``[lo, hi]``
    cannot reach Jaccard ``t`` against a query of size ``q`` — i.e.
    ``hi / q < t`` or ``q / lo < t`` — is skipped at query time.  Every
    row's ``n_tables`` fused keys are recoded to dense ranks and stored
    as ``(partition, table, rank)`` codes in one CSR bucket table, so
    every probe of a query chunk is one batched lookup.
    """

    def __init__(
        self,
        P: SetCollection,
        *,
        n_tables: int = DEFAULT_MINHASH_TABLES,
        hashes_per_table: int = DEFAULT_MINHASH_HASHES,
        num_part: int = DEFAULT_MINHASH_PARTITIONS,
        seed: int = 0,
    ):
        if n_tables < 1 or hashes_per_table < 1 or num_part < 1:
            raise ParameterError(
                "n_tables, hashes_per_table and num_part must all be >= 1"
            )
        n, universe = P.shape
        self.P = P
        self.n_tables = int(n_tables)
        self.sizes = P.sizes.astype(np.int64)
        rng = np.random.default_rng(seed)
        self.tables = MinHash(universe).sample_batch(
            rng, hashes_per_table, n_tables
        )
        keys = hash_sets(self.tables, P, side="data")
        order = np.argsort(self.sizes, kind="stable")
        num_part = min(int(num_part), max(1, n))
        bounds = np.linspace(0, n, num_part + 1).astype(np.int64)
        starts, ends = bounds[:-1], bounds[1:]
        filled = ends > starts
        self.part_lo = self.sizes[order[starts[filled]]]
        self.part_hi = self.sizes[order[ends[filled] - 1]]
        part = np.empty(n, dtype=np.int64)
        part[order] = np.repeat(np.arange(filled.sum()), (ends - starts)[filled])
        # Recode keys to dense ranks so the (partition, table, rank) code
        # fits an int64.
        by_key = np.argsort(keys, axis=None)
        ordered = keys.ravel()[by_key]
        fresh = np.ones(ordered.size, dtype=bool)
        fresh[1:] = ordered[1:] != ordered[:-1]
        self.codebook = ordered[fresh]
        ranks = np.empty(keys.size, dtype=np.int64)
        ranks[by_key] = np.cumsum(fresh) - 1
        codes = self._codes(part[:, None], ranks.reshape(keys.shape))
        self.buckets = CSRBucketTable.from_keys(
            codes.ravel(), np.repeat(np.arange(n), self.n_tables)
        )

    def _codes(self, part: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        tables = np.arange(self.n_tables, dtype=np.int64)
        return (part * self.n_tables + tables) * self.codebook.size + ranks

    def _reachable(self, q_sizes: np.ndarray, threshold: float) -> np.ndarray:
        """``(m, partitions)`` mask of the partitions a query can match.

        The best Jaccard a size-``q`` query reaches in ``[lo, hi]`` is
        ``hi / q`` below it and ``q / lo`` above it, computed with the
        verifier's division so a pair exactly at the threshold survives.
        """
        q = q_sizes[:, None]
        lo, hi = self.part_lo[None, :], self.part_hi[None, :]
        return (
            (q > 0)
            & ~(hi / np.maximum(q, 1) < threshold)
            & ((lo == 0) | ~(q / np.maximum(lo, 1) < threshold))
        )

    def probe(
        self, q_keys: np.ndarray, q_sizes: np.ndarray, threshold: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(qid, rows, multiplicity)`` for a block of queries.

        ``(qid, rows)`` lists each distinct colliding pair once, sorted
        by query then row; ``multiplicity[q]`` counts query ``q``'s
        collisions over every probed partition and table.
        """
        m, n = q_sizes.size, self.sizes.size
        if self.codebook.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.zeros(m, dtype=np.int64)
        ranks = np.minimum(np.searchsorted(self.codebook, q_keys),
                           self.codebook.size - 1)
        known = self.codebook[ranks] == q_keys
        qs, parts = np.nonzero(self._reachable(q_sizes, threshold))
        live = known[qs]
        codes = self._codes(parts[:, None], ranks[qs])[live]
        owner = np.broadcast_to(qs[:, None], live.shape)[live]
        rows, lens = self.buckets.gather(*self.buckets.lookup(codes))
        multiplicity = np.bincount(owner, weights=lens, minlength=m)
        pairs = sorted_unique(np.repeat(owner * n, lens) + rows)
        return pairs // n, pairs % n, multiplicity.astype(np.int64)

    def verify_pairs(self, q_indptr: np.ndarray, q_indices: np.ndarray,
                     qid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Exact Jaccard of each ``(query, row)`` pair, sorted by query.

        Queries arrive in CSR form; a run of them is expanded to a dense
        member mask and each candidate row's members are looked up in it.
        """
        P, universe = self.P, self.P.universe
        q_sizes = np.diff(q_indptr)
        m = q_sizes.size
        p_sizes = self.sizes[rows]
        bounds = np.searchsorted(qid, np.arange(m + 1))
        work = universe + np.bincount(qid, weights=p_sizes, minlength=m)
        scores = np.empty(qid.size, dtype=np.float64)
        for lo, hi in _budget_runs(work, CHUNK_ELEMS):
            a, b = bounds[lo], bounds[hi]
            mask = np.zeros((hi - lo) * universe, dtype=bool)
            mask[np.repeat(np.arange(hi - lo) * universe, q_sizes[lo:hi])
                 + q_indices[q_indptr[lo]:q_indptr[hi]]] = True
            lens = p_sizes[a:b]
            found = np.r_[0, np.cumsum(mask[
                np.repeat((qid[a:b] - lo) * universe, lens)
                + P.indices[multi_arange(P.indptr[rows[a:b]], lens)]
            ])]
            ends = np.cumsum(lens)
            scores[a:b] = _jaccard_scores(
                found[ends] - found[ends - lens], lens, q_sizes[qid[a:b]]
            )
        return scores

    def candidates(
        self, q_keys: np.ndarray, q_size: int, threshold: float
    ) -> Tuple[np.ndarray, int]:
        """``(unique_rows, pairs_with_multiplicity)`` colliding with a query."""
        _, rows, multiplicity = self.probe(
            np.asarray(q_keys)[None, :], np.array([q_size]), threshold
        )
        return rows, int(multiplicity[0])

    def verify(self, members: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Exact Jaccard of the query against each candidate row."""
        rows = np.asarray(rows, dtype=np.int64)
        return self.verify_pairs(
            np.array([0, members.size]), np.asarray(members, dtype=np.int64),
            np.zeros(rows.size, dtype=np.int64), rows,
        )


def minhash_join_chunk(
    index: MinHashSetIndex,
    Q_chunk: SetCollection,
    cs: float,
    *,
    k: Optional[int] = None,
    self_start: Optional[int] = None,
    match_duplicates: bool = True,
):
    """Filter-then-verify Jaccard join over one contiguous query chunk.

    Handles all three variants: threshold (default), top-k (``k`` set),
    and self-join (``self_start`` set to the chunk's global offset into
    ``P``).  Returns ``(matches_or_topk, evaluated, generated, stats)``.
    """
    m = len(Q_chunk)
    q_keys = hash_sets(index.tables, Q_chunk, side="query")
    with span("minhash_probe", n_queries=m):
        qid, rows, multiplicity = index.probe(q_keys, Q_chunk.sizes, cs)
        scores = index.verify_pairs(Q_chunk.indptr, Q_chunk.indices, qid, rows)
        answers, pairs = reduce_pairs(
            qid, rows, scores, m, cs, k=k, self_start=self_start,
            match_duplicates=match_duplicates,
        )
    return _chunk_answer(answers, m, int(pairs.sum()), int(multiplicity.sum()))
