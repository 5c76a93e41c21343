"""The CSR-native Jaccard kernels against scalar and per-query references.

* MinHash keys hashed straight from CSR equal the scalar per-row
  reference (``MinHashTables.hash_rows``) and the dense ``hash_matrix``,
  on awkward collections and with chunk boundaries inside the data;
  the asymmetric (MH-ALSH) hasher, which shares the CSR kernel, matches
  its own ``hash_rows`` on both sides;
* ``set_scan`` and ``minhash_lsh`` give the answers, work counters and
  ``QueryStats`` of straightforward per-query loops (kept below as the
  test-only reference) for every variant, block size and pool kind;
* the size-partition filter keeps pairs exactly at the threshold.
"""

import dataclasses

import numpy as np
import pytest

from repro import engine
from repro.core import set_join
from repro.core.problems import JoinSpec
from repro.core.set_join import MinHashSetIndex, SetPostings, hash_sets
from repro.datasets import SetCollection, planted_jaccard_sets
from repro.errors import ValidationError
from repro.lsh import batch_hash
from repro.lsh.minhash import AsymmetricMinHash, MinHash


def random_sets(rng, n, universe, max_size):
    sizes = rng.integers(0, max_size + 1, size=n)
    return [
        sorted(rng.choice(universe, size=min(s, universe), replace=False))
        for s in sizes
    ]


def awkward_collections():
    """``(name, SetCollection)`` pairs covering the kernel's edge cases."""
    rng = np.random.default_rng(5)
    out = []
    lists = random_sets(rng, 40, 64, 20) + [[], list(range(64)), [], [63]]
    out.append(("mixed", SetCollection.from_lists(lists, universe=64)))
    out.append(("universe_1", SetCollection.from_lists(
        [[0], [], [0], []], universe=1)))
    out.append(("one_row", SetCollection.from_lists([[3, 5, 9]], universe=16)))
    out.append(("all_empty", SetCollection.from_lists([[], []], universe=8)))
    return out


def tables_for(universe, seed=0, n_tables=6, hashes=3):
    return MinHash(universe).sample_batch(
        np.random.default_rng(seed), hashes, n_tables)


# ---------------------------------------------------------------------------
# keys


@pytest.mark.parametrize("name,sets", awkward_collections())
@pytest.mark.parametrize("side", ["data", "query"])
def test_csr_keys_equal_scalar_and_dense_references(name, sets, side):
    tables = tables_for(sets.universe)
    dense = sets.to_dense(dtype=np.int64)
    keys = hash_sets(tables, sets, side=side)
    assert keys.shape == (len(sets), tables.n_tables)
    np.testing.assert_array_equal(keys, tables.hash_rows(dense, side=side))
    np.testing.assert_array_equal(keys, tables.hash_matrix(dense, side=side))


@pytest.mark.parametrize("budget", [1, 7, 50])
def test_csr_keys_with_chunk_boundaries_inside_the_data(monkeypatch, budget):
    _, sets = awkward_collections()[0]
    tables = tables_for(sets.universe, seed=3)
    expected = tables.hash_rows(sets.to_dense(dtype=np.int64))
    monkeypatch.setattr(batch_hash, "CHUNK_ELEMS", budget)
    np.testing.assert_array_equal(hash_sets(tables, sets), expected)


def test_empty_set_hashes_to_the_sentinel_component():
    tables = tables_for(8, n_tables=2, hashes=1)
    keys = hash_sets(tables, SetCollection.from_lists([[]], universe=8))
    np.testing.assert_array_equal(keys, np.zeros((1, 2), dtype=np.int64))


def test_non_permutation_priorities_rejected():
    with pytest.raises(ValidationError, match="permutation"):
        batch_hash.MinHashTables(np.zeros((2, 4), dtype=np.int64), 2, 1)


def asymmetric_rows(rng, universe, max_norm, side):
    """Binary rows with an empty row, weight-``M`` rows and (query side
    only) a full-universe row, around random rows of legal weight."""
    cap = max_norm if side == "data" else universe
    weights = [0, max_norm, max_norm] + list(rng.integers(0, cap + 1, size=20))
    if side == "query":
        weights.append(universe)
    X = np.zeros((len(weights), universe), dtype=np.int64)
    for row, w in zip(X, weights):
        row[rng.choice(universe, size=w, replace=False)] = 1
    return X


@pytest.mark.parametrize("universe,max_norm", [(24, 6), (10, 10), (1, 1)])
@pytest.mark.parametrize("side", ["data", "query"])
@pytest.mark.parametrize("budget", [None, 1, 7])
def test_asymmetric_keys_equal_scalar_reference(
    monkeypatch, universe, max_norm, side, budget
):
    rng = np.random.default_rng(universe + max_norm)
    tables = AsymmetricMinHash(universe, max_norm).sample_batch(
        np.random.default_rng(2), 3, 4)
    X = asymmetric_rows(rng, universe, max_norm, side)
    expected = tables.hash_rows(X, side=side)
    if budget is not None:
        monkeypatch.setattr(batch_hash, "CHUNK_ELEMS", budget)
    np.testing.assert_array_equal(tables.hash_matrix(X, side=side), expected)


def test_asymmetric_non_permutation_priorities_rejected():
    with pytest.raises(ValidationError, match="permutation"):
        batch_hash.AsymmetricMinHashTables(
            np.zeros((2, 6), dtype=np.int64), 4, 2, 2, 1)


def test_universe_mismatch_rejected():
    tables = tables_for(8)
    sets = SetCollection.from_lists([[1]], universe=9)
    with pytest.raises(ValidationError, match="8 columns"):
        hash_sets(tables, sets)


# ---------------------------------------------------------------------------
# per-query reference loops (the kernels these replace, kept for testing)


def _overlaps(P, members):
    """Rows sharing an element with ``members``, their intersection
    sizes, and the posting entries a postings gather touches."""
    inter = np.array([np.intersect1d(P.row(i), members).size
                      for i in range(len(P))], dtype=np.int64)
    rows = np.flatnonzero(inter)
    return rows, inter[rows], int(inter.sum())


def _scores(inter, sizes_p, q_size):
    union = sizes_p + q_size - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def _answer(rows, scores, cs, k):
    if k is not None:
        keep = scores >= cs
        order = np.argsort(-scores[keep], kind="stable")[:k]
        return rows[keep][order].tolist()
    best = int(np.argmax(scores))
    return int(rows[best]) if scores[best] >= cs else None


def reference_scan(P, Q, cs, *, k=None, self_join=False,
                   match_duplicates=True):
    out, evaluated, generated, stats = [], 0, 0, [0, 0]
    sizes = P.sizes
    for qi, members in enumerate(Q):
        rows, inter, gathered = _overlaps(P, members)
        if self_join:
            keep = rows != qi
            rows, inter = rows[keep], inter[keep]
        if rows.size == 0:
            out.append([] if k is not None else None)
            continue
        scores = _scores(inter, sizes[rows], members.size)
        if self_join and not match_duplicates:
            scores = np.where(scores >= 1.0, -np.inf, scores)
        out.append(_answer(rows, scores, cs, k))
        evaluated += rows.size
        generated += gathered
        stats[0] += gathered
        stats[1] += rows.size
    return out, evaluated, generated, stats


def reference_minhash(index, P, Q, cs, *, k=None, self_join=False,
                      match_duplicates=True):
    """Per-partition, per-table bucket probes and ``np.isin`` checks."""
    n = len(P)
    keys = index.tables.hash_rows(P.to_dense(dtype=np.int64), side="data")
    q_keys = index.tables.hash_rows(Q.to_dense(dtype=np.int64), side="query")
    sizes = P.sizes
    order = np.argsort(sizes, kind="stable")
    num_part = min(set_join.DEFAULT_MINHASH_PARTITIONS, max(1, n))
    bounds = np.linspace(0, n, num_part + 1).astype(np.int64)
    partitions = [order[bounds[p]:bounds[p + 1]] for p in range(num_part)]
    out, evaluated, generated, stats = [], 0, 0, [0, 0]
    for qi, members in enumerate(Q):
        hits, total = [], 0
        for part in partitions:
            if members.size == 0 or part.size == 0:
                continue
            lo, hi = sizes[part[0]], sizes[part[-1]]
            if hi / members.size < cs or (lo and members.size / lo < cs):
                continue
            for t in range(index.n_tables):
                found = part[keys[part, t] == q_keys[qi, t]]
                hits.append(found)
                total += found.size
        rows = np.unique(np.concatenate(hits)) if hits else np.empty(0, int)
        if self_join:
            rows = rows[rows != qi]
        generated += total
        stats[0] += total
        if rows.size == 0:
            out.append([] if k is not None else None)
            continue
        inter = np.array([np.isin(P.row(r), members).sum() for r in rows])
        scores = _scores(inter, sizes[rows], members.size)
        if self_join and not match_duplicates:
            scores = np.where(scores >= 1.0, -np.inf, scores)
        out.append(_answer(rows, scores, cs, k))
        evaluated += rows.size
        stats[1] += rows.size
    return out, evaluated, generated, stats


# ---------------------------------------------------------------------------
# result equivalence


@pytest.fixture(scope="module")
def collections():
    P, Q = planted_jaccard_sets(90, 30, universe=80, mean_size=9,
                                threshold=0.5, seed=4)
    # An empty set, the full planted universe, a twin of row 5 and a row
    # no other set overlaps (elements 80..83).
    extra = [[], list(range(80)), P.row(5).tolist(), [80, 81, 82, 83]]
    P = SetCollection.from_lists(
        [P.row(i).tolist() for i in range(len(P))] + extra, universe=84)
    Q = SetCollection.from_lists(
        [Q.row(i).tolist() for i in range(len(Q))] + extra, universe=84)
    return P, Q


VARIANTS = [
    ("join", dict()),
    ("topk", dict(k=3)),
    ("self", dict(self_join=True, match_duplicates=True)),
    ("self_no_dup", dict(self_join=True, match_duplicates=False)),
]


def _spec(s, opts):
    return JoinSpec(s=s, measure="jaccard", **opts)


def _reference(backend, P, Q, s, opts, seed=0):
    spec = _spec(s, opts)
    target = P if spec.is_self else Q
    if backend == "set_scan":
        return reference_scan(P, target, spec.cs, **opts)
    index = MinHashSetIndex(P, seed=seed)
    return reference_minhash(index, P, target, spec.cs, **opts)


def _assert_same(result, ref, opts):
    answers, evaluated, generated, stats = ref
    if "k" in opts:
        assert result.topk == answers
    else:
        assert result.matches == answers
    assert result.inner_products_evaluated == evaluated
    assert result.candidates_generated == generated
    queries = len(result.matches)
    assert dataclasses.astuple(result.stats) == (
        queries, stats[0], stats[1], 0, 0)


@pytest.mark.parametrize("backend", ["set_scan", "minhash_lsh"])
@pytest.mark.parametrize("variant,opts", VARIANTS)
@pytest.mark.parametrize("s", [0.3, 0.6])
def test_kernels_match_per_query_reference(collections, backend, variant,
                                           opts, s):
    P, Q = collections
    ref = _reference(backend, P, Q, s, opts)
    spec = _spec(s, opts)
    for block in (1, 7, 256):
        result = engine.join(P, None if spec.is_self else Q, spec,
                             backend=backend, seed=0, block=block)
        _assert_same(result, ref, opts)


@pytest.mark.parametrize("backend", ["set_scan", "minhash_lsh"])
@pytest.mark.parametrize("variant,opts", VARIANTS)
@pytest.mark.parametrize("pool", ["thread", "process"])
def test_parallel_kernels_match_reference(collections, backend, variant,
                                          opts, pool):
    P, Q = collections
    ref = _reference(backend, P, Q, 0.5, opts)
    spec = _spec(0.5, opts)
    result = engine.join(P, None if spec.is_self else Q, spec,
                         backend=backend, seed=0, block=7, n_workers=2,
                         pool=pool)
    _assert_same(result, ref, opts)


@pytest.mark.parametrize("variant,opts", VARIANTS)
def test_tiny_budget_runs_match_reference(collections, monkeypatch,
                                          variant, opts):
    P, Q = collections
    monkeypatch.setattr(set_join, "CHUNK_ELEMS", 3)
    monkeypatch.setattr(batch_hash, "CHUNK_ELEMS", 5)
    spec = _spec(0.4, opts)
    for backend in ("set_scan", "minhash_lsh"):
        result = engine.join(P, None if spec.is_self else Q, spec,
                             backend=backend, seed=0, block=64)
        _assert_same(result, _reference(backend, P, Q, 0.4, opts), opts)


def test_one_query_wrappers_match_batch_kernels(collections):
    P, Q = collections
    index = MinHashSetIndex(P, seed=0)
    q_keys = hash_sets(index.tables, Q, side="query")
    qid, rows, multiplicity = index.probe(q_keys, Q.sizes, 0.5)
    scores = index.verify_pairs(Q.indptr, Q.indices, qid, rows)
    for qi, members in enumerate(Q):
        mine = qid == qi
        one_rows, one_total = index.candidates(q_keys[qi], members.size, 0.5)
        np.testing.assert_array_equal(one_rows, rows[mine])
        assert one_total == multiplicity[qi]
        np.testing.assert_array_equal(index.verify(members, one_rows),
                                      scores[mine])


def test_postings_pairs_match_per_query_overlaps(collections, monkeypatch):
    P, Q = collections
    monkeypatch.setattr(set_join, "CHUNK_ELEMS", 100)
    postings = SetPostings(P)
    seen = 0
    for lo, qid, rows, inter, gathered in postings.overlap_runs(Q):
        for local in range(gathered.size):
            ref_rows, ref_inter, ref_gathered = _overlaps(P, Q.row(lo + local))
            np.testing.assert_array_equal(rows[qid == local], ref_rows)
            np.testing.assert_array_equal(inter[qid == local], ref_inter)
            assert gathered[local] == ref_gathered
        seen += gathered.size
    assert seen == len(Q)


# ---------------------------------------------------------------------------
# size-partition filter at the exact threshold


@pytest.mark.parametrize("s,small,large", [(0.56, 14, 25), (0.28, 7, 25)])
def test_partition_filter_keeps_pairs_exactly_at_threshold(s, small, large):
    P = SetCollection.from_lists([list(range(small))], universe=large)
    Q = SetCollection.from_lists([list(range(large))], universe=large)
    spec = JoinSpec(s=s, measure="jaccard")
    assert engine.join(P, Q, spec, backend="set_scan").matches == [0]
    approx = engine.join(P, Q, spec, backend="minhash_lsh", seed=0,
                         n_tables=64, hashes_per_table=1)
    assert approx.matches == [0]


@pytest.mark.parametrize("backend", ["set_scan", "minhash_lsh"])
def test_empty_data_collection(backend):
    P = SetCollection(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), 8)
    Q = SetCollection.from_lists([[1, 2], []], universe=8)
    result = engine.join(P, Q, JoinSpec(s=0.5, k=2, measure="jaccard"),
                         backend=backend, seed=0)
    assert result.topk == [[], []]
    assert result.inner_products_evaluated == 0
