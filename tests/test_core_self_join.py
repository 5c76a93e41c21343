"""Self-joins (``engine.join(P, None, spec)``): identity pairs excluded,
duplicates by ``spec.match_duplicates``, exact and through an index."""

from dataclasses import replace

import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec
from repro.errors import ParameterError
from repro.lsh import BatchSignIndex


def run_self_join(P, spec, match_duplicates=True, **options):
    """``engine.join`` on the self-join form of ``spec`` (exact by default)."""
    self_spec = replace(spec, self_join=True, match_duplicates=match_duplicates)
    options.setdefault("backend", "brute_force")
    return engine.join(P, None, self_spec, **options)


class TestSelfJoin:
    def test_self_pairs_excluded(self, rng):
        P = rng.normal(size=(20, 6))
        spec = JoinSpec(s=0.01, signed=False)
        result = run_self_join(P, spec)
        for i, match in enumerate(result.matches):
            assert match != i

    def test_best_other_vector_found(self, rng):
        P = rng.normal(size=(30, 6))
        spec = JoinSpec(s=0.01, signed=False)
        result = run_self_join(P, spec)
        ips = np.abs(P @ P.T)
        np.fill_diagonal(ips, -np.inf)
        for i, match in enumerate(result.matches):
            if match is not None:
                assert abs(ips[i, match] - ips[i].max()) < 1e-12

    def test_duplicate_handling(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.2]])
        spec = JoinSpec(s=0.5)
        with_dups = run_self_join(P, spec, match_duplicates=True)
        assert with_dups.matches[0] == 1 and with_dups.matches[1] == 0
        without = run_self_join(P, spec, match_duplicates=False)
        assert without.matches[0] is None  # the only >= cs partner is a duplicate

    def test_threshold_respected(self, rng):
        P = rng.normal(size=(15, 4))
        spec = JoinSpec(s=100.0)
        assert run_self_join(P, spec).matched_count == 0

    def test_blocking_invariance(self, rng):
        P = rng.normal(size=(25, 5))
        spec = JoinSpec(s=0.2, signed=False)
        a = run_self_join(P, spec, block=4)
        b = run_self_join(P, spec, block=100)
        assert a.matches == b.matches

    def test_needs_two_vectors(self):
        with pytest.raises(ParameterError):
            run_self_join(np.ones((1, 3)), JoinSpec(s=1.0))


class TestLSHSelfJoin:
    def test_near_duplicates_found(self, rng):
        # Clustered data: pairs of near-duplicates.
        base = rng.normal(size=(25, 8))
        base *= 0.9 / np.linalg.norm(base, axis=1, keepdims=True)
        P = np.vstack([base, base + rng.normal(size=base.shape) * 0.01])
        P *= 0.99 / np.linalg.norm(P, axis=1, keepdims=True).max()
        spec = JoinSpec(s=0.7)
        idx = BatchSignIndex.for_symmetric(
            8, eps=0.05, n_tables=12, bits_per_table=8, seed=0
        ).build(P)
        exact = run_self_join(P, spec)
        approx = run_self_join(P, spec, backend="lsh", index=idx)
        assert approx.recall_against(exact) >= 0.8

    def test_self_excluded(self, rng):
        P = rng.normal(size=(30, 6))
        P *= 0.9 / np.linalg.norm(P, axis=1, keepdims=True)
        idx = BatchSignIndex.for_symmetric(
            6, eps=0.1, n_tables=8, bits_per_table=4, seed=1
        ).build(P)
        result = run_self_join(
            P, JoinSpec(s=0.01, signed=False), backend="lsh", index=idx
        )
        for i, match in enumerate(result.matches):
            assert match != i

    def test_duplicate_exclusion(self, rng):
        row = rng.normal(size=6)
        row *= 0.9 / np.linalg.norm(row)
        P = np.vstack([row, row, rng.normal(size=6) * 0.01])
        idx = BatchSignIndex.for_symmetric(
            6, eps=0.1, n_tables=8, bits_per_table=3, seed=2
        ).build(P)
        spec = JoinSpec(s=0.5)
        strict = run_self_join(
            P, spec, match_duplicates=False, backend="lsh", index=idx
        )
        assert strict.matches[0] is None

    def test_subquadratic_verification(self, rng):
        P = rng.normal(size=(200, 8))
        P *= 0.9 / np.linalg.norm(P, axis=1, keepdims=True)
        idx = BatchSignIndex.for_symmetric(
            8, eps=0.1, n_tables=6, bits_per_table=8, seed=3
        ).build(P)
        result = run_self_join(P, JoinSpec(s=0.6), backend="lsh", index=idx)
        assert result.inner_products_evaluated < 200 * 199 / 2
