import numpy as np
import pytest

from repro.core import JoinSpec, NormScanIndex, brute_force_join, norm_pruned_join
from repro.datasets import latent_factor_model
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def model():
    return latent_factor_model(16, 400, rank=10, popularity_skew=1.0, seed=0)


class TestNormScanIndex:
    def test_norms_sorted_descending(self, model):
        index = NormScanIndex(model.items)
        assert (np.diff(index.norms) <= 1e-12).all()

    def test_prefix_length_cutoff(self, model):
        index = NormScanIndex(model.items)
        length = index.prefix_length(query_norm=1.0, threshold=0.5)
        assert (index.norms[:length] >= 0.5 - 1e-12).all()
        if length < index.n:
            assert index.norms[length] < 0.5

    def test_prefix_keeps_match_at_rounded_cutoff(self):
        """p . q rounds up to exactly cs while threshold / |q| rounds above
        |p|: the prefix must still contain p (brute force matches it)."""
        P = np.zeros((8, 4))
        P[0, 0] = 0.1
        Q = np.zeros((5, 4))
        Q[0, 0] = 0.1
        spec = JoinSpec(s=0.1, c=0.1, signed=False)
        assert brute_force_join(P, Q, spec).matches[0] == 0
        assert norm_pruned_join(P, Q, spec).matches[0] == 0

    def test_prefix_zero_threshold_scans_all(self, model):
        index = NormScanIndex(model.items)
        assert index.prefix_length(1.0, 0.0) == index.n

    def test_prefix_zero_query(self, model):
        index = NormScanIndex(model.items)
        assert index.prefix_length(0.0, 0.5) == 0

    def test_query_finds_exact_best(self, model):
        index = NormScanIndex(model.items)
        for u in range(16):
            q = model.users[u]
            prefs = model.preference(u)
            found, value, work = index.query(q, threshold=float(prefs.max()) * 0.99)
            assert found == int(np.argmax(prefs))
            assert abs(value - prefs.max()) < 1e-12

    def test_query_miss(self, model):
        index = NormScanIndex(model.items)
        found, _, work = index.query(model.users[0], threshold=100.0)
        assert found is None
        assert work == 0  # no vector can reach the threshold

    def test_wrong_dimension(self, model):
        index = NormScanIndex(model.items)
        with pytest.raises(ParameterError):
            index.query(np.zeros(3), threshold=0.5)


class TestNormPrunedJoin:
    def test_matches_brute_force_values(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        pruned = norm_pruned_join(model.items, model.users, spec)
        exact = brute_force_join(model.items, model.users, spec)
        # Compare matched values, not indices, to be robust to exact ties.
        for qi in range(model.n_users):
            a, b = pruned.matches[qi], exact.matches[qi]
            assert (a is None) == (b is None)
            if a is not None:
                va = float(model.items[a] @ model.users[qi])
                vb = float(model.items[b] @ model.users[qi])
                assert abs(va - vb) < 1e-12

    def test_prunes_on_skewed_norms(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        pruned = norm_pruned_join(model.items, model.users, spec)
        exact = brute_force_join(model.items, model.users, spec)
        assert pruned.inner_products_evaluated < exact.inner_products_evaluated / 2

    def test_unsigned_spec(self, rng):
        P = rng.normal(size=(100, 6))
        Q = rng.normal(size=(10, 6))
        spec = JoinSpec(s=0.5, signed=False)
        pruned = norm_pruned_join(P, Q, spec)
        exact = brute_force_join(P, Q, spec)
        for qi in range(10):
            a, b = pruned.matches[qi], exact.matches[qi]
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(abs(P[a] @ Q[qi]) - abs(P[b] @ Q[qi])) < 1e-12

    def test_equal_norms_degrades_to_scan(self, rng):
        # Unit-norm data: no pruning possible when the threshold is low.
        P = rng.normal(size=(50, 6))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        Q = rng.normal(size=(5, 6))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        spec = JoinSpec(s=0.05)
        pruned = norm_pruned_join(P, Q, spec, block=1000)
        # Some queries find an early best that cuts the scan; the prefix
        # itself is the full set.
        index = NormScanIndex(P)
        assert index.prefix_length(1.0, 0.05) == 50

    def test_small_blocks_consistent(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        a = norm_pruned_join(model.items, model.users, spec, block=7)
        b = norm_pruned_join(model.items, model.users, spec, block=1000)
        for qi in range(model.n_users):
            x, y = a.matches[qi], b.matches[qi]
            assert (x is None) == (y is None)


class TestQueryBlock:
    def test_blocked_equals_scalar_scan(self, model, rng):
        index = NormScanIndex(model.items)
        Q = model.users
        for signed in (True, False):
            for threshold in (0.1, 0.5, 2.0):
                indices, values, work = index.query_block(
                    Q, threshold=threshold, signed=signed, block=64
                )
                for qi, q in enumerate(Q):
                    found, value, evaluated = index.query(
                        q, threshold=threshold, signed=signed, block=64
                    )
                    assert int(indices[qi]) == (-1 if found is None else found)
                    assert int(work[qi]) == evaluated
                    assert values[qi] == pytest.approx(value, rel=1e-9, abs=1e-12)

    def test_blocked_join_preserves_matches_and_work(self, model):
        spec = JoinSpec(s=0.4, c=0.8)
        blocked = norm_pruned_join(model.items, model.users, spec, block=32, query_block=7)
        index = NormScanIndex(model.items)
        work = 0
        matches = []
        for q in model.users:
            found, _, evaluated = index.query(q, threshold=spec.cs, signed=True, block=32)
            matches.append(found)
            work += evaluated
        assert blocked.matches == matches
        assert blocked.inner_products_evaluated == work

    def test_query_block_empty(self, model):
        index = NormScanIndex(model.items)
        indices, values, work = index.query_block(
            np.empty((0, index.d)), threshold=0.5
        )
        assert indices.size == 0 and values.size == 0 and work.size == 0

    def test_query_block_dimension_mismatch(self, model):
        index = NormScanIndex(model.items)
        with pytest.raises(ParameterError):
            index.query_block(np.ones((2, index.d + 1)), threshold=0.5)
