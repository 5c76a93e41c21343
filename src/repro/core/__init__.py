"""The paper's primary problem API: signed/unsigned IPS joins and MIPS.

``problems`` defines the problem records; ``brute_force`` the exact
quadratic baselines; ``lsh_join`` the (A)LSH-driven ``(cs, s)`` join;
``sketch_join`` the Section 4.3 sketch join; ``algebraic`` the
embed-and-multiply baseline in the spirit of Valiant/Karppa et al.;
``scaling`` the c-MIPS <-> (cs,s)-search reductions; ``join`` the
top-level dispatch.
"""

from repro.core.problems import JoinResult, JoinSpec, MIPSResult, QueryStats
from repro.core.algebraic import chebyshev_expand_join
from repro.core.brute_force import (
    brute_force_join,
    brute_force_mips,
    brute_force_search,
)
from repro.core.executor import (
    WorkerPool,
    close_pools,
    get_pool,
    map_query_chunks,
    resolve_workers,
)
from repro.core.join import signed_join, unsigned_join
from repro.core.lsh_join import lsh_join
from repro.core.norm_pruning import NormScanIndex, norm_pruned_join
from repro.core.scaling import cmips_via_search
from repro.core.self_join import lsh_self_join, self_join
from repro.core.sketch_join import sketch_unsigned_join
from repro.core.topk import join_topk, lsh_join_topk, topk_recall
from repro.core.verify import BlockVerification, verify_block, verify_candidates

__all__ = [
    "JoinSpec",
    "JoinResult",
    "MIPSResult",
    "QueryStats",
    "brute_force_join",
    "brute_force_mips",
    "brute_force_search",
    "lsh_join",
    "sketch_unsigned_join",
    "chebyshev_expand_join",
    "cmips_via_search",
    "signed_join",
    "unsigned_join",
    "join_topk",
    "lsh_join_topk",
    "topk_recall",
    "NormScanIndex",
    "norm_pruned_join",
    "self_join",
    "lsh_self_join",
    "WorkerPool",
    "close_pools",
    "get_pool",
    "map_query_chunks",
    "resolve_workers",
    "BlockVerification",
    "verify_block",
    "verify_candidates",
]
