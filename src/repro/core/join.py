"""The paper's reduction of unsigned to signed join.

From the problem-definition section: a pair with ``|p . q| >= cs`` has
either ``p . q >= cs`` or ``p . (-q) >= cs``, so an unsigned ``(cs, s)``
join is two signed joins — against ``Q`` and against ``-Q`` — whose
results are merged.  :func:`unsigned_via_signed` runs both through
:func:`repro.engine.join`; it is a *reduction* over the engine, not a
backend, so it takes the engine's own options.
"""

from __future__ import annotations

import numpy as np

from repro.core.problems import JoinResult, JoinSpec, validate_join_inputs
from repro.errors import ParameterError


def unsigned_via_signed(P, Q, spec: JoinSpec, **options) -> JoinResult:
    """Unsigned join by two signed joins: against ``Q`` and against ``-Q``.

    ``options`` go to both :func:`repro.engine.join` calls unchanged
    (e.g. ``backend="brute_force"``, or ``backend="lsh", family=...,
    seed=...``).  Per query, the better verified ``|p . q|`` of the two
    signed answers is kept when it clears ``spec.cs``; work counters are
    the sums of both runs.
    """
    from repro.engine.api import join as engine_join

    if spec.signed or spec.variant != "join":
        raise ParameterError("unsigned_via_signed answers unsigned threshold joins")
    P, Q = validate_join_inputs(P, Q)
    signed_spec = JoinSpec(s=spec.s, c=spec.c, signed=True)
    positive = engine_join(P, Q, signed_spec, **options)
    negative = engine_join(P, -Q, signed_spec, **options)
    matches = []
    for i in range(Q.shape[0]):
        best = None
        best_value = -np.inf
        for result in (positive, negative):
            match = result.matches[i]
            if match is None:
                continue
            value = abs(float(P[match] @ Q[i]))
            if value >= spec.cs and value > best_value:
                best, best_value = match, value
        matches.append(best)
    return JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=(
            positive.inner_products_evaluated + negative.inner_products_evaluated
        ),
        candidates_generated=(
            positive.candidates_generated + negative.candidates_generated
        ),
    )
