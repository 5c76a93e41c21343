"""The engine's stage walk: prepare/run/merge machinery behind every join.

This module is the execution half of the engine: one-shot joins and
long-lived sessions (:mod:`repro.engine.session`) drive the *same* walk
(:func:`run_plan`) with one difference: where the prepared stage
structures come from.  Every stage runs one body — prepare (or reuse),
build under trace, :func:`~repro.core.executor.map_query_chunks` with
:func:`_engine_runner`, :func:`merge_chunks` — and a single-stage plan
is exactly that body, without a ``stage`` span and without a fold.

* A one-shot ``engine.join()`` passes no :class:`PreparedStage` objects;
  every stage prepares (and, under tracing, builds) inline inside its
  span — the historical behavior, bit for bit, spans included.
* A session prepares every stage once at ``open()`` via
  :func:`prepare_stage` and passes the results back in on each
  ``query()``; the walk then reuses the built payloads (and the
  materialized point-partition copies) instead of re-preparing.  Stages
  that consume a filter stage's per-query ``proposals``
  (:meth:`~repro.engine.plan.Plan.consumes_proposals`) are the one
  exception: they are *deferred* — re-prepared on every query with that
  batch's proposals, which costs no quantization or index build.

Determinism: reuse never changes results, because prepare/build are
idempotent for every backend (structures build lazily and cache), and
the executor contract (:func:`repro.core.executor.map_query_chunks`)
already guarantees chunking cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.core.executor import QuerySource, WorkerPool, map_query_chunks
from repro.core.problems import JoinResult, JoinSpec, QueryStats
from repro.engine.plan import Plan, Stage, stage_point_indices
from repro.engine.protocol import ChunkResult
from repro.engine.registry import get_backend
from repro.errors import ParameterError
from repro.obs import MetricsRegistry, Tracer
from repro.obs import observe as activate_obs


@dataclass
class PreparedStage:
    """One plan stage's ready-to-run state, prepared once per session.

    ``payload`` is the *built* structure (sessions build eagerly at
    ``open()`` so queries never pay construction); ``None`` marks a
    deferred stage whose ``prepare`` needs per-query proposals.
    ``P_stage`` is the stage's point subset — kept so partitioned stages
    don't re-slice ``P`` per query, and so the worker-pool arena can pin
    the exact array object the runner will reference.
    """

    stage: Stage
    payload: Any
    final_spec: Optional[JoinSpec]
    point_idx: Optional[np.ndarray]
    P_stage: Any
    seed: Optional[int]
    deferred: bool = False


def _stage_setup(the_plan: Plan, index: int, options: dict):
    """Resolve stage ``index`` to ``(stage, backend, is_filter, options)``.

    A single-stage plan rejects filter backends (they answer nothing on
    their own) and merges the caller's engine-level options over the
    stage's; a stage of a multi-stage plan must declare the kind its
    backend is and carries only its own options.
    """
    stage = the_plan.stages[index]
    impl = get_backend(stage.backend)
    is_filter = bool(getattr(impl, "is_filter", False))
    if the_plan.is_single_stage:
        if is_filter:
            raise ParameterError(
                f"backend {stage.backend!r} is a filter stage: it only "
                "proposes candidates and cannot answer a join on its "
                "own (see quantized_filter_plan)"
            )
        return stage, impl, is_filter, {**stage.options, **options}
    if is_filter != (stage.kind == "filter"):
        raise ParameterError(
            f"backend {stage.backend!r} "
            + ("is a filter stage and needs kind='filter'"
               if is_filter else
               f"cannot run as a kind={stage.kind!r} stage")
        )
    return stage, impl, is_filter, dict(stage.options)


def _stage_seed(seed, index: int):
    """Stage ``index`` derives its seed as ``seed + index``."""
    return seed if seed is None or index == 0 else seed + index


def _stage_points(stage: Stage, P):
    """The stage's ``(point_idx, P_stage)``: ``(None, P)`` for all points."""
    point_idx = stage_point_indices(stage, P)
    return point_idx, (P if point_idx is None else P[point_idx])


def prepare_stage(
    the_plan: Plan,
    index: int,
    P,
    spec: JoinSpec,
    *,
    seed,
    block: int,
    n_workers: int,
    options: dict,
) -> PreparedStage:
    """Prepare (and build) stage ``index`` of a plan, session-style.

    Validates the stage exactly as the walk does (:func:`_stage_setup`),
    resolves the point partition, prepares the payload, and builds it
    eagerly.  Stages consuming a filter's proposals come back deferred
    (``payload=None``): their prepare is per-query by construction.
    """
    stage, impl, _, stage_options = _stage_setup(the_plan, index, options)
    point_idx, P_stage = _stage_points(stage, P)
    stage_seed = _stage_seed(seed, index)
    if the_plan.consumes_proposals(index):
        return PreparedStage(
            stage=stage, payload=None, final_spec=None,
            point_idx=point_idx, P_stage=P_stage, seed=stage_seed,
            deferred=True,
        )
    payload, final_spec = impl.prepare(
        P_stage, spec, seed=stage_seed, block=block,
        n_workers=n_workers, **stage_options,
    )
    if hasattr(payload, "build"):
        payload = payload.build(P_stage)
    return PreparedStage(
        stage=stage, payload=payload, final_spec=final_spec,
        point_idx=point_idx, P_stage=P_stage, seed=stage_seed,
    )


def _engine_runner(structure, P, Q_chunk, start, args):
    """The executor runner for every engine stage: run a named backend.

    ``args`` is ``(backend_name, observe, stage_label)``.  With
    ``observe`` set, the chunk runs under a fresh tracer + metrics
    registry — in *every* execution mode, so a serial join and each
    parallel worker produce the same detached per-chunk span tree — and
    ships them back on the :class:`~repro.engine.protocol.ChunkResult`
    (spans as plain dataclasses, metrics as a snapshot dict; both
    pickle).  The parent stitches chunk trees under its ``run`` span and
    merges metric snapshots in chunk order, which keeps parallel totals
    bit-identical to serial ones.  Thread-pool workers can do this
    concurrently because the current tracer/registry are context
    variables, not process globals.  A non-empty ``stage_label``
    (multi-stage plans) is stamped on the ``run_chunk`` span so detached
    chunk trees stay attributable to their stage.
    """
    backend_name, observe, stage_label = args
    backend = get_backend(backend_name)
    if not observe:
        t0 = time.perf_counter_ns()
        result = backend.run_chunk(structure, P, Q_chunk, start)
        result.wall_ns = time.perf_counter_ns() - t0
        return result

    attrs = dict(start=int(start), n_queries=int(Q_chunk.shape[0]))
    if stage_label:
        attrs["stage"] = stage_label
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)
    with activate_obs(tracer, registry):
        with tracer.span("run_chunk", **attrs):
            t0 = time.perf_counter_ns()
            result = backend.run_chunk(structure, P, Q_chunk, start)
            result.wall_ns = time.perf_counter_ns() - t0
    result.trace = tracer.take()
    result.metrics = registry.snapshot()
    return result


def merge_chunks(
    chunks: Sequence[ChunkResult],
    spec: JoinSpec,
    backend: Optional[str],
) -> JoinResult:
    """THE merge: combine per-chunk answers into one query-ordered result.

    Matches (and top-k lists, for top-k specs) concatenate in chunk
    order; work counters sum; stats merge through the single
    :meth:`QueryStats.merge` implementation; error bounds take the max.
    The totals are therefore independent of how the query set was
    chunked — across workers, and across the batches a streamed
    multi-stage session query folds.
    """
    matches: List[Optional[int]] = []
    topk: Optional[List[List[int]]] = [] if spec.is_topk else None
    evaluated = 0
    generated = 0
    stats = QueryStats()
    bounds = []
    for c in chunks:
        matches.extend(c.matches)
        if topk is not None:
            topk.extend(c.topk or [])
        evaluated += c.evaluated
        generated += c.generated
        stats = stats.merge(c.stats)
        if c.error_bound is not None:
            bounds.append(c.error_bound)
    return JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=evaluated,
        candidates_generated=generated,
        topk=topk,
        backend=backend,
        stats=stats,
        error_bound=max(bounds) if bounds else None,
    )


def fold_stats_metrics(registry: MetricsRegistry, result: JoinResult) -> None:
    """Mirror the merged work counters into engine-level metric names."""
    registry.counter("engine.joins").inc()
    registry.counter("engine.inner_products_evaluated").inc(
        result.inner_products_evaluated
    )
    registry.counter("engine.candidates_generated").inc(
        result.candidates_generated
    )
    stats = result.stats
    if stats is not None:
        registry.counter("engine.queries").inc(stats.queries)
        registry.counter("engine.candidates").inc(stats.candidates)
        registry.counter("engine.unique_candidates").inc(stats.unique_candidates)
        registry.counter("engine.probe_candidates").inc(stats.probe_candidates)
        registry.counter("engine.probed_buckets").inc(stats.probed_buckets)


def _fold_stage_matches(
    matches: List[Optional[int]],
    topk: Optional[List[List[int]]],
    answered: np.ndarray,
    stage_result: JoinResult,
    q_idx: np.ndarray,
    point_idx: Optional[np.ndarray],
    P,
    Q,
    spec: JoinSpec,
    stage_spec: JoinSpec,
):
    """Fold one stage's (stage-local) results into the global arrays.

    ``q_idx``/``point_idx`` map stage-local query/data positions back to
    global indices.  A query counts as *answered* when it gains a match
    (for top-k: a non-empty list); answered queries are never
    overwritten, so the first stage to answer wins deterministically.
    A stage that ran under a weaker final spec (the sketch substitutes
    its own ``c``) gets its matches re-verified at the caller's ``cs``
    before the query counts as answered — the extra dot products are
    returned so the engine can bill them.  Returns
    ``(newly_answered, extra_evaluated)``.
    """
    newly = 0
    extra_eval = 0
    if spec.is_topk:
        for qpos, lst in enumerate(stage_result.topk or []):
            gq = int(q_idx[qpos])
            if answered[gq] or not lst:
                continue
            if point_idx is not None:
                lst = [int(point_idx[li]) for li in lst]
            else:
                lst = [int(li) for li in lst]
            topk[gq] = lst
            matches[gq] = lst[0]
            answered[gq] = True
            newly += 1
        return newly, extra_eval
    reverify = stage_spec.cs < spec.cs
    pair_score = None
    if reverify:
        from repro.engine.measures import get_measure

        pair_score = get_measure(spec.measure).pair_score
    for qpos, local in enumerate(stage_result.matches):
        if local is None:
            continue
        gq = int(q_idx[qpos])
        if answered[gq]:
            continue
        gi = int(point_idx[local]) if point_idx is not None else int(local)
        if reverify:
            value = pair_score(P, gi, Q, gq)
            extra_eval += 1
            score = value if spec.signed else abs(value)
            if score < spec.cs:
                continue
        matches[gq] = gi
        answered[gq] = True
        newly += 1
    return newly, extra_eval


def run_plan(
    the_plan: Plan,
    P,
    Q,
    spec: JoinSpec,
    *,
    options: dict,
    seed,
    n_workers: int,
    block: int,
    trace: bool,
    tracer: Tracer,
    pool: str,
    executor: Optional[WorkerPool],
    blas_threads: Optional[int],
    prepared: Optional[Sequence[PreparedStage]] = None,
    on_prepare: Optional[Callable[[str], None]] = None,
):
    """Walk a plan's stages: the execution path of every join and query.

    Each stage runs one body: ``prepare`` (or, with a session's
    ``prepared`` stage, reuse its built payload — the span still
    appears, marked ``reused``), ``build`` under trace, ``run`` through
    the executor, ``merge``.  Deferred stages — consumers of a filter
    stage's proposals — always prepare inline with this batch's
    survivor lists.

    A single-stage plan is that body alone: its result is the stage's
    merged result under the backend's final spec, and ``Q`` may be a
    stream-kind :class:`QuerySource` that the executor consumes chunk by
    chunk.  A multi-stage plan runs the body under one ``stage`` span
    per stage on the stage's point/query subset and folds each stage's
    *fully merged* result into one global result — so worker count
    cannot change what the next stage sees — closed by a top-level
    ``merge`` span.  Returns ``(result, chunks, stage_records)``.
    """

    def run_stage(i, P_stage, Q_stage, proposals, label):
        stage, impl, is_filter, stage_options = _stage_setup(
            the_plan, i, options
        )
        prep = prepared[i] if prepared else None
        with tracer.span("prepare", backend=stage.backend) as prep_span:
            if proposals is None and prep is not None and prep.payload is not None:
                payload, stage_spec = prep.payload, prep.final_spec
                if prep_span is not None:
                    prep_span.attrs["reused"] = True
            else:
                if proposals is not None:
                    stage_options["proposals"] = proposals
                stage_seed = (
                    prep.seed if prep is not None else _stage_seed(seed, i)
                )
                payload, stage_spec = impl.prepare(
                    P_stage, spec, seed=stage_seed, block=block,
                    n_workers=n_workers, **stage_options,
                )
                if on_prepare is not None:
                    on_prepare(
                        "deferred" if prep is not None and prep.deferred
                        else "stage"
                    )
            if trace and hasattr(payload, "build"):
                # The executor builds in the parent for every worker
                # count, so the trace can always price construction here
                # (engine builds are idempotent; workers receive the
                # built structure).  For a session's prebuilt payload
                # this is a cached no-op and the span shows ~0s —
                # exactly the amortization the session exists to buy.
                with tracer.span("build"):
                    payload = payload.build(P_stage)
        with tracer.span("run") as run_span:
            chunks = map_query_chunks(
                payload, P_stage, Q_stage, _engine_runner,
                (stage.backend, trace, label),
                n_workers=n_workers, block=block,
                pool=pool, executor=executor, blas_threads=blas_threads,
            )
        if run_span is not None:
            run_span.children.extend(c.trace for c in chunks if c.trace)
        with tracer.span("merge"):
            stage_result = merge_chunks(chunks, stage_spec, stage.backend)
        return stage_result, chunks, is_filter

    if the_plan.is_single_stage:
        result, chunks, _ = run_stage(0, P, Q, None, "")
        record = dict(
            index=0, backend=result.backend,
            n=int(P.shape[0]), m=len(result.matches), wall_s=0.0,
            evaluated=int(result.inner_products_evaluated),
            generated=int(result.candidates_generated),
            answered=int(result.matched_count),
        )
        return result, chunks, [record]
    if isinstance(Q, QuerySource):
        raise ParameterError(
            "multi-stage plans cannot consume a stream directly; use "
            "session.query_stream, which re-blocks and folds per-chunk "
            "batches"
        )

    m = Q.shape[0]
    matches: List[Optional[int]] = [None] * m
    topk: Optional[List[List[int]]] = (
        [[] for _ in range(m)] if spec.is_topk else None
    )
    answered = np.zeros(m, dtype=bool)
    evaluated = 0
    generated = 0
    merged_stats = QueryStats()
    bounds: List[float] = []
    all_chunks = []
    stage_records: List[dict] = []
    proposals = None
    for i, stage in enumerate(the_plan.stages):
        stage_wall = time.perf_counter()
        label = stage.label or stage.backend
        prep = prepared[i] if prepared else None
        with tracer.span(
            "stage",
            index=i,
            backend=stage.backend,
            label=label,
            queries=stage.queries,
            points=stage.points,
        ) as stage_span:
            if prep is not None:
                point_idx, P_stage = prep.point_idx, prep.P_stage
            else:
                point_idx, P_stage = _stage_points(stage, P)
            if stage.queries == "all":
                q_idx = np.arange(m, dtype=np.int64)
            else:
                q_idx = np.flatnonzero(~answered)
            record = dict(
                index=i, backend=stage.backend,
                n=int(P_stage.shape[0]), m=int(q_idx.size),
                wall_s=0.0, evaluated=0, generated=0, answered=0,
            )
            if stage_span is not None:
                stage_span.attrs.update(n=int(P_stage.shape[0]), m=int(q_idx.size))
            # With every query already answered the stage is a no-op, but
            # it still shows up in spans and stage records so regret
            # attribution sees the plan shape that actually ran.
            if q_idx.size:
                stage_result, chunks, is_filter = run_stage(
                    i, P_stage, Q[q_idx], proposals, label
                )
                if is_filter:
                    # Filter stages answer nothing: concatenate the
                    # per-chunk survivor lists (chunk order = query
                    # order) and remap structure-local point indices to
                    # global ones for the consuming stage.
                    proposals = [
                        lst for c in chunks for lst in (c.proposals or [])
                    ]
                    if point_idx is not None:
                        proposals = [point_idx[lst] for lst in proposals]
                    newly, extra_eval = 0, 0
                else:
                    proposals = None
                    newly, extra_eval = _fold_stage_matches(
                        matches, topk, answered, stage_result,
                        q_idx, point_idx, P, Q, spec, stage_result.spec,
                    )
                all_chunks.extend(chunks)
                stage_eval = stage_result.inner_products_evaluated + extra_eval
                evaluated += stage_eval
                generated += stage_result.candidates_generated
                merged_stats = merged_stats.merge(stage_result.stats)
                if stage_result.error_bound is not None:
                    bounds.append(stage_result.error_bound)
                record.update(
                    evaluated=int(stage_eval),
                    generated=int(stage_result.candidates_generated),
                    answered=int(newly),
                )
                if stage_span is not None:
                    stage_span.attrs.update(answered=int(newly))
            record["wall_s"] = time.perf_counter() - stage_wall
            stage_records.append(record)
    with tracer.span("merge", stages=len(stage_records)):
        result = JoinResult(
            matches=matches,
            spec=spec,
            inner_products_evaluated=int(evaluated),
            candidates_generated=int(generated),
            topk=topk,
            backend=the_plan.backend,
            stats=merged_stats,
            error_bound=max(bounds) if bounds else None,
        )
    return result, all_chunks, stage_records
