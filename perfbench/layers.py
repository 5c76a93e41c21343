"""The traced run: per-layer numbers from a replay of the untraced call.

The replay drives the same public layer entry points the engine drives,
with a benchmark-side span around each:

    measures.validate -> planner.plan -> backend.prepare -> structure.build
    -> run_chunk (one per 256-query block)

and must reproduce the untraced call's matches and work counts exactly;
otherwise every layer number of the run is discarded and the run fails.
Index-level probes then split the filter backends further through their
public methods (``BatchSignIndex.candidates_batch`` + ``verify_block`` for
LSH; ``hash_sets`` + ``MinHashSetIndex.candidates``/``verify`` for
MinHash), and must reproduce the answers too.  Next to these outside
timings the run records the engine's own span self-times (``trace=True``),
sweeps every planner-feasible explicit backend for ``planner.regret``,
and, with a worker pool, prices the executor.

A layer a workload never reaches reports 0 for each of its metrics.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro import engine
from repro.core.executor import close_pools
from repro.core.set_join import hash_sets
from repro.core.verify import DEFAULT_BLOCK, verify_block
from repro.engine import get_backend, get_measure, plan_join
from repro.engine.plan import Plan

#: Engine span names whose self-times are reported (``trace.<name>.self_ms``);
#: ``root`` is the top span (``engine.join`` or ``session.query``).
ENGINE_SPANS = (
    "root", "planner", "prepare", "build", "hash", "run", "run_chunk",
    "scan", "candidates", "verify", "minhash_probe", "set_scan", "merge",
)

#: Timings that also get a ``<name>.share`` of their call's wall time.
SHARED = (
    "measures.validate_ms", "session.overhead_ms", "planner.plan_ms",
    "build.prepare_s", "kernel.busy_ms", "lsh.build_s", "lsh.candidate_ms",
    "lsh.verify_ms", "minhash.hash_s", "minhash.candidate_ms",
    "minhash.verify_ms", "set_scan.busy_ms", "executor.fixed_ms",
)

#: Serving batches replayed per repetition.
SERVE_BATCHES = 8

#: Repetitions of each swept backend (median taken).
SWEEP_REPEATS = 3

#: Worker processes of the pooled executor calls (one BLAS thread each).
POOL_WORKERS = 2


class Unreplayable(Exception):
    """The chosen plan has a shape the replay does not reproduce."""


class Spans:
    """In-memory spans ``[name, parent_index, start_ns, end_ns]``."""

    def __init__(self):
        self.records = []
        self._stack = []

    @contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, time.perf_counter_ns(), 0]
        self._stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def total_s(self, name: str) -> float:
        return sum(r[3] - r[2] for r in self.records if r[0] == name) / 1e9


class Mismatch(Exception):
    pass


def _same(label: str, expected, got) -> None:
    if expected != got:
        raise Mismatch(f"{label}: replay differs from the untraced call")


def _compare(label: str, result, run: dict) -> None:
    _same(f"{label} matches", list(result.matches), run["matches"])
    if result.topk is not None:
        _same(f"{label} topk", [list(t) for t in result.topk], run["topk"])
    _same(f"{label} evaluated", int(result.inner_products_evaluated),
          run["evaluated"])
    if "generated" in run:
        _same(f"{label} generated", int(result.candidates_generated),
              run["generated"])


# -- the replay ------------------------------------------------------------


def _choose(wl, spans, n, m, d, expected_queries) -> str:
    with spans("planner.plan"):
        if wl.backend == "auto":
            plan = plan_join(
                n, m, d, wl.spec, None, include_hybrids=True,
                expected_queries=expected_queries,
            ).best_plan.plan
        else:
            plan = Plan.single(wl.backend)
    if len(plan.stages) != 1 or plan.stages[0].is_partitioned:
        raise Unreplayable(
            f"plan {plan.backend!r} has several stages; the replay "
            "reproduces single-stage plans only"
        )
    return plan.stages[0].backend


def _prepare_build(wl, spans, name, P):
    impl = get_backend(name)
    with spans("backend.prepare"):
        payload, _ = impl.prepare(P, wl.spec, seed=None, block=DEFAULT_BLOCK)
    with spans("structure.build"):
        structure = payload.build(P) if hasattr(payload, "build") else payload
    return impl, structure


def _run_blocks(spans, impl, structure, P, Q) -> dict:
    run = dict(matches=[], topk=[], evaluated=0, generated=0)
    for b0 in range(0, Q.shape[0], DEFAULT_BLOCK):
        with spans("run_chunk"):
            cr = impl.run_chunk(structure, P, Q[b0:b0 + DEFAULT_BLOCK], b0)
        run["matches"].extend(cr.matches)
        if cr.topk is not None:
            run["topk"].extend(list(t) for t in cr.topk)
        run["evaluated"] += int(cr.evaluated)
        run["generated"] += int(cr.generated)
    return run


def _validate(wl, spans, P, Q, with_p: bool):
    with spans("measures.validate"):
        measure = get_measure(wl.spec.measure)
        if with_p:
            P = measure.validate(P, "P")
        Q = measure.validate(Q, "Q")
        measure.check_compatible(P, Q)
    return P, Q


# -- index-level probes ----------------------------------------------------


def _probe_lsh(wl, spans, structure, P, Q) -> dict:
    index, cs = structure.index, wl.spec.cs
    run = dict(matches=[], evaluated=0, candidates=0)
    for b0 in range(0, Q.shape[0], DEFAULT_BLOCK):
        Qb = Q[b0:b0 + DEFAULT_BLOCK]
        with spans("lsh.candidates"):
            cands = index.candidates_batch(Qb)
        with spans("lsh.verify"):
            res = verify_block(P, Qb, cands, signed=wl.spec.signed)
        run["matches"].extend(
            int(i) if i >= 0 and s >= cs else None
            for i, s in zip(res.best_index, res.best_score)
        )
        run["evaluated"] += int(res.n_evaluated)
        run["candidates"] += int(sum(c.size for c in cands))
    return run


def _probe_minhash(wl, spans, structure, P, Q) -> dict:
    index, cs = structure.index, wl.spec.cs
    run = dict(matches=[], evaluated=0, generated=0)
    with spans("minhash.hash"):
        hash_sets(index.tables, P, side="data")
        q_keys = hash_sets(index.tables, Q, side="query")
    for qi, members in enumerate(Q):
        with spans("minhash.candidates"):
            rows, multiplicity = index.candidates(q_keys[qi], members.size, cs)
        run["generated"] += int(multiplicity)
        if rows.size == 0:
            run["matches"].append(None)
            continue
        with spans("minhash.verify"):
            scores = index.verify(members, rows)
        run["evaluated"] += int(rows.size)
        best = int(np.argmax(scores))
        run["matches"].append(int(rows[best]) if scores[best] >= cs else None)
    return run


# -- engine spans ----------------------------------------------------------


def engine_self_ms(root) -> dict:
    """Self time per span name; the root's children are stitched worker
    trees whose clocks differ, so a negative self time is clamped to 0."""
    acc = defaultdict(float)

    def walk(span, name):
        child = sum(c.duration_ns for c in span.children)
        acc[name] += max(0, span.duration_ns - child) / 1e6
        for c in span.children:
            walk(c, c.name)

    walk(root, "root")
    return acc


# -- the run ---------------------------------------------------------------


def run(wl, seconds: float) -> dict:
    """Replay, probe, trace and sweep ``wl``; return the per-layer report."""
    for _ in range(2):  # the first set-up also pays one-time imports
        wl.setup()
    serving = wl.serving
    batches = wl.batches[:SERVE_BATCHES] if serving else wl.batches
    P0 = wl.P
    checks = dict(attempted=0, failed=0)

    def check(index, result):
        checks["attempted"] += 1
        if not wl.passes(wl.check(index, result)):
            checks["failed"] += 1

    setup_spans = Spans()
    if serving:
        n, d = P0.shape
        P, _ = _validate(wl, setup_spans, P0, batches[0], with_p=True)
        name = _choose(wl, setup_spans, n, wl.session.query_batch_hint, d,
                       wl.session.expected_queries)
        impl, structure = _prepare_build(wl, setup_spans, name, P)
    side = _SideLayers(wl)

    reps = []
    started = time.perf_counter()
    while len(reps) < 3 or (time.perf_counter() - started < seconds
                            and len(reps) < 50):
        rep = dict(spans=Spans(), untraced=[], traced=[], self_ms=[])
        spans = rep["spans"]
        for bi, Q in enumerate(batches):
            t0 = time.perf_counter()
            result = wl.call(Q)
            rep["untraced"].append(time.perf_counter() - t0)
            check(bi, result)
            with spans("call"):
                if serving:
                    _, Qv = _validate(wl, spans, P, Q, with_p=False)
                else:
                    P, Qv = _validate(wl, spans, P0, Q, with_p=True)
                    name = _choose(wl, spans, P.shape[0], Qv.shape[0],
                                   P.shape[1], 1)
                    impl, structure = _prepare_build(wl, spans, name, P)
                replay = _run_blocks(spans, impl, structure, P, Qv)
            _same("backend", result.backend, name)
            _compare(f"replay[{bi}]", result, replay)
            if name == "lsh":
                probe = _probe_lsh(wl, spans, structure, P, Qv)
                _compare(f"lsh probe[{bi}]", result, probe)
                rep["lsh"] = probe
            elif name == "minhash_lsh":
                probe = _probe_minhash(wl, spans, structure, P, Qv)
                _compare(f"minhash probe[{bi}]", result, probe)
            rep["replay"] = replay
            t0 = time.perf_counter()
            if serving:
                traced = wl.session.query(Q, trace=True)
            else:
                traced = engine.join(P0, Q, wl.spec, trace=True,
                                     backend=wl.backend)
            rep["traced"].append(time.perf_counter() - t0)
            _compare(f"trace=True[{bi}]", result, _as_run(traced))
            rep["self_ms"].append(engine_self_ms(traced.trace))
        side.repeat(spans, P, batches)
        reps.append(rep)

    call_s = _median(rep["untraced"] for rep in reps)
    sweep = regret_sweep(wl, batches)
    metrics = _layer_metrics(wl, reps, name, setup_spans, call_s, sweep,
                             side)
    if not serving and wl.spec.measure == "ip":
        metrics.update(executor_costs(wl, name))
    for key in SHARED:
        value, unit = metrics[key]
        seconds_value = value / 1e3 if unit == "ms" else value
        metrics[key + ".share"] = (seconds_value / call_s, "ratio")
    wl.close()
    checks["attempted"] += side.attempted
    checks["failed"] += side.failed
    return {
        "metrics": metrics,
        "attempted": checks["attempted"] + len(reps) * len(batches),
        "failed": checks["failed"],
        "detail": {
            "picked": name,
            "repetitions": len(reps),
            "call_wall_ms": call_s * 1e3,
            "sweep_ms": {k: v * 1e3 for k, v in sweep.items()},
            "replay_identical": True,
        },
    }


def _as_run(result) -> dict:
    return dict(
        matches=list(result.matches),
        topk=[list(t) for t in result.topk] if result.topk is not None else [],
        evaluated=int(result.inner_products_evaluated),
        generated=int(result.candidates_generated),
    )


def _median(per_rep) -> float:
    """Median over repetitions of the per-call mean within a repetition."""
    return statistics.median(sum(xs) / len(xs) for xs in per_rep)


class _SideLayers:
    """Layers outside the chosen plan that a workload measures anyway:
    the exact ``set_scan`` control on the Jaccard workload."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.impl = self.structure = None
        if wl.spec.measure == "jaccard":
            self.impl = get_backend("set_scan")
            payload, _ = self.impl.prepare(wl.P, wl.spec, block=DEFAULT_BLOCK)
            self.structure = payload.build(wl.P)

    def repeat(self, spans, P, batches):
        if self.impl is None:
            return
        for bi, Q in enumerate(batches):
            with spans("set_scan.run_chunk"):
                cr = self.impl.run_chunk(self.structure, P, Q, 0)
            hit = np.array([m is not None for m in cr.matches])
            self.attempted += 1
            if not np.array_equal(hit, self.wl.reference[bi]):
                self.failed += 1


def _layer_metrics(wl, reps, name, setup_spans, call_s, sweep, side):
    calls = len(reps[0]["untraced"])

    def per_call(span_name):
        return statistics.median(
            rep["spans"].total_s(span_name) / calls for rep in reps
        )

    validate = per_call("measures.validate")
    if wl.serving:
        plan = setup_spans.total_s("planner.plan")
        prepare = setup_spans.total_s("backend.prepare")
        build = setup_spans.total_s("structure.build")
        in_call = ("measures.validate", "run_chunk")
    else:
        plan = per_call("planner.plan")
        prepare = per_call("backend.prepare")
        build = per_call("structure.build")
        in_call = ("measures.validate", "planner.plan", "backend.prepare",
                   "structure.build", "run_chunk")
    overhead = statistics.median(
        sum(rep["untraced"]) / calls
        - sum(rep["spans"].total_s(s) for s in in_call) / calls
        for rep in reps
    )
    replay = reps[-1]["replay"]
    rows = sum(int(Q.shape[0]) for Q in (
        wl.batches[:SERVE_BATCHES] if wl.serving else wl.batches))
    rows_per_call = rows / calls
    evaluated = replay["evaluated"]
    useful = (sum(len(t) for t in replay["topk"]) if wl.spec.is_topk
              else sum(m is not None for m in replay["matches"]))
    m = {
        "measures.validate_ms": (validate * 1e3, "ms"),
        "session.overhead_ms": (overhead * 1e3, "ms"),
        "planner.plan_ms": (plan * 1e3, "ms"),
        "planner.regret": (_regret(wl, call_s, sweep), "ratio"),
        "build.prepare_s": (prepare + build, "s"),
        "kernel.busy_ms": (per_call("run_chunk") * 1e3, "ms"),
        "kernel.pairs_per_row": (evaluated / rows_per_call, "count"),
        "kernel.useful_ratio": (useful / evaluated if evaluated else 0.0,
                                "ratio"),
    }
    lsh = reps[-1].get("lsh")
    m.update({
        "lsh.build_s": (build if lsh else 0.0, "s"),
        "lsh.candidate_ms": (per_call("lsh.candidates") * 1e3, "ms"),
        "lsh.verify_ms": (per_call("lsh.verify") * 1e3, "ms"),
        "lsh.candidates_per_row": (
            lsh["candidates"] / rows_per_call if lsh else 0.0, "count"),
        "lsh.precision": (
            useful / lsh["candidates"] if lsh and lsh["candidates"] else 0.0,
            "ratio"),
    })
    minhash = name == "minhash_lsh"
    m.update({
        "minhash.hash_s": (per_call("minhash.hash"), "s"),
        "minhash.candidate_ms": (per_call("minhash.candidates") * 1e3, "ms"),
        "minhash.verify_ms": (per_call("minhash.verify") * 1e3, "ms"),
        "minhash.pairs_per_row": (
            evaluated / rows_per_call if minhash else 0.0, "count"),
        "minhash.precision": (
            useful / evaluated if minhash and evaluated else 0.0, "ratio"),
        "set_scan.busy_ms": (per_call("set_scan.run_chunk") * 1e3, "ms"),
        "executor.fixed_ms": (0.0, "ms"),
        "executor.speedup": (0.0, "ratio"),
        "trace.overhead_ratio": (
            _median(rep["traced"] for rep in reps) / call_s, "ratio"),
    })
    for span in ENGINE_SPANS:
        m[f"trace.{span}.self_ms"] = (statistics.median(
            sum(s.get(span, 0.0) for s in rep["self_ms"]) / calls
            for rep in reps
        ), "ms")
    return m


# -- planner regret and the executor --------------------------------------


def regret_sweep(wl, batches) -> dict:
    """Median call wall of every planner-feasible explicit backend whose
    answers pass the workload's own check (so only exact backends count
    on exact workloads)."""
    n, d = wl.P.shape
    m = wl.session.query_batch_hint if wl.serving else batches[0].shape[0]
    ranking = plan_join(n, m, d, wl.spec, None, include_hybrids=False)
    walls = {}
    for est in ranking.feasible:
        session = (engine.open(wl.P, wl.spec, backend=est.backend)
                   if wl.serving else None)
        times, ok = [], True
        try:
            for _ in range(SWEEP_REPEATS):
                for bi, Q in enumerate(batches):
                    t0 = time.perf_counter()
                    result = (session.query(Q) if session is not None
                              else engine.join(wl.P, Q, wl.spec,
                                               backend=est.backend))
                    times.append(time.perf_counter() - t0)
                    ok = ok and wl.passes(wl.check(bi, result))
        finally:
            if session is not None:
                session.close()
        if ok:
            walls[est.backend] = statistics.median(times)
    return walls


def _regret(wl, call_s, sweep) -> float:
    if not sweep:
        return 1.0
    return call_s / min(min(sweep.values()), call_s)


def executor_costs(wl, name) -> dict:
    """Price the executor on the workload's inputs with the chosen backend:
    the fixed cost of a pooled call on a one-block Q, and the speedup of a
    pooled full call over a serial one.  Pooled results must equal serial
    ones exactly."""
    P, Q = wl.P, wl.batches[0]
    one_block = Q[:DEFAULT_BLOCK]
    pooled = dict(backend=name, n_workers=POOL_WORKERS, blas_threads=1)

    def median_wall(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), out

    try:
        par_block, a = median_wall(
            lambda: engine.join(P, one_block, wl.spec, **pooled), 15)
        ser_block, b = median_wall(
            lambda: engine.join(P, one_block, wl.spec, backend=name), 15)
        par_full, c = median_wall(
            lambda: engine.join(P, Q, wl.spec, **pooled), SWEEP_REPEATS)
        ser_full, d = median_wall(
            lambda: engine.join(P, Q, wl.spec, backend=name), SWEEP_REPEATS)
    finally:
        close_pools()
    _compare("pooled vs serial block", a, _as_run(b))
    _compare("pooled vs serial call", c, _as_run(d))
    return {
        "executor.fixed_ms": ((par_block - ser_block) * 1e3, "ms"),
        "executor.speedup": (ser_full / par_full, "ratio"),
    }
