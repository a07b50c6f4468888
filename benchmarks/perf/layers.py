"""Which entry points a traced run wraps, the direct-call probes, and
how spans and tallies become the per-layer metrics.

A *layer* is a module of the program, and a metric is named after it
(``runtime.executor.self_ms`` measures ``repro.runtime.executor``).
``PER_LAYER`` is the authoritative list — ``BENCHMARK.json`` repeats it
and ``test_harness.py`` keeps the two equal.  Three kinds of metric:

* **span metrics** come from wrappers around calls the workload itself
  makes (:func:`install`); a layer the workload never enters reads 0;
* **tallies** are exact counts of the ops rank programs yield;
* **probes** (:func:`run_probes`) call one public function directly, on
  fixed inputs, because no workload isolates it (fork-per-run, pipe and
  shm bandwidth, the router, ``LocalStore.apply`` ...).  They run in
  every traced pass, before the wrappers go in.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import inputs
from tracer import (TRACER, drive, harvesting, unharvest, window, wrap_fn,
                    wrap_genfn)
from workloads import start_frontend

perf = time.perf_counter

# name, unit, better
PER_LAYER: List[Tuple[str, str, str]] = [
    ("meshes.build_ms", "ms", "lower"),
    ("lang.compile_ms", "ms", "lower"),
    ("lang.vs_api_ratio", "ratio", "lower"),
    ("arrays.scatter_ms", "ms", "lower"),
    ("arrays.gather_ms", "ms", "lower"),
    ("analysis.plan_ms", "ms", "lower"),
    ("analysis.closed_form_loops", "count", "higher"),
    ("runtime.cache.lookup_us", "us", "lower"),
    ("runtime.cache.hit_ratio", "ratio", "higher"),
    ("runtime.cache.store_ms", "ms", "lower"),
    ("runtime.inspector.self_ms", "ms", "lower"),
    ("runtime.inspector.runs", "count", "lower"),
    ("runtime.inspector.refs_checked", "count", "lower"),
    ("runtime.executor.self_ms", "ms", "lower"),
    ("runtime.executor.kernel_ms", "ms", "lower"),
    ("runtime.executor.gather_commit_ms", "ms", "lower"),
    ("runtime.executor.msgs", "count", "lower"),
    ("runtime.executor.bytes", "count", "lower"),
    ("runtime.executor.elems_sent", "count", "lower"),
    ("comm.crystal.self_ms", "ms", "lower"),
    ("comm.collectives.allreduce_us", "us", "lower"),
    ("machine.engine.ops", "count", "lower"),
    ("machine.engine.us_per_op", "us", "lower"),
    ("machine.engine.ops_per_s", "1/s", "higher"),
    ("machine.mp.fork_run_ms", "ms", "lower"),
    ("machine.mp.pipe_rtt_us", "us", "lower"),
    ("machine.mp.pipe_mib_per_s", "MiB/s", "higher"),
    ("machine.shm.mib_per_s", "MiB/s", "higher"),
    ("machine.shm.bytes_frac", "ratio", "higher"),
    ("serve.pool.noop_run_ms", "ms", "lower"),
    ("serve.pool.run_ms", "ms", "lower"),
    ("serve.shipping.dumps_ms", "ms", "lower"),
    ("serve.shipping.bytes", "count", "lower"),
    ("serve.server.admit_us", "us", "lower"),
    ("serve.server.queue_wait_ms", "ms", "lower"),
    ("serve.server.runner_ms", "ms", "lower"),
    ("serve.server.runner_self_ms", "ms", "lower"),
    ("serve.server.finish_ms", "ms", "lower"),
    ("serve.frontend.overhead_ms", "ms", "lower"),
    ("serve.frontend.ping_rtt_us", "us", "lower"),
    ("serve.router.route_us", "us", "lower"),
    ("serve.diskcache.hit_ratio", "ratio", "higher"),
    ("serve.server.batch_mean", "count", "higher"),
    ("serve.server.shed", "count", "lower"),
    ("serve.server.retries", "count", "lower"),
    ("structs.dhash.lookup_keys_per_s", "1/s", "higher"),
    ("structs.dhash.insert_keys_per_s", "1/s", "higher"),
    ("structs.dhash.add_keys_per_s", "1/s", "higher"),
    ("structs.dhash.delete_keys_per_s", "1/s", "higher"),
    ("structs.dhash.rebalances", "count", "lower"),
    ("structs.dhash.rebalance_ms", "ms", "lower"),
    ("structs.dhash.apply_ns_per_key", "ns", "lower"),
    ("structs.hashing.owner_ns_per_key", "ns", "lower"),
    ("structs.exchange.group_ms", "ms", "lower"),
    ("structs.exchange.route_self_ms", "ms", "lower"),
    ("structs.exchange.msgs", "count", "lower"),
    ("structs.exchange.bytes", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.reconcile_frac", "ratio", "higher"),
    # end-to-end, from the untraced half of the traced run (harness.UNGATED)
    ("op_p90_ms", "ms", "lower"),
]

#: submit/resolve times of served jobs, filled by the ``JobServer.submit``
#: wrapper of a traced run: [submit_start, submit_return, resolved, job id]
SERVED: List[list] = []


# --- tallies -----------------------------------------------------------------


def tally_rank(op: Any) -> None:
    """Every op a rank program yields; ``Count`` amounts by name."""
    TRACER.count("engine.ops")
    if type(op).__name__ == "Count":
        TRACER.count("count." + op.name, op.amount)


def _tally_sends(prefix: str) -> Callable[[Any], None]:
    msgs, nbytes = prefix + ".msgs", prefix + ".bytes"

    def tally(op: Any) -> None:
        if type(op).__name__ == "Send":
            TRACER.count(msgs)
            TRACER.count(nbytes, op.wire_size())

    return tally


tally_executor = _tally_sends("executor")
tally_exchange = _tally_sends("exchange")


# --- rebinding ---------------------------------------------------------------


def _timed_kernel(loop):
    """The same Forall with its kernel inside a span."""
    return dataclasses.replace(
        loop, kernel=wrap_fn("runtime.executor.kernel", loop.kernel))


def install() -> None:
    """Rebind every traced entry point.  Call before any pool forks, so
    rank processes inherit the bindings."""
    import repro.apps.jacobi as jacobi
    import repro.arrays.darray as darray
    import repro.core.context as context
    import repro.lang.interp as interp
    import repro.machine.engine as engine
    import repro.machine.mp.engine as mp_engine
    import repro.meshes.partition as partition
    import repro.meshes.regular as regular
    import repro.meshes.unstructured as unstructured
    import repro.runtime.cache as cache
    import repro.runtime.inspector as inspector
    import repro.serve.pool as pool
    import repro.serve.server as server
    import repro.serve.shipping as shipping
    import repro.structs.dhash as dhash
    import repro.structs.exchange as exchange

    del SERVED[:]
    tr = TRACER

    def fn(owner, attr, name):
        tr.patch(owner, attr, lambda orig: wrap_fn(name, orig))

    def gen(owner, attr, name, tally=None):
        tr.patch(owner, attr, lambda orig: wrap_genfn(name, orig, tally))

    # meshes, lang, arrays, analysis
    fn(unstructured, "random_unstructured_mesh", "meshes.unstructured")
    fn(regular, "five_point_grid", "meshes.regular")
    fn(partition, "coordinate_bisection", "meshes.partition")
    fn(interp, "compile_kali", "lang.compile")
    fn(interp.CompiledKali, "run", "lang.run")
    tr.patch(interp, "lower_forall", lambda orig: _then(
        wrap_fn("lang.lower", orig), _timed_kernel))
    tr.patch(jacobi, "build_jacobi", lambda orig: _then(
        wrap_fn("apps.jacobi.build", orig), _time_jacobi_kernels))
    fn(darray.DistributedArray, "scatter", "arrays.scatter")
    fn(darray.DistributedArray, "gather_from", "arrays.gather")
    fn(context, "choose_strategy", "analysis.planner")
    fn(context, "build_closed_form_schedule", "analysis.closedform")

    # runtime, comm
    fn(context.KaliContext, "run", "core.context.run")
    fn(cache.ScheduleCache, "lookup", "runtime.cache.lookup")
    fn(cache.ScheduleCache, "store_through", "runtime.cache.store")
    gen(context, "run_inspector", "runtime.inspector")
    gen(context, "run_executor", "runtime.executor", tally_executor)
    gen(inspector, "crystal_route", "comm.crystal")
    gen(exchange, "crystal_route", "comm.crystal")

    # structs
    gen(dhash, "combining_route", "structs.exchange.route", tally_exchange)
    fn(dhash, "group_by_dest", "structs.exchange.group")
    fn(dhash.LocalStore, "apply", "structs.dhash.apply")
    for method in ("insert_many", "add_many", "lookup_many", "delete_many"):
        fn(dhash.DHash, method, "structs.dhash.driver")

    # machine: every engine hands its ranks a tallying program
    tr.patch(engine.Engine, "run", lambda orig: wrap_fn(
        "machine.engine.run", _with_traced_ranks(orig)))
    tr.patch(mp_engine.MpEngine, "run", lambda orig: wrap_fn(
        "machine.mp.run", _with_harvest(orig)))
    tr.patch(pool.RankPool, "run", lambda orig: wrap_fn(
        "serve.pool.run", _with_harvest(orig)))
    tr.patch(shipping, "dumps_via", _counting_dumps)

    # serve
    tr.patch(server.JobServer, "submit", _logging_submit)
    fn(server.JobServer, "handle_request", "serve.server.handle")
    for kind in list(server.JOB_KINDS):
        fn(server.JOB_KINDS, kind, "serve.server.runner")


def _then(first: Callable, after: Callable) -> Callable:
    def both(*args, **kwargs):
        return after(first(*args, **kwargs))

    return both


def _time_jacobi_kernels(prog):
    prog.copy_loop = _timed_kernel(prog.copy_loop)
    prog.relax_loop = _timed_kernel(prog.relax_loop)
    return prog


def _with_traced_ranks(run: Callable) -> Callable:
    def traced_run(self, program, args=None):
        def rank_program(rank):
            return drive("rank", program(rank), tally_rank, rank_id=rank.id)

        return run(self, rank_program, args)

    return traced_run


def _with_harvest(run: Callable) -> Callable:
    def traced_run(self, program, *args, **kwargs):
        result = run(self, harvesting(program, TRACER.current_op(),
                                      tally_rank), *args, **kwargs)
        return unharvest(result, TRACER.current_span())

    return traced_run


def _counting_dumps(dumps_via: Callable) -> Callable:
    timed = wrap_fn("serve.shipping.dumps", dumps_via)

    def traced(obj, plane, consumers):
        payload, shipped = timed(obj, plane, consumers)
        TRACER.count("shipping.bytes", shipped or len(payload))
        return payload, shipped

    return traced


def _logging_submit(submit: Callable) -> Callable:
    timed = wrap_fn("serve.server.admit", submit)

    def traced(self, *args, **kwargs):
        entry = [perf(), 0.0, 0.0, None]
        future = timed(self, *args, **kwargs)
        entry[1] = perf()

        def resolved(done) -> None:
            entry[2] = perf()
            try:
                entry[3] = done.result(timeout=0).get("id")
            except Exception:  # noqa: BLE001 — a failed job has no record
                pass

        SERVED.append(entry)
        future.add_done_callback(resolved)
        return future

    return traced


# --- probes ------------------------------------------------------------------


def _median_ms(fn: Callable[[], Any], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return statistics.median(times) * 1e3


def _noop(rank):
    return None
    yield  # a rank program must be a generator


def _stream(payload, repeats: int):
    """Rank 0 streams ``repeats`` payloads to rank 1, which acks once;
    rank 0 returns its own wall seconds."""
    from repro.machine.api import Recv, Send

    def program(rank):
        if rank.id == 0:
            t0 = perf()
            for _ in range(repeats):
                yield Send(1, payload, tag=1)
            yield Recv(source=1, tag=2)
            return perf() - t0
        for _ in range(repeats):
            yield Recv(source=0, tag=1)
        yield Send(0, 1, tag=2)

    return program


def _pingpong(repeats: int):
    from repro.machine.api import Recv, Send

    def program(rank):
        ball = b"x" * 64
        t0 = perf()
        for _ in range(repeats):
            if rank.id == 0:
                yield Send(1, ball, tag=1)
                yield Recv(source=1, tag=1)
            else:
                yield Recv(source=0, tag=1)
                yield Send(0, ball, tag=1)
        return perf() - t0

    return program


def _ring(laps: int):
    from repro.machine.api import Compute, Recv, Send

    def program(rank):
        right, left = (rank.id + 1) % rank.size, (rank.id - 1) % rank.size
        for _ in range(laps):
            yield Send(right, None, tag=0)
            yield Recv(source=left, tag=0)
            yield Compute(0.0)

    return program


def _allreduces(times: int):
    import operator

    from repro.comm.collectives import allreduce

    def program(rank):
        for i in range(times):
            yield from allreduce(rank, rank.id, operator.add, tag=i)

    return program


def run_probes(workdir: str) -> Dict[str, float]:
    """Direct calls into layers no workload isolates (see module doc)."""
    from repro.apps.jacobi import build_jacobi
    from repro.lang.interp import compile_kali
    from repro.machine.cost import IDEAL, NCUBE7
    from repro.machine.engine import Engine
    from repro.machine.mp import MpEngine
    from repro.machine.topology import FullyConnected
    from repro.serve import server as serve
    from repro.serve.pool import RankPool
    from repro.serve.router import ShardRouter
    from repro.structs.dhash import DHash, LocalStore
    from repro.structs.exchange import group_by_dest
    from repro.structs.hashing import owner_of

    out: Dict[str, float] = {}

    # lang: the Kali-source path against the Python-API path, same mesh
    mesh, _points = inputs.unstructured_mesh(2000, 1990)
    init = inputs.initial_values(2000, 1990)
    compiled = compile_kali(inputs.KALI_JACOBI)
    consts = {"n": mesh.n, "width": mesh.width, "nsweeps": 2}
    arrays = {"a": init, "count": mesh.count, "adj": mesh.adj + 1,
              "coef": mesh.coef}
    kali_ms = _median_ms(lambda: compiled.run(
        nprocs=8, machine=NCUBE7, consts=consts, inputs=arrays), 3)
    api_ms = _median_ms(lambda: build_jacobi(
        mesh, 8, machine=NCUBE7, initial=init).run(2), 3)
    out["lang.vs_api_ratio"] = kali_ms / api_ms

    # machine.engine, comm.collectives on the simulator, P=16
    laps = 200
    ring_ms = _median_ms(
        lambda: Engine(NCUBE7, nranks=16).run(_ring(laps)), 3)
    out["machine.engine.ops_per_s"] = 16 * laps * 3 / (ring_ms / 1e3)
    out["comm.collectives.allreduce_us"] = _median_ms(
        lambda: Engine(NCUBE7, nranks=16).run(_allreduces(64)), 3) * 1e3 / 64

    # machine.mp / machine.shm: fork-per-run, pipe latency, bandwidths
    def mp(program, shm: bool):
        return MpEngine(IDEAL, topology=FullyConnected(2), timeout=60.0,
                        shm=shm, shm_threshold=2048).run(program)

    out["machine.mp.fork_run_ms"] = _median_ms(lambda: mp(_noop, False), 3)
    pings = 300
    out["machine.mp.pipe_rtt_us"] = (
        mp(_pingpong(pings), False).values[0] / pings * 1e6)
    bulk = np.arange(4 * 1024 * 1024 // 8, dtype=np.float64)
    for name, shm in (("machine.mp.pipe_mib_per_s", False),
                      ("machine.shm.mib_per_s", True)):
        seconds = min(mp(_stream(bulk, 6), shm).values[0] for _ in range(2))
        out[name] = 6 * bulk.nbytes / 2**20 / seconds

    # serve.pool: the ship + supervise + reset-barrier floor of one job
    with RankPool(2) as warm:
        for _ in range(5):
            warm.run(_noop, IDEAL)
        out["serve.pool.noop_run_ms"] = _median_ms(
            lambda: warm.run(_noop, IDEAL), 40)

    # serve.frontend / serve.router (no pool forks for a ping)
    sock = os.path.join(workdir, "probe.sock")
    thread = start_frontend(serve.JobServer(nranks=2), sock)
    with serve.ServeConnection(sock, timeout=30.0) as conn:
        out["serve.frontend.ping_rtt_us"] = _median_ms(
            lambda: conn.request("ping"), 300) * 1e3
        conn.request("stop")
    thread.join(30)
    router = ShardRouter([f"shard-{i}" for i in range(4)])
    keys = [f"jacobi:{i}" for i in range(2000)]
    t0 = perf()
    for key in keys:
        router.route(key)
    out["serve.router.route_us"] = (perf() - t0) / len(keys) * 1e6

    # structs: rebalance, LocalStore.apply, owner_of, group_by_dest
    keys, vals = inputs.table_entries(32768, 1990)
    table = DHash(8, nbuckets=33)
    table.insert_many(keys, vals)
    grown = []
    for _ in range(2):
        t0 = perf()
        table.rebalance(nbuckets=3 * table.nbuckets)
        grown.append(perf() - t0)
    out["structs.dhash.rebalance_ms"] = statistics.median(grown) * 1e3
    probe = keys[:8192]
    store = LocalStore()
    lbuckets = probe % 2048
    store.apply("insert", lbuckets, probe, vals[:8192])
    out["structs.dhash.apply_ns_per_key"] = _median_ms(
        lambda: store.apply("lookup", lbuckets, probe, None), 3) * 1e6 / 8192
    out["structs.hashing.owner_ns_per_key"] = _median_ms(
        lambda: owner_of(keys, 8019, 8), 5) * 1e6 / len(keys)
    owners = owner_of(probe, 8019, 8)
    packet = {"keys": probe, "pos": np.arange(8192), "vals": vals[:8192]}
    out["structs.exchange.group_ms"] = _median_ms(
        lambda: group_by_dest(owners, packet), 5)
    return out


# --- from records to metrics -------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_ms(name: str, t0: float, t1: float) -> List[float]:
    """Durations (ms) of the ``name`` spans that started in [t0, t1]."""
    return [(s[2] - s[1]) * 1e3 for s in TRACER.spans
            if s is not None and s[0] == name and t0 <= s[1] <= t1]


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _serve_metrics(w, out: Dict[str, float]) -> None:
    """Join served-job log, runner spans and job records by job id."""
    t0, t1 = w.meter.t0, w.meter.t1
    records = w.extras.get("records")
    if records is None:
        return
    # One scheduler thread: the server's runner spans and its records
    # are in the same order (earlier runner spans are set-up's sim runs).
    spans = TRACER.spans
    served = w.server.records
    runners = [i for i, s in enumerate(spans)
               if s is not None and s[0] == "serve.server.runner"]
    by_id = {rec.get("id"): i
             for rec, i in zip(served, runners[len(runners) - len(served):])}
    pool_in_runner: Dict[int, float] = {}
    for s in spans:
        if s is None or s[0] != "serve.pool.run":
            continue
        up = s[3]
        while up is not None and spans[up][0] != "serve.server.runner":
            up = spans[up][3]
        if up is not None:
            pool_in_runner[up] = pool_in_runner.get(up, 0.0) + s[2] - s[1]
    admit, wait, run, own, finish, inside = [], [], [], [], [], []
    for start, returned, resolved, job_id in SERVED:
        i = by_id.get(job_id)
        if i is None or not (t0 <= start <= t1):
            continue
        _name, began, ended = spans[i][:3]
        admit.append((returned - start) * 1e6)
        wait.append((began - returned) * 1e3)
        run.append((ended - began) * 1e3)
        own.append((ended - began - pool_in_runner.get(i, 0.0)) * 1e3)
        finish.append((resolved - ended) * 1e3)
        inside.append((resolved - start) * 1e3)
    out["serve.server.admit_us"] = _mean(admit)
    out["serve.server.queue_wait_ms"] = _mean(wait)
    out["serve.server.runner_ms"] = _mean(run)
    out["serve.server.runner_self_ms"] = _mean(own)
    out["serve.server.finish_ms"] = _mean(finish)
    client_ms = [dt * 1e3 for _f, dt, _p, _t in w.extras["clients"]]
    out["serve.frontend.overhead_ms"] = _mean(client_ms) - _mean(inside)
    hits = sum(r.get("disk_hits", 0) for r in records)
    misses = sum(r.get("disk_misses", 0) for r in records)
    out["serve.diskcache.hit_ratio"] = _ratio(hits, hits + misses)
    out["serve.server.batch_mean"] = _mean(
        [r.get("batch_size", 1) for r in records])
    out["serve.server.shed"] = float(w.extras["sheds"])
    out["serve.server.retries"] = float(w.extras["retries"])
    shm = sum(r.get("shm_bytes", 0) for r in records)
    pipe = sum(r.get("pipe_bytes", 0) for r in records)
    out["machine.shm.bytes_frac"] = _ratio(shm, shm + pipe)


def layer_metrics(w, probes: Dict[str, float]) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of a finished traced pass of ``w``
    (``trace.overhead_frac`` and ``op_p90_ms`` are left for the caller:
    they need the untraced pass)."""
    win = window(w.meter.snap0, w.meter.snap1)
    acc, counts = win["acc"], win["counts"]
    ops = max(1, len(w.latencies))
    op_wall = sum(w.latencies)

    def self_s(*names: str) -> float:
        return sum(acc.get(n, (0, 0.0))[1] for n in names)

    def per_op_ms(*names: str) -> float:
        return self_s(*names) * 1e3 / ops

    def per_call(name: str, scale: float) -> float:
        calls, own = acc.get(name, (0, 0.0))
        return _ratio(own * scale, calls)

    # Tallies: the window's, unless the workload worked out exact ones.
    tallies = w.extras.get("exact_counts", counts)
    tally_ops = w.extras.get("exact_ops", ops)

    def per_op(count: str) -> float:
        return tallies.get(count, 0) / tally_ops

    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    out.update(probes)

    before = w.meter.snap0["acc"]
    out["meshes.build_ms"] = sum(
        before.get(n, (0, 0.0))[1] for n in
        ("meshes.unstructured", "meshes.regular", "meshes.partition")) * 1e3
    total = w.meter.snap1["acc"].get("lang.compile", (0, 0.0))
    out["lang.compile_ms"] = _ratio(total[1] * 1e3, total[0])
    out["arrays.scatter_ms"] = per_op_ms("arrays.scatter")
    out["arrays.gather_ms"] = per_op_ms("arrays.gather")
    out["analysis.plan_ms"] = per_op_ms("analysis.planner",
                                        "analysis.closedform")
    out["analysis.closed_form_loops"] = (
        acc.get("analysis.closedform", (0, 0.0))[0] / w.P / ops)
    out["runtime.cache.lookup_us"] = per_call("runtime.cache.lookup", 1e6)
    hits = tallies.get("count.schedule_cache_hits", 0)
    misses = tallies.get("count.schedule_cache_misses", 0)
    out["runtime.cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["runtime.cache.store_ms"] = per_call("runtime.cache.store", 1e3)
    out["runtime.inspector.self_ms"] = per_op_ms("runtime.inspector")
    out["runtime.inspector.runs"] = per_op("count.inspector_runs")
    out["runtime.inspector.refs_checked"] = per_op("count.inspector_checks")
    out["runtime.executor.gather_commit_ms"] = per_op_ms("runtime.executor")
    out["runtime.executor.kernel_ms"] = per_op_ms("runtime.executor.kernel")
    out["runtime.executor.self_ms"] = per_op_ms("runtime.executor",
                                                "runtime.executor.kernel")
    out["runtime.executor.msgs"] = per_op("executor.msgs")
    out["runtime.executor.bytes"] = per_op("executor.bytes")
    out["runtime.executor.elems_sent"] = per_op("count.executor_elems_sent")
    out["comm.crystal.self_ms"] = per_op_ms("comm.crystal")
    out["structs.exchange.route_self_ms"] = per_op_ms("structs.exchange.route")
    out["structs.exchange.msgs"] = per_op("exchange.msgs")
    out["structs.exchange.bytes"] = per_op("exchange.bytes")
    out["serve.pool.run_ms"] = _mean(
        _span_ms("serve.pool.run", w.meter.t0, w.meter.t1))
    out["serve.shipping.dumps_ms"] = per_call("serve.shipping.dumps", 1e3)
    out["serve.shipping.bytes"] = _ratio(
        counts.get("shipping.bytes", 0),
        acc.get("serve.shipping.dumps", (0, 0.0))[0])

    # machine.engine: dispatch cost = the run's wall that no rank owns.
    engine_ops = counts.get("engine.ops", 0)
    attributed = sum(own for _calls, own in acc.values())
    engine_self = self_s("machine.engine.run")
    if w.window_inside_engine_run:
        # The one Engine.run span closed after the window: take the
        # window's share of its self time by the ops it dispatched.
        run = w.extras["run_window"]
        engine_self = (run["acc"]["machine.engine.run"][1]
                       * _ratio(engine_ops, run["counts"]["engine.ops"]))
        attributed += engine_self
    out["machine.engine.ops"] = per_op("engine.ops")
    out["machine.engine.us_per_op"] = _ratio(engine_self * 1e6, engine_ops)
    # Child processes ran beside this one: their self time is no part of
    # its wall.  Concurrent callers overlap: the window bounds their sum.
    out["trace.reconcile_frac"] = _ratio(attributed - win["remote_s"],
                                         min(op_wall, w.meter.wall_s))

    for key in ("lookup_keys_per_s", "insert_keys_per_s", "add_keys_per_s",
                "delete_keys_per_s", "rebalances"):
        out["structs.dhash." + key] = float(w.extras.get(key, 0.0))
    if "shm_bytes" in w.extras:     # jacobi-pool-mp: from engine counters
        shm, pipe = w.extras["shm_bytes"], w.extras["pipe_bytes"]
        out["machine.shm.bytes_frac"] = _ratio(shm, shm + pipe)
        out["serve.diskcache.hit_ratio"] = _ratio(
            w.extras["disk_hits"],
            w.extras["disk_hits"] + w.extras["disk_misses"])
    _serve_metrics(w, out)
    return out
