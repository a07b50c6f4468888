"""The six pinned workloads.

Each workload is one class with the same life cycle, driven by
``harness.run_pass`` inside a fresh process:

``setup()``   generate inputs from the seed, start pools/servers, run
              the warm-up ops and the pinned canary (all of it is
              ``setup_s``);
``timed()``   run ops until the deadline *and* ``MIN_OPS`` have passed,
              recording one latency per op between ``meter.start()`` and
              ``meter.stop()``;
``verify()``  oracle checks that are too dear to run between ops;
``close()``   stop what ``setup`` started.

Ops are checked as they complete: a failed check, an exception, a shed
or a timeout counts the op in ``failed``.  ``pinned()`` runs the
workload's *canary* — the same code path on a small instance built from
a constant seed — and returns exact figures (virtual seconds, message,
byte and counter totals, a solution hash) that ``expected.json`` pins:
they must not move when the program gets faster.

``WHY`` records why each workload exists; ``BENCHMARK.json`` and the
README repeat it.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import inputs
from measure import MIN_OPS, tree_cpu_seconds
from tracer import TRACER, window

perf = time.perf_counter

#: seed of every pinned canary (independent of ``--seed``)
PIN_SEED = 1990


def sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def run_figures(result, **extra: Any) -> Dict[str, Any]:
    """The exact, must-not-move figures of one engine ``RunResult``."""
    counters: Dict[str, int] = {}
    for stats in result.stats:
        for name, amount in stats.counters.items():
            counters[name] = counters.get(name, 0) + int(amount)
    return {
        "virtual_s": float(result.makespan).hex(),
        "messages": int(result.total_messages()),
        "bytes": int(result.total_bytes()),
        "counters": dict(sorted(counters.items())),
        **extra,
    }


class Meter:
    """Wall and process-tree CPU of the timed phase, plus the tracer
    snapshots that bound it."""

    def start(self) -> float:
        self.snap0 = TRACER.snapshot()
        self.cpu0 = tree_cpu_seconds()
        self.t0 = perf()
        return self.t0

    def stop(self) -> None:
        self.t1 = perf()
        self.cpu1 = tree_cpu_seconds()
        self.snap1 = TRACER.snapshot()

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu_s(self) -> float:
        return self.cpu1 - self.cpu0


def start_frontend(server, sock: str) -> threading.Thread:
    """Serve ``server`` behind an ``AsyncFrontend`` on a thread of this
    process; returns once the socket accepts connections."""
    from repro.serve import frontend

    thread = threading.Thread(
        target=frontend.AsyncFrontend(server, sock).run,
        name="perf-frontend", daemon=True)
    thread.start()
    began = perf()
    while not os.path.exists(sock):
        if perf() - began > 30 or not thread.is_alive():
            raise RuntimeError("serve front end did not come up")
        time.sleep(0.005)
    return thread


class Workload:
    name = ""
    #: the timed window lies inside one ``Engine.run`` call (so that
    #: call's own span closes after the window)
    window_inside_engine_run = False

    def __init__(self, seed: int, workdir: str, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.meter = Meter()
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []      # first few failure reasons
        self.extras: Dict[str, Any] = {}

    @property
    def min_ops(self) -> int:
        return 12 if self.quick else MIN_OPS

    # subclasses: setup(), timed(seconds), pinned(); optionally verify(), close()
    def verify(self) -> None:
        pass

    def close(self) -> None:
        pass

    def fail(self, why: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.notes) < 5:
            self.notes.append(why)

    def _until(self, seconds: float, op: Callable[[int], float]) -> None:
        """The closed loop of a single caller: ``op(i)`` returns its own
        latency; run until the deadline and MIN_OPS have both passed."""
        min_ops = self.min_ops
        deadline = self.meter.start() + seconds
        i = 0
        while i < min_ops or perf() < deadline:
            if i == min_ops:
                # Tallies over this fixed prefix of ops are exact: they
                # do not depend on how many ops the deadline allowed.
                self.extras["exact_counts"] = window(
                    self.meter.snap0, TRACER.snapshot())["counts"]
                self.extras["exact_ops"] = min_ops
            TRACER.set_op(i)
            self.attempted += 1
            began = perf()
            try:
                self.latencies.append(op(i))
            except Exception as exc:  # noqa: BLE001 — the op failed; count it
                self.fail(f"op {i}: {type(exc).__name__}: {exc}")
                self.latencies.append(perf() - began)
            i += 1
        self.meter.stop()
        TRACER.set_op(None)


# --- 1. jacobi-warm-sim ------------------------------------------------------


class JacobiWarmSim(Workload):
    name = "jacobi-warm-sim"
    window_inside_engine_run = True
    N, P = 16384, 16
    PIN_N, PIN_SWEEPS = 1024, 3
    CALIBRATE = 6

    def _build(self, n: int, seed: int):
        from repro.apps import jacobi
        from repro.distributions.custom import Custom
        from repro.meshes import partition

        mesh, points = inputs.unstructured_mesh(n, seed)
        owners = partition.coordinate_bisection(points, self.P)
        init = inputs.initial_values(n, seed)
        prog = jacobi.build_jacobi(mesh, self.P, dist=Custom(owners),
                                   initial=init)
        return mesh, init, prog

    def pinned(self) -> Dict[str, Any]:
        _mesh, _init, prog = self._build(self.PIN_N, PIN_SEED)
        result = prog.run(self.PIN_SWEEPS)
        return run_figures(result.engine, solution=sha(prog.solution))

    def _sweeps(self, prog, nsweeps: int, stamps: List[float],
                meter: Optional[Meter] = None):
        """The harness's own rank program: ``nsweeps`` sweeps, stamping
        the moment the *last* rank finishes each one.  (The simulator
        lets a rank run ahead until it must receive, so any single
        rank's boundaries bunch up: 2 ms, 65 ms, 31 ms, ...)  With
        ``meter``, the timed window runs from the completion of sweep 0
        to the completion of the last sweep."""
        copy_loop, relax_loop = prog.copy_loop, prog.relax_loop
        rank_op = TRACER.rank_op
        unfinished = [self.P] * nsweeps

        def program(kr):
            for s in range(nsweeps):
                rank_op[kr.id] = s
                yield from kr.forall(copy_loop)
                yield from kr.forall(relax_loop)
                unfinished[s] -= 1
                if unfinished[s]:
                    continue
                if meter is not None and s == 0:
                    stamps.append(meter.start())
                elif meter is not None and s == nsweeps - 1:
                    meter.stop()
                    stamps.append(meter.t1)
                else:
                    stamps.append(perf())

        return program

    def setup(self) -> None:
        self.pin = self.pinned()
        self.mesh, self.init, self.prog = self._build(self.N, self.seed)
        stamps: List[float] = []
        before = TRACER.snapshot()
        self.prog.ctx.run(self._sweeps(self.prog, self.CALIBRATE, stamps))
        self.calibration = window(before, TRACER.snapshot())
        self.sweeps_done = self.CALIBRATE
        self.sweep_s = statistics.median(np.diff(stamps))

    def timed(self, seconds: float) -> None:
        nsweeps = max(self.min_ops, int(np.ceil(seconds / self.sweep_s)))
        stamps: List[float] = []
        # Sweep 0 of the run re-inspects (a fresh run has a fresh cache):
        # the timed window opens at its end and holds warm sweeps only.
        before = TRACER.snapshot()
        self.prog.ctx.run(self._sweeps(self.prog, nsweeps + 1, stamps,
                                       meter=self.meter))
        run = window(before, TRACER.snapshot())
        # Ops are deterministic, so this run's tallies minus those of the
        # shorter calibration run (one cold sweep each) are *exactly*
        # the tallies of the warm sweeps by which the two differ.
        cold = self.calibration["counts"]
        self.extras = {
            "run_window": run,
            "exact_counts": {k: v - cold.get(k, 0)
                             for k, v in run["counts"].items()},
            "exact_ops": nsweeps + 1 - self.CALIBRATE,
        }
        TRACER.rank_op.clear()
        self.sweeps_done += nsweeps + 1
        self.latencies = list(np.diff(stamps))
        self.attempted = nsweeps

    def verify(self) -> None:
        from repro.meshes.regular import reference_sweep

        ref = self.init
        for _ in range(self.sweeps_done):
            ref = reference_sweep(self.mesh, ref)
        if not np.allclose(self.prog.solution, ref, rtol=1e-12, atol=0.0):
            self.fail("solution differs from reference_sweep oracle",
                      ops=self.attempted)


# --- 2. kali-cold-sim --------------------------------------------------------


class KaliColdSim(Workload):
    name = "kali-cold-sim"
    N, P, SWEEPS = 4000, 8, 2
    PIN_N = 1024

    def _inputs(self, n: int, seed: int):
        mesh, _points = inputs.unstructured_mesh(n, seed)
        init = inputs.initial_values(n, seed)
        consts = {"n": n, "width": mesh.width, "nsweeps": self.SWEEPS}
        arrays = {"a": init, "count": mesh.count, "adj": mesh.adj + 1,
                  "coef": mesh.coef}
        return mesh, init, consts, arrays

    def _op(self, consts, arrays):
        from repro.lang import interp
        from repro.machine.cost import NCUBE7

        compiled = interp.compile_kali(inputs.KALI_JACOBI)
        return compiled.run(nprocs=self.P, machine=NCUBE7, consts=consts,
                            inputs=arrays)

    def pinned(self) -> Dict[str, Any]:
        _mesh, _init, consts, arrays = self._inputs(self.PIN_N, PIN_SEED)
        result = self._op(consts, arrays)
        return run_figures(result.timing.engine,
                           solution=sha(result.arrays["a"]),
                           strategies=sorted(
                               result.timing.strategies().values()))

    def setup(self) -> None:
        from repro.meshes.regular import reference_sweep

        self.pin = self.pinned()
        mesh, init, self.consts, self.arrays = self._inputs(self.N, self.seed)
        ref = init
        for _ in range(self.SWEEPS):
            ref = reference_sweep(mesh, ref)
        first = self._op(self.consts, self.arrays)
        if not np.allclose(first.arrays["a"], ref, rtol=1e-12, atol=0.0):
            raise AssertionError("kali warm-up differs from reference_sweep")
        self.want = (sha(first.arrays["a"]), first.timing.engine.makespan)
        for _ in range(2):
            self._op(self.consts, self.arrays)

    def timed(self, seconds: float) -> None:
        def op(i: int) -> float:
            t0 = perf()
            result = self._op(self.consts, self.arrays)
            dt = perf() - t0
            got = (sha(result.arrays["a"]), result.timing.engine.makespan)
            if got != self.want:
                self.fail(f"op {i}: solution or virtual time changed")
            return dt

        self._until(seconds, op)


# --- 3. jacobi-pool-mp -------------------------------------------------------


class JacobiPoolMp(Workload):
    name = "jacobi-pool-mp"
    ROWS, P, SWEEPS = 128, 2, 10
    #: engine counters summed over the timed jobs (for the traced run)
    COUNTERS = {"shm_bytes": "shm_bytes_sent",
                "pipe_bytes": "pipe_bytes_sent",
                "disk_hits": "schedule_cache_disk_hits",
                "disk_misses": "schedule_cache_disk_misses"}
    pool = None     # until set-up starts it

    def _sim(self, init):
        from repro.apps import jacobi

        prog = jacobi.build_jacobi(self.mesh, self.P, initial=init)
        return prog.run(self.SWEEPS), prog.solution

    def _pool_op(self, init):
        from repro.apps import jacobi

        prog = jacobi.build_jacobi(self.mesh, self.P, initial=init,
                                   pool=self.pool,
                                   schedule_cache_dir=self.cache_dir)
        return prog.run(self.SWEEPS), prog.solution

    def pinned(self) -> Dict[str, Any]:
        """Sim figures of the pinned-seed instance, and the same instance
        on the warm pool: bit-identical answer, identical traffic."""
        init = inputs.initial_values(self.mesh.n, PIN_SEED)
        sim, sim_solution = self._sim(init)
        real, real_solution = self._pool_op(init)
        figures = run_figures(sim.engine, solution=sha(sim_solution))
        figures["pool_matches_sim"] = bool(
            sha(real_solution) == figures["solution"]
            and real.engine.total_messages() == figures["messages"]
            and real.engine.total_bytes() == figures["bytes"])
        return figures

    def setup(self) -> None:
        # the pool's workers can only run programs from modules that
        # were imported before it forked
        from repro.apps import jacobi  # noqa: F401
        from repro.meshes import regular
        from repro.serve.pool import RankPool

        self.mesh = regular.five_point_grid(self.ROWS, self.ROWS)
        self.cache_dir = os.path.join(self.workdir, "schedules")
        self.pool = RankPool(self.P).start()
        self.pin = self.pinned()
        self.init = inputs.initial_values(self.mesh.n, self.seed)
        ref = self.init
        for _ in range(self.SWEEPS):
            ref = regular.reference_sweep(self.mesh, ref)
        _sim, solution = self._sim(self.init)
        if not np.allclose(solution, ref, rtol=1e-12, atol=0.0):
            raise AssertionError("sim jacobi differs from reference_sweep")
        self.want = sha(solution)
        for _ in range(3):
            self._pool_op(self.init)

    def timed(self, seconds: float) -> None:
        def op(i: int) -> float:
            t0 = perf()
            result, solution = self._pool_op(self.init)
            dt = perf() - t0
            engine = result.engine
            if engine.counter_sum("inspector_runs") != 0:
                self.fail(f"op {i}: inspector ran on a warm cache")
            elif sha(solution) != self.want:
                self.fail(f"op {i}: pool solution differs from sim")
            for key, counter in self.COUNTERS.items():
                self.extras[key] += engine.counter_sum(counter)
            return dt

        self.extras.update(dict.fromkeys(self.COUNTERS, 0))
        self._until(seconds, op)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


# --- 4. serve-mixed-closed ---------------------------------------------------


_SUMMARY_KEYS = {
    "jacobi": ("solution_sha256",),
    "cg": ("solution_sha256", "iterations"),
    "kali": ("arrays_sha256",),
    "dht_lookup": ("values_sha256", "lookups"),
}


class ServeMixedClosed(Workload):
    name = "serve-mixed-closed"
    P, CLIENTS = 2, 2
    conns: List[Any] = []   # until set-up connects
    thread = None

    def _sim_summaries(self):
        """Every family once on the simulator, through the same runner
        registry the server dispatches to (a shard with no pool)."""
        from repro.machine.cost import NCUBE7
        from repro.serve import server as serve

        sim_shard = types.SimpleNamespace(
            nranks=self.P, machine=NCUBE7, pool=None, cache_dir=None,
            tune_dir=None)
        out = []
        for kind, spec in self.families:
            result, summary = serve.JOB_KINDS[kind](sim_shard, dict(spec))
            out.append((result, {k: summary[k] for k in _SUMMARY_KEYS[kind]}))
        return out

    def pinned(self, sims) -> Dict[str, Any]:
        return {f"{i}-{kind}": run_figures(result, summary=summary)
                for i, ((kind, _spec), (result, summary))
                in enumerate(zip(self.families, sims))}

    def _check(self, family: int, reply: Dict) -> Optional[str]:
        if not reply.get("ok"):
            return str(reply.get("error") or reply)[:200]
        kind = self.families[family][0]
        got = reply["job"]["summary"]
        want = self.want[family]
        if any(got.get(k) != v for k, v in want.items()):
            return f"{kind} reply differs from its sim run"
        return None

    def setup(self) -> None:
        from repro.serve import server as serve

        self.families = inputs.job_families()
        sims = self._sim_summaries()
        self.pin = self.pinned(sims)
        self.want = [summary for _result, summary in sims]
        self.sock = os.path.join(self.workdir, "serve.sock")
        self.server = serve.JobServer(
            nranks=self.P, shards=1,
            cache_dir=os.path.join(self.workdir, "schedules"))
        self.thread = start_frontend(self.server, self.sock)
        self.conns = [serve.ServeConnection(self.sock, timeout=60.0)
                      for _ in range(self.CLIENTS)]
        for _ in range(2):  # once cold (inspect, store), once warm
            for family, (kind, spec) in enumerate(self.families):
                reply = self.conns[0].request("submit", kind=kind, spec=spec)
                problem = self._check(family, reply)
                if problem:
                    raise AssertionError(f"warm-up {kind}: {problem}")
        self.served_before = len(self.server.records)

    def timed(self, seconds: float) -> None:
        min_ops = self.min_ops
        stream = inputs.job_stream(self.seed)
        lock = threading.Lock()
        done: List[tuple] = []          # (family, latency, problem, began)
        state = {"next": 0, "deadline": 0.0}

        def client(conn) -> None:
            while True:
                with lock:
                    i = state["next"]
                    if i >= min_ops and perf() >= state["deadline"]:
                        return
                    state["next"] = i + 1
                    family = next(stream)
                kind, spec = self.families[family]
                t0 = perf()
                try:
                    reply = conn.request("submit", kind=kind, spec=spec)
                    problem = self._check(family, reply)
                except Exception as exc:  # noqa: BLE001 — count the op failed
                    problem = f"{type(exc).__name__}: {exc}"
                dt = perf() - t0
                with lock:
                    done.append((family, dt, problem, t0))

        threads = [threading.Thread(target=client, args=(conn,))
                   for conn in self.conns]
        state["deadline"] = self.meter.start() + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.meter.stop()
        self.attempted = len(done)
        self.latencies = [dt for _f, dt, _p, _t in done]
        for family, _dt, problem, _t in done:
            if problem:
                self.fail(f"{self.families[family][0]}: {problem}")
        records = self.server.records[self.served_before:]
        self.extras = {
            "clients": done,
            "records": records,
            "sheds": self.server.sheds,
            "retries": self.server.retries_total,
        }

    def close(self) -> None:
        try:
            if self.conns:
                self.conns[0].request("stop")
        finally:
            for conn in self.conns:
                conn.close()
            if self.thread is not None:
                self.thread.join(30)


# --- 5. dht-lookup-read ------------------------------------------------------


class DhtLookupRead(Workload):
    name = "dht-lookup-read"
    P, TABLE, BATCH, NBATCHES = 8, 200_000, 8192, 32
    PIN_TABLE, PIN_BATCH = 4096, 1024

    def _table(self, n: int, seed: int):
        from repro.structs import dhash

        keys, vals = inputs.table_entries(n, seed)
        table = dhash.DHash(self.P, nbuckets=33)
        for lo in range(0, n, 16384):
            table.insert_many(keys[lo:lo + 16384], vals[lo:lo + 16384])
        return table, keys, vals

    @staticmethod
    def _oracle(store: Dict[int, float], batch: np.ndarray) -> str:
        found = np.zeros(len(batch), dtype=bool)
        values = np.zeros(len(batch), dtype=np.float64)
        for i, key in enumerate(batch.tolist()):
            hit = store.get(key)
            if hit is not None:
                found[i] = True
                values[i] = hit
        return sha(found, values)

    def pinned(self) -> Dict[str, Any]:
        table, keys, vals = self._table(self.PIN_TABLE, PIN_SEED)
        table.reset_results()
        batch = inputs.lookup_batches(keys, PIN_SEED, self.PIN_BATCH, 1)[0]
        got = table.lookup_many(batch)
        return run_figures(table.merged_result(),
                           answer=sha(got.found, got.values),
                           nbuckets=table.nbuckets)

    def setup(self) -> None:
        self.pin = self.pinned()
        n = self.TABLE // 8 if self.quick else self.TABLE
        self.table, keys, vals = self._table(n, self.seed)
        store = dict(zip(keys.tolist(), vals.tolist()))
        self.batches = inputs.lookup_batches(keys, self.seed, self.BATCH,
                                             self.NBATCHES)
        self.want = [self._oracle(store, batch) for batch in self.batches]
        if len(self.table) != len(store):
            raise AssertionError("table size differs from the dict oracle")
        for batch in self.batches[:3]:
            self.table.lookup_many(batch)

    def timed(self, seconds: float) -> None:
        table, batches, want = self.table, self.batches, self.want

        def op(i: int) -> float:
            table.reset_results()
            batch = batches[i % len(batches)]
            t0 = perf()
            got = table.lookup_many(batch)
            dt = perf() - t0
            if sha(got.found, got.values) != want[i % len(batches)]:
                self.fail(f"op {i}: lookup differs from the dict oracle")
            return dt

        self._until(seconds, op)
        self.extras.update(
            lookup_keys_per_s=self.BATCH / statistics.median(self.latencies),
            rebalances=self.table.rebalances)


# --- 6. dht-churn-write ------------------------------------------------------


class DhtChurnWrite(Workload):
    name = "dht-churn-write"
    P, BATCH, WINDOW = 8, 4096, 8
    PIN_BATCH, PIN_ROUNDS, PIN_WINDOW = 256, 6, 3

    @staticmethod
    def _round(table, rnd: Dict[str, np.ndarray]):
        """One op.  Returns (digest of every reply, per-kind seconds)."""
        ones = np.ones(len(rnd["add_keys"]))
        t0 = perf()
        ins = table.insert_many(rnd["insert_keys"], rnd["insert_vals"])
        t1 = perf()
        add = table.add_many(rnd["add_keys"], ones)
        t2 = perf()
        dele = table.delete_many(rnd["delete_keys"])
        t3 = perf()
        digest = sha(ins.found, ins.values, add.found, add.values,
                     dele.found, dele.values)
        return digest, (t1 - t0, t2 - t1, t3 - t2)

    @staticmethod
    def _oracle_round(store: Dict[int, float], rnd) -> str:
        """The same round against a plain dict, in input order."""
        def apply(op, keys, vals):
            found = np.zeros(len(keys), dtype=bool)
            values = np.zeros(len(keys), dtype=np.float64)
            for i, key in enumerate(keys.tolist()):
                had = key in store
                found[i] = had
                if op == "insert":
                    store[key] = float(vals[i])
                    values[i] = store[key]
                elif op == "add":
                    store[key] = store[key] + float(vals[i]) if had \
                        else float(vals[i])
                    values[i] = store[key]
                elif had:
                    values[i] = store.pop(key)
            return found, values

        parts = (*apply("insert", rnd["insert_keys"], rnd["insert_vals"]),
                 *apply("add", rnd["add_keys"], np.ones(len(rnd["add_keys"]))),
                 *apply("delete", rnd["delete_keys"], None))
        return sha(*parts)

    def pinned(self) -> Dict[str, Any]:
        from repro.structs import dhash

        table = dhash.DHash(self.P, nbuckets=33)
        digests = [self._round(table, inputs.churn_round(
            PIN_SEED, r, self.PIN_BATCH, self.PIN_WINDOW))[0]
            for r in range(self.PIN_ROUNDS)]
        keys, vals = table.items()
        return run_figures(table.merged_result(), answer=digests,
                           contents=sha(keys, vals),
                           nbuckets=table.nbuckets,
                           rebalances=table.rebalances)

    def _next_round(self):
        """Round ``len(self.digests)`` of this seed's churn on the table."""
        rnd = inputs.churn_round(self.seed, len(self.digests), self.batch,
                                 self.WINDOW)
        digest, per_kind = self._round(self.table, rnd)
        self.table.reset_results()      # keep the per-op result log short
        self.digests.append(digest)
        return per_kind

    def setup(self) -> None:
        from repro.structs import dhash

        self.pin = self.pinned()
        self.batch = self.BATCH // 4 if self.quick else self.BATCH
        self.table = dhash.DHash(self.P, nbuckets=33)
        self.digests: List[str] = []
        # The ramp to a full window (and the rebalance that goes with it)
        # is set-up: the timed phase churns a table of steady size.
        for _ in range(self.WINDOW):
            self._next_round()

    def timed(self, seconds: float) -> None:
        kinds: List[tuple] = []

        def op(i: int) -> float:
            kinds.append(self._next_round())
            return sum(kinds[-1])

        self._until(seconds, op)

        def rate(col: int) -> float:
            return self.batch / statistics.median(k[col] for k in kinds)

        self.extras.update(insert_keys_per_s=rate(0), add_keys_per_s=rate(1),
                           delete_keys_per_s=rate(2),
                           rebalances=self.table.rebalances)

    def verify(self) -> None:
        store: Dict[int, float] = {}
        for r, digest in enumerate(self.digests):
            want = self._oracle_round(store, inputs.churn_round(
                self.seed, r, self.batch, self.WINDOW))
            if digest != want:
                self.fail(f"round {r}: replies differ from the dict oracle")
        keys, vals = self.table.items()
        want = sorted(store.items())
        if (keys.tolist() != [k for k, _ in want]
                or vals.tolist() != [v for _, v in want]):
            self.fail("final table contents differ from the dict oracle")


WORKLOADS = {cls.name: cls for cls in (
    JacobiWarmSim, KaliColdSim, JacobiPoolMp, ServeMixedClosed,
    DhtLookupRead, DhtChurnWrite)}

WHY = {
    "jacobi-warm-sim":
        "schedule reuse: warm executor gather/kernel/commit and sim-engine "
        "dispatch do all the work, the inspector none",
    "kali-cold-sim":
        "schedule build: compile, plan, inspect, crystal-route, cache-store "
        "and scatter/gather dominate; warm execution is small",
    "jacobi-pool-mp":
        "real processes: pool ship/supervise/reset, pipes and shm carry the "
        "op on all-hit disk-cached schedules; the executor's share is small",
    "serve-mixed-closed":
        "many small repeated jobs through front end, admission, queue, router "
        "and disk cache in a 2-client closed loop; kernels are negligible",
    "dht-lookup-read":
        "read path of structs (hash, group, combining route, chain scans) "
        "against an unchanging 200k-key table",
    "dht-churn-write":
        "write path of the same layer (insert, add, delete at steady size): a "
        "change that speeds reads at the cost of writes shows here",
}
