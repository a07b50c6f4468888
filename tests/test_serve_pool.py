"""The warm rank pool: reuse, reset isolation, crash rebuild, fd hygiene.

The pool's correctness argument is the mp backend's, extended across
jobs: every pooled run must be indistinguishable — bit-identical arrays,
identical per-rank communication counters — from a fork-per-run mp run
and from the simulator, *including* the second and later jobs on a reused
mesh (the reset protocol is what makes that non-trivial).  On top of
that the pool makes two resource promises worth testing mechanically:
crashed ranks are replaced (by mesh rebuild) without killing the pool,
and a hundred sequential jobs leak zero file descriptors.
"""

import os
import gc

import numpy as np
import pytest

from tests.differential import (
    DifferentialPair,
    assert_arrays_identical,
    assert_counters_identical,
)
from repro.apps.jacobi import build_jacobi
from repro.errors import DeadlockError, EngineError
from repro.machine.api import Count, Recv, Send
from repro.machine.cost import NCUBE7
from repro.machine.mp import MpEngine
from repro.meshes.regular import five_point_grid
from repro.serve import shipping
from repro.serve.pool import RankPool

pytestmark = pytest.mark.timeout(180)


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def ring_program(rank):
    data = np.arange(4, dtype=np.float64) + rank.id
    yield Send((rank.id + 1) % rank.size, data, tag=5)
    msg = yield Recv(source=(rank.id - 1) % rank.size, tag=5)
    yield Count("ring_rounds", 1)
    return float(msg.payload.sum())


def crash_on_rank_1(rank):
    if rank.id == 1:
        raise RuntimeError("boom")
    yield Count("survived", 1)
    return rank.id


def leave_unreceived(rank):
    # Rank 0 sends a message nobody ever receives: the reset barrier must
    # discard it so the *next* job's wildcard receives cannot see it.
    if rank.id == 0:
        yield Send(1, "stale", tag=77)
    return rank.id


def wildcard_recv_after_send(rank):
    if rank.id == 0:
        yield Send(1, "fresh", tag=3)
        return None
    msg = yield Recv()
    return msg.payload


def stuck_rank(rank):
    # Everyone waits on a message nobody ever sends: a true deadlock.
    peer = (rank.id + 1) % rank.size
    yield Recv(source=peer, tag=99)


class TestPoolSemantics:
    def test_raw_program_values_and_reuse(self):
        with RankPool(3, timeout=30) as pool:
            first = pool.run(ring_program, NCUBE7)
            assert pool.last_pool_reused is False
            second = pool.run(ring_program, NCUBE7)
            assert pool.last_pool_reused is True
            assert pool.meshes_built == 1
            for res in (first, second):
                expected = [
                    float((np.arange(4) + (r - 1) % 3).sum()) for r in range(3)
                ]
                assert res.values == expected
                assert res.counter_sum("ring_rounds") == 3
                assert all(s.messages_sent == 1 for s in res.stats)

    def test_job_isolation_across_reset(self):
        # Job N's undelivered message must not satisfy job N+1's wildcard.
        with RankPool(2, timeout=30) as pool:
            res1 = pool.run(leave_unreceived, NCUBE7)
            # the discard is attributed to the job that left it behind
            assert res1.counter_sum("undelivered_messages") == 1
            res2 = pool.run(wildcard_recv_after_send, NCUBE7)
            assert res2.values[1] == "fresh"
            assert res2.counter_sum("undelivered_messages") == 0

    def test_crash_condemns_mesh_and_rebuilds(self):
        with RankPool(2, timeout=30) as pool:
            pool.run(ring_program, NCUBE7)
            with pytest.raises(EngineError, match="boom"):
                pool.run(crash_on_rank_1, NCUBE7)
            # replacement of the crashed rank = mesh rebuild on next run
            res = pool.run(ring_program, NCUBE7)
            assert res.counter_sum("ring_rounds") == 2
            assert pool.rebuilds == 1
            assert pool.meshes_built == 2
            assert pool.last_pool_reused is False

    def test_watchdog_fails_job_not_pool(self):
        with RankPool(2, timeout=1.0) as pool:
            with pytest.raises(DeadlockError):
                pool.run(stuck_rank, NCUBE7)
            res = pool.run(ring_program, NCUBE7)
            assert res.counter_sum("ring_rounds") == 2
            assert pool.rebuilds == 1

    def test_check_health_pings_and_rebuilds(self):
        with RankPool(2, timeout=30) as pool:
            report = pool.check_health()
            assert report == {"healthy": True, "alive": [0, 1],
                              "rebuilt": False, "warm": False}
            pool.run(ring_program, NCUBE7)
            report = pool.check_health()
            assert report["healthy"] and report["warm"]
            assert not report["rebuilt"]
            # kill a rank behind the pool's back: health check notices
            # and rebuilds the mesh
            pool._procs[1].terminate()
            pool._procs[1].join(5.0)
            report = pool.check_health()
            assert report["healthy"] is False
            assert report["alive"] == [0]
            assert report["rebuilt"] is True
            res = pool.run(ring_program, NCUBE7)
            assert res.counter_sum("ring_rounds") == 2

    def test_closed_pool_rejects_jobs(self):
        pool = RankPool(2)
        pool.close()
        with pytest.raises(EngineError, match="closed"):
            pool.run(ring_program, NCUBE7)
        pool.close()  # idempotent

    def test_validation(self):
        with pytest.raises(EngineError):
            RankPool(0)
        with pytest.raises(EngineError):
            RankPool(2, timeout=0)
        with RankPool(2) as pool:
            with pytest.raises(EngineError, match="length"):
                pool.run(ring_program, NCUBE7, args=[1])

    def test_args_and_trace(self):
        def with_arg(rank):
            yield Count("args_seen", rank.arg)
            return rank.arg

        with RankPool(2, timeout=30) as pool:
            res = pool.run(with_arg, NCUBE7, args=[10, 20], trace=True)
            assert res.values == [10, 20]
            kinds = {e.kind for e in res.trace}
            assert "finish" in kinds


class TestPoolDifferential:
    """Pooled jacobi vs fork-per-run vs sim: the cold equivalence class
    (no disk cache anywhere — disk hits legitimately change inspector
    message counts, so warm-class comparisons live in test_serve_cache)."""

    def _build(self, pool=None, backend="sim"):
        mesh = five_point_grid(10, 10)
        init = np.random.default_rng(42).random(mesh.n)
        return build_jacobi(mesh, 4, initial=init, backend=backend, pool=pool)

    def test_pool_matches_sim_and_fork(self):
        sim_prog = self._build()
        sim_res = sim_prog.run(4)
        fork_prog = self._build(backend="mp")
        fork_res = fork_prog.run(4)
        with RankPool(4, timeout=60) as pool:
            pool_prog1 = self._build(pool=pool)
            pool_res1 = pool_prog1.run(4)
            pool_prog2 = self._build(pool=pool)
            pool_res2 = pool_prog2.run(4)
            assert pool.last_pool_reused is True

        for other_prog, other_res in (
            (fork_prog, fork_res),
            (pool_prog1, pool_res1),
            (pool_prog2, pool_res2),  # job 2 ran on the reused mesh
        ):
            pair = DifferentialPair(
                sim_result=sim_res,
                mp_result=other_res,
                sim_arrays={n: d.data.copy()
                            for n, d in sim_prog.ctx.arrays.items()},
                mp_arrays={n: d.data.copy()
                           for n, d in other_prog.ctx.arrays.items()},
            )
            assert_arrays_identical(pair)
            assert_counters_identical(pair)

    def test_pool_backend_is_mp(self):
        with RankPool(4, timeout=60) as pool:
            prog = self._build(pool=pool)
            assert prog.ctx.backend == "mp"
            assert prog.ctx.pool is pool

    def test_pool_size_mismatch_rejected(self):
        from repro.core.context import KaliContext
        from repro.errors import KaliError

        with RankPool(2) as pool:
            with pytest.raises(KaliError, match="world size|ranks"):
                KaliContext(4, pool=pool)


class TestFdHygiene:
    def test_pool_100_jobs_leak_no_fds(self):
        with RankPool(2, timeout=30) as pool:
            pool.run(ring_program, NCUBE7)  # settle: mesh + pipes exist
            gc.collect()
            baseline = _fd_count()
            for _ in range(100):
                pool.run(ring_program, NCUBE7)
            gc.collect()
            assert _fd_count() <= baseline
            assert pool.jobs_done == 101
        gc.collect()

    def test_fork_per_run_releases_everything(self):
        engine = MpEngine(NCUBE7, nranks=2, timeout=30)
        engine.run(ring_program)  # warm any lazy imports/loggers
        gc.collect()
        baseline = _fd_count()
        for _ in range(5):
            engine.run(ring_program)
        gc.collect()
        assert _fd_count() <= baseline

    def test_pool_close_returns_to_pre_pool_fd_count(self):
        gc.collect()
        baseline = _fd_count()
        pool = RankPool(3, timeout=30)
        pool.run(ring_program, NCUBE7)
        assert _fd_count() > baseline  # mesh + control pipes are open
        pool.close()
        gc.collect()
        assert _fd_count() <= baseline


class TestShipping:
    def test_importable_function_ships_by_reference(self):
        data = shipping.dumps(ring_program)
        fn = shipping.loads(data)
        assert fn is ring_program

    def test_closure_ships_with_cells(self):
        bias = 7

        def kernel(x):
            return x + bias

        fn = shipping.loads(shipping.dumps(kernel))
        assert fn(1) == 8

    def test_lambda_over_numpy_ships(self):
        coef = np.arange(3, dtype=np.float64)
        fn = shipping.loads(shipping.dumps(lambda x: float((coef * x).sum())))
        assert fn(2.0) == pytest.approx(6.0)

    def test_recursive_closure_ships(self):
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        fn = shipping.loads(shipping.dumps(fib))
        assert fn(10) == 55

    def test_closure_over_a_module_ships(self):
        def make():
            import numpy as np  # a closure cell holding a module

            def prog(rank):
                yield Count("scaled", 1)
                return float(np.float64(3.0) * (rank.id + 1))

            return prog

        with RankPool(2, timeout=60) as pool:
            assert pool.run(make(), NCUBE7).values == [3.0, 6.0]
        assert MpEngine(NCUBE7, nranks=2, timeout=60).run(
            make()).values == [3.0, 6.0]

    def test_unpicklable_capture_raises_shipping_error(self):
        fh = open("/dev/null")
        try:
            with pytest.raises(shipping.ShippingError):
                shipping.dumps(lambda: fh.read())
        finally:
            fh.close()

    def test_context_with_a_built_tune_store_ships(self, tmp_path):
        """The program closes over ``solver.ctx``, whose plan store holds a
        lock; workers never tune, so the store stays home."""
        from repro.apps.cg import CGSolver

        mesh = five_point_grid(8, 8)
        want = CGSolver(mesh, 2).solve(np.ones(64))
        with RankPool(2, timeout=60) as pool:
            by_path = CGSolver(mesh, 2, pool=pool, tune=str(tmp_path))
            by_store = CGSolver(mesh, 2, pool=pool,
                                tune=by_path.ctx.tune_store)
            for solver in (by_path, by_store):
                got = solver.solve(np.ones(64))
                np.testing.assert_array_equal(got.solution, want.solution)
                assert got.iterations == want.iterations
