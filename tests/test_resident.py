"""Resident array contents on warm pool ranks, and pieces that stay home.

A pool mesh's ranks keep the global contents of every
:class:`~repro.arrays.darray.DistributedArray` they were shipped, keyed
by content digest; later jobs ship the digest.  The parent's
:class:`~repro.serve.shipping.Shipment` record is the authority on what
the ranks hold and dies with its mesh.  On the way home a rank returns
only the pieces whose bytes changed, on every backend.

The promises tested here:

* pooled jobs stay bit-identical to the simulator while unchanged
  arrays travel as digests;
* a rebuilt mesh never resolves its predecessor's digests, and a rank
  that misses fails the job instead of guessing;
* parent and rank tables agree through evictions, and a job never
  evicts what it uses;
* resident contents are read-only on the ranks, so no job can leak a
  write into a later one;
* a program that writes nothing brings nothing home.
"""

import numpy as np
import pytest

from tests.differential import (
    DifferentialPair,
    assert_arrays_identical,
    assert_counters_identical,
)
from repro.apps.jacobi import JACOBI_ARRAYS, build_jacobi
from repro.errors import EngineError
from repro.machine.cost import NCUBE7
from repro.meshes.regular import five_point_grid
from repro.serve import shipping
from repro.serve.pool import RankPool

pytestmark = pytest.mark.timeout(180)

P = 2


def _jacobi(pool=None, side=8, seed=42):
    mesh = five_point_grid(side, side)
    init = np.random.default_rng(seed).random(mesh.n)
    return build_jacobi(mesh, P, initial=init, pool=pool)


def _sweeps_then_sum(prog, sweeps=3):
    """Jacobi sweeps, then a scalar reduction every rank returns."""
    copy_loop, relax_loop = prog.copy_loop, prog.relax_loop

    def program(kr):
        for _ in range(sweeps):
            yield from kr.forall(copy_loop)
            yield from kr.forall(relax_loop)
        total = yield from kr.allreduce(float(kr.local("a").data.sum()))
        return total

    return program


def table_keys(rank):
    """Raw pool program: the keys this rank's resident table holds."""
    if False:
        yield
    return sorted(shipping.RANK_TABLE)


def _key(darr):
    data = darr.data
    return (darr.content_fingerprint(), data.dtype.str, data.shape)


def _keys(prog, names):
    return {_key(prog.ctx.arrays[name]) for name in names}


def _rank_tables(pool):
    return pool.run(table_keys, NCUBE7).values


def _assert_same_as_sim(sim_prog, sim_res, pool_prog, pool_res):
    pair = DifferentialPair(
        sim_result=sim_res, mp_result=pool_res,
        sim_arrays={n: d.data.copy() for n, d in sim_prog.ctx.arrays.items()},
        mp_arrays={n: d.data.copy() for n, d in pool_prog.ctx.arrays.items()},
    )
    assert_arrays_identical(pair)
    assert_counters_identical(pair)
    assert sim_res.values == pool_res.values


class TestResidentShipping:
    def test_three_jobs_match_sim_and_ship_digests(self):
        sim_prog = _jacobi()
        with RankPool(P, timeout=60) as pool:
            pool_prog = _jacobi(pool=pool)
            for job in range(3):
                if job == 2:
                    for prog in (sim_prog, pool_prog):
                        prog.ctx.arrays["a"][0] = 0.25
                fixed = _keys(pool_prog, ("count", "adj", "coef"))
                moved = _keys(pool_prog, ("a", "old_a"))
                sim_res = sim_prog.ctx.run(_sweeps_then_sum(sim_prog))
                pool_res = pool_prog.ctx.run(_sweeps_then_sum(pool_prog))
                _assert_same_as_sim(sim_prog, sim_res, pool_prog, pool_res)
                shipment = pool.last_shipment
                if job == 0:
                    assert set(shipment.installs) == fixed | moved
                    assert not shipment.hits
                else:
                    # the sweeps changed a and old_a; the rest ship by key
                    assert set(shipment.hits) == fixed
                    assert set(shipment.installs) == moved
                assert shipment.evicts == ()

    def test_warm_job_ships_a_small_fraction_of_the_cold_one(self):
        with RankPool(P, timeout=60) as pool:
            before = pool.ship_bytes
            _jacobi(pool=pool, side=32).run(2)
            cold = pool.ship_bytes - before
            _jacobi(pool=pool, side=32).run(2)
            warm = pool.ship_bytes - before - cold
        assert 10 * warm <= cold

    def test_rebuilt_mesh_ships_in_full(self):
        with RankPool(P, timeout=60) as pool:
            _jacobi(pool=pool).run(2)
            _jacobi(pool=pool).run(2)
            assert pool.last_shipment.hits
            pool._procs[0].kill()
            pool._procs[0].join(5)
            prog = _jacobi(pool=pool)
            every = _keys(prog, JACOBI_ARRAYS)
            prog.run(2)
            assert pool.rebuilds == 1
            assert not pool.last_shipment.hits
            assert set(pool.last_shipment.installs) == every
            # the new ranks hold exactly what this mesh was shipped
            tables = _rank_tables(pool)
            assert tables[0] == tables[1] == sorted(pool._resident)

    def test_a_rank_that_misses_fails_the_job_and_the_retry_ships_in_full(self):
        sim_prog = _jacobi()
        sim_prog.run(2)
        with RankPool(P, timeout=60) as pool:
            _jacobi(pool=pool).run(2)
            stale = pool._resident
            pool._procs[1].kill()
            pool._procs[1].join(5)
            pool.check_health()
            # a record that outlived its mesh: the new ranks hold nothing
            pool._resident = stale
            with pytest.raises(EngineError, match="ResidentMiss"):
                _jacobi(pool=pool).run(2)
            assert pool.rebuilds == 2
            prog = _jacobi(pool=pool)
            prog.run(2)
            assert not pool.last_shipment.hits
            np.testing.assert_array_equal(prog.solution, sim_prog.solution)


class TestResidentBound:
    def test_tables_agree_through_evictions(self, monkeypatch):
        # 8x8 mesh: a/old_a/count 512 B each, adj/coef 2 KiB each
        monkeypatch.setattr(shipping, "RESIDENT_MAX_BYTES", 4096)
        sim_by_seed = {}
        evicted = 0
        with RankPool(P, timeout=60) as pool:
            for seed in (1, 2, 1, 3, 2):
                prog = _jacobi(pool=pool, seed=seed)
                prog.run(2)
                shipment = pool.last_shipment
                used = set(shipment.hits) | set(shipment.installs)
                assert not used & set(shipment.evicts)
                evicted += len(shipment.evicts)
                record = pool._resident
                assert sum(record.values()) <= shipping.RESIDENT_MAX_BYTES
                tables = _rank_tables(pool)
                assert tables[0] == tables[1] == sorted(record)
                if seed not in sim_by_seed:
                    sim = _jacobi(seed=seed)
                    sim.run(2)
                    sim_by_seed[seed] = sim.solution
                np.testing.assert_array_equal(prog.solution,
                                              sim_by_seed[seed])
        assert evicted > 0

    def test_contents_over_the_bound_ship_inline(self, monkeypatch):
        monkeypatch.setattr(shipping, "RESIDENT_MAX_BYTES", 1024)
        sim = _jacobi()
        sim.run(2)
        with RankPool(P, timeout=60) as pool:
            for _ in range(2):
                prog = _jacobi(pool=pool)
                prog.run(2)
                np.testing.assert_array_equal(prog.solution, sim.solution)
                record = pool._resident
                assert sum(record.values()) <= 1024
                assert _key(prog.ctx.arrays["adj"]) not in record


def vandal_program(ctx, copy_loop):
    def program(kr):
        ctx.arrays["adj"][0, 0] = 99   # the rank's view of the driver array
        yield from kr.forall(copy_loop)

    return program


class TestResidentIsReadOnly:
    def test_rank_side_write_to_resident_contents_raises(self):
        sim = _jacobi()
        sim.run(2)
        with RankPool(P, timeout=60) as pool:
            _jacobi(pool=pool).run(2)        # adj is resident now
            prog = _jacobi(pool=pool)
            with pytest.raises(EngineError, match="read-only"):
                prog.ctx.run(vandal_program(prog.ctx, prog.copy_loop))
            prog = _jacobi(pool=pool)
            prog.run(2)
            np.testing.assert_array_equal(prog.solution, sim.solution)
            np.testing.assert_array_equal(prog.ctx.arrays["adj"].data,
                                          sim.ctx.arrays["adj"].data)

    def test_a_written_piece_comes_home_and_leaves_the_table_alone(self):
        sim = _jacobi()
        sim.run(2)
        with RankPool(P, timeout=60) as pool:
            _jacobi(pool=pool).run(2)
            prog = _jacobi(pool=pool)

            def scribble(kr):
                kr.local("adj").data[:] = -1
                yield from kr.barrier()

            prog.ctx.run(scribble)
            assert (prog.ctx.arrays["adj"].data == -1).all()
            # the next job on the same mesh resolves the untouched contents
            prog = _jacobi(pool=pool)
            prog.run(2)
            assert pool.rebuilds == 0
            assert _key(prog.ctx.arrays["adj"]) in pool.last_shipment.hits
            np.testing.assert_array_equal(prog.solution, sim.solution)


@pytest.fixture(params=["sim", "pool"])
def jacobi_ctx(request):
    if request.param == "sim":
        yield _jacobi()
    else:
        with RankPool(P, timeout=60) as pool:
            yield _jacobi(pool=pool)


class TestPiecesThatStayHome:
    def test_a_program_that_writes_nothing_gathers_nothing(self, jacobi_ctx):
        ctx = jacobi_ctx.ctx
        versions = {n: d.version for n, d in ctx.arrays.items()}

        def idle(kr):
            yield from kr.barrier()

        res = ctx.run(idle)
        assert [o.env for o in res.outcomes] == [{}] * P
        assert {n: d.version for n, d in ctx.arrays.items()} == versions

    def test_a_write_on_one_rank_gathers_that_piece(self, jacobi_ctx):
        ctx = jacobi_ctx.ctx
        a = ctx.arrays["a"]
        before = a.data.copy()
        versions = {n: d.version for n, d in ctx.arrays.items()}
        first_of_rank_1 = int(a.dist.global_indices_of(1)[0])

        def poke(kr):
            if kr.id == 1:
                kr.local("a").data[0] += 1.0
            yield from kr.barrier()

        res = ctx.run(poke)
        assert [sorted(o.env) for o in res.outcomes] == [[], ["a"]]
        versions["a"] += 1
        assert {n: d.version for n, d in ctx.arrays.items()} == versions
        before[first_of_rank_1] += 1.0
        np.testing.assert_array_equal(a.data, before)

    def test_a_sign_flip_of_zero_counts_as_a_change(self, jacobi_ctx):
        ctx = jacobi_ctx.ctx

        def negate_zeros(kr):
            kr.local("old_a").data[:] = -0.0
            yield from kr.barrier()

        res = ctx.run(negate_zeros)
        assert all("old_a" in o.env for o in res.outcomes)
        assert np.signbit(ctx.arrays["old_a"].data).all()



# --- the content digest ---------------------------------------------------


def _contents(kind):
    """(global shape, distribution, dtype, values) of one array kind."""
    from repro.distributions import Block, Replicated

    rng = np.random.default_rng(11)
    if kind == "2-d":
        return (6, 3), [Block(), Replicated()], np.float64, rng.random((6, 3))
    if kind == "1-d":
        return 7, [Block()], np.int64, np.arange(7) * 3 - 5
    if kind == "empty":
        return (4, 0), [Block(), Replicated()], np.float64, np.zeros((4, 0))
    if kind == "strided":          # set from a non-contiguous source
        return (5, 2), [Block(), Replicated()], np.float64, rng.random((5, 6))[:, ::3]
    return 9, [Block()], np.bool_, rng.random(9) < 0.5


@pytest.mark.parametrize("kind", ["2-d", "1-d", "empty", "strided", "bool"])
def test_content_fingerprint_is_the_sha256_of_the_bytes(kind):
    """``content_fingerprint`` hashes the array's buffer in place, and
    the digest is that of its ``tobytes()``: the disk-cache keys and
    resident digests recorded before stay valid."""
    import hashlib

    from repro.arrays.darray import DistributedArray
    from repro.distributions.procs import ProcessorArray

    shape, dist, dtype, values = _contents(kind)
    darr = DistributedArray("a", shape, dist, ProcessorArray(P), dtype=dtype)
    darr.set(values)
    expected = hashlib.sha256(np.asarray(values, dtype=dtype).tobytes())
    assert darr.content_fingerprint() == expected.hexdigest()


@pytest.mark.parametrize("arr", [np.full((), 2.5),
                                 np.arange(12.0).reshape(3, 4)[:, 1::2]],
                         ids=["0-d", "strided"])
def test_a_contiguous_buffer_hashes_as_its_bytes(arr):
    """What ``content_fingerprint`` relies on, down to a 0-d array."""
    import hashlib

    assert (hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()
            == hashlib.sha256(arr.tobytes()).hexdigest())
