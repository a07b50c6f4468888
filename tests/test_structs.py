"""repro.structs semantics and the sim↔mp differential bar.

Semantics first (sim only, fast): upsert/lookup/delete/add behavior,
input-order results under arbitrary batch slicing, FIFO order through
interleaved push/pop, rebalance triggering and content preservation,
error paths.  Then the correctness bar of the subsystem: the same op
sequence — including a mid-sequence rebalance — on the simulator and on
real forked processes must produce bit-identical canonical snapshots
*and* exact per-rank message/byte/counter parity, with large mp batches
riding the shm data plane.
"""

import itertools

import numpy as np
import pytest

from tests.differential import (
    DifferentialPair,
    assert_arrays_identical,
    assert_counters_identical,
)
from repro.machine.cost import IDEAL, NCUBE7
from repro.structs import (
    DHash,
    DQueue,
    StructsError,
    bucket_of,
    group_by_dest,
    grow_buckets,
    merge_results,
    mix64,
    normalize_buckets,
    owner_of,
)

pytestmark = pytest.mark.timeout(300)


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(8 * n)[:n].astype(np.int64)
    vals = rng.standard_normal(n)
    return keys, vals


class TestHashing:
    def test_mix64_deterministic_and_spreading(self):
        keys = np.arange(1000, dtype=np.int64)
        h1, h2 = mix64(keys), mix64(keys)
        assert np.array_equal(h1, h2)
        assert h1.dtype == np.uint64
        # A finalizer must not collide on a small consecutive range.
        assert len(np.unique(h1)) == 1000

    def test_bucket_of_in_range(self):
        buckets = bucket_of(np.arange(500, dtype=np.int64), 17)
        assert buckets.min() >= 0 and buckets.max() < 17

    def test_normalize_and_grow_stay_odd(self):
        assert normalize_buckets(0) == 3
        assert normalize_buckets(16) == 17
        assert normalize_buckets(17) == 17
        n = 5
        for _ in range(6):
            n = grow_buckets(n)
            assert n % 2 == 1

    def test_owner_is_bucket_mod_ranks(self):
        keys = np.arange(300, dtype=np.int64)
        owners = owner_of(keys, 33, 4)
        assert np.array_equal(owners, bucket_of(keys, 33) % 4)


class TestGroupByDest:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_packet_per_destination_in_input_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        owners = rng.integers(0, 5, size=n)
        arrays = {"keys": rng.integers(0, 1 << 40, size=n),
                  "vals": rng.standard_normal(n),
                  "rows": rng.standard_normal((n, 3))}
        packets = group_by_dest(owners, arrays)
        assert list(packets) == sorted(set(owners.tolist()))
        for dest, packet in packets.items():
            assert type(dest) is int and list(packet) == list(arrays)
            for name, arr in arrays.items():
                np.testing.assert_array_equal(packet[name],
                                              arr[owners == dest])
                assert packet[name].dtype == arr.dtype
        for a, b in itertools.combinations(packets.values(), 2):
            assert not np.shares_memory(a["vals"], b["vals"])

    def test_no_elements_no_packets(self):
        assert group_by_dest(np.empty(0, dtype=np.int64),
                             {"keys": np.empty(0)}) == {}


class TestDHashSemantics:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 3])
    def test_insert_lookup_delete_roundtrip(self, nranks):
        keys, vals = _keys(120)
        h = DHash(nranks, nbuckets=11)
        ins = h.insert_many(keys, vals)
        assert not ins.found.any()          # all keys new
        assert len(h) == 120
        got = h.lookup_many(keys)
        assert got.found.all()
        assert np.array_equal(got.values, vals)
        miss = h.lookup_many(np.asarray([10**12], dtype=np.int64))
        assert not miss.found.any() and miss.values[0] == 0.0
        dele = h.delete_many(keys[:60])
        assert dele.found.all()
        assert np.array_equal(dele.values, vals[:60])
        assert len(h) == 60
        again = h.lookup_many(keys)
        assert int(again.found.sum()) == 60

    def test_insert_overwrites_add_accumulates(self):
        h = DHash(2, nbuckets=7)
        k = np.asarray([5, 9], dtype=np.int64)
        h.insert_many(k, np.asarray([1.0, 2.0]))
        r = h.insert_many(k, np.asarray([10.0, 20.0]))
        assert r.found.all()                # upsert reports prior presence
        assert np.array_equal(h.lookup_many(k).values, [10.0, 20.0])
        h.add_many(k, np.asarray([1.0, 1.0]))
        assert np.array_equal(h.lookup_many(k).values, [11.0, 21.0])

    def test_results_in_input_order_any_world_size(self):
        keys, vals = _keys(97, seed=3)      # odd size -> ragged slices
        for nranks in (1, 2, 4):
            h = DHash(nranks, nbuckets=13)
            h.insert_many(keys, vals)
            got = h.lookup_many(keys[::-1])
            assert np.array_equal(got.values, vals[::-1])

    def test_duplicate_keys_in_one_batch_last_wins(self):
        # Slice boundaries must not reorder same-key applies: the owner
        # applies packets sorted by source rank, elements in order.
        h = DHash(4, nbuckets=7)
        k = np.asarray([42] * 8, dtype=np.int64)
        v = np.arange(8, dtype=np.float64)
        h.insert_many(k, v)
        assert h.lookup_many(k[:1]).values[0] == 7.0
        assert len(h) == 1

    def test_empty_batch_is_free(self):
        h = DHash(2)
        out = h.insert_many(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert len(out.found) == 0
        assert h.op_results == []           # no engine run at all

    def test_load_factor_rebalance_triggers_and_preserves(self):
        keys, vals = _keys(200, seed=1)
        h = DHash(4, nbuckets=5, max_load=4.0)
        h.insert_many(keys, vals)
        assert h.rebalances >= 1
        assert h.nbuckets > 5 and h.nbuckets % 2 == 1
        assert h.load_factor <= h.max_load
        got = h.lookup_many(keys)
        assert got.found.all()
        assert np.array_equal(got.values, vals)

    def test_explicit_rebalance_forced_and_shrink_rejected(self):
        keys, vals = _keys(40, seed=2)
        h = DHash(2, nbuckets=31)
        h.insert_many(keys, vals)
        before = h.snapshot()
        info = h.rebalance(101)
        assert info["rebalanced"] and h.nbuckets == 101
        after = h.snapshot()
        assert np.array_equal(before["keys"], after["keys"])
        assert np.array_equal(before["values"], after["values"])
        with pytest.raises(StructsError, match="only grows"):
            h.rebalance(11)

    def test_rebalance_under_load_is_noop(self):
        h = DHash(2, nbuckets=31)
        keys, vals = _keys(10)
        h.insert_many(keys, vals)
        info = h.rebalance()
        assert not info["rebalanced"]
        assert info["reason"] == "under-load"

    def test_rebalance_verdict_is_global_on_ragged_batches(self):
        # Regression: the amortization size hint must be the
        # driver-shipped *global* batch length.  97 keys over 4 ranks
        # slice 25/24/24/24; with NCUBE7 and horizon=1 the amortization
        # threshold sits at ~98.8 hinted items — strictly between the
        # rank-local guesses 100 and 96 — so a slice-derived hint splits
        # the world: rank 0 enters the collective migration while the
        # rest return early, and the op deadlocks.  The global hint (97)
        # keeps every rank on the same side of the threshold.
        keys, vals = _keys(97, seed=6)
        h = DHash(4, nbuckets=7, max_load=4.0, rebalance_horizon=1)
        res = h.insert_many(keys, vals)
        assert res.info["reason"] == "not-amortized"
        assert h.nbuckets == 7 and h.rebalances == 0
        got = h.lookup_many(keys)
        assert got.found.all()
        assert np.array_equal(got.values, vals)

    def test_naive_mode_rebalances_like_batched(self):
        # The naive mode is a routing baseline only: the same key
        # sequence must land in the same table geometry either way.
        keys, vals = _keys(200, seed=7)
        a, b = DHash(4, nbuckets=5), DHash(4, nbuckets=5)
        a.insert_many(keys, vals, combine=True)
        b.insert_many(keys, vals, combine=False)
        assert a.rebalances >= 1
        assert b.rebalances == a.rebalances
        assert b.nbuckets == a.nbuckets
        sa, sb = a.snapshot(), b.snapshot()
        for name in sa:
            assert np.array_equal(sa[name], sb[name])

    def test_naive_mode_matches_batched_results(self):
        keys, vals = _keys(50, seed=4)
        a, b = DHash(4, nbuckets=67), DHash(4, nbuckets=67)
        a.insert_many(keys, vals, combine=True)
        b.insert_many(keys, vals, combine=False)
        ga = a.lookup_many(keys, combine=True)
        gb = b.lookup_many(keys, combine=False)
        assert np.array_equal(ga.values, gb.values)
        sa, sb = a.snapshot(), b.snapshot()
        for name in sa:
            assert np.array_equal(sa[name], sb[name])
        # ...but the naive mode pays for it in exchanges.
        na = merge_results(a.op_results).counter_sum("structs_exchanges")
        nb = merge_results(b.op_results).counter_sum("structs_exchanges")
        assert nb > 4 * na

    def test_validation_errors(self):
        with pytest.raises(StructsError, match="nranks"):
            DHash(0)
        with pytest.raises(StructsError, match="backend"):
            DHash(2, backend="gpu")
        h = DHash(2)
        with pytest.raises(StructsError, match="values"):
            h.insert_many(np.asarray([1, 2], dtype=np.int64),
                          np.asarray([1.0]))


class TestDQueueSemantics:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 3])
    def test_fifo_order_interleaved(self, nranks):
        rng = np.random.default_rng(9)
        q = DQueue(nranks)
        reference = []
        popped = []
        for step in range(12):
            n = int(rng.integers(1, 20))
            vals = rng.standard_normal(n)
            q.push_many(vals)
            reference.extend(vals.tolist())
            take = int(rng.integers(0, len(q) + 1))
            if take:
                popped.extend(q.pop_many(take).tolist())
        popped.extend(q.pop_many(len(q)).tolist())
        assert popped == reference
        assert len(q) == 0

    def test_pop_beyond_size_raises(self):
        q = DQueue(2)
        q.push_many(np.asarray([1.0, 2.0]))
        with pytest.raises(StructsError, match="pop_many"):
            q.pop_many(3)
        assert len(q) == 2                  # failed op mutated nothing

    def test_segments_stay_balanced(self):
        q = DQueue(4)
        q.push_many(np.arange(101, dtype=np.float64))
        sizes = [len(seg) for seg in q._segments]
        assert max(sizes) - min(sizes) <= 1


class TestMergeResults:
    def test_sums_counters_and_clocks(self):
        h = DHash(2, nbuckets=31)
        keys, vals = _keys(30)
        h.insert_many(keys, vals)
        h.lookup_many(keys)
        merged = merge_results(h.op_results)
        assert merged.counter_sum("structs_batches") == 4  # 2 ops x 2 ranks
        assert merged.makespan == pytest.approx(
            max(sum(res.clocks[r] for res in h.op_results)
                for r in range(2)))

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(StructsError):
            merge_results([])
        a = DHash(2); b = DHash(4)
        ka, va = _keys(8)
        a.insert_many(ka, va); b.insert_many(ka, va)
        with pytest.raises(StructsError, match="worlds"):
            merge_results(a.op_results + b.op_results)


# --- the differential bar --------------------------------------------------


def _drive_dhash(backend):
    """An op sequence that crosses a rebalance mid-way (nbuckets grows
    from 5 while ops keep flowing) plus deletes and re-lookups."""
    rng = np.random.default_rng(77)
    keys = rng.permutation(2000)[:400].astype(np.int64)
    vals = rng.standard_normal(400)
    h = DHash(4, nbuckets=5, backend=backend)
    h.insert_many(keys[:150], vals[:150])
    h.lookup_many(keys[:250])
    h.insert_many(keys[150:], vals[150:])
    h.delete_many(keys[::3])
    h.add_many(keys[1::3], np.ones(len(keys[1::3])))
    h.lookup_many(keys)
    assert h.rebalances >= 1, "scenario must cross a rebalance"
    return h.snapshot(), merge_results(h.op_results)


def _drive_dqueue(backend):
    rng = np.random.default_rng(13)
    q = DQueue(4, backend=backend)
    out = []
    q.push_many(rng.standard_normal(60))
    out.append(q.pop_many(25))
    q.push_many(rng.standard_normal(40))
    out.append(q.pop_many(50))
    snap = q.snapshot()
    snap["popped"] = np.concatenate(out)
    return snap, merge_results(q.op_results)


class TestDifferential:
    def test_dhash_sim_mp_bit_identical_with_rebalance(self):
        sim_snap, sim_res = _drive_dhash("sim")
        mp_snap, mp_res = _drive_dhash("mp")
        pair = DifferentialPair(sim_res, mp_res, sim_snap, mp_snap)
        assert_arrays_identical(pair)
        assert_counters_identical(pair)

    def test_dqueue_sim_mp_bit_identical(self):
        sim_snap, sim_res = _drive_dqueue("sim")
        mp_snap, mp_res = _drive_dqueue("mp")
        pair = DifferentialPair(sim_res, mp_res, sim_snap, mp_snap)
        assert_arrays_identical(pair)
        assert_counters_identical(pair)

    def test_mp_batches_ride_the_shm_plane(self):
        # A batch big enough to clear the hoist threshold must move its
        # payload bytes through the shared-memory plane, not the pipes.
        keys, vals = _keys(20000, seed=8)
        h = DHash(2, nbuckets=normalize_buckets(20000), backend="mp",
                  machine=IDEAL)
        h.insert_many(keys, vals)
        merged = merge_results(h.op_results)
        assert merged.counter_sum("shm_bytes_sent") > 0


class TestMachineSensitivity:
    def test_batched_beats_naive_in_virtual_time(self):
        # The G1 bench gates 3x at P>=4; here just pin the direction on
        # the real cost model so a costing regression fails fast.
        keys, vals = _keys(64, seed=5)
        a = DHash(4, nbuckets=67, machine=NCUBE7)
        b = DHash(4, nbuckets=67, machine=NCUBE7)
        a.insert_many(keys, vals, combine=True)
        b.insert_many(keys, vals, combine=False)
        assert (merge_results(b.op_results).makespan
                > 2 * merge_results(a.op_results).makespan)
