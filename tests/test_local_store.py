"""The array-backed ``LocalStore`` against the per-key loop it replaced.

``LocalStore.apply`` resolves a whole batch with flat NumPy scans and
closed-form in-batch ordering; what it must reproduce — to the bit,
because virtual time is charged from it — is a *sequential* open-chain
table.  That table is kept here as :class:`ChainModel`, the deleted
dict-of-lists store applied one element at a time, and hypothesis drives
both through heavy in-batch repeats.  The second half pins the op stream
``_apply_packets`` yields (goldens recorded from the list-of-lists
commit), the pickle round trip, and the mp return path through shm.
"""

import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.api import Compute, Count
from repro.serve.pool import RankPool
from repro.structs import dhash
from repro.structs.dhash import DHash, LocalStore

pytestmark = pytest.mark.timeout(300)


class ChainModel:
    """Reference: local bucket -> list of ``[key, value]`` in insertion
    order, scanned linearly, one element at a time."""

    def __init__(self):
        self.chains = {}

    def apply_one(self, op, bucket, key, value):
        """``(found, result, slots scanned)`` of one element."""
        chain = self.chains.get(bucket, [])
        scanned, hit = 0, None
        for entry in chain:
            scanned += 1
            if entry[0] == key:
                hit = entry
                break
        if op in ("insert", "add"):
            if hit is None:
                self.chains.setdefault(bucket, []).append([key, value])
                return False, value, scanned
            hit[1] = hit[1] + value if op == "add" else value
            return True, hit[1], scanned
        if hit is None:
            return False, 0.0, scanned
        if op == "delete":
            chain.remove(hit)
        return True, hit[1], scanned

    def apply(self, op, lbuckets, keys, vals):
        out = [self.apply_one(op, int(lbuckets[i]), int(keys[i]),
                              None if vals is None else float(vals[i]))
               for i in range(len(keys))]
        return (np.array([o[0] for o in out], dtype=bool),
                np.array([o[1] for o in out], dtype=np.float64),
                np.array([o[2] for o in out], dtype=np.int64))

    def entries(self):
        rows = [(b, k, v) for b in sorted(self.chains)
                for k, v in self.chains[b]]
        return (np.array([r[0] for r in rows], dtype=np.int64),
                np.array([r[1] for r in rows], dtype=np.int64),
                np.array([r[2] for r in rows], dtype=np.float64))


def assert_same_step(store, model, op, lbuckets, keys, vals):
    found, result, scanned = store.apply(op, lbuckets, keys, vals)
    m_found, m_result, m_scanned = model.apply(op, lbuckets, keys, vals)
    assert found.tolist() == m_found.tolist()
    assert result.tobytes() == m_result.tobytes()
    assert scanned.tolist() == m_scanned.tolist()
    for mine, theirs in zip(store.entries(), model.entries()):
        assert mine.tobytes() == theirs.tobytes()
    assert store.count == len(model.entries()[1])


VALUES = st.sampled_from([0.1, -0.0, 0.0, 1e16, -1e16, 1.0, -3.5, 1e-300])
OPS = st.sampled_from(["insert", "add", "lookup", "delete"])


@st.composite
def batches(draw):
    nbuckets = draw(st.integers(1, 8))
    keyspace = draw(st.integers(1, 24))
    steps = draw(st.lists(
        st.tuples(OPS, st.lists(st.tuples(st.integers(0, keyspace - 1), VALUES),
                                max_size=40)),
        min_size=1, max_size=8))
    return nbuckets, steps


class TestAgainstChainModel:
    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_every_batch_matches_the_per_key_loop(self, case):
        nbuckets, steps = case
        store, model = LocalStore(), ChainModel()
        for op, pairs in steps:
            keys = np.array([p[0] for p in pairs], dtype=np.int64)
            vals = (np.array([p[1] for p in pairs], dtype=np.float64)
                    if op in ("insert", "add") else None)
            assert_same_step(store, model, op, keys % nbuckets, keys, vals)

    def test_empty_batch(self):
        store = LocalStore()
        none = np.zeros(0, dtype=np.int64)
        for op in ("insert", "add", "lookup", "delete"):
            found, result, scanned = store.apply(op, none, none, np.zeros(0))
            assert (len(found), len(result), len(scanned)) == (0, 0, 0)
        assert store.count == 0
        assert [len(a) for a in store.entries()] == [0, 0, 0]

    def test_unseen_buckets_miss_without_growing(self):
        store, model = LocalStore(), ChainModel()
        keys = np.array([3, 4], dtype=np.int64)
        assert_same_step(store, model, "insert", keys % 2, keys,
                         np.array([1.0, 2.0]))
        far = np.array([901, 77, 3], dtype=np.int64)
        for op in ("lookup", "delete"):
            assert_same_step(store, model, op, far, far, None)
        assert len(store.starts) == 3

    def test_deleted_key_reinserts_at_the_chain_tail(self):
        store, model = LocalStore(), ChainModel()
        keys = np.arange(6, dtype=np.int64)
        zeros = np.zeros(6, dtype=np.int64)
        assert_same_step(store, model, "insert", zeros, keys,
                         keys.astype(float))
        one = np.array([2], dtype=np.int64)
        assert_same_step(store, model, "delete", zeros[:1], one, None)
        # delete misses, re-creates and hits of one key in one write batch
        again = np.array([2, 9, 2], dtype=np.int64)
        assert_same_step(store, model, "add", zeros[:3], again,
                         np.array([-0.0, 1.0, 0.5]))
        assert store.entries()[1].tolist() == [0, 1, 3, 4, 5, 2, 9]

    def test_single_bucket_table_costs_time_not_memory(self):
        """16 384 keys in one chain: the flat scan would be 2.7e8 pairs
        at once; the pair budget keeps every slice near 10 MB."""
        n = 16384
        keys = np.random.default_rng(7).permutation(n).astype(np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        store = LocalStore()
        tracemalloc.start()
        try:
            _, _, ins = store.apply("insert", zeros, keys, keys.astype(float))
            found, got, look = store.apply("lookup", zeros, keys[::-1], None)
            gone, _, dele = store.apply("delete", zeros, keys[::-1], None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert found.all() and gone.all() and store.count == 0
        assert got.tolist() == keys[::-1].astype(float).tolist()
        # The per-key loop's totals, in closed form: the i-th insert scans
        # the i entries before it, a lookup scans up to its key's slot,
        # and deleting from the tail always scans the whole chain left.
        assert int(ins.sum()) == n * (n - 1) // 2
        assert int(look.sum()) == n * (n + 1) // 2
        assert int(dele.sum()) == n * (n + 1) // 2

    def test_single_bucket_matches_the_model_elementwise(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 600, size=1200).astype(np.int64)
        zeros = np.zeros(len(keys), dtype=np.int64)
        store, model = LocalStore(), ChainModel()
        assert_same_step(store, model, "add", zeros, keys,
                         rng.standard_normal(len(keys)))
        assert_same_step(store, model, "delete", zeros[::2], keys[::2], None)
        assert_same_step(store, model, "lookup", zeros, keys, None)


# --- the op stream _apply_packets yields ------------------------------------

# Per rank, in yield order: every Count("structs_chain_scans") amount and
# every Compute seconds (hex) of the pinned run below, recorded from the
# commit that still had the list-of-lists store (both combine modes gave
# this same flattened sequence there).
GOLDEN_SCANS = {
    0: [6, 5, 21, 16, 4, 4, 4, 8, 5, 8, 7, 12, 1, 2, 4, 4, 2, 1, 2, 3, 5, 6,
        6, 8],
    1: [6, 8, 12, 21, 5, 6, 3, 2, 3, 7, 7, 4, 2, 3, 1, 1, 0, 1, 1, 0, 3, 6,
        5, 4],
    2: [2, 20, 19, 20, 3, 7, 9, 3, 15, 8, 12, 7, 7, 4, 1, 2, 2, 1, 11, 6, 6,
        4],
    3: [3, 19, 17, 10, 10, 7, 7, 6, 11, 13, 12, 3, 2, 4, 2, 5, 7, 8, 8, 15,
        12],
}
GOLDEN_COMPUTE = {
    0: "2dfd694ccab40p-14 c4fc1df3300dfp-15 d9f4d37c1376ep-13 "
       "6052502eec7cap-13 92a737110e454p-15 92a737110e454p-15 "
       "a36e2eb1c432dp-15 8a43bb40b34e8p-14 f75104d551d69p-15 "
       "8a43bb40b34e8p-14 6052502eec7cap-14 21682f944241dp-13 "
       "92a737110e454p-17 92a737110e454p-16 92a737110e454p-15 "
       "a36e2eb1c432dp-15 b43526527a206p-16 0c6f7a0b5ed8ep-16 "
       "b43526527a206p-16 2dfd694ccab40p-15 f75104d551d69p-15 "
       "3660e51d25aacp-14 3660e51d25aacp-14 9b0ab2e1693c1p-14",
    1: "1d3671ac14c67p-14 68b5cbff47736p-14 083dbc23315d8p-13 "
       "c92ddbdb5d895p-13 e68a0d349be90p-15 1d3671ac14c67p-14 "
       "2dfd694ccab40p-15 92a737110e454p-16 2dfd694ccab40p-15 "
       "57eed45e9185ep-14 4f8b588e368f1p-14 92a737110e454p-15 "
       "92a737110e454p-16 3ec460ed80a18p-15 d5c31593e5fb8p-17 "
       "0c6f7a0b5ed8ep-16 0c6f7a0b5ed8dp-19 d5c31593e5fb8p-17 "
       "d5c31593e5fb8p-17 0c6f7a0b5ed8dp-19 2dfd694ccab40p-15 "
       "2dfd694ccab40p-14 f75104d551d69p-15 92a737110e454p-15",
    2: "b43526527a206p-16 b866e43aa79bcp-13 a36e2eb1c432dp-13 "
       "b43526527a206p-13 2dfd694ccab40p-15 3ec460ed80a18p-14 "
       "9b0ab2e1693c1p-14 2dfd694ccab40p-15 64840e1719f80p-13 "
       "797cc39ffd60fp-14 10a137f38c544p-13 4f8b588e368f1p-14 "
       "57eed45e9185ep-14 81e03f705857cp-15 0c6f7a0b5ed8ep-16 "
       "d5c31593e5fb8p-16 d5c31593e5fb8p-16 92a737110e454p-17 "
       "10a137f38c544p-13 2599ed7c6fbd3p-14 2599ed7c6fbd3p-14 "
       "a36e2eb1c432dp-15",
    3: "2dfd694ccab40p-15 a79fec99f1ae3p-13 754b05b7cfe59p-13 "
       "cd5f99c38b04bp-14 cd5f99c38b04bp-14 4727dcbddb985p-14 "
       "4727dcbddb985p-14 2dfd694ccab40p-14 ffb480a5accd6p-14 "
       "2dfd694ccab3fp-13 14d2f5dbb9cfap-13 2dfd694ccab40p-15 "
       "b43526527a206p-16 81e03f705857cp-15 92a737110e454p-16 "
       "d5c31593e5fb8p-15 4727dcbddb985p-14 81e03f705857cp-14 "
       "81e03f705857cp-14 57eed45e9185dp-13 14d2f5dbb9cfap-13",
}


def _pinned_ops():
    rng = np.random.default_rng(1990)
    keys = rng.integers(0, 40, size=96).astype(np.int64)
    vals = np.round(rng.standard_normal(96), 3)
    return [("insert", keys[:64], vals[:64]), ("add", keys[32:], vals[32:]),
            ("lookup", keys, None), ("delete", keys[::2], None),
            ("insert", keys[::3], vals[::3]), ("lookup", keys, None)]


def _run_pinned(table, combine):
    for op, keys, vals in _pinned_ops():
        args = (keys,) if vals is None else (keys, vals)
        getattr(table, op + "_many")(*args, combine=combine)


def _owner_side_ops(monkeypatch, combine):
    """Run the pinned batch on 4 sim ranks; per rank, what
    ``_apply_packets`` yielded, in order, and how many sources fed it."""
    scans, compute, fan_in = {}, {}, []
    original = dhash._apply_packets

    def spy(rank, op, store, nbuckets, delivered, phase):
        fan_in.append(len(delivered))
        gen = original(rank, op, store, nbuckets, delivered, phase)
        while True:
            try:
                item = next(gen)
            except StopIteration as stop:
                return stop.value
            if isinstance(item, Count):
                assert item.name == "structs_chain_scans"
                scans.setdefault(rank.id, []).append(item.amount)
            else:
                assert isinstance(item, Compute)
                compute.setdefault(rank.id, []).append(
                    float(item.seconds).hex())
            yield item

    monkeypatch.setattr(dhash, "_apply_packets", spy)
    table = DHash(4, nbuckets=5)
    _run_pinned(table, combine)
    return scans, compute, fan_in, table


class TestApplyPackets:
    @pytest.mark.parametrize("combine", [True, False])
    def test_count_compute_stream_is_the_parent_commits(self, monkeypatch,
                                                        combine):
        scans, compute, fan_in, table = _owner_side_ops(monkeypatch, combine)
        assert max(fan_in) >= 3
        assert scans == GOLDEN_SCANS
        assert compute == {rank: ["0x1." + h for h in text.split()]
                           for rank, text in GOLDEN_COMPUTE.items()}
        assert (table.nbuckets, len(table)) == (45, 27)

    def test_pickle_round_trip_keeps_contents_and_scan_totals(self):
        table = DHash(4, nbuckets=5)
        _run_pinned(table, combine=True)
        clone = pickle.loads(pickle.dumps(table))
        for name, column in table.snapshot().items():
            assert clone.snapshot()[name].tobytes() == column.tobytes()
        probe = np.arange(60, dtype=np.int64)
        for t in (table, clone):
            t.reset_results()
            t.delete_many(probe[::3])
            t.add_many(probe, probe * 0.5)
        assert (clone.merged_result().counter_sum("structs_chain_scans")
                == table.merged_result().counter_sum("structs_chain_scans"))
        assert clone.merged_result().clocks == table.merged_result().clocks
        assert clone.snapshot()["values"].tobytes() == \
            table.snapshot()["values"].tobytes()


class TestStoreRidesShmHome:
    def test_pool_ops_return_the_table_through_shm(self):
        rng = np.random.default_rng(5)
        keys = rng.permutation(10**6)[:20000].astype(np.int64)
        vals = rng.standard_normal(20000)
        sim = DHash(2, nbuckets=33)
        sim.insert_many(keys, vals)
        with RankPool(2) as pool:
            table = DHash(2, nbuckets=33, pool=pool)
            table.insert_many(keys, vals)
            insert = table.op_results[-1]
            # An 8-key lookup moves nothing else big enough to hoist, so
            # what its ranks published is exactly the table going home.
            table.lookup_many(keys[:8])
            lookup = table.op_results[-1]
            plane = pool._mesh.plane
            hoisted = sum(
                a.nbytes for store in table._stores
                for a in (store.starts, store.keys, store.vals)
                if a.nbytes >= plane.threshold)
        assert len(table) == 20000 and hoisted >= 16 * len(table)
        assert lookup.counter_sum("shm_bytes_sent") == hoisted
        assert insert.counter_sum("shm_bytes_sent") > hoisted
        for name, column in sim.snapshot().items():
            assert table.snapshot()[name].tobytes() == column.tobytes()
        assert not [f for f in os.listdir("/dev/shm")
                    if f.startswith(plane.prefix)]
