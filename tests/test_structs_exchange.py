"""The host-side work of a structs batch against plain references.

Packets are sized where they are built, grouped by one counting sort and
merged back with one scatter per field; each of those is checked here
against the obvious slow version: every packet size against
``payload_nbytes`` (the walk the router would otherwise do), grouping
against a stable-argsort split, the reply merge against a per-packet
scatter.  Also here: a ``LocalStore`` whose flat scans are cut into
many slices still matches the per-key chain model, and a key batch of
floats is refused rather than truncated.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.api import payload_nbytes
from repro.structs import DHash, DQueue, StructsError, dhash, exchange
from repro.structs.dhash import LocalStore
from repro.structs.exchange import (
    element_items,
    group_by_dest,
    packet_nbytes,
    scatter_packets,
)

pytestmark = pytest.mark.timeout(300)


# --- closed-form sizes -------------------------------------------------------


@pytest.fixture
def routed(monkeypatch):
    """Every ``(packet, size)`` handed to ``combining_route``, on both
    the combining and the naive path."""
    seen = []
    original = exchange.combining_route

    def spy(rank, outgoing, sizes, tag, phase="structs"):
        assert set(sizes) == set(outgoing)
        seen.extend((outgoing[dest], sizes[dest]) for dest in outgoing)
        return (yield from original(rank, outgoing, sizes, tag, phase))

    monkeypatch.setattr(exchange, "combining_route", spy)
    monkeypatch.setattr(dhash, "combining_route", spy)
    return seen


def _fields(seen):
    return {tuple(packet) for packet, _ in seen}


@pytest.mark.parametrize("combine", [True, False])
@pytest.mark.parametrize("nranks", [3, 4, 8])
def test_dhash_packets_are_sized_as_payload_nbytes(routed, nranks, combine):
    rng = np.random.default_rng(nranks)
    keys = rng.integers(0, 1 << 40, size=90)
    vals = rng.standard_normal(90)
    table = DHash(nranks, nbuckets=5, max_load=2.0, rebalance_horizon=64)
    table.insert_many(keys[:60], vals[:60], combine=combine)
    table.add_many(keys[30:], vals[30:], combine=combine)
    table.lookup_many(keys, combine=combine)
    table.delete_many(keys[::2], combine=combine)
    table.rebalance(nbuckets=3 * table.nbuckets)
    assert routed
    for packet, size in routed:
        assert size == payload_nbytes(packet)
    # requests with and without values, replies, migration packets
    assert {("keys", "pos", "vals"), ("keys", "pos"),
            ("pos", "found", "result"), ("keys", "vals")} <= _fields(routed)
    if not combine:      # the naive path moves one element per packet
        assert {len(next(iter(p.values()))) for p, _ in routed
                if "pos" in p} == {1}


@pytest.mark.parametrize("nranks", [3, 4, 8])
def test_dqueue_packets_are_sized_as_payload_nbytes(routed, nranks):
    queue = DQueue(nranks)
    queue.push_many(np.arange(50, dtype=np.float64))
    queue.pop_many(31)
    assert {("tickets", "vals"), ("tickets",)} <= _fields(routed)
    for packet, size in routed:
        assert size == payload_nbytes(packet)


_DTYPES = [np.int64, np.int32, np.float64, np.bool_, np.uint8]


@st.composite
def _arrays(draw):
    """Parallel arrays of one length (possibly 0), mixed dtypes, some
    with trailing dimensions (possibly 0 wide)."""
    n = draw(st.integers(0, 40))
    names = draw(st.lists(st.sampled_from(["keys", "pos", "vals", "rows"]),
                          min_size=1, max_size=4, unique=True))
    out = {}
    for name in names:
        dtype = draw(st.sampled_from(_DTYPES))
        tail = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
        out[name] = np.zeros((n, *tail), dtype=dtype)
    return out


@settings(max_examples=200, deadline=None)
@given(arrays=_arrays(), nranks=st.integers(1, 9), seed=st.integers(0, 99))
def test_every_built_packet_is_sized_as_payload_nbytes(arrays, nranks, seed):
    n = len(next(iter(arrays.values())))
    owners = np.random.default_rng(seed).integers(0, nranks, size=n)
    packets, sizes = group_by_dest(owners, arrays)
    assert set(sizes) == set(packets)
    for dest, packet in packets.items():
        assert sizes[dest] == payload_nbytes(packet) == packet_nbytes(packet)
    items = element_items(owners, arrays)
    assert len(items) == n
    for dest, packet, size in items:
        assert size == payload_nbytes(packet) == packet_nbytes(packet)
    # zero-length arrays: the header alone
    empty = {name: arr[:0] for name, arr in arrays.items()}
    assert packet_nbytes(empty) == payload_nbytes(empty) == 64 * len(empty)


# --- grouping and merge against references ----------------------------------


def _reference_groups(owners, arrays):
    order = np.argsort(owners, kind="stable")
    out = {}
    for i in order:
        out.setdefault(int(owners[i]), []).append(i)
    return {dest: {name: arr[idx] for name, arr in arrays.items()}
            for dest, idx in out.items()}


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("nranks", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("n", [0, 1, 7, 150])
def test_group_by_dest_matches_a_stable_argsort(n, nranks, dtype):
    rng = np.random.default_rng(n * 31 + nranks)
    # skip some ranks entirely: absent destinations get no packet
    live = rng.choice(nranks, size=max(1, nranks // 2), replace=False)
    owners = rng.choice(live, size=n).astype(dtype)
    arrays = {"keys": rng.integers(0, 1 << 40, size=n),
              "pos": np.arange(n, dtype=np.int64),
              "rows": rng.standard_normal((n, 2))}
    packets, sizes = group_by_dest(owners, arrays)
    want = _reference_groups(owners, arrays)
    assert list(packets) == sorted(want) and list(sizes) == list(packets)
    assert set(packets) <= set(live.tolist())
    for dest, packet in packets.items():
        assert type(dest) is int and list(packet) == list(arrays)
        for name in arrays:
            assert packet[name].dtype == arrays[name].dtype
            assert packet[name].tobytes() == want[dest][name].tobytes()
        assert sizes[dest] == payload_nbytes(packet)


@pytest.mark.parametrize("nranks", [1, 2, 3, 8, 16])
def test_scatter_packets_matches_a_per_packet_scatter(nranks):
    rng = np.random.default_rng(nranks)
    n, base = 150, 1000
    owners = rng.integers(0, nranks, size=n)
    request = {"pos": base + np.arange(n, dtype=np.int64),
               "found": rng.random(n) < 0.5,
               "result": rng.standard_normal(n)}
    delivered, _ = group_by_dest(owners, request)
    want = {"found": np.zeros(n, dtype=bool), "result": np.zeros(n)}
    for packet in delivered.values():
        at = packet["pos"] - base
        for name, arr in want.items():
            arr[at] = packet[name]
    got = {"found": np.zeros(n, dtype=bool), "result": np.zeros(n)}
    scatter_packets(delivered, "pos", base, got)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes()
        assert got[name].tobytes() == request[name].tobytes()
    untouched = {"result": np.full(3, 7.0)}
    scatter_packets({}, "pos", 0, untouched)
    assert untouched["result"].tolist() == [7.0, 7.0, 7.0]


# --- sliced scans -------------------------------------------------------------


@pytest.mark.parametrize("budget", [1, 3, 17])
def test_sliced_scans_match_the_chain_model(monkeypatch, budget):
    """A pair budget this small cuts every flat scan — and the delete
    shortening pass — into many slices, which a real table only reaches
    with chains of ~10^5 keys."""
    from tests.test_local_store import ChainModel, assert_same_step

    monkeypatch.setattr(dhash, "_PAIR_BUDGET", budget)
    rng = np.random.default_rng(budget)
    store, model = LocalStore(), ChainModel()
    for op in ["insert", "add", "lookup", "delete", "add", "delete",
               "insert", "lookup"] * 3:
        keys = rng.integers(0, 30, size=int(rng.integers(0, 60)))
        vals = (np.round(rng.standard_normal(len(keys)), 2)
                if op in ("insert", "add") else None)
        assert_same_step(store, model, op, keys % 4, keys, vals)


# --- keys must be integers ---------------------------------------------------


@pytest.mark.parametrize("op", ["insert", "add", "lookup", "delete"])
def test_float_keys_are_refused_not_truncated(op):
    table = DHash(2)
    table.insert_many([7], [1.0])
    args = ([1.5, 1.2], [10.0, 20.0]) if op in ("insert", "add") else (
        [7.0, 1.9],)
    with pytest.raises(StructsError, match="integer keys"):
        getattr(table, op + "_many")(*args)
    assert len(table) == 1 and len(table.op_results) == 1   # nothing ran
    with pytest.raises(StructsError, match="integer keys"):
        table.lookup_many(np.array([True, False]))


def test_integer_and_empty_batches_still_work():
    table = DHash(2)
    for keys in ([], np.array([], dtype=np.float64)):
        assert table.insert_many(keys, []).found.size == 0
        assert table.lookup_many(keys).found.size == 0
    table.insert_many(np.array([1, 2], dtype=np.int32), [10.0, 20.0])
    table.insert_many(np.array([3], dtype=np.uint64), [30.0])
    got = table.lookup_many([1, 2, 3])
    assert got.found.tolist() == [True, True, True]
    assert got.values.tolist() == [10.0, 20.0, 30.0]
    assert len(table) == 3
