"""The shared-memory data plane (``repro.machine.shm``).

Three layers:

* **Allocator unit tests** — publish/read round trips, the content-tag
  guards (stale ref, double consume), the threshold boundary, arena
  exhaustion → grow, free-list reuse, reset/rewind, and orphan sweeping,
  all in one process (the consumer side is exercised by re-attaching the
  plane as a different party, exactly what a forked worker does).
* **The one serializer** — ``dumps``/``loads``: a protocol-5 pickle whose
  large contiguous buffers ride the plane, for any payload shape (a
  hypothesis property over nested containers, namedtuples, dataclasses
  and every array layout), with fallback accounting.
* **Differential integration** — jacobi on sim vs mp with the plane on
  and off stays bit-identical with identical semantic counters, the
  plane moves bytes when on and none when off, and a warm pool run
  ships schedules and per-rank args through the plane and reclaims at
  reset.
"""

import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys
from collections import OrderedDict, namedtuple
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.differential import (
    assert_arrays_identical,
    assert_counters_identical,
    assert_values_equal,
    run_differential,
)
from repro.apps.jacobi import build_jacobi
from repro.machine.api import Compute, Recv, Send
from repro.machine.cost import IDEAL
from repro.machine.mp import MpEngine
from repro.machine.shm import (
    DEFAULT_THRESHOLD,
    ShmDataPlane,
    ShmError,
    ShmPayload,
    ShmRef,
    shm_enabled_default,
    shm_threshold_default,
)
from repro.machine.topology import FullyConnected
from repro.meshes.regular import five_point_grid
from repro.serve.pool import RankPool
from repro.serve import shipping
from repro.structs import DHash

pytestmark = pytest.mark.timeout(120)


@pytest.fixture
def plane():
    """A 2-rank plane attached as the parent supervisor (party 2)."""
    p = ShmDataPlane(nranks=2, segment_bytes=1 << 20, threshold=1024)
    yield p
    p.close(unlink=True)
    assert p.sweep_orphans() == 0, "segments leaked past close(unlink=True)"


def _ack_all(plane, ref):
    """Stand in for the consumers: set every ack slot of ``ref``'s block.

    In production each consumer process writes only its own slot; doing
    it from the owner's mapping is byte-identical (same shared page)."""
    seg = plane._segments[ref.segment]
    h = ref.offset // 8
    seg.i64[h + 1: h + 1 + plane.nparties] = 1


def _hoisted(payload) -> int:
    return payload.nbytes if isinstance(payload, ShmPayload) else 0


# --- allocator unit tests --------------------------------------------------


class TestPublishRead:
    def test_array_round_trip_preserves_dtype_and_shape(self, plane):
        arr = np.arange(600, dtype=np.float32).reshape(30, 20) * 1.5
        payload = plane.dumps(arr, consumers=[0])
        assert isinstance(payload, ShmPayload)
        assert len(payload.refs) == 1 and payload.nbytes == arr.nbytes
        assert isinstance(payload.refs[0], ShmRef)
        plane.attach(0)  # become the consumer, as a forked worker would
        out = plane.loads(payload)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)
        # the copy is private and writable: mutating it cannot corrupt
        # the segment
        out[0, 0] = -1.0

    def test_bytes_round_trip(self, plane):
        blob = os.urandom(4096)
        ref = plane.publish(blob, consumers=[0, 1])
        assert ref.nbytes == len(blob)
        plane.attach(1)
        out = plane.read(ref)
        assert out == blob and isinstance(out, bytearray)

    def test_double_consume_raises(self, plane):
        ref = plane.publish(bytes(4096), consumers=[0])
        plane.attach(0)
        plane.read(ref)
        with pytest.raises(ShmError, match="double consume"):
            plane.read(ref)

    def test_each_consumer_reads_once(self, plane):
        ref = plane.publish(np.ones(512), consumers=[0, 1])
        plane.attach(0)
        a = plane.read(ref)
        plane.attach(1)
        b = plane.read(ref)
        assert a == b == np.ones(512).tobytes()

    def test_stale_ref_after_reclaim_raises(self, plane):
        ref = plane.publish(bytes(4096), consumers=[0])
        _ack_all(plane, ref)
        blocks, freed = plane.reclaim()
        assert blocks == 1 and freed > 0
        plane.attach(0)
        with pytest.raises(ShmError, match="stale"):
            plane.read(ref)

    def test_publish_to_self_rejected(self, plane):
        with pytest.raises(ShmError, match="bad consumer"):
            plane.publish(bytes(4096), consumers=[plane.party])

    def test_publish_needs_consumers(self, plane):
        with pytest.raises(ShmError, match="at least one consumer"):
            plane.publish(bytes(4096), consumers=[])

    def test_header_indices_track_traffic(self, plane):
        arr = np.zeros(1024)
        plane.dumps(arr, consumers=[0])
        stats = plane.header_stats()
        parent = plane.parent_party
        assert stats["pub_blocks"][parent] == 1
        assert stats["pub_bytes"][parent] == arr.nbytes
        assert stats["hwm_bytes"][parent] > 0
        assert stats["con_blocks"][0] == 0


class TestAllocator:
    def test_exhaustion_grows_new_segment(self, plane):
        # far larger than the ~340 KiB per-party arena of a 1 MiB segment
        big = np.arange(1 << 20, dtype=np.uint32).astype(np.uint8)
        ref = plane.publish(big, consumers=[0])
        assert ref is not None
        assert ref.segment != plane.primary, "should have grown a segment"
        plane.attach(0)  # consumer attaches the grown segment by name
        assert plane.read(ref) == big.tobytes()

    def test_reclaim_then_free_list_reuse(self, plane):
        a = plane.publish(bytes(2048), consumers=[0])
        b = plane.publish(bytes(2048), consumers=[0])
        assert b.offset > a.offset
        _ack_all(plane, a)
        _ack_all(plane, b)
        plane.reclaim()
        c = plane.publish(bytes(2048), consumers=[0])
        # freed space is reused instead of bumping the arena further
        assert c.offset in (a.offset, b.offset)

    def test_full_arena_reclaims_acked_blocks_inline(self, plane):
        chunk = bytes(200 * 1024)
        refs = [plane.publish(chunk, consumers=[0])]
        _ack_all(plane, refs[0])
        # keep publishing: once the arena fills, publish must reclaim
        # the acked block instead of growing
        for _ in range(3):
            r = plane.publish(chunk, consumers=[0])
            refs.append(r)
            _ack_all(plane, r)
        assert all(r.segment == plane.primary for r in refs)

    def test_reset_party_rewinds_and_unlinks_grown(self, plane):
        big = bytes(1 << 20)
        ref = plane.publish(big, consumers=[0])
        grown = ref.segment
        assert os.path.exists(os.path.join("/dev/shm", grown))
        small = plane.publish(bytes(4096), consumers=[0])
        reclaimed = plane.reset_party()
        assert reclaimed > len(big)
        assert not os.path.exists(os.path.join("/dev/shm", grown))
        # the primary arena rewound: the next publish reuses the start
        again = plane.publish(bytes(4096), consumers=[0])
        assert again.offset == small.offset
        # refs from before the reset are dead, not dangling
        plane.attach(0)
        with pytest.raises(ShmError):
            plane.read(small)

    def test_sweep_orphans_reclaims_crashed_workers_segments(self, plane):
        # a worker that died mid-job leaves its grown segment behind;
        # simulate one by hand under the plane's prefix
        from multiprocessing import shared_memory
        from repro.machine.shm import _untrack

        orphan = f"{plane.prefix}-p0-g99"
        shm = shared_memory.SharedMemory(name=orphan, create=True, size=4096)
        _untrack(orphan)
        shm.close()
        assert os.path.exists(os.path.join("/dev/shm", orphan))
        assert plane.sweep_orphans() >= 1
        assert not os.path.exists(os.path.join("/dev/shm", orphan))

    def test_close_unlink_removes_primary(self):
        p = ShmDataPlane(nranks=2, segment_bytes=1 << 20)
        primary = p.primary
        assert os.path.exists(os.path.join("/dev/shm", primary))
        p.close(unlink=True)
        assert not os.path.exists(os.path.join("/dev/shm", primary))
        p.close(unlink=True)  # idempotent

    def test_collected_unclosed_plane_unlinks_its_segments(self):
        p = ShmDataPlane(nranks=2, segment_bytes=1 << 20)
        grown = p.publish(bytes(2 << 20), consumers=[0]).segment
        paths = [os.path.join("/dev/shm", n) for n in (p.primary, grown)]
        assert all(os.path.exists(path) for path in paths)
        del p
        assert not any(os.path.exists(path) for path in paths)

    def test_unclosed_pool_leaves_nothing_at_exit(self):
        """A pool its owner never closes still removes its segments when
        the owning process exits, and quietly."""
        root = pathlib.Path(__file__).resolve().parent.parent
        script = (
            "import os\n"
            "from repro.machine.cost import IDEAL\n"
            "from repro.serve.pool import RankPool\n"
            "def program(kr):\n"
            "    yield from ()\n"
            "    return kr.id\n"
            "pool = RankPool(2).start()\n"
            "assert pool.run(program, IDEAL).values == [0, 1]\n"
            "print(f'repro-shm-{os.getpid():x}-')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run([sys.executable, "-c", script], cwd=root,
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        prefix = out.stdout.split()[-1]
        assert [n for n in os.listdir("/dev/shm") if n.startswith(prefix)] == []
        assert "Exception ignored" not in out.stderr, out.stderr

    def test_tiny_segment_rejected(self):
        with pytest.raises(ShmError, match="no room"):
            ShmDataPlane(nranks=8, segment_bytes=1024)


# --- the one serializer: dumps/loads ---------------------------------------


_Pair = namedtuple("_Pair", "left right")


@dataclasses.dataclass
class _Box:
    a: Any
    b: Any


class _Carrier:
    """A plain class with a bulk attribute and a small one."""

    def __init__(self, payload, label):
        self.payload = payload
        self.label = label


class TestEncodeDecode:
    """``dumps``/``loads``: one rule for every payload shape."""

    def test_threshold_boundary_exact(self, plane):
        below = np.zeros(plane.threshold - 1, dtype=np.uint8)
        at = np.ones(plane.threshold, dtype=np.uint8)
        payload = plane.dumps({"below": below, "at": at}, consumers=[0])
        # >= threshold rides the plane; the small one stays in the stream
        assert len(payload.refs) == 1 and payload.nbytes == at.nbytes
        assert plane.fallbacks == 0
        plane.attach(0)
        out = plane.loads(payload)
        assert np.array_equal(out["below"], below)
        assert np.array_equal(out["at"], at)

    def test_bytes_respect_threshold(self, plane):
        # raw bytes ride the plane only when the caller wraps them in a
        # PickleBuffer (as shipping does); bytes leaves stay in the stream
        t = plane.threshold
        payload = plane.dumps(
            [pickle.PickleBuffer(b"x" * (t - 1)),
             pickle.PickleBuffer(b"y" * t), b"z" * (4 * t)],
            consumers=[0])
        assert len(payload.refs) == 1 and payload.nbytes == t
        plane.attach(0)
        out = plane.loads(payload)
        assert bytes(out[0]) == b"x" * (t - 1)
        assert bytes(out[1]) == b"y" * t
        assert out[2] == b"z" * (4 * t)

    def test_object_dtype_arrays_never_hoisted(self, plane):
        arr = np.array([{"a": 1}] * 4096, dtype=object)
        payload = plane.dumps(arr, consumers=[0])
        assert isinstance(payload, bytes)
        assert plane.loads(payload).tolist() == arr.tolist()

    def test_nested_structure_round_trip(self, plane):
        big = np.arange(2048, dtype=np.float64)
        obj = {"k": (1, [big, "tiny"], {"inner": big * 2}), "n": None}
        payload = plane.dumps(obj, consumers=[0])
        assert len(payload.refs) == 2 and plane.fallbacks == 0
        assert obj["k"][1][0] is big, "dumps must not mutate the original"
        plane.attach(0)
        out = plane.loads(payload)
        assert np.array_equal(out["k"][1][0], big)
        assert np.array_equal(out["k"][2]["inner"], big * 2)
        assert out["k"][1][1] == "tiny" and out["n"] is None

    def test_nothing_hoisted_travels_as_bare_pickle(self, plane):
        small = {"a": [1, 2, 3], "b": np.zeros(4)}
        payload = plane.dumps(small, consumers=[0])
        assert isinstance(payload, bytes)
        out = pickle.loads(payload)
        assert out["a"] == [1, 2, 3] and np.array_equal(out["b"], small["b"])
        assert plane.header_stats()["pub_blocks"][plane.parent_party] == 0

    def test_any_class_hoists_without_mutation(self, plane):
        big = np.ones(4096)
        orig = _Carrier(big, "x")
        payload = plane.dumps(orig, consumers=[0])
        assert payload.nbytes == big.nbytes
        assert orig.payload is big, "original object must stay intact"
        plane.attach(0)
        out = plane.loads(payload)
        assert type(out) is _Carrier and out.label == "x"
        assert np.array_equal(out.payload, big)

    def test_fallback_when_grow_fails(self, plane, monkeypatch):
        def no_grow(need):
            raise OSError("no space on /dev/shm")

        monkeypatch.setattr(plane, "_grow", no_grow)
        huge = np.arange(1 << 20, dtype=np.uint32).astype(np.uint8)
        payload = plane.dumps(huge, consumers=[0])
        assert isinstance(payload, bytes), "fallback keeps bytes in-stream"
        assert plane.fallbacks == 1
        assert np.array_equal(plane.loads(payload), huge)

    def test_env_kill_switch_and_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert shm_enabled_default() is False
        monkeypatch.setenv("REPRO_SHM", "1")
        assert shm_enabled_default() is True
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "4096")
        assert shm_threshold_default() == 4096
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "banana")
        assert shm_threshold_default() == DEFAULT_THRESHOLD


_DTYPES = ["?", "i1", "u2", "i4", "i8", "f4", "f8", "c16"]


@st.composite
def _arrays(draw):
    layout = draw(st.sampled_from(["C", "F", "strided", "empty", "object"]))
    n = draw(st.integers(1, 600))
    if layout == "object":
        arr = np.empty(n, dtype=object)
        arr[:] = [("o", i) for i in range(n)]
        return arr
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    if layout == "empty":
        return np.zeros((0, draw(st.integers(0, 3))), dtype=dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = (rng.random(4 * n) * 200 - 100).astype(dtype)
    if layout == "C":
        return base[:n].copy()
    if layout == "F":
        return np.asfortranarray(base[:4 * n].reshape(4, n))
    return base[::3]


_leaves = st.one_of(
    _arrays(),
    st.integers(0, 5000).map(lambda k: bytearray(os.urandom(k))),
    st.integers(), st.text(max_size=4), st.none(),
)


def _containers(children):
    keyed = st.dictionaries(st.text(max_size=3), children, max_size=3)
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        keyed,
        keyed.map(OrderedDict),
        st.tuples(children, children).map(lambda t: _Pair(*t)),
        st.tuples(children, children).map(lambda t: _Box(*t)),
    )


def _walk(x):
    """Every leaf of a generated payload."""
    if isinstance(x, dict):
        for v in x.values():
            yield from _walk(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _walk(v)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _walk(getattr(x, f.name))
    else:
        yield x


def _assert_same(a, b):
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tolist() == b.tolist()
        assert b.flags.writeable
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            _assert_same(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaves, _containers, max_leaves=8))
@example([bytearray(4096)])
@example(OrderedDict(x=np.arange(1024.0)))
@example(_Pair(np.arange(1024.0), 1))
def test_one_rule_round_trips_any_payload(payload):
    """``loads(dumps(x))`` is ``x`` with every leaf type kept, and exactly
    the contiguous numeric buffers of at least ``threshold`` bytes ride
    the plane — whatever container holds them."""
    plane = ShmDataPlane(nranks=2, segment_bytes=1 << 20, threshold=1024)
    try:
        wire = plane.dumps(payload, consumers=[0])
        expect = sum(
            leaf.nbytes for leaf in _walk(payload)
            if isinstance(leaf, np.ndarray) and not leaf.dtype.hasobject
            and (leaf.flags.c_contiguous or leaf.flags.f_contiguous)
            and leaf.nbytes >= plane.threshold)
        assert _hoisted(wire) == expect
        plane.attach(0)
        _assert_same(payload, plane.loads(wire))
    finally:
        plane.close(unlink=True)


class TestShipping:
    def test_dumps_via_hoists_large_programs(self, plane):
        payload = {"blob": os.urandom(1 << 16)}
        wire, shipped = shipping.dumps_via(payload, plane,
                                           range(plane.nranks))
        assert isinstance(wire, ShmPayload) and shipped > 0
        plane.attach(0)
        assert shipping.loads_via(wire, plane) == payload

    def test_dumps_via_small_stays_pickled(self, plane):
        wire, shipped = shipping.dumps_via({"x": 1}, plane,
                                           range(plane.nranks))
        assert isinstance(wire, bytes) and shipped == 0
        assert shipping.loads_via(wire, plane) == {"x": 1}
        wire, shipped = shipping.dumps_via({"x": 1}, None, [0])
        assert shipping.loads_via(wire, None) == {"x": 1}

    def test_loads_via_ref_without_plane_fails(self, plane):
        from repro.serve.shipping import ShippingError

        wire, _ = shipping.dumps_via({"blob": os.urandom(1 << 16)}, plane,
                                     range(plane.nranks))
        with pytest.raises(ShippingError):
            shipping.loads_via(wire, None)


def _idle(rank):
    yield Compute(0.0)


# --- differential integration ---------------------------------------------


def _jacobi(backend, shm):
    # threshold of 256B so even this small mesh's gathers cross the plane
    mesh = five_point_grid(12, 12)
    init = np.random.default_rng(7).random(mesh.n)
    return build_jacobi(mesh, 4, machine=IDEAL, initial=init,
                        backend=backend, shm=shm, shm_threshold=256,
                        mp_timeout=60.0)


class TestDifferential:
    def test_jacobi_bit_identical_with_plane_on(self):
        pair = run_differential(lambda b: _jacobi(b, shm=True),
                                lambda p: p.run(sweeps=4))
        assert_arrays_identical(pair)
        assert_counters_identical(pair)
        assert_values_equal(pair)

    def test_jacobi_bit_identical_with_plane_off(self):
        pair = run_differential(lambda b: _jacobi(b, shm=False),
                                lambda p: p.run(sweeps=4))
        assert_arrays_identical(pair)
        assert_counters_identical(pair)

    def test_plane_moves_bytes_only_when_on(self):
        on = _jacobi("mp", shm=True).run(sweeps=4)
        off = _jacobi("mp", shm=False).run(sweeps=4)
        on_bytes = sum(s.counters.get("shm_bytes_sent", 0)
                       for s in on.engine.stats)
        off_bytes = sum(s.counters.get("shm_bytes_sent", 0)
                        for s in off.engine.stats)
        assert on_bytes > 0
        assert off_bytes == 0
        # transport-independent accounting: wire bytes match exactly
        for a, b in zip(on.engine.stats, off.engine.stats):
            assert a.bytes_sent == b.bytes_sent
            assert a.messages_sent == b.messages_sent

    def test_raw_engine_large_payload_round_trip(self):
        payload = np.arange(1 << 16, dtype=np.float64)

        def prog(rank):
            if rank.id == 0:
                yield Send(1, payload, tag=3)
                return 0.0
            msg = yield Recv(source=0, tag=3)
            yield Compute(0.0)
            return float(msg.payload.sum())

        eng = MpEngine(IDEAL, topology=FullyConnected(2), timeout=60.0,
                       shm=True, shm_threshold=1024)
        res = eng.run(prog)
        assert res.values[1] == float(payload.sum())
        assert res.stats[0].counters.get("shm_bytes_sent", 0) >= payload.nbytes

    def test_pool_ships_and_reclaims(self):
        mesh = five_point_grid(12, 12)
        init = np.random.default_rng(11).random(mesh.n)
        with RankPool(4, timeout=60.0) as pool:
            sols = []
            for _ in range(2):
                prog = build_jacobi(mesh, 4, machine=IDEAL, initial=init,
                                    pool=pool)
                prog.run(sweeps=4)
                sols.append(prog.solution.copy())
            assert pool.shm_ship_bytes > 0, "schedule ship skipped the plane"
            assert pool.shm_reclaimed_bytes > 0, "reset reclaimed nothing"
        assert np.array_equal(sols[0], sols[1])
        sim = build_jacobi(mesh, 4, machine=IDEAL, initial=init)
        sim.run(sweeps=4)
        assert np.array_equal(sols[0], sim.solution)

    def test_pool_no_shm_leak_after_close(self):
        before = {n for n in os.listdir("/dev/shm")
                  if n.startswith("repro-shm-")}
        mesh = five_point_grid(8, 8)
        init = np.random.default_rng(3).random(mesh.n)
        with RankPool(2, timeout=60.0) as pool:
            prog = build_jacobi(mesh, 2, machine=IDEAL, initial=init,
                                pool=pool)
            prog.run(sweeps=2)
        after = {n for n in os.listdir("/dev/shm")
                 if n.startswith("repro-shm-")}
        assert after <= before, f"leaked segments: {after - before}"

    def test_pool_ships_dhash_stores_through_the_plane(self):
        rng = np.random.default_rng(5)
        keys = rng.choice(1 << 40, size=4096, replace=False)
        with RankPool(2, timeout=60.0) as pool:
            table = DHash(2, nbuckets=17, pool=pool)
            table.insert_many(keys, rng.random(keys.size))
            before, shm_before = pool.ship_bytes, pool.shm_ship_bytes
            got = table.lookup_many(keys[:1024])
            table_bytes = 16 * keys.size   # int64 key + float64 value
            assert pool.ship_bytes - before >= table_bytes
            assert pool.shm_ship_bytes - shm_before >= table_bytes
            # a job without args ships its program and nothing else
            idle = []
            for _ in range(2):
                before = pool.ship_bytes
                pool.run(_idle, IDEAL)
                idle.append(pool.ship_bytes - before)
            assert idle[0] == idle[1] < table_bytes
        assert got.found.all()
