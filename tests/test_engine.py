"""Tests for the discrete-event SPMD engine: semantics, virtual time,
determinism, deadlock detection."""

import numpy as np
import pytest

from repro.errors import CommunicationError, DeadlockError, EngineError
from repro.machine.api import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Count,
    Now,
    Recv,
    Send,
    payload_nbytes,
)
from repro.machine.cost import IDEAL, NCUBE7
from repro.machine.engine import Engine, run_spmd
from repro.machine.topology import FullyConnected, Hypercube


def run(prog, n=4, machine=IDEAL, topology=None):
    return Engine(machine, topology=topology or FullyConnected(n)).run(prog)


class TestBasics:
    def test_single_rank_returns_value(self):
        def prog(rank):
            yield Compute(1.0)
            return rank.id * 10

        res = run(prog, n=1)
        assert res.values == [0]
        assert res.makespan == 1.0

    def test_compute_accumulates_per_phase(self):
        def prog(rank):
            yield Compute(1.0, phase="a")
            yield Compute(2.0, phase="b")
            yield Compute(3.0, phase="a")

        res = run(prog, n=2)
        assert res.phase_max("a") == 4.0
        assert res.phase_max("b") == 2.0
        assert res.makespan == 6.0

    def test_now_reports_clock(self):
        def prog(rank):
            t0 = yield Now()
            yield Compute(5.0)
            t1 = yield Now()
            return (t0, t1)

        res = run(prog, n=1)
        assert res.values[0] == (0.0, 5.0)

    def test_counters(self):
        def prog(rank):
            yield Count("widgets", 3)
            yield Count("widgets")

        res = run(prog, n=3)
        assert res.counter_sum("widgets") == 12
        assert res.counter_max("widgets") == 4

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)

    def test_non_generator_program_rejected(self):
        def not_gen(rank):
            return 42

        with pytest.raises(EngineError):
            run(not_gen, n=2)

    def test_yielding_garbage_rejected(self):
        def prog(rank):
            yield "not an op"

        with pytest.raises(EngineError):
            run(prog, n=1)


class TestMessaging:
    def test_pingpong_payload(self):
        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload={"x": 42}, tag=7)
                msg = yield Recv(source=1, tag=8)
                return msg.payload
            else:
                msg = yield Recv(source=0, tag=7)
                yield Send(dest=0, payload=msg.payload["x"] + 1, tag=8)
                return None

        res = run(prog, n=2)
        assert res.values[0] == 43

    def test_fifo_per_channel(self):
        def prog(rank):
            if rank.id == 0:
                for i in range(5):
                    yield Send(dest=1, payload=i, tag=1)
            else:
                got = []
                for _ in range(5):
                    msg = yield Recv(source=0, tag=1)
                    got.append(msg.payload)
                return got

        res = run(prog, n=2)
        assert res.values[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload="a", tag=1)
                yield Send(dest=1, payload="b", tag=2)
            else:
                m2 = yield Recv(source=0, tag=2)
                m1 = yield Recv(source=0, tag=1)
                return (m1.payload, m2.payload)

        res = run(prog, n=2)
        assert res.values[1] == ("a", "b")

    def test_any_source(self):
        def prog(rank):
            if rank.id == 0:
                got = set()
                for _ in range(3):
                    msg = yield Recv(source=ANY_SOURCE, tag=5)
                    got.add(msg.source)
                return got
            else:
                yield Compute(float(rank.id))
                yield Send(dest=0, payload=None, tag=5)

        res = run(prog, n=4)
        assert res.values[0] == {1, 2, 3}

    def test_any_tag_from_specific_source(self):
        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload="x", tag=3)
            else:
                msg = yield Recv(source=0, tag=ANY_TAG)
                return msg.tag

        res = run(prog, n=2)
        assert res.values[1] == 3

    def test_send_to_bad_rank(self):
        def prog(rank):
            yield Send(dest=99, payload=None)

        with pytest.raises(CommunicationError):
            run(prog, n=2)

    def test_send_to_self_rejected(self):
        def prog(rank):
            yield Send(dest=rank.id, payload=None, tag=1)

        with pytest.raises(CommunicationError, match="itself"):
            run(prog, n=2)

    def test_negative_tag_rejected_at_construction(self):
        with pytest.raises(CommunicationError, match="tag"):
            Send(dest=1, payload=None, tag=-3)
        with pytest.raises(CommunicationError):
            Send(dest=-2, payload=None)
        with pytest.raises(CommunicationError):
            Send(dest=1, payload=None, nbytes=-1)
        with pytest.raises(CommunicationError):
            Recv(source=-7, tag=1)
        with pytest.raises(CommunicationError):
            Recv(source=0, tag=-9)

    def test_numpy_payload_isolated_per_message(self):
        """Payload references are delivered as-is: the sender sends a copy."""

        def prog(rank):
            if rank.id == 0:
                data = np.arange(4.0)
                yield Send(dest=1, payload=data.copy(), tag=1)
                data[:] = -1  # must not affect the delivered message
                yield Send(dest=1, payload=None, tag=2)
            else:
                msg = yield Recv(source=0, tag=1)
                yield Recv(source=0, tag=2)
                return msg.payload.tolist()

        res = run(prog, n=2)
        assert res.values[1] == [0.0, 1.0, 2.0, 3.0]


class TestVirtualTime:
    def test_send_charges_alpha_beta(self):
        m = NCUBE7

        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload=np.zeros(100), tag=1)
            else:
                yield Recv(source=0, tag=1)

        res = run(prog, n=2, machine=m)
        expected = m.alpha_send + m.beta * 800
        assert res.clocks[0] == pytest.approx(expected)

    def test_recv_waits_for_arrival(self):
        m = IDEAL.with_overrides(alpha_send=1.0, alpha_recv=0.5, hop=0.25)

        def prog(rank):
            if rank.id == 0:
                yield Compute(10.0)
                yield Send(dest=1, payload=None, tag=1)
            else:
                msg = yield Recv(source=0, tag=1)
                t = yield Now()
                return (msg.arrival, t)

        res = run(prog, n=2, machine=m, topology=Hypercube(2))
        arrival, t = res.values[1]
        assert arrival == pytest.approx(10.0 + 1.0 + 0.25)  # compute + send + 1 hop
        assert t == pytest.approx(arrival + 0.5)

    def test_recv_no_wait_when_message_early(self):
        m = IDEAL.with_overrides(alpha_send=1.0, alpha_recv=0.5)

        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload=None, tag=1)
            else:
                yield Compute(100.0)
                yield Recv(source=0, tag=1)
                t = yield Now()
                return t

        res = run(prog, n=2, machine=m)
        assert res.values[1] == pytest.approx(100.5)

    def test_hop_latency_scales_with_distance(self):
        m = IDEAL.with_overrides(hop=1.0, alpha_send=0.0, alpha_recv=0.0)

        def prog(rank):
            if rank.id == 0:
                yield Send(dest=7, payload=None, tag=1)  # 3 hops in a 3-cube
            elif rank.id == 7:
                msg = yield Recv(source=0, tag=1)
                return msg.arrival

        res = run(prog, n=8, machine=m, topology=Hypercube(8))
        assert res.values[7] == pytest.approx(3.0)

    def test_determinism_across_runs(self):
        def prog(rank):
            right = (rank.id + 1) % rank.size
            for i in range(10):
                yield Send(dest=right, payload=i, tag=i)
                yield Recv(source=(rank.id - 1) % rank.size, tag=i)
                yield Compute(0.1 * rank.id)

        r1 = run(prog, n=8, machine=NCUBE7, topology=Hypercube(8))
        r2 = run(prog, n=8, machine=NCUBE7, topology=Hypercube(8))
        assert r1.clocks == r2.clocks
        assert r1.makespan == r2.makespan


class TestDeadlock:
    def test_mutual_recv_deadlocks(self):
        def prog(rank):
            yield Recv(source=1 - rank.id, tag=1)

        with pytest.raises(DeadlockError) as exc:
            run(prog, n=2)
        assert set(exc.value.blocked) == {0, 1}

    def test_recv_from_finished_rank_deadlocks(self):
        def prog(rank):
            if rank.id == 0:
                return None
                yield  # pragma: no cover
            else:
                yield Recv(source=0, tag=1)

        with pytest.raises(DeadlockError):
            run(prog, n=2)

    def test_unmatched_tag_deadlocks(self):
        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload=None, tag=1)
            else:
                yield Recv(source=0, tag=2)

        with pytest.raises(DeadlockError):
            run(prog, n=2)

    def test_diagnostics_name_every_blocked_rank(self):
        """The error reports, per blocked rank: peer, tag, phase, virtual
        time — plus the undelivered messages left in the mailboxes."""

        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload=b"xyz", tag=1, phase="exchange")
                yield Recv(source=1, tag=7, phase="exchange", label="edge")
            else:
                yield Compute(0.5, phase="work")
                yield Recv(source=0, tag=9, phase="collect")

        with pytest.raises(DeadlockError) as excinfo:
            run(prog, n=2)
        exc = excinfo.value
        assert set(exc.blocked) == {0, 1}
        assert exc.blocked[0].source == 1 and exc.blocked[0].tag == 7
        assert exc.blocked[0].phase == "exchange"
        assert exc.blocked[0].label == "edge"
        assert exc.blocked[1].source == 0 and exc.blocked[1].tag == 9
        assert exc.blocked[1].phase == "collect"
        assert exc.blocked[1].clock == pytest.approx(0.5)
        assert exc.undelivered == [(0, 1, 1, pytest.approx(0.0), 3)]
        msg = str(exc)
        assert "rank 0 waiting on (src=1, tag=7) in exchange:edge" in msg
        assert "rank 1 waiting on (src=0, tag=9) in collect" in msg
        assert "undelivered messages (1):" in msg

    def test_legacy_tuple_form_still_formats(self):
        e = DeadlockError({2: (0, 5)})
        assert e.blocked == {2: (0, 5)}
        assert "rank 2 waiting on (src=0, tag=5)" in str(e)


class TestStats:
    def test_message_accounting(self):
        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload=np.zeros(10), tag=1)
            else:
                yield Recv(source=0, tag=1)

        res = run(prog, n=2)
        assert res.total_messages() == 1
        assert res.total_bytes() == 80
        assert res.stats[1].messages_received == 1
        assert res.stats[1].bytes_received == 80

    def test_summary_mentions_phases(self):
        def prog(rank):
            yield Compute(1.0, phase="inspector")

        text = run(prog, n=2).summary()
        assert "inspector" in text

    def test_run_spmd_wrapper(self):
        def prog(rank):
            yield Compute(1.0)
            return rank.id

        res = run_spmd(prog, nranks=3, machine=IDEAL)
        assert res.values == [0, 1, 2]


class TestPayloadSizing:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_scalars(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(True) == 1
        assert payload_nbytes(3) == 8
        assert payload_nbytes(3.5) == 8

    def test_containers(self):
        assert payload_nbytes([1, 2.0]) == 16
        assert payload_nbytes({"k": 1}) == 64 + 8

    def test_nested_leaves(self):
        """Every leaf kind under lists, tuples and dicts, as crystal
        packets and redistribute bundles nest them."""
        payload = [("adj", 3, 7),                                   # 64 + 8 + 8
                   [True, None, b"abcd", 2.5, np.zeros(3, np.int16)],  # 1+0+4+8+6
                   {"x": (1, "s")},                                 # 64 + 8 + 64
                   (np.float64(1.0), False, 7)]                     # 8 + 1 + 8
        assert payload_nbytes(payload) == 80 + 19 + 136 + 17
        assert payload_nbytes(("s",)) == payload_nbytes("s") == 64

    def test_explicit_nbytes_override(self):
        s = Send(dest=0, payload=np.zeros(100), nbytes=4)
        assert s.wire_size() == 4

    def test_per_rank_args(self):
        def prog(rank):
            yield Compute(0.0)
            return rank.arg * 2

        res = run_spmd(prog, nranks=3, machine=IDEAL, args=[10, 20, 30])
        assert res.values == [20, 40, 60]
