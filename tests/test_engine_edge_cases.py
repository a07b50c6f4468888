"""Additional engine edge cases: wildcard matching order, conservative
ANY_SOURCE resolution, message combining at the executor level."""

import numpy as np
import pytest

from repro.machine.api import ANY_SOURCE, ANY_TAG, Compute, Recv, Send
from repro.machine.cost import IDEAL, NCUBE7
from repro.machine.engine import Engine
from repro.machine.topology import FullyConnected


def run(prog, n, machine=IDEAL):
    return Engine(machine, topology=FullyConnected(n)).run(prog)


class TestWildcardResolution:
    def test_any_source_earliest_arrival_wins(self):
        """With two candidates queued, the earlier virtual arrival is
        matched first regardless of host-side send order."""

        def prog(rank):
            if rank.id == 0:
                first = yield Recv(source=ANY_SOURCE, tag=1)
                second = yield Recv(source=ANY_SOURCE, tag=1)
                return (first.source, second.source)
            elif rank.id == 1:
                yield Compute(5.0)
                yield Send(dest=0, payload="late", tag=1)
            else:
                yield Compute(1.0)
                yield Send(dest=0, payload="early", tag=1)

        res = run(prog, 3)
        assert res.values[0] == (2, 1)

    def test_any_source_ties_break_by_rank(self):
        def prog(rank):
            if rank.id == 0:
                got = []
                for _ in range(2):
                    msg = yield Recv(source=ANY_SOURCE, tag=1)
                    got.append(msg.source)
                return got
            else:
                yield Compute(1.0)  # identical clocks => identical arrivals
                yield Send(dest=0, payload=None, tag=1)

        res = run(prog, 3)
        assert res.values[0] == [1, 2]

    def test_any_tag_specific_source_fifo(self):
        """From one source, ANY_TAG receives in send order."""

        def prog(rank):
            if rank.id == 0:
                yield Send(dest=1, payload="a", tag=5)
                yield Send(dest=1, payload="b", tag=3)
            else:
                m1 = yield Recv(source=0, tag=ANY_TAG)
                m2 = yield Recv(source=0, tag=ANY_TAG)
                return (m1.payload, m2.payload)

        res = run(prog, 2)
        assert res.values[1] == ("a", "b")

    def test_any_source_any_tag(self):
        def prog(rank):
            if rank.id == 0:
                msg = yield Recv(source=ANY_SOURCE, tag=ANY_TAG)
                return (msg.source, msg.tag)
            if rank.id == 1:
                yield Send(dest=0, payload=None, tag=9)

        res = run(prog, 2)
        assert res.values[0] == (1, 9)

    def test_mixed_wildcard_and_specific(self):
        """A wildcard receive must not steal a message a later specific
        receive needs, when arrivals identify them unambiguously."""

        def prog(rank):
            if rank.id == 0:
                any_msg = yield Recv(source=ANY_SOURCE, tag=1)
                spec_msg = yield Recv(source=1, tag=2)
                return (any_msg.source, spec_msg.payload)
            if rank.id == 1:
                yield Send(dest=0, payload=None, tag=1)
                yield Send(dest=0, payload="specific", tag=2)

        res = run(prog, 2)
        assert res.values[0] == (1, "specific")


class TestExecutorCombining:
    def _make(self, combine):
        from repro.core.context import KaliContext
        from repro.core.forall import Affine, AffineRead, AffineWrite, Forall, OnOwner
        from repro.distributions import Block

        n, p = 32, 4
        ctx = KaliContext(p, machine=NCUBE7, combine_messages=combine)
        rng = np.random.default_rng(0)
        a_init, b_init = rng.random(n), rng.random(n)
        ctx.array("A", n, dist=[Block()]).set(a_init)
        ctx.array("B", n, dist=[Block()]).set(b_init)
        ctx.array("C", n, dist=[Block()]).set(np.zeros(n))
        loop = Forall(
            index_range=(0, n - 2),
            on=OnOwner("C"),
            reads=[
                AffineRead("A", Affine(1, 1), name="a"),
                AffineRead("B", Affine(1, 1), name="b"),
            ],
            writes=[AffineWrite("C")],
            kernel=lambda i, o: o["a"] + o["b"],
            label=f"combine-{combine}",
        )

        def program(kr):
            yield from kr.forall(loop)

        res = ctx.run(program)
        return res, ctx.arrays["C"].data.copy(), a_init, b_init

    def test_combined_fewer_messages_same_result(self):
        res_c, out_c, a, b = self._make(True)
        res_s, out_s, _, _ = self._make(False)
        np.testing.assert_array_equal(out_c, out_s)
        expected = np.zeros(32)
        expected[:-1] = a[1:] + b[1:]
        np.testing.assert_allclose(out_c, expected)
        assert res_c.engine.total_messages() < res_s.engine.total_messages()

    def test_combined_wire_bytes_exclude_dict_overhead(self):
        res_c, _, _, _ = self._make(True)
        # 3 boundary exchanges, each 1 element x 8B per array + 8B symbol:
        # 2 arrays -> 32B per message.
        per_msg = res_c.engine.total_bytes() / res_c.engine.total_messages()
        assert per_msg == pytest.approx(32.0)


class TestEngineGuards:
    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_max_ops_guard(self, backend, monkeypatch):
        from repro.errors import EngineError
        from repro.machine import api
        from repro.machine.mp import MpEngine

        def prog(rank):
            while True:
                yield Compute(0.0)

        # Patched before the run: MpEngine forks its ranks per run, so
        # they inherit the lowered bound.
        monkeypatch.setattr(api, "MAX_OPS", 100)
        engine = Engine if backend == "sim" else MpEngine
        eng = engine(IDEAL, topology=FullyConnected(1))
        with pytest.raises(EngineError, match="exceeded 100 ops"):
            eng.run(prog)

    def test_nranks_exceeding_topology(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            Engine(IDEAL, topology=FullyConnected(2), nranks=4)

    def test_engine_without_topology_or_nranks(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            Engine(IDEAL)

    def test_args_length_mismatch(self):
        from repro.errors import EngineError

        def prog(rank):
            yield Compute(0.0)

        eng = Engine(IDEAL, topology=FullyConnected(2))
        with pytest.raises(EngineError):
            eng.run(prog, args=[1])
