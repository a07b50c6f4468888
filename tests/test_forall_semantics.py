"""Semantic tests for forall execution: results must equal the sequential
global-name-space oracle for every distribution and analysis strategy.

This is the heart of the reproduction: the paper's promise is that the
generated message-passing program computes exactly what the shared-memory
forall specifies, for *any* data distribution.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from repro.analysis.planner import Strategy
from repro.core.context import KaliContext
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectOperand,
    IndirectRead,
    OnOwner,
    OnProcessor,
)
from repro.distributions import Block, BlockCyclic, Custom, Cyclic, Replicated
from repro.errors import InspectorError, KaliError
from repro.machine.cost import IDEAL
import repro.machine.cost as cost

DISTS = [
    ("block", lambda n, p: Block()),
    ("cyclic", lambda n, p: Cyclic()),
    ("block_cyclic3", lambda n, p: BlockCyclic(3)),
    ("custom", lambda n, p: Custom((np.arange(n) * 7 + 3) % p)),
]
PS = [1, 2, 4, 8]


def run_forall(n, p, dist_mk, loops, arrays, force=None):
    """Build a context with 1-d float arrays, run the loops, return dict of
    final global contents."""
    ctx = KaliContext(p, machine=IDEAL, force_strategy=force)
    for name, values in arrays.items():
        values = np.asarray(values)
        if values.ndim == 1 and values.dtype != np.int64:
            a = ctx.array(name, n, dist=[dist_mk(n, p)])
        elif values.ndim == 1:
            a = ctx.array(name, n, dist=[dist_mk(n, p)], dtype=np.int64)
        else:
            a = ctx.array(
                name,
                values.shape,
                dist=[dist_mk(n, p), Replicated()],
                dtype=values.dtype,
            )
        a.set(values)

    def program(kr):
        for loop in loops:
            yield from kr.forall(loop)

    ctx.run(program)
    return {name: ctx.arrays[name].data.copy() for name in arrays}


@pytest.mark.parametrize("dist_name,dist_mk", DISTS)
@pytest.mark.parametrize("p", PS)
class TestAgainstOracle:
    def test_shift_left_figure1(self, dist_name, dist_mk, p):
        """forall i in 1..N-1 on A[i].loc do A[i] := A[i+1] (paper Fig. 1)."""
        n = 23
        init = np.arange(float(n)) * 2 + 1
        loop = Forall(
            index_range=(0, n - 2),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="next")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["next"],
            label=f"shift-{dist_name}-{p}",
        )
        out = run_forall(n, p, dist_mk, [loop], {"A": init})["A"]
        expected = init.copy()
        expected[:-1] = init[1:]  # copy-in/copy-out: RHS sees old values
        np.testing.assert_allclose(out, expected)

    def test_three_point_stencil(self, dist_name, dist_mk, p):
        n = 31
        init = np.sin(np.arange(n))
        loop = Forall(
            index_range=(1, n - 2),
            on=OnOwner("A"),
            reads=[
                AffineRead("A", Affine(1, -1), name="lo"),
                AffineRead("A", Affine(1, 0), name="mid"),
                AffineRead("A", Affine(1, 1), name="hi"),
            ],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: (ops["lo"] + ops["mid"] + ops["hi"]) / 3.0,
            label=f"stencil-{dist_name}-{p}",
        )
        out = run_forall(n, p, dist_mk, [loop], {"A": init})["A"]
        expected = init.copy()
        expected[1:-1] = (init[:-2] + init[1:-1] + init[2:]) / 3.0
        np.testing.assert_allclose(out, expected)

    def test_reversal_read(self, dist_name, dist_mk, p):
        """B[i] := A[n-1-i] — a negative-stride affine subscript."""
        n = 17
        init = np.arange(float(n)) ** 2
        loop = Forall(
            index_range=(0, n - 1),
            on=OnOwner("B"),
            reads=[AffineRead("A", Affine(-1, n - 1), name="rev")],
            writes=[AffineWrite("B")],
            kernel=lambda iters, ops: ops["rev"],
            label=f"rev-{dist_name}-{p}",
        )
        out = run_forall(n, p, dist_mk, [loop], {"A": init, "B": np.zeros(n)})["B"]
        np.testing.assert_allclose(out, init[::-1])

    def test_indirect_permutation(self, dist_name, dist_mk, p):
        """B[i] := A[perm[i]] — data-dependent subscript (inspector path)."""
        n = 29
        rng = np.random.default_rng(7)
        perm = rng.permutation(n).astype(np.int64)
        init = rng.random(n)
        loop = Forall(
            index_range=(0, n - 1),
            on=OnOwner("B"),
            reads=[IndirectRead("A", table="perm", name="g")],
            writes=[AffineWrite("B")],
            kernel=lambda iters, ops: ops["g"].values[:, 0],
            label=f"perm-{dist_name}-{p}",
        )
        out = run_forall(
            n, p, dist_mk, [loop], {"A": init, "B": np.zeros(n), "perm": perm}
        )["B"]
        np.testing.assert_allclose(out, init[perm])

    def test_strided_read(self, dist_name, dist_mk, p):
        """B[i] := A[2i] for i < n/2 — a scaling affine subscript."""
        n = 24
        init = np.arange(float(n))
        loop = Forall(
            index_range=(0, n // 2 - 1),
            on=OnOwner("B"),
            reads=[AffineRead("A", Affine(2, 0), name="even")],
            writes=[AffineWrite("B")],
            kernel=lambda iters, ops: ops["even"],
            label=f"stride-{dist_name}-{p}",
        )
        out = run_forall(n, p, dist_mk, [loop], {"A": init, "B": np.zeros(n)})["B"]
        expected = np.zeros(n)
        expected[: n // 2] = init[::2]
        np.testing.assert_allclose(out, expected)

    def test_two_loops_chained(self, dist_name, dist_mk, p):
        """Loop 2 reads what loop 1 wrote (sequential forall semantics)."""
        n = 16
        init = np.arange(float(n))
        double = Forall(
            index_range=(0, n - 1),
            on=OnOwner("A"),
            reads=[AffineRead("A", name="a")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["a"] * 2,
            label=f"dbl-{dist_name}-{p}",
        )
        shift = Forall(
            index_range=(0, n - 2),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="nxt")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["nxt"],
            label=f"shift2-{dist_name}-{p}",
        )
        out = run_forall(n, p, dist_mk, [double, shift], {"A": init})["A"]
        doubled = init * 2
        expected = doubled.copy()
        expected[:-1] = doubled[1:]
        np.testing.assert_allclose(out, expected)


class TestStrategyEquivalence:
    """Compile-time and run-time analysis must produce identical results
    (the paper's 'common framework for run-time and compile-time
    resolution')."""

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("dist_name,dist_mk",
                             [("block", lambda n, p: Block()),
                              ("cyclic", lambda n, p: Cyclic())])
    def test_same_result_both_strategies(self, p, dist_name, dist_mk):
        n = 40
        init = np.cos(np.arange(n))

        def mkloop(tag):
            return Forall(
                index_range=(1, n - 2),
                on=OnOwner("A"),
                reads=[
                    AffineRead("A", Affine(1, -1), name="lo"),
                    AffineRead("A", Affine(1, 1), name="hi"),
                ],
                writes=[AffineWrite("A")],
                kernel=lambda iters, ops: 0.5 * (ops["lo"] + ops["hi"]),
                label=f"streq-{tag}-{dist_name}-{p}",
            )

        out_ct = run_forall(n, p, dist_mk, [mkloop("ct")], {"A": init},
                            force=Strategy.COMPILE_TIME)["A"]
        out_rt = run_forall(n, p, dist_mk, [mkloop("rt")], {"A": init},
                            force=Strategy.RUNTIME)["A"]
        np.testing.assert_array_equal(out_ct, out_rt)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_schedules_structurally_identical(self, p):
        """The closed-form schedule must match the inspector's: same exec
        split, same in/out records, same buffer layout."""
        from repro.analysis.closedform import build_closed_form_schedule
        from repro.runtime.inspector import run_inspector
        from repro.machine.engine import Engine
        from repro.machine.topology import FullyConnected

        n = 37
        ctx = KaliContext(p, machine=IDEAL)
        a = ctx.array("A", n, dist=[Block()])
        a.set(np.arange(float(n)))
        loop = Forall(
            index_range=(0, n - 2),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="nxt")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["nxt"],
            label=f"structeq-{p}",
        )

        schedules = {}

        def program(kr):
            ct = build_closed_form_schedule(kr.rank, loop, kr.env)
            rt = yield from run_inspector(kr.rank, loop, kr.env)
            schedules[kr.id] = (ct, rt)

        ctx.run(program)
        for rank, (ct, rt) in schedules.items():
            np.testing.assert_array_equal(ct.exec_local, rt.exec_local)
            np.testing.assert_array_equal(ct.exec_nonlocal, rt.exec_nonlocal)
            assert ct.arrays.keys() == rt.arrays.keys()
            for name in ct.arrays:
                assert ct.arrays[name].in_records == rt.arrays[name].in_records
                assert ct.arrays[name].out_records == rt.arrays[name].out_records


class TestInOutDuality:
    """in(p,q) == out(q,p): what p receives from q is exactly what q sends
    to p — the defining identity of §3.1."""

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("dist_name,dist_mk", DISTS)
    def test_duality_via_inspector(self, p, dist_name, dist_mk):
        from repro.runtime.inspector import run_inspector

        n = 33
        rng = np.random.default_rng(3)
        perm = rng.integers(0, n, size=n).astype(np.int64)
        ctx = KaliContext(p, machine=IDEAL)
        ctx.array("A", n, dist=[dist_mk(n, p)]).set(np.arange(float(n)))
        ctx.array("B", n, dist=[dist_mk(n, p)]).set(np.zeros(n))
        ctx.array("perm", n, dist=[dist_mk(n, p)], dtype=np.int64).set(perm)
        loop = Forall(
            index_range=(0, n - 1),
            on=OnOwner("B"),
            reads=[IndirectRead("A", table="perm", name="g")],
            writes=[AffineWrite("B")],
            kernel=lambda iters, ops: ops["g"].values[:, 0],
            label=f"dual-{dist_name}-{p}",
        )
        schedules = {}

        def program(kr):
            schedules[kr.id] = (yield from run_inspector(kr.rank, loop, kr.env))

        ctx.run(program)
        for me in range(p):
            for q in range(p):
                if me == q:
                    continue
                ins = [
                    (r.low, r.high)
                    for r in schedules[me].arrays["A"].ranges_for_peer_in(q)
                ]
                outs = [
                    (r.low, r.high)
                    for r in schedules[q].arrays["A"].ranges_for_peer_out(me)
                ]
                assert ins == outs, f"in({me},{q}) != out({q},{me})"


class TestSemanticsEdgeCases:
    def test_empty_range(self):
        n = 8
        loop = Forall(
            index_range=(5, 4),  # empty
            on=OnOwner("A"),
            reads=[AffineRead("A", name="a")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["a"],
            label="empty-range",
        )
        init = np.arange(float(n))
        out = run_forall(n, 4, lambda n, p: Block(), [loop], {"A": init})["A"]
        np.testing.assert_array_equal(out, init)

    def test_single_iteration(self):
        n = 8
        loop = Forall(
            index_range=(3, 3),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="nxt")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["nxt"] * 10,
            label="single-iter",
        )
        init = np.arange(float(n))
        out = run_forall(n, 4, lambda n, p: Block(), [loop], {"A": init})["A"]
        expected = init.copy()
        expected[3] = init[4] * 10
        np.testing.assert_array_equal(out, expected)

    def test_out_of_bounds_read_rejected(self):
        n = 8
        loop = Forall(
            index_range=(0, n - 1),  # A[i+1] runs off the end
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="nxt")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["nxt"],
            label="oob",
        )
        from repro.errors import AnalysisError

        with pytest.raises((InspectorError, AnalysisError)):
            run_forall(n, 2, lambda n, p: Block(), [loop], {"A": np.zeros(n)})

    def test_remote_write_rejected(self):
        """Writing A[i+1] under on A[i].loc violates owner-computes."""
        n = 8
        loop = Forall(
            index_range=(0, n - 2),
            on=OnOwner("A"),
            reads=[AffineRead("A", name="a")],
            writes=[AffineWrite("A", Affine(1, 1))],
            kernel=lambda iters, ops: ops["a"],
            label="remote-write",
        )
        from repro.errors import AnalysisError

        with pytest.raises((InspectorError, AnalysisError)):
            run_forall(n, 2, lambda n, p: Block(), [loop], {"A": np.zeros(n)})

    def test_on_processor_clause(self):
        """Direct processor naming: iterations dealt round-robin."""
        n = 12
        p = 4
        loop = Forall(
            index_range=(0, n - 1),
            on=OnProcessor(Affine(1, 0)),
            reads=[IndirectRead("A", table="idx", name="g")],
            writes=[AffineWrite("B")],
            kernel=lambda iters, ops: ops["g"].values[:, 0] + 1,
            label="onproc",
        )
        init = np.arange(float(n))
        idx = np.arange(n, dtype=np.int64)[::-1].copy()
        # OnProcessor(i) places iteration i on proc i mod P; write B[i] must
        # be owned by that proc -> use a cyclic distribution for B.
        ctx = KaliContext(p, machine=IDEAL)
        ctx.array("A", n, dist=[Cyclic()]).set(init)
        ctx.array("B", n, dist=[Cyclic()]).set(np.zeros(n))
        ctx.array("idx", n, dist=[Cyclic()], dtype=np.int64).set(idx)

        def program(kr):
            yield from kr.forall(loop)

        ctx.run(program)
        np.testing.assert_allclose(ctx.arrays["B"].data, init[::-1] + 1)

    def test_kernel_dict_output_multiple_writes(self):
        n = 8
        loop = Forall(
            index_range=(0, n - 1),
            on=OnOwner("A"),
            reads=[AffineRead("A", name="a")],
            writes=[AffineWrite("A"), AffineWrite("B")],
            kernel=lambda iters, ops: {"A": ops["a"] + 1, "B": ops["a"] * 2},
            label="multiwrite",
        )
        init = np.arange(float(n))
        out = run_forall(n, 2, lambda n, p: Block(), [loop],
                         {"A": init, "B": np.zeros(n)})
        np.testing.assert_array_equal(out["A"], init + 1)
        np.testing.assert_array_equal(out["B"], init * 2)

    def test_forall_validation(self):
        with pytest.raises(KaliError):
            Forall(index_range=(0, 1), on=OnOwner("A"), reads=[],
                   writes=[], kernel=lambda i, o: i)
        with pytest.raises(KaliError):
            Forall(index_range=(0, 1), on="bogus", reads=[],
                   writes=[AffineWrite("A")], kernel=lambda i, o: i)


# --- IndirectOperand.weighted_sum ------------------------------------------

_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 1.0]
_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(min_value=1e-300, max_value=1e300).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.floats(allow_subnormal=True),
    # like magnitudes, where the order of the additions shows in the
    # rounding
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def _indirect_case(draw):
    """``(weights, values, counts)`` of one batch: any width from 0 to 12
    (both sides of the column/pairwise switch), 0 to 5 rows, float64 or
    int64 weights and values, and dead float columns holding +0.0 or
    -0.0."""
    rows = draw(st.integers(0, 5))
    width = draw(st.integers(0, 12))
    shape = (rows, width)
    if draw(st.booleans()):
        weights = draw(hnp.arrays(np.float64, shape, elements=_FLOATS))
    else:
        weights = draw(hnp.arrays(np.int64, shape,
                                  elements=st.integers(-2 ** 31, 2 ** 31)))
    counts = draw(hnp.arrays(np.int64, rows, elements=st.integers(0, width)))
    live = np.arange(width)[None, :] < counts[:, None]
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.int64, shape,
                                 elements=st.integers(-2 ** 62, 2 ** 62)))
        values[~live] = 0
    else:
        values = draw(hnp.arrays(np.float64, shape, elements=_FLOATS))
        signs = draw(hnp.arrays(np.bool_, shape))
        values[~live] = np.where(signs, -0.0, 0.0)[~live]
    return weights, values, counts


@settings(max_examples=300, deadline=None)
@given(case=_indirect_case())
# an all-(-0.0) row sums to +0.0: NumPy adds onto a +0.0 accumulator
@example(case=(np.ones((1, 2)), np.array([[-0.0, -0.0]]), np.array([2])))
# from width 8 NumPy sums pairwise: 1e16 + 1 + ... + 1 keeps the ones
# that a left-to-right sum rounds away
@example(case=(np.ones((1, 8)), np.array([[1e16] + [1.0] * 7]), np.array([8])))
# inf * 0 is a negative NaN on x86, nan * 0 the positive np.nan: a row
# sum keeps the first, NumPy's vector add can return the second
@example(case=(np.array([[np.inf, np.nan]]), np.array([[0.0, 0.0]]), np.array([0])))
def test_weighted_sum_is_the_masked_row_sum_bit_for_bit(case):
    weights, values, counts = case
    live = np.arange(values.shape[1])[None, :] < counts[:, None]
    nb = IndirectOperand(values=values, counts=counts, live=live)
    with np.errstate(all="ignore"):     # inf * 0, inf - inf, overflow
        got = nb.weighted_sum(weights)
        want = (weights * values * live).sum(axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
