"""Tests for forall reductions (sum/max/min across all iterations).

The paper elides Figure 4's "code to check convergence"; reductions are
the natural way a global-name-space forall expresses it.  Both front
ends are covered: the IR-level ``ReduceSpec`` and the Kali-language
``x := max(x, e)`` accumulation shape.
"""

import numpy as np
import pytest

from repro.core.context import KaliContext
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    OnOwner,
    ReduceSpec,
)
from repro.distributions import Block, Cyclic
from repro.errors import ForallError, KaliSemanticError
from repro.lang import compile_kali
from repro.machine.cost import IDEAL, NCUBE7
from repro.meshes.regular import five_point_grid, reference_sweep


def run_reduction(n, p, dist, reductions, kernel, reads=None, writes=()):
    ctx = KaliContext(p, machine=IDEAL)
    ctx.array("A", n, dist=[dist]).set(np.arange(float(n)))
    loop = Forall(
        index_range=(0, n - 1),
        on=OnOwner("A"),
        reads=reads or [AffineRead("A", name="a")],
        writes=list(writes),
        reductions=reductions,
        kernel=kernel,
        label=f"red-{p}-{dist.kind}-{len(reductions)}",
    )
    results = {}

    def program(kr):
        results[kr.id] = (yield from kr.forall(loop))

    ctx.run(program)
    return ctx, results


class TestIRReductions:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_sum(self, p):
        _, res = run_reduction(
            40, p, Block(),
            [ReduceSpec("total", "sum")],
            lambda iters, ops: {"total": ops["a"]},
        )
        assert all(v == {"total": sum(range(40))} for v in res.values())

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_max_min(self, p):
        _, res = run_reduction(
            25, p, Cyclic(),
            [ReduceSpec("hi", "max"), ReduceSpec("lo", "min")],
            lambda iters, ops: {"hi": ops["a"], "lo": ops["a"]},
        )
        assert all(v == {"hi": 24.0, "lo": 0.0} for v in res.values())

    def test_all_ranks_get_same_value(self):
        _, res = run_reduction(
            31, 4, Block(),
            [ReduceSpec("total", "sum")],
            lambda iters, ops: {"total": ops["a"] * 2},
        )
        values = {v["total"] for v in res.values()}
        assert values == {float(sum(range(31)) * 2)}

    def test_reduction_with_write(self):
        """Writes and reductions coexist in one forall."""
        ctx, res = run_reduction(
            16, 4, Block(),
            [ReduceSpec("total", "sum")],
            lambda iters, ops: {"A": ops["a"] + 1, "total": ops["a"]},
            writes=[AffineWrite("A")],
        )
        np.testing.assert_array_equal(
            ctx.arrays["A"].data, np.arange(16.0) + 1
        )
        assert res[0]["total"] == sum(range(16))

    def test_pure_reduction_forall_allowed(self):
        """No write target needed when a reduction is present."""
        _, res = run_reduction(
            8, 2, Block(),
            [ReduceSpec("m", "max")],
            lambda iters, ops: {"m": ops["a"]},
        )
        assert res[0]["m"] == 7.0

    def test_kernel_must_supply_contributions(self):
        from repro.errors import InspectorError

        with pytest.raises(InspectorError):
            run_reduction(
                8, 2, Block(),
                [ReduceSpec("m", "max")],
                lambda iters, ops: {"wrong": ops["a"]},
            )

    def test_bad_op_rejected(self):
        with pytest.raises(ForallError):
            ReduceSpec("x", "product")

    def test_neither_write_nor_reduction_rejected(self):
        with pytest.raises(ForallError):
            Forall(
                index_range=(0, 3),
                on=OnOwner("A"),
                reads=[],
                writes=[],
                kernel=lambda i, o: i,
            )

    def test_constant_on_clause_rejected(self):
        """``on A[k].loc`` names one owner for every iteration — not an
        affine map of the forall index."""
        with pytest.raises(ForallError, match="must be affine"):
            OnOwner("A", Affine(0, 2))

    def test_reduction_charges_allreduce_messages(self):
        """The reduction communicates: message counts must reflect the
        recursive-doubling pattern."""
        ctx = KaliContext(8, machine=NCUBE7)
        ctx.array("A", 32, dist=[Block()]).set(np.ones(32))
        loop = Forall(
            index_range=(0, 31),
            on=OnOwner("A"),
            reads=[AffineRead("A", name="a")],
            writes=[],
            reductions=[ReduceSpec("s", "sum")],
            kernel=lambda iters, ops: {"s": ops["a"]},
            label="red-msgs",
        )

        def program(kr):
            yield from kr.forall(loop)

        res = ctx.run(program)
        # allreduce on 8 ranks: 3 rounds x 8 sends = 24 messages.
        assert res.engine.total_messages() == 24


class TestKaliLanguageReductions:
    HEADER = (
        "processors Procs : array[1..P] with P in 1..32;\n"
        "const n : integer := 24;\n"
        "var A : array[1..n] of real dist by [ block ] on Procs;\n"
        "var s, m : real;\n"
    )

    def _run(self, body, p=4):
        return compile_kali(self.HEADER + body).run(nprocs=p, machine=IDEAL)

    def test_sum_shape(self):
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := float(i); end;\n"
            "s := 0.0;\n"
            "forall i in 1..n on A[i].loc do s := s + A[i]; end;\n"
        )
        assert res.scalars["s"] == sum(range(1, 25))

    def test_sum_commuted_shape(self):
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := 1.0; end;\n"
            "s := 100.0;\n"
            "forall i in 1..n on A[i].loc do s := A[i] + s; end;\n"
        )
        assert res.scalars["s"] == 124.0  # initial value folds in

    def test_max_shape(self):
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := float(i * i); end;\n"
            "m := 0.0;\n"
            "forall i in 1..n on A[i].loc do m := max(m, A[i]); end;\n"
        )
        assert res.scalars["m"] == 576.0

    def test_min_shape(self):
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := float(i); end;\n"
            "m := 1000.0;\n"
            "forall i in 1..n on A[i].loc do m := min(A[i], m); end;\n"
        )
        assert res.scalars["m"] == 1.0

    def test_two_reductions_one_forall(self):
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := float(i); end;\n"
            "s := 0.0;\n"
            "m := 0.0;\n"
            "forall i in 1..n on A[i].loc do\n"
            "    s := s + A[i];\n"
            "    m := max(m, A[i]);\n"
            "end;\n"
        )
        assert res.scalars["s"] == sum(range(1, 25))
        assert res.scalars["m"] == 24.0

    def test_non_reduction_scalar_write_still_rejected(self):
        with pytest.raises(KaliSemanticError):
            self._run(
                "forall i in 1..n on A[i].loc do s := float(i); end;\n"
            )

    def test_contribution_reading_accumulator_rejected(self):
        with pytest.raises(KaliSemanticError):
            self._run(
                "forall i in 1..n on A[i].loc do s := s + (A[i] * s); end;\n"
            )

    def test_conditional_reduction(self):
        """Reductions under if fold only the live iterations (a masked
        sum — the histogram pattern)."""
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := float(i); end;\n"
            "s := 0.0;\n"
            "forall i in 1..n on A[i].loc do\n"
            "    if A[i] > 20.0 then s := s + 1.0; end;\n"
            "end;\n"
        )
        assert res.scalars["s"] == 4.0  # values 21..24

    def test_reduction_inside_inner_loop(self):
        res = self._run(
            "forall i in 1..n on A[i].loc do A[i] := 1.0; end;\n"
            "s := 0.0;\n"
            "forall i in 1..n on A[i].loc do\n"
            "    for j in 1..3 do s := s + A[i]; end;\n"
            "end;\n"
        )
        assert res.scalars["s"] == 24 * 3

    def test_conflicting_reduction_ops_rejected(self):
        with pytest.raises(KaliSemanticError):
            self._run(
                "s := 0.0;\n"
                "forall i in 1..n on A[i].loc do\n"
                "    s := s + A[i];\n"
                "    s := max(s, A[i]);\n"
                "end;\n"
            )

    def test_reduction_forall_is_cached(self):
        """Re-executing a reduction forall must not re-lower or re-inspect
        even though the accumulator's value changes every time."""
        src = self.HEADER + (
            "var k : integer;\n"
            "forall i in 1..n on A[i].loc do A[i] := float(i); end;\n"
            "s := 0.0;\n"
            "for k in 1..5 do\n"
            "    forall i in 1..n on A[i].loc do s := s + A[i]; end;\n"
            "end;\n"
        )
        res = compile_kali(src).run(nprocs=4, machine=IDEAL)
        assert res.scalars["s"] == 5 * sum(range(1, 25))
        stats = res.timing.cache_stats()
        # init forall: 1 miss/rank; reduction forall: 1 miss + 4 hits/rank
        assert stats["hits"] == 4 * 4
        assert stats["misses"] == 2 * 4


class TestConvergentJacobi:
    def test_full_figure4_with_convergence(self):
        """The complete Figure 4 — including the elided convergence test —
        in Kali source, with damped relaxation (the undamped kernel
        oscillates on bipartite grids; the checkerboard mode has
        eigenvalue -1)."""
        src = """
        processors Procs : array[1..P] with P in 1..n;
        const n : integer;
        const width : integer;
        const tol : real := 0.001;
        var a, old_a : array[1..n] of real dist by [ block ] on Procs;
            count : array[1..n] of integer dist by [ block ] on Procs;
            adj : array[1..n, 1..width] of integer dist by [ block, * ] on Procs;
            coef : array[1..n, 1..width] of real dist by [ block, * ] on Procs;
        var converged : boolean;
        var maxdiff : real;
        var sweeps : integer;

        converged := false;
        sweeps := 0;
        while not converged do
            forall i in 1..n on old_a[i].loc do
                old_a[i] := a[i];
            end;
            forall i in 1..n on a[i].loc do
                var x : real;
                x := 0.0;
                for j in 1..count[i] do
                    x := x + coef[i,j] * old_a[ adj[i,j] ];
                end;
                if (count[i] > 0) then a[i] := 0.5 * old_a[i] + 0.5 * x; end;
            end;
            maxdiff := 0.0;
            forall i in 1..n on a[i].loc do
                maxdiff := max(maxdiff, abs(a[i] - old_a[i]));
            end;
            converged := maxdiff < tol;
            sweeps := sweeps + 1;
        end;
        """
        mesh = five_point_grid(8, 8)
        rng = np.random.default_rng(42)
        init = rng.random(mesh.n)
        res = compile_kali(src).run(
            nprocs=4,
            machine=IDEAL,
            consts={"n": mesh.n, "width": mesh.width},
            inputs={"a": init, "count": mesh.count, "adj": mesh.adj + 1,
                    "coef": mesh.coef},
        )
        ref = init.copy()
        sweeps = 0
        while True:
            new = 0.5 * ref + 0.5 * reference_sweep(mesh, ref)
            diff = np.abs(new - ref).max()
            ref = new
            sweeps += 1
            if diff < 1e-3:
                break
        assert res.scalars["sweeps"] == sweeps
        np.testing.assert_allclose(res.arrays["a"], ref)

    def test_convergence_loop_reuses_schedules(self):
        """Across the whole while loop, each of the three foralls is
        analysed exactly once (the reduction accumulator's changing value
        must not poison the fingerprint)."""
        src = """
        processors Procs : array[1..P] with P in 1..64;
        const n : integer := 64;
        var a, old_a : array[1..n] of real dist by [ block ] on Procs;
        var maxdiff : real;
        var k : integer;

        forall i in 1..n on a[i].loc do a[i] := float(i); end;
        for k in 1..6 do
            forall i in 1..n on old_a[i].loc do old_a[i] := a[i]; end;
            maxdiff := 0.0;
            forall i in 1..n on a[i].loc do
                maxdiff := max(maxdiff, abs(a[i] - old_a[i]));
            end;
        end;
        """
        res = compile_kali(src).run(nprocs=4, machine=NCUBE7)
        stats = res.timing.cache_stats()
        assert stats["misses"] == 3 * 4  # three distinct foralls, 4 ranks
        assert stats["invalidations"] == 0
