"""End-to-end tests: complete Kali programs through compile_kali().run().

These exercise the whole stack — lexer, parser, sema, lowering, the
inspector/executor runtime, and the simulated machine — against NumPy
oracles.
"""

import numpy as np
import pytest

from repro.errors import KaliRuntimeError, KaliSemanticError
from repro.lang import compile_kali
from repro.machine.cost import IDEAL, NCUBE7
from repro.meshes.regular import five_point_grid, reference_sweep

HEADER = "processors Procs : array[1..P] with P in 1..64;\n"


def run(src, nprocs=4, machine=IDEAL, **kw):
    return compile_kali(src).run(nprocs=nprocs, machine=machine, **kw)


class TestFigure1:
    SRC = HEADER + """
    const n : integer := 20;
    var A : array[1..n] of real dist by [ block ] on Procs;

    forall i in 1..n on A[i].loc do
        A[i] := float(i);
    end;
    forall i in 1..n-1 on A[i].loc do
        A[i] := A[i+1];
    end;
    """

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_shift(self, p):
        res = run(self.SRC, nprocs=p)
        expected = np.arange(1.0, 21.0)
        expected[:-1] = expected[1:]
        np.testing.assert_allclose(res.arrays["A"], expected)

    def test_cyclic_variant_same_answer(self):
        """Paper §2.4: changing the dist clause must not change semantics."""
        src = self.SRC.replace("[ block ]", "[ cyclic ]")
        r1 = run(self.SRC, nprocs=4)
        r2 = run(src, nprocs=4)
        np.testing.assert_allclose(r1.arrays["A"], r2.arrays["A"])

    def test_block_cyclic_variant(self):
        src = self.SRC.replace("[ block ]", "[ block_cyclic(3) ]")
        r2 = run(src, nprocs=4)
        expected = np.arange(1.0, 21.0)
        expected[:-1] = expected[1:]
        np.testing.assert_allclose(r2.arrays["A"], expected)


class TestFigure4:
    SRC = """
    processors Procs : array[1..P] with P in 1..n;
    const n : integer;
    const width : integer;
    const nsweeps : integer := 4;
    var a, old_a : array[1..n] of real dist by [ block ] on Procs;
        count    : array[1..n] of integer dist by [ block ] on Procs;
        adj      : array[1..n, 1..width] of integer dist by [ block, * ] on Procs;
        coef     : array[1..n, 1..width] of real dist by [ block, * ] on Procs;
    var sweep : integer;

    for sweep in 1..nsweeps do
        forall i in 1..n on old_a[i].loc do
            old_a[i] := a[i];
        end;
        forall i in 1..n on a[i].loc do
            var x : real;
            x := 0.0;
            for j in 1..count[i] do
                x := x + coef[i,j] * old_a[ adj[i,j] ];
            end;
            if (count[i] > 0) then a[i] := x; end;
        end;
    end;
    """

    def _run(self, p, machine=IDEAL, sweeps=4):
        mesh = five_point_grid(8, 8)
        rng = np.random.default_rng(11)
        init = rng.random(mesh.n)
        res = compile_kali(self.SRC).run(
            nprocs=p,
            machine=machine,
            consts={"n": mesh.n, "width": mesh.width, "nsweeps": sweeps},
            inputs={
                "a": init,
                "count": mesh.count,
                "adj": mesh.adj + 1,  # Kali node ids are 1-based
                "coef": mesh.coef,
            },
        )
        ref = init.copy()
        for _ in range(sweeps):
            ref = reference_sweep(mesh, ref)
        return res, ref

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_oracle(self, p):
        res, ref = self._run(p)
        np.testing.assert_allclose(res.arrays["a"], ref)

    def test_strategies(self):
        res, _ = self._run(4)
        strategies = set(res.timing.strategies().values())
        assert strategies == {"compile-time", "inspector"}

    def test_schedule_cached_across_sweeps(self):
        res, _ = self._run(4, sweeps=6)
        # relax loop inspected once per rank despite 6 executions
        assert res.timing.engine.counter_sum("inspector_runs") == 4

    def test_matches_embedded_api_timing(self):
        """Both front ends must drive the runtime identically."""
        from repro.apps.jacobi import build_jacobi

        mesh = five_point_grid(8, 8)
        rng = np.random.default_rng(11)
        init = rng.random(mesh.n)
        res, _ = self._run(4, machine=NCUBE7)
        prog = build_jacobi(mesh, 4, machine=NCUBE7, initial=init)
        r2 = prog.run(sweeps=4)
        assert res.timing.inspector_time == pytest.approx(
            r2.inspector_time, rel=1e-9
        )


class TestLanguageFeatures:
    def test_sequential_element_read_is_global(self):
        """Reading A[k] in sequential code must work regardless of owner
        (the title's 'direct access to remote parts of data values')."""
        src = HEADER + """
        const n : integer := 16;
        var A : array[1..n] of real dist by [ block ] on Procs;
        var v, w : real;

        forall i in 1..n on A[i].loc do
            A[i] := float(i) * 10.0;
        end;
        v := A[1];
        w := A[16];
        """
        res = run(src, nprocs=4)
        assert res.scalars["v"] == 10.0
        assert res.scalars["w"] == 160.0

    def test_sequential_element_write_updates_owner(self):
        src = HEADER + """
        const n : integer := 8;
        var A : array[1..n] of real dist by [ cyclic ] on Procs;
        A[5] := 42.0;
        A[1] := 7.0;
        """
        res = run(src, nprocs=4)
        assert res.arrays["A"][4] == 42.0
        assert res.arrays["A"][0] == 7.0

    def test_while_loop_with_global_read(self):
        src = HEADER + """
        const n : integer := 8;
        var A : array[1..n] of real dist by [ block ] on Procs;
        var steps : integer;

        A[1] := 0.0;
        steps := 0;
        while A[1] < 3.0 do
            A[1] := A[1] + 1.0;
            steps := steps + 1;
        end;
        """
        res = run(src, nprocs=4)
        assert res.scalars["steps"] == 3
        assert res.arrays["A"][0] == 3.0

    def test_print_output(self):
        src = HEADER + """
        const n : integer := 4;
        var A : array[1..n] of real dist by [ block ] on Procs;
        A[2] := 1.5;
        print("A2 =", A[2]);
        print("n =", n);
        """
        res = run(src, nprocs=2)
        assert res.output == ["A2 = 1.5", "n = 4"]

    def test_if_else_in_forall(self):
        src = HEADER + """
        const n : integer := 12;
        var A, B : array[1..n] of real dist by [ block ] on Procs;
        forall i in 1..n on A[i].loc do
            A[i] := float(i);
        end;
        forall i in 1..n on B[i].loc do
            if A[i] > 6.0 then
                B[i] := 1.0;
            else
                B[i] := -1.0;
            end;
        end;
        """
        res = run(src, nprocs=4)
        expected = np.where(np.arange(1, 13) > 6, 1.0, -1.0)
        np.testing.assert_allclose(res.arrays["B"], expected)

    def test_conditional_write_keeps_old_values(self):
        src = HEADER + """
        const n : integer := 10;
        var A : array[1..n] of real dist by [ block ] on Procs;
        forall i in 1..n on A[i].loc do
            A[i] := 5.0;
        end;
        forall i in 1..n on A[i].loc do
            if i mod 2 = 0 then
                A[i] := 9.0;
            end;
        end;
        """
        res = run(src, nprocs=2)
        expected = np.where(np.arange(1, 11) % 2 == 0, 9.0, 5.0)
        np.testing.assert_allclose(res.arrays["A"], expected)

    def test_direct_processor_on_clause(self):
        src = HEADER + """
        const n : integer := 8;
        var A : array[1..n] of real dist by [ cyclic ] on Procs;
        forall i in 1..n on Procs[i] do
            A[i] := float(i);
        end;
        """
        res = run(src, nprocs=4)
        np.testing.assert_allclose(res.arrays["A"], np.arange(1.0, 9.0))

    def test_replicated_array_in_forall(self):
        src = HEADER + """
        const n : integer := 8;
        var A : array[1..n] of real dist by [ block ] on Procs;
        var w : array[1..2] of real;
        w[1] := 10.0;
        w[2] := 0.5;
        forall i in 1..n on A[i].loc do
            A[i] := w[1] + w[2] * float(i);
        end;
        """
        res = run(src, nprocs=4)
        np.testing.assert_allclose(
            res.arrays["A"], 10.0 + 0.5 * np.arange(1.0, 9.0)
        )

    def test_stencil_with_shifted_reads(self):
        src = HEADER + """
        const n : integer := 20;
        var A, B : array[1..n] of real dist by [ block ] on Procs;
        forall i in 1..n on A[i].loc do
            A[i] := float(i * i);
        end;
        forall i in 2..n-1 on B[i].loc do
            B[i] := (A[i-1] + A[i+1]) / 2.0;
        end;
        """
        res = run(src, nprocs=4)
        a = np.arange(1.0, 21.0) ** 2
        expected = np.zeros(20)
        expected[1:-1] = (a[:-2] + a[2:]) / 2.0
        np.testing.assert_allclose(res.arrays["B"], expected)

    def test_integer_arrays_and_mod(self):
        src = HEADER + """
        const n : integer := 12;
        var K : array[1..n] of integer dist by [ block ] on Procs;
        forall i in 1..n on K[i].loc do
            K[i] := i mod 3;
        end;
        """
        res = run(src, nprocs=4)
        np.testing.assert_array_equal(res.arrays["K"], np.arange(1, 13) % 3)

    def test_scalar_result_collection(self):
        src = HEADER + """
        const n : integer := 4;
        var A : array[1..n] of real dist by [ block ] on Procs;
        var total : real;
        var m : integer;
        total := 0.0;
        for m in 1..n do
            A[m] := float(m);
            total := total + A[m];
        end;
        """
        res = run(src, nprocs=2)
        assert res.scalars["total"] == 10.0


class TestRunConfiguration:
    def test_consts_must_be_supplied(self):
        src = HEADER + """
        const n : integer;
        var A : array[1..n] of real dist by [ block ] on Procs;
        A[1] := 1.0;
        """
        with pytest.raises(KaliSemanticError):
            run(src, nprocs=2)
        res = run(src, nprocs=2, consts={"n": 8})
        assert res.arrays["A"].shape == (8,)

    def test_nprocs_outside_declared_range(self):
        src = "processors Procs : array[1..P] with P in 2..4;\n" + \
              "var A : array[1..8] of real dist by [block] on Procs;\nA[1] := 1.0;\n"
        with pytest.raises(KaliRuntimeError):
            compile_kali(src).run(nprocs=8)

    def test_fixed_processor_count_enforced(self):
        src = "processors Procs : array[1..4];\n" + \
              "var A : array[1..8] of real dist by [block] on Procs;\nA[1] := 1.0;\n"
        with pytest.raises(KaliRuntimeError):
            compile_kali(src).run(nprocs=2)
        compile_kali(src).run(nprocs=4)

    def test_unknown_input_rejected(self):
        src = HEADER + "var A : array[1..4] of real dist by [block] on Procs;\nA[1] := 0.0;\n"
        with pytest.raises(KaliRuntimeError):
            run(src, nprocs=2, inputs={"nosuch": np.zeros(4)})

    def test_size_var_visible_in_program(self):
        src = HEADER + """
        const n : integer := 8;
        var A : array[1..n] of real dist by [ block ] on Procs;
        var procs_used : integer;
        procs_used := P;
        A[1] := 0.0;
        """
        res = run(src, nprocs=4)
        assert res.scalars["procs_used"] == 4


REPLICATED_BETWEEN_FORALLS = """
processors Procs : array[1..P] with P in 1..8;
const n : integer := 16;
var A : array[1..n] of real dist by [ block ] on Procs;
    R : array[1..3] of real;
var k : integer;
for k in 1..3 do
    forall i in 1..n on A[i].loc do
        A[i] := A[i] * 2.0 + R[k];
    end;
    R[k] := R[k] + 100.0;
end;
"""


def test_ranks_share_the_lowering_but_not_replicated_data(monkeypatch):
    """The forall is lowered once per (statement, fingerprint) for all
    ranks, yet each rank's kernel reads its own copy of R.  A rank runs
    ahead to the sequential ``R[k] := ...`` before the others reach the
    forall (nothing synchronises them), so a kernel reading the lowering
    rank's R would see the new value."""
    from repro.lang import interp

    lower_forall = interp.lower_forall
    lowered = []

    def counting(stmt, *args):
        lowered.append((id(stmt), args[-1]))
        return lower_forall(stmt, *args)

    monkeypatch.setattr(interp, "lower_forall", counting)
    a0 = np.linspace(-1.0, 1.0, 16)
    r0 = np.array([0.5, 0.25, 0.125])
    prog = compile_kali(REPLICATED_BETWEEN_FORALLS)
    results = {}
    for p in (1, 4):
        del lowered[:]
        results[p] = prog.run(nprocs=p, machine=IDEAL, inputs={"A": a0, "R": r0})
        # k is in the fingerprint: one lowering per k, never one per rank
        assert len(lowered) == len(set(lowered)) == 3
    expected = a0
    for k in range(3):
        expected = expected * 2.0 + r0[k]
    for result in results.values():
        np.testing.assert_array_equal(result.arrays["A"], expected)
        np.testing.assert_array_equal(result.arrays["R"], r0 + 100.0)
    assert results[4].arrays["A"].tobytes() == results[1].arrays["A"].tobytes()
