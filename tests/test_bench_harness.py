"""Tests for the benchmark harness drivers and the 3-d grid workload."""

import json

import numpy as np
import pytest

from repro.apps.jacobi import build_jacobi
from repro.bench import calibration as cal
from repro.bench.experiments import (
    ExperimentRow,
    caching_ablation,
    processor_scaling,
    single_processor_executor_time,
    size_scaling,
)
from repro.bench.tables import overhead_table, processor_table, size_table
from repro.machine.cost import IDEAL, IPSC2, NCUBE7
from repro.meshes.regular import five_point_grid, reference_sweep, seven_point_grid


class TestSevenPointGrid:
    def test_counts(self):
        mesh = seven_point_grid(3, 4, 5)
        assert mesh.n == 60 and mesh.width == 6
        # corners 3, interior 6
        assert mesh.count.min() == 3 and mesh.count.max() == 6

    def test_adjacency_symmetric(self):
        mesh = seven_point_grid(3, 3, 3)
        edges = set()
        for i in range(mesh.n):
            for j in range(mesh.count[i]):
                edges.add((i, int(mesh.adj[i, j])))
        assert all((b, a) in edges for a, b in edges)

    def test_degenerate_dimensions_match_2d(self):
        """nz=1 reduces to the five-point grid's adjacency counts."""
        m3 = seven_point_grid(6, 5, 1)
        m2 = five_point_grid(5, 6)  # rows=ny, cols=nx with x-major numbering
        np.testing.assert_array_equal(np.sort(m3.count), np.sort(m2.count))

    def test_jacobi_on_3d_grid_matches_oracle(self, rng):
        mesh = seven_point_grid(4, 4, 4)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, 8, machine=IDEAL, initial=init)
        prog.run(sweeps=3)
        ref = init.copy()
        for _ in range(3):
            ref = reference_sweep(mesh, ref)
        np.testing.assert_allclose(prog.solution, ref)

    def test_3d_has_more_boundary_traffic_than_2d(self):
        """Same node count, higher connectivity => more elements exchanged
        (the paper's §4 remark about unstructured grids, in 3-d form)."""
        m2 = five_point_grid(16, 16)
        m3 = seven_point_grid(16, 4, 4)
        r2 = build_jacobi(m2, 8, machine=NCUBE7).run(sweeps=2)
        r3 = build_jacobi(m3, 8, machine=NCUBE7).run(sweeps=2)
        e2 = r2.engine.counter_sum("executor_elems_sent")
        e3 = r3.engine.counter_sum("executor_elems_sent")
        assert e3 > e2


class TestExperimentDrivers:
    def test_processor_scaling_rows(self):
        rows = processor_scaling(NCUBE7, [2, 4], mesh_side=16, sweeps=10)
        assert [r.key for r in rows] == [2, 4]
        for r in rows:
            assert r.total == pytest.approx(r.executor + r.inspector)
            assert 0 <= r.overhead < 1

    def test_size_scaling_rows_have_speedup(self):
        rows = size_scaling(IPSC2, 4, mesh_sides=[16, 32], sweeps=10)
        assert all(r.speedup is not None and r.speedup > 0 for r in rows)
        assert rows[0].key == 16 and rows[1].key == 32

    def test_single_processor_baseline_positive(self):
        mesh = five_point_grid(16, 16)
        t = single_processor_executor_time(mesh, NCUBE7, sweeps=10)
        assert t > 0

    def test_caching_ablation_rows(self):
        rows = caching_ablation(NCUBE7, 4, [1, 5], mesh_side=16)
        by = {r.key: r.values for r in rows}
        assert by[1]["ratio"] == pytest.approx(1.0, rel=0.02)
        assert by[5]["ratio"] > by[1]["ratio"]

    def test_measured_sweeps_extrapolation_consistent(self):
        """Extrapolated executor time matches a fully-measured run."""
        full = processor_scaling(IPSC2, [4], mesh_side=16, sweeps=12,
                                 measured_sweeps=12)[0]
        extra = processor_scaling(IPSC2, [4], mesh_side=16, sweeps=12,
                                  measured_sweeps=3)[0]
        assert extra.executor == pytest.approx(full.executor, rel=0.02)
        assert extra.inspector == pytest.approx(full.inspector, rel=1e-9)


class TestTableRendering:
    def test_processor_table_includes_paper_columns(self):
        rows = [ExperimentRow(key=2, total=10.0, executor=9.0, inspector=1.0,
                              overhead=0.1)]
        text = processor_table("T", rows, {2: (11.0, 10.0, 1.0)})
        assert "(paper)" in text and "11.00" in text and "10.1%" not in text

    def test_size_table_row(self):
        rows = [ExperimentRow(key=64, total=5.0, executor=4.0, inspector=1.0,
                              overhead=0.2, speedup=12.5)]
        text = size_table("S", rows, {64: (5.0, 4.0, 1.0, 12.0)})
        assert "64x64" in text and "12.5" in text and "12.0" in text

    def test_overhead_table(self):
        rows = [ExperimentRow(key=8, total=2.0, executor=1.0, inspector=1.0,
                              overhead=0.5)]
        text = overhead_table("O", rows)
        assert "50.0%" in text

    def test_missing_paper_cell_renders_nan(self):
        rows = [ExperimentRow(key=3, total=1.0, executor=0.9, inspector=0.1,
                              overhead=0.1)]
        text = processor_table("T", rows, {})
        assert "nan" in text


class TestCalibrationData:
    def test_reference_tables_complete(self):
        assert set(cal.PAPER_NCUBE_PROCS) == set(cal.NCUBE_PROC_COUNTS)
        assert set(cal.PAPER_IPSC_PROCS) == set(cal.IPSC_PROC_COUNTS)
        assert set(cal.PAPER_NCUBE_SIZES) == set(cal.MESH_SIDES)
        assert set(cal.PAPER_IPSC_SIZES) == set(cal.MESH_SIDES)

    def test_paper_totals_are_consistent(self):
        """total == executor + inspector in the transcribed tables (to the
        paper's own rounding)."""
        for table in (cal.PAPER_NCUBE_PROCS, cal.PAPER_IPSC_PROCS):
            for total, executor, inspector in table.values():
                assert total == pytest.approx(executor + inspector, abs=0.05)


# --- python -m repro.bench: one loop over the SUITES table -----------------

# The exact `--fast --metrics-dir` file set per suite, recorded from the
# seven hand-written drivers this loop replaced: each leg is a
# `.run.json` + `.metrics.json` pair, each table one `.metrics.json`.
_LEGS = {
    "mp": ["M1_mp_jacobi_p2", "M1_mp_jacobi_p4"],
    "shm": ["D1_shm_jacobi-shm", "D1_shm_pickle", "D1_shm_shm"],
    "serve": ["S1_serve_fork_per_run", "S1_serve_sim", "S1_serve_warm_pool",
              "S1_serve_warm_pool_disk"],
    "tune": ["T1_tune_adaptive", "T1_tune_static_bad", "T1_tune_static_rcb"],
    "structs": ["G1_structs_P1_batched", "G1_structs_P1_naive",
                "G1_structs_P4_batched", "G1_structs_P4_naive"],
}
_TABLES = {
    "paper": ["A1_caching", "A2_translation", "A3_handcoded",
              "A4_distributions", "E1_ncube_procs", "E2_ipsc_procs",
              "E3_ncube_sizes", "E4_ipsc_sizes", "E5_single_sweep_ipsc",
              "E5_single_sweep_ncube", "F1_drop_rates", "F2_stragglers"],
    "mp": ["M1_mp_jacobi"],
    "shm": ["D1_shm_dataplane"],
    "serve": ["S1_serve_throughput", "S2_sharded_throughput"],
    "tune": ["T1_adaptive_vs_static"],
    "structs": ["G1_structs_throughput"],
    "autopilot": ["P1_autopilot_shift"],
}
# Suites with a gate on a ratio of host wall-clock measurements (shm's
# 2.0x payload bar; serve's S2 speedup on >=4 cores).  A loaded box can
# dip one measurement, so these get three attempts; every other gate is
# on deterministic virtual time and gets one.
_WALL_CLOCK_GATED = {"shm", "serve"}


def _expected_files(name):
    files = {f"{t}.metrics.json" for t in _TABLES[name]}
    for leg in _LEGS.get(name, []):
        files |= {f"{leg}.run.json", f"{leg}.metrics.json"}
    return files


class TestBenchCli:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("name", sorted(_TABLES))
    def test_suite_exits_zero_and_writes_its_file_set(self, name, tmp_path,
                                                      capsys):
        from repro.bench.__main__ import SUITES, main

        assert set(_TABLES) == set(SUITES)
        flag = {"paper": [], "mp": ["--backend", "mp"]}.get(name, [f"--{name}"])
        for attempt in range(3 if name in _WALL_CLOCK_GATED else 1):
            out_dir = tmp_path / str(attempt)
            rc = main(flag + ["--fast", "--metrics-dir", str(out_dir)])
            out = capsys.readouterr().out
            if rc == 0:
                break
        assert rc == 0, out
        assert "FAIL" not in out
        assert f"[{name} suite done in" in out
        assert {p.name for p in out_dir.iterdir()} == _expected_files(name)

    def test_red_run_prints_every_gate_and_still_writes(self, tmp_path,
                                                        capsys, monkeypatch):
        from repro.bench import __main__ as bench_main

        def fake_suite(args):
            report = bench_main.Report()
            report.table("X1_fake", "X1  fake table", [{"k": 1}], note="n")
            report.gate(True, "this gate holds")
            report.gate(False, "first bar missed")
            report.gate(False, "second bar missed")
            return report

        monkeypatch.setitem(bench_main.SUITES, "fake", (fake_suite, "fake"))
        rc = bench_main.main(["--fake", "--metrics-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL: first bar missed]" in out
        assert "[FAIL: second bar missed]" in out
        assert "this gate holds" not in out
        doc = json.loads((tmp_path / "X1_fake.metrics.json").read_text())
        assert doc == {"experiment": "X1_fake", "fast": False, "note": "n",
                       "rows": [{"k": 1}]}

    @pytest.mark.parametrize("argv", [["--serve", "--tune"],
                                      ["--backend", "mp", "--shm"]])
    def test_two_suite_flags_are_a_usage_error(self, argv, capsys):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


# --- one scrambled-Jacobi constructor --------------------------------------


class TestScrambledJacobi:
    SPEC = {"nodes": 200, "sweeps": 8, "seed": 11}
    # recorded from the commit before the five copies were folded into
    # apps.jacobi.scrambled_jacobi; makespans pin the owner map (a layout
    # change moves virtual time), the hash pins the numerics
    SHA = "9a947994ac018d2973ba68f5744260963ca5dab3e495e5327e45f02ce9dd35aa"
    MAKESPAN = {"jacobi_adaptive": "0x1.af7383b552ccbp+0",
                "jacobi_served": "0x1.ad19797dc165bp+0"}

    @staticmethod
    def _shard(nranks=4):
        from types import SimpleNamespace

        return SimpleNamespace(nranks=nranks, machine=NCUBE7, pool=None,
                               cache_dir=None, tune_dir=None)

    @pytest.mark.parametrize("kind", ["jacobi_adaptive", "jacobi_served"])
    def test_job_kind_results_unchanged(self, kind):
        from repro.serve.server import JOB_KINDS

        engine, summary = JOB_KINDS[kind](self._shard(), dict(self.SPEC))
        assert summary["solution_sha256"] == self.SHA
        assert engine.makespan.hex() == self.MAKESPAN[kind]

    def test_profiler_sees_the_runners_owner_map(self, monkeypatch):
        from repro.apps import jacobi
        from repro.autopilot.profiles import profiler_for
        from repro.serve.server import JOB_KINDS

        built = []
        real = jacobi.build_jacobi

        def spy(*args, **kwargs):
            prog = real(*args, **kwargs)
            built.append(prog)
            return prog

        monkeypatch.setattr(jacobi, "build_jacobi", spy)
        JOB_KINDS["jacobi_served"](self._shard(), dict(self.SPEC))
        (prog,) = built
        owners = prog.ctx.arrays["a"].dist.dims[0].owner(np.arange(prog.mesh.n))
        inputs = profiler_for("jacobi_served")(4, dict(self.SPEC))
        np.testing.assert_array_equal(inputs.current, owners)
        assert tuple(inputs.arrays) == jacobi.JACOBI_ARRAYS
        assert tuple(inputs.arrays) == tuple(prog.ctx.arrays)
        assert inputs.row_weights == jacobi.jacobi_row_weights(prog.mesh)
