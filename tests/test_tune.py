"""The adaptive layout tuner: signals, candidate scoring, the online
policy, the learned plan store, and the serve warm-start path.

The load-bearing contracts:

* **Tally additivity** — per-rank partial tallies sum to the global
  tally, which is what makes the online decision a single exact integer
  allreduce (and therefore identical on every rank and every backend).
* **Convergence gate** — started on an adversarial layout, the tuner
  reaches the RCB partition in at most 2 redistributions, and the final
  array is bit-identical to a static-RCB run (redistribution moves data,
  it never changes it).  The gate holds on the sim *and* mp backends,
  with identical decision sequences.
* **Warm start** — a second job with the same fingerprint starts in the
  learned layout: ``tune_applied`` True, zero mid-run moves, same bits.
"""

import json

import numpy as np
import pytest

from repro.apps.jacobi import build_jacobi
from repro.distributions import Block, Custom, Cyclic
from repro.machine.cost import NCUBE7
from repro.meshes.partition import coordinate_bisection
from repro.meshes.unstructured import random_unstructured_mesh
from repro.obs.registry import MetricsRegistry
from repro.tune import (
    AdaptiveRunner,
    LoadProfile,
    PlanStore,
    TUNEPLAN_FORMAT,
    TunePolicy,
    TuneSpec,
    apply_plan,
    context_fingerprint,
    generate_candidates,
    layout_tallies,
    plan,
    plan_from_layouts,
    predict_move_cost,
    score_layouts,
)
from repro.tune.candidates import CandidateLayout, owner_map, tally_width

pytestmark = pytest.mark.timeout(300)

P = 8
NODES = 600
SWEEPS = 16
ARRAYS = ("a", "old_a", "count", "adj", "coef")


@pytest.fixture(scope="module")
def shuffled():
    """A shuffled unstructured mesh: node ids decorrelated from geometry,
    so id-based layouts are genuinely bad and RCB genuinely wins."""
    return random_unstructured_mesh(NODES, seed=7, locality_sort=False)


def bad_owners(n, nprocs, seed=8):
    return np.random.default_rng(seed).integers(
        0, nprocs, size=n).astype(np.int64)


def adaptive_jacobi(mesh, points, nprocs, dist, sweeps=SWEEPS, *,
                    backend="sim", tune=None, policy=None):
    prog = build_jacobi(
        mesh, nprocs, machine=NCUBE7, dist=dist,
        initial=np.random.default_rng(3).random(mesh.n),
        backend=backend, tune=tune,
    )
    runner = AdaptiveRunner(
        TuneSpec(arrays=ARRAYS, table="adj", count="count", points=points),
        policy or TunePolicy(interval=4, warmup=4),
    )
    res = runner.run(prog.ctx, [prog.copy_loop, prog.relax_loop], sweeps)
    return prog, res


def static_jacobi(mesh, nprocs, dist, sweeps=SWEEPS, *, backend="sim"):
    prog = build_jacobi(
        mesh, nprocs, machine=NCUBE7, dist=dist,
        initial=np.random.default_rng(3).random(mesh.n), backend=backend,
    )
    res = prog.run(sweeps)
    return prog, res


# --- candidates and tallies -----------------------------------------------


class TestCandidates:
    def test_owner_map_matches_bound_distribution(self):
        own = owner_map(Block(), 10, 3)      # ceil blocks of 4: 4 + 4 + 2
        assert own.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        own = owner_map(Cyclic(), 7, 3)
        assert own.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_candidates_deterministic_and_unique(self, shuffled):
        mesh, points = shuffled
        a = generate_candidates(mesh.n, P, points=points)
        b = generate_candidates(mesh.n, P, points=points)
        assert [c.name for c in a] == [c.name for c in b]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.owners, cb.owners)
        seen = {c.owners.tobytes() for c in a}
        assert len(seen) == len(a)  # owner-map dedup held
        names = {c.name for c in a}
        assert {"block", "cyclic", "rcb"} <= names

    def test_candidate_spec_round_trip(self, shuffled):
        mesh, points = shuffled
        for c in generate_candidates(mesh.n, P, points=points):
            assert np.array_equal(
                owner_map(c.to_spec(), mesh.n, P), c.owners)

    def test_tally_hand_check(self):
        # 4 rows on 2 procs, block layout [0,0,1,1]; row i reads its
        # neighbours: row0->{1}, row1->{2}, row2->{1,3}, row3->{2}.
        own = np.array([0, 0, 1, 1], dtype=np.int64)
        table = np.array([[1, 0], [2, 0], [1, 3], [2, 0]], dtype=np.int64)
        counts = np.array([1, 1, 2, 1], dtype=np.int64)
        t = layout_tallies([own], np.arange(4), table, counts, 2)[0]
        assert t.shape == (tally_width(2),)
        assert t[0:2].tolist() == [2, 3]       # refs by executing rank
        assert t[2:4].tolist() == [1, 1]       # remote subset
        # pair matrix rows: (executor 0 -> home 1) = 1, (1 -> 0) = 1
        assert t[4:].reshape(2, 2).tolist() == [[0, 1], [1, 0]]

    def test_tallies_are_additive_over_row_partitions(self, shuffled):
        """Per-rank partials must sum to the global tally — the invariant
        the online allreduce decision rests on."""
        mesh, points = shuffled
        owns = [c.owners for c in generate_candidates(mesh.n, P,
                                                      points=points)]
        full = layout_tallies(owns, np.arange(mesh.n), mesh.adj,
                              mesh.count, P)
        rng = np.random.default_rng(0)
        rows = rng.permutation(mesh.n)
        pieces = np.array_split(rows, 5)
        summed = sum(
            layout_tallies(owns, piece, mesh.adj[piece],
                           mesh.count[piece], P)
            for piece in pieces
        )
        assert np.array_equal(full, summed)

    def test_rcb_scores_below_scrambled(self, shuffled):
        mesh, points = shuffled
        cands = [
            CandidateLayout("scrambled", bad_owners(mesh.n, P)),
            CandidateLayout("rcb", coordinate_bisection(points, P)),
        ]
        tallies = layout_tallies([c.owners for c in cands],
                                 np.arange(mesh.n), mesh.adj, mesh.count, P)
        costs = score_layouts([c.owners for c in cands],
                              [c.name for c in cands], tallies, NCUBE7, P)
        by_name = {c.name: c for c in costs}
        assert by_name["rcb"].sweep_time < by_name["scrambled"].sweep_time
        assert by_name["rcb"].remote_refs < by_name["scrambled"].remote_refs

    def test_move_cost_positive_and_scales_with_payload(self, shuffled):
        mesh, points = shuffled
        old = bad_owners(mesh.n, P)
        new = coordinate_bisection(points, P)
        tally = layout_tallies([new], np.arange(mesh.n), mesh.adj,
                               mesh.count, P)[0]
        light = predict_move_cost(old, new, NCUBE7, P, tally,
                                  row_weights=(1.0,))
        heavy = predict_move_cost(old, new, NCUBE7, P, tally,
                                  row_weights=(1.0, 1.0, 1.0, 5.0, 5.0))
        assert 0.0 < light < heavy


# --- offline planning ------------------------------------------------------


class TestOfflinePlan:
    def test_recommends_rcb_from_bad_layout(self, shuffled):
        mesh, points = shuffled
        report = plan(mesh.n, P, NCUBE7, mesh.adj, counts=mesh.count,
                      points=points, current=bad_owners(mesh.n, P),
                      sweeps=50, row_weights=(1, 1, 1, 5, 5))
        assert report["recommendation"] == "rcb"
        assert report["layout"]["kind"] == "custom"
        assert np.array_equal(report["layout"]["owners"],
                              coordinate_bisection(points, P))
        best = next(c for c in report["candidates"] if c["name"] == "rcb")
        assert best["break_even_sweeps"] > 0
        assert report["predicted_total_move"] < report["predicted_total_stay"]

    def test_stays_when_already_best(self, shuffled):
        mesh, points = shuffled
        report = plan(mesh.n, P, NCUBE7, mesh.adj, counts=mesh.count,
                      points=points,
                      current=coordinate_bisection(points, P), sweeps=50)
        assert report["recommendation"] == "stay"
        assert report["layout"] is None

    def test_short_horizon_does_not_amortize(self, shuffled):
        mesh, points = shuffled
        report = plan(mesh.n, P, NCUBE7, mesh.adj, counts=mesh.count,
                      points=points, current=bad_owners(mesh.n, P),
                      sweeps=1, row_weights=(1, 1, 1, 5, 5))
        assert report["recommendation"] == "stay"
        assert report["reason"] == "not-amortized"


# --- the online policy (sim) ----------------------------------------------


class TestAdaptiveSim:
    def test_converges_to_rcb_and_matches_static_bits(self, shuffled):
        mesh, points = shuffled
        bad = Custom(bad_owners(mesh.n, P))
        prog, res = adaptive_jacobi(mesh, points, P, bad)
        report = res.tune_report

        assert 1 <= report["moves"] <= 2, report["events"]
        assert report["layout"] is not None
        assert np.array_equal(report["layout"]["owners"],
                              coordinate_bisection(points, P))
        moved = [e for e in report["events"] if e["moved"]]
        assert all(e["reason"] == "amortized-win" for e in moved)

        # every rank took the same decisions in the same order
        key = lambda e: (e["sweep"], e["best"], e["moved"], e["reason"])
        for rank_report in res.values[1:]:
            assert ([key(e) for e in rank_report["events"]]
                    == [key(e) for e in report["events"]])

        # redistribution moves data, it never changes it
        rcb_prog, _ = static_jacobi(
            mesh, P, Custom(coordinate_bisection(points, P)))
        bad_prog, _ = static_jacobi(mesh, P, bad)
        assert np.array_equal(prog.solution, rcb_prog.solution)
        assert np.array_equal(prog.solution, bad_prog.solution)

    def test_moves_invalidate_schedules_in_obs_registry(self, shuffled):
        mesh, points = shuffled
        _, res = adaptive_jacobi(mesh, points, P,
                                 Custom(bad_owners(mesh.n, P)))
        moves = res.tune_report["moves"]
        reg = MetricsRegistry.from_run(res.engine)
        # each move drops both cached schedules (copy + relax) per rank
        assert reg.get("cache.invalidations") == 2 * P * moves > 0
        assert reg.get("cache.hits") > 0
        assert reg.get("counter_sum.tune_moves") == P * moves

        _, static = static_jacobi(
            mesh, P, Custom(coordinate_bisection(points, P)))
        static_reg = MetricsRegistry.from_run(static.engine)
        assert static_reg.get("cache.invalidations") == 0

    def test_max_moves_zero_pins_the_layout(self, shuffled):
        mesh, points = shuffled
        _, res = adaptive_jacobi(
            mesh, points, P, Custom(bad_owners(mesh.n, P)),
            policy=TunePolicy(interval=4, warmup=4, max_moves=0))
        report = res.tune_report
        assert report["moves"] == 0
        assert report["decisions"] > 0
        assert {e["reason"] for e in report["events"]} == {"move-budget"}

    def test_already_good_layout_never_moves(self, shuffled):
        mesh, points = shuffled
        _, res = adaptive_jacobi(
            mesh, points, P, Custom(coordinate_bisection(points, P)))
        report = res.tune_report
        assert report["moves"] == 0
        assert {e["reason"] for e in report["events"]} == {"already-best"}


# --- sim / mp decision parity ---------------------------------------------


class TestAdaptiveMp:
    MP_P = 4
    MP_NODES = 300
    MP_SWEEPS = 12

    @pytest.mark.timeout(240)
    def test_mp_takes_identical_decisions_and_bits(self):
        mesh, points = random_unstructured_mesh(
            self.MP_NODES, seed=7, locality_sort=False)
        bad = Custom(bad_owners(mesh.n, self.MP_P))
        key = lambda e: (e["sweep"], e["best"], e["moved"], e["reason"])

        sim_prog, sim_res = adaptive_jacobi(
            mesh, points, self.MP_P, bad, sweeps=self.MP_SWEEPS)
        mp_prog, mp_res = adaptive_jacobi(
            mesh, points, self.MP_P, bad, sweeps=self.MP_SWEEPS,
            backend="mp")

        sim_ev = sim_res.tune_report["events"]
        mp_ev = mp_res.tune_report["events"]
        assert [key(e) for e in mp_ev] == [key(e) for e in sim_ev]
        assert mp_res.tune_report["moves"] == sim_res.tune_report["moves"]
        assert sim_res.tune_report["moves"] >= 1, sim_ev
        assert np.array_equal(mp_prog.solution, sim_prog.solution)
        static_prog, _ = static_jacobi(
            mesh, self.MP_P,
            Custom(coordinate_bisection(points, self.MP_P)),
            sweeps=self.MP_SWEEPS)
        assert np.array_equal(mp_prog.solution, static_prog.solution)


# --- load profiles ---------------------------------------------------------


class TestLoadProfile:
    def test_from_run_counters_and_round_trip(self, shuffled):
        mesh, points = shuffled
        _, res = adaptive_jacobi(mesh, points, P,
                                 Custom(bad_owners(mesh.n, P)))
        prof = LoadProfile.from_run(res, meta={"tag": "t"})
        assert prof.nranks == P
        assert prof.busy.shape == (P,)
        assert prof.imbalance() >= 1.0
        assert prof.counter("remote_refs").sum() > 0
        moves = res.tune_report["moves"]
        assert prof.counter("cache_invalidations").sum() == 2 * P * moves
        assert 0.0 < prof.remote_fraction() < 1.0

        back = LoadProfile.from_dict(json.loads(prof.to_json()))
        assert back.nranks == prof.nranks
        assert np.allclose(back.busy, prof.busy)
        assert back.meta == prof.meta
        assert "rank" in prof.render_table()


# --- the plan store --------------------------------------------------------


class TestPlanStore:
    LAYOUT = {"kind": "block", "param": None, "name": "block", "owners": []}

    def test_store_load_round_trip(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        doc = plan_from_layouts(["a"], self.LAYOUT, key="k1",
                                meta={"moves": 1})
        store.store("k1", doc)
        loaded = store.load("k1")
        assert loaded["format"] == TUNEPLAN_FORMAT
        assert loaded["layout"]["kind"] == "block"
        assert loaded["meta"] == {"moves": 1}
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 1,
                                 "evictions": 0, "corrupt": 0, "races": 0,
                                 "entries": 1, "bytes": store.total_bytes()}

    def test_earlier_release_entry_loads_and_bytes_are_unchanged(self, tmp_path):
        # A repro-tuneplan-v1 entry byte for byte as earlier releases
        # wrote it; a copy under another name is a renamed file.
        text = ('{"format": "repro-tuneplan-v1", "key": "k1", "arrays": ["a"],'
                ' "layout": {"kind": "block", "param": null, "name": "block",'
                ' "owners": []}, "meta": {"moves": 1}}')
        (tmp_path / "k1.tuneplan").write_text(text)
        (tmp_path / "k2.tuneplan").write_text(text)
        store = PlanStore(tmp_path)
        assert store.load("k1") == json.loads(text)
        assert store.load("k2") is None
        assert store.corrupt == 1
        fresh = PlanStore(tmp_path / "fresh")
        fresh.store("k1", plan_from_layouts(["a"], self.LAYOUT, key="k1",
                                            meta={"moves": 1}))
        assert (tmp_path / "fresh" / "k1.tuneplan").read_text() == text

    def test_missing_corrupt_and_foreign_entries_miss(self, tmp_path):
        store = PlanStore(tmp_path)
        assert store.load("absent") is None
        (tmp_path / "garbled.tuneplan").write_text("{not json")
        assert store.load("garbled") is None
        (tmp_path / "alien.tuneplan").write_text(
            json.dumps({"format": "other", "key": "alien", "layout": {}}))
        assert store.load("alien") is None
        assert store.corrupt == 2
        assert store.entries() == []  # bad entries were deleted

    def test_fingerprint_tracks_topology_not_float_payload(self, shuffled):
        mesh, _ = shuffled

        def ctx_of(initial_seed, adj=None):
            prog = build_jacobi(
                mesh, P, machine=NCUBE7,
                initial=np.random.default_rng(initial_seed).random(mesh.n))
            if adj is not None:
                prog.ctx.arrays["adj"].set(adj)
            return prog.ctx

        base = context_fingerprint(ctx_of(1))
        assert context_fingerprint(ctx_of(2)) == base  # floats excluded
        other_adj = mesh.adj.copy()
        other_adj[0, 0] = (other_adj[0, 0] + 1) % mesh.n
        assert context_fingerprint(ctx_of(1, adj=other_adj)) != base

    def test_apply_plan_skips_unknown_arrays(self, shuffled):
        mesh, points = shuffled
        prog = build_jacobi(mesh, P, machine=NCUBE7)
        rcb = coordinate_bisection(points, P)
        doc = plan_from_layouts(
            ["a", "ghost"],
            {"kind": "custom", "param": None, "name": "rcb",
             "owners": rcb.tolist()})
        assert apply_plan(prog.ctx, doc) == ["a"]
        assert np.array_equal(
            prog.ctx.arrays["a"].dist.dims[0].owner(np.arange(mesh.n)), rcb)

    def test_second_run_warm_starts_with_zero_moves(self, shuffled, tmp_path):
        mesh, points = shuffled
        tune_dir = str(tmp_path / "plans")
        bad = Custom(bad_owners(mesh.n, P))

        prog1, res1 = adaptive_jacobi(mesh, points, P, bad, tune=tune_dir)
        assert res1.tune_report["moves"] >= 1
        assert prog1.ctx.tune_applied is False
        assert len(PlanStore(tune_dir).entries()) == 1

        prog2, res2 = adaptive_jacobi(mesh, points, P, bad, tune=tune_dir)
        assert prog2.ctx.tune_applied is True
        assert res2.tune_report["moves"] == 0
        assert {e["reason"] for e in res2.tune_report["events"]} \
            == {"already-best"}
        assert np.array_equal(prog2.solution, prog1.solution)


# --- the T1 bench gate -----------------------------------------------------


class TestBenchGate:
    def test_adaptive_within_15pct_of_static_rcb(self):
        from repro.bench import adaptive_vs_static

        rows, runs = adaptive_vs_static(NCUBE7, nprocs=P, nodes=NODES,
                                        sweeps=SWEEPS)
        by_key = {r.key: r.values for r in rows}
        adaptive, rcb, bad = (by_key["adaptive"], by_key["static-rcb"],
                              by_key["static-bad"])
        assert adaptive["moves"] <= 2
        assert adaptive["steady_sweep"] <= 1.15 * rcb["steady_sweep"]
        assert adaptive["steady_sweep"] < bad["steady_sweep"]
        assert all(v["identical"] == 1.0 for v in by_key.values())
        assert set(runs) == set(by_key)

    def test_bench_cli_tune_gate_passes(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert bench_main(["--tune", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "adaptive" in out
        assert "FAIL" not in out


# --- the serve path --------------------------------------------------------


class TestServeWarmStart:
    @pytest.mark.timeout(240)
    def test_jacobi_adaptive_jobs_share_the_learned_plan(self, tmp_path):
        from repro.serve.server import JobServer

        spec = {"nodes": 600, "sweeps": 16, "seed": 7}
        with JobServer(4, cache_dir=str(tmp_path / "cache"),
                       tune_dir=str(tmp_path / "plans")) as server:
            first = server.submit("jacobi_adaptive", spec).result(timeout=200)
            second = server.submit("jacobi_adaptive", spec).result(timeout=200)
            stat = server.stat()

        assert first["ok"] and second["ok"]
        s1, s2 = first["summary"], second["summary"]
        assert s1["tune_moves"] >= 1
        assert s1["tune_applied"] is False
        assert s2["tune_moves"] == 0            # learned: no mid-run moves
        assert s2["tune_applied"] is True
        assert s2["final_layout"] == "learned"
        assert s1["solution_sha256"] == s2["solution_sha256"]
        assert stat["tune_store"]["entries"] == 1
