"""One shared tier per loop, picked by the strategy the rank runs.

A memory miss in ``ScheduleCache`` asks exactly one shared tier: the
process's ``CLOSED_FORM`` for a loop the rank analyses at compile time,
the disk tier (when one is attached) for a loop it inspects.  The
strategy is ``force_strategy`` when the context forces one, else the
planner's choice — so a forced strategy never runs a schedule the other
strategy built.  ``cache_stats()`` reads the engine's
``schedule_cache_*`` counters, the same figures on every backend.
"""

import numpy as np
import pytest

from repro.analysis.planner import Strategy
from repro.apps.jacobi import build_jacobi
from repro.core import context
from repro.errors import AnalysisError
from repro.machine.cost import NCUBE7
from repro.meshes.regular import five_point_grid
from repro.runtime.cache import CLOSED_FORM
from repro.serve.pool import RankPool

MESH = five_point_grid(8, 8)
INIT = np.random.default_rng(44).random(MESH.n)


def _jacobi(p=2, **kwargs):
    return build_jacobi(MESH, p, machine=NCUBE7, initial=INIT, **kwargs)


# --- routing by strategy ------------------------------------------------------


@pytest.mark.parametrize("warm_disk", [True, False])
def test_forced_compile_time_on_an_indirect_loop_raises(tmp_path, warm_disk):
    """The relax loop has no closed form.  A warm disk entry for it was
    built by the inspector, which a forced compile-time rank does not
    run: it raises whether or not that entry exists."""
    cache_dir = str(tmp_path) if warm_disk else None
    if warm_disk:
        warm = _jacobi(schedule_cache_dir=cache_dir).run(1)
        assert warm.engine.counter_sum("schedule_cache_disk_stores") == 2
    forced = _jacobi(schedule_cache_dir=cache_dir,
                     force_strategy=Strategy.COMPILE_TIME)
    with pytest.raises(AnalysisError):
        forced.run(1)


@pytest.mark.parametrize("with_disk", [True, False])
def test_forced_run_time_inspects_a_loop_the_memo_holds(tmp_path, with_disk):
    """An unforced run leaves the copy loop's schedule in
    ``CLOSED_FORM``; a forced run-time run in the same process inspects
    it instead, and writes nothing to the memo."""
    cache_dir = str(tmp_path) if with_disk else None
    _jacobi(schedule_cache_dir=cache_dir).run(1)
    memo = dict(CLOSED_FORM._items)
    assert len(memo) == 2
    res = _jacobi(schedule_cache_dir=cache_dir,
                  force_strategy=Strategy.RUNTIME).run(1)
    assert res.strategies() == {
        "jacobi-copy": "inspector",
        "jacobi-relax": "disk-cache" if with_disk else "inspector"}
    assert res.engine.counter_sum("inspector_runs") == (2 if with_disk else 4)
    assert dict(CLOSED_FORM._items) == memo


def test_a_repeat_forced_run_time_job_reads_both_loops_from_disk(tmp_path):
    runs = [_jacobi(schedule_cache_dir=str(tmp_path),
                    force_strategy=Strategy.RUNTIME).run(2) for _ in range(2)]
    assert runs[0].strategies() == {"jacobi-copy": "inspector",
                                    "jacobi-relax": "inspector"}
    assert runs[1].strategies() == {"jacobi-copy": "disk-cache",
                                    "jacobi-relax": "disk-cache"}
    assert runs[1].engine.counter_sum("inspector_runs") == 0
    assert runs[1].engine.counter_sum("schedule_cache_disk_hits") == 4
    assert len(CLOSED_FORM) == 0


# --- no cache, no tier ----------------------------------------------------------

#: clocks of a 4-rank, 3-sweep uncached Jacobi on the NCUBE/7 model
UNCACHED_CLOCKS = {
    "ranges": ["0x1.3286ee9c2a6dap+0", "0x1.3372dff16cbf6p+0",
               "0x1.337387b719068p+0", "0x1.32879661d6b4bp+0"],
    "enumerated": ["0x1.2f90cfc67c50dp+0", "0x1.2fe018d9eb996p+0",
                   "0x1.2fe0c09f97e08p+0", "0x1.2f91778c2897ep+0"],
}


@pytest.mark.parametrize("translation", sorted(UNCACHED_CLOCKS))
def test_uncached_closed_form_loops_rebuild_every_execution(
        monkeypatch, translation):
    builds = []
    original = context.build_closed_form_schedule

    def spy(rank, forall, env):
        builds.append((forall.label, rank.id))
        return original(rank, forall, env)

    monkeypatch.setattr(context, "build_closed_form_schedule", spy)
    res = _jacobi(4, cache_enabled=False, translation=translation).run(3)
    assert sorted(builds) == sorted(
        ("jacobi-copy", r) for r in range(4) for _ in range(3))
    assert len(CLOSED_FORM) == 0
    engine = res.engine
    assert [c.hex() for c in engine.clocks] == UNCACHED_CLOCKS[translation]
    assert (engine.total_messages(), engine.total_bytes()) == (42, 3504)
    assert engine.counter_sum("inspector_runs") == 4 * 3
    assert res.cache_stats() == {"hits": 0, "misses": 24, "invalidations": 0}


# --- cache_stats on every backend -------------------------------------------------


def _rank_totals(kranks):
    return {kind: sum(getattr(kr.cache, kind) for kr in kranks)
            for kind in ("hits", "misses", "invalidations")}


@pytest.mark.timeout(120)
def test_cache_stats_match_the_ranks_caches_on_sim_mp_and_pool(tmp_path):
    """Sim: the engine's counters equal what the rank caches counted.
    The mp backend and a warm pool report the same figures."""
    want = {"hits": 12, "misses": 4, "invalidations": 0}
    sim = _jacobi().run(4)
    assert sim.cache_stats() == _rank_totals(sim.kranks) == want
    assert _jacobi(backend="mp").run(4).cache_stats() == want
    with RankPool(2, timeout=60) as pool:
        for _ in range(2):
            assert _jacobi(pool=pool).run(4).cache_stats() == want
    cold, warm = (_jacobi(schedule_cache_dir=str(tmp_path)).run(4)
                  for _ in range(2))
    assert cold.cache_stats() == _rank_totals(cold.kranks) == want
    assert warm.cache_stats() == _rank_totals(warm.kranks) == want
