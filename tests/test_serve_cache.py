"""The persistent schedule-cache tier: keys, failure modes, equivalence.

Four promises under test:

* **content addressing** — the key is a function of the forall spec, the
  distributions, and the *bytes* of the communication-determining arrays;
  mesh values do not perturb it, indirection edits do, so invalidation
  works across process restarts where version counters cannot;
* **corruption tolerance** — truncated/garbled/foreign entries are a
  miss (plus deletion), never a wrong schedule;
* **LRU bound** — the directory respects ``max_bytes``, evicting the
  least-recently-used entries;
* **equivalence** — cold, warm (disk-hit), and restarted-server runs
  produce bit-identical arrays; and within the warm equivalence class
  {sim, fork-per-run, warm pool, restarted pool — all against a
  populated cache dir} the per-rank communication counters match
  exactly.  (Warm and cold runs legitimately differ from *each other*
  in counters: a disk hit skips the inspector's crystal-router
  messages — that is the whole point.)
"""

import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from tests.differential import (
    DifferentialPair,
    assert_arrays_identical,
    assert_counters_identical,
)
from repro.apps.jacobi import build_jacobi
from repro.arrays.darray import DistributedArray
from repro.lang import compile_kali
from repro.meshes.regular import five_point_grid
from repro.runtime.schedule import CommSchedule
from repro.serve import diskcache
from repro.serve.diskcache import (
    SCHEDCACHE_FORMAT,
    DiskScheduleCache,
    schedule_content_key,
)
from repro.serve.pool import RankPool

pytestmark = pytest.mark.timeout(180)


def _scatter(darr, rank):
    """``rank``'s piece as a context with a disk tier scatters it: with
    the global content tag stamped."""
    local = darr.scatter(rank)
    local.content_tag = darr.content_fingerprint()
    return local


def _jacobi_env(nprocs=4, rank=0, rows=8, cols=8, seed=3):
    mesh = five_point_grid(rows, cols)
    init = np.random.default_rng(seed).random(mesh.n)
    prog = build_jacobi(mesh, nprocs, initial=init)
    env = {name: _scatter(darr, rank) for name, darr in prog.ctx.arrays.items()}
    return prog, env


class TestContentKey:
    def test_deterministic(self):
        prog, env = _jacobi_env()
        k1 = schedule_content_key(prog.relax_loop, env)
        k2 = schedule_content_key(prog.relax_loop, env)
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_mesh_values_do_not_perturb_key(self):
        # 'a' and 'old_a' are read, but they are not communication-
        # determining: changing them must re-hit the same schedule.
        prog, env = _jacobi_env()
        k1 = schedule_content_key(prog.relax_loop, env)
        env["a"].data[:] += 1.0
        env["old_a"].data[:] *= 2.0
        assert schedule_content_key(prog.relax_loop, env) == k1

    def test_indirection_bytes_perturb_key(self):
        # Edits go through the driver array: the key hashes the *global*
        # content fingerprint (stamped at scatter), not local bytes, so
        # every rank reaches the same hit/miss verdict.
        prog, env = _jacobi_env()
        k1 = schedule_content_key(prog.relax_loop, env)
        adj = prog.ctx.arrays["adj"]
        edited = adj.data.copy()
        edited[0, 0] = (edited[0, 0] + 1) % edited.max()
        adj.set(edited)
        env["adj"] = _scatter(adj, 0)
        assert schedule_content_key(prog.relax_loop, env) != k1

    def test_count_bytes_perturb_key(self):
        prog, env = _jacobi_env()
        k1 = schedule_content_key(prog.relax_loop, env)
        count = prog.ctx.arrays["count"]
        edited = count.data.copy()
        edited[0] = max(0, edited[0] - 1)
        count.set(edited)
        env["count"] = _scatter(count, 0)
        assert schedule_content_key(prog.relax_loop, env) != k1

    def test_local_only_edit_does_not_perturb_key(self):
        # A mutation of one rank's local piece must NOT change the key:
        # the key is collective, derived from the global fingerprint.
        prog, env = _jacobi_env()
        k1 = schedule_content_key(prog.relax_loop, env)
        env["adj"].data[0, 0] += 1
        assert schedule_content_key(prog.relax_loop, env) == k1

    def test_missing_content_tag_disables_disk_tier(self):
        prog, env = _jacobi_env()
        env["adj"].content_tag = None
        assert schedule_content_key(prog.relax_loop, env) is None

    def test_rank_and_translation_in_key(self):
        prog, env0 = _jacobi_env(rank=0)
        _, env1 = _jacobi_env(rank=1)
        k0 = schedule_content_key(prog.relax_loop, env0)
        assert schedule_content_key(prog.relax_loop, env1) != k0
        assert schedule_content_key(
            prog.relax_loop, env0, translation="enumerated"
        ) != k0

    def test_label_in_key(self):
        prog, env = _jacobi_env()
        assert schedule_content_key(prog.copy_loop, env) != \
            schedule_content_key(prog.relax_loop, env)

    def test_missing_array_returns_none(self):
        prog, env = _jacobi_env()
        del env["adj"]
        assert schedule_content_key(prog.relax_loop, env) is None


def _dummy_schedule(label="x", payload_bytes=0):
    sched = CommSchedule(label=label, rank=0,
                         exec_local=np.arange(4),
                         exec_nonlocal=np.arange(0))
    if payload_bytes:
        sched._padding = b"p" * payload_bytes  # size filler for LRU tests
    return sched


class TestDiskCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = DiskScheduleCache(tmp_path)
        key = "k" * 64
        assert cache.load(key) is None
        assert cache.misses == 1
        cache.store(key, _dummy_schedule())
        loaded = cache.load(key)
        assert isinstance(loaded, CommSchedule)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == 1
        assert cache.stats()["entries"] == 1

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = DiskScheduleCache(tmp_path)
        key = "t" * 64
        cache.store(key, _dummy_schedule())
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.load(key) is None
        assert cache.corrupt == 1
        assert not path.exists()
        # and the slot is usable again
        cache.store(key, _dummy_schedule())
        assert cache.load(key) is not None

    def test_garbage_and_wrong_format_rejected(self, tmp_path):
        cache = DiskScheduleCache(tmp_path)
        k1, k2, k3 = "a" * 64, "b" * 64, "c" * 64
        cache._path(k1).write_bytes(b"not a pickle at all")
        cache._path(k2).write_bytes(
            pickle.dumps({"format": "something-else", "key": k2,
                          "schedule": _dummy_schedule()})
        )
        # right format, wrong key (renamed/collided file)
        cache._path(k3).write_bytes(
            pickle.dumps({"format": SCHEDCACHE_FORMAT, "key": "d" * 64,
                          "schedule": _dummy_schedule()})
        )
        for k in (k1, k2, k3):
            assert cache.load(k) is None
            assert not cache._path(k).exists()
        assert cache.corrupt == 3

    def test_lru_eviction_under_small_cap(self, tmp_path):
        import os
        import time

        probe = DiskScheduleCache(tmp_path / "probe")
        probe.store("p" * 64, _dummy_schedule(payload_bytes=1000))
        entry_size = probe.total_bytes()

        cache = DiskScheduleCache(tmp_path / "real",
                                  max_bytes=int(entry_size * 2.5))
        a, b, c, d = ("a" * 64, "b" * 64, "c" * 64, "d" * 64)
        base = time.time()
        for i, k in enumerate((a, b, c)):
            cache.store(k, _dummy_schedule(payload_bytes=1000))
            # mtime is the LRU clock; age the early entries explicitly
            os.utime(cache._path(k), (base - 300 + i, base - 300 + i))
        assert cache.evictions == 1  # storing c overflowed: a was oldest
        cache.store(d, _dummy_schedule(payload_bytes=1000))
        assert cache.evictions == 2  # storing d evicted b
        assert cache.total_bytes() <= cache.max_bytes
        assert not cache._path(a).exists()
        assert not cache._path(b).exists()
        assert cache._path(c).exists()
        assert cache._path(d).exists()

    def test_hit_refreshes_lru_position(self, tmp_path):
        import os
        import time

        cache = DiskScheduleCache(tmp_path, max_bytes=1 << 30)
        old, new = "a" * 64, "b" * 64
        cache.store(old, _dummy_schedule(payload_bytes=500))
        cache.store(new, _dummy_schedule(payload_bytes=500))
        base = time.time()
        os.utime(cache._path(old), (base - 100, base - 100))
        os.utime(cache._path(new), (base, base))
        assert cache.load(old) is not None  # touch: now most recent
        cache.max_bytes = cache.total_bytes()  # room for exactly two
        cache.store("c" * 64, _dummy_schedule(payload_bytes=500))
        assert cache._path(old).exists()
        assert not cache._path(new).exists()

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskScheduleCache(tmp_path, max_bytes=0)

    def test_same_size_rewrite_within_one_mtime_tick_is_seen(self, tmp_path):
        # Another writer replaces a memoised entry with one of the same
        # size and the same mtime: only the inode tells them apart.
        cache = DiskScheduleCache(tmp_path)
        key = "s" * 64
        cache.store(key, _dummy_schedule(label="A"))
        assert cache.load(key).label == "A"              # memoised
        path = cache._path(key)
        before = os.stat(path)
        DiskScheduleCache(tmp_path).store(key, _dummy_schedule(label="B"))
        assert os.stat(path).st_size == before.st_size
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert cache.load(key).label == "B"

    def test_threads_share_one_cache(self, tmp_path):
        import threading

        cache = DiskScheduleCache(tmp_path)
        key = "h" * 64
        cache.store(key, _dummy_schedule(label="seed"))
        threads_n, rounds = 4, 40
        errors = []

        def hammer(i):
            try:
                for j in range(rounds):
                    cache.store(key, _dummy_schedule(label=f"t{i}-{j:02d}"))
                    assert isinstance(cache.load(key), CommSchedule)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # No lost counter updates, no torn entries, and the memo agrees
        # with what a fresh reader finds on disk.
        assert cache.stores == 1 + threads_n * rounds
        assert cache.hits == threads_n * rounds
        assert cache.misses == 0 and cache.corrupt == 0
        final = cache.load(key).label
        assert final.startswith("t")
        assert DiskScheduleCache(tmp_path).load(key).label == final

    def test_memoised_hit_costs_no_unpickle(self, tmp_path, monkeypatch):
        # The warm pool and serve paths take this branch on every forall.
        calls = {"unpickle": 0, "stat": 0, "utime": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pickle, "load", counting("unpickle", pickle.load))
        monkeypatch.setattr(pickle, "loads",
                            counting("unpickle", pickle.loads))
        key = "m" * 64
        DiskScheduleCache(tmp_path).store(key, _dummy_schedule())
        cache = DiskScheduleCache(tmp_path)
        assert cache.load(key) is not None       # real load, then memoised
        assert calls["unpickle"] == 1
        calls["unpickle"] = 0
        monkeypatch.setattr(os, "stat", counting("stat", os.stat))
        monkeypatch.setattr(os, "utime", counting("utime", os.utime))
        assert cache.load(key) is not None
        assert cache.hits == 2
        assert calls["unpickle"] == 0
        assert calls["stat"] <= 2 and calls["utime"] <= 1

    def test_earlier_release_entry_loads(self, tmp_path):
        # A repro-schedcache-v1 entry in the shape every earlier release
        # wrote: one pickled {"format", "key", "schedule"} dict.
        key, renamed = "g" * 64, "r" * 64
        doc = {"format": SCHEDCACHE_FORMAT, "key": key,
               "schedule": _dummy_schedule(label="golden")}
        raw = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
        (tmp_path / f"{key}.sched").write_bytes(raw)
        (tmp_path / f"{renamed}.sched").write_bytes(raw)
        cache = DiskScheduleCache(tmp_path)
        assert cache.load(key).label == "golden"
        assert cache.load(renamed) is None          # its key says otherwise
        assert cache.corrupt == 1
        assert not (tmp_path / f"{renamed}.sched").exists()


def _build(cache_dir=None, backend="sim", pool=None, seed=11):
    mesh = five_point_grid(10, 10)
    init = np.random.default_rng(seed).random(mesh.n)
    return build_jacobi(
        mesh, 4, initial=init, backend=backend, pool=pool,
        schedule_cache_dir=str(cache_dir) if cache_dir else None,
    )


class TestTwoTierIntegration:
    def test_second_process_skips_inspection(self, tmp_path):
        cold = _build(tmp_path)
        cold_res = cold.run(3)
        assert cold_res.engine.counter_sum("inspector_runs") == 4
        assert cold_res.engine.counter_sum("schedule_cache_disk_stores") == 4

        warm = _build(tmp_path)  # fresh context = "new process" for sim
        warm_res = warm.run(3)
        assert warm_res.engine.counter_sum("inspector_runs") == 0
        assert warm_res.engine.counter_sum("schedule_cache_disk_hits") == 4
        assert np.array_equal(warm.solution, cold.solution)
        assert warm_res.strategies()["jacobi-relax"] == "disk-cache"

    def test_closed_form_foralls_never_probe_the_disk(self, tmp_path):
        """Only the inspector-built ``jacobi-relax`` uses the disk tier;
        the closed-form ``jacobi-copy`` neither probes for nor writes a
        file, so the miss counter counts real misses."""
        cold = _build(tmp_path).run(3)
        assert cold.engine.counter_sum("schedule_cache_disk_misses") == 4
        assert cold.engine.counter_sum("schedule_cache_disk_stores") == 4
        warm = _build(tmp_path).run(3)
        assert warm.engine.counter_sum("schedule_cache_disk_misses") == 0
        assert warm.engine.counter_sum("schedule_cache_disk_hits") == 4

    def test_indirection_edit_invalidates_across_restart(self, tmp_path):
        cold = _build(tmp_path)
        cold.run(2)
        entries_before = len(DiskScheduleCache(tmp_path).entries())

        # "Restart" with different indirection content: the old entries
        # must not satisfy the lookup (content key differs), so the run
        # re-inspects and stores new entries alongside.
        mesh = five_point_grid(10, 10)
        adj = mesh.adj.copy()
        adj[0], adj[1] = mesh.adj[1].copy(), mesh.adj[0].copy()
        mesh.adj[:] = adj
        init = np.random.default_rng(11).random(mesh.n)
        prog = build_jacobi(mesh, 4, initial=init,
                            schedule_cache_dir=str(tmp_path))
        res = prog.run(2)
        assert res.engine.counter_sum("inspector_runs") == 4
        assert res.engine.counter_sum("schedule_cache_disk_hits") == 0
        assert len(DiskScheduleCache(tmp_path).entries()) > entries_before

    def test_indirection_edit_within_process_reinspects(self, tmp_path):
        prog = _build(tmp_path)
        prog.run(2)
        # Edit the indirection table through the driver API.  Each run()
        # scatters fresh local pieces, so the next run's lookup goes to
        # the disk tier — where the content key no longer matches.
        adj = prog.ctx.arrays["adj"].data.copy()
        adj[[0, 1]] = adj[[1, 0]]
        prog.ctx.arrays["adj"].set(adj)
        res = prog.run(2)
        assert res.engine.counter_sum("inspector_runs") == 4
        assert res.engine.counter_sum("schedule_cache_disk_hits") == 0
        assert res.engine.counter_sum("schedule_cache_disk_misses") >= 4

    def test_corrupt_entry_falls_back_to_reinspection(self, tmp_path):
        cold = _build(tmp_path)
        cold.run(2)
        for p in DiskScheduleCache(tmp_path).entries():
            p.write_bytes(b"garbage")
        warm = _build(tmp_path)
        res = warm.run(2)
        assert res.engine.counter_sum("inspector_runs") == 4
        assert res.engine.counter_sum("schedule_cache_disk_corrupt") == 4
        assert np.array_equal(warm.solution, cold.solution)

    def test_disk_disabled_without_dir(self):
        prog = _build(None)
        res = prog.run(2)
        assert res.engine.counter_sum("schedule_cache_disk_hits") == 0
        assert res.engine.counter_sum("schedule_cache_disk_stores") == 0


#: a Kali forall that needs the inspector (an indirect read) and whose
#: label carries a scalar fingerprint (its bound ``n``)
KALI_GATHER = """
processors Procs : array[1..P] with P in 1..8;
const n : integer;
var x, y : array[1..n] of real dist by [ block ] on Procs;
    t    : array[1..n] of integer dist by [ block ] on Procs;
forall i in 1..n on y[i].loc do y[i] := x[t[i]]; end;
"""


def _kali_gather(cache_dir=None, n=16):
    perm = (np.arange(n) * 5) % n + 1          # 1-based, across blocks
    res = compile_kali(KALI_GATHER).run(
        nprocs=4, consts={"n": n}, inputs={"x": np.arange(1.0, n + 1), "t": perm},
        schedule_cache_dir=None if cache_dir is None else str(cache_dir))
    np.testing.assert_array_equal(res.arrays["y"], perm.astype(float))
    return res.timing.engine


class TestKaliDiskTier:
    def test_only_a_disk_tier_fingerprints_content(self, tmp_path, monkeypatch):
        calls = []
        original = DistributedArray.content_fingerprint

        def counting(darr):
            calls.append(darr.name)
            return original(darr)

        monkeypatch.setattr(DistributedArray, "content_fingerprint", counting)
        _kali_gather()
        _build(None).run(2)
        assert calls == []
        _kali_gather(tmp_path)
        assert sorted(set(calls)) == ["t", "x", "y"]

    def test_second_job_hits(self, tmp_path, monkeypatch):
        assert _kali_gather(tmp_path).counter_sum("inspector_runs") == 4
        monkeypatch.setattr(diskcache, "_SHARED", {})   # a new process: no memo
        warm = _kali_gather(tmp_path)
        assert warm.counter_sum("inspector_runs") == 0
        assert warm.counter_sum("schedule_cache_disk_hits") == 4

    def test_a_restart_with_another_hash_seed_hits(self, tmp_path):
        """Forall labels go into the disk-cache key, so they must not
        depend on the process's string-hash salt."""
        root = pathlib.Path(__file__).resolve().parent.parent
        script = ("import sys; from tests.test_serve_cache import _kali_gather; "
                  "print(_kali_gather(sys.argv[1]).counter_sum('inspector_runs'))")
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
            out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                                 cwd=root, env=env, capture_output=True,
                                 text=True, check=True)
            runs.append(int(out.stdout.split()[-1]))
        assert runs == [4, 0]


class TestServedDifferential:
    """The acceptance guarantee: bit-identical arrays and exact per-rank
    counters across backends, in both equivalence classes."""

    def _pair(self, ref_prog, ref_res, other_prog, other_res):
        return DifferentialPair(
            sim_result=ref_res,
            mp_result=other_res,
            sim_arrays={n: d.data.copy()
                        for n, d in ref_prog.ctx.arrays.items()},
            mp_arrays={n: d.data.copy()
                       for n, d in other_prog.ctx.arrays.items()},
        )

    def test_warm_class_identical(self, tmp_path):
        sweeps = 3
        # Cold sim run (no disk) is the correctness baseline ...
        cold = _build(None)
        cold_res = cold.run(sweeps)
        # ... and a throwaway cold run populates the shared cache dir.
        _build(tmp_path).run(sweeps)

        warm_sim = _build(tmp_path)
        warm_sim_res = warm_sim.run(sweeps)
        warm_fork = _build(tmp_path, backend="mp")
        warm_fork_res = warm_fork.run(sweeps)

        with RankPool(4, timeout=60) as pool:
            pool_1 = _build(tmp_path, pool=pool)
            pool_1_res = pool_1.run(sweeps)
            pool_2 = _build(tmp_path, pool=pool)
            pool_2_res = pool_2.run(sweeps)
            assert pool.last_pool_reused is True
        with RankPool(4, timeout=60) as restarted:
            restart = _build(tmp_path, pool=restarted)
            restart_res = restart.run(sweeps)

        # Arrays: identical everywhere, including vs the cold baseline.
        for prog, res in ((warm_sim, warm_sim_res),
                          (warm_fork, warm_fork_res),
                          (pool_1, pool_1_res), (pool_2, pool_2_res),
                          (restart, restart_res)):
            assert_arrays_identical(self._pair(cold, cold_res, prog, res))
            assert res.engine.counter_sum("inspector_runs") == 0

        # Counters: exact within the warm class (vs warm sim).
        for prog, res in ((warm_fork, warm_fork_res),
                          (pool_1, pool_1_res), (pool_2, pool_2_res),
                          (restart, restart_res)):
            pair = self._pair(warm_sim, warm_sim_res, prog, res)
            assert_counters_identical(pair)

    def test_warm_runs_skip_inspector_messages(self, tmp_path):
        sweeps = 2
        cold = _build(None)
        cold_res = cold.run(sweeps)
        _build(tmp_path).run(sweeps)
        warm = _build(tmp_path)
        warm_res = warm.run(sweeps)
        # The amortization argument, observable: the inspector's crystal-
        # router messages are gone from warm runs.
        assert warm_res.engine.total_messages() < \
            cold_res.engine.total_messages()
        assert np.array_equal(warm.solution, cold.solution)
