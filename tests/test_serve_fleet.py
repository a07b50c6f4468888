"""Unit tests for the sharded fleet: stat aggregation, tenant fairness,
quotas/shedding, retry routing, scaling, the autoscaler policy, and the
``serve.*``/``shard.*`` metrics registry.

The stat-aggregation tests are the regression fix from this PR's issue:
``JobServer.stat()`` used to report the single pool's state; with N
shards the legacy ``pool``/``disk_cache`` blocks must become exact sums
of the per-shard entries, so anything that keyed on the old shape reads
fleet totals unchanged.
"""

import threading
import time

import pytest

from repro.errors import KaliError
from repro.obs.registry import MetricsRegistry
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.pool import PoolCrashError
from repro.serve.queue import Job, JobQueue, ShedError
from repro.serve.server import JOB_KINDS, JobServer, register_job_kind


# --- stat aggregation (the issue's fix + regression test) ----------------


def test_stat_totals_equal_sum_of_shard_counters(tmp_path):
    with JobServer(2, shards=2, cache_dir=str(tmp_path / "cache"),
                   metrics_dir=str(tmp_path / "metrics")) as server:
        futures = [server.submit("jacobi",
                                 {"rows": 8 + i % 3, "sweeps": 2, "seed": i})
                   for i in range(6)]
        records = [f.result(timeout=120) for f in futures]
        stat = server.stat()

    assert all(r["ok"] for r in records)
    shards = stat["shards"]
    assert len(shards) == 2
    assert {e["name"] for e in shards} == {"shard-0", "shard-1"}
    # Both shards actually ran work (three distinct families spread).
    assert all(e["jobs_done"] > 0 for e in shards)

    # Fleet totals are exact sums of per-shard entries, and the pools'
    # lifetime counters agree with the record-derived ones.
    assert stat["jobs_done"] == sum(e["jobs_done"] for e in shards) == 6
    assert sum(e["pool_jobs_done"] for e in shards) == 6
    assert sum(e["rebuilds"] for e in shards) == 0
    assert sum(e["meshes_built"] for e in shards) == 2
    assert all(e["warm"] for e in shards)
    assert stat["disk_cache"]["entries"] == sum(
        e["disk_entries"] for e in shards) > 0
    assert stat["disk_cache"]["bytes"] == sum(
        e["disk_bytes"] for e in shards) > 0
    assert stat["queued"] == sum(e["queued"] for e in shards) == 0
    assert stat["failures"] == sum(e["failures"] for e in shards) == 0
    assert stat["retries"] == sum(e["retries"] for e in shards) == 0
    assert stat["router"]["shards"] == ["shard-0", "shard-1"]


def test_stat_sum_invariant_under_concurrent_snapshots():
    """Stress the stat-sum invariant: counter mutations and ``stat()``
    snapshots race from many threads, and *every* snapshot must satisfy
    ``total == sum(shard counters)`` for jobs_done/failures/retries —
    the per-shard sums are taken under the same server-lock hold as the
    totals, so a half-applied mutation can never tear a snapshot."""
    from repro.machine.stats import RankStats, RunResult

    def quick(shard, spec):
        if spec["i"] % 7 == 3:
            raise ValueError("injected failure")
        result = RunResult(nranks=shard.nranks,
                           clocks=[0.0] * shard.nranks,
                           stats=[RankStats(rank=r)
                                  for r in range(shard.nranks)],
                           values=[None] * shard.nranks)
        return result, {"i": spec["i"]}

    register_job_kind("_fleet_quick", quick)
    violations = []
    done = threading.Event()

    def snapshotter(server):
        while not done.is_set():
            stat = server.stat()
            shards = stat["shards"]
            for total_key in ("jobs_done", "failures", "retries"):
                total = stat[total_key]
                parts = sum(e[total_key] for e in shards)
                if total != parts:
                    violations.append((total_key, total, parts))

    try:
        with JobServer(2, shards=2, max_batch=4) as server:
            readers = [threading.Thread(target=snapshotter, args=(server,))
                       for _ in range(4)]
            for t in readers:
                t.start()
            futures = [server.submit("_fleet_quick", {"i": i},
                                     tenant=f"t{i % 3}")
                       for i in range(120)]
            records = [f.result(timeout=120) for f in futures]
            done.set()
            for t in readers:
                t.join(30)
            final = server.stat()
    finally:
        done.set()
        del JOB_KINDS["_fleet_quick"]

    assert not violations, f"torn stat snapshots: {violations[:5]}"
    failed = sum(1 for r in records if not r.get("ok"))
    assert failed == sum(1 for i in range(120) if i % 7 == 3)
    assert final["jobs_done"] == sum(
        e["jobs_done"] for e in final["shards"]) == 120 - failed
    assert final["failures"] == sum(
        e["failures"] for e in final["shards"]) == failed


def test_single_shard_stat_matches_legacy_shape(tmp_path):
    """shards=1 keeps every fleet-level stat key, with the pool counters
    in its one shard entry."""
    with JobServer(2, cache_dir=str(tmp_path / "c")) as server:
        server.submit("jacobi", {"rows": 8, "sweeps": 2}).result(timeout=120)
        stat = server.stat()
    for key in ("nranks", "policy", "uptime_s", "busy", "queued",
                "queue_snapshot", "jobs_done", "failures", "shards",
                "disk_cache", "tune_store"):
        assert key in stat
    (entry,) = stat["shards"]
    assert entry["warm"] is True
    assert entry["pool_jobs_done"] == 1


def test_records_and_metrics_carry_serve_provenance(tmp_path):
    import json
    import os

    mdir = str(tmp_path / "metrics")
    with JobServer(2, shards=2, metrics_dir=mdir) as server:
        record = server.submit(
            "jacobi", {"rows": 8, "sweeps": 2}, tenant="alice",
        ).result(timeout=120)
    assert record["tenant"] == "alice"
    assert record["shard"] in ("shard-0", "shard-1")
    assert record["retries"] == 0
    reg = json.load(open(os.path.join(mdir, "job-1-metrics.json")))
    assert reg["serve.shard_index"] == int(record["shard"].split("-")[-1])
    assert reg["serve.retries"] == 0
    run = json.load(open(os.path.join(mdir, "job-1.json")))
    assert run["meta"]["shard"] == record["shard"]
    assert run["meta"]["tenant"] == "alice"


def test_fleet_registry_naming():
    with JobServer(2, shards=2) as server:
        server.submit("jacobi", {"rows": 8, "sweeps": 1}).result(timeout=120)
        reg = server.fleet_registry()
    assert reg.get("serve.shards") == 2
    assert reg.get("serve.jobs_done") == 1
    assert reg.get("serve.sheds") == 0
    shard0 = reg.subset("shard.0")
    shard1 = reg.subset("shard.1")
    assert shard0 and shard1
    assert (shard0["shard.0.jobs_done"] + shard1["shard.1.jobs_done"]) == 1
    # from_fleet is a pure function of the stat snapshot.
    again = MetricsRegistry.from_fleet(
        {"shards": [], "jobs_done": 3, "sheds": 1})
    assert again.get("serve.jobs_done") == 3
    assert again.get("serve.shards") == 0


# --- tenant-fair queue ----------------------------------------------------


def _job(tenant, n, priority=0):
    return Job(kind="k", spec={"n": n}, tenant=tenant, priority=priority)


def test_weighted_fair_service_between_tenants():
    q = JobQueue("fifo", tenant_weights={"heavy": 2.0})
    for i in range(6):
        q.submit(_job("heavy", i))
        q.submit(_job("light", i))
    order = [q.next_batch(1)[0].tenant for _ in range(12)]
    # Weight 2 gets two slots per light slot while both lanes are
    # backlogged: after any prefix, heavy served >= light served, and
    # in the first 9 pulls heavy gets ~2/3.
    assert order.count("heavy") == 6 and order.count("light") == 6
    heavy_in_first_9 = order[:9].count("heavy")
    assert heavy_in_first_9 == 6, order


def test_idle_lane_reenters_at_service_floor():
    q = JobQueue("fifo")
    for i in range(4):
        q.submit(_job("busy", i))
    assert q.next_batch(1)[0].tenant == "busy"
    assert q.next_batch(1)[0].tenant == "busy"
    # A newcomer does not get a catch-up burst for its idle past: it
    # alternates with the backlogged tenant from here on.
    q.submit(_job("new", 0))
    q.submit(_job("new", 1))
    order = [q.next_batch(1)[0].tenant for _ in range(4)]
    assert order.count("new") == 2 and order.count("busy") == 2
    assert order[0] != order[1]  # alternation, not a monopoly


def test_tenant_quota_sheds_with_structure():
    server = JobServer(2, shards=2, tenants={"capped": {"quota": 2}})
    # Shards not started: submissions stay pending.
    server.submit("jacobi", {"rows": 8}, tenant="capped")
    server.submit("jacobi", {"rows": 9}, tenant="capped")
    server.submit("jacobi", {"rows": 10}, tenant="free")  # unaffected
    with pytest.raises(ShedError) as err:
        server.submit("jacobi", {"rows": 11}, tenant="capped")
    assert err.value.details == {
        "reason": "tenant-quota", "tenant": "capped", "depth": 2, "limit": 2}
    assert server.sheds == 1 and server.sheds_by_tenant == {"capped": 1}
    server.close()


def test_queue_depth_sheds_with_structure():
    q = JobQueue("fifo", max_depth=2)
    q.submit(_job("a", 0))
    q.submit(_job("b", 0))
    with pytest.raises(ShedError) as err:
        q.submit(_job("c", 0))
    assert err.value.details["reason"] == "queue-depth"
    assert err.value.details["limit"] == 2


def test_batching_stays_within_one_lane():
    q = JobQueue("fifo")
    for i in range(3):
        j = _job("a", 0)
        j.batch_key = "same"
        q.submit(j)
    j = _job("b", 0)
    j.batch_key = "same"
    q.submit(j)
    batch = q.next_batch(8)
    assert len(batch) == 3
    assert all(job.tenant == "a" for job in batch)


def test_drain_jobs_returns_everything_in_schedule_order():
    q = JobQueue("priority")
    low, high = _job("t", 0, priority=0), _job("t", 1, priority=5)
    q.submit(low)
    q.submit(high)
    drained = q.drain_jobs()
    assert [j.priority for j in drained] == [5, 0]
    assert q.pending() == 0


# --- fleet-level admission ------------------------------------------------


def test_fleet_quota_and_max_pending():
    server = JobServer(2, shards=2, max_pending=2,
                       tenants={"vip": {"quota": 1}})
    # Shards not started: submissions pile up in the queues.
    server.submit("jacobi", {"rows": 8}, tenant="vip")
    with pytest.raises(ShedError) as err:
        server.submit("jacobi", {"rows": 9}, tenant="vip")
    assert err.value.details["reason"] == "tenant-quota"
    server.submit("jacobi", {"rows": 10})
    with pytest.raises(ShedError) as err:
        server.submit("jacobi", {"rows": 11})
    assert err.value.details["reason"] == "queue-depth"
    stat_sheds = server.stat()["sheds"]
    assert stat_sheds == 2
    server.close()


def test_shed_reply_carries_shard_when_shard_queue_full():
    server = JobServer(2, shards=1, shard_depth=1)
    server.submit("jacobi", {"rows": 8})
    with pytest.raises(ShedError) as err:
        server.submit("jacobi", {"rows": 9})
    assert err.value.details["reason"] == "queue-depth"
    assert err.value.details["shard"] == "shard-0"
    server.close()


# --- the watchdog owner ---------------------------------------------------

_SHIFT_KALI = """
processors Procs : array[1..P] with P in 1..64;
const n : integer := 16;
var A : array[1..n] of real dist by [ block ] on Procs;
forall i in 1..n on A[i].loc do
    A[i] := float(i);
end;
forall i in 1..n-1 on A[i].loc do
    A[i] := A[i+1];
end;
"""


def test_job_timeout_is_the_watchdog_of_every_builtin_kind(monkeypatch):
    """``job_timeout`` (``--job-timeout``) bounds every job on a shard:
    the front ends a job kind builds on (KaliContext, the structures)
    run on the shard's pool under the pool's own watchdog."""
    from repro.machine.mp.mesh import Mesh

    bounds = []
    real_run = Mesh.run

    def recording_run(self, job, timeout):
        bounds.append(timeout)
        return real_run(self, job, timeout)

    monkeypatch.setattr(Mesh, "run", recording_run)
    jobs = [
        ("jacobi", {"rows": 8, "sweeps": 1}),
        ("cg", {"rows": 6, "max_iter": 4, "seed": 2}),
        ("kali", {"source": _SHIFT_KALI}),
        ("dht_lookup", {"n": 40, "nbuckets": 7, "seed": 3, "lookups": 10}),
        ("queue_stream", {"n": 20, "chunk": 8}),
    ]
    with JobServer(2, job_timeout=7.5) as server:
        for kind, spec in jobs:
            before = len(bounds)
            record = server.submit(kind, spec).result(timeout=120)
            assert record["ok"], record
            assert len(bounds) > before, f"{kind} ran no mesh job"
            assert set(bounds[before:]) == {7.5}, (kind, bounds[before:])


# --- retry routing and scaling -------------------------------------------


def test_crash_retry_prefers_the_other_shard():
    attempts = []

    def flaky(shard, spec):
        attempts.append(shard.name)
        if len(attempts) == 1:
            raise PoolCrashError("injected")
        return JOB_KINDS["jacobi"](shard, {"rows": 8, "sweeps": 1})

    register_job_kind("_fleet_flaky", flaky)
    try:
        with JobServer(2, shards=2) as server:
            record = server.submit("_fleet_flaky", {}).result(timeout=120)
    finally:
        del JOB_KINDS["_fleet_flaky"]
    assert record["ok"] and record["retries"] == 1
    assert attempts[0] != attempts[1]
    assert record["shard"] == attempts[1]


def test_condemned_batch_survivors_replay_without_spending_budget():
    ran = []

    def first_crashes(shard, spec):
        ran.append(spec["i"])
        if spec["i"] == 0 and ran.count(0) == 1:
            raise PoolCrashError("injected")
        return JOB_KINDS["jacobi"](shard, {"rows": 8, "sweeps": 1})

    register_job_kind("_fleet_batchy", first_crashes)
    try:
        # One shard, so queued jobs behind the crash are in the same
        # batch; retry_budget=1 means the crasher spends its only retry
        # while the survivors must not spend any.
        server = JobServer(2, shards=1, retry_budget=1, max_batch=8)
        jobs = []
        for i in range(3):
            job = Job(kind="_fleet_batchy", spec={"i": i},
                      batch_key="same-batch")
            jobs.append(job)
            server._admit(job)
            with server._lock:
                server._job_seq += 1
                job.job_id = server._job_seq
            server.shards[0].queue.submit(job)
        server.start()
        records = [j.future.result(timeout=120) for j in jobs]
        server.close()
    finally:
        del JOB_KINDS["_fleet_batchy"]
    assert all(r["ok"] for r in records)
    assert records[0]["retries"] == 1
    assert records[1]["retries"] == 0 and records[2]["retries"] == 0


def test_retire_shard_replays_backlog():
    server = JobServer(2, shards=2)
    # Fill queues without running anything.
    futures = [server.submit("jacobi", {"rows": 8 + i, "sweeps": 1})
               for i in range(4)]
    victim = server.shards[-1].name
    queued_on_victim = server.shards[-1].queue.pending()
    server.retire_shard()
    assert len(server.shards) == 1
    survivor = server.shards[0]
    assert survivor.queue.pending() == 4
    if queued_on_victim:
        assert survivor.replays_in == queued_on_victim
    server.start()
    records = [f.result(timeout=120) for f in futures]
    server.close()
    assert all(r["ok"] for r in records)
    assert all(r["shard"] != victim for r in records)


def test_cannot_retire_last_shard():
    server = JobServer(2, shards=1)
    with pytest.raises(KaliError):
        server.retire_shard()
    server.close()


# --- autoscaler policy ----------------------------------------------------


def test_autoscale_policy_validation():
    with pytest.raises(KaliError):
        AutoscalePolicy(high_depth=1.0, low_depth=2.0)
    with pytest.raises(KaliError):
        AutoscalePolicy(min_shards=0)
    with pytest.raises(KaliError):
        AutoscalePolicy(min_shards=3, max_shards=2)


def test_autoscaler_hysteresis_with_fake_clock():
    server = JobServer(1, shards=1)
    policy = AutoscalePolicy(min_shards=1, max_shards=3, high_depth=2,
                             low_depth=0.5, up_after=1.0, down_after=2.0,
                             cooldown=0.5)
    scaler = Autoscaler(server, policy)
    for i in range(6):
        server.submit("jacobi", {"rows": 8, "seed": i})

    assert scaler.step(now=0.0) is None          # high, but not sustained
    assert scaler.step(now=1.1) == "up"          # sustained past up_after
    assert len(server.shards) == 2
    assert scaler.step(now=1.3) is None          # cooldown blocks
    assert scaler.step(now=2.5) == "up"
    assert len(server.shards) == 3
    assert scaler.step(now=2.6) is None          # at max_shards forever

    for shard in server.shards:
        shard.queue.drain_jobs()
    assert scaler.step(now=3.2) is None          # low, but not sustained
    assert scaler.step(now=5.5) == "down"
    assert len(server.shards) == 2

    events = scaler.describe()["events"]
    assert [e["action"] for e in events] == ["up", "up", "down"]
    server.close()


def test_autoscaler_thread_scales_up_then_down():
    """The live loop: ``start`` samples on its own thread, scales up on
    a backlog, back down once the queues drain, and ``stop`` joins it.
    Shards are never started, so the queued jobs stay queued."""
    policy = AutoscalePolicy(min_shards=1, max_shards=2, high_depth=2,
                             low_depth=0.5, up_after=0.0, down_after=0.0,
                             cooldown=0.0, interval=0.01)
    server = JobServer(1, shards=1, autoscale=policy)
    scaler = server.autoscaler

    def wait_for(predicate):
        deadline = time.monotonic() + 30.0
        while not predicate():
            assert time.monotonic() < deadline, scaler.describe()
            time.sleep(0.01)

    try:
        for i in range(4):
            server.submit("jacobi", {"rows": 8, "seed": i})
        scaler.start()
        wait_for(lambda: len(server.shards) == 2)
        for shard in list(server.shards):
            shard.queue.drain_jobs()
        wait_for(lambda: len(server.shards) == 1)
        thread = scaler._thread
        scaler.stop()
        assert scaler._thread is None
        assert not thread.is_alive()
        actions = [e["action"] for e in scaler.describe()["events"]]
        assert actions == ["up", "down"]
    finally:
        server.close()


def test_autoscaler_band_is_quiet():
    """Depth between the watermarks must never trigger a change, no
    matter how long it persists — that is the hysteresis band."""
    server = JobServer(1, shards=2)
    policy = AutoscalePolicy(min_shards=1, max_shards=4, high_depth=10,
                             low_depth=0.1, up_after=0.0, down_after=0.0,
                             cooldown=0.0)
    scaler = Autoscaler(server, policy)
    for i in range(4):  # avg 2/shard: inside (0.1, 10)
        server.submit("jacobi", {"rows": 8, "seed": i})
    for t in range(100):
        assert scaler.step(now=float(t)) is None
    assert len(server.shards) == 2
    server.close()
