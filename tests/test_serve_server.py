"""The serve front end: queue ordering, batching, the server loop, the
unix-socket protocol, and the CLI.

The expensive paths (warm mesh semantics, disk-tier equivalence) are
covered by test_serve_pool / test_serve_cache; here the jobs are small
and the assertions are about plumbing: FIFO vs priority order, the
consecutive-same-key batching rule, futures resolving with records,
failure isolation (a bad job fails *its* future, the server keeps
serving), stat/metrics shapes, and the JSON-lines socket round trip.
"""

import hashlib
import json
import threading
import time

import numpy as np
import pytest

from repro.errors import KaliError
from repro.obs.registry import read_run_json
from repro.serve.__main__ import main as serve_main
from repro.serve.frontend import serve_async
from repro.serve.queue import Job, JobFuture, JobQueue, QueueClosed
from repro.serve.server import (
    JOB_KINDS,
    JobServer,
    ServeClient,
    _sha256,
    register_job_kind,
)

pytestmark = pytest.mark.timeout(180)


def _job(kind="k", priority=0, batch_key=None, **spec):
    return Job(kind=kind, spec=spec, priority=priority, batch_key=batch_key)


class TestJobQueue:
    def test_fifo_order(self):
        q = JobQueue("fifo")
        for name in ("a", "b", "c"):
            q.submit(_job(name=name, priority=99 if name == "c" else 0))
        popped = [q.next_batch()[0].spec["name"] for _ in range(3)]
        assert popped == ["a", "b", "c"]  # fifo ignores priority

    def test_priority_order_with_fifo_tiebreak(self):
        q = JobQueue("priority")
        q.submit(_job(name="low", priority=1))
        q.submit(_job(name="hi", priority=5))
        q.submit(_job(name="hi2", priority=5))
        popped = [q.next_batch()[0].spec["name"] for _ in range(3)]
        assert popped == ["hi", "hi2", "low"]

    def test_bad_policy_rejected(self):
        with pytest.raises(KaliError):
            JobQueue("lifo")

    def test_batching_consecutive_same_key(self):
        q = JobQueue("fifo")
        q.submit(_job(name="a1", batch_key="A"))
        q.submit(_job(name="a2", batch_key="A"))
        q.submit(_job(name="b", batch_key="B"))
        q.submit(_job(name="a3", batch_key="A"))
        batch = q.next_batch(max_batch=8)
        # a3 is behind b: batching never reorders past a different key
        assert [j.spec["name"] for j in batch] == ["a1", "a2"]
        assert [j.spec["name"] for j in q.next_batch(8)] == ["b"]
        assert [j.spec["name"] for j in q.next_batch(8)] == ["a3"]

    def test_batching_respects_max_batch(self):
        q = JobQueue("fifo")
        for i in range(5):
            q.submit(_job(name=i, batch_key="A"))
        assert len(q.next_batch(max_batch=3)) == 3
        assert len(q.next_batch(max_batch=3)) == 2

    def test_no_key_means_no_batching(self):
        q = JobQueue("fifo")
        q.submit(_job(name="a"))
        q.submit(_job(name="b"))
        assert len(q.next_batch(max_batch=8)) == 1

    def test_timeout_returns_empty(self):
        q = JobQueue("fifo")
        t0 = time.monotonic()
        assert q.next_batch(timeout=0.05) == []
        assert time.monotonic() - t0 < 5.0

    def test_close_semantics(self):
        q = JobQueue("fifo")
        q.submit(_job(name="pending"))
        q.close()
        with pytest.raises(QueueClosed):
            q.submit(_job(name="late"))
        # already-queued work still drains ...
        assert q.next_batch(timeout=0.0)[0].spec["name"] == "pending"
        # ... then the consumer sees end-of-queue immediately (no timeout)
        assert q.next_batch(timeout=30.0) == []
        assert q.closed

    def test_snapshot_in_scheduling_order(self):
        q = JobQueue("priority")
        q.submit(_job(name="low", priority=0))
        q.submit(_job(name="hi", priority=7))
        snap = q.snapshot()
        assert [s["spec"]["name"] for s in snap] == ["hi", "low"]
        assert q.pending() == 2

    def test_future_timeout_and_error(self):
        fut = JobFuture()
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)
        fut.set_exception(KaliError("boom"))
        with pytest.raises(KaliError, match="boom"):
            fut.result(timeout=1.0)


JACOBI = {"rows": 8, "cols": 8, "sweeps": 2, "seed": 7}


class TestJobServer:
    def test_submit_resolves_future_with_record(self, tmp_path):
        with JobServer(2, cache_dir=str(tmp_path / "cache")) as server:
            record = server.submit("jacobi", JACOBI).result(timeout=120)
            disk = server.stat()["disk_cache"]
        assert record["ok"] is True
        assert record["kind"] == "jacobi"
        assert record["backend"] == "pool"
        assert record["inspector_runs"] == 2
        assert record["disk_stores"] == 2
        assert len(record["summary"]["solution_sha256"]) == 64
        # the disk tier's counters, by their record and ``stat`` names
        counters = {"disk_hits": 0, "disk_misses": 2, "disk_stores": 2,
                    "disk_evictions": 0, "disk_corrupt": 0}
        assert {k: record[k] for k in counters} == counters
        assert set(disk) == {"dir", "entries", "bytes", *counters}
        assert {k: disk[k] for k in counters} == counters

    def test_identical_jobs_batch_and_hit_disk(self, tmp_path):
        with JobServer(2, cache_dir=str(tmp_path / "cache")) as server:
            futures = [server.submit("jacobi", JACOBI) for _ in range(3)]
            records = [f.result(timeout=120) for f in futures]
        assert records[0]["inspector_runs"] == 2
        for r in records[1:]:
            assert r["inspector_runs"] == 0  # zero re-inspection on hits
            assert r["disk_hits"] == 2
            assert r["pool_reused"] is True
        hashes = {r["summary"]["solution_sha256"] for r in records}
        assert len(hashes) == 1  # identical jobs, identical answers
        # all three were submitted before the mesh warmed: one batch
        assert {r["batch_size"] for r in records} == {3}
        assert [r["batch_index"] for r in records] == [0, 1, 2]

    def test_failure_isolated_server_keeps_serving(self, tmp_path):
        with JobServer(2, cache_dir=str(tmp_path / "cache")) as server:
            bad = server.submit("kali", {"source": 42})  # not a string
            bad_record = bad.result(timeout=120)
            assert bad_record["ok"] is False
            assert "source" in bad_record["error"]
            good = server.submit("jacobi", JACOBI).result(timeout=120)
            assert good["ok"] is True
            assert server.failures == 1
            failed = [r for r in server.records if not r["ok"]]
            assert len(failed) == 1 and "source" in failed[0]["error"]

    def test_unknown_kind_rejected_at_submit(self):
        server = JobServer(2)
        try:
            with pytest.raises(KaliError, match="unknown job kind"):
                server.submit("fft", {})
        finally:
            server.close()

    def test_custom_job_kind(self):
        def runner(server, spec):
            from repro.apps.jacobi import build_jacobi
            from repro.meshes.regular import five_point_grid

            prog = build_jacobi(five_point_grid(6, 6), server.nranks,
                                machine=server.machine, pool=server.pool)
            res = prog.run(1)
            return res.engine, {"custom": spec.get("tag")}

        register_job_kind("custom-test", runner)
        try:
            with JobServer(2) as server:
                record = server.submit(
                    "custom-test", {"tag": "hello"}
                ).result(timeout=120)
            assert record["summary"]["custom"] == "hello"
        finally:
            del JOB_KINDS["custom-test"]

    def test_drain_and_stat(self, tmp_path):
        with JobServer(2, cache_dir=str(tmp_path / "cache"),
                       policy="priority") as server:
            for _ in range(2):
                server.submit("jacobi", JACOBI)
            done = server.drain(timeout=120)
            assert done == 2
            stat = server.stat()
        assert stat["nranks"] == 2
        assert stat["policy"] == "priority"
        assert stat["jobs_done"] == 2
        assert stat["queued"] == 0
        assert sum(e["pool_jobs_done"] for e in stat["shards"]) == 2
        assert sum(e["rebuilds"] for e in stat["shards"]) == 0
        assert stat["disk_cache"]["entries"] == 2
        assert stat["disk_cache"]["disk_stores"] == 2

    def test_metrics_files_are_repro_run_v1(self, tmp_path):
        metrics = tmp_path / "metrics"
        with JobServer(2, cache_dir=str(tmp_path / "cache"),
                       metrics_dir=str(metrics)) as server:
            record = server.submit("jacobi", JACOBI).result(timeout=120)
        doc = json.loads(
            (metrics / f"job-{record['id']}.json").read_text()
        )
        assert doc["format"] == "repro-run-v1"
        assert doc["meta"]["source"] == "repro.serve"
        assert doc["meta"]["backend"] == "pool"
        assert doc["meta"]["pool_reused"] is False
        assert doc["nranks"] == 2
        # and the file round-trips through the registry reader
        assert read_run_json(record["metrics_file"]).nranks == 2
        reg = json.loads(
            (metrics / f"job-{record['id']}-metrics.json").read_text()
        )
        assert reg["serve.pool_reused"] == 0
        assert reg["serve.wall_s"] > 0
        assert reg["counter_sum.inspector_runs"] == 2
        assert reg["counter_sum.schedule_cache_disk_stores"] == 2

    def test_close_fails_unrun_jobs(self, tmp_path):
        server = JobServer(2)
        # never started: the queued job cannot run
        fut = server.submit("jacobi", JACOBI)
        server.close()
        with pytest.raises(KaliError, match="server closed"):
            fut.result(timeout=5)

    def test_bad_max_batch_rejected(self):
        with pytest.raises(KaliError):
            JobServer(2, max_batch=0)


@pytest.fixture
def live_server(tmp_path):
    """A JobServer answering on a unix socket, torn down via ``stop``."""
    socket_path = str(tmp_path / "serve.sock")
    server = JobServer(2, cache_dir=str(tmp_path / "cache"),
                       metrics_dir=str(tmp_path / "metrics"))
    thread = threading.Thread(
        target=serve_async, args=(server, socket_path), daemon=True,
    )
    thread.start()
    client = ServeClient(socket_path, timeout=120)
    for _ in range(200):  # wait for the socket to bind
        try:
            client.request("ping")
            break
        except (FileNotFoundError, ConnectionRefusedError, KaliError):
            time.sleep(0.05)
    else:
        pytest.fail("server socket never came up")
    yield socket_path, client
    client.request("stop")
    thread.join(30)
    assert not thread.is_alive()


class TestSocketFront:
    def test_protocol_round_trip(self, live_server):
        _, client = live_server
        pong = client.request("ping")
        assert pong["ok"] and pong["nranks"] == 2

        first = client.request("submit", kind="jacobi", spec=JACOBI)
        assert first["ok"] and first["job"]["inspector_runs"] == 2

        queued = client.request("submit", kind="jacobi", spec=JACOBI,
                                wait=False)
        assert queued == {"ok": True, "queued": True}
        drained = client.request("drain", timeout=120)
        assert drained["ok"] and drained["jobs_done"] == 2

        stat = client.request("stat")["stat"]
        assert stat["jobs_done"] == 2
        assert stat["disk_cache"]["disk_hits"] == 2  # second job warm

        unknown = client.request("frobnicate")
        assert not unknown["ok"] and "unknown command" in unknown["error"]

    def test_submit_error_reported_not_fatal(self, live_server):
        _, client = live_server
        bad = client.request("submit", kind="no-such-kind")
        assert not bad["ok"] and "unknown job kind" in bad["error"]
        assert client.request("ping")["ok"]  # still serving

    def test_unknown_kind_reply_is_structured(self, live_server):
        # Regression: an unknown kind used to surface as a stringified
        # exception; it must be a machine-readable rejection naming the
        # offending kind and what *is* registered.
        _, client = live_server
        bad = client.request("submit", kind="no-such-kind")
        assert bad["unknown_kind"] is True
        assert bad["kind"] == "no-such-kind"
        assert "jacobi" in bad["registered"]
        assert "dht_build" in bad["registered"]
        # A submit with no kind at all gets the same structured shape,
        # not a raw KeyError.
        missing = client.request("submit")
        assert not missing["ok"] and missing["unknown_kind"] is True
        assert missing["kind"] is None and "error" in missing
        assert client.request("ping")["ok"]  # still serving


class TestCli:
    def test_submit_stat_via_cli(self, live_server, capsys):
        socket_path, _ = live_server
        rc = serve_main([
            "submit", "--socket", socket_path,
            "--kind", "jacobi", "--spec", json.dumps(JACOBI),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[jacobi] ok" in out and "inspector_runs=2" in out

        rc = serve_main(["stat", "--socket", socket_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nranks=2" in out and "pool: warm=True" in out

        rc = serve_main(["ping", "--socket", socket_path, "--json"])
        out = capsys.readouterr().out
        assert rc == 0 and json.loads(out)["ok"] is True

    def test_cli_failure_exit_code(self, live_server, capsys):
        socket_path, _ = live_server
        rc = serve_main([
            "submit", "--socket", socket_path, "--kind", "kali",
            "--spec", '{"source": 5}',
        ])
        capsys.readouterr()
        assert rc == 1


@pytest.mark.parametrize("case", ["c-contiguous", "strided", "0-d", "bool"])
def test_solution_digest_is_the_sha256_of_the_c_order_bytes(case):
    """``_sha256`` hashes the buffer in place; the digest is the one of
    the ``tobytes()`` copy it used to hash."""
    grid = np.arange(24.0).reshape(4, 6)
    arr = {"c-contiguous": grid, "strided": grid[::2, 1::3],
           "0-d": np.array(-0.0), "bool": grid > 7.5}[case]
    assert _sha256(arr) == hashlib.sha256(arr.tobytes()).hexdigest()
