"""Protocol tests for the asyncio front end.

The front end shares :meth:`JobServer.handle_request` with the blocking
front, so most protocol semantics are pinned elsewhere; what these tests
own is the async-specific surface: many clients multiplexed on one event
loop, submits awaited without a thread per connection, structured SHED
replies, malformed-input robustness, and clean shutdown (socket file
gone, loop exited, fleet closed).
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.serve.frontend import serve_async
from repro.serve.router import route_key
from repro.serve.server import JobServer, ServeClient


def _serve(server, sock):
    """Run ``server`` behind the asyncio front on ``sock``; returns the
    front's thread and a client once it answers pings."""
    thread = threading.Thread(target=serve_async, args=(server, sock),
                              daemon=True)
    thread.start()
    client = ServeClient(sock, timeout=120.0)
    for _ in range(200):
        try:
            client.request("ping")
            break
        except (FileNotFoundError, ConnectionRefusedError, OSError):
            time.sleep(0.05)
    else:
        pytest.fail("async front end never came up")
    return thread, client


def _stop(thread, client):
    try:
        client.request("stop")
    except Exception:
        pass
    thread.join(60)
    assert not thread.is_alive()


@pytest.fixture()
def fleet(tmp_path):
    sock = str(tmp_path / "front.sock")
    server = JobServer(2, shards=2, max_pending=64)
    thread, client = _serve(server, sock)
    yield server, client, sock
    _stop(thread, client)


def test_ping_reports_fleet_shape(fleet):
    _, client, _ = fleet
    reply = client.request("ping")
    assert reply["ok"] and reply["nranks"] == 2 and reply["shards"] == 2


def test_submit_roundtrip_and_record_fields(fleet):
    _, client, _ = fleet
    reply = client.request("submit", kind="jacobi",
                           spec={"rows": 8, "sweeps": 2}, tenant="t1")
    assert reply["ok"]
    job = reply["job"]
    assert job["tenant"] == "t1"
    assert job["shard"].startswith("shard-")
    assert job["retries"] == 0
    assert "solution_sha256" in job["summary"]


def test_many_clients_multiplex_on_one_loop(fleet):
    _, client, _ = fleet
    results, errors = [], []

    def one(i):
        try:
            conn = client.connect()
            try:
                for j in range(3):
                    reply = conn.request(
                        "submit", kind="jacobi",
                        spec={"rows": 8 + i % 2, "sweeps": 1, "seed": j})
                    assert reply["ok"], reply
                    results.append(reply["job"]["id"])
            finally:
                conn.close()
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors
    assert len(results) == 18
    assert len(set(results)) == 18  # every submit got its own job


def test_shed_reply_is_structured(fleet):
    server, client, _ = fleet
    server.tenants["meek"] = {"quota": 0}
    reply = client.request("submit", kind="jacobi", spec={"rows": 8},
                           tenant="meek")
    assert reply["ok"] is False
    assert reply["shed"] is True
    assert reply["reason"] == "tenant-quota"
    assert reply["tenant"] == "meek"
    assert reply["limit"] == 0


def test_scale_and_stat_through_the_front(fleet):
    _, client, _ = fleet
    assert client.request("scale", shards=3)["shards"] == 3
    stat = client.request("stat")["stat"]
    assert [e["name"] for e in stat["shards"]] == \
        ["shard-0", "shard-1", "shard-2"]
    assert client.request("scale", shards=2)["shards"] == 2
    metrics = client.request("metrics")["metrics"]
    assert metrics["serve.shards"] == 2


def test_scale_retiring_a_busy_shard_keeps_the_loop_serving(tmp_path):
    # Regression: ``scale`` ran on the event loop, and retiring a shard
    # waits for its in-flight job, so every other client froze behind it.
    started, release = threading.Event(), threading.Event()

    def hold(job, shard):
        if shard.name == "shard-1":
            started.set()
            release.wait(60)

    server = JobServer(2, shards=2, chaos_hook=hold)
    # scale retires the youngest shard: route the held job there
    spec = next({"rows": 8, "sweeps": 1, "seed": seed} for seed in range(64)
                if server.shard_for(route_key("jacobi", {
                    "rows": 8, "sweeps": 1, "seed": seed})).name == "shard-1")
    thread, client = _serve(server, str(tmp_path / "scale.sock"))
    scaled = []
    scaler = threading.Thread(
        target=lambda: scaled.append(client.request("scale", shards=1)))
    try:
        assert client.request("submit", kind="jacobi", spec=spec,
                              wait=False)["queued"]
        assert started.wait(60), "the held job never started"
        scaler.start()
        deadline = time.monotonic() + 30
        while "shard-1" in server.router.shards:  # scale is now pending
            assert time.monotonic() < deadline, "scale never began"
            time.sleep(0.01)
        t0 = time.monotonic()
        assert ServeClient(client.socket_path, timeout=0.5) \
            .request("ping")["ok"]
        assert time.monotonic() - t0 < 0.5
        assert scaler.is_alive(), "scale returned before the job ended"
    finally:
        release.set()
        if scaler.is_alive():
            scaler.join(60)
        _stop(thread, client)
    assert scaled == [{"ok": True, "shards": 1}]


def test_malformed_and_unknown_requests_keep_the_connection(fleet):
    _, client, sock = fleet
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(30)
    raw.connect(sock)
    with raw, raw.makefile("rw", encoding="utf-8") as fh:
        fh.write("this is not json\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["ok"] is False and "JSONDecodeError" in reply["error"]
        fh.write(json.dumps({"cmd": "no-such-cmd"}) + "\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["ok"] is False and "unknown command" in reply["error"]
        # The connection survived both errors.
        fh.write(json.dumps({"cmd": "ping"}) + "\n")
        fh.flush()
        assert json.loads(fh.readline())["ok"]


def test_unknown_kind_structured_over_async_front(fleet):
    # Regression: the asyncio front must return the same structured
    # unknown-kind rejection as the blocking front, not a stringified
    # exception from the generic error wrapper.
    _, client, _ = fleet
    bad = client.request("submit", kind="no-such-kind")
    assert bad["ok"] is False and bad["unknown_kind"] is True
    assert bad["kind"] == "no-such-kind"
    assert "jacobi" in bad["registered"]
    missing = client.request("submit")
    assert missing["ok"] is False and missing["unknown_kind"] is True
    assert missing["kind"] is None
    assert client.request("ping")["ok"]


def test_stop_tears_everything_down(tmp_path):
    sock = str(tmp_path / "down.sock")
    server = JobServer(2, shards=2)
    thread = threading.Thread(target=serve_async, args=(server, sock),
                              daemon=True)
    thread.start()
    client = ServeClient(sock, timeout=60.0)
    for _ in range(200):
        try:
            client.request("ping")
            break
        except (FileNotFoundError, ConnectionRefusedError, OSError):
            time.sleep(0.05)
    reply = client.request("stop")
    assert reply["ok"] and reply["stopping"]
    thread.join(60)
    assert not thread.is_alive()
    assert not os.path.exists(sock)
    # The fleet is closed: every queue refuses new work.
    assert all(s.queue.closed for s in server.shards)
