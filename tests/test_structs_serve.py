"""The structs job kinds through the serve tier.

The acceptance story: irregular DHash/DQueue traffic flows through the
sharded fleet exactly like the mesh workloads do — registered kinds,
content routing, per-job repro-run-v1 records — and the warm path holds:
on a 2-shard fleet, identical ``dht_lookup`` jobs land on the same shard
(rendezvous routing), find the table cached there (``table_reused``),
and replay with zero inspector runs after the first job.  Determinism
across jobs is pinned by snapshot hashes in the summaries.
"""

import numpy as np
import pytest

from repro.serve.server import JOB_KINDS, JobServer

pytestmark = pytest.mark.timeout(300)


def test_structs_kinds_registered():
    for kind in ("dht_build", "dht_lookup", "queue_stream", "dht_wordcount"):
        assert kind in JOB_KINDS


class TestDhtBuild:
    def test_build_reports_snapshot_hash_and_metrics(self, tmp_path):
        spec = {"n": 120, "nbuckets": 7, "batches": 3, "seed": 5}
        with JobServer(2, metrics_dir=str(tmp_path / "m")) as server:
            a = server.submit("dht_build", spec).result(timeout=120)
            b = server.submit("dht_build", spec).result(timeout=120)
        assert a["ok"] and b["ok"]
        assert a["summary"]["entries"] == 120
        assert a["summary"]["rebalances"] >= 1          # 120/7 >> max_load
        # Same spec, fresh table each time: byte-identical builds.
        assert a["summary"]["snapshot_sha256"] == b["summary"]["snapshot_sha256"]
        assert "metrics_file" in a

    def test_bad_spec_fails_cleanly(self):
        with JobServer(2) as server:
            rec = server.submit("dht_build", {"n": 0}).result(timeout=120)
        assert not rec["ok"] and "n >= 1" in rec["error"]


class TestDhtLookupWarmPath:
    def test_zero_reinspection_after_first_job_on_two_shards(self):
        # The acceptance criterion: a warm 2-shard fleet replays
        # identical dht_lookup jobs with no inspector activity and a
        # shard-cached table from job 2 on.
        spec = {"n": 150, "nbuckets": 31, "seed": 9, "lookups": 100}
        with JobServer(2, shards=2) as server:
            records = [
                server.submit("dht_lookup", spec).result(timeout=120)
                for _ in range(3)
            ]
        assert all(r["ok"] for r in records)
        shards = {r["shard"] for r in records}
        assert len(shards) == 1                  # rendezvous: same shard
        assert records[0]["summary"]["table_reused"] is False
        assert all(r["summary"]["table_reused"] is True for r in records[1:])
        # Structs ops never touch the inspector at all; the record field
        # must say so for every job, warm or cold.
        assert all(r["inspector_runs"] == 0 for r in records)
        # Replay determinism: every job read back the same values.
        hashes = {r["summary"]["values_sha256"] for r in records}
        assert len(hashes) == 1

    def test_preexisting_empty_cache_still_persists_tables(self):
        # Regression: `getattr(...) or {}` treated an empty cache dict
        # as missing and built each table into a fresh orphan dict that
        # never landed on the shard — reuse silently disabled forever on
        # any shard whose cache was left empty (e.g. after a crashed
        # build).
        from types import SimpleNamespace

        from repro.machine.cost import NCUBE7
        from repro.structs.jobs import run_dht_lookup

        shard = SimpleNamespace(nranks=2, machine=NCUBE7, pool=None,
                                structs_tables={})
        spec = {"n": 40, "nbuckets": 17, "lookups": 20}
        _, first = run_dht_lookup(shard, spec)
        assert first["table_reused"] is False
        assert shard.structs_tables          # the build landed on the shard
        _, second = run_dht_lookup(shard, spec)
        assert second["table_reused"] is True

    def test_shard_table_cache_is_a_capped_lru(self):
        from types import SimpleNamespace

        from repro.machine.cost import NCUBE7
        from repro.structs.jobs import TABLE_CACHE_CAP, run_dht_lookup

        # No structs_tables attribute yet, like the benchmark's sim shard.
        shard = SimpleNamespace(nranks=2, machine=NCUBE7, pool=None)
        specs = [{"n": 16, "nbuckets": 5, "seed": s, "lookups": 8}
                 for s in range(TABLE_CACHE_CAP + 1)]
        prints = [run_dht_lookup(shard, spec)[1]["table_fingerprint"]
                  for spec in specs]
        cache = shard.structs_tables
        assert len(cache) == TABLE_CACHE_CAP
        assert prints[0] not in cache                  # oldest evicted
        assert all(fp in cache for fp in prints[1:])
        result, again = run_dht_lookup(shard, specs[1])
        assert again["table_reused"] is True
        assert result.counter_sum("inspector_runs") == 0
        # The repeat refreshed specs[1]; the next build evicts specs[2].
        assert run_dht_lookup(shard, specs[0])[1]["table_reused"] is False
        assert prints[1] in cache and prints[2] not in cache

    def test_different_specs_get_different_tables(self):
        with JobServer(2) as server:
            a = server.submit("dht_lookup", {"n": 60, "seed": 1}) \
                .result(timeout=120)
            b = server.submit("dht_lookup", {"n": 60, "seed": 2}) \
                .result(timeout=120)
        assert a["ok"] and b["ok"]
        assert not a["summary"]["table_reused"]
        assert not b["summary"]["table_reused"]
        assert (a["summary"]["table_fingerprint"]
                != b["summary"]["table_fingerprint"])


class TestQueueStream:
    def test_stream_verifies_fifo_against_reference(self):
        with JobServer(2) as server:
            rec = server.submit("queue_stream",
                                {"n": 90, "chunk": 16}).result(timeout=120)
        assert rec["ok"] and rec["summary"]["fifo_ok"]
        assert rec["summary"]["n"] == 90


class TestWordcount:
    TEXT = ("to be or not to be that is the question "
            "whether tis nobler in the mind to suffer")

    def test_counts_match_python_reference(self):
        from collections import Counter
        reference = Counter(self.TEXT.split())
        with JobServer(2) as server:
            rec = server.submit("dht_wordcount",
                                {"text": self.TEXT, "top": 5,
                                 "batch": 8}).result(timeout=120)
        assert rec["ok"], rec
        top = {tok: cnt for tok, cnt in rec["summary"]["top"]}
        for tok, cnt in top.items():
            assert reference[tok] == cnt
        assert rec["summary"]["total_tokens"] == len(self.TEXT.split())
        assert top["to"] == 3 and top["be"] == 2

    def test_empty_text_rejected(self):
        with JobServer(2) as server:
            rec = server.submit("dht_wordcount",
                                {"text": "   "}).result(timeout=120)
        assert not rec["ok"] and "non-empty" in rec["error"]


class TestStructsMetrics:
    def test_structs_prefix_in_run_registry(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        from repro.structs import DHash, merge_results

        h = DHash(2, nbuckets=5)
        keys = np.arange(40, dtype=np.int64)
        h.insert_many(keys, np.ones(40))
        reg = MetricsRegistry.from_run(merge_results(h.op_results)).as_dict()
        assert reg["structs.items"] == 40        # slice sums = batch size
        assert reg["structs.batches"] == 2       # one op x two ranks
        assert reg["structs.exchanges"] > 0
        assert reg["structs.rebalances"] >= 1
        assert reg["structs.migrated_keys"] > 0
