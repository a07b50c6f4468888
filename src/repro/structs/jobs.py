"""Serve job kinds for the distributed structures.

Registered on import (the bottom of :mod:`repro.serve.server` imports
this module), these kinds put *irregular* traffic through the fleet for
the first time — hash-distributed key batches instead of mesh halos:

* ``dht_build`` — build a seeded DHash on the shard's warm pool with
  batched inserts (rebalances included) and report a content hash of the
  canonical snapshot, so identical specs are byte-comparable across
  shards, backends, and retries.
* ``dht_lookup`` — build-or-reuse that table, then run batched lookups.
  The built table is cached **on the shard** keyed by its build
  fingerprint, in an LRU of ``TABLE_CACHE_CAP`` tables so a long-running
  server does not keep every spec it ever saw; because the router sends
  identical specs to the same shard, the second identical job finds the
  table warm (``table_reused``) and pays for lookups only.
* ``queue_stream`` — stream pushes/pops through a DQueue and verify the
  global FIFO order against a sequential reference, in-job.
* ``dht_wordcount`` — the end-to-end example: token counts accumulated
  with ``add_many``, read back with one batched lookup
  (``examples/dht_wordcount.py`` drives this through the front end).

Failure behavior: DHash/DQueue state lives in the *driver* (here: the
runner, on the server process), and each batched op lands atomically —
a pool crash mid-op leaves the structure exactly as it was before the
op, the shard condemns its mesh, and the retry replays the job's ops
from scratch on a surviving shard.  Only fully-built tables enter the
shard cache, so retries never see half-built state.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import KaliError
from repro.machine.stats import RunResult
from repro.structs.dhash import DHash
from repro.structs.dqueue import DQueue
from repro.structs.hashing import key_of_text
from repro.util.store import LRU

#: built tables a shard keeps warm for ``dht_lookup`` (LRU by last use)
TABLE_CACHE_CAP = 8


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _build_keys(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded (unique) key/value sets every dht job family shares."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(4 * n)[:n].astype(np.int64)
    vals = rng.standard_normal(n)
    return keys, vals


def _build_table(shard, spec: Dict[str, Any]) -> Tuple[DHash, Dict[str, Any]]:
    n = int(spec.get("n", 512))
    nbuckets = int(spec.get("nbuckets", 17))
    seed = int(spec.get("seed", 12345))
    batches = max(int(spec.get("batches", 4)), 1)
    if n < 1:
        raise KaliError(f"dht jobs need n >= 1, got {n}")
    table = DHash(shard.nranks, nbuckets=nbuckets, machine=shard.machine,
                  pool=shard.pool)
    keys, vals = _build_keys(n, seed)
    for lo in range(0, n, -(-n // batches)):
        hi = min(lo + -(-n // batches), n)
        table.insert_many(keys[lo:hi], vals[lo:hi])
    snap = table.snapshot()
    summary = {
        "entries": len(table),
        "nbuckets": table.nbuckets,
        "rebalances": table.rebalances,
        "snapshot_sha256": _sha(snap["keys"], snap["values"],
                                snap["buckets"], snap["owners"]),
    }
    return table, summary


def _table_fingerprint(shard, spec: Dict[str, Any]) -> str:
    raw = (f"{shard.nranks}:{int(spec.get('n', 512))}:"
           f"{int(spec.get('nbuckets', 17))}:{int(spec.get('seed', 12345))}:"
           f"{int(spec.get('batches', 4))}")
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def run_dht_build(shard, spec: Dict[str, Any]) -> Tuple[RunResult, Dict]:
    table, summary = _build_table(shard, spec)
    return table.merged_result(), summary


def run_dht_lookup(shard, spec: Dict[str, Any]) -> Tuple[RunResult, Dict]:
    fingerprint = _table_fingerprint(shard, spec)
    cache = getattr(shard, "structs_tables", None)
    if cache is None:
        cache = shard.structs_tables = LRU(TABLE_CACHE_CAP)
    table = cache.get(fingerprint)
    reused = table is not None
    build_summary: Dict[str, Any] = {}
    if table is None:
        table, build_summary = _build_table(shard, spec)
        cache[fingerprint] = table
    else:
        table.reset_results()

    n = int(spec.get("n", 512))
    seed = int(spec.get("seed", 12345))
    lookups = int(spec.get("lookups", n))
    lookup_seed = int(spec.get("lookup_seed", seed + 1))
    keys, _ = _build_keys(n, seed)
    rng = np.random.default_rng(lookup_seed)
    probe = keys[rng.integers(0, n, size=lookups)]
    got = table.lookup_many(probe)
    if not got.found.all():
        raise KaliError(
            f"dht_lookup: {int((~got.found).sum())} of {lookups} probes "
            f"missed keys that were inserted")
    summary = {
        "table_fingerprint": fingerprint,
        "table_reused": reused,
        "lookups": lookups,
        "values_sha256": _sha(got.values),
        **build_summary,
    }
    return table.merged_result(), summary


def run_queue_stream(shard, spec: Dict[str, Any]) -> Tuple[RunResult, Dict]:
    n = int(spec.get("n", 256))
    chunk = max(int(spec.get("chunk", 32)), 1)
    seed = int(spec.get("seed", 12345))
    if n < 1:
        raise KaliError(f"queue_stream needs n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    queue = DQueue(shard.nranks, machine=shard.machine, pool=shard.pool)
    popped: List[np.ndarray] = []
    lo = 0
    while lo < n or len(queue):
        if lo < n:
            hi = min(lo + chunk, n)
            queue.push_many(values[lo:hi])
            lo = hi
        take = min(len(queue), max(chunk // 2, 1)) if lo < n else len(queue)
        if take:
            popped.append(queue.pop_many(take))
    streamed = np.concatenate(popped)
    fifo_ok = bool(np.array_equal(streamed, values))
    if not fifo_ok:
        raise KaliError("queue_stream: pop order diverged from the "
                        "sequential FIFO reference")
    summary = {
        "n": n, "chunk": chunk, "fifo_ok": fifo_ok,
        "stream_sha256": _sha(streamed),
    }
    return queue.merged_result(), summary


_TOKEN = re.compile(r"[a-z0-9']+")


def run_dht_wordcount(shard, spec: Dict[str, Any]) -> Tuple[RunResult, Dict]:
    text = spec.get("text")
    if not isinstance(text, str) or not text.strip():
        raise KaliError("dht_wordcount jobs need a non-empty 'text' string")
    top = int(spec.get("top", 10))
    batch = max(int(spec.get("batch", 256)), 1)
    nbuckets = int(spec.get("nbuckets", 17))
    tokens = _TOKEN.findall(text.lower())
    token_keys = {tok: key_of_text(tok) for tok in set(tokens)}

    table = DHash(shard.nranks, nbuckets=nbuckets, machine=shard.machine,
                  pool=shard.pool)
    keys = np.asarray([token_keys[tok] for tok in tokens], dtype=np.int64)
    for lo in range(0, len(keys), batch):
        chunk = keys[lo:lo + batch]
        table.add_many(chunk, np.ones(len(chunk)))

    uniq = sorted(token_keys)  # deterministic probe order
    probe = np.asarray([token_keys[tok] for tok in uniq], dtype=np.int64)
    got = table.lookup_many(probe)
    counts = {tok: int(got.values[i]) for i, tok in enumerate(uniq)}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    summary = {
        "total_tokens": len(tokens),
        "unique_tokens": len(uniq),
        "rebalances": table.rebalances,
        "nbuckets": table.nbuckets,
        "top": [[tok, cnt] for tok, cnt in ranked[:top]],
    }
    return table.merged_result(), summary


def _register() -> None:
    from repro.serve.server import register_job_kind

    register_job_kind("dht_build", run_dht_build)
    register_job_kind("dht_lookup", run_dht_lookup)
    register_job_kind("queue_stream", run_queue_stream)
    register_job_kind("dht_wordcount", run_dht_wordcount)


_register()
