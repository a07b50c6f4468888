"""The structs op stream, pinned to the bit on both routing modes.

``tests/test_local_store.py`` pins what the owner side yields, and the
sim↔mp differentials compare two backends of the same code; neither
notices when a change to the routing moves virtual time on *both*.
This file runs the DHash op sequence of ``test_local_store._pinned_ops``
in the combining and the naive (``combine=False``) mode, and the DQueue
sequence of ``test_structs._drive_dqueue``, at P=4 (crystal router) and
P=3 (pairwise ``alltoall``), and holds each merged run to a golden
recorded before the structures shared one owner round trip: per rank,
the hex clock, the message and byte totals, and a digest of the
counters and hex phase times; per scenario, digests of every op's
clocks, of the replies and of the final snapshot.

Re-pin after an *intended* change with
``PYTHONPATH=src python -m tests.test_structs_golden``, which prints a
fresh table.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np
import pytest

from repro.structs import DHash, DQueue, merge_results
from tests.test_local_store import _pinned_ops

pytestmark = pytest.mark.timeout(300)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _arrays_digest(arrays: List[np.ndarray]) -> str:
    parts: List = []
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        parts += [arr.dtype.str, arr.shape, arr.tobytes()]
    return _digest(*parts)


def _dhash_run(nranks: int, combine: bool):
    table = DHash(nranks, nbuckets=5)
    replies = []
    for op, keys, vals in _pinned_ops():
        args = (keys,) if vals is None else (keys, vals)
        out = getattr(table, op + "_many")(*args, combine=combine)
        replies += [out.found, out.values]
    return table, replies


def _dqueue_run(nranks: int):
    rng = np.random.default_rng(13)
    queue = DQueue(nranks)
    replies = []
    queue.push_many(rng.standard_normal(60))
    replies.append(queue.pop_many(25))
    queue.push_many(rng.standard_normal(40))
    replies.append(queue.pop_many(50))
    return queue, replies


SCENARIOS = {
    "dhash-combine-p4": lambda: _dhash_run(4, True),
    "dhash-naive-p4": lambda: _dhash_run(4, False),
    "dqueue-p4": lambda: _dqueue_run(4),
    "dhash-combine-p3": lambda: _dhash_run(3, True),
    "dhash-naive-p3": lambda: _dhash_run(3, False),
    "dqueue-p3": lambda: _dqueue_run(3),
}


def observe(name: str) -> Dict:
    """The pinned record of one scenario."""
    handle, replies = SCENARIOS[name]()
    merged = merge_results(handle.op_results)
    ranks = []
    for r, stats in enumerate(merged.stats):
        ranks.append((
            float(merged.clocks[r]).hex(),
            stats.messages_sent, stats.messages_received,
            stats.bytes_sent, stats.bytes_received,
            _digest(sorted((k, int(v)) for k, v in stats.counters.items()),
                    sorted((k, float(v).hex())
                           for k, v in stats.phase_time.items())),
        ))
    snapshot = handle.snapshot()
    return {
        "ranks": ranks,
        "ops": _digest([[float(c).hex() for c in res.clocks]
                        for res in handle.op_results]),
        "replies": _arrays_digest(replies),
        "snapshot": _arrays_digest([snapshot[k] for k in sorted(snapshot)]),
    }


# Recorded at the tree whose DHash and DQueue each spelled out their own
# request / apply / reply hops.
GOLDEN = {
    "dhash-combine-p4": {
        "ranks": [
            ('0x1.d0c3d25247cb8p-5', 32, 32, 13260, 13412, '5c9a640abde4ba80'),
            ('0x1.d44adaefa53f0p-5', 32, 32, 13048, 13028, '1577a28d1d44e555'),
            ('0x1.d10bf6ae47a68p-5', 32, 32, 12878, 12853, '6093f8c16f0bde00'),
            ('0x1.d494416b045b0p-5', 32, 32, 12621, 12514, '6c8971221cfa0fba'),
        ],
        "ops": "ab325452f48eaecd",
        "replies": "5499270c0df62194",
        "snapshot": "d71b3e790f49a4d0",
    },
    "dhash-naive-p4": {
        "ranks": [
            ('0x1.d593cb237f60ep-2', 468, 468, 44224, 43864, '7601498ff96edf1e'),
            ('0x1.d731c574e9b6cp-2', 468, 468, 39308, 40120, 'b8765d460c4feb06'),
            ('0x1.d59e477e43d2ap-2', 468, 468, 44350, 43941, 'fa08dd8f5093aa1b'),
            ('0x1.d738532da47dep-2', 468, 468, 39837, 39794, '13a5c930a42d72f3'),
        ],
        "ops": "449b93b59d2743c9",
        "replies": "5499270c0df62194",
        "snapshot": "d71b3e790f49a4d0",
    },
    "dqueue-p4": {
        "ranks": [
            ('0x1.143ccde6a8402p-6', 12, 12, 3696, 3704, 'c6694b57d6e628b5'),
            ('0x1.1508a5c0ef48fp-6', 12, 12, 3704, 3704, 'e949dc4563602e9d'),
            ('0x1.143ccde6a8402p-6', 12, 12, 3664, 3656, '8ef08d1d281c0aa4'),
            ('0x1.1508a5c0ef490p-6', 12, 12, 3664, 3664, '31bef66a2fb2fbf8'),
        ],
        "ops": "2742aa820d9c9aae",
        "replies": "adf01e3a4097090c",
        "snapshot": "2df00cbae6e45f30",
    },
    "dhash-combine-p3": {
        "ranks": [
            ('0x1.6c10ca529f095p-5', 32, 32, 7382, 7279, 'c02e502ba73643e9'),
            ('0x1.6a14057082492p-5', 29, 29, 7940, 8062, '90ab56ac990cafa0'),
            ('0x1.7278c3603c80cp-5', 29, 29, 8160, 8141, '4e3b04d884a4f53c'),
        ],
        "ops": "b998109cfa4a287a",
        "replies": "5499270c0df62194",
        "snapshot": "1479c6fa04b9669a",
    },
    "dhash-naive-p3": {
        "ranks": [
            ('0x1.044f92e54a718p-1', 618, 618, 29110, 29071, '507428530130d842'),
            ('0x1.03f5d78811b16p-1', 609, 609, 36532, 35822, 'cc7e3ecc11e038d1'),
            ('0x1.047c23670d54cp-1', 609, 609, 37648, 38397, '99debe8a16e62b12'),
        ],
        "ops": "407eef758378ca6f",
        "replies": "5499270c0df62194",
        "snapshot": "1479c6fa04b9669a",
    },
    "dqueue-p3": {
        "ranks": [
            ('0x1.a6937d1fe64f4p-7', 12, 12, 2048, 2056, 'fd94331288c0fa64'),
            ('0x1.a55d1c3ac929ap-7', 12, 12, 2032, 2032, 'c3453514fb210714'),
            ('0x1.a3ef5df14cdeep-7', 12, 12, 2008, 2000, '262ab7a70c88600e'),
        ],
        "ops": "62d00df263fa5a92",
        "replies": "adf01e3a4097090c",
        "snapshot": "095114fd7365bc18",
    },
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_structs_op_stream_is_pinned(name):
    assert observe(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in SCENARIOS:
        record = observe(name)
        print(f'    "{name}": {{\n        "ranks": [')
        for row in record.pop("ranks"):
            print(f"            {row!r},")
        print("        ],")
        for key, value in record.items():
            print(f'        "{key}": "{value}",')
        print("    },")
