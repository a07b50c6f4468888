"""Persistent store of learned layout plans (format ``repro-tuneplan-v1``).

The adaptive tuner pays for its learning: profiling sweeps under the bad
layout, then a redistribution.  A :class:`PlanStore` makes that a
one-time cost per *job kind* — when a run's tuner lands on a winning
layout, the plan is persisted under a content-addressed fingerprint of
the job's declarations, and the next job with the same fingerprint
starts directly in the learned layout (zero mid-run moves).

Fingerprint
-----------
Same philosophy as the schedule disk cache
(:mod:`repro.serve.diskcache`): hash exactly what the learned layout is
a function of —

* the format tag (bump to invalidate the world),
* the processor count,
* every declared array's name, global shape, dtype, and distribution
  clause (dim kinds plus layout parameters, so a ``Custom`` initial
  layout is part of the identity),
* the **global content fingerprint of integer-dtype arrays** — the
  indirection tables and counts whose values determine the communication
  pattern.  Float payloads (solution vectors, coefficients) don't affect
  which layout wins, so they stay out of the key and repeat jobs with
  different data still warm-start.

The fingerprint is taken from the declarations *as submitted*, before
any learned layout is applied — that ordering (memoize, then apply) is
what makes job 2 hash to job 1's key.

Storage and concurrent writers
------------------------------
An uncapped :class:`~repro.util.store.EntryStore` (its module docstring
states the stamp, memo, atomic-store and compare-and-swap rules).  Two
writers can race on one fingerprint file — a shard storing back a
layout its run just learned, and the autopilot hot-swapping a plan it
promoted through A/B — so the autopilot stores with ``expect=stamp``:
a lost race is re-read and re-decided, never silently clobbered.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Dict, List, Optional

import numpy as np

from repro.distributions.base import DimDistribution
from repro.distributions.block import Block
from repro.distributions.block_cyclic import BlockCyclic
from repro.distributions.custom import Custom
from repro.distributions.cyclic import Cyclic
from repro.distributions.multidim import ArrayDistribution
from repro.distributions.replicated import Replicated
from repro.util.store import EntryStore, _hash_update_str

TUNEPLAN_FORMAT = "repro-tuneplan-v1"


def context_fingerprint(ctx) -> str:
    """Content-addressed identity of a job's declarations (see module doc).

    ``ctx`` is a :class:`~repro.core.context.KaliContext`; must be called
    before any learned layout is applied to it.
    """
    h = hashlib.sha256()
    _hash_update_str(h, TUNEPLAN_FORMAT)
    h.update(struct.pack("<q", ctx.procs.size))
    for name in sorted(ctx.arrays):
        darr = ctx.arrays[name]
        _hash_update_str(h, f"array({name})")
        _hash_update_str(h, repr(tuple(darr.shape)))
        _hash_update_str(h, str(darr.dtype))
        for dim in darr.dist.dims:
            _hash_update_str(h, dim.kind)
            for p in dim._layout_params():
                h.update(p if isinstance(p, bytes) else str(p).encode())
        if np.issubdtype(darr.dtype, np.integer):
            _hash_update_str(h, darr.content_fingerprint())
    return h.hexdigest()


# --- layout documents ------------------------------------------------------


def layout_to_spec(layout: Dict) -> DimDistribution:
    """Rebuild the distribution object a layout document describes."""
    kind = layout.get("kind")
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic()
    if kind == "block_cyclic":
        return BlockCyclic(int(layout["param"]))
    return Custom(np.asarray(layout["owners"], dtype=np.int64))


def plan_from_layouts(
    arrays: List[str],
    layout: Dict,
    key: Optional[str] = None,
    meta: Optional[Dict] = None,
) -> Dict:
    """Assemble a storable plan document from a tuner's winning layout."""
    return {
        "format": TUNEPLAN_FORMAT,
        "key": key,
        "arrays": list(arrays),
        "layout": dict(layout),
        "meta": dict(meta or {}),
    }


def apply_plan(ctx, plan: Dict) -> List[str]:
    """Install a learned plan's layout on a context's declared arrays.

    Driver-side analogue of the program-side ``redistribute``: rebinds
    each named array's first-dimension distribution before scatter, so
    the run *starts* in the learned layout.  Arrays the plan names but
    the context lacks are skipped (a plan never breaks a job); returns
    the names actually re-laid-out.
    """
    spec_doc = plan["layout"]
    applied: List[str] = []
    for name in plan.get("arrays", []):
        darr = ctx.arrays.get(name)
        if darr is None:
            continue
        dist = darr.dist
        if dist.proc_dim_of[0] is None:
            continue  # replicated first dim: nothing to lay out
        if any(p is not None for p in dist.proc_dim_of[1:]):
            continue  # plans describe one distributed dimension
        trailing = [Replicated() for _ in dist.dims[1:]]
        darr.dist = ArrayDistribution(
            dist.shape, [layout_to_spec(spec_doc)] + trailing, dist.procs
        )
        applied.append(name)
    return applied


# --- the store -------------------------------------------------------------


class PlanStore(EntryStore):
    """One directory of content-addressed tune-plan entries: JSON
    documents in an uncapped :class:`~repro.util.store.EntryStore`.

    Entries are small (an owner map at most), human-inspectable, and
    shared freely between processes.  Writers that can *disagree* (a
    shard's store-back vs. the autopilot's promotion) coordinate through
    the store's stamped compare-and-swap (see module docstring).
    """

    def __init__(self, path):
        super().__init__(
            path, TUNEPLAN_FORMAT, ".tuneplan",
            dumps=lambda doc: json.dumps(doc).encode(),
            loads=json.loads,
            valid=lambda doc: isinstance(doc.get("layout"), dict),
        )
