"""Array redistribution: changing a distribution at run time.

The paper defers "dynamic load balancing" to future work (§6); its
language already has everything needed except the data-motion primitive.
``redistribute`` is that primitive: an all-to-all exchange moving every
element of a distributed array from its current owner to its owner under
a new distribution pattern.

Both sides of the exchange are computed *symbolically* — distributions
are global knowledge, so rank ``p`` knows exactly which of its rows each
``q`` needs (``old_local(p) ∩ new_local(q)``) and which rows it will
receive (``new_local(p) ∩ old_local(q)``) without any negotiation
messages.  Costs are charged through the machine model: per-element
pack/unpack plus one message per communicating pair.

Redistribution invalidates every cached communication schedule that
references the array (the ``exec``/``ref`` sets all change); this is
tracked by the ``dist_version`` stamp on :class:`LocalArray`, which the
schedule cache validates alongside the data versions.
"""

from __future__ import annotations

import numpy as np

from repro.arrays.localview import LocalArray
from repro.distributions.base import DimDistribution
from repro.distributions.multidim import ArrayDistribution
from repro.distributions.replicated import Replicated
from repro.errors import DistributionError
from repro.machine.api import Compute, Count, Rank, Recv, Send, payload_nbytes

PHASE = "redistribute"
_REDIST_TAG_BASE = 1 << 19


def redistribute(
    rank: Rank,
    local: LocalArray,
    new_spec: DimDistribution,
    tag: int = 0,
    phase: str = PHASE,
) -> LocalArray:
    """Generator: move ``local`` to ``new_spec`` along its first dimension.

    Collective — every rank must call it with the same arguments.
    Returns the new :class:`LocalArray`; the old one must no longer be
    used.  The distributed dimension must map onto a 1-d processor array
    (the paper's evaluation configuration).
    """
    dist = local.dist
    if dist.procs.ndim != 1:
        raise DistributionError("redistribute supports 1-d processor arrays")
    if dist.proc_dim_of[0] is None:
        raise DistributionError(
            f"array {local.name!r} is replicated; only distributed arrays "
            "can be redistributed"
        )
    me, P = rank.id, rank.size
    m = rank.machine

    trailing = []
    for d, pdim in zip(dist.dims[1:], dist.proc_dim_of[1:]):
        if pdim is not None:
            raise DistributionError(
                "redistribute supports one distributed dimension"
            )
        trailing.append(Replicated())
    new_dist = ArrayDistribution(dist.shape, [new_spec] + trailing, dist.procs)
    old_dim = dist.dims[0]
    new_dim = new_dist.dims[0]

    row_elems = int(np.prod(local.data.shape[1:])) if local.data.ndim > 1 else 1
    t = _REDIST_TAG_BASE + tag

    # --- outgoing: my old rows grouped by their new owner -------------------
    my_rows = local.global_rows
    new_owners = np.asarray(new_dim.owner(my_rows)) if my_rows.size else \
        np.empty(0, dtype=np.int64)

    # --- allocate and place the rows that stay local --------------------------
    new_shape = (new_dim.local_count(me),) + local.data.shape[1:]
    new_data = np.zeros(new_shape, dtype=local.data.dtype)
    keep = new_owners == me
    if keep.any():
        kept_rows = my_rows[keep]
        new_data[np.asarray(new_dim.to_local(kept_rows))] = local.data[
            np.asarray(old_dim.to_local(kept_rows))
        ]
        yield Compute(m.copy_elem * int(keep.sum()) * row_elems, phase=phase)

    # --- send to every new owner that needs some of my rows -------------------
    send_targets = np.unique(new_owners[~keep]) if (~keep).any() else []
    for q in send_targets:
        mask = new_owners == q
        rows = my_rows[mask]
        payload = local.data[np.asarray(old_dim.to_local(rows))]
        yield Compute(m.copy_elem * rows.size * row_elems, phase=phase)
        yield Send(dest=int(q), payload=(rows, payload), tag=t, phase=phase,
                   label=local.name)
        yield Count("redistribute_elems_sent", int(rows.size))
        yield Count("redistribute_msgs", 1)
        yield Count("redistribute_bytes", payload_nbytes((rows, payload)))

    # --- receive from every old owner of my new rows --------------------------
    my_new = new_dim.local_indices(me)
    old_owners = np.asarray(old_dim.owner(my_new)) if my_new.size else \
        np.empty(0, dtype=np.int64)
    sources = [int(q) for q in np.unique(old_owners) if q != me]
    for q in sources:
        msg = yield Recv(source=q, tag=t, phase=phase, label=local.name)
        rows, payload = msg.payload
        new_data[np.asarray(new_dim.to_local(rows))] = payload
        yield Compute(m.copy_elem * rows.size * row_elems, phase=phase)

    out = LocalArray(local.name, me, new_dist, new_data, version=local.version)
    out.dist_version = local.dist_version + 1
    return out
