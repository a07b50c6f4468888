"""The executor: run one forall under a communication schedule.

Follows the paper's Figure 3/6 structure exactly:

1. **send** every ``out(p,q)`` block to its requester,
2. **local iterations** — compute iterations whose references are all
   local, overlapping with message transit,
3. **receive** every ``in(p,q)`` block into the communication buffer,
4. **nonlocal iterations** — compute the rest (with the per-element
   locality test the paper notes is needed "because even within the same
   iteration of the forall, the reference old_a[adj[i,j]] may be
   sometimes local and sometimes nonlocal"),
5. commit writes (copy-in/copy-out: no write is visible to any read of
   this forall execution).

Host-side none of this is re-derived per execution.  On a schedule's
first execution :func:`compile_plan` flattens it into an
:class:`~repro.runtime.schedule.ExecPlan` — send-index vectors, receive
slices, one gather index per read and batch, write offsets — resolving
every remote element through the O(log r) translation table once; from
then on an execution is ``take`` → kernel → ``put``.  Virtual time is
charged from the plan's reference counts using the machine cost model,
so the simulated cost profile still matches the paper's per-element C
implementation, searches included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arrays.localview import LocalArray
from repro.comm.collectives import allreduce
from repro.core.forall import Forall, IndirectOperand
from repro.errors import InspectorError
from repro.machine.api import Compute, Count, Rank, Recv, Send
from repro.runtime.inspector import RefClass, classify, statically_local
from repro.runtime.schedule import (
    ArraySchedule,
    BatchPlan,
    CommSchedule,
    ExecPlan,
    Message,
)

PHASE = "executor"

# Tag space for executor data messages: disjoint from collective tags.
_EXEC_TAG_BASE = 1 << 16


def _positions(arr: LocalArray, asched: ArraySchedule, ref: RefClass):
    """Workspace positions of the references ``ref`` classifies (dead
    slots → the zero row) plus the local / remote live-reference counts.

    The owners come with ``ref``; remote rows go through the translation
    table here, once: a miss raises at compile time, and the virtual
    clock still charges the per-reference O(log r) search on every
    execution."""
    n_rows = arr.data.shape[0]
    dim0 = arr.dist.dims[0]
    elems, remote = ref.elems, ref.remote
    local = ~remote if ref.live is None else ref.live & ~remote
    pos = np.full(elems.shape, n_rows + asched.buffer_len, dtype=np.int64)
    pos[local] = dim0.to_local(elems[local])
    if remote.any():
        offs = np.asarray(dim0.to_local(elems[remote]))
        pos[remote] = n_rows + asched.translation.lookup(ref.owners[remote], offs)
    return pos, int(local.sum()), int(remote.sum())


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a plan array read-only (see ``BatchPlan``); returns it."""
    arr.flags.writeable = False
    return arr


def _compile_batch(forall: Forall, env: Dict[str, LocalArray],
                   schedule: CommSchedule, iters: np.ndarray,
                   refs: List[Optional[RefClass]],
                   aligned_writes: List[bool]) -> BatchPlan:
    # A read-only view: the kernel is handed these iters on every
    # execution, while the schedule's own array stays as it was.
    batch = BatchPlan(iters=_frozen(iters.view()))
    if iters.size == 0:
        return batch
    on_rows = None
    if any(ref is None for ref in refs) or any(aligned_writes):
        # Every reference on the on clause's own map and layout (the
        # reads the classification skipped, the aligned writes) is local
        # at the same offsets: one vector, shared by all of them.
        on_rows = _frozen(np.asarray(
            env[forall.on.array].to_local_rows(forall.on.fn(iters)), dtype=np.int64))
    for read, ref in zip(forall.reads, refs):
        counts = live = None
        if ref is None:
            pos, n_local, n_remote = on_rows, on_rows.size, 0
        else:
            pos, n_local, n_remote = _positions(
                env[read.array], schedule.arrays[read.array], ref)
            pos = _frozen(pos)
            if ref.live is not None:
                counts, live = _frozen(ref.counts), _frozen(ref.live)
        batch.gathers.append((pos, counts, live))
        batch.n_local += n_local
        batch.n_remote += n_remote
        if counts is not None:
            # Live elements of indirection reads: what ``flops_per_ref`` is
            # charged against (one multiply-add per mesh edge in the Jacobi
            # kernel, not per auxiliary coefficient read).
            batch.n_indirect += n_local + n_remote
    batch.targets = [on_rows if aligned
                     else _frozen(env[w.array].to_local_rows(w.fn(iters)))
                     for w, aligned in zip(forall.writes, aligned_writes)]
    return batch


def _batch_refs(forall: Forall, env: Dict[str, LocalArray],
                schedule: CommSchedule) -> List[List[Optional[RefClass]]]:
    """The classified references of ``exec_local`` and ``exec_nonlocal``:
    sliced out of the inspector's classification when the schedule
    carries one (which this consumes), else classified here."""
    handed, schedule.classification = schedule.classification, None
    if handed is None:
        return [classify(forall, env, iters).refs if iters.size else []
                for iters in (schedule.exec_local, schedule.exec_nonlocal)]
    return [[None if ref is None else ref.take(rows) for ref in handed.refs]
            for rows in (~handed.any_remote, handed.any_remote)]


def _messages(per_array: Dict[str, Dict[int, object]], combine: bool) -> List[Message]:
    """Group per-(array, peer) items into messages, in wire order: one
    per peer carrying every array's item (the paper's §3.3 combining; the
    array name is the "symbol field"), or one per (array, peer)."""
    order = sorted(per_array)
    if combine:
        peers = sorted({q for items in per_array.values() for q in items})
        return [(q, 0, {a: per_array[a][q] for a in order if q in per_array[a]})
                for q in peers]
    return [(q, a_idx, {a: per_array[a][q]})
            for a_idx, a in enumerate(order) for q in sorted(per_array[a])]


def compile_plan(forall: Forall, env: Dict[str, LocalArray],
                 schedule: CommSchedule) -> ExecPlan:
    """Flatten ``schedule`` into the index vectors an execution needs.

    All of the executor's index arithmetic lives here (and in the
    helpers above): local-offset lookups, translation-table searches and
    range-record walks happen once per schedule, not once per sweep.
    The owners of the references come with the inspector's
    classification; only a schedule without one (disk-loaded or closed
    form) has ``classify`` run here.
    """
    send_idx: Dict[str, Dict[int, np.ndarray]] = {}
    recv_at: Dict[str, Dict[int, Tuple[int, int]]] = {}
    for name, asched in schedule.arrays.items():
        n_rows = env[name].data.shape[0]
        send_idx[name] = {
            q: _frozen(np.concatenate([np.arange(r.low, r.high + 1)
                                       for r in asched.ranges_for_peer_out(q)]))
            for q in asched.peers_out()
        }
        recv_at[name] = {}
        for q in asched.peers_in():
            recs = asched.ranges_for_peer_in(q)
            count = sum(r.count for r in recs)
            if recs[-1].buffer_start + recs[-1].count - recs[0].buffer_start != count:
                raise InspectorError(
                    f"{forall.label}: blocks of {name} from {q} are not "
                    "contiguous in the receive buffer"
                )
            recv_at[name][q] = (n_rows + recs[0].buffer_start, count)
    local_refs, nonlocal_refs = _batch_refs(forall, env, schedule)
    aligned_writes = [statically_local(w, forall, env) for w in forall.writes]
    local = _compile_batch(forall, env, schedule, schedule.exec_local,
                           local_refs, aligned_writes)
    if local.n_remote:
        raise InspectorError(
            f"{forall.label}: schedule marked iterations local but "
            f"{local.n_remote} references resolve remotely (stale schedule?)"
        )
    nonlocal_ = _compile_batch(forall, env, schedule, schedule.exec_nonlocal,
                               nonlocal_refs, aligned_writes)
    # A workspace only where data lands past the local rows: a receive
    # buffer, or a gather that addresses the zero row.
    landing = {name for name, asched in schedule.arrays.items()
               if asched.buffer_len > 0}
    for batch in (local, nonlocal_):
        for read, (pos, _counts, _live) in zip(forall.reads, batch.gathers):
            if pos.size and pos.max() >= env[read.array].data.shape[0]:
                landing.add(read.array)
    return ExecPlan(
        sends=(_messages(send_idx, False), _messages(send_idx, True)),
        recvs=(_messages(recv_at, False), _messages(recv_at, True)),
        local=local,
        nonlocal_=nonlocal_,
        max_ranges=max(
            (schedule.arrays[r.array].num_in_ranges() for r in forall.reads),
            default=0,
        ),
        workspaces=tuple(name for name in schedule.arrays if name in landing),
    )


def _workspace(data: np.ndarray, pad: int) -> np.ndarray:
    """``[local rows ‖ pad zero rows]``: a copy of ``data`` with room for
    the receive buffer and the zero row dead indirection slots read."""
    n_rows = data.shape[0]
    out = np.empty((n_rows + pad,) + data.shape[1:], dtype=data.dtype)
    out[:n_rows] = data
    out[n_rows:] = 0
    return out


def _apply_kernel(
    forall: Forall,
    iters: np.ndarray,
    operands: Dict[str, object],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Run the kernel; returns ({array: values}, {reduction: contributions})."""
    result = forall.kernel(iters, operands)
    if not isinstance(result, dict):
        if len(forall.writes) != 1 or forall.reductions:
            raise InspectorError(
                f"{forall.label}: kernel must return a dict for multiple "
                "writes or reductions"
            )
        return {forall.writes[0].array: np.asarray(result)}, {}
    writes = {}
    for w in forall.writes:
        if w.array not in result:
            raise InspectorError(
                f"{forall.label}: kernel returned no values for {w.array}"
            )
        writes[w.array] = np.asarray(result[w.array])
    contribs = {}
    for spec in forall.reductions:
        if spec.name not in result:
            raise InspectorError(
                f"{forall.label}: kernel returned no contributions for "
                f"reduction {spec.name!r}"
            )
        contribs[spec.name] = np.asarray(result[spec.name])
    return writes, contribs


def run_executor(
    rank: Rank,
    forall: Forall,
    env: Dict[str, LocalArray],
    schedule: CommSchedule,
    tag_base: int,
    combine_messages: bool = True,
):
    """Generator: execute one forall under ``schedule``.

    ``tag_base`` must be identical on all ranks for this execution (the
    caller keeps a per-rank counter that stays synchronised because every
    rank executes the same forall sequence).

    ``combine_messages`` merges all arrays' blocks for one peer into a
    single message (the paper's §3.3: "Sorting by processor id also
    allowed us to combine messages between the same two processors" with
    "a symbol field identifying the array" — here the payload is keyed by
    array name).  Disable for the message-combining ablation.
    """
    m = rank.machine
    plan = schedule.plan
    if plan is None:
        plan = schedule.plan = compile_plan(forall, env, schedule)
    combine = bool(combine_messages)

    # --- 1. send out-blocks (old values: nothing written yet) -------------
    # Fancy-index copies, never views: on the simulator the receiver gets
    # the payload object itself, and this rank commits its writes below.
    # Each counter is yielded once per phase, summed over its messages.
    sends = plan.sends[combine]
    n_sent = 0
    for q, tag_offset, items in sends:
        bundle = {name: env[name].data[idx] for name, idx in items.items()}
        n_elems = sum(idx.size for idx in items.values())
        if combine:
            # Wire size: the data plus a small symbol field per array (the
            # paper's in-message array identifier), not Python dict overhead.
            payload = bundle
            nbytes = sum(v.nbytes for v in bundle.values()) + 8 * len(bundle)
        else:
            (payload,) = bundle.values()
            nbytes = None
        yield Compute(m.copy_elem * n_elems, phase=PHASE, label=forall.label)
        yield Send(dest=q, payload=payload, tag=_EXEC_TAG_BASE + tag_base + tag_offset,
                   nbytes=nbytes, phase=PHASE, label=forall.label)
        n_sent += n_elems
    if sends:
        yield Count("executor_elems_sent", n_sent)

    # --- 2. local iterations ------------------------------------------------
    # Reads gather with ``take`` — a copy of arr.data, or of the workspace
    # built from it now — and writes commit last, so no read of this
    # execution sees a write of it.
    workspaces = {name: _workspace(env[name].data,
                                   schedule.arrays[name].buffer_len + 1)
                  for name in plan.workspaces}
    pending_writes: List[Tuple[BatchPlan, Dict[str, np.ndarray]]] = []
    partials: Dict[str, float] = {
        spec.name: spec.identity for spec in forall.reductions
    }

    def fold_contributions(contribs: Dict[str, np.ndarray]) -> None:
        for spec in forall.reductions:
            vec = contribs[spec.name]
            if vec.size == 0:
                continue
            if spec.op == "sum":
                batch = float(vec.sum())
            elif spec.op == "max":
                batch = float(vec.max())
            else:
                batch = float(vec.min())
            partials[spec.name] = spec.fn(partials[spec.name], batch)

    # Every reference in the nonlocal loop pays the locality test; remote
    # ones additionally pay the O(log r) search — unless the schedule
    # enumerates every element (Saltz-style), where a remote access is two
    # plain references (table probe + buffer load).  Charged from the
    # plan's reference counts: the host did those searches at compile time.
    if schedule.translation_kind == "enumerated":
        per_remote = 2.0 * m.ref_local
    else:
        per_remote = m.search_cost(max(plan.max_ranges, 1))

    def run_batch(batch: BatchPlan):
        operands: Dict[str, object] = {}
        for read, (pos, counts, live) in zip(forall.reads, batch.gathers):
            source = workspaces.get(read.array)
            if source is None:
                source = env[read.array].data
            values = source.take(pos, axis=0)
            operands[read.operand_name()] = (
                values if counts is None else IndirectOperand(values, counts, live)
            )
        n_iters = batch.iters.size
        out_vals, contribs = _apply_kernel(forall, batch.iters, operands)
        pending_writes.append((batch, out_vals))
        fold_contributions(contribs)
        cost = (
            n_iters * m.iter_base
            + batch.n_local * m.ref_local
            + batch.n_remote * per_remote
            + batch.n_indirect * forall.flops_per_ref * m.flop
            + n_iters * forall.flops_per_iter * m.flop
        )
        yield Compute(cost, phase=PHASE, label=forall.label)

    if plan.local.iters.size:
        yield from run_batch(plan.local)

    # --- 3. receive in-blocks ------------------------------------------------
    recvs = plan.recvs[combine]
    n_recv = 0
    for q, tag_offset, expected in recvs:
        msg = yield Recv(source=q, tag=_EXEC_TAG_BASE + tag_base + tag_offset,
                         phase=PHASE, label=forall.label)
        # (per-array messages carry the one chunk bare)
        bundle = msg.payload if combine else dict.fromkeys(expected, msg.payload)
        if bundle.keys() != expected.keys():
            raise InspectorError(
                f"{forall.label}: message from {q} is missing arrays "
                f"{sorted(expected.keys() - bundle.keys())} and carries "
                f"unscheduled arrays {sorted(bundle.keys() - expected.keys())}"
            )
        total = 0
        for name, (start, count) in expected.items():
            data = bundle[name]
            if data.shape[0] != count:
                raise InspectorError(
                    f"{forall.label}: message from {q} for {name} carried "
                    f"{data.shape[0]} elements, schedule expects {count}"
                )
            workspaces[name][start : start + count] = data
            total += count
        yield Compute(m.copy_elem * total, phase=PHASE, label=forall.label)
        n_recv += total
    if recvs:
        yield Count("executor_elems_recv", n_recv)

    # --- 4. nonlocal iterations ----------------------------------------------
    if plan.nonlocal_.iters.size:
        yield from run_batch(plan.nonlocal_)
        yield Count("executor_remote_refs", plan.nonlocal_.n_remote)

    # --- 5. commit writes (copy-out) ---------------------------------------------
    n_written = 0
    for batch, outputs in pending_writes:
        for w, offsets in zip(forall.writes, batch.targets):
            env[w.array].data[offsets] = outputs[w.array]
            n_written += batch.iters.size
    if n_written:
        # Bump versions so schedules depending on written arrays re-inspect.
        for name in set(forall.arrays_written()):
            env[name].version += 1
        yield Compute(m.ref_local * n_written, phase=PHASE, label=forall.label)
    yield Count("executor_iters", schedule.num_exec())
    yield Count("executor_local_refs", plan.local.n_local)

    # --- 6. global reductions (recursive doubling, charged like any
    # other executor communication) -----------------------------------------
    if not forall.reductions:
        return None
    # One flop per contribution folded locally.
    n_contrib = schedule.num_exec() * len(forall.reductions)
    if n_contrib:
        yield Compute(m.flop * n_contrib, phase=PHASE, label=forall.label)
    results: Dict[str, float] = {}
    for r_idx, spec in enumerate(forall.reductions):
        reduced = yield from allreduce(
            rank,
            partials[spec.name],
            spec.fn,
            tag=(tag_base + r_idx) % 1000,
            phase=PHASE,
            op_cost=m.flop,
        )
        results[spec.name] = reduced
    return results
