"""The executor: run one forall under a communication schedule.

The charged op stream follows the paper's Figure 3/6 structure exactly:

1. **send** every ``out(p,q)`` block to its requester,
2. **local iterations** — those whose references are all local, charged
   before the first receive, overlapping with message transit,
3. **receive** every ``in(p,q)`` block into the communication buffer,
4. **nonlocal iterations** — the rest, charged after the last receive
   (with the per-element locality test the paper notes is needed
   "because even within the same iteration of the forall, the reference
   old_a[adj[i,j]] may be sometimes local and sometimes nonlocal"),
5. commit writes (copy-in/copy-out: no write is visible to any read of
   this forall execution).

The arithmetic runs once, after the receive: one gather per read, one
kernel call over all of ``exec(p)`` in ascending global order, one
commit per write.  The local/nonlocal split lives on only in what the
two loops are charged and in the order reductions fold.

Host-side none of this is re-derived per execution.  On a schedule's
first execution :func:`compile_plan` flattens it into an
:class:`~repro.runtime.schedule.ExecPlan` — send indices, receive
slices, one gather index per read, write offsets, each a ``slice``
where it is one contiguous run — resolving every remote element through
the O(log r) translation table once; from then on an execution is
gather → kernel → commit.  Virtual time is charged from the plan's
reference counts using the machine cost model, so the simulated cost
profile still matches the paper's per-element C implementation,
searches included.

A warm execution replays its plan.  Every op whose fields the plan fixes
— the charges, the counters, each send's wire size — is built once per
plan and key into an :class:`~repro.runtime.schedule.OpTable` and
yielded again, the same instances, by every later execution; only
``Send`` and ``Recv`` (payload and tag), the payload copies and the
allreduce are built per execution.  The workspaces stay with the rank
context that runs the loop, so an execution copies in only its local
rows.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.arrays.localview import LocalArray
from repro.comm.collectives import allreduce
from repro.core.forall import Forall, IndirectOperand, ReduceSpec
from repro.errors import InspectorError
from repro.machine.api import Compute, Count, Rank, Recv, Send
from repro.runtime.inspector import RefClass, classify, statically_local
from repro.runtime.schedule import (
    ArraySchedule,
    BatchPlan,
    Charges,
    CommSchedule,
    ExecPlan,
    Index,
    Message,
    OpTable,
)

PHASE = "executor"

# Tag space for executor data messages: disjoint from collective tags.
_EXEC_TAG_BASE = 1 << 16


def _positions(arr: LocalArray, asched: ArraySchedule, ref: RefClass):
    """Workspace positions of the references ``ref`` classifies (dead
    slots → the zero row) plus the local / remote live-reference counts.

    The owners and home offsets come with ``ref`` (a local reference's
    home offset is its local row); remote ones go through the
    translation table here, once: a miss raises at compile time, and the
    virtual clock still charges the per-reference O(log r) search on
    every execution."""
    n_rows = arr.data.shape[0]
    offsets, remote = ref.offsets, ref.remote
    local = ~remote if ref.live is None else ref.live & ~remote
    pos = np.where(local, offsets, n_rows + asched.buffer_len).astype(
        np.int64, copy=False)
    n_remote = int(np.count_nonzero(remote))
    if n_remote:
        pos[remote] = n_rows + asched.translation.lookup(ref.owners[remote],
                                                         offsets[remote])
    return pos, int(np.count_nonzero(local)), n_remote


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a plan array read-only (see ``BatchPlan``); returns it."""
    arr.flags.writeable = False
    return arr


def _index(vec: np.ndarray) -> Index:
    """``vec`` as a ``slice`` when it is one ascending contiguous run (so
    reading it is a view and writing it a block copy, not a fancy-index
    pass), else frozen."""
    if vec.ndim == 1 and vec.size and (np.diff(vec) == 1).all():
        return slice(int(vec[0]), int(vec[-1]) + 1)
    return _frozen(vec)


def _past(pos: Index, n_rows: int) -> bool:
    """Does a gather at ``pos`` address a row past the first ``n_rows``?"""
    if isinstance(pos, slice):
        return pos.stop > n_rows
    return bool(pos.size) and int(pos.max()) >= n_rows


def _exec_set(schedule: CommSchedule) -> Tuple[np.ndarray, np.ndarray]:
    """``exec(p)`` in ascending order and the mask of its ``exec_local``
    rows: the schedule keeps the two as disjoint ascending subsequences."""
    local, remote = schedule.exec_local, schedule.exec_nonlocal
    if not remote.size:
        return local, np.ones(local.shape, dtype=bool)
    if not local.size:
        return remote, np.zeros(remote.shape, dtype=bool)
    iters = np.concatenate((local, remote))
    order = np.argsort(iters, kind="stable")
    return iters[order], order < local.size


def _compile_batch(forall: Forall, env: Dict[str, LocalArray],
                   schedule: CommSchedule) -> BatchPlan:
    """The one batch over ``exec(p)``, with the counts of each side of
    the local/nonlocal split.  The owners of the references come with
    the inspector's classification (consumed here); only a schedule
    without one (disk-loaded or closed form) is classified here."""
    iters, local_rows = _exec_set(schedule)
    # Read-only views: the kernel is handed these on every execution,
    # while the schedule's own arrays stay as they were.
    batch = BatchPlan(iters=_frozen(iters.view()),
                      local_rows=_frozen(local_rows.view()))
    handed, schedule.classification = schedule.classification, None
    if iters.size == 0:
        return batch
    classification = (handed if handed is not None
                      else classify(forall, env, iters))
    if (classification.any_remote & local_rows).any():
        n_stale = sum(int(np.count_nonzero(ref.remote[local_rows]))
                      for ref in classification.refs if ref is not None)
        raise InspectorError(
            f"{forall.label}: schedule marked iterations local but "
            f"{n_stale} references resolve remotely (stale schedule?)"
        )
    aligned_writes = [statically_local(w, forall, env) for w in forall.writes]
    on_rows = None
    if any(ref is None for ref in classification.refs) or any(aligned_writes):
        # Every reference on the on clause's own map and layout (the
        # reads the classification skipped, the aligned writes) is local
        # at the same offsets: one index, shared by all of them.
        on_rows = _index(np.asarray(
            env[forall.on.array].to_local_rows(forall.on.fn(iters)), dtype=np.int64))
    # Live references: all, those in local rows, the remote ones (every
    # one of which sits in a nonlocal row, as checked above), and the
    # same for indirection reads — what ``flops_per_ref`` is charged
    # against (one multiply-add per mesh edge in the Jacobi kernel, not
    # per auxiliary coefficient read).
    n_here = int(np.count_nonzero(local_rows))
    total = total_here = remote = indirect = indirect_here = 0
    for read, ref in zip(forall.reads, classification.refs):
        counts = live = None
        if ref is None:
            pos, n_live, n_remote = on_rows, iters.size, 0
        else:
            pos, n_local, n_remote = _positions(
                env[read.array], schedule.arrays[read.array], ref)
            pos, n_live = _index(pos), n_local + n_remote
            if ref.live is not None:
                counts, live = _frozen(ref.counts), _frozen(ref.live)
        batch.gathers.append((pos, counts, live))
        live_here = n_here if counts is None else int(counts[local_rows].sum())
        total += n_live
        total_here += live_here
        remote += n_remote
        if counts is not None:
            indirect += n_live
            indirect_here += live_here
    batch.local = Charges(n_here, total_here, 0, indirect_here)
    batch.nonlocal_ = Charges(iters.size - n_here, total - total_here - remote,
                              remote, indirect - indirect_here)
    batch.targets = [on_rows if aligned
                     else _index(env[w.array].to_local_rows(w.fn(iters)))
                     for w, aligned in zip(forall.writes, aligned_writes)]
    return batch


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


def _send_indices(label: str, asched: ArraySchedule) -> Dict[int, Index]:
    """Every peer's send index of one array from its out records
    (sorted by peer, then low): one walk over the records finds where
    each peer's run starts and whether its blocks abut, and one
    vectorised range expansion gives the offsets of all records back to
    back.  A peer's index is a ``slice`` when its offsets are one
    ascending run (as ``_index`` decides)."""
    recs = asched.out_records
    if not recs:
        return {}
    peers: List[int] = []
    cuts: List[int] = []          # where each peer's offsets start
    abut: List[bool] = []         # does each peer's run have no gap?
    shifts: List[int] = []        # per record: low - (its first position)
    counts: List[int] = []
    total = 0
    prev = None
    for r in recs:
        if prev is None or r.to_proc != prev.to_proc:
            if prev is not None and r.to_proc < prev.to_proc:
                raise InspectorError(f"{label}: out records of "
                                     f"{asched.array} are not sorted by peer")
            peers.append(r.to_proc)
            cuts.append(total)
            abut.append(True)
        elif r.low != prev.high + 1:
            abut[-1] = False
        shifts.append(r.low - total)
        counts.append(r.count)
        total += r.count
        prev = r
    cuts.append(total)
    offsets = np.arange(total, dtype=np.int64) + np.repeat(
        np.array(shifts, dtype=np.int64), counts)
    return {q: (slice(int(offsets[a]), int(offsets[b - 1]) + 1) if whole
                else _frozen(offsets[a:b]))
            for q, a, b, whole in zip(peers, cuts, cuts[1:], abut)}


def _receive_slices(label: str, asched: ArraySchedule,
                    n_rows: int) -> Dict[int, Tuple[int, int]]:
    """Every peer's ``(start, count)`` workspace slice of one array: its
    in records must tile one contiguous run of the receive buffer."""
    runs: Dict[int, List[int]] = {}
    for r in asched.in_records:
        run = runs.get(r.from_proc)
        if run is None:
            runs[r.from_proc] = [r.buffer_start, r.count]
        elif run[0] + run[1] == r.buffer_start:
            run[1] += r.count
        else:
            raise InspectorError(
                f"{label}: blocks of {asched.array} from {r.from_proc} are "
                "not contiguous in the receive buffer"
            )
    return {q: (n_rows + start, count) for q, (start, count) in runs.items()}


def compile_plan(forall: Forall, env: Dict[str, LocalArray],
                 schedule: CommSchedule) -> ExecPlan:
    """Flatten ``schedule`` into the indices an execution needs.

    All of the executor's index arithmetic lives here (and in the
    helpers above): translation-table searches and range-record walks
    happen once per schedule, not once per sweep, and each reference's
    home offset comes from the classification.  The stale-schedule
    check runs here too, before any message is sent.
    """
    send_idx: Dict[str, Dict[int, Index]] = {}
    recv_at: Dict[str, Dict[int, Tuple[int, int]]] = {}
    for name, asched in schedule.arrays.items():
        send_idx[name] = _send_indices(forall.label, asched)
        recv_at[name] = _receive_slices(forall.label, asched,
                                        env[name].data.shape[0])
    batch = _compile_batch(forall, env, schedule)
    # A workspace only where data lands past the local rows: a receive
    # buffer, or a gather that addresses the zero row.
    landing = {name for name, asched in schedule.arrays.items()
               if asched.buffer_len > 0}
    for read, (pos, _counts, _live) in zip(forall.reads, batch.gathers):
        if _past(pos, env[read.array].data.shape[0]):
            landing.add(read.array)
    return ExecPlan(
        sends=(_messages(send_idx, False), _messages(send_idx, True)),
        recvs=(_messages(recv_at, False), _messages(recv_at, True)),
        batch=batch,
        max_ranges=max(
            (schedule.arrays[r.array].num_in_ranges() for r in forall.reads),
            default=0,
        ),
        workspaces=tuple(name for name in schedule.arrays if name in landing),
    )


def _copy(source: np.ndarray, idx: Index) -> np.ndarray:
    """The rows ``idx`` selects, in an array of their own.  (Indexing,
    not ``take``: ``take`` copies a read-only index array first.)"""
    rows = source[idx]
    return rows.copy() if isinstance(idx, slice) else rows


#: how one side's contributions reduce to a float, per reduction op
_FOLDS = {"sum": np.sum, "max": np.max, "min": np.min}


def _fold(forall: Forall, spec: ReduceSpec, vec: np.ndarray,
          batch: BatchPlan) -> float:
    """This rank's partial of reduction ``spec``: the local rows'
    contributions folded first, then the nonlocal rows' — each summed in
    the order the paper's two loops produce them, so the partial is bit
    for bit what folding two batches gave."""
    if vec.shape != batch.iters.shape:
        raise InspectorError(
            f"{forall.label}: reduction {spec.name!r} needs one contribution "
            f"per iteration ({batch.iters.size}), the kernel returned shape "
            f"{vec.shape}"
        )
    fold = _FOLDS[spec.op]
    if not (batch.local.iters and batch.nonlocal_.iters):
        return spec.fn(spec.identity, float(fold(vec)))
    here = spec.fn(spec.identity, float(fold(vec[batch.local_rows])))
    return spec.fn(here, float(fold(vec[~batch.local_rows])))


def _workspace(data: np.ndarray, pad: int) -> np.ndarray:
    """``[local rows ‖ pad zero rows]``: a copy of ``data`` with room for
    the receive buffer and the zero row dead indirection slots read."""
    n_rows = data.shape[0]
    out = np.empty((n_rows + pad,) + data.shape[1:], dtype=data.dtype)
    out[:n_rows] = data
    out[n_rows:] = 0
    return out


def _workspaces(label: str, plan: ExecPlan, env: Dict[str, LocalArray],
                schedule: CommSchedule, held: dict) -> Dict[str, np.ndarray]:
    """This execution's workspaces, by array, with the current local rows.

    ``held`` keeps them between executions, per forall label: the plan
    they were made for and ``{array: workspace}``.  A plan's first
    execution allocates them; later ones copy in only the local rows —
    the receives overwrite the whole buffer (``compile_plan`` checks
    that each peer's blocks are contiguous, and together they tile it)
    and nothing writes the zero row.  A shape or dtype that no longer
    matches re-allocates."""
    entry = held.get(label)
    if entry is None or entry[0] is not plan:
        entry = held[label] = (plan, {})
    kept = entry[1]
    for name in plan.workspaces:
        data = env[name].data
        n_rows = data.shape[0]
        pad = schedule.arrays[name].buffer_len + 1
        ws = kept.get(name)
        if (ws is None or ws.dtype != data.dtype or ws.shape[0] != n_rows + pad
                or ws.shape[1:] != data.shape[1:]):
            kept[name] = _workspace(data, pad)
        else:
            ws[:n_rows] = data
    return kept


def _rows(idx: Index) -> int:
    """How many rows a send index selects."""
    return idx.stop - idx.start if isinstance(idx, slice) else int(idx.size)


def _op_table(m, combine: bool, forall: Forall, env: Dict[str, LocalArray],
              schedule: CommSchedule, plan: ExecPlan) -> OpTable:
    """Build every op of an execution that ``plan`` fixes under the key
    ``run_executor`` files it by (see ``OpTable``), valued exactly as
    an execution computes them."""
    label = forall.label
    batch = plan.batch

    def charge(seconds: float) -> Compute:
        return Compute(seconds, phase=PHASE, label=label)

    # Every reference in the nonlocal loop pays the locality test; remote
    # ones additionally pay the O(log r) search — unless the schedule
    # enumerates every element (Saltz-style), where a remote access is two
    # plain references (table probe + buffer load).  Charged from the
    # plan's reference counts: the host did those searches at compile time.
    if schedule.translation_kind == "enumerated":
        per_remote = 2.0 * m.ref_local
    else:
        per_remote = m.search_cost(max(plan.max_ranges, 1))

    def cost(c: Charges) -> float:
        return (
            c.iters * m.iter_base
            + c.n_local * m.ref_local
            + c.n_remote * per_remote
            + c.n_indirect * forall.flops_per_ref * m.flop
            + c.iters * forall.flops_per_iter * m.flop
        )

    sends = []
    n_sent = 0
    for q, tag_offset, items in plan.sends[combine]:
        n_elems = sum(_rows(idx) for idx in items.values())
        nbytes = None
        if combine:
            # Wire size: the data plus a small symbol field per array (the
            # paper's in-message array identifier), not Python dict overhead.
            # An array's dtype and row shape are fixed with its schedule
            # (the disk tier's key hashes both).
            nbytes = sum(
                _rows(idx) * env[name].data.itemsize
                * math.prod(env[name].data.shape[1:])
                for name, idx in items.items()) + 8 * len(items)
        sends.append((q, tag_offset, tuple(items.items()),
                      charge(m.copy_elem * n_elems), nbytes))
        n_sent += n_elems
    recvs = []
    n_recv = 0
    for q, tag_offset, expected in plan.recvs[combine]:
        total = sum(count for _start, count in expected.values())
        recvs.append((q, tag_offset, expected, charge(m.copy_elem * total)))
        n_recv += total
    # A contiguous read of an array this forall does not write is a
    # read-only view; any other operand is a copy.
    written = forall.arrays_written()
    reads = [(read.array, read.operand_name(), pos, counts, live,
              isinstance(pos, slice) and read.array not in written,
              read.array in plan.workspaces)
             for read, (pos, counts, live) in zip(forall.reads, batch.gathers)]
    after_kernel = ()
    if batch.nonlocal_.iters:
        after_kernel = (charge(cost(batch.nonlocal_)),
                        Count("executor_remote_refs", batch.nonlocal_.n_remote))
    after_commit = (Count("executor_iters", schedule.num_exec()),
                    Count("executor_local_refs", batch.local.n_local))
    if batch.iters.size and forall.writes:
        n_written = batch.iters.size * len(forall.writes)
        after_commit = (charge(m.ref_local * n_written),) + after_commit
    # One flop per contribution folded locally.
    n_contrib = schedule.num_exec() * len(forall.reductions)
    return OpTable(
        sends=sends,
        sent=Count("executor_elems_sent", n_sent) if sends else None,
        local=charge(cost(batch.local)) if batch.local.iters else None,
        recvs=recvs,
        received=Count("executor_elems_recv", n_recv) if recvs else None,
        reads=reads,
        after_kernel=after_kernel,
        written=tuple(dict.fromkeys(written)),
        after_commit=after_commit,
        fold=charge(m.flop * n_contrib) if n_contrib else None,
    )


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
    *,
    workspaces: dict,
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

    ``workspaces`` is the rank context's store of workspaces, kept
    between executions (``KaliRank.workspaces``).
    """
    m = rank.machine
    plan = schedule.plan
    if plan is None:
        plan = schedule.plan = compile_plan(forall, env, schedule)
    combine = bool(combine_messages)
    key = (m, combine, schedule.translation_kind, forall.replay_key)
    table = plan.tables.get(key)
    if table is None:
        table = plan.tables[key] = _op_table(m, combine, forall, env,
                                             schedule, plan)
    label = forall.label
    tag = _EXEC_TAG_BASE + tag_base

    # --- 1. send out-blocks (old values: nothing written yet) -------------
    # Copies, never views, even of one contiguous range: on the simulator
    # the receiver gets the payload object itself, and this rank commits
    # its writes below.  Each counter is yielded once per phase, summed
    # over its messages.
    for q, tag_offset, items, copy_charge, nbytes in table.sends:
        if combine:
            payload = {name: _copy(env[name].data, idx) for name, idx in items}
        else:
            ((name, idx),) = items
            payload = _copy(env[name].data, idx)
        yield copy_charge
        yield Send(dest=q, payload=payload, tag=tag + tag_offset,
                   nbytes=nbytes, phase=PHASE, label=label)
    if table.sent:
        yield table.sent

    # --- 2. local iterations: charged here, overlapping message transit;
    # the host computes every row once, after the receive (step 4) ------
    batch = plan.batch
    spaces = _workspaces(label, plan, env, schedule, workspaces)
    if table.local:
        yield table.local

    # --- 3. receive in-blocks ------------------------------------------------
    for q, tag_offset, expected, copy_charge in table.recvs:
        msg = yield Recv(source=q, tag=tag + tag_offset, phase=PHASE,
                         label=label)
        # (per-array messages carry the one chunk bare)
        bundle = msg.payload if combine else dict.fromkeys(expected, msg.payload)
        if bundle.keys() != expected.keys():
            raise InspectorError(
                f"{label}: message from {q} is missing arrays "
                f"{sorted(expected.keys() - bundle.keys())} and carries "
                f"unscheduled arrays {sorted(bundle.keys() - expected.keys())}"
            )
        for name, (start, count) in expected.items():
            data = bundle[name]
            if data.shape[0] != count:
                raise InspectorError(
                    f"{label}: message from {q} for {name} carried "
                    f"{data.shape[0]} elements, schedule expects {count}"
                )
            spaces[name][start : start + count] = data
        yield copy_charge
    if table.received:
        yield table.received

    # --- 4. every row of exec(p): one gather per read, one kernel call ------
    # Nothing is committed before step 5, so no read of this execution
    # sees a write of it.
    partials: Dict[str, float] = {
        spec.name: spec.identity for spec in forall.reductions
    }
    if batch.iters.size:
        operands: Dict[str, object] = {}
        for array, name, pos, counts, live, view, through in table.reads:
            source = spaces[array] if through else env[array].data
            if view:
                values = source[pos]
                values.flags.writeable = False
            else:
                values = _copy(source, pos)
            operands[name] = (
                values if counts is None else IndirectOperand(values, counts, live)
            )
        outputs, contribs = _apply_kernel(forall, batch.iters, operands)
        for spec in forall.reductions:
            partials[spec.name] = _fold(forall, spec, contribs[spec.name], batch)
    for op in table.after_kernel:
        yield op

    # --- 5. commit writes (copy-out) ---------------------------------------------
    if batch.iters.size and forall.writes:
        for w, target in zip(forall.writes, batch.targets):
            env[w.array].data[target] = outputs[w.array]
        # Bump versions so schedules depending on written arrays re-inspect,
        # and drop the global content tag the scatter stamped: it no longer
        # names these bytes, and the disk tier must not key on it.
        for name in table.written:
            local = env[name]
            local.version += 1
            local.content_tag = None
    for op in table.after_commit:
        yield op

    # --- 6. global reductions (recursive doubling, charged like any
    # other executor communication) -----------------------------------------
    if not forall.reductions:
        return None
    if table.fold:
        yield table.fold
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
