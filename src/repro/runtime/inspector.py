"""The inspector: run-time analysis of a forall's communication (paper §3.3).

Run once per (forall, indirection-data version), before the first executor
run.  Mirroring the paper's Figure 6 ``first_time`` block, the inspector:

1. derives ``exec(p)`` from the ``on`` clause,
2. sweeps every array reference made by iterations in ``exec(p)``,
   classifying each as local or nonlocal (one locality check per
   reference, charged at ``machine.inspect_ref``),
3. splits iterations into ``local_list`` / ``nonlocal_list``,
4. builds per-array ``in(p,q)`` sets as sorted, coalesced range records,
5. routes the in-sets through the crystal router so every home processor
   learns its ``out(p,q)`` sets ("Form send_list using recv_lists from all
   processors (requires global communication)"),
6. finalises translation tables and returns the :class:`CommSchedule`.

Host-side the classification is vectorised NumPy; the *virtual time*
charged follows the paper's per-reference model, so simulated inspector
cost is faithful to the 1990 implementation, not to NumPy.  Step 2 is
:func:`classify`, and its result rides on the schedule to the executor's
``compile_plan``, which needs the same owners and so never recomputes
them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arrays.localview import LocalArray
from repro.comm.collectives import alltoall
from repro.comm.crystal import crystal_route
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectRead,
    OnOwner,
    OnProcessor,
)
from repro.errors import DistributionError, InspectorError
from repro.machine.api import Compute, Count, Rank
from repro.runtime.schedule import ArraySchedule, CommSchedule, RangeRecord, coalesce
from repro.util.gray import is_power_of_two

PHASE = "inspector"

#: wire size of one ``(array name, low, high)`` request record: what
#: ``payload_nbytes`` charges a short string (64) and two ints (8 each)
REQUEST_BYTES = 80

_NONE = np.empty(0, dtype=np.int64)


def _affine_preimage_of_indices(indices: np.ndarray, fn: Affine) -> np.ndarray:
    """Sorted iteration indices i with fn(i) in ``indices`` (exact)."""
    shifted = indices - fn.b
    mask = shifted % fn.a == 0
    iters = shifted[mask] // fn.a
    return np.sort(iters)


def compute_exec(forall: Forall, rank: Rank, env: Dict[str, LocalArray]) -> np.ndarray:
    """``exec(p) ∩ Index_set``: iterations this rank executes, sorted.

    For ``OnOwner`` this is ``f⁻¹(local(p)) ∩ range`` — computed from the
    owned index list, so it costs O(N/P) like the paper's run-time code.
    """
    lo, hi = forall.index_range
    if isinstance(forall.on, OnOwner):
        target = env.get(forall.on.array)
        if target is None:
            raise InspectorError(f"on-clause array {forall.on.array!r} not in scope")
        owned = target.global_rows
        iters = _affine_preimage_of_indices(owned, forall.on.fn)
    elif isinstance(forall.on, OnProcessor):
        all_iters = np.arange(lo, hi + 1, dtype=np.int64)
        procs = forall.on.fn(all_iters) % rank.size
        iters = all_iters[procs == rank.id]
    else:
        raise InspectorError(f"unknown on clause {forall.on!r}")
    return iters[(iters >= lo) & (iters <= hi)]


def statically_local(ref, forall: Forall, env: Dict[str, LocalArray]) -> bool:
    """True when ``ref`` (a read or a write) can never touch remote data,
    by construction.

    An affine reference ``B[g(i)]`` in a loop ``on A[f(i)].loc`` with
    ``g == f`` and B laid out identically to A is local for every
    executed iteration.  The paper's compiler exploits this ("local
    accesses may be more amenable to optimization", §3.1): its Figure 6
    inspector checks only the ``adj[i,j]`` references, not ``coef[i,j]``
    or ``count[i]``.  Skipping the check here both matches that code and
    keeps the charged inspector cost proportional to the references that
    actually need checking.  Every such reference of one batch has the
    same local offsets, ``to_local_rows(f(iters))`` on A.
    """
    if (not isinstance(ref, (AffineRead, AffineWrite))
            or not isinstance(forall.on, OnOwner)):
        return False
    if ref.fn != forall.on.fn:
        return False
    target = env.get(forall.on.array)
    arr = env.get(ref.array)
    if target is None or arr is None:
        return False
    return (
        arr.dist.procs == target.dist.procs
        and arr.dist.dims[0].same_layout(target.dist.dims[0])
    )


def _dim0_proc_coord(local: LocalArray) -> int:
    dist = local.dist
    pdim = dist.proc_dim_of[0]
    if pdim is None:
        return 0
    return dist.procs.coords_of(local.rank)[pdim]


def _require_1d_proc_grid(local: LocalArray) -> None:
    if local.dist.procs.ndim != 1:
        raise InspectorError(
            "inspector/executor currently support 1-d processor arrays "
            "(the paper's evaluation configuration)"
        )


class RefClass(NamedTuple):
    """One read's references from a batch of iterations, classified.

    Per reference (per iteration, and for an indirect read per slot, dead
    slots clamped to row 0): ``owners``, the home processors of the
    global rows referenced, ``offsets``, their storage offsets there,
    and ``remote``, the live references homed elsewhere.  An indirect
    read also carries ``live``, the mask ``arange(width) < counts``, and
    ``counts``, the live width per iteration; both are None for an
    affine read."""

    owners: np.ndarray
    offsets: np.ndarray
    remote: np.ndarray
    live: Optional[np.ndarray]
    counts: Optional[np.ndarray]


class Classification(NamedTuple):
    """:func:`classify`'s result for a batch of iterations."""

    #: per read of the forall: its RefClass, or None for a read that
    #: ``statically_local`` proves local (nothing was computed for it)
    refs: List[Optional[RefClass]]
    #: per iteration: does any reference of it live elsewhere?
    any_remote: np.ndarray


def _owned_rows(local: LocalArray, iters: np.ndarray, misaligned: str) -> np.ndarray:
    """The local rows of global rows ``iters`` of ``local``, located in
    one pass; raises ``misaligned`` unless this rank owns all of them."""
    owners, rows = local.dist.dims[0].locate(iters)
    if not np.all(owners == _dim0_proc_coord(local)):
        raise InspectorError(misaligned)
    return rows


def _indirect_elems(read: IndirectRead, iters: np.ndarray,
                    env: Dict[str, LocalArray]):
    """``(elems, live, counts)`` of ``read`` over ``iters``:
    ``elems[k, j] = table[iters[k], j]`` with dead slots clamped to 0."""
    target = env[read.array]
    table = env[read.table]
    if target.data.ndim != 1:
        raise InspectorError(
            f"indirect read target {read.array!r} must be one-dimensional"
        )
    rows = table.data[_owned_rows(
        table, iters,
        f"indirection table {read.table!r} is not aligned with the on "
        "clause: some executed rows are remote")] + read.offset
    if rows.ndim == 1:
        rows = rows[:, None]
    width = rows.shape[1]
    if read.count is not None:
        count = env[read.count]
        counts = count.data[_owned_rows(
            count, iters, f"count array {read.count!r} is not aligned"
        )].astype(np.int64)
    else:
        counts = np.full(iters.shape, width, dtype=np.int64)
    live = np.arange(width)[None, :] < counts[:, None]
    # Dead slots may hold garbage indices; clamp before owner lookup.
    return np.where(live, rows, 0), live, counts


def classify(forall: Forall, env: Dict[str, LocalArray],
             iters: np.ndarray) -> Classification:
    """The owner and home offset of every reference the iterations
    ``iters`` make, each located once (one bounds check, one pass).

    One function, two callers: the inspector classifies ``exec(p)`` and
    leaves the result on its schedule, where ``compile_plan`` takes it;
    ``compile_plan`` calls this itself only for a schedule that arrives
    without one (loaded from the disk tier, or built in closed form).
    Either way the plan reads the offsets from here, and the inspector's
    nonlocal set is the (owner, offset) pairs of the remote references.
    """
    refs: List[Optional[RefClass]] = []
    any_remote = np.zeros(iters.shape, dtype=bool)
    for read in forall.reads:
        if statically_local(read, forall, env):
            refs.append(None)
            continue
        arr = env[read.array]
        if isinstance(read, AffineRead):
            elems, live, counts = read.fn(iters), None, None
        elif isinstance(read, IndirectRead):
            elems, live, counts = _indirect_elems(read, iters, env)
        else:
            raise InspectorError(f"unknown read descriptor {read!r}")
        try:
            owners, offsets = arr.dist.dims[0].locate(elems)
        except DistributionError:
            _range_error(forall, read, arr, elems, live)
            raise
        remote = owners != _dim0_proc_coord(arr)
        if live is None:
            any_remote |= remote
        else:
            remote &= live
            any_remote |= remote.any(axis=1)
        refs.append(RefClass(owners, offsets, remote, live, counts))
    return Classification(refs, any_remote)


def _range_error(forall: Forall, read, arr: LocalArray, elems: np.ndarray,
                 live: Optional[np.ndarray]) -> None:
    """Raise the forall-level error if live references of ``read`` lie
    outside the array (dead indirection slots are clamped to row 0)."""
    if live is not None:
        elems = elems[live]
    if not elems.size:
        return
    lo_e, hi_e = int(elems.min()), int(elems.max())
    if lo_e >= 0 and hi_e < arr.dist.shape[0]:
        return
    if live is None:
        raise InspectorError(
            f"{forall.label}: reference {read.operand_name()} "
            f"subscript out of range [{lo_e}, {hi_e}]"
        )
    raise InspectorError(
        f"{forall.label}: indirection {read.operand_name()} "
        f"points outside the array ([{lo_e}, {hi_e}])"
    )


def run_inspector(rank: Rank, forall: Forall, env: Dict[str, LocalArray]):
    """Generator: inspect ``forall`` on this rank, return a CommSchedule.

    Collective: every rank must call this (the in→out transpose is a
    global communication).
    """
    for name in set(forall.arrays_read()) | set(forall.arrays_written()):
        if name not in env:
            raise InspectorError(f"array {name!r} referenced but not in scope")
        _require_1d_proc_grid(env[name])

    exec_iters = compute_exec(forall, rank, env)
    classification = classify(forall, env, exec_iters)

    total_checks = total_nonlocal = 0
    # per array: the (owner, offset) pairs of its remote references
    nonlocal_refs: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
    for read, ref in zip(forall.reads, classification.refs):
        if ref is None:
            continue
        pair = (ref.owners[ref.remote], ref.offsets[ref.remote])
        nonlocal_refs.setdefault(read.array, []).append(pair)
        total_nonlocal += pair[0].size
        total_checks += int(exec_iters.size if ref.live is None else ref.live.sum())

    # Verify the owner-computes discipline for writes (once, at inspection);
    # a write on the on clause's own map and layout is local by construction.
    for w in forall.writes:
        if statically_local(w, forall, env):
            continue
        arr = env[w.array]
        me_coord = _dim0_proc_coord(arr)
        targets = w.fn(exec_iters)
        if targets.size:
            if targets.min() < 0 or targets.max() >= arr.dist.shape[0]:
                raise InspectorError(
                    f"{forall.label}: write to {w.array} out of range"
                )
            owners = np.asarray(arr.dist.dims[0].owner(targets))
            if (owners != me_coord).any():
                raise InspectorError(
                    f"{forall.label}: write to {w.array} targets remote "
                    "elements; Kali foralls follow owner-computes (align the "
                    "on clause with the write target)"
                )

    exec_local = exec_iters[~classification.any_remote]
    exec_nonlocal = exec_iters[classification.any_remote]

    # Charge the classification sweep (Figure 6's first loop) plus the
    # sorted-array insertions for elements found nonlocal (§3.3 notes the
    # O(r) insertion cost of the range-array representation).
    yield Compute(
        rank.machine.inspect_ref * total_checks
        + rank.machine.insert_elem * total_nonlocal,
        phase=PHASE,
        label=forall.label,
    )
    yield Count("inspector_checks", total_checks)
    yield Count("inspector_nonlocal", total_nonlocal)

    # Build per-array in-sets: one (owner, offset)-sorted array per array,
    # whose breaks are every peer's coalesced ranges at once.
    schedule = CommSchedule(
        label=forall.label,
        rank=rank.id,
        exec_local=exec_local,
        exec_nonlocal=exec_nonlocal,
        classification=classification,
    )
    request_payload: Dict[int, List[Tuple[str, int, int]]] = {}
    for name in sorted({r.array for r in forall.reads}):
        pairs = nonlocal_refs.get(name)
        owners = offsets = _NONE
        if pairs:
            owners = np.concatenate([owner for owner, _ in pairs])
            offsets = np.concatenate([offset for _, offset in pairs])
        # Owners are processor coords along proc dim 0 == ranks (1-d grid).
        runs = coalesce(owners, offsets)
        asched = schedule.arrays[name] = ArraySchedule(array=name)
        asched.receive(runs, rank.id)
        for rec in asched.in_records:
            request_payload.setdefault(rec.from_proc, []).append(
                (name, rec.low, rec.high)
            )

    # Global transpose: ship each in-range request to its home processor,
    # sized in closed form (what ``payload_nbytes`` gives the list).
    sizes = {q: REQUEST_BYTES * len(reqs) for q, reqs in request_payload.items()}
    if is_power_of_two(rank.size):
        replies = yield from crystal_route(
            rank, request_payload, phase=PHASE, charge_combine=True,
            sizes=sizes,
        )
    else:
        outbound = [request_payload.get(q, None) for q in range(rank.size)]
        gathered = yield from alltoall(
            rank, outbound, phase=PHASE,
            sizes=[sizes.get(q, 0) for q in range(rank.size)])
        replies = {q: req for q, req in enumerate(gathered) if req}

    # out(p,q) = requests received from q, sorted by (q, low) per Figure 5.
    out_by_array: Dict[str, List[RangeRecord]] = {name: [] for name in schedule.arrays}
    for q in sorted(replies):
        for name, low, high in replies[q]:
            out_by_array[name].append(
                RangeRecord(from_proc=rank.id, to_proc=q, low=low, high=high)
            )
    for name, recs in out_by_array.items():
        recs.sort(key=lambda r: (r.to_proc, r.low))
        schedule.arrays[name].out_records = recs

    for name in forall.comm_dependency_arrays():
        schedule.versions[name] = env[name].version
    for name in set(forall.arrays_read()) | set(forall.arrays_written()):
        schedule.dist_versions[name] = env[name].dist_version

    yield Count("inspector_runs", 1)
    return schedule
