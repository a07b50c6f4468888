"""Closed-form construction of communication schedules (paper §3.2, [3]).

For affine subscripts over section-form distributions the sets of §3.1 are
computed symbolically::

    exec(p)  = f⁻¹(local(p)) ∩ Index_set          (a strided section)
    ref_k(p) = g_k⁻¹(local(p))                     (a strided section)
    in(p,q)  = g_k(exec(p)) ∩ local(q)             (a strided section)
    out(p,q) = in(q,p)                             (computed symmetrically)

so the schedule is built *without any communication and without charging
virtual time* — the run-time residue of the paper's compile-time analysis
is just evaluating these formulas, which it folds into code generation.

The resulting :class:`CommSchedule` is bit-identical in structure to what
the inspector would produce for the same loop (a property the test suite
asserts), so the executor is oblivious to which path built its schedule.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.arrays.localview import LocalArray
from repro.core.forall import Affine, AffineRead, Forall, OnOwner
from repro.errors import AnalysisError
from repro.machine.api import Rank
from repro.runtime.inspector import statically_local
from repro.runtime.schedule import ArraySchedule, CommSchedule, RangeRecord, coalesce_ranges
from repro.util.sections import Section


def _local_sections(arr: LocalArray, proc: int) -> List[Section]:
    secs = arr.dist.dims[0].analysis_sections(proc)
    if secs is None:
        raise AnalysisError(
            f"array {arr.name!r} has no closed-form local sets; use the "
            "run-time inspector"
        )
    return [s for s in secs if s]


def _exec_sections(forall: Forall, arr_on: LocalArray, proc: int) -> List[Section]:
    """``exec(p)`` as a union of sections (one per local section of the
    on-clause target; block-cyclic contributes one per owned block)."""
    lo, hi = forall.index_range
    f: Affine = forall.on.fn
    out = []
    for sec in _local_sections(arr_on, proc):
        pre = sec.affine_preimage(f.a, f.b).clip(lo, hi)
        if pre:
            out.append(pre)
    return out


def _image(sec: Section, g: Affine) -> Section:
    """Image of a section under an affine map (stays a section)."""
    if not sec:
        return Section.empty()
    if g.a > 0:
        return Section(g(sec.lo), g(sec.hi), g.a * sec.step)
    return Section(g(sec.hi), g(sec.lo), -g.a * sec.step)


def build_closed_form_schedule(
    rank: Rank, forall: Forall, env: Dict[str, LocalArray]
) -> CommSchedule:
    """Build this rank's schedule symbolically.  Pure function of the
    distributions and subscripts — no messages, no virtual-time charge."""
    if not isinstance(forall.on, OnOwner):
        raise AnalysisError("closed-form analysis needs an owner on-clause")
    for read in forall.reads:
        if not isinstance(read, AffineRead):
            raise AnalysisError(
                f"closed-form analysis cannot handle {read!r}"
            )
    on_arr = env[forall.on.array]
    me = rank.id
    P = rank.size

    exec_me = _exec_sections(forall, on_arr, me)
    exec_arr = (
        np.unique(np.concatenate([s.to_array() for s in exec_me]))
        if exec_me
        else np.empty(0, dtype=np.int64)
    )

    # Range checking (the same checks the inspector applies dynamically).
    for read in forall.reads:
        arr = env[read.array]
        for es in exec_me:
            img = _image(es, read.fn)
            if img.lo < 0 or img.hi >= arr.dist.shape[0]:
                raise AnalysisError(
                    f"{forall.label}: reference {read.operand_name()} "
                    f"subscript range [{img.lo}, {img.hi}] exceeds array "
                    f"bounds [0, {arr.dist.shape[0] - 1}]"
                )
    for w in forall.writes:
        arr = env[w.array]
        w_secs = _local_sections(arr, me)
        for es in exec_me:
            img = _image(es, w.fn)
            covered = sum(len(img.intersect(wl)) for wl in w_secs)
            if covered != len(img):
                raise AnalysisError(
                    f"{forall.label}: write to {w.array} targets remote "
                    "elements; Kali foralls follow owner-computes"
                )

    def _in_sections(values: np.ndarray, secs: List[Section]) -> np.ndarray:
        mask = np.zeros(values.shape, dtype=bool)
        for sec in secs:
            mask |= (
                (values >= sec.lo)
                & (values <= sec.hi)
                & ((values - sec.lo) % sec.step == 0)
            )
        return mask

    # A read on the on clause's own map and layout is local for every
    # executed iteration: its ref(p) ⊇ exec(p), and for q ≠ p its image
    # f(f⁻¹(local(p))) ∩ local(q) is empty — nothing to intersect.
    aligned = [statically_local(read, forall, env) for read in forall.reads]

    # ref(p) per read, and the local/nonlocal iteration split.
    local_iter_mask = np.ones(exec_arr.shape, dtype=bool)
    for read, local_only in zip(forall.reads, aligned):
        if local_only:
            continue
        arr = env[read.array]
        ref_secs = [
            ls.affine_preimage(read.fn.a, read.fn.b)
            for ls in _local_sections(arr, me)
        ]
        local_iter_mask &= _in_sections(exec_arr, [s for s in ref_secs if s])

    schedule = CommSchedule(
        label=forall.label,
        rank=me,
        exec_local=exec_arr[local_iter_mask],
        exec_nonlocal=exec_arr[~local_iter_mask],
        built_by="compile-time",
    )

    for name in sorted({r.array for r in forall.reads}):
        arr = env[name]
        reads_of = [r for r, local_only in zip(forall.reads, aligned)
                    if r.array == name and not local_only]
        asched = ArraySchedule(array=name)
        schedule.arrays[name] = asched
        if not reads_of:
            asched.finalize()       # empty in/out sets, by construction
            continue

        # in(me, q): elements of remote processors q that my iterations read.
        in_offsets: Dict[int, List[np.ndarray]] = {}
        for q in range(P):
            if q == me:
                continue
            for loc_q in _local_sections(arr, q):
                for read in reads_of:
                    for es in exec_me:
                        need = _image(es, read.fn).intersect(loc_q)
                        if need:
                            offs = np.asarray(
                                arr.dist.dims[0].to_local(need.to_array())
                            )
                            in_offsets.setdefault(q, []).append(offs)
        merged_in = {
            q: np.concatenate(chunks) for q, chunks in in_offsets.items()
        }
        asched.in_records = coalesce_ranges(merged_in, me, incoming=True)
        asched.finalize()

        # out(me, q) = in(q, me): what each q's iterations need from me.
        loc_me_secs = _local_sections(arr, me)
        out_offsets: Dict[int, List[np.ndarray]] = {}
        for q in range(P):
            if q == me:
                continue
            exec_q = _exec_sections(forall, on_arr, q)
            for es in exec_q:
                for read in reads_of:
                    for loc_me in loc_me_secs:
                        give = _image(es, read.fn).intersect(loc_me)
                        if give:
                            offs = np.asarray(
                                arr.dist.dims[0].to_local(give.to_array())
                            )
                            out_offsets.setdefault(q, []).append(offs)
        merged_out = {
            q: np.concatenate(chunks) for q, chunks in out_offsets.items()
        }
        asched.out_records = coalesce_ranges(merged_out, me, incoming=False)

    # Affine loops have no data-dependent communication (empty data-version
    # map), but layout changes still invalidate them.
    for name in set(forall.arrays_read()) | set(forall.arrays_written()):
        schedule.dist_versions[name] = env[name].dist_version
    return schedule
