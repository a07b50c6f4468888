"""Schedule caching across forall executions (paper §3.2).

"Our run-time analysis takes advantage of this by computing the exec(p)
and ref(p) sets only the first time they are needed and saving them for
later loop executions.  This amortizes the cost of the run-time analysis
over many repetitions of the forall."

A schedule is valid while the *communication-determining* data is
unchanged: the indirection tables and count arrays named by the forall's
reads (changing the floating-point mesh values does not invalidate
anything).  The cache therefore keys on the forall label and compares the
stored version stamps of those arrays.  Invalidation is automatic: bump an
array's version (any write through the driver API does) and the next
execution re-inspects.

Two tiers.  The in-memory tier above dies with the process, which is fine
for one long run but wrong for a job server paying inspector cost once
per *job*.  An optional second tier — a
:class:`~repro.serve.diskcache.DiskScheduleCache` — persists inspected
schedules on disk under a content-addressed key (hash of the forall spec,
distributions, and the indirection arrays' bytes).  A memory miss falls
through to disk; a disk hit is promoted into memory as a copy stamped
with the current version counters, so the fast path stays fast.  Stores
write through.  Only loops that need the inspector use the disk tier:
a closed-form forall neither probes for nor writes a file.

Closed-form schedules have a tier of their own instead, per process:
:class:`ClosedFormMemo` (``CLOSED_FORM``).  A memory miss on a
closed-form loop asks it, not the builder, so a warm pool worker's next
job reuses the schedule, its compiled plan and its op tables rather than
rebuilding all three.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.analysis.planner import Strategy, choose_strategy
from repro.arrays.localview import LocalArray
from repro.core.forall import Forall
from repro.machine.api import Rank
from repro.runtime import executor
from repro.runtime.schedule import CommSchedule


def _content_key(forall: Forall, env: Dict[str, LocalArray],
                 translation: str) -> Optional[str]:
    # Imported lazily: repro.serve is a higher layer, and the key is only
    # needed when a disk tier is actually attached.
    from repro.serve.diskcache import schedule_content_key

    return schedule_content_key(forall, env, translation)


def _stamped(shared: CommSchedule, env: Dict[str, LocalArray],
             **changes) -> CommSchedule:
    """A caller's own copy of a schedule a memo shares: the sets, the
    plan and its op tables are shared, the ``versions`` /
    ``dist_versions`` stamps are ``env``'s, so no context re-stamps
    another's."""
    return dataclasses.replace(
        shared, **changes,
        versions={name: env[name].version
                  for name in shared.versions if name in env},
        dist_versions={name: env[name].dist_version
                       for name in shared.dist_versions if name in env},
    )


class ScheduleCache:
    """Per-rank cache of inspected forall schedules (memory + optional disk)."""

    def __init__(self, enabled: bool = True, disk=None,
                 translation: str = "ranges"):
        self.enabled = enabled
        #: optional :class:`~repro.serve.diskcache.DiskScheduleCache`
        self.disk = disk
        self.translation = translation
        self._store: Dict[str, CommSchedule] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._reported: Dict[str, int] = {}
        if disk is not None:
            # The disk tier may be a process-shared instance carrying
            # counters from earlier runs (see ``shared_disk_cache``);
            # baseline them so take_counts() reports this run's deltas.
            self._reported.update({
                "schedule_cache_disk_hits": disk.hits,
                "schedule_cache_disk_misses": disk.misses,
                "schedule_cache_disk_stores": disk.stores,
                "schedule_cache_disk_evictions": disk.evictions,
                "schedule_cache_disk_corrupt": disk.corrupt,
            })

    def take_counts(self) -> Dict[str, int]:
        """Counter deltas since the last call, keyed by engine counter name.

        The cache lives outside the engine, so its statistics are invisible
        to :class:`~repro.machine.stats.RunResult` unless the caller turns
        them into ``Count`` events.  ``KaliRank.forall`` drains this after
        every lookup/store so ``counter_sum("schedule_cache_hits")`` works.
        Disk-tier counters surface the same way
        (``schedule_cache_disk_hits`` etc.).
        """
        pairs = [
            ("schedule_cache_hits", self.hits),
            ("schedule_cache_misses", self.misses),
            ("schedule_cache_invalidations", self.invalidations),
        ]
        if self.disk is not None:
            pairs += [
                ("schedule_cache_disk_hits", self.disk.hits),
                ("schedule_cache_disk_misses", self.disk.misses),
                ("schedule_cache_disk_stores", self.disk.stores),
                ("schedule_cache_disk_evictions", self.disk.evictions),
                ("schedule_cache_disk_corrupt", self.disk.corrupt),
            ]
        out: Dict[str, int] = {}
        for name, value in pairs:
            delta = value - self._reported.get(name, 0)
            if delta:
                out[name] = delta
                self._reported[name] = value
        return out

    def hit_reported(self) -> None:
        """The caller reported the memory hit its last :meth:`lookup`
        counted: a hit moves no other counter, so that one hit is what
        :meth:`take_counts` would have returned."""
        self._reported["schedule_cache_hits"] = self.hits

    def lookup(self, forall: Forall, env: Dict[str, LocalArray]) -> Optional[CommSchedule]:
        """Return a valid cached schedule, or None (miss / stale / disabled).

        Memory misses (including version/distribution invalidations) fall
        through to the disk tier when one is attached.
        """
        if not self.enabled:
            self.misses += 1
            return None
        sched = self._store.get(forall.label)
        if sched is not None:
            stale = False
            for name, version in sched.versions.items():
                local = env.get(name)
                if local is None or local.version != version:
                    stale = True
                    break
            if not stale:
                for name, dv in sched.dist_versions.items():
                    local = env.get(name)
                    if local is None or local.dist_version != dv:
                        stale = True
                        break
            if not stale:
                self.hits += 1
                return sched
            self.invalidations += 1
            del self._store[forall.label]
        else:
            self.misses += 1
        return self._disk_lookup(forall, env)

    def _on_disk(self, forall: Forall, env: Dict[str, LocalArray]) -> bool:
        """Whether a disk tier holds ``forall``'s schedule: never for a
        closed-form loop.  The verdict reads only the forall and the
        distributions, so every rank reaches the same one."""
        return (self.disk is not None
                and choose_strategy(forall, env) is not Strategy.COMPILE_TIME)

    def _disk_lookup(self, forall: Forall, env: Dict[str, LocalArray]) -> Optional[CommSchedule]:
        """Disk-tier fallback: content hash, load, stamp, promote."""
        if not self._on_disk(forall, env):
            return None
        key = _content_key(forall, env, self.translation)
        if key is None:
            return None
        loaded = self.disk.load(key)
        if loaded is None:
            return None
        # The store's load memo hands this one object to every context of
        # the process that shares (directory, rank): its plan is compiled
        # once, and each context gets a copy with its own stamps.  The
        # stored stamps belong to whichever context inspected it; the
        # *content* matched, so the schedule is valid for the data now in
        # scope.
        if loaded.plan is None:
            loaded.plan = executor.compile_plan(forall, env, loaded)
        # built_by: provenance for strategies()/describe()
        sched = _stamped(loaded, env, built_by="disk-cache")
        self._store[forall.label] = sched
        return sched

    def store(self, forall: Forall, schedule: CommSchedule) -> None:
        """Memory-only store (disk stores need the env for the content
        key — callers with a disk tier use :meth:`store_through`)."""
        if self.enabled:
            self._store[forall.label] = schedule

    def store_through(self, forall: Forall, schedule: CommSchedule,
                      env: Dict[str, LocalArray]) -> None:
        """Store in memory and, when the loop belongs on the disk tier,
        persist an inspector-built schedule under its content key."""
        if not self.enabled:
            return
        self._store[forall.label] = schedule
        if schedule.built_by == "inspector" and self._on_disk(forall, env):
            key = _content_key(forall, env, self.translation)
            if key is not None:
                self.disk.store(key, schedule)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


#: most closed-form schedules one process keeps (see ``ClosedFormMemo``)
CLOSED_FORM_ENTRIES = 64


class ClosedFormMemo:
    """Closed-form schedules of one process, compiled, in a bounded LRU.

    A closed-form schedule (paper §3.1, ref. [3]) is a pure function of
    the forall spec, the rank and the layouts, so the memo keys each
    entry by the disk tier's content key (``schedule_content_key``),
    which for such a loop hashes exactly those and no content tag.  An
    entry holds the schedule with its compiled ``ExecPlan`` (compiled
    when the entry is made) and, through the plan, its op tables.

    What a caller gets is its own copy (``_stamped``), as from the disk
    tier, so each context invalidates on its own writes and
    redistributions.

    A hit and a miss yield the same ops — building a closed-form
    schedule sends nothing and charges nothing — so ranks that disagree
    about a hit cannot diverge into a collective.  Inspector-built
    schedules are collective to build and stay with the disk tier.
    """

    def __init__(self, capacity: int = CLOSED_FORM_ENTRIES):
        self.capacity = capacity
        self._entries: "OrderedDict[str, CommSchedule]" = OrderedDict()
        self._lock = threading.Lock()   # serve shards run jobs in threads

    def schedule(self, rank: Rank, forall: Forall, env: Dict[str, LocalArray],
                 translation: str, build: Callable) -> CommSchedule:
        """This rank's schedule of the closed-form ``forall``, stamped
        for ``env``: from the memo, or made by ``build(rank, forall,
        env)`` (``build_closed_form_schedule``), compiled and memoised."""
        key = _content_key(forall, env, translation)
        with self._lock:
            shared = None if key is None else self._entries.get(key)
            if shared is not None:
                self._entries.move_to_end(key)
        if shared is None:
            shared = build(rank, forall, env)
            if translation == "enumerated":
                shared.enumerate_translations()
            shared.plan = executor.compile_plan(forall, env, shared)
            if key is not None:
                with self._lock:
                    self._entries[key] = shared
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
        return _stamped(shared, env)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: this process's closed-form memo, shared by every rank context in it
CLOSED_FORM = ClosedFormMemo()
